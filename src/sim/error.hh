/**
 * @file
 * Structured error taxonomy for the whole simulator, plus the
 * HPA_CHECK release-mode invariant macros.
 *
 * Every failure the simulator can raise carries a machine-readable
 * ErrorKind and a SimContext (cycle, committed count, machine and
 * workload names, optional pipeline-state dump), so callers — the
 * CLI, the sweep engine, the JSON emitters — can report *what kind*
 * of failure happened and *where* without parsing prose.
 *
 * SimError is a mixin, not a std::exception subclass: each concrete
 * error derives from the matching standard exception (ConfigError is
 * a std::invalid_argument, Deadlock a std::runtime_error, ...) so
 * pre-existing `catch (std::invalid_argument)` call sites and tests
 * keep working, while new code catches `const hpa::SimError &` to
 * get the typed kind and context. The library is a leaf (hpa_error):
 * core, asm, func, workloads and sim all link it without cycles.
 *
 * HPA_CHECK(cond, msg) is the release-mode assert replacement: it
 * stays on in every build type and throws InvariantViolation (with
 * file/line/condition text) instead of aborting, so a scheduler
 * bookkeeping bug in a release sweep becomes one failed, attributable
 * cell instead of a silent divergence or a dead process.
 */

#ifndef HPA_SIM_ERROR_HH
#define HPA_SIM_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hpa
{

/** Machine-readable failure classification. */
enum class ErrorKind
{
    Config,    ///< bad user input: unknown workload, invalid machine
    Workload,  ///< workload construction/execution failure (asm, emu)
    Invariant, ///< internal consistency check failed (HPA_CHECK)
    Deadlock,  ///< watchdog: no forward progress for N cycles
};

/** Stable lower-case tag for JSON/CLI output ("config", ...). */
const char *kindName(ErrorKind kind);

/**
 * Where a failure happened. Producers fill what they know: the core
 * fills cycle/committed/dump, the sweep engine adds machine and
 * workload names when it files the error into a RunOutcome.
 */
struct SimContext
{
    /** Simulated cycle at failure (0 = before/outside timing). */
    uint64_t cycle = 0;
    /** Instructions committed when the failure was raised. */
    uint64_t committed = 0;
    /** Cycle of the last successful commit (deadlock attribution). */
    uint64_t lastCommitCycle = 0;
    std::string machine;
    std::string workload;
    /** Multi-line pipeline-state dump (Core::dumpPipelineState()). */
    std::string dump;

    /** One-line " @cycle=... machine=..." suffix; empty if nothing
     *  was filled in. Never includes the dump. */
    std::string summary() const;
};

/**
 * Root of the simulator error hierarchy (mixin — catch this to get
 * kind() and context(); catch the std base for what()).
 */
class SimError
{
  public:
    SimError(ErrorKind kind, std::string msg, SimContext ctx)
        : kind_(kind), msg_(std::move(msg)), ctx_(std::move(ctx))
    {}
    virtual ~SimError() = default;

    /** The full composed text (same as the std exception's what()). */
    virtual const char *what() const noexcept = 0;

    ErrorKind kind() const { return kind_; }
    /** The bare message, without kind tag or context suffix. */
    const std::string &message() const { return msg_; }
    const SimContext &context() const { return ctx_; }

    /** One-line "[kind] message @context" (no dump) — what the CLI
     *  prints and the sweep engine stores per failed cell. */
    std::string oneLine() const;

  private:
    ErrorKind kind_;
    std::string msg_;
    SimContext ctx_;
};

namespace detail
{
/** Build the what() text: "[kind] msg @ctx" + "\n" + dump. */
std::string compose(ErrorKind kind, const std::string &msg,
                    const SimContext &ctx);

/** Cold-path helper behind HPA_CHECK; always throws
 *  InvariantViolation. */
[[noreturn]] void invariantFailed(const char *file, int line,
                                  const char *cond,
                                  const std::string &msg,
                                  SimContext ctx);
} // namespace detail

/** Bad user input: unknown workload name, contradictory machine
 *  configuration, malformed spec. Is a std::invalid_argument. */
class ConfigError : public std::invalid_argument, public SimError
{
  public:
    explicit ConfigError(const std::string &msg, SimContext ctx = {})
        : std::invalid_argument(
              detail::compose(ErrorKind::Config, msg, ctx)),
          SimError(ErrorKind::Config, msg, std::move(ctx))
    {}
    const char *
    what() const noexcept override
    {
        return std::invalid_argument::what();
    }
};

/** Workload construction or functional-execution failure (assembler
 *  errors, emulator faults, requireAllOk's failed-cell list). */
class WorkloadError : public std::runtime_error, public SimError
{
  public:
    explicit WorkloadError(const std::string &msg, SimContext ctx = {})
        : std::runtime_error(
              detail::compose(ErrorKind::Workload, msg, ctx)),
          SimError(ErrorKind::Workload, msg, std::move(ctx))
    {}
    const char *
    what() const noexcept override
    {
        return std::runtime_error::what();
    }
};

/** An HPA_CHECK or cross-validation pass failed: simulator state is
 *  internally inconsistent. Is a std::logic_error. */
class InvariantViolation : public std::logic_error, public SimError
{
  public:
    explicit InvariantViolation(const std::string &msg,
                                SimContext ctx = {})
        : std::logic_error(
              detail::compose(ErrorKind::Invariant, msg, ctx)),
          SimError(ErrorKind::Invariant, msg, std::move(ctx))
    {}
    const char *
    what() const noexcept override
    {
        return std::logic_error::what();
    }
};

/** Watchdog: the core made no forward progress for the configured
 *  number of cycles. */
class Deadlock : public std::runtime_error, public SimError
{
  public:
    explicit Deadlock(const std::string &msg, SimContext ctx = {})
        : std::runtime_error(
              detail::compose(ErrorKind::Deadlock, msg, ctx)),
          SimError(ErrorKind::Deadlock, msg, std::move(ctx))
    {}
    const char *
    what() const noexcept override
    {
        return std::runtime_error::what();
    }
};

} // namespace hpa

/**
 * Release-mode invariant check. Unlike assert() this is compiled into
 * every build type; a failure throws hpa::InvariantViolation carrying
 * file, line and the condition text. The condition must be cheap —
 * these run on simulator hot paths. The message expression is only
 * evaluated on failure.
 */
#define HPA_CHECK_CTX(cond, msg, ctx)                                  \
    do {                                                               \
        if (!(cond))                                                   \
            ::hpa::detail::invariantFailed(__FILE__, __LINE__, #cond,  \
                                           (msg), (ctx));              \
    } while (0)

/** HPA_CHECK_CTX without a context (non-core call sites). */
#define HPA_CHECK(cond, msg) HPA_CHECK_CTX(cond, msg, ::hpa::SimContext{})

#endif // HPA_SIM_ERROR_HH
