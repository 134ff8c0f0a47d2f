/**
 * @file
 * The declarative experiment API: machines are assembled by a
 * fluent, validating MachineBuilder, a run is described by an
 * ExperimentSpec, and every completed run returns a RunResult that
 * carries the achieved IPC, the budgets actually consumed, the
 * fast-forward count and the full statistics snapshot — emittable as
 * schema-versioned JSON. This is the stable programmatic surface the
 * tools and the sweep engine drive the simulator through; the builder
 * is the single machine-construction path, and policies are selected
 * by enum (core/policy_registry.hh maps each registry key to one).
 */

#ifndef HPA_SIM_EXPERIMENT_HH
#define HPA_SIM_EXPERIMENT_HH

#include <memory>
#include <ostream>
#include <string>

#include "sim/error.hh"
#include "sim/simulation.hh"
#include "stats/json.hh"
#include "workloads/workloads.hh"

namespace hpa::sim
{

/** How one experiment (sweep cell) finished. */
enum class RunStatus
{
    Ok,     ///< ran to its budget/HALT, metrics are meaningful
    Failed, ///< raised an error (config/workload/invariant/deadlock)
};

/** Stable lower-case tag for JSON/CLI output ("ok", ...). */
const char *statusName(RunStatus status);

/**
 * How one run actually ended: status, the error (kind + one-line
 * text + context) when it did not end well, and data-quality caveats
 * that are not errors (a requested fast-forward with no `steady:`
 * symbol).
 */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    /** Meaningful only when !ok(). */
    ErrorKind errorKind = ErrorKind::Workload;
    /** One-line "[kind] message @context" (SimError::oneLine()), or
     *  the exception's what() for untyped errors. */
    std::string error;
    /** Failure context (cycle, committed, machine, workload, dump). */
    SimContext context;
    /** fast_forward was requested but the kernel has no `steady:`
     *  symbol — the run timed the initialization code too. */
    bool steadyMissing = false;

    bool ok() const { return status == RunStatus::Ok; }
};

/**
 * The name of the machine @p cfg, the only place one is made:
 * `<width>-wide`, then, in this order, the wakeup and register-file
 * registry suffixes, `/selective`, `/half-rename`, `/lapN`,
 * `/bypassN` and `/detectN`, each only where a field a MachineBuilder
 * setter writes differs from the Table 1 machine. The robustness
 * knobs never enter it.
 */
std::string machineName(const core::CoreConfig &cfg);

/**
 * Fluent machine assembly with deferred validation:
 *
 *   Machine m = Machine::base(4)
 *                   .wakeup(core::WakeupModel::Sequential)
 *                   .lap(1024)
 *                   .regfile(core::RegfileModel::SequentialAccess)
 *                   .build();
 *
 * Each setter only sets its configuration field; build() names the
 * machine with machineName(), so the order of the calls does not
 * matter. build() — or the implicit Machine conversion — validates
 * the combination and throws std::invalid_argument on
 * contradictions: a lap() table on a predictor-less wakeup scheme, a
 * non-power-of-2 predictor, a detectDelay() without tag elimination,
 * or a zero-cycle bypass window (Machine::base() rejects a width
 * outside Table 1).
 */
class MachineBuilder
{
  public:
    MachineBuilder &wakeup(core::WakeupModel w);
    MachineBuilder &regfile(core::RegfileModel r);
    MachineBuilder &recovery(core::RecoveryModel r);
    MachineBuilder &rename(core::RenameModel r);

    /** Last-arrival predictor entries (power of 2); only meaningful
     *  — and only accepted — with a predictor-based wakeup scheme
     *  (Sequential or TagElimination). */
    MachineBuilder &lap(unsigned entries);

    /** Bypass-network window in cycles (>= 1, Section 4.2). */
    MachineBuilder &bypassWindow(unsigned cycles);

    /** Tag-elimination scoreboard detection delay (>= 1); requires
     *  WakeupModel::TagElimination. */
    MachineBuilder &detectDelay(unsigned cycles);

    /** Validate the accumulated configuration and return it, named
     *  by machineName(). */
    Machine build() const;

    /** Implicit finalization so a chain can be passed anywhere a
     *  Machine is expected. */
    operator Machine() const { return build(); }

  private:
    friend struct Machine;
    explicit MachineBuilder(const core::CoreConfig &cfg) : cfg_(cfg) {}

    core::CoreConfig cfg_;
    bool lapSet_ = false;
    bool detectSet_ = false;
};

/**
 * A declarative run request: which workload, on which machine, under
 * which budgets. This is the unit the sweep engine executes (the
 * legacy name SweepJob aliases this type) and the unit serialized
 * into run artifacts.
 */
struct ExperimentSpec
{
    /** Workload registry name (workloads::benchmarkNames()). */
    std::string workload;
    Machine machine;
    /** Committed-instruction budget (0 = run to HALT). */
    uint64_t max_insts = 0;
    /** Cycle budget (0 = unbounded). */
    uint64_t max_cycles = 0;
    /** Fast-forward functionally to the kernel's `steady:` label. */
    bool fast_forward = true;

    /**
     * Check the spec is runnable: the workload must be a registered
     * benchmark and the machine must have been assembled (non-empty
     * name, non-zero width). Throws hpa::ConfigError (a
     * std::invalid_argument).
     */
    void validate() const;
};

/**
 * A completed experiment. It keeps its finished Simulation: the
 * trace reference and console, and a core that freed its timing
 * state when its run completed (Core::run) but still holds every
 * counter, cycle(), config() and the LAP monitor's counts — so the
 * statistics snapshot can be rendered in any format after the fact,
 * at a few KiB per held result.
 */
struct RunResult
{
    ExperimentSpec spec;
    std::unique_ptr<Simulation> sim;
    double ipc = 0.0;
    uint64_t committed = 0;
    uint64_t cycles = 0;
    /** Instructions functionally skipped before timing began. */
    uint64_t fastForwarded = 0;
    /** Wall-clock seconds of the timing run (excludes workload
     *  assembly and functional fast-forward). */
    double wallSeconds = 0.0;
    /** How the run ended; a failed cell keeps its spec and outcome
     *  but may have no sim and zeroed metrics. */
    RunOutcome outcome;

    /** Metrics are meaningful: the run succeeded and actually
     *  simulated cycles. Failed/zero-cycle cells report ipc = 0.0
     *  with valid() = false instead of NaN/Inf. */
    bool
    valid() const
    {
        return outcome.ok() && cycles > 0;
    }

    /** The core's statistics block (requires sim). */
    const core::CoreStats &coreStats() const;

    /** Full statistics snapshot: every core/memory/bpred stat plus
     *  the IPC formula, as the text report registers them. */
    stats::Registry statsRegistry() const;

    /**
     * Serialize onto @p jw as one "hpa.run.v3" object: the spec,
     * the status/error outcome, the metrics and (optionally) the
     * full stats snapshot. v3 is v2 without attempts (every run
     * makes one attempt); v2 added status, valid, steady_missing
     * and — on failed cells — error_kind/error over v1. No
     * wall-clock field is emitted, so the document is reproducible
     * byte-for-byte.
     */
    void toJson(stats::json::JsonWriter &jw,
                bool with_stats = true) const;

    /** Standalone toJson() convenience: one document on @p os. */
    void toJson(std::ostream &os, bool with_stats = true) const;

    /** Schema tag of toJson() documents. */
    static constexpr const char *JSON_SCHEMA = "hpa.run.v3";
};

} // namespace hpa::sim

#endif // HPA_SIM_EXPERIMENT_HH
