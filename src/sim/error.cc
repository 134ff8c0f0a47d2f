#include "sim/error.hh"

namespace hpa
{

const char *
kindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Config: return "config";
      case ErrorKind::Workload: return "workload";
      case ErrorKind::Invariant: return "invariant";
      case ErrorKind::Deadlock: return "deadlock";
    }
    return "unknown";
}

std::string
SimContext::summary() const
{
    std::string s;
    if (cycle)
        s += " cycle=" + std::to_string(cycle);
    if (committed)
        s += " committed=" + std::to_string(committed);
    if (lastCommitCycle)
        s += " last_commit_cycle=" + std::to_string(lastCommitCycle);
    if (!machine.empty())
        s += " machine=" + machine;
    if (!workload.empty())
        s += " workload=" + workload;
    if (!s.empty())
        s = " @" + s.substr(1);
    return s;
}

// Built with appends rather than operator+ chains: GCC 12's -Wrestrict
// misfires on temporary-string concatenation at -O3 (GCC PR105329).
std::string
SimError::oneLine() const
{
    std::string s = "[";
    s += kindName(kind());
    s += "] ";
    s += message();
    s += context().summary();
    return s;
}

namespace detail
{

std::string
compose(ErrorKind kind, const std::string &msg, const SimContext &ctx)
{
    std::string s = "[";
    s += kindName(kind);
    s += "] ";
    s += msg;
    s += ctx.summary();
    if (!ctx.dump.empty()) {
        s += '\n';
        s += ctx.dump;
    }
    return s;
}

void
invariantFailed(const char *file, int line, const char *cond,
                const std::string &msg, SimContext ctx)
{
    std::string where(file);
    // Keep only the path tail; full build paths add noise.
    size_t slash = where.rfind("src/");
    if (slash != std::string::npos)
        where = where.substr(slash);
    throw InvariantViolation("HPA_CHECK failed at " + where + ":"
                                 + std::to_string(line) + ": (" + cond
                                 + ") — " + msg,
                             std::move(ctx));
}

} // namespace detail
} // namespace hpa
