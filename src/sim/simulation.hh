/**
 * @file
 * Convenience driver tying together a committed trace (captured from
 * an assembled program, or shared) and the timing core, plus the
 * Table 1 machine configurations.
 */

#ifndef HPA_SIM_SIMULATION_HH
#define HPA_SIM_SIMULATION_HH

#include <memory>
#include <ostream>
#include <string>

#include "asm/assembler.hh"
#include "core/core.hh"
#include "func/trace.hh"

namespace hpa::sim
{

class MachineBuilder;

/** A machine configuration and its name, machineName(cfg) (set by
 *  MachineBuilder::build(); see sim/experiment.hh). */
struct Machine
{
    std::string name;
    core::CoreConfig cfg;

    /**
     * Start a fluent, validating builder chain from a Table 1 base
     * machine (width 4 or 8; anything else throws):
     *
     *   Machine m = Machine::base(4)
     *                   .wakeup(core::WakeupModel::Sequential)
     *                   .lap(1024);
     *
     * See sim/experiment.hh for the full MachineBuilder interface.
     */
    static MachineBuilder base(unsigned width);
};

/**
 * One simulation: the timing core replaying one committed trace,
 * either captured from a program and owned (the program-based
 * constructor) or shared read-only (the trace-based constructor).
 */
class Simulation
{
  public:
    /**
     * Capture @p prog's committed stream, then replay it. The trace
     * is held in memory (12 B per instruction), so a budget bounds
     * the run's footprint.
     *
     * @param prog assembled program
     * @param cfg core configuration
     * @param max_insts cap on simulated committed instructions
     *        (0 = run to HALT)
     * @param fast_forward_pc functionally execute (without timing)
     *        until the PC first reaches this address — SimpleScalar
     *        style fast-forward past initialization. 0 disables.
     */
    Simulation(const assembler::Program &prog,
               const core::CoreConfig &cfg, uint64_t max_insts = 0,
               uint64_t fast_forward_pc = 0);

    /**
     * Replay a shared @p trace (which already encodes the
     * fast-forward skip and instruction budget it was captured
     * with). @p trace must outlive this Simulation —
     * WorkloadCache::trace() entries satisfy that for free.
     */
    Simulation(const func::CommittedTrace &trace,
               const core::CoreConfig &cfg);

    /** Instructions skipped by fast-forwarding. */
    uint64_t fastForwarded() const { return trace_->fastForwarded(); }

    /** Run to completion; @return committed instructions. A
     *  completed run frees the core's timing state (Core::run). */
    uint64_t run(uint64_t max_cycles = 0);

    core::Core &core() { return *core_; }

    /** The committed stream the core replays: its length, whether
     *  the program halted within it, and its console. */
    const func::CommittedTrace &trace() const { return *trace_; }

    /** Console bytes of the workload, recorded at capture. */
    const std::string &console() const { return trace_->console(); }

    double ipc() const { return core_->ipc(); }

    /**
     * Every statistic of this run in one registry: the core's
     * counters/distributions plus the core.ipc formula. The registry
     * holds non-owning pointers into the core, so it must not
     * outlive this Simulation. All renderings — the text report,
     * JSON, CSV — are views over this registry.
     */
    stats::Registry statsRegistry();

    /** Dump a full statistics report (statsRegistry() as text). */
    void report(std::ostream &os);

  private:
    /** Set when this simulation captured its own trace. */
    std::unique_ptr<func::CommittedTrace> owned_;
    /** owned_, or a shared trace (the cache owns it). */
    const func::CommittedTrace *trace_;
    std::unique_ptr<core::Core> core_;
};

} // namespace hpa::sim

#endif // HPA_SIM_SIMULATION_HH
