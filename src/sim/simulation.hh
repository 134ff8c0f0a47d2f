/**
 * @file
 * Convenience driver tying together an assembled program, the
 * functional emulator and the timing core, plus the Table 1 machine
 * configurations.
 */

#ifndef HPA_SIM_SIMULATION_HH
#define HPA_SIM_SIMULATION_HH

#include <memory>
#include <ostream>
#include <string>

#include "asm/assembler.hh"
#include "core/core.hh"
#include "func/emulator.hh"
#include "func/trace.hh"

namespace hpa::sim
{

class MachineBuilder;

/** Named machine model variants used across the evaluation. */
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
 * One simulation: the timing core plus its committed-path source.
 * Two source flavours share every other member:
 *  - execution-driven: owns an emulator stepped per instruction
 *    (the program-based constructor), or
 *  - trace-replay: replays a shared read-only CommittedTrace (the
 *    trace-based constructor; no emulator, functional execution was
 *    paid once at capture).
 */
class Simulation
{
  public:
    /**
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
     * Trace-replay simulation: drive the core from @p trace (which
     * already encodes the fast-forward skip and instruction budget
     * it was captured with). @p trace must outlive this Simulation —
     * WorkloadCache::trace() entries satisfy that for free.
     */
    Simulation(const func::CommittedTrace &trace,
               const core::CoreConfig &cfg);

    /** Instructions skipped by fast-forwarding. */
    uint64_t fastForwarded() const { return fastForwarded_; }

    /** Run to completion; @return committed instructions. */
    uint64_t run(uint64_t max_cycles = 0);

    core::Core &core() { return *core_; }

    /** True on execution-driven runs; trace replays own no emulator. */
    bool hasEmulator() const { return emu_ != nullptr; }

    /** The emulator of an execution-driven run. Throws
     *  hpa::ConfigError on trace-replay simulations. */
    func::Emulator &emulator();

    /**
     * Console bytes of the workload: the emulator's console (live,
     * grows as the source is stepped) or, on trace replays, the
     * console recorded at capture (complete from the start).
     */
    const std::string &console() const;

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
    std::unique_ptr<func::Emulator> emu_;
    /** Non-owning on trace replays (the cache owns the trace). */
    const func::CommittedTrace *trace_ = nullptr;
    /** Emulator-backed or trace-replay source, feeding the core. */
    std::unique_ptr<core::InstSource> source_;
    std::unique_ptr<core::Core> core_;
    uint64_t fastForwarded_ = 0;
};

/**
 * Assemble-and-run helper: run @p program_text on @p cfg for at most
 * @p max_insts instructions and return the achieved IPC.
 */
double runIpc(const std::string &program_text,
              const core::CoreConfig &cfg, uint64_t max_insts = 0);

} // namespace hpa::sim

#endif // HPA_SIM_SIMULATION_HH
