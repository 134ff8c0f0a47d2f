#include "sim/simulation.hh"

#include "sim/experiment.hh"

namespace hpa::sim
{

Simulation::Simulation(const assembler::Program &prog,
                       const core::CoreConfig &cfg, uint64_t max_insts,
                       uint64_t fast_forward_pc)
    : owned_(std::make_unique<func::CommittedTrace>(
          func::CommittedTrace::capture(prog, fast_forward_pc,
                                        max_insts))),
      trace_(owned_.get()),
      core_(std::make_unique<core::Core>(cfg, *trace_))
{}

Simulation::Simulation(const func::CommittedTrace &trace,
                       const core::CoreConfig &cfg)
    : trace_(&trace), core_(std::make_unique<core::Core>(cfg, trace))
{}

uint64_t
Simulation::run(uint64_t max_cycles)
{
    return core_->run(max_cycles);
}

stats::Registry
Simulation::statsRegistry()
{
    stats::Registry reg;
    core_->regStats(reg);
    core::Core *c = core_.get();
    reg.add(stats::Formula("core.ipc", "committed per cycle",
                           [c] { return c->ipc(); }));
    return reg;
}

void
Simulation::report(std::ostream &os)
{
    statsRegistry().dump(os);
}

} // namespace hpa::sim
