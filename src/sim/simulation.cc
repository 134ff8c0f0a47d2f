#include "sim/simulation.hh"

#include "sim/experiment.hh"

namespace hpa::sim
{

Simulation::Simulation(const assembler::Program &prog,
                       const core::CoreConfig &cfg, uint64_t max_insts,
                       uint64_t fast_forward_pc)
{
    emu_ = std::make_unique<func::Emulator>(prog);
    if (fast_forward_pc) {
        while (!emu_->halted() && emu_->pc() != fast_forward_pc) {
            emu_->step();
            ++fastForwarded_;
        }
    }
    source_ = std::make_unique<core::EmulatorSource>(*emu_, max_insts);
    core_ = std::make_unique<core::Core>(cfg, *source_);
}

Simulation::Simulation(const func::CommittedTrace &trace,
                       const core::CoreConfig &cfg)
    : trace_(&trace), fastForwarded_(trace.fastForwarded())
{
    source_ = std::make_unique<core::TraceSource>(trace);
    core_ = std::make_unique<core::Core>(cfg, *source_);
}

func::Emulator &
Simulation::emulator()
{
    if (!emu_)
        throw ConfigError(
            "trace-replay simulation has no emulator (use console() "
            "or construct from a program for architectural state)");
    return *emu_;
}

const std::string &
Simulation::console() const
{
    return emu_ ? emu_->console() : trace_->console();
}

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

double
runIpc(const std::string &program_text, const core::CoreConfig &cfg,
       uint64_t max_insts)
{
    auto prog = assembler::assemble(program_text);
    Simulation s(prog, cfg, max_insts);
    s.run();
    return s.ipc();
}

} // namespace hpa::sim
