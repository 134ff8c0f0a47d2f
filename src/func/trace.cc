#include "func/trace.hh"

#include <utility>

namespace hpa::func
{

CommittedTrace::CommittedTrace(std::vector<ExecRecord> records)
    : records_(std::move(records)),
      halted_(!records_.empty()
              && records_.back().inst.op == isa::Opcode::HALT)
{}

CommittedTrace
CommittedTrace::capture(const assembler::Program &prog,
                        uint64_t fast_forward_pc, uint64_t max_insts)
{
    CommittedTrace t;
    Emulator emu(prog);

    // Fast-forward: architectural execution only, stopping the first
    // time the PC hits the label.
    if (fast_forward_pc) {
        while (!emu.halted() && emu.pc() != fast_forward_pc) {
            emu.step();
            ++t.fastForwarded_;
        }
    }

    // Reserve the whole budget up front: growth by doubling would
    // hold the old and the new buffer at once.
    if (max_insts)
        t.records_.reserve(max_insts);

    // Stop at halt or budget, checked before each step.
    uint64_t count = 0;
    while (!emu.halted() && (!max_insts || count < max_insts)) {
        ++count;
        t.records_.push_back(emu.step());
    }

    t.console_ = emu.console();
    t.halted_ = emu.halted();
    return t;
}

} // namespace hpa::func
