#include "func/trace.hh"

#include <unordered_map>

namespace hpa::func
{

CommittedTrace::CommittedTrace(const std::vector<ExecRecord> &records)
    : halted_(!records.empty()
              && records.back().inst.op == isa::Opcode::HALT)
{
    // A generated stream has no code layout: key the table by pc.
    std::unordered_map<uint64_t, uint32_t> byPc;
    records_.reserve(records.size());
    for (const ExecRecord &rec : records)
        append(rec, byPc.try_emplace(rec.pc, NO_INST).first->second);
}

void
CommittedTrace::append(const ExecRecord &rec, uint32_t &entry)
{
    if (entry == NO_INST || statics_[entry] != rec.inst) {
        entry = uint32_t(statics_.size());
        statics_.push_back(rec.inst);
    }
    records_.push_back(
        TraceRecord{rec.pc,
                    rec.inst.isControl() ? rec.nextPc : rec.effAddr,
                    entry, rec.taken});
}

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

    // The table entry last recorded per code word, found in O(1).
    // append() re-checks it against the decoded instruction, so a
    // word that self-modifying code patched gets a new entry. A pc
    // off the word grid (an unaligned or out-of-text entry point)
    // shares one spare slot, re-checked the same way.
    std::vector<uint32_t> byWord(prog.code.size(), NO_INST);
    uint32_t offGrid = NO_INST;

    // Stop at halt or budget, checked before each step.
    uint64_t count = 0;
    while (!emu.halted() && (!max_insts || count < max_insts)) {
        ++count;
        const ExecRecord rec = emu.step();
        const uint64_t off = rec.pc - prog.codeBase;
        const bool onGrid = (off & 3) == 0 && off / 4 < byWord.size();
        t.append(rec, onGrid ? byWord[off / 4] : offGrid);
    }

    t.console_ = emu.console();
    t.halted_ = emu.halted();
    return t;
}

} // namespace hpa::func
