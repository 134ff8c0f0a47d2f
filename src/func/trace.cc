#include "func/trace.hh"

#include <unordered_map>

namespace hpa::func
{

namespace
{

/** Table index per pc, for entries keyed by pc: a generated stream's,
 *  and capture's at pcs off the code-word grid. */
using EntryByPc = std::unordered_map<uint64_t, uint32_t>;

/** No table entry yet. */
constexpr uint32_t NO_ENTRY = ~uint32_t(0);

} // namespace

uint32_t
CommittedTrace::addEntry(uint64_t pc, const isa::StaticInst &inst)
{
    if (entries_.size() > TraceRecord::MAX_ENTRY)
        throw WorkloadError("trace table exceeds 2^31 entries");
    entries_.push_back(TraceEntry{pc, inst});
    return uint32_t(entries_.size() - 1);
}

void
CommittedTrace::append(uint64_t addr, uint32_t entry, bool taken)
{
    TraceRecord r;
    r.addr = addr;
    r.entry = entry & TraceRecord::MAX_ENTRY; // addEntry checked it
    r.taken = taken;
    records_.push_back(r);
}

CommittedTrace::CommittedTrace(const std::vector<ExecRecord> &records)
    : halted_(!records.empty()
              && records.back().inst.op == isa::Opcode::HALT)
{
    // A generated stream has no code layout: key the table by pc, and
    // add an entry when a pc's instruction changes.
    EntryByPc byPc;
    records_.reserve(records.size());
    for (const ExecRecord &rec : records) {
        uint32_t &e = byPc.try_emplace(rec.pc, NO_ENTRY).first->second;
        if (e == NO_ENTRY || entries_[e].inst != rec.inst)
            e = addEntry(rec.pc, rec.inst);
        append(rec.inst.isControl() ? rec.nextPc : rec.effAddr, e,
               rec.taken);
    }
}

CommittedTrace
CommittedTrace::capture(const assembler::Program &prog,
                        uint64_t fast_forward_pc, uint64_t max_insts)
{
    CommittedTrace t;
    Emulator emu(prog);
    Emulator::Effects fx;

    // Fast-forward: architectural execution only, stopping the first
    // time the PC hits the label.
    if (fast_forward_pc) {
        while (!emu.halted() && emu.pc() != fast_forward_pc) {
            emu.execute(fx);
            ++t.fastForwarded_;
        }
    }

    // Reserve the whole budget up front: growth by doubling would
    // hold the old and the new buffer at once.
    if (max_insts)
        t.records_.reserve(max_insts);

    // The table entry of each code word's current decode, found in
    // O(1): a word gets a new entry on its first recorded execution
    // and whenever the emulator decodes it afresh (after a store into
    // the text segment), so nothing is compared per record. The
    // emulator decodes a pc off the word grid (an unaligned or
    // out-of-text entry point) at every execution; those are keyed by
    // pc and compared instead.
    std::vector<uint32_t> byWord(prog.code.size(), NO_ENTRY);
    EntryByPc offGrid;

    // Stop at halt or budget, checked before each step.
    uint64_t count = 0;
    while (!emu.halted() && (!max_insts || count < max_insts)) {
        ++count;
        const uint64_t pc = emu.pc();
        const isa::StaticInst &si = emu.execute(fx);
        const uint64_t off = pc - prog.codeBase;
        uint32_t e = NO_ENTRY;
        if ((off & 3) == 0 && off / 4 < byWord.size()) {
            uint32_t &word = byWord[off / 4];
            if (fx.decoded || word == NO_ENTRY)
                word = t.addEntry(pc, si);
            e = word;
        } else {
            uint32_t &byPc =
                offGrid.try_emplace(pc, NO_ENTRY).first->second;
            if (byPc == NO_ENTRY || t.entries_[byPc].inst != si)
                byPc = t.addEntry(pc, si);
            e = byPc;
        }
        t.append(fx.addr, e, fx.taken);
    }

    t.console_ = emu.console();
    t.halted_ = emu.halted();
    return t;
}

} // namespace hpa::func
