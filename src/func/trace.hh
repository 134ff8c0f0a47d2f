/**
 * @file
 * The committed instruction stream the timing core replays. A
 * CommittedTrace records the committed stream of a program —
 * fast-forward skip, per-instruction dynamic record, console output,
 * whether it reached HALT — once, into one flat immutable record
 * array. The core fetches from it by index; every machine cell of a
 * sweep replays the one shared buffer read-only, so assembly, decode
 * and architectural execution are paid once per (workload, budget)
 * instead of once per (workload, budget, machine).
 */

#ifndef HPA_FUNC_TRACE_HH
#define HPA_FUNC_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "func/emulator.hh"

namespace hpa::func
{

/**
 * One entry of a trace's table: a static instruction, decoded as the
 * trace saw it, and its pc. Records hold the entry's index instead of
 * a copy.
 */
struct TraceEntry
{
    uint64_t pc = 0;
    isa::StaticInst inst;
};

#pragma pack(push, 4)
/**
 * One committed instruction as a trace stores it: 12 bytes, the
 * address plus one word that holds the table index and the taken
 * bit. The pc and the decoded instruction live once per distinct
 * static instruction in the trace's table (CommittedTrace::entry()).
 */
struct TraceRecord
{
    /** The largest table index a record can hold. */
    static constexpr uint32_t MAX_ENTRY = (1u << 31) - 1;

    /** The effective address of a memory reference, the next pc of
     *  a control instruction, 0 for anything else (which falls
     *  through to pc + 4). */
    uint64_t addr = 0;
    /** Index into the trace's table. */
    uint32_t entry : 31 = 0;
    /** Control instruction actually redirected the PC. */
    uint32_t taken : 1 = 0;
};
#pragma pack(pop)

static_assert(sizeof(TraceRecord) == 12);

/**
 * Immutable recording of a program's committed dynamic stream.
 *
 * Capture contract: record(0..size()) carries, field for field, what
 * Emulator::step() returns on a fresh Emulator after the same
 * fast-forward — through entry(), the pc and the decoded
 * instruction; the taken bit; the address (effAddr or nextPc, see
 * TraceRecord::addr) — and size() stops exactly at HALT or the
 * instruction budget, whichever comes first. Records are one
 * contiguous std::vector<TraceRecord> (12 B each), so a replay
 * cursor is a single sequential prefetch stream and record access is
 * a stable reference — no per-instruction gather, no copies, no
 * shared mutable state: one trace can feed any number of concurrent
 * sweep threads.
 */
class CommittedTrace
{
  public:
    /** A generated stream (no program behind it): nothing was
     *  fast-forwarded, the console is empty, and halted() is true
     *  when the last record is a HALT. */
    explicit CommittedTrace(const std::vector<ExecRecord> &records);

    /**
     * Functionally execute @p prog and record its committed stream.
     *
     * @param prog assembled program
     * @param fast_forward_pc architecturally execute (without
     *        recording) until the PC first reaches this address.
     *        0 disables.
     * @param max_insts record at most this many instructions
     *        (0 = run to HALT).
     */
    static CommittedTrace capture(const assembler::Program &prog,
                                  uint64_t fast_forward_pc,
                                  uint64_t max_insts);

    /** Recorded instructions. */
    size_t size() const { return records_.size(); }

    /** The @p i-th record of the stream. The reference is stable for
     *  the lifetime of the trace. */
    const TraceRecord &record(size_t i) const { return records_[i]; }

    /** The pc and decoded instruction of @p r, a record of this
     *  trace. The reference is stable for the lifetime of the
     *  trace. */
    const TraceEntry &
    entry(const TraceRecord &r) const
    {
        return entries_[r.entry];
    }

    /** The trace's table: every distinct (pc, decoded instruction)
     *  pair, in the order the records index it. */
    const std::vector<TraceEntry> &entries() const { return entries_; }

    /** Instructions skipped by the fast-forward loop. */
    uint64_t fastForwarded() const { return fastForwarded_; }

    /** Console bytes emitted over the whole capture (fast-forward
     *  plus the recorded stream). */
    const std::string &console() const { return console_; }

    /** The program halted within the capture (its stream ends at
     *  HALT, not at the budget). */
    bool halted() const { return halted_; }

    /** Approximate heap footprint, for diagnostics. */
    size_t
    memoryBytes() const
    {
        return records_.capacity() * sizeof(TraceRecord)
            + entries_.capacity() * sizeof(TraceEntry);
    }

  private:
    CommittedTrace() = default;

    /** Append a table entry for @p inst at @p pc; return its index. */
    uint32_t addEntry(uint64_t pc, const isa::StaticInst &inst);
    /** Append a record of table entry @p entry. */
    void append(uint64_t addr, uint32_t entry, bool taken);

    std::vector<TraceRecord> records_;
    /** The distinct (pc, decoded instruction) pairs the records
     *  index. */
    std::vector<TraceEntry> entries_;
    uint64_t fastForwarded_ = 0;
    std::string console_;
    bool halted_ = false;
};

} // namespace hpa::func

#endif // HPA_FUNC_TRACE_HH
