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
 * One committed instruction as a trace stores it. The decoded
 * instruction is not copied into every record: it lives once per
 * distinct static instruction in the trace's table, and the record
 * holds its index (CommittedTrace::inst()).
 */
struct TraceRecord
{
    uint64_t pc = 0;
    /** The effective address of a memory reference, the next pc of
     *  a control instruction, 0 for anything else (which falls
     *  through to pc + 4). */
    uint64_t addr = 0;
    /** Index into the trace's static-instruction table. */
    uint32_t inst = 0;
    /** Control instruction actually redirected the PC. */
    bool taken = false;
};

/**
 * Immutable recording of a program's committed dynamic stream.
 *
 * Capture contract: record(0..size()) carries, field for field, what
 * Emulator::step() returns on a fresh Emulator after the same
 * fast-forward — the pc, the taken bit, the address (effAddr or
 * nextPc, see TraceRecord::addr) and, through inst(), the decoded
 * instruction — and size() stops exactly at HALT or the instruction
 * budget, whichever comes first. Records are one contiguous
 * std::vector<TraceRecord> (24 B each), so a replay cursor is a
 * single sequential prefetch stream and record access is a stable
 * reference — no per-instruction gather, no copies, no shared
 * mutable state: one trace can feed any number of concurrent sweep
 * threads.
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

    /** The decoded instruction of @p r, a record of this trace. The
     *  reference is stable for the lifetime of the trace. */
    const isa::StaticInst &
    inst(const TraceRecord &r) const
    {
        return statics_[r.inst];
    }

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
            + statics_.capacity() * sizeof(isa::StaticInst);
    }

  private:
    /** No table entry yet. */
    static constexpr uint32_t NO_INST = ~uint32_t(0);

    CommittedTrace() = default;

    /** Record @p rec, reusing table entry @p entry when it holds
     *  rec.inst and appending a new entry (stored into @p entry)
     *  when it does not. */
    void append(const ExecRecord &rec, uint32_t &entry);

    std::vector<TraceRecord> records_;
    /** The distinct decoded instructions the records index. */
    std::vector<isa::StaticInst> statics_;
    uint64_t fastForwarded_ = 0;
    std::string console_;
    bool halted_ = false;
};

static_assert(sizeof(TraceRecord) == 24);

} // namespace hpa::func

#endif // HPA_FUNC_TRACE_HH
