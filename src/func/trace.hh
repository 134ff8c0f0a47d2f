/**
 * @file
 * The committed instruction stream the timing core replays. A
 * CommittedTrace records the exact ExecRecord stream of a program —
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
 * Immutable recording of a program's committed dynamic stream.
 *
 * Capture contract: record(0..size()) is, byte for byte, what
 * Emulator::step() returns on a fresh Emulator after the same
 * fast-forward, and size() stops exactly at HALT or the instruction
 * budget, whichever comes first. Records are stored as one
 * contiguous std::vector<ExecRecord> (56 B each), so a replay
 * cursor is a single sequential prefetch stream and record access
 * is a stable reference — no per-instruction gather, no copies, no
 * shared mutable state: one trace can feed any number of concurrent
 * sweep threads.
 */
class CommittedTrace
{
  public:
    /** A generated stream (no program behind it): nothing was
     *  fast-forwarded, the console is empty, and halted() is true
     *  when the last record is a HALT. */
    explicit CommittedTrace(std::vector<ExecRecord> records);

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

    /** The @p i-th ExecRecord of the stream. The reference is
     *  stable for the lifetime of the trace. */
    const ExecRecord &record(size_t i) const { return records_[i]; }

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
        return records_.capacity() * sizeof(ExecRecord);
    }

  private:
    CommittedTrace() = default;

    std::vector<ExecRecord> records_;
    uint64_t fastForwarded_ = 0;
    std::string console_;
    bool halted_ = false;
};

} // namespace hpa::func

#endif // HPA_FUNC_TRACE_HH
