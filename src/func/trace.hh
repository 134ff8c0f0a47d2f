/**
 * @file
 * Committed-trace capture for trace-once/replay-many sweeps. A
 * CommittedTrace records the exact ExecRecord stream an Emulator
 * would feed the timing core — fast-forward skip, per-instruction
 * dynamic record, console output — once, into one flat immutable
 * record array. Every machine cell of a sweep then replays the
 * shared buffer read-only (core::TraceSource) instead of re-running
 * functional emulation per cell, so assembly, decode and
 * architectural execution are paid once per (workload, budget)
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
 * Replay contract: record(0..size()) reproduces, byte for byte, the
 * ExecRecords an EmulatorSource over a fresh Emulator (after the
 * same fast-forward) would return, and size() marks end-of-stream
 * exactly where EmulatorSource::next() would first return null
 * (HALT or the instruction budget, whichever comes first). Records
 * are stored as one contiguous array of ExecRecords, so a replay
 * cursor is a single sequential prefetch stream and record access is
 * a stable pointer — no per-instruction gather, no copies, no shared
 * mutable state: one trace can feed any number of concurrent sweep
 * threads.
 */
class CommittedTrace
{
  public:
    /**
     * Functionally execute @p prog and record its committed stream.
     *
     * @param prog assembled program
     * @param fast_forward_pc architecturally execute (without
     *        recording) until the PC first reaches this address —
     *        the same loop sim::Simulation runs. 0 disables.
     * @param max_insts record at most this many instructions
     *        (0 = run to HALT), mirroring EmulatorSource's budget.
     */
    static CommittedTrace capture(const assembler::Program &prog,
                                  uint64_t fast_forward_pc,
                                  uint64_t max_insts);

    /** Recorded instructions (EmulatorSource stream length). */
    size_t size() const { return records_.size(); }

    /** The @p i-th ExecRecord of the stream. The reference is
     *  stable for the lifetime of the trace. */
    const ExecRecord &record(size_t i) const { return records_[i]; }

    /** Instructions skipped by the fast-forward loop. */
    uint64_t fastForwarded() const { return fastForwarded_; }

    /** Console bytes emitted over the whole capture (fast-forward
     *  plus the recorded stream) — what an emulator-backed run's
     *  console holds once the source is drained. */
    const std::string &console() const { return console_; }

    /** Approximate heap footprint, for diagnostics. */
    size_t
    memoryBytes() const
    {
        return records_.capacity() * sizeof(ExecRecord);
    }

  private:
    std::vector<ExecRecord> records_;
    uint64_t fastForwarded_ = 0;
    std::string console_;
};

} // namespace hpa::func

#endif // HPA_FUNC_TRACE_HH
