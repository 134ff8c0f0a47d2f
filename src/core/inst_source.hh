/**
 * @file
 * Committed-path instruction sources feeding the timing core: the
 * functional emulator (execution-driven) and a synthetic generator
 * with tunable dataflow statistics for tests and property sweeps.
 */

#ifndef HPA_CORE_INST_SOURCE_HH
#define HPA_CORE_INST_SOURCE_HH

#include <random>
#include <vector>

#include "func/emulator.hh"
#include "func/trace.hh"

namespace hpa::core
{

/**
 * Pull interface for the committed dynamic instruction stream.
 *
 * Lifetime contract: the record a next() call returns stays valid
 * for at least RECORD_LIFETIME further next() calls (trace replay
 * returns pointers into the immutable trace, which never move;
 * generating sources buffer their output in a ring of that size).
 * The core keeps at most window + fetch-queue + 1 records in flight
 * — far below the bound — so it stores the pointers directly and
 * never copies an ExecRecord.
 */
class InstSource
{
  public:
    /** Minimum record lifetime, in subsequent next() calls. */
    static constexpr size_t RECORD_LIFETIME = 4096;

    virtual ~InstSource() = default;

    /** Next committed instruction, or nullptr at end of stream. */
    virtual const func::ExecRecord *next() = 0;
};

/** Drives the core from the functional emulator (execution-driven). */
class EmulatorSource : public InstSource
{
  public:
    /**
     * @param emu emulator positioned at the program entry
     * @param max_insts stop after this many instructions (0: no cap)
     */
    explicit EmulatorSource(func::Emulator &emu, uint64_t max_insts = 0)
        : emu_(emu), maxInsts_(max_insts), ring_(RECORD_LIFETIME)
    {}

    const func::ExecRecord *
    next() override
    {
        if (emu_.halted() || (maxInsts_ && count_ >= maxInsts_))
            return nullptr;
        func::ExecRecord &r = ring_[count_++ % RECORD_LIFETIME];
        r = emu_.step();
        return &r;
    }

  private:
    func::Emulator &emu_;
    uint64_t maxInsts_;
    uint64_t count_ = 0;
    std::vector<func::ExecRecord> ring_;
};

/**
 * Replays a pre-captured committed trace (trace-once/replay-many).
 * Holds only a read-only reference plus a cursor, so any number of
 * concurrent cores can replay one shared CommittedTrace; the stream
 * is byte-identical to an EmulatorSource over the same program,
 * fast-forward and budget (see CommittedTrace's replay contract).
 */
class TraceSource : public InstSource
{
  public:
    /** @param trace captured stream; must outlive this source. */
    explicit TraceSource(const func::CommittedTrace &trace)
        : trace_(trace)
    {}

    const func::ExecRecord *
    next() override
    {
        if (index_ >= trace_.size())
            return nullptr;
        return &trace_.record(index_++);
    }

    /** Replay cursor (records consumed so far). */
    size_t position() const { return index_; }

  private:
    const func::CommittedTrace &trace_;
    size_t index_ = 0;
};

/** Statistical knobs for the synthetic stream. */
struct SyntheticParams
{
    uint64_t num_insts = 10000;
    uint64_t seed = 1;
    /** Probability an ALU op has a 2-register-source format. */
    double two_source_frac = 0.30;
    double load_frac = 0.20;
    double store_frac = 0.10;
    double branch_frac = 0.12;
    /** Probability a conditional branch is taken. */
    double taken_frac = 0.45;
    /** Geometric parameter for register-dependence distance. */
    double dep_distance_p = 0.35;
    /** Probability a source is the zero register. */
    double zero_reg_frac = 0.05;
    /** Working-set span of generated load/store addresses (bytes). */
    uint64_t mem_span = 1 << 16;
};

/**
 * Deterministic synthetic committed path. Produces a well-formed
 * stream (consistent nextPc, real register numbers, plausible
 * dependence distances) without needing an assembled program.
 */
class SyntheticSource : public InstSource
{
  public:
    explicit SyntheticSource(const SyntheticParams &params);

    const func::ExecRecord *next() override;

  private:
    SyntheticParams p_;
    std::mt19937_64 rng_;
    std::vector<func::ExecRecord> ring_;
    uint64_t produced_ = 0;
    uint64_t pc_;
    /** Rolling recent-destination window for dependence distances. */
    std::vector<isa::RegIndex> recentDests_;

    isa::RegIndex pickSrc();
    isa::RegIndex pickDest();
    double uniform();
};

} // namespace hpa::core

#endif // HPA_CORE_INST_SOURCE_HH
