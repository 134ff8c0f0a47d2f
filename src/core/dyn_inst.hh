/**
 * @file
 * Per-instruction dynamic state tracked while an instruction is in
 * the out-of-order window.
 */

#ifndef HPA_CORE_DYN_INST_HH
#define HPA_CORE_DYN_INST_HH

#include <cstdint>

#include "func/trace.hh"
#include "isa/static_inst.hh"

namespace hpa::core
{

/** Invalid cycle sentinel. */
constexpr uint64_t NO_CYCLE = ~0ull;
/** Invalid sequence number sentinel. */
constexpr uint64_t NO_SEQ = ~0ull;

/** State of one source operand of an in-window instruction. The
 *  two cycle fields come first and the flags pack behind them, so
 *  the operand takes 24 B. */
struct OperandState
{
    /** Sequence number of the in-flight producer; NO_SEQ when the
     *  value was already available at insert. */
    uint64_t producerSeq = NO_SEQ;
    /** Cycle the value is actually available (scoreboard view). */
    uint64_t dataReadyCycle = NO_CYCLE;
    /** Format position: true when this unique operand came from the
     *  left (ra) field. */
    bool leftField = true;

    /** Tag match observed (per-model bus timing applied). */
    bool ready = false;
    /** Value is actually available (scoreboard view). */
    bool dataReady = false;
    /** The in-flight producer's broadcast set `ready`/`dataReady`
     *  (replay repair undoes exactly these). A broadcast reaches an
     *  operand only through its producer's dependency row, so the
     *  waking producer is always producerSeq. */
    bool wokenByProducer = false;

    /** Sequential wakeup: operand listens to the slow bus. Only
     *  sequential wakeup sets it; every other scheme keeps false, so
     *  the core's fast-bus and slow-bus rules need no scheme
     *  check. */
    bool slowSide = false;
    /** Tag elimination: operand has a comparator on the bus. Only
     *  tag elimination clears it; every other scheme keeps true. */
    bool watched = true;
    /** Value was already available when inserted into the window. */
    bool readyAtInsert = false;
    /** Operand prefetch buffer holds the value (PrefetchBuffer RF
     *  policy): costs no issue-time read port. Only set for operands
     *  with no in-flight producer, so replay repair can never
     *  invalidate a prefetched value. */
    bool prefetched = false;
};

/** A dynamic instruction occupying a window (RUU) slot. Dispatch
 *  resets a slot by copying a blank DynInst (core.cc), so the struct
 *  stays trivially copyable and at most 160 B. */
struct DynInst
{
    /** Committed-path record and its decoded instruction; both
     *  point into the replayed CommittedTrace, which never moves
     *  while the core runs, so slot setup and recovery never copy
     *  them. Null only in an empty slot. */
    const func::TraceRecord *rec = nullptr;
    const isa::StaticInst *si = nullptr;
    /** The instruction's pc (from its trace table entry). */
    uint64_t pc = 0;
    uint64_t seq = NO_SEQ;

    // --- Dependences (unique, non-zero source registers). ---
    OperandState src[2];

    // --- Pipeline state. ---
    uint64_t fetchCycle = NO_CYCLE;
    uint64_t dispatchCycle = NO_CYCLE;
    uint64_t issueCycle = NO_CYCLE;
    /** Cycle the current issue completes (value available), recorded
     *  at issue. An issued instruction has completed once this cycle
     *  is reached: after a cycle's events, `issued && completeCycle
     *  <= cycle`. */
    uint64_t completeCycle = NO_CYCLE;
    /** Cycle this instruction's destination tag broadcasts on the
     *  fast bus (select-eligibility of dependents). */
    uint64_t wakeBroadcastCycle = NO_CYCLE;
    /** Stores: in-flight producer of the store-data register (used to
     *  gate store-to-load forwarding; not a scheduling operand). */
    uint64_t storeDataProducerSeq = NO_SEQ;
    /** Data-arrival cycle of the first operand wakeup
     *  (characterization). */
    uint64_t firstWakeCycle = NO_CYCLE;
    /** Incremented on every (re)issue; cancels stale events. */
    uint32_t issueToken = 0;

    /** Actual execution latency assigned at issue. Core's
     *  constructor checks that every latency of its configuration
     *  fits (eventHorizon). */
    uint16_t latency = 1;
    /** Actual memory-system latency for loads (set at issue). */
    uint16_t memLatency = 0;
    /** Window slot of the store-data producer (stores only); a slot
     *  fits in int16, as Event::slot does. */
    int16_t storeDataProducerSlot = -1;
    /** Unique scheduling sources (0..2). */
    uint8_t numSrc = 0;

    bool inWindow = false;
    bool issued = false;
    /** Issued with the sequential-register-access penalty. */
    bool seqRegAccess = false;
    /** Load issued assuming a DL1 hit but missed. */
    bool loadMissReplay = false;
    /** Tag elimination: issued before an unwatched operand was
     *  data-ready (mis-schedule). */
    bool tagElimMisissue = false;
    /** Tag elimination: after a mis-schedule the scoreboard gates
     *  re-issue on full operand availability. */
    bool requireDataReady = false;
    /** Control instruction the front end mispredicted. */
    bool mispredictedBranch = false;

    /** Scheduler bookkeeping: currently on the core's incremental
     *  ready list (unissued + all required tag matches observed). */
    bool inReadyList = false;

    // --- Characterization bookkeeping. ---
    /** Number of operand data-wakeups observed so far; at 2 the
     *  wake-order stats are recorded and it no longer moves. */
    uint8_t wakesSeen = 0;
    /** The first data wakeup was the left-field operand. */
    bool firstWakeWasLeft = false;

    // --- Last-arrival prediction bookkeeping (Figures 7, 14). ---
    /** Two pending operands at insert (candidate for prediction). */
    bool twoPending = false;
    /** Main predictor's prediction: true = right field last. */
    bool predRightLast = false;
    /** Shadow predictor predictions per monitored table size. */
    uint8_t shadowPredBits = 0;

    bool isLoad() const { return si->isLoad(); }
    bool isStore() const { return si->isStore(); }
    bool isControl() const { return si->isControl(); }

    /** Pass-0 select class (Section 2.1: loads and branches first).
     *  Read once at dispatch, which caches it in the highPrio bit
     *  plane; select reads only the plane. */
    bool selectHighPrio() const { return isLoad() || isControl(); }

    /** All tag matches observed (per-model issue condition helper). */
    bool
    allSrcReady() const
    {
        for (unsigned i = 0; i < numSrc; ++i)
            if (!src[i].ready)
                return false;
        return true;
    }

    /** All values actually available (scoreboard truth). */
    bool
    allSrcDataReady() const
    {
        for (unsigned i = 0; i < numSrc; ++i)
            if (!src[i].dataReady)
                return false;
        return true;
    }
};

} // namespace hpa::core

#endif // HPA_CORE_DYN_INST_HH
