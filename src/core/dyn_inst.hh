/**
 * @file
 * Per-instruction dynamic state tracked while an instruction is in
 * the out-of-order window.
 *
 * A DynInst holds no pointer into the trace. Core builds one 8-byte
 * UopFacts per trace-table entry when it is constructed, and dispatch
 * copies it into the slot with the record's address and the dense
 * index of the pc; select, issue, commit and the LSQ walk read only
 * these copies, never the StaticInst. An instruction's seq is its
 * index in the trace, so a reader that needs the pc or the decoded
 * instruction finds them there: trace.entry(trace.record(seq)).
 *
 * Unused operand convention: dispatch writes an operand slot the
 * instruction does not use (src[numSrc..1]) as ready, data-ready and
 * needing no read port, so the issue conditions, the port count and
 * selective recovery read both slots without a loop over numSrc.
 *
 * Timing lives in recorded cycles, not events: an issue records its
 * completion (completeCycle), which commit, the LSQ, the replay
 * shadow and a fetch stalled on a mispredicted branch read; a
 * producer's one tag broadcast records each operand's arrival
 * (dataReadyCycle), from which a slow-bus operand's later visibility
 * follows.
 */

#ifndef HPA_CORE_DYN_INST_HH
#define HPA_CORE_DYN_INST_HH

#include <cstdint>

#include "core/fu_pool.hh"
#include "isa/static_inst.hh"

namespace hpa::core
{

/** Invalid cycle sentinel. */
constexpr uint64_t NO_CYCLE = ~0ull;
/** Invalid sequence number sentinel. */
constexpr uint64_t NO_SEQ = ~0ull;

/** Figure 2-3 format class of a committed instruction: the index of
 *  the one fmt.* counter it adds to besides fmt.two_source_format
 *  (CoreStats::FMT_COUNTERS). */
enum class FmtClass : uint8_t
{
    Store,     ///< fmt.stores
    Other,     ///< fmt.other: 0/1-source format
    Nop,       ///< fmt.nops: 2-source format, zero-register destination
    OneUnique, ///< fmt.one_unique: 2-source format, one unique source
    TwoUnique, ///< fmt.two_unique: 2-source format, two unique sources
};

/** What dispatch, select, issue, commit and the LSQ need to know of
 *  an instruction that never changes: computed once per trace-table
 *  entry (Core's constructor), 8 B, copied into the DynInst at
 *  dispatch. */
struct UopFacts
{
    static constexpr uint8_t LOAD = 1u << 0;
    static constexpr uint8_t STORE = 1u << 1;
    /** Pass-0 select class (Section 2.1: loads and control
     *  instructions first). */
    static constexpr uint8_t HIGH_PRIO = 1u << 2;

    uint8_t flags = 0;
    /** The non-zero destination register whose tag issue broadcasts;
     *  NO_REG when there is none. */
    isa::RegIndex dest = isa::NO_REG;
    FuGroup fuGroup = FuGroup::IntAlu;
    /** Cycles a unit of fuGroup stays busy: the op latency for a
     *  divide, else 1. */
    uint8_t occupancy = 1;
    /** Op-class latency (isa::opClassLatency); a load's comes from
     *  the memory system instead. */
    uint8_t latency = 1;
    /** Access size in bytes of a memory reference. */
    uint8_t memSize = 0;
    FmtClass fmt = FmtClass::Other;
    /** Rename map-table lookups: unique non-zero source registers. */
    uint8_t renameLookups = 0;
};

static_assert(sizeof(UopFacts) == 8);

/** State of one source operand of an in-window instruction. The
 *  two cycle fields come first and the flags pack behind them, so
 *  the operand takes 24 B. */
struct OperandState
{
    /** Sequence number of the in-flight producer; NO_SEQ when the
     *  value was already available at insert. */
    uint64_t producerSeq = NO_SEQ;
    /** Cycle the value is actually available (scoreboard view): the
     *  producer's broadcast cycle, or the insert cycle of a value
     *  read from the register file. */
    uint64_t dataReadyCycle = NO_CYCLE;
    /** Format position: true when this unique operand came from the
     *  left (ra) field. */
    bool leftField = true;

    /** Tag match observed. A slow-side operand's match is set by the
     *  same broadcast as the others' but is visible to select only
     *  from the cycle after dataReadyCycle (Core::eligible). */
    bool ready = false;
    /** Value is actually available (scoreboard view). */
    bool dataReady = false;
    /** The in-flight producer's broadcast set `ready`/`dataReady`
     *  (replay repair undoes exactly these). A broadcast reaches an
     *  operand only through its producer's dependency row, so the
     *  waking producer is always producerSeq. */
    bool wokenByProducer = false;

    /** Sequential wakeup: operand listens to the slow bus, which
     *  delivers the tag one cycle after the fast one. Only
     *  sequential wakeup sets it; every other scheme keeps false, so
     *  the core's visibility rule needs no scheme check. */
    bool slowSide = false;
    /** Tag elimination: operand has a comparator on the bus. Only
     *  tag elimination clears it; every other scheme keeps true. */
    bool watched = true;
    /** Value was already available when inserted into the window. */
    bool readyAtInsert = false;
    /** Costs no issue-time read port: the operand prefetch buffer
     *  holds the value (PrefetchBuffer RF policy), or the slot is
     *  unused. Prefetch only takes operands with no in-flight
     *  producer, so replay repair can never invalidate it. */
    bool noPort = false;
};

/** An operand slot the instruction does not use: ready, data-ready
 *  and needing no port (the unused operand convention above). */
constexpr OperandState UNUSED_OPERAND{
    .ready = true, .dataReady = true, .noPort = true};

/** A dynamic instruction occupying a window (RUU) slot. Dispatch
 *  resets a slot field by field (core.cc); the struct stays
 *  trivially copyable and at most 160 B. */
struct DynInst
{
    /** The record's address: a memory reference's effective address
     *  (the only field of the trace record anything reads). */
    uint64_t addr = 0;
    /** Index of the instruction in the replayed trace. */
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
    /** Dense index of the instruction's pc among the trace's
     *  distinct pcs: the key of the core's per-pc tables. */
    uint32_t pcIndex = 0;
    /** The trace-table entry's static facts. */
    UopFacts facts;

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

    bool isLoad() const { return facts.flags & UopFacts::LOAD; }
    bool isStore() const { return facts.flags & UopFacts::STORE; }
    bool
    isMemRef() const
    {
        return facts.flags & (UopFacts::LOAD | UopFacts::STORE);
    }
    bool broadcasts() const { return facts.dest != isa::NO_REG; }

    /** All tag matches observed (per-model issue condition helper);
     *  an unused slot reads ready. */
    bool allSrcReady() const { return src[0].ready & src[1].ready; }

    /** All values actually available (scoreboard truth). */
    bool
    allSrcDataReady() const
    {
        return src[0].dataReady & src[1].dataReady;
    }
};

} // namespace hpa::core

#endif // HPA_CORE_DYN_INST_HH
