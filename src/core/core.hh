/**
 * @file
 * Cycle-level out-of-order core implementing the paper's base machine
 * (speculative scheduling with non-selective recovery, RUU-style
 * unified window, Table 1 resources) and the half-price techniques:
 * sequential wakeup (Section 3.3), sequential register access
 * (Section 4.3), tag elimination (Section 3.1 reference scheme), the
 * extra-RF-stage and half-ports+crossbar register files (Section 5.2),
 * and selective recovery (Figure 5), plus two follow-on designs:
 * load-delay-tracking wakeup and an operand-prefetch-buffer register
 * file. Each is selected by a CoreConfig enum, and the core makes
 * each scheme's decision where it is taken (see DESIGN.md "Policy
 * API").
 *
 * Timing conventions (cycle numbers are select-eligibility times):
 *  - Wakeup and select are atomic: an instruction woken at cycle t can
 *    be selected at cycle t.
 *  - A producer selected at cycle s with effective latency L
 *    broadcasts its tag at cycle s+L; a consumer operand on the slow
 *    bus (sequential wakeup) sees it one cycle later, from s+L+1
 *    (eligible()).
 *  - SCHED->EXE occupies schedToExec() stages; an op selected at s
 *    completes (value bypassed) at s + schedToExec() + L - 1.
 *  - Loads are scheduled assuming a DL1 hit (1 agen + DL1 latency);
 *    a miss squashes `replay_shadow` cycles of issue.
 *  - The only events are the tag broadcast (FastWake) and the two
 *    detections; a completion, a slow-bus tag match and the end of a
 *    mispredicted branch's fetch stall are read from recorded
 *    cycles.
 */

#ifndef HPA_CORE_CORE_HH
#define HPA_CORE_CORE_HH

#include <functional>
#include <ostream>
#include <vector>

#include "bpred/bpred.hh"
#include "core/config.hh"
#include "core/containers.hh"
#include "core/dyn_inst.hh"
#include "core/event_queue.hh"
#include "core/fu_pool.hh"
#include "core/issue_window.hh"
#include "core/last_arrival.hh"
#include "func/trace.hh"
#include "mem/hierarchy.hh"
#include "sim/error.hh"
#include "stats/stats.hh"

namespace hpa::core
{

/** Aggregate statistics exported by a core run. */
struct CoreStats
{
    stats::Counter committed{"core.committed", "committed instructions"};
    stats::Counter cycles{"core.cycles", "simulated cycles"};
    stats::Counter dispatched{"core.dispatched",
        "instructions inserted into the window"};
    stats::Counter issued{"core.issued",
        "issue events (including re-issues)"};
    stats::Counter squashedIssues{"core.squashed_issues",
        "issued instructions pulled back by recovery"};
    stats::Counter loadMissReplays{"core.load_miss_replays",
        "loads that triggered scheduling recovery"};
    stats::Counter tagElimMisissues{"core.tagelim_misissues",
        "tag-elimination premature issues"};
    stats::Counter seqRegAccesses{"core.seq_reg_accesses",
        "issues that took the sequential register access penalty"};
    stats::Counter seqWakeupDelayed{"core.seq_wakeup_delayed",
        "issues delayed because the last tag arrived on the slow bus"};
    stats::Counter renameStalls{"core.rename_stalls",
        "dispatch groups split by rename-port exhaustion"};
    stats::Counter branchMispredicts{"core.branch_mispredicts",
        "mispredicted control instructions"};
    stats::Counter fetchedControl{"core.fetched_control",
        "control instructions fetched"};

    // --- Characterization (Figures 2-4, 6, 10, Table 3). ---
    stats::Counter fmt2srcInsts{"fmt.two_source_format",
        "committed non-store 2-source-format instructions"};
    stats::Counter fmtStores{"fmt.stores", "committed stores"};
    stats::Counter fmtOther{"fmt.other",
        "committed 0/1-source-format instructions"};
    stats::Counter fmtNops{"fmt.nops",
        "2-source-format nops (zero-register destinations)"};
    stats::Counter fmtOneUnique{"fmt.one_unique",
        "2-source-format with one unique source (zero reg/identical)"};
    stats::Counter fmtTwoUnique{"fmt.two_unique",
        "2-source instructions (two unique non-zero sources)"};

    stats::Distribution readyAtInsert{"sched.ready_at_insert",
        "ready operands of 2-source insts at window insert", 2};
    stats::Distribution wakeupSlack{"sched.wakeup_slack",
        "cycles between the two operand wakeups (2-pending insts)", 4};

    stats::Counter orderSame{"sched.wakeup_order_same",
        "2-pending insts whose wakeup order matched last time at PC"};
    stats::Counter orderDiff{"sched.wakeup_order_diff",
        "2-pending insts whose wakeup order differed"};
    stats::Counter leftLast{"sched.left_last",
        "2-pending insts whose left operand arrived last"};
    stats::Counter rightLast{"sched.right_last",
        "2-pending insts whose right operand arrived last"};

    stats::Counter rfBackToBack{"rf.back_to_back",
        "2-source issues with >=1 operand off the bypass"};
    stats::Counter rfTwoReady{"rf.two_ready",
        "2-source issues needing 2 ports (both ready at insert)"};
    stats::Counter rfNonBackToBack{"rf.non_back_to_back",
        "2-source issues needing 2 ports (issued late)"};

    // --- Per-policy counters (policy zoo). ---
    stats::Counter dltSaturated{"sched.dlt_saturated",
        "wake broadcasts deferred to completion by delay-counter "
        "saturation (load-delay-tracking wakeup)"};
    stats::Counter prefetchHits{"rf.prefetch_hits",
        "operands prefetched into the operand buffer at dispatch"};
    stats::Counter prefetchMisses{"rf.prefetch_misses",
        "prefetch-eligible operands denied by prefetch bandwidth"};
    stats::Counter rfPortStalls{"rf.port_stalls",
        "select attempts deferred by read-port arbitration"};

    /** The fmt.* counter of each FmtClass, in enum order. */
    static constexpr stats::Counter CoreStats::*FMT_COUNTERS[] = {
        &CoreStats::fmtStores, &CoreStats::fmtOther, &CoreStats::fmtNops,
        &CoreStats::fmtOneUnique, &CoreStats::fmtTwoUnique};

    void regStats(stats::Registry &reg);
};

/**
 * The out-of-order core. Construct with a configuration and the
 * committed trace to replay, then run().
 */
class Core
{
  public:
    /** @param trace committed stream, fetched by index; must
     *  outlive the core. */
    Core(const CoreConfig &cfg, const func::CommittedTrace &trace);

    /** Advance one cycle. */
    void tick();

    /**
     * Run to completion (trace fetched and window empty). A run that
     * completes frees the timing state only a running core needs —
     * window, bit planes, calendar, fetch queue, store list, squash
     * scratch, per-entry tables, wake-order history, predictor
     * tables and cache lines — and keeps every counter, cycle(),
     * config(), done() and the LAP monitor's counts, so a finished
     * core costs a few KiB.
     * tick() must not be called on a core that run() finished.
     * @param max_cycles optional safety bound (0 = unbounded)
     * @return committed instruction count
     */
    uint64_t run(uint64_t max_cycles = 0);

    bool
    done() const
    {
        return nextRec_ == traceSize_ && windowCount_ == 0
            && fetchQueue_.empty();
    }

    uint64_t cycle() const { return cycle_; }
    double
    ipc() const
    {
        return cycle_ == 0 ? 0.0
            : double(stats_.committed.value()) / double(cycle_);
    }

    const CoreStats &stats() const { return stats_; }
    const CoreConfig &config() const { return cfg_; }
    const LastArrivalMonitor &lapMonitor() const { return lapMon_; }
    mem::Hierarchy &hierarchy() { return hier_; }
    bpred::BranchPredictor &branchPredictor() { return bp_; }

    /** Register core + memory + bpred statistics. */
    void regStats(stats::Registry &reg);

    /**
     * Install a commit observer: called once per committed
     * instruction, with its full pipeline timestamps still intact
     * (fetch/dispatch/issue/complete cycles, replay flags). Used by
     * the pipeline viewer and by tests.
     */
    void
    setCommitListener(
        std::function<void(const DynInst &, uint64_t commit_cycle)> fn)
    {
        commitListener_ = std::move(fn);
    }

    // --- Testing hooks (scheduler data-structure invariants). ---

    /** Snapshot of the incremental ready set: window slots of
     *  unissued, scheduler-ready instructions, oldest first. */
    std::vector<unsigned>
    readyListSnapshot() const
    {
        return masks_.ready.toVector(head_);
    }

    /** Snapshot of the issued set: window slots issued and not yet
     *  committed (complete or not), oldest first. */
    std::vector<unsigned>
    issuedListSnapshot() const
    {
        return masks_.issued.toVector(head_);
    }

    /**
     * Recompute scheduler readiness by brute force over the whole
     * window and check it matches the incrementally maintained
     * ready list (same members, oldest-first order), that the
     * store/issued side lists match the window too, and that every
     * dependency bit of an in-window producer names an operand that
     * waits on it. Used by the fuzz tests; O(window^2 / 64), never
     * called on the hot path.
     */
    bool readyListConsistent() const;

    /**
     * Like readyListConsistent(), but on mismatch throws
     * hpa::InvariantViolation naming the diverged list and carrying
     * a pipeline-state dump. This is the periodic release-mode
     * cross-validation pass run by tick() every
     * CoreConfig::check_interval cycles.
     */
    void crossValidate() const;

    /**
     * Pipeview-style snapshot of the pipeline state: cycle, commit
     * progress, window occupancy and the oldest in-flight window
     * entries with their per-stage timestamps. Attached to
     * Deadlock/InvariantViolation context dumps.
     */
    std::string dumpPipelineState() const;

  private:
    /** Defined by tests/test_error.cc, which corrupts the ready
     *  plane and the dependency rows to check that the periodic
     *  cross-validation catches it. */
    friend struct CoreTestPeer;

    // --- Event machinery. ---
    enum class EventKind : uint8_t
    {
        FastWake,       ///< producer tag broadcast on the wakeup bus
        LoadMissDetect, ///< latency misprediction detected
        TagElimDetect,  ///< scoreboard flags a premature issue
    };

    /** 16 bytes — every simulated cycle delivers events through
     *  the calendar, so the packed layout is worth the int16 slot. */
    struct Event
    {
        uint64_t seq;
        uint32_t token;
        int16_t slot;
        EventKind kind;
    };

    struct FetchedInst
    {
        const func::TraceRecord *rec;
        uint64_t fetchCycle;
    };

    /** Dispatch's operand wiring of one trace-table entry, built with
     *  its UopFacts: the scheduling source registers (a store
     *  schedules its base register only), which came from the left
     *  (ra) field, and a store's data register. */
    struct UopOperands
    {
        isa::RegIndex reg[2] = {isa::NO_REG, isa::NO_REG};
        /** Scheduling sources in use: DynInst::numSrc. */
        uint8_t count = 0;
        /** Bit i: operand i is the format's left field. */
        uint8_t leftField = 0;
        /** A store's non-zero data register; NO_REG otherwise. */
        isa::RegIndex storeData = isa::NO_REG;
    };

    /** Same-cycle delivery order of coincident events: detections
     *  (recovery) first, wakeups second. Events of equal rank process
     *  in schedule order. */
    static unsigned
    eventRank(EventKind k)
    {
        return k == EventKind::FastWake ? 1 : 0;
    }

    // --- Pipeline phases (in intra-cycle order). ---
    void commit();
    void processEvents();
    void select();
    void dispatch();
    void fetch();

    // --- Helpers. ---
    DynInst &inst(int slot) { return window_[slot]; }
    bool windowFull() const { return windowCount_ == cfg_.ruu_size; }
    /** The ring slot after @p s (a compare: no divide). */
    unsigned
    nextSlot(unsigned s) const
    {
        return s + 1 == cfg_.ruu_size ? 0 : s + 1;
    }
    /** Completion once this cycle's events are delivered (select's
     *  LSQ check, fetch's branch resume, diagnostics): issued, and
     *  the recorded completion cycle reached. Commit, which runs
     *  before the events, compares completeCycle with cycle_
     *  directly. */
    bool
    completed(const DynInst &di) const
    {
        return di.issued && di.completeCycle <= cycle_;
    }

    /** SimContext for a failure raised now: cycle, commit progress
     *  and the pipeline-state dump. */
    hpa::SimContext invariantContext() const;
    /** Re-derive the ready/issued/store lists from the window, check
     *  the in-window producers' dependency rows, and describe the
     *  first divergence (empty string = consistent). */
    std::string sideListDivergence() const;
    /** Watchdog and cross-check: everything rare-but-per-cycle,
     *  kept out of tick()'s hot path body. */
    void tickGuards();

    /** The operand wiring of @p si (UopOperands). */
    static UopOperands uopOperands(const isa::StaticInst &si);
    void setupOperands(DynInst &di, int slot, const UopOperands &uo);
    void updateReadySlot(unsigned slot);
    /** Select-eligibility: scheduler-ready, dispatched in an earlier
     *  cycle, and no slow-bus operand whose tag broadcast this cycle
     *  (the slow bus delivers it a cycle later, Section 3.3). */
    bool
    eligible(const DynInst &di) const
    {
        auto visible = [&](const OperandState &op) {
            return !op.slowSide | (op.dataReadyCycle < cycle_);
        };
        return di.inWindow && !di.issued && di.dispatchCycle < cycle_
            && schedReady(di) && (visible(di.src[0]) & visible(di.src[1]));
    }
    /** The LSQ gate of @p load: every older store whose bytes
     *  overlap it has issued and has its data. When it allows the
     *  load, @p forwarded says whether any such store exists (the
     *  load then takes its value from the store, not the cache). */
    bool lsqAllowsLoad(const DynInst &load, bool &forwarded) const;
    unsigned computeRfPorts(const DynInst &di) const;
    /** One select-candidate attempt; issues on success.
     *  @return false when the width budget is spent. */
    bool selectTry(unsigned slot, unsigned &avail, unsigned &ports_left,
                   bool arbitrated);
    /** @p ports is the candidate's computeRfPorts() value, computed
     *  once by selectTry (port arbitration needs it first), and
     *  @p forwarded a load's lsqAllowsLoad() verdict. */
    void issueInst(DynInst &di, int slot, unsigned ports,
                   bool forwarded);
    /** Schedule @p ev for cycle @p when, 1..horizon cycles ahead,
     *  into a pool that is not full. */
    void
    scheduleEvent(uint64_t when, Event ev)
    {
        if (when - cycle_ - 1 >= events_.horizon() || events_.full())
            [[unlikely]] eventScheduleFailed(when);
        events_.schedule(when, cycle_, ev, eventRank(ev.kind));
    }
    /** scheduleEvent's failure arm: raises an InvariantViolation. */
    [[gnu::cold, noreturn]] void eventScheduleFailed(uint64_t when) const;
    void handleFastWake(const Event &ev);
    void handleLoadMiss(const Event &ev);
    void handleTagElim(const Event &ev);
    bool wakeOperand(DynInst &ci, OperandState &op, uint64_t now);
    void noteSecondWake(DynInst &ci, uint64_t now);

    /** Model readiness predicate: every tag match the wakeup scheme
     *  requires for issue has been observed. Excludes per-cycle
     *  issue conditions (dispatch delay, FUs, LSQ, ports) checked
     *  at select. Pure function of the DynInst, so the periodic
     *  cross-validation pass can re-derive it from the window. */
    bool
    schedReady(const DynInst &di) const
    {
        if (!tagElim_)
            return di.allSrcReady();
        // Tag elimination: only watched operands have a comparator,
        // and after a detected mis-issue the scoreboard holds the
        // entry until every value is truly available. An unused slot
        // reads ready and data-ready.
        const OperandState &a = di.src[0];
        const OperandState &b = di.src[1];
        return (a.ready | !a.watched) & (b.ready | !b.watched)
            & (!di.requireDataReady | di.allSrcDataReady());
    }

    /** Dispatch-time operand wiring: which operand listens to the
     *  slow bus (sequential wakeup) or has a comparator at all (tag
     *  elimination). */
    void placeOperands(DynInst &di) const;
    /** Accounting for core.seq_wakeup_delayed: was the last-arriving
     *  tag only visible on the slow bus? */
    static bool slowSideCarriedLast(const DynInst &ci, bool simultaneous);
    /** The cycle a producer broadcasts its tag, given its scheduled
     *  @p wake and its @p complete cycle: a load-delay-tracking
     *  counter that cannot represent the delay defers it to
     *  completion. */
    uint64_t wakeBroadcastCycle(uint64_t wake, uint64_t complete);
    /** Operand prefetch buffer: dispatch-time reads of values already
     *  in the register file, up to @p ports_left this cycle. */
    void prefetchOperands(DynInst &di, unsigned &ports_left);
    void squashWindow(uint64_t first_cycle, uint64_t last_cycle,
                      uint64_t trigger_seq, bool selective);
    void repairConsumersOf(int slot);
    /** run()'s last step once done(): free the timing state. */
    void releaseTimingState();

    CoreConfig cfg_;
    const func::CommittedTrace &trace_;
    /** trace_.size(), read once (the trace never changes while the
     *  core runs): computing it divides by the 12-B record size. */
    size_t traceSize_;
    /** Index of the next trace record to fetch. */
    size_t nextRec_ = 0;
    mem::Hierarchy hier_;
    bpred::BranchPredictor bp_;
    FuPool fu_;
    LastArrivalPredictor lap_;
    LastArrivalMonitor lapMon_;
    CoreStats stats_;

    uint64_t cycle_ = 0;
    uint64_t nextSeq_ = 0;

    // Window: ring buffer of slots (a FIFO, so age order from head_
    // is seq = program order).
    std::vector<DynInst> window_;
    unsigned head_ = 0;
    unsigned tail_ = 0;
    unsigned windowCount_ = 0;
    unsigned lsqCount_ = 0;

    // --- Incrementally maintained scheduler indices. ---
    // Select, wakeup and replay-candidate collection walk these
    // instead of the whole window, so each pipeline phase touches
    // only the instructions it acts on while keeping oldest-first
    // priority.

    /** Window slots of the in-window stores in program order (the
     *  LSQ overlap search); occupancy bounded by the window size. */
    BoundedRing<unsigned> storeSlots_;
    /** Ready/issued/priority bit planes and the producer->consumers
     *  dependency matrix, scanned in age order from head_. See
     *  issue_window.hh. */
    IssueWindowMasks masks_;
    /** Construction-time reads of the configuration: does tag
     *  elimination gate readiness, how many read ports select
     *  arbitrates per cycle (~0u = unconstrained), and how many
     *  cycles after an issue a detection can still squash it: a
     *  load miss is detected at most replay_shadow cycles after an
     *  issue in its shadow, a tag-elimination mis-issue
     *  tagelim_detect_delay + 1 cycles after the issues it
     *  squashes. */
    bool tagElim_ = false;
    unsigned portBudget_ = ~0u;
    uint64_t shadowReach_ = 0;

    // squashWindow() scratch, sized once to the window so recovery
    // (a steady-state occurrence under speculative scheduling) never
    // allocates: the candidates' slots, and under selective recovery
    // the seqs of the tainted ones.
    std::vector<int> squashCandidates_;
    std::vector<uint64_t> squashTainted_;

    /** Youngest dispatched producer per unified register. Commit
     *  leaves an entry in place: one whose seq is below the head's,
     *  nextSeq_ - windowCount_, has committed and reads as "no
     *  producer" (inFlight()), because seq is the trace index and
     *  every dispatched instruction commits. */
    struct ProducerRef
    {
        uint64_t seq = NO_SEQ;
        int slot = -1;
    };
    ProducerRef lastProducer_[isa::NUM_UNIFIED_REGS];
    /** @p pr names an instruction still in the window (NO_SEQ never
     *  does): one unsigned compare. */
    bool
    inFlight(const ProducerRef &pr) const
    {
        return pr.seq - (nextSeq_ - windowCount_) < windowCount_;
    }

    /** What dispatch reads of one trace-table entry
     *  (func::TraceRecord::entry): the facts it copies into a
     *  DynInst, the operand wiring, and the dense index of the
     *  entry's pc. */
    struct EntryInfo
    {
        UopFacts facts;
        UopOperands ops;
        uint32_t pcIndex = 0;
    };
    /** One EntryInfo per trace-table entry, built by the
     *  constructor. */
    std::vector<EntryInfo> entryInfo_;
    /** The trace's distinct pcs, by pc index (the last-arrival
     *  predictors hash the pc itself). */
    std::vector<uint64_t> pcs_;

    /** Rank-split calendar: one FIFO list per (cycle, delivery
     *  rank), rank fixed at schedule time (eventRank), so
     *  processEvents() drains each rank in one compare-free pass.
     *  Its ring spans the configuration's furthest event
     *  (eventHorizon in core.cc) and its fixed pool the most events
     *  pending at once (eventCapacity). */
    CalendarQueue<Event, 2> events_;

    // Front end; occupancy bounded by front_end_depth x width.
    BoundedRing<FetchedInst> fetchQueue_;
    uint64_t fetchResumeCycle_ = 0;
    /** Fetch stopped after a mispredicted control instruction; it
     *  resumes once that instruction, the youngest in the window,
     *  completes (fetch()). */
    bool fetchStalledOnBranch_ = false;

    /** Issue slots the next cycle loses to this cycle's sequential
     *  register access issues. */
    unsigned blockedSlotsNext_ = 0;

    /** Wakeup-order history per distinct pc (Table 3), by pc index:
     *  0 no history yet, 1 left operand last, 2 right operand
     *  last. */
    std::vector<uint8_t> orderHistory_;

    uint64_t lastCommitCycle_ = 0;

    /** Earliest cycle any tickGuards() condition can fire next; 0
     *  forces a (re)evaluation on the next tick. */
    uint64_t nextGuardCycle_ = 0;

    std::function<void(const DynInst &, uint64_t)> commitListener_;
};

} // namespace hpa::core

#endif // HPA_CORE_CORE_HH
