#include "core/core.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace hpa::core
{

CoreConfig
fourWideConfig()
{
    CoreConfig c;
    c.width = 4;
    c.ruu_size = 64;
    c.lsq_size = 32;
    c.num_int_alu = 4;
    c.num_fp_alu = 2;
    c.num_int_muldiv = 2;
    c.num_fp_muldiv = 2;
    c.num_mem_ports = 2;
    return c;
}

CoreConfig
eightWideConfig()
{
    CoreConfig c;
    c.width = 8;
    c.ruu_size = 128;
    c.lsq_size = 64;
    c.num_int_alu = 8;
    c.num_fp_alu = 4;
    c.num_int_muldiv = 4;
    c.num_fp_muldiv = 4;
    c.num_mem_ports = 4;
    return c;
}

void
CoreStats::regStats(stats::Registry &reg)
{
    reg.add(&committed);
    reg.add(&cycles);
    reg.add(&dispatched);
    reg.add(&issued);
    reg.add(&squashedIssues);
    reg.add(&loadMissReplays);
    reg.add(&tagElimMisissues);
    reg.add(&seqRegAccesses);
    reg.add(&seqWakeupDelayed);
    reg.add(&renameStalls);
    reg.add(&branchMispredicts);
    reg.add(&fetchedControl);
    reg.add(&fmt2srcInsts);
    reg.add(&fmtStores);
    reg.add(&fmtOther);
    reg.add(&fmtNops);
    reg.add(&fmtOneUnique);
    reg.add(&fmtTwoUnique);
    reg.add(&readyAtInsert);
    reg.add(&wakeupSlack);
    reg.add(&orderSame);
    reg.add(&orderDiff);
    reg.add(&leftLast);
    reg.add(&rightLast);
    reg.add(&rfBackToBack);
    reg.add(&rfTwoReady);
    reg.add(&rfNonBackToBack);
    reg.add(&dltSaturated);
    reg.add(&prefetchHits);
    reg.add(&prefetchMisses);
    reg.add(&rfPortStalls);
}

namespace
{

/**
 * The furthest ahead of the current cycle any event can be scheduled
 * on @p cfg, which sizes the calendar ring. Measured from an issue:
 *  - a load's wakes and a replay's re-broadcast come no later than
 *    its completion, schedToExec() + its full miss latency (DL1 +
 *    L2 + memory) later;
 *  - any other op wakes its latency later, where the latency
 *    includes the sequential-RF cycle, or at its completion,
 *    schedToExec() + latency - 1 later, when a load-delay-tracking
 *    counter saturates;
 *  - a load miss is detected 1 + DL1 + replay_shadow later;
 *  - a tag-elimination misissue tagelim_detect_delay + 1 later.
 * A replay's re-broadcast is scheduled at its detection, at least one
 * cycle ahead. Every latency a DynInst records is at most this
 * horizon + 1 (a load's 1 + full miss latency when sched_to_exec is
 * 0).
 */
uint64_t
eventHorizon(const CoreConfig &cfg)
{
    uint64_t op_lat = 0;
    for (unsigned c = 0; c < unsigned(isa::OpClass::NumOpClasses); ++c)
        op_lat = std::max<uint64_t>(
            op_lat, isa::opClassLatency(isa::OpClass(c)));
    op_lat += 1; // sequential register access
    const mem::HierarchyConfig &m = cfg.mem;
    const uint64_t to_exec = cfg.schedToExec();
    return std::max({to_exec + m.dl1.latency + m.l2.latency
                         + m.mem_latency,
                     op_lat, to_exec + op_lat - 1,
                     uint64_t(1) + m.dl1.latency + cfg.replay_shadow,
                     uint64_t(cfg.tagelim_detect_delay) + 1});
}

/** The most events pending at once on @p cfg: 4 per issue, from the
 *  issues of the last eventHorizon + 2 cycles (derived in
 *  event_queue.hh). */
size_t
eventCapacity(const CoreConfig &cfg)
{
    return 4 * size_t(cfg.width) * (eventHorizon(cfg) + 2);
}

static_assert(std::is_trivially_copyable_v<DynInst>,
              "the window is a flat array of plain slots");
static_assert(sizeof(DynInst) <= 160,
              "DynInst is rewritten at every dispatch; keep it small");
static_assert(sizeof(OperandState) <= 24,
              "two OperandStates ride in every DynInst");

/** The static facts of @p si (dyn_inst.hh). */
UopFacts
uopFacts(const isa::StaticInst &si)
{
    const isa::OpClass cls = si.opClass();
    const isa::RegIndex dest = si.destReg();
    const bool broadcasts = dest != isa::NO_REG && !isa::isZeroReg(dest);
    const unsigned unique = si.uniqueSrcRegs().count;
    UopFacts f;
    f.flags = uint8_t((si.isLoad() ? UopFacts::LOAD : 0)
                      | (si.isStore() ? UopFacts::STORE : 0)
                      | (si.isLoad() || si.isControl() ? UopFacts::HIGH_PRIO
                                                       : 0));
    f.dest = broadcasts ? dest : isa::NO_REG;
    f.fuGroup = fuGroup(cls);
    f.occupancy = uint8_t(fuOccupancy(cls));
    f.latency = uint8_t(isa::opClassLatency(cls));
    f.memSize = uint8_t(si.memSize());
    f.fmt = si.isStore() ? FmtClass::Store
        : !si.isTwoSourceFormat() ? FmtClass::Other
        : si.isNop() ? FmtClass::Nop
        : unique == 2 ? FmtClass::TwoUnique
        : FmtClass::OneUnique;
    f.renameLookups = uint8_t(unique);
    return f;
}

/** @p cfg, once the ranges the core's narrowed fields rely on hold.
 *  Runs first in the constructor, so a bad configuration allocates
 *  no window or calendar. */
const CoreConfig &
checkedConfig(const CoreConfig &cfg)
{
    HPA_CHECK(cfg.ruu_size > 0 && cfg.ruu_size <= 32767,
              "ruu_size must fit Event::slot (int16)");
    HPA_CHECK(eventHorizon(cfg) < std::numeric_limits<uint16_t>::max(),
              "eventHorizon must fit DynInst::latency (uint16): "
                  + std::to_string(eventHorizon(cfg)) + " cycles");
    return cfg;
}

} // namespace

Core::Core(const CoreConfig &cfg, const func::CommittedTrace &trace)
    : cfg_(checkedConfig(cfg)), trace_(trace), traceSize_(trace.size()),
      hier_(cfg.mem), bp_(cfg.bpred), fu_(cfg), lap_(cfg.lap_entries),
      window_(cfg.ruu_size), events_(eventHorizon(cfg), eventCapacity(cfg))
{
    // Every hot-path container is sized to its configuration bound
    // here so steady-state simulation allocates nothing: stores never
    // outnumber window slots, the fetch queue is capped by the
    // front-end depth, and the calendar spans the furthest event
    // with a pool for the most events pending at once.
    storeSlots_.reset(cfg.ruu_size);
    fetchQueue_.reset(size_t(cfg.front_end_depth) * cfg.width);
    masks_.reset(cfg.ruu_size);
    tagElim_ = cfg.wakeup == WakeupModel::TagElimination;
    shadowReach_ = std::max<uint64_t>(
        cfg.replay_shadow, tagElim_ ? cfg.tagelim_detect_delay + 1 : 0);
    if (cfg.regfile == RegfileModel::HalfPortCrossbar
        || cfg.regfile == RegfileModel::PrefetchBuffer)
        portBudget_ = cfg.width;
    squashCandidates_.assign(cfg.ruu_size, 0);
    squashTainted_.assign(cfg.ruu_size, NO_SEQ);

    // Per-entry tables: what the hot path reads of an instruction,
    // once per trace-table entry instead of once per dispatch.
    const std::vector<func::TraceEntry> &entries = trace.entries();
    pcs_.reserve(entries.size());
    for (const func::TraceEntry &e : entries)
        pcs_.push_back(e.pc);
    std::sort(pcs_.begin(), pcs_.end());
    pcs_.erase(std::unique(pcs_.begin(), pcs_.end()), pcs_.end());
    entryInfo_.reserve(entries.size());
    for (const func::TraceEntry &e : entries)
        entryInfo_.push_back({uopFacts(e.inst), uopOperands(e.inst),
            uint32_t(std::lower_bound(pcs_.begin(), pcs_.end(), e.pc)
                     - pcs_.begin())});
    orderHistory_.assign(pcs_.size(), 0);
}

Core::UopOperands
Core::uopOperands(const isa::StaticInst &si)
{
    const isa::SrcList raw = si.srcRegs();
    isa::SrcList sched;
    UopOperands uo;
    if (si.isStore()) {
        // Stores schedule as address generation only; the data move
        // is handled by the store scheduler at commit (Section 2.3).
        // The data register's producer gates store-to-load
        // forwarding.
        if (!isa::isZeroReg(raw.regs[1]))
            sched.push(raw.regs[1]);
        if (!isa::isZeroReg(raw.regs[0]))
            uo.storeData = raw.regs[0];
    } else {
        sched = si.uniqueSrcRegs();
    }
    uo.count = sched.count;
    for (unsigned i = 0; i < sched.count; ++i) {
        uo.reg[i] = sched.regs[i];
        if (raw.count > 0 && sched.regs[i] == raw.regs[0])
            uo.leftField = uint8_t(uo.leftField | 1u << i);
    }
    return uo;
}

// --------------------------------------------------------------------
// Scheduler side lists
// --------------------------------------------------------------------

/** Reconcile one slot's ready-plane bit with its state. Call after
 *  any transition that can change schedReady()/issued. */
void
Core::updateReadySlot(unsigned slot)
{
    DynInst &di = window_[slot];
    bool want = di.inWindow && !di.issued && schedReady(di);
    if (want == di.inReadyList)
        return;
    if (want)
        masks_.ready.set(slot);
    else
        masks_.ready.clear(slot);
    di.inReadyList = want;
}

namespace
{

std::string
listText(const char *name, const std::vector<unsigned> &have,
         const std::vector<unsigned> &want)
{
    std::ostringstream os;
    os << name << " diverged: have {";
    for (size_t i = 0; i < have.size(); ++i)
        os << (i ? " " : "") << have[i];
    os << "} want {";
    for (size_t i = 0; i < want.size(); ++i)
        os << (i ? " " : "") << want[i];
    os << "}";
    return os.str();
}

} // namespace

std::string
Core::sideListDivergence() const
{
    std::vector<unsigned> want_ready, want_issued, want_stores;
    // The first dependency bit of an in-window producer that does not
    // name an in-window consumer whose operand in that plane waits on
    // it (the lifetime invariant of issue_window.hh).
    std::string stray;
    unsigned idx = head_;
    for (unsigned n = 0; n < windowCount_; ++n) {
        const DynInst &di = window_[idx];
        if (di.inWindow) {
            if (!di.issued && schedReady(di))
                want_ready.push_back(idx);
            if (di.issued)
                want_issued.push_back(idx);
            if (di.isStore())
                want_stores.push_back(idx);
            for (unsigned k = 0; k < 2 && stray.empty(); ++k)
                scanSetBitsFrom(
                    masks_.dep[k].row(idx), cfg_.ruu_size, head_,
                    [&](unsigned c) {
                        const DynInst &ci = window_[c];
                        if (ci.inWindow && ci.src[k].producerSeq == di.seq)
                            return true;
                        stray = "dependency row dep[" + std::to_string(k)
                            + "] of slot " + std::to_string(idx)
                            + " names slot " + std::to_string(c)
                            + ", whose operand " + std::to_string(k)
                            + " does not wait on it";
                        return false;
                    });
        }
        idx = nextSlot(idx);
    }
    std::vector<unsigned> have_ready = readyListSnapshot();
    if (want_ready != have_ready)
        return listText("ready list", have_ready, want_ready);
    std::vector<unsigned> have_issued = issuedListSnapshot();
    if (want_issued != have_issued)
        return listText("issued list", have_issued, want_issued);
    std::vector<unsigned> have_stores;
    have_stores.reserve(storeSlots_.size());
    for (size_t i = 0; i < storeSlots_.size(); ++i)
        have_stores.push_back(storeSlots_[i]);
    if (want_stores != have_stores)
        return listText("store list", have_stores, want_stores);
    for (unsigned slot : have_ready)
        if (!window_[slot].inReadyList)
            return "slot " + std::to_string(slot)
                + " is in the ready list but its inReadyList flag "
                  "is clear";
    return stray;
}

bool
Core::readyListConsistent() const
{
    return sideListDivergence().empty();
}

void
Core::crossValidate() const
{
    std::string diverged = sideListDivergence();
    if (!diverged.empty())
        throw hpa::InvariantViolation(
            "scheduler cross-validation: " + diverged,
            invariantContext());
}

hpa::SimContext
Core::invariantContext() const
{
    hpa::SimContext ctx;
    ctx.cycle = cycle_;
    ctx.committed = stats_.committed.value();
    ctx.lastCommitCycle = lastCommitCycle_;
    ctx.dump = dumpPipelineState();
    return ctx;
}

std::string
Core::dumpPipelineState() const
{
    std::ostringstream os;
    os << "pipeline state @cycle " << cycle_ << ": committed="
       << stats_.committed.value()
       << " last_commit_cycle=" << lastCommitCycle_ << " window="
       << windowCount_ << "/" << cfg_.ruu_size << " head=" << head_
       << " tail=" << tail_ << " lsq=" << lsqCount_
       << " fetchq=" << fetchQueue_.size()
       << " ready=" << masks_.ready.count()
       << " issued=" << masks_.issued.count()
       << " stores=" << storeSlots_.size()
       << " events_pending=" << events_.pending() << "\n";
    os << "  slot      seq         pc  disp  issue  compl  "
          "state  disasm\n";
    // The oldest entries explain a stall: dump the head of the
    // window (the commit blocker is always window_[head_]).
    const unsigned MAX_ROWS = 16;
    unsigned idx = head_;
    for (unsigned n = 0; n < windowCount_ && n < MAX_ROWS; ++n) {
        const DynInst &di = window_[idx];
        char buf[64];
        std::snprintf(buf, sizeof buf, "  %4u %8llu %10llx", idx,
                      static_cast<unsigned long long>(di.seq),
                      static_cast<unsigned long long>(pcs_[di.pcIndex]));
        os << buf;
        auto cyc = [&](uint64_t c) {
            char b[32];
            if (c == NO_CYCLE)
                std::snprintf(b, sizeof b, " %5s", "-");
            else
                std::snprintf(b, sizeof b, " %5llu",
                              static_cast<unsigned long long>(c));
            os << b;
        };
        // An issued entry's completion cycle is recorded at issue,
        // so it may lie ahead; 'C' marks one already reached.
        cyc(di.dispatchCycle);
        cyc(di.issueCycle);
        cyc(di.issued ? di.completeCycle : NO_CYCLE);
        std::string state;
        state += di.issued ? 'I' : '.';
        state += completed(di) ? 'C' : '.';
        state += di.inReadyList ? 'R' : '.';
        state += di.loadMissReplay ? 'M' : '.';
        os << "  " << state << "   "
           << trace_.entry(trace_.record(di.seq)).inst.disassemble()
           << "\n";
        idx = nextSlot(idx);
    }
    if (windowCount_ > MAX_ROWS)
        os << "  ... " << (windowCount_ - MAX_ROWS)
           << " younger entries elided\n";
    return os.str();
}

void
Core::regStats(stats::Registry &reg)
{
    stats_.regStats(reg);
    hier_.regStats(reg);
    bp_.regStats(reg);
}

uint64_t
Core::run(uint64_t max_cycles)
{
    while (!done()) {
        tick();
        if (max_cycles && cycle_ >= max_cycles)
            break;
    }
    if (done())
        releaseTimingState();
    return stats_.committed.value();
}

void
Core::releaseTimingState()
{
    // Each member is replaced by an empty one, so its heap memory
    // goes back (a clear() keeps the capacity). A zero-capacity
    // calendar holds no event pool. The window is empty, so the ring
    // restarts at slot 0: the testing hooks' age-ordered scans over
    // the zero-slot planes then read no word.
    head_ = tail_ = 0;
    window_ = std::vector<DynInst>();
    masks_ = IssueWindowMasks();
    events_ = CalendarQueue<Event, 2>(0, 0);
    fetchQueue_ = BoundedRing<FetchedInst>();
    storeSlots_ = BoundedRing<unsigned>();
    squashCandidates_ = std::vector<int>();
    squashTainted_ = std::vector<uint64_t>();
    entryInfo_ = std::vector<EntryInfo>();
    pcs_ = std::vector<uint64_t>();
    orderHistory_ = std::vector<uint8_t>();
    lap_.release();
    lapMon_.release();
    bp_.release();
    hier_.release();
}

void
Core::tick()
{
    ++cycle_;
    ++stats_.cycles;

    commit();
    processEvents();
    select();
    dispatch();
    fetch();

    tickGuards();
}

/** Everything rare-but-checked-every-cycle: the deadlock watchdog
 *  and the periodic scheduler cross-validation. At default settings
 *  this is one predictable compare per cycle. */
void
Core::tickGuards()
{
    // Both guards are time-predictable, so the common case is a
    // single compare: nextGuardCycle_ under-approximates the next
    // cycle either could fire (a too-early visit merely re-arms; a
    // fire is never missed).
    if (cycle_ < nextGuardCycle_)
        return;

    if (cfg_.check_interval && cycle_ % cfg_.check_interval == 0)
        crossValidate();

    if (cfg_.watchdog_cycles && windowCount_ > 0
        && cycle_ - lastCommitCycle_ > cfg_.watchdog_cycles)
        throw hpa::Deadlock(
            "no commit in " + std::to_string(cfg_.watchdog_cycles)
                + " cycles with a non-empty window",
            invariantContext());

    // Re-arm: the earliest cycle any guard can fire next. The
    // watchdog term uses the current lastCommitCycle_; commits in
    // the meantime only push the real deadline later, so the visit
    // at the recorded cycle finds nothing and re-arms — exact fire
    // timing, at most one spare visit per watchdog period.
    uint64_t next = NO_CYCLE;
    if (cfg_.check_interval)
        next = std::min(next, cycle_ + cfg_.check_interval
                                  - cycle_ % cfg_.check_interval);
    if (cfg_.watchdog_cycles)
        next = std::min(next,
                        lastCommitCycle_ + cfg_.watchdog_cycles + 1);
    nextGuardCycle_ = next;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

// hpa-prove-allow(P3): the commit-listener hook is a std::function
// observer used by pipeview/trace tooling; the indirect call is
// gated on a listener being installed and is empty in measurement
// runs
void
Core::commit()
{
    unsigned budget = cfg_.width;
    while (budget > 0 && windowCount_ > 0) {
        DynInst &di = window_[head_];
        // Commit runs before this cycle's events, so the head must
        // have completed in an earlier cycle. A replayed load's
        // re-broadcast can trail its completion (handleLoadMiss);
        // retiring first would drop it. And a detection due this
        // cycle or later may still squash the head's issue
        // (shadowReach_).
        if (!di.issued || di.completeCycle >= cycle_
            || di.wakeBroadcastCycle >= cycle_
            || di.issueCycle + shadowReach_ >= cycle_)
            break;

        if (di.isStore())
            hier_.dataAccess(di.addr, true);

        // Figures 2-3: one fmt.* counter per instruction, and the
        // 2-source-format total.
        ++(stats_.*CoreStats::FMT_COUNTERS[size_t(di.facts.fmt)]);
        stats_.fmt2srcInsts += di.facts.fmt >= FmtClass::Nop;
        if (commitListener_)
            commitListener_(di, cycle_);
        // The producer's dependency rows are left stale: commit is in
        // order and every consumer is younger, so a committed slot's
        // rows can never be scanned again before its re-dispatch
        // clears them (deferring the clear keeps commit row-free).
        masks_.issued.clear(head_);
        di.inWindow = false;
        if (di.isStore()) {
            HPA_CHECK_CTX(!storeSlots_.empty()
                              && storeSlots_.front() == head_,
                          "committing store at head slot "
                              + std::to_string(head_)
                              + " not at front of the store list",
                          invariantContext());
            storeSlots_.pop_front();
        }
        lsqCount_ -= di.isMemRef();
        ++stats_.committed;
        lastCommitCycle_ = cycle_;

        head_ = nextSlot(head_);
        --windowCount_;
        --budget;
    }
}

// --------------------------------------------------------------------
// Events
// --------------------------------------------------------------------

void
Core::eventScheduleFailed(uint64_t when) const
{
    HPA_CHECK_CTX(when > cycle_ && when - cycle_ <= events_.horizon(),
                  "event scheduled for cycle " + std::to_string(when)
                      + " is not within 1.."
                      + std::to_string(events_.horizon())
                      + " cycles ahead",
                  invariantContext());
    hpa::detail::invariantFailed(
        __FILE__, __LINE__, "!events_.full()",
        "event pool full: " + std::to_string(events_.capacity())
            + " events pending",
        invariantContext());
}

void
Core::processEvents()
{
    // The calendar splits each cycle's events by rank at schedule
    // time, so delivery is one compare-free pass per rank class
    // (rank class ascending, schedule order within a class).
    // Handlers only schedule strictly-future events, so the lists
    // being drained are never appended to; the staleness filter runs
    // at delivery time.
    events_.drain(cycle_, [this](const Event &ev) {
        DynInst &di = window_[ev.slot];
        if (!di.inWindow || di.seq != ev.seq || !di.issued
            || di.issueToken != ev.token)
            return;
        switch (ev.kind) {
          case EventKind::FastWake: handleFastWake(ev); break;
          case EventKind::LoadMissDetect:
            handleLoadMiss(ev);
            break;
          case EventKind::TagElimDetect:
            handleTagElim(ev);
            break;
        }
    });
}

bool
Core::slowSideCarriedLast(const DynInst &ci, bool simultaneous)
{
    // A simultaneous wakeup always pays the slow-bus cycle: one side
    // is always slow.
    for (unsigned i = 0; i < ci.numSrc; ++i) {
        const OperandState &op = ci.src[i];
        if (op.slowSide
            && (simultaneous || op.leftField != ci.firstWakeWasLeft))
            return true;
    }
    return false;
}

void
Core::noteSecondWake(DynInst &ci, uint64_t now)
{
    // Called when the second operand data-wakeup of a 2-pending
    // instruction is observed: record Figure 6 / Table 3 samples and
    // train the last-arrival predictors.
    uint64_t slack = now - ci.firstWakeCycle;
    stats_.wakeupSlack.sample(
        static_cast<unsigned>(std::min<uint64_t>(slack, 4)));

    bool simultaneous = slack == 0;
    // The operand waking *now* is the last-arriving one; on a
    // simultaneous wakeup the order is undefined.
    bool right_last = !simultaneous && ci.firstWakeWasLeft;

    if (!simultaneous) {
        if (right_last)
            ++stats_.rightLast;
        else
            ++stats_.leftLast;

        // Table 3: the order last time at this pc, if any.
        uint8_t &hist = orderHistory_[ci.pcIndex];
        const uint8_t order = right_last ? 2 : 1;
        stats_.orderSame += hist == order;
        stats_.orderDiff += hist != 0 && hist != order;
        hist = order;
        lap_.update(pcs_[ci.pcIndex], right_last);
    }
    lapMon_.resolve(pcs_[ci.pcIndex], ci.shadowPredBits, simultaneous,
                    right_last);

    // Sequential wakeup: the tag of the last-arriving operand is
    // visible one cycle late when it landed on the slow side (no
    // operand is slow-side under any other scheme).
    stats_.seqWakeupDelayed += slowSideCarriedLast(ci, simultaneous);
}

/** @return true when any operand state changed — the caller only
 *  needs to reconcile ready-list membership (updateReadySlot) after
 *  a real transition; schedReady() is a pure function of operand
 *  state, so a no-op broadcast cannot change membership. */
bool
Core::wakeOperand(DynInst &ci, OperandState &op, uint64_t now)
{
    bool changed = false;
    if (!op.dataReady) {
        changed = true;
        op.dataReady = true;
        op.dataReadyCycle = now;
        op.wokenByProducer = true;

        if (ci.twoPending && ci.wakesSeen < 2) {
            if (ci.wakesSeen == 0) {
                ci.wakesSeen = 1;
                ci.firstWakeCycle = now;
                ci.firstWakeWasLeft = op.leftField;
            } else {
                ci.wakesSeen = 2;
                noteSecondWake(ci, now);
            }
        }
    }

    // The broadcast reaches every operand with a comparator
    // (unwatched only under tag elimination). A slow-bus operand
    // (sequential wakeup) matches now too; eligible() keeps it out
    // of select until the next cycle, when the slow bus delivers.
    if (op.watched && !op.ready) {
        op.ready = true;
        op.wokenByProducer = true;
        changed = true;
    }
    return changed;
}

void
Core::handleFastWake(const Event &ev)
{
    // Dependency-vector broadcast: one scan of the producer's two
    // operand rows in age order from head_ (a consumer matches a
    // given producer in at most one plane). The producer passed the
    // event staleness check, so — commit being in order — every bit
    // still names the consumer it was set for: no per-entry seq
    // guards needed. Sequential wakeup's slow bus carries the same
    // tag to the same listeners a cycle later (Section 3.3), which
    // eligible() reads from the operand's recorded arrival cycle:
    // one broadcast serves both buses.
    const unsigned p = unsigned(ev.slot);
    scanSetBitsFrom2(
        masks_.dep[0].row(p), masks_.dep[1].row(p), cfg_.ruu_size,
        head_, [&](unsigned s, bool, bool in1) {
            DynInst &ci = window_[s];
            if (wakeOperand(ci, ci.src[in1], cycle_))
                updateReadySlot(s);
        });
}

void
Core::repairConsumersOf(int slot)
{
    // Un-wake every operand this producer speculatively woke. A
    // consumer in the producer's dependency rows names it as
    // producerSeq (issue_window.hh), so only wokenByProducer is
    // left to test.
    auto repairOp = [&](DynInst &ci, OperandState &op, unsigned s) {
        if (!op.wokenByProducer)
            return;
        if (!op.dataReady && !op.ready)
            return;
        if (op.dataReady && ci.twoPending && ci.wakesSeen < 2) {
            // Un-record the speculative wakeup observation.
            if (ci.wakesSeen > 0)
                --ci.wakesSeen;
            if (ci.wakesSeen == 0)
                ci.firstWakeCycle = NO_CYCLE;
        }
        op.ready = false;
        op.dataReady = false;
        op.dataReadyCycle = NO_CYCLE;
        op.wokenByProducer = false;
        updateReadySlot(s);
    };

    const unsigned p = unsigned(slot);
    scanSetBitsFrom2(
        masks_.dep[0].row(p), masks_.dep[1].row(p), cfg_.ruu_size,
        head_, [&](unsigned s, bool, bool in1) {
            DynInst &ci = window_[s];
            repairOp(ci, ci.src[in1], s);
        });
}

void
Core::squashWindow(uint64_t first_cycle, uint64_t last_cycle,
                   uint64_t trigger_seq, bool selective)
{
    // Collect the instructions issued in the shadow, complete or not:
    // an issue on a mis-speculated wakeup re-executes even when its
    // recorded completion has passed, and commit holds every issue
    // until the last detection that can reach it (shadowReach_). The
    // issued plane holds the issued, uncommitted window entries;
    // scanned from head_ it visits them oldest first — same order as
    // a head-to-tail window scan. The candidates fill a window-sized
    // array without a branch (each visit writes, and only a
    // candidate advances the count).
    int *candidates = squashCandidates_.data();
    size_t num_candidates = 0;
    masks_.issued.forEachFrom(head_, [&](unsigned slot) {
        const DynInst &di = window_[slot];
        candidates[num_candidates] = int(slot);
        num_candidates += (di.seq != trigger_seq)
            & (di.issueCycle >= first_cycle) & (di.issueCycle <= last_cycle);
        return true;
    });

    if (selective) {
        // Keep only the candidates tainted by the trigger: an operand
        // woken by the trigger or by a tainted candidate. A producer
        // is older than its consumers and the candidates are in age
        // order, so one pass sees every tainted producer before its
        // consumers; the tainted candidates' seqs collect in a
        // window-sized array, and the kept slots compact in place.
        uint64_t *tainted = squashTainted_.data();
        size_t kept = 0;
        auto taints = [&](const OperandState &op) {
            return op.wokenByProducer
                && (op.producerSeq == trigger_seq
                    || std::find(tainted, tainted + kept, op.producerSeq)
                        != tainted + kept);
        };
        for (size_t i = 0; i < num_candidates; ++i) {
            const DynInst &di = window_[candidates[i]];
            if (taints(di.src[0]) || taints(di.src[1])) {
                tainted[kept] = di.seq;
                candidates[kept++] = candidates[i];
            }
        }
        num_candidates = kept;
    }

    for (int slot : std::span<const int>(candidates, num_candidates)) {
        DynInst &di = window_[slot];
        di.issued = false;
        ++di.issueToken;
        di.seqRegAccess = false;
        di.wakeBroadcastCycle = NO_CYCLE;
        if (di.tagElimMisissue) {
            di.tagElimMisissue = false;
            di.requireDataReady = true;
        }
        ++stats_.squashedIssues;
        masks_.issued.clear(unsigned(slot));
        updateReadySlot(unsigned(slot));
        repairConsumersOf(slot);
    }
}

void
Core::handleLoadMiss(const Event &ev)
{
    DynInst &load = window_[ev.slot];
    HPA_CHECK_CTX(load.isLoad() && load.loadMissReplay,
                  "load-miss event for slot "
                      + std::to_string(ev.slot)
                      + " that is not a replaying load",
                  invariantContext());

    uint64_t assumed_total = 1 + hier_.assumedLoadLatency();
    uint64_t first = load.issueCycle + assumed_total;
    uint64_t last = first + cfg_.replay_shadow - 1;
    squashWindow(first, last, load.seq,
                 cfg_.recovery == RecoveryModel::Selective);

    // Cancel the speculative wakeups of the load's own dependents and
    // re-broadcast at the true arrival time. A short miss can arrive
    // by the cycle it is detected; its re-broadcast then goes out on
    // the next cycle, the earliest a handler may schedule, or the
    // cancelled consumers would never wake. The load can also have
    // completed by then: commit() waits for the recorded broadcast
    // cycle, so the load is still in the window to deliver it.
    repairConsumersOf(ev.slot);
    uint64_t true_wake = wakeBroadcastCycle(
        load.issueCycle + 1 + load.memLatency,
        load.issueCycle + cfg_.schedToExec() + load.latency - 1);
    load.wakeBroadcastCycle = std::max(true_wake, cycle_ + 1);
    if (load.broadcasts())
        scheduleEvent(load.wakeBroadcastCycle,
                      Event{ev.seq, ev.token, ev.slot,
                            EventKind::FastWake});
}

void
Core::handleTagElim(const Event &ev)
{
    DynInst &di = window_[ev.slot];
    if (!di.tagElimMisissue)
        return;
    uint64_t first = di.issueCycle;
    uint64_t last = di.issueCycle + cfg_.tagelim_detect_delay;
    squashWindow(first, last, NO_SEQ, false);
}

uint64_t
Core::wakeBroadcastCycle(uint64_t wake, uint64_t complete)
{
    // A wake already past (a short miss detected after its data
    // arrived) is a delay of zero.
    if (cfg_.wakeup != WakeupModel::LoadDelayTracking || wake <= cycle_
        || wake - cycle_ <= cfg_.dlt_max_delay)
        return wake;
    ++stats_.dltSaturated;
    // The completion broadcast cycle, not a cycle later: commit
    // follows completion by at least one cycle, so this is the
    // latest wake the producer is guaranteed to still be in the
    // window to deliver.
    return complete;
}

// --------------------------------------------------------------------
// Select / issue
// --------------------------------------------------------------------

bool
Core::lsqAllowsLoad(const DynInst &load, bool &forwarded) const
{
    uint64_t lo = load.addr;
    uint64_t hi = lo + load.facts.memSize;
    forwarded = false;
    // storeSlots_ holds the in-window stores in program order, so the
    // overlap search touches only older stores.
    for (size_t k = 0; k < storeSlots_.size(); ++k) {
        const DynInst &st = window_[storeSlots_[k]];
        if (st.seq >= load.seq)
            break;
        uint64_t st_lo = st.addr;
        if (st_lo < hi && lo < st_lo + st.facts.memSize) {
            // Overlapping older store: its address must be known
            // (agen issued) and its data produced before the load
            // can obtain a forwarded value.
            if (!st.issued)
                return false;
            if (st.storeDataProducerSeq != NO_SEQ) {
                const DynInst &p = window_[st.storeDataProducerSlot];
                if (p.inWindow && p.seq == st.storeDataProducerSeq
                    && !completed(p))
                    return false;
            }
            forwarded = true;
        }
    }
    return true;
}

unsigned
Core::computeRfPorts(const DynInst &di) const
{
    // An operand is captured from the bypass network only when its
    // value arrives within the bypass window ending at the issue
    // cycle (Section 4.2 assumes a 1-cycle window); anything older
    // is a register-file read. Only values observed arriving on the
    // bypass network qualify; operands read from the architectural
    // register file at insert (no producer broadcast) never do. An
    // operand marked noPort (a value in the operand prefetch
    // buffer, or an unused slot) costs no port either.
    auto port = [&](const OperandState &op) {
        const bool bypassed = op.noPort
            | (op.dataReady & op.wokenByProducer
               & (op.dataReadyCycle <= cycle_)
               & (cycle_ - op.dataReadyCycle < cfg_.bypass_window));
        return unsigned(!bypassed);
    };
    return port(di.src[0]) + port(di.src[1]);
}

void
Core::issueInst(DynInst &di, int slot, unsigned ports, bool forwarded)
{
    di.issued = true;
    di.issueCycle = cycle_;
    ++di.issueToken;
    ++stats_.issued;
    masks_.ready.clear(unsigned(slot));
    masks_.issued.set(unsigned(slot));
    di.inReadyList = false;
    bool first_issue = di.issueToken == 1;

    // Sequential register access (Section 4.3): one read port per
    // slot, so two register-file operands read one after the other.
    di.seqRegAccess =
        cfg_.regfile == RegfileModel::SequentialAccess && ports == 2;
    if (di.seqRegAccess) {
        ++stats_.seqRegAccesses;
        ++blockedSlotsNext_;
    }
    unsigned extra = di.seqRegAccess ? 1 : 0;

    // Figure 10 characterization (first issue of a 2-source
    // instruction only): back to back when at most one operand needs
    // a port, else both ready at insert or issued late.
    const bool counted = first_issue & (di.numSrc == 2);
    const bool two_ports = ports == 2;
    const bool both_at_insert =
        di.src[0].readyAtInsert & di.src[1].readyAtInsert;
    stats_.rfBackToBack += counted & !two_ports;
    stats_.rfTwoReady += counted & two_ports & both_at_insert;
    stats_.rfNonBackToBack += counted & two_ports & !both_at_insert;

    uint64_t wake_cycle;
    uint64_t complete_cycle;

    if (di.isLoad()) {
        // The actual memory latency: forwarded from an older
        // overlapping store, or from the cache hierarchy.
        unsigned mem_lat = forwarded
            ? hier_.assumedLoadLatency()
            : hier_.dataAccess(di.addr, false);
        di.memLatency = uint16_t(mem_lat);

        unsigned assumed_total = 1 + hier_.assumedLoadLatency();
        unsigned actual_total = 1 + mem_lat;
        di.latency = uint16_t(actual_total);

        wake_cycle = cycle_ + assumed_total;
        complete_cycle = cycle_ + cfg_.schedToExec() + actual_total - 1;

        if (actual_total > assumed_total) {
            di.loadMissReplay = true;
            ++stats_.loadMissReplays;
            scheduleEvent(cycle_ + assumed_total + cfg_.replay_shadow,
                          Event{di.seq, di.issueToken, int16_t(slot),
                                EventKind::LoadMissDetect});
        } else {
            di.loadMissReplay = false;
        }
    } else {
        unsigned lat = di.facts.latency + extra;
        di.latency = uint16_t(lat);
        wake_cycle = cycle_ + lat;
        complete_cycle = cycle_ + cfg_.schedToExec() + lat - 1;
    }

    if (di.broadcasts()) {
        wake_cycle = wakeBroadcastCycle(wake_cycle, complete_cycle);
        di.wakeBroadcastCycle = wake_cycle;
        scheduleEvent(wake_cycle,
                      Event{di.seq, di.issueToken, int16_t(slot),
                            EventKind::FastWake});
    } else {
        di.wakeBroadcastCycle = cycle_;
    }
    // Completion is a recorded cycle: commit, the LSQ, the replay
    // shadow and a stalled fetch compare against it.
    di.completeCycle = complete_cycle;

    // Tag elimination: the scoreboard detects issues whose unwatched
    // operands were not actually data-ready.
    if (tagElim_) {
        bool premature = false;
        for (unsigned i = 0; i < di.numSrc; ++i) {
            const OperandState &op = di.src[i];
            if (!op.dataReady || op.dataReadyCycle > cycle_)
                premature = true;
        }
        if (premature) {
            di.tagElimMisissue = true;
            ++stats_.tagElimMisissues;
            scheduleEvent(cycle_ + cfg_.tagelim_detect_delay + 1,
                          Event{di.seq, di.issueToken, int16_t(slot),
                                EventKind::TagElimDetect});
        }
    }
}

/** One select-candidate attempt. @return false once the width
 *  budget is spent — the caller stops scanning. */
bool
Core::selectTry(unsigned slot, unsigned &avail, unsigned &ports_left,
                bool arbitrated)
{
    // The pass's priority class came from the highPrio plane. The
    // eligibility test reads no StaticInst, so a stray ready bit on
    // an empty slot is skipped here and left for crossValidate().
    DynInst &di = window_[slot];
    if (!eligible(di))
        return true;
    bool forwarded = false;
    if (di.isLoad() && !lsqAllowsLoad(di, forwarded))
        return true;
    unsigned ports = computeRfPorts(di);
    if (arbitrated && ports > ports_left) {
        ++stats_.rfPortStalls;
        return true;
    }
    if (!fu_.acquire(di.facts.fuGroup, di.facts.occupancy, cycle_))
        return true;
    if (arbitrated)
        ports_left -= ports;
    issueInst(di, int(slot), ports, forwarded);
    return --avail > 0;
}

void
Core::select()
{
    const unsigned blocked = blockedSlotsNext_;
    blockedSlotsNext_ = 0;

    unsigned avail = cfg_.width > blocked ? cfg_.width - blocked : 0;
    if (avail == 0)
        return;
    unsigned ports_left = portBudget_;
    const bool arbitrated = ports_left != ~0u;

    // Oldest-first, loads and branches prioritized (Section 2.1).
    // The ready plane holds exactly the unissued instructions whose
    // required tag matches have been observed; scanned in age order
    // from head_ (seq order == window order) it reproduces the
    // full-window scan's issue decisions while touching only ready
    // instructions. issueInst() clears the current bit; nothing is
    // set during select (all wakeups are scheduled for strictly
    // later cycles), and the scan iterates a register copy of each
    // plane word. Each pass scans only its own priority class: the
    // highPrio plane (fixed at dispatch) filters at the word level,
    // so pass 0 never loads a low-priority DynInst and vice versa.
    for (int pass = 0; pass < 2 && avail > 0; ++pass)
        scanSetBitsFromAnd(
            masks_.ready.words(), masks_.highPrio.words(), pass != 0,
            cfg_.ruu_size, head_, [&](unsigned slot) {
                return selectTry(slot, avail, ports_left, arbitrated);
            });
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void
Core::setupOperands(DynInst &di, int slot, const UopOperands &uo)
{
    di.storeDataProducerSeq = NO_SEQ;
    di.storeDataProducerSlot = -1;
    if (uo.storeData != isa::NO_REG) {
        // Track the data producer to gate store-to-load forwarding.
        ProducerRef pr = lastProducer_[uo.storeData];
        if (inFlight(pr)) {
            di.storeDataProducerSeq = pr.seq;
            di.storeDataProducerSlot = int16_t(pr.slot);
        }
    }

    di.numSrc = uo.count;
    di.src[0] = UNUSED_OPERAND;
    di.src[1] = UNUSED_OPERAND;
    unsigned pending = 0;
    for (unsigned i = 0; i < di.numSrc; ++i) {
        OperandState &op = di.src[i];
        op = OperandState{};
        const isa::RegIndex reg = uo.reg[i];
        op.leftField = (uo.leftField >> i) & 1;

        ProducerRef pr = lastProducer_[reg];
        bool ready_now = true;
        if (inFlight(pr)) {
            DynInst &p = window_[pr.slot];
            HPA_CHECK_CTX(p.seq == pr.seq && p.inWindow,
                          "stale producer map entry for reg "
                              + std::to_string(unsigned(reg))
                              + ": slot " + std::to_string(pr.slot)
                              + " no longer holds seq "
                              + std::to_string(pr.seq),
                          invariantContext());
            // File the dependence in operand plane i of the
            // producer's dependency-matrix row.
            masks_.dep[i].set(unsigned(pr.slot), unsigned(slot));
            op.producerSeq = pr.seq;
            ready_now = p.issued
                && p.wakeBroadcastCycle != NO_CYCLE
                && p.wakeBroadcastCycle <= cycle_;
            op.wokenByProducer = ready_now;
        }

        if (ready_now) {
            op.ready = true;
            op.dataReady = true;
            op.readyAtInsert = true;
            // Record the true arrival time when the value came off an
            // in-flight producer's broadcast (it may still be within
            // a multi-cycle bypass window); architectural values read
            // from the register file carry the insert cycle and are
            // excluded from bypass capture in computeRfPorts().
            op.dataReadyCycle = op.wokenByProducer
                ? window_[pr.slot].wakeBroadcastCycle : cycle_;
        } else {
            ++pending;
        }
    }

    di.twoPending = di.numSrc == 2 && pending == 2;

    // Figure 4: ready operands of 2-source instructions at insert.
    if (di.numSrc == 2)
        stats_.readyAtInsert.sample(2 - pending);

    di.predRightLast = false;
    di.shadowPredBits = 0;
    if (di.twoPending) {
        const uint64_t pc = pcs_[di.pcIndex];
        di.predRightLast = lap_.predictRightLast(pc);
        di.shadowPredBits = lapMon_.snapshot(pc);
    }
}

void
Core::placeOperands(DynInst &di) const
{
    switch (cfg_.wakeup) {
      case WakeupModel::Sequential:
      case WakeupModel::SequentialNoPred: {
        if (!di.twoPending)
            return; // a single pending operand sits on the fast side
        // The operand predicted to arrive last gets the fast bus;
        // without a predictor, the right-hand one.
        bool right_fast = cfg_.wakeup == WakeupModel::Sequential
            ? di.predRightLast : true;
        for (unsigned i = 0; i < di.numSrc; ++i)
            di.src[i].slowSide = di.src[i].leftField == right_fast;
        return;
      }
      case WakeupModel::TagElimination:
        // Watch the predicted-last operand, or the pending one.
        for (unsigned i = 0; i < di.numSrc; ++i) {
            OperandState &op = di.src[i];
            op.watched = di.twoPending
                ? op.leftField != di.predRightLast
                : !op.readyAtInsert;
        }
        return;
      default:
        return;
    }
}

void
Core::prefetchOperands(DynInst &di, unsigned &ports_left)
{
    // Only operands with no in-flight producer qualify, so replay
    // repair can never invalidate a prefetched value.
    for (unsigned i = 0; i < di.numSrc; ++i) {
        OperandState &op = di.src[i];
        if (!op.readyAtInsert || op.wokenByProducer)
            continue;
        if (ports_left > 0) {
            --ports_left;
            op.noPort = true;
            ++stats_.prefetchHits;
        } else {
            ++stats_.prefetchMisses;
        }
    }
}

void
Core::dispatch()
{
    unsigned budget = cfg_.width;
    // Operand prefetch buffer fill ports, width/2 per cycle.
    unsigned prefetch_ports = std::max(1u, cfg_.width / 2);
    // Rename-stage map-table lookup ports: two per slot on the base
    // machine, one per slot in the half-price rename extension.
    unsigned rename_ports = cfg_.rename == RenameModel::HalfPort
        ? cfg_.width : 2 * cfg_.width;
    while (budget > 0 && !fetchQueue_.empty() && !windowFull()) {
        FetchedInst &fi = fetchQueue_.front();
        if (fi.fetchCycle + cfg_.front_end_depth > cycle_)
            break;
        const EntryInfo &info = entryInfo_[fi.rec->entry];
        const UopFacts &f = info.facts;
        if ((f.flags & (UopFacts::LOAD | UopFacts::STORE))
            && lsqCount_ >= cfg_.lsq_size)
            break;
        unsigned lookups = f.renameLookups;
        if (lookups > rename_ports) {
            ++stats_.renameStalls;
            // The group splits here — unless nothing has dispatched
            // yet this cycle, in which case the lone instruction
            // serializes through the port (guarantees progress on
            // degenerate 1-wide configurations).
            if (budget != cfg_.width)
                break;
            rename_ports = 0;
        } else {
            rename_ports -= lookups;
        }

        unsigned slot = tail_;
        DynInst &di = window_[slot];
        // Slot reuse: retire the previous tenant's dependency rows,
        // left stale at commit (its ready and issued bits were
        // cleared at issue and commit).
        masks_.clearProducer(slot);

        // Reset the slot field by field: setupOperands writes the
        // operands, the store-data producer and the prediction, and
        // issue writes the latencies before anything reads them.
        di.addr = fi.rec->addr;
        di.seq = nextSeq_;
        di.fetchCycle = fi.fetchCycle;
        di.dispatchCycle = cycle_;
        di.issueCycle = NO_CYCLE;
        di.completeCycle = NO_CYCLE;
        di.wakeBroadcastCycle = NO_CYCLE;
        di.firstWakeCycle = NO_CYCLE;
        di.issueToken = 0;
        di.pcIndex = info.pcIndex;
        di.facts = f;
        di.inWindow = true;
        di.issued = false;
        di.seqRegAccess = false;
        di.loadMissReplay = false;
        di.tagElimMisissue = false;
        di.requireDataReady = false;
        di.inReadyList = false;
        di.wakesSeen = 0;
        di.firstWakeWasLeft = false;

        // Cache the fixed pass-0 select class in the bit plane.
        masks_.highPrio.assign(slot, f.flags & UopFacts::HIGH_PRIO);

        setupOperands(di, int(slot), info.ops);
        placeOperands(di);
        if (cfg_.regfile == RegfileModel::PrefetchBuffer)
            prefetchOperands(di, prefetch_ports);
        updateReadySlot(slot);
        if (di.isStore())
            storeSlots_.push_back(slot);

        if (f.dest != isa::NO_REG)
            lastProducer_[f.dest] = ProducerRef{di.seq, int(slot)};

        lsqCount_ += di.isMemRef();

        // The window now holds seqs [nextSeq_ - windowCount_,
        // nextSeq_) again (inFlight()).
        tail_ = nextSlot(tail_);
        ++nextSeq_;
        ++windowCount_;
        ++stats_.dispatched;
        --budget;
        fetchQueue_.pop_front();
    }
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Core::fetch()
{
    if (nextRec_ == traceSize_)
        return;
    if (fetchStalledOnBranch_) {
        // Nothing is fetched past a mispredicted control instruction,
        // so once the queue has drained it is the youngest in the
        // window. The front end resumes after it completes; a squash
        // before then clears `issued`, and its re-issue records a new
        // completion.
        if (!fetchQueue_.empty())
            return;
        const DynInst &br = window_[tail_ == 0 ? cfg_.ruu_size - 1
                                               : tail_ - 1];
        if (!completed(br))
            return;
        fetchStalledOnBranch_ = false;
        fetchResumeCycle_ = std::max(
            br.completeCycle + 1, br.fetchCycle + cfg_.min_branch_penalty);
    }
    if (cycle_ < fetchResumeCycle_)
        return;

    unsigned budget = cfg_.width;
    uint64_t fetched_line = ~0ull;
    uint64_t line_mask = ~uint64_t(hier_.il1().config().line_bytes - 1);

    while (budget > 0 && fetchQueue_.size() < fetchQueue_.capacity()
           && nextRec_ < traceSize_) {
        const func::TraceRecord &rec = trace_.record(nextRec_);
        const func::TraceEntry &entry = trace_.entry(rec);
        const isa::StaticInst &si = entry.inst;

        uint64_t line = entry.pc & line_mask;
        if (line != fetched_line) {
            unsigned lat = hier_.fetchAccess(entry.pc);
            unsigned hit_lat = hier_.il1().config().latency;
            if (lat > hit_lat) {
                // IL1 miss: fetch stalls for the fill.
                fetchResumeCycle_ = cycle_ + (lat - hit_lat);
                return;
            }
            fetched_line = line;
        }

        FetchedInst fi;
        fi.rec = &rec;
        fi.fetchCycle = cycle_;

        bool stop_group = false;
        if (si.isControl()) {
            // A control record's address is its next pc.
            ++stats_.fetchedControl;
            bpred::Prediction pred = bp_.predict(entry.pc, si);
            bool mispred = pred.taken != rec.taken
                || (rec.taken
                    && (!pred.targetKnown
                        || pred.target != rec.addr));
            bp_.resolve(entry.pc, si, rec.taken, rec.addr);
            if (mispred) {
                ++stats_.branchMispredicts;
                if (si.isCondBranch()
                    && pred.taken != rec.taken)
                    ++bp_.dirMispredicts;
                else
                    ++bp_.targetMispredicts;
                fetchStalledOnBranch_ = true;
                stop_group = true;
            } else if (rec.taken) {
                // Fetch stops at the first taken branch in a cycle.
                stop_group = true;
            }
        }

        fetchQueue_.push_back(fi);
        ++nextRec_;
        --budget;
        if (stop_group)
            break;
    }
}

} // namespace hpa::core
