/**
 * @file
 * Pluggable scheduler (wakeup/select) policies.
 *
 * Each wakeup-logic organization is a small strategy struct with a
 * fixed hook surface; the core holds one inside a `SchedPolicy`
 * variant and dispatches through `visitPolicy` (a switch on the
 * alternative index — no virtual calls, no std::visit
 * function-pointer table, every hook body header-inlined). The hooks
 * map
 * one-to-one onto the decision points the core consults on the hot
 * path:
 *
 *  - `ready(di)`        — model readiness predicate (select gating);
 *                         must be a pure function of the DynInst so
 *                         the cross-validation pass can re-derive it.
 *  - `seesTag(op)`      — does this operand observe a tag on the
 *                         fast wakeup bus?
 *  - `slow_bus`         — does every fast broadcast re-run on a slow
 *                         bus one cycle later?
 *  - `watches_premature`— does a scoreboard audit issues for
 *                         operands that were not truly data-ready?
 *  - `place(di)`        — operand placement at dispatch (slow-side /
 *                         watched assignment).
 *  - `lastOnSlowBus()`  — accounting: did the last-arriving tag land
 *                         on the slow bus?
 *  - `adjustWake()`     — producer wake-broadcast timing override
 *                         (load-delay-tracking counter saturation).
 *
 * Bit-plane entry points (the scheduler's ready and slow planes,
 * issue_window.hh; `ready()` stays the predicate the periodic
 * cross-validation re-derives the ready plane from):
 *
 *  - `mask_ready_all_src` — true when `ready(di)` reduces to "every
 *                         scheduling operand has its tag match"
 *                         (di.allSrcReady()), so the core can fold
 *                         readiness into the ready-plane update
 *                         without consulting the per-entry hook.
 *                         Policies with extra per-entry state (tag
 *                         elimination's watched/scoreboard rules)
 *                         set it false and fall back to `ready()`.
 *  - `maskSlowPlane(op)` — does this operand's tag match arrive on
 *                         the slow-bus re-broadcast? The fast
 *                         broadcast files such consumers on the
 *                         slowPend plane and the SlowWake event one
 *                         cycle later visits only that plane.
 *
 * To add a policy: define a struct with these hooks, append it to
 * the `SchedPolicy` variant, construct it in `makeSchedPolicy()`,
 * and register its name in `policy_registry.cc` (see DESIGN.md
 * "Policy API" for the full recipe — about 30 lines end to end).
 */

#ifndef HPA_CORE_SCHED_POLICY_HH
#define HPA_CORE_SCHED_POLICY_HH

#include <cstdint>
#include <variant>

#include "core/config.hh"
#include "core/dyn_inst.hh"
#include "stats/stats.hh"

namespace hpa::core
{

/** Conventional broadcast wakeup: two comparators per entry, every
 *  operand on the one fast bus (Section 3, base machine). */
struct ConventionalSched
{
    static constexpr bool slow_bus = false;
    static constexpr bool watches_premature = false;
    static constexpr bool mask_ready_all_src = true;

    bool ready(const DynInst &di) const { return di.allSrcReady(); }
    bool seesTag(const OperandState &) const { return true; }
    bool maskSlowPlane(const OperandState &) const { return false; }
    void place(DynInst &) const {}
    bool lastOnSlowBus(const DynInst &, bool) const { return false; }
    uint64_t
    adjustWake(uint64_t, uint64_t wake, uint64_t,
               stats::Counter &) const
    {
        return wake;
    }
};

/** Sequential wakeup with a last-arrival predictor: the
 *  predicted-last operand listens to the fast bus, the other to the
 *  slow bus one cycle later (Section 3.3). */
struct SequentialSched
{
    static constexpr bool slow_bus = true;
    static constexpr bool watches_premature = false;
    static constexpr bool mask_ready_all_src = true;

    bool ready(const DynInst &di) const { return di.allSrcReady(); }
    bool seesTag(const OperandState &op) const { return !op.slowSide; }
    bool
    maskSlowPlane(const OperandState &op) const
    {
        return op.slowSide;
    }

    void
    place(DynInst &di) const
    {
        placeSides(di, di.predRightLast);
    }

    bool
    lastOnSlowBus(const DynInst &ci, bool simultaneous) const
    {
        return slowSideCarriedLast(ci, simultaneous);
    }

    uint64_t
    adjustWake(uint64_t, uint64_t wake, uint64_t,
               stats::Counter &) const
    {
        return wake;
    }

  protected:
    /** Wire the side predicted to arrive last to the fast bus. */
    static void
    placeSides(DynInst &di, bool right_fast)
    {
        if (!di.twoPending)
            return; // single pending operands sit on the fast side
        for (unsigned i = 0; i < di.numSrc; ++i) {
            OperandState &op = di.src[i];
            op.slowSide = op.leftField == right_fast;
        }
    }

    /** True when the last-arriving tag was only visible on the slow
     *  bus; a simultaneous wakeup always pays the slow-bus cycle
     *  (one side is always slow). */
    static bool
    slowSideCarriedLast(const DynInst &ci, bool simultaneous)
    {
        for (unsigned i = 0; i < ci.numSrc; ++i) {
            const OperandState &op = ci.src[i];
            if (simultaneous) {
                if (op.slowSide)
                    return true;
            } else if (op.leftField != ci.firstWakeWasLeft
                       && op.slowSide) {
                return true;
            }
        }
        return false;
    }
};

/** Sequential wakeup without a predictor: the right-hand operand is
 *  statically assumed last-arriving. */
struct SequentialNoPredSched : SequentialSched
{
    void place(DynInst &di) const { placeSides(di, true); }
};

/** Tag elimination (Ernst & Austin): only the predicted-last operand
 *  has a comparator; a scoreboard detects premature issues. */
struct TagElimSched
{
    static constexpr bool slow_bus = false;
    static constexpr bool watches_premature = true;
    static constexpr bool mask_ready_all_src = false;

    bool maskSlowPlane(const OperandState &) const { return false; }

    bool
    ready(const DynInst &di) const
    {
        for (unsigned i = 0; i < di.numSrc; ++i) {
            const OperandState &op = di.src[i];
            if (op.watched && !op.ready)
                return false;
        }
        // After a detected mis-issue the scoreboard holds the entry
        // until every value is truly available.
        if (di.requireDataReady && !di.allSrcDataReady())
            return false;
        return true;
    }

    bool seesTag(const OperandState &op) const { return op.watched; }

    void
    place(DynInst &di) const
    {
        if (di.twoPending) {
            for (unsigned i = 0; i < di.numSrc; ++i) {
                OperandState &op = di.src[i];
                op.watched = op.leftField != di.predRightLast;
            }
        } else {
            // Watch the pending operand (if any).
            for (unsigned i = 0; i < di.numSrc; ++i)
                di.src[i].watched = !di.src[i].readyAtInsert;
        }
    }

    bool lastOnSlowBus(const DynInst &, bool) const { return false; }
    uint64_t
    adjustWake(uint64_t, uint64_t wake, uint64_t,
               stats::Counter &) const
    {
        return wake;
    }
};

/**
 * Load-delay-tracking wakeup (Diavastos & Carlson, arXiv
 * 2109.03112): tag broadcast is replaced by per-producer real-time
 * delay counters of bounded width. A producer whose remaining
 * latency fits in `max_delay` wakes its consumers on exactly the
 * broadcast schedule; one that saturates the counter (long divides,
 * replayed load misses) falls back to the completion scoreboard, so
 * its consumers wake only once the value is architecturally
 * complete and back-to-back issue is lost.
 */
struct LoadDelaySched
{
    unsigned max_delay;

    static constexpr bool slow_bus = false;
    static constexpr bool watches_premature = false;
    static constexpr bool mask_ready_all_src = true;

    bool ready(const DynInst &di) const { return di.allSrcReady(); }
    bool seesTag(const OperandState &) const { return true; }
    bool maskSlowPlane(const OperandState &) const { return false; }
    void place(DynInst &) const {}
    bool lastOnSlowBus(const DynInst &, bool) const { return false; }

    uint64_t
    adjustWake(uint64_t now, uint64_t wake, uint64_t complete,
               stats::Counter &saturated) const
    {
        if (wake - now <= max_delay)
            return wake;
        ++saturated;
        // The completion broadcast cycle, not a cycle later: commit
        // follows completion by at least one cycle, so this is the
        // latest wake the producer is guaranteed to still be in the
        // window to deliver.
        return complete;
    }
};

/** The closed set of scheduler policies (variant dispatch keeps the
 *  per-cycle hooks virtual-call-free and inlinable). */
using SchedPolicy =
    std::variant<ConventionalSched, SequentialSched,
                 SequentialNoPredSched, TagElimSched, LoadDelaySched>;

/**
 * Inline-friendly visitation for the policy variants: libstdc++'s
 * std::visit dispatches through a function-pointer table, which
 * blocks inlining of the one-line hook bodies and costs 10-30%
 * whole-simulation throughput on the per-cycle path. A switch on
 * the alternative index compiles to the same jump table but lets
 * the compiler inline every case; the index is fixed at machine
 * construction, so the branch predicts perfectly.
 */
template <typename F, typename V>
inline decltype(auto)
visitPolicy(F &&f, V &&v)
{
    static_assert(std::variant_size_v<std::decay_t<V>> == 5,
                  "extend the switch when adding an alternative");
    switch (v.index()) {
      case 0:
        return f(*std::get_if<0>(&v));
      case 1:
        return f(*std::get_if<1>(&v));
      case 2:
        return f(*std::get_if<2>(&v));
      case 3:
        return f(*std::get_if<3>(&v));
      case 4:
        return f(*std::get_if<4>(&v));
    }
    __builtin_unreachable();
}

/** Construction-time selection; never on the per-cycle path. */
inline SchedPolicy
makeSchedPolicy(const CoreConfig &cfg)
{
    switch (cfg.wakeup) {
      case WakeupModel::Sequential:
        return SequentialSched{};
      case WakeupModel::SequentialNoPred:
        return SequentialNoPredSched{};
      case WakeupModel::TagElimination:
        return TagElimSched{};
      case WakeupModel::LoadDelayTracking:
        return LoadDelaySched{cfg.dlt_max_delay};
      case WakeupModel::Conventional:
      default:
        return ConventionalSched{};
    }
}

} // namespace hpa::core

#endif // HPA_CORE_SCHED_POLICY_HH
