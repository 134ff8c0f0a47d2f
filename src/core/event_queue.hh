/**
 * @file
 * Calendar event queue for the core's cycle-indexed event machinery:
 * a power-of-2 ring of per-cycle buckets (reused vectors, so the
 * steady state allocates nothing), sized at construction to the
 * furthest distance any event can be scheduled ahead. Schedule and
 * drain are an index into the ring — no tree walk, no node
 * allocation.
 *
 * Buckets are split by delivery rank (NumRanks vectors per cycle
 * slot, rank fixed at schedule time), so draining a cycle is one
 * pass per rank over exactly that rank's events — no per-event rank
 * compares, and no re-scanning the whole bucket once per rank class.
 *
 * Ordering invariants (the core's bit-identity depends on these):
 *  - Per cycle, events are delivered rank-ascending, and in global
 *    schedule order within a rank: ring appends preserve it.
 *  - A bucket only ever holds events for one cycle, and the bucket
 *    being drained is never appended to: schedules target strictly
 *    future cycles at most horizon() ahead, and for
 *    1 <= when - now <= horizon() the slot index (when & mask)
 *    never equals (now & mask).
 */

#ifndef HPA_CORE_EVENT_QUEUE_HH
#define HPA_CORE_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpa::core
{

template <typename T, unsigned NumRanks = 1>
class CalendarQueue
{
  public:
    /** One cycle's events, one vector per delivery rank. */
    using Bucket = std::array<std::vector<T>, NumRanks>;

    /** @param horizon the largest distance (when - now) schedule()
     *  will be asked for; the ring gets the next power of two above
     *  it. */
    explicit CalendarQueue(uint64_t horizon)
        : slots_(std::bit_ceil(size_t(horizon) + 1)),
          mask_(slots_.size() - 1)
    {}

    /** Largest schedulable distance: the ring size minus one. */
    uint64_t horizon() const { return mask_; }

    /** Pre-size every ring bucket. clear() keeps capacity, so a
     *  bucket never shrinks — but it starts at zero and would
     *  otherwise learn its high-water mark through reallocation,
     *  which leaks allocations into steady-state ticks long after
     *  warm-up (test_hotpath_alloc counts them). A bound-derived
     *  reserve at construction makes the zero-allocation claim
     *  structural instead of empirical. */
    void
    reserveSlots(size_t per_slot)
    {
        for (auto &s : slots_)
            for (auto &r : s)
                r.reserve(per_slot);
    }

    /** Append @p ev for cycle @p when at delivery rank @p rank;
     *  @p now is the current cycle and @p when must be strictly in
     *  the future and at most horizon() ahead. */
    void
    schedule(uint64_t when, [[maybe_unused]] uint64_t now, const T &ev,
             unsigned rank = 0)
    {
        assert(when > now && when - now <= mask_);
        ++pending_;
        slots_[when & mask_][rank].push_back(ev);
    }

    /**
     * Return cycle @p now's bucket for processing; follow it with
     * endCycle() once the bucket has been handled. The reference
     * stays valid while handlers schedule new events (they can never
     * land in it).
     */
    Bucket &beginCycle(uint64_t now) { return slots_[now & mask_]; }

    /** Release cycle-@p now's processed bucket (keeps capacity). */
    void
    endCycle(uint64_t now)
    {
        Bucket &b = slots_[now & mask_];
        for (auto &r : b) {
            pending_ -= r.size();
            r.clear();
        }
    }

    /** Events scheduled and not yet drained. */
    size_t pending() const { return pending_; }

  private:
    std::vector<Bucket> slots_;
    uint64_t mask_;
    size_t pending_ = 0;
};

} // namespace hpa::core

#endif // HPA_CORE_EVENT_QUEUE_HH
