/**
 * @file
 * Calendar event queue for the core's cycle-indexed event machinery:
 * a power-of-2 ring of cycle slots, sized at construction to the
 * furthest distance any event can be scheduled ahead, over one
 * fixed-capacity pool of event nodes. Schedule and drain are an
 * index into the ring plus a linked-list step — no tree walk, and no
 * allocation after construction.
 *
 * Each (cycle slot, delivery rank) pair owns a FIFO list threaded
 * through the pool by 32-bit links. Every list starts at its own
 * sentinel node, so an append does the same stores whether the list
 * is empty or not (no branch on emptiness). Free nodes sit on an
 * index stack: schedule() pops one, drain() pushes each back once
 * its event has been handled.
 *
 * Ordering invariants (the core's bit-identity depends on these):
 *  - Per cycle, events are delivered rank-ascending, and in global
 *    schedule order within a rank: appends go to the list's tail.
 *  - A list only ever holds events for one cycle, and the lists
 *    being drained are never appended to: schedules target strictly
 *    future cycles at most horizon() ahead, and for
 *    1 <= when - now <= horizon() the slot index (when & mask)
 *    never equals (now & mask). So drain() can read a node's link
 *    before its handler runs.
 *
 * Capacity (chosen by Core, computed from its configuration): every
 * pending event descends from one issue, and
 *  - an issue schedules at most three: its tag broadcast (FastWake,
 *    an instruction with a destination), LoadMissDetect (a load that
 *    missed) and TagElimDetect (a tag-elimination mis-issue);
 *  - a delivered LoadMissDetect adds at most one re-broadcast
 *    FastWake (+1); no other delivery schedules anything;
 * so an issue begets at most 4 events. With H = eventHorizon(cfg),
 * an issue at cycle t schedules for at most t + H, and the
 * re-broadcast, scheduled at the detection (at most t + H) for at
 * least one cycle later, lands at most at t + H + 1. An event pending
 * at cycle `now` therefore comes from an issue in now - H - 1 .. now:
 * H + 2 cycles of at most `width` issues each, hence
 * 4 * width * (H + 2) nodes. Core checks full() before every
 * schedule, so a broken bound raises an InvariantViolation in that
 * cell and never writes past the pool.
 */

#ifndef HPA_CORE_EVENT_QUEUE_HH
#define HPA_CORE_EVENT_QUEUE_HH

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
    /** @param horizon the largest distance (when - now) schedule()
     *  will be asked for; the ring gets the next power of two above
     *  it.
     *  @param capacity the most events pending at once. */
    CalendarQueue(uint64_t horizon, size_t capacity)
        : mask_(std::bit_ceil(size_t(horizon) + 1) - 1),
          ev_(capacity),
          next_(capacity + lists()),
          tail_(lists()),
          free_(capacity),
          freeTop_(capacity)
    {
        assert(next_.size() <= UINT32_MAX);
        for (size_t l = 0; l < tail_.size(); ++l)
            tail_[l] = sentinel(l);
        // Pop order 0, 1, 2, ...: a lightly loaded queue stays in
        // the pool's first cache lines.
        for (size_t k = 0; k < capacity; ++k)
            free_[k] = uint32_t(capacity - 1 - k);
    }

    /** Largest schedulable distance: the ring size minus one. */
    uint64_t horizon() const { return mask_; }

    /** Events the pool holds when full. */
    size_t capacity() const { return ev_.size(); }

    /** No free node: the next schedule() must not happen. */
    bool full() const { return freeTop_ == 0; }

    /** Events scheduled and not yet drained. */
    size_t pending() const { return capacity() - freeTop_; }

    /** Append @p ev for cycle @p when at delivery rank @p rank;
     *  @p now is the current cycle and @p when must be strictly in
     *  the future and at most horizon() ahead. The queue must not
     *  be full(). */
    void
    schedule(uint64_t when, [[maybe_unused]] uint64_t now, const T &ev,
             unsigned rank = 0)
    {
        assert(when > now && when - now <= mask_ && !full());
        const size_t l = size_t(when & mask_) * NumRanks + rank;
        const uint32_t n = free_[--freeTop_];
        ev_[n] = ev;
        next_[tail_[l]] = n;
        tail_[l] = n;
    }

    /**
     * Deliver cycle @p now's events to @p fn(const T &):
     * rank-ascending, and in schedule order within a rank. @p fn may
     * schedule() new events (they always land in later cycles).
     */
    template <typename Fn>
    void
    drain(uint64_t now, Fn &&fn)
    {
        const size_t first = size_t(now & mask_) * NumRanks;
        for (size_t l = first; l < first + NumRanks; ++l) {
            const uint32_t head = sentinel(l);
            const uint32_t tail = tail_[l];
            if (tail == head)
                continue;
            tail_[l] = head;
            for (uint32_t i = next_[head];;) {
                const uint32_t link = next_[i];
                fn(ev_[i]);
                free_[freeTop_++] = i;
                if (i == tail)
                    break;
                i = link;
            }
        }
    }

  private:
    size_t lists() const { return (size_t(mask_) + 1) * NumRanks; }
    /** List @p l's sentinel: the node after the pool's last. */
    uint32_t sentinel(size_t l) const { return uint32_t(ev_.size() + l); }

    uint64_t mask_;
    /** Event payload per pool node. */
    std::vector<T> ev_;
    /** Link per node: pool nodes, then one sentinel per list. */
    std::vector<uint32_t> next_;
    /** Last node of each (slot, rank) list; its sentinel when empty. */
    std::vector<uint32_t> tail_;
    /** Free pool nodes; the top is free_[freeTop_ - 1]. */
    std::vector<uint32_t> free_;
    size_t freeTop_;
};

} // namespace hpa::core

#endif // HPA_CORE_EVENT_QUEUE_HH
