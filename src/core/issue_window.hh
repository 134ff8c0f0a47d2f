/**
 * @file
 * SoA bitmask state of the issue window: the scheduler's index
 * structures. The per-entry AoS DynInst array stays the
 * architectural record; this header holds the structure-of-arrays
 * planes the hot wakeup/select loops actually walk:
 *
 *  - ready / issued / highPrio: one bit per window slot. The ready
 *    plane holds the unissued, scheduler-ready entries (bit set <=>
 *    DynInst::inReadyList); select is a tzcnt scan of it in age
 *    order (containers.hh scan helpers). A ready entry may still be
 *    ineligible this cycle (dispatched this cycle, or a slow-bus
 *    operand whose tag broadcast this cycle); select skips it. The
 *    issued plane holds the issued, uncommitted entries, complete or
 *    not (a completion is a recorded cycle, not an event): the
 *    replay-shadow candidates, which the squash filters by issue
 *    cycle. highPrio caches the
 *    loads-and-branches-first select class, fixed at dispatch, so
 *    each select pass scans only its own class (ready & highPrio,
 *    then ready & ~highPrio).
 *
 *  - dep[2]: the dependency matrix, one producer -> consumers
 *    bit-vector per window slot and source-operand plane. Bit s of
 *    dep[k].row(p) means window slot s's operand k names the
 *    instruction in slot p as its producer. A broadcast visits
 *    row(p) with one OR of a few words; an instruction's two
 *    scheduling operands always name distinct producers (one
 *    destination per instruction), so a consumer appears in at most
 *    one plane per producer, and a wakeup or a replay repair touches
 *    exactly the operand whose plane held the bit (src[in1]).
 *    Sequential wakeup's slow bus is the same tag to the same
 *    listeners a cycle later, so the one broadcast over these rows
 *    serves it: the operand records the arrival cycle, and select
 *    reads the extra cycle from it.
 *
 * Every plane is scanned from the window's head slot around the
 * ring (containers.hh). The Table 1 windows, 64 and 128 slots, are
 * one and two plane words, which the scans rotate so that bit 0 is
 * the head; other window sizes scan two segments word by word.
 *
 * Lifetime invariant (why no seq-staleness checks are needed on the
 * wake path): commit is in order and a consumer is strictly
 * younger than its producer, so while a producer is in the window
 * every one of its dependency bits still names the consumer it was
 * set for. A producer's rows are cleared when its slot is
 * re-dispatched (clearProducer); the stale rows a committed slot
 * leaves behind are harmless in between, because only an in-window
 * producer's rows are ever scanned, and a consumer bit cannot go
 * stale while its producer is still in the window (the strictly
 * younger consumer commits later). Core::crossValidate() checks
 * every bit of every in-window producer's rows against the operand
 * it names.
 *
 * All planes live in flat vectors sized once at reset(); steady-state
 * operation is allocation-free (test_hotpath_alloc).
 */

#ifndef HPA_CORE_ISSUE_WINDOW_HH
#define HPA_CORE_ISSUE_WINDOW_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/containers.hh"

namespace hpa::core
{

/** One bit per window slot, with age-ordered scans. */
class SlotMask
{
  public:
    void
    reset(unsigned slots)
    {
        slots_ = slots;
        words_.assign(wordCount(slots), 0);
    }

    void set(unsigned s) { words_[s >> 6] |= uint64_t(1) << (s & 63); }

    void
    clear(unsigned s)
    {
        words_[s >> 6] &= ~(uint64_t(1) << (s & 63));
    }

    /** Set or clear @p s without a branch on @p v. */
    void
    assign(unsigned s, bool v)
    {
        uint64_t &w = words_[s >> 6];
        w = (w & ~(uint64_t(1) << (s & 63))) | (uint64_t(v) << (s & 63));
    }

    const uint64_t *words() const { return words_.data(); }

    /** Number of members (cold diagnostics). */
    unsigned
    count() const
    {
        unsigned n = 0;
        for (uint64_t w : words_)
            n += unsigned(std::popcount(w));
        return n;
    }

    /** Visit members in age order from @p head; @p fn(slot) returns
     *  false to stop. */
    template <typename Fn>
    void
    forEachFrom(unsigned head, Fn &&fn) const
    {
        scanSetBitsFrom(words_.data(), slots_, head, fn);
    }

    /** Materialize the members in age order (cold diagnostics). */
    std::vector<unsigned>
    toVector(unsigned head) const
    {
        std::vector<unsigned> v;
        forEachFrom(head, [&](unsigned s) {
            v.push_back(s);
            return true;
        });
        return v;
    }

    static size_t
    wordCount(unsigned slots)
    {
        return (size_t(slots) + 63) / 64;
    }

  private:
    std::vector<uint64_t> words_;
    unsigned slots_ = 0;
};

/** One slot-mask row per window slot, stored flat. */
class DepMatrix
{
  public:
    void
    reset(unsigned slots)
    {
        rowWords_ = SlotMask::wordCount(slots);
        bits_.assign(rowWords_ * slots, 0);
    }

    const uint64_t *
    row(unsigned slot) const
    {
        return bits_.data() + size_t(slot) * rowWords_;
    }

    void
    set(unsigned row_slot, unsigned bit)
    {
        bits_[size_t(row_slot) * rowWords_ + (bit >> 6)] |=
            uint64_t(1) << (bit & 63);
    }

    void
    clearRow(unsigned row_slot)
    {
        uint64_t *r = bits_.data() + size_t(row_slot) * rowWords_;
        for (size_t i = 0; i < rowWords_; ++i)
            r[i] = 0;
    }

  private:
    std::vector<uint64_t> bits_;
    size_t rowWords_ = 0;
};

/** The scheduler's full plane set, sized to the window. */
struct IssueWindowMasks
{
    SlotMask ready;    ///< unissued, scheduler-ready (select scan)
    SlotMask issued;   ///< issued, uncommitted (replay candidates)
    SlotMask highPrio; ///< loads/branches (pass-0 select class)
    DepMatrix dep[2];  ///< producer -> consumers, per operand plane

    void
    reset(unsigned slots)
    {
        ready.reset(slots);
        issued.reset(slots);
        highPrio.reset(slots);
        dep[0].reset(slots);
        dep[1].reset(slots);
    }

    /** Drop every dependency bit owned by @p slot (slot reuse). */
    void
    clearProducer(unsigned slot)
    {
        dep[0].clearRow(slot);
        dep[1].clearRow(slot);
    }
};

} // namespace hpa::core

#endif // HPA_CORE_ISSUE_WINDOW_HH
