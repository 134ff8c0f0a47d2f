/**
 * @file
 * Allocation-free window-sized containers for the core's hot path.
 *
 * BoundedRing replaces std::deque where the occupancy is bounded by
 * a configuration constant (store list <= window size, fetch queue
 * <= front-end depth x width): a fixed array with head/count
 * indices, so push/pop never touch the heap and traversal is a
 * dense sequential walk.
 *
 * The bit-plane scan helpers at the bottom are the traversal
 * primitives of the scheduler's bit planes (issue_window.hh): the
 * window is a FIFO ring, so visiting set bits from head around the
 * ring is age (= seq = program) order, the oldest-first select
 * priority. A 64- or 128-slot ring (the Table 1 windows: one or two
 * plane words) is rotated so that bit 0 is head (std::rotr, or a
 * 128-bit rotate), and its bits pop with countr_zero (tzcnt) as slot
 * (bit + head) & (slots - 1): no loop whose trip count changes from
 * call to call. Any other ring size scans the two segments
 * [head, slots) then [0, head) word by word.
 */

#ifndef HPA_CORE_CONTAINERS_HH
#define HPA_CORE_CONTAINERS_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpa::core
{

/** Fixed-capacity FIFO ring; the caller guarantees the bound. */
template <typename T>
class BoundedRing
{
  public:
    BoundedRing() = default;

    /** Discard contents and (re)allocate a fixed capacity. */
    void
    reset(size_t capacity)
    {
        buf_.assign(capacity, T{});
        cap_ = capacity;
        head_ = 0;
        count_ = 0;
    }

    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    size_t capacity() const { return cap_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    /** @p i-th element from the front (0 = oldest). */
    T &operator[](size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    void
    push_back(const T &v)
    {
        assert(count_ < cap_);
        buf_[wrap(head_ + count_)] = v;
        ++count_;
    }

    void
    pop_front()
    {
        assert(count_ > 0);
        head_ = wrap(head_ + 1);
        --count_;
    }

  private:
    /** head_ + i < 2 * capacity always, so one subtract suffices. */
    size_t
    wrap(size_t i) const
    {
        return i >= cap_ ? i - cap_ : i;
    }

    std::vector<T> buf_;
    /** buf_.size(), kept so a wrap needs no divide by sizeof(T). */
    size_t cap_ = 0;
    size_t head_ = 0;
    size_t count_ = 0;
};

// --------------------------------------------------------------------
// Bit-plane scan primitives (issue_window.hh)
// --------------------------------------------------------------------

namespace detail
{

/** Pop the set bits of @p word in ascending order; bit i is ring
 *  slot (offset + i) & mask. @return false when @p fn stopped. */
template <typename Fn>
inline bool
popSetBits(uint64_t word, unsigned offset, unsigned mask, Fn &fn)
{
    while (word) {
        unsigned bit = unsigned(std::countr_zero(word));
        word &= word - 1;
        if (!fn((offset + bit) & mask))
            return false;
    }
    return true;
}

/** Visit the set bits of plane word(0..) inside [lo, hi) in
 *  ascending order. @return false when @p fn stopped. */
template <typename WordFn, typename Fn>
inline bool
scanSegment(WordFn &word, unsigned lo, unsigned hi, Fn &fn)
{
    if (lo >= hi)
        return true;
    unsigned wlo = lo >> 6;
    unsigned whi = (hi - 1) >> 6;
    for (unsigned wi = wlo; wi <= whi; ++wi) {
        uint64_t w = word(wi);
        if (wi == wlo)
            w &= ~uint64_t(0) << (lo & 63);
        if (wi == whi && (hi & 63) != 0)
            w &= ~uint64_t(0) >> (64 - (hi & 63));
        if (!popSetBits(w, wi * 64, ~0u, fn))
            return false;
    }
    return true;
}

/** Visit the set bits of the plane whose word i is @p word(i), over
 *  a @p slots-entry ring in age order from @p head. A 64- or
 *  128-slot ring (the Table 1 windows) is rotated so that bit 0 is
 *  head, and its bits pop in one pass with no per-word or
 *  per-segment branch; any other size scans the two segments
 *  [head, slots) and [0, head). @p fn(slot) returns false to stop. */
template <typename WordFn, typename Fn>
inline void
scanRing(WordFn &&word, unsigned slots, unsigned head, Fn &fn)
{
    if (slots == 64) {
        popSetBits(std::rotr(word(0), int(head)), head, 63, fn);
    } else if (slots == 128) {
        using Word128 = unsigned __int128;
        Word128 x = Word128(word(1)) << 64 | word(0);
        x = x >> head | x << ((0u - head) & 127);
        if (popSetBits(uint64_t(x), head, 127, fn))
            popSetBits(uint64_t(x >> 64), head + 64, 127, fn);
    } else if (scanSegment(word, head, slots, fn)) {
        scanSegment(word, 0, head, fn);
    }
}

} // namespace detail

/** Visit the set bits of @p w over a @p slots-entry ring in age
 *  order from @p head: the window is a FIFO ring, so that is seq
 *  order. @p fn(slot) returns false to stop early (select's width
 *  budget). */
template <typename Fn>
inline void
scanSetBitsFrom(const uint64_t *w, unsigned slots, unsigned head,
                Fn &&fn)
{
    detail::scanRing([w](unsigned i) { return w[i]; }, slots, head, fn);
}

/** Like scanSetBitsFrom over the intersection a & b (or a & ~b when
 *  @p complement_b): select's priority-class split scans
 *  ready & highPrio then ready & ~highPrio, so neither pass loads
 *  the DynInsts of the other class. @p fn(slot) returns false to
 *  stop early (the width budget). */
template <typename Fn>
inline void
scanSetBitsFromAnd(const uint64_t *a, const uint64_t *b,
                   bool complement_b, unsigned slots, unsigned head,
                   Fn &&fn)
{
    const uint64_t flip = complement_b ? ~uint64_t(0) : 0;
    detail::scanRing(
        [a, b, flip](unsigned i) { return a[i] & (b[i] ^ flip); },
        slots, head, fn);
}

/** Like scanSetBitsFrom over the union of two planes (the two
 *  operand rows of a producer's dependency vector): @p fn(slot, in_a,
 *  in_b) says which plane(s) held the bit. */
template <typename Fn>
inline void
scanSetBitsFrom2(const uint64_t *a, const uint64_t *b, unsigned slots,
                 unsigned head, Fn &&fn)
{
    auto visit = [a, b, &fn](unsigned s) {
        const uint64_t m = uint64_t(1) << (s & 63);
        fn(s, (a[s >> 6] & m) != 0, (b[s >> 6] & m) != 0);
        return true;
    };
    detail::scanRing([a, b](unsigned i) { return a[i] | b[i]; }, slots,
                     head, visit);
}

} // namespace hpa::core

#endif // HPA_CORE_CONTAINERS_HH
