/**
 * @file
 * PC-indexed, direct-mapped bimodal last-arriving-operand predictor
 * with 2-bit saturating counters (Section 3.2). Predicts whether the
 * left or right source operand of a 2-pending-source instruction will
 * arrive last, steering operand placement for sequential wakeup and
 * comparator placement for tag elimination.
 */

#ifndef HPA_CORE_LAST_ARRIVAL_HH
#define HPA_CORE_LAST_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "stats/stats.hh"

namespace hpa::core
{

/** 2-bit-counter last-arriving operand predictor. */
class LastArrivalPredictor
{
  public:
    explicit LastArrivalPredictor(unsigned entries);

    /** @return true when the right-hand operand is predicted last.
     *  Header-inline: consulted at dispatch for every 2-pending
     *  instruction on the sequential-wakeup/tag-elim paths (it
     *  decides which operand the slow bus and the tag-elimination
     *  comparator watch). */
    bool
    predictRightLast(uint64_t pc) const
    {
        return table_[index(pc)] >= 2;
    }

    /**
     * Train with the observed arrival order. Header-inline: runs
     * once per resolved 2-pending instruction (noteSecondWake).
     * @param right_last the right operand actually arrived last
     */
    void
    update(uint64_t pc, bool right_last)
    {
        uint8_t &c = table_[index(pc)];
        if (right_last && c < 3)
            ++c;
        else if (!right_last && c > 0)
            --c;
    }

    unsigned entries() const { return unsigned(table_.size()); }

    /** Free the table of a predictor that is done; no prediction or
     *  update may follow. */
    void release() { table_ = std::vector<uint8_t>(); }

  private:
    std::vector<uint8_t> table_;

    uint64_t index(uint64_t pc) const { return (pc >> 2) & mask_; }
    uint64_t mask_;
};

/**
 * Passive accuracy monitor running shadow predictors of the table
 * sizes swept in Figure 7, plus the simultaneous-wakeup fraction.
 */
class LastArrivalMonitor
{
  public:
    static constexpr unsigned NUM_SIZES = 4;
    /** Table sizes swept by Figure 7. */
    static const unsigned SIZES[NUM_SIZES];

    LastArrivalMonitor();

    /**
     * Record the shadow predictions for an instruction at dispatch.
     * @return bitmask, bit i set = shadow predictor i says right-last
     */
    uint8_t snapshot(uint64_t pc) const;

    /**
     * Score a resolved 2-pending instruction and train the shadows.
     * @param pred_bits mask captured at dispatch
     * @param simultaneous both operands woke in the same cycle
     * @param right_last right operand arrived last (ignored when
     *        simultaneous)
     */
    void resolve(uint64_t pc, uint8_t pred_bits, bool simultaneous,
                 bool right_last);

    uint64_t samples() const { return samples_; }
    uint64_t simultaneous() const { return simultaneous_; }
    uint64_t correct(unsigned size_idx) const
    {
        return correct_[size_idx];
    }

    /** Prediction accuracy excluding simultaneous wakeups. */
    double accuracy(unsigned size_idx) const;

    /** Free the shadow predictors of a monitor that is done: the
     *  counts stay, snapshot() and resolve() must not follow. */
    void release() { shadows_ = std::vector<LastArrivalPredictor>(); }

  private:
    std::vector<LastArrivalPredictor> shadows_;
    uint64_t samples_ = 0;
    uint64_t simultaneous_ = 0;
    uint64_t correct_[NUM_SIZES] = {};
};

} // namespace hpa::core

#endif // HPA_CORE_LAST_ARRIVAL_HH
