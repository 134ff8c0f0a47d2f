/**
 * @file
 * Functional-unit pool with Table 1 unit counts and latencies.
 * Multipliers are pipelined; dividers are not (they occupy their unit
 * for the full operation latency).
 */

#ifndef HPA_CORE_FU_POOL_HH
#define HPA_CORE_FU_POOL_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "isa/opcodes.hh"

namespace hpa::core
{

/** Groups of units an op class maps onto. */
enum class FuGroup : uint8_t
{
    IntAlu,
    FpAlu,
    IntMulDiv,
    FpMulDiv,
    MemPort,
    NumGroups,
};

/** Map an op class onto its unit group. Header-inline: acquire()
 *  runs once per select candidate, and the switch folds into it. */
inline FuGroup
fuGroup(isa::OpClass cls)
{
    using isa::OpClass;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::System:
        return FuGroup::IntAlu;
      case OpClass::FpAlu:
        return FuGroup::FpAlu;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return FuGroup::IntMulDiv;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return FuGroup::FpMulDiv;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return FuGroup::MemPort;
      default:
        return FuGroup::IntAlu;
    }
}

/** Cycles a unit of fuGroup(@p cls) stays busy for one op. */
inline unsigned
fuOccupancy(isa::OpClass cls)
{
    return isa::opClassUnpipelined(cls) ? isa::opClassLatency(cls) : 1;
}

/** Per-cycle reservation tracker for all functional units. */
class FuPool
{
  public:
    explicit FuPool(const CoreConfig &cfg);

    /**
     * Try to reserve a unit of @p group for @p occupancy cycles at
     * @p cycle: fuOccupancy() of the op's class, one cycle for a
     * pipelined unit and the op latency for an unpipelined (divide)
     * one. Header-inline: this is the per-select-candidate hot path
     * (a ≤4-entry scan).
     * @return true when a unit was available and is now reserved.
     */
    bool
    acquire(FuGroup group, unsigned occupancy, uint64_t cycle)
    {
        for (uint64_t &busy_until : units_[size_t(group)]) {
            if (busy_until <= cycle) {
                busy_until = cycle + occupancy;
                return true;
            }
        }
        return false;
    }

    /** Units in the group serving @p cls. */
    unsigned count(isa::OpClass cls) const;

  private:
    /** busyUntil (exclusive) per unit instance, per group. */
    std::vector<uint64_t> units_[size_t(FuGroup::NumGroups)];
};

} // namespace hpa::core

#endif // HPA_CORE_FU_POOL_HH
