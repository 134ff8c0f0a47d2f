/**
 * @file
 * Two-level memory hierarchy per Table 1: split IL1/DL1, unified L2,
 * fixed-latency main memory. Returns total access latency in cycles;
 * contention is modeled by the core's memory-port limits.
 */

#ifndef HPA_MEM_HIERARCHY_HH
#define HPA_MEM_HIERARCHY_HH

#include <memory>

#include "mem/cache.hh"

namespace hpa::mem
{

/** Hierarchy-wide configuration (defaults: Table 1). */
struct HierarchyConfig
{
    CacheConfig il1{"il1", 64 * 1024, 2, 32, 2};
    CacheConfig dl1{"dl1", 64 * 1024, 4, 16, 2};
    CacheConfig l2{"l2", 512 * 1024, 4, 64, 8};
    unsigned mem_latency = 50;
};

/** IL1/DL1 + unified L2 + main memory. */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config = {});

    /**
     * Instruction fetch of one cache line.
     * @return total latency in cycles (IL1 hit latency on a hit).
     */
    unsigned fetchAccess(uint64_t addr);

    /**
     * Data access latency for a load or store.
     * @return total latency in cycles.
     */
    unsigned dataAccess(uint64_t addr, bool is_write);

    /** DL1-hit latency assumed by the speculative scheduler. */
    unsigned assumedLoadLatency() const { return cfg_.dl1.latency; }

    Cache &il1() { return *il1_; }
    Cache &dl1() { return *dl1_; }
    Cache &l2() { return *l2_; }

    void regStats(stats::Registry &reg);

    /** Free the three caches' line arrays (Cache::release()). */
    void release();

  private:
    HierarchyConfig cfg_;
    std::unique_ptr<Cache> il1_;
    std::unique_ptr<Cache> dl1_;
    std::unique_ptr<Cache> l2_;

    /** L2 + memory path shared by both L1s. */
    unsigned belowL1(uint64_t addr, bool is_write);
};

} // namespace hpa::mem

#endif // HPA_MEM_HIERARCHY_HH
