/**
 * @file
 * Set-associative cache timing model with true-LRU replacement and
 * write-back/write-allocate policy. Tag-only: no data is stored; the
 * functional emulator holds architectural memory contents.
 */

#ifndef HPA_MEM_CACHE_HH
#define HPA_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.hh"

namespace hpa::mem
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t size_bytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned line_bytes = 32;
    /** Access (hit) latency in cycles. */
    unsigned latency = 2;
};

/** Result of a timing access. */
struct AccessResult
{
    bool hit = false;
    /** A dirty line was evicted (needs a write-back below). */
    bool writeback = false;
    /** Line address of the evicted dirty line, valid iff writeback. */
    uint64_t victim_line_addr = 0;
};

/** One level of set-associative cache state (tags only). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Perform a timing access.
     * @param addr byte address
     * @param is_write marks the line dirty on hit/fill
     */
    AccessResult access(uint64_t addr, bool is_write);

    /** Probe without updating LRU or contents. */
    bool probe(uint64_t addr) const;

    /** Invalidate all lines (does not report writebacks). */
    void flush();

    /** Free the line array of a cache that is done: config() and
     *  the counters stay, access() and probe() must not follow. */
    void release() { lines_ = std::vector<Line>(); }

    const CacheConfig &config() const { return cfg_; }
    unsigned numSets() const { return num_sets_; }

    uint64_t lineAddr(uint64_t addr) const { return addr & ~line_mask_; }

    /** Register hit/miss counters with a stats registry. */
    void regStats(stats::Registry &reg);

    stats::Counter hits;
    stats::Counter misses;
    stats::Counter writebacks;

  private:
    /** 16 bytes: the valid and dirty flags live in the stamp word.
     *  Stamps count up from 1 and never reach bit 63, so a stamp of
     *  0 marks an invalid line and bit 63 is free for the dirty
     *  flag. */
    struct Line
    {
        uint64_t tag = 0;
        /** LRU stamp (larger is more recent) | DIRTY; 0 = invalid. */
        uint64_t stamp = 0;

        static constexpr uint64_t DIRTY = uint64_t(1) << 63;

        bool valid() const { return stamp != 0; }
        bool dirty() const { return (stamp & DIRTY) != 0; }
        uint64_t lru() const { return stamp & ~DIRTY; }
    };

    CacheConfig cfg_;
    unsigned num_sets_;
    uint64_t line_mask_;
    unsigned set_shift_;
    std::vector<Line> lines_;
    uint64_t lru_clock_ = 0;

    Line *set(uint64_t addr);
    const Line *set(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;
};

} // namespace hpa::mem

#endif // HPA_MEM_CACHE_HH
