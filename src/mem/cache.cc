#include "mem/cache.hh"

#include <cassert>

#include "sim/error.hh"

namespace hpa::mem
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

unsigned
log2u(uint64_t v)
{
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : hits(config.name + ".hits", "cache hits"),
      misses(config.name + ".misses", "cache misses"),
      writebacks(config.name + ".writebacks", "dirty evictions"),
      cfg_(config)
{
    if (!isPow2(cfg_.line_bytes) || !isPow2(cfg_.size_bytes))
        throw ConfigError(
            "cache size and line size must be powers of 2");
    if (cfg_.assoc == 0 ||
        cfg_.size_bytes % (cfg_.line_bytes * cfg_.assoc) != 0)
        throw ConfigError("cache size/assoc mismatch");
    num_sets_ =
        static_cast<unsigned>(cfg_.size_bytes
                              / (cfg_.line_bytes * cfg_.assoc));
    if (!isPow2(num_sets_))
        throw ConfigError("number of sets must be power of 2");
    line_mask_ = cfg_.line_bytes - 1;
    set_shift_ = log2u(cfg_.line_bytes);
    lines_.resize(static_cast<size_t>(num_sets_) * cfg_.assoc);
}

Cache::Line *
Cache::set(uint64_t addr)
{
    uint64_t idx = (addr >> set_shift_) & (num_sets_ - 1);
    return &lines_[idx * cfg_.assoc];
}

const Cache::Line *
Cache::set(uint64_t addr) const
{
    uint64_t idx = (addr >> set_shift_) & (num_sets_ - 1);
    return &lines_[idx * cfg_.assoc];
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return addr >> set_shift_;
}

AccessResult
Cache::access(uint64_t addr, bool is_write)
{
    Line *s = set(addr);
    uint64_t tag = tagOf(addr);
    AccessResult res;

    const uint64_t write_bit = is_write ? Line::DIRTY : 0;

    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (s[w].valid() && s[w].tag == tag) {
            s[w].stamp = ++lru_clock_ | (s[w].stamp & Line::DIRTY)
                | write_bit;
            res.hit = true;
            ++hits;
            return res;
        }
    }

    ++misses;

    // Fill: choose invalid way or LRU victim.
    Line *victim = &s[0];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!s[w].valid()) {
            victim = &s[w];
            break;
        }
        if (s[w].lru() < victim->lru())
            victim = &s[w];
    }
    // Only a valid line carries the dirty bit.
    if (victim->dirty()) {
        res.writeback = true;
        // Reconstruct the victim's line address from its tag and this
        // set index (tag includes the set bits by construction).
        res.victim_line_addr = victim->tag << set_shift_;
        ++writebacks;
    }
    victim->tag = tag;
    victim->stamp = ++lru_clock_ | write_bit;
    return res;
}

bool
Cache::probe(uint64_t addr) const
{
    const Line *s = set(addr);
    uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < cfg_.assoc; ++w)
        if (s[w].valid() && s[w].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (Line &l : lines_)
        l.stamp = 0;
}

void
Cache::regStats(stats::Registry &reg)
{
    reg.add(&hits);
    reg.add(&misses);
    reg.add(&writebacks);
}

} // namespace hpa::mem
