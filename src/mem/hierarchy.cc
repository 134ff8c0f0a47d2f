#include "mem/hierarchy.hh"

namespace hpa::mem
{

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : cfg_(config),
      il1_(std::make_unique<Cache>(cfg_.il1)),
      dl1_(std::make_unique<Cache>(cfg_.dl1)),
      l2_(std::make_unique<Cache>(cfg_.l2))
{}

unsigned
Hierarchy::belowL1(uint64_t addr, bool is_write)
{
    AccessResult l2r = l2_->access(addr, is_write);
    if (l2r.hit)
        return cfg_.l2.latency;
    // L2 miss: main memory. Dirty L2 victims write back to memory;
    // latency of the writeback is off the critical path.
    return cfg_.l2.latency + cfg_.mem_latency;
}

unsigned
Hierarchy::fetchAccess(uint64_t addr)
{
    AccessResult r = il1_->access(addr, false);
    if (r.hit)
        return cfg_.il1.latency;
    return cfg_.il1.latency + belowL1(addr, false);
}

unsigned
Hierarchy::dataAccess(uint64_t addr, bool is_write)
{
    AccessResult r = dl1_->access(addr, is_write);
    unsigned lat = cfg_.dl1.latency;
    if (!r.hit)
        lat += belowL1(addr, is_write);
    if (r.writeback) {
        // Write the dirty victim into L2 (tag update only; latency
        // hidden behind the demand fill).
        l2_->access(r.victim_line_addr, true);
    }
    return lat;
}

void
Hierarchy::regStats(stats::Registry &reg)
{
    il1_->regStats(reg);
    dl1_->regStats(reg);
    l2_->regStats(reg);
}

void
Hierarchy::release()
{
    il1_->release();
    dl1_->release();
    l2_->release();
}

} // namespace hpa::mem
