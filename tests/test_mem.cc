/** @file Unit tests for the cache model and memory hierarchy. */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace
{

using namespace hpa::mem;

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 16B lines = 128 B.
    return CacheConfig{"t", 128, 2, 16, 2};
}

TEST(Cache, FirstAccessMisses)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_EQ(c.misses.value(), 1u);
}

TEST(Cache, SecondAccessHits)
{
    Cache c(smallCache());
    c.access(0x100, false);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x10F, false).hit);   // same line
    EXPECT_EQ(c.hits.value(), 2u);
}

TEST(Cache, DifferentLinesMiss)
{
    Cache c(smallCache());
    c.access(0x100, false);
    EXPECT_FALSE(c.access(0x110, false).hit);
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Cache c(smallCache());
    // Same set (set bits = addr[5:4]): addresses 0x100, 0x180 with
    // 4 sets x 16B lines map to the same set.
    c.access(0x100, false);
    c.access(0x180, false);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x180, false).hit);
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    c.access(0x100, false);
    c.access(0x180, false);
    c.access(0x100, false);        // 0x180 is now LRU
    c.access(0x200, false);        // evicts 0x180
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_FALSE(c.access(0x180, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(smallCache());
    c.access(0x100, true);
    c.access(0x180, false);
    auto r = c.access(0x200, false);   // evicts dirty 0x100
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_line_addr, 0x100u);
    EXPECT_EQ(c.writebacks.value(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(smallCache());
    c.access(0x100, false);
    c.access(0x180, false);
    EXPECT_FALSE(c.access(0x200, false).writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(smallCache());
    c.access(0x100, false);
    c.access(0x100, true);         // dirty via write hit
    c.access(0x180, false);
    EXPECT_TRUE(c.access(0x200, false).writeback);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(smallCache());
    c.access(0x100, false);
    c.access(0x180, false);
    // Probing 0x180 must not refresh its LRU position... probe is
    // read-only; 0x180 is MRU, 0x100 LRU.
    EXPECT_TRUE(c.probe(0x100));
    EXPECT_FALSE(c.probe(0x200));
    uint64_t hits = c.hits.value();
    c.probe(0x100);
    EXPECT_EQ(c.hits.value(), hits);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(smallCache());
    c.access(0x100, true);
    c.flush();
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.access(0x100, false).hit);
}

// --- Packed lines: valid and dirty live in the LRU stamp word. ---

TEST(Cache, DirtyVictimAddressKeepsBit63)
{
    // 1-byte lines: the tag is the whole address, bit 63 included.
    Cache c(CacheConfig{"t", 8, 2, 1, 1});
    const uint64_t hi = uint64_t(1) << 63;
    c.access(hi | 0x10, true);
    c.access(hi | 0x14, false);
    auto r = c.access(0x18, false);    // same set: evicts hi|0x10
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_line_addr, hi | 0x10);
    EXPECT_FALSE(c.probe(hi | 0x10));
    EXPECT_TRUE(c.probe(hi | 0x14));
}

TEST(Cache, ReadHitKeepsDirtyAndWriteHitSetsIt)
{
    Cache c(smallCache());
    c.access(0x100, true);             // dirty fill
    c.access(0x100, false);            // read hit: stays dirty
    c.access(0x180, false);
    c.access(0x180, true);             // write hit on a clean line
    auto r = c.access(0x200, false);   // evicts 0x100
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_line_addr, 0x100u);
    r = c.access(0x280, false);        // evicts 0x180
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_line_addr, 0x180u);
    EXPECT_EQ(c.writebacks.value(), 2u);
}

TEST(Cache, RefillAfterFlushUsesInvalidWaysFirst)
{
    Cache c(smallCache());
    c.access(0x100, true);
    c.access(0x180, false);
    c.flush();
    // Both ways are invalid again: two new lines of the set fill
    // them without evicting each other, and the dropped dirty line
    // reports no writeback.
    EXPECT_FALSE(c.access(0x200, false).writeback);
    EXPECT_FALSE(c.access(0x280, true).writeback);
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_TRUE(c.probe(0x280));
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_EQ(c.writebacks.value(), 0u);
}

TEST(Cache, LruOrderAfterMixedHits)
{
    // One 4-way set of 16-B lines.
    Cache c(CacheConfig{"t", 64, 4, 16, 1});
    for (uint64_t a : {0x00, 0x10, 0x20, 0x30})
        c.access(a, false);
    // Hits in the order C(write), A, D(write), B: LRU is now C.
    c.access(0x20, true);
    c.access(0x00, false);
    c.access(0x30, true);
    c.access(0x10, false);
    auto r = c.access(0x40, false);    // evicts C, dirty
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_line_addr, 0x20u);
    r = c.access(0x50, false);         // evicts A, clean
    EXPECT_FALSE(r.writeback);
    EXPECT_FALSE(c.probe(0x00));
    r = c.access(0x60, false);         // evicts D, dirty
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_line_addr, 0x30u);
    EXPECT_TRUE(c.probe(0x10));        // B, the most recent hit
    EXPECT_EQ(c.misses.value(), 7u);
    EXPECT_EQ(c.hits.value(), 4u);
}

TEST(Cache, LineAddr)
{
    Cache c(smallCache());
    EXPECT_EQ(c.lineAddr(0x10F), 0x100u);
    EXPECT_EQ(c.lineAddr(0x110), 0x110u);
}

TEST(Cache, GeometryValidation)
{
    EXPECT_THROW(Cache(CacheConfig{"x", 100, 2, 16, 1}),
                 std::invalid_argument);
    EXPECT_THROW(Cache(CacheConfig{"x", 128, 0, 16, 1}),
                 std::invalid_argument);
    EXPECT_THROW(Cache(CacheConfig{"x", 128, 2, 15, 1}),
                 std::invalid_argument);
}

TEST(Cache, Table1Geometries)
{
    // The Table 1 caches must construct.
    HierarchyConfig cfg;
    EXPECT_NO_THROW(Cache c(cfg.il1));
    EXPECT_NO_THROW(Cache c(cfg.dl1));
    EXPECT_NO_THROW(Cache c(cfg.l2));
    Cache dl1(cfg.dl1);
    EXPECT_EQ(dl1.numSets(), 64u * 1024 / (16 * 4));
}

// --- Hierarchy. ---

TEST(Hierarchy, DataHitLatency)
{
    Hierarchy h;
    h.dataAccess(0x1000, false);               // cold miss
    EXPECT_EQ(h.dataAccess(0x1000, false), 2u);
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    Hierarchy h;
    // DL1 miss + L2 miss + memory: 2 + 8 + 50.
    EXPECT_EQ(h.dataAccess(0x1000, false), 60u);
}

TEST(Hierarchy, L2HitLatency)
{
    Hierarchy h;
    h.dataAccess(0x1000, false);
    // Evict from DL1 by filling its set (4-way, 16B lines, 1024
    // sets: same set every 16 KiB).
    for (int i = 1; i <= 4; ++i)
        h.dataAccess(0x1000 + i * 16384, false);
    // 0x1000 left DL1 but is still in the (larger-line) L2.
    EXPECT_EQ(h.dataAccess(0x1000, false), 2u + 8u);
}

TEST(Hierarchy, FetchHitLatency)
{
    Hierarchy h;
    h.fetchAccess(0x1000);
    EXPECT_EQ(h.fetchAccess(0x1000), 2u);
    EXPECT_EQ(h.fetchAccess(0x1004), 2u);      // same 32B line
}

TEST(Hierarchy, SplitL1sAreIndependent)
{
    Hierarchy h;
    h.fetchAccess(0x1000);
    // Data access to the same address still misses DL1.
    EXPECT_GT(h.dataAccess(0x1000, false), 2u);
}

TEST(Hierarchy, UnifiedL2SharedBetweenL1s)
{
    Hierarchy h;
    h.fetchAccess(0x1000);                     // fills L2 too
    EXPECT_EQ(h.dataAccess(0x1000, false), 10u);  // DL1 miss, L2 hit
}

TEST(Hierarchy, AssumedLoadLatencyIsDl1Hit)
{
    Hierarchy h;
    EXPECT_EQ(h.assumedLoadLatency(), 2u);
}

TEST(Hierarchy, StatsRegistered)
{
    Hierarchy h;
    hpa::stats::Registry reg;
    h.regStats(reg);
    h.dataAccess(0x1000, false);
    EXPECT_NE(reg.findCounter("dl1.misses"), nullptr);
    EXPECT_EQ(reg.findCounter("dl1.misses")->value(), 1u);
}

} // namespace
