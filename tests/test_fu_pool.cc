/** @file Unit tests for the functional-unit pool. */

#include <gtest/gtest.h>

#include "core/fu_pool.hh"

namespace
{

using namespace hpa::core;
using hpa::isa::OpClass;

/** Reserve a unit for one op of class @p cls, as select does. */
bool
acquire(FuPool &p, OpClass cls, uint64_t cycle)
{
    return p.acquire(fuGroup(cls), fuOccupancy(cls), cycle);
}

TEST(FuGroupMap, Table1Grouping)
{
    EXPECT_EQ(fuGroup(OpClass::IntAlu), FuGroup::IntAlu);
    EXPECT_EQ(fuGroup(OpClass::Branch), FuGroup::IntAlu);
    EXPECT_EQ(fuGroup(OpClass::System), FuGroup::IntAlu);
    EXPECT_EQ(fuGroup(OpClass::IntMult), FuGroup::IntMulDiv);
    EXPECT_EQ(fuGroup(OpClass::IntDiv), FuGroup::IntMulDiv);
    EXPECT_EQ(fuGroup(OpClass::FpMult), FuGroup::FpMulDiv);
    EXPECT_EQ(fuGroup(OpClass::MemRead), FuGroup::MemPort);
    EXPECT_EQ(fuGroup(OpClass::MemWrite), FuGroup::MemPort);
}

TEST(FuPool, CountsFollowConfig)
{
    FuPool p(fourWideConfig());
    EXPECT_EQ(p.count(OpClass::IntAlu), 4u);
    EXPECT_EQ(p.count(OpClass::FpAlu), 2u);
    EXPECT_EQ(p.count(OpClass::IntDiv), 2u);
    EXPECT_EQ(p.count(OpClass::MemRead), 2u);
}

TEST(FuPool, EightWideCounts)
{
    FuPool p(eightWideConfig());
    EXPECT_EQ(p.count(OpClass::IntAlu), 8u);
    EXPECT_EQ(p.count(OpClass::MemRead), 4u);
}

TEST(FuPool, LimitedUnitsPerCycle)
{
    FuPool p(fourWideConfig());
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(acquire(p, OpClass::IntAlu, 10));
    EXPECT_FALSE(acquire(p, OpClass::IntAlu, 10));
}

TEST(FuPool, PipelinedUnitsFreeNextCycle)
{
    FuPool p(fourWideConfig());
    for (int i = 0; i < 4; ++i)
        acquire(p, OpClass::IntAlu, 10);
    EXPECT_TRUE(acquire(p, OpClass::IntAlu, 11));
}

TEST(FuPool, MultiplierIsPipelined)
{
    FuPool p(fourWideConfig());
    EXPECT_TRUE(acquire(p, OpClass::IntMult, 10));
    EXPECT_TRUE(acquire(p, OpClass::IntMult, 10));
    EXPECT_FALSE(acquire(p, OpClass::IntMult, 10));
    EXPECT_TRUE(acquire(p, OpClass::IntMult, 11));
}

TEST(FuPool, DividerOccupiesForFullLatency)
{
    FuPool p(fourWideConfig());
    EXPECT_TRUE(acquire(p, OpClass::IntDiv, 10));
    EXPECT_TRUE(acquire(p, OpClass::IntDiv, 10));
    // Both dividers busy for 20 cycles.
    EXPECT_FALSE(acquire(p, OpClass::IntDiv, 11));
    EXPECT_FALSE(acquire(p, OpClass::IntDiv, 29));
    EXPECT_TRUE(acquire(p, OpClass::IntDiv, 30));
}

TEST(FuPool, DividerBlocksMultiplier)
{
    // MUL and DIV share the MULT/DIV units (Table 1).
    FuPool p(fourWideConfig());
    acquire(p, OpClass::IntDiv, 10);
    acquire(p, OpClass::IntDiv, 10);
    EXPECT_FALSE(acquire(p, OpClass::IntMult, 15));
}

TEST(FuPool, GroupsAreIndependent)
{
    FuPool p(fourWideConfig());
    for (int i = 0; i < 4; ++i)
        acquire(p, OpClass::IntAlu, 10);
    EXPECT_TRUE(acquire(p, OpClass::MemRead, 10));
    EXPECT_TRUE(acquire(p, OpClass::FpAlu, 10));
}

} // namespace
