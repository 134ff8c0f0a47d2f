/**
 * @file
 * Error-taxonomy and release-mode invariant tests: the SimError
 * mixin stays catchable as the matching std exception, HPA_CHECK
 * throws InvariantViolation with file/line/condition context and
 * evaluates its message lazily, and the core's runtime guards — the
 * no-forward-progress watchdog and the periodic scheduler
 * cross-validation — each turn a real fault (a watchdog shorter than
 * the cold-start stall, a ready instruction missing from the ready
 * plane, a ready bit on an empty slot) into the right typed error
 * with a usable pipeline-state dump, and the core's constructor
 * rejects a configuration its narrowed fields cannot hold.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/core.hh"
#include "core/synthetic.hh"
#include "sim/error.hh"
#include "sim/experiment.hh"
#include "sim/simulation.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

TEST(ErrorTaxonomy, KindAndStatusNamesAreStable)
{
    // These tags appear in JSON artifacts; they are frozen.
    EXPECT_STREQ(kindName(ErrorKind::Config), "config");
    EXPECT_STREQ(kindName(ErrorKind::Workload), "workload");
    EXPECT_STREQ(kindName(ErrorKind::Invariant), "invariant");
    EXPECT_STREQ(kindName(ErrorKind::Deadlock), "deadlock");
    EXPECT_STREQ(sim::statusName(sim::RunStatus::Ok), "ok");
    EXPECT_STREQ(sim::statusName(sim::RunStatus::Failed), "failed");
}

TEST(ErrorTaxonomy, ConcreteErrorsMatchTheirStdBase)
{
    // The mixin contract: pre-taxonomy call sites that catch the
    // standard exception types keep working unchanged.
    EXPECT_THROW(throw ConfigError("x"), std::invalid_argument);
    EXPECT_THROW(throw WorkloadError("x"), std::runtime_error);
    EXPECT_THROW(throw InvariantViolation("x"), std::logic_error);
    EXPECT_THROW(throw Deadlock("x"), std::runtime_error);
}

TEST(ErrorTaxonomy, CatchAsSimErrorYieldsKindMessageAndContext)
{
    SimContext ctx;
    ctx.workload = "frobnozzle";
    try {
        throw ConfigError("unknown workload: frobnozzle", ctx);
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_EQ(e.message(), "unknown workload: frobnozzle");
        EXPECT_EQ(e.context().workload, "frobnozzle");
        std::string line = e.oneLine();
        EXPECT_NE(line.find("[config]"), std::string::npos) << line;
        EXPECT_NE(line.find("workload=frobnozzle"),
                  std::string::npos)
            << line;
        // One line means one line — the dump never leaks in here.
        EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    }
}

TEST(ErrorTaxonomy, WhatCarriesKindTagThroughStdCatch)
{
    SimContext ctx;
    ctx.cycle = 12345;
    try {
        throw Deadlock("no commit in 100 cycles", ctx);
    } catch (const std::exception &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("[deadlock]"), std::string::npos) << what;
        EXPECT_NE(what.find("cycle=12345"), std::string::npos) << what;
    }
}

TEST(HpaCheck, FailureThrowsWithFileLineAndConditionText)
{
    try {
        HPA_CHECK(1 + 1 == 3, "arithmetic is broken");
        FAIL() << "HPA_CHECK did not throw";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        std::string what = e.what();
        EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
        EXPECT_NE(what.find("arithmetic is broken"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("test_error.cc"), std::string::npos)
            << what;
    }
}

TEST(HpaCheck, MessageIsOnlyEvaluatedOnFailure)
{
    int evaluations = 0;
    auto expensive = [&] {
        ++evaluations;
        return std::string("should never be built");
    };
    HPA_CHECK(true, expensive());
    EXPECT_EQ(evaluations, 0);
    EXPECT_THROW(HPA_CHECK(false, expensive()), InvariantViolation);
    EXPECT_EQ(evaluations, 1);
}

} // namespace

namespace hpa::core
{

/** The one test-only door into Core (declared its friend). */
struct CoreTestPeer
{
    /** Clear @p slot's bit in the incremental ready plane while the
     *  window still holds a ready instruction there. */
    static void
    dropReady(Core &core, unsigned slot)
    {
        core.masks_.ready.clear(slot);
    }

    /** Set @p slot's bit in the ready plane, whatever the slot
     *  holds. */
    static void
    setReady(Core &core, unsigned slot)
    {
        core.masks_.ready.set(slot);
    }

    /** Set bit @p consumer of @p producer's row in dependency plane
     *  @p plane, whatever the two slots hold. */
    static void
    setDep(Core &core, unsigned plane, unsigned producer,
           unsigned consumer)
    {
        core.masks_.dep[plane].set(producer, consumer);
    }
};

} // namespace hpa::core

namespace
{

using namespace hpa;

/** A small timing run on a real workload from program start. */
class CoreGuards : public ::testing::Test
{
  protected:
    sim::Simulation
    makeSim(const core::CoreConfig &cfg, uint64_t max_insts)
    {
        const workloads::Workload &w =
            workloads::globalCache().get("gzip");
        return sim::Simulation(w.program, cfg, max_insts, 0);
    }
};

TEST_F(CoreGuards, WatchdogShorterThanTheColdStartStallIsADeadlock)
{
    // The first fetch misses all the way to memory, so nothing
    // commits for longer than a 40-cycle watchdog allows.
    core::CoreConfig cfg = core::fourWideConfig();
    cfg.watchdog_cycles = 40;
    auto s = makeSim(cfg, 5000);
    try {
        s.run();
        FAIL() << "expected hpa::Deadlock";
    } catch (const Deadlock &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Deadlock);
        // Tripped after the threshold, with attribution and a dump.
        EXPECT_GT(e.context().cycle, 40u);
        EXPECT_EQ(e.context().committed, 0u);
        ASSERT_FALSE(e.context().dump.empty());
        EXPECT_NE(e.context().dump.find("window"), std::string::npos)
            << e.context().dump;
    }
}

TEST_F(CoreGuards, WatchdogZeroDisablesTheCheck)
{
    // The same run without the watchdog outlasts the stall.
    core::CoreConfig cfg = core::fourWideConfig();
    cfg.watchdog_cycles = 0;
    auto s = makeSim(cfg, 5000);
    EXPECT_EQ(s.run(), 5000u);
}

TEST_F(CoreGuards, CrossValidationCatchesACorruptedReadyList)
{
    // Every tick cross-validates. Once an instruction waits ready,
    // drop it from the ready plane: select can no longer issue it, so
    // the next tick's check must see the plane and the window differ.
    core::CoreConfig cfg = core::fourWideConfig();
    cfg.check_interval = 1;
    auto s = makeSim(cfg, 5000);
    core::Core &core = s.core();
    while (core.readyListSnapshot().empty())
        core.tick();
    const uint64_t corrupted = core.cycle();
    core::CoreTestPeer::dropReady(core, core.readyListSnapshot().front());
    try {
        core.tick();
        FAIL() << "expected hpa::InvariantViolation";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        EXPECT_NE(std::string(e.what()).find("ready list"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.context().cycle, corrupted + 1);
    }
}

TEST_F(CoreGuards, CrossValidationCatchesAStrayReadyBitOnAnEmptySlot)
{
    // A ready bit on a slot nothing was ever dispatched to: select
    // must skip it without reading the slot's (null) instruction, so
    // the first tick's check reports the ready plane instead of the
    // process dying.
    core::CoreConfig cfg = core::fourWideConfig();
    cfg.check_interval = 1;
    auto s = makeSim(cfg, 5000);
    core::Core &core = s.core();
    ASSERT_EQ(core.cycle(), 0u);
    ASSERT_TRUE(core.readyListSnapshot().empty());
    core::CoreTestPeer::setReady(core, 3);
    try {
        core.tick();
        FAIL() << "expected hpa::InvariantViolation";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        EXPECT_NE(std::string(e.what()).find("ready list"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.context().cycle, 1u);
    }
}

TEST_F(CoreGuards, CrossValidationCatchesAStrayDependencyBit)
{
    // A slot that waits ready named as its own consumer in operand
    // plane 0: nothing reads the bit before the slot issues and
    // broadcasts, so only the check of every in-window producer's
    // dependency rows can see it, on the next tick.
    core::CoreConfig cfg = core::fourWideConfig();
    cfg.check_interval = 1;
    auto s = makeSim(cfg, 5000);
    core::Core &core = s.core();
    while (core.readyListSnapshot().empty())
        core.tick();
    const uint64_t corrupted = core.cycle();
    const unsigned slot = core.readyListSnapshot().front();
    core::CoreTestPeer::setDep(core, 0, slot, slot);
    try {
        core.tick();
        FAIL() << "expected hpa::InvariantViolation";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        EXPECT_NE(std::string(e.what()).find("dependency row"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.context().cycle, corrupted + 1);
    }
}

TEST(CoreConfigCheck, LatencyPastTheNarrowedFieldIsRejected)
{
    // DynInst records latencies in 16 bits, and every latency is at
    // most the event horizon + 1. The first memory latency whose
    // horizon (sched-to-exec + DL1 + L2 + memory) reaches 65535
    // must fail the constructor before it sizes the calendar.
    core::SyntheticParams sp;
    sp.num_insts = 100;
    func::CommittedTrace trace = core::syntheticTrace(sp);
    core::CoreConfig cfg = core::fourWideConfig();
    cfg.mem.mem_latency = 65535
        - (cfg.schedToExec() + cfg.mem.dl1.latency + cfg.mem.l2.latency);
    try {
        core::Core c(cfg, trace);
        FAIL() << "expected hpa::InvariantViolation";
    } catch (const InvariantViolation &e) {
        EXPECT_NE(std::string(e.what()).find("eventHorizon"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(CoreGuards, CleanRunsPassPeriodicCrossValidation)
{
    // The paranoid mode on a healthy core must be silent — this is
    // the guard against the checker itself drifting from the
    // scheduler's incremental bookkeeping.
    core::CoreConfig cfg = core::fourWideConfig();
    cfg.check_interval = 1;
    auto s = makeSim(cfg, 20000);
    EXPECT_NO_THROW(s.run());
    EXPECT_GT(s.core().cycle(), 0u);
}

} // namespace
