/** @file End-to-end integration: SPEC substitutes captured to HALT
 *  and replayed through the full timing pipeline on every scheme,
 *  validated against the golden-model console output. */

#include <tuple>

#include <gtest/gtest.h>

#include "sim/simulation.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;
using core::CoreConfig;
using core::RegfileModel;
using core::WakeupModel;

/** (workload, wakeup, regfile) combinations for the full-pipe runs. */
using PipeParam = std::tuple<std::string, WakeupModel, RegfileModel>;

class FullPipe : public ::testing::TestWithParam<PipeParam>
{};

TEST_P(FullPipe, TimingRunPreservesArchitecturalResults)
{
    auto [name, wakeup, regfile] = GetParam();
    auto w = workloads::make(name, workloads::Scale::Test);

    CoreConfig cfg = core::fourWideConfig();
    cfg.wakeup = wakeup;
    cfg.regfile = regfile;

    sim::Simulation s(w.program, cfg);
    s.run(20000000);
    ASSERT_TRUE(s.trace().halted()) << name;
    // The timing core consumed the committed stream to completion and
    // the capture produced the golden checksum on the way.
    EXPECT_EQ(s.console(), w.expectedConsole) << name;
    EXPECT_EQ(s.core().stats().committed.value(), s.trace().size());
    EXPECT_GT(s.ipc(), 0.1);
    EXPECT_LE(s.ipc(), 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FullPipe,
    ::testing::Values(
        PipeParam{"bzip", WakeupModel::Conventional,
                  RegfileModel::TwoPort},
        PipeParam{"bzip", WakeupModel::Sequential,
                  RegfileModel::SequentialAccess},
        PipeParam{"mcf", WakeupModel::TagElimination,
                  RegfileModel::TwoPort},
        PipeParam{"perl", WakeupModel::Sequential,
                  RegfileModel::TwoPort},
        PipeParam{"gcc", WakeupModel::SequentialNoPred,
                  RegfileModel::TwoPort},
        PipeParam{"vpr", WakeupModel::Conventional,
                  RegfileModel::HalfPortCrossbar},
        PipeParam{"eon", WakeupModel::Sequential,
                  RegfileModel::ExtraStage},
        PipeParam{"twolf", WakeupModel::Conventional,
                  RegfileModel::SequentialAccess}));

class AllBenchTiming : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllBenchTiming, BaseMachineIpcInPlausibleBand)
{
    auto w = workloads::make(GetParam(), workloads::Scale::Test);
    sim::Simulation s(w.program, core::fourWideConfig());
    s.run(20000000);
    ASSERT_TRUE(s.trace().halted());
    // Table 2 base IPCs range 0.71-2.02 on the 4-wide machine; allow
    // a wider band for the substitutes.
    EXPECT_GT(s.ipc(), 0.3) << GetParam();
    EXPECT_LT(s.ipc(), 3.9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, AllBenchTiming,
    ::testing::ValuesIn(workloads::benchmarkNames()));

TEST(Integration, SchemesDegradeGracefullyOnRealKernel)
{
    // Figure 16's qualitative claim: the combined techniques stay
    // close to base performance on real workloads.
    auto w = workloads::make("gzip", workloads::Scale::Test);

    sim::Simulation base(w.program, core::fourWideConfig());
    base.run(20000000);

    CoreConfig comb = core::fourWideConfig();
    comb.wakeup = WakeupModel::Sequential;
    comb.regfile = RegfileModel::SequentialAccess;
    sim::Simulation half(w.program, comb);
    half.run(20000000);

    ASSERT_TRUE(base.trace().halted());
    ASSERT_TRUE(half.trace().halted());
    double ratio = half.ipc() / base.ipc();
    EXPECT_LE(ratio, 1.001);
    EXPECT_GT(ratio, 0.85);
}

TEST(Integration, EightWideRunsEveryScheme)
{
    auto w = workloads::make("parser", workloads::Scale::Test);
    for (auto wakeup :
         {WakeupModel::Conventional, WakeupModel::Sequential,
          WakeupModel::SequentialNoPred, WakeupModel::TagElimination}) {
        CoreConfig cfg = core::eightWideConfig();
        cfg.wakeup = wakeup;
        sim::Simulation s(w.program, cfg);
        s.run(20000000);
        ASSERT_TRUE(s.trace().halted());
        EXPECT_EQ(s.console(), w.expectedConsole);
    }
}

TEST(Integration, LastArrivalMonitorPopulatedOnRealKernel)
{
    auto w = workloads::make("bzip", workloads::Scale::Test);
    sim::Simulation s(w.program, core::fourWideConfig());
    s.run(20000000);
    const auto &mon = s.core().lapMonitor();
    EXPECT_GT(mon.samples(), 100u);
    // Larger tables should not be (much) worse than smaller ones.
    EXPECT_GE(mon.accuracy(3) + 0.05, mon.accuracy(0));
}

} // namespace
