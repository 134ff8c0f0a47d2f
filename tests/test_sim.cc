/** @file Tests for the simulation driver, Table 1 machine factories
 *  and the declarative MachineBuilder/ExperimentSpec API. */

#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/policy_registry.hh"
#include "sim/experiment.hh"
#include "sim/simulation.hh"

namespace
{

using namespace hpa;
using namespace hpa::sim;

TEST(Machines, FourWideMatchesTable1)
{
    Machine m = Machine::base(4);
    EXPECT_EQ(m.name, "4-wide");
    EXPECT_EQ(m.cfg.width, 4u);
    EXPECT_EQ(m.cfg.ruu_size, 64u);
    EXPECT_EQ(m.cfg.lsq_size, 32u);
    EXPECT_EQ(m.cfg.num_int_alu, 4u);
    EXPECT_EQ(m.cfg.num_fp_alu, 2u);
    EXPECT_EQ(m.cfg.num_int_muldiv, 2u);
    EXPECT_EQ(m.cfg.num_mem_ports, 2u);
}

TEST(Machines, EightWideMatchesTable1)
{
    Machine m = Machine::base(8);
    EXPECT_EQ(m.cfg.width, 8u);
    EXPECT_EQ(m.cfg.ruu_size, 128u);
    EXPECT_EQ(m.cfg.lsq_size, 64u);
    EXPECT_EQ(m.cfg.num_int_alu, 8u);
    EXPECT_EQ(m.cfg.num_mem_ports, 4u);
}

TEST(Machines, Table1MemoryAndBpredDefaults)
{
    Machine m = Machine::base(4);
    EXPECT_EQ(m.cfg.mem.il1.size_bytes, 64u * 1024);
    EXPECT_EQ(m.cfg.mem.il1.assoc, 2u);
    EXPECT_EQ(m.cfg.mem.il1.line_bytes, 32u);
    EXPECT_EQ(m.cfg.mem.dl1.assoc, 4u);
    EXPECT_EQ(m.cfg.mem.dl1.line_bytes, 16u);
    EXPECT_EQ(m.cfg.mem.l2.size_bytes, 512u * 1024);
    EXPECT_EQ(m.cfg.mem.l2.latency, 8u);
    EXPECT_EQ(m.cfg.mem.mem_latency, 50u);
    EXPECT_EQ(m.cfg.bpred.bimodal_entries, 4096u);
    EXPECT_EQ(m.cfg.bpred.btb_entries, 1024u);
    EXPECT_EQ(m.cfg.bpred.ras_entries, 16u);
    EXPECT_EQ(m.cfg.min_branch_penalty, 11u);
}

TEST(Machines, SchemeModifiersComposeNames)
{
    Machine m = Machine::base(4)
                    .wakeup(core::WakeupModel::Sequential)
                    .regfile(core::RegfileModel::SequentialAccess);
    EXPECT_EQ(m.name, "4-wide/seq-wakeup/seq-rf");
    EXPECT_EQ(m.cfg.wakeup, core::WakeupModel::Sequential);
    EXPECT_EQ(m.cfg.regfile, core::RegfileModel::SequentialAccess);
}

TEST(Machines, LapEntriesConfigurable)
{
    Machine m = Machine::base(4)
                    .wakeup(core::WakeupModel::Sequential)
                    .lap(128);
    EXPECT_EQ(m.cfg.lap_entries, 128u);
}

TEST(Machines, ExtraStageAffectsSchedToExec)
{
    Machine base = Machine::base(4);
    Machine m = Machine::base(4).regfile(
        core::RegfileModel::ExtraStage);
    EXPECT_EQ(m.cfg.schedToExec(), base.cfg.schedToExec() + 1);
}

TEST(Machines, RenameModifier)
{
    Machine m =
        Machine::base(4).rename(core::RenameModel::HalfPort);
    EXPECT_EQ(m.cfg.rename, core::RenameModel::HalfPort);
    EXPECT_EQ(m.name, "4-wide/half-rename");
}

TEST(Machines, BypassWindowDefaultsToOneCycle)
{
    Machine m = Machine::base(4);
    EXPECT_EQ(m.cfg.bypass_window, 1u);
}

TEST(Builder, BaseRejectsWidthsOutsideTable1)
{
    EXPECT_THROW(Machine::base(0), std::invalid_argument);
    EXPECT_THROW(Machine::base(5), std::invalid_argument);
    EXPECT_THROW(Machine::base(16), std::invalid_argument);
    EXPECT_NO_THROW(Machine::base(4).build());
    EXPECT_NO_THROW(Machine::base(8).build());
}

TEST(Builder, DefaultsMatchTable1)
{
    Machine m4 = Machine::base(4);
    EXPECT_EQ(m4.name, "4-wide");
    EXPECT_EQ(m4.cfg.width, 4u);
    EXPECT_EQ(m4.cfg.ruu_size, 64u);
    EXPECT_EQ(m4.cfg.lsq_size, 32u);
    EXPECT_EQ(m4.cfg.bypass_window, 1u);
    Machine m8 = Machine::base(8);
    EXPECT_EQ(m8.name, "8-wide");
    EXPECT_EQ(m8.cfg.ruu_size, 128u);
    EXPECT_EQ(m8.cfg.lsq_size, 64u);
}

TEST(Builder, RegistryNamesProduceSameMachinesAsEnums)
{
    Machine by_name = Machine::base(4)
                          .wakeup(core::findSchedPolicy("seq")->model)
                          .lap(1024)
                          .regfile(core::findRFPolicy("seq")->model);
    Machine by_enum = Machine::base(4)
                          .wakeup(core::WakeupModel::Sequential)
                          .lap(1024)
                          .regfile(core::RegfileModel::SequentialAccess);
    EXPECT_EQ(by_name.name, by_enum.name);
    EXPECT_EQ(by_name.name, "4-wide/seq-wakeup/seq-rf");
    EXPECT_EQ(by_name.cfg.wakeup, by_enum.cfg.wakeup);
    EXPECT_EQ(by_name.cfg.regfile, by_enum.cfg.regfile);
    EXPECT_EQ(by_name.cfg.lap_entries, by_enum.cfg.lap_entries);
}

TEST(Builder, NewPolicySuffixesComposeNames)
{
    using core::RegfileModel;
    using core::WakeupModel;
    EXPECT_EQ(Machine(Machine::base(4).wakeup(
                          WakeupModel::LoadDelayTracking))
                  .name,
              "4-wide/dlt-wakeup");
    EXPECT_EQ(Machine(Machine::base(8).regfile(
                          RegfileModel::PrefetchBuffer))
                  .name,
              "8-wide/prefetch-rf");
    EXPECT_EQ(Machine(Machine::base(4)
                          .wakeup(WakeupModel::LoadDelayTracking)
                          .regfile(RegfileModel::PrefetchBuffer))
                  .name,
              "4-wide/dlt-wakeup/prefetch-rf");
}

TEST(Builder, AppendsEveryLegacyNameSuffix)
{
    EXPECT_EQ(Machine::base(8)
                  .wakeup(core::WakeupModel::TagElimination)
                  .build()
                  .name,
              "8-wide/tag-elim");
    EXPECT_EQ(Machine::base(4)
                  .wakeup(core::WakeupModel::SequentialNoPred)
                  .build()
                  .name,
              "4-wide/seq-wakeup-nopred");
    EXPECT_EQ(Machine::base(4)
                  .regfile(core::RegfileModel::HalfPortCrossbar)
                  .build()
                  .name,
              "4-wide/half-ports-xbar");
    EXPECT_EQ(Machine::base(4)
                  .recovery(core::RecoveryModel::Selective)
                  .build()
                  .name,
              "4-wide/selective");
    EXPECT_EQ(Machine::base(4)
                  .rename(core::RenameModel::HalfPort)
                  .build()
                  .name,
              "4-wide/half-rename");
}

TEST(Builder, NameIsAFunctionOfTheConfiguration)
{
    using core::RegfileModel;
    using core::WakeupModel;
    auto name = [](const MachineBuilder &b) { return b.build().name; };
    // The setters only set fields, so their order does not matter.
    EXPECT_EQ(name(Machine::base(4)
                       .regfile(RegfileModel::SequentialAccess)
                       .wakeup(WakeupModel::Sequential)),
              "4-wide/seq-wakeup/seq-rf");
    EXPECT_EQ(name(Machine::base(4)
                       .wakeup(WakeupModel::Sequential)
                       .regfile(RegfileModel::SequentialAccess)),
              "4-wide/seq-wakeup/seq-rf");
    // Predictor size, bypass window and detection delay are named.
    EXPECT_EQ(
        name(Machine::base(4).wakeup(WakeupModel::Sequential).lap(128)),
        "4-wide/seq-wakeup/lap128");
    EXPECT_EQ(name(Machine::base(4)
                       .regfile(RegfileModel::SequentialAccess)
                       .bypassWindow(2)),
              "4-wide/seq-rf/bypass2");
    EXPECT_EQ(name(Machine::base(8)
                       .wakeup(WakeupModel::TagElimination)
                       .detectDelay(3)),
              "8-wide/tag-elim/detect3");
    // A setter given its Table 1 value leaves the name unchanged.
    EXPECT_EQ(
        name(Machine::base(4).wakeup(WakeupModel::Sequential).lap(1024)),
        "4-wide/seq-wakeup");
    EXPECT_EQ(name(Machine::base(4).bypassWindow(1)), "4-wide");
    EXPECT_EQ(
        name(Machine::base(4).recovery(core::RecoveryModel::NonSelective)),
        "4-wide");
    EXPECT_EQ(name(Machine::base(8).rename(core::RenameModel::TwoPort)),
              "8-wide");
}

TEST(Builder, RobustnessKnobsStayOutOfTheName)
{
    core::CoreConfig cfg = Machine(Machine::base(8)).cfg;
    cfg.watchdog_cycles = 7;
    cfg.check_interval = 1;
    EXPECT_EQ(machineName(cfg), "8-wide");
}

TEST(Builder, LapRequiresPredictorBasedWakeup)
{
    // Conventional and SequentialNoPred have no last-arrival
    // predictor, so a lap table is a configuration contradiction.
    EXPECT_THROW(Machine::base(4).lap(1024).build(),
                 std::invalid_argument);
    EXPECT_THROW(Machine::base(4)
                     .wakeup(core::WakeupModel::SequentialNoPred)
                     .lap(1024)
                     .build(),
                 std::invalid_argument);
    EXPECT_NO_THROW(Machine::base(4)
                        .wakeup(core::WakeupModel::Sequential)
                        .lap(1024)
                        .build());
    EXPECT_NO_THROW(Machine::base(4)
                        .wakeup(core::WakeupModel::TagElimination)
                        .lap(256)
                        .build());
}

TEST(Builder, LapEntriesMustBePowerOfTwo)
{
    auto seq = [] {
        return Machine::base(4).wakeup(core::WakeupModel::Sequential);
    };
    EXPECT_THROW(seq().lap(0).build(), std::invalid_argument);
    EXPECT_THROW(seq().lap(1000).build(), std::invalid_argument);
    EXPECT_NO_THROW(seq().lap(1).build());
    EXPECT_NO_THROW(seq().lap(4096).build());
}

TEST(Builder, DetectDelayRequiresTagElimination)
{
    EXPECT_THROW(Machine::base(4).detectDelay(2).build(),
                 std::invalid_argument);
    EXPECT_THROW(Machine::base(4)
                     .wakeup(core::WakeupModel::Sequential)
                     .detectDelay(2)
                     .build(),
                 std::invalid_argument);
    EXPECT_THROW(Machine::base(4)
                     .wakeup(core::WakeupModel::TagElimination)
                     .detectDelay(0)
                     .build(),
                 std::invalid_argument);
    Machine m = Machine::base(4)
                    .wakeup(core::WakeupModel::TagElimination)
                    .detectDelay(2);
    EXPECT_EQ(m.cfg.tagelim_detect_delay, 2u);
}

TEST(Builder, BypassWindowMustBeAtLeastOneCycle)
{
    EXPECT_THROW(Machine::base(4).bypassWindow(0).build(),
                 std::invalid_argument);
    Machine m = Machine::base(4).bypassWindow(3);
    EXPECT_EQ(m.cfg.bypass_window, 3u);
}

TEST(Builder, ImplicitConversionValidates)
{
    // The implicit Machine conversion runs build(), so a bad chain
    // throws even without an explicit build() call.
    auto use = [](const Machine &m) { return m.cfg.width; };
    EXPECT_THROW(use(Machine::base(4).lap(1024)),
                 std::invalid_argument);
    EXPECT_EQ(use(Machine::base(8)), 8u);
}

TEST(ExperimentSpecTest, ValidateChecksWorkloadAndMachine)
{
    ExperimentSpec spec;
    spec.machine = Machine::base(4);
    spec.workload = "gzip";
    EXPECT_NO_THROW(spec.validate());

    spec.workload = "no-such-benchmark";
    EXPECT_THROW(spec.validate(), std::invalid_argument);

    spec.workload = "gzip";
    spec.machine = Machine{};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Simulation, StatsRegistryMatchesReport)
{
    auto p = assembler::assemble("li r1, 5\nhalt");
    Simulation s(p, core::fourWideConfig());
    s.run();
    std::ostringstream from_report, from_registry;
    s.report(from_report);
    s.statsRegistry().dump(from_registry);
    EXPECT_EQ(from_report.str(), from_registry.str());
    EXPECT_NE(from_report.str().find("core.ipc"), std::string::npos);
}

TEST(Simulation, FastForwardSkipsInstructions)
{
    auto p = assembler::assemble(R"(
        li r1, 100
warm:   sub r1, #1, r1
        bne r1, warm
steady: li r2, 50
meas:   sub r2, #1, r2
        bne r2, meas
        halt)");
    Simulation s(p, core::fourWideConfig(), 0, p.symbol("steady"));
    s.run();
    EXPECT_GT(s.fastForwarded(), 190u);
    // Only the measured region is timed.
    EXPECT_LT(s.core().stats().committed.value(), 120u);
    EXPECT_TRUE(s.trace().halted());
}

TEST(Simulation, FastForwardToUnreachedPcRunsToHalt)
{
    auto p = assembler::assemble("li r1, 5\nhalt");
    Simulation s(p, core::fourWideConfig(), 0, 0xDEAD000);
    s.run();
    // The program halts during fast-forward; nothing is timed.
    EXPECT_EQ(s.core().stats().committed.value(), 0u);
}

TEST(Simulation, MaxInstsCapsRun)
{
    auto p = assembler::assemble("loop: add r1, #1, r1\nbr loop");
    Simulation s(p, core::fourWideConfig(), 500);
    s.run();
    EXPECT_EQ(s.core().stats().committed.value(), 500u);
    EXPECT_FALSE(s.trace().halted());
}

TEST(Simulation, ReportContainsKeySections)
{
    auto p = assembler::assemble("li r1, 5\nhalt");
    Simulation s(p, core::fourWideConfig());
    s.run();
    std::ostringstream os;
    s.report(os);
    std::string out = os.str();
    EXPECT_NE(out.find("core.committed"), std::string::npos);
    EXPECT_NE(out.find("core.ipc"), std::string::npos);
    EXPECT_NE(out.find("dl1.hits"), std::string::npos);
    EXPECT_NE(out.find("bpred.lookups"), std::string::npos);
    EXPECT_NE(out.find("sched.wakeup_slack"), std::string::npos);
}

TEST(Simulation, WiderMachineIsNotSlower)
{
    const char *src = R"(
        li r1, 300
loop:   add r2, #1, r2
        add r3, #1, r3
        add r4, #1, r4
        add r5, #1, r5
        add r6, #1, r6
        add r7, #1, r7
        sub r1, #1, r1
        bne r1, loop
        halt)";
    auto p = assembler::assemble(src);
    Simulation s4(p, Machine(Machine::base(4)).cfg);
    Simulation s8(p, Machine(Machine::base(8)).cfg);
    s4.run();
    s8.run();
    EXPECT_GE(s8.ipc(), s4.ipc());
}

} // namespace
