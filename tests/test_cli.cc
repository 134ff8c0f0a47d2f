/**
 * @file
 * hpa_sim command-line regression tests, in two layers: the factored
 * parser (tools/sim_options.hh) is unit-tested directly, and the
 * installed binary (path injected as HPA_SIM_BINARY by CMake) is
 * shelled to pin down the observable contract — unknown options are
 * rejected with a clear message and exit code 2, and --stats-json
 * emits a well-formed schema-versioned document.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <vector>

#include <gtest/gtest.h>

#include "sim_options.hh"
#include "stats/json.hh"

using namespace hpa;
using tools::SimOptions;
using tools::parseSimOptions;

namespace
{

int
parse(std::vector<std::string> args, SimOptions &opt, std::string &err)
{
    return parseSimOptions(args, opt, err);
}

/** Run a command, capture combined stdout+stderr and the exit code. */
struct ShellResult
{
    int status = -1;
    std::string out;
};

ShellResult
shell(const std::string &cmd)
{
    ShellResult r;
    FILE *p = popen((cmd + " 2>&1").c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    int status = pclose(p);
    r.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

std::string
simBinary()
{
    return HPA_SIM_BINARY;
}

} // namespace

TEST(SimOptionsParse, Defaults)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({}, o, err), 0);
    EXPECT_EQ(o.width, 4u);
    EXPECT_EQ(o.wakeup, core::WakeupModel::Conventional);
    EXPECT_EQ(o.regfile, core::RegfileModel::TwoPort);
    EXPECT_TRUE(o.fastforward);
    EXPECT_FALSE(o.lap_set);
    EXPECT_FALSE(o.machineReadableStdout());
    EXPECT_EQ(o.insts, 200000u);
}

TEST(SimOptionsParse, ZeroBudgetIsRejected)
{
    // Every run holds its committed trace in memory, so "no budget"
    // is not a value: --insts 0 is an error in both forms.
    for (std::vector<std::string> args :
         {std::vector<std::string>{"--insts", "0"},
          std::vector<std::string>{"--insts=0"}}) {
        SimOptions o;
        std::string err;
        EXPECT_EQ(parse(args, o, err), 2) << args[0];
        EXPECT_NE(err.find("--insts must be at least 1"),
                  std::string::npos)
            << err;
    }
}

TEST(SimOptionsParse, FullMachineLine)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--bench", "gzip", "--width", "8", "--wakeup",
                     "tag-elim", "--regfile", "half-xbar",
                     "--recovery", "sel", "--rename", "half", "--lap",
                     "512", "--bypass", "2", "--insts", "1000"},
                    o, err),
              0)
        << err;
    EXPECT_EQ(o.bench, "gzip");
    EXPECT_EQ(o.width, 8u);
    EXPECT_EQ(o.wakeup, core::WakeupModel::TagElimination);
    EXPECT_EQ(o.regfile, core::RegfileModel::HalfPortCrossbar);
    EXPECT_EQ(o.recovery, core::RecoveryModel::Selective);
    EXPECT_EQ(o.rename, core::RenameModel::HalfPort);
    EXPECT_TRUE(o.lap_set);
    EXPECT_EQ(o.lap, 512u);
    EXPECT_EQ(o.bypass, 2u);
    EXPECT_EQ(o.insts, 1000u);
}

TEST(SimOptionsParse, UnknownOptionIsRejected)
{
    SimOptions o;
    std::string err;
    EXPECT_EQ(parse({"--frobnicate"}, o, err), 2);
    EXPECT_NE(err.find("unknown option"), std::string::npos);
    EXPECT_NE(err.find("--frobnicate"), std::string::npos);
}

TEST(SimOptionsParse, MalformedNumbersAreRejected)
{
    // Digits only: strtoull alone would skip the space of " -1" and
    // wrap it to 2^64-1, and would take "+5" as 5.
    for (const char *bad : {"banana", "12x", "-5", "", " -1", "+5"}) {
        SimOptions o;
        std::string err;
        EXPECT_EQ(parse({"--insts", bad}, o, err), 2)
            << "accepted --insts " << bad;
        EXPECT_NE(err.find("--insts"), std::string::npos);
    }
}

TEST(SimOptionsParse, OverflowNumericsAreRejected)
{
    // Past uint64_t: strtoull saturates with ERANGE; must not parse.
    for (const char *bad :
         {"18446744073709551616", "99999999999999999999"}) {
        SimOptions o;
        std::string err;
        EXPECT_EQ(parse({"--insts", bad}, o, err), 2)
            << "accepted --insts " << bad;
    }
    // Fits uint64_t but not the unsigned field: must be an error,
    // not a silent truncation (4294967300 would wrap to width 4).
    for (const char *flag : {"--width", "--lap", "--bypass"}) {
        SimOptions o;
        std::string err;
        EXPECT_EQ(parse({flag, "4294967300"}, o, err), 2)
            << flag << " truncated instead of rejecting";
        EXPECT_NE(err.find("out of range"), std::string::npos) << err;
        EXPECT_NE(err.find(flag), std::string::npos) << err;
    }
    // The uint64_t-backed options take the full range.
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--insts", "18446744073709551615"}, o, err), 0)
        << err;
    EXPECT_EQ(o.insts, UINT64_MAX);
}

TEST(SimOptionsParse, DuplicateFlagsAreLastWins)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--insts", "100", "--wakeup", "conv", "--insts",
                     "200", "--wakeup", "seq"},
                    o, err),
              0)
        << err;
    EXPECT_EQ(o.insts, 200u);
    EXPECT_EQ(o.wakeup, core::WakeupModel::Sequential);
}

TEST(SimOptionsParse, EqualsFormMatchesSpaceForm)
{
    SimOptions spaced, eq;
    std::string err;
    ASSERT_EQ(parse({"--bench", "gzip", "--insts", "5000", "--wakeup",
                     "seq", "--width", "8"},
                    spaced, err),
              0)
        << err;
    ASSERT_EQ(parse({"--bench=gzip", "--insts=5000", "--wakeup=seq",
                     "--width=8"},
                    eq, err),
              0)
        << err;
    EXPECT_EQ(eq.bench, spaced.bench);
    EXPECT_EQ(eq.insts, spaced.insts);
    EXPECT_EQ(eq.wakeup, spaced.wakeup);
    EXPECT_EQ(eq.width, spaced.width);
}

TEST(SimOptionsParse, EqualsFormRejectsBadValuesLikeSpaceForm)
{
    SimOptions o;
    std::string err;
    EXPECT_EQ(parse({"--insts=banana"}, o, err), 2);
    EXPECT_NE(err.find("--insts"), std::string::npos) << err;
    // An empty inline value is a malformed number, not "missing".
    EXPECT_EQ(parse({"--insts="}, o, err), 2);
    // Unknown flags report the token as typed, '=' and all.
    EXPECT_EQ(parse({"--frobnicate=7"}, o, err), 2);
    EXPECT_NE(err.find("--frobnicate=7"), std::string::npos) << err;
}

TEST(SimOptionsParse, EqualsFormOnValuelessFlagIsRejected)
{
    for (const char *bad :
         {"--report=yes", "--list=1", "--no-fastforward=off"}) {
        SimOptions o;
        std::string err;
        EXPECT_EQ(parse({bad}, o, err), 2) << "accepted " << bad;
        EXPECT_NE(err.find("does not take a value"), std::string::npos)
            << err;
    }
}

TEST(SimOptionsParse, MissingValueIsRejected)
{
    SimOptions o;
    std::string err;
    EXPECT_EQ(parse({"--bench"}, o, err), 2);
    EXPECT_EQ(parse({"--insts"}, o, err), 2);
}

TEST(SimOptionsParse, BadModelNamesAreRejected)
{
    SimOptions o;
    std::string err;
    EXPECT_EQ(parse({"--wakeup", "psychic"}, o, err), 2);
    EXPECT_EQ(parse({"--recovery", "maybe"}, o, err), 2);
    EXPECT_EQ(parse({"--rename", "quarter"}, o, err), 2);
    EXPECT_EQ(parse({"--regfile", "3port"}, o, err), 2);
}

TEST(SimOptionsParse, UnknownPolicyNamesListTheRegistry)
{
    SimOptions o;
    std::string err;
    EXPECT_EQ(parse({"--wakeup", "psychic"}, o, err), 2);
    for (const char *name :
         {"conv", "seq", "seq-nopred", "tag-elim", "dlt"})
        EXPECT_NE(err.find(name), std::string::npos)
            << "sched error does not list " << name << ": " << err;
    EXPECT_EQ(parse({"--regfile", "3port"}, o, err), 2);
    for (const char *name :
         {"2port", "extra-stage", "half-xbar", "prefetch"})
        EXPECT_NE(err.find(name), std::string::npos)
            << "rf error does not list " << name << ": " << err;
    // The k=v list spelling is gone: --policy is an unknown option.
    EXPECT_EQ(parse({"--policy", "sched=dlt,rf=prefetch"}, o, err), 2);
    EXPECT_NE(err.find("unknown option: --policy"), std::string::npos)
        << err;
}

TEST(SimOptionsMachine, NewPolicySuffixesComposeTheMachineName)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--wakeup", "dlt", "--regfile", "prefetch"}, o,
                    err),
              0)
        << err;
    sim::Machine m = tools::machineFor(o);
    EXPECT_EQ(m.name, "4-wide/dlt-wakeup/prefetch-rf");
    EXPECT_EQ(m.cfg.wakeup, core::WakeupModel::LoadDelayTracking);
    EXPECT_EQ(m.cfg.regfile, core::RegfileModel::PrefetchBuffer);
}

TEST(SimOptionsParse, StdoutTargetsSuppressSummary)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--stats-json", "-"}, o, err), 0);
    EXPECT_TRUE(o.machineReadableStdout());
    SimOptions o2;
    ASSERT_EQ(parse({"--stats-json", "out.json"}, o2, err), 0);
    EXPECT_FALSE(o2.machineReadableStdout());
}

TEST(SimOptionsMachine, BuildsTheGoldenKeyOfItsMachine)
{
    // The name is the one the golden IPC gate keys the same machine
    // by: options left at their Table 1 defaults add nothing to it.
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--wakeup", "seq", "--regfile", "seq"}, o, err),
              0);
    EXPECT_EQ(tools::machineFor(o).name, "4-wide/seq-wakeup/seq-rf");
}

TEST(SimOptionsMachine, LapWithConventionalWakeupThrows)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--lap", "512"}, o, err), 0);
    EXPECT_THROW(tools::machineFor(o), std::invalid_argument);
}

TEST(SimOptionsMachine, WidthOutsideTable1Throws)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--width", "6"}, o, err), 0);
    EXPECT_THROW(tools::machineFor(o), std::invalid_argument);
}

TEST(SimCliBinary, UnknownOptionExitsTwo)
{
    // Deleted flags are unknown options like any other.
    for (std::string form :
         {" --frobnicate", " --sweep", " --jobs 4",
          " --sched-engine reference", " --sched-engine=masked",
          " --trace-cache on", " --trace-cache=off"}) {
        auto r = shell(simBinary() + " --bench gzip --insts 5000"
                       + form);
        EXPECT_EQ(r.status, 2) << form << "\n" << r.out;
        const std::string token =
            form.substr(1, form.find(' ', 1) - 1);
        EXPECT_NE(r.out.find("unknown option: " + token),
                  std::string::npos)
            << r.out;
    }
}

TEST(SimCliBinary, DefaultBudgetCommitsTwoHundredThousand)
{
    // No --insts: the run stops at the 200,000-instruction default
    // instead of capturing the Full-scale kernel to HALT.
    auto r = shell(simBinary() + " --bench gzip");
    ASSERT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("committed 200000 instructions"),
              std::string::npos)
        << r.out;
}

TEST(SimCliBinary, MalformedNumberExitsTwo)
{
    auto r = shell(simBinary() + " --bench gzip --insts banana");
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.out.find("--insts"), std::string::npos);
}

TEST(SimCliBinary, StatsJsonOnStdoutIsSchemaVersioned)
{
    auto r = shell(simBinary()
                   + " --bench gzip --insts 5000 --stats-json -");
    ASSERT_EQ(r.status, 0) << r.out;
    std::string err;
    ASSERT_TRUE(stats::json::validate(r.out, &err))
        << err << "\n" << r.out.substr(0, 400);
    EXPECT_EQ(stats::json::findStringField(r.out, "schema"),
              "hpa.stats.v1");
}

TEST(SimCliBinary, RunJsonCarriesSpecAndMetrics)
{
    auto r = shell(simBinary()
                   + " --bench gzip --insts 5000 --json -");
    ASSERT_EQ(r.status, 0) << r.out;
    std::string err;
    ASSERT_TRUE(stats::json::validate(r.out, &err)) << err;
    EXPECT_EQ(stats::json::findStringField(r.out, "schema"),
              "hpa.run.v3");
    EXPECT_EQ(stats::json::findStringField(r.out, "workload"), "gzip");
    EXPECT_EQ(stats::json::findStringField(r.out, "status"), "ok");
    EXPECT_NE(r.out.find("\"valid\": true"), std::string::npos);
    EXPECT_NE(r.out.find("\"ipc\""), std::string::npos);
    EXPECT_NE(r.out.find("\"stats\""), std::string::npos);
}

TEST(SimOptionsParse, RobustnessKnobsReachTheConfig)
{
    SimOptions o;
    std::string err;
    ASSERT_EQ(parse({"--watchdog", "5000", "--check-interval", "256"},
                    o, err),
              0)
        << err;
    EXPECT_TRUE(o.watchdog_set);
    sim::Machine m = tools::machineFor(o);
    EXPECT_EQ(m.cfg.watchdog_cycles, 5000u);
    EXPECT_EQ(m.cfg.check_interval, 256u);

    // Unset knobs keep the CoreConfig defaults.
    SimOptions d;
    ASSERT_EQ(parse({}, d, err), 0);
    sim::Machine md = tools::machineFor(d);
    EXPECT_EQ(md.cfg.watchdog_cycles, 100000u);
    EXPECT_EQ(md.cfg.check_interval, 0u);

    // --watchdog 0 is an explicit disable, not "unset".
    SimOptions z;
    ASSERT_EQ(parse({"--watchdog", "0"}, z, err), 0);
    EXPECT_EQ(tools::machineFor(z).cfg.watchdog_cycles, 0u);
}

TEST(SimCliBinary, UnknownWorkloadExitsTwoWithOneLineConfigError)
{
    auto r = shell(simBinary() + " --bench frobnozzle");
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.out.find("[config]"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("unknown workload"), std::string::npos)
        << r.out;
    // One line, no usage dump: the message is the whole output.
    EXPECT_EQ(std::count(r.out.begin(), r.out.end(), '\n'), 1)
        << r.out;
}

TEST(SimCliBinary, MissingSteadySymbolWarnsAndLandsInJson)
{
    // A kernel without a steady: label — fast-forward is requested
    // by default but has nowhere to go.
    std::string asm_path = "test_cli_no_steady.s";
    {
        FILE *f = fopen(asm_path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        fputs("start:  add r1, #1, r1\n        halt\n", f);
        fclose(f);
    }
    auto r = shell(simBinary() + " --asm " + asm_path + " --json -");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("no steady: symbol"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("\"steady_missing\": true"),
              std::string::npos)
        << r.out;
    remove(asm_path.c_str());
}
