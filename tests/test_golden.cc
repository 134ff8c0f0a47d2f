/**
 * @file
 * The golden IPC gates. The paper grid (sim::reproductionMachines())
 * and the policy zoo (sim::policyZooMachines()), each crossed with
 * the twelve kernels at 50,000 committed instructions, run as one
 * sweep each; every cell's IPC, printed "%.6f", must equal its text
 * in tools/golden_sweep_ipc.json or tools/golden_zoo_ipc.json. A gate
 * covers its whole file: a pinned cell that did not run ok, an ok
 * cell the golden does not pin and a golden recorded at another
 * budget all fail it, one line per cell.
 *
 * ctest runs each case under its own name: golden_sweep_ipc,
 * golden_zoo_ipc and golden_check_partial_grid.
 *
 * Every run writes what it measured, in the golden format and grid
 * order, to golden_sweep_ipc.actual.json and
 * golden_zoo_ipc.actual.json in the build directory. After an
 * intended model change, refresh a golden with
 *
 *   cp build/tests/golden_sweep_ipc.actual.json tools/golden_sweep_ipc.json
 */

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sweep.hh"
#include "stats/json.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

/** The budget both goldens were recorded at. */
constexpr uint64_t GOLDEN_INSTS = 50000;

std::string
cellKey(const sim::SweepResult &r)
{
    return r.spec.machine.name + "|" + r.spec.workload;
}

std::string
ipcText(double ipc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", ipc);
    return buf;
}

/** Every `"key": value` pair of a flat golden file whose value is not
 *  a string, with the value kept as text. */
std::map<std::string, std::string>
parseGolden(const std::string &text)
{
    std::map<std::string, std::string> golden;
    size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        const size_t colon = text.find_first_not_of(" \t\n", end + 1);
        if (colon == std::string::npos)
            break;
        const std::string key = text.substr(pos + 1, end - pos - 1);
        pos = end + 1;
        if (text[colon] != ':')
            continue;
        const size_t v0 = text.find_first_not_of(" \t\n", colon + 1);
        if (v0 == std::string::npos)
            break;
        if (text[v0] == '"')
            continue;
        const size_t v1 = text.find_first_of(",}\n", v0);
        golden[key] = text.substr(v0, v1 - v0);
    }
    return golden;
}

/**
 * Compare @p results, run at @p insts instructions, with @p golden.
 * @return one line per failing cell (empty: the gate holds).
 */
std::vector<std::string>
goldenMismatches(const std::map<std::string, std::string> &golden,
                 std::span<const sim::SweepResult> results,
                 uint64_t insts)
{
    std::vector<std::string> bad;
    auto budget = golden.find("insts_per_run");
    if (budget == golden.end() || budget->second != std::to_string(insts))
        bad.push_back("insts_per_run: golden "
                      + (budget == golden.end() ? "(none)"
                                                : budget->second)
                      + ", run " + std::to_string(insts));
    std::set<std::string> ranOk;
    for (const sim::SweepResult &r : results) {
        // A failed cell carries no IPC; its golden entry is reported
        // below as a cell that did not run ok.
        if (!r.outcome.ok())
            continue;
        ranOk.insert(cellKey(r));
        const std::string cell = "machine=" + r.spec.machine.name
            + " workload=" + r.spec.workload;
        auto it = golden.find(cellKey(r));
        if (it == golden.end())
            bad.push_back("NOT IN GOLDEN " + cell);
        else if (it->second != ipcText(r.ipc))
            bad.push_back("IPC DRIFT " + cell + " expected=" + it->second
                          + " got=" + ipcText(r.ipc));
    }
    for (const auto &entry : golden) {
        const size_t bar = entry.first.find('|');
        if (bar == std::string::npos || ranOk.count(entry.first))
            continue;
        bad.push_back("NOT RUN OK machine=" + entry.first.substr(0, bar)
                      + " workload=" + entry.first.substr(bar + 1));
    }
    return bad;
}

/** @p results as a golden file: hpa.sweep-golden.v1, grid order. */
std::string
goldenText(std::span<const sim::SweepResult> results, uint64_t insts)
{
    std::ostringstream os;
    stats::json::JsonWriter jw(os);
    jw.beginObject()
        .kv("schema", "hpa.sweep-golden.v1")
        .kv("insts_per_run", insts);
    for (const sim::SweepResult &r : results)
        if (r.outcome.ok())
            jw.kv(cellKey(r), r.ipc, 6);
    jw.endObject();
    return os.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A hand-made cell: what the comparison reads of a SweepResult. */
struct Cell
{
    const char *machine;
    const char *workload;
    double ipc;
    bool ok = true;
};

std::vector<sim::SweepResult>
resultsOf(std::initializer_list<Cell> cells)
{
    std::vector<sim::SweepResult> results;
    for (const Cell &c : cells) {
        sim::SweepResult &r = results.emplace_back();
        r.spec.machine.name = c.machine;
        r.spec.workload = c.workload;
        r.ipc = c.ipc;
        if (!c.ok)
            r.outcome.status = sim::RunStatus::Failed;
    }
    return results;
}

TEST(GoldenCheck, EveryFailingCellGetsItsOwnLine)
{
    const auto golden = parseGolden(R"({
  "schema": "hpa.sweep-golden.v1",
  "insts_per_run": 50000,
  "4-wide|bzip": 1.614257,
  "4-wide|gcc": 1.359545,
  "4-wide|mcf": 0.919997
})");
    const auto partial = resultsOf({
        {"4-wide", "bzip", 1.614257},
        {"4-wide", "gcc", 0.0, false},
        {"4-wide", "mcf", 0.9199974},
        {"4-wide/seq-wakeup", "bzip", 1.614257},
    });
    EXPECT_EQ(goldenMismatches(golden, partial, GOLDEN_INSTS),
              (std::vector<std::string>{
                  "NOT IN GOLDEN machine=4-wide/seq-wakeup workload=bzip",
                  "NOT RUN OK machine=4-wide workload=gcc",
              }));

    const auto drifted = resultsOf({
        {"4-wide", "bzip", 1.61426},
        {"4-wide", "gcc", 1.359545},
        {"4-wide", "mcf", 0.919997},
    });
    EXPECT_EQ(goldenMismatches(golden, drifted, 60000),
              (std::vector<std::string>{
                  "insts_per_run: golden 50000, run 60000",
                  "IPC DRIFT machine=4-wide workload=bzip "
                  "expected=1.614257 got=1.614260",
              }));
}

/**
 * Run @p machines x the twelve kernels at GOLDEN_INSTS on one sweep,
 * write the result beside the test binary as <golden>.actual.json and
 * require it to match tools/<golden>.json cell for cell.
 */
void
checkGrid(const char *golden, const std::vector<sim::Machine> &machines)
{
    const std::vector<std::string> kernels = workloads::benchmarkNames();
    std::vector<sim::SweepJob> jobs;
    for (const sim::Machine &m : machines)
        for (const std::string &k : kernels)
            jobs.push_back({k, m, GOLDEN_INSTS});
    const std::vector<sim::SweepResult> results =
        sim::SweepRunner(0).run(std::move(jobs));

    const std::string actual = std::string(HPA_GOLDEN_ACTUAL_DIR) + "/"
        + golden + ".actual.json";
    std::ofstream out(actual);
    out << goldenText(results, GOLDEN_INSTS);
    EXPECT_TRUE(out.good()) << "cannot write " << actual;
    const std::string path = std::string(HPA_GOLDEN_DIR) + "/" + golden
        + ".json";
    const std::vector<std::string> bad = goldenMismatches(
        parseGolden(readFile(path)), results, GOLDEN_INSTS);
    std::string lines;
    for (const std::string &line : bad)
        lines += line + "\n";
    EXPECT_TRUE(bad.empty())
        << path << " (this run wrote " << actual << "):\n" << lines;
    if (bad.empty())
        std::printf("%s: %zu/%zu cells match\n", path.c_str(),
                    results.size(), results.size());
}

TEST(GoldenIpc, PaperGridMatchesItsGolden)
{
    checkGrid("golden_sweep_ipc", sim::reproductionMachines());
}

TEST(GoldenIpc, PolicyZooMatchesItsGolden)
{
    checkGrid("golden_zoo_ipc", sim::policyZooMachines());
}

} // namespace
