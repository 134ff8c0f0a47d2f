/**
 * @file
 * Determinism and golden check of the full reproduction sweep: run
 * every (paper machine x benchmark) pair once serially and once on
 * the thread pool, verify the two produce identical results (the
 * sweep engine's determinism contract), and emit BENCH_sweep.json
 * ("hpa.bench-sweep.v6") with per-run status, IPC, committed and
 * simulated-cycle counts and the run's registry policy names
 * (sched_policy / rf_policy). The artifact holds no host timing:
 * every field depends only on the grid and the budget, so two runs
 * of one grid write byte-identical files. Host speed is measured by
 * perfbench (perfbench/README.md), not here.
 *
 *   hpa_bench_sweep [--insts N] [--jobs N] [--out FILE]
 *                   [--zoo | --sched-policy P | --rf-policy P]
 *                   [--check GOLDEN] [--write-golden FILE]
 *                   [--inject KIND@INDEX]
 *
 * One path: run the grid serially, run it again on the thread pool,
 * check the two passes agree, write the artifact, then apply the
 * golden check.
 *
 * The machine axis defaults to the paper's reproduction grid.
 * --zoo swaps in sim::policyZooMachines() (the post-paper policies:
 * dlt wakeup, prefetch register file); --sched-policy/--rf-policy
 * build a custom two-machine grid (both Table 1 widths) from the
 * string policy registry — unknown names exit 2 listing it.
 *
 * --check compares the sweep's IPC values against a golden JSON map
 * ("hpa.sweep-golden.v1", tools/golden_sweep_ipc.json in the repo)
 * and fails with a per-cell list on any drift, on any golden cell
 * that is not an ok cell of this sweep, and on any ok cell the
 * golden does not pin — the regression gate the `golden` ctest
 * label runs.
 *
 * Failed cells are fault-isolated: they appear in the JSON with
 * status/error_kind/error, are excluded from the determinism
 * comparison, and turn the exit status non-zero — the artifact with
 * every surviving cell is still written. --inject (test only;
 * KIND = invariant | hang) plants a fault in one job so these paths
 * can be exercised end to end.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_registry.hh"
#include "sim/sweep.hh"
#include "stats/json.hh"
#include "workloads/workloads.hh"

#include "sim_options.hh"

namespace
{

using namespace hpa;

/** Key of one run in the golden map. */
std::string
runKey(const sim::SweepJob &job)
{
    return job.machine.name + "|" + job.workload;
}

/** Strict decimal parse (tools::parseNumber); exits 2 naming @p opt
 *  on anything but base-10 digits that fit 64 bits. */
uint64_t
parseU64(const std::string &opt, const std::string &text)
{
    uint64_t v = 0;
    if (!tools::parseNumber(text, v)) {
        std::cerr << opt << " needs a non-negative integer, got '"
                  << text << "'\n";
        std::exit(2);
    }
    return v;
}

/**
 * Minimal parser for the golden file: extracts every `"key": number`
 * pair. Only a string followed by ':' is a key, so a string value
 * such as the "schema" tag is never read as one. The golden format
 * is flat, so no general JSON machinery is needed.
 */
std::map<std::string, double>
parseGolden(const std::string &text)
{
    std::map<std::string, double> kv;
    size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        std::string key = text.substr(pos + 1, end - pos - 1);
        pos = end + 1;
        size_t colon = text.find_first_not_of(" \t\n", pos);
        if (colon == std::string::npos || text[colon] != ':')
            continue;
        size_t vstart = text.find_first_not_of(" \t\n", colon + 1);
        if (vstart == std::string::npos)
            break;
        char *vend = nullptr;
        double v = std::strtod(text.c_str() + vstart, &vend);
        if (vend != text.c_str() + vstart)
            kv[key] = v;
    }
    return kv;
}

bool
emitArtifact(const std::string &out,
             const std::vector<sim::SweepResult> &results,
             uint64_t insts)
{
    std::ofstream os(out);
    if (!os) {
        std::cerr << "cannot write " << out << "\n";
        return false;
    }
    size_t failed = 0;
    uint64_t total_cycles = 0;
    for (const sim::SweepResult &r : results) {
        if (!r.outcome.ok())
            ++failed;
        total_cycles += r.cycles;
    }

    stats::json::JsonWriter jw(os);
    jw.beginObject()
        .kv("schema", "hpa.bench-sweep.v6")
        .kv("insts_per_run", insts)
        .kv("total_simulated_cycles", total_cycles)
        .kv("ok_runs", uint64_t(results.size() - failed))
        .kv("failed_runs", uint64_t(failed));
    jw.key("runs").beginArray();
    for (const sim::SweepResult &r : results) {
        const core::CoreConfig &cfg = r.spec.machine.cfg;
        jw.beginObject()
            .kv("machine", r.spec.machine.name)
            .kv("sched_policy", core::schedPolicyFor(cfg.wakeup).name)
            .kv("rf_policy", core::rfPolicyFor(cfg.regfile).name)
            .kv("workload", r.spec.workload)
            .kv("status", sim::statusName(r.outcome.status))
            .kv("valid", r.valid())
            .kv("steady_missing", r.outcome.steadyMissing)
            .kv("ipc", r.ipc, 6)
            .kv("committed", r.committed)
            .kv("cycles", r.cycles);
        if (!r.outcome.ok()) {
            jw.kv("error_kind", kindName(r.outcome.errorKind))
                .kv("error", r.outcome.error);
        }
        jw.endObject();
    }
    jw.endArray().endObject();
    std::printf("wrote %s\n", out.c_str());
    return true;
}

bool
writeGoldenFile(const std::string &path,
                const std::vector<sim::SweepResult> &results,
                uint64_t insts)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    stats::json::JsonWriter jw(os);
    jw.beginObject()
        .kv("schema", "hpa.sweep-golden.v1")
        .kv("insts_per_run", insts);
    for (const sim::SweepResult &r : results)
        if (r.outcome.ok())
            jw.kv(runKey(r.spec), r.ipc, 6);
    jw.endObject();
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** @return 0 ok, 1 drift/unreadable. */
int
goldenCheck(const std::string &check,
            const std::vector<sim::SweepResult> &results,
            uint64_t insts)
{
    std::ifstream in(check);
    if (!in) {
        std::cerr << "cannot read " << check << "\n";
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto golden = parseGolden(text.str());

    auto budget = golden.find("insts_per_run");
    if (budget != golden.end() && uint64_t(budget->second) != insts) {
        std::fprintf(stderr,
                     "golden was recorded at %llu insts per run, "
                     "this sweep ran %llu — not comparable\n",
                     static_cast<unsigned long long>(budget->second),
                     static_cast<unsigned long long>(insts));
        return 1;
    }

    // The gate covers the whole file: every ok cell must be pinned,
    // and every pinned cell must have run ok, so a shrunken grid
    // cannot pass on the cells it still has.
    size_t drift = 0, checked = 0, unpinned = 0, missing = 0;
    std::set<std::string> ran;
    for (const sim::SweepResult &r : results) {
        // Failed cells carry no IPC to compare; a golden entry for
        // one is reported below as a cell that did not run ok.
        if (!r.outcome.ok())
            continue;
        ran.insert(runKey(r.spec));
        auto it = golden.find(runKey(r.spec));
        if (it == golden.end()) {
            std::fprintf(stderr,
                         "NOT IN GOLDEN machine=%s workload=%s\n",
                         r.spec.machine.name.c_str(),
                         r.spec.workload.c_str());
            ++unpinned;
            continue;
        }
        ++checked;
        // Golden stores 6 decimals; allow the rounding slack.
        if (std::fabs(r.ipc - it->second) > 5e-7) {
            std::fprintf(stderr,
                         "IPC DRIFT machine=%s workload=%s "
                         "expected=%.6f got=%.6f\n",
                         r.spec.machine.name.c_str(),
                         r.spec.workload.c_str(), it->second, r.ipc);
            ++drift;
        }
    }
    for (const auto &[key, ipc] : golden) {
        if (key == "insts_per_run" || ran.count(key))
            continue;
        const size_t bar = key.find('|');
        std::fprintf(stderr, "NOT RUN OK machine=%s workload=%s\n",
                     key.substr(0, bar).c_str(),
                     key.substr(bar + 1).c_str());
        ++missing;
    }
    if (checked == 0 || drift || unpinned || missing) {
        std::fprintf(stderr,
                     "golden %s: %zu of %zu runs drifted, %zu golden "
                     "cells did not run ok, %zu ok runs are not in "
                     "the golden\n",
                     check.c_str(), drift, checked, missing, unpinned);
        return 1;
    }
    std::printf("golden check: %zu runs match %s\n", checked,
                check.c_str());
    return 0;
}

/** Report failed cells on stderr. @return their count. */
size_t
reportFailures(const std::vector<sim::SweepResult> &results,
               const std::string &out)
{
    size_t failed = 0;
    for (const sim::SweepResult &r : results)
        if (!r.outcome.ok())
            ++failed;
    if (failed) {
        std::fprintf(stderr,
                     "\n%zu of %zu runs failed (artifact %s still "
                     "carries every surviving cell):\n",
                     failed, results.size(), out.c_str());
        for (const sim::SweepResult &r : results)
            if (!r.outcome.ok())
                std::fprintf(stderr, "  %s @ %s: %s\n",
                             r.spec.workload.c_str(),
                             r.spec.machine.name.c_str(),
                             r.outcome.error.c_str());
    }
    return failed;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = 50000;
    unsigned jobs = 0;
    std::string out = "BENCH_sweep.json";
    std::string check;
    std::string write_golden;
    bool zoo = false;
    std::string sched_policy;
    std::string rf_policy;
    std::vector<std::pair<sim::FaultKind, size_t>> injections;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << argv[i] << " needs a value\n";
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--insts") {
            insts = parseU64(a, need(i));
            if (insts == 0) {
                std::cerr << "--insts must be at least 1 (every cell "
                             "holds its trace in memory, 12 B per "
                             "instruction)\n";
                return 2;
            }
        } else if (a == "--jobs")
            jobs = unsigned(parseU64(a, need(i)));
        else if (a == "--out")
            out = need(i);
        else if (a == "--check")
            check = need(i);
        else if (a == "--write-golden")
            write_golden = need(i);
        else if (a == "--zoo")
            zoo = true;
        else if (a == "--sched-policy")
            sched_policy = need(i);
        else if (a == "--rf-policy")
            rf_policy = need(i);
        else if (a == "--inject") {
            std::string v = need(i);
            size_t at = v.find('@');
            std::string kind = v.substr(0, at);
            sim::FaultKind f;
            if (kind == "invariant")
                f = sim::FaultKind::InvariantTrip;
            else if (kind == "hang")
                f = sim::FaultKind::BlockCommit;
            else {
                std::cerr << "--inject expects invariant|hang@INDEX\n";
                return 2;
            }
            if (at == std::string::npos) {
                std::cerr << "--inject needs an @INDEX\n";
                return 2;
            }
            injections.emplace_back(
                f, parseU64(a, v.substr(at + 1)));
        } else {
            std::cerr << "unknown option: " << a << "\n"
                      << "usage: hpa_bench_sweep [--insts N] "
                         "[--jobs N] "
                         "[--zoo | --sched-policy P | "
                         "--rf-policy P] "
                         "[--out FILE] [--check GOLDEN] "
                         "[--write-golden FILE] "
                         "[--inject KIND@INDEX]\n";
            return 2;
        }
    }

    if (zoo && (!sched_policy.empty() || !rf_policy.empty())) {
        std::cerr << "--zoo already selects its machine grid; drop "
                     "--sched-policy/--rf-policy\n";
        return 2;
    }
    std::vector<sim::Machine> machines;
    if (!sched_policy.empty() || !rf_policy.empty()) {
        // Custom grid: the requested policies at both Table 1
        // widths, built through the string registry so an unknown
        // name fails here with the registered list.
        try {
            for (unsigned w : {4u, 8u}) {
                auto b = sim::Machine::base(w);
                if (!sched_policy.empty())
                    b.schedPolicy(sched_policy);
                if (!rf_policy.empty())
                    b.rfPolicy(rf_policy);
                machines.push_back(b.build());
            }
        } catch (const std::invalid_argument &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    } else {
        machines = zoo ? sim::policyZooMachines()
                       : sim::reproductionMachines();
    }
    auto names = workloads::benchmarkNames();
    std::vector<sim::SweepJob> sweep;
    for (const auto &m : machines) {
        for (const auto &n : names) {
            sim::SweepJob j;
            j.workload = n;
            j.machine = m;
            j.max_insts = insts;
            j.validate();
            sweep.push_back(j);
        }
    }
    for (auto [fault, idx] : injections) {
        if (idx >= sweep.size()) {
            std::cerr << "--inject index " << idx << " out of range "
                      << "(0.." << sweep.size() - 1 << ")\n";
            return 2;
        }
        sweep[idx].fault = fault;
        // A hung cell waits out the watchdog; keep that snappy.
        if (fault == sim::FaultKind::BlockCommit)
            sweep[idx].machine.cfg.watchdog_cycles = 20000;
    }

    std::printf("%zu runs (%zu machines x %zu benchmarks), "
                "%llu insts per run\n",
                sweep.size(), machines.size(), names.size(),
                static_cast<unsigned long long>(insts));

    std::printf("serial pass (1 worker)...\n");
    std::vector<sim::SweepResult> serial =
        sim::SweepRunner(1).run(sweep);

    sim::SweepRunner parallel_runner(jobs);
    std::printf("parallel pass (%u workers)...\n",
                parallel_runner.jobs());
    std::vector<sim::SweepResult> parallel = parallel_runner.run(sweep);

    // Determinism contract: parallel results bit-identical to serial
    // — including which cells failed and why (error kinds are
    // deterministic).
    size_t mismatches = 0;
    for (size_t i = 0; i < sweep.size(); ++i) {
        if (serial[i].outcome.status != parallel[i].outcome.status
            || serial[i].outcome.errorKind
                   != parallel[i].outcome.errorKind) {
            std::fprintf(stderr,
                         "DETERMINISM MISMATCH %s: serial status %s "
                         "parallel status %s\n",
                         runKey(sweep[i]).c_str(),
                         sim::statusName(serial[i].outcome.status),
                         sim::statusName(parallel[i].outcome.status));
            ++mismatches;
            continue;
        }
        if (!serial[i].outcome.ok())
            continue;
        if (serial[i].ipc != parallel[i].ipc
            || serial[i].cycles != parallel[i].cycles
            || serial[i].committed != parallel[i].committed) {
            std::fprintf(stderr,
                         "DETERMINISM MISMATCH %s: serial IPC %.9f "
                         "parallel IPC %.9f\n",
                         runKey(sweep[i]).c_str(), serial[i].ipc,
                         parallel[i].ipc);
            ++mismatches;
        }
    }
    if (mismatches) {
        std::fprintf(stderr, "%zu mismatching runs\n", mismatches);
        return 1;
    }

    if (!emitArtifact(out, parallel, insts))
        return 1;
    if (!write_golden.empty()
        && !writeGoldenFile(write_golden, parallel, insts))
        return 1;
    if (!check.empty() && goldenCheck(check, parallel, insts) != 0)
        return 1;
    if (reportFailures(parallel, out) > 0)
        return 1;
    return 0;
}
