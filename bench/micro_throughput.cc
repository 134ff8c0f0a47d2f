/**
 * @file
 * Simulator-throughput micro-benchmark: simulated cycles per second
 * of wall time for the timing core itself, per workload and machine
 * width. This is the host-side figure of merit for the scheduler
 * hot path (ready/issued bit planes, dependency-matrix wakeup) — IPC
 * measures the modeled machine, cycles/sec measures the simulator.
 *
 * RunResult.wallSeconds measures Core::run() only; workload assembly
 * and functional fast-forward are excluded. Runs serially (one
 * worker) so per-run wall times are undistorted.
 *
 * `--policy sched=X,rf=Y` pins the scheduler and register-file
 * policies by registry key; either value may be `all`, which expands
 * that axis to every registered policy — the `perf` ctest label runs
 * `sched=all,rf=all`, so every zoo policy's hot path is timed, not
 * just the paper four. With a single combo the output is the
 * detailed per-workload table; a multi-combo sweep prints one
 * summary row per combo.
 *
 * `--json FILE` additionally writes the measurements as one
 * "hpa.micro-throughput.v3" document — totals plus per-run
 * cycles/sec — so CI (the `perf` ctest label) and
 * tools/compare_bench.py can track throughput over time. In sweep
 * mode each run also carries its machine name, which keeps
 * compare_bench.py's machine|workload run keys unique across combos.
 */

#include <fstream>
#include <string>

#include "bench_util.hh"
#include "core/policy_registry.hh"
#include "stats/json.hh"

using namespace hpa;
using namespace hpa::benchutil;

namespace
{

/** One point of the policy sweep. Empty policy string = the base
 *  machine's default for that axis. */
struct Combo
{
    std::string sched;
    std::string rf;

    std::string
    label() const
    {
        std::string s = "sched=";
        s += sched.empty() ? "base" : sched;
        s += ",rf=";
        s += rf.empty() ? "base" : rf;
        return s;
    }
};

/** Expand one `--policy` axis value: "" = default, "all" = every
 *  registered key, anything else = that single key (validated later
 *  by MachineBuilder, which throws listing the registry). */
template <typename Table>
std::vector<std::string>
expandAxis(const std::string &v, const Table &table)
{
    std::vector<std::string> out;
    if (v == "all") {
        for (const auto &p : table)
            out.push_back(p.name);
    } else {
        out.push_back(v);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out;
    std::string sched_policy;
    std::string rf_policy;
    bool bad_cli = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--batch" || a == "--sched-engine") {
            std::fprintf(stderr,
                         "%s was removed: results never depended on "
                         "it (every cell runs alone on the one "
                         "scheduler)\n",
                         a.c_str());
            return 2;
        } else if (a == "--json" && i + 1 < argc) {
            json_out = argv[++i];
        } else if (a == "--sched-policy" && i + 1 < argc) {
            sched_policy = argv[++i];
        } else if (a == "--rf-policy" && i + 1 < argc) {
            rf_policy = argv[++i];
        } else if (a == "--policy" && i + 1 < argc) {
            // k=v pairs, comma-separated: sched=X,rf=Y. Either value
            // may be "all" (expand to the full registry).
            std::string spec = argv[++i];
            size_t pos = 0;
            while (pos <= spec.size() && !bad_cli) {
                size_t comma = spec.find(',', pos);
                std::string kv = spec.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                size_t eq = kv.find('=');
                std::string k = kv.substr(0, eq);
                std::string v =
                    eq == std::string::npos ? "" : kv.substr(eq + 1);
                if (eq == std::string::npos || v.empty()) {
                    std::fprintf(stderr,
                                 "--policy: malformed pair '%s' "
                                 "(want sched=X,rf=Y)\n",
                                 kv.c_str());
                    bad_cli = true;
                } else if (k == "sched") {
                    sched_policy = v;
                } else if (k == "rf") {
                    rf_policy = v;
                } else {
                    std::fprintf(stderr,
                                 "--policy: unknown axis '%s' "
                                 "(want sched or rf)\n",
                                 k.c_str());
                    bad_cli = true;
                }
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else {
            bad_cli = true;
        }
        if (bad_cli) {
            std::fprintf(
                stderr,
                "usage: micro_throughput "
                "[--policy sched=X,rf=Y] "
                "[--sched-policy P] [--rf-policy P] "
                "[--json FILE]\n"
                "  scheduler policies (or 'all'): %s\n"
                "  register-file policies (or 'all'): %s\n",
                core::schedPolicyNames().c_str(),
                core::rfPolicyNames().c_str());
            return 2;
        }
    }

    std::vector<Combo> combos;
    for (const auto &s :
         expandAxis(sched_policy, core::schedPolicies()))
        for (const auto &r : expandAxis(rf_policy, core::rfPolicies()))
            combos.push_back(Combo{s, r});
    const bool sweep_mode = combos.size() > 1;

    uint64_t budget = instBudget();
    banner("Micro: simulator throughput (simulated cycles/sec)",
           "host-side figure of merit, not a paper experiment",
           budget);

    struct Sample
    {
        unsigned width;
        std::string bench;
        std::string machine;
        uint64_t cycles;
        uint64_t committed;
        double wallSeconds;
        double cyclesPerSec;
    };
    std::vector<Sample> samples;

    if (sweep_mode)
        std::printf("policy sweep: %zu combos "
                    "(per-combo totals below)\n",
                    combos.size());

    const auto names = workloads::benchmarkNames();
    const std::vector<unsigned> widths = {4u, 8u};

    // Per-combo summary rows, printed as one table after the sweep
    // (the Table ctor prints its header, so defer construction).
    struct ComboRow
    {
        std::string label;
        double cycles, secs;
    };
    std::vector<ComboRow> combo_rows;
    double grand_cycles = 0, grand_secs = 0;
    for (const Combo &combo : combos) {
        std::vector<sim::SweepJob> jobs;
        std::vector<std::string> machine_names;
        for (unsigned width : widths) {
            // Policy overrides go through the string registry, so an
            // unknown name fails fast listing the registered keys.
            auto b = sim::Machine::base(width);
            try {
                if (!combo.sched.empty())
                    b.schedPolicy(combo.sched);
                if (!combo.rf.empty())
                    b.rfPolicy(combo.rf);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return 2;
            }
            sim::Machine m = b.build();
            machine_names.push_back(m.name);
            for (const auto &name : names)
                jobs.push_back(job(name, m, budget));
        }
        sim::SweepRunner runner(1);
        auto all = runner.run(std::move(jobs));

        double combo_cycles = 0, combo_secs = 0;
        for (size_t wi = 0; wi < widths.size(); ++wi) {
            unsigned width = widths[wi];
            const sim::SweepResult *res =
                all.data() + wi * names.size();

            double total_cycles = 0, total_secs = 0, total_insts = 0;
            for (size_t i = 0; i < names.size(); ++i) {
                const auto &r = res[i];
                total_cycles += double(r.cycles);
                total_secs += r.wallSeconds;
                total_insts += double(r.committed);
                samples.push_back(
                    Sample{width, names[i], machine_names[wi],
                           r.cycles, r.committed, r.wallSeconds,
                           r.cyclesPerSec()});
            }
            if (!sweep_mode) {
                // Single combo: the detailed per-workload table.
                std::printf("\n--- %u-wide base machine ---\n",
                            width);
                Table t({"bench", "sim cycles", "wall ms",
                         "Mcycles/s", "Minsts/s"});
                for (size_t i = 0; i < names.size(); ++i) {
                    const auto &r = res[i];
                    t.begin(names[i])
                        .count(r.cycles)
                        .abs(1e3 * r.wallSeconds, 2)
                        .abs(r.cyclesPerSec() / 1e6, 3)
                        .abs(double(r.committed) / r.wallSeconds
                                 / 1e6,
                             3)
                        .end();
                }
                t.begin("total")
                    .count(uint64_t(total_cycles))
                    .abs(1e3 * total_secs, 2)
                    .abs(total_cycles / total_secs / 1e6, 3)
                    .abs(total_insts / total_secs / 1e6, 3)
                    .end();
            }
            combo_cycles += total_cycles;
            combo_secs += total_secs;
        }
        if (sweep_mode)
            combo_rows.push_back(
                ComboRow{combo.label(), combo_cycles, combo_secs});
        grand_cycles += combo_cycles;
        grand_secs += combo_secs;
    }
    if (sweep_mode) {
        std::printf("\n");
        Table t({"combo", "sim cycles", "wall ms", "Mcycles/s"}, 50);
        for (const auto &r : combo_rows)
            t.begin(r.label)
                .count(uint64_t(r.cycles))
                .abs(1e3 * r.secs, 2)
                .abs(r.cycles / r.secs / 1e6, 3)
                .end();
        std::printf("aggregate: %.3f Mcycles/s over %zu runs\n",
                    grand_cycles / grand_secs / 1e6, samples.size());
    }

    if (!json_out.empty()) {
        std::ofstream os(json_out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_out.c_str());
            return 1;
        }
        stats::json::JsonWriter jw(os);
        jw.beginObject()
            .kv("schema", "hpa.micro-throughput.v3")
            .kv("insts_per_run", budget)
            .kv("total_simulated_cycles", uint64_t(grand_cycles))
            .kv("total_wall_seconds", grand_secs, 4)
            .kv("aggregate_cycles_per_sec",
                grand_secs > 0 ? grand_cycles / grand_secs : 0.0, 0)
            .key("runs")
            .beginArray();
        for (const auto &s : samples) {
            jw.beginObject();
            // In sweep mode the same width|workload pair recurs once
            // per combo; the machine name disambiguates (and switches
            // compare_bench.py to machine|workload keys).
            if (sweep_mode)
                jw.kv("machine", s.machine);
            jw.kv("width", uint64_t(s.width))
                .kv("workload", s.bench)
                .kv("cycles", s.cycles)
                .kv("committed", s.committed)
                .kv("wall_seconds", s.wallSeconds, 4)
                .kv("cycles_per_sec", s.cyclesPerSec, 0)
                .endObject();
        }
        jw.endArray().endObject();
        std::printf("\nwrote %s\n", json_out.c_str());
    }
    return 0;
}
