/**
 * @file
 * Command-line driver for the half-price architecture simulator:
 * run any SPEC substitute benchmark or a user-supplied HPA-ISA
 * assembly file on any machine configuration, print IPC and,
 * optionally, emit the text report or schema-versioned JSON/CSV.
 *
 *   hpa_sim --bench gzip --width 4 --wakeup seq --regfile seq
 *   hpa_sim --bench gzip --insts 200000 --stats-json out.json
 *   hpa_sim --asm kernel.s --insts 1000000 --report
 *   hpa_sim --list
 *
 * Argument parsing and machine assembly live in sim_options.hh so
 * the regression tests exercise them directly.
 */

#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "sim/experiment.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

#include "sim_options.hh"

namespace
{

using namespace hpa;

void
usage(std::ostream &os)
{
    os << R"(usage: hpa_sim [options]

workload (choose one):
  --bench NAME        SPEC CINT2000 substitute (see --list)
  --asm FILE          assemble and run an HPA-ISA source file
  --list              list available benchmarks and exit
  --sweep             run the full reproduction sweep (every
                      benchmark x every paper machine) on a thread
                      pool and print an IPC matrix
  --jobs N            sweep worker threads (0 = hardware threads)

machine:
  --width N           4 (default) or 8: Table 1 base machines
  --sched-policy P    scheduler (wakeup/select) policy: conv
                      (default) | seq | seq-nopred | tag-elim | dlt
                      (--wakeup is an alias)
  --rf-policy P       register-file read-port policy: 2port
                      (default) | seq | extra-stage | half-xbar |
                      prefetch (--regfile is an alias)
  --recovery MODEL    nonsel (default) | sel
  --rename MODEL      2port (default) | half
  --lap N             last-arrival predictor entries (default 1024;
                      requires a predictor-based --sched-policy)
  --bypass N          bypass window in cycles (default 1)

run control:
  --insts N           committed-instruction budget per run, at
                      least 1 (default 200000). A run captures its
                      committed trace first and holds it in memory:
                      56 B per instruction. A budget past the
                      program's end runs it to HALT.
  --cycles N          cycle budget (default: unbounded)
  --no-fastforward    do not skip to the workload's steady: label
  --report            dump the full statistics report
  --help              this text

robustness:
  --watchdog N        fail the run with a deadlock report when no
                      instruction commits for N cycles (default
                      100000; 0 disables)
  --check-interval N  cross-validate the scheduler's incremental
                      bookkeeping against the window every N cycles
                      (default 0 = off)

structured output (FILE may be '-' for stdout; writing any document
to stdout suppresses the human-readable summary):
  --json FILE         the whole run — spec, metrics, status, full
                      stats — as one "hpa.run.v2" JSON document
  --stats-json FILE   just the statistics registry, "hpa.stats.v1"
  --stats-csv FILE    the statistics as a CSV header/data row pair

exit status: 0 success; 1 runtime failure (including failed sweep
cells — partial results are still printed); 2 usage/config errors.
)";
}

/**
 * The full reproduction sweep: every benchmark on every machine of
 * the paper's main figures, run on the SweepRunner thread pool.
 * Deterministic — the IPC matrix is identical at any --jobs value.
 * Failed cells print as FAIL, are listed with their error kind and
 * context after the matrix, and turn the exit status non-zero; the
 * surviving cells are unaffected.
 */
int
runSweepMode(const tools::SimOptions &opt)
{
    auto machines = sim::reproductionMachines();
    auto names = workloads::benchmarkNames();

    std::vector<sim::SweepJob> sweep;
    for (auto &m : machines) {
        tools::applyRobustnessKnobs(opt, m.cfg);
        for (const auto &n : names) {
            sim::SweepJob j;
            j.workload = n;
            j.machine = m;
            j.max_insts = opt.insts;
            j.max_cycles = opt.cycles;
            sweep.push_back(j);
        }
    }

    sim::SweepRunner runner(opt.jobs);
    std::cout << sweep.size() << " runs (" << machines.size()
              << " machines x " << names.size() << " benchmarks), "
              << runner.jobs() << " worker thread(s), " << opt.insts
              << " insts per run\n\n";
    auto res = runner.run(std::move(sweep));

    // IPC matrix: machines down, benchmarks across.
    std::cout << std::left << std::setw(26) << "machine (IPC)";
    for (const auto &n : names)
        std::cout << std::right << std::setw(8) << n;
    std::cout << "\n";
    size_t k = 0;
    uint64_t total_cycles = 0;
    std::vector<const sim::SweepResult *> failed;
    bool steady_missing = false;
    for (const auto &m : machines) {
        std::cout << std::left << std::setw(26) << m.name;
        for (size_t i = 0; i < names.size(); ++i, ++k) {
            if (!res[k].outcome.ok()) {
                failed.push_back(&res[k]);
                std::cout << std::right << std::setw(8) << "FAIL";
            } else {
                std::cout << std::right << std::setw(8) << std::fixed
                          << std::setprecision(2) << res[k].ipc;
            }
            steady_missing |= res[k].outcome.steadyMissing;
            total_cycles += res[k].cycles;
        }
        std::cout << "\n";
    }
    std::cout << "\n"
              << std::setprecision(1) << double(total_cycles) / 1e6
              << " Mcycles simulated\n";
    if (steady_missing)
        std::cerr << "warning: some kernels have no steady: symbol; "
                     "their timing includes initialization\n";
    if (!failed.empty()) {
        std::cerr << "\n" << failed.size() << " of " << res.size()
                  << " runs failed (remaining cells are complete and "
                     "deterministic):\n";
        for (const auto *r : failed)
            std::cerr << "  " << r->spec.workload << " @ "
                      << r->spec.machine.name << ": "
                      << r->outcome.error << "\n";
        return 1;
    }
    return 0;
}

/** Run @p emit against @p path ('-' = stdout). */
bool
writeDocument(const std::string &path,
              const std::function<void(std::ostream &)> &emit)
{
    if (path == "-") {
        emit(std::cout);
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return false;
    }
    emit(out);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::SimOptions opt;
    std::string err;
    if (parseSimOptions(std::vector<std::string>(argv + 1, argv + argc),
                        opt, err)
        != 0) {
        std::cerr << err << "\n";
        usage(std::cerr);
        return 2;
    }
    if (opt.help) {
        usage(std::cout);
        return 0;
    }
    if (opt.list) {
        for (const auto &n : workloads::benchmarkNames()) {
            auto w = workloads::make(n, workloads::Scale::Test);
            std::cout << n << " — " << w.description << "\n";
        }
        return 0;
    }

    if (opt.sweep) {
        if (!opt.bench.empty() || !opt.asm_file.empty()) {
            std::cerr << "--sweep runs every benchmark; drop "
                         "--bench/--asm\n";
            return 2;
        }
        try {
            return runSweepMode(opt);
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
    }

    if (opt.bench.empty() == opt.asm_file.empty()) {
        std::cerr << "exactly one of --bench or --asm is required\n";
        usage(std::cerr);
        return 2;
    }

    try {
        assembler::Program image;
        std::string name;
        if (!opt.bench.empty()) {
            auto w = workloads::make(opt.bench, workloads::Scale::Full);
            image = std::move(w.program);
            name = w.name + " — " + w.description;
        } else {
            std::ifstream in(opt.asm_file);
            if (!in) {
                std::cerr << "cannot open " << opt.asm_file << "\n";
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            image = assembler::assemble(text.str());
            name = opt.asm_file;
        }

        sim::RunResult r;
        r.spec.workload =
            !opt.bench.empty() ? opt.bench : opt.asm_file;
        r.spec.machine = tools::machineFor(opt);
        r.spec.max_insts = opt.insts;
        r.spec.max_cycles = opt.cycles;
        r.spec.fast_forward = opt.fastforward;

        uint64_t ff = 0;
        if (opt.fastforward) {
            if (image.symbols.count("steady")) {
                ff = image.symbols.at("steady");
            } else {
                r.outcome.steadyMissing = true;
                std::cerr << "warning: no steady: symbol in "
                          << r.spec.workload
                          << "; timing includes initialization\n";
            }
        }

        r.sim = std::make_unique<sim::Simulation>(
            image, r.spec.machine.cfg, opt.insts, ff);
        r.sim->run(opt.cycles);
        r.ipc = r.sim->ipc();
        r.committed = r.sim->core().stats().committed.value();
        r.cycles = r.sim->core().cycle();
        r.fastForwarded = r.sim->fastForwarded();

        if (!opt.machineReadableStdout()) {
            std::cout << "workload: " << name << "\n"
                      << "machine:  " << r.spec.machine.name << "\n";
            if (ff)
                std::cout << "fast-forwarded " << r.fastForwarded
                          << " instructions\n";
            std::cout << "committed " << r.committed
                      << " instructions in " << r.cycles
                      << " cycles: IPC " << r.ipc << "\n";
            if (!r.sim->console().empty()) {
                std::cout << "console: ";
                for (unsigned char c : r.sim->console())
                    std::cout << (std::isprint(c) ? char(c) : '.');
                std::cout << "\n";
            }
            if (opt.report) {
                std::cout << "\n";
                r.sim->report(std::cout);
            }
        }

        bool ok = true;
        if (!opt.json_out.empty())
            ok &= writeDocument(opt.json_out, [&](std::ostream &os) {
                r.toJson(os);
            });
        if (!opt.stats_json_out.empty())
            ok &= writeDocument(
                opt.stats_json_out,
                [&](std::ostream &os) {
                    r.statsRegistry().toJson(os);
                });
        if (!opt.stats_csv_out.empty())
            ok &= writeDocument(
                opt.stats_csv_out, [&](std::ostream &os) {
                    auto reg = r.statsRegistry();
                    reg.csvHeader(os);
                    reg.csvRow(os);
                });
        if (!ok)
            return 1;
    } catch (const SimError &e) {
        // Typed failures: one line with the machine-readable kind;
        // config mistakes exit 2 like other usage errors, and any
        // attached pipeline dump goes to stderr for postmortems.
        std::cerr << "error: " << e.oneLine() << "\n";
        if (!e.context().dump.empty())
            std::cerr << e.context().dump;
        return e.kind() == ErrorKind::Config ? 2 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
