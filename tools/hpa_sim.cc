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
#include <iostream>
#include <sstream>

#include "sim/experiment.hh"
#include "sim/simulation.hh"
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

machine:
  --width N           4 (default) or 8: Table 1 base machines
  --wakeup P          scheduler (wakeup/select) policy: conv
                      (default) | seq | seq-nopred | tag-elim | dlt
  --regfile P         register-file read-port policy: 2port
                      (default) | seq | extra-stage | half-xbar |
                      prefetch
  --recovery MODEL    nonsel (default) | sel
  --rename MODEL      2port (default) | half
  --lap N             last-arrival predictor entries (default 1024;
                      requires a predictor-based --wakeup)
  --bypass N          bypass window in cycles (default 1)

run control:
  --insts N           committed-instruction budget per run, at
                      least 1 (default 200000). A run captures its
                      committed trace first and holds it in memory:
                      12 B per instruction. A budget past the
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
                      stats — as one "hpa.run.v3" JSON document
  --stats-json FILE   just the statistics registry, "hpa.stats.v1"
  --stats-csv FILE    the statistics as a CSV header/data row pair

exit status: 0 success; 1 runtime failure; 2 usage/config errors.
)";
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
