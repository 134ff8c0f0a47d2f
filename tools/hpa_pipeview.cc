/**
 * @file
 * Pipeline viewer (in the spirit of SimpleScalar's pipetrace): run a
 * small HPA-ISA program or the first instructions of a benchmark and
 * print, per committed instruction, its fetch / dispatch / issue /
 * complete / commit cycles plus an ASCII occupancy strip. Handy for
 * seeing the half-price penalties land: a slow-bus wakeup shifts
 * issue right by one; a sequential register access stretches
 * issue-to-complete; a replay reissues.
 *
 *   hpa_pipeview --asm kernel.s
 *   hpa_pipeview --bench bzip --insts 40 --wakeup seq --regfile seq
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "sim/simulation.hh"
#include "workloads/workloads.hh"

#include "sim_options.hh"

namespace
{

using namespace hpa;

struct Row
{
    uint64_t seq;
    uint64_t pc;
    std::string disasm;
    uint64_t fetch, dispatch, issue, complete, commit;
    uint32_t issues;
    bool seq_ra;
    bool replay;
};

void
usage(std::ostream &os)
{
    os << "usage: hpa_pipeview (--asm FILE | --bench NAME) "
          "[--insts N] [--width 4|8]\n"
          "       [--wakeup " << core::schedPolicyNames()
       << "] [--regfile " << core::rfPolicyNames() << "]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench, asm_file;
    uint64_t insts = 32;
    uint64_t width = 4;
    core::WakeupModel wakeup = core::WakeupModel::Conventional;
    core::RegfileModel regfile = core::RegfileModel::TwoPort;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << argv[i] << " needs a value\n";
            std::exit(2);
        }
        return argv[++i];
    };

    auto bad = [&](const std::string &msg) {
        std::cerr << msg << "\n";
        std::exit(2);
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help") {
            usage(std::cout);
            return 0;
        } else if (a == "--bench") {
            bench = need(i);
        } else if (a == "--asm") {
            asm_file = need(i);
        } else if (a == "--insts") {
            std::string v = need(i);
            if (!tools::parseNumber(v, insts) || insts == 0)
                bad("--insts expects an integer of at least 1, got '"
                    + v + "'");
        } else if (a == "--width") {
            std::string v = need(i);
            if (!tools::parseNumber(v, width) || (width != 4 && width != 8))
                bad("--width expects 4 or 8 (Table 1), got '" + v + "'");
        } else if (a == "--wakeup") {
            std::string v = need(i);
            if (!tools::parseWakeupModel(v, wakeup))
                bad("--wakeup: unknown policy '" + v + "' (registered: "
                    + core::schedPolicyNames() + ")");
        } else if (a == "--regfile") {
            std::string v = need(i);
            if (!tools::parseRegfileModel(v, regfile))
                bad("--regfile: unknown policy '" + v + "' (registered: "
                    + core::rfPolicyNames() + ")");
        } else {
            std::cerr << "unknown option: " << a << "\n";
            usage(std::cerr);
            return 2;
        }
    }

    if (bench.empty() == asm_file.empty()) {
        usage(std::cerr);
        return 2;
    }

    const core::CoreConfig cfg = sim::Machine::base(unsigned(width))
                                     .wakeup(wakeup)
                                     .regfile(regfile)
                                     .build()
                                     .cfg;

    try {
        assembler::Program image;
        if (!bench.empty()) {
            image = workloads::make(bench,
                                    workloads::Scale::Test).program;
        } else {
            std::ifstream in(asm_file);
            if (!in) {
                std::cerr << "cannot open " << asm_file << "\n";
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            image = assembler::assemble(text.str());
        }

        sim::Simulation s(image, cfg, insts);
        std::vector<Row> rows;
        s.core().setCommitListener(
            [&rows, &s](const core::DynInst &di, uint64_t commit) {
                // seq is the instruction's index in the trace.
                const func::CommittedTrace &t = s.trace();
                const func::TraceEntry &e = t.entry(t.record(di.seq));
                rows.push_back(Row{di.seq, e.pc, e.inst.disassemble(),
                                   di.fetchCycle, di.dispatchCycle,
                                   di.issueCycle, di.completeCycle,
                                   commit, di.issueToken,
                                   di.seqRegAccess,
                                   di.loadMissReplay});
            });
        s.run(1000000);

        std::printf("%4s %-28s %6s %6s %6s %6s %6s  %s\n", "seq",
                    "instruction", "fetch", "disp", "issue", "compl",
                    "commit", "notes");
        uint64_t base = rows.empty() ? 0 : rows.front().fetch;
        for (const Row &r : rows) {
            std::string notes;
            if (r.issues > 1)
                notes += "replayed x" + std::to_string(r.issues - 1)
                    + " ";
            if (r.seq_ra)
                notes += "seq-RF ";
            if (r.replay)
                notes += "load-miss ";
            auto u = [](uint64_t v) {
                return static_cast<unsigned long long>(v);
            };
            std::printf("%4llu %-28s %6llu %6llu %6llu %6llu %6llu  %s\n",
                        u(r.seq), r.disasm.c_str(),
                        u(r.fetch - base),
                        u(r.dispatch - base),
                        u(r.issue - base),
                        u(r.complete - base),
                        u(r.commit - base),
                        notes.c_str());
        }
        std::printf("\nIPC %.3f over %llu cycles\n", s.ipc(),
                    static_cast<unsigned long long>(s.core().cycle()));
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
