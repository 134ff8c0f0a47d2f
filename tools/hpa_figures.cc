/**
 * @file
 * Every table and figure of the reproduction from one run. The union
 * of the machines the tables read (41 machines x 12 kernels) runs
 * once on the sweep engine, and the tables print in paper order,
 * followed by the post-paper policies of sim::policyZooMachines().
 * The last table checks the paper's claims as named predicates.
 *
 *   hpa_figures [--insts N] [--jobs N]
 *
 * --insts is the committed-instruction budget of every timing run
 * (default 150000); --jobs is the sweep's worker count (0, the
 * default, is one per hardware thread).
 * The output depends only on the budget, never on --jobs or the
 * host, so tests/golden/figures_50k.txt pins it byte for byte (ctest
 * golden_figures). After an intended model change, refresh it with
 *
 *   ./build/tools/hpa_figures --insts 50000 > tests/golden/figures_50k.txt
 *
 * A failed cell aborts the run (exit 1) listing every failed cell:
 * the tables cannot be printed from partial data.
 */

#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "core/last_arrival.hh"
#include "model/timing_models.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

#include "sim_options.hh"

namespace
{

using namespace hpa;
using core::RecoveryModel;
using core::RegfileModel;
using core::RenameModel;
using core::WakeupModel;

std::string
fmt(double v, int prec = 3)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
percent(double v, int prec = 1)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", prec, 100.0 * v);
    return buf;
}

/** A ratio fit for a geomean: finite and positive. A zero-IPC run
 *  would otherwise put -inf into the log sum and poison the column. */
bool
finiteRatio(double v)
{
    return std::isfinite(v) && v > 0.0;
}

/** @p part over @p whole, an empty whole counting as 1. */
double
share(uint64_t part, uint64_t whole)
{
    return double(part) / double(whole ? whole : 1);
}

/** Geometric mean of a non-empty vector. */
double
geomean(const std::vector<double> &v)
{
    double logsum = 0;
    for (double x : v)
        logsum += std::log(x);
    return std::exp(logsum / double(v.size()));
}

void
banner(const char *what, const char *paper_ref)
{
    const char *rule = "=============================================="
                       "======================";
    std::printf("\n%s\n%s\nReproduces: %s\n%s\n", rule, what,
                paper_ref, rule);
}

/**
 * One aligned table: a 10-wide row-name column, then cells of
 * @p cell_w. Construction prints the header; each data row is a
 * begin()..end() chain of typed cells. norm() cells are remembered
 * per column, so geomeanRow() closes the table with the geometric
 * mean of every normalized column (other columns stay blank).
 */
class Table
{
  public:
    explicit Table(const std::vector<std::string> &headers,
                   int cell_w = 12)
        : cell_w_(cell_w), samples_(headers.size() - 1)
    {
        begin(headers.front());
        for (size_t i = 1; i < headers.size(); ++i)
            text(headers[i]);
        end();
    }

    Table &
    begin(const std::string &name)
    {
        std::printf("%-10s", name.c_str());
        col_ = 0;
        return *this;
    }

    Table &
    text(const std::string &s)
    {
        std::printf("%*s", cell_w_, s.c_str());
        ++col_;
        return *this;
    }

    /** Absolute numeric cell (not part of the geomean). */
    Table &abs(double v, int prec = 3) { return text(fmt(v, prec)); }

    Table &pct(double v) { return text(percent(v)); }

    /** Normalized cell, kept for geomeanRow(). A non-finite or
     *  non-positive ratio prints "n/a" and stays out of the geomean. */
    Table &
    norm(double v)
    {
        if (!finiteRatio(v))
            return text("n/a");
        samples_[col_].push_back(v);
        return abs(v, 4);
    }

    void end() { std::printf("\n"); }

    void
    geomeanRow()
    {
        begin("geomean");
        for (const auto &col : samples_)
            col.empty() ? text("") : abs(geomean(col), 4);
        end();
    }

  private:
    int cell_w_;
    size_t col_ = 0;
    std::vector<std::vector<double>> samples_;
};

/** One row per kernel, filled by @p row(table, kernel index);
 *  normalized tables close with a geomean row. */
template <typename Row>
void
kernelTable(const std::vector<std::string> &names,
            const std::vector<std::string> &headers, int cell_w,
            bool geomean_row, Row row)
{
    Table t(headers, cell_w);
    for (size_t k = 0; k < names.size(); ++k) {
        t.begin(names[k]);
        row(t, k);
        t.end();
    }
    if (geomean_row)
        t.geomeanRow();
}

constexpr unsigned WIDTHS[2] = {4, 8};

/** The base machine's name at width index @p w ("4-wide", "8-wide");
 *  every other machine of that width extends it. */
std::string
wide(size_t w)
{
    return std::to_string(WIDTHS[w]) + "-wide";
}

/** Every machine the tables read, each declared once: tables find
 *  cells by sim::machineName(), so d = 1, lap 1024 and bypass window
 *  1 are the grid's machines. */
std::vector<sim::Machine>
machineUnion()
{
    // Table 2 and Figures 14-16: sim::reproductionMachines(), the
    // golden_sweep_ipc grid.
    std::vector<sim::Machine> ms = sim::reproductionMachines();
    for (unsigned width : WIDTHS) {
        for (unsigned d = 2; d <= 4; ++d)
            ms.push_back(sim::Machine::base(width)
                             .wakeup(WakeupModel::TagElimination)
                             .detectDelay(d));
        ms.push_back(
            sim::Machine::base(width).rename(RenameModel::HalfPort));
        // Everything halved: wakeup + register file + rename.
        ms.push_back(sim::Machine::base(width)
                         .wakeup(WakeupModel::Sequential)
                         .regfile(RegfileModel::SequentialAccess)
                         .rename(RenameModel::HalfPort));
    }
    // 4-wide only: the bypass-window, predictor-size and recovery
    // ablations.
    for (unsigned window : {2u, 3u})
        ms.push_back(sim::Machine::base(4)
                         .regfile(RegfileModel::SequentialAccess)
                         .bypassWindow(window));
    for (unsigned entries : {128u, 512u, 4096u})
        ms.push_back(sim::Machine::base(4)
                         .wakeup(WakeupModel::Sequential)
                         .lap(entries));
    ms.push_back(sim::Machine::base(4).recovery(RecoveryModel::Selective));
    ms.push_back(sim::Machine::base(4)
                     .wakeup(WakeupModel::Sequential)
                     .recovery(RecoveryModel::Selective));
    for (sim::Machine &m : sim::policyZooMachines())
        ms.push_back(std::move(m));
    return ms;
}

/** The finished sweep: one cell per (machine, kernel), found by
 *  machine name and kernel index. */
struct Cells
{
    std::vector<std::string> names;
    std::vector<sim::SweepResult> results;
    /** Machine name -> its row of names.size() cells in results. */
    std::map<std::string, size_t> rows;

    /** Run every machine on every kernel. A failed cell (a table
     *  cannot have a hole) or two machines of one name throw. */
    Cells(const std::vector<sim::Machine> &machines, uint64_t insts,
          unsigned jobs)
        : names(workloads::benchmarkNames())
    {
        std::vector<sim::SweepJob> sweep;
        for (const sim::Machine &m : machines) {
            HPA_CHECK(rows.emplace(m.name, rows.size()).second,
                      "two machines are named '" + m.name + "'");
            for (const std::string &name : names)
                sweep.push_back({name, m, insts});
        }
        results = sim::SweepRunner(jobs).run(std::move(sweep));
        sim::requireAllOk(results);
    }

    const sim::SweepResult &
    at(const std::string &machine, size_t kernel) const
    {
        const auto row = rows.find(machine);
        HPA_CHECK(row != rows.end(),
                  "no machine named '" + machine + "' in the sweep");
        return results[row->second * names.size() + kernel];
    }

    const core::CoreStats &
    stats(const std::string &machine, size_t kernel) const
    {
        return at(machine, kernel).coreStats();
    }

    /** IPC of @p machine over @p base on one kernel. */
    double
    norm(const std::string &machine, const std::string &base,
         size_t kernel) const
    {
        return at(machine, kernel).ipc / at(base, kernel).ipc;
    }

    /** Geomean of norm() over the kernels, as a table prints it. */
    double
    normGeomean(const std::string &machine, const std::string &base) const
    {
        std::vector<double> v;
        for (size_t k = 0; k < names.size(); ++k)
            if (finiteRatio(norm(machine, base, k)))
                v.push_back(norm(machine, base, k));
        return geomean(v);
    }

    /** One table per width under a "--- N-wide @p what ---" heading;
     *  @p row(table, width index, kernel index) fills a row. */
    template <typename Row>
    void
    perWidth(const char *what, const std::vector<std::string> &headers,
             int cell_w, bool geomean_row, Row row) const
    {
        for (size_t w = 0; w < 2; ++w) {
            std::printf("\n--- %u-wide %s ---\n", WIDTHS[w], what);
            kernelTable(names, headers, cell_w, geomean_row,
                        [&](Table &t, size_t k) { row(t, w, k); });
        }
    }
};

/** Tag elimination at detection delay d = 1..4, as suffixes of
 *  wide(w) (d = 1 is the Table 1 value, so it adds no suffix). */
const char *const TE_DELAY[4] = {"/tag-elim", "/tag-elim/detect2",
                                 "/tag-elim/detect3",
                                 "/tag-elim/detect4"};

const char *const BASE_MACHINE = "base machine";
const char *const NORMALIZED = "(normalized IPC)";

void
table2(const Cells &c)
{
    banner("Table 2: benchmarks and base IPC",
           "Kim & Lipasti, ISCA 2003, Table 2");
    std::printf("\n");
    kernelTable(c.names, {"bench", "insts", "IPC 4-wide", "IPC 8-wide"},
                12, false, [&](Table &t, size_t k) {
                    t.text(std::to_string(c.at(wide(0), k).committed))
                        .abs(c.at(wide(0), k).ipc, 2)
                        .abs(c.at(wide(1), k).ipc, 2);
                });
    std::printf("\nPaper (Table 2, SPEC CINT2000): 4-wide IPC "
                "0.71(mcf)..2.02(vortex), 8-wide 0.93..2.95.\n");
}

/** Figures 2 and 3 count the committed stream of the base 4-wide
 *  runs, the same stream every timing run replays. */
void
figures2and3(const Cells &c)
{
    banner("Figure 2: percentage of 2-source-format instructions",
           "Kim & Lipasti, ISCA 2003, Figure 2 (paper: 18-36% "
           "2-source format)");
    kernelTable(c.names, {"bench", "2-src fmt", "stores", "other"}, 12,
                false, [&](Table &t, size_t k) {
                    const auto &st = c.stats(wide(0), k);
                    const uint64_t total = st.committed.value();
                    t.pct(share(st.fmt2srcInsts.value(), total))
                        .pct(share(st.fmtStores.value(), total))
                        .pct(share(st.fmtOther.value(), total));
                });

    banner("Figure 3: breakdown of 2-source-format instructions",
           "Kim & Lipasti, ISCA 2003, Figure 3 (paper: 6-23% of all "
           "instructions are true 2-source)");
    kernelTable(c.names, {"bench", "nops", "<2 unique", "2 unique",
                          "2src/all"},
                12, false, [&](Table &t, size_t k) {
                    const auto &st = c.stats(wide(0), k);
                    const uint64_t fmt2 = st.fmt2srcInsts.value();
                    t.pct(share(st.fmtNops.value(), fmt2))
                        .pct(share(st.fmtOneUnique.value(), fmt2))
                        .pct(share(st.fmtTwoUnique.value(), fmt2))
                        .pct(share(st.fmtTwoUnique.value(),
                                   st.committed.value()));
                });
    std::printf("\n(last column: true 2-source instructions as a "
                "fraction of all dynamic instructions)\n");
}

void
figure4(const Cells &c)
{
    banner("Figure 4: ready operands of 2-source insts at insert",
           "Kim & Lipasti, ISCA 2003, Figure 4 (paper: 4-16% have 0 "
           "ready operands)");
    c.perWidth(BASE_MACHINE, {"bench", "0 ready", "1 ready", "2 ready"},
               12, false, [&](Table &t, size_t w, size_t k) {
                   const auto &d = c.stats(wide(w), k).readyAtInsert;
                   t.pct(d.fraction(0)).pct(d.fraction(1)).pct(
                       d.fraction(2));
               });
}

void
figure6(const Cells &c)
{
    banner("Figure 6: slack between two operand wakeups",
           "Kim & Lipasti, ISCA 2003, Figure 6 (paper: <3% of "
           "instructions wake both operands in the same cycle)");
    c.perWidth(BASE_MACHINE,
               {"bench", "slack 0", "slack 1", "slack 2", "slack 3",
                "slack 4+", "0/all-2src"},
               11, false, [&](Table &t, size_t w, size_t k) {
                   const auto &st = c.stats(wide(w), k);
                   for (unsigned i = 0; i <= 4; ++i)
                       t.pct(st.wakeupSlack.fraction(i));
                   // Simultaneous wakeups as a fraction of all
                   // 2-source instructions (the paper's "<3% of
                   // instructions").
                   t.pct(share(st.wakeupSlack.bucket(0),
                               st.fmtTwoUnique.value()));
               });
}

void
table3(const Cells &c)
{
    banner("Table 3: operand wakeup order and last-arriving operand",
           "Kim & Lipasti, ISCA 2003, Table 3 (paper: ~81-99% same "
           "order; left/right roughly balanced)");
    c.perWidth(BASE_MACHINE,
               {"bench", "same", "diff", "left last", "right last"}, 12,
               false, [&](Table &t, size_t w, size_t k) {
                   const auto &st = c.stats(wide(w), k);
                   uint64_t order =
                       st.orderSame.value() + st.orderDiff.value();
                   uint64_t last =
                       st.leftLast.value() + st.rightLast.value();
                   t.pct(share(st.orderSame.value(), order))
                       .pct(share(st.orderDiff.value(), order))
                       .pct(share(st.leftLast.value(), last))
                       .pct(share(st.rightLast.value(), last));
               });
}

void
figure7(const Cells &c)
{
    banner("Figure 7: last-arriving operand prediction accuracy",
           "Kim & Lipasti, ISCA 2003, Figure 7 (paper: ~85-97% with "
           "a small bimodal table)");
    c.perWidth(BASE_MACHINE,
               {"bench", "128", "512", "1024", "4096", "simultaneous"},
               13, false, [&](Table &t, size_t w, size_t k) {
                   const auto &mon =
                       c.at(wide(w), k).sim->core().lapMonitor();
                   for (unsigned i = 0;
                        i < core::LastArrivalMonitor::NUM_SIZES; ++i)
                       t.pct(mon.accuracy(i));
                   t.pct(share(mon.simultaneous(), mon.samples()));
               });
}

/** Figure 10's register-access categories of 2-source instructions:
 *  back-to-back, both ready at insert, and non-back-to-back. */
std::array<uint64_t, 3>
rfAccesses(const core::CoreStats &st)
{
    return {st.rfBackToBack.value(), st.rfTwoReady.value(),
            st.rfNonBackToBack.value()};
}

void
figure10(const Cells &c)
{
    banner("Figure 10: register accesses of 2-source instructions",
           "Kim & Lipasti, ISCA 2003, Figure 10 (paper: <4% of all "
           "instructions need 2 read ports)");
    c.perWidth(BASE_MACHINE,
               {"bench", "b2b issue", "2 ready", "non-b2b", "2-port/all"},
               12, false, [&](Table &t, size_t w, size_t k) {
                   const auto &st = c.stats(wide(w), k);
                   const auto n = rfAccesses(st);
                   for (uint64_t category : n)
                       t.pct(share(category, n[0] + n[1] + n[2]));
                   t.pct(share(n[1] + n[2], st.committed.value()));
               });
    std::printf("\n(last column: instructions requiring two register "
                "read ports, as a fraction of all commits)\n");
}

void
timingModels()
{
    banner("Circuit timing models",
           "Kim & Lipasti, ISCA 2003, Sections 3.3 and 4 "
           "(466->374 ps; 1.71->1.36 ns)");

    model::WakeupDelayModel wd;
    std::printf("\nWakeup logic delay (ps), 0.18u, 4-wide:\n");
    Table tw({"entries", "conv (2 cmp)", "seq (1 cmp)", "speedup"}, 14);
    for (unsigned n : {16u, 32u, 64u, 128u, 256u})
        tw.begin(std::to_string(n))
            .abs(wd.delayPs(n, 2), 1)
            .abs(wd.delayPs(n, 1), 1)
            .pct(wd.speedup(n, 2, 1))
            .end();
    std::printf("Paper claim (64-entry, 4-wide): 466 ps -> 374 ps "
                "(24.6%% speedup). Model: %.0f -> %.0f (%.1f%%).\n",
                wd.delayPs(64, 2), wd.delayPs(64, 1),
                100 * wd.speedup(64, 2, 1));

    model::RegfileTimingModel rf;
    std::printf("\nRegister file access time (ns), 160 entries, "
                "0.18u:\n");
    Table tr({"ports", "access ns", "rel. area"}, 14);
    for (unsigned p : {8u, 12u, 16u, 20u, 24u, 32u})
        tr.begin(std::to_string(p))
            .abs(rf.accessNs(160, p), 3)
            .abs(rf.area(160, p) / rf.area(160, 16), 3)
            .end();
    std::printf("Paper claim (8-wide, 24 -> 16 ports): 1.71 ns -> "
                "1.36 ns (20.5%% drop). Model: %.2f -> %.2f "
                "(%.1f%%).\n",
                rf.accessNs(160, 24), rf.accessNs(160, 16),
                100 * rf.reduction(160, 24, 16));

    std::printf("\nScaling with window size (sequential-wakeup gain "
                "grows with the window):\n");
    Table ts({"entries", "gain"}, 14);
    for (unsigned n : {32u, 64u, 128u, 256u})
        ts.begin(std::to_string(n)).pct(wd.speedup(n, 2, 1)).end();
}

/** Figures 14-16: base IPC, then three machines (suffixes of
 *  wide(w)) over base; @p normalized[i] puts column i in the geomean
 *  row. */
void
normalizedFigure(const Cells &c, const std::vector<std::string> &headers,
                 const char *const (&machines)[3],
                 const bool (&normalized)[3])
{
    c.perWidth(NORMALIZED, headers, 12, true,
               [&](Table &t, size_t w, size_t k) {
                   t.abs(c.at(wide(w), k).ipc, 3);
                   for (size_t i = 0; i < 3; ++i) {
                       double v = c.norm(wide(w) + machines[i], wide(w), k);
                       normalized[i] ? t.norm(v) : t.abs(v, 4);
                   }
               });
}

void
figures14to16(const Cells &c)
{
    banner("Figure 14: performance of sequential wakeup",
           "Kim & Lipasti, ISCA 2003, Figure 14");
    normalizedFigure(c,
                     {"bench", "base IPC", "seq-wakeup", "tag-elim",
                      "seq-nopred"},
                     {"/seq-wakeup", "/tag-elim", "/seq-wakeup-nopred"},
                     {true, true, true});
    std::printf("\nPaper means: seq-wakeup 0.996/0.994, tag-elim "
                "lower (worst 0.894), seq-nopred 0.984/0.974.\n");

    banner("Figure 15: performance of sequential register access",
           "Kim & Lipasti, ISCA 2003, Figure 15");
    normalizedFigure(c,
                     {"bench", "base IPC", "seq RF", "1 extra stg",
                      "reg+xbar"},
                     {"/seq-rf", "/extra-rf-stage", "/half-ports-xbar"},
                     {true, true, true});
    std::printf("\nPaper means: seq RF 0.989 (4-wide) / 0.993 "
                "(8-wide); crossbar close to 1.0.\n");

    banner("Figure 16: combined sequential wakeup + sequential "
           "register access",
           "Kim & Lipasti, ISCA 2003, Figure 16");
    normalizedFigure(c,
                     {"bench", "base IPC", "combined", "seq-wkup",
                      "seq-RF"},
                     {"/seq-wakeup/seq-rf", "/seq-wakeup", "/seq-rf"},
                     {true, false, false});
    std::printf("\nPaper: 2.2%% mean degradation, worst case 4.8%%; "
                "combined slightly worse than the sum of parts.\n");
}

/** The five ablation tables, in section order. */
void
ablations(const Cells &c)
{
    const std::string base = wide(0);
    banner("Ablation: recovery model vs. wakeup scheme",
           "Kim & Lipasti, ISCA 2003, Section 3.1 (selective "
           "recovery compatibility)");
    auto squash_pct = [&](const char *m, size_t k) {
        const auto &st = c.stats(m, k);
        return share(st.squashedIssues.value(), st.issued.value());
    };
    kernelTable(c.names,
                {"bench", "conv/nsel", "conv/sel", "seqw/sel", "te/nsel",
                 "te-squash%", "sw-squash%"},
                12, true, [&](Table &t, size_t k) {
                    t.abs(1.0, 3)
                        .norm(c.norm("4-wide/selective", base, k))
                        .norm(c.norm("4-wide/seq-wakeup/selective", base,
                                     k))
                        .norm(c.norm("4-wide/tag-elim", base, k))
                        .pct(squash_pct("4-wide/tag-elim", k))
                        .pct(squash_pct("4-wide/seq-wakeup/selective", k));
                });
    std::printf("\n(seqw/sel: sequential wakeup on selective "
                "recovery — the composition tag elimination cannot "
                "offer; squash%%: share of issue slots wasted)\n");

    banner("Ablation: predictor size vs. sequential wakeup IPC",
           "Kim & Lipasti, ISCA 2003, Sections 3.2 and 5.1 "
           "(insensitivity to predictor accuracy)");
    kernelTable(c.names, {"bench", "128", "512", "1024", "4096", "no pred"},
                11, true, [&](Table &t, size_t k) {
                    for (const char *m :
                         {"4-wide/seq-wakeup/lap128",
                          "4-wide/seq-wakeup/lap512", "4-wide/seq-wakeup",
                          "4-wide/seq-wakeup/lap4096",
                          "4-wide/seq-wakeup-nopred"})
                        t.norm(c.norm(m, base, k));
                });

    banner("Ablation: bypass window vs. sequential register access",
           "Kim & Lipasti, ISCA 2003, Section 4.2 (1-cycle bypass "
           "window assumption)");
    kernelTable(c.names,
                {"bench", "w=1 IPC", "w=2 IPC", "w=3 IPC", "seqRA w=1",
                 "seqRA w=3"},
                12, true, [&](Table &t, size_t k) {
                    const char *const window[3] = {
                        "4-wide/seq-rf", "4-wide/seq-rf/bypass2",
                        "4-wide/seq-rf/bypass3"};
                    for (const char *m : window)
                        t.norm(c.norm(m, base, k));
                    for (const char *m : {window[0], window[2]})
                        t.text(std::to_string(
                            c.stats(m, k).seqRegAccesses.value()));
                });
    std::printf("\n(wider windows catch more operands on the bypass, "
                "cutting sequential accesses)\n");

    banner("Ablation: tag-elimination detection delay",
           "Kim & Lipasti, ISCA 2003, Section 5.1 (penalty scaling)");
    c.perWidth(NORMALIZED,
               {"bench", "te d=1", "te d=2", "te d=3", "te d=4",
                "seq-wkup"},
               11, true, [&](Table &t, size_t w, size_t k) {
                   for (const char *te : TE_DELAY)
                       t.norm(c.norm(wide(w) + te, wide(w), k));
                   t.norm(c.norm(wide(w) + "/seq-wakeup", wide(w), k));
               });

    banner("Ablation: half-price register renaming (future work)",
           "Kim & Lipasti, ISCA 2003, Section 6");
    c.perWidth(NORMALIZED,
               {"bench", "half-rename", "all-half", "splits/kinst"}, 13,
               true, [&](Table &t, size_t w, size_t k) {
                   const std::string half = wide(w) + "/half-rename";
                   const auto &st = c.stats(half, k);
                   t.norm(c.norm(half, wide(w), k))
                       .norm(c.norm(wide(w) + "/seq-wakeup/seq-rf/half-rename",
                                    wide(w), k))
                       .abs(1000.0 * double(st.renameStalls.value())
                                / double(st.committed.value()),
                            2);
               });
    std::printf("\n(all-half: sequential wakeup + sequential register "
                "access + half rename ports)\n");
}

/** The post-paper policies of sim::policyZooMachines(), over base. */
void
policyZoo(const Cells &c)
{
    banner("Extension: post-paper policies",
           "no paper figure (dlt wakeup: arXiv 2109.03112; prefetch "
           "register file: arXiv 2502.00147)");
    c.perWidth(NORMALIZED,
               {"bench", "base IPC", "dlt", "prefetch", "dlt+pf",
                "seq+pf"},
               12, true, [&](Table &t, size_t w, size_t k) {
                   t.abs(c.at(wide(w), k).ipc, 3);
                   for (const char *m :
                        {"/dlt-wakeup", "/prefetch-rf",
                         "/dlt-wakeup/prefetch-rf", "/seq-wakeup/prefetch-rf"})
                       t.norm(c.norm(wide(w) + m, wide(w), k));
               });
    std::printf("\n(dlt: load-delay-tracking wakeup; pf: operand-prefetch "
                "RF; seq: sequential wakeup)\n");
}

/**
 * Check each headline claim as a named predicate and print it as PASS
 * or FAIL with its measured value; a failing claim also prints the
 * measurement that breaks it. Failures never change the exit status.
 */
void
claims(const Cells &c)
{
    banner("The paper's claims, checked",
           "Kim & Lipasti, ISCA 2003, Sections 3.3, 4 and 5 "
           "(EXPERIMENTS.md headline table)");
    std::printf("\n");
    size_t held = 0, total = 0;
    auto claim = [&](const std::string &statement,
                     const std::string &measured, bool holds,
                     const std::string &why) {
        ++total;
        held += holds;
        std::printf("%s  %s\n      measured: %s\n",
                    holds ? "PASS" : "FAIL", statement.c_str(),
                    measured.c_str());
        if (!holds)
            std::printf("      why: %s\n", why.c_str());
    };
    // The machines the claims compare, as suffixes of wide(w).
    const char *const seqw = "/seq-wakeup", *const nopred =
        "/seq-wakeup-nopred", *const tagElim = "/tag-elim",
        *const seqrf = "/seq-rf", *const xbar = "/half-ports-xbar",
        *const comb = "/seq-wakeup/seq-rf";
    auto gm = [&](const char *m, size_t w) {
        return c.normGeomean(wide(w) + m, wide(w));
    };
    auto pair = [&](const char *m) {
        return fmt(gm(m, 0), 4) + " / " + fmt(gm(m, 1), 4);
    };
    // The first width at which @p holds is false ("" when none is).
    auto failingWidth = [](auto holds) -> std::string {
        for (size_t w = 0; w < 2; ++w)
            if (!holds(w))
                return wide(w);
        return "";
    };

    for (size_t w = 0; w < 2; ++w)
        claim("sequential wakeup stays within 1% of base, " + wide(w),
              "geomean " + fmt(gm(seqw, w), 4), gm(seqw, w) >= 0.99,
              "the geomean is below 0.99");

    std::string bad = failingWidth(
        [&](size_t w) { return gm(nopred, w) <= gm(seqw, w); });
    claim("sequential wakeup without a predictor is no better than with "
          "one, 4/8-wide",
          pair(nopred) + " vs " + pair(seqw), bad.empty(),
          bad + ": no predictor beats the predictor");

    bad = failingWidth(
        [&](size_t w) { return gm(tagElim, w) <= gm(seqw, w); });
    claim("tag elimination is no better than sequential wakeup, 4/8-wide",
          pair(tagElim) + " vs " + pair(seqw), bad.empty(),
          bad + ": tag elimination beats sequential wakeup");

    claim("tag elimination is worse at 8-wide than at 4-wide", pair(tagElim),
          gm(tagElim, 1) < gm(tagElim, 0),
          "the 8-wide geomean is not below the 4-wide one");

    claim("sequential RF costs more at 4-wide than at 8-wide",
          pair(seqrf), gm(seqrf, 0) < gm(seqrf, 1),
          "the 4-wide geomean is not below the 8-wide one");

    // The paper's worst case (eon) is a code whose 2-source
    // instructions often find both operands ready (Section 5.2).
    auto seq_rf = [&](size_t k) {
        return c.norm(wide(0) + seqrf, wide(0), k);
    };
    auto two_ready = [&](size_t k) {
        const auto n = rfAccesses(c.stats(wide(0), k));
        return share(n[1], n[0] + n[1] + n[2]);
    };
    size_t worst = 0, above = 0;
    for (size_t k = 1; k < c.names.size(); ++k)
        if (seq_rf(k) < seq_rf(worst))
            worst = k;
    for (size_t k = 0; k < c.names.size(); ++k)
        above += two_ready(k) > two_ready(worst);
    claim("sequential RF's 4-wide worst case is a 2-ready-heavy kernel "
          "(Figure 10 top half)",
          c.names[worst] + " " + fmt(seq_rf(worst), 4) + ", 2 ready "
              + percent(two_ready(worst)) + ", rank "
              + std::to_string(above + 1) + " of "
              + std::to_string(c.names.size()),
          2 * above < c.names.size(),
          c.names[worst] + "'s 2-ready share is in the bottom half");

    bad = failingWidth(
        [&](size_t w) { return std::fabs(gm(xbar, w) - 1.0) <= 0.01; });
    claim("half ports + crossbar stay within 1% of base, 4/8-wide",
          pair(xbar), bad.empty(),
          bad + " geomean is more than 1% from base");

    auto combined = [&](size_t w) { return 1.0 - gm(comb, w); };
    auto parts = [&](size_t w) {
        return (1.0 - gm(seqw, w)) + (1.0 - gm(seqrf, w));
    };
    bad = failingWidth([&](size_t w) { return combined(w) <= parts(w); });
    claim("combined costs at most the sum of its parts, 4/8-wide",
          "4-wide loss " + percent(combined(0), 2) + " vs "
              + percent(parts(0), 2) + "; 8-wide loss "
              + percent(combined(1), 2) + " vs " + percent(parts(1), 2),
          bad.empty(),
          bad + ": combined loses more than sequential wakeup and "
                "sequential RF together");

    model::WakeupDelayModel wd;
    claim("the wakeup model gives 466 -> 374 ps (64 entries)",
          fmt(wd.delayPs(64, 2), 1) + " -> " + fmt(wd.delayPs(64, 1), 1)
              + " ps",
          std::fabs(wd.delayPs(64, 2) - 466.0) < 0.5
              && std::fabs(wd.delayPs(64, 1) - 374.0) < 0.5,
          "the model is off its calibration point");

    model::RegfileTimingModel rf;
    claim("the register-file model gives 1.71 -> 1.36 ns (24 -> 16 ports)",
          fmt(rf.accessNs(160, 24), 3) + " -> "
              + fmt(rf.accessNs(160, 16), 3) + " ns",
          std::fabs(rf.accessNs(160, 24) - 1.71) < 0.005
              && std::fabs(rf.accessNs(160, 16) - 1.36) < 0.005,
          "the model is off its calibration point");

    auto te = [&](size_t w, unsigned d) {
        return c.normGeomean(wide(w) + TE_DELAY[d - 1], wide(w));
    };
    std::string measured, why;
    for (size_t w = 0; w < 2; ++w) {
        measured += (w ? "; " : "") + wide(w) + " d=1..4";
        for (unsigned d = 1; d <= 4; ++d) {
            measured += ' ';
            measured += fmt(te(w, d), 4);
            if (why.empty() && d > 1 && te(w, d) >= te(w, d - 1))
                why = wide(w) + ": d=" + std::to_string(d) + " ("
                    + fmt(te(w, d), 4) + ") is not below d="
                    + std::to_string(d - 1) + " (" + fmt(te(w, d - 1), 4)
                    + ")";
        }
    }
    claim("tag elimination's geomean falls as the detection delay grows, "
          "4/8-wide",
          measured, why.empty(), why);

    std::printf("\n%zu of %zu claims hold (EXPERIMENTS.md explains "
                "each failure).\n",
                held, total);
}

const char *const USAGE =
    "usage: hpa_figures [--insts N] [--jobs N]\n"
    "  --insts N  committed instructions per run (default 150000)\n"
    "  --jobs N   sweep worker threads (default 0: one per hardware "
    "thread)\n";

/** Strict decimal value of @p flag in [lo, hi]; exits 2 naming the
 *  flag on anything else. */
uint64_t
numberArg(const std::string &flag, const char *text, uint64_t lo,
          uint64_t hi)
{
    uint64_t v = 0;
    if (!tools::parseNumber(text, v) || v < lo || v > hi) {
        std::fprintf(stderr, "%s needs a %s integer, got '%s'\n",
                     flag.c_str(), lo ? "positive" : "non-negative",
                     text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = 150000;
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help") {
            std::printf("%s", USAGE);
            return 0;
        }
        const bool known = a == "--insts" || a == "--jobs";
        if (!known || i + 1 >= argc) {
            std::fprintf(stderr,
                         known ? "%s needs a value\n%s"
                               : "unknown option: %s\n%s",
                         a.c_str(), USAGE);
            return 2;
        }
        const char *v = argv[++i];
        if (a == "--insts")
            insts = numberArg(a, v, 1, UINT64_MAX);
        else
            jobs = unsigned(numberArg(a, v, 0, UINT_MAX));
    }

    try {
        const Cells c(machineUnion(), insts, jobs);

        std::printf("Kim & Lipasti, \"Half-Price Architecture\", "
                    "ISCA 2003: every table, in paper order\n");
        std::printf("committed-instruction budget per run: %llu\n",
                    static_cast<unsigned long long>(insts));
        std::printf("timing runs: %zu machines x %zu kernels; "
                    "Figures 2-3 count the base 4-wide runs\n",
                    c.rows.size(), c.names.size());

        table2(c);
        figures2and3(c);
        figure4(c);
        figure6(c);
        table3(c);
        figure7(c);
        figure10(c);
        timingModels();
        figures14to16(c);
        ablations(c);
        policyZoo(c);
        claims(c);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hpa_figures: %s\n", e.what());
        return 1;
    }
    return 0;
}
