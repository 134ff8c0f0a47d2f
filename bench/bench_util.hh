/**
 * @file
 * Shared helpers for the experiment harnesses: per-run instruction
 * budgets, sweep jobs and runners, and aligned table printing. Every
 * harness regenerates one of the paper's tables or figures;
 * `HPA_INSTS` bounds the committed instructions per timing run
 * (default 200k) so a full sweep stays laptop-sized.
 */

#ifndef HPA_BENCH_BENCH_UTIL_HH
#define HPA_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace hpa::benchutil
{

/**
 * Committed-instruction budget per timing run (HPA_INSTS env). A
 * malformed value (empty, signed, trailing junk, zero, overflow) is
 * rejected with a warning and the default is used — a silent
 * strtoull() partial parse would quietly run the wrong experiment.
 */
inline uint64_t
instBudget(uint64_t def = 200000)
{
    const char *s = std::getenv("HPA_INSTS");
    if (!s)
        return def;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    bool bad = end == s || *end != '\0' || errno == ERANGE || v == 0
        || std::strchr(s, '-') != nullptr;
    if (bad) {
        std::fprintf(stderr,
                     "warning: ignoring invalid HPA_INSTS='%s' "
                     "(want a positive integer); using %llu\n",
                     s, static_cast<unsigned long long>(def));
        return def;
    }
    return v;
}

/**
 * Worker threads for the harness sweeps (HPA_JOBS env; unset or 0 =
 * one per hardware thread). Sweep results are deterministic at any
 * thread count, so a malformed value only costs a warning and the
 * default.
 */
inline unsigned
sweepJobs()
{
    const char *s = std::getenv("HPA_JOBS");
    if (!s)
        return 0;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    bool bad = end == s || *end != '\0' || errno == ERANGE || v > 1024
        || std::strchr(s, '-') != nullptr;
    if (bad) {
        std::fprintf(stderr,
                     "warning: ignoring invalid HPA_JOBS='%s' "
                     "(want 0..1024); using one per hardware "
                     "thread\n",
                     s);
        return 0;
    }
    return unsigned(v);
}

/** Build one timing-run job (ExperimentSpec) for the sweep engine. */
inline sim::SweepJob
job(const std::string &workload, const sim::Machine &m,
    uint64_t budget)
{
    sim::SweepJob j;
    j.workload = workload;
    j.machine = m;
    j.max_insts = budget;
    j.validate();
    return j;
}

/**
 * Run a batch of jobs on the sweep engine with HPA_JOBS worker
 * threads; result[i] corresponds to jobs[i], independent of which
 * thread ran it, so harnesses consume results in submission order.
 * The figure harnesses cannot plot partial data, so any failed cell
 * aborts the harness (requireAllOk) with every failure listed.
 */
inline std::vector<sim::SweepResult>
runSweep(std::vector<sim::SweepJob> jobs)
{
    auto results = sim::SweepRunner(sweepJobs()).run(std::move(jobs));
    sim::requireAllOk(results);
    return results;
}

/** Print the harness banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==============================================="
                "=====================\n");
}

/** Banner variant reporting the instruction budget actually used. */
inline void
banner(const std::string &what, const std::string &paper_ref,
       uint64_t budget)
{
    banner(what, paper_ref);
    std::printf("committed-instruction budget per run: %llu%s\n",
                static_cast<unsigned long long>(budget),
                std::getenv("HPA_INSTS") ? " (HPA_INSTS)"
                                         : " (default)");
}

/** Print one aligned row: name column then fixed-width cells. */
inline void
row(const std::string &name, const std::vector<std::string> &cells,
    int name_w = 10, int cell_w = 12)
{
    std::printf("%-*s", name_w, name.c_str());
    for (const auto &c : cells)
        std::printf("%*s", cell_w, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(double v, int prec = 3)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

inline std::string
pct(double v, int prec = 1)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", prec, 100.0 * v);
    return buf;
}

/** Geometric mean of a non-empty vector. */
inline double
geomean(const std::vector<double> &v)
{
    double logsum = 0;
    for (double x : v)
        logsum += std::log(x);
    return std::exp(logsum / double(v.size()));
}

/** A ratio fit for norm()/geomean: finite and positive. A zero-IPC
 *  (invalid) run would otherwise put -inf into the geomean's log
 *  sum and poison the whole column. */
inline bool
finiteRatio(double v)
{
    return std::isfinite(v) && v > 0.0;
}

/**
 * Shared experiment-table formatter. Construction prints the header
 * (the first entry labels the row-name column); each data row is a
 * begin()..end() chain of typed cells:
 *
 *   Table t({"bench", "base IPC", "seq-wakeup"});
 *   t.begin(name).abs(base_ipc, 3).norm(r.ipc / base_ipc).end();
 *   t.geomeanRow();
 *
 * norm() cells are remembered per column so geomeanRow() can close
 * the table with the geometric mean of every normalized column
 * (other columns stay blank) — the bookkeeping every figure harness
 * used to hand-roll.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers, int name_w = 10,
                   int cell_w = 12)
        : name_w_(name_w), cell_w_(cell_w),
          samples_(headers.empty() ? 0 : headers.size() - 1)
    {
        std::vector<std::string> cells(
            headers.begin() + (headers.empty() ? 0 : 1),
            headers.end());
        row(headers.empty() ? "" : headers.front(), cells, name_w_,
            cell_w_);
    }

    /** Start a data row. */
    Table &
    begin(const std::string &name)
    {
        std::printf("%-*s", name_w_, name.c_str());
        col_ = 0;
        return *this;
    }

    /** Free-form text cell. */
    Table &
    text(const std::string &s)
    {
        std::printf("%*s", cell_w_, s.c_str());
        ++col_;
        return *this;
    }

    /** Absolute numeric cell (not part of the geomean). */
    Table &
    abs(double v, int prec = 3)
    {
        return text(fmt(v, prec));
    }

    /** Integer cell (not part of the geomean). */
    Table &
    count(uint64_t v)
    {
        return text(std::to_string(v));
    }

    /** Percentage cell (not part of the geomean). */
    Table &
    pct(double v, int prec = 1)
    {
        return text(benchutil::pct(v, prec));
    }

    /** Normalized cell, accumulated for geomeanRow(). A non-finite
     *  or non-positive ratio (zero-IPC baseline or failed run)
     *  prints "n/a" and stays out of the geomean instead of
     *  poisoning it with NaN/Inf. */
    Table &
    norm(double v, int prec = 4)
    {
        if (!finiteRatio(v))
            return text("n/a");
        if (col_ < samples_.size())
            samples_[col_].push_back(v);
        return abs(v, prec);
    }

    /** Finish the row. */
    void end() { std::printf("\n"); }

    /** Geomean row over every norm() column (others blank). */
    void
    geomeanRow(const std::string &label = "geomean", int prec = 4)
    {
        begin(label);
        for (const auto &col : samples_) {
            // Walk columns in order so blanks keep alignment.
            if (col.empty())
                text("");
            else
                abs(geomean(col), prec);
        }
        end();
    }

  private:
    int name_w_;
    int cell_w_;
    size_t col_ = 0;
    std::vector<std::vector<double>> samples_;
};

} // namespace hpa::benchutil

#endif // HPA_BENCH_BENCH_UTIL_HH
