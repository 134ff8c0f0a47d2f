/**
 * @file
 * The repository benchmark program. One process runs one workload:
 *
 *  - paper_sweep: the 16 reproduction machines x 12 kernels x 50k
 *    committed instructions on one SweepRunner thread, traces
 *    captured in set-up; each pass ends by serializing every
 *    RunResult with its stats.
 *  - long_single: 12 kernels x 1M instructions, each on one machine
 *    drawn by the seed. Every cell gets a fresh WorkloadCache, so
 *    assembly, trace capture and replay are all inside the pass.
 *  - paper_sweep_mt: paper_sweep's cells on one thread per CPU.
 *
 * The simulator is driven only through its public entry points, and
 * each layer is timed from outside, around the benchmark's own calls:
 * workloads (WorkloadCache::get), func (WorkloadCache::trace), sim
 * (SweepRunner::run), core (Simulation construction and the per-cell
 * RunResult::wallSeconds), stats (RunResult::toJson).
 *
 * Usage:
 *   hpa_perfbench --workload W --seed N --seconds S --trace 0|1
 *                 [--root DIR] [--out DIR] [--insts N]
 *                 [--long-insts N] [--machines N]
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics (derived from in-memory spans,
 * written to --out at exit) with --trace 1. Exit status: 0 when
 * every check passed, 1 when one failed, 2 on a usage error.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User plus system CPU seconds of this process, all threads. */
double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(u.ru_utime) + sec(u.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Shortest round-trip text of a double; non-finite becomes null. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** splitmix64: the seed's only random source, identical on every
 *  platform (std::shuffle's algorithm is not). */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// --------------------------------------------------------------------
// Options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Checkout root: the golden IPC file is read from here. */
    std::string root = ".";
    /** Directory for the cells/spans files; empty writes none. */
    std::string out;
    /** Committed instructions per sweep cell (the golden's budget). */
    uint64_t insts = 50000;
    /** Committed instructions per long_single cell. */
    uint64_t longInsts = 1000000;
    /** Reproduction machines used, evenly spaced; 0 = all. */
    size_t machines = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hpa_perfbench: " << why << "\n"
              << "usage: hpa_perfbench --workload "
                 "paper_sweep|long_single|paper_sweep_mt --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--out DIR] "
                 "[--insts N] [--long-insts N] [--machines N]\n";
    std::exit(2);
}

uint64_t
parseCount(const std::string &opt, const std::string &text)
{
    uint64_t v = 0;
    auto res = std::from_chars(text.data(), text.data() + text.size(), v);
    if (res.ec != std::errc() || res.ptr != text.data() + text.size())
        usage(opt + " needs a whole number, got '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(a + " needs a value");
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseCount(a, v);
        else if (a == "--seconds")
            o.seconds = double(parseCount(a, v));
        else if (a == "--trace")
            o.trace = parseCount(a, v) != 0;
        else if (a == "--root")
            o.root = v;
        else if (a == "--out")
            o.out = v;
        else if (a == "--insts")
            o.insts = parseCount(a, v);
        else if (a == "--long-insts")
            o.longInsts = parseCount(a, v);
        else if (a == "--machines")
            o.machines = parseCount(a, v);
        else
            usage("unknown option " + a);
    }
    if (o.workload != "paper_sweep" && o.workload != "long_single"
        && o.workload != "paper_sweep_mt")
        usage("unknown workload '" + o.workload + "'");
    if (o.insts == 0 || o.longInsts == 0)
        usage("instruction budgets must be positive");
    return o;
}

// --------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        /** Seconds since the tracer started; NaN for a child record
         *  whose position inside its parent was not observed. */
        double start = 0.0;
        double dur = 0.0;
        int parent = -1;
        std::vector<std::pair<std::string, double>> attrs;

        double
        attr(const std::string &k) const
        {
            for (const auto &[name, v] : attrs)
                if (name == k)
                    return v;
            return 0.0;
        }
    };

    /** Spans are recorded only while enabled. */
    bool enabled = false;

    int
    open(const char *name)
    {
        if (!enabled)
            return -1;
        spans_.push_back({name, secondsSince(epoch_), 0.0,
                          stack_.empty() ? -1 : stack_.back(), {}});
        stack_.push_back(int(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        Span &s = spans_[size_t(id)];
        s.dur = secondsSince(epoch_) - s.start;
        stack_.pop_back();
    }

    void
    attr(int id, const char *key, double v)
    {
        if (id >= 0)
            spans_[size_t(id)].attrs.emplace_back(key, v);
    }

    /** A finished child of the innermost open span, known only by
     *  its duration (e.g. RunResult::wallSeconds). */
    void
    record(const char *name, double dur,
           std::vector<std::pair<std::string, double>> attrs)
    {
        if (!enabled)
            return;
        spans_.push_back({name, std::nan(""), dur,
                          stack_.empty() ? -1 : stack_.back(),
                          std::move(attrs)});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Index of the root span each span descends from. */
    std::vector<int>
    roots() const
    {
        std::vector<int> r(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i) {
            int p = spans_[i].parent;
            r[i] = p < 0 ? int(i) : r[size_t(p)];
        }
        return r;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"schema\": \"hpa.perfbench-spans.v1\", \"spans\": [";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
               << ", \"name\": \"" << s.name << "\", \"parent\": "
               << s.parent << ", \"start_s\": " << num(s.start)
               << ", \"dur_s\": " << num(s.dur);
            for (const auto &[k, v] : s.attrs)
                os << ", \"" << k << "\": " << num(v);
            os << "}";
        }
        os << "\n]}\n";
    }

  private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opened on construction, closed on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void attr(const char *key, double v) { t_.attr(id_, key, v); }

  private:
    Tracer &t_;
    int id_;
};

// --------------------------------------------------------------------
// Cells and their exact simulated counts

struct Cell
{
    size_t machine;
    size_t kernel;
};

/** Every simulated count the benchmark checks and reports. */
struct CellCounts
{
    bool ok = false;
    double ipc = 0.0;
    uint64_t cycles = 0;
    uint64_t committed = 0;
    uint64_t issued = 0;
    uint64_t squashedIssues = 0;
    uint64_t loadMissReplays = 0;
    uint64_t tagElimMisissues = 0;
    uint64_t seqWakeupDelayed = 0;
    uint64_t seqRegAccesses = 0;
    uint64_t il1Misses = 0;
    uint64_t dl1Misses = 0;
    uint64_t l2Misses = 0;
    uint64_t mispredicts = 0;

    bool operator==(const CellCounts &) const = default;
};

CellCounts
countsOf(sim::RunResult &r)
{
    CellCounts c;
    if (!r.valid() || !r.sim)
        return c;
    core::Core &core = r.sim->core();
    const core::CoreStats &s = core.stats();
    mem::Hierarchy &h = core.hierarchy();
    bpred::BranchPredictor &bp = core.branchPredictor();
    c.ok = true;
    c.ipc = r.ipc;
    c.cycles = r.cycles;
    c.committed = r.committed;
    c.issued = s.issued.value();
    c.squashedIssues = s.squashedIssues.value();
    c.loadMissReplays = s.loadMissReplays.value();
    c.tagElimMisissues = s.tagElimMisissues.value();
    c.seqWakeupDelayed = s.seqWakeupDelayed.value();
    c.seqRegAccesses = s.seqRegAccesses.value();
    c.il1Misses = h.il1().misses.value();
    c.dl1Misses = h.dl1().misses.value();
    c.l2Misses = h.l2().misses.value();
    c.mispredicts = bp.dirMispredicts.value()
        + bp.targetMispredicts.value();
    return c;
}

/** One timed (or reference) pass over a workload's cells. */
struct Pass
{
    bool traced = false;
    double wall = 0.0;
    double cpu = 0.0;
    /** Indexed like the workload's canonical cell list. */
    std::vector<CellCounts> cells;
};

/** FNV-1a over (cycles, committed) of every cell, canonical order. */
uint64_t
digest(const std::vector<CellCounts> &cells)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const CellCounts &c : cells) {
        mix(c.cycles);
        mix(c.committed);
    }
    return h;
}

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(std::max(1, CPU_COUNT(&set)));
    return sim::SweepRunner::resolveJobs(0);
}

// --------------------------------------------------------------------
// The benchmark

/** Metric name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

class Bench
{
  public:
    explicit Bench(const Options &o) : opt_(o)
    {
        const auto all = sim::reproductionMachines();
        size_t n = o.machines == 0 ? all.size()
                                   : std::min(o.machines, all.size());
        for (size_t i = 0; i < n; ++i)
            machines_.push_back(all[i * all.size() / n]);
        kernels_ = workloads::benchmarkNames();
        longSingle_ = o.workload == "long_single";
        threads_ = o.workload == "paper_sweep_mt" ? cpuCount() : 1;
        budget_ = longSingle_ ? o.longInsts : o.insts;

        uint64_t rng = o.seed;
        if (longSingle_) {
            // Kernel k runs on a machine of width group k mod
            // #groups, drawn within the group: the seed picks the
            // machines, but every draw keeps the same mix of widths,
            // so the pass cost stays comparable across seeds.
            std::map<unsigned, std::vector<size_t>> byWidth;
            for (size_t m = 0; m < machines_.size(); ++m)
                byWidth[machines_[m].cfg.width].push_back(m);
            std::vector<std::vector<size_t>> groups;
            for (auto &[w, ms] : byWidth)
                groups.push_back(ms);
            for (size_t k = 0; k < kernels_.size(); ++k) {
                const auto &g = groups[k % groups.size()];
                cells_.push_back({g[nextRandom(rng) % g.size()], k});
            }
        } else {
            for (size_t m = 0; m < machines_.size(); ++m)
                for (size_t k = 0; k < kernels_.size(); ++k)
                    cells_.push_back({m, k});
        }
        // The seed permutes submission order (Fisher-Yates).
        order_.resize(cells_.size());
        for (size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        for (size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[nextRandom(rng) % i]);
    }

    /** Run the whole benchmark; @return the process exit status. */
    int run();

  private:
    const func::CommittedTrace &prepare(workloads::WorkloadCache &c,
                                        size_t kernel);
    double setup();
    void probeConstruct(const func::CommittedTrace &trace,
                        size_t machine);
    sim::SweepJob job(const Cell &cell) const;
    std::vector<sim::RunResult>
    runCells(workloads::WorkloadCache &cache, unsigned threads,
             const std::vector<sim::SweepJob> &jobs,
             const std::vector<size_t> &index);
    Pass sweepPass(unsigned threads, bool traced);
    Pass longPass(bool traced);
    Pass pass(unsigned threads, bool traced);

    size_t checkGolden(const Pass &ref);
    Metrics endToEnd(const std::vector<Pass> &timed,
                     const std::vector<double> &setups,
                     uint64_t cycles) const;
    Metrics perLayer(const std::vector<Pass> &timed,
                     const Pass &ref) const;
    void writeCells(const Pass &ref) const;

    const Options &opt_;
    Tracer tracer_;
    std::vector<sim::Machine> machines_;
    std::vector<std::string> kernels_;
    /** Canonical order: machine-major for the sweeps. */
    std::vector<Cell> cells_;
    /** Submission order, a seeded permutation of cells_. */
    std::vector<size_t> order_;
    bool longSingle_ = false;
    unsigned threads_ = 1;
    uint64_t budget_ = 0;
    /** The sweeps' traces, from the last set-up. */
    std::unique_ptr<workloads::WorkloadCache> cache_;
};

/** Assemble and capture one kernel's trace, each in its own span. */
const func::CommittedTrace &
Bench::prepare(workloads::WorkloadCache &c, size_t kernel)
{
    const std::string &name = kernels_[kernel];
    uint64_t ff = 0;
    {
        Scope s(tracer_, "workloads.get");
        const workloads::Workload &w = c.get(name);
        auto it = w.program.symbols.find("steady");
        if (it != w.program.symbols.end())
            ff = it->second;
    }
    Scope s(tracer_, "func.capture");
    const func::CommittedTrace &t =
        c.trace(name, workloads::Scale::Full, budget_, ff);
    s.attr("ff_insts", double(t.fastForwarded()));
    s.attr("insts", double(t.size()));
    s.attr("bytes", double(t.memoryBytes()));
    return t;
}

/** Time one Simulation(trace, cfg) construction from outside. */
void
Bench::probeConstruct(const func::CommittedTrace &trace, size_t machine)
{
    std::unique_ptr<sim::Simulation> s;
    Scope span(tracer_, "core.construct");
    s = std::make_unique<sim::Simulation>(trace,
                                          machines_[machine].cfg);
}

/**
 * Assembly plus trace capture of every trace the workload replays,
 * into fresh caches. @return its wall seconds (the construction
 * probe of a traced set-up is not counted).
 */
double
Bench::setup()
{
    Scope root(tracer_, "setup");
    double wall = 0.0;
    if (longSingle_) {
        for (const Cell &cell : cells_) {
            workloads::WorkloadCache c;
            auto t0 = Clock::now();
            const func::CommittedTrace &t = prepare(c, cell.kernel);
            wall += secondsSince(t0);
            if (tracer_.enabled)
                probeConstruct(t, cell.machine);
        }
        return wall;
    }
    auto cache = std::make_unique<workloads::WorkloadCache>();
    std::vector<const func::CommittedTrace *> traces;
    auto t0 = Clock::now();
    for (size_t k = 0; k < kernels_.size(); ++k)
        traces.push_back(&prepare(*cache, k));
    wall = secondsSince(t0);
    if (tracer_.enabled)
        for (const Cell &cell : cells_)
            probeConstruct(*traces[cell.kernel], cell.machine);
    cache_ = std::move(cache);
    return wall;
}

sim::SweepJob
Bench::job(const Cell &cell) const
{
    sim::SweepJob j;
    j.workload = kernels_[cell.kernel];
    j.machine = machines_[cell.machine];
    j.max_insts = budget_;
    j.validate();
    return j;
}

/** One SweepRunner::run over @p jobs (cells_[index[i]] each), then
 *  the serialization of every result. */
std::vector<sim::RunResult>
Bench::runCells(workloads::WorkloadCache &cache, unsigned threads,
                const std::vector<sim::SweepJob> &jobs,
                const std::vector<size_t> &index)
{
    std::vector<sim::RunResult> results;
    {
        Scope s(tracer_, "sim.sweep");
        sim::SweepRunner runner(threads, &cache);
        results = runner.run(jobs);
        s.attr("threads", double(threads));
        s.attr("batches", double(runner.batchesFormed()));
        s.attr("lanes_max", double(runner.lanesMax()));
        for (size_t i = 0; i < results.size(); ++i) {
            const Cell &cell = cells_[index[i]];
            tracer_.record(
                "core.run", results[i].wallSeconds,
                {{"kernel", double(cell.kernel)},
                 {"width", double(machines_[cell.machine].cfg.width)},
                 {"cycles", double(results[i].cycles)}});
        }
    }
    {
        Scope s(tracer_, "stats.emit");
        std::ostringstream sink;
        for (const sim::RunResult &r : results)
            if (r.sim)
                r.toJson(sink, true);
    }
    return results;
}

/** All cells in one SweepRunner::run over the set-up's traces. The
 *  pass ends when every result is serialized; freeing the results
 *  is not timed. */
Pass
Bench::sweepPass(unsigned threads, bool traced)
{
    std::vector<sim::SweepJob> jobs;
    for (size_t i : order_)
        jobs.push_back(job(cells_[i]));
    Pass p;
    p.cells.resize(cells_.size());
    tracer_.enabled = traced;
    std::vector<sim::RunResult> results;
    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    {
        Scope root(tracer_, "pass");
        results = runCells(*cache_, threads, jobs, order_);
    }
    p.wall = secondsSince(t0);
    p.cpu = cpuSeconds() - cpu0;
    for (size_t i = 0; i < results.size(); ++i)
        p.cells[order_[i]] = countsOf(results[i]);
    return p;
}

/** Each cell alone, as a user running one configuration would:
 *  a fresh cache, assembly, capture, one-job run, serialization. */
Pass
Bench::longPass(bool traced)
{
    Pass p;
    p.cells.resize(cells_.size());
    tracer_.enabled = traced;
    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    {
        Scope root(tracer_, "pass");
        for (size_t i : order_) {
            workloads::WorkloadCache cache;
            prepare(cache, cells_[i].kernel);
            p.cells[i] =
                countsOf(runCells(cache, 1, {job(cells_[i])}, {i})[0]);
        }
    }
    p.wall = secondsSince(t0);
    p.cpu = cpuSeconds() - cpu0;
    return p;
}

Pass
Bench::pass(unsigned threads, bool traced)
{
    Pass p = longSingle_ ? longPass(traced) : sweepPass(threads, traced);
    p.traced = traced;
    tracer_.enabled = false;
    return p;
}

/** Golden IPC gate: every cell's "%.6f" IPC equals the golden file's
 *  text for it. @return cells that failed (0 when not comparable). */
size_t
Bench::checkGolden(const Pass &ref)
{
    const std::string path = opt_.root + "/tools/golden_sweep_ipc.json";
    std::ifstream in(path);
    if (!in) {
        std::cout << "golden: cannot read " << path << "\n";
        return cells_.size();
    }
    std::stringstream text;
    text << in.rdbuf();
    // Flat "key": value pairs; keep each value's text.
    std::map<std::string, std::string> golden;
    const std::string s = text.str();
    for (size_t pos = 0; (pos = s.find('"', pos)) != std::string::npos;) {
        size_t end = s.find('"', pos + 1);
        size_t colon = end == std::string::npos ? end : s.find(':', end);
        if (colon == std::string::npos)
            break;
        size_t v0 = s.find_first_not_of(" \t\n", colon + 1);
        size_t v1 = s.find_first_of(",}\n", v0);
        if (v0 != std::string::npos && s[v0] != '"')
            golden[s.substr(pos + 1, end - pos - 1)] =
                s.substr(v0, v1 - v0);
        pos = v1 == std::string::npos ? v1 : v1 + 1;
    }
    if (golden["insts_per_run"] != std::to_string(opt_.insts)
        || machines_.size() != sim::reproductionMachines().size()) {
        std::cout << "golden: not comparable (recorded at "
                  << golden["insts_per_run"] << " insts on all machines)\n";
        return 0;
    }
    size_t bad = 0;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const std::string key = machines_[cells_[i].machine].name + "|"
            + kernels_[cells_[i].kernel];
        char got[32];
        std::snprintf(got, sizeof(got), "%.6f", ref.cells[i].ipc);
        auto it = golden.find(key);
        if (it == golden.end() || it->second != got) {
            std::cout << "golden: MISMATCH " << key << " expected "
                      << (it == golden.end() ? "(none)" : it->second)
                      << " got " << got << "\n";
            ++bad;
        }
    }
    std::cout << "golden: " << cells_.size() - bad << "/"
              << cells_.size() << " IPCs match " << path << "\n";
    return bad;
}

Metrics
Bench::endToEnd(const std::vector<Pass> &timed,
                const std::vector<double> &setups, uint64_t cycles) const
{
    std::vector<double> wall, cpu;
    for (const Pass &p : timed) {
        wall.push_back(p.wall);
        cpu.push_back(p.cpu);
    }
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const double wall_s = median(wall);
    return {
        {"wall_s", {wall_s, "s"}},
        {"ns_per_sim_cycle", {wall_s * 1e9 / double(cycles), "ns"}},
        {"setup_s", {median(setups), "s"}},
        {"cpu_s", {median(cpu), "s"}},
        {"peak_rss_mb", {double(u.ru_maxrss) / 1024.0, "MiB"}},
    };
}

Metrics
Bench::perLayer(const std::vector<Pass> &timed, const Pass &ref) const
{
    const auto &spans = tracer_.spans();
    const std::vector<int> root = tracer_.roots();
    // Per root span (one set-up or one traced pass): sums by name.
    struct Sums
    {
        std::map<std::string, double> dur;
        double ffInsts = 0, insts = 0, bytes = 0, batches = 0,
               lanesMax = 0;
        std::map<std::string, std::pair<double, double>> cellTime;
    };
    std::map<int, Sums> sums;
    std::vector<double> construct;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        if (s.parent < 0)
            continue;
        Sums &r = sums[root[i]];
        r.dur[s.name] += s.dur;
        if (s.name == "func.capture") {
            r.ffInsts += s.attr("ff_insts");
            r.insts += s.attr("insts");
            r.bytes += s.attr("bytes");
        } else if (s.name == "sim.sweep") {
            r.batches += s.attr("batches");
            r.lanesMax = std::max(r.lanesMax, s.attr("lanes_max"));
        } else if (s.name == "core.construct") {
            construct.push_back(s.dur);
        } else if (s.name == "core.run") {
            const double cyc = s.attr("cycles");
            for (std::string key :
                 {"w" + std::to_string(int(s.attr("width"))),
                  kernels_[size_t(s.attr("kernel"))]}) {
                r.cellTime[key].first += s.dur;
                r.cellTime[key].second += cyc;
            }
        }
    }
    // Median over the roots of one kind of a per-root quantity.
    auto over = [&](const char *kind, auto fn) {
        std::vector<double> v;
        for (const auto &[id, r] : sums)
            if (spans[size_t(id)].name == kind)
                v.push_back(fn(r));
        return median(v);
    };
    auto durMs = [](const Sums &r, const char *name) {
        auto it = r.dur.find(name);
        return it == r.dur.end() ? 0.0 : it->second * 1e3;
    };

    Metrics m;
    m["workloads.assemble_ms"] = {
        over("setup", [&](const Sums &r) {
            return durMs(r, "workloads.get");
        }),
        "ms"};
    m["func.capture_ms"] = {
        over("setup", [&](const Sums &r) {
            return durMs(r, "func.capture");
        }),
        "ms"};
    m["func.capture_ns_per_inst"] = {
        over("setup", [&](const Sums &r) {
            return durMs(r, "func.capture") * 1e6
                / (r.ffInsts + r.insts);
        }),
        "ns"};
    m["func.ff_insts"] = {
        over("setup", [](const Sums &r) { return r.ffInsts; }), "count"};
    m["func.trace_mb"] = {
        over("setup", [](const Sums &r) { return r.bytes / 1048576.0; }),
        "MiB"};
    m["core.construct_us"] = {median(construct) * 1e6, "us"};

    m["sim.sweep_ms"] = {
        over("pass", [&](const Sums &r) { return durMs(r, "sim.sweep"); }),
        "ms"};
    m["sim.overhead_frac"] = {
        over("pass", [&](const Sums &r) {
            return 1.0 - durMs(r, "core.run")
                / (double(threads_) * durMs(r, "sim.sweep"));
        }),
        "frac"};
    m["sim.batches_formed"] = {
        over("pass", [](const Sums &r) { return r.batches; }), "count"};
    m["sim.lanes_max"] = {
        over("pass", [](const Sums &r) { return r.lanesMax; }), "count"};
    m["core.run_ms"] = {
        over("pass", [&](const Sums &r) { return durMs(r, "core.run"); }),
        "ms"};
    std::vector<std::string> groups = {"w4", "w8"};
    groups.insert(groups.end(), kernels_.begin(), kernels_.end());
    for (const std::string &g : groups) {
        m["core.ns_per_cycle." + g] = {
            over("pass", [&](const Sums &r) {
                auto it = r.cellTime.find(g);
                return it == r.cellTime.end()
                    ? std::nan("")
                    : it->second.first * 1e9 / it->second.second;
            }),
            "ns"};
    }
    m["stats.emit_ms"] = {
        over("pass", [&](const Sums &r) { return durMs(r, "stats.emit"); }),
        "ms"};

    // Exact simulated counts, from the reference pass.
    CellCounts t;
    double logIpc = 0.0;
    for (const CellCounts &c : ref.cells) {
        t.cycles += c.cycles;
        t.committed += c.committed;
        t.issued += c.issued;
        t.squashedIssues += c.squashedIssues;
        t.loadMissReplays += c.loadMissReplays;
        t.tagElimMisissues += c.tagElimMisissues;
        t.seqWakeupDelayed += c.seqWakeupDelayed;
        t.seqRegAccesses += c.seqRegAccesses;
        t.il1Misses += c.il1Misses;
        t.dl1Misses += c.dl1Misses;
        t.l2Misses += c.l2Misses;
        t.mispredicts += c.mispredicts;
        logIpc += std::log(c.ipc);
    }
    const double kinst = double(t.committed) / 1000.0;
    m["core.sim_cycles"] = {double(t.cycles), "count"};
    m["core.committed"] = {double(t.committed), "count"};
    m["core.ipc_geomean"] = {
        std::exp(logIpc / double(ref.cells.size())), "IPC"};
    m["core.issued_per_committed"] = {
        double(t.issued) / double(t.committed), "ratio"};
    const std::pair<const char *, uint64_t> perKinst[] = {
        {"core.squashed_issues_per_kinst", t.squashedIssues},
        {"core.load_miss_replays_per_kinst", t.loadMissReplays},
        {"core.tagelim_misissues_per_kinst", t.tagElimMisissues},
        {"core.seq_wakeup_delayed_per_kinst", t.seqWakeupDelayed},
        {"core.seq_reg_accesses_per_kinst", t.seqRegAccesses},
        {"mem.il1_misses_per_kinst", t.il1Misses},
        {"mem.dl1_misses_per_kinst", t.dl1Misses},
        {"mem.l2_misses_per_kinst", t.l2Misses},
        {"bpred.mispredicts_per_kinst", t.mispredicts},
    };
    for (const auto &[name, v] : perKinst)
        m[name] = {double(v) / kinst, "1/kinst"};

    std::vector<double> traced, plain;
    for (const Pass &p : timed)
        (p.traced ? traced : plain).push_back(p.wall);
    m["bench.trace_overhead_ms"] = {
        (median(traced) - median(plain)) * 1e3, "ms"};
    return m;
}

void
Bench::writeCells(const Pass &ref) const
{
    std::ofstream os(opt_.out + "/" + opt_.workload + "-seed"
                     + std::to_string(opt_.seed) + ".cells.tsv");
    os << "machine\tkernel\tcycles\tcommitted\tipc\n";
    for (size_t i = 0; i < cells_.size(); ++i) {
        char ipc[32];
        std::snprintf(ipc, sizeof(ipc), "%.6f", ref.cells[i].ipc);
        os << machines_[cells_[i].machine].name << "\t"
           << kernels_[cells_[i].kernel] << "\t" << ref.cells[i].cycles
           << "\t" << ref.cells[i].committed << "\t" << ipc << "\n";
    }
}

int
Bench::run()
{
    std::cout << "perfbench " << opt_.workload << " seed " << opt_.seed
              << ": " << cells_.size() << " cells x " << budget_
              << " insts, " << threads_ << " thread(s)"
              << (opt_.trace ? ", traced" : "") << "\n";

    // Set-up: repeated on fresh caches, the median is setup_s. The
    // sweeps keep the last set-up's traces for their passes.
    const int setupReps = longSingle_ ? 3 : 15;
    std::vector<double> setups;
    for (int i = 0; i < setupReps; ++i) {
        tracer_.enabled = opt_.trace;
        setups.push_back(setup());
        tracer_.enabled = false;
    }

    // Every pass run, in order; the first is the reference every
    // later pass must reproduce exactly. The sweeps' reference is an
    // untimed serial pass, which also faults in the traces and the
    // allocator's pools. long_single pays its set-up in every pass,
    // so its first timed pass is the reference.
    std::vector<Pass> passes;
    if (!longSingle_)
        passes.push_back(pass(1, false));
    if (threads_ > 1) {
        // Hand the serial pass's freed memory back, so the peak RSS
        // is the threaded passes' own, not the sum of the main and
        // per-thread allocator pools.
        malloc_trim(0);
        passes.push_back(pass(threads_, false)); // first-touch faults
    }

    std::vector<Pass> timed;
    auto start = Clock::now();
    size_t plain = 0, traced = 0;
    const size_t minEach = opt_.trace ? 2 : 3;
    // No pass starts that would end past --seconds, once each kind
    // has its minimum count.
    while (plain < minEach || traced < (opt_.trace ? minEach : 0)
           || secondsSince(start) + timed.back().wall < opt_.seconds) {
        // A traced run alternates untraced and traced passes, so the
        // difference of their medians is the tracing overhead.
        bool t = opt_.trace && plain > traced;
        timed.push_back(pass(threads_, t));
        (t ? traced : plain) += 1;
    }
    passes.insert(passes.end(), timed.begin(), timed.end());
    const Pass &ref = passes.front();

    // Checks. Each failing cell of each pass counts once.
    size_t attempted = 0, failed = 0, mismatches = 0;
    for (const Pass &p : passes) {
        attempted += p.cells.size();
        for (size_t i = 0; i < p.cells.size(); ++i) {
            failed += p.cells[i].ok ? 0 : 1;
            mismatches += p.cells[i] == ref.cells[i] ? 0 : 1;
        }
    }
    failed += mismatches;
    std::cout << "determinism: " << passes.size() - 1
              << " passes vs the reference pass, " << mismatches
              << " cell mismatches\n";
    if (longSingle_) {
        for (size_t i = 0; i < cells_.size(); ++i)
            if (ref.cells[i].committed != budget_) {
                std::cout << "budget: " << kernels_[cells_[i].kernel]
                          << " committed " << ref.cells[i].committed
                          << " of " << budget_ << "\n";
                ++failed;
            }
    } else {
        failed += checkGolden(ref);
    }

    uint64_t cycles = 0;
    for (const CellCounts &c : ref.cells)
        cycles += c.cycles;
    char dig[32];
    std::snprintf(dig, sizeof(dig), "%016llx",
                  static_cast<unsigned long long>(digest(ref.cells)));
    std::cout << "digest: " << dig << " over (cycles, committed) of "
              << cells_.size() << " cells, " << cycles
              << " simulated cycles\n";

    std::vector<double> walls;
    for (const Pass &p : timed)
        if (!p.traced)
            walls.push_back(p.wall);
    std::cout << "untraced pass walls (s):";
    for (double w : walls)
        std::cout << " " << num(w);

    std::cout << "\nfailed_frac: " << num(double(failed) / double(attempted))
              << " (" << failed << " of " << attempted << ")\n";

    Metrics m;
    if (opt_.trace) {
        m = perLayer(timed, ref);
        std::cout << "tracing overhead: "
                  << num(m["bench.trace_overhead_ms"].first) << " ms\n";
    } else {
        m = endToEnd(timed, setups, cycles);
    }

    if (!opt_.out.empty()) {
        std::filesystem::create_directories(opt_.out);
        writeCells(ref);
        if (opt_.trace)
            tracer_.write(opt_.out + "/" + opt_.workload + "-seed"
                          + std::to_string(opt_.seed) + ".spans.json");
    }

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : m) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << num(vu.first)
                  << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    try {
        Bench bench(opt);
        return bench.run();
    } catch (const std::exception &e) {
        std::cerr << "hpa_perfbench: " << e.what() << "\n";
        return 1;
    }
}
