/**
 * @file
 * Host-throughput benchmark of the full reproduction sweep: run
 * every (paper machine x benchmark) pair once serially and once on
 * the thread pool, verify the two produce identical IPC (the sweep
 * engine's determinism contract), and emit BENCH_sweep.json
 * ("hpa.bench-sweep.v4") with per-run status, IPC, wall time,
 * simulated-cycles/sec and the run's registry policy names
 * (sched_policy / rf_policy) plus the measured serial-to-parallel
 * speedup.
 *
 *   hpa_bench_sweep [--insts N] [--jobs N] [--out FILE]
 *                   [--zoo | --sched-policy P | --rf-policy P]
 *                   [--check GOLDEN] [--write-golden FILE]
 *                   [--inject KIND@INDEX]
 *                   [--store DIR [--resume] [--workers N]
 *                    [--lease-timeout SEC] [--max-attempts N]
 *                    [--dump-journal N]]
 *
 * The machine axis defaults to the paper's reproduction grid.
 * --zoo swaps in sim::policyZooMachines() (the post-paper policies:
 * dlt wakeup, prefetch register file); --sched-policy/--rf-policy
 * build a custom two-machine grid (both Table 1 widths) from the
 * string policy registry — unknown names exit 2 listing it.
 *
 * --store DIR switches to the crash-resilient execution layer
 * (sim/job_store.hh, sim/shard.hh): every completed cell is framed
 * and fsync'd into an append-only journal as it finishes, so a
 * SIGKILL/OOM mid-sweep costs at most the in-flight cells. A
 * non-empty store refuses to run without --resume (which replays the
 * journal, dedupes finished cells and executes only the remainder).
 * --workers N forks N worker processes that claim cells via
 * heartbeat-renewed lease files; the parent reclaims expired leases
 * (a worker died mid-cell) and respawns workers if a whole round
 * dies. SIGINT/SIGTERM drain gracefully: in-flight cells are
 * journaled and leases released before exit (status 128+signal).
 * On full completion the journal is compacted and the merged
 * artifact/golden check is emitted from the store — bit-identical to
 * an uninterrupted run. --dump-journal N prints record N as its
 * "hpa.sweep-journal.v1" JSON payload (schema-gate hook).
 *
 * --check compares the sweep's IPC values against a golden JSON map
 * ("hpa.sweep-golden.v1", tools/golden_sweep_ipc.json in the repo)
 * and fails with a per-cell diff on any drift — the cheap regression
 * gate run by tools/run_full_sweep.sh.
 *
 * Failed cells are fault-isolated: they appear in the JSON with
 * status/error_kind/error, are excluded from the determinism and
 * golden comparisons, and turn the exit status non-zero — the
 * artifact with every surviving cell is still written. --inject
 * (test only; KIND = poison | invariant | hang | flaky, plus the
 * process-level crash | stall-heartbeat which require --store)
 * plants a fault in one job so these paths can be exercised end to
 * end.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/policy_registry.hh"
#include "sim/job_store.hh"
#include "sim/shard.hh"
#include "sim/sweep.hh"
#include "stats/json.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

std::atomic<bool> g_stop{false};
volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
    g_stop.store(true);
}

void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

/** Key of one run in the golden map. */
std::string
runKey(const sim::SweepJob &job)
{
    return job.machine.name + "|" + job.workload;
}

/** Strict decimal parse; exits with a clear message on garbage. */
uint64_t
parseU64(const std::string &opt, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0') {
        std::cerr << opt << " needs a non-negative integer, got '"
                  << text << "'\n";
        std::exit(2);
    }
    return v;
}

double
parseDouble(const std::string &opt, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0'
        || !(v > 0.0)) {
        std::cerr << opt << " needs a positive number, got '" << text
                  << "'\n";
        std::exit(2);
    }
    return v;
}

/**
 * Minimal parser for the golden file: extracts every `"key": number`
 * pair (string-valued fields like "schema" are skipped naturally).
 * The golden format is flat, so no general JSON machinery is needed.
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
        size_t colon = text.find(':', end);
        if (colon == std::string::npos)
            break;
        size_t vstart = text.find_first_not_of(" \t\n", colon + 1);
        if (vstart == std::string::npos)
            break;
        char *vend = nullptr;
        double v = std::strtod(text.c_str() + vstart, &vend);
        if (vend != text.c_str() + vstart)
            kv[key] = v;
        pos = end + 1;
    }
    return kv;
}

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One per-run line of the merged artifact — buildable from a live
 *  SweepResult or a journal StoredRun, so the dual-pass and
 *  store-backed paths share the emission/golden-check code. */
struct Row
{
    std::string machine;
    std::string sched_policy;
    std::string rf_policy;
    std::string workload;
    std::string status;
    bool valid = false;
    bool steady_missing = false;
    unsigned attempts = 1;
    uint64_t backoff_ms = 0;
    double ipc = 0.0;
    uint64_t committed = 0;
    uint64_t cycles = 0;
    double wall_seconds = 0.0;
    std::string error_kind;
    std::string error;

    bool ok() const { return status == "ok"; }
    double
    cyclesPerSec() const
    {
        return wall_seconds > 0 ? double(cycles) / wall_seconds : 0.0;
    }
};

Row
rowFromSpec(const sim::SweepJob &job)
{
    Row row;
    row.machine = job.machine.name;
    row.sched_policy =
        core::schedPolicyFor(job.machine.cfg.wakeup).name;
    row.rf_policy = core::rfPolicyFor(job.machine.cfg.regfile).name;
    row.workload = job.workload;
    return row;
}

Row
rowFromResult(const sim::SweepJob &job, const sim::SweepResult &r)
{
    Row row = rowFromSpec(job);
    row.status = sim::statusName(r.outcome.status);
    row.valid = r.valid();
    row.steady_missing = r.outcome.steadyMissing;
    row.attempts = r.outcome.attempts;
    row.backoff_ms = r.outcome.backoffMs;
    row.ipc = r.ipc;
    row.committed = r.committed;
    row.cycles = r.cycles;
    row.wall_seconds = r.wallSeconds;
    if (!r.outcome.ok()) {
        row.error_kind = kindName(r.outcome.errorKind);
        row.error = r.outcome.error;
    }
    return row;
}

Row
rowFromStored(const sim::SweepJob &job, const sim::StoredRun &s)
{
    Row row = rowFromSpec(job);
    row.status = s.status;
    row.valid = s.valid;
    row.steady_missing = s.steadyMissing;
    row.attempts = s.attempts;
    row.backoff_ms = s.backoffMs;
    row.ipc = s.ipc;
    row.committed = s.committed;
    row.cycles = s.cycles;
    row.wall_seconds = s.wallSeconds;
    row.error_kind = s.errorKind;
    row.error = s.error;
    return row;
}

/** Everything the v4 artifact header needs besides the rows. */
struct ArtifactMeta
{
    uint64_t insts = 0;
    bool trace_cache = true;
    unsigned hw = 1;
    unsigned requested_jobs = 0;
    bool jobs_clamped = false;
    unsigned par_jobs = 1;
    double t_serial = 0.0;
    double t_parallel = 0.0;
    // Store-mode extras (emitted only when store is non-empty).
    std::string store;
    uint64_t resumed_runs = 0;
    uint64_t executed_runs = 0;
    uint64_t workers = 0;
    uint64_t journal_dropped_bytes = 0;
    uint64_t journal_dropped_records = 0;
};

bool
emitArtifact(const std::string &out, const std::vector<Row> &rows,
             const ArtifactMeta &m)
{
    std::ofstream os(out);
    if (!os) {
        std::cerr << "cannot write " << out << "\n";
        return false;
    }
    size_t failed = 0;
    uint64_t total_cycles = 0;
    for (const Row &r : rows) {
        if (!r.ok())
            ++failed;
        total_cycles += r.cycles;
    }
    double speedup =
        m.t_parallel > 0 ? m.t_serial / m.t_parallel : 0.0;
    double efficiency =
        speedup / double(std::min<unsigned>(m.par_jobs, m.hw));

    stats::json::JsonWriter jw(os);
    jw.beginObject()
        .kv("schema", "hpa.bench-sweep.v4")
        .kv("insts_per_run", m.insts)
        .kv("trace_cache", m.trace_cache)
        .kv("hardware_threads", m.hw)
        .kv("requested_jobs", uint64_t(m.requested_jobs))
        .kv("jobs_clamped", m.jobs_clamped)
        .kv("parallel_jobs", m.par_jobs)
        .kv("serial_wall_seconds", m.t_serial, 3)
        .kv("parallel_wall_seconds", m.t_parallel, 3)
        .kv("speedup", speedup, 3)
        .kv("scaling_efficiency", efficiency, 3)
        .kv("total_simulated_cycles", total_cycles)
        .kv("aggregate_cycles_per_sec",
            m.t_parallel > 0 ? double(total_cycles) / m.t_parallel
                             : 0.0,
            0)
        .kv("ok_runs", uint64_t(rows.size() - failed))
        .kv("failed_runs", uint64_t(failed));
    if (!m.store.empty()) {
        jw.kv("store", m.store)
            .kv("resumed_runs", m.resumed_runs)
            .kv("executed_runs", m.executed_runs)
            .kv("workers", m.workers)
            .kv("journal_dropped_bytes", m.journal_dropped_bytes)
            .kv("journal_dropped_records", m.journal_dropped_records);
    }
    jw.key("runs").beginArray();
    for (const Row &r : rows) {
        jw.beginObject()
            .kv("machine", r.machine)
            .kv("sched_policy", r.sched_policy)
            .kv("rf_policy", r.rf_policy)
            .kv("workload", r.workload)
            .kv("status", r.status)
            .kv("valid", r.valid)
            .kv("steady_missing", r.steady_missing)
            .kv("attempts", r.attempts)
            .kv("backoff_ms", r.backoff_ms)
            .kv("ipc", r.ipc, 6)
            .kv("committed", r.committed)
            .kv("cycles", r.cycles)
            .kv("wall_seconds", r.wall_seconds, 4)
            .kv("cycles_per_sec", r.cyclesPerSec(), 0);
        if (!r.ok()) {
            jw.kv("error_kind", r.error_kind).kv("error", r.error);
        }
        jw.endObject();
    }
    jw.endArray().endObject();
    std::printf("wrote %s\n", out.c_str());
    return true;
}

bool
writeGoldenFile(const std::string &path, const std::vector<Row> &rows,
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
    for (const Row &r : rows)
        if (r.ok())
            jw.kv(r.machine + "|" + r.workload, r.ipc, 6);
    jw.endObject();
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** @return 0 ok, 1 drift/unreadable. */
int
goldenCheck(const std::string &check, const std::vector<Row> &rows,
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

    size_t drift = 0, checked = 0;
    for (const Row &r : rows) {
        // Failed cells carry no IPC to compare; they are reported
        // (and fail the gate) via the failure list.
        if (!r.ok())
            continue;
        auto it = golden.find(r.machine + "|" + r.workload);
        if (it == golden.end())
            continue;
        ++checked;
        // Golden stores 6 decimals; allow the rounding slack.
        if (std::fabs(r.ipc - it->second) > 5e-7) {
            std::fprintf(stderr,
                         "IPC DRIFT machine=%s workload=%s "
                         "expected=%.6f got=%.6f\n",
                         r.machine.c_str(), r.workload.c_str(),
                         it->second, r.ipc);
            ++drift;
        }
    }
    if (checked == 0) {
        std::fprintf(stderr, "golden %s matched no runs\n",
                     check.c_str());
        return 1;
    }
    if (drift) {
        std::fprintf(stderr, "%zu of %zu runs drifted from golden\n",
                     drift, checked);
        return 1;
    }
    std::printf("golden check: %zu runs match %s\n", checked,
                check.c_str());
    return 0;
}

/** Report failed rows on stderr. @return their count. */
size_t
reportFailures(const std::vector<Row> &rows, const std::string &out)
{
    size_t failed = 0;
    for (const Row &r : rows)
        if (!r.ok())
            ++failed;
    if (failed) {
        std::fprintf(stderr,
                     "\n%zu of %zu runs failed (artifact %s still "
                     "carries every surviving cell):\n",
                     failed, rows.size(), out.c_str());
        for (const Row &r : rows)
            if (!r.ok())
                std::fprintf(stderr, "  %s @ %s: %s\n",
                             r.workload.c_str(), r.machine.c_str(),
                             r.error.c_str());
    }
    return failed;
}

/** Pre-build every workload (and, with the trace cache, its
 *  committed trace) touched by @p jobs so the timed/sharded phase
 *  pays no assembly or one-time emulation. */
void
prebuildWorkloads(const std::vector<sim::SweepJob> &jobs,
                  bool trace_cache, uint64_t insts)
{
    std::vector<std::string> names;
    for (const auto &j : jobs)
        if (std::find(names.begin(), names.end(), j.workload)
            == names.end())
            names.push_back(j.workload);
    for (const auto &n : names) {
        const workloads::Workload &w = workloads::globalCache().get(n);
        if (trace_cache) {
            uint64_t ff = 0;
            auto it = w.program.symbols.find("steady");
            if (it != w.program.symbols.end())
                ff = it->second;
            workloads::globalCache().trace(
                n, workloads::Scale::Full, insts, ff);
        }
    }
}

/** All the store-mode knobs, resolved from the CLI. */
struct StoreOptions
{
    std::string dir;
    bool resume = false;
    unsigned workers = 0;
    double lease_timeout = 30.0;
    unsigned max_attempts = 3;
    /** Worker-respawn rounds before the coordinator gives up. */
    unsigned max_rounds = 5;
};

/** Exit status honouring a drain-on-signal interruption. */
int
interruptedExit(const sim::JobStore &store)
{
    std::fprintf(stderr,
                 "interrupted: %zu cells journaled in %s; rerun with "
                 "--resume to finish\n",
                 store.completed(), store.dir().c_str());
    return 128 + int(g_signal);
}

int
runWorkerChild(const StoreOptions &so, const std::string &worker_id,
               const std::vector<sim::SweepJob> &sweep)
{
    try {
        sim::JobStore store(so.dir, worker_id);
        sim::ShardOptions opts;
        opts.lease.timeout_seconds = so.lease_timeout;
        opts.lease.max_attempts = so.max_attempts;
        opts.stop = &g_stop;
        sim::ShardWorker worker(store, sweep, opts);
        sim::ShardSummary sum = worker.run();
        std::printf("[%s] executed %zu, resumed %zu, discarded %zu, "
                    "permanent failures %zu%s\n",
                    worker_id.c_str(), sum.executed, sum.resumed,
                    sum.discarded, sum.failed_permanent,
                    sum.stopped ? " (stopped)" : "");
        return sum.stopped ? 128 + int(g_signal) : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[%s] fatal: %s\n", worker_id.c_str(),
                     e.what());
        return 1;
    }
}

/**
 * Store-backed execution: single journaled pass (no --workers) or a
 * forked worker fleet with lease recovery. Emits the merged artifact
 * and golden check from the journal. @return process exit status.
 */
int
runStoreMode(const StoreOptions &so,
             const std::vector<sim::SweepJob> &sweep,
             const ArtifactMeta &meta_in, const std::string &out,
             const std::string &check, const std::string &write_golden)
{
    ArtifactMeta meta = meta_in;
    meta.store = so.dir;
    meta.workers = so.workers;
    installSignalHandlers();

    std::vector<std::string> keys;
    keys.reserve(sweep.size());
    for (const auto &j : sweep)
        keys.push_back(sim::JobStore::specKey(j));

    // Resume gate + torn-tail recovery report, in a scoped reader so
    // no journal FILE handle is ever held across fork().
    size_t already = 0;
    {
        sim::JobStore reader(so.dir, "coord");
        if (reader.droppedBytes() > 0)
            std::fprintf(stderr,
                         "journal recovery: dropped %zu bytes "
                         "(%zu torn/corrupt record(s)) from %s\n",
                         reader.droppedBytes(),
                         reader.droppedRecords(), so.dir.c_str());
        for (const auto &k : keys)
            if (reader.find(k))
                ++already;
        if (reader.loadedRecords() > 0 && !so.resume) {
            std::fprintf(stderr,
                         "store %s already holds %zu journaled "
                         "record(s); pass --resume to continue this "
                         "sweep or point --store at a fresh "
                         "directory\n",
                         so.dir.c_str(), reader.loadedRecords());
            return 2;
        }
    }
    meta.resumed_runs = already;
    std::printf("store %s: %zu of %zu cells already journaled\n",
                so.dir.c_str(), already, sweep.size());

    // Only the remainder needs workloads/traces built.
    if (already < sweep.size()) {
        std::vector<sim::SweepJob> missing;
        {
            sim::JobStore reader(so.dir, "coord");
            for (size_t i = 0; i < sweep.size(); ++i)
                if (!reader.find(keys[i]))
                    missing.push_back(sweep[i]);
        }
        prebuildWorkloads(missing, meta.trace_cache, meta.insts);
    }

    double t_run = 0.0;
    if (so.workers == 0) {
        // Single-process journaled pass.
        sim::JobStore store(so.dir, "w0");
        sim::ShardSummary sum;
        t_run = wallSeconds([&] {
            sum = sim::runWithStore(store, sweep, meta.par_jobs,
                                    &g_stop);
        });
        meta.executed_runs = sum.executed;
        std::printf("journaled pass: executed %zu, resumed %zu "
                    "(%.2f s, %u workers)\n",
                    sum.executed, sum.resumed, t_run, meta.par_jobs);
        if (sum.stopped)
            return interruptedExit(store);
    } else {
        // Forked worker fleet with a reclaiming coordinator.
        sim::LeaseOptions lo;
        lo.timeout_seconds = so.lease_timeout;
        lo.max_attempts = so.max_attempts;
        sim::LeaseManager coordinator(so.dir, "coord", lo);

        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned round = 1; round <= so.max_rounds; ++round) {
            std::vector<pid_t> pids;
            for (unsigned w = 0; w < so.workers; ++w) {
                std::string wid = "w";
                wid += std::to_string(w);
                // Children inherit the stdio buffers; flush so they
                // don't replay the parent's pending output.
                std::fflush(nullptr);
                pid_t pid = fork();
                if (pid < 0) {
                    std::perror("fork");
                    break;
                }
                if (pid == 0) {
                    // Child: own JobStore, own shard file — never
                    // constructed before fork, so no FILE buffer is
                    // shared with the parent.
                    int rc = runWorkerChild(so, wid, sweep);
                    std::fflush(nullptr);
                    _exit(rc);
                }
                pids.push_back(pid);
            }
            if (pids.empty())
                return 1;
            std::printf("round %u: %zu worker process(es), lease "
                        "timeout %.1f s\n",
                        round, pids.size(), so.lease_timeout);

            size_t alive = pids.size();
            size_t crashed = 0;
            bool forwarded = false;
            while (alive > 0) {
                if (g_stop.load() && !forwarded) {
                    for (pid_t pid : pids)
                        kill(pid, SIGTERM);
                    forwarded = true;
                }
                int status = 0;
                pid_t done = waitpid(-1, &status, WNOHANG);
                if (done > 0) {
                    --alive;
                    if (WIFSIGNALED(status)) {
                        ++crashed;
                        std::fprintf(
                            stderr,
                            "worker %d died on signal %d — its "
                            "leased cell will be reclaimed\n",
                            int(done), WTERMSIG(status));
                    }
                    continue;
                }
                // While waiting, reclaim leases whose heartbeat
                // stopped (dead worker) so peers can take over.
                coordinator.reclaimExpired();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }

            size_t completed = 0;
            {
                sim::JobStore reader(so.dir, "coord");
                for (const auto &k : keys)
                    if (reader.find(k))
                        ++completed;
            }
            if (completed >= sweep.size() || g_stop.load())
                break;
            std::fprintf(stderr,
                         "round %u ended with %zu/%zu cells durable "
                         "(%zu worker crash(es)); respawning\n",
                         round, completed, sweep.size(), crashed);
        }
        t_run = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    }
    meta.t_parallel = t_run;

    // Merge phase: one authoritative reader over every shard.
    sim::JobStore store(so.dir, "coord");
    if (g_stop.load())
        return interruptedExit(store);
    meta.journal_dropped_bytes = store.droppedBytes();
    meta.journal_dropped_records = store.droppedRecords();
    if (so.workers > 0) {
        size_t executed = 0;
        for (const auto &rec : store.records())
            if (rec.worker != "coord")
                ++executed;
        meta.executed_runs =
            executed >= already ? executed - already : 0;
    }

    std::vector<Row> rows;
    rows.reserve(sweep.size());
    size_t missing = 0;
    for (size_t i = 0; i < sweep.size(); ++i) {
        const sim::StoredRun *rec = store.find(keys[i]);
        if (!rec) {
            std::fprintf(stderr, "no journal record for cell %zu "
                         "(%s @ %s)\n",
                         i, sweep[i].workload.c_str(),
                         sweep[i].machine.name.c_str());
            ++missing;
            Row row = rowFromSpec(sweep[i]);
            row.status = "failed";
            row.error_kind = "crash";
            row.error = "no durable result (workers exhausted)";
            rows.push_back(row);
            continue;
        }
        rows.push_back(rowFromStored(sweep[i], *rec));
    }

    if (!emitArtifact(out, rows, meta))
        return 1;
    int rc = 0;
    if (!write_golden.empty()
        && !writeGoldenFile(write_golden, rows, meta.insts))
        rc = 1;
    if (!check.empty() && goldenCheck(check, rows, meta.insts) != 0)
        rc = 1;
    if (reportFailures(rows, out) > 0 || missing > 0)
        rc = 1;

    if (rc == 0 && missing == 0) {
        const size_t dropped = store.compact();
        std::printf("sweep complete: journal compacted (%zu "
                    "superseded record(s) dropped)\n",
                    dropped);
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = 50000;
    unsigned jobs = 0;
    bool trace_cache = true;
    std::string out = "BENCH_sweep.json";
    std::string check;
    std::string write_golden;
    bool zoo = false;
    std::string sched_policy;
    std::string rf_policy;
    std::vector<std::pair<sim::FaultKind, size_t>> injections;
    StoreOptions store_opts;
    bool dump_journal = false;
    uint64_t dump_index = 0;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << argv[i] << " needs a value\n";
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--insts")
            insts = parseU64(a, need(i));
        else if (a == "--jobs")
            jobs = unsigned(parseU64(a, need(i)));
        else if (a == "--batch" || a == "--sched-engine") {
            std::cerr << a << " was removed: results never depended "
                         "on it (every cell runs alone on the one "
                         "scheduler)\n";
            return 2;
        } else if (a == "--trace-cache") {
            std::string v = need(i);
            if (v != "on" && v != "off") {
                std::cerr << "--trace-cache expects on | off\n";
                return 2;
            }
            trace_cache = (v == "on");
        } else if (a == "--out")
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
        else if (a == "--store")
            store_opts.dir = need(i);
        else if (a == "--resume")
            store_opts.resume = true;
        else if (a == "--workers")
            store_opts.workers = unsigned(parseU64(a, need(i)));
        else if (a == "--lease-timeout")
            store_opts.lease_timeout = parseDouble(a, need(i));
        else if (a == "--max-attempts")
            store_opts.max_attempts = unsigned(parseU64(a, need(i)));
        else if (a == "--dump-journal") {
            dump_journal = true;
            dump_index = parseU64(a, need(i));
        } else if (a == "--inject") {
            std::string v = need(i);
            size_t at = v.find('@');
            std::string kind = v.substr(0, at);
            sim::FaultKind f;
            if (kind == "poison")
                f = sim::FaultKind::PoisonWorkload;
            else if (kind == "invariant")
                f = sim::FaultKind::InvariantTrip;
            else if (kind == "hang")
                f = sim::FaultKind::BlockCommit;
            else if (kind == "flaky")
                f = sim::FaultKind::FlakyOnce;
            else if (kind == "crash")
                f = sim::FaultKind::CrashProcess;
            else if (kind == "stall-heartbeat")
                f = sim::FaultKind::StallHeartbeat;
            else {
                std::cerr << "--inject expects poison|invariant|hang"
                             "|flaky|crash|stall-heartbeat@INDEX\n";
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
                         "[--trace-cache on|off] "
                         "[--zoo | --sched-policy P | "
                         "--rf-policy P] "
                         "[--out FILE] [--check GOLDEN] "
                         "[--write-golden FILE] "
                         "[--inject KIND@INDEX] "
                         "[--store DIR [--resume] [--workers N] "
                         "[--lease-timeout SEC] [--max-attempts N] "
                         "[--dump-journal N]]\n";
            return 2;
        }
    }

    const bool store_mode = !store_opts.dir.empty();
    if (!store_mode
        && (store_opts.resume || store_opts.workers > 0
            || dump_journal)) {
        std::cerr << "--resume/--workers/--dump-journal require "
                     "--store DIR\n";
        return 2;
    }
    for (auto [fault, idx] : injections) {
        if ((fault == sim::FaultKind::CrashProcess
             || fault == sim::FaultKind::StallHeartbeat)
            && !store_mode) {
            std::cerr << "--inject crash/stall-heartbeat are "
                         "process-level faults; they need --store "
                         "DIR (and stall-heartbeat also --workers)\n";
            return 2;
        }
    }

    if (dump_journal) {
        // Schema-gate hook: print record N as its standalone
        // hpa.sweep-journal.v1 JSON payload and exit.
        try {
            sim::JobStore store(store_opts.dir, "dump");
            if (dump_index >= store.records().size()) {
                std::fprintf(stderr,
                             "--dump-journal %llu out of range: "
                             "store holds %zu record(s)\n",
                             static_cast<unsigned long long>(
                                 dump_index),
                             store.records().size());
                return 1;
            }
            std::printf("%s\n",
                        sim::JobStore::recordJson(
                            store.records()[size_t(dump_index)])
                            .c_str());
            return 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
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
            j.trace_cache = trace_cache;
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

    unsigned hw = sim::SweepRunner::resolveJobs(0);
    unsigned requested_jobs = jobs;
    unsigned par_jobs = sim::SweepRunner::resolveJobs(jobs);
    bool jobs_clamped = false;
    if (par_jobs > hw) {
        // Oversubscribing a throughput benchmark only adds context
        // switches; the runs would still be deterministic, but the
        // timing numbers would not mean what the artifact claims.
        std::fprintf(stderr,
                     "warning: --jobs %u exceeds the %u hardware "
                     "thread(s); clamping the parallel pass to %u\n",
                     requested_jobs, hw, hw);
        par_jobs = hw;
        jobs_clamped = true;
    }
    std::printf("%zu runs (%zu machines x %zu benchmarks), "
                "%llu insts per run, %u hardware thread(s), "
                "trace cache %s\n",
                sweep.size(), machines.size(), names.size(),
                static_cast<unsigned long long>(insts), hw,
                trace_cache ? "on" : "off");

    ArtifactMeta meta;
    meta.insts = insts;
    meta.trace_cache = trace_cache;
    meta.hw = hw;
    meta.requested_jobs = requested_jobs;
    meta.jobs_clamped = jobs_clamped;
    meta.par_jobs = par_jobs;

    if (store_mode)
        return runStoreMode(store_opts, sweep, meta, out, check,
                            write_golden);

    // Pre-build every workload so neither timed pass pays assembly;
    // with the trace cache on, also pre-capture each committed trace
    // so the one-time emulation cost stays out of both timed passes.
    prebuildWorkloads(sweep, trace_cache, insts);

    std::printf("serial pass (1 worker)...\n");
    sim::SweepRunner serial_runner(1);
    std::vector<sim::SweepResult> serial;
    double t_serial =
        wallSeconds([&] { serial = serial_runner.run(sweep); });

    std::printf("parallel pass (%u workers)...\n", par_jobs);
    sim::SweepRunner parallel_runner(par_jobs);
    std::vector<sim::SweepResult> parallel;
    double t_parallel =
        wallSeconds([&] { parallel = parallel_runner.run(sweep); });

    // Determinism contract: parallel results bit-identical to serial
    // — including which cells failed and why (error kinds are
    // deterministic; only the wall-clock fields may differ).
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

    std::vector<Row> rows;
    rows.reserve(parallel.size());
    for (size_t i = 0; i < sweep.size(); ++i)
        rows.push_back(rowFromResult(sweep[i], parallel[i]));

    meta.t_serial = t_serial;
    meta.t_parallel = t_parallel;

    double speedup = t_parallel > 0 ? t_serial / t_parallel : 0.0;
    double efficiency =
        speedup / double(std::min<unsigned>(par_jobs, hw));
    std::printf("serial %.2f s, parallel %.2f s at %u workers: "
                "speedup %.2fx (%.0f%% of linear up to %u cores)\n",
                t_serial, t_parallel, par_jobs, speedup,
                100.0 * efficiency, std::min(par_jobs, hw));

    if (!emitArtifact(out, rows, meta))
        return 1;
    if (!write_golden.empty()
        && !writeGoldenFile(write_golden, rows, insts))
        return 1;
    if (!check.empty() && goldenCheck(check, rows, insts) != 0)
        return 1;
    if (reportFailures(rows, out) > 0)
        return 1;
    return 0;
}
