/**
 * @file
 * Parallel sweep engine. Every table of tools/hpa_figures and both
 * golden IPC gates of tests/test_golden.cc are the same pattern — a
 * loop over (workload, machine, budget) tuples, each an independent
 * Simulation — so the engine runs them as jobs on a
 * fixed thread pool: one isolated Simulation per job, workload
 * programs built once process-wide (thread-safe cache), and results
 * returned in submission order so table printing — and the stats
 * themselves — are identical to a serial run. Cells of one workload
 * share its capture-once committed trace (read-only), never any
 * mutable state.
 */

#ifndef HPA_SIM_SWEEP_HH
#define HPA_SIM_SWEEP_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/simulation.hh"
#include "workloads/workloads.hh"

namespace hpa::sim
{

/** One (workload, machine, budget) simulation request. Historical
 *  name for ExperimentSpec (sim/experiment.hh). */
using SweepJob = ExperimentSpec;

/** A completed sweep job. Historical name for RunResult
 *  (sim/experiment.hh); its finished Simulation keeps the counters,
 *  so callers read IPC, CoreStats, the LAP monitor's counts, …
 *  exactly as they would after a serial run. */
using SweepResult = RunResult;

/**
 * Fixed-size thread pool running sweep jobs. Results are ordered by
 * submission index regardless of completion order, and each job gets
 * a fully isolated Simulation, so `jobs(N)` output is byte-identical
 * to `jobs(1)`.
 */
class SweepRunner
{
  public:
    /**
     * @param jobs worker threads; 0 = one per hardware thread
     * @param cache workload cache to share (default: globalCache())
     */
    explicit SweepRunner(unsigned jobs = 0,
                         workloads::WorkloadCache *cache = nullptr);

    unsigned jobs() const { return jobs_; }

    /**
     * Run all jobs; result[i] corresponds to jobs[i]. Jobs are fault
     * isolated: a job that throws (invariant violation, deadlock,
     * bad workload or machine) is returned as a Failed cell — with
     * the error kind, one-line text and failure context in its
     * RunOutcome — and never disturbs the other cells, whose results
     * stay bit-identical to a fault-free run. A cell runs once: it
     * replays a captured trace deterministically, so a failure would
     * repeat on every attempt. Callers that still want all-or-nothing
     * semantics wrap the result in requireAllOk().
     */
    std::vector<SweepResult> run(std::vector<SweepJob> jobs);

    /**
     * Run one job synchronously on the calling thread. Never throws
     * for per-run failures — they are filed into the returned
     * RunOutcome.
     */
    static SweepResult runOne(const SweepJob &job,
                              workloads::WorkloadCache &cache);

    /**
     * Deterministic parallel loop: fn(0..n-1) each exactly once,
     * claimed dynamically across `jobs` threads (jobs <= 1: inline,
     * in order). The first exception thrown by any fn is rethrown
     * on the caller after all workers join.
     */
    static void parallelFor(size_t n, unsigned jobs,
                            const std::function<void(size_t)> &fn);

    /** Resolve a --jobs style request: 0 means hardware threads. */
    static unsigned resolveJobs(unsigned requested);

    /** Multi-cell replay batches formed by run(): always 0, every
     *  cell runs alone. Kept so existing reporting code compiles. */
    size_t batchesFormed() const { return 0; }
    /** Widest replay batch formed by run(): always 0, as above. */
    size_t lanesMax() const { return 0; }

  private:
    unsigned jobs_;
    workloads::WorkloadCache *cache_;
};

/**
 * All-or-nothing view of a sweep: throws hpa::WorkloadError listing
 * every failed cell (workload, machine, one-line error) when any
 * result is not ok. Callers that cannot use partial results — such as
 * hpa_figures, which cannot print a table with a hole in it — call
 * this right after SweepRunner::run().
 */
void requireAllOk(const std::vector<SweepResult> &results);

/**
 * The machine configurations of the paper's main IPC figures
 * (Table 2 base, Figure 14 wakeup schemes, Figure 15 register
 * files, Figure 16 combined), for both Table 1 widths. Crossed with
 * the twelve workloads this is the canonical "full reproduction
 * sweep" that tools/golden_sweep_ipc.json pins and the determinism
 * tests run, and the first 16 machines of tools/hpa_figures' machine
 * union.
 */
std::vector<Machine> reproductionMachines();

/**
 * The post-paper policy-zoo machines: load-delay-tracking wakeup
 * ("dlt") and the operand-prefetch register file ("prefetch"), alone
 * and combined, for both Table 1 widths: the last eight machines of
 * tools/hpa_figures' machine union (its "Extension: post-paper
 * policies" table), pinned by tools/golden_zoo_ipc.json.
 */
std::vector<Machine> policyZooMachines();

} // namespace hpa::sim

#endif // HPA_SIM_SWEEP_HH
