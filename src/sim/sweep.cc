#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
// hpa-nolint(HPA007): host wall-time measurement for throughput reporting; never simulated state
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace hpa::sim
{

SweepRunner::SweepRunner(unsigned jobs,
                         workloads::WorkloadCache *cache)
    : jobs_(resolveJobs(jobs)),
      cache_(cache ? cache : &workloads::globalCache())
{}

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace
{

/**
 * Run one job: build (or fetch) the workload, construct a fresh
 * Simulation, run, and record metrics into @p r. Throws on any
 * failure; runOne owns isolation.
 */
void
runCell(const SweepJob &job, workloads::WorkloadCache &cache,
        SweepResult &r)
{
    const workloads::Workload &w =
        cache.get(job.workload, workloads::Scale::Full);

    uint64_t ff = 0;
    if (job.fast_forward) {
        auto it = w.program.symbols.find("steady");
        if (it != w.program.symbols.end())
            ff = it->second;
        else
            r.outcome.steadyMissing = true;
    }

    // Trace-once/replay-many: the first cell of a (workload, budget,
    // fast-forward) group captures the committed stream; every other
    // cell — across machines, threads and repeat sweeps — replays
    // the shared immutable buffer.
    const func::CommittedTrace &trace =
        cache.trace(job.workload, workloads::Scale::Full, job.max_insts,
                    ff);
    r.sim = std::make_unique<Simulation>(trace, job.machine.cfg);

    // hpa-nolint(HPA007): wall-time around the run; reported, never fed back
    auto t0 = std::chrono::steady_clock::now();
    r.sim->run(job.max_cycles);
    // hpa-nolint(HPA007): wall-time around the run; reported, never fed back
    auto t1 = std::chrono::steady_clock::now();
    // hpa-nolint(HPA007): wall-time around the run; reported, never fed back
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.ipc = r.sim->ipc();
    r.committed = r.sim->core().stats().committed.value();
    r.cycles = r.sim->core().cycle();
    r.fastForwarded = r.sim->fastForwarded();
}

} // namespace

SweepResult
SweepRunner::runOne(const SweepJob &job,
                    workloads::WorkloadCache &cache)
{
    SweepResult r;
    r.spec = job;
    try {
        runCell(job, cache, r);
    } catch (const std::exception &e) {
        // Discard the partial run so a failed cell carries no
        // half-simulated state, only its spec and outcome.
        r.sim.reset();
        r.ipc = 0.0;
        r.committed = r.cycles = r.fastForwarded = 0;
        r.wallSeconds = 0.0;

        RunOutcome &o = r.outcome;
        o.status = RunStatus::Failed;
        if (const auto *se = dynamic_cast<const SimError *>(&e)) {
            o.errorKind = se->kind();
            o.error = se->oneLine();
            o.context = se->context();
        } else {
            o.errorKind = ErrorKind::Workload;
            o.error = e.what();
        }
        // The core knows cycles, not names; file them in here.
        o.context.machine = job.machine.name;
        o.context.workload = job.workload;
    }
    return r;
}

void
requireAllOk(const std::vector<SweepResult> &results)
{
    std::string detail;
    size_t failed = 0;
    for (const SweepResult &r : results) {
        if (r.outcome.ok())
            continue;
        ++failed;
        detail += "\n  " + r.spec.workload + " @ "
            + r.spec.machine.name + ": " + r.outcome.error;
    }
    if (failed) {
        throw WorkloadError(std::to_string(failed) + " of "
                            + std::to_string(results.size())
                            + " sweep cells failed:" + detail);
    }
}

void
SweepRunner::parallelFor(size_t n, unsigned jobs,
                         const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    unsigned workers =
        unsigned(std::min<size_t>(resolveJobs(jobs), n));
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;

    auto work = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(work);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<SweepResult>
SweepRunner::run(std::vector<SweepJob> jobs)
{
    std::vector<SweepResult> results(jobs.size());
    workloads::WorkloadCache &cache = *cache_;
    // Every cell writes only its own result slot, so scheduling
    // never affects results.
    parallelFor(jobs.size(), jobs_, [&](size_t i) {
        results[i] = runOne(jobs[i], cache);
    });
    return results;
}

std::vector<Machine>
reproductionMachines()
{
    using core::RegfileModel;
    using core::WakeupModel;
    std::vector<Machine> ms;
    for (unsigned width : {4u, 8u}) {
        ms.push_back(Machine::base(width));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::Sequential));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::TagElimination));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::SequentialNoPred));
        ms.push_back(Machine::base(width)
                         .regfile(RegfileModel::SequentialAccess));
        ms.push_back(Machine::base(width)
                         .regfile(RegfileModel::ExtraStage));
        ms.push_back(Machine::base(width)
                         .regfile(RegfileModel::HalfPortCrossbar));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::Sequential)
                         .regfile(RegfileModel::SequentialAccess));
    }
    return ms;
}

std::vector<Machine>
policyZooMachines()
{
    // The post-paper policy points: each new policy alone, the two
    // combined, and one cross with a paper scheme.
    using core::RegfileModel;
    using core::WakeupModel;
    std::vector<Machine> ms;
    for (unsigned width : {4u, 8u}) {
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::LoadDelayTracking));
        ms.push_back(Machine::base(width)
                         .regfile(RegfileModel::PrefetchBuffer));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::LoadDelayTracking)
                         .regfile(RegfileModel::PrefetchBuffer));
        ms.push_back(Machine::base(width)
                         .wakeup(WakeupModel::Sequential)
                         .regfile(RegfileModel::PrefetchBuffer));
    }
    return ms;
}

} // namespace hpa::sim
