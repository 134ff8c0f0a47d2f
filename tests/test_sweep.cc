/** @file Sweep-engine tests: parallel results byte-identical to a
 *  serial run for every (machine x workload) pair of the full
 *  reproduction sweep, the policy zoo and every registered
 *  scheduler x register-file pair, thread-safe build-once workload
 *  cache, deterministic parallelFor, finished cells that hold only
 *  their counters, and per-cell fault isolation. */

#include <algorithm>
#include <atomic>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/policy_registry.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<unsigned>> hits(257);
    sim::SweepRunner::parallelFor(hits.size(), 8, [&](size_t i) {
        hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelFor, SingleWorkerRunsInlineInOrder)
{
    std::vector<size_t> order;
    sim::SweepRunner::parallelFor(10, 1, [&](size_t i) {
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 10u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesTheFirstException)
{
    EXPECT_THROW(
        sim::SweepRunner::parallelFor(100, 4,
                                      [](size_t i) {
                                          if (i == 13)
                                              throw std::runtime_error(
                                                  "boom");
                                      }),
        std::runtime_error);
}

TEST(ResolveJobs, ExplicitRequestWinsZeroMeansHardware)
{
    EXPECT_EQ(sim::SweepRunner::resolveJobs(3), 3u);
    EXPECT_EQ(sim::SweepRunner::resolveJobs(1), 1u);
    EXPECT_GE(sim::SweepRunner::resolveJobs(0), 1u);
}

TEST(WorkloadCacheTest, ConcurrentGetsReturnTheSameBuiltEntry)
{
    workloads::WorkloadCache cache;
    auto names = workloads::benchmarkNames();
    ASSERT_GE(names.size(), 4u);

    // 16 threads hammer 4 distinct keys; every get of a key must
    // return the identical (build-once) Workload object.
    std::vector<const workloads::Workload *> got(64);
    sim::SweepRunner::parallelFor(got.size(), 16, [&](size_t i) {
        got[i] = &cache.get(names[i % 4], workloads::Scale::Test);
    });
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_NE(got[i], nullptr);
        EXPECT_EQ(got[i], got[i % 4]) << "key " << names[i % 4];
        EXPECT_EQ(got[i]->name, names[i % 4]);
    }
}

TEST(SweepDeterminism, EightWorkersMatchSerialForEveryPair)
{
    // The full reproduction grid at a small budget, plus the
    // post-paper policy machines (dlt wakeup, prefetch regfile,
    // combined) and every registered scheduler x register-file pair
    // at both widths: every machine crossed with every workload.
    // jobs(8) must reproduce jobs(1) bit-for-bit — same IPC doubles,
    // same cycle counts, and a byte-identical statistics report — and
    // no pair may throw or deadlock.
    const uint64_t BUDGET = 2000;
    auto machines = sim::reproductionMachines();
    for (const auto &m : sim::policyZooMachines())
        machines.push_back(m);
    for (unsigned w : {4u, 8u}) {
        for (const auto &s : core::schedPolicies()) {
            for (const auto &r : core::rfPolicies()) {
                sim::Machine m =
                    sim::Machine::base(w).wakeup(s.model).regfile(
                        r.model);
                if (std::none_of(machines.begin(), machines.end(),
                                 [&](const sim::Machine &x) {
                                     return x.name == m.name;
                                 }))
                    machines.push_back(m);
            }
        }
    }
    auto names = workloads::benchmarkNames();

    std::vector<sim::SweepJob> jobs;
    for (const auto &m : machines) {
        for (const auto &n : names) {
            sim::SweepJob j;
            j.workload = n;
            j.machine = m;
            j.max_insts = BUDGET;
            jobs.push_back(j);
        }
    }

    workloads::WorkloadCache cache;
    auto serial = sim::SweepRunner(1, &cache).run(jobs);
    auto parallel = sim::SweepRunner(8, &cache).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());

    for (size_t i = 0; i < jobs.size(); ++i) {
        std::string what =
            jobs[i].machine.name + "|" + jobs[i].workload;
        ASSERT_TRUE(serial[i].outcome.ok())
            << what << ": " << serial[i].outcome.error;
        ASSERT_TRUE(parallel[i].outcome.ok())
            << what << ": " << parallel[i].outcome.error;
        ASSERT_NE(serial[i].sim, nullptr) << what;
        ASSERT_NE(parallel[i].sim, nullptr) << what;
        EXPECT_EQ(serial[i].ipc, parallel[i].ipc) << what;
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << what;
        EXPECT_EQ(serial[i].committed, parallel[i].committed) << what;

        std::ostringstream a, b;
        serial[i].sim->report(a);
        parallel[i].sim->report(b);
        EXPECT_EQ(a.str(), b.str()) << what;
    }
}

TEST(SweepTraceCache, ConcurrentCellsShareOneTraceDeterministically)
{
    // Many cells of one (workload, budget) group racing on the
    // cache: the first capture must win for everyone (the trace is
    // immutable and shared), and 8 workers must reproduce the
    // 1-worker results exactly even though every cell replays the
    // same buffer concurrently.
    const uint64_t BUDGET = 3000;
    auto machines = sim::reproductionMachines();
    std::vector<sim::SweepJob> jobs;
    for (const auto &m : machines) {
        sim::SweepJob j;
        j.workload = "parser";
        j.machine = m;
        j.max_insts = BUDGET;
        jobs.push_back(j);
    }

    workloads::WorkloadCache serial_cache, parallel_cache;
    auto serial = sim::SweepRunner(1, &serial_cache).run(jobs);
    auto parallel = sim::SweepRunner(8, &parallel_cache).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());

    for (size_t i = 0; i < jobs.size(); ++i) {
        const std::string &what = jobs[i].machine.name;
        ASSERT_TRUE(serial[i].outcome.ok()) << what;
        ASSERT_TRUE(parallel[i].outcome.ok()) << what;
        EXPECT_EQ(serial[i].ipc, parallel[i].ipc) << what;
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << what;
        EXPECT_EQ(serial[i].committed, parallel[i].committed) << what;
    }
}

TEST(SweepMemory, FinishedCellKeepsOnlyItsCounters)
{
    // A cell's core frees its timing state when its run completes, so
    // the results a sweep hands back hold counters, not simulators
    // (a live 4- or 8-wide core is ~350-420 KiB, mostly cache lines
    // and the event pool).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "ASan and TSan replace malloc, so mallinfo2() "
                    "does not see the heap they allocate";
#elif !defined(__GLIBC__) || __GLIBC__ < 2 \
    || (__GLIBC__ == 2 && __GLIBC_MINOR__ < 33)
    GTEST_SKIP() << "mallinfo2() needs glibc 2.33 or later";
#else
    const uint64_t BUDGET = 2000;
    workloads::WorkloadCache cache;
    const workloads::Workload &w =
        cache.get("gzip", workloads::Scale::Full);
    auto steady = w.program.symbols.find("steady");
    ASSERT_NE(steady, w.program.symbols.end());
    // Capture first: the measured growth is the held results alone.
    cache.trace("gzip", workloads::Scale::Full, BUDGET, steady->second);

    std::vector<sim::SweepJob> jobs;
    for (const auto &m : sim::reproductionMachines()) {
        sim::SweepJob j;
        j.workload = "gzip";
        j.machine = m;
        j.max_insts = BUDGET;
        jobs.push_back(j);
    }
    ASSERT_EQ(jobs.size(), 16u);

    // Heap in use: the arena's allocations plus mmapped chunks. Small
    // chunks parked in glibc's per-thread cache after a free still
    // count as in use, so the figure is an upper bound.
    auto heapInUse = [] {
        struct mallinfo2 mi = mallinfo2();
        return mi.uordblks + mi.hblkhd;
    };
    sim::SweepRunner runner(1, &cache);
    const size_t before = heapInUse();
    std::vector<sim::SweepResult> results = runner.run(std::move(jobs));
    const size_t after = heapInUse();

    ASSERT_EQ(results.size(), 16u);
    for (const sim::SweepResult &r : results) {
        ASSERT_TRUE(r.valid()) << r.spec.machine.name;
        EXPECT_EQ(r.committed, BUDGET) << r.spec.machine.name;
    }
    const double kib_per_cell = after > before
        ? double(after - before) / 1024.0 / double(results.size())
        : 0.0;
    std::cout << "held results: " << kib_per_cell << " KiB per cell\n";
    EXPECT_LE(kib_per_cell, 32.0);
#endif
}

/** The small grid the fault-isolation tests run: two machines by
 *  four workloads, tiny budget. */
std::vector<sim::SweepJob>
smallGrid(uint64_t budget = 5000)
{
    std::vector<sim::SweepJob> jobs;
    std::vector<sim::Machine> machines = {
        sim::Machine::base(4),
        sim::Machine::base(4).wakeup(core::WakeupModel::Sequential)
            .lap(1024),
    };
    auto names = workloads::benchmarkNames();
    for (const auto &m : machines)
        for (size_t i = 0; i < 4; ++i) {
            sim::SweepJob j;
            j.workload = names[i];
            j.machine = m;
            j.max_insts = budget;
            jobs.push_back(j);
        }
    return jobs;
}

TEST(SweepFaultIsolation, FailedAndHungCellsLeaveTheRestIntact)
{
    // The acceptance scenario: one cell trips an invariant, one cell
    // deadlocks — every other cell must be bit-identical to the
    // fault-free sweep, and both failures must carry their kind and
    // context.
    workloads::WorkloadCache cache;
    auto clean_jobs = smallGrid();
    auto clean = sim::SweepRunner(4, &cache).run(clean_jobs);

    auto jobs = smallGrid();
    // An empty window fails the Core constructor's HPA_CHECK.
    jobs[2].machine.cfg.ruu_size = 0;
    // A watchdog shorter than the cold-start memory stall.
    jobs[5].machine.cfg.watchdog_cycles = 40;
    auto res = sim::SweepRunner(4, &cache).run(jobs);
    ASSERT_EQ(res.size(), clean.size());

    for (size_t i = 0; i < res.size(); ++i) {
        if (i == 2 || i == 5)
            continue;
        std::string what =
            jobs[i].machine.name + "|" + jobs[i].workload;
        EXPECT_TRUE(res[i].outcome.ok()) << what;
        EXPECT_TRUE(res[i].valid()) << what;
        EXPECT_EQ(res[i].ipc, clean[i].ipc) << what;
        EXPECT_EQ(res[i].cycles, clean[i].cycles) << what;
        EXPECT_EQ(res[i].committed, clean[i].committed) << what;
    }

    EXPECT_EQ(res[2].outcome.status, sim::RunStatus::Failed);
    EXPECT_EQ(res[2].outcome.errorKind, ErrorKind::Invariant);
    EXPECT_FALSE(res[2].valid());
    EXPECT_EQ(res[2].sim, nullptr);
    EXPECT_EQ(res[2].outcome.context.workload, jobs[2].workload);
    EXPECT_NE(res[2].outcome.error.find("[invariant]"),
              std::string::npos)
        << res[2].outcome.error;

    EXPECT_EQ(res[5].outcome.status, sim::RunStatus::Failed);
    EXPECT_EQ(res[5].outcome.errorKind, ErrorKind::Deadlock);
    EXPECT_FALSE(res[5].valid());
    EXPECT_GT(res[5].outcome.context.cycle, 40u);
    EXPECT_FALSE(res[5].outcome.context.dump.empty());
}

TEST(SweepFaultIsolation, PoisonedWorkloadReportsConfigError)
{
    workloads::WorkloadCache cache;
    auto jobs = smallGrid(2000);
    // Unvalidated on purpose: the name fails in WorkloadCache::get,
    // inside the cell, as a bad workload would at run time.
    jobs[0].workload = "nosuch";
    auto res = sim::SweepRunner(2, &cache).run(jobs);
    EXPECT_EQ(res[0].outcome.status, sim::RunStatus::Failed);
    EXPECT_EQ(res[0].outcome.errorKind, ErrorKind::Config);
    EXPECT_NE(res[0].outcome.error.find("unknown workload"),
              std::string::npos)
        << res[0].outcome.error;
    for (size_t i = 1; i < res.size(); ++i)
        EXPECT_TRUE(res[i].outcome.ok()) << i;
}

TEST(SweepFaultIsolation, UnconstructibleCellFailsAlone)
{
    // A cell whose machine config cannot even construct (non-pow2
    // predictor table, injected under the builder's validation)
    // reports its ConfigError; the other cells of its workload still
    // succeed with the clean sweep's results.
    const uint64_t BUDGET = 2000;
    auto names = workloads::benchmarkNames();
    std::vector<sim::Machine> machines = {
        sim::Machine::base(4),
        sim::Machine::base(4)
            .wakeup(core::WakeupModel::Sequential)
            .lap(1024),
    };
    std::vector<sim::SweepJob> jobs;
    for (const auto &m : machines)
        for (size_t w = 0; w < 2; ++w) {
            sim::SweepJob j;
            j.workload = names[w];
            j.machine = m;
            j.max_insts = BUDGET;
            jobs.push_back(j);
        }

    workloads::WorkloadCache cache;
    auto clean = sim::SweepRunner(1, &cache).run(jobs);

    auto broken = jobs;
    broken[2].machine.cfg.lap_entries = 1000; // not a power of 2
    auto res = sim::SweepRunner(1, &cache).run(broken);

    EXPECT_EQ(res[2].outcome.status, sim::RunStatus::Failed);
    EXPECT_EQ(res[2].outcome.errorKind, ErrorKind::Config);
    for (size_t i = 0; i < res.size(); ++i) {
        if (i == 2)
            continue;
        std::string what =
            jobs[i].machine.name + "|" + jobs[i].workload;
        ASSERT_TRUE(res[i].outcome.ok()) << what;
        EXPECT_EQ(res[i].ipc, clean[i].ipc) << what;
        EXPECT_EQ(res[i].cycles, clean[i].cycles) << what;
    }
}

TEST(RequireAllOk, ThrowsListingEveryFailedCell)
{
    workloads::WorkloadCache cache;
    auto jobs = smallGrid(2000);
    jobs[0].workload = "nosuch";
    auto res = sim::SweepRunner(2, &cache).run(jobs);
    try {
        sim::requireAllOk(res);
        FAIL() << "expected hpa::WorkloadError";
    } catch (const WorkloadError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("1 of 8 sweep cells failed"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(jobs[0].workload), std::string::npos)
            << what;
    }

    // A clean sweep sails through.
    auto clean = sim::SweepRunner(2, &cache).run(smallGrid(2000));
    EXPECT_NO_THROW(sim::requireAllOk(clean));
}

} // namespace
