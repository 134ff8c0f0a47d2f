/** @file Persistent job-store and lease-protocol tests: spec-key
 *  content hashing, crash-safe journal framing (torn-tail truncation,
 *  corrupt-frame recovery — detected and counted, never silently
 *  merged), multi-shard merging with the ok-wins index rule,
 *  compaction, one-shot injection arming, lease claim/renew/reclaim
 *  semantics and the exponential retry backoff schedule. */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/job_store.hh"
#include "sim/shard.hh"
#include "sim/sweep.hh"
#include "stats/json.hh"

namespace fs = std::filesystem;

namespace
{

using namespace hpa;

/** Fresh, self-cleaning store directory per test. */
class JobStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path()
                / ("hpa_job_store_test."
                   + std::to_string(::getpid()) + "."
                   + info->test_suite_name() + "." + info->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

sim::ExperimentSpec
spec(const std::string &workload = "gzip", unsigned width = 4,
     uint64_t insts = 2000)
{
    sim::ExperimentSpec s;
    s.workload = workload;
    s.machine = sim::Machine::base(width).build();
    s.max_insts = insts;
    return s;
}

/** A synthetic completed run (no simulation needed to test the
 *  journal plumbing). */
sim::RunResult
fakeResult(const sim::ExperimentSpec &s, double ipc = 1.25)
{
    sim::RunResult r;
    r.spec = s;
    r.ipc = ipc;
    r.committed = s.max_insts;
    r.cycles = uint64_t(double(s.max_insts) / ipc);
    r.wallSeconds = 0.001;
    return r;
}

std::string
ownShard(const std::string &dir, const std::string &worker)
{
    return (fs::path(dir) / ("journal-" + worker + ".hpaj")).string();
}

TEST_F(JobStoreTest, SpecKeyIsStableAndContentSensitive)
{
    const std::string k = sim::JobStore::specKey(spec());
    EXPECT_EQ(k.size(), 16u);
    EXPECT_EQ(k, sim::JobStore::specKey(spec()));

    // Identity fields change the key...
    EXPECT_NE(k, sim::JobStore::specKey(spec("crafty")));
    EXPECT_NE(k, sim::JobStore::specKey(spec("gzip", 8)));
    EXPECT_NE(k, sim::JobStore::specKey(spec("gzip", 4, 5000)));
    auto no_trace = spec();
    no_trace.trace_cache = false;
    EXPECT_NE(k, sim::JobStore::specKey(no_trace));
    auto policy = spec();
    policy.machine =
        sim::Machine::base(4).schedPolicy("seq").build();
    EXPECT_NE(k, sim::JobStore::specKey(policy));

    // ...execution-policy fields do not: they change how a cell is
    // run, not what result it produces.
    auto exec_only = spec();
    exec_only.max_retries = 7;
    exec_only.retry_backoff_ms = 999;
    exec_only.wall_budget_seconds = 3.0;
    exec_only.fault = sim::FaultKind::CrashProcess;
    exec_only.fault_cycle = 42;
    EXPECT_EQ(k, sim::JobStore::specKey(exec_only));
}

TEST_F(JobStoreTest, AppendThenReopenRoundTrips)
{
    const auto s1 = spec("gzip");
    const auto s2 = spec("crafty");
    {
        sim::JobStore store(dir_, "w0");
        store.append(s1, fakeResult(s1, 1.5));
        store.append(s2, fakeResult(s2, 0.75));
        EXPECT_EQ(store.completed(), 2u);
    }
    sim::JobStore store(dir_, "w0");
    EXPECT_EQ(store.loadedRecords(), 2u);
    EXPECT_EQ(store.droppedBytes(), 0u);
    const sim::StoredRun *r = store.find(sim::JobStore::specKey(s1));
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->ok());
    EXPECT_TRUE(r->valid);
    EXPECT_EQ(r->workload, "gzip");
    EXPECT_EQ(r->machine, s1.machine.name);
    // Doubles are stored shortest-round-trip: bit-identical reload.
    EXPECT_EQ(r->ipc, 1.5);
    EXPECT_EQ(r->committed, 2000u);
    EXPECT_EQ(r->worker, "w0");
}

TEST_F(JobStoreTest, ErrorStringsSurviveJsonEscaping)
{
    const auto s = spec();
    {
        sim::JobStore store(dir_, "w0");
        store.appendFailure(s, "crash",
                            "line1\nline2 \"quoted\" \\slash\tend",
                            3);
    }
    sim::JobStore store(dir_, "w0");
    const sim::StoredRun *r = store.find(sim::JobStore::specKey(s));
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(r->ok());
    EXPECT_EQ(r->status, "failed");
    EXPECT_EQ(r->attempts, 3u);
    EXPECT_EQ(r->errorKind, "crash");
    EXPECT_EQ(r->error, "line1\nline2 \"quoted\" \\slash\tend");
}

TEST_F(JobStoreTest, OkRecordWinsOverFailed)
{
    const auto s = spec();
    sim::JobStore store(dir_, "w0");
    store.appendFailure(s, "deadlock", "watchdog tripped", 2);
    EXPECT_FALSE(store.find(sim::JobStore::specKey(s))->ok());
    store.append(s, fakeResult(s));
    const sim::StoredRun *r = store.find(sim::JobStore::specKey(s));
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->ok());
    // ...and the preference survives a reload (ok wins regardless of
    // record order) and keeps the cell counted once.
    store.reload();
    EXPECT_TRUE(store.find(sim::JobStore::specKey(s))->ok());
    EXPECT_EQ(store.completed(), 1u);
    EXPECT_EQ(store.loadedRecords(), 2u);
}

TEST_F(JobStoreTest, TornTailIsTruncatedNotMerged)
{
    const auto s1 = spec("gzip");
    const auto s2 = spec("crafty");
    {
        sim::JobStore store(dir_, "w0");
        store.append(s1, fakeResult(s1));
        store.append(s2, fakeResult(s2));
    }
    // Simulate a crash mid-write: drop the last 7 bytes of the tail
    // frame.
    const std::string shard = ownShard(dir_, "w0");
    const auto size = fs::file_size(shard);
    fs::resize_file(shard, size - 7);

    sim::JobStore store(dir_, "w0");
    EXPECT_EQ(store.loadedRecords(), 1u);
    EXPECT_GT(store.droppedBytes(), 0u);
    EXPECT_EQ(store.droppedRecords(), 1u);
    EXPECT_NE(store.find(sim::JobStore::specKey(s1)), nullptr);
    EXPECT_EQ(store.find(sim::JobStore::specKey(s2)), nullptr);
    // The owner healed its shard in place: the torn bytes are gone
    // and a fresh open reports a clean journal.
    EXPECT_LT(fs::file_size(shard), size - 7);
    sim::JobStore again(dir_, "w0");
    EXPECT_EQ(again.droppedBytes(), 0u);
    EXPECT_EQ(again.loadedRecords(), 1u);
}

TEST_F(JobStoreTest, CorruptFrameStopsTheScan)
{
    const auto s1 = spec("gzip");
    const auto s2 = spec("crafty");
    const auto s3 = spec("eon");
    uint64_t first_end = 0;
    {
        sim::JobStore store(dir_, "w0");
        store.append(s1, fakeResult(s1));
        first_end = fs::file_size(ownShard(dir_, "w0"));
        store.append(s2, fakeResult(s2));
        store.append(s3, fakeResult(s3));
    }
    // Flip one payload byte inside the second record: its checksum
    // no longer matches, so it and everything after it must be
    // dropped (a checksum mismatch could be a short torn write too —
    // nothing beyond it is trustworthy).
    const std::string shard = ownShard(dir_, "w0");
    {
        std::FILE *f = std::fopen(shard.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, long(first_end) + 40, SEEK_SET);
        std::fputc('X', f);
        std::fclose(f);
    }
    sim::JobStore store(dir_, "w0");
    EXPECT_EQ(store.loadedRecords(), 1u);
    EXPECT_EQ(store.droppedRecords(), 1u);
    EXPECT_GT(store.droppedBytes(), 0u);
    EXPECT_NE(store.find(sim::JobStore::specKey(s1)), nullptr);
    EXPECT_EQ(store.find(sim::JobStore::specKey(s2)), nullptr);
    EXPECT_EQ(store.find(sim::JobStore::specKey(s3)), nullptr);
}

TEST_F(JobStoreTest, ForeignShardsAreReadButNeverTruncated)
{
    const auto s1 = spec("gzip");
    {
        sim::JobStore w1(dir_, "w1");
        w1.append(s1, fakeResult(s1));
    }
    const std::string shard = ownShard(dir_, "w1");
    const auto size = fs::file_size(shard);
    {
        // Append garbage to w1's shard, then open as a different
        // worker: the garbage is detected and dropped from the
        // index, but the file belongs to w1 and must stay intact.
        std::FILE *f = std::fopen(shard.c_str(), "ab");
        std::fputs("partial-frame-garbage", f);
        std::fclose(f);
    }
    sim::JobStore w2(dir_, "w2");
    EXPECT_EQ(w2.loadedRecords(), 1u);
    EXPECT_GT(w2.droppedBytes(), 0u);
    EXPECT_EQ(fs::file_size(shard), size + 21);
}

TEST_F(JobStoreTest, ShardsMergeAcrossWorkers)
{
    const auto s1 = spec("gzip");
    const auto s2 = spec("crafty");
    {
        sim::JobStore w1(dir_, "w1");
        w1.append(s1, fakeResult(s1, 1.0));
    }
    {
        sim::JobStore w2(dir_, "w2");
        w2.append(s2, fakeResult(s2, 2.0));
        // w2 opened after w1 wrote: it already sees w1's record.
        EXPECT_EQ(w2.completed(), 2u);
    }
    sim::JobStore reader(dir_, "w3");
    EXPECT_EQ(reader.completed(), 2u);
    EXPECT_EQ(reader.okCount(), 2u);
    EXPECT_EQ(reader.find(sim::JobStore::specKey(s1))->worker, "w1");
    EXPECT_EQ(reader.find(sim::JobStore::specKey(s2))->worker, "w2");
}

TEST_F(JobStoreTest, ReloadSeesRecordsAppendedByPeers)
{
    const auto s1 = spec("gzip");
    sim::JobStore a(dir_, "a");
    EXPECT_EQ(a.completed(), 0u);
    {
        sim::JobStore b(dir_, "b");
        b.append(s1, fakeResult(s1));
    }
    EXPECT_EQ(a.find(sim::JobStore::specKey(s1)), nullptr);
    a.reload();
    EXPECT_NE(a.find(sim::JobStore::specKey(s1)), nullptr);
}

TEST_F(JobStoreTest, CompactionKeepsBestRecordPerCellInOneShard)
{
    const auto s1 = spec("gzip");
    const auto s2 = spec("crafty");
    {
        sim::JobStore w1(dir_, "w1");
        w1.appendFailure(s1, "deadlock", "first try died", 1);
        w1.append(s2, fakeResult(s2, 2.0));
    }
    sim::JobStore w2(dir_, "w2");
    w2.append(s1, fakeResult(s1, 1.0));
    EXPECT_EQ(w2.loadedRecords(), 3u);

    const size_t dropped = w2.compact();
    EXPECT_EQ(dropped, 1u); // the superseded failure record

    size_t shards = 0;
    for (const auto &e : fs::directory_iterator(dir_))
        if (e.path().extension() == ".hpaj")
            ++shards;
    EXPECT_EQ(shards, 1u);

    EXPECT_EQ(w2.loadedRecords(), 2u);
    EXPECT_EQ(w2.completed(), 2u);
    EXPECT_TRUE(w2.find(sim::JobStore::specKey(s1))->ok());
    EXPECT_EQ(w2.find(sim::JobStore::specKey(s2))->ipc, 2.0);
    // The store stays appendable after compaction.
    const auto s3 = spec("eon");
    w2.append(s3, fakeResult(s3));
    EXPECT_EQ(w2.completed(), 3u);
}

TEST_F(JobStoreTest, RecordJsonValidatesAndCarriesTheSchema)
{
    const auto s = spec();
    sim::JobStore store(dir_, "w0");
    store.append(s, fakeResult(s));
    const std::string doc =
        sim::JobStore::recordJson(store.records().front());
    std::string err;
    EXPECT_TRUE(stats::json::validate(doc, &err)) << err;
    EXPECT_NE(doc.find("\"hpa.sweep-journal.v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"spec_key\""), std::string::npos);
    EXPECT_NE(doc.find("\"backoff_ms\""), std::string::npos);
}

TEST_F(JobStoreTest, InjectionArmsExactlyOnce)
{
    sim::JobStore store(dir_, "w0");
    EXPECT_TRUE(store.armInjectionOnce("crash", 40));
    EXPECT_FALSE(store.armInjectionOnce("crash", 40));
    // Distinct kind/index markers are independent.
    EXPECT_TRUE(store.armInjectionOnce("crash", 41));
    EXPECT_TRUE(store.armInjectionOnce("stall-heartbeat", 40));
    // ...and a second store instance (reclaimed retry, resumed run)
    // still sees the marker.
    sim::JobStore again(dir_, "w1");
    EXPECT_FALSE(again.armInjectionOnce("crash", 40));
}

TEST_F(JobStoreTest, RejectsUnusableWorkerIds)
{
    EXPECT_THROW(sim::JobStore(dir_, ""), ConfigError);
    EXPECT_THROW(sim::JobStore(dir_, "a/b"), ConfigError);
    EXPECT_THROW(sim::JobStore(dir_, "a b"), ConfigError);
}

// --- lease protocol ------------------------------------------------

TEST_F(JobStoreTest, LeaseClaimIsExclusiveUntilReleased)
{
    sim::LeaseManager a(dir_, "a");
    sim::LeaseManager b(dir_, "b");
    EXPECT_TRUE(a.tryAcquire("cell1"));
    EXPECT_TRUE(a.owned("cell1"));
    EXPECT_FALSE(b.tryAcquire("cell1"));
    EXPECT_FALSE(b.owned("cell1"));
    EXPECT_TRUE(a.renew("cell1"));
    a.release("cell1");
    EXPECT_FALSE(a.owned("cell1"));
    EXPECT_TRUE(b.tryAcquire("cell1"));
    // Each successful claim counts one attempt.
    EXPECT_EQ(b.attempts("cell1"), 2u);
}

TEST_F(JobStoreTest, StaleLeaseIsReclaimedAndOwnerFindsOut)
{
    sim::LeaseOptions lo;
    lo.timeout_seconds = 0.2;
    sim::LeaseManager holder(dir_, "holder", lo);
    sim::LeaseManager peer(dir_, "peer", lo);

    ASSERT_TRUE(holder.tryAcquire("cell1"));
    EXPECT_EQ(peer.reclaimExpired(), 0u); // still fresh
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // The heartbeat stopped (we never renewed): the lease is stale
    // and exactly one reclaimer wins it.
    EXPECT_EQ(peer.reclaimExpired(), 1u);
    EXPECT_EQ(peer.reclaimExpired(), 0u);
    // The stalled holder must notice it lost the cell — this is the
    // check that prevents duplicate journal records.
    EXPECT_FALSE(holder.owned("cell1"));
    EXPECT_FALSE(holder.renew("cell1"));
    // After the reclaim backoff gate passes, the cell is claimable.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_TRUE(peer.tryAcquire("cell1"));
}

TEST_F(JobStoreTest, ReclaimArmsABackoffGate)
{
    sim::LeaseOptions lo;
    lo.timeout_seconds = 0.05;
    sim::LeaseManager m(dir_, "m", lo);
    ASSERT_TRUE(m.tryAcquire("cell1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ASSERT_EQ(m.reclaimExpired(), 1u);
    // Immediately after a reclaim the not-before gate is closed
    // (attempt 1 backs off >= 100 ms).
    EXPECT_FALSE(m.tryAcquire("cell1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_TRUE(m.tryAcquire("cell1"));
}

TEST_F(JobStoreTest, ForceAcquireIgnoresTheGateButNotTheLease)
{
    sim::LeaseOptions lo;
    lo.timeout_seconds = 0.05;
    sim::LeaseManager a(dir_, "a", lo);
    sim::LeaseManager b(dir_, "b", lo);
    ASSERT_TRUE(a.tryAcquire("cell1"));
    // Held: force must not steal.
    EXPECT_FALSE(b.forceAcquire("cell1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ASSERT_EQ(b.reclaimExpired(), 1u);
    // Gate closed for tryAcquire, but force (the permanent-failure
    // recording path) goes through — without counting an attempt.
    EXPECT_FALSE(b.tryAcquire("cell1"));
    EXPECT_TRUE(b.forceAcquire("cell1"));
    EXPECT_EQ(b.attempts("cell1"), 1u);
    b.release("cell1");
}

TEST_F(JobStoreTest, AttemptCapMarksExhaustion)
{
    sim::LeaseOptions lo;
    lo.timeout_seconds = 0.02;
    lo.max_attempts = 2;
    sim::LeaseManager m(dir_, "m", lo);
    EXPECT_FALSE(m.attemptsExhausted("cell1"));
    for (unsigned i = 0; i < lo.max_attempts; ++i) {
        // Claim then crash (simulated: never release, let the lease
        // go stale and get reclaimed).
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        ASSERT_TRUE(m.tryAcquire("cell1")) << "attempt " << i;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ASSERT_EQ(m.reclaimExpired(), 1u);
    }
    EXPECT_TRUE(m.attemptsExhausted("cell1"));
}

TEST_F(JobStoreTest, ReleaseAllDropsEveryHeldLease)
{
    sim::LeaseManager m(dir_, "m");
    ASSERT_TRUE(m.tryAcquire("c1"));
    ASSERT_TRUE(m.tryAcquire("c2"));
    m.releaseAll();
    EXPECT_FALSE(m.owned("c1"));
    EXPECT_FALSE(m.owned("c2"));
    sim::LeaseManager peer(dir_, "peer");
    EXPECT_TRUE(peer.tryAcquire("c1"));
    EXPECT_TRUE(peer.tryAcquire("c2"));
}

// --- retry backoff schedule ----------------------------------------

TEST(BackoffDelay, GrowsExponentiallyWithCapAndJitter)
{
    const uint64_t seed = 12345;
    unsigned prev = 0;
    for (unsigned attempt = 1; attempt <= 6; ++attempt) {
        unsigned d =
            sim::SweepRunner::backoffDelayMs(attempt, seed, 25);
        const unsigned base = std::min(25u << (attempt - 1), 2000u);
        EXPECT_GE(d, base) << "attempt " << attempt;
        EXPECT_LE(d, base + base / 4) << "attempt " << attempt;
        EXPECT_GT(d, prev);
        prev = d;
    }
    // Capped: far-out attempts never exceed 2 s + 25% jitter.
    EXPECT_LE(sim::SweepRunner::backoffDelayMs(30, seed, 25), 2500u);
}

TEST(BackoffDelay, DeterministicPerSeedZeroBaseDisables)
{
    EXPECT_EQ(sim::SweepRunner::backoffDelayMs(3, 99, 25),
              sim::SweepRunner::backoffDelayMs(3, 99, 25));
    EXPECT_NE(sim::SweepRunner::backoffDelayMs(3, 99, 25),
              sim::SweepRunner::backoffDelayMs(4, 99, 25));
    EXPECT_EQ(sim::SweepRunner::backoffDelayMs(3, 99, 0), 0u);
}

} // namespace
