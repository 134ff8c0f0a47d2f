/**
 * @file
 * Persistent, resumable sweep job store: an on-disk append-only
 * journal of completed sweep cells, keyed by a content hash of each
 * cell's ExperimentSpec (machine configuration + policies + workload
 * + budgets + trace-cache knob), so a sweep interrupted by
 * SIGKILL, OOM or power loss resumes from the last durable record
 * instead of from scratch.
 *
 * Layout under the store directory:
 *
 *   journal-<worker>.hpaj   framed result records (one shard per
 *                           writer process — shards never interleave)
 *   leases/<key>.lease      work-unit leases (sim/shard.hh)
 *   retry/<key>             crash-retry attempt count + backoff gate
 *   inject-<kind>-<i>.armed one-shot fault-injection markers
 *
 * Record framing is crash-safe: every record is
 *
 *   'H' 'P' 'A' 'J' | u32 payload length | u64 FNV-1a(payload) | payload
 *
 * (integers little-endian). A writer emits the whole frame in one
 * buffered write and flushes it to the OS before the cell is
 * considered durable, so a torn tail — the partial frame a dying
 * process leaves behind — is detectable: on open, the owner's shard
 * is scanned and truncated at the first bad frame, foreign shards
 * are read up to theirs, and every dropped byte/record is counted
 * and surfaced (droppedBytes()/droppedRecords()) rather than
 * silently merged.
 *
 * Each payload is one standalone JSON document tagged
 * "hpa.sweep-journal.v1" (schema-gated by hpa_json_validate), so
 * journals stay greppable/exportable without custom tooling.
 */

#ifndef HPA_SIM_JOB_STORE_HH
#define HPA_SIM_JOB_STORE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace hpa::sim
{

/**
 * One journal record: the durable summary of a completed (or
 * permanently failed) sweep cell. Metric doubles are stored in
 * shortest-round-trip form, so a resumed sweep's merged results are
 * bit-identical to the run that produced them.
 */
struct StoredRun
{
    std::string specKey;
    std::string workload;
    std::string machine;
    /** statusName() tag: "ok", "failed", "timed_out"; empty when the
     *  slot is unpopulated (no record for this cell yet). */
    std::string status;
    bool valid = false;
    bool steadyMissing = false;
    unsigned attempts = 1;
    uint64_t backoffMs = 0;
    double ipc = 0.0;
    uint64_t committed = 0;
    uint64_t cycles = 0;
    uint64_t fastForwarded = 0;
    double wallSeconds = 0.0;
    /** Writer identity, for post-mortem attribution. */
    std::string worker;
    /** Populated on non-ok records. */
    std::string errorKind;
    std::string error;

    bool ok() const { return status == "ok"; }
    bool present() const { return !status.empty(); }
};

/**
 * The persistent job store. One instance per writer process: it owns
 * (and appends to) its own journal shard and reads every shard in
 * the directory, so concurrent worker processes share one store
 * without write interleaving. All methods are thread-safe — the
 * parallel store-mode runner appends from pool threads.
 */
class JobStore
{
  public:
    /** Schema tag of every journal record payload. */
    static constexpr const char *JSON_SCHEMA = "hpa.sweep-journal.v1";

    /**
     * Content hash (16 hex chars, FNV-1a 64) identifying a sweep
     * cell as an idempotent work unit: two specs share a key iff
     * specCanonical() agrees — same workload, scale, budgets,
     * fast-forward, trace-cache knob, and every machine
     * configuration field including the policy selections.
     * Execution-policy fields (fault injection, retries, wall
     * budgets) are deliberately excluded: they change how a cell is
     * run, not what result it produces.
     */
    static std::string specKey(const ExperimentSpec &spec);

    /** The canonical "field=value|..." text specKey() hashes —
     *  stable across processes, exposed for tests and debugging. */
    static std::string specCanonical(const ExperimentSpec &spec);

    /** Render @p r as its journal payload: one standalone
     *  JSON_SCHEMA document, byte-identical to what append() frames
     *  (the --dump-journal schema-gate path reuses this). */
    static std::string recordJson(const StoredRun &r);

    /**
     * Open (creating if needed) the store at @p dir as writer
     * @p worker_id. Scans every journal shard in the directory,
     * truncates a torn tail on the owned shard, and builds the
     * completed-cell index. Throws hpa::WorkloadError on I/O
     * failure, hpa::ConfigError on an unusable @p worker_id.
     */
    JobStore(std::string dir, std::string worker_id);
    ~JobStore();

    JobStore(const JobStore &) = delete;
    JobStore &operator=(const JobStore &) = delete;

    const std::string &dir() const { return dir_; }
    const std::string &workerId() const { return worker_; }

    /** The best record for @p key (ok preferred over failed), or
     *  nullptr when the cell has no durable result yet. The pointer
     *  is invalidated by reload()/compact(). */
    const StoredRun *find(const std::string &key) const;

    /** Completed cells (distinct keys with any record). */
    size_t completed() const;
    /** Completed cells whose best record is ok. */
    size_t okCount() const;

    /** Bytes discarded while loading (torn tails, corrupt frames). */
    size_t droppedBytes() const { return droppedBytes_; }
    /** Records lost to those discards (frames that began but failed
     *  validation; a clean tail contributes zero). */
    size_t droppedRecords() const { return droppedRecords_; }
    /** Journal records successfully loaded across all shards. */
    size_t loadedRecords() const { return loadedRecords_; }

    /**
     * Durably record a completed cell: serialize @p r (keyed by
     * @p spec), frame it, append to the owned shard and flush it to
     * disk before returning — after append() returns, a SIGKILL
     * cannot lose the record. Also inserts it into the index.
     */
    void append(const ExperimentSpec &spec, const RunResult &r);

    /** Record a permanent failure that produced no RunResult (e.g.
     *  a cell whose workers crashed past the attempt cap). */
    void appendFailure(const ExperimentSpec &spec,
                       const std::string &error_kind,
                       const std::string &error, unsigned attempts);

    /** Re-scan every shard in the directory (picks up records other
     *  workers appended since open). */
    void reload();

    /**
     * Compaction pass: rewrite the store as a single shard holding
     * only the best record per key, then remove the superseded
     * shard files. Crash-safe — the replacement shard is fully
     * written and flushed before any old file is unlinked, and the
     * ok-wins load rule makes a partial cleanup harmless. Callers
     * must guarantee no other writer is active. @return records
     * dropped as duplicates/superseded.
     */
    size_t compact();

    /**
     * Arm a one-shot fault injection: atomically create the marker
     * `inject-<kind>-<index>.armed`. @return true for exactly one
     * caller per store lifetime — the worker that should inject —
     * and false ever after, so a reclaimed or resumed retry of the
     * same cell runs clean.
     */
    bool armInjectionOnce(const std::string &kind, size_t index);

    /** Every loaded record in shard-scan order (diagnostics and the
     *  --dump-journal tool path). */
    const std::vector<StoredRun> &records() const { return records_; }

  private:
    void loadLocked();
    void appendRecord(const std::string &key,
                      const std::string &payload);
    std::string ownShardPath() const;

    std::string dir_;
    std::string worker_;
    std::FILE *out_ = nullptr;
    mutable std::mutex mu_;
    /** Best record per spec key (ok preferred, else first seen). */
    std::map<std::string, StoredRun> index_;
    std::vector<StoredRun> records_;
    size_t droppedBytes_ = 0;
    size_t droppedRecords_ = 0;
    size_t loadedRecords_ = 0;
};

} // namespace hpa::sim

#endif // HPA_SIM_JOB_STORE_HH
