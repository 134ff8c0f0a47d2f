#include "sim/job_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "core/policy_registry.hh"
#include "sim/error.hh"
#include "stats/json.hh"

namespace fs = std::filesystem;

namespace hpa::sim
{

namespace
{

constexpr char MAGIC[4] = {'H', 'P', 'A', 'J'};
constexpr size_t FRAME_HEADER = 4 + 4 + 8;
/** Sanity cap: a journal record is a small JSON summary; anything
 *  larger is framing corruption, not data. */
constexpr uint32_t MAX_PAYLOAD = 1u << 24;

uint64_t
fnv1a64(std::string_view data, uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
toHex16(uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[size_t(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return s;
}

void
putLE32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(char(uint8_t(v >> (8 * i))));
}

void
putLE64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(char(uint8_t(v >> (8 * i))));
}

uint32_t
getLE32(const unsigned char *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16
        | uint32_t(p[3]) << 24;
}

uint64_t
getLE64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = v << 8 | p[i];
    return v;
}

// --- minimal field extraction over our own writer's output ---------
//
// Journal payloads are flat JSON objects emitted by JsonWriter
// (`"key": value`, two-space indent, no nested objects), so a
// targeted scan for `"key":` is exact — but string values must be
// decoded with full escape handling because error messages quote
// arbitrary text.

bool
findValue(const std::string &t, const std::string &key, size_t &val)
{
    std::string needle = "\"" + key + "\":";
    size_t pos = t.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    while (pos < t.size() && (t[pos] == ' ' || t[pos] == '\t'))
        ++pos;
    if (pos >= t.size())
        return false;
    val = pos;
    return true;
}

std::string
decodeString(const std::string &t, size_t pos)
{
    if (pos >= t.size() || t[pos] != '"')
        return "";
    std::string out;
    for (size_t i = pos + 1; i < t.size(); ++i) {
        char c = t[i];
        if (c == '"')
            return out;
        if (c != '\\') {
            out.push_back(c);
            continue;
        }
        if (++i >= t.size())
            break;
        switch (t[i]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u':
            if (i + 4 < t.size()) {
                unsigned cp = unsigned(
                    std::strtoul(t.substr(i + 1, 4).c_str(), nullptr,
                                 16));
                // escape() only emits \u for control bytes; anything
                // else would be multi-byte UTF-8 we never produce.
                if (cp < 0x100)
                    out.push_back(char(cp));
                i += 4;
            }
            break;
          default: out.push_back(t[i]); break;
        }
    }
    return out;
}

std::string
jsonString(const std::string &t, const std::string &key)
{
    size_t pos;
    if (!findValue(t, key, pos))
        return "";
    return decodeString(t, pos);
}

double
jsonNumber(const std::string &t, const std::string &key, double dflt)
{
    size_t pos;
    if (!findValue(t, key, pos))
        return dflt;
    return std::strtod(t.c_str() + pos, nullptr);
}

uint64_t
jsonU64(const std::string &t, const std::string &key, uint64_t dflt)
{
    size_t pos;
    if (!findValue(t, key, pos))
        return dflt;
    return std::strtoull(t.c_str() + pos, nullptr, 10);
}

bool
jsonBool(const std::string &t, const std::string &key, bool dflt)
{
    size_t pos;
    if (!findValue(t, key, pos))
        return dflt;
    return t.compare(pos, 4, "true") == 0;
}

/** Parse one validated payload. @return false when the payload is
 *  not a journal record (wrong schema / no key). */
bool
parseRecord(const std::string &payload, StoredRun &r)
{
    if (jsonString(payload, "schema") != JobStore::JSON_SCHEMA)
        return false;
    r.specKey = jsonString(payload, "spec_key");
    if (r.specKey.empty())
        return false;
    r.workload = jsonString(payload, "workload");
    r.machine = jsonString(payload, "machine");
    r.status = jsonString(payload, "status");
    r.valid = jsonBool(payload, "valid", false);
    r.steadyMissing = jsonBool(payload, "steady_missing", false);
    r.attempts = unsigned(jsonU64(payload, "attempts", 1));
    r.backoffMs = jsonU64(payload, "backoff_ms", 0);
    r.ipc = jsonNumber(payload, "ipc", 0.0);
    r.committed = jsonU64(payload, "committed", 0);
    r.cycles = jsonU64(payload, "cycles", 0);
    r.fastForwarded = jsonU64(payload, "fast_forwarded", 0);
    r.wallSeconds = jsonNumber(payload, "wall_seconds", 0.0);
    r.worker = jsonString(payload, "worker");
    r.errorKind = jsonString(payload, "error_kind");
    r.error = jsonString(payload, "error");
    return !r.status.empty();
}

bool
isShardFile(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name.rfind("journal-", 0) == 0
        && name.size() > 5
        && name.compare(name.size() - 5, 5, ".hpaj") == 0;
}

std::string
readWholeFile(const fs::path &p)
{
    std::FILE *f = std::fopen(p.c_str(), "rb");
    if (!f)
        throw WorkloadError("job store: cannot read journal shard "
                            + p.string());
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace

std::string
JobStore::recordJson(const StoredRun &r)
{
    std::ostringstream os;
    stats::json::JsonWriter jw(os);
    jw.beginObject()
        .kv("schema", JobStore::JSON_SCHEMA)
        .kv("spec_key", r.specKey)
        .kv("workload", r.workload)
        .kv("machine", r.machine)
        .kv("status", r.status)
        .kv("valid", r.valid)
        .kv("steady_missing", r.steadyMissing)
        .kv("attempts", r.attempts)
        .kv("backoff_ms", r.backoffMs)
        // Shortest-round-trip doubles: the merged artifact of a
        // resumed sweep must be bit-identical to the original run.
        .kv("ipc", r.ipc)
        .kv("committed", r.committed)
        .kv("cycles", r.cycles)
        .kv("fast_forwarded", r.fastForwarded)
        .kv("wall_seconds", r.wallSeconds)
        .kv("worker", r.worker);
    if (!r.errorKind.empty() || !r.error.empty()) {
        jw.kv("error_kind", r.errorKind).kv("error", r.error);
    }
    jw.endObject();
    return os.str();
}

std::string
JobStore::specCanonical(const ExperimentSpec &spec)
{
    const core::CoreConfig &c = spec.machine.cfg;
    std::ostringstream os;
    os << "workload=" << spec.workload
       << "|scale=" << (spec.scale == workloads::Scale::Full ? "full"
                                                             : "test")
       << "|max_insts=" << spec.max_insts
       << "|max_cycles=" << spec.max_cycles
       << "|fast_forward=" << (spec.fast_forward ? 1 : 0)
       << "|trace_cache=" << (spec.trace_cache ? 1 : 0)
       << "|machine=" << spec.machine.name
       << "|width=" << c.width
       << "|ruu=" << c.ruu_size
       << "|lsq=" << c.lsq_size
       << "|fe_depth=" << c.front_end_depth
       << "|sched_to_exec=" << c.sched_to_exec
       << "|replay_shadow=" << c.replay_shadow
       << "|detect_delay=" << c.tagelim_detect_delay
       << "|min_bpenalty=" << c.min_branch_penalty
       << "|sched=" << core::schedPolicyFor(c.wakeup).name
       << "|rf=" << core::rfPolicyFor(c.regfile).name
       << "|recovery="
       << (c.recovery == core::RecoveryModel::Selective ? "sel"
                                                        : "nonsel")
       << "|rename="
       << (c.rename == core::RenameModel::HalfPort ? "half" : "2r")
       << "|lap=" << c.lap_entries
       << "|dlt_max=" << c.dlt_max_delay
       << "|bypass=" << c.bypass_window
       << "|watchdog=" << c.watchdog_cycles
       << "|check_interval=" << c.check_interval
       << "|fu=" << c.num_int_alu << ',' << c.num_fp_alu << ','
       << c.num_int_muldiv << ',' << c.num_fp_muldiv << ','
       << c.num_mem_ports
       << "|bpred=" << c.bpred.bimodal_entries << ','
       << c.bpred.gshare_entries << ',' << c.bpred.selector_entries
       << ',' << c.bpred.history_bits << ',' << c.bpred.btb_entries
       << ',' << c.bpred.btb_assoc << ',' << c.bpred.ras_entries
       << "|il1=" << c.mem.il1.size_bytes << ',' << c.mem.il1.assoc
       << ',' << c.mem.il1.line_bytes << ',' << c.mem.il1.latency
       << "|dl1=" << c.mem.dl1.size_bytes << ',' << c.mem.dl1.assoc
       << ',' << c.mem.dl1.line_bytes << ',' << c.mem.dl1.latency
       << "|l2=" << c.mem.l2.size_bytes << ',' << c.mem.l2.assoc
       << ',' << c.mem.l2.line_bytes << ',' << c.mem.l2.latency
       << "|mem_latency=" << c.mem.mem_latency;
    return os.str();
}

std::string
JobStore::specKey(const ExperimentSpec &spec)
{
    return toHex16(fnv1a64(specCanonical(spec)));
}

std::string
JobStore::ownShardPath() const
{
    return (fs::path(dir_) / ("journal-" + worker_ + ".hpaj"))
        .string();
}

JobStore::JobStore(std::string dir, std::string worker_id)
    : dir_(std::move(dir)), worker_(std::move(worker_id))
{
    if (worker_.empty()
        || worker_.find_first_of("/\\ \t\n") != std::string::npos)
        throw ConfigError("job store: worker id '" + worker_
                          + "' must be a non-empty filename token");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        throw WorkloadError("job store: cannot create directory "
                            + dir_ + ": " + ec.message());

    std::lock_guard<std::mutex> lock(mu_);
    loadLocked();

    out_ = std::fopen(ownShardPath().c_str(), "ab");
    if (!out_)
        throw WorkloadError("job store: cannot open journal shard "
                            + ownShardPath() + ": "
                            + std::strerror(errno));
}

JobStore::~JobStore()
{
    if (out_)
        std::fclose(out_);
}

void
JobStore::loadLocked()
{
    index_.clear();
    records_.clear();
    droppedBytes_ = 0;
    droppedRecords_ = 0;
    loadedRecords_ = 0;

    std::vector<fs::path> shards;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir_, ec))
        if (e.is_regular_file() && isShardFile(e.path()))
            shards.push_back(e.path());
    std::sort(shards.begin(), shards.end());

    for (const fs::path &shard : shards) {
        const std::string text = readWholeFile(shard);
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(text.data());
        size_t off = 0, good_end = 0;
        while (off + FRAME_HEADER <= text.size()) {
            if (std::memcmp(bytes + off, MAGIC, 4) != 0)
                break;
            uint32_t len = getLE32(bytes + off + 4);
            uint64_t sum = getLE64(bytes + off + 8);
            if (len > MAX_PAYLOAD
                || off + FRAME_HEADER + len > text.size())
                break;
            std::string_view payload(text.data() + off + FRAME_HEADER,
                                     len);
            if (fnv1a64(payload) != sum)
                break;
            StoredRun r;
            if (!parseRecord(std::string(payload), r))
                break;
            ++loadedRecords_;
            auto [it, inserted] = index_.emplace(r.specKey, r);
            if (!inserted && !it->second.ok() && r.ok())
                it->second = r;
            records_.push_back(std::move(r));
            good_end = off + FRAME_HEADER + len;
            off = good_end;
        }
        if (good_end < text.size()) {
            // Torn tail or corrupt frame: everything from the first
            // bad byte on is unusable. Count it, and truncate it
            // away on the shard this process owns so the journal
            // heals in place; foreign shards are left untouched
            // (their owner may still be mid-write).
            droppedBytes_ += text.size() - good_end;
            ++droppedRecords_;
            if (shard.string() == ownShardPath()) {
                std::error_code tec;
                fs::resize_file(shard, good_end, tec);
                if (tec)
                    throw WorkloadError(
                        "job store: cannot truncate torn journal "
                        "tail of " + shard.string() + ": "
                        + tec.message());
            }
        }
    }
}

const StoredRun *
JobStore::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second;
}

size_t
JobStore::completed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
}

size_t
JobStore::okCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[key, r] : index_)
        if (r.ok())
            ++n;
    return n;
}

void
JobStore::appendRecord(const std::string &key,
                       const std::string &payload)
{
    std::string frame;
    frame.reserve(FRAME_HEADER + payload.size());
    frame.append(MAGIC, 4);
    putLE32(frame, uint32_t(payload.size()));
    putLE64(frame, fnv1a64(payload));
    frame += payload;

    if (std::fwrite(frame.data(), 1, frame.size(), out_)
            != frame.size()
        || std::fflush(out_) != 0
        || ::fsync(fileno(out_)) != 0)
        throw WorkloadError("job store: journal append failed for "
                            "cell " + key + ": "
                            + std::strerror(errno));
}

void
JobStore::append(const ExperimentSpec &spec, const RunResult &r)
{
    StoredRun s;
    s.specKey = specKey(spec);
    s.workload = spec.workload;
    s.machine = spec.machine.name;
    s.status = statusName(r.outcome.status);
    s.valid = r.valid();
    s.steadyMissing = r.outcome.steadyMissing;
    s.attempts = r.outcome.attempts;
    s.backoffMs = r.outcome.backoffMs;
    s.ipc = r.ipc;
    s.committed = r.committed;
    s.cycles = r.cycles;
    s.fastForwarded = r.fastForwarded;
    s.wallSeconds = r.wallSeconds;
    s.worker = worker_;
    if (!r.outcome.ok()) {
        s.errorKind = kindName(r.outcome.errorKind);
        s.error = r.outcome.error;
    }

    std::lock_guard<std::mutex> lock(mu_);
    appendRecord(s.specKey, recordJson(s));
    ++loadedRecords_;
    auto [it, inserted] = index_.emplace(s.specKey, s);
    if (!inserted && !it->second.ok() && s.ok())
        it->second = s;
    records_.push_back(std::move(s));
}

void
JobStore::appendFailure(const ExperimentSpec &spec,
                        const std::string &error_kind,
                        const std::string &error, unsigned attempts)
{
    StoredRun s;
    s.specKey = specKey(spec);
    s.workload = spec.workload;
    s.machine = spec.machine.name;
    s.status = statusName(RunStatus::Failed);
    s.attempts = attempts;
    s.worker = worker_;
    s.errorKind = error_kind;
    s.error = error;

    std::lock_guard<std::mutex> lock(mu_);
    appendRecord(s.specKey, recordJson(s));
    ++loadedRecords_;
    index_.emplace(s.specKey, s);
    records_.push_back(std::move(s));
}

void
JobStore::reload()
{
    std::lock_guard<std::mutex> lock(mu_);
    loadLocked();
}

size_t
JobStore::compact()
{
    std::lock_guard<std::mutex> lock(mu_);
    const size_t dropped = records_.size() - index_.size();

    const std::string tmp = ownShardPath() + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw WorkloadError("job store: cannot write compaction file "
                            + tmp);
    for (const auto &[key, r] : index_) {
        const std::string payload = recordJson(r);
        std::string frame;
        frame.append(MAGIC, 4);
        putLE32(frame, uint32_t(payload.size()));
        putLE64(frame, fnv1a64(payload));
        frame += payload;
        if (std::fwrite(frame.data(), 1, frame.size(), f)
                != frame.size()) {
            std::fclose(f);
            throw WorkloadError(
                "job store: compaction write failed for " + tmp);
        }
    }
    if (std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
        std::fclose(f);
        throw WorkloadError("job store: compaction flush failed for "
                            + tmp);
    }
    std::fclose(f);

    // The replacement shard is durable; now retire every old shard.
    // Order matters for crash safety: rename over our own shard
    // first (atomic, loaders always see either the old or the new
    // complete file), then unlink the foreign shards — a crash
    // mid-unlink only leaves duplicate records, which the ok-wins
    // load rule already dedupes.
    if (out_) {
        std::fclose(out_);
        out_ = nullptr;
    }
    std::error_code ec;
    fs::rename(tmp, ownShardPath(), ec);
    if (ec)
        throw WorkloadError("job store: compaction rename failed: "
                            + ec.message());
    for (const auto &e : fs::directory_iterator(dir_, ec))
        if (e.is_regular_file() && isShardFile(e.path())
            && e.path().string() != ownShardPath())
            fs::remove(e.path(), ec);

    loadLocked();
    out_ = std::fopen(ownShardPath().c_str(), "ab");
    if (!out_)
        throw WorkloadError("job store: cannot reopen journal shard "
                            + ownShardPath() + " after compaction");
    return dropped;
}

bool
JobStore::armInjectionOnce(const std::string &kind, size_t index)
{
    const std::string marker =
        (fs::path(dir_)
         / ("inject-" + kind + "-" + std::to_string(index)
            + ".armed"))
            .string();
    // "wx" = O_CREAT|O_EXCL: exactly one caller per store wins.
    std::FILE *f = std::fopen(marker.c_str(), "wx");
    if (!f)
        return false;
    std::fputs("armed\n", f);
    std::fclose(f);
    return true;
}

} // namespace hpa::sim
