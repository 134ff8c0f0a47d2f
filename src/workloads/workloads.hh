/**
 * @file
 * SPEC CINT2000 substitute workloads (Table 2). Each benchmark is an
 * HPA-ISA assembly kernel chosen to mimic the dominant behaviour of
 * its SPEC counterpart, paired with a C++ golden model that predicts
 * the bytes the kernel emits via OUT — used by the test suite to
 * validate the assembler, emulator and kernels end-to-end.
 *
 * | name   | SPEC benchmark | kernel                                 |
 * |--------|----------------|----------------------------------------|
 * | bzip   | 256.bzip2      | RLE + move-to-front coding             |
 * | crafty | 186.crafty     | bitboard fills and popcounts           |
 * | eon    | 252.eon        | ray-sphere intersection (FP)           |
 * | gap    | 254.gap        | bignum add/multiply                    |
 * | gcc    | 176.gcc        | expression-tree constant folding       |
 * | gzip   | 164.gzip       | LZ77 hash-chain match search           |
 * | mcf    | 181.mcf        | Bellman-Ford edge relaxation           |
 * | parser | 197.parser     | tokenizer + open-addressing dictionary |
 * | perl   | 253.perlbmk    | stack-machine bytecode interpreter     |
 * | twolf  | 300.twolf      | annealing-style cell swaps             |
 * | vortex | 255.vortex     | object-record transactions             |
 * | vpr    | 175.vpr        | maze-routing BFS wavefront             |
 */

#ifndef HPA_WORKLOADS_WORKLOADS_HH
#define HPA_WORKLOADS_WORKLOADS_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "asm/assembler.hh"
#include "func/trace.hh"

namespace hpa::workloads
{

/** Workload size. Test scale finishes quickly and is verified against
 *  the golden model; Full scale provides enough dynamic instructions
 *  for timing measurements. */
enum class Scale
{
    Test,
    Full,
};

/** A built benchmark substitute. */
struct Workload
{
    std::string name;
    std::string description;
    assembler::Program program;
    /** Bytes the program emits via OUT (golden-model prediction). */
    std::string expectedConsole;
};

/** The twelve benchmark names, in Table 2 order. */
const std::vector<std::string> &benchmarkNames();

/** Build one benchmark substitute by name; throws on unknown name. */
Workload make(const std::string &name, Scale scale = Scale::Full);

/** Build all twelve. */
std::vector<Workload> makeAll(Scale scale = Scale::Full);

/**
 * Build-once, thread-safe workload cache. Assembling a full-scale
 * kernel is orders of magnitude slower than looking it up, and the
 * parallel sweep engine hits the same (name, scale) pairs from many
 * worker threads at once: each entry is built exactly once (under a
 * per-entry once_flag, so distinct workloads still build
 * concurrently) and lives for the cache's lifetime — returned
 * references are stable.
 */
class WorkloadCache
{
  public:
    /** Get (building on first use) one workload. */
    const Workload &get(const std::string &name,
                        Scale scale = Scale::Full);

    /**
     * Get (capturing on first use) the committed trace of one
     * workload under a given fast-forward PC and instruction budget
     * — the trace-once half of trace-once/replay-many sweeps. Like
     * get(), each trace is captured exactly once per key under a
     * per-entry once_flag and the returned reference is stable and
     * immutable, so any number of sweep threads' cores can replay
     * it concurrently.
     */
    const func::CommittedTrace &trace(const std::string &name,
                                      Scale scale, uint64_t max_insts,
                                      uint64_t fast_forward_pc);

  private:
    struct Entry
    {
        std::once_flag once;
        Workload w;
    };

    /** (name, scale, max_insts, fast_forward_pc). */
    using TraceKey =
        std::tuple<std::string, Scale, uint64_t, uint64_t>;

    struct TraceEntry
    {
        std::once_flag once;
        /** Stable address even if the map's node type changes. */
        std::unique_ptr<func::CommittedTrace> t;
    };

    std::mutex mu_;
    /** Node-stable map: entry addresses survive later insertions. */
    std::map<std::pair<std::string, Scale>, Entry> entries_;
    std::map<TraceKey, TraceEntry> traces_;
};

/** Process-wide shared cache used by the sweep engine and the tools
 *  (one build of each program per process). */
WorkloadCache &globalCache();

// Individual builders.
Workload makeBzip(Scale scale);
Workload makeCrafty(Scale scale);
Workload makeEon(Scale scale);
Workload makeGap(Scale scale);
Workload makeGcc(Scale scale);
Workload makeGzip(Scale scale);
Workload makeMcf(Scale scale);
Workload makeParser(Scale scale);
Workload makePerl(Scale scale);
Workload makeTwolf(Scale scale);
Workload makeVortex(Scale scale);
Workload makeVpr(Scale scale);

} // namespace hpa::workloads

#endif // HPA_WORKLOADS_WORKLOADS_HH
