/** @file Differential and fuzz tests: decoder robustness on random
 *  words, disassemble->assemble round trips, sparse memory vs a
 *  reference map, cache vs a reference LRU model, emulator
 *  determinism on random straight-line programs, the core's
 *  incremental scheduler lists vs a brute-force window recompute,
 *  and the bit-plane scan helpers vs a brute-force ring walk. */

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/containers.hh"
#include "core/core.hh"
#include "core/event_queue.hh"
#include "core/policy_registry.hh"
#include "core/synthetic.hh"
#include "func/emulator.hh"
#include "mem/cache.hh"

namespace
{

using namespace hpa;
using isa::Opcode;

TEST(DecoderFuzz, RandomWordsNeverCrashAndReencodeStably)
{
    std::mt19937_64 rng(42);
    unsigned decoded = 0;
    for (int i = 0; i < 200000; ++i) {
        auto w = static_cast<isa::MachInst>(rng());
        auto si = isa::decode(w);
        if (!si)
            continue;
        ++decoded;
        // Decode must be stable across an encode round trip.
        auto si2 = isa::decode(isa::encode(*si));
        ASSERT_TRUE(si2.has_value());
        EXPECT_EQ(si2->op, si->op);
        EXPECT_EQ(si2->ra, si->ra);
        EXPECT_EQ(si2->rb, si->rb);
        EXPECT_EQ(si2->rc, si->rc);
        EXPECT_EQ(si2->useLiteral, si->useLiteral);
        EXPECT_EQ(si2->literal, si->literal);
        EXPECT_EQ(si2->disp, si->disp);
        // Disassembly of any legal instruction is printable.
        EXPECT_FALSE(si->disassemble().empty());
    }
    // A healthy fraction of random words decode.
    EXPECT_GT(decoded, 10000u);
}

TEST(DisasmFuzz, DisassembleAssembleRoundTrip)
{
    std::mt19937_64 rng(7);
    auto reg = [&] { return isa::RegIndex(rng() & 31); };

    for (int i = 0; i < 4000; ++i) {
        isa::StaticInst si;
        switch (rng() % 6) {
          case 0: {
            auto op = Opcode(rng() % (unsigned(Opcode::S8ADD) + 1));
            si = rng() & 1
                ? isa::makeOpImm(op, reg(), uint8_t(rng()), reg())
                : isa::makeOp(op, reg(), reg(), reg());
            break;
          }
          case 1: {
            unsigned base = unsigned(Opcode::ADDF);
            auto op = Opcode(base + rng() % 7);   // 2-source fp ops
            si = isa::makeOp(op, reg(), reg(), reg());
            break;
          }
          case 2: {
            const Opcode mem[] = {Opcode::LDA, Opcode::LDAH,
                                  Opcode::LDBU, Opcode::LDW,
                                  Opcode::LDL, Opcode::LDQ,
                                  Opcode::STB, Opcode::STW,
                                  Opcode::STL, Opcode::STQ};
            si = isa::makeMem(mem[rng() % 10], reg(), reg(),
                              int32_t(rng() % 65536) - 32768);
            break;
          }
          case 3: {
            const Opcode br[] = {Opcode::BR, Opcode::BSR, Opcode::BEQ,
                                 Opcode::BNE, Opcode::BLT, Opcode::BLE,
                                 Opcode::BGT, Opcode::BGE,
                                 Opcode::BLBC, Opcode::BLBS};
            si = isa::makeBranch(br[rng() % 10], reg(),
                                 int32_t(rng() % 1024) - 512);
            break;
          }
          case 4: {
            const Opcode j[] = {Opcode::JMP, Opcode::JSR, Opcode::RET};
            si = isa::makeJump(j[rng() % 3], reg(), reg());
            break;
          }
          default:
            si = rng() & 1 ? isa::makeSystem(Opcode::HALT)
                           : isa::makeSystem(Opcode::OUT, reg());
        }

        std::string text = si.disassemble();
        assembler::Program p;
        ASSERT_NO_THROW(p = assembler::assemble(text)) << text;
        ASSERT_EQ(p.code.size(), 1u) << text;
        auto back = isa::decode(p.code[0]);
        ASSERT_TRUE(back.has_value()) << text;
        EXPECT_EQ(back->op, si.op) << text;
        EXPECT_EQ(back->disp, si.disp) << text;
        EXPECT_EQ(isa::encode(*back), isa::encode(si)) << text;
    }
}

TEST(MemoryFuzz, MatchesReferenceMap)
{
    std::mt19937_64 rng(99);
    func::Memory mem;
    std::map<uint64_t, uint8_t> ref;

    for (int i = 0; i < 50000; ++i) {
        // Cluster addresses to hit page boundaries often.
        uint64_t addr = (rng() % 8) * func::Memory::PAGE_SIZE
            + (rng() % 32) + func::Memory::PAGE_SIZE - 16;
        unsigned size = 1u << (rng() % 4);
        if (rng() & 1) {
            uint64_t v = rng();
            mem.write(addr, v, size);
            for (unsigned b = 0; b < size; ++b)
                ref[addr + b] = uint8_t(v >> (8 * b));
        } else {
            uint64_t got = mem.read(addr, size);
            uint64_t want = 0;
            for (unsigned b = 0; b < size; ++b) {
                auto it = ref.find(addr + b);
                uint64_t byte = it == ref.end() ? 0 : it->second;
                want |= byte << (8 * b);
            }
            ASSERT_EQ(got, want) << "addr " << addr << " size " << size;
        }
    }
}

/** Reference set-associative LRU cache. */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned assoc, unsigned line)
        : sets_(sets), assoc_(assoc), line_(line), data_(sets)
    {}

    bool
    access(uint64_t addr)
    {
        uint64_t tag = addr / line_;
        auto &set = data_[(addr / line_) % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                set.erase(it);
                set.insert(set.begin(), tag);
                return true;
            }
        }
        set.insert(set.begin(), tag);
        if (set.size() > assoc_)
            set.pop_back();
        return false;
    }

  private:
    unsigned sets_, assoc_, line_;
    std::vector<std::vector<uint64_t>> data_;
};

class CacheFuzz
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheFuzz, MatchesReferenceLru)
{
    auto [assoc, line] = GetParam();
    unsigned sets = 16;
    mem::Cache cache(mem::CacheConfig{
        "fuzz", uint64_t(sets) * assoc * line, assoc, line, 1});
    RefCache ref(sets, assoc, line);

    std::mt19937_64 rng(assoc * 1000 + line);
    for (int i = 0; i < 30000; ++i) {
        uint64_t addr = rng() % (sets * assoc * line * 4);
        bool hit = cache.access(addr, rng() & 1).hit;
        bool ref_hit = ref.access(addr);
        ASSERT_EQ(hit, ref_hit) << "i=" << i << " addr=" << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFuzz,
    ::testing::Values(std::tuple{1u, 16u}, std::tuple{2u, 16u},
                      std::tuple{4u, 32u}, std::tuple{8u, 64u}));

/**
 * Scheduler fuzz: drive the core cycle by cycle on a synthetic
 * committed path (loads, stores, branches, replays) and assert after
 * every tick that the incrementally maintained ready/issued/store
 * lists match a brute-force recompute over the whole window, and
 * that every dependency bit of an in-window producer names an
 * operand waiting on it (readyListConsistent()). One row per run:
 * a window size, a wakeup x register-file pair by registry key, a
 * recovery scheme, and the stream's seed and shape. Every registered
 * pair has a row; the shapes vary the two-source fraction, the
 * dependence distance and the memory mix, and the dense seq/seq-rf
 * rows drive sequential wakeup with sequential register access on
 * two-source streams. A 32-slot window and a 16-entry LSQ force
 * frequent ring-buffer wraps and replay squashes through the
 * two-segment plane scans; the 64- and 128-slot rows (the Table 1
 * windows, 128 on the 8-wide machine) take the rotated scans
 * (containers.hh), with an LSQ of half the window.
 */
TEST(CoreReadyListFuzz, IncrementalListsMatchBruteForceEveryCycle)
{
    struct Row
    {
        unsigned ruu;
        const char *wakeup;
        const char *regfile;
        core::RecoveryModel recovery;
        uint64_t seed;
        double two_source_frac;
        double dep_distance_p;
        double load_frac;
        double store_frac;
    };
    constexpr core::RecoveryModel NS = core::RecoveryModel::NonSelective;
    constexpr core::RecoveryModel SEL = core::RecoveryModel::Selective;
    const Row rows[] = {
        // ruu, wakeup, regfile, recovery, seed, 2-source, dep p, load, store
        {32, "conv", "2port", NS, 1, 0.30, 0.35, 0.25, 0.15},
        {32, "conv", "2port", SEL, 77, 0.30, 0.35, 0.25, 0.15},
        {32, "conv", "seq", NS, 101, 0.15, 0.15, 0.10, 0.00},
        {32, "conv", "extra-stage", SEL, 102, 0.30, 0.35, 0.20, 0.10},
        {32, "conv", "half-xbar", NS, 103, 0.45, 0.55, 0.30, 0.00},
        {32, "conv", "prefetch", SEL, 104, 0.60, 0.75, 0.10, 0.10},
        {32, "seq", "2port", NS, 105, 0.75, 0.15, 0.20, 0.00},
        {32, "seq", "seq", NS, 4242, 0.30, 0.35, 0.25, 0.15},
        {32, "seq", "extra-stage", SEL, 106, 0.15, 0.35, 0.30, 0.10},
        {32, "seq", "half-xbar", NS, 107, 0.30, 0.55, 0.10, 0.00},
        {32, "seq", "prefetch", SEL, 108, 0.45, 0.75, 0.20, 0.10},
        {32, "seq-nopred", "2port", SEL, 1, 0.30, 0.35, 0.25, 0.15},
        {32, "seq-nopred", "seq", NS, 109, 0.60, 0.15, 0.30, 0.00},
        {32, "seq-nopred", "extra-stage", NS, 110, 0.75, 0.35, 0.10, 0.10},
        {32, "seq-nopred", "half-xbar", SEL, 111, 0.15, 0.15, 0.10, 0.00},
        {32, "seq-nopred", "prefetch", NS, 112, 0.30, 0.35, 0.20, 0.10},
        {32, "tag-elim", "2port", NS, 77, 0.30, 0.35, 0.25, 0.15},
        {32, "tag-elim", "seq", SEL, 113, 0.45, 0.55, 0.30, 0.00},
        {32, "tag-elim", "extra-stage", NS, 114, 0.60, 0.75, 0.10, 0.10},
        {32, "tag-elim", "half-xbar", SEL, 115, 0.75, 0.15, 0.20, 0.00},
        {32, "tag-elim", "prefetch", NS, 116, 0.15, 0.35, 0.30, 0.10},
        {32, "dlt", "2port", SEL, 117, 0.30, 0.55, 0.10, 0.00},
        {32, "dlt", "seq", NS, 118, 0.45, 0.75, 0.20, 0.10},
        {32, "dlt", "extra-stage", SEL, 119, 0.60, 0.15, 0.30, 0.00},
        {32, "dlt", "half-xbar", NS, 120, 0.75, 0.35, 0.10, 0.10},
        {32, "dlt", "prefetch", SEL, 4242, 0.30, 0.35, 0.25, 0.15},
        {32, "seq", "seq", NS, 11, 0.50, 0.35, 0.25, 0.10},
        {32, "seq", "seq", NS, 2025, 0.50, 0.35, 0.25, 0.10},
        {32, "seq", "seq", NS, 777777, 0.50, 0.35, 0.25, 0.10},
        {64, "conv", "2port", NS, 1, 0.30, 0.35, 0.25, 0.15},
        {64, "seq", "seq", NS, 4242, 0.50, 0.35, 0.25, 0.10},
        {64, "tag-elim", "half-xbar", SEL, 115, 0.75, 0.15, 0.20, 0.00},
        {64, "dlt", "prefetch", SEL, 121, 0.45, 0.55, 0.30, 0.10},
        {128, "conv", "2port", SEL, 77, 0.30, 0.35, 0.25, 0.15},
        {128, "seq", "seq", NS, 11, 0.50, 0.35, 0.25, 0.10},
        {128, "tag-elim", "half-xbar", NS, 122, 0.60, 0.55, 0.30, 0.05},
        {128, "seq-nopred", "extra-stage", SEL, 123, 0.45, 0.35, 0.20,
         0.10},
    };

    for (const core::SchedPolicyInfo &w : core::schedPolicies())
        for (const core::RFPolicyInfo &r : core::rfPolicies())
            EXPECT_TRUE(std::any_of(
                std::begin(rows), std::end(rows), [&](const Row &row) {
                    return std::string_view(row.wakeup) == w.name
                        && std::string_view(row.regfile) == r.name;
                }))
                << w.name << " x " << r.name << " has no row";

    for (const Row &row : rows) {
        const std::string tag = std::to_string(row.ruu) + " slots, "
            + row.wakeup + " x " + row.regfile + " seed "
            + std::to_string(row.seed);
        const core::SchedPolicyInfo *w = core::findSchedPolicy(row.wakeup);
        const core::RFPolicyInfo *r = core::findRFPolicy(row.regfile);
        ASSERT_TRUE(w && r) << tag;

        core::SyntheticParams sp;
        sp.num_insts = 2500;
        sp.seed = row.seed;
        sp.two_source_frac = row.two_source_frac;
        sp.dep_distance_p = row.dep_distance_p;
        sp.load_frac = row.load_frac;
        sp.store_frac = row.store_frac;
        func::CommittedTrace trace = core::syntheticTrace(sp);

        core::CoreConfig cfg = row.ruu == 128 ? core::eightWideConfig()
                                              : core::fourWideConfig();
        cfg.ruu_size = row.ruu;
        cfg.lsq_size = row.ruu / 2;
        cfg.wakeup = w->model;
        cfg.regfile = r->model;
        cfg.recovery = row.recovery;

        core::Core c(cfg, trace);
        uint64_t guard = 0;
        while (!c.done() && guard++ < 200000) {
            c.tick();
            ASSERT_TRUE(c.readyListConsistent())
                << tag << " cycle " << c.cycle();
        }
        ASSERT_TRUE(c.done()) << tag;
        EXPECT_TRUE(c.readyListSnapshot().empty()) << tag;
        EXPECT_EQ(c.stats().committed.value(), sp.num_insts) << tag;
    }
}

/**
 * Differential test of the bit-plane scan helpers (containers.hh)
 * against a brute-force walk of the ring from head: random plane
 * words of several densities, every head, and a callback that stops
 * after k visits. The 64- and 128-slot rings take the rotated path,
 * the other sizes the two-segment scan. The words carry random bits
 * past the ring's end, which no scan may visit.
 */
TEST(ScanHelperFuzz, AgeOrderScansMatchBruteForce)
{
    struct Row
    {
        unsigned slots;
        uint64_t seed;
    };
    const Row rows[] = {{8, 1},  {32, 2},  {64, 3},
                        {96, 4}, {128, 5}, {200, 6}};
    const unsigned stops[] = {1, 3, ~0u};

    for (const Row &row : rows) {
        std::mt19937_64 rng(row.seed);
        const size_t words = (row.slots + 63) / 64;
        auto bit = [](const std::vector<uint64_t> &w, unsigned s) {
            return ((w[s >> 6] >> (s & 63)) & 1) != 0;
        };
        // The slots whose bit @p in(slot) holds, oldest first from
        // head, at most k of them.
        auto walk = [&](unsigned head, unsigned k, auto in) {
            std::vector<unsigned> v;
            for (unsigned i = 0; i < row.slots && v.size() < k; ++i) {
                const unsigned s = (head + i) % row.slots;
                if (in(s))
                    v.push_back(s);
            }
            return v;
        };
        for (unsigned trial = 0; trial < 8; ++trial) {
            std::vector<uint64_t> a(words), b(words);
            for (size_t i = 0; i < words; ++i) {
                switch (trial % 4) {
                  case 0: a[i] = rng() & rng() & rng(); break;
                  case 1: a[i] = rng(); break;
                  case 2: a[i] = rng() | rng(); break;
                  default: a[i] = ~uint64_t(0); break;
                }
                b[i] = rng();
            }
            for (unsigned head = 0; head < row.slots; ++head) {
                const std::string tag = std::to_string(row.slots)
                    + " slots, trial " + std::to_string(trial) + ", head "
                    + std::to_string(head);
                for (unsigned k : stops) {
                    auto stopAfterK = [k](std::vector<unsigned> &got) {
                        return [&got, k](unsigned s) {
                            got.push_back(s);
                            return got.size() < k;
                        };
                    };
                    std::vector<unsigned> got;
                    core::scanSetBitsFrom(a.data(), row.slots, head,
                                          stopAfterK(got));
                    ASSERT_EQ(got, walk(head, k, [&](unsigned s) {
                                  return bit(a, s);
                              }))
                        << tag << ", k " << k;
                    for (bool comp : {false, true}) {
                        got.clear();
                        core::scanSetBitsFromAnd(a.data(), b.data(), comp,
                                                 row.slots, head,
                                                 stopAfterK(got));
                        ASSERT_EQ(got, walk(head, k, [&](unsigned s) {
                                      return bit(a, s) && bit(b, s) != comp;
                                  }))
                            << tag << ", k " << k << ", complement "
                            << comp;
                    }
                }
                // The union scan visits every slot of a | b with the
                // planes that hold it.
                std::vector<std::tuple<unsigned, bool, bool>> got2, want2;
                core::scanSetBitsFrom2(
                    a.data(), b.data(), row.slots, head,
                    [&](unsigned s, bool in_a, bool in_b) {
                        got2.emplace_back(s, in_a, in_b);
                    });
                for (unsigned s : walk(head, ~0u, [&](unsigned s) {
                         return bit(a, s) || bit(b, s);
                     }))
                    want2.emplace_back(s, bit(a, s), bit(b, s));
                ASSERT_EQ(got2, want2) << tag;
            }
        }
    }
}

TEST(CalendarQueueFuzz, MatchesMapReference)
{
    // Differential fuzz of the calendar event queue against a
    // std::map<cycle, per-rank vectors> reference: random deltas
    // spanning the ring interior, near-future hot-path distances and
    // the exact horizon (the ring is sized to the largest delta,
    // rounded up to a power of two), with new events scheduled from
    // inside drain() — exactly what core event handlers do — and a
    // random delivery rank per event so every (slot, rank) list is
    // exercised. Per cycle, drain() must deliver the reference's
    // events in content AND order: rank-ascending, schedule order
    // within a rank.
    using RankedBucket = std::array<std::vector<uint32_t>, 3>;
    const uint64_t HORIZON = 300; // largest delta scheduled below
    const size_t CAPACITY = 4096;
    for (uint64_t seed : {7ull, 1234ull, 998877ull}) {
        std::mt19937_64 rng(seed);
        core::CalendarQueue<uint32_t, 3> q(HORIZON, CAPACITY);
        ASSERT_EQ(q.horizon(), 511u) << "ring = next power of 2 above";
        ASSERT_EQ(q.capacity(), CAPACITY);
        std::map<uint64_t, RankedBucket> ref;
        uint32_t next_id = 0;

        auto scheduleRandom = [&](uint64_t now) {
            uint64_t delta;
            switch (rng() % 4) {
              case 0:
                delta = 1 + rng() % 8;               // near future
                break;
              case 1:
                delta = HORIZON - rng() % 3;         // the horizon
                break;
              default:
                delta = 1 + rng() % HORIZON;         // anywhere
                break;
            }
            if (q.full()) {
                ADD_FAILURE() << "pool full at cycle " << now;
                return;
            }
            uint32_t id = next_id++;
            unsigned rank = unsigned(rng() % 3);
            q.schedule(now + delta, now, id, rank);
            ref[now + delta][rank].push_back(id);
        };

        // Drain cycle `now` and compare with the reference. The
        // cycle's first event schedules up to three follow-ups while
        // the drain is still walking its lists.
        auto drainAndCheck = [&](uint64_t now, bool follow_ups) {
            std::vector<uint32_t> got;
            q.drain(now, [&](uint32_t id) {
                got.push_back(id);
                if (follow_ups && got.size() == 1)
                    for (unsigned k = rng() % 4; k > 0; --k)
                        scheduleRandom(now);
            });
            std::vector<uint32_t> want;
            auto it = ref.find(now);
            if (it != ref.end()) {
                for (const std::vector<uint32_t> &rank : it->second)
                    want.insert(want.end(), rank.begin(), rank.end());
                ref.erase(it);
            }
            return got == want;
        };

        uint64_t now = 0;
        for (int step = 0; step < 4000; ++step) {
            ++now;
            ASSERT_TRUE(drainAndCheck(now, true))
                << "seed " << seed << " cycle " << now;
            for (unsigned k = rng() % 2; k > 0; --k)
                scheduleRandom(now);
        }

        // Drain everything left so the accounting closes.
        size_t left = 0;
        for (const auto &[when, evs] : ref)
            for (const auto &r : evs)
                left += r.size();
        ASSERT_EQ(q.pending(), left) << "seed " << seed;
        while (!ref.empty()) {
            ++now;
            ASSERT_TRUE(drainAndCheck(now, false))
                << "seed " << seed << " cycle " << now;
        }
        ASSERT_EQ(q.pending(), 0u) << "seed " << seed;
    }
}

TEST(CalendarQueueFuzz, FixedCapacityPoolFillsAndRecycles)
{
    // A queue of capacity N takes exactly N schedules before full(),
    // and every node a drain releases is reusable: fill, drain,
    // refill (into other slots and ranks) and drain again, checking
    // delivery order each time.
    const size_t N = 10;
    core::CalendarQueue<uint32_t, 2> q(7, N);
    for (uint32_t i = 0; i < N; ++i) {
        ASSERT_FALSE(q.full()) << "after " << i << " schedules";
        q.schedule(1 + i % 3, 0, i, i % 2);
    }
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.pending(), N);

    std::vector<uint32_t> got;
    auto collect = [&](uint32_t id) { got.push_back(id); };
    for (uint64_t now = 1; now <= 3; ++now)
        q.drain(now, collect);
    // Cycle 1 holds 0,3,6,9 (ranks 0,1,0,1), cycle 2 holds 1,4,7
    // (ranks 1,0,1), cycle 3 holds 2,5,8 (ranks 0,1,0).
    EXPECT_EQ(got, (std::vector<uint32_t>{0, 6, 3, 9, 4, 1, 7, 2, 8,
                                          5}));
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.pending(), 0u);

    // Reuse: N more schedules fit again, in different slots.
    for (uint32_t i = 0; i < N; ++i)
        q.schedule(4 + i % 7, 3, 100 + i, (i + 1) % 2);
    EXPECT_TRUE(q.full());
    got.clear();
    for (uint64_t now = 4; now <= 10; ++now)
        q.drain(now, collect);
    EXPECT_EQ(got.size(), N);
    EXPECT_EQ(got.front(), 100u + 7);   // cycle 4, rank 0 first
    EXPECT_EQ(q.pending(), 0u);
}

TEST(CoreEventHorizonFuzz, FarFutureLatenciesKeepListsConsistent)
{
    // Drive real cores whose load-miss completions land far ahead
    // (memory latency 1500, so the calendar ring is sized to 2048
    // slots and wraps many times per run, over a 24,240-node event
    // pool) while ALU wakes stay near. The incremental scheduler
    // planes must stay consistent every cycle, and the run must
    // still commit every instruction.
    for (uint64_t seed : {5ull, 909ull}) {
        core::SyntheticParams sp;
        sp.num_insts = 2000;
        sp.seed = seed;
        sp.load_frac = 0.30;
        sp.store_frac = 0.10;
        // Small span so the same lines thrash between hits/misses.
        sp.mem_span = 1 << 14;
        func::CommittedTrace trace = core::syntheticTrace(sp);

        core::CoreConfig cfg = core::fourWideConfig();
        cfg.ruu_size = 32;
        cfg.lsq_size = 16;
        cfg.mem.mem_latency = 1500;
        cfg.watchdog_cycles = 500000;

        core::Core c(cfg, trace);
        uint64_t guard = 0;
        while (!c.done() && guard++ < 2000000) {
            c.tick();
            ASSERT_TRUE(c.readyListConsistent())
                << "seed " << seed << " cycle " << c.cycle();
        }
        ASSERT_TRUE(c.done()) << "seed " << seed;
        EXPECT_EQ(c.stats().committed.value(), sp.num_insts)
            << "seed " << seed;
    }
}

TEST(EmulatorFuzz, RandomStraightLineProgramsAreDeterministic)
{
    std::mt19937_64 rng(31337);
    for (int trial = 0; trial < 40; ++trial) {
        // Random operate-only program (no control, no memory).
        std::vector<isa::MachInst> code;
        for (int i = 0; i < 200; ++i) {
            auto op = Opcode(rng() % (unsigned(Opcode::S8ADD) + 1));
            isa::StaticInst si = rng() & 1
                ? isa::makeOpImm(op, isa::RegIndex(rng() & 31),
                                 uint8_t(rng()),
                                 isa::RegIndex(rng() & 31))
                : isa::makeOp(op, isa::RegIndex(rng() & 31),
                              isa::RegIndex(rng() & 31),
                              isa::RegIndex(rng() & 31));
            code.push_back(isa::encode(si));
        }
        code.push_back(isa::encode(isa::makeSystem(Opcode::HALT)));

        assembler::Program prog;
        prog.codeBase = 0x1000;
        prog.entry = 0x1000;
        prog.code = code;

        func::Emulator a(prog), b(prog);
        a.run(1000);
        b.run(1000);
        ASSERT_TRUE(a.halted());
        for (unsigned r = 0; r < isa::NUM_INT_REGS; ++r)
            ASSERT_EQ(a.intReg(r), b.intReg(r)) << "reg " << r;
        ASSERT_EQ(a.intReg(31), 0);
    }
}

} // namespace
