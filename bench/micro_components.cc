/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's building
 * blocks: cache accesses, branch predictor lookups, emulator
 * stepping, assembler throughput and whole-core cycle throughput.
 */

#include <benchmark/benchmark.h>

#include "asm/assembler.hh"
#include "bpred/bpred.hh"
#include "core/core.hh"
#include "core/inst_source.hh"
#include "func/emulator.hh"
#include "mem/hierarchy.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache c(mem::CacheConfig{"c", 64 * 1024, 4, 16, 2});
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(addr, false));
        addr += 16384 + 16;   // mix of hits and conflict misses
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyDataAccess(benchmark::State &state)
{
    mem::Hierarchy h;
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.dataAccess(addr, false));
        addr += 64;
    }
}
BENCHMARK(BM_HierarchyDataAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    bpred::BranchPredictor bp;
    auto br = isa::makeBranch(isa::Opcode::BNE, 1, 8);
    uint64_t pc = 0x1000;
    bool t = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.predict(pc, br));
        bp.resolve(pc, br, t, pc + 36);
        pc = (pc + 4) & 0xFFFF;
        t = !t;
    }
}
BENCHMARK(BM_BranchPredict);

void
BM_EmulatorStep(benchmark::State &state)
{
    auto w = workloads::make("crafty", workloads::Scale::Full);
    func::Emulator emu(w.program);
    for (auto _ : state) {
        if (emu.halted())
            state.SkipWithError("halted");
        benchmark::DoNotOptimize(emu.step());
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_EmulatorStep);

void
BM_Assembler(benchmark::State &state)
{
    std::string src;
    for (int i = 0; i < 200; ++i)
        src += "add r1, r2, r3\nldq r4, 8(r5)\nbne r1, -2\n";
    for (auto _ : state)
        benchmark::DoNotOptimize(assembler::assemble(src));
    state.SetItemsProcessed(int64_t(state.iterations()) * 600);
}
BENCHMARK(BM_Assembler);

void
BM_CoreTick(benchmark::State &state)
{
    auto w = workloads::make("gzip", workloads::Scale::Full);
    func::Emulator emu(w.program);
    core::EmulatorSource src(emu);
    core::Core c(core::fourWideConfig(), src);
    for (auto _ : state) {
        if (c.done())
            state.SkipWithError("drained");
        c.tick();
    }
    state.counters["insts_per_cycle"] = benchmark::Counter(
        double(c.stats().committed.value()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreTick);

/**
 * The scheduler inner loop in isolation: a dependence-dense
 * synthetic stream on the 8-wide machine keeps the window full, so
 * nearly every tick pays wakeup broadcasts plus the age-ordered
 * select scan rather than fetch or memory: the cost of the ready and
 * issued bit planes and the dependency-matrix broadcasts.
 */
void
BM_WakeupSelect(benchmark::State &state)
{
    core::CoreConfig cfg = core::eightWideConfig();
    core::SyntheticParams p;
    p.num_insts = uint64_t(1) << 40; // never drains in-bench
    p.two_source_frac = 0.6;         // dense wakeup traffic
    p.dep_distance_p = 0.5;          // short dependence distances
    p.load_frac = 0.1;
    p.store_frac = 0.05;
    p.branch_frac = 0.05;
    core::SyntheticSource src(p);
    core::Core c(cfg, src);
    for (auto _ : state)
        c.tick();
    state.counters["issued_per_cycle"] = benchmark::Counter(
        double(c.stats().issued.value()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WakeupSelect);

void
BM_WorkloadBuild(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            workloads::make("bzip", workloads::Scale::Full));
}
BENCHMARK(BM_WorkloadBuild);

} // namespace

BENCHMARK_MAIN();
