/** @file Dynamic half of the zero-steady-state-allocation claim,
 *  cross-validating hpa_prove's static P1 proof: this binary
 *  replaces the global operator new with a counting wrapper, warms a
 *  trace-backed core past every ring/vector high-water mark, then
 *  counts allocations across thousands more Core::tick() calls. Any
 *  count above zero fails — P1 proves from the call graph that no
 *  allocator is reachable except the std::vector growth helpers it
 *  excuses, and this test shows that growth is quiescent once warm
 *  (plus regressions in the window-sized containers themselves). */

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/core.hh"
#include "func/trace.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_armed{false};

void *
countedAlloc(std::size_t n)
{
    if (g_armed.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

// Replaceable global allocation functions (count when armed). The
// aligned-new overloads are deliberately not replaced: nothing on
// the tick path uses over-aligned types, and the default ones fall
// back to these anyway on this ABI.
void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace hpa;

uint64_t
steadyPc(const workloads::Workload &w)
{
    auto it = w.program.symbols.find("steady");
    return it != w.program.symbols.end() ? it->second : 0;
}

/** The counter itself must count, or a silent linker change could
 *  turn every zero-allocation assertion into a vacuous pass. */
TEST(HotPathAllocCounter, CounterObservesHeapTraffic)
{
    g_allocs.store(0);
    g_armed.store(true);
    {
        std::vector<int> v;
        v.reserve(1024);
    }
    g_armed.store(false);
    EXPECT_GT(g_allocs.load(), 0u)
        << "operator new replacement is not linked in";
}

/** Warm a trace-backed core on @p bench, then require that @p
 *  measure_cycles further ticks perform zero heap allocations. */
void
expectSteadyStateAllocFree(const std::string &bench,
                           core::CoreConfig cfg)
{
    const uint64_t budget = 60000;
    const uint64_t warm_insts = 30000;
    const uint64_t measure_cycles = 5000;

    auto &cache = workloads::globalCache();
    const workloads::Workload &w = cache.get(bench);
    const func::CommittedTrace &trace =
        cache.trace(bench, workloads::Scale::Full, budget,
                    steadyPc(w));
    core::Core core(cfg, trace);

    while (core.stats().committed.value() < warm_insts
           && !core.done()) {
        core.tick();
        ASSERT_LT(core.cycle(), 10 * budget) << bench
            << ": warm-up did not reach " << warm_insts
            << " committed instructions";
    }
    ASSERT_FALSE(core.done())
        << bench << ": trace exhausted during warm-up; measurement "
        << "window would be idle";

    g_allocs.store(0);
    g_armed.store(true);
    for (uint64_t i = 0; i < measure_cycles && !core.done(); ++i)
        core.tick();
    g_armed.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << bench << ": steady-state Core::tick allocated (cycle "
        << core.cycle() << ", committed "
        << core.stats().committed.value() << ")";
}

TEST(HotPathAlloc, BaseMachineGzip)
{
    expectSteadyStateAllocFree("gzip", core::fourWideConfig());
}

TEST(HotPathAlloc, BaseMachineCrafty)
{
    expectSteadyStateAllocFree("crafty", core::fourWideConfig());
}

TEST(HotPathAlloc, EightWideMcf)
{
    expectSteadyStateAllocFree("mcf", core::eightWideConfig());
}

/** The half-price techniques share tick()'s bookkeeping; the
 *  allocation-free property must hold for them too, not just the
 *  base machine. */
TEST(HotPathAlloc, HalfPriceMachineGzip)
{
    sim::Machine m = sim::Machine::base(4)
                         .wakeup(core::WakeupModel::Sequential)
                         .regfile(core::RegfileModel::SequentialAccess)
                         .recovery(core::RecoveryModel::Selective)
                         .rename(core::RenameModel::HalfPort)
                         .build();
    expectSteadyStateAllocFree("gzip", m.cfg);
}

/** The post-paper policies' decisions (DLT wake deferral, prefetch
 *  bandwidth accounting) must stay allocation-free like the paper
 *  designs. */
TEST(HotPathAlloc, PolicyZooMachineGzip)
{
    sim::Machine m = sim::Machine::base(4)
                         .wakeup(core::WakeupModel::LoadDelayTracking)
                         .regfile(core::RegfileModel::PrefetchBuffer)
                         .build();
    expectSteadyStateAllocFree("gzip", m.cfg);
}

} // namespace
