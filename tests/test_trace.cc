/** @file Trace capture/replay tests: the committed trace's records
 *  must reproduce a bare Emulator::step loop field for field for
 *  every registered workload and for self-modifying code (the
 *  determinism contract of trace-once/replay-many sweeps), the
 *  Full-scale streams must match recorded digests, the
 *  workload cache must hand every cell of a (workload, budget,
 *  fast-forward) group the same immutable trace instance, a
 *  Simulation that captures its own trace must report exactly what
 *  one replaying a shared capture does, and synthetic traces must be
 *  pure functions of their parameters. */

#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/synthetic.hh"
#include "asm/assembler.hh"
#include "func/trace.hh"
#include "sim/experiment.hh"
#include "sim/simulation.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;

/** Fast-forward pc of a workload (its `steady:` label), or 0. */
uint64_t
steadyPc(const workloads::Workload &w)
{
    auto it = w.program.symbols.find("steady");
    return it != w.program.symbols.end() ? it->second : 0;
}

/** Record @p i of @p t against the Emulator::step() record @p e it
 *  stands for, with a useful failure message: the pc, the taken
 *  bit, the address (a control instruction's next pc, anyone else's
 *  effective address) and every field of the decoded instruction. */
void
expectSameRecord(const func::CommittedTrace &t, uint64_t i,
                 const func::ExecRecord &e, const std::string &what)
{
    const func::TraceRecord &r = t.record(i);
    const isa::StaticInst &si = t.entry(r).inst;
    ASSERT_EQ(t.entry(r).pc, e.pc) << what << " record " << i;
    ASSERT_EQ(bool(r.taken), e.taken) << what << " record " << i;
    ASSERT_TRUE(si == e.inst)
        << what << " record " << i << ": trace has '"
        << si.disassemble() << "', emulator '" << e.inst.disassemble()
        << "'";
    if (e.inst.isControl()) {
        ASSERT_EQ(uint64_t{r.addr}, e.nextPc) << what << " record " << i;
    } else {
        // Anything else falls through: the record keeps no next pc.
        ASSERT_EQ(e.nextPc, e.pc + 4) << what << " record " << i;
        ASSERT_EQ(uint64_t{r.addr}, e.effAddr) << what << " record " << i;
    }
}

/** Capture @p prog and step a fresh emulator with the same
 *  fast-forward/budget by hand; both streams must agree on every
 *  record, end together, and agree on halt and console. */
void
expectSameStream(const assembler::Program &prog, uint64_t ff,
                 uint64_t budget, const std::string &what)
{
    func::CommittedTrace trace =
        func::CommittedTrace::capture(prog, ff, budget);

    func::Emulator emu(prog);
    uint64_t skipped = 0;
    if (ff) {
        while (!emu.halted() && emu.pc() != ff) {
            emu.step();
            ++skipped;
        }
    }
    ASSERT_EQ(skipped, trace.fastForwarded()) << what;

    uint64_t n = 0;
    for (; !emu.halted() && (budget == 0 || n < budget); ++n) {
        ASSERT_LT(n, trace.size())
            << what << ": trace ends early (record " << n << ")";
        expectSameRecord(trace, n, emu.step(), what);
    }
    ASSERT_EQ(n, trace.size()) << what << ": trace runs long";
    ASSERT_EQ(emu.halted(), trace.halted()) << what;
    ASSERT_EQ(emu.console(), trace.console()) << what;
}

TEST(TraceCapture, ByteIdenticalToEmulatorForEveryWorkload)
{
    for (const auto &name : workloads::benchmarkNames()) {
        auto w = workloads::make(name, workloads::Scale::Test);
        expectSameStream(w.program, steadyPc(w), 3000, name);
    }
}

/** FNV-1a (64-bit) over a trace's committed stream: each record's
 *  pc, address and taken bit, and its instruction's decoded fields
 *  (op, ra, rb, rc, literal, disp), each value little-endian at its
 *  own width. It depends on what the trace records, not on how it
 *  stores it. */
uint64_t
streamDigest(const func::CommittedTrace &t)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto put = [&h](uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ull;
        }
    };
    for (size_t i = 0; i < t.size(); ++i) {
        const func::TraceRecord &r = t.record(i);
        const func::TraceEntry &e = t.entry(r);
        put(e.pc, 8);
        put(r.addr, 8);
        put(r.taken, 1);
        put(uint64_t(e.inst.op), 1);
        put(e.inst.ra, 1);
        put(e.inst.rb, 1);
        put(e.inst.rc, 1);
        put(e.inst.literal, 1);
        put(uint32_t(e.inst.disp), 4);
    }
    return h;
}

TEST(TraceCapture, FullScaleStreamsMatchTheirRecordedDigests)
{
    // The 12 Full-scale kernels captured as the sweep captures them:
    // fast-forwarded to `steady:`, then 50,000 instructions. The
    // constants were recorded with an earlier interpreter, so any
    // change to what capture records changes a digest.
    struct Expected
    {
        const char *name;
        size_t size;
        uint64_t fastForwarded;
        bool halted;
        uint64_t digest;
    };
    const Expected expected[] = {
        {"bzip", 50000, 245813, false, 0x82f92ae0a87a39a0ull},
        {"crafty", 50000, 7, false, 0x2c0c869da5c508ddull},
        {"eon", 50000, 4625, false, 0x8dd993056c0cfd70ull},
        {"gap", 50000, 1264, false, 0xd68d8b60d5430843ull},
        {"gcc", 50000, 139254, false, 0x99f0b308e2af8404ull},
        {"gzip", 50000, 294925, false, 0x8b32235d3ff5a28full},
        {"mcf", 50000, 3336471, false, 0x63aa7b4c001d3cffull},
        {"parser", 50000, 12, false, 0x0581b640bcc65420ull},
        {"perl", 50000, 70663, false, 0xd440bbc67e023578ull},
        {"twolf", 50000, 30732, false, 0x0823f80e39f07a9dull},
        {"vortex", 50000, 12300, false, 0x4c3e08840106d91bull},
        {"vpr", 50000, 786457, false, 0xbeb47a58c3a654f7ull},
    };
    ASSERT_EQ(std::size(expected), workloads::benchmarkNames().size());
    for (const Expected &x : expected) {
        auto w = workloads::make(x.name, workloads::Scale::Full);
        func::CommittedTrace t =
            func::CommittedTrace::capture(w.program, steadyPc(w), 50000);
        EXPECT_EQ(t.size(), x.size) << x.name;
        EXPECT_EQ(t.fastForwarded(), x.fastForwarded) << x.name;
        EXPECT_EQ(t.halted(), x.halted) << x.name;
        EXPECT_EQ(streamDigest(t), x.digest)
            << x.name << ": digest 0x" << std::hex << streamDigest(t);
    }
}

TEST(TraceCapture, SelfModifyingCodeRecordsThePatchedInstruction)
{
    // The program of Emulator.SelfModifyingCodeSeesPatchedInstruction:
    // `target` runs as `li r5, 11`, is overwritten with the donor's
    // `li r5, 22`, and runs again. The second visit must record the
    // patched instruction, not the one first seen at that word.
    auto prog = assembler::assemble(R"(
        la   r2, target
        la   r1, donor
        ldl  r3, 0(r1)
target: li   r5, 11
        bne  r7, fin
        li   r7, 1
        stl  r3, 0(r2)
        br   target
fin:    halt
donor:  li   r5, 22)");
    expectSameStream(prog, 0, 0, "self-modifying");
}

TEST(TraceCapture, BudgetAndFastForwardVariants)
{
    auto w = workloads::make("gzip", workloads::Scale::Test);
    // No fast-forward, including a budget of a single instruction.
    expectSameStream(w.program, 0, 1, "gzip ff=0 budget=1");
    expectSameStream(w.program, 0, 500, "gzip ff=0 budget=500");
    // Fast-forwarded, tiny and moderate budgets.
    expectSameStream(w.program, steadyPc(w), 1, "gzip steady budget=1");
    expectSameStream(w.program, steadyPc(w), 2500,
                     "gzip steady budget=2500");
}

TEST(TraceCapture, UncappedCaptureRunsToHalt)
{
    // A Test-scale kernel runs to HALT under budget 0 (no cap); the
    // last record's stream position must coincide with the halted
    // emulator.
    auto w = workloads::make("mcf", workloads::Scale::Test);
    expectSameStream(w.program, 0, 0, "mcf to-halt");
    // A budget past the program's end also stops at HALT.
    func::CommittedTrace t =
        func::CommittedTrace::capture(w.program, 0, 0);
    func::CommittedTrace past =
        func::CommittedTrace::capture(w.program, 0, t.size() + 100);
    EXPECT_TRUE(t.halted());
    EXPECT_TRUE(past.halted());
    EXPECT_EQ(past.size(), t.size());
}

TEST(WorkloadCacheTrace, SameKeyReturnsTheSameInstance)
{
    workloads::WorkloadCache cache;
    const func::CommittedTrace &a =
        cache.trace("gzip", workloads::Scale::Test, 2000, 0);
    const func::CommittedTrace &b =
        cache.trace("gzip", workloads::Scale::Test, 2000, 0);
    EXPECT_EQ(&a, &b) << "one trace per (workload, budget, ff) group";

    // Any key component changing must produce a distinct capture.
    const func::CommittedTrace &other_budget =
        cache.trace("gzip", workloads::Scale::Test, 1000, 0);
    EXPECT_NE(&a, &other_budget);
    EXPECT_EQ(other_budget.size(), 1000u);

    auto w = workloads::make("gzip", workloads::Scale::Test);
    const func::CommittedTrace &other_ff = cache.trace(
        "gzip", workloads::Scale::Test, 2000, steadyPc(w));
    EXPECT_NE(&a, &other_ff);
    EXPECT_GT(other_ff.fastForwarded(), 0u);
}

TEST(WorkloadCacheTrace, ConcurrentFirstUseCapturesOnce)
{
    workloads::WorkloadCache cache;
    std::vector<const func::CommittedTrace *> seen(8, nullptr);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < seen.size(); ++t)
        pool.emplace_back([&cache, &seen, t] {
            seen[t] = &cache.trace("crafty", workloads::Scale::Test,
                                   1500, 0);
        });
    for (auto &t : pool)
        t.join();
    for (size_t t = 1; t < seen.size(); ++t)
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    EXPECT_EQ(seen[0]->size(), 1500u);
}

TEST(TraceReplay, ProgramAndSharedTraceSimulationsReportTheSame)
{
    // A Simulation built from the program captures its own trace; one
    // built from a shared capture of the same program, fast-forward
    // and budget must print the identical statistics report.
    for (const auto &name : {"gzip", "vpr", "twolf"}) {
        auto w = workloads::make(name, workloads::Scale::Full);
        uint64_t ff = steadyPc(w);
        sim::Machine m = sim::Machine::base(4);
        core::CoreConfig cfg = m.cfg;

        sim::Simulation own(w.program, cfg, 4000, ff);
        own.run();

        func::CommittedTrace trace =
            func::CommittedTrace::capture(w.program, ff, 4000);
        sim::Simulation shared(trace, cfg);
        shared.run();

        std::ostringstream a, b;
        own.report(a);
        shared.report(b);
        EXPECT_EQ(a.str(), b.str()) << name;
        EXPECT_EQ(own.trace().size(), 4000u) << name;
        EXPECT_EQ(&shared.trace(), &trace) << name;
        EXPECT_EQ(own.fastForwarded(), shared.fastForwarded())
            << name;
        EXPECT_EQ(own.console(), shared.console()) << name;
    }
}

TEST(SyntheticTrace, DeterministicPerSeedAndEndsInHalt)
{
    core::SyntheticParams sp;
    sp.num_insts = 3000;
    sp.seed = 7;
    func::CommittedTrace a = core::syntheticTrace(sp);
    func::CommittedTrace b = core::syntheticTrace(sp);
    ASSERT_EQ(a.size(), sp.num_insts);
    ASSERT_EQ(b.size(), sp.num_insts);
    for (size_t i = 0; i < a.size(); ++i) {
        const func::TraceRecord &ra = a.record(i), &rb = b.record(i);
        const func::TraceEntry &ea = a.entry(ra), &eb = b.entry(rb);
        ASSERT_TRUE(ea.pc == eb.pc && ra.addr == rb.addr
                    && ra.taken == rb.taken && ea.inst == eb.inst)
            << "seed 7 record " << i;
    }
    EXPECT_EQ(a.entry(a.record(a.size() - 1)).inst.op, isa::Opcode::HALT);
    EXPECT_TRUE(a.halted());
    EXPECT_EQ(a.fastForwarded(), 0u);
    EXPECT_TRUE(a.console().empty());

    // Another seed gives another stream of the same length.
    sp.seed = 8;
    func::CommittedTrace c = core::syntheticTrace(sp);
    ASSERT_EQ(c.size(), sp.num_insts);
    bool differs = false;
    for (size_t i = 0; i < c.size() && !differs; ++i)
        differs = a.entry(a.record(i)).inst.op
                != c.entry(c.record(i)).inst.op
            || a.entry(a.record(i)).pc != c.entry(c.record(i)).pc;
    EXPECT_TRUE(differs);
}

} // namespace
