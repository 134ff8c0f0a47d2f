/** @file Behavioural tests for the out-of-order core: base-machine
 *  timing, speculative scheduling and replay, and each half-price
 *  technique exercised by purpose-built micro-programs. */

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "core/synthetic.hh"
#include "sim/simulation.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace hpa;
using core::CoreConfig;
using core::RecoveryModel;
using core::RegfileModel;
using core::WakeupModel;

std::unique_ptr<sim::Simulation>
run(const std::string &src, const CoreConfig &cfg,
    uint64_t max_insts = 0)
{
    auto prog = assembler::assemble(src);
    auto s = std::make_unique<sim::Simulation>(prog, cfg, max_insts);
    s->run(5000000);
    return s;
}

CoreConfig
base4()
{
    return core::fourWideConfig();
}

/** Serial dependent ALU chain: one instruction per cycle steady state. */
const char *CHAIN = R"(
        li r1, 400
        clr r2
loop:   add r2, #1, r2
        add r2, #1, r2
        add r2, #1, r2
        add r2, #1, r2
        add r2, #1, r2
        add r2, #1, r2
        add r2, #1, r2
        add r2, #1, r2
        sub r1, #1, r1
        bne r1, loop
        halt
)";

TEST(CoreBase, SerialChainRunsBackToBack)
{
    auto s = run(CHAIN, base4());
    // 8 dependent adds per iteration: the chain limits IPC to ~1.25
    // (sub/bne overlap). It must be close to the dataflow bound and
    // certainly not suffer bubbles between dependent adds.
    EXPECT_GT(s->ipc(), 1.0);
    EXPECT_LT(s->ipc(), 1.6);
}

TEST(CoreBase, IndependentOpsReachWidth)
{
    const char *src = R"(
        li r1, 400
loop:   add r2, #1, r2
        add r3, #1, r3
        add r4, #1, r4
        add r5, #1, r5
        add r6, #1, r6
        add r7, #1, r7
        add r8, #1, r8
        add r9, #1, r9
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    auto s = run(src, base4());
    // Four independent chains: bounded by 4-wide fetch/issue.
    EXPECT_GT(s->ipc(), 2.8);
    EXPECT_LE(s->ipc(), 4.0);
}

TEST(CoreBase, CommittedMatchesTrace)
{
    auto s = run(CHAIN, base4());
    EXPECT_TRUE(s->trace().halted());
    EXPECT_EQ(s->core().stats().committed.value(), s->trace().size());
}

TEST(CoreBase, Deterministic)
{
    auto a = run(CHAIN, base4());
    auto b = run(CHAIN, base4());
    EXPECT_EQ(a->core().cycle(), b->core().cycle());
    EXPECT_EQ(a->core().stats().issued.value(),
              b->core().stats().issued.value());
}

TEST(CoreBase, LoadUseLatencyVisible)
{
    // Pointer-chase in a tiny (always-hitting) ring: serial load-use
    // chain costs ~3 cycles per load (agen + 2-cycle DL1).
    const char *src = R"(
        la  r1, ring
        li  r2, 600
loop:   ldq r1, 0(r1)
        sub r2, #1, r2
        bne r2, loop
        halt
        .data
        .align 8
ring:   .word ring
)";
    auto s = run(src, base4());
    double cpl = double(s->core().cycle()) / 600.0;
    EXPECT_GT(cpl, 2.7);
    EXPECT_LT(cpl, 3.6);
}

TEST(CoreBase, DivideLatencyAndStructuralHazard)
{
    const char *src = R"(
        li r1, 40
        li r3, 7
loop:   div r3, #1, r4
        div r3, #1, r5
        div r3, #1, r6
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    auto s = run(src, base4());
    // 120 independent divides on 2 unpipelined 20-cycle dividers:
    // at least 120/2 x 20 cycles, minus pipeline ramp.
    EXPECT_GT(double(s->core().cycle()), 1150.0);
}

TEST(CoreBase, MispredictsCostRefillTime)
{
    // Data-dependent branches on LCG bits: poorly predictable.
    const char *noisy = R"(
        li r10, 12345
        li r11, 1103515245
        li r12, 12345
        li r1, 400
loop:   mul r10, r11, r10
        add r10, r12, r10
        srl r10, #17, r2
        and r2, #1, r2
        beq r2, skip
        add r3, #1, r3
skip:   sub r1, #1, r1
        bne r1, loop
        halt
)";
    auto s = run(noisy, base4());
    const auto &st = s->core().stats();
    EXPECT_GT(st.branchMispredicts.value(), 50u);
    // Each mispredict costs at least the 11-cycle refill.
    EXPECT_GT(s->core().cycle(),
              st.branchMispredicts.value() * 11);
}

TEST(CoreBase, WindowLimitRespected)
{
    CoreConfig tiny = base4();
    tiny.ruu_size = 8;
    tiny.lsq_size = 4;
    auto s = run(CHAIN, tiny);
    EXPECT_TRUE(s->trace().halted());
    // A small window must be slower than the 64-entry window.
    auto big = run(CHAIN, base4());
    EXPECT_GE(s->core().cycle(), big->core().cycle());
}

TEST(CoreBase, StoreLoadForwardingThroughMemory)
{
    // A store followed by a dependent load of the same address.
    const char *src = R"(
        la  r1, slot
        li  r2, 300
        clr r3
loop:   stq r3, 0(r1)
        ldq r3, 0(r1)
        add r3, #1, r3
        sub r2, #1, r2
        bne r2, loop
        halt
        .data
        .align 8
slot:   .space 8
)";
    auto s = run(src, base4());
    EXPECT_TRUE(s->trace().halted());
    EXPECT_EQ(s->core().stats().committed.value(), s->trace().size());
    // The final architectural value is the emulator's own: the
    // program really round-trips its counter through memory.
    func::Emulator emu(assembler::assemble(src));
    emu.run(100000);
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(emu.intReg(3), 300);
}

// --- Speculative scheduling / replay. ---

const char *MISSY = R"(
        li  r1, 300
        la  r2, arr
        clr r3
loop:   ldq r4, 0(r2)
        add r4, r3, r3
        add r3, #1, r3
        lda r2, 4096(r2)
        sub r1, #1, r1
        bne r1, loop
        halt
        .data
        .align 8
arr:    .space 8
)";

TEST(Replay, LoadMissesTriggerReplays)
{
    auto s = run(MISSY, base4());
    const auto &st = s->core().stats();
    EXPECT_GT(st.loadMissReplays.value(), 100u);
    EXPECT_GT(st.squashedIssues.value(), 0u);
    EXPECT_EQ(st.issued.value(),
              st.committed.value() + st.squashedIssues.value());
}

TEST(Replay, HitOnlyProgramsNeverReplay)
{
    auto s = run(CHAIN, base4());
    EXPECT_EQ(s->core().stats().loadMissReplays.value(), 0u);
}

TEST(Replay, SelectiveSquashesNoMoreThanNonSelective)
{
    CoreConfig nonsel = base4();
    CoreConfig sel = base4();
    sel.recovery = RecoveryModel::Selective;
    auto a = run(MISSY, nonsel);
    auto b = run(MISSY, sel);
    EXPECT_LE(b->core().stats().squashedIssues.value(),
              a->core().stats().squashedIssues.value());
    EXPECT_LE(b->core().cycle(), a->core().cycle() + 10);
}

// --- Characterization statistics. ---

TEST(Characterization, ReadyAtInsertMatchesConstruction)
{
    // r8/r9 are produced long before the loop: every 2-source add in
    // the loop sees both operands ready at insert.
    const char *src = R"(
        li r8, 3
        li r9, 4
        li r1, 300
loop:   add r8, r9, r10
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    auto s = run(src, base4());
    const auto &d = s->core().stats().readyAtInsert;
    EXPECT_GT(d.total(), 250u);
    EXPECT_GT(d.fraction(2), 0.95);
}

TEST(Characterization, TwoPendingDetected)
{
    // r2 and r4 both derive from the loop-carried r5: two pending
    // operands at insert for the combining add.
    const char *src = R"(
        li r1, 300
        clr r5
loop:   add r5, #1, r2
        add r5, #2, r4
        add r2, r4, r5
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    auto s = run(src, base4());
    const auto &d = s->core().stats().readyAtInsert;
    EXPECT_GT(d.fraction(0), 0.9);
    // Both producers issue in the same cycle: slack 0 (simultaneous).
    const auto &slack = s->core().stats().wakeupSlack;
    EXPECT_GT(slack.fraction(0), 0.9);
}

TEST(Characterization, WakeupSlackOfMulAddPair)
{
    // Producers with latencies 3 (mul) and 1 (add) started in the
    // same cycle: slack 2 between operand wakeups.
    const char *src = R"(
        li r1, 300
        clr r5
loop:   mul r5, #3, r2
        add r5, #2, r4
        add r2, r4, r5
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    auto s = run(src, base4());
    const auto &slack = s->core().stats().wakeupSlack;
    EXPECT_GT(slack.total(), 250u);
    EXPECT_GT(slack.fraction(2), 0.9);
    // The mul (left field) always arrives last.
    const auto &st = s->core().stats();
    EXPECT_GT(st.leftLast.value(), 250u);
    EXPECT_EQ(st.rightLast.value(), 0u);
    // Stable order: same as previous occurrence nearly always.
    EXPECT_GT(st.orderSame.value(), st.orderDiff.value() * 50);
}

TEST(Characterization, FormatCountsPartitionCommits)
{
    auto s = run(MISSY, base4());
    const auto &st = s->core().stats();
    EXPECT_EQ(st.fmt2srcInsts.value() + st.fmtStores.value()
              + st.fmtOther.value(),
              st.committed.value());
    EXPECT_EQ(st.fmtNops.value() + st.fmtOneUnique.value()
              + st.fmtTwoUnique.value(),
              st.fmt2srcInsts.value());
}

TEST(Characterization, RfCategoriesPartitionTwoSourceIssues)
{
    auto s = run(MISSY, base4());
    const auto &st = s->core().stats();
    EXPECT_EQ(st.rfBackToBack.value() + st.rfTwoReady.value()
              + st.rfNonBackToBack.value(),
              st.fmtTwoUnique.value());
}

// --- Sequential wakeup (Section 3.3). ---

/** Simultaneous-wakeup-dominated loop (carried 2-cycle recurrence). */
const char *SIMUL = R"(
        li r1, 500
        clr r5
loop:   add r5, #1, r2
        add r5, #2, r4
        add r2, r4, r5
        add r2, r4, r6
        sub r1, #1, r1
        bne r1, loop
        halt
)";

TEST(SequentialWakeup, SimultaneousWakeupCostsOneCycle)
{
    CoreConfig conv = base4();
    CoreConfig seq = base4();
    seq.wakeup = WakeupModel::Sequential;
    auto a = run(SIMUL, conv);
    auto b = run(SIMUL, seq);
    uint64_t extra = b->core().cycle() - a->core().cycle();
    // One extra cycle per iteration (the carried add waits for the
    // slow bus), within scheduling noise.
    EXPECT_GT(extra, 400u);
    EXPECT_LT(extra, 650u);
    EXPECT_GT(b->core().stats().seqWakeupDelayed.value(), 400u);
}

TEST(SequentialWakeup, PredictableLastArrivalIsFree)
{
    // mul (left) always last: the predictor learns to put it on the
    // fast side, hiding the slow bus entirely.
    const char *src = R"(
        li r1, 500
        clr r5
loop:   mul r5, #3, r2
        add r5, #2, r4
        add r2, r4, r5
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    CoreConfig conv = base4();
    CoreConfig seq = base4();
    seq.wakeup = WakeupModel::Sequential;
    auto a = run(src, conv);
    auto b = run(src, seq);
    EXPECT_LE(b->core().cycle(), a->core().cycle() + 40);
}

TEST(SequentialWakeup, NoPredPenalizesLeftLastArrivals)
{
    // Actual last-arriving operand is the LEFT field (mul). The
    // no-predictor variant statically fast-sides the right operand,
    // so every iteration pays the slow-bus cycle; the predictor
    // variant learns and avoids it.
    const char *src = R"(
        li r1, 500
        clr r5
loop:   mul r5, #3, r2
        add r5, #2, r4
        add r2, r4, r5
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    CoreConfig pred = base4();
    pred.wakeup = WakeupModel::Sequential;
    CoreConfig nopred = base4();
    nopred.wakeup = WakeupModel::SequentialNoPred;
    auto a = run(src, pred);
    auto b = run(src, nopred);
    EXPECT_GT(b->core().cycle(), a->core().cycle() + 350);
}

TEST(SequentialWakeup, NeverSquashes)
{
    CoreConfig seq = base4();
    seq.wakeup = WakeupModel::Sequential;
    auto s = run(SIMUL, seq);
    // Sequential wakeup requires no scheduling recovery of its own
    // (no loads miss in this program).
    EXPECT_EQ(s->core().stats().squashedIssues.value(), 0u);
    EXPECT_EQ(s->core().stats().tagElimMisissues.value(), 0u);
}

// --- Tag elimination (Section 3.1 / 5.1 reference scheme). ---

/** Both operands of the combining add come from long-latency
 *  producers whose arrival order alternates every iteration at the
 *  same PC: the last-arrival predictor is wrong ~50% of the time. */
const char *ALTERNATING = R"(
        li r1, 250
        clr r5
loop:   and r1, #1, r7
        beq r7, even
        mul r5, #3, r2
        add r5, #1, r9
        mul r9, #5, r4
        br join
even:   add r5, #1, r9
        mul r9, #5, r2
        mul r5, #3, r4
join:   add r2, r4, r5
        sub r1, #1, r1
        bne r1, loop
        halt
)";

TEST(TagElimination, MisissuesDetectedAndRecovered)
{
    CoreConfig te = base4();
    te.wakeup = WakeupModel::TagElimination;
    auto s = run(ALTERNATING, te);
    EXPECT_GT(s->core().stats().tagElimMisissues.value(), 100u);
    // Non-selective recovery drags independent instructions along:
    // several squashes per mis-schedule.
    EXPECT_GT(s->core().stats().squashedIssues.value(),
              s->core().stats().tagElimMisissues.value() * 2);
    EXPECT_TRUE(s->trace().halted());
}

TEST(TagElimination, MispredictionsCostCyclesUnlikeConventional)
{
    CoreConfig te = base4();
    te.wakeup = WakeupModel::TagElimination;
    auto a = run(ALTERNATING, te);
    auto b = run(ALTERNATING, base4());
    EXPECT_GT(a->core().cycle(), b->core().cycle() + 80);
}

TEST(TagElimination, RecoveryCostAtLeastSlowBusCost)
{
    // Figure 14: sequential wakeup's worst case (one slow-bus cycle)
    // never exceeds tag elimination's mis-schedule + replay cost on
    // the same stream; on the narrow machine they can tie.
    CoreConfig te = base4();
    te.wakeup = WakeupModel::TagElimination;
    CoreConfig sw = base4();
    sw.wakeup = WakeupModel::Sequential;
    auto a = run(ALTERNATING, te);
    auto b = run(ALTERNATING, sw);
    EXPECT_GE(a->core().cycle() + 5, b->core().cycle());
    // Sequential wakeup pays with delayed issues but never recovers;
    // tag elimination pays with squashed issue bandwidth.
    EXPECT_EQ(b->core().stats().squashedIssues.value(), 0u);
    EXPECT_GT(a->core().stats().squashedIssues.value(), 300u);
}

TEST(TagElimination, WiderMachineAmplifiesRecoveryCost)
{
    // Section 5.1: the tag-elimination penalty grows with machine
    // width (more instructions squashed per mis-schedule).
    CoreConfig te8 = core::eightWideConfig();
    te8.wakeup = WakeupModel::TagElimination;
    auto a = run(ALTERNATING, te8);
    CoreConfig te4 = base4();
    te4.wakeup = WakeupModel::TagElimination;
    auto b = run(ALTERNATING, te4);
    double per_miss_8 = double(a->core().stats().squashedIssues.value())
        / double(std::max<uint64_t>(
              1, a->core().stats().tagElimMisissues.value()));
    double per_miss_4 = double(b->core().stats().squashedIssues.value())
        / double(std::max<uint64_t>(
              1, b->core().stats().tagElimMisissues.value()));
    EXPECT_GE(per_miss_8 + 0.5, per_miss_4);
}

TEST(TagElimination, EveryMisissueReExecutesAtLongDetectionDelays)
{
    // With a detection delay of 3 or more, a mis-issued 1-cycle op
    // completes before its detection: it must still be squashed and
    // re-issued, never committed with the mis-issue flag standing.
    auto w = workloads::make("twolf", workloads::Scale::Full);
    const uint64_t steady = w.program.symbols.at("steady");
    for (unsigned width : {4u, 8u}) {
        for (unsigned delay : {3u, 4u}) {
            CoreConfig cfg = width == 4 ? base4() : core::eightWideConfig();
            cfg.wakeup = WakeupModel::TagElimination;
            cfg.tagelim_detect_delay = delay;
            sim::Simulation s(w.program, cfg, 20000, steady);
            uint64_t flagged = 0;
            s.core().setCommitListener(
                [&flagged](const core::DynInst &di, uint64_t) {
                    flagged += di.tagElimMisissue;
                });
            s.run(5000000);
            const std::string what = std::to_string(width) + "-wide, d="
                + std::to_string(delay);
            EXPECT_EQ(s.core().stats().committed.value(), 20000u) << what;
            EXPECT_GT(s.core().stats().tagElimMisissues.value(), 100u)
                << what;
            EXPECT_EQ(flagged, 0u) << what;
        }
    }
}

TEST(TagElimination, CleanWhenOperandsReadyAtInsert)
{
    const char *src = R"(
        li r8, 3
        li r9, 4
        li r1, 300
loop:   add r8, r9, r10
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    CoreConfig te = base4();
    te.wakeup = WakeupModel::TagElimination;
    auto s = run(src, te);
    EXPECT_EQ(s->core().stats().tagElimMisissues.value(), 0u);
}

// --- Sequential register access (Section 4.3). ---

/** Every loop add reads two long-ready registers: worst case for a
 *  single read port per slot. Eight per iteration so the register
 *  port demand (not fetch) is the binding resource. */
const char *TWO_READY = R"(
        li r8, 3
        li r9, 4
        li r1, 400
loop:   add r8, r9, r10
        add r8, r9, r11
        add r8, r9, r12
        add r8, r9, r13
        add r8, r9, r14
        add r8, r9, r15
        add r8, r9, r16
        add r8, r9, r17
        sub r1, #1, r1
        bne r1, loop
        halt
)";

TEST(SeqRegAccess, PenaltyAppliedToTwoReadyInstructions)
{
    CoreConfig seqrf = base4();
    seqrf.regfile = RegfileModel::SequentialAccess;
    auto s = run(TWO_READY, seqrf);
    EXPECT_GT(s->core().stats().seqRegAccesses.value(), 3000u);
    auto b = run(TWO_READY, base4());
    // Issue-slot blocking costs ~1.4x on this adversarial kernel.
    EXPECT_GT(s->core().cycle(), b->core().cycle() * 135 / 100);
}

TEST(SeqRegAccess, BypassCapturedOperandsAvoidPenalty)
{
    // Serial chain: consumers issue back-to-back with producers, so
    // one operand is always caught on the bypass.
    CoreConfig seqrf = base4();
    seqrf.regfile = RegfileModel::SequentialAccess;
    auto s = run(CHAIN, seqrf);
    auto b = run(CHAIN, base4());
    EXPECT_LE(s->core().cycle(), b->core().cycle() + 30);
}

TEST(SeqRegAccess, DelaysDependentByOneCycle)
{
    // Loop-carried chain through a 2-ready-operand instruction: each
    // iteration pays +1 cycle latency for the sequential read.
    const char *src = R"(
        li r8, 0
        li r9, 1
        li r1, 400
loop:   add r8, r9, r10   ; both from RF
        add r10, #1, r11  ; dependent
        sub r1, #1, r1
        bne r1, loop
        halt
)";
    CoreConfig seqrf = base4();
    seqrf.regfile = RegfileModel::SequentialAccess;
    auto a = run(src, seqrf);
    auto b = run(src, base4());
    EXPECT_GT(a->core().cycle(), b->core().cycle());
}

TEST(HalfPortCrossbar, PortArbitrationLimitsIssue)
{
    CoreConfig xbar = base4();
    xbar.regfile = RegfileModel::HalfPortCrossbar;
    auto s = run(TWO_READY, xbar);
    auto b = run(TWO_READY, base4());
    // 8 two-port instructions per iteration demand 16 reads against
    // 4 total ports: global arbitration limits issue, with no
    // sequential-access penalties.
    EXPECT_GT(s->core().cycle(), b->core().cycle() * 12 / 10);
    EXPECT_EQ(s->core().stats().seqRegAccesses.value(), 0u);
}

TEST(ExtraRfStage, DeepensMispredictLoop)
{
    const char *noisy = R"(
        li r10, 999
        li r11, 1103515245
        li r12, 12345
        li r1, 300
loop:   mul r10, r11, r10
        add r10, r12, r10
        srl r10, #17, r2
        and r2, #1, r2
        beq r2, skip
        add r3, #1, r3
skip:   sub r1, #1, r1
        bne r1, loop
        halt
)";
    CoreConfig extra = base4();
    extra.regfile = RegfileModel::ExtraStage;
    auto a = run(noisy, extra);
    auto b = run(noisy, base4());
    EXPECT_GT(a->core().cycle(), b->core().cycle());
}

// --- Combined techniques (Section 5.3). ---

TEST(Combined, RunsCorrectlyAndSlowerThanBase)
{
    CoreConfig comb = base4();
    comb.wakeup = WakeupModel::Sequential;
    comb.regfile = RegfileModel::SequentialAccess;
    auto a = run(SIMUL, comb);
    auto b = run(SIMUL, base4());
    EXPECT_TRUE(a->trace().halted());
    EXPECT_GE(a->core().cycle(), b->core().cycle());
    // Simultaneous wakeups force sequential register access in the
    // combined configuration (Section 5.3).
    EXPECT_GT(a->core().stats().seqRegAccesses.value(), 100u);
}

// --- Half-price renaming (Section 6 future-work extension). ---

TEST(HalfPortRename, TwoSourceGroupsSplit)
{
    // 8 two-source adds per iteration want 16 map lookups against 4
    // rename ports: dispatch groups split every cycle.
    CoreConfig rn = base4();
    rn.rename = core::RenameModel::HalfPort;
    auto s = run(TWO_READY, rn);
    EXPECT_GT(s->core().stats().renameStalls.value(), 500u);
    auto b = run(TWO_READY, base4());
    EXPECT_GT(s->core().cycle(), b->core().cycle());
}

TEST(HalfPortRename, SingleSourceCodeUnaffected)
{
    CoreConfig rn = base4();
    rn.rename = core::RenameModel::HalfPort;
    auto s = run(CHAIN, rn);
    auto b = run(CHAIN, base4());
    // One lookup per instruction fits W ports at W-wide dispatch.
    EXPECT_EQ(s->core().stats().renameStalls.value(), 0u);
    EXPECT_EQ(s->core().cycle(), b->core().cycle());
}

TEST(HalfPortRename, BaseMachineNeverStalls)
{
    auto s = run(TWO_READY, base4());
    EXPECT_EQ(s->core().stats().renameStalls.value(), 0u);
}

// --- Bypass window (Section 4.2 relaxation). ---

TEST(BypassWindow, WiderWindowCutsSequentialAccesses)
{
    // Combined machine on the simultaneous-wakeup kernel: the
    // slow-side operand arrives one cycle before issue, so a 2-cycle
    // bypass window catches it and clears seq_reg_access.
    CoreConfig w1 = base4();
    w1.wakeup = WakeupModel::Sequential;
    w1.regfile = RegfileModel::SequentialAccess;
    CoreConfig w2 = w1;
    w2.bypass_window = 2;
    auto a = run(SIMUL, w1);
    auto b = run(SIMUL, w2);
    EXPECT_LT(b->core().stats().seqRegAccesses.value(),
              a->core().stats().seqRegAccesses.value() / 2);
    EXPECT_LE(b->core().cycle(), a->core().cycle());
}

TEST(BypassWindow, AncientOperandsStillReadPorts)
{
    // Operands written long ago are beyond any plausible window.
    CoreConfig w3 = base4();
    w3.regfile = RegfileModel::SequentialAccess;
    w3.bypass_window = 3;
    auto s = run(TWO_READY, w3);
    EXPECT_GT(s->core().stats().seqRegAccesses.value(), 3000u);
}

// --- Commit listener. ---

TEST(CommitListener, ObservesEveryCommitInOrder)
{
    auto prog = assembler::assemble(CHAIN);
    sim::Simulation s(prog, base4());
    uint64_t count = 0;
    uint64_t last_seq = 0;
    bool ordered = true;
    s.core().setCommitListener(
        [&](const core::DynInst &di, uint64_t commit) {
            if (count > 0 && di.seq != last_seq + 1)
                ordered = false;
            last_seq = di.seq;
            ++count;
            // Milestones are monotonic.
            EXPECT_LE(di.fetchCycle, di.dispatchCycle);
            EXPECT_LT(di.dispatchCycle, di.issueCycle);
            EXPECT_LT(di.issueCycle, di.completeCycle);
            EXPECT_LT(di.completeCycle, commit);
        });
    s.run(5000000);
    EXPECT_TRUE(ordered);
    EXPECT_EQ(count, s.core().stats().committed.value());
}

// --- Pipeline-state dump (Deadlock/InvariantViolation context). ---

/** The number after " key=" in a dumpPipelineState() header. */
uint64_t
dumpField(const std::string &dump, const std::string &key)
{
    size_t at = dump.find(" " + key + "=");
    if (at == std::string::npos)
        return ~uint64_t(0);
    return std::stoull(dump.substr(at + key.size() + 2));
}

TEST(FinishedCore, RunFreesTimingStateButKeepsEveryCounter)
{
    // run() frees the timing state once the core is done; a core
    // ticked to done by hand keeps it. Every statistic must agree,
    // and the testing hooks must still answer on the freed planes.
    core::SyntheticParams sp;
    sp.num_insts = 3000;
    func::CommittedTrace trace = core::syntheticTrace(sp);
    core::Core ran(base4(), trace);
    core::Core ticked(base4(), trace);
    ran.run();
    while (!ticked.done())
        ticked.tick();

    stats::Registry a, b;
    ran.regStats(a);
    ticked.regStats(b);
    std::ostringstream ra, rb;
    a.dump(ra);
    b.dump(rb);
    EXPECT_EQ(ra.str(), rb.str());
    EXPECT_EQ(ran.cycle(), ticked.cycle());
    EXPECT_EQ(ran.lapMonitor().samples(), ticked.lapMonitor().samples());
    EXPECT_TRUE(ran.done());
    EXPECT_TRUE(ran.readyListSnapshot().empty());
    EXPECT_TRUE(ran.issuedListSnapshot().empty());
    EXPECT_TRUE(ran.readyListConsistent());
    EXPECT_EQ(ran.run(), trace.size()) << "a second run() is a no-op";
}

TEST(PipelineDump, ReadyAndIssuedCountsMatchTheScheduler)
{
    core::SyntheticParams sp;
    sp.num_insts = 4000;
    sp.seed = 42;
    func::CommittedTrace trace = core::syntheticTrace(sp);
    core::Core c(base4(), trace);
    while (!c.done() && c.cycle() < 100000
           && (c.readyListSnapshot().empty()
               || c.issuedListSnapshot().empty()))
        c.tick();
    ASSERT_FALSE(c.readyListSnapshot().empty());
    ASSERT_FALSE(c.issuedListSnapshot().empty());

    const std::string dump = c.dumpPipelineState();
    EXPECT_EQ(dumpField(dump, "ready"), c.readyListSnapshot().size())
        << dump;
    EXPECT_EQ(dumpField(dump, "issued"), c.issuedListSnapshot().size())
        << dump;
}

// --- Property sweep over synthetic streams and configurations. ---

struct SweepParam
{
    WakeupModel wakeup;
    RegfileModel regfile;
    RecoveryModel recovery;
    uint64_t seed;
};

class CoreSweep : public ::testing::TestWithParam<SweepParam>
{};

TEST_P(CoreSweep, InvariantsHold)
{
    const SweepParam &p = GetParam();
    core::SyntheticParams sp;
    sp.num_insts = 6000;
    sp.seed = p.seed;
    func::CommittedTrace trace = core::syntheticTrace(sp);

    CoreConfig cfg = core::fourWideConfig();
    cfg.wakeup = p.wakeup;
    cfg.regfile = p.regfile;
    cfg.recovery = p.recovery;

    core::Core c(cfg, trace);
    c.run(4000000);
    ASSERT_TRUE(c.done());

    const auto &st = c.stats();
    EXPECT_EQ(st.committed.value(), sp.num_insts);
    EXPECT_EQ(st.dispatched.value(), st.committed.value());
    // Every issue event either commits or is squashed.
    EXPECT_EQ(st.issued.value(),
              st.committed.value() + st.squashedIssues.value());
    // Format classes partition commits.
    EXPECT_EQ(st.fmt2srcInsts.value() + st.fmtStores.value()
              + st.fmtOther.value(),
              st.committed.value());
    // Figure 4 samples exactly the 2-unique-source instructions.
    EXPECT_EQ(st.readyAtInsert.total(), st.fmtTwoUnique.value());
    // Figure 10 categories partition them as well.
    EXPECT_EQ(st.rfBackToBack.value() + st.rfTwoReady.value()
              + st.rfNonBackToBack.value(),
              st.fmtTwoUnique.value());
    // Every 2-pending instruction resolves its wakeup order once.
    EXPECT_EQ(st.wakeupSlack.total(), st.readyAtInsert.bucket(0));
    EXPECT_EQ(st.leftLast.value() + st.rightLast.value(),
              st.wakeupSlack.total() - st.wakeupSlack.bucket(0));
    EXPECT_LE(c.ipc(), double(cfg.width));
    EXPECT_GT(c.ipc(), 0.0);
}

std::vector<SweepParam>
sweepGrid()
{
    std::vector<SweepParam> out;
    for (auto w : {WakeupModel::Conventional, WakeupModel::Sequential,
                   WakeupModel::SequentialNoPred,
                   WakeupModel::TagElimination})
        for (auto r : {RegfileModel::TwoPort,
                       RegfileModel::SequentialAccess,
                       RegfileModel::ExtraStage,
                       RegfileModel::HalfPortCrossbar})
            for (uint64_t seed : {7ull, 1234ull})
                out.push_back(SweepParam{
                    w, r,
                    seed % 2 ? RecoveryModel::Selective
                             : RecoveryModel::NonSelective,
                    seed});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, CoreSweep,
                         ::testing::ValuesIn(sweepGrid()));

} // namespace
