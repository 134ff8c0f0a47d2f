/** @file Unit tests for the sparse memory and functional emulator. */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "func/emulator.hh"

namespace
{

using namespace hpa;
using func::Emulator;
using func::Memory;

// --- Memory. ---

TEST(Memory, UnwrittenReadsAsZero)
{
    Memory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.readByte(99), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(Memory, ByteRoundTrip)
{
    Memory m;
    m.writeByte(5, 0xAB);
    EXPECT_EQ(m.readByte(5), 0xAB);
}

TEST(Memory, LittleEndianMultiByte)
{
    Memory m;
    m.write(0x100, 0x0102030405060708ull, 8);
    EXPECT_EQ(m.readByte(0x100), 0x08);
    EXPECT_EQ(m.readByte(0x107), 0x01);
    EXPECT_EQ(m.read(0x100, 4), 0x05060708u);
    EXPECT_EQ(m.read(0x104, 2), 0x0304u);
}

TEST(Memory, PageBoundaryCrossing)
{
    Memory m;
    uint64_t addr = Memory::PAGE_SIZE - 3;
    m.write(addr, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(addr, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(Memory, WriteBlockAndReadBack)
{
    Memory m;
    uint8_t buf[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    m.writeBlock(0x2000 - 4, buf, 10);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(m.readByte(0x2000 - 4 + i), buf[i]);

    // A block over several whole pages, unaligned at both ends: it
    // starts 5 bytes before a page and ends 7 bytes into one, and the
    // bytes just outside it stay unwritten.
    std::vector<uint8_t> big(3 * Memory::PAGE_SIZE + 12);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<uint8_t>(i * 7 + 3);
    const uint64_t start = 0x10000 - 5;
    m.writeBlock(start, big.data(), big.size());
    for (size_t i = 0; i < big.size(); ++i)
        ASSERT_EQ(m.readByte(start + i), big[i]) << "byte " << i;
    EXPECT_EQ(m.readByte(start - 1), 0u);
    EXPECT_EQ(m.readByte(start + big.size()), 0u);
    // A word read across the block's first page boundary.
    uint64_t word = 0;
    for (unsigned i = 0; i < 8; ++i)
        word |= uint64_t{big[1 + i]} << (8 * i);
    EXPECT_EQ(m.read(start + 1, 8), word);
}

TEST(Memory, PagesSharingACacheSlotKeepTheirOwnBytes)
{
    // Page numbers a PAGE_CACHE_SLOTS multiple apart map to the same
    // slot of the page cache; interleaved accesses must each reach
    // their own page.
    Memory m;
    const uint64_t a = 0x40000;
    const uint64_t b = a + Memory::PAGE_CACHE_SLOTS * Memory::PAGE_SIZE;
    const uint64_t c = b + Memory::PAGE_CACHE_SLOTS * Memory::PAGE_SIZE;
    for (uint64_t i = 0; i < 64; ++i) {
        m.write(a + 8 * i, 0xA000 + i, 8);
        m.write(b + 8 * i, 0xB000 + i, 8);
        EXPECT_EQ(m.read(a + 8 * i, 8), 0xA000 + i);
        m.writeByte(c + i, static_cast<uint8_t>(i));
        EXPECT_EQ(m.read(b + 8 * i, 8), 0xB000 + i);
    }
    for (uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(m.read(b + 8 * i, 8), 0xB000 + i) << i;
        EXPECT_EQ(m.read(a + 8 * i, 8), 0xA000 + i) << i;
        EXPECT_EQ(m.readByte(c + i), i) << i;
    }
    EXPECT_EQ(m.numPages(), 3u);
}

TEST(Memory, WriteCreatingAPageIsSeenByTheNextRead)
{
    // A read of an absent page must not leave a stale "absent" answer
    // behind for the write that then creates the page.
    Memory m;
    EXPECT_EQ(m.read(0x5008, 8), 0u);
    EXPECT_EQ(m.numPages(), 0u);
    m.write(0x5008, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(0x5008, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x5000, 8), 0u);
    EXPECT_EQ(m.numPages(), 1u);
}

TEST(Memory, PartialWriteLeavesNeighboursIntact)
{
    Memory m;
    m.write(0x10, ~0ull, 8);
    m.write(0x12, 0, 2);
    EXPECT_EQ(m.read(0x10, 8), 0xFFFFFFFF0000FFFFull);
}

// --- Emulator helpers. ---

Emulator
runProgram(const std::string &src, uint64_t max = 1000000)
{
    auto p = assembler::assemble(src);
    Emulator emu(p);
    emu.run(max);
    return emu;
}

TEST(Emulator, ArithmeticBasics)
{
    auto e = runProgram(R"(
        li r1, 7
        li r2, 5
        add r1, r2, r3
        sub r1, r2, r4
        mul r1, r2, r5
        div r1, r2, r6
        rem r1, r2, r7
        halt)");
    EXPECT_EQ(e.intReg(3), 12);
    EXPECT_EQ(e.intReg(4), 2);
    EXPECT_EQ(e.intReg(5), 35);
    EXPECT_EQ(e.intReg(6), 1);
    EXPECT_EQ(e.intReg(7), 2);
}

TEST(Emulator, DivideByZeroYieldsZero)
{
    auto e = runProgram("li r1, 9\ndiv r1, r31, r2\nrem r1, r31, r3\nhalt");
    EXPECT_EQ(e.intReg(2), 0);
    EXPECT_EQ(e.intReg(3), 0);
}

TEST(Emulator, MinValueOverMinusOneWraps)
{
    // r1 = INT64_MIN, r2 = -1: the quotient wraps to INT64_MIN and the
    // remainder is 0, where the host's division would trap.
    const char *prologue = "li r1, 1\nsll r1, #63, r1\nli r2, 0\n"
                           "sub r2, #1, r2\n";
    auto d = runProgram(std::string(prologue) + "div r1, r2, r3\nhalt");
    EXPECT_EQ(d.intReg(3), INT64_MIN);
    auto r = runProgram(std::string(prologue) + "rem r1, r2, r3\nhalt");
    EXPECT_EQ(r.intReg(3), 0);
}

TEST(Emulator, LogicalOps)
{
    auto e = runProgram(R"(
        li r1, 0xF0
        li r2, 0x3C
        and r1, r2, r3
        bis r1, r2, r4
        xor r1, r2, r5
        bic r1, r2, r6
        ornot r31, r2, r7
        eqv r1, r1, r8
        halt)");
    EXPECT_EQ(e.intReg(3), 0x30);
    EXPECT_EQ(e.intReg(4), 0xFC);
    EXPECT_EQ(e.intReg(5), 0xCC);
    EXPECT_EQ(e.intReg(6), 0xC0);
    EXPECT_EQ(e.intReg(7), ~int64_t(0x3C));
    EXPECT_EQ(e.intReg(8), -1);
}

TEST(Emulator, Shifts)
{
    auto e = runProgram(R"(
        li r1, -8
        sll r1, #4, r2
        srl r1, #4, r3
        sra r1, #2, r4
        halt)");
    EXPECT_EQ(e.intReg(2), -128);
    EXPECT_EQ(uint64_t(e.intReg(3)), (~0ull - 7) >> 4);
    EXPECT_EQ(e.intReg(4), -2);
}

TEST(Emulator, Compares)
{
    auto e = runProgram(R"(
        li r1, -1
        li r2, 1
        cmplt r1, r2, r3
        cmple r2, r2, r4
        cmpeq r1, r2, r5
        cmpult r1, r2, r6
        cmpule r2, r1, r7
        halt)");
    EXPECT_EQ(e.intReg(3), 1);
    EXPECT_EQ(e.intReg(4), 1);
    EXPECT_EQ(e.intReg(5), 0);
    EXPECT_EQ(e.intReg(6), 0);   // unsigned: ~0 > 1
    EXPECT_EQ(e.intReg(7), 1);
}

TEST(Emulator, ScaledAdds)
{
    auto e = runProgram(
        "li r1, 10\nli r2, 3\ns4add r1, r2, r3\ns8add r1, r2, r4\nhalt");
    EXPECT_EQ(e.intReg(3), 43);
    EXPECT_EQ(e.intReg(4), 83);
}

TEST(Emulator, ZeroRegisterReadsZeroAndDiscardsWrites)
{
    auto e = runProgram("li r1, 5\nadd r1, r1, r31\nadd r31, #3, r2\nhalt");
    EXPECT_EQ(e.intReg(2), 3);
    EXPECT_EQ(e.intReg(31), 0);
}

TEST(Emulator, LdaLdah)
{
    auto e = runProgram("lda r1, 100(r31)\nldah r2, 2(r1)\nhalt");
    EXPECT_EQ(e.intReg(1), 100);
    EXPECT_EQ(e.intReg(2), 100 + (2 << 16));
}

TEST(Emulator, LoadStoreSizes)
{
    auto e = runProgram(R"(
        la r1, buf
        li r2, -2
        stq r2, 0(r1)
        ldl r3, 0(r1)
        ldw r4, 0(r1)
        ldbu r5, 0(r1)
        li r6, 0x1234
        stw r6, 8(r1)
        ldw r7, 8(r1)
        stb r6, 16(r1)
        ldbu r8, 16(r1)
        halt
        .data
buf:    .space 32)");
    EXPECT_EQ(e.intReg(3), -2);      // sign-extended 32-bit
    EXPECT_EQ(e.intReg(4), -2);      // sign-extended 16-bit
    EXPECT_EQ(e.intReg(5), 0xFE);    // zero-extended byte
    EXPECT_EQ(e.intReg(7), 0x1234);
    EXPECT_EQ(e.intReg(8), 0x34);
}

TEST(Emulator, FloatingPoint)
{
    auto e = runProgram(R"(
        li r1, 9
        itof r1, f1
        li r2, 2
        itof r2, f2
        addf f1, f2, f3
        subf f1, f2, f4
        mulf f1, f2, f5
        divf f1, f2, f6
        sqrtf f1, f7
        cmpflt f2, f1, f8
        ftoi f3, r3
        ftoi f6, r4
        ftoi f7, r5
        ftoi f8, r6
        halt)");
    EXPECT_EQ(e.intReg(3), 11);
    EXPECT_EQ(e.intReg(4), 4);       // trunc(4.5)
    EXPECT_EQ(e.intReg(5), 3);
    EXPECT_EQ(e.intReg(6), 1);
    EXPECT_DOUBLE_EQ(e.fpReg(5), 18.0);
}

TEST(Emulator, FpZeroRegister)
{
    auto e = runProgram("li r1, 3\nitof r1, f31\nftoi f31, r2\nhalt");
    EXPECT_EQ(e.intReg(2), 0);
}

TEST(Emulator, FpLoadStore)
{
    auto e = runProgram(R"(
        li r1, 42
        itof r1, f1
        la r2, d
        stf f1, 0(r2)
        ldf f2, 0(r2)
        ftoi f2, r3
        halt
        .data
        .align 8
d:      .space 8)");
    EXPECT_EQ(e.intReg(3), 42);
}

TEST(Emulator, ConditionalBranches)
{
    auto e = runProgram(R"(
        li r1, 3
        clr r2
loop:   add r2, #1, r2
        sub r1, #1, r1
        bne r1, loop
        halt)");
    EXPECT_EQ(e.intReg(2), 3);
}

TEST(Emulator, BranchVariants)
{
    auto e = runProgram(R"(
        li r1, -5
        clr r10
        bge r1, nope1
        add r10, #1, r10      ; taken path: blt semantics via bge fail
nope1:  blt r1, yes2
        br fail
yes2:   add r10, #2, r10
        li r2, 4
        blbc r2, yes3
        br fail
yes3:   add r10, #4, r10
        li r3, 5
        blbs r3, yes4
        br fail
yes4:   add r10, #8, r10
        ble r31, yes5
        br fail
yes5:   add r10, #16, r10
        br done
fail:   li r10, 0
done:   halt)");
    EXPECT_EQ(e.intReg(10), 31);
}

TEST(Emulator, CallAndReturn)
{
    auto e = runProgram(R"(
        li r1, 5
        bsr r26, double
        bsr r26, double
        halt
double: add r1, r1, r1
        ret (r26)
)");
    EXPECT_EQ(e.intReg(1), 20);
}

TEST(Emulator, IndirectJumpThroughTable)
{
    auto e = runProgram(R"(
        la r1, tab
        ldq r2, 8(r1)
        jmp (r2)
        li r9, 1
        halt
t1:     li r9, 11
        halt
t2:     li r9, 22
        halt
        .data
        .align 8
tab:    .word t1, t2
)");
    EXPECT_EQ(e.intReg(9), 22);
}

TEST(Emulator, LinkRegisterValue)
{
    auto e = runProgram("bsr r26, f\nf: mov r26, r5\nhalt");
    EXPECT_EQ(uint64_t(e.intReg(5)), e.memory().numPages() ? 0x1004 : 0x1004);
    EXPECT_EQ(e.intReg(5), 0x1004);
}

TEST(Emulator, ConsoleOutput)
{
    auto e = runProgram("li r1, 'H'\nout r1\nli r1, 'i'\nout r1\nhalt");
    EXPECT_EQ(e.console(), "Hi");
}

TEST(Emulator, HaltStopsExecution)
{
    auto e = runProgram("li r1, 1\nhalt\nli r1, 2\nhalt");
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.intReg(1), 1);
}

TEST(Emulator, StepAfterHaltThrows)
{
    auto p = assembler::assemble("halt");
    Emulator emu(p);
    emu.step();
    EXPECT_TRUE(emu.halted());
    EXPECT_THROW(emu.step(), func::EmulationError);
}

TEST(Emulator, PcEscapeDetected)
{
    // Fall off the end of the text section.
    auto p = assembler::assemble("nop");
    Emulator emu(p);
    EXPECT_THROW(emu.step(), func::EmulationError);
}

TEST(Emulator, RunRespectsInstructionCap)
{
    auto p = assembler::assemble("loop: br loop");
    Emulator emu(p);
    EXPECT_EQ(emu.run(100), 100u);
    EXPECT_FALSE(emu.halted());
    EXPECT_EQ(emu.instCount(), 100u);
}

TEST(Emulator, ExecRecordForBranch)
{
    auto p = assembler::assemble("beq r31, skip\nnop\nskip: halt");
    Emulator emu(p);
    auto rec = emu.step();
    EXPECT_TRUE(rec.taken);
    EXPECT_EQ(rec.nextPc, p.codeBase + 8);
    EXPECT_EQ(rec.pc, p.codeBase);
}

TEST(Emulator, ExecRecordForMemory)
{
    auto p = assembler::assemble(
        "la r1, x\nldq r2, 8(r1)\nhalt\n.data\nx: .word 1, 2");
    Emulator emu(p);
    emu.step();
    emu.step();
    auto rec = emu.step();
    EXPECT_EQ(rec.effAddr, p.symbol("x") + 8);
    EXPECT_EQ(emu.intReg(2), 2);
}

TEST(Emulator, StackPointerInitialized)
{
    auto p = assembler::assemble("halt");
    Emulator emu(p);
    EXPECT_GT(emu.intReg(isa::STACK_REG), 0);
}

TEST(Emulator, DataSectionLoaded)
{
    auto e = runProgram(R"(
        la r1, v
        ldq r2, 0(r1)
        halt
        .data
        .align 8
v:      .word 123456789)");
    EXPECT_EQ(e.intReg(2), 123456789);
}


TEST(Emulator, SelfModifyingCodeSeesPatchedInstruction)
{
    // Executes `target` once (r5 = 11), overwrites that word with the
    // encoding of the never-executed donor instruction (`li r5, 22`),
    // then re-executes it. The second pass must decode the patched
    // word, so a decoded-instruction cache has to be invalidated by
    // stores into the text segment.
    auto e = runProgram(R"(
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
    EXPECT_EQ(e.intReg(5), 22);
}

TEST(Emulator, StoreOverwritingItselfIsRecordedAsExecuted)
{
    // `patch` stores the donor word over itself. Its record is the
    // store as it executed; the next visit decodes and runs the donor.
    auto p = assembler::assemble(R"(
        la   r2, patch
        la   r1, donor
        ldl  r3, 0(r1)
patch:  stl  r3, 0(r2)
        bne  r7, fin
        li   r7, 1
        br   patch
fin:    halt
donor:  li   r5, 22)");
    Emulator emu(p);
    std::vector<func::ExecRecord> atPatch;
    while (!emu.halted()) {
        func::ExecRecord rec = emu.step();
        if (rec.pc == p.symbol("patch"))
            atPatch.push_back(rec);
    }
    ASSERT_EQ(atPatch.size(), 2u);
    EXPECT_EQ(atPatch[0].inst.op, isa::Opcode::STL);
    EXPECT_TRUE(atPatch[0].inst == isa::makeMem(isa::Opcode::STL, 3, 2, 0));
    EXPECT_EQ(atPatch[0].effAddr, p.symbol("patch"));
    EXPECT_TRUE(atPatch[1].inst
                == isa::makeMem(isa::Opcode::LDA, 5, isa::INT_ZERO_REG, 22));
    EXPECT_EQ(emu.intReg(5), 22);
}

TEST(EmulatorEdge, ShiftAmountsUseLowSixBits)
{
    auto e = runProgram(R"(
        li r1, 1
        li r2, 64
        sll r1, r2, r3        ; shift by 64 & 63 = 0
        li r2, 65
        sll r1, r2, r4        ; shift by 1
        halt)");
    EXPECT_EQ(e.intReg(3), 1);
    EXPECT_EQ(e.intReg(4), 2);
}

TEST(EmulatorEdge, LdahNegativeDisplacement)
{
    auto e = runProgram("ldah r1, -1(r31)\nhalt");
    EXPECT_EQ(e.intReg(1), -65536);
}

TEST(EmulatorEdge, WraparoundArithmetic)
{
    auto e = runProgram(R"(
        li  r1, 0x7FFFFFFF
        sll r1, #32, r1
        li  r2, 0xFFFF
        sll r2, #16, r3
        bis r2, r3, r2
        sll r2, #32, r3
        srl r3, #32, r3
        bis r1, r3, r1        ; r1 = INT64_MAX
        add r1, #1, r2        ; wraps to INT64_MIN
        halt)");
    EXPECT_EQ(e.intReg(1), INT64_MAX);
    EXPECT_EQ(e.intReg(2), INT64_MIN);
}

TEST(EmulatorEdge, UnsignedCompareAtBoundary)
{
    auto e = runProgram(R"(
        li r1, -1             ; 0xFFFF..FF unsigned max
        cmpult r1, r31, r2    ; max < 0 ? no
        cmpult r31, r1, r3    ; 0 < max ? yes
        cmpule r1, r1, r4
        halt)");
    EXPECT_EQ(e.intReg(2), 0);
    EXPECT_EQ(e.intReg(3), 1);
    EXPECT_EQ(e.intReg(4), 1);
}

TEST(EmulatorEdge, SignedDivisionTruncatesTowardZero)
{
    auto e = runProgram(R"(
        li r1, -7
        li r2, 2
        div r1, r2, r3
        rem r1, r2, r4
        halt)");
    EXPECT_EQ(e.intReg(3), -3);
    EXPECT_EQ(e.intReg(4), -1);
}

TEST(EmulatorEdge, StoreByteDoesNotClobberNeighbours)
{
    auto e = runProgram(R"(
        la  r1, buf
        li  r2, -1
        stq r2, 0(r1)
        clr r3
        stb r3, 3(r1)
        ldq r4, 0(r1)
        halt
        .data
        .align 8
buf:    .space 8)");
    EXPECT_EQ(uint64_t(e.intReg(4)), 0xFFFFFFFF00FFFFFFull);
}

TEST(EmulatorEdge, JsrClobberOrderWhenLinkIsTarget)
{
    // jsr r4, (r4): the target must be read before the link write.
    auto e = runProgram(R"(
        la  r4, dest
        jsr r4, (r4)
        halt
dest:   mov r4, r5
        halt)");
    // r5 holds the return address (pc of jsr + 4).
    EXPECT_EQ(uint64_t(e.intReg(5)), 0x1000u + 3 * 4);
}

} // namespace
