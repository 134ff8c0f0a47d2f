/**
 * @file
 * Decoded static instruction representation plus the operand
 * classification the paper's characterization figures are built on
 * (2-source formats, unique sources, zero-register and nop detection).
 */

#ifndef HPA_ISA_STATIC_INST_HH
#define HPA_ISA_STATIC_INST_HH

#include <cstdint>
#include <string>

#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace hpa::isa
{

/** Sentinel meaning "no register". */
constexpr RegIndex NO_REG = 255;

/** Fixed-capacity list of source register ids (unified namespace).
 *  4-B aligned, so a copy is one 32-bit move: a byte-wise copy that
 *  is then reloaded as a word cannot be store-forwarded. */
struct alignas(4) SrcList
{
    uint8_t count = 0;
    RegIndex regs[2] = {NO_REG, NO_REG};

    void
    push(RegIndex r)
    {
        regs[count++] = r;
    }

    bool operator==(const SrcList &) const = default;
};

/**
 * A decoded HPA-ISA instruction. Register fields are stored raw
 * (0..31); accessors translate them into the unified 64-register
 * dependence namespace.
 */
struct StaticInst
{
    /** Bits of the decode-time operand-property cache (meta). */
    static constexpr uint16_t META_VALID = 1u << 0;
    static constexpr uint16_t META_LOAD = 1u << 1;
    static constexpr uint16_t META_STORE = 1u << 2;
    static constexpr uint16_t META_CONTROL = 1u << 3;
    static constexpr uint16_t META_COND_BRANCH = 1u << 4;
    static constexpr uint16_t META_TWO_SRC = 1u << 5;
    static constexpr uint16_t META_NOP = 1u << 6;

    Opcode op = Opcode::HALT;
    /** Raw register fields as encoded. */
    RegIndex ra = 31;
    RegIndex rb = 31;
    RegIndex rc = 31;
    /** True when the operate second source is an 8-bit literal. */
    bool useLiteral = false;
    uint8_t literal = 0;
    /** Sign-extended displacement (memory: 16-bit; branch: 21-bit). */
    int32_t disp = 0;

    /**
     * Operand-property cache, filled by finalize(). The decoder and
     * the make* constructors finalize every instruction they hand
     * out, so replay-path queries are flag tests and struct copies;
     * a raw aggregate-built instance (meta == 0) still answers every
     * accessor through the compute path below.
     */
    uint16_t meta = 0;
    RegIndex destCache = NO_REG;
    uint8_t memSizeCache = 0;
    SrcList srcCache;
    SrcList uniqCache;

    const OpInfo &info() const { return opInfo(op); }
    OpClass opClass() const { return info().opClass; }
    Format format() const { return info().format; }

    bool
    isLoad() const
    {
        return meta & META_VALID ? bool(meta & META_LOAD)
                                 : opClass() == OpClass::MemRead;
    }
    bool
    isStore() const
    {
        return meta & META_VALID ? bool(meta & META_STORE)
                                 : opClass() == OpClass::MemWrite;
    }
    bool isMemRef() const { return isLoad() || isStore(); }
    bool
    isControl() const
    {
        if (meta & META_VALID)
            return meta & META_CONTROL;
        return format() == Format::Branch || format() == Format::Jump;
    }
    bool
    isCondBranch() const
    {
        if (meta & META_VALID)
            return meta & META_COND_BRANCH;
        return format() == Format::Branch && op != Opcode::BR
            && op != Opcode::BSR;
    }
    bool
    isUncondControl() const
    {
        return isControl() && !isCondBranch();
    }
    bool isCall() const { return op == Opcode::BSR || op == Opcode::JSR; }
    bool isReturn() const { return op == Opcode::RET; }
    bool isIndirect() const { return format() == Format::Jump; }
    bool isHalt() const { return op == Opcode::HALT; }

    /** Access size in bytes for memory references. */
    unsigned
    memSize() const
    {
        return meta & META_VALID ? memSizeCache : computeMemSize();
    }

    unsigned
    computeMemSize() const
    {
        switch (op) {
          case Opcode::LDBU: case Opcode::STB: return 1;
          case Opcode::LDW: case Opcode::STW: return 2;
          case Opcode::LDL: case Opcode::STL: return 4;
          case Opcode::LDQ: case Opcode::STQ:
          case Opcode::LDF: case Opcode::STF: return 8;
          default: return 0;
        }
    }

    /** True when the destination register field is a fp register. */
    bool
    destIsFp() const
    {
        switch (op) {
          case Opcode::ADDF: case Opcode::SUBF: case Opcode::MULF:
          case Opcode::DIVF: case Opcode::CMPFEQ: case Opcode::CMPFLT:
          case Opcode::CMPFLE: case Opcode::SQRTF: case Opcode::ITOF:
          case Opcode::LDF:
            return true;
          default:
            return false;
        }
    }

    /** True for fp-operate ops whose register fields name f regs. */
    bool
    fpSources() const
    {
        switch (op) {
          case Opcode::ADDF: case Opcode::SUBF: case Opcode::MULF:
          case Opcode::DIVF: case Opcode::CMPFEQ: case Opcode::CMPFLT:
          case Opcode::CMPFLE: case Opcode::SQRTF: case Opcode::FTOI:
            return true;
          default:
            return false;
        }
    }

    /**
     * Unified-id destination register, or NO_REG when the format has
     * none. A zero-register destination is returned as-is (callers
     * decide whether to treat it as a discarded write).
     */
    RegIndex
    destReg() const
    {
        return meta & META_VALID ? destCache : computeDestReg();
    }

    RegIndex
    computeDestReg() const
    {
        if (!info().writesDest)
            return NO_REG;
        switch (format()) {
          case Format::Operate:
            return destIsFp() ? unifiedFp(rc) : unifiedInt(rc);
          case Format::Memory:
            // Loads and LDA/LDAH write ra.
            return destIsFp() ? unifiedFp(ra) : unifiedInt(ra);
          case Format::Branch:
          case Format::Jump:
            // Link register write (ra).
            return unifiedInt(ra);
          default:
            return NO_REG;
        }
    }

    /** Unified-id source register fields, in left/right format order. */
    SrcList
    srcRegs() const
    {
        return meta & META_VALID ? srcCache : computeSrcRegs();
    }

    SrcList
    computeSrcRegs() const
    {
        SrcList s;
        switch (format()) {
          case Format::Operate:
            if (info().numSrcFields >= 1) {
                s.push(fpSources() ? unifiedFp(ra) : unifiedInt(ra));
            }
            if (info().numSrcFields >= 2 && !useLiteral) {
                s.push(fpSources() ? unifiedFp(rb) : unifiedInt(rb));
            }
            break;
          case Format::Memory:
            if (isStore()) {
                // Store data (ra; fp for STF) then base (rb). The
                // data operand is the *left* field, matching the
                // assembly order "stq ra, disp(rb)".
                s.push(op == Opcode::STF ? unifiedFp(ra)
                                         : unifiedInt(ra));
                s.push(unifiedInt(rb));
            } else {
                // Loads and LDA/LDAH read only the base register.
                s.push(unifiedInt(rb));
            }
            break;
          case Format::Branch:
            if (info().numSrcFields >= 1)
                s.push(unifiedInt(ra));
            break;
          case Format::Jump:
            s.push(unifiedInt(rb));
            break;
          case Format::System:
            if (op == Opcode::OUT)
                s.push(unifiedInt(ra));
            break;
        }
        return s;
    }

    /**
     * Source registers that create true dependences: zero registers
     * removed and duplicates collapsed. The paper's "2-source
     * instructions" are exactly those with uniqueSrcRegs().count == 2.
     */
    SrcList
    uniqueSrcRegs() const
    {
        return meta & META_VALID ? uniqCache : computeUniqueSrcRegs();
    }

    SrcList
    computeUniqueSrcRegs() const
    {
        SrcList raw = computeSrcRegs();
        SrcList out;
        for (unsigned i = 0; i < raw.count; ++i) {
            RegIndex r = raw.regs[i];
            if (isZeroReg(r))
                continue;
            bool dup = false;
            for (unsigned j = 0; j < out.count; ++j)
                if (out.regs[j] == r)
                    dup = true;
            if (!dup)
                out.push(r);
        }
        return out;
    }

    /**
     * Number of source *register fields* present in this encoding
     * instance (a literal operate has one). Stores report 2; see
     * isStore() for the paper's separate treatment.
     */
    unsigned
    numSrcFields() const
    {
        unsigned n = info().numSrcFields;
        if (format() == Format::Operate && useLiteral && n == 2)
            return 1;
        return n;
    }

    /**
     * True for the paper's "2-source format" class: two register
     * source fields and not a store (stores are classified
     * separately, Figure 2).
     */
    bool
    isTwoSourceFormat() const
    {
        if (meta & META_VALID)
            return meta & META_TWO_SRC;
        return numSrcFields() == 2 && !isStore();
    }

    /**
     * True for 2-source-format nops: writes to a zero register (e.g.
     * bis r31,r31,r31), eliminated by the decoder without execution.
     */
    bool
    isNop() const
    {
        if (meta & META_VALID)
            return meta & META_NOP;
        if (format() != Format::Operate || !info().writesDest)
            return false;
        RegIndex d = computeDestReg();
        return d != NO_REG && isZeroReg(d);
    }

    /**
     * Precompute the operand-property cache. Idempotent; must be
     * re-run if op / register fields / useLiteral change afterwards.
     */
    void
    finalize()
    {
        srcCache = computeSrcRegs();
        uniqCache = computeUniqueSrcRegs();
        destCache = computeDestReg();
        memSizeCache = uint8_t(computeMemSize());
        uint16_t m = META_VALID;
        if (opClass() == OpClass::MemRead)
            m |= META_LOAD;
        if (opClass() == OpClass::MemWrite)
            m |= META_STORE;
        if (format() == Format::Branch || format() == Format::Jump)
            m |= META_CONTROL;
        if (format() == Format::Branch && op != Opcode::BR
            && op != Opcode::BSR) {
            m |= META_COND_BRANCH;
        }
        if (numSrcFields() == 2 && !(m & META_STORE))
            m |= META_TWO_SRC;
        if (format() == Format::Operate && info().writesDest
            && destCache != NO_REG && isZeroReg(destCache)) {
            m |= META_NOP;
        }
        meta = m;
    }

    /** Disassemble to assembly text. */
    std::string disassemble() const;

    /** Field-for-field equality, decode caches included. */
    bool operator==(const StaticInst &) const = default;
};

// --- Convenience constructors used by the assembler and tests. ---

/** rc <- ra OP rb. */
StaticInst makeOp(Opcode op, RegIndex ra, RegIndex rb, RegIndex rc);
/** rc <- ra OP literal. */
StaticInst makeOpImm(Opcode op, RegIndex ra, uint8_t lit, RegIndex rc);
/** Memory / LDA format: ra, disp(rb). */
StaticInst makeMem(Opcode op, RegIndex ra, RegIndex rb, int32_t disp);
/** Branch format: op ra, disp (disp in instruction words). */
StaticInst makeBranch(Opcode op, RegIndex ra, int32_t disp);
/** Jump format: op ra, (rb). */
StaticInst makeJump(Opcode op, RegIndex ra, RegIndex rb);
/** System format (HALT, OUT). */
StaticInst makeSystem(Opcode op, RegIndex ra = 31);
/** Canonical nop: bis r31, r31, r31. */
StaticInst makeNop();

} // namespace hpa::isa

#endif // HPA_ISA_STATIC_INST_HH
