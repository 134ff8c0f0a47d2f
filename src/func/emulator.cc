#include "func/emulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace hpa::func
{

using isa::Opcode;
using isa::StaticInst;

Emulator::Emulator(const assembler::Program &prog)
    : pc_(prog.entry), codeBase_(prog.codeBase), codeEnd_(prog.codeEnd())
{
    decoded_.resize(prog.code.size());
    mem_.writeBlock(prog.codeBase, prog.code.data(),
                    prog.code.size() * sizeof(isa::MachInst));
    if (!prog.data.empty())
        mem_.writeBlock(prog.dataBase, prog.data.data(),
                        prog.data.size());
    // Conventional stack: grows down from a region above the data
    // segment's page ceiling.
    ireg_[isa::STACK_REG] =
        static_cast<int64_t>(0x7FF0000ull);
}

void
Emulator::setIntReg(unsigned i, int64_t v)
{
    if (i != isa::INT_ZERO_REG)
        ireg_[i] = v;
}

void
Emulator::setFpReg(unsigned i, double v)
{
    if (i != isa::FP_ZERO_REG)
        freg_[i] = v;
}

const StaticInst &
Emulator::fetch(Effects &fx)
{
    const uint64_t off = pc_ - codeBase_;
    const bool onGrid = (off & 3) == 0 && off < codeEnd_ - codeBase_;
    StaticInst &si = onGrid ? decoded_[off >> 2] : uncached_;
    fx.decoded = !onGrid || si.meta == 0;
    if (fx.decoded) {
        auto word = static_cast<isa::MachInst>(mem_.read(pc_, 4));
        auto d = isa::decode(word);
        if (!d)
            throw EmulationError("illegal instruction at pc 0x"
                                 + std::to_string(pc_));
        si = *d;
    }
    return si;
}

const StaticInst &
Emulator::store(uint64_t ea, uint64_t val, unsigned size,
                const StaticInst &si)
{
    if (ea + size <= codeBase_ || ea >= codeEnd_) {
        mem_.write(ea, val, size);
        return si;
    }
    // A store into the text segment clears the covered decodes so the
    // next fetch re-decodes from memory; the executing store keeps a
    // copy in case it overwrote its own word.
    uncached_ = si;
    mem_.write(ea, val, size);
    uint64_t end = std::min<uint64_t>(ea + size, codeEnd_);
    uint64_t lo = ea > codeBase_ ? (ea - codeBase_) >> 2 : 0;
    uint64_t hi = (end - codeBase_ + 3) >> 2;
    for (uint64_t i = lo; i < hi && i < decoded_.size(); ++i)
        decoded_[i].meta = 0;
    return uncached_;
}

const StaticInst &
Emulator::execute(Effects &fx)
{
    if (halted_)
        throw EmulationError("execute() after halt");

    const StaticInst *si = &fetch(fx);
    const uint64_t pc = pc_;
    uint64_t next = pc + 4;
    fx.addr = 0;
    fx.taken = false;

    // Operands as integers: ra, then rb or the literal. The zero
    // registers are never written, so no operand needs a zero test.
    const int64_t a = ireg_[si->ra];
    const int64_t b = si->useLiteral ? si->literal : ireg_[si->rb];
    const auto ua = static_cast<uint64_t>(a);
    const auto ub = static_cast<uint64_t>(b);
    const double fa = freg_[si->ra];
    const double fb = freg_[si->rb];
    // A memory reference's address: base rb plus displacement.
    const uint64_t ea = ub + static_cast<uint64_t>(int64_t{si->disp});
    const uint64_t target =
        pc + 4 + static_cast<uint64_t>(int64_t{si->disp} * 4);

    auto setInt = [this, si](int64_t v) { setIntReg(si->rc, v); };
    auto setFp = [this, si](double v) { setFpReg(si->rc, v); };
    // A control instruction's address is its next pc.
    auto branch = [&fx, &next, target](bool taken) {
        if (taken)
            next = target;
        fx.addr = next;
        fx.taken = taken;
    };

    switch (si->op) {
      // Integer operate.
      case Opcode::ADD: setInt(static_cast<int64_t>(ua + ub)); break;
      case Opcode::SUB: setInt(static_cast<int64_t>(ua - ub)); break;
      case Opcode::MUL: setInt(static_cast<int64_t>(ua * ub)); break;
      // INT64_MIN / -1 overflows (and traps on x86): a divisor of -1
      // negates with two's-complement wrap, so the quotient is
      // INT64_MIN and the remainder 0.
      case Opcode::DIV:
        setInt(b == 0 ? 0
               : b == -1 ? static_cast<int64_t>(0 - ua)
                         : a / b);
        break;
      case Opcode::REM: setInt(b == 0 || b == -1 ? 0 : a % b); break;
      case Opcode::AND: setInt(a & b); break;
      case Opcode::BIS: setInt(a | b); break;
      case Opcode::XOR: setInt(a ^ b); break;
      case Opcode::BIC: setInt(a & ~b); break;
      case Opcode::ORNOT: setInt(a | ~b); break;
      case Opcode::EQV: setInt(a ^ ~b); break;
      case Opcode::SLL:
        setInt(static_cast<int64_t>(ua << (ub & 63)));
        break;
      case Opcode::SRL:
        setInt(static_cast<int64_t>(ua >> (ub & 63)));
        break;
      case Opcode::SRA: setInt(a >> (ub & 63)); break;
      case Opcode::CMPEQ: setInt(a == b); break;
      case Opcode::CMPLT: setInt(a < b); break;
      case Opcode::CMPLE: setInt(a <= b); break;
      case Opcode::CMPULT: setInt(ua < ub); break;
      case Opcode::CMPULE: setInt(ua <= ub); break;
      case Opcode::S4ADD: setInt(static_cast<int64_t>(ua * 4 + ub)); break;
      case Opcode::S8ADD: setInt(static_cast<int64_t>(ua * 8 + ub)); break;

      // Floating-point operate.
      case Opcode::ADDF: setFp(fa + fb); break;
      case Opcode::SUBF: setFp(fa - fb); break;
      case Opcode::MULF: setFp(fa * fb); break;
      case Opcode::DIVF: setFp(fb == 0.0 ? 0.0 : fa / fb); break;
      case Opcode::CMPFEQ: setFp(fa == fb ? 1.0 : 0.0); break;
      case Opcode::CMPFLT: setFp(fa < fb ? 1.0 : 0.0); break;
      case Opcode::CMPFLE: setFp(fa <= fb ? 1.0 : 0.0); break;
      case Opcode::SQRTF: setFp(fa < 0.0 ? 0.0 : std::sqrt(fa)); break;
      case Opcode::ITOF: setFp(static_cast<double>(a)); break;
      case Opcode::FTOI: setInt(static_cast<int64_t>(fa)); break;

      // Memory: address arithmetic, loads into ra, stores of ra.
      case Opcode::LDA:
        setIntReg(si->ra, static_cast<int64_t>(ea));
        break;
      case Opcode::LDAH:
        setIntReg(si->ra, b + (static_cast<int64_t>(si->disp) << 16));
        break;
      case Opcode::LDBU:
        fx.addr = ea;
        setIntReg(si->ra, static_cast<int64_t>(mem_.read(ea, 1)));
        break;
      case Opcode::LDW:
        fx.addr = ea;
        setIntReg(si->ra, static_cast<int16_t>(mem_.read(ea, 2)));
        break;
      case Opcode::LDL:
        fx.addr = ea;
        setIntReg(si->ra, static_cast<int32_t>(mem_.read(ea, 4)));
        break;
      case Opcode::LDQ:
        fx.addr = ea;
        setIntReg(si->ra, static_cast<int64_t>(mem_.read(ea, 8)));
        break;
      case Opcode::LDF: {
        fx.addr = ea;
        uint64_t bits = mem_.read(ea, 8);
        double d = 0;
        static_assert(sizeof(d) == sizeof(bits));
        std::memcpy(&d, &bits, sizeof(d));
        setFpReg(si->ra, d);
        break;
      }
      case Opcode::STB: fx.addr = ea; si = &store(ea, ua, 1, *si); break;
      case Opcode::STW: fx.addr = ea; si = &store(ea, ua, 2, *si); break;
      case Opcode::STL: fx.addr = ea; si = &store(ea, ua, 4, *si); break;
      case Opcode::STQ: fx.addr = ea; si = &store(ea, ua, 8, *si); break;
      case Opcode::STF: {
        fx.addr = ea;
        uint64_t bits = 0;
        std::memcpy(&bits, &fa, sizeof(bits));
        si = &store(ea, bits, 8, *si);
        break;
      }

      // Control: ra is the condition or receives the return address.
      case Opcode::BR: case Opcode::BSR:
        setIntReg(si->ra, static_cast<int64_t>(pc + 4));
        branch(true);
        break;
      case Opcode::BEQ: branch(a == 0); break;
      case Opcode::BNE: branch(a != 0); break;
      case Opcode::BLT: branch(a < 0); break;
      case Opcode::BLE: branch(a <= 0); break;
      case Opcode::BGT: branch(a > 0); break;
      case Opcode::BGE: branch(a >= 0); break;
      case Opcode::BLBC: branch((a & 1) == 0); break;
      case Opcode::BLBS: branch((a & 1) == 1); break;
      case Opcode::JMP: case Opcode::JSR: case Opcode::RET:
        setIntReg(si->ra, static_cast<int64_t>(pc + 4));
        next = ub & ~3ull;
        fx.addr = next;
        fx.taken = true;
        break;

      // System.
      case Opcode::HALT:
        halted_ = true;
        break;
      case Opcode::OUT:
        console_ += static_cast<char>(a & 0xFF);
        break;
      default:
        throw EmulationError("bad opcode");
    }

    pc_ = next;
    ++icount_;
    if (!halted_ && (pc_ < codeBase_ || pc_ >= codeEnd_))
        throw EmulationError("pc left text section: 0x"
                             + std::to_string(pc_));
    return *si;
}

ExecRecord
Emulator::step()
{
    ExecRecord rec;
    rec.pc = pc_;
    Effects fx;
    rec.inst = execute(fx);
    rec.nextPc = pc_;
    rec.taken = fx.taken;
    if (!rec.inst.isControl())
        rec.effAddr = fx.addr;
    return rec;
}

uint64_t
Emulator::run(uint64_t max_insts)
{
    Effects fx;
    uint64_t n = 0;
    while (!halted_ && n < max_insts) {
        execute(fx);
        ++n;
    }
    return n;
}

} // namespace hpa::func
