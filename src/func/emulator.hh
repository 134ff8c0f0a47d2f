/**
 * @file
 * Functional emulator for HPA-ISA. Executes an assembled program
 * architecturally and, per retired instruction, produces the dynamic
 * record (next PC, branch outcome, effective address) that drives the
 * timing simulator's committed-path front end.
 */

#ifndef HPA_FUNC_EMULATOR_HH
#define HPA_FUNC_EMULATOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "func/memory.hh"
#include "isa/static_inst.hh"
#include "sim/error.hh"

namespace hpa::func
{

/** Dynamic record of one architecturally executed instruction. */
struct ExecRecord
{
    uint64_t pc = 0;
    uint64_t nextPc = 0;
    isa::StaticInst inst;
    /** Control instruction actually redirected the PC. */
    bool taken = false;
    /** Effective address for memory references. */
    uint64_t effAddr = 0;
};

/** Raised on illegal instructions or runaway execution. Part of the
 *  SimError taxonomy (kind Workload): a kernel that faults during
 *  architectural execution is a workload failure. */
class EmulationError : public std::runtime_error, public SimError
{
  public:
    explicit EmulationError(const std::string &msg)
        : std::runtime_error(msg),
          SimError(ErrorKind::Workload, msg, {})
    {}

    const char *
    what() const noexcept override
    {
        return std::runtime_error::what();
    }
};

/**
 * Architectural-state interpreter. One instruction per execute();
 * halts on HALT or when the PC leaves the text section.
 */
class Emulator
{
  public:
    /** What execute() reports of an instruction besides its decoded
     *  form. */
    struct Effects
    {
        /** The effective address of a memory reference, the next pc
         *  of a control instruction, 0 for anything else (which
         *  falls through to pc + 4). */
        uint64_t addr = 0;
        /** Control instruction actually redirected the PC. */
        bool taken = false;
        /** This execution decoded the instruction word: its first,
         *  its first after a store into the text segment, or any
         *  execution of a pc off the word grid. Otherwise the
         *  instruction came unchanged from the decode cache. */
        bool decoded = false;
    };

    explicit Emulator(const assembler::Program &prog);

    /**
     * Execute the instruction at pc(): the one execute path, behind
     * step(), run() and CommittedTrace::capture. Must not be called
     * after halted().
     * @return the decoded instruction, valid until the next
     *         execute().
     */
    const isa::StaticInst &execute(Effects &fx);

    /** execute(), copied into a record. Must not be called after
     *  halted(). */
    ExecRecord step();

    /**
     * Run until HALT or @p max_insts instructions.
     * @return number of instructions executed.
     */
    uint64_t run(uint64_t max_insts);

    bool halted() const { return halted_; }
    uint64_t pc() const { return pc_; }
    uint64_t instCount() const { return icount_; }

    /** Bytes emitted by OUT instructions. */
    const std::string &console() const { return console_; }

    int64_t intReg(unsigned i) const { return ireg_[i]; }
    double fpReg(unsigned i) const { return freg_[i]; }
    void setIntReg(unsigned i, int64_t v);
    void setFpReg(unsigned i, double v);

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }

  private:
    uint64_t pc_;
    /** The zero registers are never written, so they read 0. */
    std::array<int64_t, isa::NUM_INT_REGS> ireg_{};
    std::array<double, isa::NUM_FP_REGS> freg_{};
    Memory mem_;
    bool halted_ = false;
    uint64_t icount_ = 0;
    std::string console_;

    uint64_t codeBase_;
    uint64_t codeEnd_;

    /** Lazily decoded text segment, one entry per aligned code word:
     *  decode (and the StaticInst::finalize operand-property
     *  precompute) runs once per *static* instruction instead of
     *  once per executed instruction. An entry whose meta is 0 is not
     *  decoded (decode finalizes every instruction, which sets
     *  META_VALID). Stores that overlap the text segment clear the
     *  covered entries' meta, so self-modifying code still
     *  re-decodes from memory. */
    std::vector<isa::StaticInst> decoded_;
    /** The executing instruction when the decode cache cannot hold
     *  it: a pc off the word grid, or a store that overwrote its own
     *  word. */
    isa::StaticInst uncached_;

    /** The decoded instruction at pc_; sets @p fx.decoded. */
    const isa::StaticInst &fetch(Effects &fx);
    /** Store the low @p size bytes of @p val at @p ea for the
     *  executing store @p si, and return where @p si now lives. */
    const isa::StaticInst &store(uint64_t ea, uint64_t val,
                                 unsigned size,
                                 const isa::StaticInst &si);
};

} // namespace hpa::func

#endif // HPA_FUNC_EMULATOR_HH
