#include "core/synthetic.hh"

#include <random>
#include <vector>

namespace hpa::core
{

using isa::Opcode;
using isa::RegIndex;

namespace
{

/** The stream's generator state: one RNG, the PC and a rolling
 *  recent-destination window for dependence distances. */
class Generator
{
  public:
    explicit Generator(const SyntheticParams &params)
        : p_(params), rng_(params.seed), pc_(0x1000)
    {
        // Seed the recent-destination window so early sources
        // resolve.
        for (unsigned r = 1; r <= 8; ++r)
            recentDests_.push_back(static_cast<RegIndex>(r));
    }

    /** The next record; @p last makes it the closing HALT. */
    func::ExecRecord next(bool last);

  private:
    SyntheticParams p_;
    std::mt19937_64 rng_;
    uint64_t pc_;
    std::vector<RegIndex> recentDests_;

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    }

    RegIndex pickSrc();
    RegIndex pickDest();
};

RegIndex
Generator::pickSrc()
{
    if (uniform() < p_.zero_reg_frac)
        return isa::INT_ZERO_REG;
    // Geometric dependence distance over recently written registers.
    size_t d = 0;
    while (uniform() > p_.dep_distance_p
           && d + 1 < recentDests_.size())
        ++d;
    return recentDests_[recentDests_.size() - 1 - d];
}

RegIndex
Generator::pickDest()
{
    auto r = static_cast<RegIndex>(
        1 + std::uniform_int_distribution<int>(0, 28)(rng_));
    recentDests_.push_back(r);
    if (recentDests_.size() > 24)
        recentDests_.erase(recentDests_.begin());
    return r;
}

func::ExecRecord
Generator::next(bool last)
{
    func::ExecRecord rec;
    rec.pc = pc_;
    uint64_t next_pc = pc_ + 4;

    double roll = uniform();
    if (last) {
        rec.inst = isa::makeSystem(Opcode::HALT);
    } else if (roll < p_.load_frac) {
        rec.inst = isa::makeMem(Opcode::LDQ, pickDest(), pickSrc(), 0);
        rec.effAddr = 0x200000
            + (rng_() % p_.mem_span & ~7ull);
    } else if (roll < p_.load_frac + p_.store_frac) {
        RegIndex data = pickSrc();
        RegIndex base = pickSrc();
        rec.inst = isa::makeMem(Opcode::STQ, data, base, 0);
        rec.effAddr = 0x200000
            + (rng_() % p_.mem_span & ~7ull);
    } else if (roll < p_.load_frac + p_.store_frac + p_.branch_frac) {
        rec.inst = isa::makeBranch(Opcode::BNE, pickSrc(), 0);
        if (uniform() < p_.taken_frac) {
            rec.taken = true;
            // Jump within a bounded synthetic text region.
            int64_t hop =
                std::uniform_int_distribution<int64_t>(-64, 64)(rng_);
            next_pc = 0x1000
                + (((pc_ - 0x1000) / 4 + 4096 + hop) % 4096) * 4;
        }
    } else if (uniform() < p_.two_source_frac) {
        rec.inst = isa::makeOp(Opcode::ADD, pickSrc(), pickSrc(),
                               pickDest());
    } else {
        rec.inst = isa::makeOpImm(Opcode::ADD, pickSrc(),
                                  static_cast<uint8_t>(rng_() & 0xFF),
                                  pickDest());
    }

    rec.nextPc = next_pc;
    pc_ = next_pc;
    return rec;
}

} // namespace

func::CommittedTrace
syntheticTrace(const SyntheticParams &params)
{
    Generator gen(params);
    std::vector<func::ExecRecord> records;
    records.reserve(params.num_insts);
    for (uint64_t i = 1; i <= params.num_insts; ++i)
        records.push_back(gen.next(i == params.num_insts));
    return func::CommittedTrace(records);
}

} // namespace hpa::core
