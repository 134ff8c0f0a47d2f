#include "bpred/bpred.hh"

namespace hpa::bpred
{

Btb::Btb(unsigned entries, unsigned assoc)
    : sets_(entries / assoc), assoc_(assoc), entries_(entries)
{}

std::optional<uint64_t>
Btb::lookup(uint64_t pc) const
{
    uint64_t idx = (pc >> 2) & (sets_ - 1);
    uint64_t tag = pc >> 2;
    const Entry *s = &entries_[idx * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (s[w].valid && s[w].tag == tag)
            return s[w].target;
    return std::nullopt;
}

void
Btb::update(uint64_t pc, uint64_t target)
{
    uint64_t idx = (pc >> 2) & (sets_ - 1);
    uint64_t tag = pc >> 2;
    Entry *s = &entries_[idx * assoc_];
    Entry *victim = &s[0];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (s[w].valid && s[w].tag == tag) {
            s[w].target = target;
            s[w].lru = ++clock_;
            return;
        }
        if (!s[w].valid)
            victim = &s[w];
        else if (victim->valid && s[w].lru < victim->lru)
            victim = &s[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lru = ++clock_;
}

void
Ras::push(uint64_t addr)
{
    top_ = unsigned((top_ + 1) % stack_.size());
    stack_[top_] = addr;
    if (count_ < stack_.size())
        ++count_;
}

uint64_t
Ras::pop()
{
    if (count_ == 0)
        return 0;
    uint64_t v = stack_[top_];
    top_ = unsigned((top_ + stack_.size() - 1) % stack_.size());
    --count_;
    return v;
}

BranchPredictor::BranchPredictor(const BPredConfig &config)
    : lookups("bpred.lookups", "control-flow predictions"),
      dirMispredicts("bpred.dir_mispredicts",
                     "conditional direction mispredictions"),
      targetMispredicts("bpred.target_mispredicts",
                        "taken-branch target mispredictions"),
      cfg_(config),
      bimodal_(config.bimodal_entries),
      gshare_(config.gshare_entries),
      selector_(config.selector_entries, 2),
      btb_(config.btb_entries, config.btb_assoc),
      ras_(config.ras_entries)
{}

uint64_t
BranchPredictor::gshareIndex(uint64_t pc) const
{
    uint64_t h = history_ & ((1ull << cfg_.history_bits) - 1);
    return (pc >> 2) ^ h;
}

Prediction
BranchPredictor::predict(uint64_t pc, const isa::StaticInst &si)
{
    ++lookups;
    Prediction p;

    if (si.isReturn()) {
        p.taken = true;
        p.target = ras_.pop();
        p.targetKnown = true;
        return p;
    }

    if (si.isCall())
        ras_.push(pc + 4);

    if (si.isIndirect()) {
        // JMP/JSR: always taken, target from BTB.
        p.taken = true;
        if (auto t = btb_.lookup(pc)) {
            p.target = *t;
            p.targetKnown = true;
        }
        return p;
    }

    // PC-relative target computable at decode.
    uint64_t rel_target =
        pc + 4 + (static_cast<int64_t>(si.disp) << 2);

    if (si.isUncondControl()) {
        p.taken = true;
        p.target = rel_target;
        p.targetKnown = true;
        return p;
    }

    // Conditional branch: combined direction predictor.
    bool bim = bimodal_.taken(pc >> 2);
    bool gsh = gshare_.taken(gshareIndex(pc));
    bool use_gshare = selector_.taken(pc >> 2);
    p.taken = use_gshare ? gsh : bim;
    p.target = rel_target;
    p.targetKnown = true;
    return p;
}

void
BranchPredictor::resolve(uint64_t pc, const isa::StaticInst &si,
                         bool taken, uint64_t target)
{
    if (si.isCondBranch()) {
        bool bim = bimodal_.taken(pc >> 2);
        bool gsh = gshare_.taken(gshareIndex(pc));
        // Train the selector toward the component that was right
        // (only when they disagree).
        if (bim != gsh)
            selector_.update(pc >> 2, gsh == taken);
        bimodal_.update(pc >> 2, taken);
        gshare_.update(gshareIndex(pc), taken);
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }
    if (taken && si.isIndirect() && !si.isReturn())
        btb_.update(pc, target);
}

void
BranchPredictor::regStats(stats::Registry &reg)
{
    reg.add(&lookups);
    reg.add(&dirMispredicts);
    reg.add(&targetMispredicts);
}

void
BranchPredictor::release()
{
    bimodal_ = gshare_ = selector_ = TwoBitTable(0);
    btb_ = Btb(0, 1);
    ras_ = Ras(0);
}

} // namespace hpa::bpred
