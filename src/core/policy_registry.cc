#include "core/policy_registry.hh"

namespace hpa::core
{

// Registration tables. One entry per line, key first — the hpa-lint
// HPA006 rule extracts the keys from this file and requires each to
// be documented in EXPERIMENTS.md. The base machine's policy comes
// first and adds nothing to a machine name.

const std::vector<SchedPolicyInfo> &
schedPolicies()
{
    static const std::vector<SchedPolicyInfo> table = {
        {"conv", "", WakeupModel::Conventional},
        {"seq", "/seq-wakeup", WakeupModel::Sequential},
        {"seq-nopred", "/seq-wakeup-nopred", WakeupModel::SequentialNoPred},
        {"tag-elim", "/tag-elim", WakeupModel::TagElimination},
        {"dlt", "/dlt-wakeup", WakeupModel::LoadDelayTracking},
    };
    return table;
}

const std::vector<RFPolicyInfo> &
rfPolicies()
{
    static const std::vector<RFPolicyInfo> table = {
        {"2port", "", RegfileModel::TwoPort},
        {"seq", "/seq-rf", RegfileModel::SequentialAccess},
        {"extra-stage", "/extra-rf-stage", RegfileModel::ExtraStage},
        {"half-xbar", "/half-ports-xbar", RegfileModel::HalfPortCrossbar},
        {"prefetch", "/prefetch-rf", RegfileModel::PrefetchBuffer},
    };
    return table;
}

const SchedPolicyInfo *
findSchedPolicy(std::string_view name)
{
    for (const SchedPolicyInfo &p : schedPolicies())
        if (name == p.name)
            return &p;
    return nullptr;
}

const RFPolicyInfo *
findRFPolicy(std::string_view name)
{
    for (const RFPolicyInfo &p : rfPolicies())
        if (name == p.name)
            return &p;
    return nullptr;
}

const SchedPolicyInfo &
schedPolicyFor(WakeupModel model)
{
    for (const SchedPolicyInfo &p : schedPolicies())
        if (p.model == model)
            return p;
    return schedPolicies().front();
}

const RFPolicyInfo &
rfPolicyFor(RegfileModel model)
{
    for (const RFPolicyInfo &p : rfPolicies())
        if (p.model == model)
            return p;
    return rfPolicies().front();
}

namespace
{

template <typename Table>
std::string
joinNames(const Table &table)
{
    std::string out;
    for (const auto &p : table) {
        if (!out.empty())
            out += ", ";
        out += p.name;
    }
    return out;
}

} // namespace

std::string
schedPolicyNames()
{
    return joinNames(schedPolicies());
}

std::string
rfPolicyNames()
{
    return joinNames(rfPolicies());
}

} // namespace hpa::core
