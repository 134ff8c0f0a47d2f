/**
 * @file
 * String-keyed registry of scheduler and register-file policies.
 *
 * One table per policy axis maps a short registry key (the name
 * the `--wakeup` / `--regfile` CLI flags accept) to the machine-name
 * suffix that `sim::machineName()` appends (empty for the base
 * machine's policy) and the `CoreConfig` enum it selects. The
 * suffixes key the golden IPC gate, so they are part of the stable
 * surface; the hpa-lint HPA006 rule requires every registered name
 * to be documented in EXPERIMENTS.md.
 */

#ifndef HPA_CORE_POLICY_REGISTRY_HH
#define HPA_CORE_POLICY_REGISTRY_HH

#include <string>
#include <string_view>
#include <vector>

#include "core/config.hh"

namespace hpa::core
{

/** One registered scheduler (wakeup/select) policy. */
struct SchedPolicyInfo
{
    const char *name;   ///< registry key ("conv", "dlt", ...)
    const char *suffix; ///< machine-name suffix ("", "/seq-wakeup", ...)
    WakeupModel model;  ///< CoreConfig selection
};

/** One registered register-file read-port policy. */
struct RFPolicyInfo
{
    const char *name;
    const char *suffix;
    RegfileModel model;
};

/** All registered policies, registration order. */
const std::vector<SchedPolicyInfo> &schedPolicies();
const std::vector<RFPolicyInfo> &rfPolicies();

/** Lookup by registry key; nullptr when unknown. */
const SchedPolicyInfo *findSchedPolicy(std::string_view name);
const RFPolicyInfo *findRFPolicy(std::string_view name);

/** Reverse lookup by model (every enumerator is registered). */
const SchedPolicyInfo &schedPolicyFor(WakeupModel model);
const RFPolicyInfo &rfPolicyFor(RegfileModel model);

/** Comma-separated registry keys, for unknown-name error messages
 *  and CLI help text. */
std::string schedPolicyNames();
std::string rfPolicyNames();

} // namespace hpa::core

#endif // HPA_CORE_POLICY_REGISTRY_HH
