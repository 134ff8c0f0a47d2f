#include "sim/experiment.hh"

#include <algorithm>

#include "core/policy_registry.hh"
#include "sim/error.hh"

namespace hpa::sim
{

const char *
statusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::Failed:
        return "failed";
    }
    return "?";
}

std::string
machineName(const core::CoreConfig &cfg)
{
    const core::CoreConfig base =
        cfg.width == 8 ? core::eightWideConfig() : core::fourWideConfig();
    std::string name = std::to_string(cfg.width) + "-wide";
    name += core::schedPolicyFor(cfg.wakeup).suffix;
    name += core::rfPolicyFor(cfg.regfile).suffix;
    if (cfg.recovery != base.recovery)
        name += "/selective";
    if (cfg.rename != base.rename)
        name += "/half-rename";
    auto knob = [&](const char *tag, unsigned value, unsigned table1) {
        if (value != table1)
            name += tag + std::to_string(value);
    };
    knob("/lap", cfg.lap_entries, base.lap_entries);
    knob("/bypass", cfg.bypass_window, base.bypass_window);
    knob("/detect", cfg.tagelim_detect_delay, base.tagelim_detect_delay);
    return name;
}

MachineBuilder
Machine::base(unsigned width)
{
    if (width != 4 && width != 8)
        throw ConfigError(
            "machine width must be 4 or 8 (Table 1), got "
            + std::to_string(width));
    return MachineBuilder(width == 8 ? core::eightWideConfig()
                                     : core::fourWideConfig());
}

MachineBuilder &
MachineBuilder::wakeup(core::WakeupModel w)
{
    cfg_.wakeup = w;
    return *this;
}

MachineBuilder &
MachineBuilder::regfile(core::RegfileModel r)
{
    cfg_.regfile = r;
    return *this;
}

MachineBuilder &
MachineBuilder::recovery(core::RecoveryModel r)
{
    cfg_.recovery = r;
    return *this;
}

MachineBuilder &
MachineBuilder::rename(core::RenameModel r)
{
    cfg_.rename = r;
    return *this;
}

MachineBuilder &
MachineBuilder::lap(unsigned entries)
{
    cfg_.lap_entries = entries;
    lapSet_ = true;
    return *this;
}

MachineBuilder &
MachineBuilder::bypassWindow(unsigned cycles)
{
    cfg_.bypass_window = cycles;
    return *this;
}

MachineBuilder &
MachineBuilder::detectDelay(unsigned cycles)
{
    cfg_.tagelim_detect_delay = cycles;
    detectSet_ = true;
    return *this;
}

Machine
MachineBuilder::build() const
{
    const core::CoreConfig &cfg = cfg_;
    const std::string name = machineName(cfg);
    bool predictor_wakeup =
        cfg.wakeup == core::WakeupModel::Sequential
        || cfg.wakeup == core::WakeupModel::TagElimination;

    if (lapSet_ && !predictor_wakeup)
        throw ConfigError(
            "machine '" + name
            + "': lap() needs a predictor-based wakeup scheme "
              "(Sequential or TagElimination)");
    if (cfg.lap_entries == 0
        || (cfg.lap_entries & (cfg.lap_entries - 1)))
        throw ConfigError(
            "machine '" + name
            + "': predictor entries must be a power of 2, got "
            + std::to_string(cfg.lap_entries));
    if (detectSet_ && cfg.wakeup != core::WakeupModel::TagElimination)
        throw ConfigError(
            "machine '" + name
            + "': detectDelay() only applies to tag elimination");
    if (cfg.tagelim_detect_delay == 0)
        throw ConfigError(
            "machine '" + name
            + "': tag-elimination detect delay must be >= 1 cycle");
    if (cfg.bypass_window == 0)
        throw ConfigError(
            "machine '" + name
            + "': bypass window must be >= 1 cycle");
    return Machine{name, cfg};
}

void
ExperimentSpec::validate() const
{
    if (machine.name.empty() || machine.cfg.width == 0)
        throw ConfigError(
            "experiment spec has no machine (use Machine::base())");
    if (workload.empty())
        throw ConfigError(
            "experiment spec has no workload");
    const auto names = workloads::benchmarkNames();
    if (std::find(names.begin(), names.end(), workload)
        == names.end()) {
        SimContext ctx;
        ctx.machine = machine.name;
        ctx.workload = workload;
        throw ConfigError("unknown workload '" + workload
                              + "' (see workloads::benchmarkNames())",
                          ctx);
    }
}

const core::CoreStats &
RunResult::coreStats() const
{
    return sim->core().stats();
}

stats::Registry
RunResult::statsRegistry() const
{
    return sim->statsRegistry();
}

void
RunResult::toJson(stats::json::JsonWriter &jw, bool with_stats) const
{
    jw.beginObject()
        .kv("schema", JSON_SCHEMA)
        .kv("workload", spec.workload)
        .kv("machine", spec.machine.name)
        .kv("width", spec.machine.cfg.width)
        .kv("max_insts", spec.max_insts)
        .kv("max_cycles", spec.max_cycles)
        .kv("fast_forward", spec.fast_forward)
        .kv("status", statusName(outcome.status))
        .kv("valid", valid())
        .kv("steady_missing", outcome.steadyMissing)
        .kv("ipc", ipc)
        .kv("committed", committed)
        .kv("cycles", cycles)
        .kv("fast_forwarded", fastForwarded);
    if (!outcome.ok()) {
        jw.kv("error_kind", kindName(outcome.errorKind))
            .kv("error", outcome.error);
    }
    if (with_stats && sim) {
        jw.key("stats");
        statsRegistry().toJson(jw);
    }
    jw.endObject();
}

void
RunResult::toJson(std::ostream &os, bool with_stats) const
{
    stats::json::JsonWriter jw(os);
    toJson(jw, with_stats);
}

} // namespace hpa::sim
