/**
 * @file
 * hpa_sim command-line surface, factored out of main() so the
 * regression tests can drive the parser as a plain function: an
 * options struct, a strict argv parser (unknown options, missing
 * values and malformed numbers all produce a one-line error and
 * exit code 2), and the translation from parsed options to a
 * builder-assembled sim::Machine.
 */

#ifndef HPA_TOOLS_SIM_OPTIONS_HH
#define HPA_TOOLS_SIM_OPTIONS_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/policy_registry.hh"
#include "sim/experiment.hh"

namespace hpa::tools
{

/** Everything hpa_sim accepts on the command line. */
struct SimOptions
{
    std::string bench;
    std::string asm_file;
    unsigned width = 4;
    core::WakeupModel wakeup = core::WakeupModel::Conventional;
    core::RegfileModel regfile = core::RegfileModel::TwoPort;
    core::RecoveryModel recovery = core::RecoveryModel::NonSelective;
    core::RenameModel rename = core::RenameModel::TwoPort;
    unsigned lap = 1024;
    bool lap_set = false;
    unsigned bypass = 1;
    /** Committed-instruction budget per run (never 0: every run
     *  holds its trace in memory, 12 B per instruction). */
    uint64_t insts = 200000;
    uint64_t cycles = 0;
    bool fastforward = true;
    bool report = false;
    bool list = false;
    bool help = false;
    /** --watchdog N: deadlock watchdog threshold in cycles
     *  (0 disables). Unset keeps the CoreConfig default. */
    uint64_t watchdog = 0;
    bool watchdog_set = false;
    /** --check-interval N: scheduler cross-validation every N cycles
     *  (0 = off, the default). */
    uint64_t check_interval = 0;
    /** Output files; "-" means stdout. Empty means not requested. */
    std::string json_out;
    std::string stats_json_out;
    std::string stats_csv_out;

    /** True when a machine-readable document goes to stdout — the
     *  human summary is suppressed so the stream stays parseable. */
    bool
    machineReadableStdout() const
    {
        return json_out == "-" || stats_json_out == "-"
            || stats_csv_out == "-";
    }
};

/** Strict unsigned parse: the whole token must be base-10 digits
 *  (no sign, no whitespace) whose value fits @p out. */
inline bool
parseNumber(const std::string &text, uint64_t &out)
{
    if (text.empty()
        || text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno != 0)
        return false;
    out = v;
    return true;
}

/** Scheduler-policy lookup over the registry ("conv", "seq",
 *  "seq-nopred", "tag-elim", "dlt", ...). */
inline bool
parseWakeupModel(const std::string &v, core::WakeupModel &out)
{
    const core::SchedPolicyInfo *info = core::findSchedPolicy(v);
    if (!info)
        return false;
    out = info->model;
    return true;
}

/** Register-file-policy lookup over the registry ("2port", "seq",
 *  "extra-stage", "half-xbar", "prefetch", ...). */
inline bool
parseRegfileModel(const std::string &v, core::RegfileModel &out)
{
    const core::RFPolicyInfo *info = core::findRFPolicy(v);
    if (!info)
        return false;
    out = info->model;
    return true;
}

inline bool
parseRecoveryModel(const std::string &v, core::RecoveryModel &out)
{
    if (v == "sel")
        out = core::RecoveryModel::Selective;
    else if (v == "nonsel")
        out = core::RecoveryModel::NonSelective;
    else
        return false;
    return true;
}

inline bool
parseRenameModel(const std::string &v, core::RenameModel &out)
{
    if (v == "half")
        out = core::RenameModel::HalfPort;
    else if (v == "2port")
        out = core::RenameModel::TwoPort;
    else
        return false;
    return true;
}

/**
 * Parse argv[1..argc) into @p opt. Returns 0 on success; on any
 * error returns 2 with a one-line description in @p err (the
 * caller prints it and the usage text). --help and --list are
 * reported as flags, not handled here.
 *
 * Value-taking options accept both `--flag value` and `--flag=value`;
 * repeated options are last-wins. Numeric values must be base-10
 * unsigned integers, and options stored in an `unsigned` field
 * additionally reject values above its range (no silent truncation:
 * `--width 4294967300` is an error, not width 4).
 */
inline int
parseSimOptions(const std::vector<std::string> &args, SimOptions &opt,
                std::string &err)
{
    auto fail = [&](std::string msg) {
        err = std::move(msg);
        return 2;
    };
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &orig = args[i];
        std::string a = orig;
        std::optional<std::string> inline_val;
        if (a.size() > 2 && a[0] == '-' && a[1] == '-') {
            size_t eq = a.find('=');
            if (eq != std::string::npos) {
                inline_val = a.substr(eq + 1);
                a.resize(eq);
            }
        }
        auto need = [&](std::string *v) {
            if (inline_val) {
                *v = *inline_val;
                inline_val.reset();
                return true;
            }
            if (i + 1 >= args.size())
                return false;
            *v = args[++i];
            return true;
        };
        auto needNumber = [&](uint64_t *v) {
            std::string text;
            if (!need(&text) || !parseNumber(text, *v)) {
                err = a + " expects an unsigned integer"
                    + (text.empty() ? "" : ", got '" + text + "'");
                return false;
            }
            return true;
        };
        auto needUnsigned = [&](unsigned *v) {
            uint64_t wide = 0;
            if (!needNumber(&wide))
                return false;
            if (wide > std::numeric_limits<unsigned>::max()) {
                err = a + " value out of range";
                return false;
            }
            *v = unsigned(wide);
            return true;
        };
        std::string v;
        if (a == "--help" || a == "-h") {
            opt.help = true;
        } else if (a == "--list") {
            opt.list = true;
        } else if (a == "--bench") {
            if (!need(&opt.bench))
                return fail("--bench needs a value");
        } else if (a == "--asm") {
            if (!need(&opt.asm_file))
                return fail("--asm needs a value");
        } else if (a == "--width") {
            if (!needUnsigned(&opt.width))
                return 2;
        } else if (a == "--wakeup") {
            if (!need(&v) || !parseWakeupModel(v, opt.wakeup))
                return fail("--wakeup expects a registered scheduler "
                            "policy ("
                            + core::schedPolicyNames() + ")");
        } else if (a == "--regfile") {
            if (!need(&v) || !parseRegfileModel(v, opt.regfile))
                return fail("--regfile expects a registered "
                            "register-file policy ("
                            + core::rfPolicyNames() + ")");
        } else if (a == "--recovery") {
            if (!need(&v) || !parseRecoveryModel(v, opt.recovery))
                return fail("--recovery expects nonsel | sel");
        } else if (a == "--rename") {
            if (!need(&v) || !parseRenameModel(v, opt.rename))
                return fail("--rename expects 2port | half");
        } else if (a == "--lap") {
            if (!needUnsigned(&opt.lap))
                return 2;
            opt.lap_set = true;
        } else if (a == "--bypass") {
            if (!needUnsigned(&opt.bypass))
                return 2;
        } else if (a == "--insts") {
            if (!needNumber(&opt.insts))
                return 2;
            if (opt.insts == 0)
                return fail("--insts must be at least 1 (a run holds "
                            "its trace in memory, 12 B per "
                            "instruction)");
        } else if (a == "--cycles") {
            if (!needNumber(&opt.cycles))
                return 2;
        } else if (a == "--watchdog") {
            if (!needNumber(&opt.watchdog))
                return 2;
            opt.watchdog_set = true;
        } else if (a == "--check-interval") {
            if (!needNumber(&opt.check_interval))
                return 2;
        } else if (a == "--no-fastforward") {
            opt.fastforward = false;
        } else if (a == "--report") {
            opt.report = true;
        } else if (a == "--json") {
            if (!need(&opt.json_out))
                return fail("--json needs a file (or '-')");
        } else if (a == "--stats-json") {
            if (!need(&opt.stats_json_out))
                return fail("--stats-json needs a file (or '-')");
        } else if (a == "--stats-csv") {
            if (!need(&opt.stats_csv_out))
                return fail("--stats-csv needs a file (or '-')");
        } else {
            return fail("unknown option: " + orig);
        }
        if (inline_val)
            return fail(a + " does not take a value");
    }
    return 0;
}

/**
 * Assemble the machine the options describe; its name is
 * sim::machineName() of the result, so an option left at its Table 1
 * default adds nothing to it. lap() is only forwarded when --lap was
 * given, because the builder rejects a predictor table on
 * predictor-less wakeup schemes. Throws hpa::ConfigError (a
 * std::invalid_argument) on invalid combinations (bad width, --lap
 * with --wakeup conv, ...). The robustness knobs (--watchdog,
 * --check-interval) are applied after build(); they are not part of
 * the machine name.
 */
inline sim::Machine
machineFor(const SimOptions &opt)
{
    auto b = sim::Machine::base(opt.width)
                 .wakeup(opt.wakeup)
                 .regfile(opt.regfile)
                 .recovery(opt.recovery)
                 .rename(opt.rename)
                 .bypassWindow(opt.bypass);
    if (opt.lap_set)
        b.lap(opt.lap);
    sim::Machine m = b.build();
    if (opt.watchdog_set)
        m.cfg.watchdog_cycles = opt.watchdog;
    if (opt.check_interval)
        m.cfg.check_interval = opt.check_interval;
    return m;
}

} // namespace hpa::tools

#endif // HPA_TOOLS_SIM_OPTIONS_HH
