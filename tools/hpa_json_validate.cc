/**
 * @file
 * Schema gate for the simulator's machine-readable artifacts:
 * check that a document is well-formed JSON (RFC 8259) and, when
 * --schema is given, that its "schema" field carries the expected
 * version tag — and, for the schemas this repo emits, that every
 * required field is present (so a truncated or hand-edited artifact
 * cannot slip through on the version tag alone). Reads a file,
 * stdin ("-"), or the stdout of a child command (--exec) so ctest
 * can gate an emitter without a shell pipeline:
 *
 *   hpa_json_validate --schema hpa.stats.v1 stats.json
 *   hpa_json_validate --schema hpa.stats.v1 \
 *       --exec "hpa_sim --bench gzip --insts 20000 --stats-json -"
 *
 * Exit codes: 0 valid, 1 invalid or unreadable, 2 usage error.
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stats/json.hh"

namespace
{

/**
 * Required keys per known schema tag. Presence-only (the document
 * already passed the full syntax validator); unknown tags get the
 * version check alone.
 */
const std::map<std::string, std::vector<std::string>> &
requiredFields()
{
    static const std::map<std::string, std::vector<std::string>> req =
        {
            {"hpa.stats.v1",
             {"counters", "distributions", "formulas"}},
            {"hpa.lint.v1",
             {"files_scanned", "rules", "findings", "suppressed",
              "ok"}},
            {"hpa.prove.v1",
             {"mode", "roots", "properties", "stale_allows",
              "ok"}},
            {"hpa.run.v3",
             {"workload", "machine", "status", "valid",
              "steady_missing", "ipc", "committed", "cycles"}},
            {"hpa.sweep-golden.v1", {"insts_per_run"}},
        };
    return req;
}

/** Check every required key for @p schema appears as a JSON key. */
bool
checkRequired(const std::string &schema, const std::string &text,
              std::string &missing)
{
    auto it = requiredFields().find(schema);
    if (it == requiredFields().end())
        return true;
    for (const auto &key : it->second) {
        if (text.find("\"" + key + "\"") == std::string::npos) {
            missing = key;
            return false;
        }
    }
    return true;
}

void
usage(std::ostream &os)
{
    os << "usage: hpa_json_validate [--schema TAG] FILE|-\n"
          "       hpa_json_validate [--schema TAG] --exec \"CMD\"\n";
}

/** Capture a child command's stdout; false on spawn/exit failure. */
bool
captureExec(const std::string &cmd, std::string &out)
{
    FILE *p = popen(cmd.c_str(), "r");
    if (!p) {
        std::cerr << "cannot run: " << cmd << "\n";
        return false;
    }
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    int status = pclose(p);
    if (status != 0) {
        std::cerr << "command failed (status " << status
                  << "): " << cmd << "\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string schema, exec_cmd, file;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(std::cout);
            return 0;
        } else if (a == "--schema") {
            if (++i >= argc) {
                std::cerr << "--schema needs a value\n";
                return 2;
            }
            schema = argv[i];
        } else if (a == "--exec") {
            if (++i >= argc) {
                std::cerr << "--exec needs a command\n";
                return 2;
            }
            exec_cmd = argv[i];
        } else if (a.size() > 1 && a[0] == '-' && a != "-") {
            std::cerr << "unknown option: " << a << "\n";
            usage(std::cerr);
            return 2;
        } else if (file.empty()) {
            file = a;
        } else {
            std::cerr << "more than one input\n";
            return 2;
        }
    }
    if (exec_cmd.empty() == file.empty()) {
        std::cerr << "exactly one of FILE or --exec is required\n";
        usage(std::cerr);
        return 2;
    }

    std::string text;
    if (!exec_cmd.empty()) {
        if (!captureExec(exec_cmd, text))
            return 1;
    } else if (file == "-") {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        text = ss.str();
    } else {
        FILE *f = fopen(file.c_str(), "rb");
        if (!f) {
            std::cerr << "cannot open " << file << "\n";
            return 1;
        }
        char buf[4096];
        size_t n;
        while ((n = fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        fclose(f);
    }

    std::string err;
    if (!hpa::stats::json::validate(text, &err)) {
        std::cerr << "invalid JSON: " << err << "\n";
        return 1;
    }
    if (!schema.empty()) {
        std::string got =
            hpa::stats::json::findStringField(text, "schema");
        if (got != schema) {
            std::cerr << "schema mismatch: expected \"" << schema
                      << "\", document has \""
                      << (got.empty() ? "<none>" : got) << "\"\n";
            return 1;
        }
        std::string missing;
        if (!checkRequired(schema, text, missing)) {
            std::cerr << "schema " << schema
                      << ": required field \"" << missing
                      << "\" is missing\n";
            return 1;
        }
    }
    std::cout << "OK: " << text.size() << " bytes of valid JSON";
    if (!schema.empty())
        std::cout << ", schema " << schema;
    std::cout << "\n";
    return 0;
}
