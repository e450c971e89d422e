#include "output.hh"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace pagesim::lint
{

namespace
{

/** JSON string escaping (control chars, quote, backslash). */
std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** One-line descriptions for the SARIF rule catalog. */
std::string
ruleDescription(const std::string &rule)
{
    static const std::map<std::string, std::string> kDesc{
        {"det-clock", "no wall clocks in simulation layers"},
        {"det-rand", "no ambient randomness in simulation layers"},
        {"det-ptr-hash", "no pointer-value hashing or ordering"},
        {"det-unordered", "no unordered containers in sim state"},
        {"det-unordered-iter",
         "no iteration over unordered containers"},
        {"mut-pte", "tracked PTE flags change only via PageTable"},
        {"mut-pageinfo", "PageInfo link fields writable by FrameList "
                         "only"},
        {"mut-memcg", "PageInfo memcg field moves with Memcg usage "
                      "only"},
        {"layer-dag", "includes must follow the declarative layer "
                      "DAG"},
        {"layer-test", "test-only headers stay out of shipped code"},
        {"charge-pair", "device submit/service calls charge a cost "
                        "in the same body"},
        {"state-cov", "every field of a checkpointable class is "
                      "referenced in its visitState"},
        {"fp-state", "floating-point fields of a checkpointable "
                     "class carry a written reason"},
        {"par-safety", "parallelMap lambdas write only their "
                       "parameters and locals"},
        {"lint-waiver-reason", "waivers must carry a written reason"},
        {"lint-unused-waiver", "waivers must match a finding"},
    };
    const auto it = kDesc.find(rule);
    return it == kDesc.end() ? rule : it->second;
}

} // namespace

std::string
toJson(const LintResult &result)
{
    std::ostringstream out;
    out << "{\n";
    if (result.configError) {
        out << "  \"config_error\": \""
            << esc(result.configErrorMessage) << "\"\n}\n";
        return out.str();
    }
    out << "  \"files_scanned\": " << result.filesScanned << ",\n";
    out << "  \"fatal\": "
        << (hasFatalFindings(result) ? "true" : "false") << ",\n";
    out << "  \"findings\": [";
    bool first = true;
    for (const Finding &f : result.findings) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"file\": \"" << esc(f.file)
            << "\", \"line\": " << f.line << ", \"rule\": \""
            << esc(f.rule) << "\", \"waived\": "
            << (f.waived ? "true" : "false") << ", \"message\": \""
            << esc(f.message) << "\"";
        if (f.waived)
            out << ", \"waiver_reason\": \"" << esc(f.waiverReason)
                << "\"";
        out << "}";
    }
    out << (first ? "]\n" : "\n  ]\n") << "}\n";
    return out.str();
}

std::string
toSarif(const LintResult &result)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": \"https://raw.githubusercontent.com/"
           "oasis-tcs/sarif-spec/master/Schemata/"
           "sarif-schema-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n    {\n"
        << "      \"tool\": {\n        \"driver\": {\n"
        << "          \"name\": \"pagesim-lint\",\n"
        << "          \"version\": \"2.0.0\",\n"
        << "          \"informationUri\": "
           "\"https://example.invalid/pagesim/DESIGN.md\",\n"
        << "          \"rules\": [";

    std::set<std::string> rules;
    for (const Finding &f : result.findings)
        rules.insert(f.rule);
    bool first = true;
    for (const std::string &r : rules) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "            {\"id\": \"" << esc(r)
            << "\", \"shortDescription\": {\"text\": \""
            << esc(ruleDescription(r)) << "\"}}";
    }
    out << (first ? "]\n" : "\n          ]\n")
        << "        }\n      },\n"
        << "      \"results\": [";

    first = true;
    for (const Finding &f : result.findings) {
        out << (first ? "\n" : ",\n");
        first = false;
        std::string message = f.message;
        if (f.waived)
            message += " (waived: " + f.waiverReason + ")";
        out << "        {\"ruleId\": \"" << esc(f.rule)
            << "\", \"level\": \"" << (f.waived ? "note" : "error")
            << "\", \"message\": {\"text\": \"" << esc(message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << esc(f.file)
            << "\", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": "
               "{\"startLine\": "
            << (f.line > 0 ? f.line : 1) << "}}}]}";
    }
    out << (first ? "]\n" : "\n      ]\n") << "    }\n  ]\n}\n";
    return out.str();
}

std::string
toLedger(const LintResult &result)
{
    std::ostringstream out;
    int waived = 0;
    for (const Finding &f : result.findings)
        waived += f.waived ? 1 : 0;
    out << "# pagesim-lint waiver ledger: " << waived
        << " waived finding(s) across " << result.filesScanned
        << " file(s)\n"
        << "# Every entry is a rule violation excused by a written "
           "reason (inline lint:<name>(...) or allow.txt).\n";
    for (const Finding &f : result.findings) {
        if (!f.waived)
            continue;
        out << f.file << ":" << f.line << ": [" << f.rule << "] "
            << f.waiverReason << "\n";
    }
    return out.str();
}

} // namespace pagesim::lint
