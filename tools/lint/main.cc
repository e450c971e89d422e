/**
 * @file
 * pagesim-lint CLI.
 *
 *   pagesim_lint [--root DIR] [--layers FILE] [--allow FILE]
 *                [--format text|json|sarif] [--ledger FILE]
 *                [--diff-base REF] [--quiet] [paths...]
 *
 * Scans src/ bench/ tests/ (or the given paths) under the repo root
 * and prints structured findings. Exit status: 0 when every finding
 * is waived with a written reason, 1 on any unwaived finding, 2 on a
 * configuration error.
 *
 * --format=json    machine-readable findings on stdout.
 * --format=sarif   SARIF 2.1.0 on stdout (GitHub code scanning).
 * --ledger FILE    also write the waiver ledger to FILE ("-" =
 *                  stdout); CI uploads it as a build artifact.
 * --diff-base REF  fast pre-push mode: lint only files changed
 *                  versus the git ref REF, plus each one's same-stem
 *                  TU sibling (so a .cc is checked against its
 *                  header's field list). Cross-file rules see only
 *                  that subset — the full run in CI is the backstop.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "lint.hh"
#include "output.hh"

namespace
{

using pagesim::lint::Finding;
using pagesim::lint::LintOptions;
using pagesim::lint::LintResult;

/** `git diff --name-only REF` filtered to lintable sources. */
bool
changedFiles(const std::string &root, const std::string &ref,
             std::vector<std::string> &out)
{
    // The ref reaches a shell: accept only plain rev spellings.
    for (const char c : ref) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 &&
            c != '/' && c != '_' && c != '-' && c != '.' &&
            c != '~' && c != '^' && c != '@') {
            std::fprintf(stderr,
                         "pagesim-lint: unsafe --diff-base ref\n");
            return false;
        }
    }
    const std::string cmd = "git -C \"" + root +
                            "\" diff --name-only \"" + ref +
                            "\" -- 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        std::fprintf(stderr, "pagesim-lint: cannot run git\n");
        return false;
    }
    char line[4096];
    std::set<std::string> picked;
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
        std::string f = line;
        while (!f.empty() && (f.back() == '\n' || f.back() == '\r'))
            f.pop_back();
        const auto hasExt = [&f](const char *e) {
            const std::size_t n = std::strlen(e);
            return f.size() > n &&
                   f.compare(f.size() - n, n, e) == 0;
        };
        if (!hasExt(".hh") && !hasExt(".h") && !hasExt(".cc") &&
            !hasExt(".cpp"))
            continue;
        if (f.rfind("src/", 0) != 0 && f.rfind("bench/", 0) != 0 &&
            f.rfind("tests/", 0) != 0)
            continue;
        if (f.find("fixtures/") != std::string::npos)
            continue;
        // The file itself (if it still exists) ...
        if (std::ifstream(root + "/" + f).good())
            picked.insert(f);
        // ... and its TU sibling, so header fields pair with their
        // out-of-line visitState bodies.
        const std::size_t dot = f.rfind('.');
        const std::string stem = f.substr(0, dot);
        for (const char *ext : {".hh", ".h", ".cc", ".cpp"}) {
            const std::string sib = stem + ext;
            if (sib != f && std::ifstream(root + "/" + sib).good())
                picked.insert(sib);
        }
    }
    const int rc = pclose(pipe);
    if (rc != 0) {
        std::fprintf(stderr,
                     "pagesim-lint: git diff against '%s' failed\n",
                     ref.c_str());
        return false;
    }
    out.assign(picked.begin(), picked.end());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pagesim::lint;

    LintOptions options;
    bool quiet = false;
    std::string format = "text";
    std::string ledgerFile;
    std::string diffBase;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            options.root = value("--root");
        } else if (arg == "--layers") {
            options.layersFile = value("--layers");
        } else if (arg == "--allow") {
            options.allowFile = value("--allow");
        } else if (arg == "--format") {
            format = value("--format");
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(std::strlen("--format="));
        } else if (arg == "--ledger") {
            ledgerFile = value("--ledger");
        } else if (arg.rfind("--ledger=", 0) == 0) {
            ledgerFile = arg.substr(std::strlen("--ledger="));
        } else if (arg == "--diff-base") {
            diffBase = value("--diff-base");
        } else if (arg.rfind("--diff-base=", 0) == 0) {
            diffBase = arg.substr(std::strlen("--diff-base="));
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: pagesim_lint [--root DIR] [--layers FILE] "
                "[--allow FILE] [--format text|json|sarif]\n"
                "                    [--ledger FILE] [--diff-base "
                "REF] [--quiet] [paths...]\n"
                "Contract linter for pagesim: determinism, tracked "
                "PTE mutators, layer DAG, charge pairing,\n"
                "checkpoint state coverage, parallel-harvest "
                "safety.\n"
                "Default paths: src bench tests (relative to root).\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return 2;
        } else {
            options.paths.push_back(arg);
        }
    }
    if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "unknown --format: %s\n",
                     format.c_str());
        return 2;
    }

    if (!diffBase.empty()) {
        if (!options.paths.empty()) {
            std::fprintf(stderr, "--diff-base and explicit paths "
                                 "are mutually exclusive\n");
            return 2;
        }
        std::vector<std::string> changed;
        if (!changedFiles(options.root, diffBase, changed))
            return 2;
        if (changed.empty()) {
            if (!quiet)
                std::fprintf(stderr,
                             "pagesim-lint: no lintable files "
                             "changed vs %s\n",
                             diffBase.c_str());
            if (format == "json" || format == "sarif") {
                const LintResult empty;
                std::fputs(format == "json" ? toJson(empty).c_str()
                                            : toSarif(empty).c_str(),
                           stdout);
            }
            return 0;
        }
        options.paths = std::move(changed);
    }

    const LintResult result = runLint(options);
    if (result.configError) {
        std::fprintf(stderr, "pagesim-lint: %s\n",
                     result.configErrorMessage.c_str());
        return 2;
    }

    if (!ledgerFile.empty()) {
        const std::string ledger = toLedger(result);
        if (ledgerFile == "-") {
            std::fputs(ledger.c_str(), stdout);
        } else {
            std::ofstream out(ledgerFile);
            if (!out) {
                std::fprintf(stderr,
                             "pagesim-lint: cannot write %s\n",
                             ledgerFile.c_str());
                return 2;
            }
            out << ledger;
        }
    }

    if (format == "json") {
        std::fputs(toJson(result).c_str(), stdout);
    } else if (format == "sarif") {
        std::fputs(toSarif(result).c_str(), stdout);
    } else {
        int unwaived = 0, waived = 0;
        for (const Finding &f : result.findings) {
            if (f.waived) {
                ++waived;
                if (!quiet)
                    std::printf("%s\n", formatFinding(f).c_str());
            } else {
                ++unwaived;
                std::fprintf(stderr, "%s\n",
                             formatFinding(f).c_str());
            }
        }
        std::fprintf(stderr,
                     "pagesim-lint: %d file(s), %d finding(s) "
                     "(%d unwaived, %d waived)\n",
                     result.filesScanned, unwaived + waived,
                     unwaived, waived);
    }
    return hasFatalFindings(result) ? 1 : 0;
}
