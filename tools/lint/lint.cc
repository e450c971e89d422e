#include "lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lexer.hh"
#include "model.hh"
#include "rules.hh"

namespace fs = std::filesystem;

namespace pagesim::lint
{

namespace
{

/** Split a line into whitespace-separated words. */
std::vector<std::string>
words(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string w;
    while (in >> w)
        out.push_back(w);
    return out;
}

bool
isCxxSource(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".h" || ext == ".cc" ||
           ext == ".cpp";
}

std::string
toRel(const fs::path &p, const fs::path &root)
{
    return fs::relative(p, root).generic_string();
}

/** Strip one trailing extension: "src/a/b.cc" -> "src/a/b". */
std::string
stemOf(const std::string &relPath)
{
    const std::size_t dot = relPath.rfind('.');
    const std::size_t slash = relPath.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return relPath;
    return relPath.substr(0, dot);
}

bool
pathMatches(const std::string &relPath, const std::string &pattern)
{
    if (!pattern.empty() && pattern.back() == '/')
        return relPath.compare(0, pattern.size(), pattern) == 0;
    return relPath == pattern;
}

} // namespace

bool
LayerConfig::load(const std::string &file, LayerConfig &out,
                  std::string &error)
{
    std::ifstream in(file);
    if (!in) {
        error = "cannot open layer table: " + file;
        return false;
    }
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::vector<std::string> w = words(line);
        if (w.empty())
            continue;
        const std::string &kind = w[0];
        if (kind == "layer" && w.size() == 3) {
            out.layers.push_back(Layer{w[1], w[2]});
        } else if (kind == "edge" && w.size() >= 2) {
            for (std::size_t i = 2; i < w.size(); ++i)
                out.edges[w[1]].insert(w[i]);
            out.edges.try_emplace(w[1]); // a lone "edge X" = no deps
        } else if (kind == "simscope" && w.size() >= 2) {
            out.simScope.insert(w.begin() + 1, w.end());
        } else if (kind == "chargescope" && w.size() >= 2) {
            out.chargeScope.insert(w.begin() + 1, w.end());
        } else {
            error = file + ":" + std::to_string(lineNo) +
                    ": unrecognized layer-table line";
            return false;
        }
    }
    return true;
}

bool
loadAllowlist(const std::string &file, std::vector<AllowEntry> &out,
              std::string &error)
{
    std::ifstream in(file);
    if (!in) {
        error = "cannot open allowlist: " + file;
        return false;
    }
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        const std::vector<std::string> w = words(line);
        if (w.empty())
            continue;
        if (w.size() < 4 || w[0] != "allow") {
            error = file + ":" + std::to_string(lineNo) +
                    ": expected 'allow <rule> <path> <reason...>'";
            return false;
        }
        std::string reason = w[3];
        for (std::size_t i = 4; i < w.size(); ++i)
            reason += " " + w[i];
        out.push_back(AllowEntry{w[1], w[2], reason});
    }
    return true;
}

std::string
waiverNameFor(const std::string &rule)
{
    if (rule == kRuleDetClock)
        return "clock-ok";
    if (rule == kRuleDetRand)
        return "rand-ok";
    if (rule == kRuleDetPtrHash)
        return "ptr-hash-ok";
    if (rule == kRuleDetUnordered || rule == kRuleDetUnorderedIter)
        return "ordered-ok";
    if (rule == kRuleMutPte)
        return "pte-direct-ok";
    if (rule == kRuleMutPageInfo)
        return "pageinfo-direct-ok";
    if (rule == kRuleMutMemcg)
        return "memcg-direct-ok";
    if (rule == kRuleLayerDag || rule == kRuleLayerTest)
        return "layer-ok";
    if (rule == kRuleChargePair)
        return "charge-ok";
    if (rule == kRuleStateCov)
        return "state-cov-ok";
    if (rule == kRuleParSafety)
        return "par-ok";
    return "";
}

LintResult
runLint(const LintOptions &options)
{
    LintResult result;
    auto fail = [&](const std::string &msg) {
        result.configError = true;
        result.configErrorMessage = msg;
        return result;
    };

    const fs::path root = options.root.empty() ? "." : options.root;
    if (!fs::is_directory(root))
        return fail("scan root is not a directory: " + root.string());

    const std::string layersFile =
        options.layersFile.empty()
            ? (root / "tools/lint/layers.txt").string()
            : options.layersFile;
    const std::string allowFile =
        options.allowFile.empty()
            ? (root / "tools/lint/allow.txt").string()
            : options.allowFile;

    LayerConfig layers;
    std::string error;
    if (!LayerConfig::load(layersFile, layers, error))
        return fail(error);
    std::vector<AllowEntry> allow;
    if (!loadAllowlist(allowFile, allow, error))
        return fail(error);

    // ---- Collect the file set --------------------------------------
    std::vector<std::string> scanPaths = options.paths;
    if (scanPaths.empty())
        scanPaths = {"src", "bench", "tests"};

    std::vector<std::string> files;
    for (const std::string &p : scanPaths) {
        const fs::path full = root / p;
        if (fs::is_regular_file(full)) {
            files.push_back(toRel(full, root));
            continue;
        }
        if (!fs::is_directory(full))
            return fail("no such file or directory: " + full.string());
        for (const auto &entry :
             fs::recursive_directory_iterator(full)) {
            if (!entry.is_regular_file() ||
                !isCxxSource(entry.path()))
                continue;
            const std::string rel = toRel(entry.path(), root);
            // Fixture corpora are lint INPUT data, not project code.
            if (rel.find("fixtures/") != std::string::npos)
                continue;
            files.push_back(rel);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // ---- Lex everything, then run the cross-file pre-pass ----------
    std::vector<SourceFile> sources;
    sources.reserve(files.size());
    for (const std::string &rel : files) {
        std::ifstream in(root / rel, std::ios::binary);
        if (!in)
            return fail("cannot read " + rel);
        std::ostringstream buf;
        buf << in.rdbuf();
        SourceFile sf;
        sf.relPath = rel;
        sf.stem = stemOf(rel);
        sf.layer = layers.layerOf(rel);
        sf.simScope = layers.simScope.count(sf.layer) != 0;
        sf.chargeScope = layers.chargeScope.count(sf.layer) != 0;
        sf.lex = lex(buf.str());
        sources.push_back(std::move(sf));
    }
    result.filesScanned = static_cast<int>(sources.size());

    std::map<std::string, std::set<std::string>> unorderedNames;
    for (const SourceFile &sf : sources)
        collectUnorderedNames(sf, unorderedNames[sf.stem]);

    // Pass 1: the semantic model (classes, fields, method bodies,
    // parallelFor lambdas) across every file, so a .cc's out-of-line
    // visitState pairs with the field list in its header.
    CodeModel model;
    for (const SourceFile &sf : sources)
        buildModelFromFile(sf, model);

    const RuleContext ctx{layers, unorderedNames, model};

    // ---- Rules + waiver/allowlist resolution per file --------------
    for (SourceFile &sf : sources) {
        std::vector<Finding> raw;
        runDeterminismRules(sf, ctx, raw);
        runMutatorRules(sf, ctx, raw);
        runLayeringRules(sf, ctx, raw);
        runChargeRules(sf, ctx, raw);
        runStateCovRules(sf, ctx, raw);
        runParallelRules(sf, ctx, raw);

        for (Finding &f : raw) {
            // File-level allowlist first: broad, reviewed excusals.
            const AllowEntry *allowHit = nullptr;
            for (const AllowEntry &a : allow) {
                if (a.rule == f.rule &&
                    pathMatches(f.file, a.path)) {
                    allowHit = &a;
                    break;
                }
            }
            if (allowHit != nullptr) {
                f.waived = true;
                f.waiverReason = "allow.txt: " + allowHit->reason;
                result.findings.push_back(std::move(f));
                continue;
            }

            // Inline waiver covering the finding's line.
            const std::string wname = waiverNameFor(f.rule);
            Waiver *hit = nullptr;
            for (Waiver &w : sf.lex.waivers) {
                if (w.name == wname && f.line >= w.firstLine &&
                    f.line <= w.lastLine) {
                    hit = &w;
                    break;
                }
            }
            if (hit == nullptr) {
                result.findings.push_back(std::move(f));
                continue;
            }
            hit->used = true;
            if (hit->reason.empty()) {
                // A waiver must argue its case; leave the finding
                // fatal and say why.
                f.message +=
                    " [waiver '" + wname + "' has no reason]";
                result.findings.push_back(std::move(f));
                result.findings.push_back(Finding{
                    sf.relPath, hit->firstLine, kRuleWaiverReason,
                    "waiver 'lint:" + wname +
                        "' carries no reason; write the determinism/"
                        "contract argument inside the parentheses"});
                continue;
            }
            f.waived = true;
            f.waiverReason = hit->reason;
            result.findings.push_back(std::move(f));
        }

        // A waiver that never fires is stale: the violation it
        // excused is gone, or the waiver name/placement is wrong.
        for (const Waiver &w : sf.lex.waivers) {
            if (!w.used) {
                result.findings.push_back(Finding{
                    sf.relPath, w.firstLine, kRuleUnusedWaiver,
                    "waiver 'lint:" + w.name +
                        "' matches no finding; remove it or fix its "
                        "placement"});
            }
        }
    }

    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return result;
}

bool
hasFatalFindings(const LintResult &result)
{
    if (result.configError)
        return true;
    return std::any_of(result.findings.begin(), result.findings.end(),
                       [](const Finding &f) { return !f.waived; });
}

std::string
formatFinding(const Finding &finding)
{
    std::string out = finding.file + ":" +
                      std::to_string(finding.line) + ": [" +
                      finding.rule + "] " + finding.message;
    if (finding.waived)
        out += " (waived: " + finding.waiverReason + ")";
    return out;
}

} // namespace pagesim::lint
