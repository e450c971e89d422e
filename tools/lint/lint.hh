/**
 * @file
 * pagesim-lint: contract-enforcing static analysis for this repo.
 *
 * These rule families keep the properties every benchmark claim rests
 * on checkable at the source level, before anything runs:
 *
 *  determinism (det-*)     no wall clocks, ambient randomness,
 *                          pointer-value hashing, or unordered-
 *                          container iteration in simulation layers
 *  tracked-mutator (mut-*) Present/Accessed/Mapped PTE bits change
 *                          only through PageTable's lockstep mutators
 *  layering (layer-*)      the include graph matches the declarative
 *                          DAG in tools/lint/layers.txt
 *  charge-pairing (charge-*) device submit/service calls charge a
 *                          cost in the same function body
 *  state-coverage (state-cov) every non-static data member of a class
 *                          that defines visitState must be referenced
 *                          in its visitState body
 *  floating-point state (fp-state) a double/float member of such
 *                          a class carries a written reason
 *  parallel-safety (par-safety) lambdas passed to parallelMap may
 *                          write only their parameters (the index
 *                          and their own slot) and locals — the
 *                          harvest/apply contract of sim/parallel.hh
 *
 * The last three run over a pass-1 semantic model (model.hh) built from
 * the same token stream: class/field declarations, member-function
 * body spans, and parallelMap lambda captures.
 *
 * Violations are waived inline with `// lint:<waiver>(<reason>)` — an
 * empty reason is itself an error — or whole files are excused per
 * rule in tools/lint/allow.txt. See DESIGN.md Sec. 4e for the rule
 * catalog and how to add a rule.
 */

#ifndef PAGESIM_TOOLS_LINT_LINT_HH
#define PAGESIM_TOOLS_LINT_LINT_HH

#include <string>
#include <vector>

namespace pagesim::lint
{

/** Rule identifiers (stable: used in allow.txt and test fixtures). */
inline constexpr const char *kRuleDetClock = "det-clock";
inline constexpr const char *kRuleDetRand = "det-rand";
inline constexpr const char *kRuleDetPtrHash = "det-ptr-hash";
inline constexpr const char *kRuleDetUnordered = "det-unordered";
inline constexpr const char *kRuleDetUnorderedIter =
    "det-unordered-iter";
inline constexpr const char *kRuleMutPte = "mut-pte";
inline constexpr const char *kRuleMutPageInfo = "mut-pageinfo";
inline constexpr const char *kRuleMutMemcg = "mut-memcg";
inline constexpr const char *kRuleLayerDag = "layer-dag";
inline constexpr const char *kRuleLayerTest = "layer-test";
inline constexpr const char *kRuleChargePair = "charge-pair";
inline constexpr const char *kRuleStateCov = "state-cov";
inline constexpr const char *kRuleFpState = "fp-state";
inline constexpr const char *kRuleParSafety = "par-safety";
/** Meta-rules emitted by the driver itself. */
inline constexpr const char *kRuleWaiverReason = "lint-waiver-reason";
inline constexpr const char *kRuleUnusedWaiver = "lint-unused-waiver";

/** One structured finding. */
struct Finding
{
    std::string file; ///< path relative to the scan root
    int line;
    std::string rule;    ///< rule id (kRule* above)
    std::string message; ///< human-readable description
    bool waived = false; ///< true: reported but not fatal
    std::string waiverReason{}; ///< inline waiver / allowlist reason
};

/** Scan configuration. */
struct LintOptions
{
    /** Repo root; scan paths and reported paths are relative to it. */
    std::string root = ".";
    /** Layer DAG + rule scopes (default <root>/tools/lint/layers.txt). */
    std::string layersFile;
    /** Per-rule file allowlist (default <root>/tools/lint/allow.txt). */
    std::string allowFile;
    /**
     * Files or directories to scan, relative to root (directories
     * recurse over .hh/.h/.cc/.cpp, skipping any "fixtures"
     * component). Empty selects the default: src bench tests.
     */
    std::vector<std::string> paths;
};

/** Scan outcome. */
struct LintResult
{
    std::vector<Finding> findings;
    int filesScanned = 0;
    bool configError = false;
    std::string configErrorMessage;
};

/** Run all rules over the configured tree. */
LintResult runLint(const LintOptions &options);

/** Any finding that should fail the build? */
bool hasFatalFindings(const LintResult &result);

/** "file:line: [rule] message (waived: reason)" */
std::string formatFinding(const Finding &finding);

} // namespace pagesim::lint

#endif // PAGESIM_TOOLS_LINT_LINT_HH
