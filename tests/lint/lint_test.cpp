/**
 * @file
 * pagesim-lint behavior tests, driven by the fixture corpus under
 * tests/lint/fixtures/. Each fixture tree is a miniature scan root
 * with its own src/ layout, checked against the shared fixture layer
 * table; the final test runs the real configuration against the live
 * tree and requires it clean.
 *
 * Waiver spellings appear below only inside string literals — a
 * comment-spelled waiver here would register as unused and fail the
 * live-tree self check.
 */

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "lint.hh"
#include "output.hh"

namespace
{

using pagesim::lint::Finding;
using pagesim::lint::formatFinding;
using pagesim::lint::hasFatalFindings;
using pagesim::lint::LintOptions;
using pagesim::lint::LintResult;
using pagesim::lint::runLint;

const std::string kSourceDir = PAGESIM_SOURCE_DIR;
const std::string kFixtures = kSourceDir + "/tests/lint/fixtures";

LintResult
lintTree(const std::string &tree,
         const std::string &allow = "allow_empty.txt")
{
    LintOptions options;
    options.root = kFixtures + "/" + tree;
    options.layersFile = kFixtures + "/layers.txt";
    options.allowFile = kFixtures + "/" + allow;
    options.paths = {"src"};
    return runLint(options);
}

int
countRule(const LintResult &result, const std::string &rule)
{
    return static_cast<int>(std::count_if(
        result.findings.begin(), result.findings.end(),
        [&](const Finding &f) { return f.rule == rule; }));
}

int
countUnwaived(const LintResult &result, const std::string &rule)
{
    return static_cast<int>(std::count_if(
        result.findings.begin(), result.findings.end(),
        [&](const Finding &f) { return f.rule == rule && !f.waived; }));
}

const Finding *
findRule(const LintResult &result, const std::string &rule)
{
    for (const Finding &f : result.findings)
        if (f.rule == rule)
            return &f;
    return nullptr;
}

TEST(LintDeterminism, FlagsClocksAndRandomness)
{
    const LintResult r = lintTree("det_bad");
    EXPECT_FALSE(r.configError);
    EXPECT_EQ(r.filesScanned, 2);
    // clock_rand.cc: chrono + steady_clock tokens, the time() call.
    EXPECT_GE(countUnwaived(r, "det-clock"), 3);
    // mt19937 and the rand() call.
    EXPECT_GE(countUnwaived(r, "det-rand"), 2);
    EXPECT_TRUE(hasFatalFindings(r));
}

TEST(LintDeterminism, FlagsPointerKeysAndUnorderedIteration)
{
    const LintResult r = lintTree("det_bad");
    EXPECT_EQ(countUnwaived(r, "det-ptr-hash"), 1);
    EXPECT_EQ(countUnwaived(r, "det-unordered"), 1);
    EXPECT_EQ(countUnwaived(r, "det-unordered-iter"), 1);
    const Finding *iter = findRule(r, "det-unordered-iter");
    ASSERT_NE(iter, nullptr);
    EXPECT_EQ(iter->file, "src/mem/ptr_keys.hh");
    EXPECT_NE(iter->message.find("byPtr"), std::string::npos);
}

TEST(LintDeterminism, OrderedSpellingsAndWaiversPass)
{
    const LintResult r = lintTree("det_good");
    EXPECT_FALSE(r.configError);
    EXPECT_FALSE(hasFatalFindings(r));
    // The one unordered container is reported, but waived.
    EXPECT_EQ(countRule(r, "det-unordered"), 1);
    EXPECT_EQ(countRule(r, "det-unordered-iter"), 0);
}

TEST(LintMutator, FlagsEveryDirectPteSpelling)
{
    const LintResult r = lintTree("mut_bad");
    EXPECT_FALSE(r.configError);
    // setFlag, clearFlag, mapFrame/1, unmapToSwap/2,
    // testAndClearAccessed/0 — and nothing for the PageTable
    // spellings or the untracked Dirty write.
    EXPECT_EQ(countUnwaived(r, "mut-pte"), 5);
    // prev/next/listId assignments in relink — and nothing for the
    // FrameList call, field reads, comparisons, or untracked fields.
    EXPECT_EQ(countUnwaived(r, "mut-pageinfo"), 3);
    // memcg field assignments in recharge — and nothing for the
    // setMemcg/memcg() accessors, field reads, or comparisons.
    EXPECT_EQ(countUnwaived(r, "mut-memcg"), 2);
    EXPECT_EQ(static_cast<int>(r.findings.size()), 10);
}

TEST(LintMutator, TrackedMutatorsAndWaiversPass)
{
    const LintResult r = lintTree("mut_good");
    EXPECT_FALSE(hasFatalFindings(r));
    EXPECT_EQ(countRule(r, "mut-pte"), 1);      // reported, waived
    EXPECT_EQ(countRule(r, "mut-pageinfo"), 1); // reported, waived
    EXPECT_EQ(countRule(r, "mut-memcg"), 1);    // reported, waived
}

TEST(LintLayering, FlagsBackEdgesAndTestIncludes)
{
    const LintResult r = lintTree("layer_bad");
    EXPECT_FALSE(r.configError);
    // mem -> kernel (back_edge.hh) and sim -> mem (up_edge.cc).
    EXPECT_EQ(countUnwaived(r, "layer-dag"), 2);
    EXPECT_EQ(countUnwaived(r, "layer-test"), 1);
}

TEST(LintLayering, SanctionedEdgesPass)
{
    const LintResult r = lintTree("layer_good");
    EXPECT_FALSE(r.configError);
    EXPECT_EQ(r.findings.size(), 0u);
}

TEST(LintCharge, FlagsUnchargedSubmit)
{
    const LintResult r = lintTree("charge_bad");
    EXPECT_EQ(countUnwaived(r, "charge-pair"), 1);
    EXPECT_TRUE(hasFatalFindings(r));
}

TEST(LintCharge, ChargedAndWaivedSubmitsPass)
{
    const LintResult r = lintTree("charge_good");
    EXPECT_FALSE(hasFatalFindings(r));
    EXPECT_EQ(countRule(r, "charge-pair"), 1); // the waived free issue
}

TEST(LintWaivers, EmptyReasonStaysFatal)
{
    const LintResult r = lintTree("waiver_bad");
    EXPECT_EQ(countUnwaived(r, "det-clock"), 1);
    EXPECT_EQ(countUnwaived(r, "lint-waiver-reason"), 1);
    EXPECT_TRUE(hasFatalFindings(r));
}

TEST(LintWaivers, UnusedWaiverIsAFinding)
{
    const LintResult r = lintTree("waiver_bad");
    EXPECT_EQ(countUnwaived(r, "lint-unused-waiver"), 1);
}

TEST(LintWaivers, ReasonSurvivesRoundTrip)
{
    const LintResult r = lintTree("waiver_good");
    EXPECT_FALSE(hasFatalFindings(r));
    const Finding *f = findRule(r, "det-rand");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->waived);
    EXPECT_EQ(f->waiverReason,
              "seeded replay uses the documented fixture stream");
}

TEST(LintAllowlist, FileEntryWaivesWithRecordedReason)
{
    const LintResult r = lintTree("allowlist", "allow_mut.txt");
    EXPECT_FALSE(hasFatalFindings(r));
    const Finding *f = findRule(r, "mut-pte");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->waived);
    EXPECT_EQ(f->waiverReason.rfind("allow.txt: ", 0), 0u);
}

TEST(LintAllowlist, WithoutEntryTheSameFindingIsFatal)
{
    const LintResult r = lintTree("allowlist");
    EXPECT_EQ(countUnwaived(r, "mut-pte"), 1);
    EXPECT_TRUE(hasFatalFindings(r));
}

TEST(LintStateCov, FlagsEveryDriftDirection)
{
    const LintResult r = lintTree("statecov_bad");
    EXPECT_FALSE(r.configError);
    // added_ (missing from the inline body) and dropped_ (missing
    // from the out-of-line body) — and nothing for covered_, kept_ or
    // stale_. With one body per class there is no save/restore drift
    // left to flag.
    EXPECT_EQ(countUnwaived(r, "state-cov"), 2);
    EXPECT_TRUE(hasFatalFindings(r));
    const Finding *f = findRule(r, "state-cov");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->file, "src/sim/drift.hh");
    EXPECT_NE(f->message.find("added_"), std::string::npos);
    EXPECT_NE(f->message.find("not referenced in visitState"),
              std::string::npos);
    bool sawOutOfLine = false;
    for (const Finding &g : r.findings)
        if (g.rule == "state-cov" && !g.waived &&
            g.message.find("'dropped_' of checkpointable class "
                           "'SnapOutOfLine'") != std::string::npos)
            sawOutOfLine = true;
    EXPECT_TRUE(sawOutOfLine);
}

TEST(LintStateCov, StaleWaiverOnSerializedFieldSurfaces)
{
    const LintResult r = lintTree("statecov_bad");
    // The waiver on stale_ (which IS serialized in visitState)
    // matches no finding and must be reported, not silently eaten.
    EXPECT_EQ(countUnwaived(r, "lint-unused-waiver"), 1);
    // The waiver on waived_ works and keeps its reason.
    for (const Finding &f : r.findings) {
        if (f.rule == "state-cov" && f.waived) {
            EXPECT_EQ(f.waiverReason,
                      "scratch cleared at epoch start and rebuilt on "
                      "first access");
        }
    }
}

TEST(LintStateCov, CoveredExemptAndWaivedFieldsPass)
{
    const LintResult r = lintTree("statecov_good");
    EXPECT_FALSE(r.configError);
    EXPECT_FALSE(hasFatalFindings(r));
    // hot_ is covered through the visitHot helper; the
    // pointer, const, and callback members are exempt wiring; only
    // the waived cache_ is reported at all.
    EXPECT_EQ(countRule(r, "state-cov"), 1);
    EXPECT_EQ(countUnwaived(r, "state-cov"), 0);
    EXPECT_EQ(countRule(r, "lint-unused-waiver"), 0);
}

TEST(LintFpState, FlagsUnwaivedFloatingPointState)
{
    const LintResult r = lintTree("fpstate_bad");
    EXPECT_FALSE(r.configError);
    // rate_, gain_, window_ and history_ — nothing for count_, the
    // const, pointer and callback members, or Plain's double.
    EXPECT_EQ(countUnwaived(r, "fp-state"), 4);
    EXPECT_EQ(countRule(r, "fp-state"), 4);
    EXPECT_TRUE(hasFatalFindings(r));
    bool sawArray = false, sawContainer = false;
    for (const Finding &f : r.findings) {
        if (f.rule != "fp-state")
            continue;
        EXPECT_EQ(f.file, "src/sim/fp.hh");
        EXPECT_EQ(f.message.find("notCheckpointed_"), std::string::npos);
        if (f.message.find("'window_' in checkpointable class "
                           "'Controller'") != std::string::npos)
            sawArray = true;
        if (f.message.find("'history_'") != std::string::npos)
            sawContainer = true;
    }
    EXPECT_TRUE(sawArray);
    EXPECT_TRUE(sawContainer);
}

TEST(LintFpState, WaivedFieldsPassWithTheirReasons)
{
    const LintResult r = lintTree("fpstate_good");
    EXPECT_FALSE(r.configError);
    EXPECT_FALSE(hasFatalFindings(r));
    EXPECT_EQ(countRule(r, "fp-state"), 2);
    EXPECT_EQ(countUnwaived(r, "fp-state"), 0);
    EXPECT_EQ(countRule(r, "lint-unused-waiver"), 0);
    const Finding *f = findRule(r, "fp-state");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->waiverReason,
              "feeds a decision: truncated into a window size");
}

TEST(LintParSafety, FlagsEveryUnsafeWriteShape)
{
    const LintResult r = lintTree("par_bad");
    EXPECT_FALSE(r.configError);
    // out_[ci] (a subscript grants no safety), total_ +=, ++misses_,
    // shared_.push_back, the tracked testAndClearAccessed, and hits_
    // += inside the chased helper — and nothing for the local, the
    // slot parameter, or the serial merge after the parallelMap.
    EXPECT_EQ(countUnwaived(r, "par-safety"), 6);
    EXPECT_TRUE(hasFatalFindings(r));
    bool sawHelper = false, sawMutator = false, sawSubscript = false;
    for (const Finding &f : r.findings) {
        if (f.message.find("helper 'bump'") != std::string::npos)
            sawHelper = true;
        if (f.message.find("tracked mutator "
                           "'testAndClearAccessed'") !=
            std::string::npos)
            sawMutator = true;
        if (f.message.find("'out_'") != std::string::npos)
            sawSubscript = true;
    }
    EXPECT_TRUE(sawHelper);
    EXPECT_TRUE(sawMutator);
    EXPECT_TRUE(sawSubscript);
    // The PageTable-arity spelling keeps mut-pte out of this tree:
    // the race is the finding, not the mutator spelling.
    EXPECT_EQ(countRule(r, "mut-pte"), 0);
}

TEST(LintParSafety, ChunkLocalHarvestShapePasses)
{
    const LintResult r = lintTree("par_good");
    EXPECT_FALSE(r.configError);
    EXPECT_FALSE(hasFatalFindings(r));
    // harvestChunk's out parameter inherits the slot parameter's
    // safety, the table is only read, the serial merge is outside
    // the lambda span; only the waived rounds_ write is reported.
    EXPECT_EQ(countRule(r, "par-safety"), 1);
    EXPECT_EQ(countUnwaived(r, "par-safety"), 0);
    const Finding *f = findRule(r, "par-safety");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->waived);
}

TEST(LintOutput, JsonCarriesSchemaFieldsAndWaiverReasons)
{
    const LintResult r = lintTree("statecov_bad");
    const std::string json = pagesim::lint::toJson(r);
    EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"fatal\": true"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"state-cov\""),
              std::string::npos);
    EXPECT_NE(json.find("\"waived\": true"), std::string::npos);
    EXPECT_NE(json.find("\"waiver_reason\": \"scratch cleared"),
              std::string::npos);
    // The em dash (multibyte UTF-8) in messages survives escaping.
    EXPECT_NE(json.find("silently drop it — serialize it"),
              std::string::npos);
}

TEST(LintOutput, SarifLevelsRulesAndLocations)
{
    const LintResult r = lintTree("statecov_bad");
    const std::string sarif = pagesim::lint::toSarif(r);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"pagesim-lint\""),
              std::string::npos);
    // Unwaived findings upload as errors, waived ones as notes so
    // the ledger stays visible without failing code scanning.
    EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
    EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
    EXPECT_NE(sarif.find("\"id\": \"state-cov\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/sim/drift.hh\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uriBaseId\": \"%SRCROOT%\""),
              std::string::npos);
}

TEST(LintOutput, LedgerListsEveryWaivedReason)
{
    const LintResult r = lintTree("statecov_good");
    const std::string ledger = pagesim::lint::toLedger(r);
    EXPECT_NE(ledger.find("1 waived finding(s)"), std::string::npos);
    EXPECT_NE(ledger.find("src/sim/clean.hh:"), std::string::npos);
    EXPECT_NE(ledger.find("[state-cov] derived cache: recomputed "
                          "lazily from epoch_ on first lookup"),
              std::string::npos);
}

TEST(LintConfig, MissingLayerTableIsAConfigError)
{
    LintOptions options;
    options.root = kFixtures + "/det_good";
    options.layersFile = kFixtures + "/no_such_layers.txt";
    options.allowFile = kFixtures + "/allow_empty.txt";
    options.paths = {"src"};
    const LintResult r = runLint(options);
    EXPECT_TRUE(r.configError);
    EXPECT_TRUE(hasFatalFindings(r));
}

/**
 * The contract the CI lint job enforces, restated as a test: the live
 * tree lints clean with the checked-in layer table and allowlist, and
 * every reported finding carries a written waiver reason.
 */
TEST(LintSelfCheck, LiveTreeIsClean)
{
    LintOptions options;
    options.root = kSourceDir;
    const LintResult r = runLint(options);
    EXPECT_FALSE(r.configError) << r.configErrorMessage;
    EXPECT_GT(r.filesScanned, 150);
    for (const Finding &f : r.findings) {
        EXPECT_TRUE(f.waived) << formatFinding(f);
        EXPECT_FALSE(f.waiverReason.empty()) << formatFinding(f);
    }
    EXPECT_FALSE(hasFatalFindings(r));
}

} // namespace
