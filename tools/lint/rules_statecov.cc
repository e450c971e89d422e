/**
 * @file
 * Checkpoint state-coverage rule family (state-cov).
 *
 * Every checkpointed class describes its state once, in a
 * visitState(StateIO &) body that capture, validation, restore and
 * sizing all run, so a field can no longer be saved but not restored.
 * What remains possible is a field that never reaches the body at
 * all — it shows up PRs later as a fingerprint mystery. For every
 * class that defines a visitState BODY, every non-static data member
 * must be referenced (as an identifier) in it — directly, or through
 * same-class helper methods, which are inlined transitively.
 *
 * Members that cannot meaningfully be serialized are exempt without
 * a waiver, because they are wiring rather than state:
 *
 *   - pointer and reference members (rig wiring: the checkpoint
 *     layer re-links them by stable id, see harness/checkpoint.cc),
 *   - callback members (std::function / SmallFunction),
 *   - const members (fixed at construction, re-fed by config),
 *   - mutable members (a cache, by declaration).
 *
 * Everything else either shows up in the body or carries a
 * `// lint:state-cov-ok(<why transient>)` waiver ON ITS DECLARATION
 * LINE — the finding anchors there, so the reason lives next to the
 * field it excuses.
 */

#include <set>
#include <sstream>
#include <string>

#include "model.hh"
#include "rules.hh"

namespace pagesim::lint
{

namespace
{

/**
 * Why @p typeText is exempt from coverage, or "" when it is not.
 * The type text is the space-joined token spelling left of the
 * declarator (e.g. "const std :: vector < Pfn > &").
 */
std::string
exemptReason(const std::string &typeText)
{
    std::istringstream in(typeText);
    std::string word;
    while (in >> word) {
        if (word == "*")
            return "pointer member (re-linked by stable id)";
        if (word == "&")
            return "reference member (wiring)";
        if (word == "function" || word == "SmallFunction")
            return "callback member";
        if (word == "const")
            return "const member (fixed at construction)";
        if (word == "mutable")
            return "mutable member (a cache by declaration)";
    }
    return "";
}

/**
 * Collect every identifier mentioned in @p def's body into
 * @p idents, inlining unqualified calls to other methods of the
 * same class (and `this->helper()` spellings) so a visitState that
 * delegates to private helpers still covers the fields they touch.
 */
void
collectReferencedIdents(const CodeModel &model, const std::string &klass,
                        const MethodDef &def,
                        std::set<std::string> &idents,
                        std::set<const MethodDef *> &visited, int depth)
{
    if (depth > 4 || visited.count(&def) != 0)
        return;
    visited.insert(&def);
    const std::vector<Token> &toks = def.file->lex.tokens;
    for (std::size_t i = def.bodyOpen + 1; i < def.bodyClose; ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Identifier)
            continue;
        idents.insert(t.text);
        if (i + 1 >= def.bodyClose ||
            toks[i + 1].kind != Token::Kind::Punct ||
            toks[i + 1].text != "(")
            continue;
        // Unqualified (or explicit this->) call: same-class helper?
        if (i > 0 && toks[i - 1].kind == Token::Kind::Punct &&
            (toks[i - 1].text == "." || toks[i - 1].text == "::" ||
             (toks[i - 1].text == "->" &&
              !(i >= 2 && toks[i - 2].kind ==
                              Token::Kind::Identifier &&
                toks[i - 2].text == "this"))))
            continue;
        const MethodDef *callee = model.method(klass, t.text);
        if (callee != nullptr)
            collectReferencedIdents(model, klass, *callee, idents,
                                    visited, depth + 1);
    }
}

} // namespace

void
runStateCovRules(const SourceFile &file, const RuleContext &ctx,
                 std::vector<Finding> &out)
{
    const CodeModel &model = ctx.model;
    for (const auto &[name, cls] : model.classes) {
        if (cls.file != &file)
            continue; // report in the declaring file only
        const MethodDef *visit = model.method(name, "visitState");
        if (visit == nullptr)
            continue; // interfaces (pure virtual) have no body

        std::set<std::string> refs;
        std::set<const MethodDef *> visited;
        collectReferencedIdents(model, name, *visit, refs, visited, 0);
        for (const FieldDecl &f : cls.fields) {
            if (!exemptReason(f.type).empty() || refs.count(f.name) != 0)
                continue;
            out.push_back(Finding{
                file.relPath, f.line, kRuleStateCov,
                "field '" + f.name + "' of checkpointable class '" +
                    name +
                    "' is not referenced in visitState: a checkpoint "
                    "would silently drop it — serialize it, or waive "
                    "with lint:state-cov-ok(<why transient>) on the "
                    "declaration"});
        }
    }
}

} // namespace pagesim::lint
