/**
 * @file
 * Tracked-mutator rule family (mut-*).
 *
 * PageTable keeps per-region present/accessed/mapped bitmaps and a
 * summary bitmap in lockstep with the PTE array (DESIGN.md Sec. 4d). That only holds if every mutation of
 * a tracked flag goes through PageTable's mutators. This rule flags
 * the Pte-level spellings of those mutations anywhere outside
 * src/mem/page_table.hh (which is allowlisted, as are the Pte unit
 * tests and the auditor's deliberate-desync fixtures).
 *
 * Pte and PageTable share mutator names but not arities, which is how
 * a tokenizer can tell them apart with no type information:
 *
 *   call shape                           Pte (flagged)  PageTable (ok)
 *   x.setFlag(Pte::Present/Accessed/Mapped)   any arity        --
 *   x.clearFlag(same)                         any arity        --
 *   x.testAndClearAccessed()                  0 args         1 arg
 *   x.mapFrame(...)                           1 arg          2 args
 *   x.unmapToSwap(...)                        2 args         3 args
 *   x.unmapDiscard(...)                       1 arg          2 args
 *
 * Untracked flags (Dirty, InIo, Slow, File) stay writable on the Pte
 * directly; setFlag/clearFlag on them is not flagged.
 *
 * mut-memcg guards the memcg charge field: a frame's PageInfo memcg
 * field and the owning Memcg's usage counter move only together,
 * inside Memcg::charge/uncharge — a stray `.memcg =` write makes
 * usage() and the auditor's recount diverge. Any `x.memcg =` /
 * `x->memcg =` assignment spelling is flagged (memcg.hh, which
 * implements charge/uncharge, is allowlisted).
 *
 * mut-pageinfo guards the PageInfo side the same way: the link fields
 * (prev, next, listId) thread every frame through exactly one
 * FrameList, and FrameList is the only code allowed to write them —
 * a stray write corrupts a generation list without touching the list
 * it claims membership of. The rule flags any `x.prev =` / `x->next
 * =` / `.listId =` assignment spelling (plain `=` only; `==`
 * comparisons lex as two tokens and are skipped). frame_table.hh,
 * which defines FrameList, is allowlisted.
 */

#include "rules.hh"

namespace pagesim::lint
{

namespace
{

/** Does the argument list contain a tracked `Pte::<flag>` token run? */
bool
argsMentionTrackedFlag(const std::vector<Token> &toks, std::size_t open,
                       std::size_t close)
{
    for (std::size_t i = open + 1; i + 2 < close; ++i) {
        if (toks[i].kind == Token::Kind::Identifier &&
            toks[i].text == "Pte" &&
            toks[i + 1].kind == Token::Kind::Punct &&
            toks[i + 1].text == "::" &&
            toks[i + 2].kind == Token::Kind::Identifier &&
            (toks[i + 2].text == "Present" ||
             toks[i + 2].text == "Accessed" ||
             toks[i + 2].text == "Mapped"))
            return true;
    }
    return false;
}

} // namespace

void
runMutatorRules(const SourceFile &file, const RuleContext &,
                std::vector<Finding> &out)
{
    const std::vector<Token> &toks = file.lex.tokens;
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Identifier)
            continue;
        // Only member calls: `x.method(` / `x->method(`. Definitions
        // and unqualified internal calls are not receiver mutations.
        const Token &prev = toks[i - 1];
        if (prev.kind != Token::Kind::Punct ||
            (prev.text != "." && prev.text != "->"))
            continue;

        // mut-pageinfo: assignment to a PageInfo link field. The
        // lexer fuses no "==" digraph, so require a lone "=": the
        // next token after it must not be another "=".
        if ((t.text == "prev" || t.text == "next" ||
             t.text == "listId") &&
            toks[i + 1].kind == Token::Kind::Punct &&
            toks[i + 1].text == "=" &&
            (i + 2 >= toks.size() ||
             toks[i + 2].kind != Token::Kind::Punct ||
             toks[i + 2].text != "=")) {
            out.push_back(Finding{
                file.relPath, t.line, kRuleMutPageInfo,
                "direct write to PageInfo link field '" + t.text +
                    "' outside FrameList: generation-list membership "
                    "and the listId field desync — use FrameList "
                    "push/remove"});
            continue;
        }

        // mut-memcg: assignment to the PageInfo memcg charge field.
        // Same lone-"=" shape as mut-pageinfo; `x.memcg(` calls
        // (AddressSpace accessor) fall through to the "(" check.
        if (t.text == "memcg" &&
            toks[i + 1].kind == Token::Kind::Punct &&
            toks[i + 1].text == "=" &&
            (i + 2 >= toks.size() ||
             toks[i + 2].kind != Token::Kind::Punct ||
             toks[i + 2].text != "=")) {
            out.push_back(Finding{
                file.relPath, t.line, kRuleMutMemcg,
                "direct write to the PageInfo memcg field outside "
                    "Memcg::charge/uncharge: the field and the group's "
                    "usage counter desync — charge through the Memcg"});
            continue;
        }

        if (toks[i + 1].kind != Token::Kind::Punct ||
            toks[i + 1].text != "(")
            continue;

        const std::size_t open = i + 1;
        const std::size_t close = matchParen(toks, open);
        if (close == std::string::npos)
            continue;

        const std::string &m = t.text;
        bool bad = false;
        if (m == "setFlag" || m == "clearFlag")
            bad = argsMentionTrackedFlag(toks, open, close);
        else if (m == "testAndClearAccessed")
            bad = callArity(toks, open) == 0;
        else if (m == "mapFrame" || m == "unmapDiscard")
            bad = callArity(toks, open) == 1;
        else if (m == "unmapToSwap")
            bad = callArity(toks, open) == 2;

        if (bad) {
            out.push_back(Finding{
                file.relPath, t.line, kRuleMutPte,
                "direct Pte mutation '" + m +
                    "' of a tracked flag (Present/Accessed/Mapped) "
                    "outside PageTable: the bitmaps and summary bits "
                    "desync — use the PageTable mutator"});
        }
    }
}

} // namespace pagesim::lint
