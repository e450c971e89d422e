/**
 * @file
 * Parallel-harvest safety rule family (par-safety).
 *
 * sim/parallel.hh's contract: a lambda handed to parallelMap runs
 * concurrently on host threads and is handed its own slot, so it may
 * write ONLY its parameters (the index and that slot) and its own
 * locals. Everything else it can reach is shared across workers, and
 * a write there is a host-level race that breaks the bit-identity
 * the harvest/apply pattern guarantees. A `[&]` lambda can still
 * name captured state, and the compiler does not stop it; this rule
 * does, at the source level.
 *
 * What is checked, over the pass-1 model's lambda spans:
 *
 *  - assignments (`=`, compound `op=`), `++`/`--`: the written chain
 *    must root at a parameter or a local — a subscript grants no
 *    safety (`out_[i] = ...` is a write to captured `out_`);
 *  - mutating container calls (push_back, emplace_back, insert,
 *    erase, clear, resize, assign, ...) on receivers that are not
 *    parameters or locals;
 *  - tracked PTE mutators (setFlag, clearFlag, mapFrame,
 *    unmapToSwap, unmapDiscard, testAndClearAccessed) on ANY
 *    receiver: they move bitmap and summary words shared across
 *    slot boundaries, so they belong in the serial apply.
 *
 * Unqualified calls to methods defined IN THE SAME FILE are chased
 * (transitively, bounded depth): each callee parameter inherits the
 * safety of its call-site argument, so a harvest helper a task calls
 * is analyzed body-by-body. Cross-file
 * helpers are not chased — a finding must be waivable in the file
 * being linted — and writes hidden behind qualified calls on shared
 * receivers (beyond the mutator lists above) are out of scope, as
 * documented in DESIGN.md Sec. 4e.
 *
 * Waive with `// lint:par-ok(<why this write is race-free>)`.
 */

#include <set>
#include <string>

#include "model.hh"
#include "rules.hh"

namespace pagesim::lint
{

namespace
{

constexpr std::size_t kNpos = std::string::npos;

bool
punctIs(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Punct && t.text == text;
}

bool
isIdent(const Token &t)
{
    return t.kind == Token::Kind::Identifier;
}

/** Container/member calls that mutate their receiver. */
bool
isMutatingCall(const std::string &name)
{
    // "swap" is deliberately absent: accessor methods named swap()
    // (e.g. MemoryManager::swap() returning the SwapManager) are
    // far more common in this tree than container swap mutations.
    static const std::set<std::string> kCalls{
        "push_back", "emplace_back", "pop_back", "push_front",
        "pop_front", "insert",       "emplace",  "erase",
        "clear",     "resize",       "assign",   "reserve",
        "push",      "pop"};
    return kCalls.count(name) != 0;
}

/**
 * Tracked PTE/PageTable mutators: flagged on any receiver inside a
 * parallel region (they update shared bitmap and summary words).
 */
bool
isTrackedMutator(const std::string &name)
{
    static const std::set<std::string> kCalls{
        "setFlag",      "clearFlag",    "mapFrame",
        "unmapToSwap",  "unmapDiscard", "testAndClearAccessed"};
    return kCalls.count(name) != 0;
}

bool
isDeclPrevKeyword(const std::string &s)
{
    return s == "return" || s == "case" || s == "goto" ||
           s == "new" || s == "delete" || s == "throw" ||
           s == "sizeof" || s == "typename" || s == "else" ||
           s == "do" || s == "co_return" || s == "co_yield";
}

bool
isChaseKeyword(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" ||
           s == "switch" || s == "catch" || s == "return" ||
           s == "sizeof" || s == "assert" || s == "static_cast" ||
           s == "reinterpret_cast" || s == "const_cast" ||
           s == "static_assert" || s == "alignof" || s == "decltype";
}

/**
 * Collect names DECLARED inside [open, close) — locals are
 * task-private by construction. Heuristic: an identifier preceded
 * by a type-ish token (identifier that is not a statement keyword,
 * or '>', or '&'/'*' that itself follows an identifier/'>') and
 * followed by '=', ';', '{', '(', '[', ':' or ',' opens a
 * declaration; further comma-separated declarators are chained.
 * Over-collection (e.g. `a * b` in an expression statement) only
 * weakens the rule toward silence, never toward a false fatal.
 */
void
collectLocals(const std::vector<Token> &toks, std::size_t open,
              std::size_t close, std::set<std::string> &out)
{
    for (std::size_t i = open + 1; i < close; ++i) {
        const Token &t = toks[i];
        if (!isIdent(t))
            continue;
        // Structured bindings: auto [&]* [ a, b ] = ...
        if (t.text == "auto") {
            std::size_t j = i + 1;
            while (j < close &&
                   (punctIs(toks[j], "&") || punctIs(toks[j], "*")))
                ++j;
            if (j < close && punctIs(toks[j], "[")) {
                for (++j; j < close && !punctIs(toks[j], "]"); ++j) {
                    if (isIdent(toks[j]))
                        out.insert(toks[j].text);
                }
                i = j;
                continue;
            }
        }
        if (i + 1 >= close || i == 0)
            continue;
        const Token &next = toks[i + 1];
        const bool declNext =
            next.kind == Token::Kind::Punct &&
            (next.text == "=" || next.text == ";" ||
             next.text == "{" || next.text == ":" ||
             next.text == "," || next.text == "[");
        if (!declNext)
            continue;
        const Token &prev = toks[i - 1];
        bool declPrev = false;
        if (isIdent(prev) && !isDeclPrevKeyword(prev.text)) {
            // `Type name` — but not `obj.member name` chains.
            declPrev = !(i >= 2 && (punctIs(toks[i - 2], ".") ||
                                    punctIs(toks[i - 2], "->")));
        } else if (punctIs(prev, ">")) {
            declPrev = true; // `vector<Pfn> name`
        } else if (punctIs(prev, "&") || punctIs(prev, "*")) {
            // `Type &name` / `Type *name`; NOT `*ptr = x` derefs.
            declPrev = i >= 2 && (isIdent(toks[i - 2]) ||
                                  punctIs(toks[i - 2], ">"));
        }
        if (!declPrev)
            continue;
        out.insert(t.text);
        // Chain further declarators: `T a = x, b = y, c{z};`
        std::size_t j = i + 1;
        int depth = 0;
        while (j < close) {
            const Token &u = toks[j];
            if (u.kind == Token::Kind::Punct) {
                if (u.text == "(" || u.text == "[" || u.text == "{")
                    ++depth;
                else if (u.text == ")" || u.text == "]" ||
                         u.text == "}")
                    --depth;
                else if (depth == 0 && u.text == ";")
                    break;
                else if (depth == 0 && u.text == ",") {
                    if (j + 1 < close && isIdent(toks[j + 1]))
                        out.insert(toks[j + 1].text);
                    else
                        break;
                }
            }
            if (depth < 0)
                break;
            ++j;
        }
    }
}

/** A write target resolved back (or forward) along a member chain. */
struct Target
{
    bool ok = false;  ///< chain was resolvable
    std::string base; ///< leftmost (root) identifier
    int line = 0;
};

/** Resolve the chain ENDING at @p e (e.g. `out.presentFast`). */
Target
resolveBack(const std::vector<Token> &toks, std::size_t e)
{
    Target out;
    std::size_t i = e;
    while (i != kNpos && i < toks.size()) {
        const Token &t = toks[i];
        if (punctIs(t, "]")) {
            int depth = 0;
            std::size_t j = i;
            for (;; --j) {
                if (punctIs(toks[j], "]"))
                    ++depth;
                else if (punctIs(toks[j], "[") && --depth == 0)
                    break;
                if (j == 0)
                    return out;
            }
            if (j == 0)
                return out;
            i = j - 1;
            continue;
        }
        if (isIdent(t)) {
            out.base = t.text;
            out.line = t.line;
            if (i >= 2 && (punctIs(toks[i - 1], ".") ||
                           punctIs(toks[i - 1], "->") ||
                           punctIs(toks[i - 1], "::"))) {
                i -= 2;
                continue;
            }
            out.ok = true;
            return out;
        }
        return out; // ')' or other opaque shape: no claim
    }
    return out;
}

/** Resolve the chain STARTING at @p s (prefix ++/--). */
Target
resolveForward(const std::vector<Token> &toks, std::size_t s,
               std::size_t limit)
{
    Target out;
    if (s >= limit || !isIdent(toks[s]))
        return out;
    out.base = toks[s].text;
    out.line = toks[s].line;
    out.ok = true;
    std::size_t i = s + 1;
    while (i < limit) {
        if ((punctIs(toks[i], ".") || punctIs(toks[i], "->") ||
             punctIs(toks[i], "::")) &&
            i + 1 < limit && isIdent(toks[i + 1])) {
            i += 2;
            continue;
        }
        if (punctIs(toks[i], "[")) {
            int depth = 0;
            std::size_t j = i;
            for (; j < limit; ++j) {
                if (punctIs(toks[j], "["))
                    ++depth;
                else if (punctIs(toks[j], "]") && --depth == 0)
                    break;
            }
            if (j >= limit)
                return out;
            i = j + 1;
            continue;
        }
        break;
    }
    return out;
}

/** One span under analysis (the lambda body, or a chased callee). */
struct ParScope
{
    const SourceFile *file; ///< file holding the span
    std::size_t open;       ///< '{'
    std::size_t close;      ///< matching '}'
    std::set<std::string> safe; ///< parameter and local names
    std::string where;          ///< message context
};

/** Is the call ARGUMENT segment [a, b) task-private? */
bool
argIsSafe(const std::vector<Token> &toks, std::size_t a, std::size_t b,
          const ParScope &scope)
{
    if (a >= b)
        return false;
    const Token &first = toks[a];
    if (first.kind == Token::Kind::Number ||
        first.kind == Token::Kind::String ||
        first.kind == Token::Kind::CharLit)
        return true;
    return isIdent(first) && scope.safe.count(first.text) != 0;
}

void analyzeSpan(const ParScope &scope, const SourceFile &lintFile,
                 const RuleContext &ctx,
                 std::set<const MethodDef *> &visited, int depth,
                 std::vector<Finding> &out);

/**
 * Chase an unqualified call to a method/function defined in the
 * SAME file: analyze its body with each parameter's safety taken
 * from the corresponding call-site argument.
 */
void
chaseCallee(const std::vector<Token> &toks, std::size_t nameIdx,
            const ParScope &scope, const SourceFile &lintFile,
            const RuleContext &ctx, std::set<const MethodDef *> &visited,
            int depth, std::vector<Finding> &out)
{
    const std::string &name = toks[nameIdx].text;
    std::vector<const MethodDef *> cands =
        ctx.model.methodsNamed(name);
    // Only bodies in the file being linted: findings must anchor
    // where this rule's waivers can cover them.
    std::vector<const MethodDef *> here;
    for (const MethodDef *m : cands) {
        if (m->file == &lintFile)
            here.push_back(m);
    }
    if (here.size() != 1 || visited.count(here[0]) != 0)
        return;
    const MethodDef *callee = here[0];

    // Map argument safety onto parameters.
    const std::size_t open = nameIdx + 1;
    const std::size_t close = matchParen(toks, open);
    if (close == kNpos)
        return;
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int depthP = 0;
    std::size_t segStart = open + 1;
    for (std::size_t i = open + 1; i < close; ++i) {
        if (toks[i].kind != Token::Kind::Punct)
            continue;
        const std::string &p = toks[i].text;
        if (p == "(" || p == "[" || p == "{")
            ++depthP;
        else if (p == ")" || p == "]" || p == "}")
            --depthP;
        else if (p == "," && depthP == 0) {
            args.emplace_back(segStart, i);
            segStart = i + 1;
        }
    }
    if (close > segStart)
        args.emplace_back(segStart, close);

    ParScope inner;
    inner.file = callee->file;
    inner.open = callee->bodyOpen;
    inner.close = callee->bodyClose;
    inner.where = "helper '" + name + "' called from " + scope.where;
    for (std::size_t k = 0;
         k < callee->params.size() && k < args.size(); ++k) {
        if (!callee->params[k].empty() &&
            argIsSafe(toks, args[k].first, args[k].second, scope))
            inner.safe.insert(callee->params[k]);
    }
    analyzeSpan(inner, lintFile, ctx, visited, depth + 1, out);
}

void
analyzeSpan(const ParScope &scopeIn, const SourceFile &lintFile,
            const RuleContext &ctx,
            std::set<const MethodDef *> &visited, int depth,
            std::vector<Finding> &out)
{
    if (depth > 4)
        return;
    ParScope scope = scopeIn;
    const std::vector<Token> &toks = scope.file->lex.tokens;
    collectLocals(toks, scope.open, scope.close, scope.safe);

    const auto flagWrite = [&](const Target &t, int line,
                               const std::string &what) {
        if (!t.ok || scope.safe.count(t.base) != 0)
            return; // opaque chain (no claim), or task-private
        out.push_back(Finding{
            lintFile.relPath, line, kRuleParSafety,
            what + " '" + t.base + "' in " + scope.where +
                ": workers share it, so concurrent tasks race — "
                "write to the task's own slot parameter and merge "
                "serially, or waive with "
                "lint:par-ok(<why race-free>)"});
    };

    for (std::size_t i = scope.open + 1; i < scope.close; ++i) {
        const Token &t = toks[i];
        if (t.kind == Token::Kind::Punct) {
            const std::string &p = t.text;
            // ---- ++ / -- ------------------------------------------
            if ((p == "+" || p == "-") && i + 1 < scope.close &&
                punctIs(toks[i + 1], p.c_str())) {
                const bool postfix =
                    i > 0 && (isIdent(toks[i - 1]) ||
                              punctIs(toks[i - 1], "]") ||
                              punctIs(toks[i - 1], ")"));
                if (postfix) {
                    const Target tg = resolveBack(toks, i - 1);
                    flagWrite(tg, t.line, "increment of shared state");
                } else if (i + 2 < scope.close &&
                           isIdent(toks[i + 2])) {
                    const Target tg =
                        resolveForward(toks, i + 2, scope.close);
                    flagWrite(tg, t.line, "increment of shared state");
                }
                ++i; // consume the second '+'/'-'
                continue;
            }
            // ---- assignment (plain, compound, shift) --------------
            if (p == "=" &&
                !(i + 1 < scope.close && punctIs(toks[i + 1], "="))) {
                if (i == 0)
                    continue;
                const Token &prev = toks[i - 1];
                std::size_t targetEnd = kNpos;
                if (prev.kind == Token::Kind::Punct) {
                    const std::string &q = prev.text;
                    if (q == "=" || q == "!") {
                        continue; // ==, != (second half)
                    } else if (q == "<" || q == ">") {
                        // <= / >= unless it is <<= / >>=
                        if (i >= 2 && punctIs(toks[i - 2], q.c_str()))
                            targetEnd = i - 3;
                        else
                            continue;
                    } else if (q == "+" || q == "-" || q == "*" ||
                               q == "/" || q == "%" || q == "|" ||
                               q == "&" || q == "^") {
                        targetEnd = i - 2; // compound op=
                    } else {
                        continue; // '[' (capture default), etc.
                    }
                } else {
                    targetEnd = i - 1;
                }
                if (targetEnd == kNpos || targetEnd >= scope.close)
                    continue;
                const Target tg = resolveBack(toks, targetEnd);
                flagWrite(tg, t.line, "write to shared state");
                continue;
            }
            continue;
        }
        if (!isIdent(t) || i + 1 >= scope.close ||
            !punctIs(toks[i + 1], "("))
            continue;
        const bool memberCall =
            i > 0 && (punctIs(toks[i - 1], ".") ||
                      punctIs(toks[i - 1], "->"));
        // ---- tracked PTE mutators: unsafe on ANY receiver ---------
        if (isTrackedMutator(t.text)) {
            out.push_back(Finding{
                lintFile.relPath, t.line, kRuleParSafety,
                "tracked mutator '" + t.text + "' inside " +
                    scope.where +
                    ": it moves bitmap/summary words shared "
                    "across slots — read in the task and apply "
                    "mutations in the serial merge, or waive with "
                    "lint:par-ok(...)"});
            continue;
        }
        // ---- mutating container calls on shared receivers ---------
        if (memberCall && isMutatingCall(t.text)) {
            if (i >= 2) {
                const Target tg = resolveBack(toks, i - 2);
                flagWrite(tg, t.line,
                          "mutating call '" + t.text +
                              "' on shared state");
            }
            continue;
        }
        // ---- chase same-file unqualified helpers ------------------
        if (!memberCall &&
            !(i > 0 && punctIs(toks[i - 1], "::")) &&
            !isChaseKeyword(t.text)) {
            chaseCallee(toks, i, scope, lintFile, ctx, visited, depth,
                        out);
        }
    }
}

} // namespace

void
runParallelRules(const SourceFile &file, const RuleContext &ctx,
                 std::vector<Finding> &out)
{
    const auto it = ctx.model.parallelSites.find(file.relPath);
    if (it == ctx.model.parallelSites.end())
        return;
    std::vector<Finding> raw;
    for (const ParallelSite &site : it->second) {
        ParScope scope;
        scope.file = site.file;
        scope.open = site.bodyOpen;
        scope.close = site.bodyClose;
        scope.where = "parallelMap lambda (line " +
                      std::to_string(site.line) + ")";
        for (const std::string &p : site.params) {
            if (!p.empty())
                scope.safe.insert(p);
        }
        std::set<const MethodDef *> visited;
        analyzeSpan(scope, file, ctx, visited, 0, raw);
    }
    // Two sites chasing one helper would double-report its lines.
    std::set<std::string> seen;
    for (Finding &f : raw) {
        const std::string key =
            std::to_string(f.line) + "|" + f.message;
        if (seen.insert(key).second)
            out.push_back(std::move(f));
    }
}

} // namespace pagesim::lint
