/**
 * @file
 * Pass-1 semantic model construction (see model.hh).
 *
 * Everything here is a token-shape heuristic over the lexer's output.
 * The guiding rule: when a construct is ambiguous, record NOTHING —
 * the rule families built on the model treat absence as "no claim",
 * so a missed declaration can only suppress a finding, never invent
 * one. Each extraction documents the shapes it accepts and the known
 * misses.
 */

#include "model.hh"

#include <algorithm>

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
identIs(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Identifier && t.text == text;
}

bool
isIdent(const Token &t)
{
    return t.kind == Token::Kind::Identifier;
}

/**
 * Given @p open at a '<' that may start a template-argument list,
 * return the index AFTER the matching '>', or kNpos when the span
 * runs into a statement boundary (then it was a comparison, not a
 * template). Bounded so a stray '<' cannot send the walk across the
 * whole file.
 */
std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    const std::size_t limit = std::min(toks.size(), open + 256);
    for (std::size_t i = open; i < limit; ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Punct)
            continue;
        if (t.text == "<") {
            ++depth;
        } else if (t.text == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (t.text == ";" || t.text == "{" || t.text == "}") {
            return kNpos;
        }
    }
    return kNpos;
}

/** Index after the next top-level ';' (tracking (), [], {}). */
std::size_t
consumeToSemi(const std::vector<Token> &toks, std::size_t i,
              std::size_t limit)
{
    int paren = 0;
    int brace = 0;
    int bracket = 0;
    for (; i < limit; ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Punct)
            continue;
        if (t.text == "(")
            ++paren;
        else if (t.text == ")")
            --paren;
        else if (t.text == "{")
            ++brace;
        else if (t.text == "}")
            --brace;
        else if (t.text == "[")
            ++bracket;
        else if (t.text == ";" && paren <= 0 && brace <= 0 &&
                 bracket <= 0)
            return i + 1;
        else if (t.text == "]")
            --bracket;
    }
    return limit;
}

/** Join token texts with single spaces (type-text for exemptions). */
std::string
joinTokens(const std::vector<Token> &toks, std::size_t from,
           std::size_t to)
{
    std::string out;
    for (std::size_t i = from; i < to && i < toks.size(); ++i) {
        if (!out.empty())
            out += ' ';
        out += toks[i].text;
    }
    return out;
}

/**
 * Parameter names of the paren span at @p open, one entry per
 * top-level comma segment ("" when a segment has no identifier).
 * Template-argument commas are shielded by a depth heuristic ('<'
 * right after an identifier or '>' opens, '>' closes).
 */
std::vector<std::string>
parseParams(const std::vector<Token> &toks, std::size_t open)
{
    std::vector<std::string> params;
    const std::size_t close = matchParen(toks, open);
    if (close == kNpos)
        return params;
    if (close == open + 1)
        return params; // ()
    int paren = 0;
    int angle = 0;
    std::string name;
    bool sawDefault = false;
    bool any = false;
    for (std::size_t i = open + 1; i < close; ++i) {
        const Token &t = toks[i];
        any = true;
        if (t.kind == Token::Kind::Punct) {
            if (t.text == "(" || t.text == "[" || t.text == "{") {
                ++paren;
            } else if (t.text == ")" || t.text == "]" ||
                       t.text == "}") {
                --paren;
            } else if (t.text == "<" && i > open + 1 &&
                       (isIdent(toks[i - 1]) ||
                        punctIs(toks[i - 1], ">"))) {
                ++angle;
            } else if (t.text == ">" && angle > 0) {
                --angle;
            } else if (t.text == "=" && paren == 0 && angle == 0) {
                sawDefault = true; // name is fixed once '=' is seen
            } else if (t.text == "," && paren == 0 && angle == 0) {
                params.push_back(name);
                name.clear();
                sawDefault = false;
            }
            continue;
        }
        if (isIdent(t) && !sawDefault && paren == 0 && angle == 0)
            name = t.text;
    }
    if (any)
        params.push_back(name);
    // A lone "void" parameter list declares nothing.
    if (params.size() == 1 && params[0] == "void")
        params.clear();
    return params;
}

/**
 * Consume a constructor initializer list starting just after the ':'.
 * @return the index of the function body's '{', or kNpos. The body
 * brace is recognized by its predecessor: after an initializer it
 * follows ')' or '}', while a member's own brace-init follows the
 * member's identifier (or '>').
 */
std::size_t
skipCtorInit(const std::vector<Token> &toks, std::size_t i,
             std::size_t limit)
{
    for (; i < limit; ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Punct)
            continue;
        if (t.text == "(") {
            const std::size_t e = matchParen(toks, i);
            if (e == kNpos)
                return kNpos;
            i = e;
        } else if (t.text == "{") {
            if (i > 0 && (punctIs(toks[i - 1], ")") ||
                          punctIs(toks[i - 1], "}")))
                return i; // the body
            const std::size_t e = matchBrace(toks, i);
            if (e == kNpos)
                return kNpos;
            i = e; // a member's brace-init
        } else if (t.text == ";") {
            return kNpos;
        }
    }
    return kNpos;
}

/** What follows a function signature's closing ')'. */
struct SigTail
{
    enum class Kind
    {
        Body,   ///< `{` found: bodyOpen is its index
        NoBody, ///< declaration / `= default` / `= 0`: next past ';'
        Reject, ///< not a function signature after all
    };
    Kind kind = Kind::Reject;
    std::size_t bodyOpen = kNpos;
    std::size_t next = kNpos;
};

/**
 * Walk past cv/ref/noexcept/override/final qualifiers and a trailing
 * return type, then classify what the signature ends in. Used for
 * inline members, out-of-line `Class::method`, and free functions;
 * for the latter two Reject is the filter that tells a definition
 * from a mere call.
 */
SigTail
signatureTail(const std::vector<Token> &toks, std::size_t i,
              std::size_t limit)
{
    SigTail out;
    while (i < limit) {
        const Token &t = toks[i];
        if (t.kind == Token::Kind::Identifier) {
            if (t.text == "const" || t.text == "noexcept" ||
                t.text == "override" || t.text == "final" ||
                t.text == "mutable") {
                ++i;
                if (i < limit && t.text == "noexcept" &&
                    punctIs(toks[i], "(")) {
                    const std::size_t e = matchParen(toks, i);
                    if (e == kNpos)
                        return out;
                    i = e + 1;
                }
                continue;
            }
            return out; // any other identifier: not a signature tail
        }
        if (punctIs(t, "&")) { // ref-qualifier
            ++i;
            continue;
        }
        if (punctIs(t, "->")) { // trailing return type
            ++i;
            while (i < limit && !punctIs(toks[i], "{") &&
                   !punctIs(toks[i], ";") && !punctIs(toks[i], "=")) {
                if (isIdent(toks[i]) && i + 1 < limit &&
                    punctIs(toks[i + 1], "<")) {
                    const std::size_t e = skipAngles(toks, i + 1);
                    if (e != kNpos) {
                        i = e;
                        continue;
                    }
                }
                ++i;
            }
            continue;
        }
        if (punctIs(t, ";")) {
            out.kind = SigTail::Kind::NoBody;
            out.next = i + 1;
            return out;
        }
        if (punctIs(t, "=")) { // = 0, = default, = delete
            out.kind = SigTail::Kind::NoBody;
            out.next = consumeToSemi(toks, i, limit);
            return out;
        }
        if (punctIs(t, ":")) { // constructor initializer list
            const std::size_t body = skipCtorInit(toks, i + 1, limit);
            if (body == kNpos)
                return out;
            out.kind = SigTail::Kind::Body;
            out.bodyOpen = body;
            out.next = body;
            return out;
        }
        if (punctIs(t, "{")) {
            out.kind = SigTail::Kind::Body;
            out.bodyOpen = i;
            out.next = i;
            return out;
        }
        return out;
    }
    return out;
}

/**
 * Parse one field statement `type declarator [init] (, ...)* ;`
 * starting at @p s, appending every declarator as a FieldDecl.
 * @return the index past the terminating ';'.
 */
std::size_t
parseFieldStatement(const std::vector<Token> &toks, std::size_t s,
                    std::size_t limit, std::vector<FieldDecl> &fields)
{
    std::size_t lastIdent = kNpos;
    std::size_t firstDecl = kNpos; // first declarator: ends type text
    bool segDone = false;          // current segment already recorded
    auto record = [&]() {
        if (segDone || lastIdent == kNpos)
            return;
        if (firstDecl == kNpos)
            firstDecl = lastIdent;
        fields.push_back(FieldDecl{toks[lastIdent].text,
                                   joinTokens(toks, s, firstDecl),
                                   toks[lastIdent].line});
        segDone = true;
    };
    std::size_t i = s;
    while (i < limit) {
        const Token &t = toks[i];
        if (isIdent(t)) {
            if (i + 1 < limit && punctIs(toks[i + 1], "<")) {
                const std::size_t e = skipAngles(toks, i + 1);
                if (e != kNpos) {
                    lastIdent = i;
                    i = e;
                    continue;
                }
            }
            lastIdent = i;
            ++i;
            continue;
        }
        if (t.kind != Token::Kind::Punct) {
            ++i;
            continue;
        }
        if (t.text == ";") {
            record();
            return i + 1;
        }
        if (t.text == ",") {
            record();
            segDone = false; // next declarator begins
            ++i;
            continue;
        }
        if (t.text == "=") {
            record();
            // Skip the initializer to the next top-level ',' or ';'.
            int depth = 0;
            ++i;
            for (; i < limit; ++i) {
                const Token &u = toks[i];
                if (u.kind != Token::Kind::Punct)
                    continue;
                if (u.text == "(" || u.text == "[" || u.text == "{")
                    ++depth;
                else if (u.text == ")" || u.text == "]" ||
                         u.text == "}")
                    --depth;
                else if (depth == 0 &&
                         (u.text == "," || u.text == ";"))
                    break;
            }
            continue;
        }
        if (t.text == "{") {
            // Brace-init directly after the declarator.
            record();
            const std::size_t e = matchBrace(toks, i);
            if (e == kNpos)
                return limit;
            i = e + 1;
            continue;
        }
        if (t.text == "[") { // array suffix before init/terminator
            int depth = 0;
            for (; i < limit; ++i) {
                if (punctIs(toks[i], "["))
                    ++depth;
                else if (punctIs(toks[i], "]") && --depth == 0)
                    break;
            }
            ++i;
            continue;
        }
        if (t.text == ":") { // bit-field width
            record();
            i = consumeToSemi(toks, i, limit);
            return i;
        }
        ++i; // '*', '&', '::', ...
    }
    return limit;
}

std::size_t consumeOperator(const std::vector<Token> &toks,
                            std::size_t i, std::size_t close);

void
recordMethod(const SourceFile &sf, const std::string &klass,
             const std::string &name, std::size_t parenOpen,
             std::size_t bodyOpen, std::size_t bodyClose,
             CodeModel &out)
{
    MethodDef def;
    def.name = name;
    def.params = parseParams(sf.lex.tokens, parenOpen);
    def.file = &sf;
    def.bodyOpen = bodyOpen;
    def.bodyClose = bodyClose;
    def.line = sf.lex.tokens[bodyOpen].line;
    out.methods[klass].push_back(std::move(def));
}

/**
 * Parse one member declaration of class @p klass starting at @p s
 * (inside the class body, current access region already handled).
 * Appends fields to @p cls and inline method bodies to @p out.
 * @return index just past the declaration.
 */
std::size_t
parseMember(const SourceFile &sf, const std::string &klass,
            ClassDecl &cls, CodeModel &out, std::size_t s,
            std::size_t close)
{
    const std::vector<Token> &toks = sf.lex.tokens;
    std::size_t i = s;
    bool suppress = false; // static / using / friend / operator / ...

    if (identIs(toks[i], "template") && i + 1 < close &&
        punctIs(toks[i + 1], "<")) {
        const std::size_t e = skipAngles(toks, i + 1);
        if (e == kNpos)
            return consumeToSemi(toks, i, close);
        i = e;
        suppress = true; // no template member participates in rules
    }

    const std::size_t stmtStart = i;
    std::size_t lastIdent = kNpos;
    while (i < close) {
        const Token &t = toks[i];
        if (isIdent(t)) {
            const std::string &x = t.text;
            if (x == "using" || x == "typedef" || x == "friend" ||
                x == "static" || x == "operator")
                suppress = true;
            if (x == "operator") // consume whole operator decl/def
                return consumeOperator(toks, i, close);
            if (i + 1 < close && punctIs(toks[i + 1], "<")) {
                const std::size_t e = skipAngles(toks, i + 1);
                if (e != kNpos) {
                    lastIdent = i;
                    i = e;
                    continue;
                }
            }
            lastIdent = i;
            ++i;
            continue;
        }
        if (t.kind != Token::Kind::Punct) {
            ++i;
            continue;
        }
        const std::string &p = t.text;
        if (p == "(" && lastIdent != kNpos && lastIdent + 1 == i) {
            // declarator(params...): a member function.
            const std::size_t parenClose = matchParen(toks, i);
            if (parenClose == kNpos || parenClose > close)
                return close;
            const SigTail tail =
                signatureTail(toks, parenClose + 1, close);
            switch (tail.kind) {
            case SigTail::Kind::Body: {
                const std::size_t bodyClose =
                    matchBrace(toks, tail.bodyOpen);
                if (bodyClose == kNpos || bodyClose > close)
                    return close;
                if (!suppress)
                    recordMethod(sf, klass, toks[lastIdent].text, i,
                                 tail.bodyOpen, bodyClose, out);
                if (bodyClose + 1 < close &&
                    punctIs(toks[bodyClose + 1], ";"))
                    return bodyClose + 2;
                return bodyClose + 1;
            }
            case SigTail::Kind::NoBody:
                return tail.next;
            case SigTail::Kind::Reject:
                return consumeToSemi(toks, i, close);
            }
        }
        if (p == ";" || p == "=" || p == "," ||
            (p == "{" && lastIdent != kNpos && lastIdent + 1 == i) ||
            p == "[") {
            // A data member (possibly several declarators).
            if (suppress)
                return consumeToSemi(toks, stmtStart, close);
            return parseFieldStatement(toks, stmtStart, close,
                                       cls.fields);
        }
        if (p == "{") // unexpected brace: skip it whole
            return consumeToSemi(toks, i, close);
        ++i; // '*', '&', '::', '~', ...
    }
    return close;
}

} // namespace

std::size_t
matchBrace(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (punctIs(toks[i], "{"))
            ++depth;
        else if (punctIs(toks[i], "}") && --depth == 0)
            return i;
    }
    return kNpos;
}

namespace
{

/** Consume `operator<anything>(params) [quals] [body];` members. */
std::size_t
consumeOperator(const std::vector<Token> &toks, std::size_t i,
                std::size_t close)
{
    // Find the parameter '(' — operator symbols may include '(' ')'
    // themselves (call operator), which conveniently IS the list.
    while (i < close && !punctIs(toks[i], "("))
        ++i;
    if (i >= close)
        return close;
    const std::size_t e = matchParen(toks, i);
    if (e == kNpos || e > close)
        return close;
    // operator()(...) : the first pair was the symbol, params follow.
    std::size_t after = e + 1;
    if (after < close && punctIs(toks[after], "(")) {
        const std::size_t e2 = matchParen(toks, after);
        if (e2 != kNpos && e2 < close)
            after = e2 + 1;
    }
    const SigTail tail = signatureTail(toks, after, close);
    if (tail.kind == SigTail::Kind::Body) {
        const std::size_t bodyClose = matchBrace(toks, tail.bodyOpen);
        if (bodyClose == kNpos)
            return close;
        return bodyClose + 1 < close &&
                       punctIs(toks[bodyClose + 1], ";")
                   ? bodyClose + 2
                   : bodyClose + 1;
    }
    if (tail.kind == SigTail::Kind::NoBody)
        return tail.next;
    return consumeToSemi(toks, i, close);
}

/** Parse the body of `class/struct name ... { ... }` for members. */
void
parseClassBody(const SourceFile &sf, ClassDecl &cls, CodeModel &out,
               std::size_t open, std::size_t close)
{
    const std::vector<Token> &toks = sf.lex.tokens;
    std::size_t i = open + 1;
    while (i < close) {
        const Token &t = toks[i];
        if (isIdent(t) &&
            (t.text == "public" || t.text == "private" ||
             t.text == "protected") &&
            i + 1 < close && punctIs(toks[i + 1], ":")) {
            i += 2;
            continue;
        }
        if (punctIs(t, ";")) {
            ++i;
            continue;
        }
        if (isIdent(t) &&
            (t.text == "class" || t.text == "struct" ||
             t.text == "enum" || t.text == "union")) {
            // Nested type: skip it here; the file-level class scan
            // models nested classes independently.
            std::size_t j = i + 1;
            const std::size_t guard = std::min(close, j + 64);
            while (j < guard && !punctIs(toks[j], "{") &&
                   !punctIs(toks[j], ";"))
                ++j;
            if (j >= guard || punctIs(toks[j], ";")) {
                i = j + 1;
                continue;
            }
            const std::size_t e = matchBrace(toks, j);
            if (e == kNpos || e > close)
                return;
            i = consumeToSemi(toks, e + 1, close);
            continue;
        }
        i = parseMember(sf, cls.name, cls, out, i, close);
    }
}

/** Keywords that look like `name(...)` but never declare functions. */
bool
isCallKeyword(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" || s == "switch" ||
           s == "catch" || s == "return" || s == "sizeof" ||
           s == "alignof" || s == "decltype" || s == "new" ||
           s == "delete" || s == "assert" || s == "static_assert" ||
           s == "defined" || s == "throw" || s == "alignas";
}

/** Parse a lambda's capture list between '[' at @p open and ']'. */
void
parseCaptures(const std::vector<Token> &toks, std::size_t open,
              std::size_t close, ParallelSite &site)
{
    bool pendingRef = false;
    bool namedOne = false;
    for (std::size_t i = open + 1; i < close; ++i) {
        const Token &t = toks[i];
        if (punctIs(t, "&")) {
            pendingRef = true;
            continue;
        }
        if (punctIs(t, "=") && !namedOne && !pendingRef) {
            site.captureAllByValue = true;
            continue;
        }
        if (punctIs(t, ",")) {
            if (pendingRef) // a lone '&' segment
                site.captureAllByRef = true;
            pendingRef = false;
            namedOne = false;
            continue;
        }
        if (isIdent(t)) {
            if (t.text == "this") {
                site.capturesThis = true;
            } else if (pendingRef) {
                site.refCaptures.push_back(t.text);
            } else if (!namedOne) {
                site.valueCaptures.push_back(t.text);
            }
            pendingRef = false;
            namedOne = true;
            // skip any init-capture expression to the next ','
            int depth = 0;
            while (i + 1 < close) {
                const Token &u = toks[i + 1];
                if (punctIs(u, "(") || punctIs(u, "[") ||
                    punctIs(u, "{"))
                    ++depth;
                else if (punctIs(u, ")") || punctIs(u, "]") ||
                         punctIs(u, "}"))
                    --depth;
                else if (depth == 0 && punctIs(u, ","))
                    break;
                ++i;
            }
        }
    }
    if (pendingRef) // trailing/sole '&'
        site.captureAllByRef = true;
}

/** Model the lambda argument of one parallelMap(...) call. */
void
recordParallelSite(const SourceFile &sf, std::size_t callOpen,
                   std::size_t callClose, int line, CodeModel &out)
{
    const std::vector<Token> &toks = sf.lex.tokens;
    int depth = 0;
    for (std::size_t i = callOpen + 1; i < callClose; ++i) {
        const Token &t = toks[i];
        if (punctIs(t, "(") || punctIs(t, "{")) {
            ++depth;
            continue;
        }
        if (punctIs(t, ")") || punctIs(t, "}")) {
            --depth;
            continue;
        }
        if (depth != 0 || !punctIs(t, "["))
            continue;
        // An argument-position '[' is a lambda introducer (a
        // subscript would follow an identifier/')'/']').
        if (i > 0 && (isIdent(toks[i - 1]) ||
                      punctIs(toks[i - 1], ")") ||
                      punctIs(toks[i - 1], "]")))
            continue;
        int bdepth = 0;
        std::size_t cap = kNpos;
        for (std::size_t j = i; j < callClose; ++j) {
            if (punctIs(toks[j], "["))
                ++bdepth;
            else if (punctIs(toks[j], "]") && --bdepth == 0) {
                cap = j;
                break;
            }
        }
        if (cap == kNpos)
            return;
        ParallelSite site;
        site.file = &sf;
        site.line = line;
        parseCaptures(toks, i, cap, site);
        std::size_t j = cap + 1;
        if (j < callClose && punctIs(toks[j], "(")) {
            site.params = parseParams(toks, j);
            const std::size_t e = matchParen(toks, j);
            if (e == kNpos)
                return;
            j = e + 1;
        }
        while (j < callClose && !punctIs(toks[j], "{"))
            ++j; // mutable / noexcept / -> type
        if (j >= callClose)
            return;
        const std::size_t bodyClose = matchBrace(toks, j);
        if (bodyClose == kNpos || bodyClose > callClose)
            return;
        site.bodyOpen = j;
        site.bodyClose = bodyClose;
        out.parallelSites[sf.relPath].push_back(std::move(site));
        return; // one lambda per call
    }
}

} // namespace

const MethodDef *
CodeModel::method(const std::string &klass,
                  const std::string &name) const
{
    const auto it = methods.find(klass);
    if (it == methods.end())
        return nullptr;
    for (const MethodDef &m : it->second) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

std::vector<const MethodDef *>
CodeModel::methodsNamed(const std::string &name) const
{
    std::vector<const MethodDef *> out;
    for (const auto &[klass, defs] : methods) {
        for (const MethodDef &m : defs) {
            if (m.name == name)
                out.push_back(&m);
        }
    }
    return out;
}

void
buildModelFromFile(const SourceFile &sf, CodeModel &out)
{
    const std::vector<Token> &toks = sf.lex.tokens;

    // ---- Pass A: class/struct declarations with bodies -------------
    // Every `class`/`struct` keyword in the file is considered, so
    // nested classes are modeled under their own (bare) names. The
    // recorded body spans also let pass B skip inline member
    // definitions it would otherwise mistake for free functions.
    std::vector<std::pair<std::size_t, std::size_t>> classSpans;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!isIdent(t) || (t.text != "class" && t.text != "struct"))
            continue;
        if (i > 0 && (identIs(toks[i - 1], "enum") ||
                      punctIs(toks[i - 1], "<") ||
                      punctIs(toks[i - 1], ",")))
            continue; // enum class / template parameter
        if (!isIdent(toks[i + 1]))
            continue; // anonymous
        const std::string name = toks[i + 1].text;
        // Find the body '{', giving up at declaration boundaries
        // (forward declarations, `friend class X;`, metafunctions).
        std::size_t j = i + 2;
        const std::size_t guard = std::min(toks.size(), j + 64);
        std::size_t body = kNpos;
        while (j < guard) {
            if (punctIs(toks[j], "{")) {
                body = j;
                break;
            }
            if (punctIs(toks[j], ";") || punctIs(toks[j], "(") ||
                punctIs(toks[j], ")") || punctIs(toks[j], "=") ||
                punctIs(toks[j], ">"))
                break;
            ++j;
        }
        if (body == kNpos)
            continue;
        const std::size_t close = matchBrace(toks, body);
        if (close == kNpos)
            continue;
        classSpans.emplace_back(body, close);
        if (out.classes.count(name) != 0)
            continue; // first definition wins (TU pairs re-lex .hh)
        ClassDecl cls;
        cls.name = name;
        cls.file = &sf;
        cls.line = t.line;
        parseClassBody(sf, cls, out, body, close);
        out.classes.emplace(name, std::move(cls));
    }
    const auto inClassSpan = [&](std::size_t i) {
        return std::any_of(classSpans.begin(), classSpans.end(),
                           [i](const auto &s) {
                               return i > s.first && i < s.second;
                           });
    };

    // ---- Pass B: out-of-line methods, free functions, parallelMap --
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!isIdent(t) || !punctIs(toks[i + 1], "("))
            continue;

        // parallelMap call sites (anywhere, including method bodies).
        if (t.text == "parallelMap") {
            const std::size_t close = matchParen(toks, i + 1);
            if (close != kNpos)
                recordParallelSite(sf, i + 1, close, t.line, out);
            continue;
        }

        // `Class::name(...) quals {` — out-of-line member body.
        if (i >= 2 && punctIs(toks[i - 1], "::") &&
            isIdent(toks[i - 2])) {
            const std::size_t parenClose = matchParen(toks, i + 1);
            if (parenClose == kNpos)
                continue;
            const SigTail tail =
                signatureTail(toks, parenClose + 1, toks.size());
            if (tail.kind != SigTail::Kind::Body)
                continue;
            const std::size_t bodyClose =
                matchBrace(toks, tail.bodyOpen);
            if (bodyClose == kNpos)
                continue;
            recordMethod(sf, toks[i - 2].text, t.text, i + 1,
                         tail.bodyOpen, bodyClose, out);
            continue;
        }

        // `name(...) quals {` at namespace scope — free function.
        // Class bodies are excluded (inline members were recorded by
        // pass A); member/qualified calls are excluded by their
        // preceding '.'/'->'/'::'.
        if (isCallKeyword(t.text) || inClassSpan(i))
            continue;
        if (i > 0 && (punctIs(toks[i - 1], ".") ||
                      punctIs(toks[i - 1], "->") ||
                      punctIs(toks[i - 1], "::")))
            continue;
        const std::size_t parenClose = matchParen(toks, i + 1);
        if (parenClose == kNpos)
            continue;
        const SigTail tail =
            signatureTail(toks, parenClose + 1, toks.size());
        if (tail.kind != SigTail::Kind::Body)
            continue;
        const std::size_t bodyClose = matchBrace(toks, tail.bodyOpen);
        if (bodyClose == kNpos)
            continue;
        // Free functions live under the "" class key.
        recordMethod(sf, "", t.text, i + 1, tail.bodyOpen, bodyClose,
                     out);
    }
}

} // namespace pagesim::lint
