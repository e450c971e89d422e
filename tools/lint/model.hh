/**
 * @file
 * Pass-1 semantic model for pagesim-lint v2.
 *
 * Built once over every lexed SourceFile before the rule passes run,
 * the model recovers just enough C++ structure from the token stream
 * for the contract rules that need to reason about *classes* rather
 * than token shapes:
 *
 *  - class/struct declarations with their non-static data members
 *    (name, declared-type text, declaration line),
 *  - member-function bodies as brace-matched token spans, including
 *    out-of-line `Class::method(...) { ... }` definitions matched
 *    back to the class by name across files,
 *  - lambdas passed to `parallelFor(...)` call sites, with their
 *    capture lists, parameter names, and body spans.
 *
 * Like the lexer it is not a compiler front end: heuristics are
 * documented at each extraction site, and they are tuned to this
 * repo's idiom (clang-format'ed declarations, one member per line,
 * no macros generating members). Rules built on the model fail
 * toward *fewer* findings when a shape is ambiguous, never toward
 * false fatals.
 */

#ifndef PAGESIM_TOOLS_LINT_MODEL_HH
#define PAGESIM_TOOLS_LINT_MODEL_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lexer.hh"
#include "rules.hh"

namespace pagesim::lint
{

/** One non-static data member. */
struct FieldDecl
{
    std::string name;
    /**
     * Declaration text left of the declarator, tokens joined with
     * single spaces (e.g. "std :: vector < Pfn > "). Used for the
     * pointer/reference/callback exemptions, not for type checking.
     */
    std::string type;
    int line; ///< declaration line in the owning class's file
};

/** One member-function body: a brace-matched token span. */
struct MethodDef
{
    std::string name;
    /** Declared parameter names, in order ("" for unnamed). */
    std::vector<std::string> params;
    const SourceFile *file; ///< file holding the BODY
    std::size_t bodyOpen;   ///< token index of '{' in file->lex.tokens
    std::size_t bodyClose;  ///< token index of the matching '}'
    int line;               ///< line of the body's '{'
};

/** One class/struct declaration that has a body. */
struct ClassDecl
{
    std::string name;
    const SourceFile *file; ///< file holding the declaration
    int line;
    std::vector<FieldDecl> fields;
};

/** One lambda handed to a parallelFor(...) call. */
struct ParallelSite
{
    const SourceFile *file;
    int line; ///< line of the parallelFor identifier
    bool captureAllByRef = false;   ///< [&]
    bool captureAllByValue = false; ///< [=]
    bool capturesThis = false;      ///< [this] (members are by-ref)
    std::vector<std::string> refCaptures;   ///< [&x]
    std::vector<std::string> valueCaptures; ///< [x], [x = expr]
    /** Lambda parameter names; params[0] is the chunk index. */
    std::vector<std::string> params;
    std::size_t bodyOpen = 0;  ///< '{' of the lambda body
    std::size_t bodyClose = 0; ///< matching '}'
};

/** The whole-tree model, built before any rule pass runs. */
struct CodeModel
{
    /** Class name -> declaration (first definition wins). */
    std::map<std::string, ClassDecl> classes;
    /**
     * Class name -> member-function bodies, inline and out-of-line.
     * Only definitions with bodies are recorded; pure declarations
     * are not (so `virtual void visitState(...) = 0;` interfaces do
     * not count as "defines visitState").
     */
    std::map<std::string, std::vector<MethodDef>> methods;
    /** parallelFor lambdas grouped by SourceFile::relPath. */
    std::map<std::string, std::vector<ParallelSite>> parallelSites;

    /** First body for @p klass :: @p name, or nullptr. */
    const MethodDef *method(const std::string &klass,
                            const std::string &name) const;

    /**
     * Bodies for an UNQUALIFIED method name across every class
     * (used to chase one level of helper calls from a parallelFor
     * lambda when the callee lives in the same file).
     */
    std::vector<const MethodDef *>
    methodsNamed(const std::string &name) const;
};

/**
 * Add @p file's classes, fields, method bodies, and parallelFor
 * sites to @p out. The SourceFile must outlive the model (the
 * driver builds the model after the source vector is final).
 */
void buildModelFromFile(const SourceFile &file, CodeModel &out);

/** Index of the matching '}' for the '{' at @p open, or npos. */
std::size_t matchBrace(const std::vector<Token> &toks,
                       std::size_t open);

} // namespace pagesim::lint

#endif // PAGESIM_TOOLS_LINT_MODEL_HH
