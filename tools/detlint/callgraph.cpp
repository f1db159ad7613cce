#include "callgraph.hpp"

#include <algorithm>
#include <deque>

namespace detlint {

namespace {

// Keyword subset that matters for telling definitions and calls apart:
// control-flow heads look like `name (...)` and declaration specifiers
// look like type names. Kept local to the graph builder -- rules.cpp has
// its own (larger) set for its own heuristics.
const std::set<std::string>& non_callable_keywords() {
    static const std::set<std::string> k = {
        "alignas",  "alignof",   "assert",    "auto",      "bool",
        "break",    "case",      "catch",     "char",      "class",
        "const",    "consteval", "constexpr", "constinit", "continue",
        "decltype", "default",   "delete",    "do",        "double",
        "else",     "enum",      "explicit",  "export",    "extern",
        "false",    "float",     "for",       "friend",    "goto",
        "if",       "inline",    "int",       "long",      "mutable",
        "namespace","new",       "noexcept",  "nullptr",   "operator",
        "private",  "protected", "public",    "register",  "requires",
        "return",   "short",     "signed",    "sizeof",    "static",
        "static_assert",         "static_cast",
        "struct",   "switch",    "template",  "this",      "throw",
        "true",     "try",       "typedef",   "typeid",    "typename",
        "union",    "unsigned",  "using",     "virtual",   "void",
        "volatile", "while",
    };
    return k;
}

/// The function names that put a body on the simulation hot path: the
/// per-cycle component protocol plus the maintenance engine's activation
/// hooks. `commit` alone is ambiguous (core::reconfig_manager::commit is
/// a control-plane transaction, amortized over reconfiguration events,
/// not a clock edge), so commit roots additionally require the enclosing
/// class to be a clocked component (it also defines tick) or one of the
/// bounded queue classes.
const std::set<std::string>& root_names() {
    static const std::set<std::string> k = {
        "tick", "commit", "next_event", "advance", "on_activation",
    };
    return k;
}

/// Bounded queue classes whose push/pop/extract (and commit) run inside
/// component ticks: their methods are hot even though the names are
/// generic.
const std::set<std::string>& queue_classes() {
    static const std::set<std::string> k = {
        "latched_queue", "random_access_buffer", "fixed_queue",
    };
    return k;
}

const std::set<std::string>& queue_methods() {
    static const std::set<std::string> k = {"push", "pop", "extract"};
    return k;
}

/// Directories whose function definitions participate in the hot set.
/// The model tree (sim / core / interconnect / mem / workload) owns the
/// per-cycle contract. Everything else is a cold boundary by design
/// (the hot-path rules only; nondet-source still covers it): src/obs/
/// handles are the O(1) metric idiom, src/analysis/ and src/hwcost/ run
/// at admission/selection time, and src/svc/, src/harness/, bench/,
/// examples/ and tests/ drive simulations rather than run inside them.
/// Name-resolved edges into those trees therefore stop. The
/// fixtures/hotpath/ entry makes the rule family testable: lint fixtures
/// live outside src/ but must still be markable.
[[nodiscard]] bool hot_eligible(const std::string& path) {
    static const char* const dirs[] = {
        "src/sim/",      "src/core/", "src/interconnect/",
        "src/mem/",      "src/workload/", "fixtures/hotpath",
    };
    return std::any_of(std::begin(dirs), std::end(dirs),
                       [&](const char* d) {
                           return path.find(d) != std::string::npos;
                       });
}

[[nodiscard]] bool is_punct(const token& t, std::string_view text) {
    return t.kind == tok_kind::punct && t.text == text;
}

[[nodiscard]] bool is_kw(const token& t, std::string_view text) {
    return t.kind == tok_kind::identifier && t.text == text;
}

/// Skips a balanced template-argument list; `i` indexes the `<`.
[[nodiscard]] std::size_t skip_template_args(const std::vector<token>& toks,
                                             std::size_t i) {
    int depth = 0;
    while (i < toks.size()) {
        const token& t = toks[i];
        if (is_punct(t, "<")) {
            ++depth;
        } else if (is_punct(t, ">")) {
            if (--depth == 0) return i + 1;
        } else if (is_punct(t, ">>")) {
            depth -= 2;
            if (depth <= 0) return i + 1;
        } else if (is_punct(t, ";") || is_punct(t, "{")) {
            return i; // not template args after all; bail at a boundary
        }
        ++i;
    }
    return i;
}

/// Tags the `{` tokens that open class/struct/union bodies with the class
/// name, so the definition harvest can recover the enclosing class of
/// inline member functions.
[[nodiscard]] std::map<std::size_t, std::string>
tag_class_braces(const std::vector<token>& toks) {
    std::map<std::size_t, std::string> tags;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const token& t = toks[i];
        if (!is_kw(t, "class") && !is_kw(t, "struct") && !is_kw(t, "union"))
            continue;
        // `template <class T, ...>` parameters are not class declarations.
        if (i > 0 && (is_punct(toks[i - 1], "<") ||
                      is_punct(toks[i - 1], ","))) {
            continue;
        }
        // The class name is the first plain identifier after the keyword
        // (skips `enum class`, stops on anonymous structs).
        std::size_t j = i + 1;
        while (j < toks.size() && toks[j].kind == tok_kind::identifier &&
               non_callable_keywords().count(toks[j].text) != 0) {
            ++j;
        }
        if (j >= toks.size() || toks[j].kind != tok_kind::identifier)
            continue;
        const std::string name = toks[j].text;
        // Scan for the body `{`; a `;` (forward declaration), `=` (alias),
        // or `(` (function returning an elaborated type) ends the attempt.
        // Base-clause template arguments are skipped so their `>` tokens
        // cannot be mistaken for terminators.
        for (std::size_t k = j + 1; k < toks.size();) {
            const token& c = toks[k];
            if (is_punct(c, "<")) {
                k = skip_template_args(toks, k);
                continue;
            }
            if (is_punct(c, ";") || is_punct(c, "=") || is_punct(c, "(") ||
                is_punct(c, ")") || is_punct(c, ">")) {
                break;
            }
            if (is_punct(c, "{")) {
                tags[k] = name;
                break;
            }
            ++k;
        }
    }
    return tags;
}

/// Locates the body range of a candidate definition whose name is at
/// `name_idx` and whose `(` is at `name_idx + 1`. Returns true and fills
/// [body_begin, body_end) when this is a definition; a `;` before any
/// body brace means declaration/call. Constructor member-initializer
/// braces (`: count_{0}`) are recognized and skipped so the real body is
/// found.
[[nodiscard]] bool find_body(const std::vector<token>& toks,
                             std::size_t name_idx, std::size_t* body_begin,
                             std::size_t* body_end) {
    std::size_t j = name_idx + 1;
    int parens = 0;
    for (; j < toks.size(); ++j) {
        if (is_punct(toks[j], "(")) {
            ++parens;
        } else if (is_punct(toks[j], ")")) {
            if (--parens == 0) break;
        }
    }
    if (j >= toks.size()) return false;
    std::size_t body = j + 1;
    bool found = false;
    // Signature-tail scan state: an unmatched `)` or a top-level `,`
    // before a ctor-initializer `:` or trailing-return `->` means the
    // candidate was a call inside a larger expression (`if (q.empty()) {`
    // would otherwise adopt the if-body), not a definition.
    int tail_parens = 0;
    bool tail_open = false; // past `:` or `->`: arbitrary tokens allowed
    while (body < toks.size()) {
        const token& t = toks[body];
        if (is_punct(t, ";")) break;
        if (is_punct(t, "(")) {
            ++tail_parens;
        } else if (is_punct(t, ")")) {
            if (tail_parens == 0) return false;
            --tail_parens;
        } else if (is_punct(t, ":") || is_punct(t, "->")) {
            tail_open = true;
        } else if (is_punct(t, ",") && tail_parens == 0 && !tail_open) {
            return false;
        }
        if (is_punct(t, "{")) {
            // `{` directly after an identifier that is not a body-adjacent
            // specifier is a member-initializer brace-init (`count_{0}`):
            // skip its balanced braces and keep looking for the body.
            const token& p = toks[body - 1];
            const bool init_brace =
                p.kind == tok_kind::identifier &&
                !(is_kw(p, "const") || is_kw(p, "override") ||
                  is_kw(p, "final") || is_kw(p, "noexcept") ||
                  is_kw(p, "mutable") || is_kw(p, "try"));
            if (init_brace) {
                int braces = 0;
                while (body < toks.size()) {
                    if (is_punct(toks[body], "{")) ++braces;
                    if (is_punct(toks[body], "}") && --braces == 0) break;
                    ++body;
                }
                ++body;
                continue;
            }
            found = true;
            break;
        }
        ++body;
    }
    if (!found) return false;
    std::size_t end = body;
    int braces = 0;
    for (; end < toks.size(); ++end) {
        if (is_punct(toks[end], "{")) {
            ++braces;
        } else if (is_punct(toks[end], "}")) {
            if (--braces == 0) break;
        }
    }
    *body_begin = body;
    *body_end = std::min(end + 1, toks.size());
    return true;
}

/// Harvests the call sites inside [begin, end): `name(...)`,
/// `name<...>(...)`, `x.name(...)`, `X::name(...)` and `&name`.
void harvest_calls(const std::vector<token>& toks, std::size_t begin,
                   std::size_t end, std::vector<call_site>& out) {
    for (std::size_t i = begin; i < end; ++i) {
        const token& t = toks[i];
        if (t.kind != tok_kind::identifier ||
            non_callable_keywords().count(t.text) != 0) {
            continue;
        }
        call_site cs;
        cs.name = t.text;
        if (i > begin) {
            const token& p = toks[i - 1];
            if (is_punct(p, ".") || is_punct(p, "->")) {
                cs.kind = call_kind::member;
            } else if (is_punct(p, "::") && i >= 2 &&
                       toks[i - 2].kind == tok_kind::identifier) {
                cs.kind = call_kind::qualified;
                cs.qualifier = toks[i - 2].text;
            } else if (is_punct(p, "&")) {
                // Address-of escape: resolution keeps only names that
                // actually denote a known function definition, so `a & b`
                // arithmetic noise dies there.
                cs.kind = call_kind::address;
                out.push_back(std::move(cs));
                continue;
            }
        }
        std::size_t after = i + 1;
        if (after < end && is_punct(toks[after], "<")) {
            // Possible explicit template arguments: helper<int>(x).
            const std::size_t past = skip_template_args(toks, after);
            if (past < end && past != after && is_punct(toks[past], "(")) {
                after = past;
            }
        }
        if (after < end && is_punct(toks[after], "(")) {
            out.push_back(std::move(cs));
        }
    }
}

} // namespace

void call_graph::add_file(const lexed_file& file) {
    const auto& toks = file.tokens;
    const auto class_tags = tag_class_braces(toks);
    // Class-scope stack: every `{` pushes (its class tag or ""), every `}`
    // pops; the innermost non-empty entry is the enclosing class.
    std::vector<std::string> scopes;
    const auto current_class = [&]() -> std::string {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (!it->empty()) return *it;
        }
        return std::string();
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const token& t = toks[i];
        if (is_punct(t, "{")) {
            const auto tag = class_tags.find(i);
            scopes.push_back(tag == class_tags.end() ? std::string()
                                                     : tag->second);
            continue;
        }
        if (is_punct(t, "}")) {
            if (!scopes.empty()) scopes.pop_back();
            continue;
        }
        if (t.kind != tok_kind::identifier ||
            non_callable_keywords().count(t.text) != 0) {
            continue;
        }
        if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
        std::size_t body_begin = 0;
        std::size_t body_end = 0;
        if (!find_body(toks, i, &body_begin, &body_end)) continue;
        function_def def;
        def.name = t.text;
        def.path = file.path;
        def.line = t.line;
        def.body_begin = body_begin;
        def.body_end = body_end;
        if (i >= 2 && is_punct(toks[i - 1], "::") &&
            toks[i - 2].kind == tok_kind::identifier) {
            def.qualifier = toks[i - 2].text; // out-of-line X::name(...)
        } else {
            def.qualifier = current_class();
        }
        harvest_calls(toks, body_begin, body_end, def.calls);
        const std::size_t idx = defs_.size();
        by_name_[def.name].push_back(idx);
        by_path_[def.path].push_back(idx);
        defs_.push_back(std::move(def));
        // Do NOT skip to body_end: nested local definitions and the scope
        // stack both need every brace token walked.
    }
}

void call_graph::resolve_calls_of(std::size_t def_idx,
                                  std::vector<std::size_t>& out) const {
    for (const call_site& cs : defs_[def_idx].calls) {
        if (cs.kind == call_kind::qualified && cs.qualifier == "std")
            continue; // std::foo never names project code
        const auto it = by_name_.find(cs.name);
        if (it == by_name_.end()) continue;
        // Qualified calls prefer exact enclosing-class matches; only when
        // the qualifier is unknown (a namespace, a base class we did not
        // see) do they fall back to every definition of the name.
        bool exact_exists = false;
        if (cs.kind == call_kind::qualified) {
            exact_exists = std::any_of(
                it->second.begin(), it->second.end(), [&](std::size_t d) {
                    return defs_[d].qualifier == cs.qualifier;
                });
        }
        for (const std::size_t target : it->second) {
            const function_def& td = defs_[target];
            switch (cs.kind) {
            case call_kind::member:
                // x.foo(...) cannot reach a free function named foo.
                if (td.qualifier.empty()) continue;
                break;
            case call_kind::qualified:
                if (exact_exists && td.qualifier != cs.qualifier) continue;
                break;
            case call_kind::bare:
            case call_kind::address:
                break;
            }
            out.push_back(target);
        }
    }
}

void call_graph::finalize() {
    // Classes that define tick() -- the clocked components whose commit()
    // is a per-cycle clock edge (see root_names()).
    std::set<std::string> ticking_classes;
    const auto tick_it = by_name_.find("tick");
    if (tick_it != by_name_.end()) {
        for (const std::size_t d : tick_it->second) {
            ticking_classes.insert(defs_[d].qualifier);
        }
    }
    std::deque<std::size_t> work;
    for (std::size_t i = 0; i < defs_.size(); ++i) {
        function_def& def = defs_[i];
        if (!hot_eligible(def.path)) continue;
        bool root = false;
        if (root_names().count(def.name) != 0) {
            root = def.name != "commit" ||
                   queue_classes().count(def.qualifier) != 0 ||
                   ticking_classes.count(def.qualifier) != 0;
        } else if (queue_methods().count(def.name) != 0 &&
                   queue_classes().count(def.qualifier) != 0) {
            root = true;
        }
        if (!root) continue;
        def.hot = true;
        def.reached_via = "hot-path root '" +
                          (def.qualifier.empty()
                               ? def.name
                               : def.qualifier + "::" + def.name) +
                          "'";
        work.push_back(i);
    }
    // BFS over name-resolved edges; the hot flag doubles as the visited
    // set, so recursive cycles terminate.
    std::vector<std::size_t> targets;
    while (!work.empty()) {
        const std::size_t cur = work.front();
        work.pop_front();
        targets.clear();
        resolve_calls_of(cur, targets);
        for (const std::size_t tgt : targets) {
            function_def& td = defs_[tgt];
            if (td.hot || !hot_eligible(td.path)) continue;
            td.hot = true;
            // Keep provenance one hop deep plus the originating root, so
            // deep chains stay readable in findings.
            const std::string& pv = defs_[cur].reached_via;
            const std::size_t root_part = pv.find("hot-path root");
            td.reached_via =
                "called from '" + defs_[cur].name + "' (" + defs_[cur].path +
                ":" + std::to_string(defs_[cur].line) + "), " +
                (root_part == std::string::npos ? pv : pv.substr(root_part));
            work.push_back(tgt);
        }
    }
}

std::vector<const function_def*>
call_graph::hot_defs_in(const std::string& path) const {
    std::vector<const function_def*> out;
    const auto it = by_path_.find(path);
    if (it == by_path_.end()) return out;
    for (const std::size_t idx : it->second) {
        if (defs_[idx].hot) out.push_back(&defs_[idx]);
    }
    return out;
}

} // namespace detlint
