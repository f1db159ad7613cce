#include "rules.hpp"

#include <algorithm>
#include <array>
#include <string_view>

namespace detlint {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers

const std::set<std::string>& keywords() {
    static const std::set<std::string> k = {
        "alignas",  "alignof",  "auto",     "bool",      "break",
        "case",     "catch",    "char",     "class",     "co_await",
        "co_return","co_yield", "const",    "consteval", "constexpr",
        "constinit","continue", "decltype", "default",   "delete",
        "do",       "double",   "else",     "enum",      "explicit",
        "export",   "extern",   "false",    "float",     "for",
        "friend",   "goto",     "if",       "inline",    "int",
        "long",     "mutable",  "namespace","new",       "noexcept",
        "nullptr",  "operator", "private",  "protected", "public",
        "register", "requires", "return",   "short",     "signed",
        "sizeof",   "static",   "struct",   "switch",    "template",
        "this",     "throw",    "true",     "try",       "typedef",
        "typeid",   "typename", "union",    "unsigned",  "using",
        "virtual",  "void",     "volatile", "while",
    };
    return k;
}

// Built-in type keywords that can end a declaration's type part.
const std::set<std::string>& type_keywords() {
    static const std::set<std::string> k = {
        "auto", "bool", "char",  "double",   "float", "int",
        "long", "short","signed","unsigned", "size_t",
    };
    return k;
}

[[nodiscard]] bool is_ident(const token& t, std::string_view text) {
    return t.kind == tok_kind::identifier && t.text == text;
}

[[nodiscard]] bool is_punct(const token& t, std::string_view text) {
    return t.kind == tok_kind::punct && t.text == text;
}

[[nodiscard]] bool is_header(const std::string& path) {
    const auto dot = path.rfind('.');
    if (dot == std::string::npos) return false;
    const std::string_view ext = std::string_view(path).substr(dot);
    return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx";
}

[[nodiscard]] bool path_contains(const std::string& path,
                                 std::string_view needle) {
    return path.find(needle) != std::string::npos;
}

/// Token index ranges [body_open, one-past-body_close) of function bodies
/// whose name satisfies `match`. Handles inline member definitions
/// (`cycle_t next_event(cycle_t now) const override { ... }`) and
/// out-of-line ones (`cycle_t widget::next_event(cycle_t now) const {`);
/// a `;` between the parameter list and any `{` marks a declaration (or a
/// *call* inside a larger statement) and yields no range.
template <typename Pred>
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
function_body_ranges(const lexed_file& file, Pred match) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const token& t = toks[i];
        if (t.kind != tok_kind::identifier || !match(t.text)) continue;
        if (!is_punct(toks[i + 1], "(")) continue;
        // Match the parameter list's closing paren.
        std::size_t j = i + 1;
        int parens = 0;
        for (; j < toks.size(); ++j) {
            if (is_punct(toks[j], "(")) {
                ++parens;
            } else if (is_punct(toks[j], ")")) {
                if (--parens == 0) break;
            }
        }
        if (j >= toks.size()) continue;
        // `const override {` etc. may intervene; a `;` first means this
        // was a declaration (or a call inside a larger statement).
        std::size_t body = j + 1;
        bool found_body = false;
        for (; body < toks.size(); ++body) {
            if (is_punct(toks[body], ";")) break;
            if (is_punct(toks[body], "{")) {
                found_body = true;
                break;
            }
        }
        if (!found_body) {
            i = j;
            continue;
        }
        std::size_t end = body;
        int braces = 0;
        for (; end < toks.size(); ++end) {
            if (is_punct(toks[end], "{")) {
                ++braces;
            } else if (is_punct(toks[end], "}")) {
                if (--braces == 0) break;
            }
        }
        out.emplace_back(body, end + 1);
        i = end;
    }
    return out;
}

/// Skips a balanced template-argument list. `i` must index the `<` token;
/// returns the index one past the matching `>`. `>>` closes two levels.
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
            return i; // malformed; bail out at a statement boundary
        }
        ++i;
    }
    return i;
}

/// After a type's template close (or type name), finds the declared
/// identifier: skips cv/ref/pointer decoration and nested-name pieces
/// (`::iterator` etc). Returns npos-like toks.size() when the next
/// meaningful token is not a plain declared name.
[[nodiscard]] std::size_t declared_name_index(const std::vector<token>& toks,
                                              std::size_t i) {
    while (i < toks.size()) {
        const token& t = toks[i];
        if (is_punct(t, "&") || is_punct(t, "*") || is_punct(t, "&&") ||
            is_ident(t, "const") || is_ident(t, "constexpr") ||
            is_ident(t, "static") || is_ident(t, "mutable")) {
            ++i;
            continue;
        }
        if (is_punct(t, "::")) {
            // `std::unordered_map<...>::iterator it` -- step over the
            // nested name and keep looking for the declared identifier.
            i += 2;
            continue;
        }
        if (t.kind == tok_kind::identifier &&
            keywords().count(t.text) == 0) {
            // A following `<` or `::` means this is still part of a type.
            if (i + 1 < toks.size() && (is_punct(toks[i + 1], "<") ||
                                        is_punct(toks[i + 1], "::"))) {
                ++i;
                continue;
            }
            return i;
        }
        break;
    }
    return toks.size();
}

// ---------------------------------------------------------------------------
// Rule: nondet-source

const std::set<std::string>& banned_type_names() {
    // Any appearance of these identifiers is nondeterministic by
    // construction: hardware entropy and wall-clock time have no place in
    // a simulator whose trials must be bit-identical across runs, hosts
    // and thread counts. Use bluescale::rng (seeded, counter-derived
    // substreams) and cycle_t simulation time instead.
    static const std::set<std::string> k = {
        "random_device",
        "system_clock",
        "steady_clock",
        "high_resolution_clock",
    };
    return k;
}

const std::set<std::string>& banned_call_names() {
    static const std::set<std::string> k = {
        "rand", "srand", "time", "getenv", "clock", "gettimeofday",
        "clock_gettime",
    };
    return k;
}

void check_nondet_source(const lexed_file& file, std::vector<finding>& out) {
    // No directory is exempt: the one wall-clock reader, the profiling
    // stopwatch in obs/profile.hpp, carries an explicit
    // `detlint:allow-file(nondet-source)` with its justification.
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const token& t = toks[i];
        if (t.kind != tok_kind::identifier) continue;
        if (banned_type_names().count(t.text) != 0) {
            // Member access like `cfg.system_clock_mhz` lexes as one
            // identifier and never lands here; `foo.steady_clock` would,
            // but a member *named* after a clock is worth flagging too.
            out.push_back({file.path, t.line, "nondet-source",
                           "'" + t.text +
                               "' is a banned nondeterminism source; seed a "
                               "bluescale::rng / use cycle_t simulation time "
                               "instead"});
            continue;
        }
        if (banned_call_names().count(t.text) == 0) continue;
        if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
        // Decide call vs declaration vs member from the left context.
        if (i > 0) {
            const token& p = toks[i - 1];
            if (is_punct(p, ".") || is_punct(p, "->")) continue; // member
            if (is_punct(p, "::")) {
                // Qualified: only std:: / :: (global) qualify libc.
                const bool std_qual =
                    i >= 2 && is_ident(toks[i - 2], "std");
                const bool global_qual =
                    i < 2 || toks[i - 2].kind != tok_kind::identifier;
                if (!std_qual && !global_qual) continue;
            } else if (p.kind == tok_kind::identifier &&
                       keywords().count(p.text) == 0) {
                continue; // `rng rand(seed)` -- a declaration; libc-shadow's
            } else if (is_punct(p, "&") || is_punct(p, "*") ||
                       is_punct(p, ">")) {
                continue; // tail of a declarator type
            }
        }
        out.push_back({file.path, t.line, "nondet-source",
                       "call to '" + t.text +
                           "' breaks trial reproducibility; derive values "
                           "from the trial seed (bluescale::rng / substream) "
                           "instead"});
    }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter

void collect_unordered(const lexed_file& file, tree_context& ctx) {
    static const std::set<std::string> kinds = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != tok_kind::identifier ||
            kinds.count(toks[i].text) == 0) {
            continue;
        }
        if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "<")) continue;
        const std::size_t after = skip_template_args(toks, i + 1);
        const std::size_t name = declared_name_index(toks, after);
        if (name >= toks.size()) continue;
        // Require a declarator context: name followed by ; = { ( , or ).
        if (name + 1 < toks.size()) {
            const token& n = toks[name + 1];
            if (!(is_punct(n, ";") || is_punct(n, "=") || is_punct(n, "{") ||
                  is_punct(n, "(") || is_punct(n, ",") || is_punct(n, ")"))) {
                continue;
            }
        }
        ctx.unordered_names.insert(toks[name].text);
    }
}

void check_unordered_iter(const lexed_file& file, const tree_context& ctx,
                          std::vector<finding>& out) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Range-for whose range expression mentions an unordered name.
        if (is_ident(toks[i], "for") && i + 1 < toks.size() &&
            is_punct(toks[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0;
            std::size_t close_idx = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                if (is_punct(toks[j], "(")) ++depth;
                if (is_punct(toks[j], ")") && --depth == 0) {
                    close_idx = j;
                    break;
                }
                if (depth == 1 && is_punct(toks[j], ":") && colon == 0) {
                    colon = j;
                }
            }
            if (colon != 0 && close_idx != 0) {
                for (std::size_t j = colon + 1; j < close_idx; ++j) {
                    if (toks[j].kind == tok_kind::identifier &&
                        ctx.unordered_names.count(toks[j].text) != 0) {
                        out.push_back(
                            {file.path, toks[i].line, "unordered-iter",
                             "range-for over unordered container '" +
                                 toks[j].text +
                                 "': iteration order is unspecified and "
                                 "poisons stats/CSV determinism; use "
                                 "std::map / a sorted vector, or suppress "
                                 "with a justification if order provably "
                                 "cannot reach output"});
                        break;
                    }
                }
            }
        }
        // Explicit iterator loops: name.begin() / name.cbegin() etc.
        if (toks[i].kind == tok_kind::identifier &&
            ctx.unordered_names.count(toks[i].text) != 0 &&
            i + 2 < toks.size() && is_punct(toks[i + 1], ".")) {
            const std::string& m = toks[i + 2].text;
            if (m == "begin" || m == "end" || m == "cbegin" ||
                m == "cend" || m == "rbegin" || m == "rend") {
                out.push_back(
                    {file.path, toks[i].line, "unordered-iter",
                     "iterator walk of unordered container '" + toks[i].text +
                         "': iteration order is unspecified and poisons "
                         "stats/CSV determinism; use std::map / a sorted "
                         "vector, or suppress with a justification"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: float-cycle

[[nodiscard]] bool cycle_like_name(const std::string& name) {
    const auto ends_with = [&](std::string_view suf) {
        return name.size() >= suf.size() &&
               std::string_view(name).substr(name.size() - suf.size()) ==
                   suf;
    };
    return ends_with("_cycle") || ends_with("_cycles") ||
           ends_with("_cycle_") || ends_with("_cycles_") ||
           ends_with("_budget") || ends_with("_budget_") ||
           ends_with("_deadline") || ends_with("_deadline_");
}

const std::set<std::string>& integer_type_names() {
    static const std::set<std::string> k = {
        "int",      "long",      "short",    "unsigned", "size_t",
        "uint8_t",  "uint16_t",  "uint32_t", "uint64_t", "int8_t",
        "int16_t",  "int32_t",   "int64_t",  "uintptr_t","ptrdiff_t",
        "client_id_t", "task_id_t", "request_id_t",
    };
    return k;
}

[[nodiscard]] bool member_style(const std::string& name) {
    return !name.empty() && name.back() == '_';
}

void collect_typed_names(const lexed_file& file, tree_context& ctx) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const token& t = toks[i];
        if (t.kind != tok_kind::identifier) continue;
        const bool cyc = t.text == "cycle_t";
        const bool flt = t.text == "double" || t.text == "float";
        const bool integral = integer_type_names().count(t.text) != 0;
        if (!cyc && !flt && !integral) continue;
        // `static_cast<double>(x)` must not register 'x' -- the cast *is*
        // the sanctioned idiom. Casts lex as  static_cast < double > ( ...
        if (i >= 2 && is_punct(toks[i - 1], "<")) continue;
        const std::size_t name = declared_name_index(toks, i + 1);
        if (name >= toks.size()) continue;
        if (name + 1 < toks.size()) {
            const token& n = toks[name + 1];
            if (!(is_punct(n, ";") || is_punct(n, "=") || is_punct(n, "{") ||
                  is_punct(n, ",") || is_punct(n, ")") ||
                  is_punct(n, "("))) {
                continue;
            }
        }
        const std::string& declared = toks[name].text;
        typed_names& scope = member_style(declared)
                                 ? ctx.members
                                 : ctx.locals_by_file[file.path];
        if (cyc) {
            scope.cycle.insert(declared);
        } else if (flt) {
            scope.flt.insert(declared);
        } else {
            scope.integer.insert(declared);
        }
    }
}

enum class arith_side { neither, cycle, flt };

[[nodiscard]] arith_side lookup(const typed_names& scope,
                                const std::string& name, bool* found) {
    const bool cyc = scope.cycle.count(name) != 0;
    const bool flt = scope.flt.count(name) != 0;
    const bool integral = scope.integer.count(name) != 0;
    *found = cyc || flt || integral;
    // Conflicting declarations (same name, different types) are ambiguous
    // from tokens alone -- stay silent rather than guess.
    if (cyc && !flt) return arith_side::cycle;
    if (flt && !cyc && !integral) return arith_side::flt;
    return arith_side::neither;
}

[[nodiscard]] arith_side classify(const lexed_file& file, const token& t,
                                  const tree_context& ctx) {
    if (t.kind == tok_kind::number) {
        return t.is_float ? arith_side::flt : arith_side::neither;
    }
    if (t.kind != tok_kind::identifier) return arith_side::neither;
    if (t.text == "cycle_t") return arith_side::cycle;
    bool found = false;
    if (member_style(t.text)) {
        const arith_side side = lookup(ctx.members, t.text, &found);
        if (found) return side;
    } else {
        const auto it = ctx.locals_by_file.find(file.path);
        if (it != ctx.locals_by_file.end()) {
            const arith_side side = lookup(it->second, t.text, &found);
            if (found) return side;
        }
    }
    // Fallback for names we never saw declared (cross-library members,
    // accessor calls): counter-style suffixes are cycle-valued by project
    // convention.
    return cycle_like_name(t.text) ? arith_side::cycle : arith_side::neither;
}

/// Resolves the operand to the right of an operator to its significant
/// identifier: follows `a.b->c::d` chains to the last component, so
/// `result.x += m.x` classifies `x`, not `m`.
[[nodiscard]] std::size_t resolve_operand(const std::vector<token>& toks,
                                          std::size_t j) {
    if (j >= toks.size() || toks[j].kind != tok_kind::identifier) return j;
    while (j + 2 < toks.size() &&
           (is_punct(toks[j + 1], ".") || is_punct(toks[j + 1], "->") ||
            is_punct(toks[j + 1], "::")) &&
           toks[j + 2].kind == tok_kind::identifier) {
        j += 2;
    }
    return j;
}

void check_float_cycle(const lexed_file& file, const tree_context& ctx,
                       std::vector<finding>& out) {
    // Real-valued arithmetic on cycle counters silently rounds and is
    // platform-fragile; the analysis/ and hwcost/ layers do it on purpose
    // (sbf/utilization math), everywhere else cycle math must stay integral
    // with explicit static_casts at the stats boundary.
    if (path_contains(file.path, "/analysis/") ||
        path_contains(file.path, "/hwcost/")) {
        return;
    }
    static const std::set<std::string> arith = {"+", "-", "*", "/", "%",
                                                "+=", "-=", "*=", "/=", "="};
    const auto& toks = file.tokens;
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        const token& op = toks[i];
        if (op.kind != tok_kind::punct || arith.count(op.text) == 0) {
            continue;
        }
        const std::size_t r = resolve_operand(toks, i + 1);
        const arith_side lhs = classify(file, toks[i - 1], ctx);
        const arith_side rhs = classify(file, toks[r], ctx);
        const bool mixed = (lhs == arith_side::cycle &&
                            rhs == arith_side::flt) ||
                           (lhs == arith_side::flt &&
                            rhs == arith_side::cycle);
        if (!mixed) continue;
        if (op.text == "=" && lhs != arith_side::cycle) {
            continue; // `double d = n_cycles;` widens losslessly enough--
                      // the lossy direction is writing back into a counter
        }
        out.push_back(
            {file.path, op.line, "float-cycle",
             "floating-point value mixed into cycle/budget arithmetic ('" +
                 toks[i - 1].text + " " + op.text + " " + toks[r].text +
                 "'); keep counters integral and static_cast at the "
                 "stats/analysis boundary"});
    }
}

// ---------------------------------------------------------------------------
// Rule: libc-shadow

const std::set<std::string>& libc_names() {
    static const std::set<std::string> k = {
        "rand",  "srand",  "random", "time",   "clock",  "getenv",
        "setenv","system", "abort",  "exit",   "signal", "raise",
        "read",  "write",  "open",   "close",  "link",   "unlink",
        "remove","malloc", "calloc", "free",   "div",
    };
    return k;
}

void check_libc_shadow(const lexed_file& file, std::vector<finding>& out) {
    const auto& toks = file.tokens;
    for (std::size_t i = 1; i < toks.size(); ++i) {
        const token& t = toks[i];
        if (t.kind != tok_kind::identifier || libc_names().count(t.text) == 0)
            continue;
        const token& p = toks[i - 1];
        // Declaration heuristic: preceded by the tail of a type
        // (identifier, type keyword, >, &, *, &&) and followed by a
        // declarator continuation.
        const bool typeish_prev =
            (p.kind == tok_kind::identifier && keywords().count(p.text) == 0) ||
            type_keywords().count(p.text) != 0 || is_punct(p, ">") ||
            is_punct(p, "&") || is_punct(p, "*") || is_punct(p, "&&");
        if (!typeish_prev) continue;
        if (is_punct(p, ".") || is_punct(p, "->") || is_punct(p, "::"))
            continue;
        if (i + 1 >= toks.size()) continue;
        const token& n = toks[i + 1];
        const bool declarator_next =
            is_punct(n, "(") || is_punct(n, "=") || is_punct(n, "{") ||
            is_punct(n, ";") || is_punct(n, ",") || is_punct(n, ")") ||
            is_punct(n, "[");
        if (!declarator_next) continue;
        out.push_back(
            {file.path, t.line, "libc-shadow",
             "identifier '" + t.text +
                 "' shadows the libc function of the same name; a later "
                 "edit that drops the declaration silently rebinds to the "
                 "(nondeterministic) libc symbol -- rename it"});
    }
}

// ---------------------------------------------------------------------------
// Rule: metrics-bypass

const std::set<std::string>& stat_field_names() {
    // The counter-struct fields that were public mutable state before the
    // obs migration. A `stats_.issued += 1` that compiles today is a
    // regression to the old API: the write bypasses the obs registry, so
    // it never reaches snapshots, merges or the CSV exporters.
    static const std::set<std::string> k = {
        "issued",          "completed",        "missed",
        "abandoned",       "missed_beyond_margin",
        "retries",         "timeouts",         "failed_responses",
        "retry_exhausted", "stale_responses",  "shed_cycles",
        "shed_deferrals",  "reconfigurations", "windows_checked",
        "violating_windows","supply_shortfall_alarms",
        "deadline_alarms", "shed_events",      "restore_events",
        "shed_client_cycles","hard_misses",    "best_effort_misses",
        "degrade_events",  "recovery_events",  "degraded_se_cycles",
        "serviced",        "ecc_retries",      "uncorrected_errors",
        "storm_cycles",    "forwarded",        "forwarded_budgeted",
        "fault_stall_cycles","degraded_cycles",
    };
    return k;
}

[[nodiscard]] bool owner_is_stat_holder(const token& t) {
    return t.kind == tok_kind::identifier &&
           (member_style(t.text) || t.text == "this");
}

void check_metrics_bypass(const lexed_file& file, std::vector<finding>& out) {
    // The obs layer owns metric storage and export; stats/ holds the
    // sanctioned low-level formatters (csv_writer, table). Everywhere
    // else, stat values must flow through obs handles and leave through
    // the obs exporters.
    if (path_contains(file.path, "/obs/") ||
        path_contains(file.path, "/stats/")) {
        return;
    }
    // Lint tooling and test code are not stat emitters -- a CLI's
    // interface IS stdout, and tests legitimately stream scratch files
    // and diagnostics -- so the raw-stream check is scoped to the
    // simulation trees. Direct counter-field writes stay policed
    // everywhere. Lint fixtures opt back in: they live under tests/ but
    // exist precisely to seed rule violations.
    const bool stream_scope =
        (!path_contains(file.path, "/tools/") &&
         !path_contains(file.path, "/tests/")) ||
        path_contains(file.path, "lint/fixtures");
    static const std::set<std::string> stream_names = {"ofstream", "ostream",
                                                       "cout", "cerr"};
    static const std::set<std::string> mutators = {"=", "+=", "-=", "++",
                                                   "--"};
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const token& t = toks[i];
        // (a) Raw stream emission: hand-rolled stat CSV/log writers were
        // the pre-obs idiom and silently fork the export format.
        if (stream_scope && t.kind == tok_kind::identifier &&
            stream_names.count(t.text) != 0) {
            out.push_back(
                {file.path, t.line, "metrics-bypass",
                 "raw std::" + t.text +
                     " use outside src/obs//src/stats/: stat emission must "
                     "go through the obs exporters "
                     "(snapshot::write_csv / trace_export); suppress with "
                     "a justification for genuinely non-metric output"});
            continue;
        }
        if (t.kind != tok_kind::punct || mutators.count(t.text) == 0) {
            continue;
        }
        // (b) Direct counter-struct field mutation. Member-style owners
        // (`stats_.issued += 1`, `this->counters_.missed++`) are the old
        // public-field API; value aggregation into locals/results
        // (`out.retries += m.retries`) is legitimate and skipped.
        const token* field = nullptr;
        const token* owner = nullptr;
        if (i >= 3 && toks[i - 1].kind == tok_kind::identifier &&
            (is_punct(toks[i - 2], ".") || is_punct(toks[i - 2], "->"))) {
            field = &toks[i - 1];
            owner = &toks[i - 3];
        } else if ((t.text == "++" || t.text == "--") && i + 3 < toks.size() &&
                   (is_punct(toks[i + 2], ".") ||
                    is_punct(toks[i + 2], "->")) &&
                   toks[i + 3].kind == tok_kind::identifier) {
            // Prefix form: ++owner.field -- walk the access chain to its
            // last component so `++this->stats_.issued` resolves too.
            std::size_t j = i + 1;
            while (j + 2 < toks.size() &&
                   (is_punct(toks[j + 1], ".") ||
                    is_punct(toks[j + 1], "->")) &&
                   toks[j + 2].kind == tok_kind::identifier) {
                owner = &toks[j];
                j += 2;
            }
            field = &toks[j];
        }
        if (field == nullptr || owner == nullptr) continue;
        if (stat_field_names().count(field->text) == 0) continue;
        if (!owner_is_stat_holder(*owner)) continue;
        out.push_back(
            {file.path, t.line, "metrics-bypass",
             "direct write to stat counter field '" + field->text +
                 "' ('" + owner->text + "." + field->text + " " + t.text +
                 " ...') bypasses the obs registry; mutate through an "
                 "obs::counter/gauge handle so snapshots and exports see "
                 "it"});
    }
}

// ---------------------------------------------------------------------------
// Rule: cycle-step

/// Half-open token-index ranges covering the bodies of functions named
/// next_event, wake_horizon, or response_horizon -- the horizon API,
/// i.e. the places that are *supposed* to reason in `now + k` terms.
/// Works for both inline definitions
/// (`cycle_t next_event(cycle_t now) const override { ... }`) and
/// out-of-line ones (`cycle_t widget::next_event(cycle_t now) const {`);
/// a `;` between the parameter list and any `{` marks a declaration and
/// yields no range.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
horizon_body_ranges(const lexed_file& file) {
    return function_body_ranges(file, [](const std::string& name) {
        return name == "next_event" || name == "wake_horizon" ||
               name == "response_horizon";
    });
}

void check_cycle_step(const lexed_file& file, std::vector<finding>& out) {
    // Hand-rolled `now + 1` / `now_ - 2` cycle stepping in model code is
    // a cadence decision the event engine cannot see: the component will
    // be skipped while quiescent and the hardcoded step silently never
    // happens. Cadence arithmetic belongs in next_event()/wake_horizon()
    // (whose bodies are exempt -- they exist to own it). The sim kernel
    // implements the wake protocol itself, and bench/examples drivers
    // fabricate synthetic timestamps, so those trees are out of scope.
    if (path_contains(file.path, "/sim/") ||
        path_contains(file.path, "/bench/") ||
        path_contains(file.path, "/examples/")) {
        return;
    }
    const auto ranges = horizon_body_ranges(file);
    const auto sanctioned = [&](std::size_t idx) {
        for (const auto& [b, e] : ranges) {
            if (idx >= b && idx < e) return true;
        }
        return false;
    };
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        const token& t = toks[i];
        if (t.kind != tok_kind::identifier ||
            (t.text != "now" && t.text != "now_")) {
            continue;
        }
        const token& op = toks[i + 1];
        if (!is_punct(op, "+") && !is_punct(op, "-")) continue;
        const token& lit = toks[i + 2];
        if (lit.kind != tok_kind::number || lit.is_float) continue;
        if (sanctioned(i)) continue;
        out.push_back(
            {file.path, t.line, "cycle-step",
             "hardcoded cycle step '" + t.text + " " + op.text + " " +
                 lit.text +
                 "' outside next_event()/wake_horizon(): the event engine "
                 "cannot see ad-hoc cadence arithmetic -- move it into the "
                 "horizon API, or suppress with a justification for "
                 "dataflow timestamps"});
    }
}

// ---------------------------------------------------------------------------
// Rule: include-guard

void check_include_guard(const lexed_file& file, std::vector<finding>& out) {
    if (!is_header(file.path)) return;
    const auto& toks = file.tokens;
    for (const token& t : toks) {
        if (t.kind == tok_kind::pp_directive) {
            if (t.text == "#pragma once" ||
                t.text.rfind("#pragma once", 0) == 0) {
                return; // guard precedes all other directives/code: OK
            }
            out.push_back(
                {file.path, t.line, "include-guard",
                 "header must open with '#pragma once' (project convention; "
                 "classic #ifndef guards are not used here), found '" +
                     t.text + "' first"});
            return;
        }
        // Any code token before a guard means the guard is missing/late.
        out.push_back({file.path, t.line, "include-guard",
                       "header has code before '#pragma once'"});
        return;
    }
    out.push_back({file.path, 1, "include-guard",
                   "header is missing '#pragma once'"});
}

// ---------------------------------------------------------------------------
// Rule family: hotpath-* (call-graph gated)
//
// These rules run only inside function bodies the call graph marked
// reachable from the simulation hot-path roots (see callgraph.hpp). They
// police the O(1)-per-tick contract: no heap growth, no blocking
// synchronization, no exceptions, no stream/file I/O on any code a
// tick()/commit()/next_event() can reach. Sanctioned idioms by
// construction: reserve-then-emplace in setup code (setup is not
// reachable from the roots, so it is never checked), obs counter/gauge
// handle increments (inc/add are not in any banned set -- the handles
// are the O(1) metric path), and assert() (compiled out of release
// builds, the approved contract-violation idiom).

const std::set<std::string>& hot_alloc_calls() {
    static const std::set<std::string> k = {
        "make_unique", "make_shared", "malloc", "calloc", "realloc",
    };
    return k;
}

const std::set<std::string>& hot_alloc_members() {
    // Growable-container mutators: any of these on a hot path can trip a
    // reallocation and an unbounded copy. reserve() is in the list on
    // purpose -- reserving inside a tick IS the allocation being hidden.
    static const std::set<std::string> k = {
        "push_back", "emplace_back", "push_front", "emplace_front",
        "resize",    "reserve",      "shrink_to_fit",
        "insert",    "emplace",      "append",
    };
    return k;
}

const std::set<std::string>& hot_lock_types() {
    static const std::set<std::string> k = {
        "mutex",          "recursive_mutex",    "timed_mutex",
        "shared_mutex",   "shared_timed_mutex", "lock_guard",
        "unique_lock",    "scoped_lock",        "shared_lock",
        "condition_variable", "condition_variable_any",
    };
    return k;
}

const std::set<std::string>& hot_lock_members() {
    static const std::set<std::string> k = {
        "lock",     "unlock",     "try_lock",   "wait",
        "wait_for", "wait_until", "notify_one", "notify_all",
    };
    return k;
}

const std::set<std::string>& hot_io_names() {
    static const std::set<std::string> k = {
        "cout",     "cerr",        "clog",        "printf",  "fprintf",
        "fputs",    "fputc",       "fwrite",      "fopen",   "fclose",
        "puts",     "putchar",     "ofstream",    "ifstream","fstream",
        "ostringstream", "istringstream", "stringstream",    "getline",
    };
    return k;
}

void check_hotpath(const lexed_file& file, const tree_context& ctx,
                   bool alloc_on, bool lock_on, bool throw_on, bool io_on,
                   std::vector<finding>& out) {
    const auto hot = ctx.graph.hot_defs_in(file.path);
    if (hot.empty()) return;
    const auto& toks = file.tokens;
    // Nested local definitions can sit inside an enclosing hot body; dedup
    // by token index so overlapping ranges report each site once.
    std::set<std::pair<std::size_t, std::string>> flagged;
    const auto flag = [&](std::size_t idx, const char* rule,
                          const std::string& what, const function_def& def,
                          const char* advice) {
        if (!flagged.insert({idx, rule}).second) return;
        out.push_back(
            {file.path, toks[idx].line, rule,
             what + " inside hot function '" + def.name + "' (" +
                 def.reached_via + "); " + advice});
    };
    for (const function_def* def : hot) {
        const std::size_t end = std::min(def->body_end, toks.size());
        for (std::size_t i = def->body_begin; i < end; ++i) {
            const token& t = toks[i];
            if (t.kind != tok_kind::identifier) continue;
            const bool member_ctx =
                i > 0 && (is_punct(toks[i - 1], ".") ||
                          is_punct(toks[i - 1], "->"));
            const bool call_next =
                i + 1 < toks.size() && (is_punct(toks[i + 1], "(") ||
                                        is_punct(toks[i + 1], "<"));
            if (alloc_on) {
                if (t.text == "new") {
                    flag(i, "hotpath-alloc", "'new' allocates", *def,
                         "hot-path work must be O(1) per tick: pre-size or "
                         "pool the storage at assembly time, or suppress "
                         "with a justification for bounded/amortized cases");
                } else if (!member_ctx && call_next &&
                           hot_alloc_calls().count(t.text) != 0) {
                    flag(i, "hotpath-alloc", "'" + t.text + "' allocates",
                         *def,
                         "hot-path work must be O(1) per tick: allocate at "
                         "assembly time and reuse, or suppress with a "
                         "justification for bounded/amortized cases");
                } else if (member_ctx && call_next &&
                           hot_alloc_members().count(t.text) != 0) {
                    flag(i, "hotpath-alloc",
                         "growable-container '" + t.text + "'", *def,
                         "a reallocation here is unbounded work on the "
                         "tick path: reserve at assembly time and assert "
                         "the bound, or suppress with a justification");
                }
            }
            if (lock_on) {
                if (!member_ctx && hot_lock_types().count(t.text) != 0) {
                    flag(i, "hotpath-lock",
                         "'" + t.text + "' synchronizes", *def,
                         "the tick path must stay lock-free: components "
                         "are single-threaded within a trial -- move "
                         "synchronization to the harness boundary");
                } else if (member_ctx && call_next &&
                           hot_lock_members().count(t.text) != 0) {
                    flag(i, "hotpath-lock",
                         "blocking call '" + t.text + "'", *def,
                         "the tick path must never block: move waits to "
                         "the harness boundary, or suppress with a "
                         "justification for non-blocking namesakes");
                }
            }
            if (throw_on && t.text == "throw") {
                flag(i, "hotpath-throw", "'throw'", *def,
                     "exception unwinding is unbounded control flow on "
                     "the tick path: assert() contract violations or "
                     "return a status instead");
            }
            if (io_on && hot_io_names().count(t.text) != 0) {
                flag(i, "hotpath-io", "stream/file use of '" + t.text + "'",
                     *def,
                     "the tick path must not touch streams or files: "
                     "record through obs counters/trace and export after "
                     "the run");
            }
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Registry

const std::vector<rule_info>& all_rules() {
    static const std::vector<rule_info> rules = {
        {"nondet-source",
         "bans wall-clock/entropy APIs (std::random_device, rand/srand, "
         "time, chrono clocks, getenv): all randomness must come from the "
         "seeded bluescale::rng and time from cycle_t simulation time; "
         "no directory is exempt"},
        {"unordered-iter",
         "flags iteration over std::unordered_{map,set} members: order is "
         "unspecified and must never feed stats/CSV output"},
        {"float-cycle",
         "flags double/float mixed directly into cycle_t/budget counter "
         "arithmetic outside analysis/ and hwcost/"},
        {"libc-shadow",
         "flags identifiers that shadow libc names (rand, time, clock, "
         "...): deleting the local silently rebinds to libc"},
        {"cycle-step",
         "flags hardcoded `now + k` cycle arithmetic in component code "
         "outside next_event()/wake_horizon() bodies: ad-hoc cadence math "
         "is invisible to the event engine"},
        {"metrics-bypass",
         "flags raw std::ostream stat emission and direct counter-struct "
         "field writes outside src/obs/ and src/stats/: metrics flow "
         "through obs handles and leave through the obs exporters"},
        {"include-guard",
         "headers must open with '#pragma once' before any code or other "
         "preprocessor directive"},
        {"hotpath-alloc",
         "flags heap growth (new, make_unique/make_shared, malloc, and "
         "push_back/resize/insert/... on growable containers) in functions "
         "the call graph marks reachable from the simulation hot-path "
         "roots (tick/commit/next_event/advance/on_activation, push/pop on "
         "the bounded queue classes): every tick must do O(1) work, so "
         "storage is pre-sized at assembly time (reserve-then-emplace in "
         "setup is sanctioned -- setup is not hot)"},
        {"hotpath-lock",
         "flags mutexes, lock guards, condition variables and "
         "wait/notify calls on the hot path: components are "
         "single-threaded within a trial and the tick path must never "
         "block"},
        {"hotpath-throw",
         "flags `throw` on the hot path: exception unwinding is unbounded "
         "control flow; assert() or status returns are the contract "
         "idioms"},
        {"hotpath-io",
         "flags stream/file I/O (cout/cerr, printf family, fstream, "
         "stringstream, getline) on the hot path, beyond what "
         "metrics-bypass already polices: emission goes through obs "
         "handles and leaves after the run"},
    };
    return rules;
}

bool known_rule(const std::string& id) {
    return std::any_of(all_rules().begin(), all_rules().end(),
                       [&](const rule_info& r) { return id == r.id; });
}

void collect(const lexed_file& file, tree_context& ctx) {
    collect_unordered(file, ctx);
    collect_typed_names(file, ctx);
    ctx.graph.add_file(file);
}

void finalize(tree_context& ctx) { ctx.graph.finalize(); }

void check(const lexed_file& file, const tree_context& ctx,
           const std::set<std::string>& enabled,
           std::vector<finding>& out) {
    const auto on = [&](const char* id) {
        return enabled.empty() || enabled.count(id) != 0;
    };
    std::vector<finding> raw;
    if (on("nondet-source")) check_nondet_source(file, raw);
    if (on("unordered-iter")) check_unordered_iter(file, ctx, raw);
    if (on("float-cycle")) check_float_cycle(file, ctx, raw);
    if (on("cycle-step")) check_cycle_step(file, raw);
    if (on("libc-shadow")) check_libc_shadow(file, raw);
    if (on("metrics-bypass")) check_metrics_bypass(file, raw);
    if (on("include-guard")) check_include_guard(file, raw);
    if (on("hotpath-alloc") || on("hotpath-lock") || on("hotpath-throw") ||
        on("hotpath-io")) {
        check_hotpath(file, ctx, on("hotpath-alloc"), on("hotpath-lock"),
                      on("hotpath-throw"), on("hotpath-io"), raw);
    }
    // Token order within each rule is already source order; interleave the
    // rules by line so a file's report reads top-to-bottom.
    std::stable_sort(raw.begin(), raw.end(),
                     [](const finding& a, const finding& b) {
                         return a.line < b.line;
                     });
    out.insert(out.end(), raw.begin(), raw.end());
}

} // namespace detlint
