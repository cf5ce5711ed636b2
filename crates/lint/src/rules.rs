//! The four invariant rules.
//!
//! Each rule is a pure function over one file's tokens + regions; rule
//! applicability is decided by the file's (logical) path. See
//! `docs/STATIC_ANALYSIS.md` for the rationale behind each rule and
//! which PR's invariant it pins.

use crate::diag::Diagnostic;
use crate::lexer::{is_keyword, next_code, prev_code, Kind, Tok};
use crate::regions::Regions;

pub const PANIC_POLICY: &str = "panic-policy";
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
pub const FLOAT_DISCIPLINE: &str = "float-discipline";
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
pub const MALFORMED_DIRECTIVE: &str = "malformed-directive";
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Rules an allow-directive may name.
pub const ALLOWABLE_RULES: &[&str] = &[
    PANIC_POLICY,
    LOCK_DISCIPLINE,
    FLOAT_DISCIPLINE,
    HOT_PATH_ALLOC,
];

/// One file as the rules see it.
pub struct FileCtx<'a> {
    /// Logical path, `/`-separated and workspace-relative; rule
    /// scoping keys on it (fixtures override it with `treat-as`).
    pub path: &'a str,
    pub toks: &'a [Tok],
    pub regions: &'a Regions,
}

impl FileCtx<'_> {
    fn diag(&self, rule: &'static str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.path.to_string(),
            line,
            message,
        }
    }

    /// Rules never fire inside `#[cfg(test)]` items.
    fn live(&self, line: u32) -> bool {
        !self.regions.in_test(line)
    }
}

/// Paths whose non-test code must not panic: the fault-tolerant service
/// runtime and the shared dispatch core it relies on (PR 6's "workers
/// never die" contract); the simulator — it is the differential
/// oracle replayed against arbitrary (including deserialized) traces,
/// and an oracle that aborts mid-comparison reports nothing; and the
/// task-graph builder, the one place raw client edges enter, which
/// must turn a bad edge into a typed error.
pub fn panic_policy_scope(path: &str) -> bool {
    path.starts_with("crates/service/src/")
        || path.starts_with("crates/simulator/src/")
        || path == "crates/core/src/dispatch.rs"
        || path == "crates/dag/src/graph.rs"
}

/// Paths where every mutex acquisition must be poison-recovering.
pub fn lock_discipline_scope(path: &str) -> bool {
    path.starts_with("crates/service/src/")
}

/// Paths whose f64 comparisons must route through `sws_model::numeric`
/// (bit-identity of kernel results rests on one shared tolerance).
pub fn float_discipline_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/listsched/src/")
}

// ---------------------------------------------------------------------------
// panic-policy
// ---------------------------------------------------------------------------

/// `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` / slice indexing in non-test code of the scoped
/// paths. Indexing is recognised lexically: a `[` directly after an
/// identifier (that is not a keyword), `)`, `]` or `?` is an index
/// expression; after anything else it is an array literal, type, or
/// pattern.
pub fn panic_policy(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !panic_policy_scope(ctx.path) {
        return out;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !ctx.live(t.line) {
            continue;
        }
        match t.kind {
            Kind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let dotted = prev_code(toks, i).is_some_and(|j| toks[j].is_punct("."));
                let called = next_code(toks, i).is_some_and(|j| toks[j].opens('('));
                if dotted && called {
                    out.push(ctx.diag(
                        PANIC_POLICY,
                        t.line,
                        format!(
                            ".{}() can panic; return a typed error or add an allow-directive",
                            t.text
                        ),
                    ));
                }
            }
            Kind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && next_code(toks, i).is_some_and(|j| toks[j].is_punct("!")) =>
            {
                out.push(ctx.diag(
                    PANIC_POLICY,
                    t.line,
                    format!("{}! is forbidden in service paths", t.text),
                ));
            }
            Kind::Open if t.opens('[') => {
                let indexing = prev_code(toks, i).is_some_and(|j| match toks[j].kind {
                    Kind::Ident => !is_keyword(&toks[j].text),
                    Kind::Close => toks[j].closes(')') || toks[j].closes(']'),
                    Kind::Punct => toks[j].text == "?",
                    _ => false,
                });
                if indexing {
                    out.push(ctx.diag(
                        PANIC_POLICY,
                        t.line,
                        "slice indexing can panic; use .get()/.get_mut() or add an allow-directive"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

/// One mutex acquisition observed inside a function; feeds the global
/// lock-order graph.
#[derive(Debug, Clone)]
pub struct LockEdgeSite {
    /// Node name: `<file stem>::<receiver path>` — good enough to be
    /// stable within a file, where lexical ordering is meaningful.
    pub lock: String,
    pub file: String,
    pub line: u32,
    pub func: String,
}

/// Raw `.lock()` detection plus per-function acquisition sequences.
///
/// An acquisition is permitted when it is (a) inside a function named
/// `lock` (the poison-recovering helper's own body), (b) the helper
/// idiom `self.lock()`, or (c) immediately recovered inline via
/// `.unwrap_or_else(PoisonError::into_inner)`. Everything else is a
/// violation: a bare `.lock()` returns a `Result` someone will
/// `unwrap`, which is exactly the poison-propagation PR 6 removed.
pub fn lock_discipline(ctx: &FileCtx) -> (Vec<Diagnostic>, Vec<Vec<LockEdgeSite>>) {
    let mut diags = Vec::new();
    let mut sequences: Vec<Vec<LockEdgeSite>> = Vec::new();
    if !lock_discipline_scope(ctx.path) {
        return (diags, sequences);
    }
    let toks = ctx.toks;
    let stem = std::path::Path::new(ctx.path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(ctx.path)
        .to_string();
    // Acquisitions grouped by innermost enclosing function.
    let mut per_fn: Vec<(String, Vec<LockEdgeSite>)> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("lock") {
            continue;
        }
        let Some(dot) = prev_code(toks, i) else {
            continue;
        };
        if !toks[dot].is_punct(".") {
            continue;
        }
        if !next_code(toks, i).is_some_and(|j| toks[j].opens('(')) {
            continue;
        }
        if !ctx.live(toks[i].line) {
            continue;
        }
        let receiver = receiver_path(toks, dot);
        let func = ctx
            .regions
            .enclosing_fn(i)
            .map(|f| f.name.clone())
            .unwrap_or_default();
        let in_helper_body = func == "lock";
        let helper_call = receiver == "self";
        let inline_recovery = recovers_inline(toks, i);
        if !(in_helper_body || helper_call || inline_recovery) {
            diags.push(ctx.diag(
                LOCK_DISCIPLINE,
                toks[i].line,
                format!(
                    "raw `{receiver}.lock()`: acquire through the poison-recovering lock() \
                     helper (or recover inline with unwrap_or_else(PoisonError::into_inner))"
                ),
            ));
        }
        if func.is_empty() {
            continue;
        }
        let site = LockEdgeSite {
            lock: format!("{stem}::{receiver}"),
            file: ctx.path.to_string(),
            line: toks[i].line,
            func: func.clone(),
        };
        match per_fn.iter_mut().find(|(f, _)| *f == func) {
            Some((_, seq)) => seq.push(site),
            None => per_fn.push((func, vec![site])),
        }
    }
    sequences.extend(per_fn.into_iter().map(|(_, seq)| seq));
    (diags, sequences)
}

/// Dotted receiver path ending at the `.` before `lock`: for
/// `self.shared.queue.lock()` returns `self.shared.queue`; a
/// non-path receiver (`foo().lock()`) collapses to `<expr>`.
fn receiver_path(toks: &[Tok], dot: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut at = dot;
    while let Some(seg) = prev_code(toks, at) {
        if toks[seg].kind != Kind::Ident {
            if parts.is_empty() {
                return "<expr>".to_string();
            }
            break;
        }
        parts.push(&toks[seg].text);
        match prev_code(toks, seg) {
            Some(d) if toks[d].is_punct(".") => at = d,
            _ => break,
        }
    }
    parts.reverse();
    parts.join(".")
}

/// True when the `.lock()` at ident index `i` is immediately followed
/// by `.unwrap_or_else(PoisonError::into_inner)` (whitespace/comments
/// and line breaks allowed between tokens).
fn recovers_inline(toks: &[Tok], i: usize) -> bool {
    // i -> `(` -> `)` -> `.` -> `unwrap_or_else` -> `(` … PoisonError
    // `::` into_inner … `)`.
    let mut at = i;
    for expect in ["(", ")", ".", "unwrap_or_else", "("] {
        let Some(j) = next_code(toks, at) else {
            return false;
        };
        let ok = match expect {
            "(" => toks[j].opens('('),
            ")" => toks[j].closes(')'),
            "." => toks[j].is_punct("."),
            word => toks[j].is_ident(word),
        };
        if !ok {
            return false;
        }
        at = j;
    }
    let close = crate::regions::matching_close(toks, at);
    let args = &toks[at + 1..close];
    args.windows(3)
        .any(|w| w[0].is_ident("PoisonError") && w[1].is_punct("::") && w[2].is_ident("into_inner"))
}

// ---------------------------------------------------------------------------
// float-discipline
// ---------------------------------------------------------------------------

const F64_CONSTS: &[&str] = &[
    "INFINITY",
    "NEG_INFINITY",
    "NAN",
    "EPSILON",
    "MAX",
    "MIN",
    "MIN_POSITIVE",
];

/// Raw f64 comparisons outside `sws_model::numeric`.
///
/// Without type information the rule keys on lexical evidence of a
/// float operand: a comparison operator (`==`, `!=`, `<`, `<=`, `>`,
/// `>=`) whose immediate left or right operand is a float literal or an
/// `f64::CONST` path, plus every `.partial_cmp(` / `.total_cmp(` call
/// (those are the escape hatches that bypass the shared tolerance).
/// Pure variable-vs-variable float comparisons are invisible to a
/// tokenizer — the differential suites still back the rule up at
/// runtime; this is the documented static floor.
pub fn float_discipline(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !float_discipline_scope(ctx.path) {
        return out;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !ctx.live(t.line) {
            continue;
        }
        // `.partial_cmp(` / `.total_cmp(` method calls.
        if t.kind == Kind::Ident && (t.text == "partial_cmp" || t.text == "total_cmp") {
            let dotted = prev_code(toks, i).is_some_and(|j| toks[j].is_punct("."));
            let called = next_code(toks, i).is_some_and(|j| toks[j].opens('('));
            if dotted && called {
                out.push(ctx.diag(
                    FLOAT_DISCIPLINE,
                    t.line,
                    format!(
                        ".{}() bypasses the shared tolerance; use sws_model::numeric \
                         (total_cmp, approx_*, finite_*)",
                        t.text
                    ),
                ));
                continue;
            }
        }
        if t.kind != Kind::Punct
            || !matches!(t.text.as_str(), "==" | "!=" | "<" | "<=" | ">" | ">=")
        {
            continue;
        }
        if float_operand_left(toks, i) || float_operand_right(toks, i) {
            out.push(ctx.diag(
                FLOAT_DISCIPLINE,
                t.line,
                format!(
                    "raw f64 comparison `{}` with a float operand; route through \
                     sws_model::numeric (approx_*, strictly_*, finite_*)",
                    t.text
                ),
            ));
        }
    }
    out
}

fn is_float_const_path(toks: &[Tok], const_idx: usize) -> bool {
    if toks[const_idx].kind != Kind::Ident || !F64_CONSTS.contains(&toks[const_idx].text.as_str()) {
        return false;
    }
    let Some(sep) = prev_code(toks, const_idx) else {
        return false;
    };
    if !toks[sep].is_punct("::") {
        return false;
    }
    prev_code(toks, sep).is_some_and(|j| toks[j].is_ident("f64") || toks[j].is_ident("f32"))
}

fn float_operand_left(toks: &[Tok], op: usize) -> bool {
    let Some(j) = prev_code(toks, op) else {
        return false;
    };
    matches!(toks[j].kind, Kind::Num { float: true }) || is_float_const_path(toks, j)
}

fn float_operand_right(toks: &[Tok], op: usize) -> bool {
    let mut at = op;
    // Skip unary minus and opening parens: `x < -(1.0)`.
    loop {
        let Some(j) = next_code(toks, at) else {
            return false;
        };
        if toks[j].is_punct("-") || toks[j].opens('(') {
            at = j;
            continue;
        }
        if matches!(toks[j].kind, Kind::Num { float: true }) {
            return true;
        }
        // `f64::CONST` on the right.
        if toks[j].is_ident("f64") || toks[j].is_ident("f32") {
            if let Some(sep) = next_code(toks, j) {
                if toks[sep].is_punct("::") {
                    if let Some(c) = next_code(toks, sep) {
                        return F64_CONSTS.contains(&toks[c].text.as_str());
                    }
                }
            }
        }
        return false;
    }
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

/// Allocation calls inside `// sws-lint: hot-path` regions: the
/// allocation-free kernel contract (PR 3) has no compiler guard — this
/// rule is it. Applies to any file carrying hot-path markers.
pub fn hot_path_alloc(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.regions.hot.is_empty() {
        return out;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !ctx.regions.in_hot(t.line) || !ctx.live(t.line) {
            continue;
        }
        if t.kind != Kind::Ident {
            continue;
        }
        // `Vec::new`, `Vec::with_capacity`, `Box::new`, `String::new`,
        // `String::from`, `Vec::from`.
        if matches!(t.text.as_str(), "Vec" | "Box" | "String") {
            if let Some(sep) = next_code(toks, i) {
                if toks[sep].is_punct("::") {
                    if let Some(m) = next_code(toks, sep) {
                        if matches!(toks[m].text.as_str(), "new" | "with_capacity" | "from") {
                            out.push(ctx.diag(
                                HOT_PATH_ALLOC,
                                t.line,
                                format!(
                                    "{}::{} allocates inside a hot-path region",
                                    t.text, toks[m].text
                                ),
                            ));
                        }
                    }
                }
            }
            continue;
        }
        // `vec![…]`, `format!(…)`.
        if matches!(t.text.as_str(), "vec" | "format")
            && next_code(toks, i).is_some_and(|j| toks[j].is_punct("!"))
        {
            out.push(ctx.diag(
                HOT_PATH_ALLOC,
                t.line,
                format!("{}! allocates inside a hot-path region", t.text),
            ));
            continue;
        }
        // `.to_vec()`, `.collect()`, `.to_owned()`, `.to_string()`.
        if matches!(
            t.text.as_str(),
            "to_vec" | "collect" | "to_owned" | "to_string"
        ) {
            let dotted = prev_code(toks, i).is_some_and(|j| toks[j].is_punct("."));
            let called = next_code(toks, i).is_some_and(|j| toks[j].opens('('));
            if dotted && called {
                out.push(ctx.diag(
                    HOT_PATH_ALLOC,
                    t.line,
                    format!(".{}() allocates inside a hot-path region", t.text),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions::scan;

    fn run_rule<F, T>(path: &str, src: &str, f: F) -> T
    where
        F: FnOnce(&FileCtx) -> T,
    {
        let toks = lex(src);
        let regions = scan(&toks);
        f(&FileCtx {
            path,
            toks: &toks,
            regions: &regions,
        })
    }

    #[test]
    fn panic_policy_only_fires_in_scope() {
        let src = "fn f() { x.unwrap(); }";
        let hits = run_rule("crates/service/src/a.rs", src, panic_policy);
        assert_eq!(hits.len(), 1);
        let hits = run_rule("crates/core/src/rls.rs", src, panic_policy);
        assert!(hits.is_empty());
        let hits = run_rule("crates/core/src/dispatch.rs", src, panic_policy);
        assert_eq!(hits.len(), 1);
        let hits = run_rule("crates/dag/src/graph.rs", src, panic_policy);
        assert_eq!(hits.len(), 1);
        let hits = run_rule("crates/dag/src/csr.rs", src, panic_policy);
        assert!(hits.is_empty());
    }

    #[test]
    fn indexing_versus_array_literals() {
        let src = "fn f() {\n let a = xs[i];\n let b = [0u8; 4];\n for v in [1, 2] {}\n let c = f(xs)[0];\n #[allow(dead_code)]\n let d = m[k][j];\n}";
        let hits = run_rule("crates/service/src/a.rs", src, panic_policy);
        let lines: Vec<u32> = hits.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 5, 7, 7]);
    }

    #[test]
    fn unwrap_like_names_do_not_fire() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(f); z.expect_err(\"e\"); }";
        let hits = run_rule("crates/service/src/a.rs", src, panic_policy);
        assert!(hits.is_empty());
    }

    #[test]
    fn lock_helper_and_inline_recovery_are_permitted() {
        let src = "impl Q {\n fn lock(&self) -> G { self.inner.lock().unwrap_or_else(PoisonError::into_inner) }\n fn ok(&self) { let g = self.lock(); }\n fn inline(&self) { self.fired.lock().unwrap_or_else(PoisonError::into_inner); }\n fn bad(&self) { self.raw.lock().unwrap(); }\n}";
        let (hits, _) = run_rule("crates/service/src/q.rs", src, lock_discipline);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 5);
        assert!(hits[0].message.contains("self.raw"));
    }

    #[test]
    fn lock_sequences_group_by_function() {
        let src = "fn ab(x: &L) { a.lock().unwrap_or_else(PoisonError::into_inner); b.lock().unwrap_or_else(PoisonError::into_inner); }";
        let (_, seqs) = run_rule("crates/service/src/q.rs", src, lock_discipline);
        assert_eq!(seqs.len(), 1);
        let names: Vec<&str> = seqs[0].iter().map(|s| s.lock.as_str()).collect();
        assert_eq!(names, vec!["q::a", "q::b"]);
    }

    #[test]
    fn float_rule_catches_literals_consts_and_partial_cmp() {
        let src = "fn f() {\n if delta <= 2.0 {}\n if x == f64::INFINITY {}\n if a.partial_cmp(&b) == Some(O) {}\n if n < m {}\n if k < 10 {}\n}";
        let hits = run_rule("crates/core/src/rls.rs", src, float_discipline);
        let lines: Vec<u32> = hits.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
    }

    #[test]
    fn float_rule_ignores_generics_and_test_code() {
        let src = "fn f(v: Vec<f64>) -> Option<f64> { v.first().copied() }\n#[cfg(test)]\nmod t { fn g() { assert!(x < 1.0); } }";
        let hits = run_rule("crates/core/src/rls.rs", src, float_discipline);
        assert!(hits.is_empty());
    }

    #[test]
    fn hot_path_rule_needs_markers() {
        let src = "fn cold() { let v = Vec::new(); }\nfn hot() {\n // sws-lint: hot-path\n let v: Vec<u8> = xs.iter().collect();\n let w = vec![0];\n let b = Box::new(1);\n // sws-lint: end-hot-path\n let after = Vec::new();\n}";
        let hits = run_rule("crates/listsched/src/kernel.rs", src, hot_path_alloc);
        let lines: Vec<u32> = hits.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 5, 6]);
    }
}
