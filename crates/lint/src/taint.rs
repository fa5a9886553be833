//! D10 — flow-sensitive determinism taint.
//!
//! The lattice is two-point (clean / tainted-with-origin) over local
//! binding names, tracked per function, statement by statement:
//!
//! * **Sources**: wall-clock reads (`Instant::now`, `SystemTime`), ambient
//!   environment (`std::env`, `env::var`), pointer addresses (`.as_ptr()`,
//!   `as *const` / `as *mut` casts), and calls to workspace functions whose
//!   own body reads a source and returns a value (one level of call
//!   summaries — `wall_clock()` is the canonical case).
//! * **Propagation**: `let name = expr` and `name = expr` taint `name` when
//!   `expr` contains a source or an already-tainted name, and *clear* it on
//!   a clean reassignment. `recv.field = expr` taints the field name within
//!   the function. Branches are merged pessimistically (taint acquired in
//!   any branch persists).
//! * **Sinks**: engine scheduling (`schedule_at`/`schedule_in`/
//!   `schedule_now`), RNG seeding (`SimRng::new`), `Engine::new`, telemetry
//!   emission (`.emit(`), and hashing (`.hash(`). A sink call whose argument
//!   list contains a source or tainted name is a violation, reported at the
//!   sink with the origin in the message.
//!
//! The bench crate's `ignem_bench::wall_clock()` is a *checked boundary*:
//! inside `crates/bench/`, raw wall-clock reads anywhere except the
//! `wall_clock` function in `crates/bench/src/timing.rs` are violations —
//! the funnel is enforced structurally instead of via a `lint: allow`
//! string. The funnel's return value still carries taint, so a bench-side
//! wall-clock value can never flow into a simulation sink unnoticed.
//!
//! Known false negatives (documented in DESIGN.md §14): taint through
//! function *arguments* (summaries cover return values only), taint through
//! fields across function boundaries, and taint through containers
//! (`vec[i]` reads are not tracked).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{ident_at, tok_at, Tok, Token};
use crate::rules::Violation;
use crate::symbols::FileUnit;

/// The checked wall-clock boundary: (file, function) allowed to read the
/// host clock raw inside the bench crate.
pub const BENCH_BOUNDARY: (&str, &str) = ("crates/bench/src/timing.rs", "wall_clock");

/// Sink function names that schedule simulation work.
const SCHED_SINKS: &[&str] = &["schedule_at", "schedule_in", "schedule_now"];

/// One-level call summaries: names of non-test workspace functions that
/// return a value and read a taint source directly in their body.
#[derive(Debug, Default)]
pub struct Summaries {
    /// Function names whose return value is tainted.
    pub taint_returning: BTreeSet<String>,
}

/// Builds call summaries over all units.
pub fn build_summaries(units: &[FileUnit]) -> Summaries {
    let mut s = Summaries::default();
    for unit in units {
        for f in &unit.parsed.fns {
            if f.is_test || !f.has_ret {
                continue;
            }
            let Some((start, end)) = f.body else {
                continue;
            };
            let body = &unit.lexed.tokens[start..end];
            if find_direct_source(body, 0, body.len(), &BTreeSet::new()).is_some() {
                s.taint_returning.insert(f.name.clone());
            }
        }
    }
    s
}

/// Finds the first *direct* source in `toks[lo..hi]` — raw reads only, not
/// summary calls (`extra` adds summary names when the caller wants them).
/// Returns (description, line).
fn find_direct_source(
    toks: &[Token],
    lo: usize,
    hi: usize,
    extra: &BTreeSet<String>,
) -> Option<(String, u32)> {
    let mut i = lo;
    while i < hi {
        if let Some(id) = ident_at(toks, i) {
            match id {
                "Instant" | "SystemTime"
                    if tok_at(toks, i + 1) == Some(&Tok::PathSep)
                        && ident_at(toks, i + 2) == Some("now") =>
                {
                    return Some((format!("{id}::now"), toks[i].line));
                }
                "SystemTime" => return Some(("SystemTime".into(), toks[i].line)),
                "env"
                    if tok_at(toks, i + 1) == Some(&Tok::PathSep)
                        && matches!(ident_at(toks, i + 2), Some("var" | "vars" | "var_os")) =>
                {
                    return Some(("env::var".into(), toks[i].line));
                }
                "std"
                    if tok_at(toks, i + 1) == Some(&Tok::PathSep)
                        && ident_at(toks, i + 2) == Some("env") =>
                {
                    return Some(("std::env".into(), toks[i].line));
                }
                "as_ptr" | "as_mut_ptr"
                    if i > 0
                        && tok_at(toks, i - 1) == Some(&Tok::Dot)
                        && tok_at(toks, i + 1) == Some(&Tok::OpenParen) =>
                {
                    return Some((format!(".{id}()"), toks[i].line));
                }
                "as" if tok_at(toks, i + 1) == Some(&Tok::Other('*'))
                    && matches!(ident_at(toks, i + 2), Some("const" | "mut")) =>
                {
                    return Some(("pointer cast".into(), toks[i].line));
                }
                name if extra.contains(name) && tok_at(toks, i + 1) == Some(&Tok::OpenParen) => {
                    return Some((format!("{name}()"), toks[i].line));
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Whether `toks[lo..hi]` mentions a tainted name; returns its origin.
fn find_tainted_use(
    toks: &[Token],
    lo: usize,
    hi: usize,
    tainted: &BTreeMap<String, String>,
) -> Option<String> {
    for i in lo..hi {
        if let Some(id) = ident_at(toks, i) {
            if let Some(origin) = tainted.get(id) {
                return Some(origin.clone());
            }
        }
    }
    None
}

/// Returns the end (exclusive) of the balanced paren group opening at `i`.
fn paren_end(toks: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < hi {
        match tok_at(toks, j) {
            Some(Tok::OpenParen) => depth += 1,
            Some(Tok::CloseParen) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Runs D10 over one unit. `summaries` supplies taint-returning call names.
pub fn check_unit(unit: &FileUnit, summaries: &Summaries) -> Vec<Violation> {
    let mut out = Vec::new();
    let in_bench = unit.rel.starts_with("crates/bench/");
    let toks = &unit.lexed.tokens;
    for f in &unit.parsed.fns {
        if f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else {
            continue;
        };
        let is_boundary = unit.rel == BENCH_BOUNDARY.0 && f.name == BENCH_BOUNDARY.1;
        // Boundary enforcement: raw wall-clock reads in bench code outside
        // the sanctioned funnel.
        if in_bench && !is_boundary {
            let mut lo = start;
            while let Some((desc, line)) =
                find_wall_clock_read(toks, lo, end).map(|(d, l, next)| {
                    lo = next;
                    (d, l)
                })
            {
                out.push(Violation {
                    rule: "D10",
                    file: unit.rel.clone(),
                    line,
                    message: format!(
                        "raw wall-clock read `{desc}` outside the sanctioned \
                         `ignem_bench::wall_clock()` boundary; route host timing through it"
                    ),
                });
            }
        }
        // Flow pass: statement-by-statement taint tracking.
        out.extend(check_fn_flow(
            &unit.rel,
            toks,
            start,
            end,
            summaries,
            is_boundary,
        ));
    }
    out
}

/// Finds the next raw wall-clock read in `toks[lo..hi]`; returns
/// (description, line, resume index).
fn find_wall_clock_read(toks: &[Token], lo: usize, hi: usize) -> Option<(String, u32, usize)> {
    for i in lo..hi {
        if let Some(id @ ("Instant" | "SystemTime")) = ident_at(toks, i) {
            if tok_at(toks, i + 1) == Some(&Tok::PathSep) && ident_at(toks, i + 2) == Some("now") {
                return Some((format!("{id}::now"), toks[i].line, i + 3));
            }
            if id == "SystemTime" {
                return Some(("SystemTime".into(), toks[i].line, i + 1));
            }
        }
    }
    None
}

/// The per-function flow analysis.
fn check_fn_flow(
    rel: &str,
    toks: &[Token],
    start: usize,
    end: usize,
    summaries: &Summaries,
    is_boundary: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    // name → origin description.
    let mut tainted: BTreeMap<String, String> = BTreeMap::new();
    let mut stmt_start = start;
    let mut i = start;
    while i <= end {
        let at_break = i == end
            || matches!(
                tok_at(toks, i),
                Some(Tok::Other(';')) | Some(Tok::OpenBrace) | Some(Tok::CloseBrace)
            );
        if !at_break {
            i += 1;
            continue;
        }
        let (lo, hi) = (stmt_start, i);
        if hi > lo {
            analyze_stmt(
                rel,
                toks,
                lo,
                hi,
                summaries,
                is_boundary,
                &mut tainted,
                &mut out,
            );
        }
        i += 1;
        stmt_start = i;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn analyze_stmt(
    rel: &str,
    toks: &[Token],
    lo: usize,
    hi: usize,
    summaries: &Summaries,
    is_boundary: bool,
    tainted: &mut BTreeMap<String, String>,
    out: &mut Vec<Violation>,
) {
    // Sink check first: a sink call whose argument list carries taint.
    let mut k = lo;
    while k < hi {
        let sink = sink_at(toks, k, hi);
        if let Some((sink_name, args_open)) = sink {
            let args_end = paren_end(toks, args_open, hi);
            // The check window spans the statement up to the close of the
            // sink's arguments, so taint in the *receiver* of a method sink
            // (`addr.hash(state)`) counts, not just taint in the args.
            let source = if is_boundary {
                // Inside the sanctioned boundary, the raw read itself is
                // legal; only *tainted names* flowing onward would matter,
                // and the funnel has none.
                None
            } else {
                find_direct_source(toks, lo, args_end, &summaries.taint_returning)
                    .map(|(d, l)| format!("`{d}` at line {l}"))
            };
            let origin = source.or_else(|| {
                find_tainted_use(toks, lo, args_end, tainted)
                    .map(|o| format!("value tainted by {o}"))
            });
            if let Some(origin) = origin {
                out.push(Violation {
                    rule: "D10",
                    file: rel.to_string(),
                    line: toks[k].line,
                    message: format!(
                        "nondeterministic value ({origin}) flows into sink `{sink_name}`"
                    ),
                });
            }
            k = args_end;
            continue;
        }
        k += 1;
    }
    // Propagation: let-bindings, reassignments, field writes.
    let mut j = lo;
    let mut is_let = false;
    if ident_at(toks, j) == Some("let") {
        is_let = true;
        j += 1;
        if ident_at(toks, j) == Some("mut") {
            j += 1;
        }
    }
    let lhs = ident_at(toks, j).map(|s| s.to_string());
    let (lhs_name, eq_idx) = match (&lhs, is_let) {
        (Some(name), true) => {
            // `let [mut] name [: ty] = rhs` — find the top-level `=`.
            (Some(name.clone()), find_top_eq(toks, j + 1, hi))
        }
        (Some(name), false) => {
            // `name = rhs` or `recv.field = rhs`.
            let mut m = j + 1;
            let mut field = name.clone();
            while tok_at(toks, m) == Some(&Tok::Dot) && ident_at(toks, m + 1).is_some() {
                field = ident_at(toks, m + 1).unwrap_or(&field).to_string();
                m += 2;
            }
            if is_plain_eq(toks, m, hi) {
                (Some(field), Some(m))
            } else {
                (None, None)
            }
        }
        _ => (None, None),
    };
    if let (Some(name), Some(eq)) = (lhs_name, eq_idx) {
        let rhs_source = if is_boundary {
            None
        } else {
            find_direct_source(toks, eq + 1, hi, &summaries.taint_returning)
                .map(|(d, l)| format!("`{d}` at line {l}"))
        };
        let rhs_taint = rhs_source
            .or_else(|| find_tainted_use(toks, eq + 1, hi, tainted).map(|o| o.to_string()));
        match rhs_taint {
            Some(origin) => {
                tainted.insert(name, origin);
            }
            None => {
                tainted.remove(&name);
            }
        }
    }
}

/// Whether the token at `m` is a single `=` (not `==`, `!=`, `<=`, …).
fn is_plain_eq(toks: &[Token], m: usize, hi: usize) -> bool {
    if m >= hi || tok_at(toks, m) != Some(&Tok::Eq) {
        return false;
    }
    if tok_at(toks, m + 1) == Some(&Tok::Eq) {
        return false;
    }
    if m > 0 {
        if let Some(Tok::Other(c)) = tok_at(toks, m - 1) {
            if matches!(c, '!' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '|' | '^') {
                return false;
            }
        }
        if tok_at(toks, m - 1) == Some(&Tok::Eq) {
            return false;
        }
        if tok_at(toks, m - 1) == Some(&Tok::Amp) {
            return false;
        }
    }
    true
}

/// Finds the first top-level `=` in `toks[lo..hi)` (skipping generics and
/// balanced groups so `let x: Foo<T = U> = …` is not fooled; the workspace
/// has no associated-type-equality lets, but stay safe).
fn find_top_eq(toks: &[Token], lo: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    for m in lo..hi {
        match tok_at(toks, m) {
            Some(Tok::OpenParen) | Some(Tok::OpenBracket) | Some(Tok::Other('<')) => depth += 1,
            Some(Tok::CloseParen) | Some(Tok::CloseBracket) | Some(Tok::Other('>')) => depth -= 1,
            Some(Tok::Eq) if depth <= 0 && is_plain_eq(toks, m, hi) => return Some(m),
            _ => {}
        }
    }
    None
}

/// Detects a sink call at `k`; returns (sink name, index of its `(`).
fn sink_at(toks: &[Token], k: usize, hi: usize) -> Option<(String, usize)> {
    let id = ident_at(toks, k)?;
    // `.emit(` / `.hash(` method sinks.
    if k > 0
        && tok_at(toks, k - 1) == Some(&Tok::Dot)
        && matches!(id, "emit" | "hash")
        && tok_at(toks, k + 1) == Some(&Tok::OpenParen)
        && k + 1 < hi
    {
        return Some((format!(".{id}"), k + 1));
    }
    // Scheduling sinks, as methods or qualified calls.
    if SCHED_SINKS.contains(&id) && tok_at(toks, k + 1) == Some(&Tok::OpenParen) && k + 1 < hi {
        return Some((id.to_string(), k + 1));
    }
    // `SimRng::new(` / `Engine::new(` seeding sinks.
    if matches!(id, "SimRng" | "Engine")
        && tok_at(toks, k + 1) == Some(&Tok::PathSep)
        && matches!(
            ident_at(toks, k + 2),
            Some("new" | "with_seed" | "from_seed")
        )
        && tok_at(toks, k + 3) == Some(&Tok::OpenParen)
        && k + 3 < hi
    {
        return Some((
            format!("{id}::{}", ident_at(toks, k + 2).unwrap_or("new")),
            k + 3,
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn unit(rel: &str, src: &str) -> FileUnit {
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        FileUnit {
            rel: rel.to_string(),
            lexed,
            parsed,
        }
    }

    fn d10(rel: &str, src: &str) -> Vec<Violation> {
        let units = vec![unit(rel, src)];
        let summaries = build_summaries(&units);
        check_unit(&units[0], &summaries)
    }

    #[test]
    fn taint_flows_through_lets_into_scheduling() {
        let src = r#"
            fn f(engine: &mut Engine<E>) {
                let t = Instant::now();
                let delay = t;
                engine.schedule_in(delay, payload);
            }
        "#;
        let v = d10("crates/simcore/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D10");
        assert!(v[0].message.contains("schedule_in"));
    }

    #[test]
    fn clean_reassignment_clears_taint() {
        let src = r#"
            fn f(engine: &mut Engine<E>) {
                let mut t = Instant::now();
                t = fixed_delay();
                engine.schedule_in(t, payload);
            }
        "#;
        assert!(d10("crates/simcore/src/x.rs", src).is_empty());
    }

    #[test]
    fn pointer_address_into_hash_is_flagged() {
        let src = r#"
            fn f(h: &mut Hasher, buf: &[u8]) {
                let addr = buf.as_ptr();
                addr.hash(h);
            }
        "#;
        let v = d10("crates/simcore/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains(".as_ptr()"));
    }

    #[test]
    fn one_level_call_summary_taints_callers() {
        let src = r#"
            fn now_ms() -> u64 { Instant::now().elapsed().as_millis() as u64 }
            fn f(tele: &Telemetry) {
                let stamp = now_ms();
                tele.emit(stamp);
            }
        "#;
        let v = d10("crates/simcore/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("now_ms()"));
    }

    #[test]
    fn bench_raw_read_outside_boundary_is_flagged() {
        let src = "fn measure() -> Instant { Instant::now() }\n";
        let v = d10("crates/bench/src/report.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("wall_clock"));
    }

    #[test]
    fn the_boundary_fn_itself_is_clean() {
        let src = "pub fn wall_clock() -> Instant {\n    Instant::now()\n}\n";
        assert!(d10(BENCH_BOUNDARY.0, src).is_empty());
    }

    #[test]
    fn untainted_sink_arguments_are_clean() {
        let src = r#"
            fn f(engine: &mut Engine<E>) {
                let delay = SimDuration::from_ms(5);
                engine.schedule_in(delay, payload);
            }
        "#;
        assert!(d10("crates/simcore/src/x.rs", src).is_empty());
    }
}
