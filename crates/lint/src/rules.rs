//! The determinism rule matchers.
//!
//! Every rule works on the token stream from [`crate::lexer`] without the
//! `#[cfg(test)]` / `#[test]` items the parser found
//! ([`ParsedFile::test_ranges`](crate::parse::ParsedFile::test_ranges)):
//! test code may use wall clocks, unwraps and hash iteration freely. Rules
//! are scoped per file by [`scope_for`] — the simulation crates get the
//! determinism rules, the bench harness only the D10 flow pass, and
//! everything else (bins, the linter itself) nothing.

use crate::lexer::{ident_at, tok_at, Directive, Tok, Token};
use crate::symbols::FileUnit;

/// Crates whose code runs inside the deterministic simulation.
pub const SIM_CRATES: &[&str] = &[
    "simcore",
    "netsim",
    "storage",
    "dfs",
    "ignem",
    "compute",
    "cluster",
    "workloads",
];

/// Files on RPC/fault/migration paths where panics are banned (rule P01).
pub const P01_FILES: &[&str] = &[
    "crates/netsim/src/rpc.rs",
    "crates/ignem/src/slave.rs",
    "crates/ignem/src/master.rs",
    "crates/cluster/src/chaos.rs",
];

/// Map/set methods whose call on a hash container means iteration (D02).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `D01`, `D02`, `D03`, `P01`, `F01`, `T01`, or `A00`.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Which rules apply to a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// No wall-clock reads (`Instant::now`, `SystemTime`).
    pub d01: bool,
    /// No iteration over `HashMap`/`HashSet`.
    pub d02: bool,
    /// No `std::env`, `std::process`, or ambient randomness.
    pub d03: bool,
    /// No `unwrap`/`expect` on RPC/fault/migration paths.
    pub p01: bool,
    /// No `partial_cmp(..).unwrap()`-style float ordering.
    pub f01: bool,
    /// No `println!`/`eprintln!` in library code; output goes through
    /// telemetry sinks, bins, or the bench reporter.
    pub t01: bool,
    /// Determinism taint flow analysis (sources → sinks), plus the bench
    /// crate's structural wall-clock boundary check.
    pub d10: bool,
}

impl Scope {
    fn any(&self) -> bool {
        self.d01 || self.d02 || self.d03 || self.p01 || self.f01 || self.t01
    }
}

/// Computes the rule scope for a workspace-relative path.
pub fn scope_for(rel: &str) -> Scope {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let sim = SIM_CRATES.contains(&crate_name);
    Scope {
        // The bench harness's wall-clock reads are policed by D10's
        // structural boundary (only `timing.rs::wall_clock` may read raw),
        // so D01's blanket ban covers the simulation crates only.
        d01: sim,
        d02: sim,
        d03: sim && rel != "crates/simcore/src/rng.rs",
        p01: P01_FILES.contains(&rel),
        f01: sim,
        t01: sim,
        d10: sim || crate_name == "bench",
    }
}

/// Runs every applicable rule over one file, applying allow directives
/// and reporting malformed ones.
pub fn check_file(unit: &FileUnit) -> Vec<Violation> {
    let (rel, lexed) = (unit.rel.as_str(), &unit.lexed);
    let scope = scope_for(rel);
    let mut out = Vec::new();
    // Malformed allows are reported everywhere, even out of scope: a
    // suppression that silently fails to parse is worse than a violation.
    for d in &lexed.directives {
        if let Directive::Malformed { line, detail } = d {
            out.push(Violation {
                rule: "A00",
                file: rel.to_string(),
                line: *line,
                message: format!("malformed lint directive: {detail}"),
            });
        }
    }
    if scope.any() {
        let mut toks = Vec::with_capacity(lexed.tokens.len());
        let mut at = 0;
        for &(start, end) in &unit.parsed.test_ranges {
            toks.extend_from_slice(&lexed.tokens[at..start]);
            at = end;
        }
        toks.extend_from_slice(&lexed.tokens[at..]);
        let mut raw = Vec::new();
        if scope.d01 {
            rule_d01(rel, &toks, &mut raw);
        }
        if scope.d02 {
            rule_d02(rel, &toks, &mut raw);
        }
        if scope.d03 {
            rule_d03(rel, &toks, &mut raw);
        }
        if scope.p01 {
            rule_p01(rel, &toks, &mut raw);
        }
        if scope.f01 {
            rule_f01(rel, &toks, &mut raw);
        }
        if scope.t01 {
            rule_t01(rel, &toks, &mut raw);
        }
        crate::apply_allows(&mut raw, &lexed.directives);
        out.extend(raw);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// D01: wall-clock reads (`Instant::now`, any `SystemTime` use).
fn rule_d01(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) == Some("Instant")
            && tok_at(toks, i + 1) == Some(&Tok::PathSep)
            && ident_at(toks, i + 2) == Some("now")
        {
            out.push(Violation {
                rule: "D01",
                file: rel.to_string(),
                line: toks[i].line,
                message: "wall-clock read `Instant::now` in simulation code; use SimTime"
                    .to_string(),
            });
        }
        if ident_at(toks, i) == Some("SystemTime") {
            out.push(Violation {
                rule: "D01",
                file: rel.to_string(),
                line: toks[i].line,
                message: "wall-clock type `SystemTime` in simulation code; use SimTime".to_string(),
            });
        }
    }
}

/// D02: iteration over `HashMap`/`HashSet`.
///
/// Pass A collects names declared or initialised as hash containers (let
/// bindings, struct fields, fn params); pass B flags iteration over those
/// names, either via an iterating method call or a `for … in` loop.
///
/// Ordered containers are exempt by construction: only names bound to
/// `HashMap`/`HashSet` enter pass A, so `BTreeMap`/`BTreeSet` — and the
/// dense `ignem_simcore::idmap::{IdMap, IdSet}`, which iterate in
/// ascending key order — may be iterated freely.
fn rule_d02(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let Some(id) = ident_at(toks, i) else {
            continue;
        };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // Walk back over a `std :: collections ::` path prefix.
        let mut j = i;
        while j >= 2
            && tok_at(toks, j - 1) == Some(&Tok::PathSep)
            && ident_at(toks, j - 2).is_some()
        {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        let mut k = j - 1;
        // `name: &HashMap<..>` (fn params) — step over the reference.
        if tok_at(toks, k) == Some(&Tok::Amp) && k > 0 {
            k -= 1;
        }
        match tok_at(toks, k) {
            Some(Tok::Colon) | Some(Tok::Eq) if k > 0 => {
                if let Some(name) = ident_at(toks, k - 1) {
                    if !names.iter().any(|n| n == name) {
                        names.push(name.to_string());
                    }
                }
            }
            _ => {}
        }
    }
    for i in 0..toks.len() {
        let Some(id) = ident_at(toks, i) else {
            continue;
        };
        // `name.iter()` and friends.
        if names.iter().any(|n| n == id)
            && tok_at(toks, i + 1) == Some(&Tok::Dot)
            && matches!(ident_at(toks, i + 2), Some(m) if ITER_METHODS.contains(&m))
            && tok_at(toks, i + 3) == Some(&Tok::OpenParen)
        {
            let method = ident_at(toks, i + 2).unwrap_or("iter");
            out.push(Violation {
                rule: "D02",
                file: rel.to_string(),
                line: toks[i].line,
                message: format!(
                    "iteration `.{method}()` over hash container `{id}`; use an ordered \
                     container (IdMap/IdSet/BTreeMap/BTreeSet) or sort first"
                ),
            });
        }
        // `for pat in [&[mut]] place.chain {` where the chain's last
        // segment is a known hash container.
        if id == "in" {
            let mut k = i + 1;
            if tok_at(toks, k) == Some(&Tok::Amp) {
                k += 1;
            }
            if ident_at(toks, k) == Some("mut") {
                k += 1;
            }
            let Some(mut last) = ident_at(toks, k) else {
                continue;
            };
            k += 1;
            while tok_at(toks, k) == Some(&Tok::Dot) && ident_at(toks, k + 1).is_some() {
                last = ident_at(toks, k + 1).unwrap_or(last);
                k += 2;
            }
            if tok_at(toks, k) == Some(&Tok::OpenBrace) && names.iter().any(|n| n == last) {
                out.push(Violation {
                    rule: "D02",
                    file: rel.to_string(),
                    line: toks[i].line,
                    message: format!(
                        "`for … in` over hash container `{last}`; use an ordered container \
                         (IdMap/IdSet/BTreeMap/BTreeSet) or sort first"
                    ),
                });
            }
        }
    }
}

/// D03: ambient environment and randomness.
fn rule_d03(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) == Some("std") && tok_at(toks, i + 1) == Some(&Tok::PathSep) {
            if let Some(m @ ("env" | "process")) = ident_at(toks, i + 2) {
                out.push(Violation {
                    rule: "D03",
                    file: rel.to_string(),
                    line: toks[i].line,
                    message: format!(
                        "`std::{m}` in simulation code; configuration and process control \
                         belong in bins"
                    ),
                });
            }
        }
        if let Some(id @ ("thread_rng" | "from_entropy" | "RandomState")) = ident_at(toks, i) {
            out.push(Violation {
                rule: "D03",
                file: rel.to_string(),
                line: toks[i].line,
                message: format!("ambient randomness `{id}`; draw from simcore::rng::SimRng"),
            });
        }
    }
}

/// P01: `unwrap`/`expect` on RPC/fault/migration paths.
fn rule_p01(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if tok_at(toks, i) == Some(&Tok::Dot) {
            if let Some(m @ ("unwrap" | "expect")) = ident_at(toks, i + 1) {
                if tok_at(toks, i + 2) == Some(&Tok::OpenParen) {
                    out.push(Violation {
                        rule: "P01",
                        file: rel.to_string(),
                        line: toks[i + 1].line,
                        message: format!(
                            "`.{m}()` on a fault path; recover, return a typed error, or \
                             justify with an allow"
                        ),
                    });
                }
            }
        }
    }
}

/// F01: `partial_cmp(..)` immediately unwrapped — a NaN panic waiting in
/// ordering-sensitive code. Use `f64::total_cmp`.
fn rule_f01(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if tok_at(toks, i) == Some(&Tok::Dot)
            && ident_at(toks, i + 1) == Some("partial_cmp")
            && tok_at(toks, i + 2) == Some(&Tok::OpenParen)
        {
            // Skip the balanced argument list.
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::OpenParen => depth += 1,
                    Tok::CloseParen => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if tok_at(toks, j + 1) == Some(&Tok::Dot)
                && matches!(ident_at(toks, j + 2), Some("unwrap" | "expect"))
            {
                out.push(Violation {
                    rule: "F01",
                    file: rel.to_string(),
                    line: toks[i + 1].line,
                    message: "`partial_cmp(..).unwrap()` panics on NaN; use `f64::total_cmp`"
                        .to_string(),
                });
            }
        }
    }
}

/// T01: `println!`/`eprintln!` (and their no-newline forms) in library
/// code. Simulation output must flow through telemetry sinks or the
/// report layer so that runs stay machine-auditable and quiet by
/// default; ad-hoc prints are debugging residue.
fn rule_t01(rel: &str, toks: &[Token], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if let Some(m @ ("println" | "eprintln" | "print" | "eprint")) = ident_at(toks, i) {
            if tok_at(toks, i + 1) == Some(&Tok::Other('!')) {
                out.push(Violation {
                    rule: "T01",
                    file: rel.to_string(),
                    line: toks[i].line,
                    message: format!(
                        "`{m}!` in library code; emit through a telemetry sink or \
                         return data for the report layer to print"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        check_file(&crate::load_unit(rel, src))
    }

    #[test]
    fn scope_routing() {
        assert!(scope_for("crates/simcore/src/event.rs").d01);
        assert!(!scope_for("crates/simcore/src/rng.rs").d03);
        assert!(scope_for("crates/ignem/src/master.rs").p01);
        assert!(!scope_for("crates/ignem/src/namenode.rs").p01);
        // Bench wall-clock discipline moved from D01 to the D10 boundary.
        assert!(!scope_for("crates/bench/benches/substrates.rs").d01);
        assert!(scope_for("crates/bench/benches/substrates.rs").d10);
        assert!(scope_for("crates/bench/src/timing.rs").d10);
        assert!(scope_for("crates/simcore/src/event.rs").d10);
        assert!(!scope_for("crates/bench/src/report.rs").d02);
        assert!(!scope_for("crates/lint/src/lib.rs").any());
        assert!(!scope_for("crates/lint/src/lib.rs").d10);
        assert!(scope_for("crates/cluster/src/world.rs").t01);
        assert!(scope_for("crates/simcore/src/trace.rs").t01);
        assert!(!scope_for("crates/bench/src/report.rs").t01);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(run("crates/ignem/src/master.rs", src).is_empty());
        // Each test item is skipped to its own end, and the item after it
        // is still linted. A `#[cfg(test)]` struct field is not an item:
        // the struct and everything after it are linted.
        let d01 = |src: &str| -> Vec<u32> {
            run("crates/simcore/src/fake.rs", src)
                .iter()
                .map(|v| v.line)
                .collect()
        };
        let after = "\nfn f() { let t = Instant::now(); }\n";
        for test_item in [
            "struct S { #[cfg(test)] probe: u32, x: u32 }",
            "#[cfg(test)]\nuse std::time::Instant;",
            "#[cfg(test)]\nimpl S { fn now() -> u64 { Instant::now(); 0 } }",
            "#[test]\nfn timed() { let t = Instant::now(); }",
            "#[cfg(test)]\npub(crate) fn helper() { let t = Instant::now(); }",
        ] {
            let line = test_item.lines().count() as u32 + 1;
            assert_eq!(d01(&format!("{test_item}{after}")), [line], "{test_item}");
        }
    }

    #[test]
    fn trailing_and_preceding_allows_suppress() {
        let src = "fn f() {\n\
                   let t = Instant::now(); // lint: allow(D01, reason = \"why\")\n\
                   // lint: allow(D01, reason = \"why\")\n\
                   let u = Instant::now();\n\
                   }\n";
        assert!(run("crates/simcore/src/time.rs", src).is_empty());
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "// lint: allow(P01, reason = \"why\")\nlet t = Instant::now();\n";
        let v = run("crates/simcore/src/time.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D01");
    }

    #[test]
    fn ord_boilerplate_is_not_f01() {
        let src = "impl PartialOrd for E {\n\
                   fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n\
                   Some(self.cmp(other))\n\
                   }\n\
                   }\n";
        assert!(run("crates/simcore/src/event.rs", src).is_empty());
    }
}
