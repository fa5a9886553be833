//! # ignem-analyze — the workspace's static analysis pass
//!
//! Bit-identical same-seed replay is the repository's core invariant, and
//! it dies by a thousand small cuts: a wall-clock read here, a `HashMap`
//! iteration there, an `unwrap()` that turns a survivable fault into a
//! panic, a new telemetry variant whose span arm nobody wrote. This crate
//! enforces the code patterns determinism depends on with a from-scratch
//! lexer, an item-level parser, a workspace symbol table and call graph —
//! no `syn`, no external dependencies, in keeping with the workspace's
//! offline-build policy.
//!
//! Three layers:
//!
//! 1. **Token rules** ([`rules`]) — the original per-line matchers:
//!    D01 wall-clock, D02 hash iteration, D03 ambient env, P01 fault-path
//!    panics (file-scoped), F01 NaN ordering, T01 library prints, A00
//!    malformed directives.
//! 2. **Flow analysis** ([`taint`]) — D10 determinism taint: wall-clock /
//!    ambient-env / pointer-address sources propagate through lets, field
//!    writes and one level of calls; Engine scheduling, RNG seeding,
//!    telemetry emission and hashing are sinks. The bench crate's
//!    `wall_clock()` funnel is a structurally checked boundary.
//! 3. **Workspace analysis** ([`xcheck`], [`reach`]) — X01, X03 and X04
//!    cross-crate exhaustiveness (every `Event` variant wired through the
//!    causal fold and the schema doc; every `Fault` variant through the
//!    chaos injector and DESIGN.md), P02 interprocedural panic
//!    reachability and Q01 unbounded growth on fault paths, both over the
//!    call graph from a fault/recovery entry-point registry.
//!
//! A violation is suppressed only by `// lint: allow(<rule>, reason =
//! "...")` with a non-empty reason, placed on the violating line or the
//! line directly above. Test code (`#[cfg(test)]` / `#[test]` items) is
//! exempt from every rule. CI gates on [`baseline_diff`] against the
//! committed `ANALYZE_BASELINE.json` — new findings fail the build, and so
//! do stale baseline entries that no longer fire (the baseline can only
//! shrink together with the source that justified it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod symbols;
pub mod taint;
pub mod xcheck;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{scope_for, Violation, P01_FILES, SIM_CRATES};
pub use sarif::to_sarif;
pub use symbols::FileUnit;
pub use xcheck::DocFile;

use lexer::Directive;

/// The full result of analyzing a tree.
#[derive(Debug)]
pub struct LintReport {
    /// All violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"files_scanned\":");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\"violation_count\":");
        s.push_str(&self.violations.len().to_string());
        s.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rule\":\"");
            s.push_str(v.rule);
            s.push_str("\",\"file\":\"");
            json_escape_into(&v.file, &mut s);
            s.push_str("\",\"line\":");
            s.push_str(&v.line.to_string());
            s.push_str(",\"message\":\"");
            json_escape_into(&v.message, &mut s);
            s.push_str("\"}");
        }
        s.push_str("]}");
        s
    }

    /// Restricts the report to violations in `files` (workspace-relative
    /// paths). Analysis always runs over the whole workspace — cross-crate
    /// passes need global context — and `--changed` only narrows what is
    /// *reported*, so a filtered run flags exactly what a full run flags on
    /// those files.
    pub fn filter_to_files(&self, files: &BTreeSet<String>) -> LintReport {
        LintReport {
            violations: self
                .violations
                .iter()
                .filter(|v| files.contains(&v.file))
                .cloned()
                .collect(),
            files_scanned: self.files_scanned,
        }
    }

    /// Renders the report as a baseline file (rule/file/line triples).
    pub fn to_baseline_json(&self) -> String {
        let mut s = String::from("{\"entries\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n  {\"rule\":\"");
            s.push_str(v.rule);
            s.push_str("\",\"file\":\"");
            json_escape_into(&v.file, &mut s);
            s.push_str("\",\"line\":");
            s.push_str(&v.line.to_string());
            s.push('}');
        }
        if !self.violations.is_empty() {
            s.push('\n');
        }
        s.push_str("]}\n");
        s
    }
}

/// Appends `src` to `out` as the body of a JSON string literal.
pub(crate) fn json_escape_into(src: &str, out: &mut String) {
    for c in src.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Lints a single source string as if it lived at `rel` (workspace-relative
/// path with `/` separators) — token rules plus the D10 flow pass, which is
/// the per-file subset of the analysis. The fixture tests drive this.
pub fn lint_source(rel: &str, source: &str) -> Vec<Violation> {
    let unit = load_unit(rel, source);
    let mut out = rules::check_file(rel, &unit.lexed);
    if scope_for(rel).d10 {
        let units = [unit];
        let summaries = taint::build_summaries(&units);
        let mut flow = taint::check_unit(&units[0], &summaries);
        apply_allows(&mut flow, &units[0].lexed.directives);
        out.extend(flow);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Builds a [`FileUnit`] from one source string.
pub fn load_unit(rel: &str, source: &str) -> FileUnit {
    let lexed = lexer::lex(source);
    let parsed = parse::parse(&lexed.tokens);
    FileUnit {
        rel: rel.to_string(),
        lexed,
        parsed,
    }
}

/// Whether an allow directive for `v`'s rule sits on its line (trailing
/// comment) or the line directly above (comment above).
fn is_allowed(v: &Violation, directives: &[Directive]) -> bool {
    directives.iter().any(|d| match d {
        Directive::Allow { line, rule, .. } => {
            rule == v.rule && (*line == v.line || *line + 1 == v.line)
        }
        Directive::Malformed { .. } => false,
    })
}

/// Removes violations suppressed by an allow directive on the same line or
/// the line directly above.
pub fn apply_allows(violations: &mut Vec<Violation>, directives: &[Directive]) {
    violations.retain(|v| !is_allowed(v, directives));
}

/// The workspace root, derived from this crate's manifest dir at compile
/// time (no runtime environment reads needed).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Collects the `.rs` files to analyze under `root`, as (relative path,
/// absolute path) pairs in sorted order.
///
/// Scanned: `crates/*/src/**` and `crates/*/benches/**`. Skipped:
/// integration `tests/` trees, fixture directories, `src/bin` binaries
/// (bins legitimately own `std::env`/`std::process`), and build output.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        for sub in ["src", "benches"] {
            let tree = dir.join(sub);
            if tree.is_dir() {
                walk(&tree, root, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if matches!(name.as_str(), "bin" | "tests" | "fixtures" | "target") {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Loads and parses every workspace file into units.
pub fn load_units(root: &Path) -> io::Result<Vec<FileUnit>> {
    let files = workspace_files(root)?;
    let mut units = Vec::with_capacity(files.len());
    for (rel, path) in files {
        let source = fs::read_to_string(&path)?;
        units.push(load_unit(&rel, &source));
    }
    Ok(units)
}

/// Loads the documentation files the X-series diffs against. Missing files
/// are simply absent from the list (xcheck reports the schema doc's absence
/// itself; DESIGN.md always exists in a checkout).
pub fn load_docs(root: &Path) -> Vec<DocFile> {
    let mut docs = Vec::new();
    for rel in [xcheck::SCHEMA_DOC, xcheck::DESIGN_DOC] {
        if let Ok(text) = fs::read_to_string(root.join(rel)) {
            docs.push(DocFile {
                rel: rel.to_string(),
                text,
            });
        }
    }
    docs
}

/// Runs the workspace-level passes (D10, X-series, P02/Q01) over
/// already-loaded units and docs, with allow filtering applied. Token
/// rules are *not* included — [`run_analysis`] combines both.
pub fn analyze_units(units: &[FileUnit], docs: &[DocFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let summaries = taint::build_summaries(units);
    for unit in units {
        if scope_for(&unit.rel).d10 {
            out.extend(taint::check_unit(unit, &summaries));
        }
    }
    out.extend(xcheck::run_xchecks(units, docs));
    let syms = symbols::build_symbols(units);
    let graph = symbols::build_call_graph(units, &syms);
    out.extend(reach::run_reach(units, &syms, &graph));
    // Allow filtering, per the file each violation anchors in.
    out.retain(|v| {
        !units
            .iter()
            .find(|u| u.rel == v.file)
            .is_some_and(|u| is_allowed(v, &u.lexed.directives))
    });
    out
}

/// Analyzes the whole workspace under `root`: token rules + flow +
/// workspace passes.
pub fn run_analysis(root: &Path) -> io::Result<LintReport> {
    let units = load_units(root)?;
    let docs = load_docs(root);
    let mut violations = Vec::new();
    for unit in &units {
        violations.extend(rules::check_file(&unit.rel, &unit.lexed));
    }
    violations.extend(analyze_units(&units, &docs));
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintReport {
        violations,
        files_scanned: units.len(),
    })
}

/// One accepted finding in the committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// The two failure directions of a baseline comparison.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Findings not covered by the baseline — regressions; fail the build.
    pub new: Vec<Violation>,
    /// Baseline entries that no longer fire — a stale baseline; fail the
    /// build so the file shrinks together with the fix that earned it.
    pub stale: Vec<BaselineEntry>,
}

impl BaselineDiff {
    /// Whether the report matches the baseline exactly.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Parses the baseline file format written by
/// [`LintReport::to_baseline_json`]. The parser is deliberately small — it
/// accepts exactly the shape this tool writes (an `entries` array of
/// `{"rule","file","line"}` objects, any whitespace).
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    let mut rest = text;
    if !rest.contains("\"entries\"") {
        return Err("baseline missing \"entries\" key".to_string());
    }
    while let Some(pos) = rest.find("{\"rule\":\"") {
        rest = &rest[pos + 9..];
        let Some(q) = rest.find('"') else {
            return Err("unterminated rule string".to_string());
        };
        let rule = rest[..q].to_string();
        rest = &rest[q..];
        let Some(pos) = rest.find("\"file\":\"") else {
            return Err(format!("entry for rule {rule} missing \"file\""));
        };
        rest = &rest[pos + 8..];
        let Some(q) = find_string_end(rest) else {
            return Err("unterminated file string".to_string());
        };
        let file = unescape(&rest[..q]);
        rest = &rest[q..];
        let Some(pos) = rest.find("\"line\":") else {
            return Err(format!("entry for {file} missing \"line\""));
        };
        rest = &rest[pos + 7..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let line: u32 = digits
            .parse()
            .map_err(|_| format!("bad line number in entry for {file}"))?;
        rest = &rest[digits.len()..];
        entries.push(BaselineEntry { rule, file, line });
    }
    Ok(entries)
}

fn find_string_end(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(n) = chars.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Compares a report against the committed baseline.
///
/// Matching is by (rule, file) with a line *tolerance* of zero — baselines
/// pin exact lines, so unrelated edits that move an accepted finding force
/// a deliberate baseline refresh. That is intended: the baseline should
/// stay empty, and any entry in it should hurt a little.
pub fn baseline_diff(report: &LintReport, baseline: &[BaselineEntry]) -> BaselineDiff {
    let mut diff = BaselineDiff::default();
    for v in &report.violations {
        let covered = baseline
            .iter()
            .any(|b| b.rule == v.rule && b.file == v.file && b.line == v.line);
        if !covered {
            diff.new.push(v.clone());
        }
    }
    for b in baseline {
        let fires = report
            .violations
            .iter()
            .any(|v| v.rule == b.rule && v.file == b.file && v.line == b.line);
        if !fires {
            diff.stale.push(b.clone());
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip_and_diff() {
        let report = LintReport {
            violations: vec![
                Violation {
                    rule: "D10",
                    file: "crates/x/src/a.rs".into(),
                    line: 3,
                    message: "m".into(),
                },
                Violation {
                    rule: "P02",
                    file: "crates/y/src/b.rs".into(),
                    line: 9,
                    message: "n".into(),
                },
            ],
            files_scanned: 2,
        };
        let text = report.to_baseline_json();
        let parsed = parse_baseline(&text).expect("parses");
        assert_eq!(parsed.len(), 2);
        let diff = baseline_diff(&report, &parsed);
        assert!(diff.is_clean());
        // Drop one entry → that finding is new; add a bogus one → stale.
        let mut edited = parsed.clone();
        edited.remove(0);
        edited.push(BaselineEntry {
            rule: "Q01".into(),
            file: "crates/z/src/c.rs".into(),
            line: 1,
        });
        let diff = baseline_diff(&report, &edited);
        assert_eq!(diff.new.len(), 1);
        assert_eq!(diff.new[0].rule, "D10");
        assert_eq!(diff.stale.len(), 1);
        assert_eq!(diff.stale[0].rule, "Q01");
    }

    #[test]
    fn empty_baseline_parses() {
        let parsed = parse_baseline("{\"entries\":[]}\n").expect("parses");
        assert!(parsed.is_empty());
    }

    #[test]
    fn filter_to_files_narrows_reporting_only() {
        let report = LintReport {
            violations: vec![
                Violation {
                    rule: "D10",
                    file: "crates/x/src/a.rs".into(),
                    line: 3,
                    message: "m".into(),
                },
                Violation {
                    rule: "P02",
                    file: "crates/y/src/b.rs".into(),
                    line: 9,
                    message: "n".into(),
                },
            ],
            files_scanned: 2,
        };
        let only: BTreeSet<String> = ["crates/x/src/a.rs".to_string()].into_iter().collect();
        let narrowed = report.filter_to_files(&only);
        assert_eq!(narrowed.violations.len(), 1);
        assert_eq!(narrowed.violations[0].rule, "D10");
        assert_eq!(narrowed.files_scanned, 2);
    }
}
