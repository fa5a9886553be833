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
//! line directly above. Test code (`#[cfg(test)]` / `#[test]` items, as
//! the [`parse`] pass marks them) is exempt from every rule. The gate is a
//! clean report: the `ignem-lint` binary exits nonzero on any finding, and
//! the `self_check` test asserts [`LintReport::is_clean`] on the workspace.

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
    let mut out = rules::check_file(&unit);
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
        violations.extend(rules::check_file(unit));
    }
    violations.extend(analyze_units(&units, &docs));
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintReport {
        violations,
        files_scanned: units.len(),
    })
}
