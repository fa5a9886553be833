//! Fixture-driven tests: one violating and one clean fixture per rule,
//! plus a malformed allow. Fixtures live under `tests/fixtures/` (which
//! the workspace scan skips) and are linted under synthetic in-scope
//! paths, so the expectations here pin both the matchers and the scoping.

use std::fs;
use std::path::Path;

use ignem_lint::lint_source;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as if it lived at `rel`, returning (rule, line) pairs.
fn hits(name: &str, rel: &str) -> Vec<(String, u32)> {
    lint_source(rel, &fixture(name))
        .into_iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect()
}

#[test]
fn d01_violations_are_found() {
    assert_eq!(
        hits("d01_violate.rs", "crates/simcore/src/fake.rs"),
        vec![("D01".into(), 3), ("D01".into(), 6), ("D01".into(), 7)]
    );
}

#[test]
fn d01_clean_with_allow_passes() {
    assert_eq!(hits("d01_clean.rs", "crates/simcore/src/fake.rs"), vec![]);
}

#[test]
fn d02_violations_are_found() {
    assert_eq!(
        hits("d02_violate.rs", "crates/cluster/src/fake.rs"),
        vec![("D02".into(), 10), ("D02".into(), 14)]
    );
}

#[test]
fn d02_clean_with_point_lookups_and_allow_passes() {
    assert_eq!(hits("d02_clean.rs", "crates/cluster/src/fake.rs"), vec![]);
}

#[test]
fn d03_violations_are_found() {
    assert_eq!(
        hits("d03_violate.rs", "crates/dfs/src/fake.rs"),
        vec![("D03".into(), 3), ("D03".into(), 6)]
    );
}

#[test]
fn d03_clean_passes_and_rng_module_is_exempt() {
    assert_eq!(hits("d03_clean.rs", "crates/dfs/src/fake.rs"), vec![]);
    // The same violating source is fine inside the sanctioned RNG module
    // and inside a non-sim crate.
    assert_eq!(hits("d03_violate.rs", "crates/simcore/src/rng.rs"), vec![]);
    assert_eq!(hits("d03_violate.rs", "crates/lint/src/fake.rs"), vec![]);
}

#[test]
fn p01_violations_are_found_only_on_fault_paths() {
    assert_eq!(
        hits("p01_violate.rs", "crates/netsim/src/rpc.rs"),
        vec![("P01".into(), 3), ("P01".into(), 6)]
    );
    // The same unwraps outside the named fault-path files are not P01.
    assert_eq!(hits("p01_violate.rs", "crates/netsim/src/fake.rs"), vec![]);
}

#[test]
fn p01_clean_with_recovery_allow_and_test_code_passes() {
    assert_eq!(hits("p01_clean.rs", "crates/ignem/src/slave.rs"), vec![]);
}

#[test]
fn f01_violations_are_found() {
    assert_eq!(
        hits("f01_violate.rs", "crates/workloads/src/fake.rs"),
        vec![("F01".into(), 3), ("F01".into(), 6)]
    );
}

#[test]
fn f01_clean_total_cmp_and_ord_boilerplate_pass() {
    assert_eq!(hits("f01_clean.rs", "crates/workloads/src/fake.rs"), vec![]);
}

#[test]
fn t01_violations_are_found() {
    let expected: Vec<(String, u32)> = vec![
        ("T01".into(), 3),
        ("T01".into(), 6),
        ("T01".into(), 7),
        ("T01".into(), 8),
    ];
    assert_eq!(
        hits("t01_violate.rs", "crates/cluster/src/fake.rs"),
        expected
    );
    // Every simulation file is in scope, `simcore/src/trace.rs` included;
    // non-sim crates are not.
    assert_eq!(
        hits("t01_violate.rs", "crates/simcore/src/trace.rs"),
        expected
    );
    assert_eq!(hits("t01_violate.rs", "crates/bench/src/report.rs"), vec![]);
}

#[test]
fn t01_clean_with_allow_and_test_code_passes() {
    assert_eq!(hits("t01_clean.rs", "crates/cluster/src/fake.rs"), vec![]);
}

#[test]
fn empty_reason_reports_a00_and_does_not_suppress() {
    assert_eq!(
        hits("a00_bad_allow.rs", "crates/simcore/src/fake.rs"),
        vec![("A00".into(), 4), ("D01".into(), 5)]
    );
}

#[test]
fn json_report_round_trips_the_violations() {
    let report = ignem_lint::LintReport {
        violations: lint_source("crates/simcore/src/fake.rs", &fixture("d01_violate.rs")),
        files_scanned: 1,
    };
    let json = report.to_json();
    assert!(json.contains("\"violation_count\":3"));
    assert!(json.contains("\"rule\":\"D01\""));
    assert!(json.contains("\"file\":\"crates/simcore/src/fake.rs\""));
    assert!(json.contains("\"line\":3"));
}

// --- ignem-analyze parser-pass fixtures (D10, P02, Q01, X-series) ---

/// Like `hits`, but keeps only one rule's findings (token rules such as
/// D01 fire on the same fixtures and are pinned by their own tests).
fn rule_hits(name: &str, rel: &str, rule: &str) -> Vec<u32> {
    hits(name, rel)
        .into_iter()
        .filter(|(r, _)| r == rule)
        .map(|(_, l)| l)
        .collect()
}

/// Runs the cross-file analysis passes over fixture units + inline docs,
/// returning (rule, file, line) triples sorted for stable comparison.
fn analysis_hits(files: &[(&str, &str)], docs: &[(&str, &str)]) -> Vec<(String, String, u32)> {
    let units: Vec<ignem_lint::FileUnit> = files
        .iter()
        .map(|(rel, name)| ignem_lint::load_unit(rel, &fixture(name)))
        .collect();
    let docs: Vec<ignem_lint::DocFile> = docs
        .iter()
        .map(|(rel, text)| ignem_lint::DocFile {
            rel: (*rel).to_string(),
            text: (*text).to_string(),
        })
        .collect();
    let mut out: Vec<(String, String, u32)> = ignem_lint::analyze_units(&units, &docs)
        .into_iter()
        .map(|v| (v.rule.to_string(), v.file, v.line))
        .collect();
    out.sort();
    out
}

#[test]
fn d10_taint_reaches_all_three_sink_classes() {
    assert_eq!(
        rule_hits("d10_violate.rs", "crates/simcore/src/fake.rs", "D10"),
        vec![8, 14, 19]
    );
}

#[test]
fn d10_sim_time_and_cleared_taint_are_clean() {
    assert_eq!(
        rule_hits("d10_clean.rs", "crates/simcore/src/fake.rs", "D10"),
        Vec::<u32>::new()
    );
}

#[test]
fn d10_allow_suppresses_the_sink() {
    assert_eq!(
        rule_hits("d10_allow.rs", "crates/simcore/src/fake.rs", "D10"),
        Vec::<u32>::new()
    );
}

#[test]
fn p02_panics_on_fault_paths_are_found() {
    let world = "crates/cluster/src/world.rs";
    assert_eq!(
        analysis_hits(&[(world, "p02_violate.rs")], &[]),
        vec![
            ("P02".into(), world.into(), 14),
            ("P02".into(), world.into(), 16),
        ]
    );
}

#[test]
fn p02_recovery_and_unreachable_panics_are_clean() {
    assert_eq!(
        analysis_hits(&[("crates/cluster/src/world.rs", "p02_clean.rs")], &[]),
        vec![]
    );
}

#[test]
fn p02_allow_suppresses_reachable_panics() {
    assert_eq!(
        analysis_hits(&[("crates/cluster/src/world.rs", "p02_allow.rs")], &[]),
        vec![]
    );
}

#[test]
fn q01_fault_path_growth_without_drain_is_found() {
    let world = "crates/cluster/src/world.rs";
    assert_eq!(
        analysis_hits(&[(world, "q01_violate.rs")], &[]),
        vec![("Q01".into(), world.into(), 10)]
    );
}

#[test]
fn q01_drained_field_is_clean() {
    assert_eq!(
        analysis_hits(&[("crates/cluster/src/world.rs", "q01_clean.rs")], &[]),
        vec![]
    );
}

#[test]
fn q01_allow_suppresses_the_growth() {
    assert_eq!(
        analysis_hits(&[("crates/cluster/src/world.rs", "q01_allow.rs")], &[]),
        vec![]
    );
}

#[test]
fn x_series_flags_unwired_variants_everywhere() {
    let telemetry = "crates/simcore/src/telemetry.rs";
    let world = "crates/cluster/src/world.rs";
    let got = analysis_hits(
        &[
            (telemetry, "x_event_violate.rs"),
            ("crates/simcore/src/span.rs", "x_span_partial.rs"),
            (world, "x_fault_violate.rs"),
            ("crates/cluster/src/chaos.rs", "x_chaos_partial.rs"),
        ],
        &[
            ("docs/TELEMETRY_SCHEMA.md", "| `covered` | x |\n"),
            ("DESIGN.md", "* `Wired` — handled.\n"),
        ],
    );
    assert_eq!(
        got,
        vec![
            ("X01".into(), telemetry.into(), 6),
            ("X03".into(), telemetry.into(), 6),
            ("X04".into(), world.into(), 6),
            ("X04".into(), world.into(), 6),
        ]
    );
}

#[test]
fn x_series_fully_wired_fixture_is_clean() {
    assert_eq!(
        analysis_hits(
            &[
                ("crates/simcore/src/telemetry.rs", "x_event_clean.rs"),
                ("crates/simcore/src/span.rs", "x_span_partial.rs"),
            ],
            &[("docs/TELEMETRY_SCHEMA.md", "| `covered` | x |\n")],
        ),
        vec![]
    );
}

#[test]
fn x01_allow_on_the_variant_line_suppresses() {
    assert_eq!(
        analysis_hits(
            &[
                ("crates/simcore/src/telemetry.rs", "x_event_allow.rs"),
                ("crates/simcore/src/span.rs", "x_span_partial.rs"),
            ],
            &[(
                "docs/TELEMETRY_SCHEMA.md",
                "| `covered` | x |\n| `missing` | x |\n",
            )],
        ),
        vec![]
    );
}
