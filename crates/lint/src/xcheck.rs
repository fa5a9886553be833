//! X-series — cross-crate exhaustiveness checks.
//!
//! These diff enum *definitions* against their handler surfaces in other
//! crates, so a new variant cannot ship half-wired:
//!
//! | Rule | Definition | Must appear in |
//! |------|-----------|----------------|
//! | X01  | `Event` (crates/simcore/src/telemetry.rs) | an arm of the one causal fold in crates/simcore/src/span.rs |
//! | X03  | `Event` (as its snake_case `kind()` tag) | a table row in docs/TELEMETRY_SCHEMA.md |
//! | X04  | `Fault` (crates/cluster/src/world.rs) | an injector arm in crates/cluster/src/chaos.rs *and* a backticked name in DESIGN.md §6 |
//!
//! There is no X02: the explainer matches on no events (it reads the
//! evidence the span fold keeps), so X01 covers the one fold.
//!
//! Missing-handler findings anchor at the enum variant's definition line
//! (that is where the fix starts); *stale* findings — a handler arm or doc
//! row naming a variant that no longer exists — anchor at the handler/doc
//! line. Handler presence is checked by token sequence (`Enum :: Variant`),
//! not by match-arm structure, so helper functions and `if let` chains
//! count as handling; the real exhaustiveness backstop is that the handler
//! matches themselves are written without `_ =>` catch-alls, which the
//! compiler then enforces.

use std::collections::BTreeSet;

use crate::lexer::Tok;
use crate::rules::Violation;
use crate::symbols::FileUnit;

/// Where the `Event` enum is defined.
pub const EVENT_DEF: (&str, &str) = ("crates/simcore/src/telemetry.rs", "Event");
/// Where the `Fault` enum is defined.
pub const FAULT_DEF: (&str, &str) = ("crates/cluster/src/world.rs", "Fault");
/// The causal-fold surface (X01).
pub const SPAN_FILE: &str = "crates/simcore/src/span.rs";
/// The telemetry schema doc (X03).
pub const SCHEMA_DOC: &str = "docs/TELEMETRY_SCHEMA.md";
/// The chaos injector surface (X04).
pub const CHAOS_FILE: &str = "crates/cluster/src/chaos.rs";
/// The fault-table doc (X04).
pub const DESIGN_DOC: &str = "DESIGN.md";

/// A documentation file handed to the X-series (not lexed as Rust).
#[derive(Debug)]
pub struct DocFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Raw text.
    pub text: String,
}

/// Converts a CamelCase variant name to its snake_case `kind()` tag.
pub fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn find_unit<'a>(units: &'a [FileUnit], rel: &str) -> Option<&'a FileUnit> {
    units.iter().find(|u| u.rel == rel)
}

/// All `Enum :: Name` references in a unit, as (name, line) pairs.
fn enum_refs(unit: &FileUnit, enum_name: &str) -> Vec<(String, u32)> {
    let toks = &unit.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if let Tok::Ident(a) = &toks[i].tok {
            if a == enum_name && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::PathSep) {
                if let Some(Tok::Ident(b)) = toks.get(i + 2).map(|t| &t.tok) {
                    if b.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                        out.push((b.clone(), toks[i + 2].line));
                    }
                }
            }
        }
    }
    out
}

/// Backticked tokens in a markdown doc, as (text, line) pairs.
fn backticked(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let mut rest = line;
        let mut consumed = 0usize;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else {
                break;
            };
            out.push((after[..close].to_string(), (ln + 1) as u32));
            let step = open + 1 + close + 1;
            consumed += step;
            rest = &line[consumed..];
        }
    }
    out
}

/// Runs every X-series check over the units and docs.
pub fn run_xchecks(units: &[FileUnit], docs: &[DocFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    // --- Event-based checks (X01/X03) ---
    if let Some(def_unit) = find_unit(units, EVENT_DEF.0) {
        if let Some(event) = def_unit.parsed.enum_named(EVENT_DEF.1) {
            let variants: BTreeSet<&str> = event.variants.iter().map(|v| v.name.as_str()).collect();
            if let Some(span_unit) = find_unit(units, SPAN_FILE) {
                let refs = enum_refs(span_unit, EVENT_DEF.1);
                let handled: BTreeSet<&str> = refs.iter().map(|(n, _)| n.as_str()).collect();
                for v in &event.variants {
                    if !handled.contains(v.name.as_str()) {
                        out.push(Violation {
                            rule: "X01",
                            file: EVENT_DEF.0.to_string(),
                            line: v.line,
                            message: format!(
                                "`Event::{}` has no causal-fold arm in {SPAN_FILE}",
                                v.name
                            ),
                        });
                    }
                }
                let mut reported: BTreeSet<&str> = BTreeSet::new();
                for (name, line) in &refs {
                    if !variants.contains(name.as_str()) && reported.insert(name) {
                        out.push(Violation {
                            rule: "X01",
                            file: SPAN_FILE.to_string(),
                            line: *line,
                            message: format!(
                                "stale reference `Event::{name}` — no such variant in {}",
                                EVENT_DEF.0
                            ),
                        });
                    }
                }
            }
            // X03: every kind tag needs a schema-doc row; every backticked
            // snake_case tag in the doc must still be a variant.
            if let Some(doc) = docs.iter().find(|d| d.rel == SCHEMA_DOC) {
                let ticked = backticked(&doc.text);
                let doc_kinds: BTreeSet<&str> = ticked.iter().map(|(t, _)| t.as_str()).collect();
                let kinds: BTreeSet<String> =
                    event.variants.iter().map(|v| snake_case(&v.name)).collect();
                for v in &event.variants {
                    let kind = snake_case(&v.name);
                    if !doc_kinds.contains(kind.as_str()) {
                        out.push(Violation {
                            rule: "X03",
                            file: EVENT_DEF.0.to_string(),
                            line: v.line,
                            message: format!(
                                "event kind `{kind}` (`Event::{}`) has no row in {SCHEMA_DOC}",
                                v.name
                            ),
                        });
                    }
                }
                let mut reported: BTreeSet<&str> = BTreeSet::new();
                for (t, line) in &ticked {
                    let looks_like_kind = !t.is_empty()
                        && t.bytes().all(|b| b.is_ascii_lowercase() || b == b'_')
                        && t.contains('_');
                    if looks_like_kind && !kinds.contains(t.as_str()) && reported.insert(t) {
                        out.push(Violation {
                            rule: "X03",
                            file: SCHEMA_DOC.to_string(),
                            line: *line,
                            message: format!("stale schema row `{t}` — no matching Event variant"),
                        });
                    }
                }
            } else {
                out.push(Violation {
                    rule: "X03",
                    file: EVENT_DEF.0.to_string(),
                    line: event.line,
                    message: format!("{SCHEMA_DOC} is missing — every event kind needs a row"),
                });
            }
        }
    }
    // --- Fault-based checks (X04) ---
    if let Some(def_unit) = find_unit(units, FAULT_DEF.0) {
        if let Some(fault) = def_unit.parsed.enum_named(FAULT_DEF.1) {
            let variants: BTreeSet<&str> = fault.variants.iter().map(|v| v.name.as_str()).collect();
            if let Some(chaos) = find_unit(units, CHAOS_FILE) {
                let refs = enum_refs(chaos, FAULT_DEF.1);
                let handled: BTreeSet<&str> = refs.iter().map(|(n, _)| n.as_str()).collect();
                for v in &fault.variants {
                    if !handled.contains(v.name.as_str()) {
                        out.push(Violation {
                            rule: "X04",
                            file: FAULT_DEF.0.to_string(),
                            line: v.line,
                            message: format!(
                                "`Fault::{}` has no injector arm in {CHAOS_FILE}",
                                v.name
                            ),
                        });
                    }
                }
                let mut reported: BTreeSet<&str> = BTreeSet::new();
                for (name, line) in &refs {
                    if !variants.contains(name.as_str()) && reported.insert(name) {
                        out.push(Violation {
                            rule: "X04",
                            file: CHAOS_FILE.to_string(),
                            line: *line,
                            message: format!(
                                "stale reference `Fault::{name}` — no such variant in {}",
                                FAULT_DEF.0
                            ),
                        });
                    }
                }
            }
            if let Some(doc) = docs.iter().find(|d| d.rel == DESIGN_DOC) {
                // Doc rows name variants with their payload signature
                // (`NodeCrash(node, down_for)`); strip it before matching.
                let ticked: BTreeSet<String> = backticked(&doc.text)
                    .into_iter()
                    .map(|(t, _)| t.split('(').next().unwrap_or("").to_string())
                    .collect();
                for v in &fault.variants {
                    if !ticked.contains(&v.name) {
                        out.push(Violation {
                            rule: "X04",
                            file: FAULT_DEF.0.to_string(),
                            line: v.line,
                            message: format!(
                                "`Fault::{}` has no fault-table row in {DESIGN_DOC}",
                                v.name
                            ),
                        });
                    }
                }
            }
        }
    }
    out
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

    #[test]
    fn snake_case_matches_kind_tags() {
        assert_eq!(snake_case("JobSubmitted"), "job_submitted");
        assert_eq!(snake_case("RpcGaveUp"), "rpc_gave_up");
        assert_eq!(snake_case("BlockRead"), "block_read");
    }

    #[test]
    fn missing_span_arm_is_x01_at_the_variant() {
        let units = vec![
            unit(
                EVENT_DEF.0,
                "pub enum Event {\n    JobSubmitted,\n    BlockRead,\n}\n",
            ),
            unit(
                SPAN_FILE,
                "fn handle(e: &Event) { match e { Event::JobSubmitted => {} _ => {} } }\n",
            ),
        ];
        let docs = vec![DocFile {
            rel: SCHEMA_DOC.to_string(),
            text: "| `job_submitted` | x |\n| `block_read` | x |\n".into(),
        }];
        let v = run_xchecks(&units, &docs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "X01");
        assert_eq!(v[0].file, EVENT_DEF.0);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("BlockRead"));
    }

    #[test]
    fn stale_arm_is_flagged_at_the_surface() {
        let units = vec![
            unit(EVENT_DEF.0, "pub enum Event { JobSubmitted }\n"),
            unit(
                SPAN_FILE,
                "fn handle(e: &Event) { if let Event::JobSubmitted = e {}\nlet _ = Event::Removed; }\n",
            ),
        ];
        let docs = vec![DocFile {
            rel: SCHEMA_DOC.to_string(),
            text: "| `job_submitted` | x |\n".into(),
        }];
        let v = run_xchecks(&units, &docs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "X01");
        assert_eq!(v[0].file, SPAN_FILE);
        assert!(v[0].message.contains("Removed"));
    }

    #[test]
    fn schema_doc_rows_are_diffed_both_ways() {
        let units = vec![
            unit(EVENT_DEF.0, "pub enum Event { JobSubmitted, BlockRead }\n"),
            unit(
                SPAN_FILE,
                "fn h(e: &Event) { let _ = (Event::JobSubmitted, Event::BlockRead); }\n",
            ),
        ];
        let docs = vec![DocFile {
            rel: SCHEMA_DOC.to_string(),
            text: "| `job_submitted` | x |\n| `stale_kind` | gone |\n".into(),
        }];
        let v = run_xchecks(&units, &docs);
        let rules: Vec<(&str, &str)> = v.iter().map(|x| (x.rule, x.file.as_str())).collect();
        // block_read missing from doc + stale_kind no longer a variant.
        assert!(rules.contains(&("X03", EVENT_DEF.0)));
        assert!(rules.contains(&("X03", SCHEMA_DOC)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn fault_checks_cover_injector_and_design_doc() {
        let units = vec![
            unit(
                FAULT_DEF.0,
                "pub enum Fault {\n    MasterFail,\n    NodeCrash(NodeId, SimDuration),\n}\n",
            ),
            unit(CHAOS_FILE, "fn gen() -> Fault { Fault::MasterFail }\n"),
        ];
        let docs = vec![DocFile {
            rel: DESIGN_DOC.to_string(),
            text: "| `MasterFail` | kills the master |\n\
                   A doc row may carry the payload signature:\n\
                   `NodeCrash(node, down_for)` reboots after the outage.\n"
                .into(),
        }];
        let v = run_xchecks(&units, &docs);
        // NodeCrash has a doc row (payload form counts) but no injector arm.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "X04");
        assert!(v[0].message.contains("NodeCrash"));
        assert!(v[0].message.contains("injector arm"));
    }

    #[test]
    fn fully_wired_enums_are_clean() {
        let units = vec![
            unit(EVENT_DEF.0, "pub enum Event { JobSubmitted }\n"),
            unit(
                SPAN_FILE,
                "fn h(e: &Event) { let _ = Event::JobSubmitted; }\n",
            ),
            unit(FAULT_DEF.0, "pub enum Fault { MasterFail }\n"),
            unit(CHAOS_FILE, "fn g() -> Fault { Fault::MasterFail }\n"),
        ];
        let docs = vec![
            DocFile {
                rel: SCHEMA_DOC.to_string(),
                text: "| `job_submitted` | x |\n".into(),
            },
            DocFile {
                rel: DESIGN_DOC.to_string(),
                text: "`MasterFail` row\n".into(),
            },
        ];
        assert!(run_xchecks(&units, &docs).is_empty());
    }
}
