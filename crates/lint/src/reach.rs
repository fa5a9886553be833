//! P02 / Q01 — interprocedural checks on fault and recovery paths.
//!
//! Both passes walk the call graph from a registry of fault/recovery entry
//! points (fault injection, node failure, restart and re-registration
//! machinery) with a BFS bounded at three call edges — deep enough to cover
//! the helpers those paths lean on, shallow enough that the name-based
//! over-approximation does not drag in the whole workspace.
//!
//! * **P02 (panic reachability)**: flags `.unwrap()` / `.expect(…)`,
//!   `panic!` / `unreachable!` / `todo!` / `unimplemented!`, and indexing
//!   into map-typed fields (`self.tasks[&id]` — panics on a missing key)
//!   inside any reached function. Panics inside `assert!`-family macros are
//!   exempt: an assert *is* the recovery contract. The finding message
//!   carries the call chain from the entry point.
//! * **Q01 (unbounded growth)**: flags `recv.field.push(…)` / `.extend(…)`
//!   in a reached function when the defining file shows no draining
//!   operation (`pop`/`remove`/`clear`/`drain`/`truncate`/`retain`/
//!   `dedup`/`swap_remove`/`split_off`/`take`) or reassignment of that
//!   field anywhere — growth on a fault path with no visible cap.

use crate::lexer::{ident_at, tok_at, Tok, Token};
use crate::rules::Violation;
use crate::symbols::{reachable, CallGraph, FileUnit, FnKey, Symbols};

/// Fault/recovery entry points: (file, function name).
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/cluster/src/world.rs", "on_inject"),
    ("crates/cluster/src/world.rs", "fail_node"),
    ("crates/cluster/src/world.rs", "kill_plan"),
    ("crates/cluster/src/world.rs", "on_node_restart"),
    ("crates/cluster/src/world.rs", "send_register"),
    ("crates/cluster/src/world.rs", "on_register_retry"),
    ("crates/cluster/src/world.rs", "on_deliver_register"),
    ("crates/cluster/src/world.rs", "on_disk_restore"),
    ("crates/cluster/src/world.rs", "on_node_resume"),
    ("crates/cluster/src/world.rs", "on_partition_heal"),
    ("crates/ignem/src/slave.rs", "fail"),
    ("crates/ignem/src/slave.rs", "on_master_failed"),
    ("crates/ignem/src/slave.rs", "restart"),
    ("crates/ignem/src/master.rs", "fail"),
    ("crates/ignem/src/master.rs", "handle_register"),
];

/// How many call edges the BFS follows from an entry point.
pub const MAX_DEPTH: usize = 3;

const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

const DRAIN_METHODS: &[&str] = &[
    "pop",
    "remove",
    "clear",
    "drain",
    "truncate",
    "retain",
    "dedup",
    "swap_remove",
    "split_off",
    "take",
];

/// Resolves the entry-point registry against the parsed workspace.
pub fn resolve_entries(units: &[FileUnit]) -> Vec<FnKey> {
    let mut out = Vec::new();
    for (ui, unit) in units.iter().enumerate() {
        for &(file, name) in ENTRY_POINTS {
            if unit.rel != file {
                continue;
            }
            for (fi, f) in unit.parsed.fns.iter().enumerate() {
                if f.name == name && !f.is_test {
                    out.push((ui, fi));
                }
            }
        }
    }
    out
}

/// Runs P02 and Q01 over the workspace.
pub fn run_reach(units: &[FileUnit], syms: &Symbols, graph: &CallGraph) -> Vec<Violation> {
    let entries = resolve_entries(units);
    let chains = reachable(graph, units, &entries, MAX_DEPTH);
    let mut out = Vec::new();
    for (&(ui, fi), chain) in &chains {
        let unit = &units[ui];
        let f = &unit.parsed.fns[fi];
        let Some((start, end)) = f.body else {
            continue;
        };
        let via = chain.join(" → ");
        check_panics(unit, start, end, &via, syms, &mut out);
        check_growth(unit, start, end, &via, &mut out);
    }
    out
}

/// P02 over one function body.
fn check_panics(
    unit: &FileUnit,
    start: usize,
    end: usize,
    via: &str,
    syms: &Symbols,
    out: &mut Vec<Violation>,
) {
    let toks = &unit.lexed.tokens;
    let mut i = start;
    while i < end {
        // Skip assert-family macro bodies wholesale.
        if let Some(id) = ident_at(toks, i) {
            if ASSERT_MACROS.contains(&id)
                && tok_at(toks, i + 1) == Some(&Tok::Other('!'))
                && tok_at(toks, i + 2) == Some(&Tok::OpenParen)
            {
                let mut depth = 0i32;
                let mut j = i + 2;
                while j < end {
                    match tok_at(toks, j) {
                        Some(Tok::OpenParen) => depth += 1,
                        Some(Tok::CloseParen) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            if PANIC_MACROS.contains(&id) && tok_at(toks, i + 1) == Some(&Tok::Other('!')) {
                out.push(Violation {
                    rule: "P02",
                    file: unit.rel.clone(),
                    line: toks[i].line,
                    message: format!(
                        "`{id}!` reachable from a fault path ({via}); recover or justify \
                         with an allow"
                    ),
                });
                i += 2;
                continue;
            }
        }
        if tok_at(toks, i) == Some(&Tok::Dot) {
            if let Some(m @ ("unwrap" | "expect")) = ident_at(toks, i + 1) {
                if tok_at(toks, i + 2) == Some(&Tok::OpenParen) {
                    out.push(Violation {
                        rule: "P02",
                        file: unit.rel.clone(),
                        line: toks[i + 1].line,
                        message: format!(
                            "`.{m}()` reachable from a fault path ({via}); recover or \
                             return a typed error"
                        ),
                    });
                }
            }
            // `recv.field[key]` indexing into a map-typed field.
            if let Some(field) = ident_at(toks, i + 1) {
                if syms.map_fields.contains(field)
                    && tok_at(toks, i + 2) == Some(&Tok::OpenBracket)
                    && !index_is_literal(toks, i + 2, end)
                {
                    out.push(Violation {
                        rule: "P02",
                        file: unit.rel.clone(),
                        line: toks[i + 1].line,
                        message: format!(
                            "indexing map field `{field}` panics on a missing key, reachable \
                             from a fault path ({via}); use `.get()` and recover"
                        ),
                    });
                }
            }
        }
        i += 1;
    }
}

/// Whether the bracket group opening at `open` holds a single literal
/// (`v[0]` — a fixed slot, not a key lookup).
fn index_is_literal(toks: &[Token], open: usize, end: usize) -> bool {
    tok_at(toks, open + 1) == Some(&Tok::Literal)
        && open + 2 < end
        && tok_at(toks, open + 2) == Some(&Tok::CloseBracket)
}

/// Q01 over one function body.
fn check_growth(unit: &FileUnit, start: usize, end: usize, via: &str, out: &mut Vec<Violation>) {
    let toks = &unit.lexed.tokens;
    for i in start..end {
        // `recv.field.push(` / `recv.field.extend(`.
        if tok_at(toks, i) != Some(&Tok::Dot) {
            continue;
        }
        let Some(field) = ident_at(toks, i + 1) else {
            continue;
        };
        if tok_at(toks, i + 2) != Some(&Tok::Dot) {
            continue;
        }
        let Some(method @ ("push" | "extend")) = ident_at(toks, i + 3) else {
            continue;
        };
        if tok_at(toks, i + 4) != Some(&Tok::OpenParen) {
            continue;
        }
        if file_drains_field(toks, field) {
            continue;
        }
        out.push(Violation {
            rule: "Q01",
            file: unit.rel.clone(),
            line: toks[i + 1].line,
            message: format!(
                "`.{method}()` grows `{field}` on a fault path ({via}) and this file never \
                 drains it (no pop/remove/clear/drain/truncate/retain/dedup); add a drain \
                 or a cap"
            ),
        });
    }
}

/// Whether the file ever drains, caps, or reassigns `field`.
fn file_drains_field(toks: &[Token], field: &str) -> bool {
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some(field) {
            continue;
        }
        // `field.pop()` etc.
        if tok_at(toks, i + 1) == Some(&Tok::Dot) {
            if let Some(m) = ident_at(toks, i + 2) {
                if DRAIN_METHODS.contains(&m) {
                    return true;
                }
            }
        }
        // `field = …` reassignment (but not `field ==`).
        if tok_at(toks, i + 1) == Some(&Tok::Eq) && tok_at(toks, i + 2) != Some(&Tok::Eq) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;
    use crate::symbols::{build_call_graph, build_symbols};

    fn unit(rel: &str, src: &str) -> FileUnit {
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        FileUnit {
            rel: rel.to_string(),
            lexed,
            parsed,
        }
    }

    fn run(units: &[FileUnit]) -> Vec<Violation> {
        let syms = build_symbols(units);
        let graph = build_call_graph(units, &syms);
        run_reach(units, &syms, &graph)
    }

    #[test]
    fn panic_reachable_through_a_helper_is_flagged_with_chain() {
        let units = vec![
            unit(
                "crates/cluster/src/world.rs",
                r#"
                impl World {
                    fn fail_node(&mut self, n: NodeId) { self.reissue(n); }
                    fn reissue(&mut self, n: NodeId) { helper_lookup(n); }
                }
                "#,
            ),
            unit(
                "crates/compute/src/tracker.rs",
                r#"
                fn helper_lookup(n: NodeId) -> Rec { table.get(&n).expect("known node") }
                "#,
            ),
        ];
        let v = run(&units);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "P02");
        assert_eq!(v[0].file, "crates/compute/src/tracker.rs");
        assert!(v[0].message.contains("fail_node → reissue → helper_lookup"));
    }

    #[test]
    fn asserts_are_exempt_and_unreached_fns_are_ignored() {
        let units = vec![unit(
            "crates/cluster/src/world.rs",
            r#"
            impl World {
                fn fail_node(&mut self, n: NodeId) {
                    assert!(self.alive(n), "caller checked");
                    debug_assert_eq!(self.epoch, expected.unwrap());
                }
                fn unrelated(&self) { x.unwrap(); }
            }
            "#,
        )];
        assert!(run(&units).is_empty());
    }

    #[test]
    fn map_field_indexing_is_flagged_but_literal_slots_are_not() {
        let units = vec![unit(
            "crates/cluster/src/world.rs",
            r#"
            struct World { owners: BTreeMap<u32, u32>, slots: Vec<u32> }
            impl World {
                fn on_inject(&mut self, id: u32) {
                    let a = self.owners[&id];
                    let b = self.slots[0];
                    let c = self.slots[id as usize];
                }
            }
            "#,
        )];
        let v = run(&units);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("owners"));
    }

    #[test]
    fn growth_without_drain_is_q01_and_with_drain_is_clean() {
        let units = vec![unit(
            "crates/cluster/src/world.rs",
            r#"
            impl World {
                fn on_inject(&mut self, n: NodeId) {
                    self.backlog.push(n);
                    self.rerep.push(n);
                }
                fn tick(&mut self) {
                    for x in self.rerep.drain(..) { let _ = x; }
                }
            }
            "#,
        )];
        let v = run(&units);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "Q01");
        assert!(v[0].message.contains("backlog"));
    }

    #[test]
    fn depth_limit_bounds_the_walk() {
        let units = vec![unit(
            "crates/cluster/src/world.rs",
            r#"
            impl World {
                fn on_inject(&mut self) { self.a(); }
                fn a(&mut self) { self.b(); }
                fn b(&mut self) { self.c(); }
                fn c(&mut self) { deep.unwrap(); }
            }
            "#,
        )];
        // c is 3 edges away — included. One more hop would not be.
        let v = run(&units);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("on_inject → a → b → c"));
    }
}
