//! Workspace symbol table and call graph.
//!
//! Resolution is by *name*, deliberately conservative: a call site `x.foo()`
//! resolves to every workspace function named `foo` that is a method, and
//! `foo()` / `Owner::foo()` to every function named `foo` (preferring an
//! owner match when the path names one). Over-approximation is safe for the
//! reachability passes — it can only add candidate paths, never hide one.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{ident_at, tok_at, Lexed, Tok, Token};
use crate::parse::ParsedFile;

/// One lexed + parsed workspace file.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The lexed token stream + directives.
    pub lexed: Lexed,
    /// The parsed items.
    pub parsed: ParsedFile,
}

/// Global function id: (index into the unit list, index into that unit's
/// `parsed.fns`).
pub type FnKey = (usize, usize);

/// One named function definition in the symbol table.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// The definition's key.
    pub key: FnKey,
    /// The impl/trait self-type, `None` for free functions.
    pub owner: Option<String>,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Function name → every definition with that name.
    pub by_name: BTreeMap<String, Vec<FnSym>>,
    /// Struct field names whose declared type head is a keyed map
    /// (`HashMap`/`BTreeMap`/`IdMap`) — indexing these panics on a missing
    /// key, which the panic-reachability pass wants to know about.
    pub map_fields: BTreeSet<String>,
}

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// The callee's key.
    pub callee: FnKey,
    /// The callee's name (for rendering chains).
    pub name: String,
    /// 1-based line of the call site.
    pub line: u32,
}

/// Caller → resolved call sites.
pub type CallGraph = BTreeMap<FnKey, Vec<Call>>;

const MAP_TYPES: &[&str] = &["HashMap", "BTreeMap", "IdMap"];

/// Identifiers that look like calls syntactically but are control flow or
/// construction, never workspace function calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "mut", "else", "move",
    "fn", "impl", "pub", "use", "mod", "where", "break", "continue", "struct", "enum", "trait",
    "type", "const", "static", "ref", "unsafe", "async", "await", "dyn", "box",
];

/// Method names that collide with std container/iterator vocabulary.
/// A `.name(...)` call with one of these names almost always targets a
/// std type, so resolving it to a same-named workspace function would
/// wire bogus edges (`.collect()` → some workspace `collect`). Skipping
/// them is a documented false-negative class: a *custom* type's method
/// with one of these names is not walked into.
const STD_METHODS: &[&str] = &[
    "new",
    "default",
    "clone",
    "collect",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "next",
    "drain",
    "clear",
    "extend",
    "retain",
    "take",
    "contains",
    "contains_key",
    "keys",
    "values",
    "sort",
    "sort_by",
    "sort_by_key",
    "dedup",
    "min",
    "max",
    "last",
    "first",
    "expect",
    "unwrap",
    "unwrap_or",
    "map",
    "and_then",
    "filter",
    "fold",
    "rev",
    "chain",
    "zip",
    "enumerate",
    "count",
    "sum",
    "any",
    "all",
    "find",
    "entry",
    "split_off",
    "truncate",
    "swap_remove",
    "to_string",
    "to_vec",
    "as_ref",
    "as_mut",
    "into",
    "from",
    "cmp",
    "eq",
    "hash",
    "fmt",
    "abs",
    "saturating_sub",
    "saturating_add",
];

/// Builds the symbol table over all units.
pub fn build_symbols(units: &[FileUnit]) -> Symbols {
    let mut syms = Symbols::default();
    for (ui, unit) in units.iter().enumerate() {
        for (fi, f) in unit.parsed.fns.iter().enumerate() {
            syms.by_name.entry(f.name.clone()).or_default().push(FnSym {
                key: (ui, fi),
                owner: f.owner.clone(),
            });
        }
        for s in &unit.parsed.structs {
            for (fname, thead) in &s.fields {
                if MAP_TYPES.contains(&thead.as_str()) {
                    syms.map_fields.insert(fname.clone());
                }
            }
        }
    }
    syms
}

/// Builds the call graph: for every function body, the workspace functions
/// its call sites can resolve to.
pub fn build_call_graph(units: &[FileUnit], syms: &Symbols) -> CallGraph {
    let mut graph = CallGraph::new();
    for (ui, unit) in units.iter().enumerate() {
        for (fi, f) in unit.parsed.fns.iter().enumerate() {
            let Some((start, end)) = f.body else {
                continue;
            };
            let calls = extract_calls(&unit.lexed.tokens[start..end], f.owner.as_deref(), syms);
            graph.insert((ui, fi), calls);
        }
    }
    graph
}

fn extract_calls(body: &[Token], self_owner: Option<&str>, syms: &Symbols) -> Vec<Call> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<FnKey> = BTreeSet::new();
    for i in 0..body.len() {
        let Some(name) = ident_at(body, i) else {
            continue;
        };
        if tok_at(body, i + 1) != Some(&Tok::OpenParen) {
            continue;
        }
        if NON_CALL_WORDS.contains(&name) {
            continue;
        }
        let Some(defs) = syms.by_name.get(name) else {
            continue;
        };
        let prev = if i > 0 { Some(&body[i - 1].tok) } else { None };
        // Receiver types are unknown, so resolution is name-shaped with
        // three precision tiers:
        //  * `recv.name(...)` — any workspace *method* named `name`, unless
        //    the name collides with std vocabulary (STD_METHODS), where a
        //    workspace hit is almost surely a different function.
        //  * `Type::name(...)` — only methods owned by `Type` (with `Self`
        //    resolved against the enclosing impl); a lowercase qualifier is
        //    a module path and resolves to free functions.
        //  * `name(...)` — free functions only.
        let candidates: Vec<&FnSym> = match prev {
            Some(Tok::Dot) => {
                if STD_METHODS.contains(&name) {
                    continue;
                }
                defs.iter().filter(|d| d.owner.is_some()).collect()
            }
            Some(Tok::PathSep) => {
                let qual = match ident_at(body, i.wrapping_sub(2)) {
                    Some("Self") => self_owner,
                    q => q,
                };
                match qual {
                    Some(q) if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => defs
                        .iter()
                        .filter(|d| d.owner.as_deref() == Some(q))
                        .collect(),
                    _ => defs.iter().filter(|d| d.owner.is_none()).collect(),
                }
            }
            _ => defs.iter().filter(|d| d.owner.is_none()).collect(),
        };
        for sym in candidates {
            if seen.insert(sym.key) {
                out.push(Call {
                    callee: sym.key,
                    name: name.to_string(),
                    line: body[i].line,
                });
            }
        }
    }
    out
}

/// BFS over the call graph from `entries`, bounded by `max_depth` edges.
/// Returns every reached function key mapped to the call chain that reached
/// it (entry-point name first), shortest chain wins.
pub fn reachable(
    graph: &CallGraph,
    units: &[FileUnit],
    entries: &[FnKey],
    max_depth: usize,
) -> BTreeMap<FnKey, Vec<String>> {
    let mut chains: BTreeMap<FnKey, Vec<String>> = BTreeMap::new();
    let mut frontier: Vec<FnKey> = Vec::new();
    for &e in entries {
        let name = units[e.0].parsed.fns[e.1].name.clone();
        chains.entry(e).or_insert_with(|| vec![name]);
        frontier.push(e);
    }
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for key in frontier {
            let chain = chains.get(&key).cloned().unwrap_or_default();
            let Some(calls) = graph.get(&key) else {
                continue;
            };
            for call in calls {
                if chains.contains_key(&call.callee) {
                    continue;
                }
                // Never walk into test code.
                if units[call.callee.0].parsed.fns[call.callee.1].is_test {
                    continue;
                }
                let mut c = chain.clone();
                c.push(call.name.clone());
                chains.insert(call.callee, c);
                next.push(call.callee);
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    chains
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
    fn resolves_free_method_and_path_calls() {
        let units = vec![unit(
            "crates/x/src/lib.rs",
            r#"
            fn helper() {}
            struct S;
            impl S {
                fn method(&self) { helper(); }
                fn entry(&self) { self.method(); S::method(&S); }
            }
            "#,
        )];
        let syms = build_symbols(&units);
        let graph = build_call_graph(&units, &syms);
        let entry_key = (0usize, 2usize); // fns: helper, method, entry
        let calls = graph.get(&entry_key).expect("entry has calls");
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"method"));
        let method_key = (0usize, 1usize);
        let mcalls = graph.get(&method_key).expect("method has calls");
        assert!(mcalls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn map_typed_fields_are_collected() {
        let units = vec![unit(
            "crates/x/src/lib.rs",
            "struct T { tasks: BTreeMap<u32, u32>, names: Vec<String>, ids: IdMap<u32, u32> }\n",
        )];
        let syms = build_symbols(&units);
        assert!(syms.map_fields.contains("tasks"));
        assert!(syms.map_fields.contains("ids"));
        assert!(!syms.map_fields.contains("names"));
    }

    #[test]
    fn bfs_respects_depth_and_skips_tests() {
        let units = vec![unit(
            "crates/x/src/lib.rs",
            r#"
            fn d3() {}
            fn d2() { d3(); }
            fn d1() { d2(); }
            fn entry() { d1(); }
            #[cfg(test)]
            mod tests {
                fn entry_helper() {}
            }
            "#,
        )];
        let syms = build_symbols(&units);
        let graph = build_call_graph(&units, &syms);
        let entry = syms.by_name.get("entry").unwrap()[0].key;
        let within2 = reachable(&graph, &units, &[entry], 2);
        assert!(within2
            .keys()
            .any(|k| units[k.0].parsed.fns[k.1].name == "d2"));
        assert!(!within2
            .keys()
            .any(|k| units[k.0].parsed.fns[k.1].name == "d3"));
        let within3 = reachable(&graph, &units, &[entry], 3);
        let chain = within3
            .iter()
            .find(|(k, _)| units[k.0].parsed.fns[k.1].name == "d3")
            .map(|(_, c)| c.clone())
            .expect("d3 reached at depth 3");
        assert_eq!(chain, vec!["entry", "d1", "d2", "d3"]);
    }
}
