//! Phase 2 of the workspace analysis: a conservative call graph over the
//! [`SymbolIndex`](crate::symbols::SymbolIndex), and the transitive
//! determinism rules that run over it.
//!
//! ## Resolution model (and its honest limits)
//!
//! detlint has no type information, so edges are resolved *by name*:
//!
//! * `recv.name(…)` — the receiver type is unknown, so the call edges to
//!   **every** indexed method called `name`, in any `impl`. This is the
//!   conservative answer to both method-name ambiguity and dynamic
//!   dispatch: a spurious edge can produce a finding that needs a
//!   reasoned `detlint:allow`, but a quietly missing edge would let a
//!   violation through.
//! * `Type::name(…)` — resolved exactly when `Type` matches an indexed
//!   `impl` type (`Self` uses the caller's own impl); `mod::name(…)`
//!   matches free functions by module-path suffix, and `krate::name(…)`
//!   any free function of that crate (a crate-root re-export). A
//!   qualifier that
//!   matches nothing in the workspace names foreign code (std, vendored
//!   deps) and produces no edge.
//! * `name(…)` — edges to every indexed free function called `name`.
//!
//! A path passed as an argument (`map(Self::helper)`) counts as a call of
//! it; a bare fn name passed the same way, or a fn bound to a variable
//! first, is not tracked, and trait dispatch is covered only by the
//! all-same-name method edges above. Items in `bench` and `xtask` are edge *targets*
//! only for callers in the same crate, and a binary's items only for
//! callers in its own file: nothing else can link against them, so any
//! other name match into them is known to be spurious.
//!
//! ## The `unreachable_pub` report
//!
//! [`unreachable_pub`] lists the unrestricted-`pub` fns outside test
//! regions that no *other* non-test fn has an edge into — candidates for
//! deletion, under the same by-name resolution: a method is "called" when
//! any receiver calls its name, and a fn only ever named through a
//! renaming re-export (`pub use http1::parse as h1_parse`) or a generic
//! qualifier, or driven from `examples/`, `benches/` or `tests/`, is
//! listed although it has a user. It is a report, never a finding.
//!
//! ## Transitive rules
//!
//! * `deny-alloc-reach` — from every `#[deny_alloc]` fn, no call may
//!   transitively reach an allocating construct. Reported at the
//!   offending call site *inside the annotated fn*, so the escape hatch
//!   lives in the zone that owns the invariant. Traversal stops at other
//!   `#[deny_alloc]` fns (they carry their own obligation). A reasoned
//!   `detlint:allow(deny-alloc-reach, …)` on an allocating line *outside*
//!   a zone sanctions that cold site for every zone that reaches it (a
//!   name's first insertion into a map, say): the traversal neither
//!   stops at that line's allocation nor follows the calls on it, and
//!   looks on for the next allocation, so one documented cold site does
//!   not hide the rest of the closure behind a blanket allow at the
//!   zone's call. This is how a zone holds the line
//!   across a crate that cannot itself depend on `detlint-macros`.
//! * `rng-stream` — from every `#[rng_neutral]` fn, no call may reach a
//!   `SimRng` draw or a raw `Rng` trait draw; direct draws in the
//!   annotated body are reported too. Same attribution as above.
//! * `panic-reach` — every fn reachable from the hot-path roots
//!   (`run_pair`, the per-pair loop, and `drive`, the per-probe driver)
//!   must be panic-free: `panic!` / `.unwrap()` / `.expect()` are reported
//!   at the panicking line unless a reasoned
//!   `detlint:allow(panic-reach, …)` — or the `unwrap` rule's existing
//!   allow — covers it. Files that are `unwrap`-exempt by path policy
//!   (binaries, harnesses) are exempt here for the same reason. A root
//!   that names no linkable function while `crates/measure` is being
//!   scanned is itself a finding: a renamed entry point must not take its
//!   call closure out of the rule unnoticed.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{Finding, Rule};
use crate::symbols::{binary_path, Callee, FnSymbol, SymbolIndex};

/// Names of the hot-path entry points that seed `panic-reach`.
pub const PANIC_REACH_ROOTS: [&str; 2] = ["run_pair", "drive"];

/// The crate the roots live in; a root missing while it is scanned is
/// reported against its crate root.
const HOT_PATH_CRATE: &str = "crates/measure/";

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// 1-based line of the call site in the caller.
    pub line: u32,
    /// Callee fn id.
    pub target: usize,
}

/// The workspace call graph: resolved edges per fn, caller-indexed.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[f]` are the resolved calls out of fn `f`.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Total number of resolved edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Builds the call graph by resolving every recorded call site against
/// the index. Test-region fns neither emit nor receive edges.
pub fn build(index: &SymbolIndex) -> CallGraph {
    // Name lookup tables, split by kind once so resolution is O(log n).
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut frees: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, f) in index.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        if f.impl_type.is_some() {
            methods.entry(&f.name).or_default().push(id);
        } else {
            frees.entry(&f.name).or_default().push(id);
        }
    }

    let mut graph = CallGraph {
        edges: Vec::with_capacity(index.fns.len()),
    };
    for f in &index.fns {
        let mut out: Vec<Edge> = Vec::new();
        if !f.in_test {
            for call in &f.calls {
                let mut push = |targets: &[usize]| {
                    for &t in targets.iter().filter(|&&t| can_call(f, &index.fns[t])) {
                        out.push(Edge {
                            line: call.line,
                            target: t,
                        });
                    }
                };
                match &call.callee {
                    Callee::Method(name) => {
                        push(methods.get(name.as_str()).map_or(&[][..], Vec::as_slice));
                    }
                    Callee::Free(name) => {
                        push(frees.get(name.as_str()).map_or(&[][..], Vec::as_slice));
                    }
                    Callee::Qualified(segments, name) => {
                        resolve_qualified(index, &methods, &frees, f, segments, name, &mut push);
                    }
                }
            }
        }
        out.sort_by_key(|e| (e.line, e.target));
        out.dedup_by_key(|e| (e.line, e.target));
        graph.edges.push(out);
    }
    graph
}

/// The crate segment of a fn's module path.
fn crate_of(f: &FnSymbol) -> &str {
    f.module.split("::").next().unwrap_or("")
}

/// Whether `caller` can name `target` at all. Library items are reachable
/// from anywhere; the harness crates are linked only by their own
/// binaries, and a binary's items only by its own file.
fn can_call(caller: &FnSymbol, target: &FnSymbol) -> bool {
    if target.linkable {
        true
    } else if binary_path(&target.file) {
        caller.file == target.file
    } else {
        crate_of(caller) == crate_of(target)
    }
}

/// The `unreachable_pub` report: ids of the unrestricted-`pub` fns outside
/// test regions that no other non-test fn has an edge into (see the module
/// docs for what by-name resolution makes of that).
pub fn unreachable_pub(index: &SymbolIndex, graph: &CallGraph) -> Vec<usize> {
    let mut called = vec![false; index.fns.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges.iter().filter(|e| e.target != caller) {
            called[e.target] = true;
        }
    }
    (0..index.fns.len())
        .filter(|&id| index.fns[id].is_pub && !index.fns[id].in_test && !called[id])
        .collect()
}

fn resolve_qualified(
    index: &SymbolIndex,
    methods: &BTreeMap<&str, Vec<usize>>,
    frees: &BTreeMap<&str, Vec<usize>>,
    caller: &FnSymbol,
    segments: &[String],
    name: &str,
    push: &mut impl FnMut(&[usize]),
) {
    let Some(last) = segments.last() else {
        return;
    };
    if last == "Self" {
        // Precise: the caller knows its own impl type.
        if let Some(ty) = &caller.impl_type {
            let ids: Vec<usize> = candidate_ids(methods, name)
                .filter(|&id| index.fns[id].impl_type.as_ref() == Some(ty))
                .collect();
            push(&ids);
        }
        return;
    }
    // `Type::name` — exact impl-type match.
    let typed: Vec<usize> = candidate_ids(methods, name)
        .filter(|&id| index.fns[id].impl_type.as_deref() == Some(last.as_str()))
        .collect();
    if !typed.is_empty() {
        push(&typed);
        return;
    }
    // `module::path::name` — free fns whose module path ends with the
    // qualifier (so both `faults::hash_decision` and
    // `netsim::faults::hash_decision` resolve), or whose crate is the
    // whole qualifier (`report::metrics_json`, a crate-root re-export). A
    // module-relative path (`crate::json::write_str`, `super::helper`)
    // matches on what follows the relative part, within the caller's crate.
    let relative = segments
        .iter()
        .take_while(|s| matches!(s.as_str(), "crate" | "self" | "super"))
        .count();
    let reexported = |f: &FnSymbol| segments.len() == 1 && crate_of(f) == last;
    let ids: Vec<usize> = candidate_ids(frees, name)
        .filter(|&id| {
            let f = &index.fns[id];
            let in_reach = relative == 0 || crate_of(f) == crate_of(caller);
            (in_reach && module_suffix_matches(&f.module, &segments[relative..])) || reexported(f)
        })
        .collect();
    push(&ids);
}

fn candidate_ids<'a>(
    table: &'a BTreeMap<&str, Vec<usize>>,
    name: &str,
) -> impl Iterator<Item = usize> + 'a {
    table.get(name).into_iter().flatten().copied()
}

fn module_suffix_matches(module: &str, segments: &[String]) -> bool {
    let mods: Vec<&str> = module.split("::").collect();
    if segments.len() > mods.len() {
        return false;
    }
    mods[mods.len() - segments.len()..]
        .iter()
        .zip(segments)
        .all(|(m, s)| *m == s)
}

/// What a breadth-first traversal found: the first sink plus the parent
/// chain to rebuild the path.
struct Hit {
    /// Fn id containing the sink.
    sink: usize,
    /// Line and description of the sink fact.
    line: u32,
    what: String,
}

/// The three traversal flavours share one BFS; this picks the sink and
/// the barrier per rule.
#[derive(Clone, Copy, PartialEq)]
enum Trace {
    Alloc,
    Rng,
}

fn barrier(f: &FnSymbol, trace: Trace) -> bool {
    match trace {
        // Another annotated zone carries its own obligation.
        Trace::Alloc => f.deny_alloc,
        Trace::Rng => f.rng_neutral,
    }
}

/// `sanctioned(file, line)`: a reasoned allow documents the allocation on
/// that line as a cold site.
type Sanctioned<'a> = &'a dyn Fn(&str, u32) -> bool;

fn sink_of(f: &FnSymbol, trace: Trace, sanctioned: Sanctioned<'_>) -> Option<(u32, String)> {
    let fact = match trace {
        Trace::Alloc => f
            .alloc_facts
            .iter()
            .find(|fact| !sanctioned(&f.file, fact.line)),
        Trace::Rng => f.rng_facts.first(),
    };
    if let Some(fact) = fact {
        return Some((fact.line, fact.what.clone()));
    }
    if trace == Trace::Rng && f.is_rng_draw() {
        return Some((f.line, format!("SimRng::{} advances an RNG stream", f.name)));
    }
    None
}

/// BFS from `start`, returning the nearest sink (if any) and the parent
/// map to reconstruct the chain.
fn nearest_sink(
    index: &SymbolIndex,
    graph: &CallGraph,
    start: usize,
    trace: Trace,
    sanctioned: Sanctioned<'_>,
) -> Option<(Hit, BTreeMap<usize, usize>)> {
    let mut parents: BTreeMap<usize, usize> = BTreeMap::new();
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = vec![start];
    visited.insert(start);
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        let f = &index.fns[id];
        if let Some((line, what)) = sink_of(f, trace, sanctioned) {
            return Some((
                Hit {
                    sink: id,
                    line,
                    what,
                },
                parents,
            ));
        }
        for e in &graph.edges[id] {
            if visited.contains(&e.target) || barrier(&index.fns[e.target], trace) {
                continue;
            }
            // A sanctioned line is a documented cold site as a whole: the
            // calls on it are not followed either.
            if trace == Trace::Alloc && sanctioned(&f.file, e.line) {
                continue;
            }
            visited.insert(e.target);
            parents.insert(e.target, id);
            queue.push(e.target);
        }
    }
    None
}

/// Renders `start → … → sink` from a BFS parent map, eliding long chains.
fn chain(
    index: &SymbolIndex,
    parents: &BTreeMap<usize, usize>,
    start: usize,
    sink: usize,
) -> String {
    let mut path: Vec<&str> = Vec::new();
    let mut cur = sink;
    path.push(&index.fns[cur].name);
    while cur != start {
        match parents.get(&cur) {
            Some(&p) => {
                cur = p;
                path.push(&index.fns[cur].name);
            }
            None => break,
        }
    }
    path.reverse();
    if path.len() > 6 {
        let head = path[..2].join(" → ");
        let tail = path[path.len() - 2..].join(" → ");
        format!("{head} → … → {tail}")
    } else {
        path.join(" → ")
    }
}

/// Runs the three transitive rules and returns their findings,
/// un-suppressed (the caller applies `detlint:allow` filtering at the
/// reporting site). `sanctioned` answers for the other end: whether a
/// `deny-alloc-reach` allow covers an allocating line the traversal
/// reaches.
pub fn reach_findings(
    index: &SymbolIndex,
    graph: &CallGraph,
    sanctioned: Sanctioned<'_>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    annotated_zone_findings(index, graph, Trace::Alloc, sanctioned, &mut findings);
    annotated_zone_findings(index, graph, Trace::Rng, sanctioned, &mut findings);
    panic_reach_findings(index, graph, &mut findings);
    findings
}

/// `deny-alloc-reach` / `rng-stream`: for each annotated root, probe every
/// outgoing call edge; the first edge per line that reaches a sink is
/// reported at that call site.
fn annotated_zone_findings(
    index: &SymbolIndex,
    graph: &CallGraph,
    trace: Trace,
    sanctioned: Sanctioned<'_>,
    findings: &mut Vec<Finding>,
) {
    let (rule, zone) = match trace {
        Trace::Alloc => (Rule::DenyAllocReach, "#[deny_alloc]"),
        Trace::Rng => (Rule::RngStream, "#[rng_neutral]"),
    };
    for (root_id, root) in index.fns.iter().enumerate() {
        let annotated = match trace {
            Trace::Alloc => root.deny_alloc,
            Trace::Rng => root.rng_neutral,
        };
        if !annotated || root.in_test {
            continue;
        }
        // Direct draws inside an `#[rng_neutral]` body (the local
        // `deny-alloc` rule already covers direct allocations).
        if trace == Trace::Rng {
            for fact in &root.rng_facts {
                findings.push(Finding {
                    file: root.file.clone(),
                    line: fact.line,
                    rule,
                    message: format!("{} inside {zone} `{}`", fact.what, root.name),
                });
            }
        }
        let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
        for e in &graph.edges[root_id] {
            if flagged_lines.contains(&e.line) || barrier(&index.fns[e.target], trace) {
                continue;
            }
            let Some((hit, parents)) = nearest_sink(index, graph, e.target, trace, sanctioned)
            else {
                continue;
            };
            let via = chain(index, &parents, e.target, hit.sink);
            let sink_fn = &index.fns[hit.sink];
            findings.push(Finding {
                file: root.file.clone(),
                line: e.line,
                rule,
                message: format!(
                    "`{}` is {zone} but this call reaches {} at {}:{} (via {})",
                    root.name, hit.what, sink_fn.file, hit.line, via
                ),
            });
            flagged_lines.insert(e.line);
        }
    }
}

/// `panic-reach`: full closure from the hot-path roots; every panicking
/// construct in a reached, non-exempt fn is reported at its own line.
fn panic_reach_findings(index: &SymbolIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let roots: Vec<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| PANIC_REACH_ROOTS.contains(&f.name.as_str()) && !f.in_test && f.linkable)
        .map(|(id, _)| id)
        .collect();
    if index.fns.iter().any(|f| f.file.starts_with(HOT_PATH_CRATE)) {
        for name in PANIC_REACH_ROOTS {
            if !roots.iter().any(|&id| index.fns[id].name == name) {
                findings.push(Finding {
                    file: format!("{HOT_PATH_CRATE}src/lib.rs"),
                    line: 1,
                    rule: Rule::PanicReach,
                    message: format!(
                        "hot-path root `{name}` names no linkable function, so its call \
                         closure is no longer checked — point \
                         xtask::callgraph::PANIC_REACH_ROOTS at the surviving entry point"
                    ),
                });
            }
        }
    }
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut parents: BTreeMap<usize, usize> = BTreeMap::new();
    let mut root_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for &r in &roots {
        visited.insert(r);
        root_of.insert(r, r);
        queue.push(r);
    }
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        for e in &graph.edges[id] {
            if visited.contains(&e.target) {
                continue;
            }
            visited.insert(e.target);
            parents.insert(e.target, id);
            root_of.insert(e.target, root_of[&id]);
            queue.push(e.target);
        }
    }
    // One finding per panicking line, first root wins.
    let mut seen: BTreeSet<(&str, u32)> = BTreeSet::new();
    for &id in &queue {
        let f = &index.fns[id];
        if f.unwrap_exempt {
            continue;
        }
        for fact in &f.panic_facts {
            if !seen.insert((f.file.as_str(), fact.line)) {
                continue;
            }
            let root = root_of[&id];
            let via = chain(index, &parents, root, id);
            findings.push(Finding {
                file: f.file.clone(),
                line: fact.line,
                rule: Rule::PanicReach,
                message: format!(
                    "{} is reachable from the hot path ({via}) — return an error, or \
                     detlint:allow(panic-reach, why this cannot fire)",
                    fact.what
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyse(files: &[(&str, &str)]) -> (SymbolIndex, CallGraph) {
        let mut index = SymbolIndex::default();
        for (path, src) in files {
            index.index_file(path, &lex(src));
        }
        let graph = build(&index);
        (index, graph)
    }

    fn rules_of(files: &[(&str, &str)]) -> Vec<(String, u32, Rule)> {
        let (index, graph) = analyse(files);
        reach_findings(&index, &graph, &|_, _| false)
            .into_iter()
            .map(|f| (f.file, f.line, f.rule))
            .collect()
    }

    #[test]
    fn deny_alloc_reach_crosses_files() {
        let found = rules_of(&[
            (
                "crates/a/src/lib.rs",
                "#[deny_alloc]\npub fn hot() {\n    helper();\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() {\n    let s = format!(\"x\");\n}",
            ),
        ]);
        assert_eq!(
            found,
            [("crates/a/src/lib.rs".to_string(), 3, Rule::DenyAllocReach)]
        );
    }

    #[test]
    fn sanctioned_cold_site_is_looked_past() {
        let (index, graph) = analyse(&[
            (
                "crates/a/src/lib.rs",
                "#[deny_alloc]\npub fn hot() {\n    helper();\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() {\n    let k = key.clone();\n    deeper();\n    audit();\n}\n\
                 pub fn deeper() { let v = vec![1]; }\n\
                 pub fn audit() { let s = format!(\"x\"); }",
            ),
        ]);
        let sinks = |sanctioned: &[u32]| -> Vec<String> {
            let cold = |file: &str, line: u32| file.contains("/b/") && sanctioned.contains(&line);
            reach_findings(&index, &graph, &cold)
                .into_iter()
                .map(|f| f.message)
                .collect()
        };
        // Unsanctioned, the nearest allocation is the clone.
        assert!(sinks(&[])[0].contains(".clone()"), "{:?}", sinks(&[]));
        // Sanctioning it moves the finding to the next one, not away.
        assert!(sinks(&[2])[0].contains("vec!"), "{:?}", sinks(&[2]));
        // A sanctioned call line is not followed.
        assert!(
            sinks(&[2, 3])[0].contains("format!"),
            "{:?}",
            sinks(&[2, 3])
        );
        assert!(sinks(&[2, 3, 4]).is_empty());
    }

    #[test]
    fn local_allocs_are_left_to_the_local_rule() {
        let found = rules_of(&[(
            "crates/a/src/lib.rs",
            "#[deny_alloc]\npub fn hot() { let s = x.to_string(); }",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn traversal_stops_at_other_annotated_zones() {
        let found = rules_of(&[(
            "crates/a/src/lib.rs",
            "#[deny_alloc]\npub fn outer() {\n    inner();\n}\n\
             #[deny_alloc]\npub fn inner() {\n    cold();\n}\n\
             pub fn cold() { let v = vec![1]; }",
        )]);
        // `outer → inner` is not reported (inner owns its zone); `inner →
        // cold` is.
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].1, 7);
    }

    #[test]
    fn rng_stream_flags_draw_reached_through_helpers() {
        let found = rules_of(&[
            (
                "crates/netsim/src/rng.rs",
                "pub struct SimRng;\nimpl SimRng {\n    pub fn uniform(&mut self) -> f64 { 0.0 }\n}",
            ),
            (
                "crates/a/src/lib.rs",
                "#[rng_neutral]\npub fn neutral(r: &mut SimRng) {\n    jitter(r);\n}\n\
                 pub fn jitter(r: &mut SimRng) -> f64 {\n    r.uniform()\n}",
            ),
        ]);
        assert_eq!(
            found,
            [("crates/a/src/lib.rs".to_string(), 3, Rule::RngStream)]
        );
    }

    #[test]
    fn panic_reach_covers_the_hot_closure() {
        let found = rules_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn run_pair() {\n    step();\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn step() {\n    let x = maybe().unwrap();\n}\npub fn unrelated() { y.unwrap(); }",
            ),
        ]);
        assert_eq!(
            found,
            [("crates/b/src/lib.rs".to_string(), 2, Rule::PanicReach)],
            "only the reached unwrap is flagged"
        );
    }

    #[test]
    fn recursion_terminates() {
        let found = rules_of(&[(
            "crates/a/src/lib.rs",
            "#[deny_alloc]\npub fn hot() {\n    ping();\n}\n\
             pub fn ping() { pong(); }\npub fn pong() { ping(); }",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn method_ambiguity_is_conservative() {
        let found = rules_of(&[
            (
                "crates/a/src/lib.rs",
                "#[deny_alloc]\npub fn hot(j: &mut J) {\n    j.push(1);\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct Journal;\nimpl Journal {\n    pub fn push(&mut self) { let s = String::new(); }\n}",
            ),
        ]);
        // The receiver's type is unknown, so the edge into Journal::push is
        // taken and the allocation behind it is reported.
        assert_eq!(
            found,
            [("crates/a/src/lib.rs".to_string(), 3, Rule::DenyAllocReach)]
        );
    }

    #[test]
    fn foreign_qualifiers_produce_no_edges() {
        let found = rules_of(&[(
            "crates/a/src/lib.rs",
            "#[deny_alloc]\npub fn hot() {\n    std::mem::swap(a, b);\n}\n\
             pub fn swap() { let v = vec![1]; }",
        )]);
        assert!(
            found.is_empty(),
            "std::mem::swap must not resolve: {found:?}"
        );
    }

    #[test]
    fn bin_and_harness_fns_are_never_targets() {
        let found = rules_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn run_pair() {\n    helper();\n}",
            ),
            ("crates/bench/src/lib.rs", "pub fn helper() { x.unwrap(); }"),
        ]);
        assert!(found.is_empty(), "bench is not linkable: {found:?}");
    }

    #[test]
    fn harness_fns_are_targets_for_their_own_crate_only() {
        let (index, graph) = analyse(&[
            (
                "crates/bench/src/lib.rs",
                "pub fn used() {}\npub fn unused() {}\npub fn recursive() { recursive(); }",
            ),
            ("crates/bench/src/bin/tool.rs", "fn main() { used(); }"),
            (
                "crates/a/src/lib.rs",
                "pub fn caller() { unused(); }\npub(crate) fn private() {}\n\
                 #[cfg(test)]\nmod tests { pub fn helper() { caller(); } }",
            ),
        ]);
        let names: Vec<&str> = unreachable_pub(&index, &graph)
            .into_iter()
            .map(|id| index.fns[id].name.as_str())
            .collect();
        // `used` has a caller in its crate's binary; `unused` is named only
        // from a crate that cannot link it, `recursive` only by itself,
        // `caller` only from a test region.
        assert_eq!(names, ["unused", "recursive", "caller"]);
    }
}
