//! Workspace automation for the edns-bench repo.
//!
//! The one task so far is **detlint** (`cargo xtask lint`): a static
//! analysis pass that enforces the repo's determinism and hot-path
//! invariants — the properties the golden-fixture and counting-allocator
//! tests check *dynamically* — at the source level, before a hazard can
//! churn a fixture.
//!
//! The pass runs in two phases. Phase 1 is per-file: [`lexer`] tokenises
//! each source, [`rules`] runs the local lexical rules over the stream,
//! and [`symbols`] indexes every `fn`/`impl` item plus its call sites and
//! determinism-relevant facts. Phase 2 is workspace-wide: [`callgraph`]
//! resolves the call sites into a conservative graph and runs the
//! transitive rules (`deny-alloc-reach`, `rng-stream`, `panic-reach`)
//! over it, plus the `unreachable_pub` report. See [`rules`] for the rule
//! table and the `detlint:allow(rule, reason)` escape hatch, and DESIGN.md
//! §8/§13 for the policy and the analysis model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod symbols;

use std::path::{Path, PathBuf};

pub use rules::{lint_source, lint_source_with, FilePolicy, Finding, Rule};
pub use symbols::SymbolIndex;

/// Version of the `--json` report layout. Bumped to 2 when the
/// call-graph pass added `fns_indexed` / `call_edges`, to 3 for
/// `unreachable_pub`.
pub const JSON_SCHEMA: u32 = 3;

/// One row of the `unreachable_pub` report (see [`callgraph`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnreachablePub {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the fn's body.
    pub line: u32,
    /// `Type::name` for a method, `name` for a free fn.
    pub name: String,
}

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// How many fns the symbol pass indexed (0 in single-file mode).
    pub fns_indexed: usize,
    /// How many call edges the graph resolved (0 in single-file mode).
    pub call_edges: usize,
    /// `pub` fns no non-test fn calls, in file order. A report: it is
    /// never a finding and never makes the tree unclean.
    pub unreachable_pub: Vec<UnreachablePub>,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering, one line per finding plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file,
                f.line,
                f.rule.id(),
                f.message
            ));
        }
        out.push_str(&format!(
            "detlint: {} finding(s) in {} file(s) scanned ({} fns, {} call edges, \
             {} unreachable pub fns — listed by --json)\n",
            self.findings.len(),
            self.files_scanned,
            self.fns_indexed,
            self.call_edges,
            self.unreachable_pub.len()
        ));
        out
    }

    /// Machine-readable JSON rendering (stable key order, sorted findings).
    pub fn render_json(&self) -> String {
        let findings = self.findings.iter().map(|f| {
            format!(
                "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule.id()),
                json_str(&f.message)
            )
        });
        let unreachable = self.unreachable_pub.iter().map(|u| {
            format!(
                "{{\"file\": {}, \"line\": {}, \"name\": {}}}",
                json_str(&u.file),
                u.line,
                json_str(&u.name)
            )
        });
        format!(
            "{{\n  \"schema\": {JSON_SCHEMA},\n  \"findings\": {},\n  \"unreachable_pub\": {},\n  \
             \"files_scanned\": {},\n  \"fns_indexed\": {},\n  \"call_edges\": {},\n  \"clean\": {}\n}}\n",
            json_rows(findings),
            json_rows(unreachable),
            self.files_scanned,
            self.fns_indexed,
            self.call_edges,
            self.is_clean()
        )
    }
}

/// A JSON array of pre-rendered objects, one per line.
fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.collect();
    if rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs the full two-phase analysis over a set of `(repo-relative path,
/// source)` pairs: local rules per file, then symbol indexing, call-graph
/// construction and the transitive rules across the whole set.
///
/// `detect_unused` additionally reports `unused-allow` for escape hatches
/// that suppressed nothing. Pass it only for a *complete* file set (the
/// workspace, or a self-contained fixture): on a partial set an allow may
/// be justified by reach findings the missing files would produce.
pub fn lint_files(files: &[(String, String)], detect_unused: bool) -> Report {
    let mut index = SymbolIndex::default();
    let mut per_file: Vec<(String, rules::Allows)> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();

    for (rel, src) in files {
        let lexed = lexer::lex(src);
        let policy = FilePolicy::for_path(rel);
        findings.extend(rules::scan_file(rel, &lexed, &policy));
        index.index_file(rel, &lexed);
        per_file.push((rel.clone(), rules::parse_allows(rel, &lexed)));
    }

    // Does an allow in `file` cover `(line, rule)`? Marks it used.
    let allowed = |file: &str, line: u32, rule: Rule| {
        per_file
            .iter()
            .find(|(p, _)| p == file)
            .is_some_and(|(_, allows)| allows.covers(line, rule))
    };

    let graph = callgraph::build(&index);
    // A `deny-alloc-reach` allow works at either end of a reach finding:
    // on the allocating line (consulted by the traversal, here) or at the
    // zone's call site (the suppression below).
    let cold_site = |file: &str, line: u32| allowed(file, line, Rule::DenyAllocReach);
    findings.extend(callgraph::reach_findings(&index, &graph, &cold_site));

    // Suppression: each finding consults its own file's allows (marking
    // them used), meta findings are never suppressible.
    findings.retain(|f| f.rule.is_meta() || !allowed(&f.file, f.line, f.rule));
    for (path, allows) in &per_file {
        findings.extend(allows.bad.iter().cloned());
        if detect_unused {
            findings.extend(allows.unused(path));
        }
    }

    findings.sort();
    findings.dedup();
    let unreachable_pub = callgraph::unreachable_pub(&index, &graph)
        .into_iter()
        .map(|id| {
            let f = &index.fns[id];
            UnreachablePub {
                file: f.file.clone(),
                line: f.line,
                name: match &f.impl_type {
                    Some(ty) => format!("{ty}::{}", f.name),
                    None => f.name.clone(),
                },
            }
        })
        .collect();
    Report {
        findings,
        files_scanned: files.len(),
        fns_indexed: index.fns.len(),
        call_edges: graph.edge_count(),
        unreachable_pub,
    }
}

/// Lints every first-party library source in the workspace: all of
/// `crates/*/src/**/*.rs`, through the full two-phase pipeline with
/// `unused-allow` detection on.
///
/// `compat/` (vendored dependency subsets), `tests/`, `benches/` and
/// `examples/` are out of scope: tests and benches are exempt by policy,
/// and compat code is third-party idiom we deliberately do not rewrite.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(lint_files(&sources, true))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root from this crate's manifest dir (xtask lives
/// at `<root>/crates/xtask`).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_is_lint_clean() {
        // The acceptance bar for the whole repo: zero findings (escape
        // hatches with reasons included), now including the transitive
        // graph rules and unused-allow. Run via `cargo xtask lint` for
        // the full report.
        let report = lint_workspace(&workspace_root()).expect("scan workspace");
        assert!(
            report.files_scanned > 50,
            "scanned {}",
            report.files_scanned
        );
        assert!(
            report.fns_indexed > 500,
            "indexed {} fns — the symbol pass is not seeing the workspace",
            report.fns_indexed
        );
        assert!(
            report.call_edges > 500,
            "resolved {} edges — the graph is not seeing the workspace",
            report.call_edges
        );
        assert!(
            report.is_clean(),
            "detlint findings:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: Rule::WallClock,
                message: "a \"quoted\" message".into(),
            }],
            files_scanned: 1,
            fns_indexed: 4,
            call_edges: 2,
            unreachable_pub: vec![UnreachablePub {
                file: "crates/x/src/lib.rs".into(),
                line: 9,
                name: "X::idle".into(),
            }],
        };
        let json = report.render_json();
        assert!(json.contains("\"schema\": 3"), "{json}");
        assert!(
            json.contains(
                "{\"file\": \"crates/x/src/lib.rs\", \"line\": 9, \"name\": \"X::idle\"}"
            ),
            "{json}"
        );
        assert!(json.contains("\"rule\": \"wall-clock\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"fns_indexed\": 4"), "{json}");
        assert!(json.contains("\"call_edges\": 2"), "{json}");
        assert!(json.contains("\"clean\": false"), "{json}");
    }

    #[test]
    fn unused_allow_fires_only_in_full_mode() {
        let files = vec![(
            "crates/fake/src/lib.rs".to_string(),
            "fn f() -> u32 {\n    1 // detlint:allow(unwrap, nothing here unwraps)\n}".to_string(),
        )];
        let full = lint_files(&files, true);
        assert_eq!(full.findings.len(), 1, "{}", full.render_text());
        assert_eq!(full.findings[0].rule, Rule::UnusedAllow);
        let partial = lint_files(&files, false);
        assert!(partial.is_clean(), "{}", partial.render_text());
    }

    #[test]
    fn used_allow_is_not_reported() {
        let files = vec![(
            "crates/fake/src/lib.rs".to_string(),
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // detlint:allow(unwrap, caller checked)\n}"
                .to_string(),
        )];
        let report = lint_files(&files, true);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn unwrap_allow_covers_panic_reach_and_counts_as_used() {
        let files = vec![(
            "crates/fake/src/lib.rs".to_string(),
            "pub fn run_pair(x: Option<u32>) -> u32 {\n    \
             x.unwrap() // detlint:allow(unwrap, probe pairs are validated at load)\n}"
                .to_string(),
        )];
        let report = lint_files(&files, true);
        assert!(report.is_clean(), "{}", report.render_text());
    }
}
