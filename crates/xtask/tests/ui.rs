//! detlint UI tests: each `tests/ui/<name>.rs` fixture is linted under the
//! strict policy and its findings are compared line-for-line against the
//! `tests/ui/<name>.expected` snapshot (`line:rule` per finding).
//!
//! Directory fixtures (`tests/ui/<name>/`) exercise the full two-phase
//! pipeline instead: every `*.rs` file in the directory is linted together
//! through `lint_files` (symbol index, call graph, transitive rules,
//! unused-allow detection) and the findings — `file:line:rule` — are
//! compared against `tests/ui/<name>/expected`. A directory that also
//! holds an `unreachable_pub.expected` has the report of that name —
//! `file:line:name` — compared against it.
//!
//! To update a snapshot after an intentional rule change, run with
//! `DETLINT_UI_BLESS=1` and review the diff like any other golden file.

use std::path::{Path, PathBuf};

use xtask::{lint_files, lint_source_with, FilePolicy, Report, Rule};

fn ui_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/ui")
}

fn findings_of(fixture: &Path) -> String {
    let src = std::fs::read_to_string(fixture).expect("fixture readable");
    let name = fixture.file_name().unwrap().to_string_lossy().into_owned();
    let mut out = String::new();
    for f in lint_source_with(&name, &src, &FilePolicy::strict()) {
        out.push_str(&format!("{}:{}\n", f.line, f.rule.id()));
    }
    out
}

/// Every `*.rs` under `dir`, recursively, as paths relative to `root`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("fixture dir readable") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under the fixture root");
            out.push(rel.to_string_lossy().into_owned());
        }
    }
}

/// Lints every `*.rs` in a directory fixture through the two-phase
/// pipeline; file paths in the output are relative to the fixture dir, so
/// a fixture can lay files out under `crates/<name>/src/` where a rule
/// looks at the path. Returns the findings and the `unreachable_pub`
/// report, each rendered one per line.
fn findings_of_dir(dir: &Path) -> (String, String) {
    let mut files = Vec::new();
    rust_files(dir, dir, &mut files);
    files.sort();
    assert!(!files.is_empty(), "empty fixture dir {}", dir.display());
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(dir.join(&rel)).expect("fixture readable");
            (rel, src)
        })
        .collect();
    let report = lint_files(&sources, true);
    let mut out = String::new();
    for f in report.findings {
        out.push_str(&format!("{}:{}:{}\n", f.file, f.line, f.rule.id()));
    }
    let mut unreachable = String::new();
    for u in report.unreachable_pub {
        unreachable.push_str(&format!("{}:{}:{}\n", u.file, u.line, u.name));
    }
    (out, unreachable)
}

#[test]
fn fixtures_match_expected_findings() {
    let mut single: Vec<PathBuf> = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(ui_dir()).expect("tests/ui exists") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            dirs.push(path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            single.push(path);
        }
    }
    single.sort();
    dirs.sort();
    assert!(single.len() >= 6, "one fixture per local rule at minimum");
    assert!(
        dirs.len() >= 4,
        "one dir fixture per transitive rule plus graph shapes"
    );

    let bless = std::env::var_os("DETLINT_UI_BLESS").is_some();
    let mut failures = Vec::new();
    // (snapshot path, what the fixture produces for it)
    let mut cases: Vec<(PathBuf, String)> = Vec::new();
    for fixture in single {
        cases.push((fixture.with_extension("expected"), findings_of(&fixture)));
    }
    for fixture in dirs {
        let (findings, unreachable) = findings_of_dir(&fixture);
        cases.push((fixture.join("expected"), findings));
        let report = fixture.join("unreachable_pub.expected");
        if report.exists() {
            cases.push((report, unreachable));
        }
    }
    for (expected_path, got) in cases {
        if bless {
            std::fs::write(&expected_path, &got).expect("write snapshot");
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "missing snapshot {} — run with DETLINT_UI_BLESS=1",
                expected_path.display()
            )
        });
        if got != expected {
            failures.push(format!(
                "== {}\n-- expected --\n{expected}-- got --\n{got}",
                expected_path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn missing_reason_does_not_suppress() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // detlint:allow(unwrap)\n    x.unwrap()\n}\n";
    let findings = lint_source_with("fixture.rs", src, &FilePolicy::strict());
    let rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&Rule::BadAllow),
        "reasonless allow must be flagged: {findings:?}"
    );
    assert!(
        rules.contains(&Rule::Unwrap),
        "reasonless allow must not suppress: {findings:?}"
    );
}

#[test]
fn reasoned_allow_suppresses_exactly_one_line() {
    let src = "fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n\
               \x20   // detlint:allow(unwrap, first line is checked by the caller)\n\
               \x20   let a = x.unwrap();\n\
               \x20   let b = y.unwrap();\n\
               \x20   a + b\n}\n";
    let findings = lint_source_with("fixture.rs", src, &FilePolicy::strict());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Unwrap);
    assert_eq!(findings[0].line, 4, "only the un-allowed line remains");
}

#[test]
fn json_report_is_stable_and_escaped() {
    let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
    let findings = lint_source_with("a \"quoted\" path.rs", src, &FilePolicy::strict());
    let report = Report {
        findings,
        files_scanned: 1,
        ..Report::default()
    };
    let json = report.render_json();
    assert!(json.contains("\"schema\": 3"), "{json}");
    assert!(json.contains("\"rule\": \"wall-clock\""), "{json}");
    assert!(json.contains("\"line\": 2"), "{json}");
    assert!(json.contains("a \\\"quoted\\\" path.rs"), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.ends_with("}\n"), "{json}");

    let clean = Report {
        findings: Vec::new(),
        files_scanned: 3,
        fns_indexed: 12,
        call_edges: 7,
        unreachable_pub: Vec::new(),
    };
    assert_eq!(
        clean.render_json(),
        "{\n  \"schema\": 3,\n  \"findings\": [],\n  \"unreachable_pub\": [],\n  \"files_scanned\": 3,\n  \
         \"fns_indexed\": 12,\n  \"call_edges\": 7,\n  \"clean\": true\n}\n"
    );
}
