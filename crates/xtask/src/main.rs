//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `lint [--json] [--rules] [--budget-ms N] [PATH…]` — run detlint, the
//!   determinism & hot-path invariant checker, over `crates/*/src` (or
//!   just the given files). Exits nonzero when findings exist. `--json`
//!   prints a machine-readable report instead of text, with the
//!   `unreachable_pub` list (`pub` fns no non-test fn calls — a report,
//!   never a finding; the text output prints its length); `--rules` prints
//!   the rule table and exits; `--budget-ms N` fails the run if the full
//!   pass takes longer than `N` milliseconds (CI uses this to keep the
//!   analysis cheap enough to gate every PR).

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use xtask::Rule;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask {other:?}\n");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask lint [--json] [--rules] [--budget-ms N] [PATH…]");
    eprintln!();
    eprintln!("run `cargo xtask lint --rules` for the rule table");
    eprintln!("escape hatch: // detlint:allow(rule, reason)");
}

/// Prints the rule table — ids and one-line descriptions — straight from
/// the `Rule` enum, so it can never drift from what the linter enforces.
fn print_rules() {
    let width = Rule::ALL.iter().map(|r| r.id().len()).max().unwrap_or(0);
    for rule in Rule::ALL {
        println!("{:width$}  {}", rule.id(), rule.description());
    }
}

fn lint(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--rules") {
        print_rules();
        return ExitCode::SUCCESS;
    }
    let json = args.iter().any(|a| a == "--json");
    let mut budget_ms: Option<u64> = None;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {}
            "--budget-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = Some(ms),
                None => {
                    eprintln!("xtask lint: --budget-ms needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            _ if a.starts_with("--") => {
                eprintln!("xtask lint: unknown flag {a:?}\n");
                usage();
                return ExitCode::FAILURE;
            }
            _ => paths.push(a),
        }
    }

    // The budget check times the linter itself — real time is the point.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let report = if paths.is_empty() {
        match xtask::lint_workspace(&xtask::workspace_root()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtask lint: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // Explicit paths are a partial view of the workspace: the graph
        // rules run over just these files, and unused-allow stays off
        // (an allow may answer a finding the missing files would raise).
        let root = xtask::workspace_root();
        let mut sources: Vec<(String, String)> = Vec::new();
        for p in paths {
            let path = Path::new(p);
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(path) {
                Ok(src) => sources.push((rel, src)),
                Err(e) => {
                    eprintln!("xtask lint: {p}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        xtask::lint_files(&sources, false)
    };
    let elapsed = started.elapsed();

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(budget) = budget_ms {
        let took = elapsed.as_millis() as u64;
        if took > budget {
            eprintln!("xtask lint: pass took {took} ms, over the {budget} ms budget");
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: pass took {took} ms (budget {budget} ms)");
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
