//! The crate graph's layering, as a test: every dependency a crate declares
//! (dev-dependencies included) roots a path (`dep::…` or `use dep;`)
//! somewhere in its code, and the simulation layers (`netsim`,
//! `transport`) stay below observability — `obs` enters the stack at
//! `measure` — and every vendored subset under `compat/` still has a crate
//! that declares it.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// Appends every `.rs` file under `dir` (this one excepted: it names crates
/// in strings) to `out`.
fn rust_sources(dir: &Path, out: &mut String) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("layering.rs") {
            out.push_str(&fs::read_to_string(&path).unwrap());
        }
    }
}

/// Every identifier that roots a path in `sources`: `root::…` (not
/// `a::root::…`), or the whole path of a `use root;` re-export. A local
/// variable or a word in prose that shares a crate's name is not a use of
/// the crate.
fn path_roots(sources: &str) -> HashSet<&str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut roots = HashSet::new();
    for (at, _) in sources.match_indices("::") {
        let head = &sources[..at];
        let prefix = head.trim_end_matches(ident);
        if !prefix.ends_with(':') {
            roots.insert(&head[prefix.len()..]);
        }
    }
    for (at, keyword) in sources.match_indices("use ") {
        if !sources[..at].ends_with(ident) {
            let rest = &sources[at + keyword.len()..];
            roots.insert(&rest[..rest.find(|c| !ident(c)).unwrap_or(rest.len())]);
        }
    }
    roots
}

/// The names in one table (`[dependencies]`, `[dev-dependencies]`) of a
/// manifest.
fn table<'a>(manifest: &'a str, header: &'a str) -> impl Iterator<Item = &'a str> {
    let table = manifest
        .lines()
        .skip_while(move |l| l.trim() != header)
        .skip(1);
    table
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split(['=', '.', ' ']).next())
        .filter(|name| !name.is_empty() && !name.starts_with('#'))
}

#[test]
fn every_dependency_is_named_and_the_simulation_layers_stay_below_obs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut edges = 0;
    let mut declared = HashSet::new();
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let krate = dir.file_name().unwrap().to_str().unwrap();
        let mut sources = String::new();
        rust_sources(&dir, &mut sources);
        if krate == "core" {
            // The root examples and tests are `core`'s targets.
            rust_sources(&root.join("examples"), &mut sources);
            rust_sources(&root.join("tests"), &mut sources);
        }
        let roots = path_roots(&sources);
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let deps = table(&manifest, "[dependencies]");
        for dep in deps.chain(table(&manifest, "[dev-dependencies]")) {
            assert!(
                roots.contains(dep.replace('-', "_").as_str()),
                "crates/{krate} declares {dep} and no path in its code starts with it"
            );
            let simulation = matches!(krate, "netsim" | "transport");
            assert!(
                !(simulation && matches!(dep, "obs" | "measure")),
                "crates/{krate} must stay below {dep}"
            );
            declared.insert(dep.to_owned());
            edges += 1;
        }
    }
    // 41 edges when this floor was last set (34 + 7 dev): it is there so
    // that a parser which stops finding the tables fails, not to pin the
    // graph.
    assert!(edges >= 39, "parsed only {edges} dependency edges");

    // A vendored subset cannot outlive its last user.
    for entry in fs::read_dir(root.join("compat")).unwrap() {
        let dir = entry.unwrap().file_name();
        let vendored = dir.to_str().unwrap();
        assert!(
            declared.contains(vendored),
            "compat/{vendored} is declared by no crates/*/Cargo.toml"
        );
    }
}
