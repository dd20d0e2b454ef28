//! detlint's rule engine: the determinism & hot-path invariants, as
//! machine-checked lexical rules over [`crate::lexer`] token streams.
//!
//! | rule | what it rejects |
//! |------|-----------------|
//! | `hash-iter` | iterating a `HashMap`/`HashSet` (`iter`, `keys`, `values`, `drain`, `into_iter`, `retain`, `for … in map`) — iteration order is seeded per process, so anything order-dependent must use `BTreeMap`/`BTreeSet` or rank-keyed vectors |
//! | `wall-clock` | `Instant::now` / `SystemTime::now` / `thread_rng` / `from_entropy` outside the `obs` timing shim and the `bench`/`xtask` crates — output must be a pure function of `(seed, simulated time)` |
//! | `deny-alloc` | allocating constructs (`format!`, `vec!`, `String::from`, `.to_string()`, `.to_owned()`, `.clone()`, `Box::new`, `.alloc()` on any receiver, …) inside a `#[deny_alloc]` function body |
//! | `unwrap` | `.unwrap()` / `.expect(…)` / `panic!` in library code (binaries and `#[cfg(test)]` code are exempt) |
//! | `raw-libm` | `.exp(` / `.ln(` / `.sin(` / `.cos(` / `.powf(` / `.asin(` in library code outside `netsim::math` — libm's last bit is platform-dependent, so every such call goes through the one module that owns it |
//! | `float-order` | `f64` reductions (`sum`/`fold`/`product`/`+=`) fed by hash-container iteration — float addition is not associative, so reduction order must be rank-ordered |
//! | `deny-alloc-reach` | a call inside a `#[deny_alloc]` fn that transitively reaches an allocating construct through the workspace call graph; reported at the call in the annotated fn, and a reasoned allow on the allocating line itself sanctions that cold site for every zone — see [`crate::callgraph`] |
//! | `rng-stream` | a `#[rng_neutral]` fn that draws on, or transitively reaches a draw on, the probe RNG stream (`SimRng`) |
//! | `panic-reach` | `panic!`/`unwrap`/`expect` in any fn reachable from the hot-path roots (`run_pair`, `drive`); a root that names no function while `crates/measure` is scanned |
//! | `bad-allow` | a `detlint:allow` escape hatch without a reason, or naming an unknown rule |
//! | `unused-allow` | a well-formed allow that suppresses no finding (workspace passes only — partial file sets lack graph context) |
//!
//! Escape hatch: `// detlint:allow(rule, reason)` suppresses a finding on
//! its own line, or — when the comment stands alone on a line — on the
//! next code line. The reason string is mandatory; an allow without one is
//! itself a finding (`bad-allow`) and suppresses nothing. The three
//! transitive rules live in [`crate::callgraph`]; this module owns the
//! rule identities, the per-file lexical scans, and allow bookkeeping.

use std::cell::Cell;

use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::symbols::ALLOC_METHODS;

/// The rules detlint knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-container iteration.
    HashIter,
    /// Wall-clock / entropy reads.
    WallClock,
    /// Allocation inside `#[deny_alloc]`.
    DenyAlloc,
    /// `unwrap`/`expect`/`panic!` in library code.
    Unwrap,
    /// Order-sensitive float reduction.
    FloatOrder,
    /// A transcendental called past `netsim::math`.
    RawLibm,
    /// Malformed escape hatch.
    BadAllow,
    /// Transitive allocation reach from a `#[deny_alloc]` fn.
    DenyAllocReach,
    /// RNG-stream reach from a `#[rng_neutral]` fn.
    RngStream,
    /// Panicking construct reachable from the hot-path roots.
    PanicReach,
    /// A well-formed allow that suppresses nothing.
    UnusedAllow,
}

impl Rule {
    /// The rule's stable id, as used in `detlint:allow(id, reason)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::DenyAlloc => "deny-alloc",
            Rule::Unwrap => "unwrap",
            Rule::FloatOrder => "float-order",
            Rule::RawLibm => "raw-libm",
            Rule::BadAllow => "bad-allow",
            Rule::DenyAllocReach => "deny-alloc-reach",
            Rule::RngStream => "rng-stream",
            Rule::PanicReach => "panic-reach",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// One-line description, as printed by `cargo xtask lint --rules`.
    pub fn description(self) -> &'static str {
        match self {
            Rule::HashIter => "iteration over a HashMap/HashSet — order is seeded per process",
            Rule::WallClock => "wall-clock or OS-entropy read outside the audited obs::clock shim",
            Rule::DenyAlloc => "allocating construct inside a #[deny_alloc] fn body",
            Rule::Unwrap => "unwrap/expect/panic! in library code",
            Rule::FloatOrder => "float reduction fed by hash-container iteration order",
            Rule::RawLibm => "libm transcendental (exp/ln/sin/cos/powf/asin) outside netsim::math",
            Rule::BadAllow => "detlint:allow without a reason or naming an unknown rule (meta)",
            Rule::DenyAllocReach => {
                "call in a #[deny_alloc] fn that transitively reaches an allocation"
            }
            Rule::RngStream => {
                "#[rng_neutral] fn that transitively reaches a probe-RNG (SimRng) draw"
            }
            Rule::PanicReach => "panicking construct reachable from run_pair/drive",
            Rule::UnusedAllow => {
                "detlint:allow that suppresses no finding (meta; workspace passes only)"
            }
        }
    }

    /// Parses a rule id.
    pub fn from_id(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == s)
    }

    /// Every rule, in the order `--rules` prints them (local rules, then
    /// the transitive graph rules, then the two meta rules).
    pub const ALL: [Rule; 11] = [
        Rule::HashIter,
        Rule::WallClock,
        Rule::DenyAlloc,
        Rule::Unwrap,
        Rule::FloatOrder,
        Rule::RawLibm,
        Rule::DenyAllocReach,
        Rule::RngStream,
        Rule::PanicReach,
        Rule::BadAllow,
        Rule::UnusedAllow,
    ];

    /// The meta rules report on the escape hatches themselves, so an
    /// allow can never silence them.
    pub fn is_meta(self) -> bool {
        matches!(self, Rule::BadAllow | Rule::UnusedAllow)
    }

    /// Whether an allow naming `self` suppresses a finding of `fired`.
    ///
    /// `allow(unwrap)` also covers `panic-reach` on the same line: a
    /// reasoned unwrap allow already argues the panic cannot fire, which
    /// is exactly the question `panic-reach` asks — requiring a second
    /// hatch on the same line would add noise, not safety.
    pub fn suppresses(self, fired: Rule) -> bool {
        self == fired || (self == Rule::Unwrap && fired == Rule::PanicReach)
    }
}

/// Comma-separated list of every rule id (for diagnostics).
fn known_rules() -> String {
    let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
    ids.join(", ")
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

/// Per-file lint policy, derived from the repo-relative path.
#[derive(Debug, Clone)]
pub struct FilePolicy {
    /// `wall-clock` is enforced.
    pub wall_clock: bool,
    /// `unwrap` is enforced.
    pub unwrap: bool,
    /// `raw-libm` is enforced.
    pub raw_libm: bool,
}

impl FilePolicy {
    /// Everything on (the default for library sources).
    pub fn strict() -> Self {
        FilePolicy {
            wall_clock: true,
            unwrap: true,
            raw_libm: true,
        }
    }

    /// The workspace policy for a repo-relative path.
    ///
    /// * `crates/bench` and `crates/xtask` are measurement/automation
    ///   harnesses: wall-clock reads and `unwrap` are their job.
    /// * `crates/obs/src/clock.rs` is the audited wall-clock shim — the
    ///   one place real time may be read.
    /// * `src/bin/**` and `src/main.rs` are CLI entry points: `unwrap` on
    ///   startup errors is accepted there, wall-clock reads are not.
    /// * `crates/netsim/src/math.rs` is the one module that calls libm's
    ///   transcendentals; library code elsewhere calls it (`raw-libm`).
    pub fn for_path(path: &str) -> Self {
        let bench_or_xtask = path.starts_with("crates/bench/") || path.starts_with("crates/xtask/");
        let entry_point = path.contains("/src/bin/") || path.ends_with("/src/main.rs");
        FilePolicy {
            wall_clock: !(bench_or_xtask || path == "crates/obs/src/clock.rs"),
            unwrap: !(bench_or_xtask || entry_point),
            raw_libm: !(bench_or_xtask || entry_point || path == "crates/netsim/src/math.rs"),
        }
    }
}

/// Lints one file's source under the workspace path policy.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    lint_source_with(path, src, &FilePolicy::for_path(path))
}

/// Lints one file's source under an explicit policy (UI tests use this to
/// pin the policy regardless of fixture location).
///
/// Single-file mode runs the local rules only: the transitive graph rules
/// and `unused-allow` need whole-workspace context and run from
/// [`crate::lint_files`].
pub fn lint_source_with(path: &str, src: &str, policy: &FilePolicy) -> Vec<Finding> {
    let lexed = lex(src);
    let allows = parse_allows(path, &lexed);
    let mut findings = allows.bad.clone();
    findings.extend(scan_file(path, &lexed, policy));
    findings.retain(|f| f.rule.is_meta() || !allows.covers(f.line, f.rule));
    findings.sort();
    findings.dedup();
    findings
}

/// This file's local (per-file) findings, pre-suppression, excluding the
/// `bad-allow` findings that [`parse_allows`] owns.
pub(crate) fn scan_file(path: &str, lexed: &Lexed, policy: &FilePolicy) -> Vec<Finding> {
    let hash_idents = collect_hash_idents(&lexed.tokens);
    let mut findings = Vec::new();
    scan(path, &lexed.tokens, &hash_idents, policy, &mut findings);
    findings
}

/// One parsed, well-formed escape hatch.
struct AllowRecord {
    /// Line of the comment itself (where `unused-allow` reports).
    comment_line: u32,
    /// The code line it suppresses.
    target_line: u32,
    rule: Rule,
    /// Set when the record suppresses at least one finding.
    used: Cell<bool>,
}

/// Parsed escape hatches for one file, with usage bookkeeping.
pub(crate) struct Allows {
    records: Vec<AllowRecord>,
    /// `bad-allow` findings (malformed hatches), reported as-is.
    pub(crate) bad: Vec<Finding>,
}

impl Allows {
    /// True when an allow covers `(line, rule)`. Every matching record is
    /// marked used, so `unused` stays sound even with stacked allows.
    pub(crate) fn covers(&self, line: u32, rule: Rule) -> bool {
        let mut hit = false;
        for r in &self.records {
            if r.target_line == line && r.rule.suppresses(rule) {
                r.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// `unused-allow` findings for records that suppressed nothing.
    pub(crate) fn unused(&self, path: &str) -> Vec<Finding> {
        self.records
            .iter()
            .filter(|r| !r.used.get())
            .map(|r| Finding {
                file: path.to_string(),
                line: r.comment_line,
                rule: Rule::UnusedAllow,
                message: format!(
                    "detlint:allow({}) suppresses nothing on line {} — delete the stale hatch",
                    r.rule.id(),
                    r.target_line
                ),
            })
            .collect()
    }
}

pub(crate) fn parse_allows(path: &str, lexed: &Lexed) -> Allows {
    let mut records: Vec<AllowRecord> = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        // Escape hatches are plain `//` code comments. Doc comments
        // (`///`, `//!`) are prose — they may *describe* the syntax
        // (detlint's own docs do) without invoking it.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(pos) = c.text.find("detlint:allow") else {
            continue;
        };
        let rest = &c.text[pos + "detlint:allow".len()..];
        let parsed = rest.strip_prefix('(').and_then(|r| {
            let close = r.rfind(')')?;
            Some(&r[..close])
        });
        let Some(inner) = parsed else {
            bad.push(Finding {
                file: path.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: "malformed detlint:allow — expected `detlint:allow(rule, reason)`"
                    .to_string(),
            });
            continue;
        };
        let (rule_str, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        let Some(rule) = Rule::from_id(rule_str) else {
            bad.push(Finding {
                file: path.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: format!(
                    "detlint:allow names unknown rule {rule_str:?} (known: {})",
                    known_rules()
                ),
            });
            continue;
        };
        if reason.trim_matches('"').trim().is_empty() {
            bad.push(Finding {
                file: path.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: format!(
                    "detlint:allow({}) has no reason — escape hatches must say why",
                    rule.id()
                ),
            });
            continue;
        }
        // A trailing allow covers its own line; a standalone comment
        // covers the next line that has code on it.
        let target = if c.trailing {
            c.line
        } else {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line + 1)
        };
        records.push(AllowRecord {
            comment_line: c.line,
            target_line: target,
            rule,
            used: Cell::new(false),
        });
    }
    Allows { records, bad }
}

/// Identifiers bound (or declared) with a `HashMap`/`HashSet` type in this
/// file: `let` bindings, struct fields and fn parameters.
fn collect_hash_idents(tokens: &[Token]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // `let [mut] NAME … HashMap … ;` — walk back to the nearest `let`
        // in the same statement.
        if let Some(name) = let_binding_name(tokens, i) {
            push_unique(&mut out, name);
            continue;
        }
        // `NAME : [&]["mut"] [path ::] HashMap` — a field or parameter
        // annotation. Walk back over type-prefix tokens to the annotating
        // `:`, then take the ident before it.
        if let Some(name) = annotated_name(tokens, i) {
            push_unique(&mut out, name);
        }
    }
    out
}

fn push_unique(v: &mut Vec<String>, s: String) {
    if !v.contains(&s) {
        v.push(s);
    }
}

fn let_binding_name(tokens: &[Token], hash_pos: usize) -> Option<String> {
    // Scan back at most one statement (stop at `;`, `{`, `}`).
    let mut j = hash_pos;
    while j > 0 {
        j -= 1;
        match &tokens[j].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => return None,
            TokenKind::Ident(s) if s == "let" => {
                let mut k = j + 1;
                while tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                return tokens.get(k).and_then(|t| t.ident()).map(str::to_string);
            }
            _ => {}
        }
    }
    None
}

fn annotated_name(tokens: &[Token], hash_pos: usize) -> Option<String> {
    let mut j = hash_pos;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match &tokens[j].kind {
            // `::` path separator (two adjacent `:` puncts).
            TokenKind::Punct(':') if j > 0 && tokens[j - 1].is_punct(':') => {
                j -= 1;
            }
            // The annotating `:` — the ident before it is the name.
            TokenKind::Punct(':') => {
                return tokens
                    .get(j.checked_sub(1)?)
                    .and_then(|t| t.ident())
                    .map(str::to_string);
            }
            TokenKind::Ident(s) if s == "std" || s == "collections" || s == "mut" || s == "dyn" => {
            }
            TokenKind::Punct('&') => {}
            TokenKind::Lifetime(_) => {}
            // Any other ident is a path segment (`foo::HashMap` aliases
            // are out of scope) — but only keep walking if it is followed
            // by `::`.
            TokenKind::Ident(_)
                if tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 2).is_some_and(|t| t.is_punct(':')) => {}
            _ => return None,
        }
    }
}

const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// The libm transcendentals `raw-libm` keeps inside `netsim::math`.
const LIBM_METHODS: [&str; 6] = ["exp", "ln", "sin", "cos", "powf", "asin"];

/// One entry on the region stack: a brace-delimited scope with meaning.
struct Region {
    depth: u32,
    test: bool,
    deny_alloc: bool,
}

fn scan(
    path: &str,
    tokens: &[Token],
    hash_idents: &[String],
    policy: &FilePolicy,
    findings: &mut Vec<Finding>,
) {
    let mut depth: u32 = 0;
    let mut regions: Vec<Region> = Vec::new();
    let mut pending_test = false;
    let mut pending_deny = false;

    let is_hash = |tok: Option<&Token>| -> bool {
        tok.and_then(Token::ident)
            .is_some_and(|name| hash_idents.iter().any(|h| h == name))
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let in_test = pendingless_in(&regions, |r| r.test);
        let in_deny = pendingless_in(&regions, |r| r.deny_alloc);

        match &t.kind {
            TokenKind::Punct('#') if tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) => {
                // Scan the attribute to its matching `]`.
                let mut k = i + 2;
                let mut brackets = 1u32;
                let mut attr: Vec<&str> = Vec::new();
                while k < tokens.len() && brackets > 0 {
                    match &tokens[k].kind {
                        TokenKind::Punct('[') => brackets += 1,
                        TokenKind::Punct(']') => brackets -= 1,
                        TokenKind::Ident(s) => attr.push(s),
                        _ => {}
                    }
                    k += 1;
                }
                let is_cfg_test = attr.first() == Some(&"cfg") && attr.contains(&"test");
                if is_cfg_test || attr.as_slice() == ["test"] {
                    pending_test = true;
                }
                if attr.first() == Some(&"deny_alloc") {
                    pending_deny = true;
                }
                i = k;
                continue;
            }
            TokenKind::Punct('{') => {
                depth += 1;
                if pending_test || pending_deny {
                    regions.push(Region {
                        depth,
                        test: pending_test,
                        deny_alloc: pending_deny,
                    });
                    pending_test = false;
                    pending_deny = false;
                }
            }
            TokenKind::Punct('}') => {
                while regions.last().is_some_and(|r| r.depth >= depth) {
                    regions.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokenKind::Ident(name) if !in_test => {
                // --- wall-clock -------------------------------------------------
                if policy.wall_clock {
                    let is_now_path = (name == "Instant" || name == "SystemTime")
                        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                        && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"));
                    if is_now_path {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: t.line,
                            rule: Rule::WallClock,
                            message: format!(
                                "{name}::now() reads the wall clock — use simulated time \
                                 (netsim::SimTime) or the obs::clock shim"
                            ),
                        });
                    }
                    if name == "thread_rng" || name == "from_entropy" {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: t.line,
                            rule: Rule::WallClock,
                            message: format!(
                                "{name} draws OS entropy — derive a seeded stream \
                                 (netsim::rng::SimRng) instead"
                            ),
                        });
                    }
                }

                // --- unwrap / panic! -------------------------------------------
                if policy.unwrap {
                    let after_dot = i > 0 && tokens[i - 1].is_punct('.');
                    let called = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
                    // `self.expect(…)` is an inherent method that happens to
                    // share the name (e.g. a parser's token-expect), not
                    // Option/Result::expect — never flag it.
                    let on_self = i >= 2 && tokens[i - 2].is_ident("self");
                    if after_dot && called && !on_self && (name == "unwrap" || name == "expect") {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: t.line,
                            rule: Rule::Unwrap,
                            message: format!(
                                ".{name}() in library code — propagate a Result, or \
                                 detlint:allow(unwrap, why the invariant holds)"
                            ),
                        });
                    }
                    if name == "panic" && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: t.line,
                            rule: Rule::Unwrap,
                            message: "panic! in library code — return an error, or \
                                      detlint:allow(unwrap, why this is unreachable)"
                                .to_string(),
                        });
                    }
                }

                // --- raw-libm ---------------------------------------------------
                if policy.raw_libm
                    && LIBM_METHODS.contains(&name.as_str())
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                {
                    findings.push(Finding {
                        file: path.to_string(),
                        line: t.line,
                        rule: Rule::RawLibm,
                        message: format!(
                            ".{name}() calls libm directly — use netsim::math::{name}, the \
                             one module whose results depend on the platform's libm"
                        ),
                    });
                }

                // --- deny-alloc ------------------------------------------------
                if in_deny {
                    let bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
                    let after_dot = i > 0 && tokens[i - 1].is_punct('.');
                    let path2 = |a: &str, b: &str| {
                        name == a
                            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                            && tokens.get(i + 3).is_some_and(|t| t.is_ident(b))
                    };
                    let hit = if bang && (name == "format" || name == "vec") {
                        Some(format!("{name}! allocates"))
                    } else if after_dot && ALLOC_METHODS.contains(&name.as_str()) {
                        Some(format!(".{name}() allocates"))
                    } else if path2("String", "from")
                        || path2("String", "new")
                        || path2("Vec", "new")
                        || path2("Box", "new")
                    {
                        let target = tokens[i + 3].ident().unwrap_or("new");
                        Some(format!("{name}::{target} allocates"))
                    } else {
                        None
                    };
                    if let Some(what) = hit {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: t.line,
                            rule: Rule::DenyAlloc,
                            message: format!(
                                "{what} inside a #[deny_alloc] function — the hot path \
                                 must stay allocation-free"
                            ),
                        });
                    }
                }

                // --- hash-iter: `for … in [&[mut]] map {` ----------------------
                if name == "for" {
                    if let Some((ident_pos, line)) = for_loop_over_hash(tokens, i, &is_hash) {
                        findings.push(Finding {
                            file: path.to_string(),
                            line,
                            rule: Rule::HashIter,
                            message: "for-loop over a HashMap/HashSet — iteration order is \
                                      nondeterministic; use BTreeMap/BTreeSet or rank-keyed \
                                      vectors"
                                .to_string(),
                        });
                        float_reduction_in_loop(path, tokens, ident_pos, findings);
                    }
                }

                // --- hash-iter: `map.iter()` and friends -----------------------
                let called = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
                let after_dot = i > 0 && tokens[i - 1].is_punct('.');
                let method_hit = after_dot
                    && called
                    && (HASH_ITER_METHODS.contains(&name.as_str()) || name == "into_iter")
                    && i >= 2
                    && is_hash(tokens.get(i - 2));
                if method_hit {
                    findings.push(Finding {
                        file: path.to_string(),
                        line: t.line,
                        rule: Rule::HashIter,
                        message: format!(
                            ".{name}() on a HashMap/HashSet — iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet or rank-keyed vectors"
                        ),
                    });
                    float_reduction_in_chain(path, tokens, i, findings);
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn pendingless_in(regions: &[Region], f: impl Fn(&Region) -> bool) -> bool {
    regions.iter().any(f)
}

/// Detects `for PAT in [&][mut] IDENT {` where IDENT is a hash container.
/// Returns the position of the container ident.
fn for_loop_over_hash(
    tokens: &[Token],
    for_pos: usize,
    is_hash: &impl Fn(Option<&Token>) -> bool,
) -> Option<(usize, u32)> {
    // Find `in` within the next ~24 tokens (patterns are short).
    let in_pos =
        (for_pos + 1..tokens.len().min(for_pos + 24)).find(|&k| tokens[k].is_ident("in"))?;
    let mut k = in_pos + 1;
    while tokens
        .get(k)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        k += 1;
    }
    let candidate = tokens.get(k)?;
    // The container must be the loop expression itself: `for x in map {`.
    // `for x in map.keys()` is reported by the method rule instead.
    if is_hash(Some(candidate)) && tokens.get(k + 1).is_some_and(|t| t.is_punct('{')) {
        Some((k, candidate.line))
    } else {
        None
    }
}

/// Emits a `float-order` finding when a method-iteration chain ends in a
/// float reduction (`sum`/`fold`/`product`) within the same statement.
///
/// Float evidence (`f64`/`f32`/a float literal) may sit *before* the chain
/// (`let total: f64 = m.values().sum()`) or inside it (`.sum::<f64>()`), so
/// the statement is scanned in both directions from the iteration method.
/// When the chain heads a `for` loop (`for v in m.values() {`), the hazard
/// is a float `+=` in the loop body instead.
fn float_reduction_in_chain(
    path: &str,
    tokens: &[Token],
    from: usize,
    findings: &mut Vec<Finding>,
) {
    // Backward to the statement start: float annotations and `for` headers.
    let mut float_seen = false;
    let mut for_header = false;
    let mut j = from;
    while j > 0 {
        j -= 1;
        match &tokens[j].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
            TokenKind::Ident(s) if s == "for" => for_header = true,
            TokenKind::Ident(s) if s == "f64" || s == "f32" => float_seen = true,
            TokenKind::Number(n) if n.contains('.') => float_seen = true,
            _ => {}
        }
    }
    if for_header {
        if let Some(open) = (from..tokens.len()).find(|&k| tokens[k].is_punct('{')) {
            float_accumulation_in_body(path, tokens, open, findings);
        }
        return;
    }
    let mut reduce_at: Option<&Token> = None;
    for t in tokens.iter().skip(from).take(160) {
        match &t.kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') => break,
            TokenKind::Ident(s) if s == "sum" || s == "fold" || s == "product" => {
                reduce_at = Some(t);
            }
            TokenKind::Ident(s) if s == "f64" || s == "f32" => float_seen = true,
            TokenKind::Number(n) if n.contains('.') => float_seen = true,
            _ => {}
        }
    }
    if let (Some(t), true) = (reduce_at, float_seen) {
        findings.push(Finding {
            file: path.to_string(),
            line: t.line,
            rule: Rule::FloatOrder,
            message: "float reduction over hash-container iteration — float addition is \
                      not associative, so the result depends on iteration order"
                .to_string(),
        });
    }
}

/// Emits a `float-order` finding when a `for`-loop over a hash container
/// accumulates with `+=` and floats are in play.
fn float_reduction_in_loop(
    path: &str,
    tokens: &[Token],
    container_pos: usize,
    findings: &mut Vec<Finding>,
) {
    // Body starts at the `{` right after the container ident.
    let open = container_pos + 1;
    if !tokens.get(open).is_some_and(|t| t.is_punct('{')) {
        return;
    }
    float_accumulation_in_body(path, tokens, open, findings);
}

/// Scans a brace-delimited loop body starting at `open` for a float `+=`
/// accumulation and reports it as a `float-order` finding.
fn float_accumulation_in_body(
    path: &str,
    tokens: &[Token],
    open: usize,
    findings: &mut Vec<Finding>,
) {
    let mut depth = 0i32;
    let mut float_seen = false;
    let mut plus_eq: Option<u32> = None;
    for k in open..tokens.len() {
        match &tokens[k].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Punct('+') if tokens.get(k + 1).is_some_and(|t| t.is_punct('=')) => {
                plus_eq.get_or_insert(tokens[k].line);
            }
            TokenKind::Ident(s) if s == "f64" || s == "f32" => float_seen = true,
            TokenKind::Number(n) if n.contains('.') => float_seen = true,
            _ => {}
        }
    }
    if let (Some(line), true) = (plus_eq, float_seen) {
        findings.push(Finding {
            file: path.to_string(),
            line,
            rule: Rule::FloatOrder,
            message: "float accumulation (`+=`) inside a hash-container loop — reduction \
                      order follows nondeterministic iteration order"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        lint_source_with("crates/fake/src/lib.rs", src, &FilePolicy::strict())
    }

    fn rules(src: &str) -> Vec<Rule> {
        findings(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_paths_fire() {
        assert_eq!(
            rules("fn f() { let t = std::time::Instant::now(); }"),
            [Rule::WallClock]
        );
        assert_eq!(
            rules("fn f() { let t = SystemTime::now(); }"),
            [Rule::WallClock]
        );
        assert_eq!(
            rules("fn f() { let mut r = thread_rng(); }"),
            [Rule::WallClock]
        );
    }

    #[test]
    fn hash_iter_fires_on_let_binding() {
        let src = "fn f() { let m = std::collections::HashMap::new(); for k in m.keys() {} }";
        assert_eq!(rules(src), [Rule::HashIter]);
    }

    #[test]
    fn hash_iter_fires_on_field_annotation() {
        let src = "struct S { index: HashMap<u32, u32> }\n\
                   impl S { fn any(&self) -> bool { self.index.iter().next().is_some() } }";
        assert_eq!(rules(src), [Rule::HashIter]);
    }

    #[test]
    fn hash_iter_ignores_lookup_only_maps() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_fires() {
        let src = "fn f() { let mut s = HashSet::new(); s.insert(1); for x in &s { use_(x); } }";
        assert_eq!(rules(src), [Rule::HashIter]);
    }

    #[test]
    fn btreemap_is_fine() {
        let src = "fn f() { let m = std::collections::BTreeMap::new(); for k in m.keys() {} }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn float_order_fires_with_hash_sum() {
        let src = "fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }";
        let r = rules(src);
        assert!(
            r.contains(&Rule::HashIter) && r.contains(&Rule::FloatOrder),
            "{r:?}"
        );
    }

    #[test]
    fn int_sum_over_hash_is_only_hash_iter() {
        let src = "fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum() }";
        assert_eq!(rules(src), [Rule::HashIter]);
    }

    #[test]
    fn unwrap_and_panic_fire_outside_tests() {
        let r = rules("fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(r, [Rule::Unwrap]);
        let r = rules("fn f() { panic!(\"boom\"); }");
        assert_eq!(r, [Rule::Unwrap]);
    }

    #[test]
    fn tests_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { thread_rng(); x.unwrap(); m.iter(); }\n}";
        assert!(rules(src).is_empty());
        let src = "#[test]\nfn t() { foo.unwrap(); }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn deny_alloc_region_flags_allocs() {
        let src = "#[deny_alloc]\nfn hot(x: &str) -> String { x.to_string() }\n\
                   fn cold(x: &str) -> String { x.to_string() }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DenyAlloc);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn deny_alloc_allows_with_capacity() {
        let src = "#[deny_alloc]\nfn hot(n: usize) { let _v: Vec<u8> = Vec::with_capacity(n); }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn deny_alloc_flags_alloc_on_any_receiver() {
        for recv in ["allocator", "pool", "ctx.scratch"] {
            let src = format!("#[deny_alloc]\nfn hot(l: Layout) {{ let p = {recv}.alloc(l); }}");
            let f = findings(&src);
            assert_eq!(f.len(), 1, "{recv}: {f:?}");
            assert_eq!(f[0].rule, Rule::DenyAlloc);
        }
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // detlint:allow(unwrap, checked by caller)\n}";
        assert!(rules(src).is_empty());
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // detlint:allow(unwrap, checked by caller)\n\
                   x.unwrap()\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // detlint:allow(unwrap)\n}";
        let r = rules(src);
        assert!(r.contains(&Rule::BadAllow), "{r:?}");
        assert!(
            r.contains(&Rule::Unwrap),
            "unsuppressed without reason: {r:?}"
        );
    }

    #[test]
    fn allow_unknown_rule_is_rejected() {
        let src = "fn f() {} // detlint:allow(no-such-rule, because)";
        assert_eq!(rules(src), [Rule::BadAllow]);
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // detlint:allow(hash-iter, wrong rule)\n}";
        assert_eq!(rules(src), [Rule::Unwrap]);
    }

    #[test]
    fn inherent_expect_on_self_is_not_flagged() {
        let src = "impl P { fn kv(&mut self) -> Result<(), E> { self.expect(b':')?; Ok(()) } }";
        assert!(rules(src).is_empty());
        // …but a field's Option::expect still is.
        let src = "impl P { fn kv(&mut self) -> u8 { self.head.expect(\"non-empty\") } }";
        assert_eq!(rules(src), [Rule::Unwrap]);
    }

    #[test]
    fn policy_disables_rules_per_path() {
        let src = "fn main() { let t = std::time::Instant::now(); x.unwrap(); }";
        let f = lint_source("crates/bench/src/bin/tool.rs", src);
        assert!(f.is_empty(), "{f:?}");
        let f = lint_source("crates/measure/src/bin/tool.rs", src);
        // Binaries keep unwrap, but wall-clock still applies.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::WallClock);
    }

    #[test]
    fn raw_libm_is_refused_outside_the_math_module() {
        let src = "pub fn f(x: f64) -> f64 { x.exp() + x.ln() }";
        let f = lint_source("crates/netsim/src/rng.rs", src);
        assert_eq!(
            f.iter().map(|f| f.rule).collect::<Vec<_>>(),
            [Rule::RawLibm; 2]
        );
        assert!(lint_source("crates/netsim/src/math.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/bin/tool.rs", src).is_empty());
    }

    #[test]
    fn string_contents_never_fire() {
        let src = "fn f() { let s = \"Instant::now thread_rng unwrap()\"; use_(s); }";
        assert!(rules(src).is_empty());
    }
}
