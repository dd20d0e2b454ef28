//! Phase 1 of the workspace analysis: a symbol index over every file's
//! token stream.
//!
//! One walk per file collects, for every `fn` item, enough structure for
//! the call-graph rules in [`crate::callgraph`]:
//!
//! * **identity** — name, enclosing `impl`/`trait` type (if any), module
//!   path (derived from the file path plus inline `mod` nesting), file and
//!   line;
//! * **annotations** — `#[deny_alloc]`, `#[rng_neutral]`, and whether the
//!   item sits inside a `#[cfg(test)]`/`#[test]` region;
//! * **call sites** — every `name(…)`, `recv.name(…)` and
//!   `Path::name(…)` in the body, plus every `Path::name` handed over as
//!   an argument, with the line it occurs on;
//! * **facts** — the lexical hazards the transitive rules look for:
//!   allocating constructs, panicking constructs, and direct `Rng` draws.
//!
//! Like the lexer, this is deliberately *not* a parser: it tracks exactly
//! the brace/attribute/`impl` structure the rules need and nothing more.
//! Its honest limits (no type inference, no trait dispatch) are what make
//! the call-graph edges in phase 2 *conservative by name* — see
//! [`crate::callgraph`] for how ambiguity is handled.

use crate::lexer::{Lexed, Token, TokenKind};

/// Method names that allocate when called on any receiver (the same set
/// the local `deny-alloc` rule rejects).
pub const ALLOC_METHODS: [&str; 5] = ["to_string", "to_owned", "to_vec", "clone", "alloc"];

/// `SimRng` method names that advance an RNG stream. A call edge into one
/// of these from a `#[rng_neutral]` zone is an `rng-stream` violation.
pub const RNG_DRAW_METHODS: [&str; 7] = [
    "uniform",
    "below",
    "chance",
    "standard_normal",
    "normal",
    "exponential",
    "pareto",
];

/// `rand::Rng` trait draws: calling one of these on any receiver is a
/// direct draw regardless of what the receiver turns out to be.
const RNG_TRAIT_METHODS: [&str; 4] = ["gen", "gen_range", "gen_bool", "gen_ratio"];

/// Rust keywords that can precede a `(` without being a call.
const KEYWORDS: [&str; 29] = [
    "if", "else", "match", "while", "loop", "for", "in", "return", "break", "continue", "let",
    "mut", "ref", "move", "as", "where", "unsafe", "async", "await", "dyn", "fn", "impl", "pub",
    "crate", "super", "mod", "use", "Self", "self",
];

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `recv.name(…)` — receiver type unknown at the token level.
    Method(String),
    /// `Seg::…::name(…)` — the qualifying path segments, then the name.
    Qualified(Vec<String>, String),
    /// `name(…)` — a free-function call.
    Free(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the callee name.
    pub line: u32,
    /// How the callee is named.
    pub callee: Callee,
}

/// One lexical hazard inside a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    /// 1-based line.
    pub line: u32,
    /// What the hazard is, e.g. `format! allocates`.
    pub what: String,
}

/// One indexed function item.
#[derive(Debug)]
pub struct FnSymbol {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if this is a method.
    pub impl_type: Option<String>,
    /// Module path, e.g. `netsim::faults` (file path + inline `mod`s).
    pub module: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Carries `#[deny_alloc]`.
    pub deny_alloc: bool,
    /// Carries `#[rng_neutral]`.
    pub rng_neutral: bool,
    /// Inside a `#[cfg(test)]` region or `#[test]` function.
    pub in_test: bool,
    /// Declared with an unrestricted `pub` (not `pub(crate)`; a trait-impl
    /// method never is, its visibility being the trait's).
    pub is_pub: bool,
    /// May be called from first-party library code (false for `bench`,
    /// `xtask`, `src/bin` and `main.rs` items, which no other crate links
    /// against).
    pub linkable: bool,
    /// Exempt from the `unwrap`-family rules by path policy.
    pub unwrap_exempt: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Allocating constructs in the body.
    pub alloc_facts: Vec<Fact>,
    /// Panicking constructs in the body.
    pub panic_facts: Vec<Fact>,
    /// Direct `Rng` draws in the body.
    pub rng_facts: Vec<Fact>,
}

impl FnSymbol {
    /// True when this is a `SimRng` draw method — the `rng-stream` sinks.
    pub fn is_rng_draw(&self) -> bool {
        self.impl_type.as_deref() == Some("SimRng")
            && RNG_DRAW_METHODS.contains(&self.name.as_str())
    }
}

/// The workspace symbol index: every fn item, with a name lookup table.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// All indexed functions.
    pub fns: Vec<FnSymbol>,
}

impl SymbolIndex {
    /// Indexes one file's token stream into the symbol table.
    pub fn index_file(&mut self, path: &str, lexed: &Lexed) {
        let policy = crate::rules::FilePolicy::for_path(path);
        let walker = Walker {
            path,
            base_module: module_of_path(path),
            linkable: linkable_path(path),
            unwrap_exempt: !policy.unwrap,
        };
        walker.walk(&lexed.tokens, self);
    }
}

/// Whether first-party library code can link against items in this file.
/// `bench`/`xtask` are harnesses and `src/bin`/`main.rs` are executables:
/// no other crate imports them, so edges *into* them from outside are
/// always name collisions.
fn linkable_path(path: &str) -> bool {
    !(path.starts_with("crates/bench/") || path.starts_with("crates/xtask/") || binary_path(path))
}

/// Whether the file is an executable's root: its items are callable from
/// that file alone.
pub(crate) fn binary_path(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("/src/main.rs")
}

/// Derives the module path of a repo-relative file path:
/// `crates/netsim/src/faults.rs` → `netsim::faults`. Files outside the
/// `crates/*/src` layout (UI fixtures) use their stem.
pub fn module_of_path(path: &str) -> String {
    let segments: Vec<&str> = path.split('/').collect();
    if segments.len() >= 4 && segments[0] == "crates" && segments[2] == "src" {
        let krate = segments[1].replace('-', "_");
        let mut parts = vec![krate];
        for (i, seg) in segments[3..].iter().enumerate() {
            let last = i == segments.len() - 4;
            if last {
                let stem = seg.strip_suffix(".rs").unwrap_or(seg);
                if stem != "lib" && stem != "mod" && stem != "main" {
                    parts.push(stem.to_string());
                }
            } else {
                parts.push(seg.to_string());
            }
        }
        parts.join("::")
    } else {
        let stem = segments.last().copied().unwrap_or(path);
        stem.strip_suffix(".rs").unwrap_or(stem).to_string()
    }
}

/// Attribute flags accumulated ahead of the next item.
#[derive(Debug, Default, Clone, Copy)]
struct AttrFlags {
    test: bool,
    deny_alloc: bool,
    rng_neutral: bool,
}

#[derive(Debug)]
enum ScopeKind {
    Module(String),
    Impl(Option<String>),
    Fn(usize),
}

#[derive(Debug)]
struct Scope {
    depth: u32,
    kind: ScopeKind,
    test: bool,
}

#[derive(Debug)]
enum PendingKind {
    Module(String),
    Impl(Option<String>),
    Fn {
        name: String,
        attrs: AttrFlags,
        is_pub: bool,
    },
}

struct Walker<'a> {
    path: &'a str,
    base_module: String,
    linkable: bool,
    unwrap_exempt: bool,
}

impl Walker<'_> {
    fn walk(&self, tokens: &[Token], index: &mut SymbolIndex) {
        let mut depth: u32 = 0;
        let mut scopes: Vec<Scope> = Vec::new();
        let mut attrs = AttrFlags::default();
        // An item head seen but whose `{` has not arrived yet. `sig_depth`
        // tracks `(`/`[` nesting so a `;` inside `[u8; 4]` does not cancel
        // the pending fn.
        let mut pending: Option<(PendingKind, bool)> = None;
        let mut sig_depth: i32 = 0;

        let mut i = 0usize;
        while i < tokens.len() {
            let t = &tokens[i];
            match &t.kind {
                TokenKind::Punct('#') if tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) => {
                    let (flags, next) = parse_attr(tokens, i + 2);
                    attrs.test |= flags.test;
                    attrs.deny_alloc |= flags.deny_alloc;
                    attrs.rng_neutral |= flags.rng_neutral;
                    i = next;
                    continue;
                }
                TokenKind::Punct('{') => {
                    depth += 1;
                    if let Some((kind, test)) = pending.take() {
                        let inherited_test = test || scopes.iter().any(|s| s.test);
                        let kind = match kind {
                            PendingKind::Module(name) => ScopeKind::Module(name),
                            PendingKind::Impl(ty) => ScopeKind::Impl(ty),
                            PendingKind::Fn {
                                name,
                                attrs: fa,
                                is_pub,
                            } => {
                                let impl_type = scopes.iter().rev().find_map(|s| match &s.kind {
                                    ScopeKind::Impl(ty) => Some(ty.clone()),
                                    _ => None,
                                });
                                let module = self.module_path(&scopes);
                                index.fns.push(FnSymbol {
                                    name,
                                    impl_type: impl_type.flatten(),
                                    module,
                                    file: self.path.to_string(),
                                    line: t.line,
                                    deny_alloc: fa.deny_alloc,
                                    rng_neutral: fa.rng_neutral,
                                    in_test: inherited_test || fa.test,
                                    is_pub,
                                    linkable: self.linkable,
                                    unwrap_exempt: self.unwrap_exempt,
                                    calls: Vec::new(),
                                    alloc_facts: Vec::new(),
                                    panic_facts: Vec::new(),
                                    rng_facts: Vec::new(),
                                });
                                ScopeKind::Fn(index.fns.len() - 1)
                            }
                        };
                        scopes.push(Scope {
                            depth,
                            kind,
                            test: inherited_test,
                        });
                    }
                }
                TokenKind::Punct('}') => {
                    while scopes.last().is_some_and(|s| s.depth >= depth) {
                        scopes.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                TokenKind::Punct(c) if pending.is_some() => {
                    match c {
                        '(' | '[' => sig_depth += 1,
                        ')' | ']' => sig_depth -= 1,
                        // A body-less item: `mod x;`, a trait fn decl.
                        ';' if sig_depth == 0 => pending = None,
                        _ => {}
                    }
                }
                TokenKind::Ident(kw) if pending.is_none() => {
                    match kw.as_str() {
                        "mod" => {
                            if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                                pending = Some((PendingKind::Module(name.to_string()), attrs.test));
                                sig_depth = 0;
                                attrs = AttrFlags::default();
                                i += 2;
                                continue;
                            }
                        }
                        "impl" => {
                            pending =
                                Some((PendingKind::Impl(impl_type_of(tokens, i + 1)), attrs.test));
                            sig_depth = 0;
                            attrs = AttrFlags::default();
                        }
                        "trait" => {
                            let ty = tokens.get(i + 1).and_then(Token::ident).map(str::to_string);
                            pending = Some((PendingKind::Impl(ty), attrs.test));
                            sig_depth = 0;
                            attrs = AttrFlags::default();
                        }
                        "fn" => {
                            if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                                pending = Some((
                                    PendingKind::Fn {
                                        name: name.to_string(),
                                        attrs,
                                        is_pub: is_plain_pub(tokens, i),
                                    },
                                    attrs.test,
                                ));
                                sig_depth = 0;
                                attrs = AttrFlags::default();
                                i += 2;
                                continue;
                            }
                        }
                        "struct" | "enum" | "union" | "use" | "const" | "static" | "type" => {
                            attrs = AttrFlags::default();
                        }
                        _ => {
                            // A body token: record calls and facts against
                            // the innermost fn.
                            let owner = scopes.iter().rev().find_map(|s| match s.kind {
                                ScopeKind::Fn(id) => Some(id),
                                _ => None,
                            });
                            if let Some(id) = owner {
                                self.extract(tokens, i, &mut index.fns[id]);
                            }
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn module_path(&self, scopes: &[Scope]) -> String {
        let mut parts = vec![self.base_module.clone()];
        for s in scopes {
            if let ScopeKind::Module(name) = &s.kind {
                parts.push(name.clone());
            }
        }
        parts.join("::")
    }

    /// Records the call site and/or hazard facts rooted at the ident
    /// `tokens[i]` into `f`.
    fn extract(&self, tokens: &[Token], i: usize, f: &mut FnSymbol) {
        let t = &tokens[i];
        let name = match t.ident() {
            Some(n) => n,
            None => return,
        };
        let line = t.line;
        let next_bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));

        // Allocating / panicking macros.
        if next_bang {
            match name {
                "format" | "vec" => f.alloc_facts.push(Fact {
                    line,
                    what: format!("{name}! allocates"),
                }),
                "panic" => f.panic_facts.push(Fact {
                    line,
                    what: "panic!".to_string(),
                }),
                _ => {}
            }
            return;
        }

        let after_dot = i > 0 && tokens[i - 1].is_punct('.');
        let after_path = i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
        // `map(Type::name)`: a path handed over as an argument is as good
        // as a call of it (a variant or constant resolves to no fn).
        let passed = after_path
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.is_punct(')') || t.is_punct(','));
        if !(is_call(tokens, i + 1) || passed) || KEYWORDS.contains(&name) {
            return;
        }

        if after_dot {
            let on_self = i >= 2 && tokens[i - 2].is_ident("self");
            if ALLOC_METHODS.contains(&name) {
                f.alloc_facts.push(Fact {
                    line,
                    what: format!(".{name}() allocates"),
                });
            }
            if (name == "unwrap" || name == "expect") && !on_self {
                f.panic_facts.push(Fact {
                    line,
                    what: format!(".{name}()"),
                });
            }
            if RNG_TRAIT_METHODS.contains(&name) {
                f.rng_facts.push(Fact {
                    line,
                    what: format!(".{name}() draws from an Rng"),
                });
            }
            f.calls.push(CallSite {
                line,
                callee: Callee::Method(name.to_string()),
            });
        } else if after_path {
            let segments = path_segments(tokens, i);
            if let [single] = segments.as_slice() {
                let pair = |a: &str, b: &str| single == a && name == b;
                if pair("String", "from")
                    || pair("String", "new")
                    || pair("Vec", "new")
                    || pair("Box", "new")
                {
                    f.alloc_facts.push(Fact {
                        line,
                        what: format!("{single}::{name} allocates"),
                    });
                }
            }
            f.calls.push(CallSite {
                line,
                callee: Callee::Qualified(segments, name.to_string()),
            });
        } else {
            f.calls.push(CallSite {
                line,
                callee: Callee::Free(name.to_string()),
            });
        }
    }
}

/// True when the `fn` keyword at `fn_pos` is declared `pub` with no
/// restriction: the qualifiers between the visibility and `fn` (`const`,
/// `async`, `unsafe`, `extern "C"`) are skipped, and `pub(crate)` /
/// `pub(super)` end in `)` rather than `pub`.
fn is_plain_pub(tokens: &[Token], fn_pos: usize) -> bool {
    tokens[..fn_pos]
        .iter()
        .rev()
        .find(|t| {
            t.kind != TokenKind::Literal
                && !["const", "async", "unsafe", "extern"]
                    .iter()
                    .any(|q| t.is_ident(q))
        })
        .is_some_and(|t| t.is_ident("pub"))
}

/// Parses an attribute starting just inside `#[`; returns its flags and
/// the token index just past the closing `]`.
fn parse_attr(tokens: &[Token], from: usize) -> (AttrFlags, usize) {
    let mut brackets = 1u32;
    let mut idents: Vec<&str> = Vec::new();
    let mut k = from;
    while k < tokens.len() && brackets > 0 {
        match &tokens[k].kind {
            TokenKind::Punct('[') => brackets += 1,
            TokenKind::Punct(']') => brackets -= 1,
            TokenKind::Ident(s) => idents.push(s),
            _ => {}
        }
        k += 1;
    }
    let mut flags = AttrFlags::default();
    let is_cfg_test =
        idents.first() == Some(&"cfg") && idents.contains(&"test") && !idents.contains(&"not");
    if is_cfg_test || idents.as_slice() == ["test"] {
        flags.test = true;
    }
    // Accept both the imported form (`#[deny_alloc]`) and the qualified
    // one (`#[detlint_macros::deny_alloc]`).
    if idents.contains(&"deny_alloc") && idents.first() != Some(&"cfg") {
        flags.deny_alloc = true;
    }
    if idents.contains(&"rng_neutral") && idents.first() != Some(&"cfg") {
        flags.rng_neutral = true;
    }
    (flags, k)
}

/// True when `tokens[j]` begins an argument list: `(` directly, or a
/// turbofish `::<…>(`.
fn is_call(tokens: &[Token], j: usize) -> bool {
    if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return true;
    }
    // `name::<T, U>(…)`
    if !(tokens.get(j).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<')))
    {
        return false;
    }
    let mut angle = 1i32;
    let mut k = j + 3;
    while k < tokens.len() && angle > 0 {
        match &tokens[k].kind {
            TokenKind::Punct('<') => angle += 1,
            // `->` in a generic argument (`::<fn() -> u8>`) is not a close.
            TokenKind::Punct('>') if !(k > 0 && tokens[k - 1].is_punct('-')) => angle -= 1,
            _ => {}
        }
        k += 1;
        if k > j + 64 {
            return false;
        }
    }
    tokens.get(k).is_some_and(|t| t.is_punct('('))
}

/// Collects the `::`-separated path segments qualifying the callee at
/// `name_pos`: for `a::b::name(`, returns `["a", "b"]`. An unparseable
/// qualifier (e.g. `Foo::<T>::name`) yields an empty list, which resolves
/// to nothing.
fn path_segments(tokens: &[Token], name_pos: usize) -> Vec<String> {
    let mut segments: Vec<String> = Vec::new();
    let mut j = name_pos;
    while j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
        match tokens.get(j - 3).and_then(Token::ident) {
            Some(seg) => {
                segments.push(seg.to_string());
                j -= 3;
            }
            None => return Vec::new(),
        }
    }
    segments.reverse();
    segments
}

/// Extracts the self-type name of an `impl` header starting at `from`
/// (just past the `impl` keyword): the last top-level ident of the type
/// path, honouring `impl Trait for Type` and skipping generic parameter
/// lists. `None` for impls on non-path types (slices, tuples, …).
fn impl_type_of(tokens: &[Token], from: usize) -> Option<String> {
    let mut j = from;
    // Skip the generic parameter list `impl<…>`.
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 1i32;
        j += 1;
        while j < tokens.len() && angle > 0 {
            match &tokens[j].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') if !tokens[j - 1].is_punct('-') => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    let mut last: Option<String> = None;
    let mut angle = 0i32;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('{') | TokenKind::Punct(';') if angle == 0 => break,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') if !tokens[j - 1].is_punct('-') => angle -= 1,
            TokenKind::Ident(s) if angle == 0 => {
                if s == "where" {
                    // The self type is complete; bounds follow.
                    break;
                } else if s == "for" {
                    // Trait impl: the self type follows.
                    last = None;
                } else if s != "dyn" && s != "mut" {
                    last = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index_of(src: &str) -> SymbolIndex {
        let mut index = SymbolIndex::default();
        index.index_file("crates/fake/src/lib.rs", &lex(src));
        index
    }

    #[test]
    fn module_paths_derive_from_file_layout() {
        assert_eq!(
            module_of_path("crates/netsim/src/faults.rs"),
            "netsim::faults"
        );
        assert_eq!(module_of_path("crates/dns-wire/src/lib.rs"), "dns_wire");
        assert_eq!(
            module_of_path("crates/measure/src/sub/mod.rs"),
            "measure::sub"
        );
        assert_eq!(module_of_path("fixture.rs"), "fixture");
    }

    #[test]
    fn free_fns_and_methods_are_indexed() {
        let idx = index_of(
            "pub fn free() {}\n\
             struct S;\n\
             impl S { pub fn method(&self) {} }\n\
             impl Display for S { fn fmt(&self) {} }",
        );
        assert_eq!(idx.fns.len(), 3);
        assert_eq!(idx.fns[0].name, "free");
        assert_eq!(idx.fns[0].impl_type, None);
        assert_eq!(idx.fns[1].impl_type.as_deref(), Some("S"));
        assert_eq!(idx.fns[2].name, "fmt");
        assert_eq!(idx.fns[2].impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn attributes_and_test_regions_mark_fns() {
        let idx = index_of(
            "#[deny_alloc]\nfn hot() {}\n\
             #[rng_neutral]\nfn neutral() {}\n\
             #[cfg(test)]\nmod tests { fn t() {} }\n\
             #[cfg(not(test))]\nmod real { fn r() {} }",
        );
        assert!(idx.fns[0].deny_alloc && !idx.fns[0].rng_neutral);
        assert!(idx.fns[1].rng_neutral && !idx.fns[1].deny_alloc);
        assert!(idx.fns[2].in_test, "{:?}", idx.fns[2]);
        assert!(!idx.fns[3].in_test, "cfg(not(test)) is not a test region");
    }

    #[test]
    fn only_unrestricted_pub_counts_as_pub() {
        let idx = index_of(
            "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\npub const unsafe fn d() {}\n\
             pub extern \"C\" fn e() {}\nimpl Display for S { fn fmt(&self) {} }",
        );
        let flags: Vec<bool> = idx.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(flags, [true, false, false, true, true, false]);
    }

    #[test]
    fn call_sites_classify_method_qualified_free() {
        let idx = index_of(
            "fn f(x: &T) { x.method_call(); helper(2); netsim::faults::hash_decision(1); \
             Self::own(); sum::<f64>(); x.map(Rec::read_line); let k = Kind::Variant; }",
        );
        let calls = &idx.fns[0].calls;
        let kinds: Vec<&Callee> = calls.iter().map(|c| &c.callee).collect();
        assert!(matches!(kinds[0], Callee::Method(m) if m == "method_call"));
        assert!(matches!(kinds[1], Callee::Free(m) if m == "helper"));
        assert!(
            matches!(&kinds[2], Callee::Qualified(q, m) if q == &["netsim", "faults"] && m == "hash_decision")
        );
        assert!(matches!(&kinds[3], Callee::Qualified(q, m) if q == &["Self"] && m == "own"));
        assert!(
            matches!(kinds[4], Callee::Free(m) if m == "sum"),
            "turbofish"
        );
        assert!(matches!(kinds[5], Callee::Method(m) if m == "map"));
        assert!(
            matches!(&kinds[6], Callee::Qualified(q, m) if q == &["Rec"] && m == "read_line"),
            "a path passed as an argument"
        );
        assert_eq!(kinds.len(), 7, "a path in value position is not a call");
    }

    #[test]
    fn facts_are_recorded_per_fn() {
        let idx = index_of(
            "fn a(x: Option<u8>) { let s = y.to_string(); x.unwrap(); panic!(); }\n\
             fn b(r: &mut R) { r.gen_range(0..4); let v = Vec::new(); }",
        );
        assert_eq!(idx.fns[0].alloc_facts.len(), 1);
        assert_eq!(idx.fns[0].panic_facts.len(), 2);
        assert_eq!(idx.fns[1].rng_facts.len(), 1);
        assert_eq!(idx.fns[1].alloc_facts.len(), 1, "Vec::new");
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let idx = index_of("fn outer() { fn inner() { deep(); } shallow(); }");
        assert_eq!(idx.fns.len(), 2);
        let outer = idx.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = idx.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer
            .calls
            .iter()
            .all(|c| c.callee != Callee::Free("deep".into())));
        assert!(inner
            .calls
            .iter()
            .any(|c| c.callee == Callee::Free("deep".into())));
        assert!(outer
            .calls
            .iter()
            .any(|c| c.callee == Callee::Free("shallow".into())));
    }

    #[test]
    fn array_type_semicolon_does_not_cancel_a_fn() {
        let idx = index_of("fn f(x: [u8; 4]) -> [u8; 2] { helper(); }");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].calls.len(), 1);
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let idx = index_of("trait T { fn decl(&self); fn with_default(&self) { helper(); } }");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "with_default");
        assert_eq!(idx.fns[0].impl_type.as_deref(), Some("T"));
    }

    #[test]
    fn simrng_draws_are_recognised() {
        let mut idx = SymbolIndex::default();
        idx.index_file(
            "crates/netsim/src/rng.rs",
            &lex("pub struct SimRng;\nimpl SimRng { pub fn uniform(&mut self) -> f64 { 0.0 } }"),
        );
        assert!(idx.fns[0].is_rng_draw());
    }
}
