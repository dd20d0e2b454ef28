//! A process-wide label interner for the measurement stack's small, hot
//! label vocabularies — vantage labels, resolver hostnames, queried
//! domains, protocol and error-kind labels.
//!
//! Every distinct label string is stored exactly once (leaked, so lookups
//! hand back `&'static str` with no lifetime plumbing) and is represented
//! everywhere else by a copyable 4-byte [`Label`]. Interning a label that
//! has already been seen allocates nothing: it is one read-locked hash
//! lookup. Resolving a [`Label`] back to its string, or to its JSON
//! string token ([`Label::token`], escaped once as [`write_str`] escapes),
//! takes no lock and no read-modify-write: the table is append-only, in
//! chunks of `OnceLock` slots that interning sets under its write lock,
//! so a read is two acquire loads and an index. The table only ever
//! grows, and its size is bounded by the number of *distinct* labels a
//! process touches (a few hundred for a paper-scale campaign), not by
//! record count.
//!
//! Equality compares ids. The [`Ord`] impl compares the *resolved strings*,
//! so `Label` sorts exactly like the label text it stands for — canonical
//! orderings built on labels match the string orderings the output formats
//! promise. Hot paths that sort millions of keys should not lean on this
//! `Ord`; they precompute dense integer ranks once per campaign (see
//! `measure::campaign`) and compare those.

use std::collections::HashMap;
use std::fmt::{self, Write};
use std::sync::{OnceLock, RwLock};

use detlint_macros::deny_alloc;

/// An interned label: a 4-byte handle to a process-wide string table.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Label(u32);

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", self.as_str())
    }
}

/// What a [`Label`] resolves to.
struct Entry {
    text: &'static str,
    token: &'static str,
}

/// Slots in the table's first chunk; chunk `k` holds `FIRST << k`, so
/// [`CHUNKS`] chunks hold every `u32` index.
const FIRST_BITS: u32 = 6;
const FIRST: u64 = 1 << FIRST_BITS;
const CHUNKS: usize = 33 - FIRST_BITS as usize;

/// The append-only table: a chunk is allocated, and a slot set, only
/// under the interner's write lock, and neither is ever replaced.
static TABLE: [OnceLock<Box<[OnceLock<Entry>]>>; CHUNKS] = [const { OnceLock::new() }; CHUNKS];

/// The chunk and the slot within it of label index `i`.
fn slot(i: u32) -> (usize, usize) {
    let j = u64::from(i) + FIRST;
    let k = 63 - j.leading_zeros() - FIRST_BITS;
    (k as usize, (j - (FIRST << k)) as usize)
}

/// Label strings to their indices: what interning looks up and extends.
// `#[deny_alloc]` here is a call-graph barrier as much as a local check:
// every hot-path interning bottoms out in this accessor, and the
// annotation asserts (and detlint enforces) that reaching it allocates
// nothing in the steady state — the init closure runs once per process.
#[deny_alloc]
fn store() -> &'static RwLock<HashMap<&'static str, u32>> {
    static STORE: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(HashMap::new()))
}

impl Label {
    /// Interns `s`, copying (and leaking) it only the first time this
    /// process sees it. Re-interning an existing label is allocation-free.
    pub fn intern(s: &str) -> Label {
        if let Some(l) = Label::find(s) {
            return l;
        }
        // detlint:allow(unwrap, lock poisoning means another thread already panicked; propagating is the only safe option)
        let mut st = store().write().expect("interner poisoned");
        if let Some(&i) = st.get(s) {
            return Label(i);
        }
        // A string with nothing to escape is the inside of its token, so
        // such a label takes one allocation, as it did before tokens.
        let token = quote(s);
        let text = if token.len() == s.len() + 2 {
            &token[1..token.len() - 1]
        } else {
            Box::leak(s.to_owned().into_boxed_str())
        };
        Self::insert(&mut st, text, token)
    }

    /// Interns a string that is already `'static`, avoiding the copy.
    pub fn from_static(s: &'static str) -> Label {
        if let Some(l) = Label::find(s) {
            return l;
        }
        // detlint:allow(unwrap, lock poisoning means another thread already panicked; propagating is the only safe option)
        let mut st = store().write().expect("interner poisoned");
        if let Some(&i) = st.get(s) {
            return Label(i);
        }
        Self::insert(&mut st, s, quote(s))
    }

    /// Sets the next slot of the table to `text` and its `token`, then
    /// indexes it: a [`Label`] exists only for a slot already set.
    fn insert(
        st: &mut HashMap<&'static str, u32>,
        text: &'static str,
        token: &'static str,
    ) -> Label {
        // detlint:allow(unwrap, more than u32::MAX distinct labels is unreachable for this workload)
        let i = u32::try_from(st.len()).expect("label table overflow");
        let (chunk, at) = slot(i);
        let chunk =
            TABLE[chunk].get_or_init(|| (0..FIRST << chunk).map(|_| OnceLock::new()).collect());
        let _ = chunk[at].set(Entry { text, token });
        st.insert(text, i);
        Label(i)
    }

    /// The label for `s`, if some code path has already interned it.
    /// Never inserts, never allocates.
    pub fn find(s: &str) -> Option<Label> {
        store()
            .read()
            // detlint:allow(unwrap, lock poisoning means another thread already panicked; propagating is the only safe option)
            .expect("interner poisoned")
            .get(s)
            .map(|&i| Label(i))
    }

    /// The label's table slot, set before the label was handed out.
    fn entry(self) -> Option<&'static Entry> {
        let (chunk, at) = slot(self.0);
        TABLE[chunk].get()?.get(at)?.get()
    }

    /// The interned string. Takes no lock and allocates nothing.
    pub fn as_str(self) -> &'static str {
        self.entry().map_or("", |e| e.text)
    }

    /// The interned string as one JSON string token, quotes included:
    /// what [`write_str`] appends for it. Takes no lock and allocates
    /// nothing.
    pub fn token(self) -> &'static str {
        self.entry().map_or("\"\"", |e| e.token)
    }

    /// The label's dense table index — stable for the process lifetime,
    /// usable as a direct index into side tables (e.g. rank arrays).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// `s` as a JSON string token, leaked.
fn quote(s: &str) -> &'static str {
    let mut token = String::with_capacity(s.len() + 2);
    write_str(&mut token, s);
    Box::leak(token.into_boxed_str())
}

/// Appends one JSON string literal (quotes and escapes included) to `out`:
/// each run of characters that need no escape — for a label or a key, the
/// whole string — is pushed in one piece. The escaper of a label's
/// [`token`](Label::token), and of `measure`'s record and document
/// writers.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Everything escaped is ASCII, so a byte index here is a char boundary.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    /// Lexicographic order of the resolved strings, so label-keyed maps
    /// iterate exactly like their string-keyed predecessors.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Label::intern("intern-test-alpha");
        let b = Label::intern("intern-test-alpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "intern-test-alpha");
        assert_eq!(Label::find("intern-test-alpha"), Some(a));
    }

    #[test]
    fn static_and_owned_paths_agree() {
        let a = Label::from_static("intern-test-static");
        let b = Label::intern("intern-test-static");
        assert_eq!(a, b);
    }

    #[test]
    fn find_does_not_insert() {
        assert_eq!(Label::find("intern-test-never-interned-xyzzy"), None);
    }

    #[test]
    fn order_matches_string_order() {
        let mut labels = [
            Label::intern("intern-ord-c"),
            Label::intern("intern-ord-a"),
            Label::intern("intern-ord-b"),
        ];
        labels.sort();
        let strs: Vec<&str> = labels.iter().map(|l| l.as_str()).collect();
        assert_eq!(strs, ["intern-ord-a", "intern-ord-b", "intern-ord-c"]);
    }

    #[test]
    fn display_and_as_ref() {
        let l = Label::intern("intern-test-display");
        assert_eq!(format!("{l}"), "intern-test-display");
        assert_eq!(l.as_ref(), "intern-test-display");
    }

    #[test]
    fn tokens_are_the_escaped_strings() {
        for (s, want) in [
            ("intern-token-plain", r#""intern-token-plain""#),
            ("intern-token-\"q\"\\", r#""intern-token-\"q\"\\""#),
            ("intern-token-\n\r\t\u{1}", r#""intern-token-\n\r\t\u0001""#),
            ("intern-token-ünï", r#""intern-token-ünï""#),
        ] {
            assert_eq!(Label::intern(s).token(), want, "{s:?}");
            assert_eq!(Label::intern(s).as_str(), s);
        }
    }

    #[test]
    fn slots_cover_every_index_once() {
        let mut expected = (0, 0);
        for i in 0..10_000u32 {
            assert_eq!(slot(i), expected, "{i}");
            expected.1 += 1;
            if expected.1 == (FIRST as usize) << expected.0 {
                expected = (expected.0 + 1, 0);
            }
        }
        assert_eq!(slot(u32::MAX).0, CHUNKS - 1);
    }

    /// Labels one thread interns resolve, as strings and as tokens, on
    /// another while a third interns enough to add chunks to the table.
    #[test]
    fn labels_resolve_on_another_thread_while_a_third_interns() {
        let text = |i: usize| format!("intern-xthread-sent-{i}-\"");
        let (send, received) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..2_000 {
                    send.send((i, Label::intern(&text(i)))).unwrap();
                }
            });
            scope.spawn(|| {
                for i in 0..2_000 {
                    Label::intern(&format!("intern-xthread-other-{i}"));
                }
            });
            for (i, label) in received {
                let mut token = String::new();
                write_str(&mut token, &text(i));
                assert_eq!(label.as_str(), text(i));
                assert_eq!(label.token(), token);
            }
        });
    }

    #[test]
    fn distinct_labels_have_distinct_indices() {
        let a = Label::intern("intern-test-idx-one");
        let b = Label::intern("intern-test-idx-two");
        assert_ne!(a.index(), b.index());
    }
}
