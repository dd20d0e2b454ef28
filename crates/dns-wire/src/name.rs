//! Domain names: parsing, formatting, wire encoding with compression, and
//! decoding with compression-pointer chasing (RFC 1035 §3.1 and §4.1.4).

use std::collections::HashMap;
use std::fmt;

use crate::error::WireError;
use crate::wire::{Reader, Writer};

/// Maximum octets in one label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum octets of a name in wire form (including the root length octet).
pub const MAX_NAME_LEN: usize = 255;
/// Pointer-follow budget; real names never need more than a handful.
const MAX_POINTERS: usize = 64;

/// A fully-qualified domain name as a sequence of labels.
///
/// Comparison and hashing are ASCII case-insensitive, per RFC 1035 §2.3.3
/// ("no significance is attached to the case"). The original case is
/// preserved for display and encoding.
///
/// Beside its labels a name keeps its canonical key: the labels from the
/// TLD down, lower-cased, each closed by the terminator `00 00`, with a
/// zero octet inside a label escaped as `00 01`. The terminator sorts
/// below every label octet, so comparing two keys as byte strings is RFC
/// 4034 §6.1's canonical order; `Ord`, `Eq` and `Hash` compare keys, and a
/// name's ancestors' keys are exactly its key's prefixes that end on a
/// terminator.
///
/// ```
/// use dns_wire::Name;
/// let a = Name::parse("Example.COM").unwrap();
/// let b = Name::parse("example.com.").unwrap();
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), "Example.COM.");
/// assert_eq!(a.label_count(), 2);
/// ```
#[derive(Clone, Default)]
pub struct Name {
    /// The labels in wire form, most-specific first: a length octet, then
    /// the label's octets. The root's terminating zero octet is not
    /// stored.
    wire: Vec<u8>,
    /// The canonical key (see the type's documentation).
    key: Vec<u8>,
}

/// The labels of a wire-form label sequence, most-specific first.
#[derive(Clone)]
struct Labels<'a>(&'a [u8]);

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.0.split_first()?;
        let (label, rest) = rest.split_at(len as usize);
        self.0 = rest;
        Some(label)
    }
}

/// Octets `label` takes in a canonical key: one per octet, one more per
/// zero octet, and the two of the terminator.
fn key_len(label: &[u8]) -> usize {
    label.len() + label.iter().filter(|&&b| b == 0).count() + 2
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name::default()
    }

    /// A name from its labels in wire form (already validated), with its
    /// canonical key. The key is filled from its end, since the labels run
    /// in the opposite order; zeros pre-fill the terminators and the first
    /// octet of each escape.
    fn from_wire(wire: Vec<u8>) -> Self {
        let total = Labels(&wire).map(key_len).sum();
        let mut key = vec![0u8; total];
        let mut end = total;
        for label in Labels(&wire) {
            end -= key_len(label);
            let mut at = end;
            for &b in label {
                if b == 0 {
                    key[at + 1] = 1;
                    at += 2;
                } else {
                    key[at] = b.to_ascii_lowercase();
                    at += 1;
                }
            }
        }
        Name { wire, key }
    }

    /// Parses a presentation-format name (`"www.example.com"` or with a
    /// trailing dot). Escapes are not supported; bytes outside label syntax
    /// are accepted as-is except `.` which always separates labels.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.'))
    }

    /// Builds a name from raw labels. Each label must be 1–63 octets.
    pub fn from_labels<I, L>(iter: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for l in iter {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::InvalidText {
                    reason: "empty label",
                });
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(l.len()));
            }
            wire.push(l.len() as u8);
            wire.extend_from_slice(l);
        }
        let name = Name::from_wire(wire);
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Number of labels, excluding the root.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Iterates over the labels from most-specific to TLD.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        Labels(&self.wire)
    }

    /// Uncompressed wire length: one length octet per label, each label's
    /// octets, and the terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// The parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        let first = self.labels().next()?;
        Some(Name::from_wire(self.wire[1 + first.len()..].to_vec()))
    }

    /// True if `self` equals `other` or is a subdomain of it.
    /// Every name is under the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.key.starts_with(&other.key)
    }

    /// Prepends a label, producing a child name.
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> Result<Name, WireError> {
        Name::from_labels(std::iter::once(label.as_ref()).chain(self.labels()))
    }

    /// Encodes without compression.
    pub fn encode_uncompressed(&self, w: &mut Writer) -> Result<(), WireError> {
        w.write_slice(&self.wire)?;
        w.write_u8(0)
    }

    /// Encodes with RFC 1035 §4.1.4 compression.
    ///
    /// `compressor` remembers the offset at which each suffix of each name
    /// was written; when a suffix recurs, a two-octet pointer replaces it.
    /// A suffix is known by its canonical key, the prefix of the name's
    /// key its labels fill.
    pub fn encode_compressed(
        &self,
        w: &mut Writer,
        compressor: &mut NameCompressor,
    ) -> Result<(), WireError> {
        // Walk suffixes from the full name downward; emit labels until a
        // suffix that was seen before, then emit a pointer to it.
        let mut suffix = self.key.as_slice();
        for label in self.labels() {
            match compressor.offsets.get(suffix) {
                // Pointers only address the first 14 bits of offset space.
                Some(&offset) if offset <= 0x3FFF => {
                    return w.write_u16(0xC000 | offset as u16);
                }
                Some(_) => {}
                // Record this suffix's position before writing it, if
                // addressable.
                None if w.len() <= 0x3FFF => {
                    compressor.offsets.insert(suffix.to_vec(), w.len());
                }
                None => {}
            }
            w.write_u8(label.len() as u8)?;
            w.write_slice(label)?;
            suffix = &suffix[..suffix.len() - key_len(label)];
        }
        w.write_u8(0)
    }

    /// Decodes a (possibly compressed) name starting at the reader's cursor.
    ///
    /// The cursor ends just past the name's last octet *in the original
    /// stream* (i.e. past the pointer, if one was followed).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut wire = Vec::new();
        let mut jumps = 0usize;
        // Position to restore after the first pointer jump.
        let mut resume: Option<usize> = None;
        let full = r.full_buffer();

        loop {
            let at = r.position();
            let len = r.read_u8("name label length")?;
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        break;
                    }
                    let l = r.read_slice(len as usize, "name label")?;
                    // The label, its length octet and the root octet.
                    let wire_len = wire.len() + 1 + l.len() + 1;
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(wire_len));
                    }
                    wire.push(len);
                    wire.extend_from_slice(l);
                }
                0xC0 => {
                    let lo = r.read_u8("compression pointer")?;
                    let target = (((len & 0x3F) as usize) << 8) | lo as usize;
                    // Pointers must point strictly backwards to terminate.
                    if target >= at {
                        return Err(WireError::BadPointer { at, target });
                    }
                    if target >= full.len() {
                        return Err(WireError::BadPointer { at, target });
                    }
                    jumps += 1;
                    if jumps > MAX_POINTERS {
                        return Err(WireError::PointerLimit);
                    }
                    if resume.is_none() {
                        resume = Some(r.position());
                    }
                    r.seek(target);
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }

        if let Some(pos) = resume {
            r.seek(pos);
        }
        Ok(Name::from_wire(wire))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): label by label from the
    /// rightmost (TLD) label, lowercased — the order of the keys.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl fmt::Debug for Name {
    /// `Name { labels: [[…], …] }`: each label's octets, most-specific
    /// first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct List<'a>(&'a Name);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.labels()).finish()
            }
        }
        f.debug_struct("Name").field("labels", &List(self)).finish()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for l in self.labels() {
            for &b in l {
                // Present non-printable bytes as escaped decimal, like dig.
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// Remembers name suffix positions during message encoding so later names
/// can be compressed to pointers.
#[derive(Debug, Default)]
pub struct NameCompressor {
    /// Offsets by suffix key.
    offsets: HashMap<Vec<u8>, usize>,
}

impl NameCompressor {
    /// Creates an empty compressor; one per message being encoded.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "example.com.",
            "a.b.c.d.e.",
            "x.",
            "sub.domain.example.org.",
        ] {
            assert_eq!(Name::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn trailing_dot_is_optional() {
        assert_eq!(
            Name::parse("example.com").unwrap(),
            Name::parse("example.com.").unwrap()
        );
    }

    #[test]
    fn root_name() {
        let r = Name::parse(".").unwrap();
        assert!(r.is_root());
        assert_eq!(r.to_string(), ".");
        assert_eq!(r.wire_len(), 1);
        // Empty string also parses as root.
        assert!(Name::parse("").unwrap().is_root());
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        let a = Name::parse("WWW.Example.COM").unwrap();
        let b = Name::parse("www.example.com").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn rejects_oversized_labels_and_names() {
        let long_label = "a".repeat(64);
        assert!(matches!(
            Name::parse(&long_label),
            Err(WireError::LabelTooLong(64))
        ));
        let long_name = vec!["a".repeat(63); 5].join(".");
        assert!(matches!(
            Name::parse(&long_name),
            Err(WireError::NameTooLong(_))
        ));
    }

    #[test]
    fn rejects_empty_labels() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(".a").is_err());
    }

    #[test]
    fn wire_len_matches_encoding() {
        let n = Name::parse("dns.example.com").unwrap();
        let mut w = Writer::new();
        n.encode_uncompressed(&mut w).unwrap();
        assert_eq!(w.len(), n.wire_len());
        assert_eq!(w.as_slice(), b"\x03dns\x07example\x03com\x00".as_slice());
    }

    #[test]
    fn uncompressed_round_trip() {
        let n = Name::parse("a.bb.ccc.dddd.example").unwrap();
        let mut w = Writer::new();
        n.encode_uncompressed(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Name::decode(&mut r).unwrap();
        assert_eq!(back, n);
        assert!(r.is_empty());
    }

    #[test]
    fn compression_emits_pointer_for_shared_suffix() {
        let mut w = Writer::new();
        let mut c = NameCompressor::new();
        let n1 = Name::parse("www.example.com").unwrap();
        let n2 = Name::parse("mail.example.com").unwrap();
        n1.encode_compressed(&mut w, &mut c).unwrap();
        let first_len = w.len();
        n2.encode_compressed(&mut w, &mut c).unwrap();
        // Second name: "mail" label (5 octets) + 2-octet pointer.
        assert_eq!(w.len() - first_len, 5 + 2);

        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Name::decode(&mut r).unwrap(), n1);
        assert_eq!(Name::decode(&mut r).unwrap(), n2);
        assert!(r.is_empty());
    }

    #[test]
    fn identical_name_compresses_to_bare_pointer() {
        let mut w = Writer::new();
        let mut c = NameCompressor::new();
        let n = Name::parse("example.com").unwrap();
        n.encode_compressed(&mut w, &mut c).unwrap();
        let first = w.len();
        n.encode_compressed(&mut w, &mut c).unwrap();
        assert_eq!(w.len() - first, 2, "repeat should be a lone pointer");
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut w = Writer::new();
        let mut c = NameCompressor::new();
        Name::parse("Example.COM")
            .unwrap()
            .encode_compressed(&mut w, &mut c)
            .unwrap();
        let first = w.len();
        Name::parse("example.com")
            .unwrap()
            .encode_compressed(&mut w, &mut c)
            .unwrap();
        assert_eq!(w.len() - first, 2);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 targeting offset 0 (self-loop / non-backwards).
        let bytes = [0xC0, 0x00];
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_pointer_loop() {
        // offset0: label "a", then pointer to 0 => "a" then loops: a -> ptr(0)
        // reading at 0 again yields label 'a' then pointer to 0 again — the
        // strictly-backwards rule turns this into BadPointer on the second hop.
        let bytes = [0x01, b'a', 0xC0, 0x00, 0x00];
        let mut r = Reader::new(&bytes);
        r.seek(2);
        // target 0 < at 2 is legal for hop 1; then at offset 2 the pointer
        // targets 0 again which is < 2... this loops via the same path, so the
        // name grows unboundedly; the NameTooLong guard must fire.
        let res = Name::decode(&mut r);
        assert!(res.is_err());
    }

    #[test]
    fn decode_rejects_unknown_label_type() {
        let bytes = [0x80, 0x01];
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(WireError::BadLabelType(0x80))
        ));
    }

    #[test]
    fn decode_resumes_after_pointer() {
        // buffer: name "com" at 0, then name "a" + pointer->0, then 0xFF sentinel
        let mut w = Writer::new();
        Name::parse("com")
            .unwrap()
            .encode_uncompressed(&mut w)
            .unwrap();
        let start2 = w.len();
        w.write_u8(1).unwrap();
        w.write_u8(b'a').unwrap();
        w.write_u16(0xC000).unwrap();
        w.write_u8(0xFF).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.seek(start2);
        let n = Name::decode(&mut r).unwrap();
        assert_eq!(n, Name::parse("a.com").unwrap());
        assert_eq!(r.read_u8("sentinel").unwrap(), 0xFF);
    }

    #[test]
    fn subdomain_relationships() {
        let apex = Name::parse("example.com").unwrap();
        let www = Name::parse("www.example.com").unwrap();
        let other = Name::parse("example.org").unwrap();
        assert!(www.is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!apex.is_subdomain_of(&www));
        assert!(!other.is_subdomain_of(&apex));
        assert!(www.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn parent_and_child() {
        let www = Name::parse("www.example.com").unwrap();
        let apex = www.parent().unwrap();
        assert_eq!(apex, Name::parse("example.com").unwrap());
        assert_eq!(apex.child("www").unwrap(), www);
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn canonical_ordering_is_by_reversed_labels() {
        let mut names = [
            Name::parse("z.example.com").unwrap(),
            Name::parse("example.com").unwrap(),
            Name::parse("a.example.com").unwrap(),
            Name::parse("example.org").unwrap(),
        ];
        names.sort();
        let strs: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            strs,
            vec![
                "example.com.",
                "a.example.com.",
                "z.example.com.",
                "example.org."
            ]
        );
    }

    #[test]
    fn display_escapes_non_printable() {
        let n = Name::from_labels([&b"a\x00b"[..]]).unwrap();
        assert_eq!(n.to_string(), "a\\000b.");
    }

    #[test]
    fn from_labels_validates() {
        assert!(Name::from_labels([&b""[..]]).is_err());
        assert!(Name::from_labels([vec![b'a'; 64]]).is_err());
    }
}
