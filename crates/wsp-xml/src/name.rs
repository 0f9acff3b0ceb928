//! Qualified names, namespace bindings, and the name interner.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// The namespace URI that the `xml` prefix is implicitly bound to.
pub const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";
/// The namespace URI of namespace declarations themselves.
pub const XMLNS_NS: &str = "http://www.w3.org/2000/xmlns/";

/// Internal storage for one half of a [`QName`].
///
/// Names come in exactly two flavours: compile-time vocabulary
/// (`&'static str`, free to clone) and names discovered while parsing.
/// Parsed names are `Arc<str>` so that cloning a `QName` — which the
/// reader and SOAP layers do constantly (attribute dedup, header
/// extraction, tree clones) — is a refcount bump, not a heap copy.
#[derive(Clone)]
pub(crate) enum NameStr {
    Static(&'static str),
    Shared(Arc<str>),
}

impl NameStr {
    #[inline]
    pub(crate) fn as_str(&self) -> &str {
        match self {
            NameStr::Static(s) => s,
            NameStr::Shared(s) => s,
        }
    }
}

impl From<Cow<'static, str>> for NameStr {
    fn from(value: Cow<'static, str>) -> Self {
        match value {
            Cow::Borrowed(s) => NameStr::Static(s),
            Cow::Owned(s) => NameStr::Shared(Arc::from(s)),
        }
    }
}

/// An expanded XML name: a namespace URI (possibly empty, meaning "no
/// namespace") plus a local part.
///
/// Prefixes are a serialisation artefact and never stored here; the
/// [`crate::writer::Writer`] chooses prefixes when serialising and the
/// reader resolves them when parsing. Clones are cheap (static pointer
/// or refcount bump) — see [`NameTable`] for how parsed names are
/// deduplicated.
#[derive(Clone)]
pub struct QName {
    namespace: NameStr,
    local: NameStr,
}

impl QName {
    /// A name in the given namespace. Pass `""` for no namespace.
    pub fn new(
        namespace: impl Into<Cow<'static, str>>,
        local: impl Into<Cow<'static, str>>,
    ) -> Self {
        QName {
            namespace: namespace.into().into(),
            local: local.into().into(),
        }
    }

    /// A name from two halves the interner already handed out — the
    /// reader interns a namespace URI once per declaration, where a
    /// tree first names it, not once per element that uses its prefix.
    pub(crate) fn from_interned(namespace: NameStr, local: NameStr) -> Self {
        QName { namespace, local }
    }

    /// A name in no namespace.
    pub fn local(local: impl Into<Cow<'static, str>>) -> Self {
        QName {
            namespace: NameStr::Static(""),
            local: local.into().into(),
        }
    }

    /// The namespace URI, `""` when the name is in no namespace.
    pub fn namespace(&self) -> &str {
        self.namespace.as_str()
    }

    /// The local part.
    pub fn local_name(&self) -> &str {
        self.local.as_str()
    }

    /// True if this name lives in `ns` with local part `local`.
    pub fn is(&self, ns: &str, local: &str) -> bool {
        self.namespace.as_str() == ns && self.local.as_str() == local
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        self.namespace.as_str() == other.namespace.as_str()
            && self.local.as_str() == other.local.as_str()
    }
}

impl Eq for QName {}

impl Hash for QName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with the derived Cow-based impl this replaced:
        // hash the string contents, not the representation.
        self.namespace.as_str().hash(state);
        self.local.as_str().hash(state);
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.namespace.as_str(), self.local.as_str())
            .cmp(&(other.namespace.as_str(), other.local.as_str()))
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.namespace().is_empty() {
            write!(f, "{}", self.local_name())
        } else {
            write!(f, "{{{}}}{}", self.namespace(), self.local_name())
        }
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

// --- the interner -----------------------------------------------------------

/// The SOAP/WSA/WSDL/UDDI/P2PS vocabulary is tiny and endlessly
/// repeated, so the table is seeded with it: interning any of these
/// strings returns a `&'static str` and never allocates, counts against
/// the dynamic cap or touches a reference count, even on the very first
/// document a process parses. One whitespace-separated list per family,
/// holding what the crates of this workspace put on the wire (the
/// vocabulary test in `tests/tests/vocabulary.rs` parses one document
/// of each family and fails when a name is missing here).
const SEEDED_VOCABULARY: &[&str] = &[
    // Namespace URIs: SOAP 1.2, WS-Addressing (the March 2004 draft the
    // paper used), WSDL 1.1 and its SOAP 1.2 binding, XSD, XSI, UDDI v2
    // and this repository's own.
    "http://www.w3.org/2003/05/soap-envelope http://schemas.xmlsoap.org/ws/2004/03/addressing
     http://schemas.xmlsoap.org/wsdl/ http://schemas.xmlsoap.org/wsdl/soap12/
     http://www.w3.org/2001/XMLSchema http://www.w3.org/2001/XMLSchema-instance
     http://www.w3.org/XML/1998/namespace http://www.w3.org/2000/xmlns/
     urn:uddi-org:api_v2 urn:wspeer:p2ps urn:wsp:registry urn:wspeer:wsdl-ext",
    // SOAP envelope and fault.
    "Envelope Header Body Fault Code Subcode Value Reason Text Detail mustUnderstand role lang",
    // WS-Addressing.
    "To From ReplyTo FaultTo Action MessageID RelatesTo Address RelationshipType
     EndpointReference ReferenceProperties",
    // WSDL, its SOAP binding, the schema subset and the encoded values.
    "definitions types message part portType operation input output binding service port name
     type element targetNamespace location schema documentation address transport style
     complexType sequence minOccurs maxOccurs nil item return Properties Property",
    // UDDI v2 inquiry and publication.
    "businessService businessEntity businessKey serviceKey bindingTemplates bindingTemplate
     bindingKey accessPoint URLType tModel tModelKey tModelInstanceDetails tModelInstanceInfo
     categoryBag keyedReference keyName keyValue description overviewDoc overviewURL
     find_service find_serviceDetail find_business get_serviceDetail get_tModelDetail
     save_service save_tModel save_business delete_service discard_everything maxRows
     serviceList serviceInfos serviceInfo serviceDetail tModelDetail businessList
     businessInfos businessInfo businessDetail dispositionReport leaseTtlMs",
    // P2PS adverts, queries and frames.
    "Advertise QueryMsg QueryHit Query PipeData Ping Pong ServiceAdvertisement PipeAdvertisement
     Peer Service Name Payload PipeName Attributes Attribute GetDefinition",
    // The replicated registry's shard map and version vector.
    "shardMap shard node members view epoch mapEpoch endpoint get_shardMap dataVersions
     get_dataVersions version deleted",
    // Attribute and metadata locals shared by several of the above.
    "id ttl origin nonce key",
];

/// Cap on dynamically interned entries: a hostile peer streaming
/// endless fresh names must not grow the table without bound. Past the
/// cap, unknown names are still returned (as uncached `Arc`s) — only
/// the dedup stops.
const MAX_DYNAMIC_ENTRIES: usize = 4096;

/// A thread-safe string/QName interner.
///
/// Lookups hash the *borrowed* string, so a hit performs zero
/// allocation; misses store one `Arc<str>` that every later hit shares.
/// [`NameTable::global`] is the instance the reader uses — parse ten
/// thousand SOAP envelopes and every `Envelope`/`Body`/`To` name in
/// every tree points at the same few allocations.
pub struct NameTable {
    // hash-of-str → entries with that hash (collisions resolved by
    // comparing contents). Manual bucketing instead of HashMap<String,_>
    // so lookups never allocate a key.
    entries: Mutex<NameTableInner>,
    hasher: std::collections::hash_map::RandomState,
    /// True for [`NameTable::global`] alone: lookups go through the
    /// calling thread's [`FRONT`] cache first. A cache is per thread,
    /// not per table, so a private table answering from it would hand
    /// out another table's entries and lose count of its own.
    fronted: bool,
}

/// Slots in the per-thread cache in front of the global table. The
/// whole WS vocabulary is a few hundred names; 512 keeps two hot names
/// from sharing a slot without costing a thread more than 12 KiB.
const FRONT_SLOTS: usize = 512;

thread_local! {
    /// Direct-mapped with the neighbouring slot as a second way: a name
    /// has one slot, found without SipHash, and whatever was there
    /// moves next door. A hit is decided by comparing the text, so a
    /// collision is a miss, never a wrong name, and hostile names
    /// cannot grow it. Empty until the thread first parses: a thread
    /// that never does carries three words.
    static FRONT: RefCell<Vec<NameStr>> = const { RefCell::new(Vec::new()) };
}

/// The cache slot of `s`: length, first and last eight bytes, mixed.
/// Cheap rather than collision-resistant — see [`FRONT`].
fn front_slot(s: &str) -> usize {
    let b = s.as_bytes();
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"));
    let (head, tail) = match b.len() {
        n @ 8.. => (word(0), word(n - 8)),
        _ => (b.iter().fold(0, |acc, &x| acc << 8 | u64::from(x)), 0),
    };
    let mixed = (head ^ tail.rotate_left(29) ^ b.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - FRONT_SLOTS.trailing_zeros())) as usize
}

struct NameTableInner {
    buckets: HashMap<u64, Vec<NameStr>>,
    len: usize,
}

impl Default for NameTable {
    fn default() -> Self {
        NameTable::new()
    }
}

impl NameTable {
    /// A fresh table pre-seeded with the WS vocabulary.
    pub fn new() -> NameTable {
        let table = NameTable {
            entries: Mutex::new(NameTableInner {
                buckets: HashMap::new(),
                len: 0,
            }),
            hasher: std::collections::hash_map::RandomState::new(),
            fronted: false,
        };
        {
            let mut inner = table.entries.lock().expect("name table poisoned");
            for s in SEEDED_VOCABULARY
                .iter()
                .flat_map(|f| f.split_ascii_whitespace())
            {
                let hash = table.hasher.hash_one(s);
                inner
                    .buckets
                    .entry(hash)
                    .or_default()
                    .push(NameStr::Static(s));
            }
        }
        table
    }

    /// The process-wide table used by [`crate::parse`].
    pub fn global() -> &'static NameTable {
        static GLOBAL: OnceLock<NameTable> = OnceLock::new();
        GLOBAL.get_or_init(|| NameTable {
            fronted: true,
            ..NameTable::new()
        })
    }

    /// The interned form of `s`: static for the seeded vocabulary and
    /// the empty string, shared with every earlier caller otherwise.
    pub(crate) fn intern(&self, s: &str) -> NameStr {
        if s.is_empty() {
            return NameStr::Static("");
        }
        if !self.fronted {
            return self.intern_shared(s);
        }
        let slot = front_slot(s);
        FRONT
            .try_with(|front| {
                let mut front = front.borrow_mut();
                if front.is_empty() {
                    front.resize(FRONT_SLOTS, NameStr::Static(""));
                }
                if front[slot].as_str() != s {
                    // What was here moves next door, so two hot names
                    // with one slot (`Envelope` and `URLType` are such a
                    // pair) trade places instead of evicting each other.
                    front.swap(slot, slot ^ 1);
                    if front[slot].as_str() != s {
                        front[slot] = self.intern_shared(s);
                    }
                }
                front[slot].clone()
            })
            // A thread tearing down its locals can still parse.
            .unwrap_or_else(|_| self.intern_shared(s))
    }

    fn intern_shared(&self, s: &str) -> NameStr {
        let hash = self.hasher.hash_one(s);
        let mut inner = self.entries.lock().expect("name table poisoned");
        if let Some(bucket) = inner.buckets.get(&hash) {
            if let Some(found) = bucket.iter().find(|e| e.as_str() == s) {
                return found.clone();
            }
        }
        let fresh = NameStr::Shared(Arc::from(s));
        if inner.len < MAX_DYNAMIC_ENTRIES {
            inner.len += 1;
            inner.buckets.entry(hash).or_default().push(fresh.clone());
        }
        fresh
    }

    /// An interned `{ns}local` name. Hits share storage with every
    /// previous caller; the seeded vocabulary never allocates at all.
    pub fn qname(&self, namespace: &str, local: &str) -> QName {
        QName {
            namespace: self.intern(namespace),
            local: self.intern(local),
        }
    }

    /// Number of dynamically interned entries (diagnostics/tests).
    pub fn dynamic_len(&self) -> usize {
        self.entries.lock().expect("name table poisoned").len
    }
}

/// Split a lexical name into `(prefix, local)`. A missing prefix yields
/// `("", name)`.
pub fn split_prefixed(name: &str) -> (&str, &str) {
    // Names are a dozen bytes: a plain scan beats `split_once`'s searcher.
    match name.bytes().position(|b| b == b':') {
        Some(colon) => (&name[..colon], &name[colon + 1..]),
        None => ("", name),
    }
}

/// Check the (slightly simplified) XML `Name` production: names must be
/// non-empty, start with a letter/underscore, and contain no whitespace,
/// `<`, `>`, `&`, quotes or further colons.
pub fn is_valid_ncname(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '\u{B7}'))
}

/// The writer's lexically scoped namespace bindings: `push_scope` /
/// `pop_scope` bracket each element.
#[derive(Debug, Default)]
pub struct NsStack {
    /// The bindings in scope, innermost last: the first `live`. Those
    /// behind them are retired and lend their strings to the next
    /// declaration, which copies nothing when it binds what the retired
    /// one bound — the same vocabulary, document after document.
    bindings: Vec<Binding>,
    live: usize,
    depth: usize,
}

#[derive(Debug, Default)]
struct Binding {
    depth: usize,
    prefix: String,
    uri: String,
    /// ` xmlns:prefix="uri"` as written, escaped once.
    declaration: Vec<u8>,
}

impl NsStack {
    pub fn new() -> Self {
        NsStack::default()
    }

    pub fn push_scope(&mut self) {
        self.depth += 1;
    }

    pub fn pop_scope(&mut self) {
        debug_assert!(self.depth > 0, "pop without matching push");
        while self.live > 0 && self.bindings[self.live - 1].depth == self.depth {
            self.live -= 1;
        }
        self.depth -= 1;
    }

    /// Bind `prefix` to `uri` in the current scope; returns the
    /// binding's index.
    pub fn declare(&mut self, prefix: &str, uri: &str) -> usize {
        let at = self.live;
        if at == self.bindings.len() {
            self.bindings.push(Binding::default());
        }
        self.live += 1;
        let binding = &mut self.bindings[at];
        binding.depth = self.depth;
        if binding.prefix != prefix || binding.uri != uri {
            binding.prefix.clear();
            binding.prefix.push_str(prefix);
            binding.uri.clear();
            binding.uri.push_str(uri);
            let declaration = &mut binding.declaration;
            declaration.clear();
            declaration.extend_from_slice(b" xmlns");
            if !prefix.is_empty() {
                declaration.push(b':');
                declaration.extend_from_slice(prefix.as_bytes());
            }
            declaration.extend_from_slice(b"=\"");
            crate::escape::escape_attr_into(uri, declaration);
            declaration.push(b'"');
        }
        at
    }

    /// Resolve a prefix to its URI. The empty prefix resolves to the
    /// default namespace (possibly `""`). The `xml` prefix is always bound.
    pub fn resolve(&self, prefix: &str) -> Option<&str> {
        if prefix == "xml" {
            return Some(XML_NS);
        }
        match self.live().iter().rev().find(|b| b.prefix == prefix) {
            Some(b) => Some(&b.uri),
            None => prefix.is_empty().then_some(""),
        }
    }

    /// The innermost binding of a non-empty prefix to `uri` that no
    /// closer scope re-binds.
    pub fn bound(&self, uri: &str) -> Option<usize> {
        let live = self.live();
        (0..live.len()).rev().find(|&at| {
            let b = &live[at];
            !b.prefix.is_empty()
                && b.uri == uri
                && live[at + 1..].iter().all(|inner| inner.prefix != b.prefix)
        })
    }

    /// The prefix of binding `at`.
    pub fn prefix(&self, at: usize) -> &str {
        &self.bindings[at].prefix
    }

    /// True if `prefix` is already bound in any live scope.
    pub fn is_bound(&self, prefix: &str) -> bool {
        self.live().iter().any(|b| b.prefix == prefix)
    }

    /// How many bindings are in scope; those declared from now on are
    /// the ones `declarations` shows.
    pub fn in_scope(&self) -> usize {
        self.live
    }

    /// The `xmlns` attributes of the bindings made since there were
    /// `since`, in declaration order.
    pub fn declarations(&self, since: usize) -> impl Iterator<Item = &[u8]> {
        self.live()[since..].iter().map(|b| &b.declaration[..])
    }

    fn live(&self) -> &[Binding] {
        &self.bindings[..self.live]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qname_accessors() {
        let q = QName::new("urn:x", "op");
        assert_eq!(q.namespace(), "urn:x");
        assert_eq!(q.local_name(), "op");
        assert!(q.is("urn:x", "op"));
        assert!(!q.is("urn:y", "op"));
        assert_eq!(format!("{q:?}"), "{urn:x}op");
    }

    #[test]
    fn local_qname_debug_has_no_braces() {
        assert_eq!(format!("{:?}", QName::local("plain")), "plain");
    }

    #[test]
    fn qname_equality_ignores_representation() {
        let built = QName::new("urn:x", "op");
        let owned = QName::new("urn:x".to_owned(), "op".to_owned());
        let interned = NameTable::new().qname("urn:x", "op");
        assert_eq!(built, owned);
        assert_eq!(built, interned);
        use std::collections::hash_map::DefaultHasher;
        let hash = |q: &QName| {
            let mut h = DefaultHasher::new();
            q.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&built), hash(&owned));
        assert_eq!(hash(&built), hash(&interned));
    }

    #[test]
    fn qname_ordering_by_namespace_then_local() {
        let mut names = [
            QName::new("urn:b", "a"),
            QName::new("urn:a", "z"),
            QName::new("urn:a", "a"),
        ];
        names.sort();
        assert!(names[0].is("urn:a", "a"));
        assert!(names[1].is("urn:a", "z"));
        assert!(names[2].is("urn:b", "a"));
    }

    #[test]
    fn interner_shares_storage() {
        let table = NameTable::new();
        let a = table.qname("urn:dynamic", "op");
        let before = table.dynamic_len();
        let b = table.qname("urn:dynamic", "op");
        assert_eq!(a, b);
        assert_eq!(table.dynamic_len(), before, "hit added no entries");
    }

    #[test]
    fn seeded_vocabulary_interns_without_growth() {
        let table = NameTable::new();
        let q = table.qname("http://www.w3.org/2003/05/soap-envelope", "Envelope");
        assert!(q.is("http://www.w3.org/2003/05/soap-envelope", "Envelope"));
        assert_eq!(table.dynamic_len(), 0);
    }

    #[test]
    fn interner_caps_dynamic_growth() {
        let table = NameTable::new();
        for i in 0..(MAX_DYNAMIC_ENTRIES + 50) {
            let _ = table.qname("", &format!("hostile{i}"));
        }
        assert!(table.dynamic_len() <= MAX_DYNAMIC_ENTRIES);
        // Past the cap, names still come back correct.
        let q = table.qname("urn:late", "arrival");
        assert!(q.is("urn:late", "arrival"));
    }

    #[test]
    fn front_cache_never_answers_with_another_name() {
        // The slot depends on length, first and last eight bytes only,
        // so these fifty share one: every lookup but a repeat evicts.
        let colliding: Vec<String> = (0..50).map(|i| format!("samehead{i:04}sametail")).collect();
        let slot = front_slot(&colliding[0]);
        assert!(colliding.iter().all(|name| front_slot(name) == slot));
        // And more names than there are slots, seeded ones among them.
        let mut names: Vec<String> = (0..2 * FRONT_SLOTS).map(|i| format!("n{i}")).collect();
        names.extend(colliding);
        names.extend(["Envelope", "Body", "urn:uddi-org:api_v2"].map(String::from));
        let table = NameTable::global();
        for round in 0..3 {
            for stride in [1, 7, 51] {
                for i in (0..names.len()).map(|i| (i * stride + round) % names.len()) {
                    let q = table.qname(&names[(i + 1) % names.len()], &names[i]);
                    assert_eq!(q.local_name(), names[i]);
                    assert_eq!(q.namespace(), names[(i + 1) % names.len()]);
                }
            }
        }
        // A private table is not fronted: it counts what it was asked.
        let private = NameTable::new();
        private.qname("n1", "n2");
        assert_eq!(
            private.dynamic_len(),
            2,
            "names the global table already holds"
        );
    }

    #[test]
    fn split_prefixed_names() {
        assert_eq!(split_prefixed("soap:Envelope"), ("soap", "Envelope"));
        assert_eq!(split_prefixed("Envelope"), ("", "Envelope"));
    }

    #[test]
    fn ncname_validation() {
        assert!(is_valid_ncname("Envelope"));
        assert!(is_valid_ncname("_private-1.2"));
        assert!(!is_valid_ncname(""));
        assert!(!is_valid_ncname("1abc"));
        assert!(!is_valid_ncname("a b"));
        assert!(!is_valid_ncname("a:b"));
    }

    #[test]
    fn ns_stack_scoping() {
        let mut st = NsStack::new();
        st.push_scope();
        st.declare("a", "urn:one");
        assert_eq!(st.resolve("a"), Some("urn:one"));
        st.push_scope();
        st.declare("a", "urn:two");
        assert_eq!(st.resolve("a"), Some("urn:two"));
        st.pop_scope();
        assert_eq!(st.resolve("a"), Some("urn:one"));
        st.pop_scope();
        assert_eq!(st.resolve("a"), None);
    }

    #[test]
    fn default_namespace_undeclaration() {
        let mut st = NsStack::new();
        st.push_scope();
        st.declare("", "urn:default");
        assert_eq!(st.resolve(""), Some("urn:default"));
        st.push_scope();
        st.declare("", "");
        assert_eq!(st.resolve(""), Some(""));
        st.pop_scope();
        assert_eq!(st.resolve(""), Some("urn:default"));
    }

    #[test]
    fn xml_prefix_always_bound() {
        let st = NsStack::new();
        assert_eq!(st.resolve("xml"), Some(XML_NS));
    }

    #[test]
    fn prefix_for_skips_shadowed_bindings() {
        let mut st = NsStack::new();
        st.push_scope();
        st.declare("p", "urn:one");
        st.push_scope();
        st.declare("p", "urn:two");
        // "p" now means urn:two, so urn:one has no usable prefix.
        assert_eq!(st.bound("urn:one"), None);
        assert_eq!(st.bound("urn:two").map(|at| st.prefix(at)), Some("p"));
    }
}
