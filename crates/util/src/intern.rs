//! Deterministic string interning for bounded-vocabulary hot strings.
//!
//! The crawler compares and clones the same small set of strings millions of
//! times per run: hostnames, registered domains, crawler labels, token names.
//! [`IStr`] wraps those in a shared `Arc<str>` handed out by a process-global
//! interner, so
//!
//! - cloning is a reference-count bump instead of a heap copy, and
//! - equality between two interned copies of the same text is a pointer
//!   compare (with a content-compare fallback so `IStr` built from different
//!   interner generations, or compared across tests, still behaves like a
//!   plain string).
//!
//! Determinism: interning never observes insertion order. `IStr` hashes,
//! compares, orders, and serializes exactly like the `str` it wraps, so a
//! dataset built from interned strings is byte-identical to one built from
//! owned `String`s. The interner itself is only an allocation cache.
//!
//! Cardinality rule (see DESIGN.md "Performance"): intern only values drawn
//! from a *bounded* vocabulary — hostnames of the generated world, registered
//! domains, crawler/profile labels, query-parameter names. Never intern
//! minted UIDs, timestamps, or full URLs: the global table is never freed, so
//! unbounded inputs would leak for the life of the process.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on per-thread read-through cache entries. The bounded
/// vocabulary (hostnames, domains, labels) stays far under this; the cap
/// only fires if a caller violates the cardinality rule, in which case
/// we drop the whole cache rather than pick eviction victims.
const LOCAL_CACHE_CAP: usize = 8192;

thread_local! {
    /// Per-thread read-through cache over the global interner. Holds
    /// clones of canonical `Arc<str>`s keyed by content, probed with
    /// `&str` through `Borrow<str>` — a hit costs one hash of a small
    /// string and zero locks.
    static LOCAL_CACHE: RefCell<HashSet<IStr>> = RefCell::new(HashSet::new());
}

/// An interned, immutable, cheaply clonable string.
///
/// Behaves like `&str`/`String` everywhere it matters: `Deref<Target = str>`,
/// `Display`, ordering and hashing by content, and transparent serde (it
/// serializes as a plain string and re-interns on deserialize).
#[derive(Clone)]
pub struct IStr(Arc<str>);

impl IStr {
    /// Intern `s` in the process-global table and return a shared handle.
    ///
    /// Repeat hits are served from a thread-local read-through cache:
    /// after a worker thread has seen a string once, re-interning it
    /// never touches a shard lock again. The cache holds clones of the
    /// canonical `Arc`s, so every path still hands out the same
    /// allocation (pointer equality across threads is preserved).
    pub fn new(s: &str) -> Self {
        LOCAL_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(hit) = cache.get(s) {
                return hit.clone();
            }
            let interned = global().intern(s);
            // The vocabulary rule (bounded inputs only) bounds the global
            // table; the cap below is just belt-and-braces so a rogue
            // caller can't bloat every thread too.
            if cache.len() >= LOCAL_CACHE_CAP {
                cache.clear();
            }
            cache.insert(interned.clone());
            interned
        })
    }

    /// View the interned text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether two handles share the same allocation (same interner entry).
    ///
    /// This is an implementation detail exposed for tests; equality via
    /// `==` is what callers should use.
    pub fn ptr_eq(a: &IStr, b: &IStr) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

/// Intern `s` in the process-global table (convenience for [`IStr::new`]).
pub fn intern(s: &str) -> IStr {
    IStr::new(s)
}

impl PartialEq for IStr {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for IStr {}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == &*other.0
    }
}

impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == &*other.0
    }
}

impl Hash for IStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `str`'s hash so maps keyed by `IStr` can be probed
        // with `&str` through `Borrow<str>`.
        self.0.hash(state);
    }
}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr::new(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        IStr::new(&s)
    }
}

impl Default for IStr {
    fn default() -> Self {
        IStr::new("")
    }
}

impl serde::Serialize for IStr {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.str(&self.0);
    }

    fn to_key(&self) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.0)
    }
}

impl serde::Deserialize for IStr {
    fn deserialize<S: serde::Source>(src: &mut S) -> Result<Self, serde::DeError> {
        match src.peek()? {
            serde::Kind::String => Ok(IStr::new(src.str()?)),
            other => Err(serde::DeError::expected("a string", other)),
        }
    }
}

/// Sharded interning table. Sharding keeps lock contention negligible when
/// many crawl workers intern concurrently; determinism is unaffected because
/// the table is pure cache (which shard a string lands in never leaks into
/// any output).
pub struct Interner {
    shards: [Mutex<HashSet<Arc<str>>>; SHARDS],
}

const SHARDS: usize = 16;

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            shards: std::array::from_fn(|_| Mutex::new(HashSet::new())),
        }
    }

    /// Intern `s`, returning the canonical shared handle for its content.
    pub fn intern(&self, s: &str) -> IStr {
        let shard = &self.shards[Self::shard_of(s)];
        let mut set = shard.lock().expect("interner shard poisoned");
        if let Some(existing) = set.get(s) {
            return IStr(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(s);
        set.insert(Arc::clone(&arc));
        IStr(arc)
    }

    /// Number of distinct strings currently interned (all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("interner shard poisoned").len())
            .sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(s: &str) -> usize {
        // FNV-1a over the bytes; independent of the HashSet's hasher so a
        // pathological std-hash interaction can't pile everything into one
        // shard.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) % SHARDS
    }
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn round_trips_content() {
        let a = intern("www.example.com");
        assert_eq!(a.as_str(), "www.example.com");
        assert_eq!(a, "www.example.com");
        assert_eq!(a, String::from("www.example.com"));
    }

    #[test]
    fn same_content_shares_allocation() {
        let a = intern("shared.example");
        let b = intern("shared.example");
        assert!(IStr::ptr_eq(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_content_differs() {
        assert_ne!(intern("a.example"), intern("b.example"));
    }

    #[test]
    fn orders_and_hashes_like_str() {
        let mut by_istr: BTreeMap<IStr, u32> = BTreeMap::new();
        let mut by_string: BTreeMap<String, u32> = BTreeMap::new();
        for (i, s) in ["zeta", "alpha", "mid", "alpha"].iter().enumerate() {
            by_istr.insert(intern(s), i as u32);
            by_string.insert(s.to_string(), i as u32);
        }
        let a: Vec<_> = by_istr.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let b: Vec<_> = by_string.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn map_lookup_by_str_works() {
        let mut m: std::collections::HashMap<IStr, u32> = std::collections::HashMap::new();
        m.insert(intern("key.example"), 7);
        assert_eq!(m.get("key.example"), Some(&7));
    }

    #[test]
    fn serde_matches_plain_string() {
        let a = intern("t0.example");
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, serde_json::to_string("t0.example").unwrap());
        let back: IStr = serde_json::from_str(&json).unwrap();
        assert!(IStr::ptr_eq(&a, &back));
    }

    #[test]
    fn thread_cache_preserves_cross_thread_sharing() {
        // The read-through cache must hand out the *canonical* Arc, so
        // handles interned on different threads still share one
        // allocation.
        let here = intern("cache.cross-thread.example");
        let there = std::thread::spawn(|| intern("cache.cross-thread.example"))
            .join()
            .unwrap();
        assert!(IStr::ptr_eq(&here, &there));
        // And repeat interns on the same thread are cache hits that
        // still alias the same allocation.
        assert!(IStr::ptr_eq(&here, &intern("cache.cross-thread.example")));
    }

    #[test]
    fn local_interner_is_isolated() {
        let local = Interner::new();
        assert!(local.is_empty());
        let a = local.intern("only.local");
        let b = local.intern("only.local");
        assert!(IStr::ptr_eq(&a, &b));
        assert_eq!(local.len(), 1);
        // A global handle for the same text is content-equal even though it
        // comes from a different table.
        assert_eq!(a, intern("only.local"));
    }
}
