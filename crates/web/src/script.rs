//! The script execution interface between the synthetic web and the browser.
//!
//! Real trackers run JavaScript in the page's top-level frame: they read and
//! write first-party storage, compute fingerprints, decorate links, and fire
//! beacon requests. The simulator expresses those *effects* against a
//! [`ScriptHost`] — implemented by `cc-browser` — so the web crate never
//! depends on browser internals and the browser enforces its storage policy
//! (partitioned or flat) uniformly.
//!
//! This module also defines the **ground-truth ledger** ([`TokenTruth`],
//! [`TruthLog`]): every value the web mints is labeled at mint time, which
//! lets the test suite score the pipeline's precision/recall — something the
//! paper could not do against the live web.

use cc_net::{SimDuration, SimTime};
use cc_url::Url;
use cc_util::DetRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::tracker::TrackerId;

/// Where a script stores a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageKind {
    /// A first-party cookie with an optional persistent lifetime
    /// (`None` = browser-session cookie).
    Cookie(Option<SimDuration>),
    /// A localStorage entry (no expiry).
    Local,
}

/// The environment a page's scripts execute in.
///
/// All storage access is implicitly scoped to the **current top-level
/// site** — under partitioned storage the browser keys the storage area by
/// the top-level registered domain, which is precisely the protection UID
/// smuggling circumvents.
pub trait ScriptHost {
    /// The URL of the page the scripts run on (including any smuggled
    /// query parameters that arrived with the navigation).
    fn page_url(&self) -> &Url;

    /// Read a first-party storage value (cookie or localStorage) for the
    /// current partition.
    fn storage_get(&self, key: &str) -> Option<String>;

    /// Write a first-party storage value for the current partition.
    fn storage_set(&mut self, key: &str, value: &str, kind: StorageKind);

    /// Read a value from the *tracker's own* storage area (a third-party
    /// cookie). Under partitioned storage this is indistinguishable from
    /// first-party storage (the partition still keys by top-level site);
    /// under flat storage it is the shared cross-site bucket of Figure 1.
    /// The default delegates to first-party storage (the partitioned
    /// behavior).
    fn storage_get_owned(&self, _owner_domain: &str, key: &str) -> Option<String> {
        self.storage_get(key)
    }

    /// Write to the tracker's own storage area (see
    /// [`ScriptHost::storage_get_owned`]).
    fn storage_set_owned(
        &mut self,
        _owner_domain: &str,
        key: &str,
        value: &str,
        kind: StorageKind,
    ) {
        self.storage_set(key, value, kind);
    }

    /// The machine fingerprint visible to scripts. The paper's crawlers all
    /// ran on one machine, so fingerprinting trackers saw the *same*
    /// fingerprint on every crawler (§3.5).
    fn fingerprint(&self) -> u64;

    /// Per-load randomness (ad rotation, token minting).
    fn rng(&mut self) -> &mut DetRng;

    /// Fire a subresource/beacon request. The browser records it in the
    /// request log (Figure 6's data source).
    fn send_beacon(&mut self, url: Url);

    /// Current simulated time.
    fn now(&self) -> SimTime;
}

/// Ground-truth label for a minted token value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenTruth {
    /// A genuine user identifier minted by a tracker or site.
    Uid {
        /// The tracker that owns it (None = the site's own UID).
        tracker: Option<TrackerId>,
        /// Whether the value was derived from the browser fingerprint
        /// (identical across crawlers — the §3.5 confound).
        fingerprint_based: bool,
    },
    /// A per-visit session identifier (not a UID).
    SessionId,
    /// A timestamp.
    Timestamp,
    /// Natural-language-shaped value (campaign names etc.).
    WordLike,
    /// A locale/acronym value.
    Acronym,
    /// A URL carried in a parameter (e.g. click-through destinations).
    UrlValue,
    /// A geographic coordinate pair (the manual filter of §3.7.2 removes
    /// "coordinates" explicitly).
    Coordinate,
    /// Internal plumbing identifiers (campaign ids, chain encodings).
    Internal,
}

impl TokenTruth {
    /// Whether the pipeline *should* classify this token as a UID.
    ///
    /// Fingerprint-based UIDs are genuine UIDs, but the methodology is
    /// expected to miss them (§3.5) — they are accounted separately.
    pub fn is_uid(&self) -> bool {
        matches!(self, TokenTruth::Uid { .. })
    }

    /// Conflict-resolution precedence when the same value is minted with
    /// two different labels. Higher wins. The order is "least UID-like
    /// first": a value that ever carried a non-UID label must never be
    /// scored as a ground-truth UID, which keeps the ledger conservative
    /// — and, because the winner depends only on the label set and never
    /// on arrival order, notes commute (parallel crawls produce the same
    /// ledger no matter how workers interleave).
    fn precedence(&self) -> u8 {
        match self {
            TokenTruth::SessionId => 7,
            TokenTruth::Timestamp => 6,
            TokenTruth::Coordinate => 5,
            TokenTruth::WordLike => 4,
            TokenTruth::Acronym => 3,
            TokenTruth::UrlValue => 2,
            TokenTruth::Internal => 1,
            TokenTruth::Uid { .. } => 0,
        }
    }

    /// A total order over labels (precedence, then payload) so that even
    /// conflicts *within* a precedence class resolve identically in any
    /// arrival order.
    fn resolution_key(&self) -> (u8, u8, u32, u8) {
        match self {
            TokenTruth::Uid {
                tracker,
                fingerprint_based,
            } => (
                self.precedence(),
                u8::from(tracker.is_some()),
                tracker.map_or(0, |t| t.0),
                u8::from(*fingerprint_based),
            ),
            other => (other.precedence(), 0, 0, 0),
        }
    }
}

/// A ledger mapping minted token values to their ground truth.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TruthLog {
    entries: HashMap<String, TokenTruth>,
}

impl TruthLog {
    /// New empty ledger.
    pub fn new() -> Self {
        TruthLog::default()
    }

    /// Record a minted value. Conflicts (values are unique with
    /// overwhelming probability; word values legitimately repeat) resolve
    /// by label precedence rather than arrival order, so `note` is
    /// commutative: interleaved notes from parallel crawl workers yield
    /// the same ledger as any serial order.
    pub fn note(&mut self, value: &str, truth: TokenTruth) {
        // Look up before allocating: merges mostly meet values already held.
        match self.entries.get_mut(value) {
            Some(held) => {
                if truth.resolution_key() > held.resolution_key() {
                    *held = truth;
                }
            }
            None => {
                self.entries.insert(value.to_owned(), truth);
            }
        }
    }

    /// Fold another ledger into this one, label by label. Because `note`
    /// is commutative, `a.merge(b)` equals `b.merge(a)` — shard truth
    /// logs combine in any order.
    pub fn merge(&mut self, other: &TruthLog) {
        for (value, truth) in &other.entries {
            self.note(value, *truth);
        }
    }

    /// Look up the truth for a value.
    pub fn get(&self, value: &str) -> Option<TokenTruth> {
        self.entries.get(value).copied()
    }

    /// Number of labeled values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of labeled values that are genuine UIDs.
    pub fn uid_count(&self) -> usize {
        self.entries.values().filter(|t| t.is_uid()).count()
    }

    /// Iterate over `(value, label)` pairs, in unspecified order. Lets
    /// evaluation harnesses census the ledger (e.g. UIDs per tracker)
    /// without coupling to its storage.
    pub fn iter(&self) -> impl Iterator<Item = (&str, TokenTruth)> + '_ {
        self.entries.iter().map(|(v, t)| (v.as_str(), *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_non_uid_label_wins_conflicts() {
        let mut log = TruthLog::new();
        log.note("abc", TokenTruth::SessionId);
        log.note(
            "abc",
            TokenTruth::Uid {
                tracker: None,
                fingerprint_based: false,
            },
        );
        assert_eq!(log.get("abc"), Some(TokenTruth::SessionId));
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
    }

    #[test]
    fn truth_note_is_order_independent() {
        let uid = TokenTruth::Uid {
            tracker: Some(TrackerId(3)),
            fingerprint_based: false,
        };
        let labels = [TokenTruth::SessionId, uid, TokenTruth::Timestamp];
        // Every permutation of notes resolves to the same winner.
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut log = TruthLog::new();
            for i in order {
                log.note("v", labels[i]);
            }
            assert_eq!(log.get("v"), Some(TokenTruth::SessionId), "{order:?}");
        }
    }

    #[test]
    fn truth_merge_commutes() {
        let uid = |t| TokenTruth::Uid {
            tracker: Some(TrackerId(t)),
            fingerprint_based: false,
        };
        let mut a = TruthLog::new();
        a.note("x", uid(1));
        a.note("y", TokenTruth::Timestamp);
        let mut b = TruthLog::new();
        b.note("x", TokenTruth::SessionId);
        b.note("z", uid(2));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for v in ["x", "y", "z"] {
            assert_eq!(ab.get(v), ba.get(v), "merge order changed label of {v}");
        }
        assert_eq!(ab.get("x"), Some(TokenTruth::SessionId));
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn uid_counting() {
        let mut log = TruthLog::new();
        log.note(
            "u1",
            TokenTruth::Uid {
                tracker: Some(TrackerId(1)),
                fingerprint_based: false,
            },
        );
        log.note("s1", TokenTruth::SessionId);
        log.note("t1", TokenTruth::Timestamp);
        assert_eq!(log.uid_count(), 1);
        assert!(log.get("u1").unwrap().is_uid());
        assert!(!log.get("s1").unwrap().is_uid());
        assert_eq!(log.get("missing"), None);
    }
}
