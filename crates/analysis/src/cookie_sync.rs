//! Cookie-sync detection (§8.2, related work).
//!
//! "Cookie syncing allows multiple third parties on a single first-party
//! site to share UIDs with each other. However, if partitioned storage is
//! in place, third parties cannot share information across first-party
//! websites using cookie syncing" (§2). Detection follows the standard
//! methodology (Papadopoulos et al.): a token value appearing in requests
//! to **two or more distinct third-party domains from the same page** is a
//! synced identifier.
//!
//! The analysis also verifies the paper's structural claim: under
//! partitioned storage, the *same* synced value never shows up on two
//! different top-level sites (that capability is exactly what UID
//! smuggling restores).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use cc_crawler::CrawlDataset;
use cc_util::{Counter, IStr};
use serde::{Deserialize, Serialize};

/// One detected sync relationship.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SyncPair {
    /// Registered domain of one endpoint.
    pub a: String,
    /// Registered domain of the other endpoint.
    pub b: String,
}

/// Results of the cookie-sync analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CookieSyncReport {
    /// Distinct (unordered) tracker-domain pairs observed syncing.
    pub pairs: Vec<(SyncPair, u64)>,
    /// Number of distinct synced token values.
    pub synced_values: u64,
    /// Synced values observed under more than one top-level site — under
    /// partitioned storage only fingerprint-derived identifiers can do
    /// this (the §2 limitation cookie syncing cannot escape; fingerprinting
    /// can, §8.3).
    pub cross_site_values: u64,
    /// The cross-site values themselves, for ground-truth auditing.
    pub cross_site_value_list: Vec<String>,
}

/// Whether a value is a plausible identifier for sync purposes (skips page
/// URLs and short/word-ish values that inflate pair counts).
fn sync_candidate(value: &str) -> bool {
    value.len() >= 8 && !value.starts_with("http") && !value.contains('/')
}

/// Detect cookie syncing across a crawl.
///
/// Values are keyed by `&str` borrowed from the dataset and domains by
/// their interned handles (a bounded vocabulary), so the scan allocates
/// only the pairs and values it reports.
pub fn detect_cookie_sync(dataset: &CrawlDataset) -> CookieSyncReport {
    // value → the first top-level site it appeared under, and whether it
    // has appeared under another.
    let mut sites_by_value: HashMap<&str, (&str, bool)> = HashMap::new();
    // Unordered pair of receiving third-party domains (smaller first) →
    // pages on which both received the same value.
    let mut pair_counter: Counter<(IStr, IStr)> = Counter::new();
    let mut synced: HashSet<&str> = HashSet::new();
    // Per page: (value, receiving third-party domain).
    let mut receivers: Vec<(&str, IStr)> = Vec::new();

    for obs in dataset.observations() {
        receivers.clear();
        for (top_site, beacon) in &obs.beacons {
            let target = beacon.registered_domain_interned();
            if target == *top_site {
                continue; // first-party request, not a third-party sync
            }
            for (_k, v) in beacon.query() {
                if !sync_candidate(v) {
                    continue;
                }
                receivers.push((v, target.clone()));
                match sites_by_value.entry(v) {
                    Entry::Vacant(e) => {
                        e.insert((top_site.as_str(), false));
                    }
                    Entry::Occupied(mut e) => {
                        let (first, many) = e.get_mut();
                        *many |= *first != top_site.as_str();
                    }
                }
            }
        }
        receivers.sort_unstable();
        receivers.dedup();
        for domains in receivers.chunk_by(|x, y| x.0 == y.0) {
            if domains.len() < 2 {
                continue;
            }
            synced.insert(domains[0].0);
            for (i, (_, a)) in domains.iter().enumerate() {
                for (_, b) in &domains[i + 1..] {
                    pair_counter.add((a.clone(), b.clone()));
                }
            }
        }
    }

    let mut cross_site_value_list: Vec<String> = synced
        .iter()
        .filter(|v| sites_by_value.get(*v).is_some_and(|&(_, many)| many))
        .map(|v| v.to_string())
        .collect();
    cross_site_value_list.sort_unstable();

    CookieSyncReport {
        pairs: pair_counter
            .sorted()
            .into_iter()
            .map(|((a, b), n)| {
                let pair = SyncPair {
                    a: a.to_string(),
                    b: b.to_string(),
                };
                (pair, n)
            })
            .collect(),
        synced_values: synced.len() as u64,
        cross_site_values: cross_site_value_list.len() as u64,
        cross_site_value_list,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{CrawlConfig, Walker};
    use cc_web::{generate, WebConfig};

    #[test]
    fn sync_detected_in_generated_world() {
        let web = generate(&WebConfig {
            n_sites: 300,
            n_seeders: 60,
            ..WebConfig::default()
        });
        // The generator wires analytics partnerships.
        assert!(
            web.trackers.iter().any(|t| !t.sync_partners.is_empty()),
            "no sync partnerships generated"
        );
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 31,
                steps_per_walk: 4,
                max_walks: Some(40),
                connect_failure_rate: 0.0,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let report = detect_cookie_sync(&ds);
        assert!(report.synced_values > 0, "no synced values detected");
        assert!(!report.pairs.is_empty());
    }

    #[test]
    fn partitioning_confines_storage_derived_synced_values() {
        // §2's claim: under partitioned storage, a synced storage-derived
        // value never spans top-level sites. The only values that CAN are
        // fingerprint-derived — the one identifier partitioning cannot
        // scope, which ground truth lets us verify exactly.
        let web = generate(&WebConfig::small());
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 33,
                steps_per_walk: 5,
                max_walks: Some(15),
                connect_failure_rate: 0.0,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let report = detect_cookie_sync(&ds);
        let truth = web.truth_snapshot();
        for v in &report.cross_site_value_list {
            match truth.get(v) {
                Some(cc_web::script::TokenTruth::Uid {
                    fingerprint_based: true,
                    ..
                }) => {}
                other => panic!(
                    "non-fingerprint value crossed top-level sites under \
                     partitioning: {v} ({other:?})"
                ),
            }
        }
    }

    #[test]
    fn flat_storage_lets_syncs_cross_sites() {
        // The pre-partitioning world: the same tracker UID is one bucket
        // everywhere, so synced values DO span top-level sites.
        let web = generate(&WebConfig {
            n_sites: 300,
            n_seeders: 60,
            ..WebConfig::default()
        });
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 33,
                steps_per_walk: 5,
                max_walks: Some(60),
                connect_failure_rate: 0.0,
                storage_policy: cc_browser::StoragePolicy::Flat,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let report = detect_cookie_sync(&ds);
        assert!(
            report.cross_site_values > 0,
            "flat storage should let synced UIDs span sites: {report:?}"
        );
    }

    #[test]
    fn sync_candidate_filter() {
        assert!(sync_candidate("f3a9c17e2b4d5a60"));
        assert!(!sync_candidate("short"));
        assert!(!sync_candidate("https://a.com/x"));
        assert!(!sync_candidate("path/segment"));
    }
}
