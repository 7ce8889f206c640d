//! Figure 6: third parties receiving UIDs from destination pages (§5.2.2).
//!
//! "After a UID has been transferred through the entire navigation path …
//! third parties on the destination site may also send the UID back to
//! their own servers … many requests to third party trackers passed the
//! UID only because the request included the entire URL of the destination
//! site, suggesting that the UID may have been 'leaked' to these entities
//! accidentally."

use std::collections::{HashMap, HashSet};

use cc_core::pipeline::PipelineOutput;
use cc_crawler::CrawlDataset;
use cc_util::Counter;
use serde::{Deserialize, Serialize};

/// One Figure 6 bar: a third-party domain and how many UID-carrying
/// requests it received.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThirdPartyRow {
    /// Registered domain of the request target.
    pub domain: String,
    /// Number of beacon requests that carried an identified UID.
    pub requests: u64,
    /// How many of those carried the UID only inside a full-page-URL
    /// parameter (the accidental-leak mechanism).
    pub via_full_url_only: u64,
}

/// How one beacon parameter value carries a UID.
#[derive(Clone, Copy)]
enum Leak {
    /// It carries none.
    None,
    /// The value is a UID, or holds one without being a URL.
    Direct,
    /// The value is a URL (typically the full page URL riding in `u=`)
    /// that holds a UID: the accidental-leak mechanism.
    ViaUrl,
}

/// Count third-party requests carrying identified UIDs.
pub fn figure6(dataset: &CrawlDataset, output: &PipelineOutput, k: usize) -> Vec<ThirdPartyRow> {
    // All UID values the pipeline identified.
    let uid_values: HashSet<&str> = output
        .findings
        .iter()
        .flat_map(|f| f.values.values())
        .flatten()
        .map(String::as_str)
        .collect();
    if uid_values.is_empty() {
        return Vec::new();
    }

    // A parameter's leak depends on its value alone: the extracted leaf
    // values do not depend on the parameter name, which only labels them.
    // Beacon parameter values repeat across requests, so each distinct
    // value is classified, and extracted, once per call.
    let mut leaks: HashMap<&str, Leak> = HashMap::new();
    let mut counts: Counter<String> = Counter::new();
    let mut full_url_only: Counter<String> = Counter::new();

    for obs in dataset.observations() {
        for (_top_site, beacon) in &obs.beacons {
            let mut direct = false;
            let mut via_url = false;
            for (key, value) in beacon.query() {
                let leak = *leaks.entry(value).or_insert_with(|| {
                    if uid_values.contains(value.as_str()) {
                        return Leak::Direct;
                    }
                    let inner_hit = cc_core::extract::extract_tokens(key, value)
                        .iter()
                        .any(|e| uid_values.contains(e.value.as_str()));
                    if !inner_hit {
                        Leak::None
                    } else if value.starts_with("http://") || value.starts_with("https://") {
                        Leak::ViaUrl
                    } else {
                        Leak::Direct
                    }
                });
                match leak {
                    Leak::None => {}
                    Leak::Direct => direct = true,
                    Leak::ViaUrl => via_url = true,
                }
            }
            if direct || via_url {
                let target = beacon.registered_domain();
                if via_url && !direct {
                    full_url_only.add(target.clone());
                }
                counts.add(target);
            }
        }
    }

    counts
        .top_k(k)
        .into_iter()
        .map(|(domain, requests)| ThirdPartyRow {
            via_full_url_only: full_url_only.get(&domain),
            domain,
            requests,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_browser::StorageSnapshot;
    use cc_core::pipeline::UidFinding;
    use cc_core::ComboClass;
    use cc_crawler::{
        CrawlObservation, CrawlerName, FailureStats, StepRecord, WalkRecord, WalkTermination,
    };
    use cc_url::Url;
    use std::collections::{BTreeMap, BTreeSet as Set};

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn dataset_with_beacons(beacons: Vec<(&str, &str)>) -> CrawlDataset {
        CrawlDataset {
            walks: vec![WalkRecord {
                walk_id: 0,
                seeder: "a.com".into(),
                steps: vec![StepRecord {
                    index: 0,
                    observations: vec![CrawlObservation {
                        crawler: CrawlerName::Safari1,
                        page_url: url("https://www.a.com/"),
                        page_snapshot: StorageSnapshot::default(),
                        clicked: None,
                        nav_hops: vec![],
                        final_url: None,
                        dest_snapshot: None,
                        beacons: beacons
                            .into_iter()
                            .map(|(site, u)| (site.into(), url(u)))
                            .collect(),
                    }],
                }],
                termination: WalkTermination::Completed,
                recovery: Default::default(),
            }],
            failures: FailureStats::default(),
            ledger: Default::default(),
        }
    }

    fn finding_with_value(v: &str) -> UidFinding {
        let mut values: BTreeMap<CrawlerName, Set<String>> = BTreeMap::new();
        values
            .entry(CrawlerName::Safari1)
            .or_default()
            .insert(v.to_string());
        UidFinding {
            walk: 0,
            step: 0,
            name: "gclid".into(),
            values,
            combo: ComboClass::OneProfileOnly,
            origin: "a.com".into(),
            destination: Some("b.com".into()),
            redirectors: vec![],
            domain_path: vec!["a.com".into(), "b.com".into()],
            url_path: vec!["www.a.com/".into(), "www.b.com/".into()],
            at_origin: true,
            at_destination: true,
            cookie_lifetime_days: None,
        }
    }

    #[test]
    fn direct_uid_param_counted() {
        let ds = dataset_with_beacons(vec![(
            "b.com",
            "https://px.metrics.io/b?cid=other&gclid=uid_value_123456",
        )]);
        let out = PipelineOutput {
            findings: vec![finding_with_value("uid_value_123456")],
            ..Default::default()
        };
        let rows = figure6(&ds, &out, 10);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].domain, "metrics.io");
        assert_eq!(rows[0].requests, 1);
        assert_eq!(rows[0].via_full_url_only, 0);
    }

    #[test]
    fn full_url_leak_counted_separately() {
        let ds = dataset_with_beacons(vec![(
            "b.com",
            "https://px.metrics.io/b?u=https%3A%2F%2Fwww.b.com%2F%3Fgclid%3Duid_value_123456",
        )]);
        let out = PipelineOutput {
            findings: vec![finding_with_value("uid_value_123456")],
            ..Default::default()
        };
        let rows = figure6(&ds, &out, 10);
        assert_eq!(rows[0].requests, 1);
        assert_eq!(rows[0].via_full_url_only, 1);
    }

    #[test]
    fn a_repeated_value_counts_on_every_beacon_under_any_name() {
        // The second beacon carries the first one's full-URL value under
        // another name, and the third repeats it beside a direct UID: each
        // is classified as if its value had never been seen.
        let leak = "https%3A%2F%2Fwww.b.com%2F%3Fgclid%3Duid_value_123456";
        let ds = dataset_with_beacons(vec![
            ("b.com", &format!("https://px.metrics.io/b?u={leak}")),
            ("b.com", &format!("https://px.metrics.io/b?ref={leak}")),
            (
                "b.com",
                &format!("https://t.ads.net/p?u={leak}&id=uid_value_123456"),
            ),
        ]);
        let out = PipelineOutput {
            findings: vec![finding_with_value("uid_value_123456")],
            ..Default::default()
        };
        let rows = figure6(&ds, &out, 10);
        let rows: Vec<(&str, u64, u64)> = rows
            .iter()
            .map(|r| (r.domain.as_str(), r.requests, r.via_full_url_only))
            .collect();
        assert_eq!(rows, vec![("metrics.io", 2, 2), ("ads.net", 1, 0)]);
    }

    #[test]
    fn beacons_without_uids_ignored() {
        let ds = dataset_with_beacons(vec![("b.com", "https://px.metrics.io/b?cid=innocent")]);
        let out = PipelineOutput {
            findings: vec![finding_with_value("uid_value_123456")],
            ..Default::default()
        };
        assert!(figure6(&ds, &out, 10).is_empty());
    }

    #[test]
    fn no_findings_no_rows() {
        let ds = dataset_with_beacons(vec![("b.com", "https://px.metrics.io/b?x=y")]);
        assert!(figure6(&ds, &PipelineOutput::default(), 10).is_empty());
    }
}
