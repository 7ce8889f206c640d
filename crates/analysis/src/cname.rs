//! CNAME-cloaking detection (the §8.3 extension).
//!
//! Trackers can dodge partitioned storage without any navigation tricks by
//! aliasing a first-party subdomain to their own canonical name via DNS
//! CNAME records — the browser attaches *first-party* cookies to what is
//! really a third-party endpoint. The simulated DNS supports CNAME chains,
//! so the analysis can flag every host in the crawl whose apparent first
//! party hides a different canonical owner.

use std::collections::BTreeSet;

use cc_core::pipeline::PipelineOutput;
use cc_crawler::CrawlDataset;
use cc_web::SimWeb;
use serde::{Deserialize, Serialize};

/// One detected cloaking alias.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CloakedHost {
    /// The queried (apparent first-party) host.
    pub host: String,
    /// The canonical name it resolves to.
    pub canonical: String,
    /// Registered domain of the canonical owner.
    pub canonical_domain: String,
}

/// Scan every host contacted during the crawl for cloaked resolutions.
pub fn detect_cloaking(
    web: &SimWeb,
    dataset: &CrawlDataset,
    output: &PipelineOutput,
) -> Vec<CloakedHost> {
    let mut hosts: BTreeSet<&str> = BTreeSet::new();
    for p in &output.paths {
        hosts.insert(p.origin.host.as_str());
        for h in &p.hops {
            hosts.insert(h.host.as_str());
        }
    }
    for obs in dataset.observations() {
        for (_, beacon) in &obs.beacons {
            hosts.insert(beacon.host.as_str());
        }
    }

    let mut out: Vec<CloakedHost> = hosts
        .into_iter()
        .filter_map(|h| {
            let res = web.dns.resolve(h).ok()?;
            if !res.is_cloaked() {
                return None;
            }
            let canonical = res.canonical().to_string();
            Some(CloakedHost {
                host: h.to_string(),
                canonical_domain: cc_url::registered_domain(&canonical),
                canonical,
            })
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::observe::PathView;
    use cc_crawler::CrawlerName;
    use cc_url::Url;

    #[test]
    fn detects_cloaked_hop() {
        let mut web = cc_web::generate(&cc_web::WebConfig::small());
        // Install a cloaking alias: stats.<site0> -> tracker.
        let site0 = web.sites[0].domain.clone();
        let tracker_fqdn = web.trackers[0].fqdn.clone();
        let alias = format!("stats.{site0}");
        web.dns.register_cname(&alias, &tracker_fqdn);

        let output = PipelineOutput {
            paths: vec![PathView {
                walk: 0,
                step: 0,
                crawler: CrawlerName::Safari1,
                origin: Url::parse(&format!("https://www.{site0}/")).unwrap(),
                hops: vec![Url::parse(&format!("https://{alias}/r")).unwrap()],
            }],
            ..Default::default()
        };
        let ds = CrawlDataset::default();
        let cloaked = detect_cloaking(&web, &ds, &output);
        assert_eq!(cloaked.len(), 1);
        assert_eq!(cloaked[0].host, alias);
        assert_eq!(cloaked[0].canonical, tracker_fqdn);
        assert_ne!(cloaked[0].canonical_domain, site0);
    }

    #[test]
    fn ordinary_hosts_not_flagged() {
        let web = cc_web::generate(&cc_web::WebConfig::small());
        let site0 = web.sites[0].domain.clone();
        let output = PipelineOutput {
            paths: vec![PathView {
                walk: 0,
                step: 0,
                crawler: CrawlerName::Safari1,
                origin: Url::parse(&format!("https://www.{site0}/")).unwrap(),
                hops: vec![],
            }],
            ..Default::default()
        };
        assert!(detect_cloaking(&web, &CrawlDataset::default(), &output).is_empty());
    }
}
