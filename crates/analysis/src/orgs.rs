//! Figure 4: organizations acting as originators or destinations (§5.2).
//!
//! "We present the entities as organizations rather than hostnames because
//! some organizations own multiple hostnames … An organization is counted
//! once per unique domain path." Attribution uses the entity list the
//! simulator exports (the paper combined the Disconnect entity list with
//! manual WHOIS/copyright research); unattributed domains count as their
//! own organization, as the paper's long tail effectively did.

use std::collections::{BTreeMap, HashMap};

use cc_core::pipeline::PipelineOutput;
use cc_util::Counter;
use cc_web::SimWeb;
use serde::{Deserialize, Serialize};

use crate::path_key;

/// Figure 4's two panels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OrgAppearances {
    /// Organization → unique domain paths in which it was the originator.
    pub originators: Vec<(String, u64)>,
    /// Organization → unique domain paths in which it was the destination.
    pub destinations: Vec<(String, u64)>,
}

/// Count originator/destination organizations over unique smuggling domain
/// paths, returning the top `k` of each.
pub fn figure4(web: &SimWeb, output: &PipelineOutput, k: usize) -> OrgAppearances {
    // Dedupe by domain path first; an org appears once per unique path.
    let mut seen: BTreeMap<String, (String, Option<String>)> = BTreeMap::new();
    for f in &output.findings {
        seen.entry(path_key(&f.domain_path))
            .or_insert_with(|| (f.origin.clone(), f.destination.clone()));
    }

    // Each domain's owner is the first organization in `web.orgs` order
    // that owns it, as a scan with `Organization::owns` would find it.
    let mut owners: HashMap<&str, &str> = HashMap::new();
    for org in &web.orgs {
        for domain in &org.domains {
            owners.entry(domain).or_insert(&org.name);
        }
    }
    // Unattributed domains stand for themselves.
    let org_of = |domain: &str| {
        let owner = owners.get(domain.to_ascii_lowercase().as_str());
        owner.map_or(domain, |name| name).to_string()
    };
    let mut orig: Counter<String> = Counter::new();
    let mut dest: Counter<String> = Counter::new();
    for (_, (o, d)) in seen {
        // "the owning organization is only counted once for that path" —
        // one increment per role per unique path.
        orig.add(org_of(&o));
        if let Some(d) = d {
            dest.add(org_of(&d));
        }
    }

    OrgAppearances {
        originators: orig.top_k(k),
        destinations: dest.top_k(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::pipeline::UidFinding;
    use cc_core::ComboClass;
    use cc_web::entity::{OrgId, Organization};
    use cc_web::SimWeb;

    fn web_with_orgs() -> SimWeb {
        let mut o1 = Organization::new(OrgId(0), "Sports Reference");
        o1.add_domain("hockey-ref.com");
        o1.add_domain("stathead.com");
        let mut o2 = Organization::new(OrgId(1), "MegaShop");
        o2.add_domain("megashop.com");
        SimWeb::assemble(vec![], vec![], vec![o1, o2], vec![], vec![])
    }

    fn finding(origin: &str, dest: &str) -> UidFinding {
        UidFinding {
            walk: 0,
            step: 0,
            name: "x".into(),
            values: Default::default(),
            combo: ComboClass::OneProfileOnly,
            origin: origin.into(),
            destination: Some(dest.into()),
            redirectors: vec![],
            domain_path: vec![origin.into(), dest.into()],
            url_path: vec![format!("www.{origin}/"), format!("www.{dest}/")],
            at_origin: true,
            at_destination: true,
            cookie_lifetime_days: None,
        }
    }

    #[test]
    fn orgs_aggregate_domains() {
        let web = web_with_orgs();
        let output = PipelineOutput {
            findings: vec![
                finding("hockey-ref.com", "megashop.com"),
                finding("stathead.com", "megashop.com"),
                finding("unknown.org", "megashop.com"),
            ],
            ..Default::default()
        };
        let fig = figure4(&web, &output, 10);
        // Two family domains both attribute to Sports Reference.
        assert_eq!(
            fig.originators
                .iter()
                .find(|(n, _)| n == "Sports Reference")
                .map(|(_, c)| *c),
            Some(2)
        );
        // Unattributed domains stand for themselves.
        assert!(fig.originators.iter().any(|(n, _)| n == "unknown.org"));
        assert_eq!(fig.destinations[0], ("MegaShop".to_string(), 3));
    }

    #[test]
    fn a_domain_two_organizations_list_counts_for_the_first() {
        let mut first = Organization::new(OrgId(0), "First");
        first.add_domain("shared.com");
        let mut second = Organization::new(OrgId(1), "Second");
        second.add_domain("Shared.com");
        second.add_domain("megashop.com");
        let web = SimWeb::assemble(vec![], vec![], vec![first, second], vec![], vec![]);
        let output = PipelineOutput {
            findings: vec![finding("SHARED.com", "megashop.com")],
            ..Default::default()
        };
        let fig = figure4(&web, &output, 10);
        assert_eq!(fig.originators, vec![("First".to_string(), 1)]);
        assert_eq!(fig.destinations, vec![("Second".to_string(), 1)]);
    }

    #[test]
    fn paths_deduped_before_counting() {
        let web = web_with_orgs();
        let output = PipelineOutput {
            findings: vec![
                finding("hockey-ref.com", "megashop.com"),
                finding("hockey-ref.com", "megashop.com"),
            ],
            ..Default::default()
        };
        let fig = figure4(&web, &output, 10);
        assert_eq!(fig.originators[0].1, 1);
    }
}
