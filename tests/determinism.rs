//! Determinism guarantees.
//!
//! The entire stack — world generation, crawling, classification — must be
//! bit-stable given a seed.

use cc_crawler::{CrawlConfig, Walker};
use cc_web::{generate, WebConfig};

fn cfg(seed: u64) -> CrawlConfig {
    CrawlConfig {
        seed,
        steps_per_walk: 5,
        max_walks: Some(12),
        ..CrawlConfig::default()
    }
}

#[test]
fn whole_study_is_reproducible() {
    let run = |seed: u64| {
        let web = generate(&WebConfig {
            seed,
            ..WebConfig::small()
        });
        let ds = Walker::new(&web, cfg(seed)).crawl();
        let out = cc_core::run_pipeline(&ds);
        (
            ds.to_json().unwrap(),
            out.findings.len(),
            out.stats,
            web.truth_snapshot().len(),
        )
    };
    let a = run(0xAB);
    let b = run(0xAB);
    assert_eq!(a.0, b.0, "datasets differ byte-for-byte");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);

    let c = run(0xCD);
    assert_ne!(a.0, c.0, "different seeds must differ");
}

#[test]
fn world_generation_stable_under_repeated_calls() {
    let a = generate(&WebConfig::small());
    let b = generate(&WebConfig::small());
    assert_eq!(a.sites.len(), b.sites.len());
    for (sa, sb) in a.sites.iter().zip(&b.sites) {
        assert_eq!(sa, sb);
    }
    assert_eq!(a.campaigns, b.campaigns);
    // DNS zones match name-for-name.
    for s in &a.sites {
        assert_eq!(
            a.dns.resolve(&s.www_fqdn()).unwrap().address,
            b.dns.resolve(&s.www_fqdn()).unwrap().address
        );
    }
}

#[test]
fn seed_changes_world_content_not_structure() {
    let a = generate(&WebConfig {
        seed: 1,
        ..WebConfig::small()
    });
    let b = generate(&WebConfig {
        seed: 2,
        ..WebConfig::small()
    });
    assert_eq!(a.sites.len(), b.sites.len());
    assert_eq!(a.trackers.len(), b.trackers.len());
    let differing = a
        .sites
        .iter()
        .zip(&b.sites)
        .filter(|(x, y)| x.domain != y.domain)
        .count();
    assert!(
        differing > a.sites.len() / 2,
        "seeds barely changed the world"
    );
}
