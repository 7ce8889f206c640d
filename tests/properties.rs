//! Cross-crate property tests: the stack must hold its invariants for
//! arbitrary (small) configurations, not just the calibrated defaults.

use cc_crawler::{CrawlConfig, CrawlerName, FailureStats, Walker};
use cc_web::{generate, WebConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = (WebConfig, CrawlConfig)> {
    (
        1u64..1_000,
        20usize..60,
        2usize..6,
        0.0f64..0.5,
        0.0f64..0.2,
        1usize..5,
    )
        .prop_map(|(seed, n_sites, n_dedicated, p_ad, churn, steps)| {
            let web = WebConfig {
                seed,
                n_sites,
                n_seeders: (n_sites / 4).max(3),
                n_dedicated,
                n_multipurpose: 4,
                n_bounce: 2,
                n_analytics: 3,
                campaigns_per_network: 4,
                p_ad_slot: p_ad,
                element_churn: churn,
                ..WebConfig::default()
            };
            let crawl = CrawlConfig {
                seed,
                steps_per_walk: steps,
                max_walks: Some(5),
                ..CrawlConfig::default()
            };
            (web, crawl)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full stack never panics and maintains its core invariants for
    /// arbitrary small worlds: a fuzz test of the whole system.
    #[test]
    fn whole_stack_invariants((web_cfg, crawl_cfg) in arb_config()) {
        let web = generate(&web_cfg);
        let ds = Walker::new(&web, crawl_cfg).crawl();
        let out = cc_core::run_pipeline(&ds);

        // Failure accounting always balances.
        let f = ds.failures;
        prop_assert_eq!(
            f.steps_attempted,
            f.steps_completed + f.sync_failures + f.divergence_failures + f.connect_failures
        );

        // Every finding's path is internally consistent.
        for finding in &out.findings {
            prop_assert_eq!(finding.domain_path.first(), Some(&finding.origin));
            prop_assert!(finding.url_path.len() >= 2);
            for r in &finding.redirectors {
                prop_assert!(finding.domain_path.contains(r));
            }
            // No finding may carry a value the programmatic filters reject.
            for v in finding.values.values().flatten() {
                prop_assert!(cc_core::heuristics::programmatic_reject(v).is_none());
            }
        }

        // The trailing crawler never contradicts Safari-1 on persistent
        // UIDs (same user ⇒ same values).
        for w in &ds.walks {
            for s in &w.steps {
                let s1 = s.observations.iter().find(|o| o.crawler == CrawlerName::Safari1);
                let s1r = s.observations.iter().find(|o| o.crawler == CrawlerName::Safari1R);
                let (Some(s1), Some(s1r)) = (s1, s1r) else { continue };
                for (name, value, _) in &s1.page_snapshot.cookies {
                    if name.ends_with("_uid") {
                        if let Some((_, v2, _)) =
                            s1r.page_snapshot.cookies.iter().find(|(n, _, _)| n == name)
                        {
                            prop_assert_eq!(value, v2);
                        }
                    }
                }
            }
        }

        // Analysis never panics on whatever the pipeline produced.
        let report = cc_analysis::report::full_report(&web, &ds, &out);
        prop_assert!(report.summary.unique_url_paths_smuggling <= report.summary.unique_url_paths);
        let t1: u64 = report.table1.rows.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(t1 as usize, out.findings.len());
    }

    /// Storage partitioning invariant under real crawls: no partition ever
    /// reads another partition's value (checked via the world's ground
    /// truth being user-scoped).
    #[test]
    fn truth_precision_never_collapses((web_cfg, crawl_cfg) in arb_config()) {
        let web = generate(&web_cfg);
        let ds = Walker::new(&web, crawl_cfg).crawl();
        let out = cc_core::run_pipeline(&ds);
        let score = cc_core::truth_eval::score(&out.groups, &web.truth_snapshot());
        // With any workload, the classifier must stay mostly right when it
        // does claim a UID (tiny samples may legitimately dip).
        if score.true_positives + score.false_positives >= 10 {
            prop_assert!(score.precision() >= 0.5, "precision collapsed: {:?}", score);
        }
    }
}

fn arb_failure_stats() -> impl Strategy<Value = FailureStats> {
    // Bounded well below u64::MAX / 3 so three-way sums cannot overflow.
    let n = 0u64..1_000_000;
    (n.clone(), n.clone(), n.clone(), n.clone(), n).prop_map(
        |(steps_attempted, steps_completed, sync_failures, divergence_failures, connect_failures)| {
            FailureStats {
                steps_attempted,
                steps_completed,
                sync_failures,
                divergence_failures,
                connect_failures,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `FailureStats::absorb` is commutative and associative, with the
    /// default stats as identity. `CrawlDataset::merge` relies on this:
    /// per-worker failure accounting must aggregate to the same totals no
    /// matter which worker finishes first or how shards are grouped.
    #[test]
    fn failure_stats_absorb_is_order_independent(
        (a, b, c) in (arb_failure_stats(), arb_failure_stats(), arb_failure_stats())
    ) {
        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a;
        ab.absorb(b);
        let mut ba = b;
        ba.absorb(a);
        prop_assert_eq!(ab, ba);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = ab;
        left.absorb(c);
        let mut bc = b;
        bc.absorb(c);
        let mut right = a;
        right.absorb(bc);
        prop_assert_eq!(left, right);

        // Identity: absorbing the default changes nothing.
        let mut with_identity = a;
        with_identity.absorb(FailureStats::default());
        prop_assert_eq!(with_identity, a);
    }
}
