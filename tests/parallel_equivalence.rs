//! The parallel executor's contract, checked at the serialization layer:
//! a crawl with N work-stealing workers must produce **byte-identical**
//! JSON to the single-threaded crawl — walks, failure accounting, and the
//! world's ground-truth ledger alike. Byte equality is stricter than
//! `PartialEq`: it also pins field order, map ordering, and float
//! formatting, i.e. what a consumer of the released dataset would diff.

use cc_crawler::{CrawlConfig, CrawlDataset, StudyConfig, StudyRun, Walker};
use cc_web::{generate, SimWeb, WebConfig};

const WORLD_SEEDS: [u64; 2] = [11, 0xC0FFEE];
const WORKER_COUNTS: [usize; 3] = [2, 4, 7];

fn world(seed: u64) -> WebConfig {
    WebConfig {
        seed,
        ..WebConfig::small()
    }
}

fn crawl_cfg(seed: u64) -> CrawlConfig {
    CrawlConfig {
        seed,
        steps_per_walk: 4,
        max_walks: Some(12),
        connect_failure_rate: 0.05,
        ..CrawlConfig::default()
    }
}

/// [`crawl_cfg`] over `world` as a study on `workers` threads.
fn study(world: &WebConfig, seed: u64, workers: usize) -> StudyConfig {
    let cfg = crawl_cfg(seed);
    StudyConfig::builder()
        .web(world.clone())
        .seed(cfg.seed)
        .steps(cfg.steps_per_walk)
        .walks(cfg.max_walks.expect("crawl_cfg limits the walks"))
        .failure_rate(cfg.connect_failure_rate)
        .workers(workers)
        .build()
        .expect("valid study")
}

/// Serialize everything the crawl produced or touched. The web is
/// regenerated per crawl (the truth ledger accumulates on a `SimWeb`), so
/// each run serializes its own world's ledger.
fn crawl_artifacts(seed: u64, workers: Option<usize>) -> (String, String, String) {
    world_artifacts(&world(seed), seed, workers)
}

fn world_artifacts(
    world: &WebConfig,
    seed: u64,
    workers: Option<usize>,
) -> (String, String, String) {
    let web: SimWeb = generate(world);
    let cfg = crawl_cfg(seed);
    let dataset: CrawlDataset = match workers {
        None => Walker::new(&web, cfg).crawl(),
        Some(n) => StudyRun::new(&web, &study(world, seed, n))
            .run()
            .expect("study runs"),
    };
    let walks = serde_json::to_string(&dataset.walks).expect("walks serialize");
    let failures = serde_json::to_string(&dataset.failures).expect("failures serialize");
    let truth = serde_json::to_string(&web.truth_snapshot()).expect("truth serializes");
    (walks, failures, truth)
}

#[test]
fn parallel_crawl_json_is_byte_identical_to_serial() {
    for seed in WORLD_SEEDS {
        let (walks, failures, truth) = crawl_artifacts(seed, None);
        assert!(walks.len() > 2, "serial crawl of seed {seed} produced no walks");
        for workers in WORKER_COUNTS {
            let (pw, pf, pt) = crawl_artifacts(seed, Some(workers));
            assert_eq!(
                walks, pw,
                "walk records diverged: seed {seed}, {workers} workers"
            );
            assert_eq!(
                failures, pf,
                "failure stats diverged: seed {seed}, {workers} workers"
            );
            assert_eq!(
                truth, pt,
                "truth ledger diverged: seed {seed}, {workers} workers"
            );
        }
    }
}

#[test]
fn all_species_parallel_crawl_is_byte_identical_to_serial() {
    // The evasion species route through every nonstandard code path the
    // crawler has — consent cookies, mid-chain reminting, first-party
    // validator writes, shimless SPA links, cloaked subdomains — and all
    // of them must stay deterministic under work stealing.
    for seed in WORLD_SEEDS {
        let cfg = WebConfig {
            seed,
            ..WebConfig::small().all_species()
        };
        let (walks, failures, truth) = world_artifacts(&cfg, seed, None);
        assert!(
            truth.contains("bounce-remint") || truth.len() > 2,
            "species world seed {seed} minted nothing"
        );
        for workers in [1, 2, 4, 8] {
            let (pw, pf, pt) = world_artifacts(&cfg, seed, Some(workers));
            assert_eq!(
                walks, pw,
                "species walk records diverged: seed {seed}, {workers} workers"
            );
            assert_eq!(
                failures, pf,
                "species failure stats diverged: seed {seed}, {workers} workers"
            );
            assert_eq!(
                truth, pt,
                "species truth ledger diverged: seed {seed}, {workers} workers"
            );
        }
    }
}

#[test]
fn parallel_crawl_roundtrips_as_released_dataset() {
    // The full released artifact (walks + failures in one document) also
    // matches and survives a parse → serialize round trip.
    let web = generate(&world(WORLD_SEEDS[0]));
    let ds = StudyRun::new(&web, &study(&world(WORLD_SEEDS[0]), WORLD_SEEDS[0], 4))
        .run()
        .expect("study runs");
    let json = ds.to_json().expect("dataset serializes");
    let back = CrawlDataset::from_json(&json).expect("dataset parses back");
    assert_eq!(back, ds);
    assert_eq!(back.to_json().unwrap(), json, "serialization is stable");
}
