//! The pipeline reads no beacon parameter.
//!
//! The study counts a token only when it crosses first-party contexts as
//! a navigation query parameter (§3.6). A beacon is a leak to a third
//! party, not a transfer, so no stage of `run_pipeline` may depend on
//! `CrawlObservation::beacons`; the report reads them itself (Figure 6
//! and cookie sync, in cc-analysis). Over crawled studies of plain and
//! all-species worlds, under flat and partitioned storage, the pipeline's
//! output serializes identically with every beacon removed.

use cc_browser::StoragePolicy;
use cc_core::run_pipeline;
use cc_crawler::{CrawlConfig, CrawlDataset, Walker};
use cc_web::{generate, WebConfig};

fn crawl(world: &WebConfig, storage_policy: StoragePolicy, seed: u64) -> CrawlDataset {
    let web = generate(world);
    Walker::new(
        &web,
        CrawlConfig {
            seed,
            steps_per_walk: 5,
            max_walks: Some(25),
            storage_policy,
            ..CrawlConfig::default()
        },
    )
    .crawl()
}

fn without_beacons(dataset: &CrawlDataset) -> CrawlDataset {
    let mut stripped = dataset.clone();
    for walk in &mut stripped.walks {
        for step in &mut walk.steps {
            for obs in &mut step.observations {
                obs.beacons.clear();
            }
        }
    }
    stripped
}

#[test]
fn the_pipeline_output_does_not_depend_on_beacons() {
    let plain = WebConfig::small();
    let species = WebConfig::small().all_species();
    for (world, storage, seed) in [
        (&species, StoragePolicy::Partitioned, 5),
        (&species, StoragePolicy::Flat, 6),
        (&plain, StoragePolicy::Partitioned, 7),
        (&plain, StoragePolicy::Flat, 8),
    ] {
        let dataset = crawl(world, storage, seed);
        let beacons: usize = dataset.observations().map(|o| o.beacons.len()).sum();
        assert!(beacons > 0, "seed {seed}: the crawl sent no beacons");
        let output = run_pipeline(&dataset);
        assert!(!output.findings.is_empty(), "seed {seed}: no findings");
        let with = serde_json::to_string(&output).unwrap();
        let without = serde_json::to_string(&run_pipeline(&without_beacons(&dataset))).unwrap();
        assert!(
            with == without,
            "seed {seed} ({storage:?}): clearing beacons changed the pipeline output"
        );
    }
}
