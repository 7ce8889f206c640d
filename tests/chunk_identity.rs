//! The post-crawl chunk count changes no byte.
//!
//! The pipeline, the report and the serving index split their walks into
//! at most one chunk per core. At 1, 2, 3 and 4 chunks they must give the
//! one-chunk pipeline output, report JSON and every route's body, and
//! record the same deterministic `pipeline.*` and `classify.*` tallies.
//! The classifier orders its groups by walk id, so one dataset has its
//! walks in id order and one does not; a third holds every walk twice,
//! and walks that share an id may not be split.

use std::collections::BTreeMap;

use crumbcruncher::analysis::report::full_report_in;
use crumbcruncher::cli::parse;
use crumbcruncher::core::{run_pipeline_in, Chunks};
use crumbcruncher::crawler::CrawlDataset;
use crumbcruncher::serve::ServingIndex;
use crumbcruncher::telemetry::{RunReport, Session};
use crumbcruncher::web::SimWeb;
use crumbcruncher::Study;

/// An all-species world crawled with faults and retries (the report
/// fixtures' study).
fn study() -> Study {
    let argv: Vec<String> = "report --seed 5 --species all --sites 60 --seeders 12 --steps 3 \
                             --failure-rate 0.2 --retries 3 --breaker 2"
        .split_whitespace()
        .map(str::to_string)
        .collect();
    Study::from_config(&parse(&argv).expect("the arguments parse").study).expect("the study runs")
}

/// What the program derives from a dataset after the crawl, as bytes.
#[derive(Debug, PartialEq)]
struct Derived {
    pipeline: String,
    report: String,
    routes: Vec<(String, String, String)>,
}

fn derive(web: &SimWeb, dataset: &CrawlDataset, chunks: Chunks) -> Derived {
    let output = run_pipeline_in(dataset, chunks);
    let report = full_report_in(web, dataset, &output, chunks);
    let index =
        ServingIndex::from_report_in(&report, dataset, &output, chunks).expect("the index builds");
    Derived {
        pipeline: serde_json::to_string(&output).expect("the output serializes"),
        report: serde_json::to_string(&report).expect("the report serializes"),
        routes: index
            .routes()
            .map(|(path, b)| (path.to_string(), b.body.clone(), b.etag.clone()))
            .collect(),
    }
}

/// The deterministic `pipeline.*` and `classify.*` counters and events.
fn tallies(report: &RunReport) -> BTreeMap<String, u64> {
    let det = &report.deterministic;
    det.counters
        .iter()
        .chain(&det.events)
        .filter(|(name, _)| name.starts_with("pipeline.") || name.starts_with("classify."))
        .map(|(name, n)| (name.clone(), *n))
        .collect()
}

/// For the fixture study's dataset after `edit`: `derive` at 1 to 4
/// chunks equals `derive` at one, tallies included.
fn assert_chunk_count_changes_nothing(edit: impl FnOnce(&mut CrawlDataset)) {
    // One session for the whole check, so no other test's recordings
    // land in it; each run's tallies are the difference it made.
    let session = Session::start();
    let mut study = study();
    edit(&mut study.dataset);
    let (web, dataset) = (&study.web, &study.dataset);
    let run = |chunks| {
        let before = tallies(&session.report());
        let derived = derive(web, dataset, chunks);
        let mut made = tallies(&session.report());
        for (name, n) in before {
            *made.get_mut(&name).expect("tallies only grow") -= n;
        }
        made.retain(|_, n| *n > 0);
        (derived, made)
    };
    let (one, one_tallies) = run(Chunks::ONE);
    assert!(
        one.routes.len() > dataset.walks.len(),
        "the index serves every walk"
    );
    assert!(
        one_tallies.contains_key("pipeline.findings.confirmed"),
        "{one_tallies:?}"
    );
    for n in 1..=4 {
        let (chunked, chunked_tallies) = run(Chunks::at_most(n));
        assert!(
            chunked.pipeline == one.pipeline,
            "pipeline output differs at {n} chunks"
        );
        assert!(chunked.report == one.report, "report differs at {n} chunks");
        assert_eq!(
            chunked.routes.len(),
            one.routes.len(),
            "route count at {n} chunks"
        );
        for (a, b) in chunked.routes.iter().zip(&one.routes) {
            assert!(a == b, "route {} differs at {n} chunks", b.0);
        }
        assert_eq!(chunked_tallies, one_tallies, "tallies at {n} chunks");
    }
}

#[test]
fn walks_in_id_order_derive_the_same_bytes_at_any_chunk_count() {
    assert_chunk_count_changes_nothing(|dataset| {
        assert!(dataset
            .walks
            .windows(2)
            .all(|w| w[0].walk_id < w[1].walk_id));
    });
}

#[test]
fn walks_out_of_id_order_derive_the_same_bytes_at_any_chunk_count() {
    assert_chunk_count_changes_nothing(|dataset| dataset.walks.reverse());
}

#[test]
fn repeated_walk_ids_derive_the_same_bytes_at_any_chunk_count() {
    assert_chunk_count_changes_nothing(|dataset| {
        let again = dataset.walks.clone();
        dataset.walks.extend(again);
    });
}
