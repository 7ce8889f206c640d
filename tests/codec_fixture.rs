//! The JSON codec pinned against bytes it did not write.
//!
//! `fixtures/checkpoint-v2.ccp` is a finished all-species checkpoint
//! written by the tree-based codec that came before the streaming one:
//!
//! ```text
//! crumbcruncher crawl --seed 5 --species all --sites 40 --seeders 5 --steps 2 \
//!     --failure-rate 0.2 --retries 3 --breaker 2 \
//!     --checkpoint checkpoint-v2.ccp --out dataset.json
//! ```
//!
//! Its five walks end three ways (completed, connect failure, sync
//! failure). An encoder that changed every output the same way would
//! still pass the identity suites, which compare the codec with itself;
//! it fails here. The remaining tests check that the text sink and the
//! `Value` tree write the same bytes for everything the fixture holds.

use std::collections::BTreeMap;

use cc_gaggle::{read_frame, write_frame, Frame, PROTOCOL};
use crumbcruncher::analysis::report::full_report;
use crumbcruncher::analysis::ReportSection;
use crumbcruncher::core::pipeline::run_pipeline;
use crumbcruncher::crawler::{CrawlCheckpoint, StudyConfig, WalkTermination};
use crumbcruncher::web::generate;
use serde::Serialize;
use serde_json::{Map, Value};

const FIXTURE: &str = include_str!("fixtures/checkpoint-v2.ccp");

fn fixture() -> CrawlCheckpoint {
    CrawlCheckpoint::from_json(FIXTURE).expect("the fixture loads")
}

/// `x`'s text, checked to be the text of its `Value` tree.
fn text<T: Serialize + ?Sized>(what: &str, x: &T) -> String {
    let direct = serde_json::to_string(x).unwrap();
    let tree = serde_json::to_value(x).unwrap();
    assert_eq!(
        direct,
        serde_json::to_string(&tree).unwrap(),
        "{what}: the text and the tree differ"
    );
    direct
}

#[test]
fn the_fixture_loads_and_reencodes_byte_for_byte() {
    let ck = fixture();
    assert_eq!(ck.partial.walks.len(), 5);
    let ends: Vec<&str> = ck
        .partial
        .walks
        .iter()
        .map(|w| match w.termination {
            WalkTermination::Completed => "completed",
            WalkTermination::ConnectFailure { .. } => "connect",
            WalkTermination::SyncFailure { .. } => "sync",
            WalkTermination::Divergence { .. } => "divergence",
        })
        .collect();
    for end in ["completed", "connect", "sync"] {
        assert!(ends.contains(&end), "no {end} walk in {ends:?}");
    }
    assert!(!ck.truth.is_empty());
    assert!(ck.to_json().unwrap() == FIXTURE, "re-encoded bytes differ");
}

#[test]
fn text_and_tree_write_the_same_bytes_for_the_fixture_and_its_report() {
    let ck = fixture();
    text("study", &ck.study);
    text("dataset", &ck.partial);
    text("truth ledger", &ck.truth);
    text("failure ledger", &ck.partial.ledger);

    let web = generate(&ck.study.web);
    web.absorb_truth(&ck.truth);
    let output = run_pipeline(&ck.partial);
    let report = full_report(&web, &ck.partial, &output);
    text("report", &report);
    for section in ReportSection::ALL {
        let body = report.section_json(section).unwrap();
        let tree = report.section_value(section).unwrap();
        assert_eq!(
            body,
            serde_json::to_string(&tree).unwrap(),
            "section {section:?}"
        );
    }
}

/// One payload object, its entries in the order given.
fn object(entries: &[(&str, Value)]) -> String {
    let map: Map = entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    serde_json::to_string(&Value::Object(map)).unwrap()
}

fn tree<T: Serialize + ?Sized>(x: &T) -> Value {
    serde_json::to_value(x).unwrap()
}

/// Every frame type's payload is the object of its fields, in
/// declaration order, as its `Value` tree writes it; and it decodes back
/// to the frame.
#[test]
fn every_frame_payload_is_the_text_of_its_fields() {
    let ck = fixture();
    let counters: BTreeMap<String, u64> = [("gaggle.worker.walks".to_string(), 5)].into();
    let frames = [
        (
            Frame::Hello {
                protocol: PROTOCOL.into(),
                label: "pid-1 \"quoted\" \u{1F600}".into(),
            },
            object(&[
                ("protocol", tree(PROTOCOL)),
                ("label", tree("pid-1 \"quoted\" \u{1F600}")),
            ]),
        ),
        (
            Frame::Welcome {
                worker_id: 3,
                study: ck.study.clone(),
            },
            object(&[("worker_id", tree(&3u32)), ("study", tree(&ck.study))]),
        ),
        (
            Frame::Lease {
                lease_id: u64::MAX,
                walk_ids: vec![0, 4, 2],
                deadline_ms: 3_000,
            },
            object(&[
                ("lease_id", tree(&u64::MAX)),
                ("walk_ids", tree(&[0u32, 4, 2])),
                ("deadline_ms", tree(&3_000u64)),
            ]),
        ),
        (
            Frame::Heartbeat {
                lease_id: 7,
                walks_done: 2,
            },
            object(&[("lease_id", tree(&7u64)), ("walks_done", tree(&2u32))]),
        ),
        (
            Frame::ShardResult {
                lease_id: 9,
                shard: ck.partial.clone(),
                truth: ck.truth.clone(),
            },
            object(&[
                ("lease_id", tree(&9u64)),
                ("shard", tree(&ck.partial)),
                ("truth", tree(&ck.truth)),
            ]),
        ),
        (
            Frame::Telemetry {
                counters: counters.clone(),
            },
            object(&[("counters", tree(&counters))]),
        ),
        (
            Frame::Goodbye {
                reason: "complete".into(),
            },
            object(&[("reason", tree("complete"))]),
        ),
    ];
    for (frame, want) in frames {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        assert!(
            bytes[9..] == *want.as_bytes(),
            "{} payload differs from its fields' text",
            frame.name()
        );
        let (back, _) = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, frame);
    }
}

/// `StudyConfig` once had a `mode` field (how the three crawlers were
/// run, since removed). A study written with it still decodes, the same
/// way from text as from its tree.
#[test]
fn a_study_with_the_removed_mode_key_decodes_alike_from_text_and_tree() {
    let study = fixture().study;
    for mode in ["Lockstep", "ScopedThreads", "PersistentWorkers"] {
        let Value::Object(mut fields) = tree(&study) else {
            unreachable!("a study is an object")
        };
        fields.insert("mode".into(), Value::String(mode.into()));
        let old = Value::Object(fields);
        let from_text: StudyConfig = serde_json::from_str(&text("old study", &old)).unwrap();
        let from_tree: StudyConfig = serde_json::from_value(old).unwrap();
        assert_eq!(from_text, study);
        assert_eq!(from_tree, study);
    }
}
