//! The sinks' work is counted and grows with the walks, not with their
//! square.
//!
//! Two deterministic counters in the run report measure what the
//! executor hands its sinks: `crawl.sink.walk_copies` (walk records
//! cloned into published deltas) and `crawl.sink.truth_entries` (per-walk
//! truth entries handed to the checkpoint log and the snapshot sink).
//! Both are sums over walks, so they agree at any worker count, and a
//! study four times as long may cost at most 4.4 times as much. Handing
//! each publish a copy of the whole study so far grows about 11× here.

use std::path::Path;
use std::sync::Arc;

use cc_crawler::{CrawlCheckpoint, PublishPolicy, SnapshotSink, StudyConfig, StudyRun};
use cc_telemetry::Session;
use cc_web::{generate, WebConfig};

/// Sessions are process-global; the tests in this file take turns.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct NullSink;

impl SnapshotSink for NullSink {
    fn publish(&self, _delta: CrawlCheckpoint) {}
}

fn study(walks: usize, workers: usize, checkpoint: &Path) -> StudyConfig {
    StudyConfig::builder()
        .web(WebConfig {
            n_sites: 200,
            n_seeders: 100,
            ..WebConfig::small()
        })
        .seed(11)
        .steps(3)
        .walks(walks)
        .failure_rate(0.05)
        .workers(workers)
        .checkpoint(checkpoint.display().to_string(), 10)
        .build()
        .expect("valid study")
}

/// `(walk_copies, truth_entries)` of one study checkpointing every 10
/// walks and publishing every 5.
fn sink_work(walks: usize, workers: usize) -> (u64, u64) {
    let path = std::env::temp_dir().join(format!(
        "cc-sink-work-{walks}-{workers}-{}.ccp",
        std::process::id()
    ));
    let study = study(walks, workers, &path);
    let web = generate(&study.web);
    let session = Session::start();
    StudyRun::new(&web, &study)
        .publish(PublishPolicy::new(5, Arc::new(NullSink)))
        .run()
        .expect("study runs");
    let counters = session.report().deterministic.counters;
    drop(session);
    std::fs::remove_file(&path).ok();
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        read("crawl.sink.walk_copies"),
        read("crawl.sink.truth_entries"),
    )
}

#[test]
fn sink_work_is_the_same_at_every_worker_count() {
    let _turn = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = sink_work(30, 1);
    assert_eq!(serial.0, 30, "one copy per walk, into its delta");
    assert!(serial.1 > 0, "no truth was handed over");
    for workers in [2, 4] {
        assert_eq!(sink_work(30, workers), serial, "{workers} workers");
    }
}

#[test]
fn sink_work_grows_with_the_walks() {
    let _turn = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, four_n) = (sink_work(25, 1), sink_work(100, 1));
    for (what, small, large) in [
        ("walk copies", n.0, four_n.0),
        ("truth entries", n.1, four_n.1),
    ] {
        let growth = large as f64 / small as f64;
        assert!(
            growth <= 4.4,
            "{what} grew {growth:.2}x from 25 to 100 walks ({small} -> {large})"
        );
    }
}
