//! Wall-clock gates on the crawl executor, over the 250-walk medium world:
//!
//! * the 1-worker executor takes at most 1.15× the serial `Walker::crawl`
//!   (best of 7 each);
//! * its mean `crawl.worker/crawl.walk` span is at most 2× the serial
//!   `crawl.walk` mean;
//! * on 4 or more cores, 4 workers keep a per-core efficiency of at least
//!   0.8 against the serial crawl. Below 4 cores the gate prints a notice
//!   and passes.
//!
//! These ratios follow the host's load, so they stay out of the default
//! test run. Run them in release:
//! `cargo test --release --test executor_timing -- --ignored`.

use std::time::Instant;

use cc_crawler::{CrawlDataset, StudyConfig, StudyRun, Walker};
use cc_telemetry::Session;
use cc_web::{generate, WebConfig};

const SEED: u64 = 0x9A7A11E1;
const RUNS: usize = 7;

/// 250 five-step walks over an 800-site world, on `workers` threads.
fn study(workers: usize) -> StudyConfig {
    let world = WebConfig {
        seed: SEED,
        n_sites: 800,
        n_seeders: 250,
        ..WebConfig::default()
    };
    let study = StudyConfig::builder().web(world).seed(SEED).steps(5);
    study.workers(workers).build().expect("valid study")
}

/// Best-of-`RUNS` wall seconds of `crawl`, the mean duration in ms of the
/// `span` path over all runs, and the last run's dataset bytes.
fn time_crawls(span: &str, crawl: impl Fn() -> CrawlDataset) -> (f64, f64, String) {
    let session = Session::start();
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let ds = crawl();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(ds);
    }
    let spans = session.report().timing.spans;
    let rollup = spans.iter().find(|s| s.path == span);
    let rollup = rollup.unwrap_or_else(|| panic!("no {span} span"));
    let json = last.expect("a run").to_json().expect("dataset serializes");
    (best, rollup.total_ms / rollup.count as f64, json)
}

#[test]
#[ignore = "wall-clock ratios follow host load: run in release with --ignored"]
fn executor_overhead_and_scaling_stay_within_their_bounds() {
    let web = &generate(&study(1).web);
    let serial_crawl = || Walker::new(web, study(1).crawl_config()).crawl();
    let (serial_secs, serial_walk_ms, serial) = time_crawls("crawl.walk", serial_crawl);
    let run = |workers| move || StudyRun::new(web, &study(workers)).run().expect("runs");
    let (one_secs, one_walk_ms, one) = time_crawls("crawl.worker/crawl.walk", run(1));
    assert_eq!(serial, one, "1 worker diverged from the serial crawl");

    let overhead = one_secs / serial_secs;
    println!("serial {serial_secs:.3}s, 1 worker {one_secs:.3}s -> overhead {overhead:.3}x");
    assert!(overhead <= 1.15, "1-worker overhead {overhead:.3}x > 1.15x");
    println!("walk span: serial {serial_walk_ms:.3}ms, 1 worker {one_walk_ms:.3}ms");
    assert!(
        one_walk_ms <= 2.0 * serial_walk_ms,
        "1-worker walk span > 2x serial"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!("notice: scaling gate skipped: {cores} core(s), need at least 4");
        return;
    }
    let (four_secs, _, four) = time_crawls("crawl.worker/crawl.walk", run(4));
    assert_eq!(serial, four, "4 workers diverged from the serial crawl");
    let efficiency = serial_secs / four_secs / 4.0;
    println!("4 workers {four_secs:.3}s -> per-core efficiency {efficiency:.3} on {cores} cores");
    assert!(
        efficiency >= 0.8,
        "4-worker efficiency {efficiency:.3} < 0.8"
    );
}
