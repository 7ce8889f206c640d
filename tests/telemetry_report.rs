//! Telemetry's core contract, end to end: observation only.
//!
//! PR 1 proved serial and parallel crawls byte-identical. This suite
//! proves the guarantee *survives an active telemetry session* — spans,
//! counters, histograms, and events recording on every crawl thread must
//! not perturb a single byte of output — and that the resulting
//! [`RunReport`] actually carries the data `--metrics-out` promises:
//! span rollups, histogram quantiles, and per-worker progress. The
//! failure ledger and the walk-termination events count the same walks,
//! and no worker starves past the walk queue's reservation bound.

use cc_crawler::{CrawlConfig, CrawlDataset, StudyConfig, StudyRun, Walker};
use cc_telemetry::{RunReport, Session, WorkerSection};
use cc_util::{ProgressCounters, ProgressSnapshot};
use cc_web::{generate, WebConfig};

/// Serializes the tests in this binary. Sessions are process-global, so a
/// sessionless crawl racing a sessioned test would record into the other
/// test's collector and perturb its exact-equality assertions.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// [`crawl_cfg`] over [`world`] as a study on `workers` threads.
fn study(seed: u64, workers: usize) -> StudyConfig {
    let cfg = crawl_cfg(seed);
    StudyConfig::builder()
        .web(world(seed))
        .seed(cfg.seed)
        .steps(cfg.steps_per_walk)
        .walks(cfg.max_walks.expect("crawl_cfg limits the walks"))
        .failure_rate(cfg.connect_failure_rate)
        .workers(workers)
        .build()
        .expect("valid study")
}

/// Crawl with telemetry active; return the dataset plus the session's run
/// report (with per-worker data folded in when parallel).
fn crawl_with_telemetry(seed: u64, workers: Option<usize>) -> (CrawlDataset, RunReport) {
    let session = Session::start();
    let (dataset, progress): (_, Option<ProgressSnapshot>) = match workers {
        None => {
            let ds = Walker::new(&generate(&world(seed)), crawl_cfg(seed)).crawl();
            (ds, None)
        }
        Some(n) => {
            let progress = ProgressCounters::new(n);
            let ds = StudyRun::new(&generate(&world(seed)), &study(seed, n))
                .progress(&progress)
                .run()
                .expect("study runs");
            (ds, Some(progress.snapshot()))
        }
    };
    let report = match &progress {
        Some(snapshot) => session.report_with_workers(WorkerSection::from_progress(snapshot)),
        None => session.report(),
    };
    (dataset, report)
}

/// The failure ledger holds exactly the walks whose termination event is
/// not `completed`, and every walk has one termination event. Returns the
/// number of degraded walks.
fn assert_terminations_conserved(dataset: &CrawlDataset, report: &RunReport) -> u64 {
    let events = &report.deterministic.events;
    let kind = |k: &str| {
        let key = format!("crawl.walk.terminated{{kind={k}}}");
        events.get(&key).copied().unwrap_or(0)
    };
    let degraded = kind("sync_failure") + kind("divergence") + kind("connect_failure");
    assert_eq!(dataset.ledger.len() as u64, degraded, "ledger vs events {events:?}");
    assert_eq!(degraded + kind("completed"), dataset.walks.len() as u64);
    degraded
}

#[test]
fn serial_and_parallel_stay_byte_identical_with_telemetry_enabled() {
    let _exclusive = exclusive();
    let mut degraded = 0;
    for seed in [11u64, 0xC0FFEE] {
        let (serial, serial_report) = crawl_with_telemetry(seed, None);
        assert!(!serial.walks.is_empty(), "seed {seed} produced no walks");
        degraded += assert_terminations_conserved(&serial, &serial_report);
        let serial_json = serial.to_json().expect("dataset serializes");
        for workers in [2usize, 4] {
            let (par, par_report) = crawl_with_telemetry(seed, Some(workers));
            assert_terminations_conserved(&par, &par_report);
            assert_eq!(
                serial_json,
                par.to_json().expect("dataset serializes"),
                "telemetry perturbed the crawl: seed {seed}, {workers} workers"
            );
            // The determinism boundary holds for the report itself: every
            // counter and event total is schedule-independent, so the
            // deterministic section must match the serial run exactly.
            assert_eq!(
                serial_report.deterministic, par_report.deterministic,
                "deterministic section diverged: seed {seed}, {workers} workers"
            );
        }
    }
    println!("{degraded} degraded walks across both seeds");
    assert!(degraded > 0, "no walk degraded, so the ledger check proved nothing");
}

#[test]
fn run_report_carries_spans_quantiles_and_worker_counters() {
    let _exclusive = exclusive();
    let (_, report) = crawl_with_telemetry(7, Some(4));

    // Span rollups cover the crawl hierarchy.
    let span_paths: Vec<&str> = report.timing.spans.iter().map(|s| s.path.as_str()).collect();
    assert!(
        span_paths.iter().any(|p| p.ends_with("crawl.walk")),
        "no walk spans in {span_paths:?}"
    );
    assert!(
        span_paths
            .iter()
            .any(|p| p.contains("crawl.walk/") && p.ends_with("crawl.step")),
        "step spans not nested under walk spans in {span_paths:?}"
    );
    for s in &report.timing.spans {
        assert!(s.count > 0, "empty rollup at {}", s.path);
        assert!(s.min_ms <= s.max_ms, "inverted bounds at {}", s.path);
        assert!(s.total_ms >= s.max_ms, "total below max at {}", s.path);
    }

    // Histograms expose quantiles, ordered as quantiles must be.
    let walk_hist = report
        .timing
        .histograms
        .get("crawl.walk_duration")
        .expect("walk-duration histogram present");
    assert!(walk_hist.count > 0);
    assert!(walk_hist.p50_ms <= walk_hist.p90_ms);
    assert!(walk_hist.p90_ms <= walk_hist.p99_ms);
    assert!(walk_hist.min_ms <= walk_hist.p50_ms);
    assert!(walk_hist.p99_ms <= walk_hist.max_ms);

    // Deterministic counters recorded the crawl's totals.
    let steps = report
        .deterministic
        .counters
        .get("crawl.steps.recorded")
        .copied()
        .unwrap_or(0);
    assert!(steps > 0, "no steps counted: {:?}", report.deterministic.counters);

    // Per-worker section: all four workers, shares summing to 1.
    let workers = report.workers.as_ref().expect("worker section present");
    assert_eq!(workers.n_workers, 4);
    assert_eq!(workers.per_worker.len(), 4);
    assert_eq!(
        workers.walks,
        workers.per_worker.iter().map(|w| w.walks).sum::<u64>(),
        "per-worker walks don't sum to the total"
    );
    assert_eq!(
        workers.steps,
        workers.per_worker.iter().map(|w| w.steps).sum::<u64>(),
        "per-worker steps don't sum to the total"
    );
    let share_sum: f64 = workers.per_worker.iter().map(|w| w.walk_share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");

    // And the whole thing survives the JSON round trip `--metrics-out`
    // subjects it to.
    let json = report.to_json().expect("report serializes");
    let back = RunReport::from_json(&json).expect("report parses back");
    assert_eq!(back, report);
}

#[test]
fn multi_worker_runs_record_queue_gauges() {
    let _exclusive = exclusive();
    let session = Session::start();
    let ds = StudyRun::new(&generate(&world(5)), &study(5, 2))
        .run()
        .expect("study runs");
    let gauges = session.report().timing.gauges;
    let gauge = |name: &str, w: usize| {
        let key = format!("{name}.{w}");
        *gauges
            .get(&key)
            .unwrap_or_else(|| panic!("no {key} gauge in {gauges:?}"))
    };
    let claimed: f64 = (0..2).map(|w| gauge("crawl.worker.walks_claimed", w)).sum();
    assert_eq!(claimed, ds.walks.len() as f64, "claims don't sum to the walks");
    for w in 0..2 {
        let starvation = gauge("crawl.worker.queue_starvation", w);
        assert!(
            (0.0..=1.0).contains(&starvation),
            "worker {w} starvation {starvation} outside [0, 1]"
        );
    }
}

/// On a 250-walk world, every worker at 1/2/4/8 workers claims at least
/// its reserved quarter-share of the walks (starvation ≤ 0.85; 250 walks
/// cap it at 0.776 by construction), and every dataset is the serial one.
#[test]
fn no_worker_starves_past_the_reservation_bound() {
    let _exclusive = exclusive();
    let seed = 0x9A7A11E1;
    let world = WebConfig {
        seed,
        n_sites: 800,
        n_seeders: 250,
        ..WebConfig::default()
    };
    let base = StudyConfig::builder().web(world).seed(seed).steps(5).build();
    let base = base.expect("valid study");
    let web = generate(&base.web);
    let serial = Walker::new(&web, base.crawl_config()).crawl();
    assert_eq!(serial.walks.len(), 250);
    let serial_json = serial.to_json().expect("dataset serializes");
    for workers in [1usize, 2, 4, 8] {
        let session = Session::start();
        let study = StudyConfig { workers, ..base.clone() };
        let ds = StudyRun::new(&web, &study).run().expect("study runs");
        let gauges = session.report().timing.gauges;
        let json = ds.to_json().expect("dataset serializes");
        assert_eq!(serial_json, json, "{workers} workers");
        let worst = (0..workers)
            .map(|w| gauges[&format!("crawl.worker.queue_starvation.{w}")])
            .fold(0.0, f64::max);
        println!("{workers} workers: worst starvation {worst:.3}");
        assert!(worst <= 0.85, "{workers} workers: starvation {worst:.3}");
    }
}

#[test]
fn telemetry_is_silent_without_a_session() {
    let _exclusive = exclusive();
    // No session → recording disabled → a crawl leaves no trace and a
    // fresh session that follows starts empty.
    let ds = Walker::new(&generate(&world(3)), crawl_cfg(3)).crawl();
    assert!(!ds.walks.is_empty());
    let session = Session::start();
    let report = session.report();
    assert!(report.deterministic.counters.is_empty());
    assert!(report.timing.spans.is_empty());
}
