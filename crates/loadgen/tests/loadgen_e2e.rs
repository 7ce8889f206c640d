//! End-to-end load generation against a real cc-serve instance on a
//! loopback ephemeral port: totals add up, a healthy server yields zero
//! errors and counts exactly the requests the client sent, the floor
//! assertion works in both directions, the mixed load holds the serving
//! floor and p99 SLO, and an overloaded server sheds without hanging the
//! run.

use cc_crawler::{CrawlConfig, Walker};
use cc_loadgen::{run_load, LoadConfig, LoadReport, TaskMix};
use cc_serve::{ServeConfig, Server, ServerHandle, ServingIndex};
use cc_web::{generate, WebConfig};

/// Serializes the tests in this binary, so no other test's server or
/// users share the cores with the throughput floor's run.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_server(cfg: ServeConfig) -> ServerHandle {
    let web = generate(&WebConfig::small());
    let ds = Walker::new(
        &web,
        CrawlConfig {
            seed: 5,
            steps_per_walk: 5,
            max_walks: Some(15),
            connect_failure_rate: 0.0,
            ..CrawlConfig::default()
        },
    )
    .crawl();
    let out = cc_core::run_pipeline(&ds);
    let index = ServingIndex::build(&web, &ds, &out).unwrap();
    Server::start(index, cfg).unwrap()
}

#[test]
fn healthy_run_is_clean_and_accountable() {
    let _exclusive = exclusive();
    let handle = start_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });

    let mut cfg = LoadConfig::new(handle.addr().to_string());
    cfg.users = 3;
    cfg.requests_per_user = 60;
    let report = run_load(&cfg).unwrap();

    // Every attempted request is accounted for, in the aggregate and
    // across the per-task split.
    assert_eq!(report.total_requests, 180);
    assert_eq!(report.aggregate.requests, 180);
    let split: u64 = report.tasks.iter().map(|t| t.requests).sum();
    assert_eq!(split, 180);
    let outcomes = report.aggregate.ok
        + report.aggregate.not_modified
        + report.aggregate.client_errors
        + report.aggregate.server_errors
        + report.aggregate.transport_errors;
    assert_eq!(outcomes, 180);

    // A healthy, under-capacity server: no errors of any kind, and the
    // 304 revalidation path actually got exercised by the report task.
    assert_eq!(report.aggregate.client_errors, 0);
    assert_eq!(report.aggregate.server_errors, 0);
    assert_eq!(report.aggregate.transport_errors, 0);
    assert!(report.aggregate.latency.count >= 180);
    assert!(report.throughput_rps > 0.0);

    // Floor assertion: passes with a trivial floor, fails with an
    // impossible one (and only for the throughput reason).
    report.assert_floor(1.0).unwrap();
    let err = report.assert_floor(1e12).unwrap_err().to_string();
    assert!(err.contains("below the"), "unexpected floor error: {err}");

    // The artifact round-trips through its JSON form.
    let json = report.to_json().unwrap();
    let back = LoadReport::from_json(&json).unwrap();
    assert_eq!(back.total_requests, report.total_requests);
    assert_eq!(back.tasks.len(), report.tasks.len());
    assert!(LoadReport::from_json(&json.replace("cc-loadgen/v1", "bogus/v9")).is_err());

    // Server-side accounting agrees with the client's view: every load
    // request plus the one priming `/catalog` fetch.
    let metrics = handle.shutdown();
    assert_eq!(metrics.deterministic.counters["serve.requests"], 180 + 1);
    assert_eq!(metrics.deterministic.counters.get("serve.5xx"), None);
}

/// The serving floor: 4 users × 2,000 mixed requests against 8 server
/// workers hold 2,000 req/s and a 50 ms aggregate p99, with no 5xx and no
/// transport error (the run stays below the shed threshold).
#[test]
fn mixed_load_holds_the_throughput_floor_and_p99_slo() {
    let _exclusive = exclusive();
    let handle = start_server(ServeConfig {
        workers: 8,
        max_inflight: 256,
        ..ServeConfig::default()
    });
    let mut cfg = LoadConfig::new(handle.addr().to_string());
    cfg.users = 4;
    cfg.requests_per_user = 2_000;
    cfg.seed = 0xBE7C4;
    let report = run_load(&cfg).unwrap();
    let metrics = handle.shutdown();
    let latency = &report.aggregate.latency;
    println!(
        "serve: {:.0} req/s, p99 {:.3} ms over {} requests",
        report.throughput_rps, latency.p99_ms, report.total_requests
    );

    report.assert_floor(2_000.0).unwrap();
    report.assert_p99_slo(50.0).unwrap();
    assert!(!report.timeline.is_empty(), "no latency timeline");
    let counters = &metrics.deterministic.counters;
    assert_eq!(counters["serve.requests"], report.total_requests + 1);
    assert_eq!(counters.get("serve.5xx"), None);
}

#[test]
fn deterministic_shape_same_seed_same_split() {
    let _exclusive = exclusive();
    let handle = start_server(ServeConfig::default());
    let mut cfg = LoadConfig::new(handle.addr().to_string());
    cfg.users = 2;
    cfg.requests_per_user = 50;
    cfg.mix = TaskMix::named("lookups").unwrap();

    let a = run_load(&cfg).unwrap();
    let b = run_load(&cfg).unwrap();
    let split = |r: &cc_loadgen::LoadReport| -> Vec<(String, u64)> {
        r.tasks.iter().map(|t| (t.name.clone(), t.requests)).collect()
    };
    assert_eq!(split(&a), split(&b), "same seed must draw the same tasks");

    cfg.seed = 99;
    let c = run_load(&cfg).unwrap();
    assert_eq!(c.total_requests, 100);

    handle.shutdown();
}

#[test]
fn overloaded_server_sheds_but_the_run_never_hangs() {
    let _exclusive = exclusive();
    // A deliberately tiny server: one worker, admission bound of one,
    // slowed handling. Four users hammering it must observe shed 503s
    // (or reconnect-path transport errors), yet the run completes and
    // accounts for every request.
    let handle = start_server(ServeConfig {
        workers: 1,
        max_inflight: 1,
        debug_delay_ms: 5,
        ..ServeConfig::default()
    });

    let mut cfg = LoadConfig::new(handle.addr().to_string());
    cfg.users = 4;
    cfg.requests_per_user = 10;
    cfg.timeout_ms = 10_000;
    let report = run_load(&cfg).unwrap();

    assert_eq!(report.total_requests, 40);
    let outcomes = report.aggregate.ok
        + report.aggregate.not_modified
        + report.aggregate.client_errors
        + report.aggregate.server_errors
        + report.aggregate.transport_errors;
    assert_eq!(outcomes, 40);
    // Contention must be visible somewhere: shed 503s or dropped
    // connections on the reconnect path.
    assert!(
        report.aggregate.shed > 0 || report.aggregate.transport_errors > 0,
        "four users against a one-slot server saw no backpressure"
    );
    // And the floor check refuses to bless an overloaded run.
    if report.aggregate.server_errors > 0 || report.aggregate.transport_errors > 0 {
        assert!(report.assert_floor(1.0).is_err());
    }

    let metrics = handle.shutdown();
    assert!(metrics.deterministic.counters.contains_key("serve.requests"));
}

#[test]
fn bad_target_and_bad_config_fail_cleanly() {
    let _exclusive = exclusive();
    let mut cfg = LoadConfig::new("127.0.0.1:1");
    cfg.users = 1;
    cfg.requests_per_user = 1;
    assert!(run_load(&cfg).is_err(), "nothing listens on port 1");

    let handle = start_server(ServeConfig::default());
    let mut zero = LoadConfig::new(handle.addr().to_string());
    zero.users = 0;
    assert!(run_load(&zero).is_err());
    handle.shutdown();
}

#[test]
fn timeline_tracks_the_run_and_slo_gates_both_ways() {
    let _exclusive = exclusive();
    let handle = start_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let mut cfg = LoadConfig::new(handle.addr().to_string());
    cfg.users = 2;
    cfg.requests_per_user = 80;
    let report = run_load(&cfg).unwrap();
    handle.shutdown();

    // The final post-join snapshot always exists, even on a run shorter
    // than the monitor interval, and agrees with the aggregate digest.
    assert!(!report.timeline.is_empty());
    let last = report.timeline.last().unwrap();
    assert_eq!(last.requests, report.aggregate.latency.count);
    assert_eq!(last.p99_ms, report.aggregate.latency.p99_ms);
    assert_eq!(last.max_ms, report.aggregate.latency.max_ms);

    // Cumulative snapshots: time and request counts are monotone.
    for pair in report.timeline.windows(2) {
        assert!(pair[1].t_ms >= pair[0].t_ms);
        assert!(pair[1].requests >= pair[0].requests);
        assert!(pair[1].max_ms >= pair[0].max_ms);
    }

    // SLO gate: a generous bound passes, an impossible one fails.
    report.assert_p99_slo(60_000.0).unwrap();
    let err = report.assert_p99_slo(0.0).unwrap_err();
    assert!(err.to_string().contains("SLO"), "{err}");

    // The timeline survives the artifact round trip, and artifacts
    // written before the field existed still parse (empty timeline).
    let round: LoadReport = LoadReport::from_json(&report.to_json().unwrap()).unwrap();
    assert_eq!(round.timeline.len(), report.timeline.len());
    // `timeline` is the struct's last field, so compact serialization
    // ends with `,"timeline":[...]}` — drop it to fabricate a pre-field
    // artifact.
    let compact = serde_json::to_string(&report).unwrap();
    let cut = compact.rfind(",\"timeline\":").expect("timeline key present");
    let legacy_json = format!("{}}}", &compact[..cut]);
    let legacy = LoadReport::from_json(&legacy_json).unwrap();
    assert!(legacy.timeline.is_empty());
}
