//! The observability plane's end-to-end contract, driven through the
//! CLI exactly as a user would run it:
//!
//! * a crawl with `--obs-addr`, `--trace-out`, and `--dashboard-out` all
//!   enabled writes dataset bytes **identical** to a run with
//!   observability off (the plane is observation-only);
//! * `/progress` polled mid-crawl reports monotonically increasing
//!   completed-walk counts, and `/metrics.prom` parses as valid
//!   Prometheus text exposition while the crawl is still going;
//! * the chrome-trace export loads as JSON with at least one named
//!   track per crawl worker;
//! * the dashboard is a self-contained single HTML file;
//! * `--prom` turns the command output into a scrape-able exposition.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crumbcruncher::cli::{parse, run};
use crumbcruncher::crawler::CrawlDataset;
use crumbcruncher::http::{Request, Response};
use crumbcruncher::telemetry::{parse_exposition, ObsSample, RunReport};
use crumbcruncher::url::Url;
use crumbcruncher::util::ProgressSnapshot;

/// Telemetry sessions are process-global, so observability runs in this
/// binary must not overlap each other.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// One GET per connection, closed once its response is read. `None`
/// when the observer is not (or no longer) reachable.
fn get(addr: &str, path: &str) -> Option<Response> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    let req = Request::navigation(Url::parse(&format!("http://{addr}{path}")).ok()?);
    req.write_to(&mut writer).ok()?;
    Response::read_from(&mut reader).ok()
}

fn body_str(resp: &Response) -> String {
    String::from_utf8(resp.body.wire_bytes().to_vec()).unwrap()
}

#[test]
fn observed_crawl_is_byte_identical_and_live_while_it_runs() {
    let _exclusive = exclusive();
    let dir = std::env::temp_dir().join("ccrs-obs-e2e-test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline_out = dir.join("baseline.json");
    let observed_out = dir.join("observed.json");
    let addr_file = dir.join("obs-addr.txt");
    let trace_out = dir.join("trace.json");
    let dashboard_out = dir.join("run.html");
    std::fs::remove_file(&addr_file).ok();

    let base = "crawl --seed 11 --steps 5 --walks 40 --workers 2";

    // Observability off: the reference bytes.
    let mut baseline =
        parse(&argv(&format!("{base} --out {}", baseline_out.display()))).unwrap();
    baseline.study.web = crumbcruncher::web::WebConfig::small();
    run(&baseline).unwrap();

    // The same study with the full plane on, run on a second thread so
    // this one can watch it over HTTP while it crawls.
    let mut observed = parse(&argv(&format!(
        "{base} --out {} --obs-addr 127.0.0.1:0 --obs-addr-file {} \
         --trace-out {} --dashboard-out {}",
        observed_out.display(),
        addr_file.display(),
        trace_out.display(),
        dashboard_out.display(),
    )))
    .unwrap();
    observed.study.web = crumbcruncher::web::WebConfig::small();
    let crawler = std::thread::spawn(move || run(&observed));

    // The observer binds (and writes its address) before the crawl
    // starts, so the address file is the startup barrier.
    let addr = {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(Instant::now() < deadline, "observer never came up");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // Poll /progress until the run finishes: every snapshot must parse,
    // and completed-walk counts must be monotonically nondecreasing.
    let mut walk_counts: Vec<u64> = Vec::new();
    let mut prom_checked = false;
    loop {
        let run_still_going = !crawler.is_finished();
        if let Some(resp) = get(&addr, "/progress") {
            assert_eq!(resp.status.0, 200);
            let snap: ProgressSnapshot = serde_json::from_str(&body_str(&resp))
                .expect("/progress body parses as a ProgressSnapshot");
            walk_counts.push(snap.walks);
            assert_eq!(snap.per_worker.len(), 2, "one row per worker");
        }
        if !prom_checked {
            if let Some(resp) = get(&addr, "/metrics.prom") {
                assert_eq!(resp.status.0, 200);
                let stats = parse_exposition(&body_str(&resp))
                    .expect("mid-crawl /metrics.prom is valid exposition");
                assert!(stats.samples > 0, "empty exposition mid-crawl");
                prom_checked = true;
            }
        }
        if !run_still_going {
            break;
        }
    }
    crawler.join().unwrap().unwrap();
    assert!(
        !walk_counts.is_empty(),
        "the crawl finished before a single /progress poll landed"
    );
    assert!(prom_checked, "never got a mid-crawl /metrics.prom scrape");
    assert!(
        walk_counts.windows(2).all(|w| w[1] >= w[0]),
        "completed-walk counts went backwards: {walk_counts:?}"
    );
    assert!(*walk_counts.last().unwrap() <= 40, "more walks than the cap");

    // The tentpole guarantee: observation changed nothing.
    let baseline_bytes = std::fs::read(&baseline_out).unwrap();
    let observed_bytes = std::fs::read(&observed_out).unwrap();
    assert_eq!(
        baseline_bytes, observed_bytes,
        "the observability plane perturbed the crawl output"
    );

    // The chrome-trace export: valid JSON, with a named track per worker
    // (thread_name metadata events) and at least one span event.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_out).unwrap())
            .expect("trace.json parses");
    let events = trace
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let ph = |e: &serde_json::Value, want: &str| {
        e.as_object().and_then(|o| o.get("ph")).and_then(|p| p.as_str()) == Some(want)
    };
    let tracks = events.iter().filter(|e| ph(e, "M")).count();
    let spans = events.iter().filter(|e| ph(e, "X")).count();
    assert!(tracks >= 2, "want >= 1 track per worker, got {tracks}");
    assert!(spans > 0, "trace carries no span events");

    // The dashboard: one self-contained file, SVG charts plus the inline
    // data block, nothing fetched from anywhere.
    let html = std::fs::read_to_string(&dashboard_out).unwrap();
    assert!(html.contains("<svg"), "dashboard has no charts");
    assert!(html.contains("cc-obs-data"), "dashboard has no data block");
    assert!(
        !html.contains("http://") && !html.contains("https://") && !html.contains("<link"),
        "dashboard references external assets"
    );

    // The observer is gone once the run ends.
    assert!(
        get(&addr, "/healthz").is_none(),
        "observer outlived the run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A run that fails after its observer bound (here: the address file
/// cannot be written) stops the observer before it returns.
#[test]
fn a_failed_run_leaves_no_observer_behind() {
    let _exclusive = exclusive();
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let unwritable = std::env::temp_dir().join("ccrs-obs-no-such-dir/addr.txt");
    let mut cli = parse(&argv(&format!(
        "truth --seed 3 --steps 2 --walks 2 --obs-addr {addr} --obs-addr-file {}",
        unwritable.display()
    )))
    .unwrap();
    cli.study.web = crumbcruncher::web::WebConfig::small();
    assert!(run(&cli).is_err(), "an unwritable --obs-addr-file must fail the run");
    assert!(
        get(&addr, "/healthz").is_none(),
        "observer outlived the failed run"
    );
}

#[test]
fn prom_flag_renders_the_run_report_as_exposition() {
    let _exclusive = exclusive();
    let mut cli = parse(&argv("truth --prom --seed 5 --steps 3 --walks 8")).unwrap();
    cli.study.web = crumbcruncher::web::WebConfig::small();
    let out = run(&cli).unwrap();

    // The output *is* the exposition — no tables, no prose around it.
    let stats = parse_exposition(&out).expect("--prom output is valid exposition");
    assert!(stats.samples > 0, "exposition carries no samples");
    assert!(
        out.contains("crawl"),
        "run exposition carries no crawl metrics:\n{out}"
    );
    assert!(
        !out.contains("precision"),
        "--prom leaked the normal command output"
    );
}

#[test]
fn dashboard_out_works_without_an_observer() {
    let _exclusive = exclusive();
    let dir = std::env::temp_dir().join("ccrs-obs-dash-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.html");
    let mut cli = parse(&argv(&format!(
        "truth --seed 7 --steps 3 --walks 8 --dashboard-out {}",
        path.display()
    )))
    .unwrap();
    cli.study.web = crumbcruncher::web::WebConfig::small();
    run(&cli).unwrap();
    let html = std::fs::read_to_string(&path).unwrap();
    // Even a sub-interval run has charts: the final sample is pushed at
    // shutdown, so the ring is never empty.
    assert!(html.contains("<svg"), "no charts in a fast run's dashboard");
    // The data block's samples run on one clock, and the last one is
    // taken after the crawl, so it counts every walk.
    let tag = "id=\"cc-obs-data\">";
    let start = html.find(tag).expect("data block") + tag.len();
    let end = start + html[start..].find("</script>").expect("data block end");
    let data: serde_json::Value =
        serde_json::from_str(&html[start..end].replace("<\\/", "</")).unwrap();
    let samples: Vec<ObsSample> = serde_json::from_value(
        data.as_object()
            .and_then(|o| o.get("samples"))
            .unwrap()
            .clone(),
    )
    .unwrap();
    assert!(
        samples.windows(2).all(|w| w[1].t_s >= w[0].t_s),
        "sample times went backwards: {samples:?}"
    );
    assert_eq!(samples.last().unwrap().walks, 8, "{samples:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `workers.walks` equals the per-worker rows' sum and the dataset's walk
/// count, and the run never ran the pipeline. Returns the report and the
/// walk count.
fn assert_walks_conserved(
    report_path: &std::path::Path,
    dataset_path: &std::path::Path,
) -> (RunReport, u64) {
    let report = RunReport::from_json(&std::fs::read_to_string(report_path).unwrap()).unwrap();
    let dataset = CrawlDataset::from_json(&std::fs::read_to_string(dataset_path).unwrap()).unwrap();
    let workers = report
        .workers
        .as_ref()
        .expect("a parallel run reports its workers");
    let rows: u64 = workers.per_worker.iter().map(|w| w.walks).sum();
    assert_eq!(workers.walks, rows, "worker rows disagree with the total");
    assert_eq!(
        workers.walks,
        dataset.walks.len() as u64,
        "progress disagrees with the dataset"
    );
    assert!(!has_pipeline_span(&report), "the crawl ran the pipeline");
    let walks = workers.walks;
    (report, walks)
}

fn has_pipeline_span(report: &RunReport) -> bool {
    let spans = &report.timing.spans;
    spans
        .iter()
        .any(|s| s.path.split('/').any(|p| p == "study.pipeline"))
}

#[test]
fn walk_counts_agree_across_planes_on_both_backends() {
    let _exclusive = exclusive();
    let dir = std::env::temp_dir().join("ccrs-obs-conservation-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (crawl_out, crawl_report) = (dir.join("crawl.json"), dir.join("crawl-run.json"));
    let (gaggle_out, gaggle_report) = (dir.join("gaggle.json"), dir.join("gaggle-run.json"));
    let truth_report = dir.join("truth-run.json");
    let addr_file = dir.join("addr.txt");
    std::fs::remove_file(&addr_file).ok();
    let study = "--seed 13 --steps 3 --walks 12";

    // In process, two executor threads.
    let mut crawl = parse(&argv(&format!(
        "crawl {study} --workers 2 --out {} --metrics-out {}",
        crawl_out.display(),
        crawl_report.display()
    )))
    .unwrap();
    crawl.study.web = crumbcruncher::web::WebConfig::small();
    run(&crawl).unwrap();
    assert_walks_conserved(&crawl_report, &crawl_out);

    // A gaggle manager with two in-thread workers.
    let mut manager = parse(&argv(&format!(
        "gaggle manager {study} --workers-expected 2 --lease-walks 4 --addr-file {} \
         --out {} --metrics-out {}",
        addr_file.display(),
        gaggle_out.display(),
        gaggle_report.display()
    )))
    .unwrap();
    manager.study.web = crumbcruncher::web::WebConfig::small();
    let manager = std::thread::spawn(move || run(&manager));
    let addr = {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(Instant::now() < deadline, "manager never bound");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let worker = parse(&argv(&format!("gaggle worker --connect {addr}"))).unwrap();
            std::thread::spawn(move || run(&worker))
        })
        .collect();
    manager.join().unwrap().unwrap();
    for worker in workers {
        worker.join().unwrap().unwrap();
    }
    // The manager's totals equal the sums of the workers' parting
    // Telemetry frames: leases it accepted, and walks it assembled.
    let (report, walks) = assert_walks_conserved(&gaggle_report, &gaggle_out);
    let counters = &report.deterministic.counters;
    assert_eq!(counters["gaggle.leases.completed"], counters["gaggle.worker.leases"]);
    assert_eq!(counters["gaggle.worker.walks"], walks);

    // A command that reads the pipeline still runs it.
    let mut truth = parse(&argv(&format!(
        "truth {study} --metrics-out {}",
        truth_report.display()
    )))
    .unwrap();
    truth.study.web = crumbcruncher::web::WebConfig::small();
    run(&truth).unwrap();
    let report = RunReport::from_json(&std::fs::read_to_string(&truth_report).unwrap()).unwrap();
    assert!(has_pipeline_span(&report), "truth ran without the pipeline");
    std::fs::remove_dir_all(&dir).ok();
}

/// The run report's `workers` section times the crawl alone: the world is
/// generated before it and the pipeline runs after it, so its clock fits
/// inside the `study.crawl` span and its rates count crawl time only.
#[test]
fn the_run_report_times_only_the_crawl() {
    let _exclusive = exclusive();
    let dir = std::env::temp_dir().join(format!("ccrs-obs-crawl-clock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("truth-run.json");
    let mut truth = parse(&argv(&format!(
        "truth --seed 13 --steps 3 --walks 12 --workers 2 --metrics-out {}",
        report_path.display()
    )))
    .unwrap();
    truth.study.web = crumbcruncher::web::WebConfig::small();
    run(&truth).unwrap();
    let report = RunReport::from_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    let span_ms = |path: &str| {
        let span = report.timing.spans.iter().find(|s| s.path == path);
        span.unwrap_or_else(|| panic!("no {path} span")).total_ms
    };
    let crawl_ms = span_ms("study.crawl");
    assert!(span_ms("study.generate_web") > 0.0 && span_ms("study.pipeline") > 0.0);
    let workers = report.workers.expect("a parallel run reports its workers");
    assert!(
        workers.elapsed_secs * 1e3 <= crawl_ms,
        "workers.elapsed_secs {} s is longer than the study.crawl span, {crawl_ms} ms",
        workers.elapsed_secs
    );
    assert_eq!(workers.walks, 12);
    std::fs::remove_dir_all(&dir).ok();
}
