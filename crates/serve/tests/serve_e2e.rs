//! End-to-end server tests over real loopback sockets: endpoint
//! behavior, ETag revalidation, byte-identity with the offline report,
//! graceful shutdown (in-flight connections complete, new connects
//! refused), overload (503 + shed counter, never a hang), and the
//! observer routes (`--obs-addr`) on the same listener.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_crawler::{CrawlConfig, Walker};
use cc_http::wire::WireError;
use cc_http::{Method, Request, Response};
use cc_serve::{ObsSources, ServeConfig, Server, ServerHandle, ServingIndex};
use cc_telemetry::{Collector, SnapshotRing};
use cc_url::Url;
use cc_util::{ProgressCounters, ProgressSnapshot};
use cc_web::{generate, WebConfig};

fn small_study() -> (cc_web::SimWeb, cc_crawler::CrawlDataset, cc_core::pipeline::PipelineOutput) {
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
    (web, ds, out)
}

fn start(cfg: ServeConfig) -> ServerHandle {
    let (web, ds, out) = small_study();
    let index = ServingIndex::build(&web, &ds, &out).unwrap();
    Server::start(index, cfg).unwrap()
}

/// Fresh observer sources over two progress slots, with no served index.
fn obs_sources() -> ObsSources {
    ObsSources {
        collector: Arc::new(Collector::default()),
        progress: Arc::new(ProgressCounters::new(2)),
        ring: Arc::new(SnapshotRing::new(64)),
        index: None,
    }
}

/// An observer over `sources` (the test keeps clones of its handles).
fn observe(sources: &ObsSources) -> ServerHandle<ObsSources> {
    Server::observe(sources.clone(), ServeConfig::default()).unwrap()
}

/// A tiny blocking test client over the wire codecs.
struct TestClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
}

impl TestClient {
    fn connect(addr: SocketAddr) -> TestClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        TestClient {
            reader,
            writer: stream,
            addr,
        }
    }

    fn request(&mut self, path: &str) -> Request {
        Request::navigation(Url::parse(&format!("http://{}{}", self.addr, path)).unwrap())
    }

    fn get(&mut self, path: &str) -> Response {
        let req = self.request(path);
        self.send(&req)
    }

    fn send(&mut self, req: &Request) -> Response {
        req.write_to(&mut self.writer).unwrap();
        Response::read_from(&mut self.reader).unwrap()
    }

    fn body_str(resp: &Response) -> String {
        String::from_utf8(resp.body.wire_bytes().to_vec()).unwrap()
    }
}

#[test]
fn endpoints_serve_expected_json() {
    let handle = start(ServeConfig::default());
    let mut client = TestClient::connect(handle.addr());

    let health = client.get("/healthz");
    assert_eq!(health.status.0, 200);
    assert!(TestClient::body_str(&health).contains("\"status\":\"ok\""));
    assert_eq!(health.headers.get("content-type"), Some("application/json"));

    // The served report is byte-identical to the offline serialization
    // of the same study.
    let (web, ds, out) = small_study();
    let offline = serde_json::to_string(&cc_analysis::report::full_report(&web, &ds, &out)).unwrap();
    let report = client.get("/report");
    assert_eq!(report.status.0, 200);
    assert_eq!(TestClient::body_str(&report), offline);

    let section = client.get("/report/summary");
    assert_eq!(section.status.0, 200);
    assert!(TestClient::body_str(&section).contains("unique_url_paths"));
    assert_eq!(client.get("/report/not-a-section").status.0, 404);

    let smugglers = client.get("/smugglers?role=dedicated&limit=3");
    assert_eq!(smugglers.status.0, 200);
    assert!(TestClient::body_str(&smugglers).contains("\"role\":\"dedicated\""));
    assert_eq!(client.get("/smugglers?role=bogus").status.0, 400);
    assert_eq!(client.get("/smugglers?limit=many").status.0, 400);

    // The species-evasion route exists on every study; a baseline world
    // serves the empty matrix.
    let species = client.get("/report/species-evasion");
    assert_eq!(species.status.0, 200);
    assert!(TestClient::body_str(&species).contains("\"rows\":[]"));

    let catalog = client.get("/catalog");
    let catalog_body = TestClient::body_str(&catalog);
    assert!(catalog_body.contains("\"sections\":[\"table-1\""));

    let walk = client.get("/walks/0");
    assert_eq!(walk.status.0, 200);
    assert!(TestClient::body_str(&walk).contains("\"walk_id\":0"));
    assert_eq!(client.get("/walks/999999").status.0, 404);

    let metrics = client.get("/metrics");
    assert_eq!(metrics.status.0, 200);
    let run_report = cc_telemetry::RunReport::from_json(&TestClient::body_str(&metrics)).unwrap();
    assert!(run_report.deterministic.counters["serve.requests"] >= 1);

    // Wrong method on a data endpoint.
    let mut post = client.request("/report");
    post.method = Method::Post;
    assert_eq!(client.send(&post).status.0, 405);

    let final_metrics = handle.shutdown();
    assert!(final_metrics.deterministic.counters["serve.requests"] >= 10);
}

#[test]
fn etag_revalidation_round_trip() {
    let handle = start(ServeConfig::default());
    let mut client = TestClient::connect(handle.addr());

    let first = client.get("/report");
    let etag = first.headers.get("etag").expect("report has etag").to_string();
    assert!(etag.starts_with('"') && etag.ends_with('"'), "strong etag, got {etag}");

    // Matching If-None-Match: 304, empty body, same etag echoed.
    let mut revalidate = client.request("/report");
    revalidate.headers.set("if-none-match", etag.clone());
    let not_modified = client.send(&revalidate);
    assert_eq!(not_modified.status.0, 304);
    assert!(not_modified.body.wire_bytes().is_empty());
    assert_eq!(not_modified.headers.get("etag"), Some(etag.as_str()));

    // A stale ETag gets the full body again.
    let mut stale = client.request("/report");
    stale.headers.set("if-none-match", "\"0000000000000000\"");
    assert_eq!(client.send(&stale).status.0, 200);

    // List form and wildcard both revalidate.
    let mut listed = client.request("/report");
    listed
        .headers
        .set("if-none-match", format!("\"other\", {etag}"));
    assert_eq!(client.send(&listed).status.0, 304);
    let mut wildcard = client.request("/healthz");
    wildcard.headers.set("if-none-match", "*");
    assert_eq!(client.send(&wildcard).status.0, 304);

    let metrics = handle.shutdown();
    assert!(metrics.deterministic.counters["serve.revalidated_304"] >= 3);
}

#[test]
fn species_evasion_section_is_served_byte_identically_with_etag() {
    // An all-species study: the species-evasion matrix is non-empty, the
    // served bytes match the offline serialization exactly, and the new
    // route participates in ETag revalidation like every other section.
    let web = generate(&WebConfig::small().all_species());
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
    let offline = cc_analysis::report::full_report(&web, &ds, &out)
        .section_json(cc_analysis::ReportSection::SpeciesEvasion)
        .unwrap();

    let index = ServingIndex::build(&web, &ds, &out).unwrap();
    let handle = Server::start(index, ServeConfig::default()).unwrap();
    let mut client = TestClient::connect(handle.addr());

    let resp = client.get("/report/species-evasion");
    assert_eq!(resp.status.0, 200);
    let body = TestClient::body_str(&resp);
    assert_eq!(body, offline, "served section diverged from the offline bytes");
    for label in ["bounce-remint", "etag-respawn", "consent-gated", "spa-pushstate", "cname-cloaked"]
    {
        assert!(body.contains(label), "matrix is missing the {label} row");
    }

    // ETag round trip on the species route.
    let etag = resp.headers.get("etag").expect("section has etag").to_string();
    let mut revalidate = client.request("/report/species-evasion");
    revalidate.headers.set("if-none-match", etag.clone());
    let not_modified = client.send(&revalidate);
    assert_eq!(not_modified.status.0, 304);
    assert!(not_modified.body.wire_bytes().is_empty());
    assert_eq!(not_modified.headers.get("etag"), Some(etag.as_str()));

    let mut stale = client.request("/report/species-evasion");
    stale.headers.set("if-none-match", "\"0000000000000000\"");
    assert_eq!(client.send(&stale).status.0, 200);

    let metrics = handle.shutdown();
    assert!(metrics.deterministic.counters["serve.revalidated_304"] >= 1);
}

#[test]
fn graceful_shutdown_drains_inflight_and_refuses_new_connects() {
    // Two workers, slowed handling: connections pile up in the queue so
    // shutdown has real work to drain.
    let handle = start(ServeConfig {
        workers: 2,
        max_inflight: 16,
        debug_delay_ms: 150,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // K connections with a request in flight.
    const K: usize = 4;
    let workers: Vec<_> = (0..K)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = TestClient::connect(addr);
                let mut req = c.request("/healthz");
                req.headers.set("connection", "close");
                c.send(&req).status.0
            })
        })
        .collect();

    // Give the K requests time to be accepted, then ask for shutdown.
    std::thread::sleep(Duration::from_millis(50));
    let shutdown_status = std::thread::spawn(move || {
        let mut c = TestClient::connect(addr);
        let mut req = c.request("/shutdown");
        req.method = Method::Post;
        c.send(&req).status.0
    });

    // Every in-flight connection completes with a real response.
    for w in workers {
        assert_eq!(w.join().unwrap(), 200, "in-flight request dropped");
    }
    assert_eq!(shutdown_status.join().unwrap(), 200);

    let metrics = handle.wait();
    assert_eq!(metrics.deterministic.counters["serve.requests"], K as u64 + 1);

    // The listener is gone: new connections are refused (or, at worst,
    // immediately closed without an HTTP response).
    std::thread::sleep(Duration::from_millis(50));
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let req =
                Request::navigation(Url::parse(&format!("http://{addr}/healthz")).unwrap());
            let mut w = stream;
            let outcome = req
                .write_to(&mut w)
                .and_then(|_| Response::read_from(&mut reader));
            assert!(outcome.is_err(), "server answered after shutdown");
        }
    }
}

/// The `serve.wakeups` gauge (accept and worker wakeups) of a report.
fn wakeups(report: &cc_telemetry::RunReport) -> u64 {
    let gauges = &report.timing.gauges;
    gauges.get("serve.wakeups").copied().unwrap_or(0.0) as u64
}

/// How often `handle`'s threads wake in one idle second, and in its
/// shutdown.
fn idle_and_shutdown_wakeups<S>(handle: ServerHandle<S>) -> (u64, u64) {
    let before = wakeups(&handle.metrics());
    std::thread::sleep(Duration::from_secs(1));
    let idle = wakeups(&handle.metrics()) - before;
    let total = wakeups(&handle.shutdown());
    (idle, total - before - idle)
}

#[test]
fn an_idle_server_sleeps() {
    for (what, (idle, stop)) in [
        (
            "index",
            idle_and_shutdown_wakeups(start(ServeConfig::default())),
        ),
        (
            "observer",
            idle_and_shutdown_wakeups(observe(&obs_sources())),
        ),
        (
            "IPv6 loopback",
            idle_and_shutdown_wakeups(start(ServeConfig {
                addr: "[::1]:0".into(),
                ..ServeConfig::default()
            })),
        ),
    ] {
        assert!(idle <= 10, "an idle {what} server woke {idle} times in 1 s");
        // Shutdown wakes the sleeping threads: the accept thread through
        // its own connect, the workers through the queue's condition.
        assert!(stop >= 1, "the {what} server's shutdown woke nothing");
    }
}

#[test]
fn handle_shutdown_refuses_new_connects_while_inflight_requests_drain() {
    let handle = start(ServeConfig {
        workers: 2,
        max_inflight: 16,
        debug_delay_ms: 300,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    const K: usize = 2;
    let inflight: Vec<_> = (0..K)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = TestClient::connect(addr);
                let mut req = c.request("/healthz");
                req.headers.set("connection", "close");
                c.send(&req).status.0
            })
        })
        .collect();
    // Shut down once both sessions are with a worker, inside their
    // handlers' 300 ms delay; the accept thread is woken and gone long
    // before they end.
    let deadline = Instant::now() + Duration::from_secs(10);
    let sessions = |h: &ServerHandle| {
        h.metrics()
            .deterministic
            .counters
            .get("serve.sessions")
            .copied()
    };
    while sessions(&handle) != Some(K as u64) {
        assert!(
            Instant::now() < deadline,
            "the sessions never reached a worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let asked = Instant::now();
    let shutdown = std::thread::spawn(move || handle.shutdown());
    let mut refused = false;
    while !refused && asked.elapsed() < Duration::from_millis(250) {
        refused = TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_err();
        std::thread::sleep(Duration::from_millis(10));
    }
    let drained: Vec<u16> = inflight.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(refused, "connects still accepted 250 ms into shutdown");
    assert_eq!(drained, [200; K], "an in-flight request was dropped");
    let report = shutdown.join().unwrap();
    assert_eq!(report.deterministic.counters["serve.requests"], K as u64);
}

#[test]
fn overload_sheds_503_and_counts_never_hangs() {
    // One worker, slow handling, admission bound of 2: the first
    // connection occupies the worker, the second queues, the third must
    // be shed immediately with a 503.
    let handle = start(ServeConfig {
        workers: 1,
        max_inflight: 2,
        debug_delay_ms: 400,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let first = std::thread::spawn(move || {
        let mut c = TestClient::connect(addr);
        let mut req = c.request("/report");
        req.headers.set("connection", "close");
        c.send(&req).status.0
    });
    std::thread::sleep(Duration::from_millis(100)); // worker picks up #1
    let second = std::thread::spawn(move || {
        let mut c = TestClient::connect(addr);
        let mut req = c.request("/healthz");
        req.headers.set("connection", "close");
        c.send(&req).status.0
    });
    std::thread::sleep(Duration::from_millis(100)); // #2 sits in the queue

    // Above the admission bound: an immediate 503, well before the
    // worker frees up (i.e. no hang waiting behind the queue).
    let mut shed_client = TestClient::connect(addr);
    let started = std::time::Instant::now();
    let shed_resp = shed_client.get("/healthz");
    assert_eq!(shed_resp.status.0, 503);
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "shed response was not immediate ({:?})",
        started.elapsed()
    );
    assert!(TestClient::body_str(&shed_resp).contains("overloaded"));

    // The admitted connections still complete normally.
    assert_eq!(first.join().unwrap(), 200);
    assert_eq!(second.join().unwrap(), 200);

    let metrics = handle.shutdown();
    assert_eq!(metrics.deterministic.counters["serve.shed"], 1);
    assert_eq!(metrics.deterministic.counters["serve.requests"], 2);
}

#[test]
fn malformed_requests_get_mapped_statuses() {
    let handle = start(ServeConfig::default());
    let observer = observe(&obs_sources());

    for addr in [handle.addr(), observer.addr()] {
        // Oversized header line → 431.
        {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            let huge = "x".repeat(9000);
            write!(w, "GET /healthz HTTP/1.1\r\nhost: a\r\nbig: {huge}\r\n\r\n").unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status.0, 431);
        }

        // Unsupported method → 405 with a close.
        {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            write!(w, "DELETE /report HTTP/1.1\r\nhost: a\r\n\r\n").unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status.0, 405);
            assert_eq!(resp.headers.get("connection"), Some("close"));
            // And the server closed the connection after answering.
            assert_eq!(
                Response::read_from(&mut reader).unwrap_err(),
                WireError::Closed
            );
        }
    }

    handle.shutdown();
    observer.shutdown();
}

#[test]
fn invalid_config_is_rejected() {
    let (web, ds, out) = small_study();
    let index = ServingIndex::build(&web, &ds, &out).unwrap();
    let bad = ServeConfig {
        workers: 4,
        max_inflight: 2,
        ..ServeConfig::default()
    };
    assert!(Server::start(index, bad.clone()).is_err());
    assert!(Server::observe(obs_sources(), bad).is_err());
}

#[test]
fn observability_endpoints_serve_prom_and_sampled_logs() {
    let handle = start(ServeConfig::default());
    let mut client = TestClient::connect(handle.addr());

    // Generate a little traffic first, including an error and a query.
    assert_eq!(client.get("/healthz").status.0, 200);
    assert_eq!(client.get("/no-such-path").status.0, 404);
    assert_eq!(client.get("/smugglers?role=dedicated&limit=2").status.0, 200);

    // Live endpoints carry explicit content types and are never
    // cacheable.
    let metrics = client.get("/metrics");
    assert_eq!(metrics.status.0, 200);
    assert_eq!(metrics.headers.get("content-type"), Some("application/json"));
    assert_eq!(metrics.headers.get("cache-control"), Some("no-store"));

    let prom = client.get("/metrics.prom");
    assert_eq!(prom.status.0, 200);
    assert_eq!(
        prom.headers.get("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    assert_eq!(prom.headers.get("cache-control"), Some("no-store"));
    let text = TestClient::body_str(&prom);
    let stats = cc_telemetry::parse_exposition(&text).expect("valid exposition");
    assert!(stats.families >= 3 && stats.samples >= 5, "{stats:?}");
    assert!(text.contains("cc_counter_total{name=\"serve.requests\"}"));
    // RED error breakdown: the 404 above shows up as a 4xx-class event.
    assert!(text.contains("class=4xx"), "missing status-class event:\n{text}");

    // The head-sampled log: admission order, full fidelity for the first
    // requests, query strings stripped.
    let logs = client.get("/logs");
    assert_eq!(logs.status.0, 200);
    assert_eq!(logs.headers.get("cache-control"), Some("no-store"));
    let body = TestClient::body_str(&logs);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let obj = v.as_object().unwrap();
    assert_eq!(obj.get("sampling").and_then(|s| s.as_str()), Some("head"));
    let entries = obj.get("entries").and_then(|e| e.as_array()).unwrap();
    assert!(entries.len() >= 5, "expected the whole head so far, got {}", entries.len());
    let first = entries[0].as_object().unwrap();
    assert_eq!(first.get("seq").and_then(|s| s.as_f64()), Some(1.0));
    assert_eq!(first.get("path").and_then(|s| s.as_str()), Some("/healthz"));
    assert_eq!(first.get("method").and_then(|s| s.as_str()), Some("GET"));
    assert_eq!(first.get("status").and_then(|s| s.as_f64()), Some(200.0));
    let third = entries[2].as_object().unwrap();
    assert_eq!(third.get("path").and_then(|s| s.as_str()), Some("/smugglers"));
    assert!(!body.contains("role=dedicated"), "query must be stripped from logs");

    handle.shutdown();
}

#[test]
fn epoch_metadata_rides_on_every_response() {
    let handle = start(ServeConfig::default());
    let mut client = TestClient::connect(handle.addr());

    // A static index is exactly one epoch (1), with the deterministic
    // epoch-derived Last-Modified on every cached body.
    let report = client.get("/report");
    assert_eq!(report.headers.get("x-cc-epoch"), Some("1"));
    let lm = report
        .headers
        .get("last-modified")
        .expect("cached bodies carry last-modified")
        .to_string();
    assert_eq!(lm, cc_serve::last_modified_for_epoch(1));

    // The 304 repeats the validator headers (RFC 9110 §15.4.5).
    let etag = report.headers.get("etag").unwrap().to_string();
    let mut revalidate = client.request("/report");
    revalidate.headers.set("if-none-match", etag);
    let not_modified = client.send(&revalidate);
    assert_eq!(not_modified.status.0, 304);
    assert_eq!(not_modified.headers.get("last-modified"), Some(lm.as_str()));
    assert_eq!(not_modified.headers.get("x-cc-epoch"), Some("1"));

    // Live endpoints are stamped too: a scraper can tell which epoch
    // answered without touching a cached route.
    assert_eq!(client.get("/metrics").headers.get("x-cc-epoch"), Some("1"));
    assert_eq!(client.get("/no-such-path").headers.get("x-cc-epoch"), Some("1"));

    // /progress: one complete epoch, zero swaps.
    let progress = client.get("/progress");
    assert_eq!(progress.status.0, 200);
    assert_eq!(progress.headers.get("cache-control"), Some("no-store"));
    let v: serde_json::Value =
        serde_json::from_str(&TestClient::body_str(&progress)).unwrap();
    let o = v.as_object().unwrap();
    assert_eq!(o.get("epoch").and_then(|x| x.as_u64()), Some(1));
    assert_eq!(o.get("swaps").and_then(|x| x.as_u64()), Some(0));
    assert_eq!(
        o.get("walks_indexed").and_then(|x| x.as_u64()),
        o.get("walks_total").and_then(|x| x.as_u64())
    );
    assert_eq!(o.get("complete").and_then(|x| x.as_bool()), Some(true));

    handle.shutdown();
}

#[test]
fn live_epoch_swaps_advance_clients_without_reconnecting() {
    use cc_crawler::{PublishPolicy, SnapshotSink, StudyRun};
    use std::sync::{Arc, Mutex};

    // Record the executor's published deltas (every 5 walks) so the test
    // can replay their running unions through the incremental builder.
    struct Rec(Mutex<Vec<cc_crawler::CrawlCheckpoint>>);
    impl SnapshotSink for Rec {
        fn publish(&self, snapshot: cc_crawler::CrawlCheckpoint) {
            self.0.lock().unwrap().push(snapshot);
        }
    }
    let study = cc_crawler::StudyConfig::builder()
        .web(WebConfig::small())
        .seed(5)
        .steps(5)
        .walks(15)
        .workers(2)
        .build()
        .unwrap();
    let rec = Arc::new(Rec(Mutex::new(Vec::new())));
    let web = generate(&study.web);
    StudyRun::new(&web, &study)
        .publish(PublishPolicy::new(
            5,
            Arc::clone(&rec) as Arc<dyn SnapshotSink>,
        ))
        .run()
        .unwrap();
    let deltas = std::mem::take(&mut *rec.0.lock().unwrap());
    assert!(deltas.len() >= 3, "expected batches at 5/10/15 walks");
    let mut snapshots: Vec<cc_crawler::CrawlCheckpoint> = Vec::new();
    for delta in deltas {
        let mut union = match snapshots.last() {
            Some(last) => last.clone(),
            None => {
                cc_crawler::CrawlCheckpoint::new(&study, Default::default(), Default::default())
            }
        };
        union.absorb(delta);
        snapshots.push(union);
    }

    // Serve the warming epoch, then swap in each folded snapshot while a
    // single keep-alive client keeps reading.
    let mut builder = cc_serve::IncrementalIndexBuilder::new(&study);
    let index_handle = cc_serve::IndexHandle::new(builder.warming().unwrap());
    let server = Server::start(index_handle.clone(), ServeConfig::default()).unwrap();
    let mut client = TestClient::connect(server.addr());

    let warm = client.get("/report");
    assert_eq!(warm.headers.get("x-cc-epoch"), Some("0"));
    let mut last_etag = warm.headers.get("etag").unwrap().to_string();
    let mut last_epoch = 0u64;
    let mut last_lm = warm.headers.get("last-modified").unwrap().to_string();

    for ck in &snapshots {
        let index = builder
            .fold(ck)
            .unwrap()
            .expect("every union grows the walk set");
        index_handle.publish(index);
        let resp = client.get("/report");
        let epoch: u64 = resp.headers.get("x-cc-epoch").unwrap().parse().unwrap();
        let etag = resp.headers.get("etag").unwrap().to_string();
        let lm = resp.headers.get("last-modified").unwrap().to_string();
        assert!(epoch > last_epoch, "epochs must advance monotonically");
        assert_ne!(etag, last_etag, "new walks must change the report etag");
        assert_ne!(lm, last_lm, "last-modified advances with the epoch");
        last_epoch = epoch;
        last_etag = etag;
        last_lm = lm;
    }
    assert!(last_epoch >= 3, "every growing snapshot became an epoch");

    // /progress reflects the final epoch and a complete crawl.
    let progress: serde_json::Value =
        serde_json::from_str(&TestClient::body_str(&client.get("/progress"))).unwrap();
    let o = progress.as_object().unwrap();
    assert_eq!(o.get("epoch").and_then(|x| x.as_u64()), Some(last_epoch));
    assert_eq!(o.get("swaps").and_then(|x| x.as_u64()), Some(last_epoch));
    assert_eq!(o.get("walks_indexed").and_then(|x| x.as_u64()), Some(15));
    assert_eq!(o.get("complete").and_then(|x| x.as_bool()), Some(true));

    // The swap telemetry is wired into the server's collector.
    let metrics = server.shutdown();
    assert_eq!(
        metrics.deterministic.counters["serve.epoch.swaps"],
        last_epoch
    );
    assert_eq!(
        metrics.timing.gauges["serve.epoch.current"],
        last_epoch as f64
    );
}

#[test]
fn follow_source_reaches_the_offline_bytes_and_never_regresses() {
    use cc_crawler::StudyRun;

    // A crawl that checkpoints every 4 walks; the server follows the
    // checkpoint file as it grows.
    let dir = std::env::temp_dir().join("ccrs-serve-follow");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("follow.ccp").to_str().unwrap().to_string();
    std::fs::remove_file(&path).ok();
    let study = cc_crawler::StudyConfig::builder()
        .web(WebConfig::small())
        .seed(5)
        .steps(5)
        .walks(12)
        .workers(2)
        .checkpoint(path.clone(), 4)
        .build()
        .unwrap();

    // Start the follower before the file exists: it must wait for the
    // crawl's first batch rather than failing.
    let follow = cc_serve::FollowConfig {
        path: path.clone().into(),
        poll_ms: 10,
        wait_ms: 30_000,
    };
    let started = std::thread::spawn({
        let follow = follow.clone();
        move || Server::start(follow, ServeConfig::default()).unwrap()
    });
    let web = generate(&study.web);
    StudyRun::new(&web, &study).run().unwrap();
    let server = started.join().unwrap();

    // Wait (bounded) for the follower to fold the final checkpoint.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let index_handle = server.index_handle();
    while !index_handle.current().complete() {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never reached the complete epoch"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The final followed epoch serves byte-identical bodies to an
    // offline index over the same checkpoint.
    let offline = cc_serve::ServingIndex::from_checkpoint_path(&path).unwrap();
    let served = index_handle.current();
    for (route, cached) in offline.routes() {
        let live = served.lookup(route).expect("followed index is missing a route");
        assert_eq!(live.body, cached.body, "body diverged on {route}");
        assert_eq!(live.etag, cached.etag, "etag diverged on {route}");
    }
    assert_eq!(served.walks(), 12);
    assert!(served.epoch() >= 1);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn follow_refolds_a_clock_skewed_checkpoint_rewrite() {
    use cc_crawler::StudyRun;
    use std::fs::FileTimes;

    // A followed checkpoint rewritten in place with the same length but
    // an *older* mtime (an NTP step, a restored backup, a
    // timestamp-preserving copy) is still a change: it must be re-read
    // and flagged as clock skew, never skipped as already-seen.
    let dir = std::env::temp_dir().join("ccrs-serve-follow-skew");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("skew.ccp");
    std::fs::remove_file(&path).ok();
    let study = cc_crawler::StudyConfig::builder()
        .web(WebConfig::small())
        .seed(5)
        .steps(3)
        .walks(12)
        .checkpoint(path.to_str().unwrap(), 3)
        .build()
        .unwrap();
    let web = generate(&study.web);

    // A partial crawl leaves a 6-walk checkpoint; the follower keeps
    // polling because the crawl is not complete.
    StudyRun::new(&web, &study).stop_after(6).run().unwrap();
    let follow = cc_serve::FollowConfig {
        path: path.clone(),
        poll_ms: 10,
        wait_ms: 30_000,
    };
    let server = Server::start(follow, ServeConfig::default()).unwrap();
    let index_handle = server.index_handle();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while index_handle.current().walks() < 6 {
        assert!(std::time::Instant::now() < deadline, "partial epoch never served");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Rewrite the same bytes, then step the mtime backwards — further
    // back each attempt so it is older than whatever fingerprint the
    // poller has recorded, until the skew is noticed.
    let bytes = std::fs::read(&path).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut step = 1u64;
    loop {
        std::fs::write(&path, &bytes).unwrap();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let skewed = std::time::SystemTime::now() - Duration::from_secs(600 * step);
        f.set_times(FileTimes::new().set_modified(skewed)).unwrap();
        step += 1;
        std::thread::sleep(Duration::from_millis(50));
        let seen = server
            .metrics()
            .deterministic
            .events
            .keys()
            .any(|k| k.starts_with("serve.follow.clock_skew"));
        if seen {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "clock-skewed rewrite was never detected"
        );
    }

    // The follower is still live after the skew: finishing the crawl
    // (resumed from the checkpoint) folds through to the complete epoch.
    let ck = cc_crawler::CrawlCheckpoint::load(path.to_str().unwrap()).unwrap();
    StudyRun::new(&web, &study).resume(ck).run().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !index_handle.current().complete() {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never folded the finished crawl after the skewed rewrite"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(index_handle.current().walks(), 12);

    let metrics = server.shutdown();
    assert!(
        metrics
            .deterministic
            .events
            .keys()
            .any(|k| k.starts_with("serve.follow.clock_skew")),
        "clock-skew event missing from the run report"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn request_log_head_sampling_is_bounded_and_deterministic() {
    let run = || {
        let handle = start(ServeConfig {
            workers: 1, // single worker => fully deterministic admission order
            ..ServeConfig::default()
        });
        let mut client = TestClient::connect(handle.addr());
        for i in 0..140 {
            let path = if i % 3 == 0 { "/healthz" } else { "/catalog" };
            assert_eq!(client.get(path).status.0, 200);
        }
        let body = TestClient::body_str(&client.get("/logs"));
        handle.shutdown();
        body
    };
    let body = run();
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let obj = v.as_object().unwrap();
    // 140 requests recorded before /logs itself (its own accounting
    // lands after the response body is built), but only the first 128
    // are retained.
    assert_eq!(obj.get("head").and_then(|h| h.as_f64()), Some(128.0));
    assert_eq!(obj.get("total_requests").and_then(|t| t.as_f64()), Some(140.0));
    let entries = obj.get("entries").and_then(|e| e.as_array()).unwrap();
    assert_eq!(entries.len(), 128);

    // Identical run => identical sampled set (modulo durations).
    let routes = |body: &str| -> Vec<(f64, String)> {
        let v: serde_json::Value = serde_json::from_str(body).unwrap();
        v.as_object()
            .unwrap()
            .get("entries")
            .and_then(|e| e.as_array())
            .unwrap()
            .iter()
            .map(|e| {
                let o = e.as_object().unwrap();
                (
                    o.get("seq").and_then(|s| s.as_f64()).unwrap(),
                    o.get("path").and_then(|p| p.as_str()).unwrap().to_string(),
                )
            })
            .collect()
    };
    assert_eq!(routes(&body), routes(&run()));
}

#[test]
fn observer_serves_every_endpoint_with_hygiene_headers() {
    let sources = obs_sources();
    sources.collector.add_counter("crawl.walks", 7);
    sources.collector.set_gauge("serve.inflight", 3.0);
    sources.collector.observe_ms("serve.latency", 12.5);
    sources.progress.record_walk(0, 4);
    sources.ring.push(cc_obs::take_sample(
        0.5,
        &sources.collector,
        &sources.progress,
    ));

    let observer = observe(&sources);
    let mut client = TestClient::connect(observer.addr());
    for path in ["/healthz", "/progress", "/metrics", "/timeseries"] {
        let resp = client.get(path);
        assert_eq!(resp.status.0, 200, "{path}");
        assert_eq!(
            resp.headers.get("content-type"),
            Some("application/json"),
            "{path}"
        );
        assert_eq!(
            resp.headers.get("cache-control"),
            Some("no-store"),
            "{path}"
        );
    }

    let prom = client.get("/metrics.prom");
    assert_eq!(prom.status.0, 200);
    assert_eq!(
        prom.headers.get("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    assert_eq!(prom.headers.get("cache-control"), Some("no-store"));
    let text = TestClient::body_str(&prom);
    let stats = cc_telemetry::parse_exposition(&text).expect("valid exposition");
    assert!(stats.families > 0 && stats.samples > 0);
    // The exposition is the session's collector, not the listener's own
    // request accounting.
    assert!(text.contains("crawl.walks"), "{text}");
    assert!(!text.contains("serve.requests"), "{text}");

    // Five requests on one keep-alive connection, counted by the listener.
    let metrics = observer.shutdown();
    assert_eq!(metrics.deterministic.counters["serve.requests"], 5);
    assert_eq!(metrics.deterministic.counters["serve.sessions"], 1);
}

#[test]
fn progress_endpoint_tracks_live_counters() {
    let sources = obs_sources();
    let observer = observe(&sources);
    let mut client = TestClient::connect(observer.addr());
    let progress = |client: &mut TestClient| -> serde_json::Value {
        serde_json::from_str(&TestClient::body_str(&client.get("/progress"))).unwrap()
    };

    let before: ProgressSnapshot = serde_json::from_value(progress(&mut client)).unwrap();
    assert_eq!(before.walks, 0);

    sources.progress.record_walk(0, 5);
    sources.progress.record_walk(1, 3);

    let after = progress(&mut client);
    assert!(
        after.as_object().unwrap().get("serve_epoch").is_none(),
        "no served index, no epoch"
    );
    let after: ProgressSnapshot = serde_json::from_value(after).unwrap();
    assert_eq!(after.walks, 2);
    assert_eq!(after.steps, 8);
    assert_eq!(after.per_worker.len(), 2);
    assert!(after.walks >= before.walks && after.steps >= before.steps);
    observer.shutdown();

    // A crawl that is also served live reports the served epoch beside
    // its progress, and the epoch moves with the index handle.
    let study = cc_crawler::StudyConfig::builder()
        .web(WebConfig::small())
        .seed(5)
        .build()
        .unwrap();
    let index = cc_serve::IndexHandle::new(
        cc_serve::IncrementalIndexBuilder::new(&study)
            .warming()
            .unwrap(),
    );
    let observer = observe(&ObsSources {
        index: Some(index.clone()),
        ..sources
    });
    let mut client = TestClient::connect(observer.addr());
    let epoch = |v: serde_json::Value| {
        v.as_object()
            .and_then(|o| o.get("serve_epoch"))
            .and_then(|e| e.as_u64())
    };
    assert_eq!(epoch(progress(&mut client)), Some(0));
    let (web, ds, out) = small_study();
    index.publish(ServingIndex::build(&web, &ds, &out).unwrap());
    let served = progress(&mut client);
    assert_eq!(epoch(served.clone()), Some(1));
    let served: ProgressSnapshot = serde_json::from_value(served).unwrap();
    assert_eq!(served.walks, 2);
    observer.shutdown();
}

#[test]
fn timeseries_reflects_ring_contents() {
    let sources = obs_sources();
    sources.progress.record_walk(0, 2);
    sources.collector.set_gauge("serve.inflight", 9.0);
    for i in 0..3 {
        sources.ring.push(cc_obs::take_sample(
            i as f64,
            &sources.collector,
            &sources.progress,
        ));
    }
    let observer = observe(&sources);
    let body = TestClient::body_str(&TestClient::connect(observer.addr()).get("/timeseries"));
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let obj = v.as_object().unwrap();
    assert_eq!(
        obj.get("schema").and_then(|s| s.as_str()),
        Some("cc-obs/v1")
    );
    let samples = obj.get("samples").and_then(|s| s.as_array()).unwrap();
    assert_eq!(samples.len(), 3);
    let last = samples[2].as_object().unwrap();
    assert_eq!(last.get("inflight").and_then(|x| x.as_f64()), Some(9.0));
    assert_eq!(last.get("walks").and_then(|x| x.as_f64()), Some(1.0));
    observer.shutdown();
}

#[test]
fn observer_answers_only_its_own_routes() {
    let observer = observe(&obs_sources());
    let mut client = TestClient::connect(observer.addr());
    // The index routes are not the observer's.
    for path in ["/nope", "/report", "/logs"] {
        let resp = client.get(path);
        assert_eq!(resp.status.0, 404, "{path}");
        assert!(TestClient::body_str(&resp).contains(path), "{path}");
    }

    let mut post = client.request("/progress");
    post.method = Method::Post;
    let resp = client.send(&post);
    assert_eq!(resp.status.0, 405);
    assert_eq!(resp.headers.get("content-type"), Some("application/json"));

    // Nor does it stop on the index server's shutdown request.
    let mut shutdown = client.request("/shutdown");
    shutdown.method = Method::Post;
    assert_eq!(client.send(&shutdown).status.0, 405);
    assert!(!observer.stop_requested());
    assert_eq!(client.get("/healthz").status.0, 200);
    observer.shutdown();
}

/// A client that sends half a request and stalls holds one worker for
/// its read timeout, never the observer: a second client is answered at
/// once.
#[test]
fn a_stalled_client_cannot_hold_the_observer() {
    let observer = observe(&obs_sources());
    let mut stalled = TcpStream::connect(observer.addr()).unwrap();
    stalled.write_all(b"GET /healthz HTTP/1.1\r\nHo").unwrap();

    let started = Instant::now();
    let resp = TestClient::connect(observer.addr()).get("/healthz");
    let waited = started.elapsed();
    assert_eq!(resp.status.0, 200);
    assert!(
        waited < Duration::from_millis(500),
        "a stalled client held /healthz for {waited:?}"
    );
    drop(stalled);
    observer.shutdown();
}
