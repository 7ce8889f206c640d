//! End-to-end observer tests over real loopback sockets: every endpoint,
//! the response-hygiene headers (explicit Content-Type, no-store), the
//! missing-source 404s, and the sampler → ring → `/timeseries` loop.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cc_http::{Method, Request, Response, StatusCode};
use cc_obs::{Observer, ObsSources, Sampler, SamplerConfig};
use cc_telemetry::{parse_exposition, Collector, SnapshotRing};
use cc_url::Url;
use cc_util::{ProgressCounters, ProgressSnapshot};

/// One request per connection, matching the observer's `Connection:
/// close` behavior.
fn get(addr: std::net::SocketAddr, path: &str) -> Response {
    request(addr, path, Method::Get)
}

fn request(addr: std::net::SocketAddr, path: &str, method: Method) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut req = Request::navigation(Url::parse(&format!("http://{addr}{path}")).unwrap());
    req.method = method;
    req.write_to(&mut writer).unwrap();
    Response::read_from(&mut reader).unwrap()
}

fn body_str(resp: &Response) -> String {
    String::from_utf8(resp.body.wire_bytes().to_vec()).unwrap()
}

fn full_sources() -> (ObsSources, Arc<Collector>, Arc<ProgressCounters>, Arc<SnapshotRing>) {
    let collector = Arc::new(Collector::default());
    let progress = Arc::new(ProgressCounters::new(2));
    let ring = Arc::new(SnapshotRing::new(64));
    let sources = ObsSources {
        collector: Some(Arc::clone(&collector)),
        progress: Some(Arc::clone(&progress)),
        ring: Some(Arc::clone(&ring)),
        epoch: None,
    };
    (sources, collector, progress, ring)
}

#[test]
fn observer_serves_every_endpoint_with_hygiene_headers() {
    let (sources, collector, progress, ring) = full_sources();
    collector.add_counter("crawl.walks", 7);
    collector.set_gauge("serve.inflight", 3.0);
    collector.observe_ms("serve.latency", 12.5);
    progress.record_walk(0, 4);
    ring.push(cc_obs::take_sample(0.5, Some(&collector), Some(&progress)));

    let obs = Observer::start("127.0.0.1:0", sources).unwrap();
    let addr = obs.addr();

    for (served, path) in ["/healthz", "/progress", "/metrics", "/timeseries"]
        .into_iter()
        .enumerate()
    {
        let resp = get(addr, path);
        // Counted before the response was written.
        assert_eq!(obs.requests_served(), served as u64 + 1, "{path}");
        assert_eq!(resp.status, StatusCode::OK, "{path}");
        assert_eq!(
            resp.headers.get("content-type"),
            Some("application/json"),
            "{path}"
        );
        assert_eq!(resp.headers.get("cache-control"), Some("no-store"), "{path}");
        assert_eq!(resp.headers.get("connection"), Some("close"), "{path}");
    }

    let prom = get(addr, "/metrics.prom");
    assert_eq!(obs.requests_served(), 5);
    assert_eq!(prom.status, StatusCode::OK);
    assert_eq!(
        prom.headers.get("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    assert_eq!(prom.headers.get("cache-control"), Some("no-store"));
    let stats = parse_exposition(&body_str(&prom)).expect("valid exposition");
    assert!(stats.families > 0 && stats.samples > 0);

    assert_eq!(obs.requests_served(), 5);
    obs.shutdown();
}

#[test]
fn progress_endpoint_tracks_live_counters() {
    let (sources, _collector, progress, _ring) = full_sources();
    let obs = Observer::start("127.0.0.1:0", sources).unwrap();

    let before: ProgressSnapshot = serde_json::from_str(&body_str(&get(obs.addr(), "/progress"))).unwrap();
    assert_eq!(before.walks, 0);

    progress.record_walk(0, 5);
    progress.record_walk(1, 3);

    let after: ProgressSnapshot = serde_json::from_str(&body_str(&get(obs.addr(), "/progress"))).unwrap();
    assert_eq!(after.walks, 2);
    assert_eq!(after.steps, 8);
    assert_eq!(after.per_worker.len(), 2);
    assert!(after.walks >= before.walks && after.steps >= before.steps);
    obs.shutdown();
}

#[test]
fn timeseries_reflects_ring_contents() {
    let (sources, collector, progress, ring) = full_sources();
    progress.record_walk(0, 2);
    collector.set_gauge("serve.inflight", 9.0);
    for i in 0..3 {
        ring.push(cc_obs::take_sample(i as f64, Some(&collector), Some(&progress)));
    }
    let obs = Observer::start("127.0.0.1:0", sources).unwrap();
    let body = body_str(&get(obs.addr(), "/timeseries"));
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let obj = v.as_object().unwrap();
    assert_eq!(obj.get("schema").and_then(|s| s.as_str()), Some("cc-obs/v1"));
    let samples = obj.get("samples").and_then(|s| s.as_array()).unwrap();
    assert_eq!(samples.len(), 3);
    let last = samples[2].as_object().unwrap();
    assert_eq!(last.get("inflight").and_then(|x| x.as_f64()), Some(9.0));
    assert_eq!(last.get("walks").and_then(|x| x.as_f64()), Some(1.0));
    obs.shutdown();
}

#[test]
fn missing_sources_are_404_not_500() {
    let obs = Observer::start("127.0.0.1:0", ObsSources::default()).unwrap();
    for path in ["/progress", "/metrics", "/metrics.prom", "/timeseries"] {
        let resp = get(obs.addr(), path);
        assert_eq!(resp.status, StatusCode::NOT_FOUND, "{path}");
        assert!(body_str(&resp).contains("no"), "{path}");
    }
    // Liveness works without any source.
    assert_eq!(get(obs.addr(), "/healthz").status, StatusCode::OK);
    obs.shutdown();
}

#[test]
fn unknown_path_is_404_and_non_get_is_405() {
    let (sources, ..) = full_sources();
    let obs = Observer::start("127.0.0.1:0", sources).unwrap();
    let resp = get(obs.addr(), "/nope");
    assert_eq!(resp.status, StatusCode::NOT_FOUND);
    assert!(body_str(&resp).contains("/nope"));

    let resp = request(obs.addr(), "/progress", Method::Post);
    assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
    assert_eq!(resp.headers.get("content-type"), Some("application/json"));
    obs.shutdown();
}

#[test]
fn sampler_fills_the_ring_with_monotone_time() {
    let collector = Arc::new(Collector::default());
    let progress = Arc::new(ProgressCounters::new(1));
    let ring = Arc::new(SnapshotRing::new(32));
    collector.observe_ms("net.sim_latency", 4.0);
    collector.observe_ms("net.sim_latency", 8.0);
    progress.record_walk(0, 6);

    let sampler = Sampler::start(
        SamplerConfig {
            interval: Duration::from_millis(10),
            capacity: 32,
        },
        Arc::clone(&ring),
        Some(Arc::clone(&collector)),
        Some(Arc::clone(&progress)),
    );
    std::thread::sleep(Duration::from_millis(60));
    sampler.shutdown();

    let samples = ring.snapshot();
    assert!(samples.len() >= 2, "expected several samples, got {}", samples.len());
    for pair in samples.windows(2) {
        assert!(pair[1].t_s >= pair[0].t_s);
        assert!(pair[1].walks >= pair[0].walks);
    }
    let last = samples.last().unwrap();
    assert_eq!(last.walks, 1);
    assert_eq!(last.steps, 6);
    // Latency quantiles came from the crawl fallback histogram.
    assert!(last.latency_p50_ms > 0.0);
    assert!(last.latency_p99_ms >= last.latency_p50_ms);
}

#[test]
fn take_sample_without_sources_is_all_zero() {
    let s = cc_obs::take_sample(1.5, None, None);
    assert_eq!(s.t_s, 1.5);
    assert_eq!(s.walks, 0);
    assert_eq!(s.inflight, 0.0);
    assert_eq!(s.latency_p99_ms, 0.0);
}
