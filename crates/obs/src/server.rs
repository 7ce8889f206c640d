//! The in-crawl HTTP observer (`--obs-addr`).
//!
//! A single background thread serving a handful of read-only endpoints
//! while a crawl (or anything else holding the telemetry session) runs:
//!
//! | endpoint | body |
//! |---|---|
//! | `/healthz` | `{"status":"ok"}` liveness |
//! | `/progress` | the live [`cc_util::ProgressSnapshot`] as JSON |
//! | `/metrics` | the collector's [`cc_telemetry::RunReport`] as JSON |
//! | `/metrics.prom` | the same report as Prometheus text exposition |
//! | `/timeseries` | the sampler ring's retained window as JSON |
//!
//! Every response carries an explicit `Content-Type` and
//! `Cache-Control: no-store` (these are live readings; a cached copy is
//! a lie), serialization failures are `500`s, and the thread is strictly
//! **observation-only**: it loads relaxed atomics and takes short locks
//! on the collector's maps, and never touches crawl state, an RNG, or
//! the simulated clock — which is why the byte-identity suites pass with
//! the observer enabled (proven by `tests/observability.rs`).
//!
//! One request per connection (`Connection: close`): the observer is a
//! diagnostics port for `curl` and scrapers, not a serving layer —
//! cc-serve owns keep-alive sessions and backpressure.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cc_http::{Method, Request, Response, StatusCode};
use cc_util::CcError;

use crate::ObsSources;

/// The observer factory.
pub struct Observer;

impl Observer {
    /// Bind `addr` (`127.0.0.1:0` picks an ephemeral port) and spawn the
    /// observer thread. The thread runs until [`ObserverHandle::shutdown`]
    /// (or drop).
    pub fn start(addr: &str, sources: ObsSources) -> Result<ObserverHandle, CcError> {
        let listener = TcpListener::bind(addr).map_err(|e| CcError::io(addr, e))?;
        let bound = listener.local_addr().map_err(|e| CcError::io(addr, e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| CcError::io(addr, e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let requests = Arc::clone(&requests);
            std::thread::Builder::new()
                .name("cc-obs".into())
                .spawn(move || observe_loop(listener, &sources, &stop, &requests))
                .map_err(|e| CcError::io("spawn observer thread", e))?
        };
        Ok(ObserverHandle {
            addr: bound,
            stop,
            requests,
            thread: Some(thread),
        })
    }
}

/// A running observer: its bound address and its lifecycle.
pub struct ObserverHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ObserverHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stop the observer thread and join it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObserverHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverHandle")
            .field("addr", &self.addr)
            .field("requests", &self.requests_served())
            .finish()
    }
}

fn observe_loop(
    listener: TcpListener,
    sources: &ObsSources,
    stop: &AtomicBool,
    requests: &AtomicU64,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_ok() {
                    answer_one(stream, sources, requests);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Read one request, answer it, close. Bounded timeouts throughout: a
/// stuck scraper must never wedge the observer thread.
///
/// The request is counted before its response is written, so a client
/// that has read its answer finds `requests_served` already past it.
fn answer_one(stream: TcpStream, sources: &ObsSources, requests: &AtomicU64) {
    let timeout = Some(Duration::from_millis(2_000));
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut response = match Request::read_from(&mut reader) {
        Ok(req) => handle(&req, sources),
        Err(e) if e.is_answerable() => {
            json_response(e.status(), format!("{{\"error\":{}}}", quote(&e.to_string())))
        }
        Err(_) => return,
    };
    response.headers.set("connection", "close");
    // Relaxed: the count publishes no other data. The increment is
    // sequenced before the write, and the socket orders that write before
    // the client's read of it.
    requests.fetch_add(1, Ordering::Relaxed);
    let _ = response.write_to(&mut writer);
    let _ = writer.flush();
}

/// Route one observer request. Every arm sets `Content-Type` and
/// `Cache-Control: no-store`; a missing source is a 404 (this observer
/// was started without it), a serialization failure a 500.
fn handle(req: &Request, sources: &ObsSources) -> Response {
    if req.method != Method::Get {
        return json_response(
            StatusCode::METHOD_NOT_ALLOWED,
            "{\"error\":\"method not allowed\"}".to_string(),
        );
    }
    match req.url.path.as_str() {
        "/healthz" => json_response(StatusCode::OK, "{\"status\":\"ok\"}".to_string()),
        "/progress" => match &sources.progress {
            Some(progress) => match serde_json::to_value(&progress.snapshot()) {
                // When the crawl is also served live, splice the served
                // epoch in so one endpoint answers "how far along is the
                // crawl AND how fresh is the served view".
                Ok(mut value) => {
                    if let (Some(cell), serde_json::Value::Object(map)) =
                        (&sources.epoch, &mut value)
                    {
                        map.insert(
                            "serve_epoch".into(),
                            serde_json::Value::Number(serde_json::Number::U64(
                                cell.load(Ordering::Relaxed),
                            )),
                        );
                    }
                    match serde_json::to_string_pretty(&value) {
                        Ok(body) => json_response(StatusCode::OK, body),
                        Err(e) => serialization_failure("progress", &e),
                    }
                }
                Err(e) => serialization_failure("progress", &e),
            },
            None => missing_source("progress"),
        },
        "/metrics" => match &sources.collector {
            Some(collector) => match collector.report(None).to_json() {
                Ok(body) => json_response(StatusCode::OK, body),
                Err(e) => serialization_failure("metrics", &e),
            },
            None => missing_source("metrics"),
        },
        "/metrics.prom" => match &sources.collector {
            Some(collector) => {
                let text = cc_telemetry::render_prometheus(&collector.report(None));
                let mut resp = Response::raw(StatusCode::OK, text);
                resp.headers
                    .set("content-type", "text/plain; version=0.0.4; charset=utf-8");
                resp.headers.set("cache-control", "no-store");
                resp
            }
            None => missing_source("metrics"),
        },
        "/timeseries" => match &sources.ring {
            Some(ring) => match serde_json::to_string(&ring.snapshot()) {
                Ok(samples) => json_response(
                    StatusCode::OK,
                    format!("{{\"schema\":\"cc-obs/v1\",\"samples\":{samples}}}"),
                ),
                Err(e) => serialization_failure("timeseries", &e),
            },
            None => missing_source("timeseries"),
        },
        path => json_response(
            StatusCode::NOT_FOUND,
            format!("{{\"error\":\"not found\",\"path\":{}}}", quote(path)),
        ),
    }
}

fn json_response(status: StatusCode, body: String) -> Response {
    let mut resp = Response::raw(status, body);
    resp.headers.set("content-type", "application/json");
    resp.headers.set("cache-control", "no-store");
    resp
}

fn missing_source(which: &str) -> Response {
    json_response(
        StatusCode::NOT_FOUND,
        format!("{{\"error\":\"observer has no {which} source\"}}"),
    )
}

fn serialization_failure(which: &str, err: &dyn std::fmt::Display) -> Response {
    json_response(
        StatusCode::INTERNAL_SERVER_ERROR,
        format!("{{\"error\":\"{which} serialization failed\",\"detail\":{}}}", quote(&err.to_string())),
    )
}

fn quote(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"error\"".into())
}
