//! Request routing: the two route tables a server can be built with,
//! conditional revalidation, and error shaping.
//!
//! `route` serves a crawl's index. Every data endpoint resolves to a
//! precomputed [`CachedBody`] (or an assembled one, for `/smugglers`);
//! the router's only work is matching the path, comparing
//! `If-None-Match` against the strong ETag, and choosing between the
//! full `200` and an empty `304`.
//!
//! `observe` serves a running study's live readings (`--obs-addr`):
//!
//! | endpoint | body |
//! |---|---|
//! | `/healthz` | `{"status":"ok"}` liveness |
//! | `/progress` | the live [`ProgressSnapshot`](cc_util::ProgressSnapshot) as JSON, plus `serve_epoch` when the crawl is also served |
//! | `/metrics` | the session collector's [`RunReport`](cc_telemetry::RunReport) as JSON |
//! | `/metrics.prom` | the same report as Prometheus text exposition |
//! | `/timeseries` | the sampler ring's retained window as JSON |
//!
//! The observer's routes only read: relaxed atomic loads and short locks
//! on the collector's maps, never crawl state, an RNG, or the simulated
//! clock. That is why the byte-identity suites pass with the observer
//! on (`tests/observability.rs`).

use std::sync::Arc;

use cc_http::{Method, Request, Response, StatusCode};
use cc_telemetry::{Collector, SnapshotRing};
use cc_util::ProgressCounters;

use crate::handle::IndexHandle;
use crate::index::{CachedBody, ServingIndex, SmugglerRole, SERVE_SCHEMA};
use crate::server::{json_string, Shared};

/// Default `/smugglers` row cap when `limit` is absent.
const DEFAULT_SMUGGLER_LIMIT: usize = 20;

/// A routed request: the metrics label, the response, and whether this
/// request triggers shutdown.
pub(crate) struct Routed {
    pub(crate) label: &'static str,
    pub(crate) response: Response,
    pub(crate) shutdown: bool,
}

impl Routed {
    fn new(label: &'static str, response: Response) -> Routed {
        Routed {
            label,
            response,
            shutdown: false,
        }
    }
}

/// Dispatch one decoded request.
///
/// The index snapshot is taken **once**, up front: every body, ETag, and
/// header in this response comes from the same epoch, even if a
/// publisher swaps in a new one mid-request. The epoch rides on every
/// response as `X-Cc-Epoch`, so clients (cc-loadgen's freshness
/// assertions) can watch a followed crawl advance without parsing
/// bodies.
pub(crate) fn route(req: &Request, shared: &Shared<IndexHandle>) -> Routed {
    let index = shared.source.current();
    let mut routed = route_inner(req, shared, &index);
    routed
        .response
        .headers
        .set("x-cc-epoch", index.epoch().to_string());
    routed
}

fn route_inner(req: &Request, shared: &Shared<IndexHandle>, index: &ServingIndex) -> Routed {
    let path = req.url.path.as_str();
    let is_get = req.method == Method::Get;
    let is_post = req.method == Method::Post;

    if path == "/shutdown" {
        if !is_post {
            return Routed::new("shutdown", method_not_allowed("POST"));
        }
        let mut resp = Response::raw(StatusCode::OK, "{\"status\":\"shutting down\"}");
        resp.headers.set("content-type", "application/json");
        return Routed {
            label: "shutdown",
            response: resp,
            shutdown: true,
        };
    }
    if !is_get {
        return Routed::new("other", method_not_allowed("GET"));
    }

    if path == "/metrics" {
        return Routed::new("metrics", metrics_json(&shared.collector));
    }

    if path == "/metrics.prom" {
        return Routed::new("metrics", metrics_prom(&shared.collector));
    }

    if path == "/logs" {
        return Routed::new(
            "logs",
            live(StatusCode::OK, shared.request_log_json(), "application/json"),
        );
    }

    if path == "/progress" {
        // Live, never cached: how much of the crawl this epoch has
        // indexed. For a static index this reports 1 epoch, complete.
        let body = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"epoch\":{},\"swaps\":{},\
             \"walks_indexed\":{},\"walks_total\":{},\"complete\":{}}}",
            index.epoch(),
            shared.source.swaps(),
            index.walks(),
            index.total_walks(),
            index.complete()
        );
        return Routed::new("progress", live(StatusCode::OK, body, "application/json"));
    }

    if path == "/smugglers" {
        return smugglers(req, index);
    }

    // Everything else is a precomputed body (or a 404).
    let label = match path {
        "/healthz" => "healthz",
        "/report" => "report",
        "/catalog" => "catalog",
        p if p.starts_with("/report/") => "report-section",
        p if p.starts_with("/walks/") => "walks",
        p if p.starts_with("/uids/") => "uids",
        _ => "other",
    };
    match index.lookup(path) {
        Some(cached) => Routed::new(label, conditional(req, cached, index)),
        None => Routed::new(label, not_found(path)),
    }
}

/// What the observer routes read: the live handles of a running study.
#[derive(Debug, Clone)]
pub struct ObsSources {
    /// The session's telemetry collector (`/metrics`, `/metrics.prom`).
    pub collector: Arc<Collector>,
    /// The study's progress counters (`/progress`).
    pub progress: Arc<ProgressCounters>,
    /// The sampler's ring (`/timeseries`).
    pub ring: Arc<SnapshotRing>,
    /// The live-served index, when the crawl is also served
    /// (`crawl --serve-addr`): `/progress` then reports its epoch as
    /// `serve_epoch`, so one endpoint says how far along the crawl is and
    /// how fresh the served view is.
    pub index: Option<IndexHandle>,
}

/// Dispatch one observer request. Every answer is live: explicit
/// content type, `Cache-Control: no-store`, and a `500` when a body fails
/// to serialize.
pub(crate) fn observe(req: &Request, shared: &Shared<ObsSources>) -> Routed {
    let sources = &shared.source;
    if req.method != Method::Get {
        return Routed::new("other", method_not_allowed("GET"));
    }
    match req.url.path.as_str() {
        "/healthz" => Routed::new(
            "healthz",
            live(
                StatusCode::OK,
                "{\"status\":\"ok\"}".into(),
                "application/json",
            ),
        ),
        "/progress" => {
            let body = serde_json::to_value(&sources.progress.snapshot()).and_then(|mut value| {
                if let (Some(index), serde_json::Value::Object(map)) = (&sources.index, &mut value)
                {
                    map.insert(
                        "serve_epoch".into(),
                        serde_json::Value::Number(serde_json::Number::U64(index.epoch())),
                    );
                }
                serde_json::to_string_pretty(&value)
            });
            Routed::new("progress", live_json("progress", body))
        }
        "/metrics" => Routed::new("metrics", metrics_json(&sources.collector)),
        "/metrics.prom" => Routed::new("metrics", metrics_prom(&sources.collector)),
        "/timeseries" => {
            let body = serde_json::to_string(&sources.ring.snapshot())
                .map(|samples| format!("{{\"schema\":\"cc-obs/v1\",\"samples\":{samples}}}"));
            Routed::new("timeseries", live_json("timeseries", body))
        }
        path => Routed::new("other", not_found(path)),
    }
}

/// `/metrics`: `collector`'s run report as JSON.
fn metrics_json(collector: &Collector) -> Response {
    live_json("metrics", collector.report(None).to_json())
}

/// `/metrics.prom`: `collector`'s run report as Prometheus text
/// exposition.
fn metrics_prom(collector: &Collector) -> Response {
    let text = cc_telemetry::render_prometheus(&collector.report(None));
    live(
        StatusCode::OK,
        text,
        "text/plain; version=0.0.4; charset=utf-8",
    )
}

/// `/smugglers?role=dedicated|multi&limit=N`: assembled per request from
/// presliced rows, still ETagged so clients can revalidate.
fn smugglers(req: &Request, index: &ServingIndex) -> Routed {
    let mut role = None;
    let mut limit = DEFAULT_SMUGGLER_LIMIT;
    for (key, value) in req.url.query() {
        match key.as_str() {
            "role" => match SmugglerRole::parse(value) {
                Some(r) => role = Some(r),
                None => {
                    return Routed::new(
                        "smugglers",
                        bad_request(&format!(
                            "unknown role {value:?} (expected dedicated or multi)"
                        )),
                    )
                }
            },
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = n,
                Err(_) => {
                    return Routed::new(
                        "smugglers",
                        bad_request(&format!("limit {value:?} is not a number")),
                    )
                }
            },
            _ => {
                return Routed::new(
                    "smugglers",
                    bad_request(&format!("unknown query parameter {key:?}")),
                )
            }
        }
    }
    let assembled = index.smugglers(role, limit);
    Routed::new("smugglers", conditional(req, &assembled, index))
}

/// A live (never-cacheable) response: explicit content type plus
/// `Cache-Control: no-store`, so no intermediary replays a stale
/// snapshot of a moving value.
fn live(status: StatusCode, body: String, content_type: &str) -> Response {
    let mut resp = Response::raw(status, body);
    resp.headers.set("content-type", content_type);
    resp.headers.set("cache-control", "no-store");
    resp
}

/// A live JSON body, or the `500` naming what failed to serialize. A
/// serialization failure is a real 500, not a 200 with an error body:
/// scrapers alert on status codes, not on body contents.
fn live_json(what: &str, body: serde_json::Result<String>) -> Response {
    match body {
        Ok(body) => live(StatusCode::OK, body, "application/json"),
        Err(e) => live(
            StatusCode::INTERNAL_SERVER_ERROR,
            format!(
                "{{\"error\":\"{what} serialization failed\",\"detail\":{}}}",
                json_string(&e.to_string())
            ),
            "application/json",
        ),
    }
}

/// Serve a cached body, honoring `If-None-Match`. Cached responses carry
/// the epoch's deterministic `Last-Modified` (on the `304` too, per RFC
/// 9110 §15.4.5 a revalidation must repeat the validator headers).
fn conditional(req: &Request, cached: &CachedBody, index: &ServingIndex) -> Response {
    if if_none_match_hits(req, &cached.etag) {
        let mut resp = Response::status_only(StatusCode::NOT_MODIFIED);
        resp.headers.set("etag", cached.etag.clone());
        resp.headers.set("last-modified", index.last_modified());
        return resp;
    }
    let mut resp = Response::raw(StatusCode::OK, cached.body.clone());
    resp.headers.set("content-type", "application/json");
    resp.headers.set("etag", cached.etag.clone());
    resp.headers.set("last-modified", index.last_modified());
    resp
}

/// Strong comparison against a (possibly list-valued) `If-None-Match`.
fn if_none_match_hits(req: &Request, etag: &str) -> bool {
    req.headers
        .get("if-none-match")
        .map(|header| {
            header
                .split(',')
                .map(str::trim)
                .any(|candidate| candidate == "*" || candidate == etag)
        })
        .unwrap_or(false)
}

fn not_found(path: &str) -> Response {
    let mut resp = Response::raw(
        StatusCode::NOT_FOUND,
        format!("{{\"error\":\"not found\",\"path\":{}}}", json_string(path)),
    );
    resp.headers.set("content-type", "application/json");
    resp
}

fn bad_request(msg: &str) -> Response {
    let mut resp = Response::raw(
        StatusCode::BAD_REQUEST,
        format!("{{\"error\":{}}}", json_string(msg)),
    );
    resp.headers.set("content-type", "application/json");
    resp
}

fn method_not_allowed(allow: &str) -> Response {
    let mut resp = Response::raw(
        StatusCode::METHOD_NOT_ALLOWED,
        format!("{{\"error\":\"method not allowed\",\"allow\":{}}}", json_string(allow)),
    );
    resp.headers.set("content-type", "application/json");
    resp.headers.set("allow", allow);
    resp
}
