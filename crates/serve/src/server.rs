//! The HTTP/1.1 server: accept loop, bounded queue, worker pool,
//! backpressure, and graceful shutdown.
//!
//! This is the workspace's one HTTP listener. A server answers through
//! one route table, chosen when it is built: [`Server::start`] serves a
//! crawl's index, [`Server::observe`] a running study's live readings
//! (`--obs-addr`). Everything below is the same for both.
//!
//! ## Threading model
//!
//! One accept thread plus a fixed pool of `workers` threads. The accept
//! thread never parses HTTP: it either enqueues the connection or sheds
//! it with an immediate `503` when `inflight + queued` would exceed
//! `max_inflight`. Workers pull connections off the queue and own them
//! for a full keep-alive session (thread-per-connection-session), so
//! `workers` bounds concurrent *sessions* and `max_inflight` bounds
//! total admitted load.
//!
//! ## Shutdown
//!
//! The crates forbid `unsafe`, so there is no signal handler; shutdown
//! is a flag flipped by `POST /shutdown` (an index route) or
//! [`ServerHandle::shutdown`]. An idle server sleeps: the accept thread
//! blocks in `accept` and the workers on the queue's condition variable.
//! Flipping the flag wakes the workers and connects once to the server's
//! own address, which wakes the accept thread to see it. The accept
//! thread then closes the listener (new connects are refused by the OS),
//! workers finish the request in flight, answer queued connections with
//! `Connection: close`, and exit; [`ServerHandle::wait`] joins them all
//! and returns. Should that connect fail (a `serve.wake_failed` event),
//! `wait` returns without the accept thread, which leaves at the next
//! connect. The `serve.wakeups` gauge counts every wakeup of those
//! threads.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cc_crawler::{CrawlCheckpoint, ServePolicy};
use cc_http::{Request, Response, StatusCode};
use cc_telemetry::{Collector, RunReport};
use cc_util::CcError;

use crate::handle::{FollowConfig, IndexHandle, IndexSource};
use crate::publish::IncrementalIndexBuilder;
use crate::router::{self, ObsSources, Routed};

/// How long [`Shared::request_stop`]'s wake-up connect may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server knobs (lowered from `StudyConfig.serve` by the CLI).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (each owns one connection session at a time).
    pub workers: usize,
    /// Admission bound: connections beyond `inflight + queued` are shed
    /// with `503`.
    pub max_inflight: usize,
    /// Keep-alive idle timeout per connection, in milliseconds.
    pub keep_alive_ms: u64,
    /// Test hook: artificial per-request handling delay, for
    /// deterministic overload/drain tests. Zero in production.
    pub debug_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_inflight: 64,
            keep_alive_ms: 5_000,
            debug_delay_ms: 0,
        }
    }
}

impl From<&ServePolicy> for ServeConfig {
    /// Lower a study's serving policy: its bind address and knobs, and no
    /// test delay.
    fn from(policy: &ServePolicy) -> Self {
        ServeConfig {
            addr: policy.addr.clone(),
            workers: policy.workers,
            max_inflight: policy.max_inflight,
            keep_alive_ms: policy.keep_alive_ms,
            debug_delay_ms: 0,
        }
    }
}

impl ServeConfig {
    /// Validate knob ranges.
    pub fn validate(&self) -> Result<(), CcError> {
        if self.workers == 0 {
            return Err(CcError::Config("serve.workers must be at least 1".into()));
        }
        if self.max_inflight < self.workers {
            return Err(CcError::Config(format!(
                "serve.max_inflight ({}) must be at least serve.workers ({})",
                self.max_inflight, self.workers
            )));
        }
        if self.keep_alive_ms == 0 {
            return Err(CcError::Config("serve.keep_alive_ms must be nonzero".into()));
        }
        Ok(())
    }
}

/// How many requests the structured log retains. Head sampling (the
/// first N requests, in admission order) is deterministic for a given
/// request sequence, unlike rate- or reservoir-sampling: two identical
/// load runs produce identical log sets.
pub(crate) const REQUEST_LOG_HEAD: usize = 128;

/// One sampled request, as served at `/logs`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RequestLogEntry {
    /// 1-based position in the server's request sequence.
    pub seq: u64,
    /// Request method (`GET`, `POST`).
    pub method: String,
    /// Request path (no query — UIDs may ride in query strings, and the
    /// log should not become a UID store).
    pub path: String,
    /// The route label the request resolved to.
    pub route: String,
    /// Response status code.
    pub status: u16,
    /// Handling time in microseconds.
    pub duration_us: u64,
}

/// State shared by the accept thread, the workers, and the handle. `S`
/// is what the route table reads: an [`IndexHandle`] for the index
/// routes, [`ObsSources`] for the observer's.
pub(crate) struct Shared<S> {
    pub(crate) source: S,
    /// The route table, chosen once when the server is built.
    route: fn(&Request, &Shared<S>) -> Routed,
    pub(crate) cfg: ServeConfig,
    pub(crate) collector: Arc<Collector>,
    /// The bound address, which [`Shared::request_stop`] connects to.
    addr: SocketAddr,
    pub(crate) stop: AtomicBool,
    /// Whether the connect that wakes the accept thread failed.
    wake_failed: AtomicBool,
    /// Wakeups of the accept thread and the workers so far.
    wakeups: Mutex<u64>,
    pub(crate) inflight: AtomicUsize,
    /// Monotone request sequence (drives head sampling).
    request_seq: AtomicU64,
    /// The first [`REQUEST_LOG_HEAD`] requests, in admission order.
    request_log: Mutex<Vec<RequestLogEntry>>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
}

impl<S> Shared<S> {
    /// Flip the stop flag and wake every thread that sleeps on it.
    pub(crate) fn request_stop(&self) {
        if self.flip_stop() {
            self.wake_accept(wake_addr(self.addr));
        }
    }

    /// Set the stop flag and wake the workers; true the first time.
    fn flip_stop(&self) -> bool {
        // Set under the queue lock: a worker that checked the flag is
        // then already waiting and gets the notification.
        let queue = self.queue.lock().expect("queue lock");
        let first = !self.stop.swap(true, Ordering::SeqCst);
        drop(queue);
        self.queue_cv.notify_all();
        first
    }

    /// Wake the accept thread, which blocks in `accept`, with a
    /// connection of our own to `to`.
    fn wake_accept(&self, to: SocketAddr) {
        if TcpStream::connect_timeout(&to, WAKE_TIMEOUT).is_err() {
            self.collector.add_event("serve.wake_failed", &[]);
            self.wake_failed.store(true, Ordering::SeqCst);
        }
    }

    fn woke(&self) {
        // Scheduling decides how often threads wake, so this is a gauge
        // (timing section); set under the count's lock, it never goes
        // backwards.
        let mut wakeups = self.wakeups.lock().expect("wakeup count lock");
        *wakeups += 1;
        self.collector.set_gauge("serve.wakeups", *wakeups as f64);
    }

    fn admitted_load(&self) -> usize {
        self.inflight.load(Ordering::SeqCst) + self.queue.lock().expect("queue lock").len()
    }

    /// The `/logs` body: sampling metadata plus the retained entries.
    pub(crate) fn request_log_json(&self) -> String {
        let log = self.request_log.lock().expect("request log lock");
        let entries = serde_json::to_string(&*log).unwrap_or_else(|_| "[]".into());
        format!(
            "{{\"sampling\":\"head\",\"head\":{},\"total_requests\":{},\"entries\":{}}}",
            REQUEST_LOG_HEAD,
            self.request_seq.load(Ordering::SeqCst),
            entries
        )
    }
}

/// Where [`Shared::request_stop`] connects to wake the accept thread: the
/// bound address itself, scope id and flow info included, with an
/// unspecified IP replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    wake
}

/// The server factory.
pub struct Server;

impl Server {
    /// Bind, spawn the accept thread and worker pool, and return a
    /// handle.
    ///
    /// `source` is anything convertible to an [`IndexSource`]: a plain
    /// [`ServingIndex`](crate::index::ServingIndex) (static, one-epoch
    /// serving — the pre-redesign behavior), a [`FollowConfig`] (poll a
    /// checkpoint file and fold each growth into a fresh epoch), or an
    /// externally-owned [`IndexHandle`] (an in-process publisher drives
    /// the epochs). Each snapshot is immutable; the server only ever
    /// *swaps* which snapshot readers see.
    pub fn start(
        source: impl Into<IndexSource>,
        cfg: ServeConfig,
    ) -> Result<ServerHandle, CcError> {
        cfg.validate()?;
        let (handle, follow) = match source.into() {
            IndexSource::Static(index) => (IndexHandle::new(index), None),
            IndexSource::Handle(handle) => (handle, None),
            IndexSource::Follow(fc) => {
                let ck = wait_for_checkpoint(&fc)?;
                let mut builder = IncrementalIndexBuilder::new(&ck.study);
                let initial = builder
                    .fold(&ck)?
                    .expect("the first fold always yields an epoch");
                (IndexHandle::new(initial), Some((fc, builder)))
            }
        };
        let mut server = listen(handle, router::route, cfg)?;
        // Epoch swaps from here on land in this server's RED metrics.
        let shared = &server.shared;
        shared
            .source
            .attach_collector(Arc::clone(&shared.collector));
        if let Some((fc, builder)) = follow {
            if !shared.source.current().complete() {
                let shared = Arc::clone(shared);
                server.threads.push(
                    std::thread::Builder::new()
                        .name("cc-serve-follow".into())
                        .spawn(move || follow_loop(&shared, fc, builder))
                        .map_err(|e| CcError::io("spawn follow thread", e))?,
                );
            }
        }
        Ok(server)
    }

    /// Serve a running study's live readings (`--obs-addr`) on the same
    /// listener, workers and shedding as the index routes: `/healthz`,
    /// `/progress`, `/metrics`, `/metrics.prom` and `/timeseries`.
    pub fn observe(
        sources: ObsSources,
        cfg: ServeConfig,
    ) -> Result<ServerHandle<ObsSources>, CcError> {
        cfg.validate()?;
        listen(sources, router::observe, cfg)
    }
}

/// Bind `cfg.addr` and spawn the accept thread and worker pool, which
/// answer every request through `route`.
fn listen<S: Send + Sync + 'static>(
    source: S,
    route: fn(&Request, &Shared<S>) -> Routed,
    cfg: ServeConfig,
) -> Result<ServerHandle<S>, CcError> {
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| CcError::io(&cfg.addr, e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CcError::io(&cfg.addr, e))?;

    let shared = Arc::new(Shared {
        source,
        route,
        cfg: cfg.clone(),
        collector: Arc::new(Collector::default()),
        addr,
        stop: AtomicBool::new(false),
        wake_failed: AtomicBool::new(false),
        wakeups: Mutex::new(0),
        inflight: AtomicUsize::new(0),
        request_seq: AtomicU64::new(0),
        request_log: Mutex::new(Vec::new()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cc-serve-accept".into())
            .spawn(move || accept_loop(listener, &shared))
            .map_err(|e| CcError::io("spawn accept thread", e))?
    };
    let mut threads = Vec::with_capacity(cfg.workers + 1);
    for i in 0..cfg.workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("cc-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| CcError::io("spawn worker thread", e))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        accept,
        threads,
    })
}

/// Wait (bounded by `wait_ms`) for the followed checkpoint file to appear
/// and parse — the crawl being followed may not have written its first
/// batch yet. A load that races an append sees a torn or uncommitted
/// batch at the end of the file; the loader drops it and returns the last
/// complete commit, so a successful load is always a walk set the crawl
/// really saved, and the next poll picks up the rest.
fn wait_for_checkpoint(fc: &FollowConfig) -> Result<CrawlCheckpoint, CcError> {
    let deadline = Instant::now() + Duration::from_millis(fc.wait_ms);
    loop {
        match CrawlCheckpoint::load(&fc.path) {
            Ok(ck) => return Ok(ck),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(fc.poll_ms.clamp(1, 250)));
            }
        }
    }
}

/// A cheap change fingerprint for the followed file (length + mtime):
/// reloading and re-folding only happens when it moves.
fn checkpoint_fingerprint(path: &std::path::Path) -> Option<(u64, std::time::SystemTime)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.len(), meta.modified().ok()?))
}

/// The `--follow` poller: watch the checkpoint file, fold every growth
/// into a fresh epoch, and stop once the crawl is complete (or the
/// server shuts down). Fold errors (a config swap under our feet, a
/// transient read failure) never take the server down — the last good
/// epoch keeps serving.
fn follow_loop(
    shared: &Shared<IndexHandle>,
    fc: FollowConfig,
    mut builder: IncrementalIndexBuilder,
) {
    let poll = Duration::from_millis(fc.poll_ms.max(1));
    // No baseline: the file may have grown between the initial fold in
    // `Server::start` and this thread coming up, so the first poll always
    // reloads (an unchanged snapshot folds to `None`, which is free).
    let mut fingerprint: Option<(u64, std::time::SystemTime)> = None;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        let Some(current) = checkpoint_fingerprint(&fc.path) else {
            continue;
        };
        if Some(current) == fingerprint {
            continue;
        }
        // A same-length replacement whose mtime went *backwards* is not
        // growth: the file was rewritten under clock skew (an NTP step,
        // a restored backup, a copy that preserved timestamps). Still a
        // change — it must be re-folded, never silently skipped — but
        // worth flagging: the wall clock around this file is not
        // trustworthy.
        if let Some((len, mtime)) = fingerprint {
            if current.0 == len && current.1 < mtime {
                shared
                    .collector
                    .add_event("serve.follow.clock_skew", &[("path", "checkpoint")]);
            }
        }
        let ck = match CrawlCheckpoint::load(&fc.path) {
            Ok(ck) => ck,
            // Leave the fingerprint unmoved so the load is retried.
            Err(_) => continue,
        };
        match builder.fold(&ck) {
            Ok(Some(index)) => {
                fingerprint = Some(current);
                let complete = index.complete();
                shared.source.publish(index);
                if complete {
                    break;
                }
            }
            // A snapshot that didn't grow: nothing to fold, but the file
            // was read successfully — remember it so an unchanged file
            // stops being re-parsed every poll.
            Ok(None) => fingerprint = Some(current),
            // The fingerprint stays unmoved on a failed fold: if the
            // file settles back into a foldable state (e.g. a config
            // swap under our feet is swapped back), the next poll
            // re-reads it instead of skipping it as already-seen.
            Err(_) => {
                shared
                    .collector
                    .add_event("serve.follow.rejected", &[("path", "checkpoint")]);
            }
        }
    }
}

/// A running server: its bound address, its telemetry, and its lifecycle.
/// `S` is what its routes read: an [`IndexHandle`] for a
/// [`Server::start`] server, [`ObsSources`] for a [`Server::observe`] one.
pub struct ServerHandle<S = IndexHandle> {
    addr: SocketAddr,
    shared: Arc<Shared<S>>,
    accept: std::thread::JoinHandle<()>,
    /// The workers, and the follower when there is one.
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl<S> ServerHandle<S> {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the server's own telemetry (the `/metrics` payload).
    pub fn metrics(&self) -> RunReport {
        self.shared.collector.report(None)
    }

    /// Whether shutdown has been requested (by [`Self::shutdown`] or
    /// `POST /shutdown`).
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Request shutdown and block until every thread has drained and
    /// joined.
    pub fn shutdown(self) -> RunReport {
        self.shared.request_stop();
        self.wait()
    }

    /// Block until the server stops (e.g. via `POST /shutdown`), joining
    /// all threads; returns the final telemetry snapshot.
    pub fn wait(mut self) -> RunReport {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // The accept thread last: whoever stopped the server has tried to
        // wake it by now. When that failed it is still in `accept`, and is
        // left to leave at the next connect instead of holding up the
        // caller.
        if !self.shared.wake_failed.load(Ordering::SeqCst) {
            let _ = self.accept.join();
        }
        self.shared.collector.report(None)
    }
}

impl ServerHandle {
    /// The epoch-swappable handle this server reads through. Useful for
    /// watching a followed crawl advance (epoch/swap counts) or for
    /// inspecting the currently served snapshot without an HTTP round
    /// trip.
    pub fn index_handle(&self) -> IndexHandle {
        self.shared.source.clone()
    }
}

fn accept_loop<S>(listener: TcpListener, shared: &Shared<S>) {
    loop {
        let accepted = listener.accept();
        shared.woke();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                if shared.admitted_load() >= shared.cfg.max_inflight {
                    shed(stream, shared);
                } else {
                    shared
                        .queue
                        .lock()
                        .expect("queue lock")
                        .push_back(stream);
                    shared.queue_cv.notify_one();
                }
            }
            Err(_) => break,
        }
    }
    // Dropping the listener here closes the socket: from this point new
    // connects are refused by the OS while workers drain.
    drop(listener);
    shared.queue_cv.notify_all();
}

/// Answer an over-capacity connection with `503` and close it. Runs on
/// the accept thread; the write is a handful of bytes to a
/// freshly-accepted socket, so it cannot stall the loop meaningfully.
fn shed<S>(mut stream: TcpStream, shared: &Shared<S>) {
    shared
        .collector
        .add_counter_id(cc_telemetry::CounterId::SERVE_SHED, 1);
    let mut resp = Response::raw(
        StatusCode::SERVICE_UNAVAILABLE,
        "{\"error\":\"overloaded\"}",
    );
    resp.headers.set("content-type", "application/json");
    resp.headers.set("connection", "close");
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = resp.write_to(&mut stream);
    // The shed connection's request bytes are still unread; see
    // `lingering_close`.
    lingering_close(&mut stream);
}

/// Half-close the write side and drain (bounded) whatever the client
/// already sent. Closing a socket with unread data in the receive queue
/// makes the kernel send `RST`, which on most stacks destroys the
/// response we just wrote before the peer can read it. Used on paths
/// that answer without consuming the full request (shed, parse errors).
fn lingering_close(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 64 * 1024 {
        match std::io::Read::read(stream, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn worker_loop<S>(shared: &Shared<S>) {
    // This worker's private telemetry shard: per-request counters and
    // latency observations stay thread-local for the server's lifetime
    // and drain into the shared collector when the worker exits. Live
    // reads (/metrics, the obs sampler) see unflushed shard totals
    // through the collector's merged views.
    let _telemetry_shard = shared.collector.install_worker_shard();
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(c) = queue.pop_front() {
                    break Some(c);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).expect("queue lock");
                shared.woke();
            }
        };
        match conn {
            Some(stream) => handle_connection(stream, shared),
            // Stop requested and the queue is empty: drained.
            None => break,
        }
    }
}

/// Serve one connection's full keep-alive session.
fn handle_connection<S>(stream: TcpStream, shared: &Shared<S>) {
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    shared.collector.set_gauge_id(
        cc_telemetry::GaugeId::SERVE_INFLIGHT,
        shared.inflight.load(Ordering::SeqCst) as f64,
    );
    shared
        .collector
        .add_counter_id(cc_telemetry::CounterId::SERVE_SESSIONS, 1);
    serve_session(stream, shared);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    shared.collector.set_gauge_id(
        cc_telemetry::GaugeId::SERVE_INFLIGHT,
        shared.inflight.load(Ordering::SeqCst) as f64,
    );
}

fn serve_session<S>(stream: TcpStream, shared: &Shared<S>) {
    let keep_alive = Duration::from_millis(shared.cfg.keep_alive_ms);
    if stream.set_read_timeout(Some(keep_alive)).is_err()
        || stream.set_write_timeout(Some(keep_alive)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;

    loop {
        match Request::read_from(&mut reader) {
            Ok(req) => {
                let start = Instant::now();
                if shared.cfg.debug_delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(shared.cfg.debug_delay_ms));
                }
                let Routed {
                    label,
                    mut response,
                    shutdown,
                } = (shared.route)(&req, shared);
                // Close after this response if the client asked to, or if
                // we are draining (stop requested or triggered right now).
                let close = shutdown
                    || shared.stop.load(Ordering::SeqCst)
                    || req
                        .headers
                        .get("connection")
                        .is_some_and(|c| c.eq_ignore_ascii_case("close"));
                if close {
                    response.headers.set("connection", "close");
                }
                let write_ok = response.write_to(&mut writer).is_ok();
                record_request(shared, label, &req, &response, start);
                if shutdown {
                    // Respond first, then flip the flag: the client that
                    // asked for shutdown always gets its 200.
                    shared.request_stop();
                }
                if !write_ok || close {
                    break;
                }
            }
            Err(e) if e.is_answerable() => {
                // Malformed input: answer with the mapped status and
                // close — never panic, never hang.
                shared
                    .collector
                    .add_event("serve.rejected", &[("status", e.status().reason())]);
                let mut resp = Response::raw(
                    e.status(),
                    format!("{{\"error\":{}}}", json_string(&e.to_string())),
                );
                resp.headers.set("content-type", "application/json");
                resp.headers.set("connection", "close");
                let _ = resp.write_to(&mut writer);
                // The request that provoked the error may be partly
                // unread; closing now would RST the connection and
                // destroy the response in flight.
                lingering_close(&mut writer);
                break;
            }
            // Clean close, idle timeout, or a dead peer: nothing to say.
            Err(_) => break,
        }
    }
    let _ = writer.flush();
}

/// Per-request accounting: the RED triple (rate via `serve.requests`,
/// errors via per-status-class events, duration via the latency
/// histograms), plus the deterministic head-sampled request log.
fn record_request<S>(
    shared: &Shared<S>,
    label: &'static str,
    req: &Request,
    response: &Response,
    start: Instant,
) {
    let elapsed = start.elapsed();
    let ms = elapsed.as_secs_f64() * 1e3;
    let c = &shared.collector;
    c.add_counter_id(cc_telemetry::CounterId::SERVE_REQUESTS, 1);
    c.add_event("serve.requests.by_route", &[("route", label)]);
    c.add_event(
        "serve.requests.by_class",
        &[("class", status_class(response.status))],
    );
    c.observe_ms_id(cc_telemetry::HistogramId::SERVE_LATENCY, ms);
    c.observe_ms(&format!("serve.latency.{label}"), ms);
    if response.status == StatusCode::NOT_MODIFIED {
        c.add_counter_id(cc_telemetry::CounterId::SERVE_REVALIDATED_304, 1);
    }
    if response.status.is_server_error() {
        c.add_counter_id(cc_telemetry::CounterId::SERVE_5XX, 1);
    }

    let seq = shared.request_seq.fetch_add(1, Ordering::SeqCst) + 1;
    if seq as usize <= REQUEST_LOG_HEAD {
        let entry = RequestLogEntry {
            seq,
            method: format!("{:?}", req.method).to_ascii_uppercase(),
            path: req.url.path.clone(),
            route: label.to_string(),
            status: response.status.0,
            duration_us: elapsed.as_micros() as u64,
        };
        let mut log = shared.request_log.lock().expect("request log lock");
        // Over-admission race (two requests fetch seq before either
        // pushes) cannot overfill: the bound is rechecked under the lock.
        if log.len() < REQUEST_LOG_HEAD {
            log.push(entry);
        }
    }
}

/// `2xx` / `3xx` / `4xx` / `5xx` bucket for the RED error breakdown.
fn status_class(status: StatusCode) -> &'static str {
    match status.0 / 100 {
        1 => "1xx",
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        _ => "5xx",
    }
}

/// Minimal JSON string escaping for error bodies.
pub(crate) fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"error\"".into())
}

impl<S> std::fmt::Debug for ServerHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("stopped", &self.stop_requested())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wake_address_is_the_bound_one_with_loopback_for_an_unspecified_ip() {
        for (bound, wake) in [
            ("0.0.0.0:8041", "127.0.0.1:8041"),
            ("[::]:8041", "[::1]:8041"),
            ("10.1.2.3:8041", "10.1.2.3:8041"),
            ("[fe80::1%4]:8041", "[fe80::1%4]:8041"),
        ] {
            let bound: SocketAddr = bound.parse().unwrap();
            let wake: SocketAddr = wake.parse().unwrap();
            assert_eq!(wake_addr(bound), wake, "woke {bound} at the wrong address");
        }
    }

    #[test]
    fn a_failed_wake_is_recorded_and_does_not_hold_up_wait() {
        fn ok(_: &Request, _: &Shared<()>) -> Routed {
            Routed {
                label: "ok",
                response: Response::raw(StatusCode::OK, ""),
                shutdown: false,
            }
        }
        let handle = listen((), ok, ServeConfig::default()).unwrap();
        let addr = handle.addr();
        // A port nobody listens on, so the wake connect is refused.
        let closed = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let shared = Arc::clone(&handle.shared);
        assert!(shared.flip_stop());
        shared.wake_accept(closed);
        let (done, waited) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(handle.wait());
        });
        let report = waited
            .recv_timeout(Duration::from_secs(2))
            .expect("wait hung on an accept thread nobody woke");
        assert_eq!(report.deterministic.events.get("serve.wake_failed"), Some(&1));
        // The accept thread is still in `accept`: the next connect lets it
        // see the flag and leave.
        drop(TcpStream::connect(addr));
    }
}
