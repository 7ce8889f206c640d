//! # cc-serve
//!
//! A std-only HTTP/1.1 query server over crawl datasets — finished *or
//! still running*: the layer that turns the study's analysis outputs
//! (smuggler rankings, UID classifications, path shapes, walk records)
//! from files on disk into a service real consumers can hit, and keeps
//! that service fresh while a crawl is still walking.
//!
//! Five pieces:
//!
//! * [`index`] — [`ServingIndex`](index::ServingIndex): one immutable
//!   **epoch** of a crawl. Loads a
//!   [`CrawlCheckpoint`](cc_crawler::CrawlCheckpoint), reruns the
//!   deterministic pipeline + report, and precomputes every response body
//!   with a strong ETag plus the epoch's deterministic `Last-Modified`.
//!   Immutable after construction, so the hot path is a map lookup +
//!   socket write with no locking.
//! * [`handle`] — [`IndexHandle`](handle::IndexHandle): the
//!   epoch-swappable cell the router reads through. Publishers fill an
//!   inactive slot and atomically flip it live; readers never wait on a
//!   build. [`IndexSource`](handle::IndexSource) is the redesigned
//!   server input: a static snapshot, a followed checkpoint file, or an
//!   externally-driven handle — offline serving is just the one-epoch
//!   special case.
//! * [`publish`] — [`IncrementalIndexBuilder`](publish::IncrementalIndexBuilder)
//!   folds successive crawl snapshots into numbered epochs over one
//!   cached simulated web, and
//!   [`IndexPublisher`](publish::IndexPublisher) runs that fold on a
//!   dedicated coalescing thread behind the executor's
//!   [`SnapshotSink`](cc_crawler::SnapshotSink) hook, merging the
//!   executor's deltas into the study it folds.
//! * [`server`] — [`Server`](server::Server): the one `TcpListener`
//!   accept loop feeding a fixed worker thread pool through a bounded
//!   queue. Load above `max_inflight` is shed with `503`; shutdown (via
//!   `POST /shutdown` or [`ServerHandle::shutdown`](server::ServerHandle))
//!   stops accepting, drains in-flight connections, and joins cleanly.
//!   Every request's RED telemetry goes into the server's private
//!   [`Collector`](cc_telemetry::Collector). A server answers through one
//!   of two route tables, chosen when it is built:
//!   [`Server::start`](server::Server::start) the index routes,
//!   [`Server::observe`](server::Server::observe) the observer routes.
//! * [`router`] — the two route tables. The index routes map decoded
//!   [`Request`](cc_http::Request)s to cached bodies from one consistent
//!   epoch snapshot per request, handle `If-None-Match` → `304`, and
//!   stamp `X-Cc-Epoch` on every response. The observer routes
//!   (`--obs-addr`) answer a running study's live readings from its
//!   [`ObsSources`].
//!
//! Index endpoints: `GET /healthz`, `/report`, `/report/{section}`,
//! `/smugglers?role=dedicated|multi&limit=N`, `/uids/{domain}`,
//! `/walks/{id}`, `/catalog`, `/progress` (walks indexed vs total for
//! the current epoch), `/metrics`, `/metrics.prom` (Prometheus text
//! exposition of the server's own collector), `/logs` (deterministic
//! head-sampled request log), and `POST /shutdown`.
//!
//! Observer endpoints: `GET /healthz`, `/progress` (the study's
//! progress counters, plus `serve_epoch` when the crawl is also served),
//! `/metrics` and `/metrics.prom` (the telemetry session's collector),
//! and `/timeseries` (the sampler's ring).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handle;
pub mod index;
pub mod publish;
pub mod router;
pub mod server;

pub use handle::{FollowConfig, IndexHandle, IndexSource};
pub use index::{etag_for, last_modified_for_epoch, CachedBody, ServingIndex, SmugglerRole};
pub use publish::{IncrementalIndexBuilder, IndexPublisher};
pub use router::ObsSources;
pub use server::{RequestLogEntry, ServeConfig, Server, ServerHandle};
