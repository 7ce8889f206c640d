//! # cc-obs
//!
//! The **live observability plane** over [`cc_telemetry`]: where the
//! telemetry layer records everything and dumps one JSON blob when the
//! run ends, this crate keeps a time series of the same collector while
//! the run is still going — the capability the paper's authors lacked
//! when they diagnosed crawl failures and desynchronization from raw
//! logs after a days-long EC2 run (§3.3, §5).
//!
//! Two pieces, both strictly **observation-only** (they read atomics
//! and take short read-locks on the collector; nothing feeds back into
//! the crawl, so the byte-identity equivalence suites hold with both
//! enabled):
//!
//! * [`Sampler`] — a periodic thread folding progress + latency
//!   snapshots into a bounded [`cc_telemetry::SnapshotRing`];
//! * [`dashboard`] — renders the ring into a self-contained single-file
//!   HTML dashboard (`--dashboard-out`): inline JSON plus hand-rolled
//!   SVG time-series, no external assets, goose-graph style.
//!
//! The live HTTP view of the same readings (`--obs-addr`) is cc-serve's
//! observer route table, served by its one listener.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dashboard;
pub mod sampler;

pub use dashboard::render_dashboard;
pub use sampler::{take_sample, Sampler, SamplerConfig};
