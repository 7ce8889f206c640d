//! # cc-loadgen
//!
//! A goose-style load generator for `cc-serve`: N client threads (the
//! "users") execute a weighted task set over real loopback sockets,
//! speaking the `cc-http` wire codecs, and fold their results into a
//! [`LoadReport`] — per-endpoint throughput, p50/p90/p99 latency via
//! `cc-telemetry` histograms, and error/shed rates. The report
//! serializes to the `cc-loadgen/v1` load report JSON, and
//! [`LoadReport::assert_floor`] enforces the benchmark floor
//! (aggregate req/s minimum, zero 5xx below the shed threshold) while
//! [`LoadReport::assert_p99_slo`] gates tail latency. A monitor thread
//! also folds periodic cumulative [`LatencySnapshot`]s into
//! [`LoadReport::timeline`], so the artifact carries the latency
//! *trajectory*, not just the endpoint digest.
//!
//! Everything is deterministic in *shape*: each user forks its own
//! [`DetRng`](cc_util::DetRng) stream from the run seed, so the request
//! sequence for a given `(seed, mix, users, requests)` tuple never
//! changes — only the measured latencies do.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mix;
pub mod report;
pub mod runner;

pub use mix::{TaskKind, TaskMix, WeightedTask};
pub use report::{EpochStats, LatencySnapshot, LoadReport, TaskStats, LOAD_SCHEMA};
pub use runner::{run_load, LoadConfig};
