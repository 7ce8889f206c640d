//! # cc-util
//!
//! Foundation utilities shared by every CrumbCruncher-RS crate:
//!
//! * [`rng`] — a small, fully deterministic random number generator
//!   (xoshiro256\*\* seeded through SplitMix64) with *forkable named
//!   streams*, so independent subsystems draw from independent streams and
//!   adding a draw in one subsystem never perturbs another.
//! * [`zipf`] — a Zipf-distributed sampler used to model site popularity
//!   (the Tranco list is approximately Zipfian).
//! * [`stats`] — summary statistics and the two-proportion Z test used by
//!   the paper's fingerprinting experiment (§3.5).
//! * [`strings`] — string algorithms referenced by the paper: the
//!   Ratcliff/Obershelp similarity used by prior work, Shannon entropy,
//!   and character-shape profiling.
//! * [`ids`] — generation of UID-shaped tokens (hex, base64url, UUID-like)
//!   for the synthetic web.
//! * [`counter`] — counting-map helpers (top-k tallies) used when building
//!   the paper's tables.
//! * [`intern`] — a deterministic string interner ([`IStr`]) for
//!   bounded-vocabulary hot strings (hosts, registered domains, labels):
//!   clone is a refcount bump, equality is usually a pointer compare, and
//!   serde output is byte-identical to a plain `String`.
//! * [`error`] — the workspace error taxonomy ([`CcError`], [`NetError`]):
//!   typed error classes the fault-tolerance layer can match on.
//! * [`progress`] — lock-free walk/step throughput counters with
//!   per-worker snapshots, shared by the parallel crawl executor and its
//!   monitors.
//! * [`wake`] — the self-connect that wakes a thread blocked in
//!   `accept` (cc-serve's server and the cc-gaggle manager).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counter;
pub mod error;
pub mod ids;
pub mod intern;
pub mod progress;
pub mod rng;
pub mod stats;
pub mod strings;
pub mod wake;
pub mod zipf;

pub use counter::Counter;
pub use error::{CcError, NetError};
pub use intern::{intern, IStr, Interner};
pub use progress::{ProgressCounters, ProgressSnapshot, WorkerSnapshot};
pub use rng::DetRng;
pub use stats::{two_proportion_z_test, ZTestResult};
pub use zipf::Zipf;
