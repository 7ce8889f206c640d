//! The load-test result artifact: the `cc-loadgen/v1` load report.

use cc_telemetry::HistogramSummary;
use cc_util::CcError;
use serde::{Deserialize, Serialize};

/// The artifact format identifier.
pub const LOAD_SCHEMA: &str = "cc-loadgen/v1";

/// Outcome counts and latency for one task (or the aggregate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskStats {
    /// Task name (an endpoint family, or `"aggregate"`).
    pub name: String,
    /// Requests attempted.
    pub requests: u64,
    /// `2xx` responses.
    pub ok: u64,
    /// `304` revalidation hits.
    pub not_modified: u64,
    /// `4xx` responses.
    pub client_errors: u64,
    /// `5xx` responses (includes shed `503`s).
    pub server_errors: u64,
    /// `503`s specifically (the server's shed signal).
    pub shed: u64,
    /// Requests that died on the socket (connect/read/write failures
    /// after one reconnect attempt).
    pub transport_errors: u64,
    /// Latency digest (p50/p90/p99 from the telemetry histogram).
    pub latency: HistogramSummary,
    /// Per-task throughput over the whole run window.
    pub throughput_rps: f64,
}

/// One point in the run's latency time-series: the cumulative latency
/// digest as of `t_ms` into the request phase. Cumulative (not
/// per-window) quantiles keep the series monotone-sample-count and make
/// the last point agree with the aggregate digest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Milliseconds since the request phase started.
    pub t_ms: f64,
    /// Requests completed so far (across all users).
    pub requests: u64,
    /// Cumulative median latency.
    pub p50_ms: f64,
    /// Cumulative 90th-percentile latency.
    pub p90_ms: f64,
    /// Cumulative 99th-percentile latency.
    pub p99_ms: f64,
    /// Worst latency seen so far.
    pub max_ms: f64,
}

/// What the `X-Cc-Epoch` response header did over the run. Against a
/// static index every response carries the same epoch; against a
/// followed or live-served crawl the epoch advances — and must only ever
/// advance, which is what `regressions` checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Responses that carried an `X-Cc-Epoch` header.
    pub observed: u64,
    /// Lowest epoch seen (0 when nothing was observed).
    pub min: u64,
    /// Highest epoch seen.
    pub max: u64,
    /// Times a user saw an epoch *lower* than one it had already seen.
    /// Always 0 against a correct server: epoch swaps are monotone, so no
    /// client ever travels back in time.
    pub regressions: u64,
}

impl EpochStats {
    /// Record one response's epoch (in arrival order for one user).
    pub fn record(&mut self, epoch: u64) {
        if self.observed == 0 {
            self.min = epoch;
            self.max = epoch;
        } else {
            if epoch < self.max {
                self.regressions += 1;
            }
            self.min = self.min.min(epoch);
            self.max = self.max.max(epoch);
        }
        self.observed += 1;
    }

    /// Fold another user's stats in. Regressions were each witnessed by
    /// some user's arrival order, so they sum.
    pub fn merge(&mut self, other: &EpochStats) {
        if other.observed == 0 {
            return;
        }
        if self.observed == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.observed += other.observed;
        self.regressions += other.regressions;
    }
}

/// The complete load-generation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// Always [`LOAD_SCHEMA`].
    pub schema: String,
    /// The `host:port` the load was aimed at.
    pub target: String,
    /// Concurrent simulated users (client threads).
    pub users: usize,
    /// Requests each user issued.
    pub requests_per_user: usize,
    /// The task-mix name.
    pub mix: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Wall-clock duration of the request phase, in milliseconds.
    pub elapsed_ms: f64,
    /// Total requests attempted across all users.
    pub total_requests: u64,
    /// Aggregate throughput (requests per second).
    pub throughput_rps: f64,
    /// Per-task breakdown, ordered by task name.
    pub tasks: Vec<TaskStats>,
    /// The aggregate over all tasks.
    pub aggregate: TaskStats,
    /// Periodic cumulative latency snapshots over the run (empty in
    /// artifacts written before the field existed).
    #[serde(default)]
    pub timeline: Vec<LatencySnapshot>,
    /// Served-epoch coverage (zeroed in artifacts written before the
    /// field existed).
    #[serde(default)]
    pub epochs: EpochStats,
}

impl LoadReport {
    /// Serialize as the `cc-loadgen/v1` load report JSON.
    pub fn to_json(&self) -> Result<String, CcError> {
        serde_json::to_string_pretty(self).map_err(|e| CcError::Serde(e.to_string()))
    }

    /// Deserialize, checking the schema tag.
    pub fn from_json(s: &str) -> Result<LoadReport, CcError> {
        let r: LoadReport = serde_json::from_str(s).map_err(|e| CcError::Serde(e.to_string()))?;
        if r.schema != LOAD_SCHEMA {
            return Err(CcError::Serde(format!(
                "unsupported schema {:?} (expected {LOAD_SCHEMA:?})",
                r.schema
            )));
        }
        Ok(r)
    }

    /// Enforce the benchmark floor: aggregate throughput at least
    /// `min_rps`, and — because the run is meant to stay below the shed
    /// threshold — zero `5xx` and zero transport errors.
    pub fn assert_floor(&self, min_rps: f64) -> Result<(), CcError> {
        if self.throughput_rps < min_rps {
            return Err(CcError::cli(format!(
                "throughput {:.0} req/s below the {min_rps:.0} req/s floor",
                self.throughput_rps
            )));
        }
        if self.aggregate.server_errors > 0 {
            return Err(CcError::cli(format!(
                "{} server errors (5xx) under non-overload conditions",
                self.aggregate.server_errors
            )));
        }
        if self.aggregate.transport_errors > 0 {
            return Err(CcError::cli(format!(
                "{} transport errors during the run",
                self.aggregate.transport_errors
            )));
        }
        Ok(())
    }

    /// Enforce the latency SLO: aggregate p99 at or under `max_p99_ms`.
    /// Gated separately from [`Self::assert_floor`] because CI wants to
    /// report "too slow" and "too few" as distinct failures.
    pub fn assert_p99_slo(&self, max_p99_ms: f64) -> Result<(), CcError> {
        let p99 = self.aggregate.latency.p99_ms;
        if p99 > max_p99_ms {
            return Err(CcError::cli(format!(
                "aggregate p99 latency {p99:.3}ms exceeds the {max_p99_ms:.3}ms SLO"
            )));
        }
        Ok(())
    }
}
