//! The unified study configuration.
//!
//! [`StudyConfig`] is the one serde-able description of an entire study:
//! the world to generate, the crawl parameters, the fault-tolerance
//! policies, the executor's worker count, and the checkpoint schedule.
//! It replaces the old positional plumbing (a `WebConfig` here, a
//! `CrawlConfig` there, a worker count passed separately) with a builder:
//!
//! ```
//! use cc_crawler::StudyConfig;
//! use cc_net::RetryPolicy;
//!
//! let study = StudyConfig::builder()
//!     .seeders(100)
//!     .steps(10)
//!     .retry(RetryPolicy::default())
//!     .build()
//!     .unwrap();
//! assert_eq!(study.steps, 10);
//! ```
//!
//! Because the whole thing serializes, a crawl checkpoint embeds the exact
//! configuration it was produced under and `--resume` can refuse a
//! mismatched one.

use cc_browser::StoragePolicy;
use cc_net::{BreakerPolicy, RetryPolicy};
use cc_util::CcError;
use cc_web::WebConfig;
use serde::{Deserialize, Serialize};

use crate::walker::CrawlConfig;

/// When and where the executor writes crawl checkpoints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written atomically via temp-file + rename).
    pub path: String,
    /// Completed walks between checkpoint writes (>= 1). A final
    /// checkpoint is always written when the crawl stops.
    pub every: usize,
}

/// How the `serve` subcommand exposes a finished study over HTTP.
///
/// Lowered into `cc-serve`'s server configuration by the CLI; kept here
/// so one serde-able [`StudyConfig`] describes the whole deployment,
/// crawl and serving alike.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServePolicy {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Server worker threads (each owns one connection session).
    pub workers: usize,
    /// Admission bound: connections beyond `inflight + queued` are shed
    /// with `503`.
    pub max_inflight: usize,
    /// Keep-alive idle timeout per connection, in milliseconds.
    pub keep_alive_ms: u64,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            addr: "127.0.0.1:8040".into(),
            workers: 8,
            max_inflight: 64,
            keep_alive_ms: 5_000,
        }
    }
}

impl ServePolicy {
    /// Check the policy for nonsense (mirrors `cc-serve`'s own
    /// validation, which cannot be referenced from here without a
    /// dependency cycle).
    pub fn validate(&self) -> Result<(), CcError> {
        if self.addr.is_empty() {
            return Err(CcError::Config("serve.addr must not be empty".into()));
        }
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

/// Everything a study needs, in one serde-able value.
///
/// Construct through [`StudyConfig::builder`]; `build()` validates the
/// combination and returns [`CcError::Config`] on nonsense.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// The synthetic world to generate and crawl.
    pub web: WebConfig,
    /// Master crawl seed (independent of the world seed).
    pub seed: u64,
    /// Steps per walk (the paper uses 10).
    pub steps: usize,
    /// Walk-count limit (`None` = one walk per seeder).
    pub walks: Option<usize>,
    /// Per-connection failure probability (the paper observed 3.3%).
    pub failure_rate: f64,
    /// Browser storage policy (the paper's subject is `Partitioned`).
    pub storage: StoragePolicy,
    /// Machine fingerprint shared by all four crawlers.
    pub fingerprint: u64,
    /// Retry policy for transient connection faults.
    pub retry: RetryPolicy,
    /// Per-host circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Executor worker threads (1 = serial).
    pub workers: usize,
    /// Checkpoint schedule (`None` = no checkpointing).
    pub checkpoint: Option<CheckpointPolicy>,
    /// How the `serve` subcommand exposes the finished study.
    pub serve: ServePolicy,
}

impl StudyConfig {
    /// Start building a study from the defaults (a default world, the
    /// paper's crawl parameters, fault tolerance disabled, one worker).
    pub fn builder() -> StudyConfigBuilder {
        StudyConfigBuilder::default()
    }

    /// The number of walks this study will run.
    pub fn total_walks(&self) -> usize {
        self.walks
            .unwrap_or(self.web.n_seeders)
            .min(self.web.n_seeders)
    }

    /// Lower into the walker-level crawl configuration.
    pub fn crawl_config(&self) -> CrawlConfig {
        CrawlConfig {
            seed: self.seed,
            steps_per_walk: self.steps,
            max_walks: self.walks,
            connect_failure_rate: self.failure_rate,
            storage_policy: self.storage,
            fingerprint: self.fingerprint,
            retry: self.retry.clone(),
            breaker: self.breaker,
            rewriter: None,
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String, CcError> {
        serde_json::to_string(self).map_err(|e| CcError::Serde(e.to_string()))
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, CcError> {
        serde_json::from_str(s).map_err(|e| CcError::Serde(e.to_string()))
    }

    /// Check the configuration for nonsense. Called by
    /// [`StudyConfigBuilder::build`]; callers that assemble a
    /// `StudyConfig` field-by-field (the CLI) call it directly.
    pub fn validate(&self) -> Result<(), CcError> {
        let bad = |msg: String| Err(CcError::Config(msg));
        if self.steps == 0 {
            return bad("steps must be >= 1".into());
        }
        if self.walks == Some(0) {
            return bad("walks must be >= 1 when limited".into());
        }
        if !(0.0..=1.0).contains(&self.failure_rate) {
            return bad(format!(
                "failure_rate must be in [0, 1], got {}",
                self.failure_rate
            ));
        }
        if self.workers == 0 {
            return bad("workers must be >= 1".into());
        }
        if self.web.n_seeders == 0 {
            return bad("the world needs at least one seeder".into());
        }
        if self.web.n_seeders > self.web.n_sites {
            return bad(format!(
                "n_seeders ({}) cannot exceed n_sites ({})",
                self.web.n_seeders, self.web.n_sites
            ));
        }
        self.retry.validate().or_else(bad)?;
        self.breaker.validate().or_else(bad)?;
        if let Some(ck) = &self.checkpoint {
            if ck.path.is_empty() {
                return bad("checkpoint path must not be empty".into());
            }
            if ck.every == 0 {
                return bad("checkpoint interval must be >= 1 walk".into());
            }
        }
        self.serve.validate()?;
        Ok(())
    }
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            web: WebConfig::default(),
            seed: 7,
            steps: 10,
            walks: None,
            failure_rate: 0.033,
            storage: StoragePolicy::Partitioned,
            fingerprint: 0x51_AB_17_E5,
            retry: RetryPolicy::disabled(),
            breaker: BreakerPolicy::disabled(),
            workers: 1,
            checkpoint: None,
            serve: ServePolicy::default(),
        }
    }
}

/// Builder for [`StudyConfig`]. Every setter is optional; `build()`
/// validates the final combination.
#[derive(Debug, Clone, Default)]
pub struct StudyConfigBuilder {
    cfg: StudyConfig,
}

impl StudyConfigBuilder {
    /// Replace the world configuration wholesale.
    pub fn web(mut self, web: WebConfig) -> Self {
        self.cfg.web = web;
        self
    }

    /// Number of seeder sites (walk starting points). Grows the world's
    /// site count when needed, preserving the default 1:5 seeder:site
    /// ratio, so `.seeders(10_000)` alone yields a paper-scale world.
    pub fn seeders(mut self, n: usize) -> Self {
        self.cfg.web.n_seeders = n;
        self.cfg.web.n_sites = self.cfg.web.n_sites.max(n.saturating_mul(5));
        self
    }

    /// Master crawl seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Steps per walk.
    pub fn steps(mut self, steps: usize) -> Self {
        self.cfg.steps = steps;
        self
    }

    /// Limit the number of walks (default: one per seeder).
    pub fn walks(mut self, walks: usize) -> Self {
        self.cfg.walks = Some(walks);
        self
    }

    /// Per-connection failure probability.
    pub fn failure_rate(mut self, rate: f64) -> Self {
        self.cfg.failure_rate = rate;
        self
    }

    /// Browser storage policy.
    pub fn storage(mut self, storage: StoragePolicy) -> Self {
        self.cfg.storage = storage;
        self
    }

    /// Machine fingerprint shared by the crawlers.
    pub fn fingerprint(mut self, fp: u64) -> Self {
        self.cfg.fingerprint = fp;
        self
    }

    /// Retry policy for transient connection faults.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Per-host circuit-breaker policy.
    pub fn breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.cfg.breaker = breaker;
        self
    }

    /// Executor worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Checkpoint to `path` every `every` completed walks.
    pub fn checkpoint(mut self, path: impl Into<String>, every: usize) -> Self {
        self.cfg.checkpoint = Some(CheckpointPolicy {
            path: path.into(),
            every,
        });
        self
    }

    /// How the `serve` subcommand exposes the finished study.
    pub fn serve(mut self, serve: ServePolicy) -> Self {
        self.cfg.serve = serve;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<StudyConfig, CcError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_happy_path_matches_issue_shape() {
        let study = StudyConfig::builder()
            .seeders(10_000)
            .steps(10)
            .retry(RetryPolicy::default())
            .build()
            .unwrap();
        assert_eq!(study.web.n_seeders, 10_000);
        assert!(study.web.n_sites >= 10_000, "world grew with the seeders");
        assert_eq!(study.steps, 10);
        assert!(study.retry.enabled());
        assert_eq!(study.total_walks(), 10_000);
    }

    #[test]
    fn defaults_preserve_the_historical_crawl_config() {
        let lowered = StudyConfig::default().crawl_config();
        let historical = CrawlConfig::default();
        assert_eq!(lowered.seed, historical.seed);
        assert_eq!(lowered.steps_per_walk, historical.steps_per_walk);
        assert_eq!(
            lowered.connect_failure_rate,
            historical.connect_failure_rate
        );
        assert_eq!(lowered.retry, historical.retry);
        assert_eq!(lowered.breaker, historical.breaker);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(StudyConfig::builder().steps(0).build().is_err());
        assert!(StudyConfig::builder().failure_rate(1.5).build().is_err());
        assert!(StudyConfig::builder().workers(0).build().is_err());
        assert!(StudyConfig::builder().walks(0).build().is_err());
        assert!(StudyConfig::builder().checkpoint("x.json", 0).build().is_err());
        assert!(StudyConfig::builder().checkpoint("", 5).build().is_err());
        let mut bad_retry = RetryPolicy::standard();
        bad_retry.jitter = 7.0;
        assert!(StudyConfig::builder().retry(bad_retry).build().is_err());
        let zero_workers = ServePolicy {
            workers: 0,
            ..ServePolicy::default()
        };
        assert!(StudyConfig::builder().serve(zero_workers).build().is_err());
        let starved = ServePolicy {
            workers: 8,
            max_inflight: 2,
            ..ServePolicy::default()
        };
        assert!(StudyConfig::builder().serve(starved).build().is_err());
    }

    #[test]
    fn seeders_never_shrink_an_explicit_world() {
        let study = StudyConfig::builder()
            .web(WebConfig {
                n_sites: 1_000,
                ..WebConfig::default()
            })
            .seeders(10)
            .build()
            .unwrap();
        assert_eq!(study.web.n_sites, 1_000);
        assert_eq!(study.web.n_seeders, 10);
    }

    #[test]
    fn config_round_trips_through_json() {
        let study = StudyConfig::builder()
            .seed(42)
            .walks(500)
            .failure_rate(0.2)
            .retry(RetryPolicy::standard())
            .breaker(BreakerPolicy::standard())
            .workers(4)
            .checkpoint("/tmp/ck.json", 100)
            .build()
            .unwrap();
        let back = StudyConfig::from_json(&study.to_json().unwrap()).unwrap();
        assert_eq!(study, back);
    }

    #[test]
    fn total_walks_clamps_to_seeder_count() {
        let study = StudyConfig::builder().walks(1_000_000).build().unwrap();
        assert_eq!(study.total_walks(), study.web.n_seeders);
    }
}
