//! # crumbcruncher
//!
//! A full-system Rust reproduction of **"Measuring UID Smuggling in the
//! Wild"** (Randall et al., ACM IMC 2022): the CrumbCruncher measurement
//! pipeline, the four-crawler synchronized crawling framework, and — since
//! the live Web and Puppeteer-driven Chrome are not available here — a
//! deterministic simulated Web and browser substrate that reproduces every
//! artifact the pipeline consumes.
//!
//! The workspace crates are re-exported under short names:
//!
//! * [`web`] — the synthetic Web ([`cc_web`]);
//! * [`browser`] — partitioned-storage browser model ([`cc_browser`]);
//! * [`crawler`] — the synchronized crawlers ([`cc_crawler`]);
//! * [`core`] — the analysis pipeline ([`cc_core`]);
//! * [`analysis`] — tables and figures ([`cc_analysis`]);
//! * [`defense`] — the §7 countermeasures ([`cc_defense`]);
//! * [`obs`] — the live observability plane ([`cc_obs`]);
//! * [`serve`] — the HTTP query/serving layer ([`cc_serve`]);
//! * [`loadgen`] — the goose-style load generator ([`cc_loadgen`]);
//! * plus the low-level substrates [`url`], [`net`], [`http`], [`util`].
//!
//! [`Study`] wires the whole thing together:
//!
//! ```
//! use crumbcruncher::Study;
//!
//! let study = Study::quick(7);
//! let report = study.report();
//! assert!(report.summary.unique_url_paths > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

pub use cc_analysis as analysis;
pub use cc_browser as browser;
pub use cc_core as core;
pub use cc_crawler as crawler;
pub use cc_defense as defense;
pub use cc_http as http;
pub use cc_loadgen as loadgen;
pub use cc_net as net;
pub use cc_obs as obs;
pub use cc_serve as serve;
pub use cc_telemetry as telemetry;
pub use cc_url as url;
pub use cc_util as util;
pub use cc_web as web;

use std::path::Path;
use std::sync::Arc;

use cc_analysis::report::{full_report, AnalysisReport};
use cc_core::pipeline::PipelineOutput;
use cc_crawler::{
    CrawlCheckpoint, CrawlConfig, CrawlDataset, PublishPolicy, SnapshotSink, StudyConfig,
    StudyRun, Walker,
};
use cc_util::{CcError, ProgressCounters, ProgressSnapshot};
use cc_web::{generate, SimWeb, WebConfig};

/// An end-to-end study: world, crawl, and pipeline results in one place.
pub struct Study {
    /// The generated world.
    pub web: SimWeb,
    /// The crawl dataset (the paper's released artifact).
    pub dataset: CrawlDataset,
    /// The pipeline output (findings, groups, paths).
    pub output: PipelineOutput,
    /// Final per-worker crawl progress (runs through [`Study::builder`]
    /// only).
    pub progress: Option<ProgressSnapshot>,
}

impl Study {
    /// Run a study with explicit world and crawl configurations.
    pub fn run(web_config: &WebConfig, crawl_config: CrawlConfig) -> Self {
        let web = {
            let _span = telemetry::span("study.generate_web");
            generate(web_config)
        };
        let dataset = {
            let _span = telemetry::span("study.crawl");
            Walker::new(&web, crawl_config).crawl()
        };
        let output = {
            let _span = telemetry::span("study.pipeline");
            cc_core::run_pipeline(&dataset)
        };
        Study {
            web,
            dataset,
            output,
            progress: None,
        }
    }

    /// Run a study from a unified [`StudyConfig`]: world, crawl, worker
    /// count, fault-tolerance policies, and checkpoint schedule all come
    /// from the one serde-able value.
    ///
    /// For resume / graceful-stop / progress / live-publishing control,
    /// chain options onto [`Study::builder`] instead.
    pub fn from_config(study: &StudyConfig) -> Result<Self, CcError> {
        Self::builder(study).run()
    }

    /// A configured study run over a [`StudyConfig`] — the builder face
    /// of the facade (the removed `from_config_with_*` constructor family
    /// collapsed into chained options):
    ///
    /// ```ignore
    /// let study = Study::builder(&config)
    ///     .progress(Arc::clone(&counters))
    ///     .index_publisher(25, publisher)
    ///     .run()?;
    /// ```
    pub fn builder(study: &StudyConfig) -> StudyBuilder<'_> {
        StudyBuilder {
            study,
            resume: None,
            stop_after: None,
            publish: None,
            progress: None,
        }
    }

    /// Resume a checkpointed crawl from `path` and finish the study. The
    /// checkpoint must have been produced under the same `study`
    /// configuration; the result is identical to an uninterrupted
    /// [`Study::from_config`] run.
    pub fn resume(study: &StudyConfig, path: impl AsRef<Path>) -> Result<Self, CcError> {
        let ck = CrawlCheckpoint::load(path)?;
        Self::builder(study).resume(ck).run()
    }

    /// A small, fast study for demos and tests (≈ seconds).
    pub fn quick(seed: u64) -> Self {
        let mut web_config = WebConfig::small();
        web_config.seed = seed;
        let crawl_config = CrawlConfig {
            seed,
            steps_per_walk: 5,
            max_walks: Some(15),
            ..CrawlConfig::default()
        };
        Study::run(&web_config, crawl_config)
    }

    /// A medium study matching the calibrated defaults (≈ seconds in
    /// release mode, a couple of minutes in debug).
    pub fn medium(seed: u64) -> Self {
        let web_config = WebConfig {
            seed,
            n_sites: 2_000,
            n_seeders: 1_000,
            ..WebConfig::default()
        };
        let crawl_config = CrawlConfig {
            seed,
            ..CrawlConfig::default()
        };
        Study::run(&web_config, crawl_config)
    }

    /// The complete analysis report (every table and figure).
    pub fn report(&self) -> AnalysisReport {
        let _span = telemetry::span("study.report");
        full_report(&self.web, &self.dataset, &self.output)
    }

    /// Ground-truth scorecard for the pipeline (simulator-only superpower).
    pub fn truth_score(&self) -> cc_core::truth_eval::TruthScore {
        cc_core::truth_eval::score(&self.output.groups, &self.web.truth_snapshot())
    }
}

/// A configured facade-level study run (from [`Study::builder`]).
///
/// Collapses the old `from_config` / `from_config_with_options` /
/// `from_config_with_progress` family — and the widening parameter lists
/// they forced — into chained options:
///
/// * [`StudyBuilder::progress`] — count into caller-owned
///   [`ProgressCounters`] (the observability hook: hand clones of the
///   same counters to a cc-obs observer and watch the crawl live);
/// * [`StudyBuilder::resume`] / [`StudyBuilder::stop_after`] —
///   checkpoint/resume and deterministic graceful drain;
/// * [`StudyBuilder::index_publisher`] — publish in-memory crawl
///   snapshots every K walks to a [`SnapshotSink`] (cc-serve's
///   `IndexPublisher` folds them into live `ServingIndex` epochs);
/// * the on-disk checkpoint sink is configured in
///   [`StudyConfig::checkpoint`];
/// * [`StudyBuilder::run`] ends in the analysis pipeline, and
///   [`StudyBuilder::crawl`] stops at the dataset for callers that read
///   nothing else.
#[derive(Debug)]
#[must_use = "a StudyBuilder does nothing until .run() or .crawl() is called"]
pub struct StudyBuilder<'a> {
    study: &'a StudyConfig,
    resume: Option<CrawlCheckpoint>,
    stop_after: Option<usize>,
    publish: Option<PublishPolicy>,
    progress: Option<&'a ProgressCounters>,
}

impl<'a> StudyBuilder<'a> {
    /// Resume from a checkpoint produced under the same configuration.
    pub fn resume(mut self, checkpoint: CrawlCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Stop claiming after `n` new walks (deterministic graceful drain —
    /// the simulated `kill -TERM` the fault-tolerance suites use).
    pub fn stop_after(mut self, n: usize) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Count progress into caller-owned counters (must be sized for
    /// `study.workers`; [`StudyBuilder::run`] refuses other sizes).
    pub fn progress(mut self, progress: &'a ProgressCounters) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Publish an in-memory crawl snapshot to `sink` every `every` walks
    /// (plus a final complete one) while the crawl runs.
    pub fn index_publisher(mut self, every: usize, sink: Arc<dyn SnapshotSink>) -> Self {
        self.publish = Some(PublishPolicy::new(every, sink));
        self
    }

    /// Execute without the pipeline: generate the world and run the crawl
    /// through the work-stealing executor. For callers that read only the
    /// dataset, such as the CLI's `crawl`.
    pub fn crawl(self) -> Result<StudyCrawl, CcError> {
        let study = self.study;
        let web = {
            let _span = telemetry::span("study.generate_web");
            generate(&study.web)
        };
        let owned_progress;
        let progress = match self.progress {
            Some(p) => p,
            None => {
                owned_progress = ProgressCounters::new(study.workers);
                &owned_progress
            }
        };
        let dataset = {
            let _span = telemetry::span("study.crawl");
            // The progress clock times the crawl alone, inside its span.
            progress.start_clock();
            let mut run = StudyRun::new(&web, study).progress(progress);
            if let Some(ck) = self.resume {
                run = run.resume(ck);
            }
            if let Some(n) = self.stop_after {
                run = run.stop_after(n);
            }
            if let Some(policy) = self.publish {
                run = run.publish(policy);
            }
            let dataset = run.run();
            progress.stop_clock();
            dataset?
        };
        Ok(StudyCrawl {
            web,
            dataset,
            progress: progress.snapshot(),
        })
    }

    /// Execute: [`StudyBuilder::crawl`], then the analysis pipeline.
    pub fn run(self) -> Result<Study, CcError> {
        let StudyCrawl {
            web,
            dataset,
            progress,
        } = self.crawl()?;
        let output = {
            let _span = telemetry::span("study.pipeline");
            cc_core::run_pipeline(&dataset)
        };
        Ok(Study {
            web,
            dataset,
            output,
            progress: Some(progress),
        })
    }
}

/// A study's world and crawl without the pipeline (from
/// [`StudyBuilder::crawl`]).
pub struct StudyCrawl {
    /// The generated world.
    pub web: SimWeb,
    /// The crawl dataset (the paper's released artifact).
    pub dataset: CrawlDataset,
    /// Final per-worker crawl progress.
    pub progress: ProgressSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_end_to_end() {
        let study = Study::quick(3);
        let report = study.report();
        assert!(report.summary.unique_url_paths > 0);
        let score = study.truth_score();
        assert!(score.precision() > 0.5);
    }

    #[test]
    fn parallel_study_matches_serial() {
        let config = StudyConfig::builder()
            .web(cc_web::WebConfig::small())
            .steps(3)
            .walks(8)
            .workers(3)
            .build()
            .unwrap();
        let serial = Study::run(&config.web, config.crawl_config());
        let parallel = Study::builder(&config).run().unwrap();
        assert_eq!(serial.dataset, parallel.dataset);
        assert_eq!(serial.output.groups.len(), parallel.output.groups.len());
    }
}
