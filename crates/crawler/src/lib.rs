//! # cc-crawler
//!
//! CrumbCruncher's crawling framework: four synchronized crawlers walking
//! the (simulated) web.
//!
//! * [`names`] — the four crawlers (§3.2): Safari-1, Safari-2, Chrome-3
//!   (three distinct users crawling in parallel) and Safari-1R (the
//!   trailing crawler that repeats each of Safari-1's steps as the *same*
//!   user to unmask session IDs).
//! * [`matching`] — the central controller's three element-matching
//!   heuristics (§3.3): anchors by href-sans-query, and any elements by
//!   attribute names + similar bounding box or attribute names + x-path.
//! * [`walker`] — ten-step random walks (§3.1) with the full failure
//!   taxonomy: synchronization failure (no shared element, 7.6% in the
//!   paper), divergence (clicked elements led to different FQDNs, 1.8%),
//!   and connection failures (3.3%). [`Walker::crawl`] is the serial
//!   reference crawl: the walk loop is the central controller, driving
//!   the three parallel crawlers in lockstep.
//! * [`executor`] — [`StudyRun`], the work-stealing executor behind every
//!   run that needs workers, resume, sinks or gaggle leases: worker
//!   threads claim global walk ids from a shared queue, so the merged
//!   dataset is bit-identical to a serial crawl at any worker count. The
//!   paper's twelve instances over disjoint seeder ranges (§3.8) become
//!   cc-gaggle leases of walk ids, merged losslessly.
//! * [`record`] — the crawl dataset (serde-serializable, like the paper's
//!   released dataset): per-step observations of storage snapshots,
//!   clicked elements, navigation hops, and beacon requests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod executor;
pub mod matching;
pub mod names;
pub mod record;
pub mod walker;

pub use checkpoint::{CrawlCheckpoint, CHECKPOINT_SCHEMA};
pub use config::{CheckpointPolicy, ServePolicy, StudyConfig, StudyConfigBuilder};
pub use executor::{crawl_study, PublishPolicy, SnapshotSink, StudyRun};
pub use matching::{same_element, select_shared};
pub use names::{CrawlerName, UserId};
pub use record::{
    ClickedElement, CrawlDataset, CrawlObservation, FailureEntry, FailureLedger, FailureStats,
    StepRecord, WalkRecord, WalkTermination,
};
pub use walker::{CrawlConfig, NavigationRewriter, Walker};
