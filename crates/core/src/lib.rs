//! # cc-core
//!
//! The CrumbCruncher analysis pipeline — the paper's primary contribution.
//!
//! Stages, in the paper's order:
//!
//! 1. [`extract`] — recursive token extraction from cookie, localStorage,
//!    and query-parameter values (JSON and URL-encoded payloads are
//!    unwrapped, §3.6);
//! 2. [`observe`] — flatten a crawl dataset into per-crawler token
//!    observations, each tied to the first-party context (registered
//!    domain) it was seen in;
//! 3. [`candidates`] — detect *potential UID smuggling*: tokens passed
//!    across at least one first-party context as a navigation query
//!    parameter (§3.6);
//! 4. [`classify`] — identify true UIDs: the static four-crawler rules and
//!    the dynamic rules of §3.7, the programmatic heuristics
//!    ([`heuristics`]), and the manual-analyst model ([`manual`]);
//! 5. [`pipeline`] — the end-to-end driver producing [`pipeline::PipelineOutput`];
//! 6. [`baselines`] — prior-work methodologies (lifetime-based session
//!    filtering, Ratcliff/Obershelp fuzzy matching, two-crawler designs)
//!    for the ablation benches;
//! 7. [`truth_eval`] — precision/recall against the simulator's ground
//!    truth (an evaluation the paper could not run on the live web);
//! 8. [`ml`] — the learned token classifier the paper names as future
//!    work (§7.2), trainable from the ground-truth ledger.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod candidates;
pub mod classify;
pub mod extract;
pub mod heuristics;
pub mod manual;
pub mod ml;
pub mod observe;
pub mod pipeline;
pub mod truth_eval;

pub use classify::{ComboClass, DiscardReason, Verdict};
pub use pipeline::{
    classify_walks, extract_walk, run_pipeline, PipelineOutput, UidFinding, WalkExtract,
};
