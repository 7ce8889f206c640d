//! The crawl executor: work-stealing walk scheduling behind [`StudyRun`].
//!
//! The paper scales its crawl by running twelve EC2 instances over disjoint
//! seeder ranges (§3.8). This module scales the *same* crawl over threads
//! instead (cc-gaggle spreads it over processes as leases of walk ids,
//! each run through [`StudyRun::lease`]), through a [`WalkQueue`]: each
//! worker first drains a small contiguous block reserved for it, then
//! claims adaptive batches from the shared tail as soon as it finishes,
//! so long walks and short walks balance automatically — no worker idles
//! while another still holds a backlog, the dynamic-stealing property
//! static per-shard ranges lack — while the reservation bounds how
//! lopsided the claim distribution can get (see [`WalkQueue`]).
//!
//! Determinism is preserved by construction, not by scheduling:
//!
//! * every stream of randomness in a walk is forked from the **global**
//!   walk id (`DetRng::fork_indexed`), never from thread identity or
//!   claim order, so a walk's record is the same whichever worker runs it;
//! * the ground-truth ledger resolves concurrent labels by precedence
//!   ([`cc_web`]'s `TruthLog::note` commutes), so interleaved mint
//!   notifications converge to one ledger;
//! * workers move each finished walk into one accumulator, whose walks
//!   are sorted by walk id at the end, and failure counters sum
//!   commutatively.
//!
//! Net effect: a [`StudyRun`] with any worker count is **bit-identical**
//! to [`Walker::crawl`] — the parallel-equivalence integration tests
//! assert this on serialized JSON.
//!
//! That accumulator is [`WalkSinks`], and it is the one sink of a study
//! whoever crawls it: a run's workers record one walk per batch, and the
//! cc-gaggle manager one accepted lease per batch. Both start from
//! [`resume_plan`] and end with [`WalkSinks::finish`], so the resume
//! base, the checkpoint cadence and log, the truth handed to the world
//! and the assembled dataset are one code path for threads and processes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cc_util::{CcError, ProgressCounters};
use cc_web::{SimWeb, TruthLog};

use crate::checkpoint::{CheckpointLog, CrawlCheckpoint};
use crate::config::{CheckpointPolicy, StudyConfig};
use crate::record::{CrawlDataset, FailureLedger, FailureStats, WalkRecord};
use crate::walker::Walker;

/// The shared walk queue: per-worker reserved prefixes plus a batched
/// common tail.
///
/// The former design was a single `fetch_add(1)` per walk, which is
/// maximally dynamic but lets scheduling luck hand one worker a wildly
/// skewed share — starvation gauges up to ~0.4 on short queues. This
/// queue splits the index range `0..total` in two:
///
/// * indices `0 .. reserve × n_workers` are **reserved**: worker `w` owns
///   the contiguous block `w×reserve .. (w+1)×reserve` (a quarter of its
///   fair share) and drains it without touching shared state;
/// * the remaining tail is claimed in batches sized
///   `remaining / (2 × n_workers)`, clamped to `1..=8` — large batches
///   while the tail is long (fewer contended claims), single walks near
///   the end (stragglers balance).
///
/// Every worker therefore executes at least its reserved quarter-share,
/// so the `crawl.worker.queue_starvation` gauge is bounded by ~0.75 by
/// construction instead of by scheduling luck. Which worker runs which
/// walk still varies run to run — outputs don't care, because walks are
/// keyed by global id and merged order-independently.
struct WalkQueue {
    total: usize,
    n_workers: usize,
    reserve: usize,
    next: AtomicUsize,
}

impl WalkQueue {
    fn new(total: usize, n_workers: usize) -> Self {
        let n_workers = n_workers.max(1);
        let reserve = total / (4 * n_workers);
        WalkQueue {
            total,
            n_workers,
            reserve,
            next: AtomicUsize::new(reserve * n_workers),
        }
    }

    /// Worker `w`'s view of the queue: an iterator over the indices it
    /// claims.
    fn worker(&self, w: usize) -> WorkerClaims<'_> {
        WorkerClaims {
            queue: self,
            reserved: (w * self.reserve)..((w + 1) * self.reserve),
            batch: 0..0,
        }
    }
}

/// One worker's claim stream: reserved block first, then shared batches.
struct WorkerClaims<'q> {
    queue: &'q WalkQueue,
    reserved: std::ops::Range<usize>,
    batch: std::ops::Range<usize>,
}

impl Iterator for WorkerClaims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if let Some(i) = self.reserved.next() {
            return Some(i);
        }
        if let Some(i) = self.batch.next() {
            return Some(i);
        }
        loop {
            let start = self.queue.next.load(Ordering::Relaxed);
            if start >= self.queue.total {
                return None;
            }
            let remaining = self.queue.total - start;
            let size = (remaining / (2 * self.queue.n_workers)).clamp(1, 8).min(remaining);
            if self
                .queue
                .next
                .compare_exchange(start, start + size, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.batch = start..start + size;
                return self.batch.next();
            }
            // Lost the race; retry with the new head.
        }
    }
}

/// A consumer of in-memory crawl deltas — the in-process twin of the
/// checkpoint log. Every [`PublishPolicy::every`] walks, plus once after
/// the last walk, the executor hands each subscribed sink a
/// [`CrawlCheckpoint`] holding only what changed since its previous
/// publish: the walks completed since then, their failure counters, and
/// the truth they minted. The run's first delta also carries its resume
/// base (walks, failures and truth).
///
/// A run's deltas hold every walk of the run exactly once. Merged in
/// order with [`CrawlCheckpoint::absorb`], they make the study so far,
/// and after the final delta the returned dataset and the ledger the
/// crawl's walks minted. A sink may merge several pending deltas before
/// it uses them (coalescing): that is how cc-serve's `IndexPublisher`
/// folds batches into fresh `ServingIndex` epochs without ever blocking a
/// crawl worker.
pub trait SnapshotSink: Send + Sync {
    /// Receive one delta. Called from whichever worker thread completed
    /// the triggering walk, under the executor's accumulator lock (the
    /// final delta, from the thread that called [`StudyRun::run`]) —
    /// implementations must hand off quickly (queue, don't build).
    fn publish(&self, snapshot: CrawlCheckpoint);
}

/// Publish a delta to `sink` every `every` walks (same hook family as
/// [`CheckpointPolicy`], but in-memory instead of on-disk).
#[derive(Clone)]
pub struct PublishPolicy {
    /// Delta cadence, in completed walks (must be ≥ 1).
    pub every: usize,
    /// Where deltas go.
    pub sink: Arc<dyn SnapshotSink>,
}

impl PublishPolicy {
    /// Publish to `sink` every `every` walks (panics on a zero cadence).
    pub fn new(every: usize, sink: Arc<dyn SnapshotSink>) -> PublishPolicy {
        assert!(every > 0, "publish cadence must be at least one walk");
        PublishPolicy { every, sink }
    }
}

impl std::fmt::Debug for PublishPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishPolicy").field("every", &self.every).finish()
    }
}

/// A batch of finished walks, with their summed failure counters and the
/// truth they minted: one walk from an executor worker, or one accepted
/// cc-gaggle lease.
#[derive(Debug)]
pub struct WalkBatch {
    /// The walks, in any order.
    pub walks: Vec<WalkRecord>,
    /// Their summed failure counters.
    pub failures: FailureStats,
    /// The ledger entries their walks minted.
    pub truth: TruthLog,
}

/// The one accumulator of a study's finished walks, whoever crawls them:
/// [`StudyRun`]'s workers record one walk per batch, and the cc-gaggle
/// manager one accepted lease per batch. It owns the resume base (which
/// carries the study) and the sink policies, and feeds the sinks as
/// batches arrive:
///
/// * the study's [`CheckpointPolicy`] appends the batches added since the
///   previous save to the checkpoint log;
/// * a [`PublishPolicy`] hands its [`SnapshotSink`] a delta of the batches
///   added since the previous publish.
///
/// A save or a publish fires when the run's walk count crosses a multiple
/// of its `every`: never inside a batch, and never on the run's last
/// batch, which [`WalkSinks::finish`] writes. One accumulator serves both
/// cadences, so a batch is held once however many sinks are subscribed;
/// with neither (a lease, a sink-free run) it only gathers the walks.
pub struct WalkSinks {
    /// The resume base (an empty one on a fresh start).
    base: CrawlCheckpoint,
    checkpoint: Option<CheckpointPolicy>,
    publish: Option<PublishPolicy>,
    /// Walks this run crawls.
    run_walks: usize,
    acc: Mutex<Accumulated>,
}

/// What the sinks have gathered, under one lock.
struct Accumulated {
    /// This run's batches, in completion order.
    batches: Vec<WalkBatch>,
    /// The walks in `batches`.
    walks: usize,
    /// The checkpoint log, when the study checkpoints.
    log: Option<CheckpointLog>,
    /// How many of `batches` the log holds.
    saved: usize,
    /// How many of `batches` the snapshot sink has been handed.
    published: usize,
    /// The merged truth of the first `retired` batches, which every sink
    /// has taken; later batches still hold their own.
    truth: TruthLog,
    retired: usize,
    /// The first failed save.
    error: Option<CcError>,
}

impl Accumulated {
    /// Append the batches the log lacks (a no-op without a log).
    fn save(&mut self, base: &CrawlCheckpoint) -> Result<(), CcError> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        let unsaved = &self.batches[self.saved..];
        let truth = merged_truth(unsaved);
        log.append(base, walks_of(unsaved), failures_of(unsaved), &truth)?;
        cc_telemetry::counter("crawl.sink.truth_entries", truth_entries(unsaved));
        self.saved = self.batches.len();
        Ok(())
    }

    /// Copies of the walks, failure counters and truth the snapshot sink
    /// lacks; the run's first delta adds the resume base's.
    fn delta(&mut self, base: &CrawlCheckpoint) -> CrawlCheckpoint {
        let unpublished = &self.batches[self.published..];
        let mut failures = failures_of(unpublished);
        let mut truth = merged_truth(unpublished);
        cc_telemetry::counter("crawl.sink.truth_entries", truth_entries(unpublished));
        let mut walks: Vec<WalkRecord> = walks_of(unpublished).cloned().collect();
        if self.published == 0 {
            walks.extend(base.partial.walks.iter().cloned());
            failures.absorb(base.partial.failures);
            truth.merge(&base.truth);
        }
        cc_telemetry::counter("crawl.sink.walk_copies", walks.len() as u64);
        self.published = self.batches.len();
        CrawlCheckpoint::new(&base.study, dataset(walks, failures), truth)
    }

    /// Move the truth of the first `taken` batches into the merged ledger,
    /// so that a batch's own ledger lives only until its sinks have it.
    fn retire(&mut self, taken: usize) {
        for b in &mut self.batches[self.retired..taken] {
            self.truth.absorb(std::mem::take(&mut b.truth));
        }
        self.retired = taken;
    }

    /// Every batch's truth, moved into one ledger.
    fn take_truth(&mut self) -> TruthLog {
        self.retire(self.batches.len());
        std::mem::take(&mut self.truth)
    }

    /// The walks as one dataset, in walk-id order.
    fn into_dataset(self) -> CrawlDataset {
        let failures = failures_of(&self.batches);
        dataset(self.batches.into_iter().flat_map(|b| b.walks).collect(), failures)
    }
}

/// A dataset of `walks` (sorted into walk-id order) with `failures`.
fn dataset(mut walks: Vec<WalkRecord>, failures: FailureStats) -> CrawlDataset {
    walks.sort_unstable_by_key(|w| w.walk_id);
    let mut ledger = FailureLedger::default();
    for walk in &walks {
        ledger.note(walk);
    }
    CrawlDataset {
        walks,
        failures,
        ledger,
    }
}

/// The walks of `batches`.
fn walks_of(batches: &[WalkBatch]) -> impl Iterator<Item = &WalkRecord> {
    batches.iter().flat_map(|b| &b.walks)
}

/// The summed failure counters of `batches`.
fn failures_of(batches: &[WalkBatch]) -> FailureStats {
    let mut sum = FailureStats::default();
    for b in batches {
        sum.absorb(b.failures);
    }
    sum
}

/// The truth `batches` minted, merged into one ledger.
fn merged_truth(batches: &[WalkBatch]) -> TruthLog {
    let mut truth = TruthLog::new();
    for b in batches {
        truth.merge(&b.truth);
    }
    truth
}

/// The batches' own truth entries, summed: what the
/// `crawl.sink.truth_entries` counter adds when they reach a sink, so
/// that it does not depend on when the sinks fired.
fn truth_entries(batches: &[WalkBatch]) -> u64 {
    batches.iter().map(|b| b.truth.len() as u64).sum()
}

impl WalkSinks {
    /// The sinks of a study run over `base` (see [`resume_plan`]) that
    /// crawls `run_walks` walks: the study's checkpoint log when it has a
    /// [`CheckpointPolicy`], and `publish` when given.
    pub fn new(base: CrawlCheckpoint, run_walks: usize, publish: Option<PublishPolicy>) -> Self {
        let checkpoint = base.study.checkpoint.clone();
        WalkSinks::with(base, run_walks, checkpoint, publish)
    }

    /// [`WalkSinks::new`] with the checkpoint policy given, not the
    /// study's: a lease passes none.
    fn with(
        base: CrawlCheckpoint,
        run_walks: usize,
        checkpoint: Option<CheckpointPolicy>,
        publish: Option<PublishPolicy>,
    ) -> Self {
        let log = checkpoint
            .as_ref()
            .map(|p| CheckpointLog::new(&base.study, &p.path));
        WalkSinks {
            base,
            checkpoint,
            publish,
            run_walks,
            acc: Mutex::new(Accumulated {
                batches: Vec::new(),
                walks: 0,
                log,
                saved: 0,
                published: 0,
                truth: TruthLog::new(),
                retired: 0,
                error: None,
            }),
        }
    }

    /// Take one batch of finished walks, firing each sink whose cadence
    /// the batch crosses. A failed save is kept for [`WalkSinks::finish`]
    /// to return; a panicking snapshot sink unwinds into the caller.
    pub fn record(&self, batch: WalkBatch) {
        // A poisoned accumulator means a sink panicked on another thread,
        // which reports the failure; this batch has nowhere to go.
        let Ok(mut acc) = self.acc.lock() else {
            return;
        };
        let before = acc.walks;
        acc.walks += batch.walks.len();
        acc.batches.push(batch);
        let done = acc.walks;
        let due = |every: usize| {
            done < self.run_walks && (before + 1..=done).any(|n| n.is_multiple_of(every))
        };
        // Emit while still holding the lock: appends to the log must not
        // interleave, and serialized emission hands the sink its deltas
        // in order.
        if self.checkpoint.as_ref().is_some_and(|p| due(p.every)) {
            if let Err(e) = acc.save(&self.base) {
                acc.error.get_or_insert(e);
            }
        }
        if let Some(policy) = self.publish.as_ref().filter(|p| due(p.every)) {
            let delta = acc.delta(&self.base);
            policy.sink.publish(delta);
        }
        // With no sink, every batch is taken as it arrives.
        let saved = self.checkpoint.as_ref().map(|_| acc.saved);
        let published = self.publish.as_ref().map(|_| acc.published);
        let taken = saved
            .into_iter()
            .chain(published)
            .min()
            .unwrap_or(acc.batches.len());
        acc.retire(taken);
    }

    /// End the study: the walks' truth and the resume base's go into
    /// `web`'s ledger, the log gets its canonical rewrite, the snapshot
    /// sink its final delta, and the walks merge with the base into the
    /// study's dataset. A failed save is the study's error, and so is a
    /// panic in the final publish: a [`CcError::Panic`] naming the run's
    /// last walk.
    pub fn finish(self, web: &SimWeb) -> Result<CrawlDataset, CcError> {
        let WalkSinks {
            base, publish, acc, ..
        } = self;
        let mut acc = accumulated(acc)?;
        // Final emission: a crawl stopped between intervals (or drained by
        // stop_after) still leaves a current checkpoint behind, and the
        // sink's deltas always end holding every walk run.
        let last_delta = publish.as_ref().map(|_| acc.delta(&base));
        if acc.log.is_some() {
            // The last batches' truth reaches the log in the whole ledger.
            let entries = truth_entries(&acc.batches[acc.saved..]);
            cc_telemetry::counter("crawl.sink.truth_entries", entries);
        }
        // The world's ledger made whole, once: every batch's truth moves
        // in, with the resume base's.
        let mut truth = acc.take_truth();
        truth.merge(&base.truth);
        web.absorb_truth_owned(truth);
        if let Some(log) = acc.log.take() {
            let unsaved = &acc.batches[acc.saved..];
            let failures = failures_of(unsaved);
            web.with_truth(|whole| log.finish(&base, walks_of(unsaved), failures, whole))?;
        }
        if let (Some(policy), Some(delta)) = (&publish, last_delta) {
            let last = walks_of(&acc.batches).last().map(|w| w.walk_id);
            catch_unwind(AssertUnwindSafe(|| policy.sink.publish(delta)))
                .map_err(|payload| panicked(last, &*payload))?;
        }
        Ok(CrawlDataset::merge([base.partial, acc.into_dataset()]))
    }

    /// End a lease: its dataset and the truth its walks minted.
    fn into_lease(self) -> Result<(CrawlDataset, TruthLog), CcError> {
        let mut acc = accumulated(self.acc)?;
        let truth = acc.take_truth();
        Ok((acc.into_dataset(), truth))
    }
}

/// The accumulator, once every producer is done; a failed save is the
/// run's error.
fn accumulated(acc: Mutex<Accumulated>) -> Result<Accumulated, CcError> {
    let mut acc = acc
        .into_inner()
        .expect("a sink panic fails the crawl before the accumulator is read");
    match acc.error.take() {
        Some(e) => Err(e),
        None => Ok(acc),
    }
}

/// Where a run of `study` starts, over a world of `seeders` seeder URLs:
/// its resume base and the walk ids it still has to crawl, in id order
/// and each below `seeders`. A fresh start has an empty base and every
/// walk of the study. A `resume` checkpoint is first validated against
/// the study, and the `crawl.resume.*` counters record how many walks it
/// restores and how many remain. [`StudyRun::run`] and the cc-gaggle
/// manager both start here.
pub fn resume_plan(
    study: &StudyConfig,
    seeders: usize,
    resume: Option<CrawlCheckpoint>,
) -> Result<(CrawlCheckpoint, Vec<u32>), CcError> {
    let (base, mut ids) = match resume {
        Some(ck) => {
            ck.validate_against(study)?;
            let remaining = ck.remaining();
            cc_telemetry::counter("crawl.resume.walks_restored", ck.partial.walks.len() as u64);
            cc_telemetry::counter("crawl.resume.walks_remaining", remaining.len() as u64);
            (ck, remaining)
        }
        None => (
            CrawlCheckpoint::new(study, CrawlDataset::default(), TruthLog::new()),
            (0..study.total_walks().min(seeders) as u32).collect(),
        ),
    };
    ids.retain(|&id| (id as usize) < seeders);
    Ok((base, ids))
}

/// Run (or resume) a whole study through the work-stealing executor.
///
/// This is the [`StudyConfig`]-driven entry point: worker count, retry and
/// breaker policies, and the checkpoint schedule all come from the config.
/// The result is byte-identical to [`Walker::crawl`] with the lowered
/// [`CrawlConfig`](crate::CrawlConfig) — at any worker count, and whether
/// the crawl ran uninterrupted or was killed and resumed.
///
/// For resume / graceful-stop / snapshot-publishing / progress control,
/// chain options onto [`StudyRun`] instead.
pub fn crawl_study(web: &SimWeb, study: &StudyConfig) -> Result<CrawlDataset, CcError> {
    StudyRun::new(web, study).run()
}

/// A configured study run: the one way to crawl with workers, resume,
/// sinks or leases. Chain exactly the options a call site needs:
///
/// ```ignore
/// let dataset = StudyRun::new(&web, &study)
///     .resume(checkpoint)
///     .progress(&counters)
///     .publish(PublishPolicy::new(25, publisher))
///     .run()?;
/// ```
#[derive(Debug)]
#[must_use = "a StudyRun does nothing until .run() or .lease() is called"]
pub struct StudyRun<'a> {
    web: &'a SimWeb,
    study: &'a StudyConfig,
    resume: Option<CrawlCheckpoint>,
    stop_after: Option<usize>,
    publish: Option<PublishPolicy>,
    progress: Option<&'a ProgressCounters>,
}

impl<'a> StudyRun<'a> {
    /// A run of `study` over `web` with default options (fresh start, no
    /// publishing, no progress counters).
    pub fn new(web: &'a SimWeb, study: &'a StudyConfig) -> StudyRun<'a> {
        StudyRun {
            web,
            study,
            resume: None,
            stop_after: None,
            publish: None,
            progress: None,
        }
    }

    /// Resume from `checkpoint`: its walks are kept, its truth ledger
    /// restored into the world with the run's, and only the remaining
    /// walk ids run.
    pub fn resume(mut self, checkpoint: CrawlCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Stop claiming after `n` *new* walks (graceful drain): the simulated
    /// `kill -TERM` used to exercise checkpoint/resume. Because walks are
    /// claimed in id order, the surviving set is deterministic.
    pub fn stop_after(mut self, n: usize) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Publish in-memory [`CrawlCheckpoint`] deltas to `policy.sink`
    /// every `policy.every` walks, plus a final one (the live-serving
    /// hook; independent of the on-disk [`CheckpointPolicy`]).
    pub fn publish(mut self, policy: PublishPolicy) -> Self {
        self.publish = Some(policy);
        self
    }

    /// Update caller-owned progress counters (so a monitor thread can
    /// snapshot the live crawl). They must be sized to `study.workers`:
    /// [`StudyRun::run`] and [`StudyRun::lease`] refuse other sizes with
    /// [`CcError::Config`] before any walk runs.
    pub fn progress(mut self, progress: &'a ProgressCounters) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Execute the run: the study's walks (or, when resuming, the ones
    /// the checkpoint lacks), firing the checkpoint and publish sinks.
    /// The walks' truth (and the resume base's) is absorbed into the
    /// world's ledger once, when the last walk is in. A panic in a walk
    /// or in a sink is a [`CcError::Panic`] naming the walk.
    pub fn run(self) -> Result<CrawlDataset, CcError> {
        self.check_progress()?;
        let StudyRun {
            web,
            study,
            resume,
            stop_after,
            publish,
            progress,
        } = self;
        let (base, mut ids) = resume_plan(study, web.seeder_urls().len(), resume)?;
        if let Some(n) = stop_after {
            ids.truncate(n);
        }
        let sinks = WalkSinks::new(base, ids.len(), publish);
        crawl_ids(web, study, &ids, progress, &sinks)?;
        sinks.finish(web)
    }

    /// Crawl exactly the walk ids `ids` of the study: the run a cc-gaggle
    /// worker makes for each lease. The manager partitions the walk-id
    /// space, and each worker crawls its slice through the same
    /// work-stealing executor (with `study.workers` threads) that a
    /// single-process run uses. Because every walk is a pure function of
    /// `(study, walk_id)`, shards produced from disjoint leases merge
    /// byte-identically to one uninterrupted run — whatever the lease
    /// sizes, interleaving, or re-issue history.
    ///
    /// Returns the dataset of *only* the requested ids (ids outside the
    /// seeder range are skipped) and the truth those walks minted; the
    /// world's ledger is left alone. Only [`StudyRun::progress`] applies:
    /// a lease has no resume base and no stop, and fires neither the
    /// study's checkpoint nor a publish sink — the lease holder owns
    /// transport, the lessor owns durability.
    pub fn lease(self, ids: &[u32]) -> Result<(CrawlDataset, TruthLog), CcError> {
        self.check_progress()?;
        let n_seeders = self.web.seeder_urls().len();
        let ids: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&id| (id as usize) < n_seeders)
            .collect();
        let base = CrawlCheckpoint::new(self.study, CrawlDataset::default(), TruthLog::new());
        let sinks = WalkSinks::with(base, ids.len(), None, None);
        crawl_ids(self.web, self.study, &ids, self.progress, &sinks)?;
        sinks.into_lease()
    }

    /// Refuse progress counters sized for another worker count: their
    /// per-worker rows would silently drop walks and stop summing to the
    /// total.
    fn check_progress(&self) -> Result<(), CcError> {
        match self.progress {
            Some(p) if p.n_workers() != self.study.workers => Err(CcError::Config(format!(
                "progress counters sized for {} workers, study has {}",
                p.n_workers(),
                self.study.workers
            ))),
            _ => Ok(()),
        }
    }
}

/// The error a caught panic becomes: it names the walk that was running
/// (or whose completion fired the panicking sink), when there was one.
fn panicked(walk: Option<u32>, payload: &(dyn std::any::Any + Send)) -> CcError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string panic payload".into());
    CcError::Panic { walk, msg }
}

/// The one worker loop: crawl `ids` over `study.workers` work-stealing
/// threads, moving each finished walk into `sinks`. A panic in a walk (or
/// in a sink it fires) stops every worker's claims and is returned as the
/// run's error.
fn crawl_ids(
    web: &SimWeb,
    study: &StudyConfig,
    ids: &[u32],
    progress: Option<&ProgressCounters>,
    sinks: &WalkSinks,
) -> Result<(), CcError> {
    let seeders = web.seeder_urls();
    let queue = WalkQueue::new(ids.len(), study.workers);
    let halted = AtomicBool::new(false);
    // A worker's fair share is of this run's own ids: a resumed run claims
    // only the walks its checkpoint lacked.
    let fair = ids.len() as f64 / study.workers as f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..study.workers)
            .map(|worker| {
                let (queue, halted) = (&queue, &halted);
                let cfg = study.crawl_config();
                scope.spawn(move || -> Result<(), CcError> {
                    // Per-worker telemetry shard: every ID-addressed
                    // counter/event/histogram touch in the walk loop stays
                    // thread-private until the shard drains at worker
                    // exit. Declared before the span so the worker span
                    // drops (and records) into the shard, not after it.
                    let _telemetry_shard = cc_telemetry::worker_shard();
                    // Root span of this worker thread's trace: walk spans
                    // nest under it.
                    let _worker_span = cc_telemetry::span("crawl.worker");
                    let mut walker = Walker::new(web, cfg);
                    let mut claimed = 0usize;
                    for i in queue.worker(worker) {
                        if halted.load(Ordering::Relaxed) {
                            break;
                        }
                        claimed += 1;
                        let walk_id = ids[i];
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            // Fresh per-walk failure accounting so
                            // checkpoints carry exact counts for exactly
                            // the walks they hold (sums commute into the
                            // same totals).
                            let mut failures = FailureStats::default();
                            let (record, truth) = walker.walk(
                                walk_id,
                                seeders[walk_id as usize].clone(),
                                &mut failures,
                            );
                            if let Some(p) = progress {
                                p.record_walk(worker, record.steps.len() as u64);
                            }
                            sinks.record(WalkBatch {
                                walks: vec![record],
                                failures,
                                truth,
                            });
                        }));
                        if let Err(payload) = ran {
                            halted.store(true, Ordering::Relaxed);
                            return Err(panicked(Some(walk_id), &*payload));
                        }
                    }
                    // Scheduling-dependent readings are gauges (timing
                    // section), never counters: which worker claimed how
                    // many walks varies run to run. Starvation compares a
                    // worker's claims to its fair share — 0.0 is a fair
                    // split, 1.0 a fully starved worker.
                    if cc_telemetry::enabled() {
                        let label = worker.to_string();
                        let claimed = claimed as f64;
                        let starvation = if fair > 0.0 {
                            (1.0 - claimed / fair).max(0.0)
                        } else {
                            0.0
                        };
                        cc_telemetry::gauge_labeled("crawl.worker.walks_claimed", &label, claimed);
                        cc_telemetry::gauge_labeled(
                            "crawl.worker.queue_starvation",
                            &label,
                            starvation,
                        );
                    }
                    Ok(())
                })
            })
            .collect();
        // Join every worker before answering: the first error wins.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Err(panicked(None, &*payload)))
            })
            .fold(Ok(()), Result::and)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrawlConfig;
    use cc_web::{generate, WebConfig};

    fn cfg() -> CrawlConfig {
        CrawlConfig {
            seed: 5,
            steps_per_walk: 3,
            max_walks: Some(10),
            connect_failure_rate: 0.02,
            ..CrawlConfig::default()
        }
    }

    /// [`cfg`] (with its walk limit replaced by `walks`) as a study on
    /// `workers` threads.
    fn study(walks: usize, workers: usize) -> StudyConfig {
        StudyConfig::builder()
            .web(WebConfig::small())
            .seed(5)
            .steps(3)
            .walks(walks)
            .failure_rate(0.02)
            .workers(workers)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_equals_serial_exactly() {
        let serial = {
            let web = generate(&WebConfig::small());
            Walker::new(&web, cfg()).crawl()
        };
        for workers in [1, 2, 3, 8] {
            // Fresh world per run: truth-ledger state must not leak
            // between crawls being compared.
            let web = generate(&WebConfig::small());
            let parallel = crawl_study(&web, &study(10, workers)).unwrap();
            assert_eq!(serial, parallel, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn parallel_truth_ledger_matches_serial() {
        let web_a = generate(&WebConfig::small());
        Walker::new(&web_a, cfg()).crawl();
        let web_b = generate(&WebConfig::small());
        crawl_study(&web_b, &study(10, 4)).unwrap();
        let (ta, tb) = (web_a.truth_snapshot(), web_b.truth_snapshot());
        assert_eq!(ta.len(), tb.len());
        assert_eq!(ta.uid_count(), tb.uid_count());
    }

    #[test]
    fn workers_beyond_walks_are_harmless() {
        let web = generate(&WebConfig::small());
        let ds = crawl_study(&web, &study(2, 16)).unwrap();
        assert_eq!(ds.walks.len(), 2);
        assert_eq!(ds.walks[0].walk_id, 0);
        assert_eq!(ds.walks[1].walk_id, 1);
    }

    #[test]
    fn instrumented_run_reports_progress() {
        let web = generate(&WebConfig::small());
        let progress = ProgressCounters::new(2);
        let ds = StudyRun::new(&web, &study(10, 2))
            .progress(&progress)
            .run()
            .unwrap();
        let snap = progress.snapshot();
        assert_eq!(snap.walks as usize, ds.walks.len());
        assert_eq!(snap.steps as usize, ds.total_steps());
        assert_eq!(snap.per_worker.len(), 2);
        let worker_sum: u64 = snap.per_worker.iter().map(|w| w.walks).sum();
        assert_eq!(worker_sum, snap.walks);
    }

    fn faulty_study(workers: usize, checkpoint: Option<(&str, usize)>) -> StudyConfig {
        use cc_net::{BreakerPolicy, RetryPolicy};
        let mut b = StudyConfig::builder()
            .web(WebConfig::small())
            .seed(5)
            .steps(3)
            .walks(12)
            .failure_rate(0.2)
            .retry(RetryPolicy::standard())
            .breaker(BreakerPolicy::standard())
            .workers(workers);
        if let Some((path, every)) = checkpoint {
            b = b.checkpoint(path, every);
        }
        b.build().unwrap()
    }

    #[test]
    fn study_runner_matches_serial_walker_under_faults() {
        let study = faulty_study(4, None);
        let serial = {
            let web = generate(&study.web);
            Walker::new(&web, study.crawl_config()).crawl()
        };
        let web = generate(&study.web);
        let parallel = crawl_study(&web, &study).unwrap();
        assert_eq!(serial, parallel);
        assert!(
            parallel.recovery_totals().retries > 0,
            "a 20% fault rate with retries enabled should retry somewhere"
        );
    }

    #[test]
    fn killed_and_resumed_crawl_matches_uninterrupted() {
        let path = std::env::temp_dir().join("cc-exec-kill-resume.json");
        let path = path.to_str().unwrap().to_string();
        let study = faulty_study(2, Some((&path, 2)));

        // The uninterrupted reference run (its checkpoint write is
        // harmless; the kill run below overwrites the file anyway).
        let web_full = generate(&study.web);
        let full = crawl_study(&web_full, &study).unwrap();

        // Kill after 5 walks, then resume from the checkpoint on a fresh
        // world.
        let web_killed = generate(&study.web);
        let killed = StudyRun::new(&web_killed, &study).stop_after(5).run().unwrap();
        assert_eq!(killed.walks.len(), 5, "graceful drain stopped early");

        let ck = CrawlCheckpoint::load(&path).unwrap();
        assert_eq!(ck.remaining().len(), 12 - 5);
        let web_resumed = generate(&study.web);
        let resumed = StudyRun::new(&web_resumed, &study).resume(ck).run().unwrap();

        assert_eq!(full, resumed, "resumed dataset diverged");
        assert_eq!(
            full.to_json().unwrap(),
            resumed.to_json().unwrap(),
            "resumed dataset bytes diverged"
        );
        // The restored truth ledger converges too, so analysis reports
        // (precision/recall against ground truth) match.
        let (ta, tb) = (web_full.truth_snapshot(), web_resumed.truth_snapshot());
        assert_eq!(ta.len(), tb.len());
        assert_eq!(ta.uid_count(), tb.uid_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_with_mismatched_config_is_refused() {
        let study = faulty_study(1, None);
        let ck = CrawlCheckpoint::new(&study, CrawlDataset::default(), cc_web::TruthLog::new());
        let other = faulty_study(2, None); // differs in worker count
        let web = generate(&other.web);
        let err = StudyRun::new(&web, &other).resume(ck).run().unwrap_err();
        assert!(matches!(err, CcError::Checkpoint(_)), "{err}");
    }

    /// Collects every published delta for inspection.
    #[derive(Default)]
    struct RecordingSink {
        snapshots: Mutex<Vec<CrawlCheckpoint>>,
    }

    impl SnapshotSink for RecordingSink {
        fn publish(&self, snapshot: CrawlCheckpoint) {
            self.snapshots.lock().unwrap().push(snapshot);
        }
    }

    /// `run` with a recording sink subscribed every `every` walks; returns
    /// the dataset and the deltas in publish order.
    fn recorded(
        run: StudyRun<'_>,
        every: usize,
    ) -> (Result<CrawlDataset, CcError>, Vec<CrawlCheckpoint>) {
        let sink = Arc::new(RecordingSink::default());
        let ds = run
            .publish(PublishPolicy::new(
                every,
                Arc::clone(&sink) as Arc<dyn SnapshotSink>,
            ))
            .run();
        let deltas = std::mem::take(&mut *sink.snapshots.lock().unwrap());
        (ds, deltas)
    }

    /// Each walk's own ledger, from [`Walker::walk`] on a fresh world.
    fn own_ledgers(study: &StudyConfig) -> Vec<TruthLog> {
        let web = generate(&study.web);
        let mut walker = Walker::new(&web, study.crawl_config());
        (0..study.total_walks() as u32)
            .map(|id| {
                let seeder = web.seeder_urls()[id as usize].clone();
                walker.walk(id, seeder, &mut FailureStats::default()).1
            })
            .collect()
    }

    /// The deltas of a run, checked against the run: every walk of the
    /// run exactly once, the first carrying `base`, the union's bytes the
    /// dataset's, each delta's truth its walks' own ledgers (and the
    /// base's), and the truths' union the run's share of the world's
    /// ledger.
    fn check_deltas(
        study: &StudyConfig,
        base: &CrawlCheckpoint,
        deltas: Vec<CrawlCheckpoint>,
        ds: &CrawlDataset,
        web: &SimWeb,
    ) {
        let own = own_ledgers(study);
        let mut seen: Vec<u32> = Vec::new();
        let mut union = CrawlCheckpoint::new(study, CrawlDataset::default(), TruthLog::new());
        for (i, delta) in deltas.into_iter().enumerate() {
            assert_eq!(delta.total_walks, study.total_walks());
            delta
                .validate_against(study)
                .expect("a delta carries the study config");
            let mut expected = TruthLog::new();
            for w in &delta.partial.walks {
                expected.merge(&own[w.walk_id as usize]);
            }
            if i == 0 {
                let base_ids: Vec<u32> = base.partial.walks.iter().map(|w| w.walk_id).collect();
                let carried: Vec<u32> = delta.partial.walks.iter().map(|w| w.walk_id).collect();
                assert!(
                    base_ids.iter().all(|id| carried.contains(id)),
                    "the first delta lacks the resume base"
                );
            } else {
                assert!(
                    base.partial.walks.iter().all(|b| !delta
                        .partial
                        .walks
                        .iter()
                        .any(|w| w.walk_id == b.walk_id)),
                    "a later delta repeats the resume base"
                );
            }
            let run_ids: Vec<u32> = delta
                .partial
                .walks
                .iter()
                .map(|w| w.walk_id)
                .filter(|id| !base.partial.walks.iter().any(|b| b.walk_id == *id))
                .collect();
            if i == 0 {
                expected.merge(&base.truth);
            }
            assert_eq!(
                delta.truth, expected,
                "delta {i} holds truth of other walks"
            );
            seen.extend(run_ids);
            union.absorb(delta);
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "a walk was published twice");
        assert_eq!(
            union.partial.to_json().unwrap(),
            ds.to_json().unwrap(),
            "the deltas merge to other bytes than the dataset's"
        );
        let mut world = generate(&study.web).truth_snapshot();
        world.merge(&union.truth);
        assert_eq!(
            world,
            web.truth_snapshot(),
            "the deltas' truth is not the run's"
        );
    }

    #[test]
    fn published_snapshots_are_monotone_and_end_complete() {
        let study = faulty_study(3, None);
        let web = generate(&study.web);
        let (ds, deltas) = recorded(StudyRun::new(&web, &study), 4);
        let ds = ds.unwrap();

        assert!(
            !deltas.is_empty(),
            "a 12-walk study publishing every 4 must publish"
        );
        // A subscriber folding the deltas in order sees its copy grow with
        // every delta and end at the exact final dataset.
        let mut union = CrawlCheckpoint::new(&study, CrawlDataset::default(), TruthLog::new());
        let mut last = 0usize;
        for delta in deltas {
            assert_eq!(delta.total_walks, 12);
            delta
                .validate_against(&study)
                .expect("delta carries the study config");
            union.absorb(delta);
            assert!(union.partial.walks.len() > last, "a delta added no walks");
            last = union.partial.walks.len();
        }
        assert_eq!(union.partial.walks.len(), ds.walks.len());
        assert_eq!(
            union.partial.to_json().unwrap(),
            ds.to_json().unwrap(),
            "the folded deltas must hold the exact final dataset"
        );
    }

    #[test]
    fn the_last_walk_is_emitted_once() {
        let study = faulty_study(2, None);
        let web = generate(&study.web);
        let (ds, deltas) = recorded(StudyRun::new(&web, &study), 4);
        ds.unwrap();
        let counts: Vec<usize> = deltas.iter().map(|d| d.partial.walks.len()).collect();
        assert_eq!(counts, [4, 4, 4], "one delta per distinct batch of walks");
        let mut ids: Vec<u32> = deltas
            .iter()
            .flat_map(|d| d.partial.walks.iter().map(|w| w.walk_id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u32>>(), "every walk once");
    }

    #[test]
    fn published_deltas_hold_each_walk_once_and_merge_to_the_run() {
        for workers in [1, 3] {
            let study = faulty_study(workers, None);
            let web = generate(&study.web);
            let (ds, deltas) = recorded(StudyRun::new(&web, &study), 4);
            let ds = ds.unwrap();
            let sizes: Vec<usize> = deltas.iter().map(|d| d.partial.walks.len()).collect();
            assert_eq!(sizes, [4, 4, 4], "{workers} workers: one delta per batch");
            let fresh = CrawlCheckpoint::new(&study, CrawlDataset::default(), TruthLog::new());
            check_deltas(&study, &fresh, deltas, &ds, &web);
        }

        // Killed after 5 walks and resumed: the resumed run's first delta
        // carries the checkpoint's walks and truth.
        let path = scratch_path("cc-exec-delta-resume");
        let study = faulty_study(3, Some((&path, 2)));
        let full = crawl_study(&generate(&study.web), &study).unwrap();
        StudyRun::new(&generate(&study.web), &study)
            .stop_after(5)
            .run()
            .unwrap();
        let ck = CrawlCheckpoint::load(&path).unwrap();
        let web = generate(&study.web);
        let (ds, deltas) = recorded(StudyRun::new(&web, &study).resume(ck.clone()), 3);
        let ds = ds.unwrap();
        assert_eq!(ds.to_json().unwrap(), full.to_json().unwrap());
        assert_eq!(deltas[0].partial.walks.len(), 5 + 3);
        check_deltas(&study, &ck, deltas, &ds, &web);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_walk_s_own_ledger_is_the_same_at_any_worker_count() {
        let walker = own_ledgers(&faulty_study(1, None));
        assert!(walker.iter().any(|t| !t.is_empty()), "no walk minted");
        for workers in [1, 3] {
            let study = faulty_study(workers, None);
            let web = generate(&study.web);
            let (_, deltas) = recorded(StudyRun::new(&web, &study), 1);
            assert_eq!(deltas.len(), 12, "one delta per walk");
            for delta in deltas {
                let id = delta.partial.walks[0].walk_id as usize;
                assert_eq!(delta.truth, walker[id], "walk {id} at {workers} workers");
            }
        }
        // `Walker::crawl` mints the same ledgers: its world ends holding
        // them and the generation-time entries.
        let study = faulty_study(1, None);
        let web = generate(&study.web);
        let mut expected = web.truth_snapshot();
        for own in &walker {
            expected.merge(own);
        }
        Walker::new(&web, study.crawl_config()).crawl();
        assert_eq!(web.truth_snapshot(), expected, "Walker::crawl minted other truth");
    }

    /// An intermediate checkpoint, read from disk the moment it commits,
    /// holds exactly the truth of the walks it holds, even while other
    /// workers are mid-walk.
    #[test]
    fn intermediate_commits_hold_only_their_walks_truth() {
        struct DiskReader {
            path: String,
            own: Vec<TruthLog>,
            world: TruthLog,
            checked: Mutex<usize>,
        }
        impl SnapshotSink for DiskReader {
            fn publish(&self, _delta: CrawlCheckpoint) {
                // Saves run before publishes under the same lock, so the
                // file is at a commit right now. Only the canonical
                // rewrite holds the whole ledger, generation-time entries
                // included.
                let ck = CrawlCheckpoint::load(&self.path).unwrap();
                let mut expected = TruthLog::new();
                if ck.partial.walks.len() == ck.total_walks {
                    expected.merge(&self.world);
                }
                for w in &ck.partial.walks {
                    expected.merge(&self.own[w.walk_id as usize]);
                }
                assert_eq!(ck.truth, expected, "a commit holds truth of walks it lacks");
                *self.checked.lock().unwrap() += 1;
            }
        }
        let path = scratch_path("cc-exec-commit-truth");
        let study = faulty_study(3, Some((&path, 2)));
        let reader = Arc::new(DiskReader {
            path: path.clone(),
            own: own_ledgers(&study),
            world: generate(&study.web).truth_snapshot(),
            checked: Mutex::new(0),
        });
        StudyRun::new(&generate(&study.web), &study)
            .publish(PublishPolicy::new(
                2,
                Arc::clone(&reader) as Arc<dyn SnapshotSink>,
            ))
            .run()
            .unwrap();
        // Five intermediate commits (2..=10 walks), then the final delta
        // after the canonical rewrite.
        assert_eq!(*reader.checked.lock().unwrap(), 6);
        std::fs::remove_file(&path).ok();
    }

    /// Each batch of the log at `path`, as its commit line closes it: the
    /// batch's walk ids (sorted), failure counters and truth.
    fn commits(path: &str) -> Vec<(Vec<u32>, FailureStats, TruthLog)> {
        #[derive(serde::Deserialize)]
        struct CommitLine {
            commit: Commit,
        }
        #[derive(serde::Deserialize)]
        struct Commit {
            failures: FailureStats,
            truth: TruthLog,
        }
        let log = std::fs::read_to_string(path).unwrap_or_default();
        let mut out = Vec::new();
        let mut ids = Vec::new();
        for line in log.lines().skip(1) {
            if line.starts_with("{\"commit\":") {
                let CommitLine { commit } = serde_json::from_str(line).unwrap();
                ids.sort_unstable();
                out.push((std::mem::take(&mut ids), commit.failures, commit.truth));
            } else {
                ids.push(serde_json::from_str::<WalkRecord>(line).unwrap().walk_id);
            }
        }
        out
    }

    /// The batch twin of `intermediate_commits_hold_only_their_walks_truth`:
    /// fed lease-sized batches, the accumulator commits only at the end of
    /// a batch that takes the run's walk count across a multiple of
    /// `every`, and each commit holds exactly its batches' walks, failure
    /// counters and truth, the first also the resume base's.
    #[test]
    fn lease_batches_commit_where_the_walk_count_crosses_the_cadence() {
        let path = scratch_path("cc-exec-batch-cadence");
        let study = faulty_study(2, Some((&path, 3)));
        let web_full = generate(&study.web);
        let full = crawl_study(&web_full, &study).unwrap();
        let canonical = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // Resume from walks 0 and 1, then feed the other ten as five
        // two-walk leases.
        let web = generate(&study.web);
        let (done, truth) = StudyRun::new(&web, &study).lease(&[0, 1]).unwrap();
        let resume = CrawlCheckpoint::new(&study, done, truth);
        let (base, ids) =
            resume_plan(&study, web.seeder_urls().len(), Some(resume.clone())).unwrap();
        assert_eq!(ids, (2..12).collect::<Vec<u32>>());
        let sinks = WalkSinks::new(base, ids.len(), None);
        let mut pending = (
            vec![0, 1],
            resume.partial.failures,
            resume.truth.clone(),
        );
        let mut expected = Vec::new();
        for (i, lease) in ids.chunks(2).enumerate() {
            let (shard, truth) = StudyRun::new(&web, &study).lease(lease).unwrap();
            pending.0.extend(lease);
            pending.1.absorb(shard.failures);
            pending.2.merge(&truth);
            sinks.record(WalkBatch {
                walks: shard.walks,
                failures: shard.failures,
                truth,
            });
            // 4 walks cross 3 and 6 cross 6; 10, the run's last batch, is
            // left to finish.
            let walks = 2 * (i + 1);
            if walks == 4 || walks == 6 {
                expected.push(std::mem::take(&mut pending));
            }
            assert_eq!(commits(&path), expected, "after {walks} walks");
        }
        assert_eq!(expected.len(), 2);

        let ds = sinks.finish(&web).unwrap();
        assert_eq!(ds.to_json().unwrap(), full.to_json().unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), canonical);
        assert_eq!(web.truth_snapshot(), web_full.truth_snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_panicking_sink_is_an_error_naming_the_walk() {
        struct PanickingSink;
        impl SnapshotSink for PanickingSink {
            fn publish(&self, _delta: CrawlCheckpoint) {
                panic!("sink exploded");
            }
        }
        for workers in [1, 3] {
            let path = scratch_path(&format!("cc-exec-panic-{workers}"));
            let study = faulty_study(workers, Some((&path, 2)));
            let web = generate(&study.web);
            let err = StudyRun::new(&web, &study)
                .publish(PublishPolicy::new(4, Arc::new(PanickingSink)))
                .run()
                .unwrap_err();
            match &err {
                CcError::Panic {
                    walk: Some(walk),
                    msg,
                } => {
                    assert!(*walk < 12 && msg.contains("sink exploded"), "{err}");
                    if workers == 1 {
                        assert_eq!(*walk, 3, "the fourth walk's completion publishes");
                    }
                }
                other => panic!("{workers} workers: expected a panic error, got {other:?}"),
            }
            assert!(err.to_string().contains("panicked"), "{err}");
            std::fs::remove_file(&path).ok();
        }
        // The final delta is published from the caller's thread: a panic
        // there is an error too, naming the run's last walk.
        let study = faulty_study(1, None);
        let err = StudyRun::new(&generate(&study.web), &study)
            .publish(PublishPolicy::new(100, Arc::new(PanickingSink)))
            .run()
            .unwrap_err();
        assert!(
            matches!(err, CcError::Panic { walk: Some(11), .. }),
            "{err}"
        );
    }

    #[test]
    fn finished_checkpoints_are_canonical() {
        let canonical = |path: &str| {
            let bytes = std::fs::read_to_string(path).unwrap();
            let ck = CrawlCheckpoint::load(path).unwrap();
            assert_eq!(
                ck.to_json().unwrap(),
                bytes,
                "{path} is not in canonical form"
            );
            ck
        };
        for workers in [1, 3] {
            let path = scratch_path(&format!("cc-exec-canonical-{workers}"));
            let study = faulty_study(workers, Some((&path, 5)));
            let web = generate(&study.web);
            let ds = crawl_study(&web, &study).unwrap();
            assert_eq!(canonical(&path).partial, ds);
            std::fs::remove_file(&path).ok();
        }

        // Killed after 7 walks and resumed: both runs end canonical, and
        // the resumed file equals the uninterrupted one.
        let path = scratch_path("cc-exec-canonical-resume");
        let study = faulty_study(2, Some((&path, 3)));
        crawl_study(&generate(&study.web), &study).unwrap();
        let full = std::fs::read(&path).unwrap();
        StudyRun::new(&generate(&study.web), &study)
            .stop_after(7)
            .run()
            .unwrap();
        let ck = canonical(&path);
        assert_eq!(ck.partial.walks.len(), 7);
        StudyRun::new(&generate(&study.web), &study)
            .resume(ck)
            .run()
            .unwrap();
        canonical(&path);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_repeated_and_foreign_walks() {
        // A 6-walk study resumed from walks 0, 1, 2 plus a second copy of
        // walk 1 (or a walk past the study's end) must not double-count.
        let study = StudyConfig::builder()
            .web(WebConfig::small())
            .seed(5)
            .steps(3)
            .walks(6)
            .workers(2)
            .build()
            .unwrap();
        let web = generate(&study.web);
        let (done, _) = StudyRun::new(&web, &study).lease(&[0, 1, 2]).unwrap();
        for (extra, why) in [(1u32, "walk 1 appears twice"), (9, "walk 9 is outside")] {
            let mut partial = done.clone();
            let mut copy = partial.walks[1].clone();
            copy.walk_id = extra;
            partial.walks.push(copy);
            let ck = CrawlCheckpoint::new(&study, partial, web.truth_snapshot());
            let err = StudyRun::new(&generate(&study.web), &study)
                .resume(ck)
                .run()
                .unwrap_err();
            assert!(
                matches!(&err, CcError::Checkpoint(msg) if msg.contains(why)),
                "{err}"
            );
        }
    }

    #[test]
    fn publishing_does_not_perturb_crawl_bytes() {
        struct NullSink;
        impl SnapshotSink for NullSink {
            fn publish(&self, _snapshot: CrawlCheckpoint) {}
        }
        let study = faulty_study(2, None);
        let web_plain = generate(&study.web);
        let plain = crawl_study(&web_plain, &study).unwrap();
        let web_pub = generate(&study.web);
        let published = StudyRun::new(&web_pub, &study)
            .publish(PublishPolicy::new(1, Arc::new(NullSink)))
            .run()
            .unwrap();
        assert_eq!(plain.to_json().unwrap(), published.to_json().unwrap());
    }

    #[test]
    fn lease_partitions_merge_to_the_full_study() {
        let study = faulty_study(2, None);
        let web_full = generate(&study.web);
        let full = crawl_study(&web_full, &study).unwrap();

        // Crawl the same study as three disjoint leases (uneven sizes, out
        // of order) on a fresh world and merge the shards — the gaggle
        // manager's exact recipe.
        let web_leased = generate(&study.web);
        let leases: [&[u32]; 3] = [&[7, 8, 9, 10, 11], &[0, 1, 2], &[3, 4, 5, 6]];
        let mut shards = Vec::new();
        for ids in leases {
            let (shard, truth) = StudyRun::new(&web_leased, &study).lease(ids).unwrap();
            shards.push(shard);
            web_leased.absorb_truth_owned(truth);
        }
        let merged = CrawlDataset::merge(shards);
        assert_eq!(full, merged, "lease-partitioned crawl diverged");
        assert_eq!(full.to_json().unwrap(), merged.to_json().unwrap());
        assert_eq!(
            web_full.truth_snapshot(),
            web_leased.truth_snapshot(),
            "the leases' truth does not merge to the run's"
        );
    }

    #[test]
    fn out_of_range_lease_ids_are_skipped() {
        let study = faulty_study(1, None);
        let web = generate(&study.web);
        let (ds, _) = StudyRun::new(&web, &study)
            .lease(&[0, 1, 9_999_999])
            .unwrap();
        assert_eq!(ds.walks.len(), 2);
    }

    /// A scratch file path unique to this test process.
    fn scratch_path(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("{name}-{}.json", std::process::id()));
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn lease_runs_write_no_checkpoint() {
        // Every gaggle Welcome frame carries the manager's whole study,
        // checkpoint policy included; the lease must leave durability to
        // the manager.
        let path = scratch_path("cc-exec-lease-no-sink");
        std::fs::remove_file(&path).ok();
        let study = faulty_study(2, Some((&path, 1)));
        let web = generate(&study.web);
        let (ds, _) = StudyRun::new(&web, &study).lease(&[7, 3, 5]).unwrap();
        let ids: Vec<u32> = ds.walks.iter().map(|w| w.walk_id).collect();
        assert_eq!(ids, [3, 5, 7]);
        assert!(
            !std::path::Path::new(&path).exists(),
            "a lease run wrote the study's checkpoint"
        );
    }

    #[test]
    fn mis_sized_progress_counters_are_refused_before_any_walk() {
        let study = faulty_study(3, None);
        let web = generate(&study.web);
        let progress = ProgressCounters::new(1);
        let err = StudyRun::new(&web, &study)
            .progress(&progress)
            .run()
            .unwrap_err();
        assert!(matches!(err, CcError::Config(_)), "{err}");
        let err = StudyRun::new(&web, &study)
            .progress(&progress)
            .lease(&[0, 1, 2])
            .unwrap_err();
        assert!(matches!(err, CcError::Config(_)), "{err}");
        assert_eq!(progress.snapshot().walks, 0, "a walk ran before the refusal");
    }

    #[test]
    fn checkpoint_naming_a_removed_driver_mode_still_resumes() {
        let path = scratch_path("cc-exec-old-mode-resume");
        let study = faulty_study(2, Some((&path, 2)));
        let web_full = generate(&study.web);
        let full = crawl_study(&web_full, &study).unwrap();

        let web_killed = generate(&study.web);
        StudyRun::new(&web_killed, &study).stop_after(5).run().unwrap();
        // Checkpoints written with the persistent-worker driver embedded
        // the mode in their study, between `failure_rate` and `storage`.
        let json = std::fs::read_to_string(&path).unwrap();
        let old = json.replacen(
            ",\"storage\":",
            ",\"mode\":\"PersistentWorkers\",\"storage\":",
            1,
        );
        assert_ne!(old, json, "the study has a storage field to anchor on");
        std::fs::write(&path, &old).unwrap();

        assert!(old.starts_with(&format!("{{\"schema\":\"{}\"", crate::CHECKPOINT_SCHEMA)));
        let ck = CrawlCheckpoint::load(&path).unwrap();
        ck.validate_against(&study).expect("the unknown mode key is ignored");
        let web_resumed = generate(&study.web);
        let resumed = StudyRun::new(&web_resumed, &study).resume(ck).run().unwrap();
        assert_eq!(full.to_json().unwrap(), resumed.to_json().unwrap());
        std::fs::remove_file(&path).ok();
    }
}
