//! Folding crawl snapshots into fresh [`ServingIndex`] epochs.
//!
//! Two pieces:
//!
//! * [`IncrementalIndexBuilder`] — the fold. It keeps the regenerated
//!   simulated web (one [`generate`] per crawl, not per epoch) and, per
//!   walk id, each walk's pipeline extraction and `/walks/{id}` body. A
//!   fold absorbs the snapshot's truth ledger, extracts and encodes only
//!   the walks it has not seen, then runs classification, the report and
//!   the remaining routes over every walk, and stamps the result with the
//!   next epoch number. The offline constructor
//!   ([`ServingIndex::fold_with_web`]) is the same fold with an empty
//!   cache, which is what makes the final followed epoch byte-identical
//!   to an offline build over the same checkpoint.
//! * [`IndexPublisher`] — the executor-facing sink. It implements
//!   [`cc_crawler::SnapshotSink`]: crawl workers hand it deltas (the
//!   walks, failure counters and truth since the previous publish) and
//!   return to walking immediately; a dedicated indexer thread merges
//!   each delta, by move, into the one study it keeps
//!   ([`CrawlCheckpoint::absorb`]), **coalescing** every pending delta
//!   before it folds, and publishes the new epoch to an [`IndexHandle`].
//!
//! The indexer thread is the only place deltas are merged and index
//! builds happen, so a slow fold can never block either a crawl worker
//! or a server reader — the worst case is simply that an epoch indexes a
//! bigger batch.

use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;

use cc_crawler::{CrawlCheckpoint, SnapshotSink, StudyConfig};
use cc_util::CcError;
use cc_web::{generate, SimWeb};

use crate::handle::IndexHandle;
use crate::index::{FoldCache, ServingIndex};

/// Folds successive [`CrawlCheckpoint`] snapshots into numbered
/// [`ServingIndex`] epochs over one cached simulated web and per-walk
/// cache.
#[derive(Debug)]
pub struct IncrementalIndexBuilder {
    study: StudyConfig,
    web: SimWeb,
    epoch: u64,
    walks_indexed: usize,
    cache: FoldCache,
}

impl IncrementalIndexBuilder {
    /// A builder for crawls of `study`. Generates the simulated web once;
    /// every subsequent fold reuses it.
    pub fn new(study: &StudyConfig) -> IncrementalIndexBuilder {
        IncrementalIndexBuilder {
            study: study.clone(),
            web: generate(&study.web),
            epoch: 0,
            walks_indexed: 0,
            cache: FoldCache::default(),
        }
    }

    /// The epoch-0 "warming" snapshot: an index over zero walks, served
    /// while the crawl has not yet published its first batch. Structural
    /// routes (`/healthz`, `/catalog`, `/report` skeleton) answer
    /// immediately; `/progress` shows 0 of N walks indexed.
    pub fn warming(&self) -> Result<ServingIndex, CcError> {
        let empty = CrawlCheckpoint::new(&self.study, Default::default(), cc_web::TruthLog::new());
        ServingIndex::fold_with_web(&self.web, &empty, 0)
    }

    /// Fold one full snapshot of the study so far (the union of the
    /// deltas published so far, or a checkpoint read from disk). Returns
    /// `Ok(None)` for a snapshot that does not
    /// grow the indexed walk set (a coalesced duplicate or an out-of-date
    /// follower read) — epochs only ever advance with new walks, which
    /// keeps the `X-Cc-Epoch`/body pairing injective per crawl. Snapshots
    /// from a different study configuration are refused, which is what
    /// keeps the per-walk cache sound.
    pub fn fold(&mut self, ck: &CrawlCheckpoint) -> Result<Option<ServingIndex>, CcError> {
        ck.validate_against(&self.study)?;
        let walks = ck.partial.walks.len();
        if self.epoch > 0 && walks <= self.walks_indexed {
            return Ok(None);
        }
        self.epoch += 1;
        self.walks_indexed = walks;
        // A complete snapshot is the last one that can advance an epoch,
        // so its fold takes the cache's entries instead of copying them.
        let keep = walks < ck.total_walks;
        ServingIndex::fold(&self.web, ck, self.epoch, &mut self.cache, keep).map(Some)
    }

    /// Walks covered by the most recently folded snapshot.
    pub fn walks_indexed(&self) -> usize {
        self.walks_indexed
    }

    /// The epoch number of the most recently folded snapshot (0 until the
    /// first fold).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The executor-side publishing sink: queue-in on the crawl thread;
/// merge, fold and swap on a dedicated indexer thread.
///
/// Wire it into a run with
/// [`PublishPolicy`](cc_crawler::PublishPolicy) and an epoch-swappable
/// [`IndexHandle`] shared with a running server:
///
/// ```ignore
/// let handle = IndexHandle::new(builder.warming()?);
/// let publisher = Arc::new(IndexPublisher::start(builder, handle.clone()));
/// StudyRun::new(&web, &study)
///     .publish(PublishPolicy::new(25, publisher.clone()))
///     .run()?;
/// publisher.finish()?; // crawl done: drain, fold the final delta, join
/// ```
///
/// The indexer keeps the one study it folds and merges every delta into
/// it by move, so the crawl thread copies each walk once (into its
/// delta) and nothing here copies a walk at all.
pub struct IndexPublisher {
    tx: Mutex<Option<mpsc::Sender<CrawlCheckpoint>>>,
    indexer: Mutex<Option<JoinHandle<Result<(), CcError>>>>,
    handle: IndexHandle,
}

impl IndexPublisher {
    /// Spawn the indexer thread. Each queued delta is merged into the
    /// study so far (all pending deltas at once), which `builder` folds
    /// and publishes to `handle`.
    pub fn start(mut builder: IncrementalIndexBuilder, handle: IndexHandle) -> IndexPublisher {
        let (tx, rx) = mpsc::channel::<CrawlCheckpoint>();
        let publish_to = handle.clone();
        let indexer = std::thread::Builder::new()
            .name("cc-indexer".into())
            .spawn(move || -> Result<(), CcError> {
                let mut merged: Option<CrawlCheckpoint> = None;
                while let Ok(delta) = rx.recv() {
                    let study = match merged.as_mut() {
                        Some(study) => {
                            study.absorb(delta);
                            study
                        }
                        None => merged.insert(delta),
                    };
                    // Coalesce: merge every pending delta before folding,
                    // so a fold slower than the publish cadence falls
                    // behind by batching, never by queue growth.
                    while let Ok(newer) = rx.try_recv() {
                        study.absorb(newer);
                    }
                    if let Some(index) = builder.fold(study)? {
                        publish_to.publish(index);
                    }
                }
                Ok(())
            })
            .expect("spawning the indexer thread failed");
        IndexPublisher {
            tx: Mutex::new(Some(tx)),
            indexer: Mutex::new(Some(indexer)),
            handle,
        }
    }

    /// The handle epochs are published to.
    pub fn handle(&self) -> &IndexHandle {
        &self.handle
    }

    /// Finish publishing: close the queue, let the indexer drain it (the
    /// executor's final delta is always still in there), fold the last
    /// epoch, and join. Returns the first fold/validation error,
    /// if any. Idempotent; snapshots published after this are dropped.
    pub fn finish(&self) -> Result<(), CcError> {
        drop(self.tx.lock().expect("publisher sender poisoned").take());
        let joined = self.indexer.lock().expect("indexer slot poisoned").take();
        match joined {
            Some(t) => t.join().expect("indexer thread panicked"),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for IndexPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexPublisher").field("handle", &self.handle).finish()
    }
}

impl SnapshotSink for IndexPublisher {
    fn publish(&self, snapshot: CrawlCheckpoint) {
        // Called under the executor's accumulator lock: just enqueue the
        // delta; the indexer thread merges it. A
        // send after finish() means the sink outlived its crawl — drop.
        if let Some(tx) = self.tx.lock().expect("publisher sender poisoned").as_ref() {
            let _ = tx.send(snapshot);
        }
    }
}
