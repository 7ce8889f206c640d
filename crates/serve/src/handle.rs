//! The epoch-swappable index handle and the source abstraction behind
//! [`Server::start`](crate::server::Server::start).
//!
//! ## Why a handle
//!
//! PR 5's server consumed a [`ServingIndex`] by value: the index was
//! fixed for the server's lifetime, so "serve a crawl as it runs" was
//! impossible without restarting. [`IndexHandle`] decouples the two: the
//! router reads *the current snapshot* through the handle, and a
//! publisher (the in-process [`IndexPublisher`](crate::publish::IndexPublisher)
//! or the checkpoint follower behind [`IndexSource::Follow`]) swaps in a
//! fresh immutable snapshot whenever a batch of walks lands.
//!
//! ## The swap
//!
//! The workspace forbids `unsafe` and vendors no atomics beyond `std`,
//! so there is no `AtomicArc`. Instead the handle keeps **two slots**,
//! each a `Mutex<Arc<ServingIndex>>`, plus an atomic *active-slot*
//! marker. Readers load the marker and clone the `Arc` out of the active
//! slot; a publisher writes the **inactive** slot first and then flips
//! the marker. The writer therefore never holds the lock a reader is
//! waiting on — the only contention a reader can ever see is another
//! reader's nanoseconds-long `Arc::clone`, never an index build, and
//! never a disk read. Swaps are serialized by a publisher lock so two
//! followers cannot flip concurrently.
//!
//! Epochs are monotone: [`IndexHandle::publish`] refuses to move the
//! epoch backwards, which keeps the `X-Cc-Epoch` / `Last-Modified` pair
//! monotone for every client even across a kill/resume of the crawl
//! being followed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cc_telemetry::Collector;

use crate::index::ServingIndex;

/// A shared, epoch-swappable reference to the current [`ServingIndex`]
/// snapshot. Cloning the handle is cheap (it is an `Arc` internally);
/// every clone observes the same epochs.
#[derive(Clone)]
pub struct IndexHandle {
    inner: Arc<HandleInner>,
}

struct HandleInner {
    slots: [Mutex<Arc<ServingIndex>>; 2],
    /// Which slot readers should clone from (0 or 1).
    active: AtomicUsize,
    /// The current epoch number.
    epoch: AtomicU64,
    /// Completed swaps (publishes accepted after construction).
    swaps: AtomicU64,
    /// Serializes publishers; never touched by readers.
    publish_lock: Mutex<()>,
    /// Where epoch metrics go once a server attaches (keeps the RED
    /// metrics truthful under `--follow`).
    collector: Mutex<Option<Arc<Collector>>>,
}

impl IndexHandle {
    /// Wrap an initial snapshot (its epoch becomes the handle's).
    pub fn new(initial: ServingIndex) -> IndexHandle {
        let epoch = initial.epoch();
        let initial = Arc::new(initial);
        IndexHandle {
            inner: Arc::new(HandleInner {
                slots: [
                    Mutex::new(Arc::clone(&initial)),
                    Mutex::new(initial),
                ],
                active: AtomicUsize::new(0),
                epoch: AtomicU64::new(epoch),
                swaps: AtomicU64::new(0),
                publish_lock: Mutex::new(()),
                collector: Mutex::new(None),
            }),
        }
    }

    /// The current snapshot. Wait-free with respect to publishers: the
    /// writer only ever locks the *inactive* slot, so this lock is
    /// contended only by other readers cloning an `Arc`.
    pub fn current(&self) -> Arc<ServingIndex> {
        let slot = self.inner.active.load(Ordering::Acquire);
        Arc::clone(&self.inner.slots[slot].lock().expect("index slot poisoned"))
    }

    /// Swap in a new snapshot. Returns the epoch now being served.
    /// Publishes whose epoch does not advance the handle's are dropped
    /// (epochs are monotone; a stale follower can never roll clients
    /// back).
    pub fn publish(&self, index: ServingIndex) -> u64 {
        let _serialize = self.inner.publish_lock.lock().expect("publish lock poisoned");
        let current = self.inner.epoch.load(Ordering::Acquire);
        let epoch = index.epoch();
        if epoch <= current && self.inner.swaps.load(Ordering::Acquire) > 0 {
            return current;
        }
        let inactive = 1 - self.inner.active.load(Ordering::Acquire);
        *self.inner.slots[inactive].lock().expect("index slot poisoned") = Arc::new(index);
        self.inner.active.store(inactive, Ordering::Release);
        self.inner.epoch.store(epoch, Ordering::Release);
        self.inner.swaps.fetch_add(1, Ordering::AcqRel);
        if let Some(c) = self.inner.collector.lock().expect("collector slot poisoned").as_ref() {
            c.add_counter_id(cc_telemetry::CounterId::SERVE_EPOCH_SWAPS, 1);
            c.set_gauge_id(cc_telemetry::GaugeId::SERVE_EPOCH_CURRENT, epoch as f64);
        }
        epoch
    }

    /// The epoch currently being served.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Completed swaps since the handle was created (0 for a static
    /// index).
    pub fn swaps(&self) -> u64 {
        self.inner.swaps.load(Ordering::Acquire)
    }

    /// Route epoch metrics (`serve.epoch.swaps` counter, current-epoch
    /// gauge) into `collector` from now on, and seed the gauge with the
    /// current epoch.
    pub fn attach_collector(&self, collector: Arc<Collector>) {
        collector.set_gauge_id(cc_telemetry::GaugeId::SERVE_EPOCH_CURRENT, self.epoch() as f64);
        *self.inner.collector.lock().expect("collector slot poisoned") = Some(collector);
    }
}

impl std::fmt::Debug for IndexHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexHandle")
            .field("epoch", &self.epoch())
            .field("swaps", &self.swaps())
            .finish()
    }
}

/// How a checkpoint file is followed while a crawl (possibly another
/// process) keeps extending it.
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// The checkpoint file to follow.
    pub path: PathBuf,
    /// Poll interval for change detection, in milliseconds.
    pub poll_ms: u64,
    /// How long to wait for the checkpoint file to first appear before
    /// startup fails, in milliseconds (the crawl may not have written
    /// its first batch yet).
    pub wait_ms: u64,
}

impl FollowConfig {
    /// Follow `path` with default polling (150 ms) and startup wait
    /// (30 s).
    pub fn new(path: impl AsRef<Path>) -> FollowConfig {
        FollowConfig {
            path: path.as_ref().to_path_buf(),
            poll_ms: 150,
            wait_ms: 30_000,
        }
    }
}

/// Where a server's index comes from. Offline serving is the one-epoch
/// special case ([`IndexSource::Static`]); a followed crawl keeps
/// publishing fresh epochs for as long as it runs.
pub enum IndexSource {
    /// A fixed snapshot: exactly one epoch, ever.
    Static(ServingIndex),
    /// Follow a checkpoint file on disk: the server folds each grown
    /// checkpoint into a new epoch until the crawl completes.
    Follow(FollowConfig),
    /// Serve whatever an externally-owned handle currently holds (the
    /// in-process `cc crawl --serve-addr` path: the crawl's
    /// [`IndexPublisher`](crate::publish::IndexPublisher) drives the
    /// epochs, the server just reads).
    Handle(IndexHandle),
}

impl IndexSource {
    /// Follow `path` with default polling.
    pub fn follow(path: impl AsRef<Path>) -> IndexSource {
        IndexSource::Follow(FollowConfig::new(path))
    }
}

impl From<ServingIndex> for IndexSource {
    fn from(index: ServingIndex) -> IndexSource {
        IndexSource::Static(index)
    }
}

impl From<IndexHandle> for IndexSource {
    fn from(handle: IndexHandle) -> IndexSource {
        IndexSource::Handle(handle)
    }
}

impl From<FollowConfig> for IndexSource {
    fn from(cfg: FollowConfig) -> IndexSource {
        IndexSource::Follow(cfg)
    }
}

impl std::fmt::Debug for IndexSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexSource::Static(i) => f.debug_tuple("Static").field(&i.epoch()).finish(),
            IndexSource::Follow(c) => f.debug_tuple("Follow").field(&c.path).finish(),
            IndexSource::Handle(h) => f.debug_tuple("Handle").field(h).finish(),
        }
    }
}
