//! The gaggle manager: lease-based distribution of the walk-id space.
//!
//! The manager owns the study. It generates the world, partitions the
//! walk-id space into fixed-size **leases**, and streams them to however
//! many workers dial in, over the [`crate::wire`] codec. Each lease
//! carries a deadline renewed by heartbeats; a worker that dies mid-lease
//! (socket close or deadline expiry) has its leases re-issued — under a
//! **fresh lease id**, which is how a "zombie" result from a
//! presumed-dead worker that was merely slow is told apart from the live
//! re-issue and dropped instead of double-counted.
//!
//! Determinism is the point: every walk is a pure function of
//! `(StudyConfig, walk_id)`, shards merge through the same
//! [`CrawlDataset::merge`] a single-process run uses, and truth-ledger
//! merging is idempotent — so the assembled dataset, report, and final
//! checkpoint are byte-identical to a single-process run at any worker
//! count, any lease interleaving, and any kill/re-issue history.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cc_crawler::{
    CheckpointLog, CrawlCheckpoint, CrawlDataset, FailureStats, StudyConfig, WalkRecord,
};
use cc_telemetry::CounterId;
use cc_util::{CcError, ProgressCounters};
use cc_web::{generate, SimWeb, TruthLog};
use serde::Serialize;

use crate::wire::{read_frame, write_frame, Frame, FrameError, PROTOCOL};

/// How the manager listens and leases.
#[derive(Debug, Clone)]
pub struct GaggleConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// How many workers the operator plans to run — sizes progress-counter
    /// slots and log summaries; late or extra workers still work.
    pub workers_expected: usize,
    /// Walk ids per lease. Smaller leases re-balance and recover faster;
    /// larger ones amortize frame overhead.
    pub lease_walks: usize,
    /// Lease deadline in milliseconds; each heartbeat pushes it out again.
    pub lease_timeout_ms: u64,
}

impl Default for GaggleConfig {
    fn default() -> Self {
        GaggleConfig {
            bind: "127.0.0.1:0".into(),
            workers_expected: 1,
            lease_walks: 25,
            lease_timeout_ms: 3_000,
        }
    }
}

/// Optional run context for [`Manager::start`].
#[derive(Default)]
pub struct ManagerOptions {
    /// Resume from a checkpoint: its walks are kept, the truth ledger
    /// restored, and only the remaining walk ids are leased out.
    pub resume: Option<CrawlCheckpoint>,
    /// Caller-owned progress counters (the cc-obs `/progress` hook).
    /// Worker `w`'s walks land in slot `w % n_workers`.
    pub progress: Option<Arc<ProgressCounters>>,
}

/// Counters describing one manager run (mirrored into the telemetry
/// session's `gaggle.*` counters, summarized by the CLI, and asserted
/// on by the equivalence tests).
#[derive(Debug, Clone, Default, Serialize)]
pub struct GaggleStats {
    /// Workers that completed the Hello/Welcome handshake.
    pub workers_connected: u64,
    /// Workers whose connection ended (Goodbye or death).
    pub workers_disconnected: u64,
    /// Leases issued, including re-issues.
    pub leases_issued: u64,
    /// Leases whose ShardResult was accepted.
    pub leases_completed: u64,
    /// Leases expired by a missed deadline.
    pub leases_expired: u64,
    /// Leases re-issued after expiry or worker death.
    pub leases_reissued: u64,
    /// ShardResults dropped because their lease was no longer live
    /// (the zombie-worker double-count guard).
    pub results_dropped_stale: u64,
    /// Frames written to workers.
    pub frames_sent: u64,
    /// Frames read from workers.
    pub frames_received: u64,
    /// Bytes written to workers (frame overhead measurement).
    pub bytes_sent: u64,
    /// Bytes read from workers.
    pub bytes_received: u64,
}

/// What a finished manager hands back.
pub struct ManagerOutcome {
    /// The manager's world, truth ledger fully converged.
    pub web: Arc<SimWeb>,
    /// The assembled dataset — byte-identical to a single-process run.
    pub dataset: CrawlDataset,
    /// Run counters.
    pub stats: GaggleStats,
}

/// One lease waiting to be issued (or re-issued).
struct PendingLease {
    ids: Vec<u32>,
    reissue: bool,
}

/// One lease currently held by a worker.
struct OutstandingLease {
    ids: Vec<u32>,
    worker: u32,
    deadline: Instant,
}

/// Everything the handler threads share, guarded by one mutex + condvar.
struct LeaseState {
    pending: VecDeque<PendingLease>,
    outstanding: BTreeMap<u64, OutstandingLease>,
    next_lease_id: u64,
    done: bool,
    base: CrawlDataset,
    shards: Vec<CrawlDataset>,
    walks_done: usize,
    last_saved_bucket: usize,
    /// The checkpoint log, when the study checkpoints.
    log: Option<CheckpointLog>,
    /// How many of `shards` the log holds.
    saved_shards: usize,
    stats: GaggleStats,
    error: Option<CcError>,
}

impl LeaseState {
    /// Append the accepted shards the log lacks.
    fn save(&mut self, truth: &TruthLog) -> Result<(), CcError> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        let (walks, failures) = walks_of(&self.shards[self.saved_shards..]);
        log.append(&self.base, walks, failures, truth)?;
        self.saved_shards = self.shards.len();
        Ok(())
    }
}

/// The walks of `shards` and their summed failure counters.
fn walks_of(shards: &[CrawlDataset]) -> (impl Iterator<Item = &WalkRecord>, FailureStats) {
    let mut failures = FailureStats::default();
    for shard in shards {
        failures.absorb(shard.failures);
    }
    (shards.iter().flat_map(|s| &s.walks), failures)
}

struct Shared {
    study: StudyConfig,
    web: Arc<SimWeb>,
    cfg: GaggleConfig,
    progress: Option<Arc<ProgressCounters>>,
    state: Mutex<LeaseState>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, LeaseState> {
        self.state.lock().expect("gaggle lease state poisoned")
    }

    fn done(&self) -> bool {
        self.lock().done
    }

    /// Write one frame and account for it.
    fn send(&self, w: &mut TcpStream, frame: &Frame) -> Result<(), FrameError> {
        let n = write_frame(w, frame)?;
        let mut st = self.lock();
        st.stats.frames_sent += 1;
        st.stats.bytes_sent += n as u64;
        drop(st);
        cc_telemetry::counter_id(CounterId::GAGGLE_FRAMES_SENT, 1);
        cc_telemetry::counter_id(CounterId::GAGGLE_BYTES_SENT, n as u64);
        Ok(())
    }

    /// Read one frame and account for it (timeouts pass through
    /// unaccounted — nothing crossed the wire).
    fn recv(&self, r: &mut TcpStream) -> Result<Frame, FrameError> {
        let (frame, n) = read_frame(r)?;
        let mut st = self.lock();
        st.stats.frames_received += 1;
        st.stats.bytes_received += n as u64;
        drop(st);
        cc_telemetry::counter_id(CounterId::GAGGLE_FRAMES_RECEIVED, 1);
        cc_telemetry::counter_id(CounterId::GAGGLE_BYTES_RECEIVED, n as u64);
        Ok(frame)
    }

    /// Move every outstanding lease past its deadline back to pending.
    /// Any handler may sweep; the condvar wakes the rest.
    fn sweep_expired(&self, st: &mut LeaseState) {
        let now = Instant::now();
        let expired: Vec<u64> = st
            .outstanding
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let lease = st.outstanding.remove(&id).expect("expired lease vanished");
            st.stats.leases_expired += 1;
            cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_EXPIRED, 1);
            cc_telemetry::event(
                "gaggle.lease.expired",
                &[("worker", &lease.worker.to_string())],
            );
            st.pending.push_back(PendingLease {
                ids: lease.ids,
                reissue: true,
            });
        }
        if !st.pending.is_empty() {
            self.cv.notify_all();
        }
    }

    /// Requeue every lease held by `worker` (its connection died).
    fn requeue_worker(&self, worker: u32) {
        let mut st = self.lock();
        let held: Vec<u64> = st
            .outstanding
            .iter()
            .filter(|(_, l)| l.worker == worker)
            .map(|(&id, _)| id)
            .collect();
        for id in held {
            let lease = st.outstanding.remove(&id).expect("held lease vanished");
            st.pending.push_back(PendingLease {
                ids: lease.ids,
                reissue: true,
            });
        }
        st.stats.workers_disconnected += 1;
        cc_telemetry::counter_id(CounterId::GAGGLE_WORKERS_DISCONNECTED, 1);
        self.cv.notify_all();
    }

    /// Block until a lease is issuable (returns its id + ids) or the run
    /// completes (returns `None`). Sweeps expired deadlines while waiting.
    fn next_lease(&self, worker: u32) -> Option<(u64, Vec<u32>)> {
        let mut st = self.lock();
        loop {
            if st.done {
                return None;
            }
            self.sweep_expired(&mut st);
            if let Some(p) = st.pending.pop_front() {
                let lease_id = st.next_lease_id;
                st.next_lease_id += 1;
                st.outstanding.insert(
                    lease_id,
                    OutstandingLease {
                        ids: p.ids.clone(),
                        worker,
                        deadline: Instant::now() + Duration::from_millis(self.cfg.lease_timeout_ms),
                    },
                );
                st.stats.leases_issued += 1;
                cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_ISSUED, 1);
                if p.reissue {
                    st.stats.leases_reissued += 1;
                    cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_REISSUED, 1);
                }
                return Some((lease_id, p.ids));
            }
            if st.outstanding.is_empty() {
                // Nothing pending, nothing outstanding: the run is done.
                st.done = true;
                self.cv.notify_all();
                return None;
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(st, Duration::from_millis(100))
                .expect("gaggle lease state poisoned");
            st = guard;
        }
    }

    /// Renew `lease_id`'s deadline if it is still this worker's.
    fn heartbeat(&self, worker: u32, lease_id: u64) {
        let mut st = self.lock();
        if let Some(l) = st.outstanding.get_mut(&lease_id) {
            if l.worker == worker {
                l.deadline = Instant::now() + Duration::from_millis(self.cfg.lease_timeout_ms);
            }
        }
    }

    /// Accept (or drop) a ShardResult. Returns `true` if accepted.
    fn accept_result(
        &self,
        worker: u32,
        lease_id: u64,
        shard: CrawlDataset,
        truth: &cc_web::TruthLog,
    ) -> bool {
        let mut st = self.lock();
        let live = st
            .outstanding
            .get(&lease_id)
            .is_some_and(|l| l.worker == worker);
        if !live {
            // A zombie: this issuance was expired and re-issued (or never
            // existed). Accepting it would double-count the walks.
            st.stats.results_dropped_stale += 1;
            cc_telemetry::counter_id(CounterId::GAGGLE_RESULTS_DROPPED_STALE, 1);
            return false;
        }
        st.outstanding.remove(&lease_id);
        st.stats.leases_completed += 1;
        cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_COMPLETED, 1);

        // Idempotent converge: identical mints collapse, so absorbing
        // every worker's full snapshot yields the single-process ledger.
        self.web.absorb_truth(truth);
        if let Some(p) = &self.progress {
            let slot = worker as usize % p.n_workers().max(1);
            for walk in &shard.walks {
                p.record_walk(slot, walk.steps.len() as u64);
            }
        }
        st.walks_done += shard.walks.len();
        st.shards.push(shard);

        // Periodic checkpoint on the same config knob a single-process
        // run uses, appending the shards accepted since the last save.
        // Cadence is per accepted lease (not per walk), so intermediate
        // files differ run-to-run — only the final artifacts are
        // byte-pinned, and the final checkpoint is written at join.
        if let Some(policy) = &self.study.checkpoint {
            let total = st.base.walks.len() + st.walks_done;
            let bucket = total / policy.every.max(1);
            if bucket > st.last_saved_bucket {
                st.last_saved_bucket = bucket;
                if let Err(e) = st.save(&self.web.truth_snapshot()) {
                    st.error.get_or_insert(e);
                }
            }
        }

        if st.pending.is_empty() && st.outstanding.is_empty() {
            st.done = true;
        }
        self.cv.notify_all();
        true
    }
}

/// A running manager. [`Manager::join`] blocks until every walk id has an
/// accepted result, then assembles the final dataset.
pub struct Manager {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<Result<ManagerOutcome, CcError>>,
}

impl Manager {
    /// Bind, partition the walk-id space, and start accepting workers.
    pub fn start(
        study: &StudyConfig,
        cfg: GaggleConfig,
        opts: ManagerOptions,
    ) -> Result<Manager, CcError> {
        study.validate()?;
        let web = Arc::new(generate(&study.web));
        let seeders_len = web.seeder_urls().len();
        let total = study.total_walks().min(seeders_len);

        let (base, mut ids) = match opts.resume {
            Some(ck) => {
                ck.validate_against(study)?;
                web.absorb_truth(&ck.truth);
                let remaining = ck.remaining();
                cc_telemetry::counter("crawl.resume.walks_restored", ck.partial.walks.len() as u64);
                cc_telemetry::counter("crawl.resume.walks_remaining", remaining.len() as u64);
                (ck.partial, remaining)
            }
            None => (CrawlDataset::default(), (0..total as u32).collect()),
        };
        ids.retain(|&id| (id as usize) < seeders_len);

        let lease_walks = cfg.lease_walks.max(1);
        let pending: VecDeque<PendingLease> = ids
            .chunks(lease_walks)
            .map(|c| PendingLease {
                ids: c.to_vec(),
                reissue: false,
            })
            .collect();
        let every = study.checkpoint.as_ref().map_or(1, |p| p.every.max(1));
        let state = LeaseState {
            done: pending.is_empty(),
            pending,
            outstanding: BTreeMap::new(),
            next_lease_id: 1,
            last_saved_bucket: base.walks.len() / every,
            log: study
                .checkpoint
                .as_ref()
                .map(|p| CheckpointLog::new(study, &p.path)),
            saved_shards: 0,
            base,
            shards: Vec::new(),
            walks_done: 0,
            stats: GaggleStats::default(),
            error: None,
        };

        let listener =
            TcpListener::bind(&cfg.bind).map_err(|e| CcError::io(&cfg.bind, e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CcError::io(&cfg.bind, e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| CcError::io(&cfg.bind, e))?;

        // The crawl begins once the world is generated and the port bound.
        if let Some(p) = &opts.progress {
            p.start_clock();
        }
        let shared = Arc::new(Shared {
            study: study.clone(),
            web,
            cfg,
            progress: opts.progress,
            state: Mutex::new(state),
            cv: Condvar::new(),
        });
        let thread = std::thread::spawn(move || run_manager(listener, shared));
        Ok(Manager { addr, thread })
    }

    /// The address workers should `--connect` to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for completion and assemble the final dataset.
    pub fn join(self) -> Result<ManagerOutcome, CcError> {
        self.thread.join().expect("gaggle manager thread panicked")
    }
}

fn run_manager(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> Result<ManagerOutcome, CcError> {
    let mut handlers = Vec::new();
    let mut next_worker_id = 0u32;
    while !shared.done() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let worker_id = next_worker_id;
                next_worker_id += 1;
                let sh = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || handle_worker(sh, stream, worker_id)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                let mut st = shared.lock();
                st.error.get_or_insert(CcError::io("gaggle accept", e));
                st.done = true;
                shared.cv.notify_all();
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }

    let mut st = shared.lock();
    if let Some(e) = st.error.take() {
        return Err(e);
    }
    if let Some(log) = st.log.take() {
        // Final emission, same as a single-process run: the file on disk
        // always ends holding the complete study, in canonical form.
        let (walks, failures) = walks_of(&st.shards[st.saved_shards..]);
        log.finish(&st.base, walks, failures, &shared.web.truth_snapshot())?;
    }
    let base = std::mem::take(&mut st.base);
    let shards = std::mem::take(&mut st.shards);
    let stats = st.stats.clone();
    drop(st);
    if let Some(p) = &shared.progress {
        p.stop_clock();
    }

    let dataset = CrawlDataset::merge(std::iter::once(base).chain(shards));
    Ok(ManagerOutcome {
        web: Arc::clone(&shared.web),
        dataset,
        stats,
    })
}

/// How long a handler's socket reads block before it re-checks shutdown
/// flags and lease deadlines.
const READ_POLL: Duration = Duration::from_millis(250);

/// Most `READ_POLL` timeouts tolerated while draining a goodbye.
const DRAIN_PATIENCE: u32 = 40;

/// Run complete: say goodbye, then drain the worker's parting
/// Telemetry/Goodbye so its counters land in the manager's report.
fn say_goodbye(shared: &Shared, stream: &mut TcpStream) {
    let _ = shared.send(
        stream,
        &Frame::Goodbye {
            reason: "complete".into(),
        },
    );
    let mut patience = DRAIN_PATIENCE;
    loop {
        match shared.recv(stream) {
            Ok(Frame::Telemetry { counters }) => {
                for (name, n) in &counters {
                    cc_telemetry::counter(name, *n);
                }
            }
            Ok(Frame::Goodbye { .. }) | Err(FrameError::Closed) => break,
            Ok(_) => {}
            Err(FrameError::TimedOut) if patience > 0 => patience -= 1,
            Err(_) => break,
        }
    }
    let mut st = shared.lock();
    st.stats.workers_disconnected += 1;
    drop(st);
    cc_telemetry::counter_id(CounterId::GAGGLE_WORKERS_DISCONNECTED, 1);
}

fn handle_worker(shared: Arc<Shared>, mut stream: TcpStream, worker_id: u32) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));

    // Handshake: Hello (with the exact protocol string) before anything.
    let hello = loop {
        match shared.recv(&mut stream) {
            Ok(f) => break f,
            Err(FrameError::TimedOut) => {
                if shared.done() {
                    return;
                }
            }
            Err(_) => return,
        }
    };
    match hello {
        Frame::Hello { protocol, label } if protocol == PROTOCOL => {
            cc_telemetry::event(
                "gaggle.worker.connected",
                &[("worker", &worker_id.to_string()), ("label", &label)],
            );
        }
        Frame::Hello { protocol, .. } => {
            let _ = shared.send(
                &mut stream,
                &Frame::Goodbye {
                    reason: format!("protocol mismatch: {protocol} (want {PROTOCOL})"),
                },
            );
            return;
        }
        other => {
            let _ = shared.send(
                &mut stream,
                &Frame::Goodbye {
                    reason: format!("expected Hello, got {}", other.name()),
                },
            );
            return;
        }
    }
    {
        let mut st = shared.lock();
        st.stats.workers_connected += 1;
    }
    cc_telemetry::counter_id(CounterId::GAGGLE_WORKERS_CONNECTED, 1);
    if shared
        .send(
            &mut stream,
            &Frame::Welcome {
                worker_id,
                study: shared.study.clone(),
            },
        )
        .is_err()
    {
        shared.requeue_worker(worker_id);
        return;
    }

    loop {
        let Some((lease_id, walk_ids)) = shared.next_lease(worker_id) else {
            say_goodbye(&shared, &mut stream);
            return;
        };

        if shared
            .send(
                &mut stream,
                &Frame::Lease {
                    lease_id,
                    walk_ids,
                    deadline_ms: shared.cfg.lease_timeout_ms,
                },
            )
            .is_err()
        {
            shared.requeue_worker(worker_id);
            return;
        }

        // Wait for this lease's result (heartbeats renew it meanwhile).
        loop {
            match shared.recv(&mut stream) {
                Ok(Frame::Heartbeat { lease_id, .. }) => {
                    shared.heartbeat(worker_id, lease_id);
                }
                Ok(Frame::ShardResult {
                    lease_id,
                    shard,
                    truth,
                }) => {
                    shared.accept_result(worker_id, lease_id, shard, &truth);
                    break; // accepted or zombie-dropped: fetch the next lease
                }
                Ok(Frame::Telemetry { counters }) => {
                    for (name, n) in &counters {
                        cc_telemetry::counter(name, *n);
                    }
                }
                Ok(Frame::Goodbye { .. }) | Err(FrameError::Closed) => {
                    shared.requeue_worker(worker_id);
                    return;
                }
                Ok(_) => {} // Hello twice etc.: ignore
                Err(FrameError::TimedOut) => {
                    let mut st = shared.lock();
                    if st.done {
                        drop(st);
                        say_goodbye(&shared, &mut stream);
                        return;
                    }
                    shared.sweep_expired(&mut st);
                    if !st.outstanding.contains_key(&lease_id) {
                        // Our lease expired under us (swept here or by a
                        // peer handler): stop waiting, ask for new work.
                        drop(st);
                        break;
                    }
                }
                Err(_) => {
                    shared.requeue_worker(worker_id);
                    return;
                }
            }
        }
    }
}
