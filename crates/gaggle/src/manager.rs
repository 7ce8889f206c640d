//! The gaggle manager: lease-based distribution of the walk-id space.
//!
//! The manager owns the study. It generates the world, partitions the
//! walk-id space into fixed-size **leases**, and streams them to however
//! many workers dial in, over the [`crate::wire`] codec. Each worker is
//! served by one handler thread, which holds at most one lease at a time
//! and is that lease's only bookkeeper: the lease's id, walk ids and
//! deadline are the handler's locals, and each of its socket reads blocks
//! until the deadline at most, which each heartbeat for the lease pushes
//! out by one lease timeout. A
//! lease whose deadline passes, or whose holder's connection ends, goes
//! back to the queue and is re-issued under a **fresh lease id**. A late
//! ("zombie") result from a worker that was merely slow carries the old
//! id, so its handler drops it and keeps waiting for the lease it holds
//! instead of double-counting the walks.
//!
//! Every timeout derives from [`GaggleConfig::lease_timeout_ms`]: the
//! lease deadline, the `Hello` deadline of a connecting peer, the write
//! timeout on each worker socket and the goodbye drain. The handlers
//! share only the queue of leases waiting to go out, a count of those
//! out and the run's counters; a handler waiting for work sleeps on a
//! condvar that every give-back and every completion notifies.
//!
//! Determinism is the point: every walk is a pure function of
//! `(StudyConfig, walk_id)`, and the manager has no sink of its own. It
//! plans its run with [`resume_plan`] and records each accepted lease as
//! one batch into the same [`WalkSinks`] accumulator a single-process run
//! uses, which checkpoints on the study's cadence and assembles the
//! dataset, the truth ledger and the final checkpoint — so they are
//! byte-identical to a single-process run at any worker count, any lease
//! interleaving, and any kill/re-issue history.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cc_crawler::{resume_plan, CrawlCheckpoint, CrawlDataset, StudyConfig, WalkBatch, WalkSinks};
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
    /// The manager's every other timeout is this one too: a connecting
    /// peer's `Hello`, each write to a worker and the goodbye drain.
    /// Must be at least 1.
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
    /// Caller-owned progress counters (the observer's `/progress` hook).
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
    /// ShardResults dropped because their lease was not the one their
    /// worker held: a zombie's late result for a lease given back and
    /// re-issued (the double-count guard).
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

/// What the handler threads share, guarded by one mutex + condvar. A
/// lease that is out is known, with its deadline, only to the handler
/// whose worker holds it.
struct LeaseState {
    pending: VecDeque<PendingLease>,
    /// Leases issued and not yet completed or given back.
    live: usize,
    next_lease_id: u64,
    done: bool,
    stats: GaggleStats,
    error: Option<CcError>,
}

/// Everything the run shares with its handler threads.
struct Shared {
    /// The listener's address, which the run's last handler connects to
    /// so the accept loop wakes and sees the run done.
    addr: SocketAddr,
    study: StudyConfig,
    web: Arc<SimWeb>,
    cfg: GaggleConfig,
    progress: Option<Arc<ProgressCounters>>,
    state: Mutex<LeaseState>,
    cv: Condvar,
    /// The study's accumulator: one batch per accepted lease.
    sinks: WalkSinks,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, LeaseState> {
        self.state.lock().expect("gaggle lease state poisoned")
    }

    fn done(&self) -> bool {
        self.lock().done
    }

    fn lease_timeout(&self) -> Duration {
        Duration::from_millis(self.cfg.lease_timeout_ms)
    }

    /// Every lease is in: mark the run done, wake the handlers waiting
    /// for a lease and, once `st` is released, the accept loop.
    fn complete(&self, mut st: std::sync::MutexGuard<'_, LeaseState>) {
        st.done = true;
        self.cv.notify_all();
        drop(st);
        if cc_util::wake::wake_accept(self.addr).is_err() {
            // The accept loop then leaves at the next connection.
            cc_telemetry::event("gaggle.wake_failed", &[]);
        }
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

    /// Read one frame, blocking no later than `deadline`, and account for
    /// it. [`FrameError::TimedOut`] means the deadline passed before a
    /// frame began (nothing crossed the wire, nothing is counted), and
    /// [`FrameError::Truncated`] that it passed, or the peer went away,
    /// after one began.
    fn recv(&self, stream: &TcpStream, deadline: Instant) -> Result<Frame, FrameError> {
        let (frame, n) = read_frame(&mut Until { stream, deadline })?;
        let mut st = self.lock();
        st.stats.frames_received += 1;
        st.stats.bytes_received += n as u64;
        drop(st);
        cc_telemetry::counter_id(CounterId::GAGGLE_FRAMES_RECEIVED, 1);
        cc_telemetry::counter_id(CounterId::GAGGLE_BYTES_RECEIVED, n as u64);
        Ok(frame)
    }

    /// Queue a held lease's ids for re-issue under a fresh lease id.
    fn give_back(&self, st: &mut LeaseState, ids: Vec<u32>) {
        st.live -= 1;
        st.pending.push_back(PendingLease { ids, reissue: true });
        self.cv.notify_all();
    }

    /// The held lease's deadline passed: give it back as expired.
    fn expire(&self, worker: u32, ids: Vec<u32>) {
        let mut st = self.lock();
        st.stats.leases_expired += 1;
        cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_EXPIRED, 1);
        cc_telemetry::event("gaggle.lease.expired", &[("worker", &worker.to_string())]);
        self.give_back(&mut st, ids);
    }

    /// A worker's connection ended (Goodbye, death or a broken frame):
    /// give back the lease it held, if any.
    fn disconnect(&self, held: Option<Vec<u32>>) {
        let mut st = self.lock();
        if let Some(ids) = held {
            self.give_back(&mut st, ids);
        }
        st.stats.workers_disconnected += 1;
        drop(st);
        cc_telemetry::counter_id(CounterId::GAGGLE_WORKERS_DISCONNECTED, 1);
    }

    /// Block until a lease is issuable (returns its id + ids) or the run
    /// completes (returns `None`). Every give-back and every completion
    /// notifies, so the wait needs no timer.
    fn next_lease(&self) -> Option<(u64, Vec<u32>)> {
        let mut st = self.lock();
        loop {
            if st.done {
                return None;
            }
            if let Some(p) = st.pending.pop_front() {
                let lease_id = st.next_lease_id;
                st.next_lease_id += 1;
                st.live += 1;
                st.stats.leases_issued += 1;
                cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_ISSUED, 1);
                if p.reissue {
                    st.stats.leases_reissued += 1;
                    cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_REISSUED, 1);
                }
                return Some((lease_id, p.ids));
            }
            if st.live == 0 {
                // Nothing pending, nothing out: the run is done.
                self.complete(st);
                return None;
            }
            st = self.cv.wait(st).expect("gaggle lease state poisoned");
        }
    }

    /// A ShardResult for a lease its worker no longer holds: that lease
    /// was given back and re-issued (or never existed), so accepting it
    /// would double-count the walks.
    fn drop_stale(&self) {
        self.lock().stats.results_dropped_stale += 1;
        cc_telemetry::counter_id(CounterId::GAGGLE_RESULTS_DROPPED_STALE, 1);
    }

    /// Accept the held lease's ShardResult into the study's accumulator.
    fn accept_result(&self, worker: u32, shard: CrawlDataset, truth: &TruthLog) {
        let mut st = self.lock();
        st.live -= 1;
        st.stats.leases_completed += 1;
        cc_telemetry::counter_id(CounterId::GAGGLE_LEASES_COMPLETED, 1);
        if let Some(p) = &self.progress {
            let slot = worker as usize % p.n_workers().max(1);
            for walk in &shard.walks {
                p.record_walk(slot, walk.steps.len() as u64);
            }
        }
        if st.pending.is_empty() && st.live == 0 {
            self.complete(st);
        } else {
            self.cv.notify_all();
            drop(st);
        }

        // The lease is one batch of the study, checkpointed on the same
        // cadence as a single-process run's walks (intermediate commits
        // follow lease completion order, so only the final artifacts are
        // byte-pinned). Its truth is a copy: kept, the decoded frame's
        // strings raised the peak RSS of a 250-walk, two-worker gaggle.
        self.sinks.record(WalkBatch {
            walks: shard.walks,
            failures: shard.failures,
            truth: truth.clone(),
        });
    }
}

/// A worker's socket read up to a deadline: each read blocks no later
/// than the deadline, and fails with `TimedOut` once it has passed.
struct Until<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Until<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            // A spent deadline never reaches the socket: std refuses a
            // zero read timeout.
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
            match (&mut &*self.stream).read(buf) {
                // The socket's clock woke before the deadline: wait on.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                read => return read,
            }
        }
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
        if cfg.lease_timeout_ms == 0 {
            return Err(CcError::Config(
                "lease_timeout_ms must be at least 1".into(),
            ));
        }
        let web = Arc::new(generate(&study.web));
        let (base, ids) = resume_plan(study, web.seeder_urls().len(), opts.resume)?;
        let sinks = WalkSinks::new(base, ids.len(), None);

        let pending: VecDeque<PendingLease> = ids
            .chunks(cfg.lease_walks.max(1))
            .map(|c| PendingLease {
                ids: c.to_vec(),
                reissue: false,
            })
            .collect();
        let state = LeaseState {
            done: pending.is_empty(),
            pending,
            live: 0,
            next_lease_id: 1,
            stats: GaggleStats::default(),
            error: None,
        };

        let listener =
            TcpListener::bind(&cfg.bind).map_err(|e| CcError::io(&cfg.bind, e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CcError::io(&cfg.bind, e))?;

        // The crawl begins once the world is generated and the port bound.
        if let Some(p) = &opts.progress {
            p.start_clock();
        }
        let shared = Shared {
            addr,
            study: study.clone(),
            web,
            cfg,
            progress: opts.progress,
            state: Mutex::new(state),
            cv: Condvar::new(),
            sinks,
        };
        let thread = std::thread::spawn(move || run_manager(listener, shared));
        Ok(Manager { addr, thread })
    }

    /// The address workers should `--connect` to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for completion and assemble the final dataset. Every handler
    /// thread is joined first, including those of peers still connecting
    /// as the run ends, so a peer that connects then can delay this by
    /// one lease timeout (its `Hello` deadline or the goodbye drain).
    pub fn join(self) -> Result<ManagerOutcome, CcError> {
        self.thread.join().expect("gaggle manager thread panicked")
    }
}

fn run_manager(listener: TcpListener, shared: Shared) -> Result<ManagerOutcome, CcError> {
    std::thread::scope(|scope| {
        let mut handlers = Vec::new();
        let mut next_worker_id = 0u32;
        let mut spawn = |stream: TcpStream| {
            let worker_id = next_worker_id;
            next_worker_id += 1;
            let sh = &shared;
            scope.spawn(move || handle_worker(sh, stream, worker_id))
        };
        // Every connection gets a handler, which greets the worker and
        // says goodbye as soon as the run is done. The accept blocks; the
        // handler that completes the run wakes it with a connection of
        // its own (which its handler sees close before any Hello).
        while !shared.done() {
            match listener.accept() {
                Ok((stream, _peer)) => handlers.push(spawn(stream)),
                Err(e) => {
                    let mut st = shared.lock();
                    st.error.get_or_insert(CcError::io("gaggle accept", e));
                    st.done = true;
                    shared.cv.notify_all();
                }
            }
        }
        // A listener dropped with connections in its backlog resets them,
        // so a worker that dialed as the run finished is greeted and told
        // goodbye too, until the handlers are done and none is pending.
        let nonblocking = listener.set_nonblocking(true).is_ok();
        loop {
            for h in handlers.drain(..) {
                let _ = h.join();
            }
            if nonblocking {
                while let Ok((stream, _peer)) = listener.accept() {
                    handlers.push(spawn(stream));
                }
            }
            if handlers.is_empty() {
                break;
            }
        }
    });
    drop(listener);

    let Shared {
        web,
        progress,
        state,
        sinks,
        ..
    } = shared;
    let st = state.into_inner().expect("gaggle lease state poisoned");
    if let Some(e) = st.error {
        return Err(e);
    }
    // The same ending as a single-process run: the world's ledger made
    // whole, the log rewritten in canonical form, the dataset assembled.
    let dataset = sinks.finish(&web)?;
    if let Some(p) = &progress {
        p.stop_clock();
    }
    Ok(ManagerOutcome {
        web,
        dataset,
        stats: st.stats,
    })
}

/// Run complete: say goodbye, then drain the worker's parting
/// Telemetry/Goodbye for up to one lease timeout, so its counters land in
/// the manager's report.
fn say_goodbye(shared: &Shared, stream: &mut TcpStream) {
    let _ = shared.send(
        stream,
        &Frame::Goodbye {
            reason: "complete".into(),
        },
    );
    let deadline = Instant::now() + shared.lease_timeout();
    loop {
        match shared.recv(stream, deadline) {
            Ok(Frame::Telemetry { counters }) => {
                for (name, n) in &counters {
                    cc_telemetry::counter(name, *n);
                }
            }
            Ok(Frame::Goodbye { .. }) | Err(_) => break,
            Ok(_) => {}
        }
    }
    shared.disconnect(None);
}

fn handle_worker(shared: &Shared, mut stream: TcpStream, worker_id: u32) {
    let timeout = shared.lease_timeout();
    let _ = stream.set_nodelay(true);
    // No other thread can give back a lease whose holder is stuck in a
    // write, so no write may block forever.
    let _ = stream.set_write_timeout(Some(timeout));

    // Handshake: Hello (with the exact protocol string) within one lease
    // timeout, or the peer is dropped.
    let Ok(hello) = shared.recv(&stream, Instant::now() + timeout) else {
        return;
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
        shared.disconnect(None);
        return;
    }

    while let Some((lease_id, walk_ids)) = shared.next_lease() {
        let lease = Frame::Lease {
            lease_id,
            walk_ids: walk_ids.clone(),
            deadline_ms: shared.cfg.lease_timeout_ms,
        };
        if shared.send(&mut stream, &lease).is_err() {
            shared.disconnect(Some(walk_ids));
            return;
        }

        // Wait for this lease's result until its deadline, which each of
        // its heartbeats pushes out.
        let mut deadline = Instant::now() + timeout;
        loop {
            match shared.recv(&stream, deadline) {
                Ok(Frame::Heartbeat { lease_id: id, .. }) if id == lease_id => {
                    deadline = Instant::now() + timeout;
                }
                Ok(Frame::ShardResult {
                    lease_id: id,
                    shard,
                    truth,
                }) if id == lease_id => {
                    shared.accept_result(worker_id, shard, &truth);
                    break;
                }
                // A zombie's: keep waiting for the lease this worker holds.
                Ok(Frame::ShardResult { .. }) => shared.drop_stale(),
                Ok(Frame::Telemetry { counters }) => {
                    for (name, n) in &counters {
                        cc_telemetry::counter(name, *n);
                    }
                }
                Err(FrameError::TimedOut) => {
                    // Expired: give it back and ask for the next lease,
                    // which waits in the worker's socket meanwhile.
                    shared.expire(worker_id, walk_ids);
                    break;
                }
                Ok(Frame::Goodbye { .. }) | Err(_) => {
                    shared.disconnect(Some(walk_ids));
                    return;
                }
                Ok(_) => {} // a stale lease's heartbeat, Hello twice etc.: ignore
            }
        }
    }
    say_goodbye(shared, &mut stream);
}
