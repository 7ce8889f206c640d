//! The gaggle worker: dial the manager, crawl leases, ship shards.
//!
//! A worker carries **no study flags**: the Welcome frame delivers the
//! full [`StudyConfig`], the worker regenerates the world from it (worlds
//! are pure functions of their config, so every worker's generation-time
//! truth entries are identical), and each Lease's walk ids run through
//! [`StudyRun::lease`] — the same work-stealing executor, with
//! `study.workers` threads, that a single-process run uses. A heartbeat
//! thread renews the lease while the crawl runs, so a slow lease is
//! distinguishable from a dead worker.
//!
//! Workers do **not** open their own telemetry session (sessions are
//! process-global and exclusive — the bench harness runs several workers
//! as threads of one process). Instead a worker counts its own summary
//! totals locally and ships them in one Telemetry frame at goodbye; the
//! manager folds them into *its* session.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cc_crawler::StudyRun;
use cc_util::{CcError, ProgressCounters};
use cc_web::generate;

use crate::wire::{read_frame, write_frame, Frame, FrameError, PROTOCOL};

/// How a worker reaches its manager.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Manager address (`host:port`).
    pub connect: String,
    /// Free-form label sent in the Hello (host/pid by convention).
    pub label: String,
}

/// What a finished worker reports.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSummary {
    /// The id the manager assigned.
    pub worker_id: u32,
    /// Leases crawled (including any whose result the manager dropped
    /// as stale — the worker cannot tell).
    pub leases: u64,
    /// Walks crawled.
    pub walks: u64,
}

/// Socket read deadline; reads loop on timeout so a worker waiting for
/// its next lease stays responsive.
const READ_POLL: Duration = Duration::from_millis(250);

/// Connection retry budget: the manager may still be binding when a
/// worker launches (the CLI's `--gaggle N` spawns both at once).
const CONNECT_ATTEMPTS: u32 = 100;
const CONNECT_BACKOFF: Duration = Duration::from_millis(100);

fn connect_with_retry(addr: &str) -> Result<TcpStream, CcError> {
    let mut last = None;
    for _ in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(CONNECT_BACKOFF);
            }
        }
    }
    Err(CcError::io(
        addr,
        last.map_or_else(|| "connect failed".to_string(), |e| e.to_string()),
    ))
}

/// Run one worker to completion: connect, handshake, crawl leases until
/// the manager says goodbye.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, CcError> {
    let mut stream = connect_with_retry(&cfg.connect)?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| CcError::io(&cfg.connect, e))?;
    // Writes go through a shared handle so the heartbeat thread and the
    // lease loop never interleave partial frames.
    let writer = Arc::new(Mutex::new(
        stream.try_clone().map_err(|e| CcError::io(&cfg.connect, e))?,
    ));
    let send = |frame: &Frame| -> Result<usize, FrameError> {
        let mut w = writer.lock().expect("gaggle worker writer poisoned");
        write_frame(&mut *w, frame)
    };

    send(&Frame::Hello {
        protocol: PROTOCOL.into(),
        label: cfg.label.clone(),
    })?;
    let (worker_id, study) = loop {
        match read_frame(&mut stream) {
            Ok((Frame::Welcome { worker_id, study }, _)) => break (worker_id, study),
            Ok((Frame::Goodbye { reason }, _)) => {
                return Err(CcError::Protocol(format!("manager refused worker: {reason}")));
            }
            Ok((other, _)) => {
                return Err(CcError::Protocol(format!(
                    "expected Welcome, got {}",
                    other.name()
                )));
            }
            Err(FrameError::TimedOut) => {}
            Err(e) => return Err(e.into()),
        }
    };

    // Regenerate the world: deterministic, so this worker's ledger starts
    // exactly where the manager's (and every sibling's) did.
    let web = generate(&study.web);
    let progress = ProgressCounters::new(study.workers);
    // Test hook: slow the start of every lease so an integration test (or
    // the CI smoke job) can kill -9 this process reliably mid-lease.
    let slow_ms: u64 = std::env::var("CC_GAGGLE_TEST_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);

    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut summary = WorkerSummary {
        worker_id,
        leases: 0,
        walks: 0,
    };

    loop {
        match read_frame(&mut stream) {
            Ok((
                Frame::Lease {
                    lease_id,
                    walk_ids,
                    deadline_ms,
                },
                _,
            )) => {
                // Heartbeat for the whole time this lease is in hand —
                // through the slow-start hook and the crawl alike. The
                // channel doubles as an interruptible sleep: a plain
                // `sleep(interval)` + stop flag would make the post-lease
                // join block for up to a full interval (deadline/3),
                // serializing dead time between every lease.
                let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
                let hb = {
                    let writer = Arc::clone(&writer);
                    let interval = Duration::from_millis((deadline_ms / 3).max(50));
                    std::thread::spawn(move || {
                        let mut done: u32 = 0;
                        // Timeout = the lease is still in hand, beat once;
                        // Disconnected = the lease loop dropped its sender,
                        // wake immediately and exit.
                        while let Err(RecvTimeoutError::Timeout) =
                            stop_rx.recv_timeout(interval)
                        {
                            let mut w =
                                writer.lock().expect("gaggle worker writer poisoned");
                            if write_frame(
                                &mut *w,
                                &Frame::Heartbeat {
                                    lease_id,
                                    walks_done: done,
                                },
                            )
                            .is_err()
                            {
                                break; // manager gone; the main loop will notice
                            }
                            done = done.saturating_add(1);
                        }
                    })
                };
                if slow_ms > 0 {
                    std::thread::sleep(Duration::from_millis(slow_ms));
                }
                let shard = StudyRun::new(&web, &study)
                    .progress(&progress)
                    .lease(&walk_ids);
                drop(stop_tx);
                let _ = hb.join();
                let shard = shard?;

                summary.leases += 1;
                summary.walks += shard.walks.len() as u64;
                *counters.entry("gaggle.worker.leases".into()).or_insert(0) += 1;
                *counters.entry("gaggle.worker.walks".into()).or_insert(0) +=
                    shard.walks.len() as u64;
                send(&Frame::ShardResult {
                    lease_id,
                    shard,
                    truth: web.truth_snapshot(),
                })?;
            }
            Ok((Frame::Goodbye { .. }, _)) => {
                // Parting telemetry, then a clean goodbye. The manager may
                // already have hung up (it only waits so long); that's
                // still a completed run from this worker's side.
                let _ = send(&Frame::Telemetry {
                    counters: counters.clone(),
                });
                let _ = send(&Frame::Goodbye {
                    reason: "complete".into(),
                });
                return Ok(summary);
            }
            Ok((other, _)) => {
                return Err(CcError::Protocol(format!(
                    "unexpected {} frame from manager",
                    other.name()
                )));
            }
            Err(FrameError::TimedOut) => {}
            Err(e) => return Err(e.into()),
        }
    }
}
