//! # cc-gaggle
//!
//! Distributed manager/worker crawling over TCP with lease-based fault
//! recovery — the process-level twin of the in-process work-stealing
//! executor, named for goose's gaggle architecture.
//!
//! * [`wire`] — the `cc-gaggle/v1` frame codec: length-prefixed JSON
//!   frames (Hello/Welcome/Lease/Heartbeat/ShardResult/Telemetry/Goodbye)
//!   with bounded reads and explicit decode errors, sharing cc-http's
//!   transport-error classification.
//! * [`manager`] — partitions the walk-id space into leases and streams
//!   them to workers. Each worker's handler thread holds its one lease's
//!   deadline, re-issues the lease when its holder goes silent or dies
//!   (fresh lease ids make stale "zombie" results droppable), and records
//!   each accepted shard into the accumulator a single-process run uses —
//!   so the output is byte-identical at any worker count, any lease
//!   interleaving, and any kill history.
//! * [`worker`] — dials in, regenerates the world from the Welcome's
//!   study config, crawls each lease through the existing parallel
//!   executor, and ships each lease's dataset shard and the truth its
//!   walks minted back.
//!
//! The manager keeps no sink of its own. It starts from cc-crawler's
//! [`resume_plan`](cc_crawler::resume_plan) and records each accepted
//! lease as one batch into the [`WalkSinks`](cc_crawler::WalkSinks)
//! accumulator a single-process run uses. So checkpoint and resume work
//! as they do in one process: the `cc-checkpoint/v2` log commits on the
//! study's cadence, counted in the run's walks at lease boundaries, the
//! run ends in the same canonical file, dataset and truth ledger a
//! single-process run leaves behind, and it resumes from either's log.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod manager;
pub mod wire;
pub mod worker;

pub use manager::{GaggleConfig, GaggleStats, Manager, ManagerOptions, ManagerOutcome};
pub use wire::{read_frame, write_frame, Frame, FrameError, MAGIC, MAX_FRAME_BYTES, PROTOCOL};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{crawl_study, StudyConfig};
    use cc_web::generate;

    fn small_study(workers: usize) -> StudyConfig {
        StudyConfig::builder()
            .web(cc_web::WebConfig::small())
            .seed(5)
            .steps(3)
            .walks(12)
            .failure_rate(0.1)
            .workers(workers)
            .build()
            .unwrap()
    }

    /// In-process end-to-end: a manager and two thread-workers over real
    /// loopback TCP produce the single-process dataset exactly.
    #[test]
    fn gaggle_matches_single_process() {
        let study = small_study(2);
        let web = generate(&study.web);
        let solo = crawl_study(&web, &study).unwrap();

        let manager = Manager::start(
            &study,
            GaggleConfig {
                lease_walks: 4,
                workers_expected: 2,
                ..GaggleConfig::default()
            },
            ManagerOptions::default(),
        )
        .unwrap();
        let addr = manager.addr().to_string();
        let joins: Vec<_> = (0..2)
            .map(|i| {
                let cfg = WorkerConfig {
                    connect: addr.clone(),
                    label: format!("test-worker-{i}"),
                };
                std::thread::spawn(move || run_worker(&cfg))
            })
            .collect();
        let outcome = manager.join().unwrap();
        let mut total_walks = 0;
        for j in joins {
            let summary = j.join().unwrap().unwrap();
            total_walks += summary.walks;
        }

        assert_eq!(outcome.dataset, solo);
        assert_eq!(
            outcome.dataset.to_json().unwrap(),
            solo.to_json().unwrap(),
            "assembled dataset bytes diverged"
        );
        assert_eq!(total_walks, 12, "every walk crawled exactly once");
        assert_eq!(outcome.stats.leases_issued, 3);
        assert_eq!(outcome.stats.leases_completed, 3);
        assert_eq!(outcome.stats.results_dropped_stale, 0);
        // Truth ledgers converge (solo ran on `web`, gaggle on its own).
        let gaggle_truth = outcome.web.truth_snapshot();
        let solo_truth = web.truth_snapshot();
        assert_eq!(gaggle_truth.len(), solo_truth.len());
        assert_eq!(gaggle_truth.uid_count(), solo_truth.uid_count());
    }

    /// A worker speaking the wrong protocol version is turned away.
    #[test]
    fn manager_refuses_protocol_mismatch() {
        let study = small_study(1);
        let manager =
            Manager::start(&study, GaggleConfig::default(), ManagerOptions::default()).unwrap();
        let addr = manager.addr();

        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        write_frame(
            &mut bad,
            &Frame::Hello {
                protocol: "cc-gaggle/v0".into(),
                label: "relic".into(),
            },
        )
        .unwrap();
        bad.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let (frame, _) = read_frame(&mut bad).unwrap();
        match frame {
            Frame::Goodbye { reason } => assert!(reason.contains("protocol mismatch"), "{reason}"),
            other => panic!("expected Goodbye, got {}", other.name()),
        }
        drop(bad);

        // A well-versed worker still completes the run.
        let cfg = WorkerConfig {
            connect: addr.to_string(),
            label: "good".into(),
        };
        let worker = std::thread::spawn(move || run_worker(&cfg));
        let outcome = manager.join().unwrap();
        worker.join().unwrap().unwrap();
        assert_eq!(outcome.dataset.walks.len(), 12);
    }

    /// The manager's checkpoint ends in the same bytes a single-process
    /// run of the study leaves behind.
    #[test]
    fn gaggle_checkpoint_bytes_match_single_process() {
        let path = std::env::temp_dir().join(format!("cc-gaggle-ck-{}.ccp", std::process::id()));
        let mut study = small_study(2);
        study.checkpoint = Some(cc_crawler::CheckpointPolicy {
            path: path.to_str().unwrap().to_string(),
            every: 3,
        });
        crawl_study(&generate(&study.web), &study).unwrap();
        let solo = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let manager = Manager::start(
            &study,
            GaggleConfig {
                lease_walks: 2,
                ..GaggleConfig::default()
            },
            ManagerOptions::default(),
        )
        .unwrap();
        let cfg = WorkerConfig {
            connect: manager.addr().to_string(),
            label: "ck".into(),
        };
        let worker = std::thread::spawn(move || run_worker(&cfg));
        manager.join().unwrap();
        worker.join().unwrap().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            solo,
            "checkpoint bytes diverged"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A manager resumed from the log of a killed single-process run ends
    /// where the uninterrupted run does: the same dataset bytes, the same
    /// canonical checkpoint bytes and the same truth ledger.
    #[test]
    fn manager_resumes_a_single_process_log_to_the_same_bytes() {
        let path = std::env::temp_dir().join(format!("cc-gaggle-resume-{}.ccp", std::process::id()));
        let mut study = small_study(2);
        study.checkpoint = Some(cc_crawler::CheckpointPolicy {
            path: path.to_str().unwrap().to_string(),
            every: 3,
        });
        let web = generate(&study.web);
        let full = crawl_study(&web, &study).unwrap();
        let canonical = std::fs::read(&path).unwrap();

        cc_crawler::StudyRun::new(&generate(&study.web), &study)
            .stop_after(5)
            .run()
            .unwrap();
        let ck = cc_crawler::CrawlCheckpoint::load(&path).unwrap();
        assert_eq!(ck.partial.walks.len(), 5);
        let manager = Manager::start(
            &study,
            GaggleConfig {
                lease_walks: 2,
                ..GaggleConfig::default()
            },
            ManagerOptions {
                resume: Some(ck),
                progress: None,
            },
        )
        .unwrap();
        let cfg = WorkerConfig {
            connect: manager.addr().to_string(),
            label: "resume".into(),
        };
        let worker = std::thread::spawn(move || run_worker(&cfg));
        let outcome = manager.join().unwrap();
        assert_eq!(worker.join().unwrap().unwrap().walks, 12 - 5);
        assert_eq!(outcome.stats.leases_completed, 4);
        assert_eq!(
            outcome.dataset.to_json().unwrap(),
            full.to_json().unwrap(),
            "resumed dataset bytes diverged"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            canonical,
            "resumed checkpoint bytes diverged"
        );
        assert_eq!(outcome.web.truth_snapshot(), web.truth_snapshot());
        std::fs::remove_file(&path).ok();
    }

    /// A resume checkpoint that repeats a walk or holds one outside the
    /// study is refused before any lease goes out.
    #[test]
    fn resume_refuses_repeated_and_foreign_walks() {
        let study = small_study(1);
        let web = generate(&study.web);
        let (done, _) = cc_crawler::StudyRun::new(&web, &study)
            .lease(&[0, 1, 2])
            .unwrap();
        for (extra, why) in [(1u32, "walk 1 appears twice"), (12, "walk 12 is outside")] {
            let mut partial = done.clone();
            let mut copy = partial.walks[1].clone();
            copy.walk_id = extra;
            partial.walks.push(copy);
            let ck = cc_crawler::CrawlCheckpoint::new(&study, partial, web.truth_snapshot());
            let refused = Manager::start(
                &study,
                GaggleConfig::default(),
                ManagerOptions {
                    resume: Some(ck),
                    progress: None,
                },
            );
            match refused {
                Err(cc_util::CcError::Checkpoint(msg)) => assert!(msg.contains(why), "{msg}"),
                Err(other) => panic!("expected a checkpoint error, got {other}"),
                Ok(_) => panic!("a manager started from a checkpoint with {why}"),
            }
        }
    }

    /// An empty study (resume with nothing left) completes immediately.
    #[test]
    fn completed_resume_finishes_without_workers() {
        let study = small_study(1);
        let web = generate(&study.web);
        let full = crawl_study(&web, &study).unwrap();
        let ck = cc_crawler::CrawlCheckpoint::new(&study, full.clone(), web.truth_snapshot());
        let manager = Manager::start(
            &study,
            GaggleConfig::default(),
            ManagerOptions {
                resume: Some(ck),
                progress: None,
            },
        )
        .unwrap();
        let outcome = manager.join().unwrap();
        assert_eq!(outcome.dataset, full);
        assert_eq!(outcome.stats.leases_issued, 0);
    }
}
