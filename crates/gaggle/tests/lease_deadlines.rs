//! The manager's deadlines, driven over real loopback TCP by a fake
//! worker that speaks raw frames: a lease that expires while its holder
//! is silent and whose late ("zombie") result arrives while the holder
//! holds the next lease, and peers that connect and never finish a Hello.
//! Both runs still end in the single-process dataset bytes.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cc_crawler::{crawl_study, CrawlDataset, StudyConfig, StudyRun};
use cc_gaggle::{
    read_frame, run_worker, write_frame, Frame, FrameError, GaggleConfig, Manager, ManagerOptions,
    WorkerConfig, PROTOCOL,
};
use cc_web::{generate, TruthLog};

/// Every manager here gives a lease, a Hello and a goodbye drain 500 ms.
const LEASE_TIMEOUT: Duration = Duration::from_millis(500);

fn study() -> StudyConfig {
    StudyConfig::builder()
        .web(cc_web::WebConfig::small())
        .seed(5)
        .steps(3)
        .walks(12)
        .failure_rate(0.1)
        .workers(1)
        .build()
        .unwrap()
}

fn start_manager(study: &StudyConfig) -> Manager {
    Manager::start(
        study,
        GaggleConfig {
            lease_walks: 4,
            lease_timeout_ms: LEASE_TIMEOUT.as_millis() as u64,
            ..GaggleConfig::default()
        },
        ManagerOptions::default(),
    )
    .unwrap()
}

fn send(stream: &mut TcpStream, frame: &Frame) {
    write_frame(stream, frame).unwrap();
}

fn recv(stream: &mut TcpStream) -> Frame {
    read_frame(stream).unwrap().0
}

fn lease(frame: Frame) -> (u64, Vec<u32>) {
    match frame {
        Frame::Lease {
            lease_id, walk_ids, ..
        } => (lease_id, walk_ids),
        other => panic!("expected a Lease, got {}", other.name()),
    }
}

/// The fake's answers, crawled up front so that it never goes quiet
/// except where the test means it to: each lease of 4 ids, as
/// `StudyRun::lease` computes it.
struct Answers(HashMap<Vec<u32>, (CrawlDataset, TruthLog)>);

impl Answers {
    fn crawl(study: &StudyConfig) -> Answers {
        let web = generate(&study.web);
        let ids: Vec<u32> = (0..12).collect();
        Answers(
            ids.chunks(4)
                .map(|c| (c.to_vec(), StudyRun::new(&web, study).lease(c).unwrap()))
                .collect(),
        )
    }

    fn result(&self, lease_id: u64, ids: &[u32]) -> Frame {
        let (shard, truth) = self.0[ids].clone();
        Frame::ShardResult {
            lease_id,
            shard,
            truth,
        }
    }
}

/// Lease 1 expires while the fake is silent. Its late result, sent while
/// the fake holds lease 2, is dropped, and the manager leases nothing
/// more until lease 2 is answered: a handler holds one lease at a time.
#[test]
fn an_expired_lease_is_reissued_and_its_late_result_dropped() {
    let study = study();
    let solo = crawl_study(&generate(&study.web), &study).unwrap();
    let answers = Answers::crawl(&study);
    let manager = start_manager(&study);

    let mut fake = TcpStream::connect(manager.addr()).unwrap();
    // A bound on every read below, so that a broken manager fails the
    // test instead of hanging it.
    fake.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello_sent = Instant::now();
    send(
        &mut fake,
        &Frame::Hello {
            protocol: PROTOCOL.into(),
            label: "fake".into(),
        },
    );
    assert!(matches!(recv(&mut fake), Frame::Welcome { .. }));

    // Silent from here: lease 2 comes only once lease 1 has expired.
    let (first, first_ids) = lease(recv(&mut fake));
    let (second, second_ids) = lease(recv(&mut fake));
    assert!(
        hello_sent.elapsed() >= LEASE_TIMEOUT,
        "lease {second} came {:?} after Hello, before lease {first}'s deadline",
        hello_sent.elapsed()
    );

    // Lease 1's real result, late; then heartbeats keep lease 2 alive,
    // and no other frame may arrive meanwhile.
    send(&mut fake, &answers.result(first, &first_ids));
    fake.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let holding = Instant::now();
    while holding.elapsed() < Duration::from_millis(600) {
        send(
            &mut fake,
            &Frame::Heartbeat {
                lease_id: second,
                walks_done: 0,
            },
        );
        match read_frame(&mut fake) {
            Err(FrameError::TimedOut) => {}
            Ok((frame, _)) => panic!(
                "a {} frame came while the fake held lease {second}",
                frame.name()
            ),
            Err(e) => panic!("the manager hung up on a heartbeating worker: {e}"),
        }
    }

    // Then answer every lease until the manager says goodbye.
    fake.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send(&mut fake, &answers.result(second, &second_ids));
    loop {
        match recv(&mut fake) {
            Frame::Lease {
                lease_id, walk_ids, ..
            } => send(&mut fake, &answers.result(lease_id, &walk_ids)),
            Frame::Goodbye { .. } => break,
            other => panic!("unexpected {} frame", other.name()),
        }
    }
    send(
        &mut fake,
        &Frame::Goodbye {
            reason: "complete".into(),
        },
    );

    let outcome = manager.join().unwrap();
    assert_eq!(
        outcome.dataset.to_json().unwrap(),
        solo.to_json().unwrap(),
        "dataset bytes diverged"
    );
    let stats = &outcome.stats;
    assert_eq!(stats.leases_expired, 1, "{stats:?}");
    assert_eq!(stats.results_dropped_stale, 1, "{stats:?}");
    assert_eq!(stats.leases_reissued, 1, "{stats:?}");
    assert_eq!(stats.leases_issued, 4, "{stats:?}");
}

/// A peer that connects and sends nothing, and one that stalls inside its
/// first frame, are dropped at the Hello deadline, not kept until the run
/// ends (or, stalled mid-frame, for ever); a worker that comes after them
/// completes the run alone.
#[test]
fn peers_that_never_finish_a_hello_are_dropped_at_its_deadline() {
    let study = study();
    let solo = crawl_study(&generate(&study.web), &study).unwrap();
    let manager = start_manager(&study);

    for (opening, peer) in [(&b""[..], "a silent peer"), (b"CCG1\x01", "a stalled peer")] {
        let mut stream = TcpStream::connect(manager.addr()).unwrap();
        stream.write_all(opening).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let connected = Instant::now();
        match read_frame(&mut stream) {
            Err(FrameError::Closed) | Ok((Frame::Goodbye { .. }, _)) => {}
            Err(FrameError::TimedOut) => panic!(
                "the manager still held {peer} after {:?}",
                connected.elapsed()
            ),
            Err(e) => panic!("expected the manager to close {peer}'s connection, got {e}"),
            Ok((frame, _)) => panic!("{peer} was sent a {} frame", frame.name()),
        }
    }

    let cfg = WorkerConfig {
        connect: manager.addr().to_string(),
        label: "after-silence".into(),
    };
    let worker = std::thread::spawn(move || run_worker(&cfg));
    let outcome = manager.join().unwrap();
    assert_eq!(worker.join().unwrap().unwrap().walks, 12);
    assert_eq!(
        outcome.dataset.to_json().unwrap(),
        solo.to_json().unwrap(),
        "dataset bytes diverged"
    );
    assert_eq!(outcome.stats.workers_connected, 1, "{:?}", outcome.stats);
}
