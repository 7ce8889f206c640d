//! The sharded counter path's gate: 4 threads × 200,000 increments run at
//! least 1.5× faster through per-worker shards (registry id, atomic slot)
//! than through the string-keyed path (global mutex, map probe), best of 3,
//! with no increment lost on either path.
//!
//! This is the only test in its binary, so no other test's threads race it.

use std::sync::Arc;
use std::time::Instant;

use cc_telemetry::{Collector, CounterId};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 200_000;
const STRING_KEY: &str = "test.contention.synthetic";

/// Time `THREADS` threads through one path, then check the total.
fn drive(sharded: bool) -> f64 {
    let collector = Arc::new(Collector::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let c = Arc::clone(&collector);
            scope.spawn(move || {
                if sharded {
                    let _shard = c.install_worker_shard();
                    for _ in 0..OPS_PER_THREAD {
                        c.add_counter_id(CounterId::CRAWL_STEPS_RECORDED, 1);
                    }
                } else {
                    // An unregistered name takes the mutex + map path.
                    for _ in 0..OPS_PER_THREAD {
                        c.add_counter(STRING_KEY, 1);
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let key = if sharded {
        CounterId::CRAWL_STEPS_RECORDED.name()
    } else {
        STRING_KEY
    };
    let total = collector
        .report(None)
        .deterministic
        .counters
        .get(key)
        .copied();
    assert_eq!(
        total,
        Some(THREADS as u64 * OPS_PER_THREAD),
        "lost increments on the {} path",
        if sharded { "sharded" } else { "string-keyed" }
    );
    secs
}

#[test]
fn sharded_counters_beat_the_string_keyed_path_under_threads() {
    let (mut string_secs, mut sharded_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        string_secs = string_secs.min(drive(false));
        sharded_secs = sharded_secs.min(drive(true));
    }
    let speedup = string_secs / sharded_secs;
    println!("contention: string {string_secs:.4}s, sharded {sharded_secs:.4}s -> {speedup:.1}x");
    assert!(
        speedup >= 1.5,
        "the sharded path must be at least 1.5x the string-keyed path, got {speedup:.2}x"
    );
}
