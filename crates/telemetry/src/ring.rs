//! Periodic-snapshot ring buffer — the dashboard's time axis.
//!
//! A sampler thread (`cc-obs`) snapshots crawl progress and latency
//! digests every tick into a bounded [`SnapshotRing`]; when the ring is
//! full the oldest sample is dropped, so a run of any length costs a
//! fixed amount of memory while the dashboard still shows the most
//! recent window at full resolution.
//!
//! Samples are plain serde structs: the HTML dashboard inlines them as a
//! JSON block, and `/timeseries` on the observer (cc-serve's observer
//! routes) serves them live.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::lock;

/// One periodic observation of a running crawl (or serve session).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSample {
    /// Seconds since the run started.
    pub t_s: f64,
    /// Walks finished so far (cumulative).
    pub walks: u64,
    /// Steps completed so far (cumulative).
    pub steps: u64,
    /// Walk throughput over the run so far.
    pub walks_per_sec: f64,
    /// Step throughput over the run so far.
    pub steps_per_sec: f64,
    /// Live inflight-requests gauge (0 when not serving).
    pub inflight: f64,
    /// Worst per-worker queue-starvation gauge at sample time.
    pub starvation: f64,
    /// p50 of the tracked latency histogram, milliseconds.
    pub latency_p50_ms: f64,
    /// p99 of the tracked latency histogram, milliseconds.
    pub latency_p99_ms: f64,
}

/// Bounded drop-oldest buffer of [`ObsSample`]s.
#[derive(Debug)]
pub struct SnapshotRing {
    cap: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    samples: VecDeque<ObsSample>,
    pushed: u64,
}

impl SnapshotRing {
    /// A ring holding at most `cap` samples (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> SnapshotRing {
        SnapshotRing {
            cap: cap.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Append a sample, dropping the oldest if the ring is full.
    pub fn push(&self, sample: ObsSample) {
        let mut inner = lock(&self.inner);
        if inner.samples.len() == self.cap {
            inner.samples.pop_front();
        }
        inner.samples.push_back(sample);
        inner.pushed += 1;
    }

    /// The retained window, oldest first.
    pub fn snapshot(&self) -> Vec<ObsSample> {
        lock(&self.inner).samples.iter().copied().collect()
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        lock(&self.inner).samples.len()
    }

    /// Whether nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total samples ever pushed (monotonic; exceeds [`SnapshotRing::len`]
    /// once the ring wraps).
    pub fn total_pushed(&self) -> u64 {
        lock(&self.inner).pushed
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_s: f64, walks: u64) -> ObsSample {
        ObsSample {
            t_s,
            walks,
            ..ObsSample::default()
        }
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let ring = SnapshotRing::new(3);
        for i in 0..5 {
            ring.push(sample(i as f64, i));
        }
        let window = ring.snapshot();
        assert_eq!(window.len(), 3);
        assert_eq!(window[0].walks, 2, "oldest two dropped");
        assert_eq!(window[2].walks, 4);
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = SnapshotRing::new(0);
        ring.push(sample(0.0, 1));
        ring.push(sample(1.0, 2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.snapshot()[0].walks, 2);
    }

    #[test]
    fn samples_serialize_round_trip() {
        let s = ObsSample {
            t_s: 1.5,
            walks: 10,
            steps: 40,
            walks_per_sec: 6.7,
            steps_per_sec: 26.7,
            inflight: 3.0,
            starvation: 0.2,
            latency_p50_ms: 1.2,
            latency_p99_ms: 9.8,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: ObsSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
