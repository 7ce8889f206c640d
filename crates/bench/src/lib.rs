//! # cc-bench
//!
//! Shared fixtures for the Criterion benchmark harness. Every table and
//! figure in the paper has a bench target that regenerates it (see
//! `benches/`), and they all operate on the fixtures built here so the
//! expensive crawl runs once per process.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::OnceLock;

use cc_core::pipeline::PipelineOutput;
use cc_crawler::{CrawlConfig, CrawlDataset, Walker};
use cc_web::{generate, SimWeb, WebConfig};

/// A fully-built study fixture: world, crawl dataset, pipeline output.
pub struct Fixture {
    /// The generated world.
    pub web: SimWeb,
    /// The crawl dataset.
    pub dataset: CrawlDataset,
    /// The pipeline output.
    pub output: PipelineOutput,
}

/// The benchmark-scale study (500 seeders), built once per process.
pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let web = generate(&WebConfig {
            seed: 0xBE7C4,
            n_sites: 1_500,
            n_seeders: 500,
            ..WebConfig::default()
        });
        let dataset = Walker::new(
            &web,
            CrawlConfig {
                seed: 0xBE7C4,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let output = cc_core::run_pipeline(&dataset);
        Fixture {
            web,
            dataset,
            output,
        }
    })
}

/// The number of CPU cores the bench harness should treat as available.
///
/// `std::thread::available_parallelism` by default; the `CC_BENCH_CORES`
/// environment variable overrides it so CI (or a curious human) can
/// exercise the scaling gates on a box whose cgroup quota lies about
/// the core count — or pretend to have one core to test the skip path.
pub fn detected_cores() -> usize {
    if let Ok(v) = std::env::var("CC_BENCH_CORES") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Lock-contention microbench: the pre-sharding telemetry hot path (a
/// process-wide mutex around a `String`-keyed map) raced against the
/// sharded registry path (per-worker atomic slots) under identical
/// multi-threaded load.
pub mod contention {
    use std::sync::Arc;
    use std::time::Instant;

    use cc_telemetry::{Collector, CounterId};
    use serde::Serialize;

    /// One contention race: N threads, each issuing `ops_per_thread`
    /// counter increments through both paths.
    #[derive(Serialize, Clone, Copy)]
    pub struct ContentionResult {
        /// Racing threads.
        pub threads: usize,
        /// Increments per thread.
        pub ops_per_thread: u64,
        /// Wall-clock for the string-keyed map path (global mutex).
        pub string_path_secs: f64,
        /// Wall-clock for the sharded registry-id path (atomic slots).
        pub sharded_path_secs: f64,
        /// string_path_secs / sharded_path_secs — how much faster the
        /// sharded path is under this load.
        pub speedup: f64,
    }

    /// Drive `threads` threads through one path. `sharded` picks the
    /// per-worker shard path (registry id + installed shard) versus the
    /// legacy path (unregistered name → global mutex + map entry).
    fn drive(threads: usize, ops_per_thread: u64, sharded: bool) -> f64 {
        let collector = Arc::new(Collector::default());
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = Arc::clone(&collector);
                scope.spawn(move || {
                    if sharded {
                        let _shard = c.install_worker_shard();
                        for _ in 0..ops_per_thread {
                            c.add_counter_id(CounterId::CRAWL_STEPS_RECORDED, 1);
                        }
                    } else {
                        for _ in 0..ops_per_thread {
                            // Unregistered name: takes the pre-sharding
                            // cold path (mutex + String-keyed map).
                            c.add_counter("bench.contention.synthetic", 1);
                        }
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let report = collector.report(None);
        let key = if sharded {
            CounterId::CRAWL_STEPS_RECORDED.name()
        } else {
            "bench.contention.synthetic"
        };
        let total = report.deterministic.counters.get(key).copied().unwrap_or(0);
        assert_eq!(
            total,
            threads as u64 * ops_per_thread,
            "contention race lost increments on the {} path",
            if sharded { "sharded" } else { "string" }
        );
        secs
    }

    /// Race both paths and report the ratio. Each path is timed
    /// best-of-3 so one scheduler hiccup cannot invert the result.
    pub fn race(threads: usize, ops_per_thread: u64) -> ContentionResult {
        let mut string_path_secs = f64::INFINITY;
        let mut sharded_path_secs = f64::INFINITY;
        for _ in 0..3 {
            string_path_secs = string_path_secs.min(drive(threads, ops_per_thread, false));
            sharded_path_secs = sharded_path_secs.min(drive(threads, ops_per_thread, true));
        }
        ContentionResult {
            threads,
            ops_per_thread,
            string_path_secs,
            sharded_path_secs,
            speedup: string_path_secs / sharded_path_secs,
        }
    }
}

/// A small world for crawl-throughput benches.
pub fn small_web() -> &'static SimWeb {
    static WEB: OnceLock<SimWeb> = OnceLock::new();
    WEB.get_or_init(|| generate(&WebConfig::small()))
}

/// The medium world's configuration (800 sites / 250 seeders), for
/// benches that describe their crawl as a `StudyConfig`.
pub fn medium_world() -> WebConfig {
    WebConfig {
        seed: 0x9A7A11E1,
        n_sites: 800,
        n_seeders: 250,
        ..WebConfig::default()
    }
}

/// A medium world ([`medium_world`]) for the parallel-executor benches:
/// big enough that per-walk work dominates thread overheads.
pub fn medium_web() -> &'static SimWeb {
    static WEB: OnceLock<SimWeb> = OnceLock::new();
    WEB.get_or_init(|| generate(&medium_world()))
}
