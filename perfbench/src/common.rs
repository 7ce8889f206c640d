//! What every workload shares: the run context, the study shape made
//! from the seed, the result record, and process-level readings.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cc_crawler::StudyConfig;
use cc_net::RetryPolicy;
use cc_serve::ServeConfig;
use cc_telemetry::{RunReport, Session};
use cc_web::WebConfig;
use serde::Serialize;

use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Sites in every workload's world (five per seeder, the builder's ratio).
pub const SITES: usize = 1_250;
/// Seeders, and so walks, of the batch, serve and gaggle studies.
pub const SEEDERS: usize = 250;
/// Steps per walk (the paper's ten-step walks).
pub const STEPS: usize = 10;
/// Walks of the live study: checkpointing cost grows with the square of
/// the walk count, so the live study crawls the first 100 seeders.
pub const LIVE_WALKS: usize = 100;
/// Checkpoint, publish and lease size, in walks.
pub const EVERY: usize = 25;
/// Seed of the one world every workload crawls. The world stays fixed so
/// that its size does not move set-up time and memory from seed to seed;
/// `--seed` draws the walks (the crawl seeds) and the request mix.
pub const WORLD_SEED: u64 = 0x00C0_FFEE;

/// SplitMix64's output function: a well-mixed 64-bit value from `x`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator (SplitMix64) owned by the benchmark, so the
/// request mixes never depend on the program's own random streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `0..n` (`n` is small, so the modulo bias is negligible).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick<'a>(&mut self, from: &'a [String]) -> &'a str {
        &from[self.below(from.len() as u64) as usize]
    }

    /// Draw an index from `weights`, weight-proportionally.
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let mut roll = self.below(weights.iter().sum());
        for (i, &w) in weights.iter().enumerate() {
            if roll < w {
                return i;
            }
            roll -= w;
        }
        weights.len() - 1
    }
}

/// What one workload runs, for the provenance header.
#[derive(Debug, Serialize)]
pub struct Shape {
    /// Walks per study.
    pub walks: usize,
    /// Crawl threads per study (per gaggle worker on `gaggle`).
    pub crawl_threads: usize,
    /// Checkpoint, publish or lease size in walks (0: none).
    pub every: usize,
    /// Where each study's crawl seed comes from.
    pub crawl_seed: &'static str,
    /// What runs beside the crawl.
    pub with: String,
}

/// One benchmark process: its arguments and its span recorder.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Crawl threads of the batch and serve studies (nproc, at most 2,
    /// so the study shape is the same on every host).
    pub crawl_workers: usize,
    pub tracer: Tracer,
    /// Where scratch files (checkpoints) and the span dump go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The world every workload crawls.
    pub fn world(&self) -> WebConfig {
        WebConfig {
            seed: WORLD_SEED,
            n_sites: SITES,
            n_seeders: SEEDERS,
            ..WebConfig::default()
        }
        .all_species()
    }

    /// Crawl seed of study iteration `run`. Each iteration crawls other
    /// walks of the same world, so a run's medians average over how the
    /// crawl seed sizes a study instead of resting on one draw.
    pub fn crawl_seed(&self, run: u64) -> u64 {
        mix64(self.seed ^ mix64(run))
    }

    /// An all-species study with retries over [`Ctx::world`].
    pub fn study(&self, crawl_seed: u64, walks: usize, workers: usize) -> StudyConfig {
        StudyConfig::builder()
            .web(self.world())
            .seed(crawl_seed)
            .steps(STEPS)
            .walks(walks)
            .retry(RetryPolicy::standard())
            .workers(workers)
            .build()
            .expect("the benchmark's study shape is valid")
    }

    /// Start iteration `run`. In a traced process every other iteration
    /// is traced (spans kept, the program's telemetry session on); the
    /// rest run as in an untraced process, for the overhead ratio.
    pub fn iteration(&self, run: u64) -> Iteration {
        let traced = self.trace && run % 2 == 1;
        self.tracer.set_run(run);
        self.tracer.set_enabled(traced);
        Iteration {
            traced,
            session: traced.then(Session::start),
        }
    }

    /// Whether the measuring window is still open for iteration `run`
    /// (the first iteration always runs; a traced process runs at least
    /// one traced and one untraced iteration).
    pub fn more(&self, run: u64, started: Instant) -> bool {
        let floor = if self.trace { 2 } else { 1 };
        run < floor || started.elapsed() < self.seconds
    }

    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir
            .join(format!("{name}-{}.tmp", std::process::id()))
    }
}

/// A running iteration; [`Iteration::finish`] ends its telemetry session.
pub struct Iteration {
    pub traced: bool,
    session: Option<Session>,
}

impl Iteration {
    /// End the iteration: stop keeping spans and hand back the program's
    /// telemetry report when it was traced.
    pub fn finish(self, tracer: &Tracer) -> Option<RunReport> {
        tracer.set_enabled(false);
        self.session.map(|s| s.report())
    }
}

/// One named reading with its unit and the samples behind it. `None`
/// means the samples do not support the statistic (see `stats`).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// One output or conservation check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics under their workload-specific names.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced processes only).
    pub layers: Vec<Metric>,
    /// Operations attempted and failed (studies, requests, leases).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The program's telemetry report of the last traced iteration.
    pub telemetry: Option<RunReport>,
    /// Free-form lines printed with the results.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a check; a failed check is also a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// An end-to-end metric: the median of `samples`.
    pub fn e2e_median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.e2e
            .push(Metric::new(name, median(samples), unit, samples.len()));
    }

    /// An end-to-end latency: the `q`-quantile of `samples`, in ms.
    pub fn e2e_percentile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        self.e2e.push(Metric::new(
            name,
            percentile(samples, q),
            "ms",
            samples.len(),
        ));
    }

    /// A per-layer latency: the `q`-quantile of `samples`, in ms.
    pub fn layer_percentile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        self.layers.push(Metric::new(
            name,
            percentile(samples, q),
            "ms",
            samples.len(),
        ));
    }

    /// A per-layer metric: the median of `samples`.
    pub fn layer(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.layers
            .push(Metric::new(name, median(samples), unit, samples.len()));
    }

    /// A per-layer metric that is exact by construction (a count, a size,
    /// one timed call) rather than a statistic over samples.
    pub fn layer_exact(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric::new(name, Some(value), unit, 1));
    }

    /// Median of per-run span totals named `span`, as a layer metric.
    pub fn layer_span(&mut self, tracer: &Tracer, name: &'static str, span: &str) {
        let per_run: Vec<f64> = tracer
            .totals_by_run()
            .get(span)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        self.layer(name, &per_run, "s");
    }

    /// `telemetry.overhead`: traced ÷ untraced median wall time.
    pub fn overhead(&mut self, traced: &[f64], plain: &[f64]) {
        let ratio = median(traced).zip(median(plain)).map(|(t, p)| t / p);
        self.layers.push(Metric::new(
            "telemetry.overhead",
            ratio,
            "ratio",
            traced.len().min(plain.len()),
        ));
    }

    /// `trace.uncovered_frac`: median share of each traced root span named
    /// `root` that no benchmark span beneath it covers.
    pub fn uncovered(&mut self, tracer: &Tracer, root: &str) {
        self.layer(
            "trace.uncovered_frac",
            &tracer.uncovered_shares(root),
            "ratio",
        );
    }

    /// Reset the peak resident set size (see [`peak_rss_mb`]). A reset
    /// that fails is a failed check: the next reading would cover the
    /// whole process so far and no longer measure what it claims.
    pub fn reset_peak_rss(&mut self) {
        if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
            self.check(
                "peak RSS reset through /proc/self/clear_refs",
                false,
                e.to_string(),
            );
        }
    }

    /// Walks conserved between planes: `ProgressCounters` walks = dataset
    /// walks = the study's walks (= `crawler.walks`, the crawler's own
    /// count, in traced iterations, whose report is kept for the dump).
    pub fn walks_conserved(
        &mut self,
        run: u64,
        progress: u64,
        dataset: u64,
        expected: usize,
        telemetry: Option<RunReport>,
    ) {
        let mut ok = progress == dataset && dataset == expected as u64;
        let mut detail = format!("progress {progress} = dataset {dataset} = {expected}");
        if let Some(tel) = telemetry {
            let crawler = telemetry_walks(&tel);
            ok &= crawler == dataset;
            detail.push_str(&format!(" = crawler.walks {crawler}"));
            self.telemetry = Some(tel);
        }
        self.check(format!("study {run}: walks conserved"), ok, detail);
    }
}

/// The readings each iteration of a study workload (batch, live, gaggle)
/// leaves: untraced iterations make the end-to-end metrics, traced ones
/// the other side of `telemetry.overhead`.
#[derive(Debug, Default)]
pub struct Studies {
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    rates: Vec<f64>,
    setups: Vec<f64>,
    rss: Vec<f64>,
}

impl Studies {
    /// One study: its walks, wall time to the result, set-up time and
    /// peak resident set size.
    pub fn record(&mut self, traced: bool, walks: u64, wall_s: f64, setup_s: f64, peak_mb: f64) {
        if traced {
            self.traced_s.push(wall_s);
        } else {
            self.plain_s.push(wall_s);
            self.rates.push(walks as f64 / wall_s);
            self.setups.push(setup_s);
            self.rss.push(peak_mb);
        }
    }

    /// Median traced study wall time.
    pub fn traced_median(&self) -> Option<f64> {
        median(&self.traced_s)
    }

    /// `walks_per_s`, `study_ms`, `setup_s` and `peak_rss_mb` (medians
    /// over untraced studies), and in a traced process
    /// `telemetry.overhead`.
    pub fn finish(&self, out: &mut Outcome, trace: bool) {
        out.e2e_median("walks_per_s", &self.rates, "1/s");
        let study_ms: Vec<f64> = self.plain_s.iter().map(|s| s * 1e3).collect();
        out.e2e_median("study_ms", &study_ms, "ms");
        out.e2e_median("setup_s", &self.setups, "s");
        out.e2e_median("peak_rss_mb", &self.rss, "MB");
        if trace {
            out.overhead(&self.traced_s, &self.plain_s);
        }
    }
}

/// The study's serving settings on a loopback port the system picks.
pub fn serve_config(study: &StudyConfig) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: study.serve.workers,
        max_inflight: study.serve.max_inflight,
        keep_alive_ms: study.serve.keep_alive_ms,
        debug_delay_ms: 0,
    }
}

/// Peak resident set size of this process since the last reset
/// ([`Outcome::reset_peak_rss`]), in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn written_bytes() -> f64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0.0)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// A telemetry counter (absent counters read 0).
pub fn counter(report: &RunReport, name: &str) -> u64 {
    report
        .deterministic
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Walks the crawler layer itself counted: every walk ends in exactly one
/// `crawl.walk.terminated{kind=...}` event.
pub fn telemetry_walks(report: &RunReport) -> u64 {
    report
        .deterministic
        .events
        .iter()
        .filter(|(k, _)| k.starts_with("crawl.walk.terminated{"))
        .map(|(_, v)| *v)
        .sum()
}
