//! `gaggle`: a manager plus two in-process loopback workers, each with
//! one crawl thread and 25-walk leases, on the batch study's shape. The
//! only workload that runs cc-gaggle framing, shard shipping and merging.

use std::sync::Arc;
use std::time::Instant;

use cc_crawler::{crawl_study, StudyConfig, StudyRun};
use cc_gaggle::{run_worker, GaggleConfig, Manager, ManagerOptions, WorkerConfig};
use cc_util::ProgressCounters;
use cc_web::generate;

use crate::common::{peak_rss_mb, Ctx, Outcome, Shape, Studies, EVERY, SEEDERS};

/// Gaggle workers (in-process, over loopback TCP).
const WORKERS: usize = 2;

/// The per-layer metrics `gaggle` produces.
pub const LAYERS: &[&str] = &[
    "web.generate_s",
    "crawler.run_s",
    "crawler.walks",
    "crawler.steps",
    "crawler.walk_ms",
    "gaggle.wire_bytes_per_walk",
    "gaggle.frames",
    "gaggle.leases_issued",
    "gaggle.leases_reissued",
    "gaggle.vs_batch",
    "telemetry.overhead",
    "trace.uncovered_frac",
];

pub fn shape() -> Shape {
    Shape {
        walks: SEEDERS,
        crawl_threads: 1,
        every: EVERY,
        crawl_seed: "one per study, drawn from --seed",
        with: format!("{WORKERS} in-process loopback workers"),
    }
}

/// Per-layer readings of the traced iterations.
#[derive(Default)]
struct Layers {
    wire: Vec<f64>,
    frames: Vec<f64>,
    issued: Vec<f64>,
    reissued: Vec<f64>,
    crawl_s: Vec<f64>,
    walks: Vec<f64>,
    steps: Vec<f64>,
    walk_ms: Vec<f64>,
    vs_batch: Vec<f64>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let t = &ctx.tracer;
    let gaggle = GaggleConfig {
        bind: "127.0.0.1:0".into(),
        workers_expected: WORKERS,
        lease_walks: EVERY,
        ..GaggleConfig::default()
    };
    let mut out = Outcome::default();
    let mut studies = Studies::default();
    let mut layers = Layers::default();
    let mut last = None;
    let started = Instant::now();
    let mut run = 0u64;
    while ctx.more(run, started) {
        let study = ctx.study(ctx.crawl_seed(run), SEEDERS, 1);
        let it = ctx.iteration(run);
        out.reset_peak_rss();
        let root = t.begin("gaggle.study", None);
        let progress = Arc::new(ProgressCounters::new(WORKERS));
        let options = ManagerOptions {
            resume: None,
            progress: Some(Arc::clone(&progress)),
        };
        let (manager, setup) = t.time("gaggle.manager_start", Some(root.id()), || {
            Manager::start(&study, gaggle.clone(), options)
        });
        let manager = match manager {
            Ok(m) => m,
            Err(e) => {
                root.end();
                it.finish(t);
                out.check(format!("study {run}: manager starts"), false, e.to_string());
                run += 1;
                continue;
            }
        };
        let addr = manager.addr().to_string();
        let root_id = root.id();
        let (joined, summaries, wall) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let cfg = WorkerConfig {
                        connect: addr.clone(),
                        label: format!("perfbench-{w}"),
                    };
                    s.spawn(move || {
                        t.time("gaggle.worker", Some(root_id), || run_worker(&cfg))
                            .0
                    })
                })
                .collect();
            let (joined, _) = t.time("gaggle.join", Some(root_id), || manager.join());
            let wall = root.end().as_secs_f64();
            let summaries: Vec<_> = workers
                .into_iter()
                .map(|w| w.join().expect("gaggle worker panicked"))
                .collect();
            (joined, summaries, wall)
        });
        let peak = peak_rss_mb();
        let traced = it.traced;
        let telemetry = it.finish(t);

        let outcome = match joined {
            Ok(o) => o,
            Err(e) => {
                out.check(
                    format!("study {run}: manager assembles"),
                    false,
                    e.to_string(),
                );
                run += 1;
                continue;
            }
        };
        let walks = outcome.dataset.walks.len() as u64;
        let stats = &outcome.stats;
        // Every lease issued is an operation; a re-issued or expired one
        // is a failed one.
        out.attempted += stats.leases_issued;
        out.failed += stats.leases_reissued + stats.leases_expired;
        let worker_walks: u64 = summaries
            .iter()
            .map(|s| s.as_ref().map_or(0, |s| s.walks))
            .sum();
        let worker_errors: Vec<String> = summaries
            .iter()
            .filter_map(|s| s.as_ref().err())
            .map(|e| e.to_string())
            .collect();
        out.check(
            format!("study {run}: workers finish"),
            worker_errors.is_empty(),
            worker_errors.join("; "),
        );
        out.check(
            format!(
                "study {run}: worker walks {worker_walks} = assembled {walks}, no lease re-issued"
            ),
            worker_walks == walks && stats.leases_reissued == 0 && stats.leases_expired == 0,
            format!(
                "reissued {} expired {}",
                stats.leases_reissued, stats.leases_expired
            ),
        );
        out.walks_conserved(run, progress.snapshot().walks, walks, SEEDERS, telemetry);

        if traced {
            layers
                .wire
                .push((stats.bytes_sent + stats.bytes_received) as f64 / walks.max(1) as f64);
            layers
                .frames
                .push((stats.frames_sent + stats.frames_received) as f64);
            layers.issued.push(stats.leases_issued as f64);
            layers.reissued.push(stats.leases_reissued as f64);
            sink_free_crawl(ctx, &mut out, &study, walks as f64 / wall, &mut layers);
        }
        studies.record(traced, walks, wall, setup.as_secs_f64(), peak);
        last = Some((study, outcome.dataset));
        run += 1;
    }

    // Second code path: a single-process crawl of the last study on a
    // fresh world gives the same dataset bytes.
    match &last {
        Some((study, assembled)) => {
            let web = generate(&study.web);
            let solo = crawl_study(&web, study)
                .map_err(|e| e.to_string())
                .and_then(|d| d.to_json().map_err(|e| e.to_string()));
            let same = matches!((&solo, assembled.to_json()), (Ok(a), Ok(b)) if *a == b);
            out.check(
                "assembled dataset bytes = single-process crawl_study",
                same,
                "",
            );
        }
        None => out.check("a gaggle study assembled", false, ""),
    }

    studies.finish(&mut out, ctx.trace);
    if ctx.trace {
        out.layer_span(t, "web.generate_s", "web.generate");
        out.layer("crawler.run_s", &layers.crawl_s, "s");
        out.layer("crawler.walks", &layers.walks, "count");
        out.layer("crawler.steps", &layers.steps, "count");
        out.layer("crawler.walk_ms", &layers.walk_ms, "ms");
        out.layer("gaggle.wire_bytes_per_walk", &layers.wire, "bytes");
        out.layer("gaggle.frames", &layers.frames, "count");
        out.layer("gaggle.leases_issued", &layers.issued, "count");
        out.layer("gaggle.leases_reissued", &layers.reissued, "count");
        out.layer("gaggle.vs_batch", &layers.vs_batch, "ratio");
        out.uncovered(t, "gaggle.study");
    }
    out
}

/// Extra calls of a traced iteration: the same study crawled in one
/// process without sinks, on as many crawl threads as the gaggle has
/// workers, for the crawler layer and `gaggle.vs_batch`.
fn sink_free_crawl(
    ctx: &Ctx,
    out: &mut Outcome,
    study: &StudyConfig,
    gaggle_rate: f64,
    layers: &mut Layers,
) {
    let t = &ctx.tracer;
    let _session = cc_telemetry::Session::start();
    t.set_enabled(true);
    let mut single = study.clone();
    single.workers = WORKERS;
    let whole = Instant::now();
    let (web, _) = t.time("web.generate", None, || generate(&single.web));
    let (dataset, took) = t.time("crawler.run", None, || StudyRun::new(&web, &single).run());
    let whole = whole.elapsed().as_secs_f64();
    t.set_enabled(false);
    match dataset {
        Ok(d) => {
            let walks = d.walks.len() as f64;
            layers.crawl_s.push(took.as_secs_f64());
            layers.walks.push(walks);
            layers.steps.push(d.total_steps() as f64);
            layers
                .walk_ms
                .push(took.as_secs_f64() * 1e3 * WORKERS as f64 / walks.max(1.0));
            layers.vs_batch.push(gaggle_rate / (walks / whole));
        }
        Err(e) => out.check("sink-free crawl of a gaggle study", false, e.to_string()),
    }
}
