//! `batch`: generate → `StudyRun::run` → `run_pipeline` → `full_report`
//! → `ServingIndex::from_report`, with no checkpoint or publish sinks.
//! The control workload for sink, wire and HTTP changes.

use std::time::Instant;

use cc_analysis::report::full_report;
use cc_crawler::{StudyRun, Walker};
use cc_serve::ServingIndex;
use cc_util::ProgressCounters;
use cc_web::generate;

use crate::common::{counter, peak_rss_mb, telemetry_walks, Ctx, Outcome, Shape, Studies, SEEDERS};

/// The per-layer metrics `batch` produces.
pub const LAYERS: &[&str] = &[
    "web.generate_s",
    "crawler.run_s",
    "crawler.walks",
    "crawler.steps",
    "crawler.walk_ms",
    "core.pipeline_s",
    "core.findings",
    "analysis.report_s",
    "serve.index_build_s",
    "serve.body_bytes",
    "telemetry.overhead",
    "trace.uncovered_frac",
];

pub fn shape(ctx: &Ctx) -> Shape {
    Shape {
        walks: SEEDERS,
        crawl_threads: ctx.crawl_workers,
        every: 0,
        crawl_seed: "one per study, drawn from --seed",
        with: "no sinks".into(),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let t = &ctx.tracer;
    let mut out = Outcome::default();
    let mut studies = Studies::default();
    let (mut walks_seen, mut steps_seen, mut walk_ms, mut findings, mut body_bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    // The last study and the /report body it served, for the second path.
    let mut last = None;
    let started = Instant::now();
    let mut run = 0u64;
    while ctx.more(run, started) {
        let study = ctx.study(ctx.crawl_seed(run), SEEDERS, ctx.crawl_workers);
        let it = ctx.iteration(run);
        out.reset_peak_rss();
        let root = t.begin("batch.study", None);
        let progress = ProgressCounters::new(study.workers);
        let (web, gen) = t.time("web.generate", Some(root.id()), || generate(&study.web));
        let (crawled, crawl_d) = t.time("crawler.run", Some(root.id()), || {
            StudyRun::new(&web, &study).progress(&progress).run()
        });
        let Ok(dataset) = crawled else {
            root.end();
            it.finish(t);
            out.check(format!("study {run} crawls"), false, format!("{crawled:?}"));
            run += 1;
            continue;
        };
        let (output, _) = t.time("core.pipeline", Some(root.id()), || {
            cc_core::run_pipeline(&dataset)
        });
        let (report, _) = t.time("analysis.report", Some(root.id()), || {
            full_report(&web, &dataset, &output)
        });
        let (index, _) = t.time("serve.index_build", Some(root.id()), || {
            ServingIndex::from_report(&report, &dataset, &output)
        });
        let wall = root.end().as_secs_f64();
        let peak = peak_rss_mb();
        let traced = it.traced;
        let telemetry = it.finish(t);

        // Untimed: conservation and output checks for this iteration.
        let walks = dataset.walks.len() as u64;
        if let Some(tel) = &telemetry {
            walks_seen.push(telemetry_walks(tel) as f64);
            steps_seen.push(counter(tel, "crawl.steps.recorded") as f64);
            // Crawl-thread milliseconds per walk.
            walk_ms.push(crawl_d.as_secs_f64() * 1e3 * study.workers as f64 / walks.max(1) as f64);
        }
        out.walks_conserved(run, progress.snapshot().walks, walks, SEEDERS, telemetry);
        match index {
            Ok(index) => {
                findings.push(index.findings() as f64);
                body_bytes.push(index.routes().map(|(_, b)| b.body.len() as f64).sum());
                last = index.lookup("/report").map(|b| (study, b.body.clone()));
            }
            Err(e) => out.check(format!("study {run}: index builds"), false, e.to_string()),
        }
        studies.record(traced, walks, wall, gen.as_secs_f64(), peak);
        run += 1;
    }

    // Second code path: a serial `Walker` crawl of the last study on a
    // fresh world must render the same report bytes.
    match &last {
        Some((study, served)) => {
            let web = generate(&study.web);
            let serial = Walker::new(&web, study.crawl_config()).crawl();
            let output = cc_core::run_pipeline(&serial);
            let reference = serde_json::to_string(&full_report(&web, &serial, &output));
            out.check(
                "report bytes = serial Walker crawl's",
                reference.as_ref().is_ok_and(|r| r == served),
                format!("{} bytes served", served.len()),
            );
        }
        None => out.check("a batch study served its report", false, ""),
    }

    studies.finish(&mut out, ctx.trace);
    if ctx.trace {
        out.layer_span(t, "web.generate_s", "web.generate");
        out.layer_span(t, "crawler.run_s", "crawler.run");
        out.layer("crawler.walks", &walks_seen, "count");
        out.layer("crawler.steps", &steps_seen, "count");
        out.layer("crawler.walk_ms", &walk_ms, "ms");
        out.layer_span(t, "core.pipeline_s", "core.pipeline");
        out.layer("core.findings", &findings, "count");
        out.layer_span(t, "analysis.report_s", "analysis.report");
        out.layer_span(t, "serve.index_build_s", "serve.index_build");
        out.layer("serve.body_bytes", &body_bytes, "bytes");
        out.uncovered(t, "batch.study");
    }
    out
}
