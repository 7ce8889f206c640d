//! `live`: the shape of `crawl --checkpoint --serve-addr`. One crawl
//! worker, an on-disk checkpoint and an `IndexPublisher` every 25 walks,
//! a `Server` on the publisher's `IndexHandle`, and one reader thread
//! reading `/healthz` and `/report` at a fixed light rate.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cc_analysis::report::full_report;
use cc_crawler::{
    CheckpointPolicy, CrawlCheckpoint, PublishPolicy, SnapshotSink, StudyConfig, StudyRun,
};
use cc_serve::{
    etag_for, IncrementalIndexBuilder, IndexHandle, IndexPublisher, Server, ServingIndex,
};
use cc_util::ProgressCounters;
use cc_web::{generate, TruthLog};
use serde::Deserialize;

use crate::common::{
    counter, peak_rss_mb, serve_config, written_bytes, Ctx, Outcome, Rng, Shape, Studies, EVERY,
    LIVE_WALKS,
};
use crate::load::{drive, Client, Driver, Reply, Req, Schedule};
use crate::stats::median;

/// The reader's pace: one read every 5 ms (200/s). The rate is set by
/// the sample count, not by a traffic model: half the reads are
/// `/healthz`, and a run must give the staleness p99 the thousand of
/// them that the percentile rule asks for, while staying light beside
/// the one crawl thread.
const READ_INTERVAL: Duration = Duration::from_millis(5);
/// `/healthz` and `/report` weights of the reader: those of cc-loadgen's
/// `mixed` task set (`crates/loadgen/src/mix.rs`).
const READ_MIX: [u64; 2] = [10, 10];

/// The per-layer metrics `live` produces.
pub const LAYERS: &[&str] = &[
    "web.generate_s",
    "crawler.run_s",
    "crawler.walks",
    "crawler.steps",
    "crawler.walk_ms",
    "crawler.sink_tax_s",
    "crawler.snapshots",
    "crawler.snapshot_gap_ms_p50",
    "checkpoint.write_amp",
    "checkpoint.encode_s",
    "checkpoint.decode_s",
    "checkpoint.truth_encode_s",
    "checkpoint.truth_decode_s",
    "checkpoint.bytes",
    "checkpoint.truth_bytes",
    "core.pipeline_s",
    "core.findings",
    "analysis.report_s",
    "serve.index_build_s",
    "serve.fold_s",
    "serve.finish_s",
    "serve.epochs",
    "serve.coalesced",
    "serve.body_bytes",
    "serve.requests",
    "serve.shed",
    "load.late_ms_p99",
    "telemetry.overhead",
    "trace.uncovered_frac",
];

pub fn shape() -> Shape {
    Shape {
        walks: LIVE_WALKS,
        crawl_threads: 1,
        every: EVERY,
        crawl_seed: "one per study, drawn from --seed",
        with: format!(
            "on-disk checkpoint, IndexPublisher and Server; one reader, open loop at {}/s",
            1_000 / READ_INTERVAL.as_millis()
        ),
    }
}

/// The walk count of a `/healthz` body.
#[derive(Deserialize)]
struct Healthz {
    walks: usize,
}

/// The reader thread: reads the live server and times how stale each
/// answer is against the crawl's own walk-completion counters.
struct Reader<'a> {
    progress: &'a ProgressCounters,
    rng: Rng,
    /// When the k-th walk (0-based) was seen completed.
    completions: Vec<Instant>,
    report_etag: Option<String>,
    staleness_ms: Vec<f64>,
    wrong: Vec<String>,
}

impl Reader<'_> {
    fn fail(&mut self, why: String) -> bool {
        if self.wrong.len() < 5 {
            self.wrong.push(why);
        }
        false
    }
}

impl Driver for Reader<'_> {
    fn next(&mut self, _slot: u64) -> Req {
        if self.rng.weighted(&READ_MIX) == 0 {
            return Req {
                path: "/healthz".into(),
                if_none_match: None,
            };
        }
        // Poll like cc-loadgen's caching client: revalidate with the last
        // seen ETag about a third of the time.
        let revalidate = self.rng.below(3) == 0;
        Req {
            path: "/report".into(),
            if_none_match: self.report_etag.clone().filter(|_| revalidate),
        }
    }

    fn check(&mut self, req: &Req, reply: &Reply, done: Instant) -> bool {
        self.idle();
        match (req.path.as_str(), reply.status) {
            ("/healthz", 200) => {
                if reply.etag.as_deref() != Some(&etag_for(reply.text())) {
                    return self.fail(format!(
                        "/healthz body does not match its ETag: {}",
                        reply.text()
                    ));
                }
                let Ok(Healthz { walks }) = serde_json::from_str(reply.text()) else {
                    return self.fail(format!("/healthz without a walk count: {}", reply.text()));
                };
                // An epoch can only hold walks that have completed.
                if walks > self.completions.len() {
                    return self.fail(format!(
                        "epoch holds {walks} walks, {} completed",
                        self.completions.len()
                    ));
                }
                let stale = self
                    .completions
                    .get(walks)
                    .map_or(0.0, |t| (done - *t).as_secs_f64() * 1e3);
                self.staleness_ms.push(stale);
                true
            }
            ("/report", 200) => {
                if reply.etag.as_deref() != Some(&etag_for(reply.text())) {
                    return self.fail("/report body does not match its ETag".into());
                }
                self.report_etag = reply.etag.clone();
                true
            }
            // A 304 only after an If-None-Match naming the served ETag.
            ("/report", 304) if req.if_none_match.is_some() && reply.etag == req.if_none_match => {
                true
            }
            (path, status) => self.fail(format!(
                "{path} answered {status} (If-None-Match {:?})",
                req.if_none_match
            )),
        }
    }

    fn idle(&mut self) {
        let walks = self.progress.snapshot().walks as usize;
        while self.completions.len() < walks {
            self.completions.push(Instant::now());
        }
    }

    fn wrong(&self) -> &[String] {
        &self.wrong
    }
}

/// Counts the snapshots the executor hands the publisher and when
/// (traced iterations only), then passes them on.
struct CountingSink {
    inner: Arc<IndexPublisher>,
    at: Mutex<Vec<Instant>>,
}

impl SnapshotSink for CountingSink {
    fn publish(&self, snapshot: CrawlCheckpoint) {
        self.at
            .lock()
            .expect("snapshot log poisoned")
            .push(Instant::now());
        self.inner.publish(snapshot);
    }
}

/// Per-layer readings of the traced iterations.
#[derive(Default)]
struct Layers {
    sink_free_s: Vec<f64>,
    sink_tax_s: Vec<f64>,
    walks: Vec<f64>,
    steps: Vec<f64>,
    finish_s: Vec<f64>,
    write_amp: Vec<f64>,
    snapshots: Vec<f64>,
    gaps: Vec<f64>,
    epochs: Vec<f64>,
    coalesced: Vec<f64>,
    requests: Vec<f64>,
    shed: Vec<f64>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let t = &ctx.tracer;
    let ck_path = ctx.scratch("live-checkpoint");
    let mut out = Outcome::default();
    let mut studies = Studies::default();
    let mut layers = Layers::default();
    let (mut latency, mut late, mut staleness) = (vec![], vec![], vec![]);
    let mut last = None;
    let started = Instant::now();
    let mut run = 0u64;
    while ctx.more(run, started) {
        let mut study = ctx.study(ctx.crawl_seed(run), LIVE_WALKS, 1);
        study.checkpoint = Some(CheckpointPolicy {
            path: ck_path.display().to_string(),
            every: EVERY,
        });
        let _ = std::fs::remove_file(&ck_path);
        let it = ctx.iteration(run);
        out.reset_peak_rss();
        let wrote_before = written_bytes();
        let root = t.begin("live.study", None);

        // Set-up: the live server's cold start, up to its first answer.
        let setup = t.begin("live.setup", Some(root.id()));
        let (builder, _) = t.time("serve.builder_new", Some(setup.id()), || {
            IncrementalIndexBuilder::new(&study)
        });
        let (warming, _) = t.time("serve.warming", Some(setup.id()), || builder.warming());
        let warming = warming.expect("the warming index builds");
        let handle = IndexHandle::new(warming);
        let publisher = Arc::new(IndexPublisher::start(builder, handle.clone()));
        let (server, _) = t.time("serve.start", Some(setup.id()), || {
            Server::start(handle.clone(), serve_config(&study))
        });
        let server = server.expect("the live server starts");
        let (probe, _) = t.time("load.probe", Some(setup.id()), || {
            let mut c = Client::connect(server.addr())?;
            c.get("/healthz", None).map(|r| (c, r))
        });
        let setup_s = setup.end().as_secs_f64();
        let (mut client, probe) = probe.expect("the live server answers /healthz");
        out.check(
            format!("study {run}: warming /healthz"),
            probe.status == 200,
            probe.text(),
        );

        let progress = ProgressCounters::new(1);
        let counting = Arc::new(CountingSink {
            inner: Arc::clone(&publisher),
            at: Mutex::new(Vec::new()),
        });
        let sink: Arc<dyn SnapshotSink> = if it.traced {
            counting.clone()
        } else {
            Arc::clone(&publisher) as Arc<dyn SnapshotSink>
        };
        let stop = AtomicBool::new(false);
        let mut reader = Reader {
            progress: &progress,
            rng: Rng::new(ctx.crawl_seed(run) ^ 0x5EAD),
            completions: Vec::new(),
            report_etag: None,
            staleness_ms: Vec::new(),
            wrong: Vec::new(),
        };
        let (crawled, crawl_s, finish_s, wall, outcomes) = std::thread::scope(|s| {
            let reading = s.spawn(|| {
                let now = Instant::now();
                let sched = Schedule {
                    start: now,
                    end: now + Duration::from_secs(3600),
                    interval: READ_INTERVAL,
                    conn: 0,
                    conns: 1,
                };
                drive(&mut client, &mut reader, sched, &stop)
            });
            let (web, _) = t.time("web.generate", Some(root.id()), || generate(&study.web));
            let (crawled, crawl_d) = t.time("crawler.run_live", Some(root.id()), || {
                StudyRun::new(&web, &study)
                    .progress(&progress)
                    .publish(PublishPolicy::new(EVERY, sink))
                    .run()
            });
            let (finished, finish_d) =
                t.time("serve.finish", Some(root.id()), || publisher.finish());
            let wall = root.end().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            let outcomes = reading.join().expect("reader thread panicked");
            let crawled = crawled.and_then(|d| finished.map(|()| (d, web)));
            (
                crawled,
                crawl_d.as_secs_f64(),
                finish_d.as_secs_f64(),
                wall,
                outcomes,
            )
        });
        let peak = peak_rss_mb();
        // Hang up first: a server worker waits out the keep-alive timeout
        // on an open idle connection before it drains.
        let http_bytes = (client.tx_bytes + client.rx_bytes) as f64;
        drop(client);
        let report = server.shutdown();
        let traced = it.traced;
        let telemetry = it.finish(t);

        // Conservation: client-counted requests = the server's own count.
        let client_count = 1 + outcomes.len() as u64;
        let served = counter(&report, "serve.requests");
        out.check(
            format!("study {run}: client requests {client_count} = serve.requests {served}"),
            client_count == served,
            "",
        );
        let bad = outcomes.iter().filter(|o| !o.ok).count() as u64;
        out.attempted += outcomes.len() as u64;
        out.failed += bad;
        if bad > 0 {
            out.check(
                format!("study {run}: live reads"),
                false,
                reader.wrong.join("; "),
            );
        }
        let (dataset, web) = match crawled {
            Ok(v) => v,
            Err(e) => {
                out.check(
                    format!("study {run}: crawl and publish"),
                    false,
                    e.to_string(),
                );
                run += 1;
                continue;
            }
        };
        let walks = dataset.walks.len() as u64;
        out.walks_conserved(run, progress.snapshot().walks, walks, LIVE_WALKS, telemetry);
        let final_epoch = handle.current();
        out.check(
            format!("study {run}: final epoch complete"),
            final_epoch.complete() && final_epoch.walks() == LIVE_WALKS,
            format!(
                "epoch {} holds {} walks",
                final_epoch.epoch(),
                final_epoch.walks()
            ),
        );

        if traced {
            layers.finish_s.push(finish_s);
            let at = counting.at.lock().expect("snapshot log poisoned").clone();
            layers.snapshots.push(at.len() as f64);
            layers
                .gaps
                .extend(at.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
            layers.epochs.push(handle.epoch() as f64);
            layers
                .coalesced
                .push(at.len() as f64 - handle.epoch() as f64);
            layers.requests.push(served as f64);
            layers.shed.push(counter(&report, "serve.shed") as f64);
            let ck_bytes = std::fs::metadata(&ck_path).map_or(0.0, |m| m.len() as f64);
            if ck_bytes > 0.0 {
                layers
                    .write_amp
                    .push((written_bytes() - wrote_before - http_bytes) / ck_bytes);
            }
            sink_free_crawl(ctx, &mut out, &study, crawl_s, &mut layers);
        } else {
            latency.extend(outcomes.iter().map(|o| o.latency_ms));
            staleness.extend(reader.staleness_ms.iter().copied());
        }
        studies.record(traced, walks, wall, setup_s, peak);
        late.extend(outcomes.iter().map(|o| o.late_ms));
        last = Some((study, dataset, web, final_epoch));
        run += 1;
    }

    let Some((study, dataset, web, final_epoch)) = last else {
        out.check("a live study completed", false, "");
        return out;
    };
    // Second code path: the final epoch equals an offline build of the
    // returned dataset, route by route.
    let (output, pipeline_d) = t.time("core.pipeline", None, || cc_core::run_pipeline(&dataset));
    let (report, report_d) = t.time("analysis.report", None, || {
        full_report(&web, &dataset, &output)
    });
    let (offline, build_d) = t.time("serve.index_build", None, || {
        ServingIndex::from_report(&report, &dataset, &output)
    });
    match offline {
        Ok(offline) => {
            let live: Vec<(&str, &str)> = final_epoch
                .routes()
                .map(|(p, b)| (p, b.body.as_str()))
                .collect();
            let off: Vec<(&str, &str)> = offline
                .routes()
                .map(|(p, b)| (p, b.body.as_str()))
                .collect();
            out.check(
                "final epoch = offline ServingIndex::build",
                live == off,
                format!("{} routes", live.len()),
            );
        }
        Err(e) => out.check(
            "final epoch = offline ServingIndex::build",
            false,
            e.to_string(),
        ),
    }
    // ...and the on-disk checkpoint reloads to the same dataset bytes.
    let reloaded = CrawlCheckpoint::load(&ck_path).map(|ck| ck.partial.to_json().ok());
    let same = matches!((&reloaded, dataset.to_json()), (Ok(Some(a)), Ok(b)) if *a == b);
    out.check("on-disk checkpoint reloads to the dataset bytes", same, "");

    studies.finish(&mut out, ctx.trace);
    out.e2e_percentile("read_p50_ms", &latency, 0.5);
    out.e2e_percentile("read_p99_ms", &latency, 0.99);
    out.e2e_percentile("staleness_p50_ms", &staleness, 0.5);
    out.e2e_percentile("staleness_p99_ms", &staleness, 0.99);

    if ctx.trace {
        checkpoint_extras(ctx, &mut out, &study, &ck_path);
        if let (Some(wall), Some(free), Some(tax), Some(fold)) = (
            studies.traced_median(),
            median(&layers.sink_free_s),
            median(&layers.sink_tax_s),
            median(&layers.finish_s),
        ) {
            out.notes.push(format!(
                "live wall {wall:.3} s (traced median) = sink-free crawl {free:.3} s + crawler.sink_tax_s {tax:.3} s \
                 + final fold {fold:.3} s + the rest {:.3} s (server set-up, world generation)",
                wall - free - tax - fold
            ));
        }
        out.layer_span(t, "web.generate_s", "web.generate");
        out.layer("crawler.run_s", &layers.sink_free_s, "s");
        out.layer("crawler.walks", &layers.walks, "count");
        out.layer("crawler.steps", &layers.steps, "count");
        let walk_ms: Vec<f64> = layers
            .sink_free_s
            .iter()
            .zip(&layers.walks)
            .map(|(s, w)| s * 1e3 / w.max(1.0))
            .collect();
        out.layer("crawler.walk_ms", &walk_ms, "ms");
        out.layer("crawler.sink_tax_s", &layers.sink_tax_s, "s");
        out.layer("crawler.snapshots", &layers.snapshots, "count");
        out.layer("crawler.snapshot_gap_ms_p50", &layers.gaps, "ms");
        out.layer("checkpoint.write_amp", &layers.write_amp, "ratio");
        out.layer_exact("core.pipeline_s", pipeline_d.as_secs_f64(), "s");
        out.layer_exact("core.findings", final_epoch.findings() as f64, "count");
        out.layer_exact("analysis.report_s", report_d.as_secs_f64(), "s");
        out.layer_exact("serve.index_build_s", build_d.as_secs_f64(), "s");
        out.layer("serve.finish_s", &layers.finish_s, "s");
        out.layer("serve.epochs", &layers.epochs, "count");
        out.layer("serve.coalesced", &layers.coalesced, "count");
        let body: f64 = final_epoch.routes().map(|(_, b)| b.body.len() as f64).sum();
        out.layer_exact("serve.body_bytes", body, "bytes");
        out.layer("serve.requests", &layers.requests, "count");
        out.layer("serve.shed", &layers.shed, "count");
        out.layer_percentile("load.late_ms_p99", &late, 0.99);
        out.uncovered(t, "live.study");
    }
    let _ = std::fs::remove_file(&ck_path);
    out
}

/// Extra calls of a traced iteration: the same study crawled without
/// sinks, for the crawler layer and the sink tax (`live_crawl_s` less the
/// sink-free crawl).
fn sink_free_crawl(
    ctx: &Ctx,
    out: &mut Outcome,
    study: &StudyConfig,
    live_crawl_s: f64,
    layers: &mut Layers,
) {
    let t = &ctx.tracer;
    let _session = cc_telemetry::Session::start();
    t.set_enabled(true);
    let mut sink_free = study.clone();
    sink_free.checkpoint = None;
    let web = generate(&sink_free.web);
    let (dataset, took) = t.time("crawler.run", None, || {
        StudyRun::new(&web, &sink_free).run()
    });
    t.set_enabled(false);
    match dataset {
        Ok(d) => {
            layers.sink_free_s.push(took.as_secs_f64());
            layers.sink_tax_s.push(live_crawl_s - took.as_secs_f64());
            layers.walks.push(d.walks.len() as f64);
            layers.steps.push(d.total_steps() as f64);
        }
        Err(e) => out.check("sink-free crawl of a live study", false, e.to_string()),
    }
}

/// Extra calls of a traced process: a re-encode, re-decode and re-fold of
/// the last study's final checkpoint.
fn checkpoint_extras(ctx: &Ctx, out: &mut Outcome, study: &StudyConfig, ck_path: &Path) {
    let t = &ctx.tracer;
    let _session = cc_telemetry::Session::start();
    t.set_enabled(true);
    t.set_run(u64::MAX);
    let (text, _) = t.time("checkpoint.read", None, || std::fs::read_to_string(ck_path));
    let ck = text.ok().and_then(|text| {
        let (ck, decode) = t.time("checkpoint.decode", None, || {
            CrawlCheckpoint::from_json(&text)
        });
        ck.ok().map(|ck| (ck, text.len(), decode))
    });
    let Some((ck, bytes, decode)) = ck else {
        t.set_enabled(false);
        out.check("final checkpoint reads and decodes", false, "");
        return;
    };
    checkpoint_layers(ctx, out, &ck, bytes, decode);
    let mut builder = IncrementalIndexBuilder::new(study);
    let (folded, fold) = t.time("serve.fold", None, || builder.fold(&ck));
    t.set_enabled(false);
    out.check(
        "re-fold of the final snapshot yields an epoch",
        matches!(folded, Ok(Some(_))),
        "",
    );
    out.layer_exact("serve.fold_s", fold.as_secs_f64(), "s");
}

/// `checkpoint.*`: re-encode the checkpoint and its truth ledger, and
/// decode the ledger alone (`decode` is the caller's whole-file decode).
pub fn checkpoint_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    ck: &CrawlCheckpoint,
    bytes: usize,
    decode: Duration,
) {
    let t = &ctx.tracer;
    let (encoded, encode) = t.time("checkpoint.encode", None, || ck.to_json());
    out.check(
        "checkpoint re-encodes to the bytes it was read from",
        encoded.map(|e| e.len()).ok() == Some(bytes),
        "",
    );
    let (truth, truth_encode) = t.time("checkpoint.truth_encode", None, || {
        serde_json::to_string(&ck.truth)
    });
    let truth = truth.unwrap_or_default();
    let (back, truth_decode) = t.time("checkpoint.truth_decode", None, || {
        serde_json::from_str::<TruthLog>(&truth)
    });
    out.check(
        "truth ledger round-trips",
        back.map(|b| b.len() == ck.truth.len()).unwrap_or(false),
        "",
    );
    out.layer_exact("checkpoint.encode_s", encode.as_secs_f64(), "s");
    out.layer_exact("checkpoint.decode_s", decode.as_secs_f64(), "s");
    out.layer_exact("checkpoint.truth_encode_s", truth_encode.as_secs_f64(), "s");
    out.layer_exact("checkpoint.truth_decode_s", truth_decode.as_secs_f64(), "s");
    out.layer_exact("checkpoint.bytes", bytes as f64, "bytes");
    out.layer_exact("checkpoint.truth_bytes", truth.len() as f64, "bytes");
}
