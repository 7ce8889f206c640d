//! `serve`: a finished checkpoint of a batch-shaped study, served
//! read-only. Set-up is the cold start of `serve --load` (checkpoint load,
//! index build, `Server::start` bound, first answer), repeated and
//! reported as a median. The load is a seeded mix over the catalog's
//! routes on two keep-alive connections: open loop at a fixed rate, then
//! open loop up a ladder of rates to find the highest one that keeps the
//! read p99 under [`P99_LIMIT_MS`] without a growing backlog.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_analysis::report::full_report;
use cc_crawler::{CrawlCheckpoint, StudyRun};
use cc_serve::{CachedBody, ServeConfig, Server, ServerHandle, ServingIndex, SmugglerRole};
use cc_web::generate;

use crate::common::{
    counter, peak_rss_mb, serve_config, Ctx, Metric, Outcome, Rng, Shape, SEEDERS, WORLD_SEED,
};
use crate::load::{open_loop, tail_late_ms, Client, Driver, Outcome as Read, Reply, Req};
use crate::stats::percentile;

/// Cold starts per process; `setup_s` is their median.
const COLD_STARTS: u64 = 3;
/// Keep-alive connections (and generator threads).
const CONNECTIONS: usize = 2;
/// Offered rate of the fixed-rate phase that `read_p50_ms` and
/// `read_p99_ms` come from: 8,000 requests per second.
pub const FIXED_RATE: f64 = 8_000.0;
/// The latency limit of `max_rate_rps`: read p99 at or under 5 ms. On a
/// shared 2-vCPU host a generator thread's own wake-up after a 1 ms
/// sleep already reaches ~4 ms at p99, so a tighter limit would measure
/// the host's scheduler rather than the server.
pub const P99_LIMIT_MS: f64 = 5.0;
/// Offered rates tried, in order, by the `max_rate_rps` search.
const LADDER: [f64; 13] = [
    1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 16_000.0,
    20_000.0, 24_000.0, 32_000.0,
];

/// The per-layer metrics `serve` produces.
pub const LAYERS: &[&str] = &[
    "web.generate_s",
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
    "serve.epochs",
    "serve.body_bytes",
    "serve.requests",
    "serve.shed",
    "load.late_ms_p99",
    "telemetry.overhead",
    "trace.uncovered_frac",
];

/// Crawl seed of the served study. It stays fixed, like the world, so the
/// checkpoint's size does not move set-up time and memory from seed to
/// seed; `--seed` draws the request mix.
const SERVED_SEED: u64 = WORLD_SEED;

pub fn shape(ctx: &Ctx) -> Shape {
    Shape {
        walks: SEEDERS,
        crawl_threads: ctx.crawl_workers,
        every: 0,
        crawl_seed: "fixed (the world seed); --seed draws the request mix",
        with: format!(
            "{CONNECTIONS} keep-alive connections: open loop at {FIXED_RATE}/s, \
             max-rate ladder with a read p99 limit of {P99_LIMIT_MS} ms"
        ),
    }
}

/// The routes of the request mix.
#[derive(Clone, Copy)]
enum Route {
    Healthz,
    Report,
    Section,
    Smugglers,
    Uids,
    Walks,
}

/// The request mix: cc-loadgen's `mixed` task set
/// (`crates/loadgen/src/mix.rs`) over the routes this workload reads. Its
/// `/catalog` (3) and `/metrics` (2) tasks are left out; the rest keep
/// their weights, of 95.
const MIX: [(Route, u64); 6] = [
    (Route::Healthz, 10),
    (Route::Report, 10),
    (Route::Section, 25),
    (Route::Smugglers, 20),
    (Route::Uids, 15),
    (Route::Walks, 15),
];

/// Every `/smugglers` query the mix sends, as cc-loadgen draws them: a
/// role of all, dedicated or multi, and a limit of 1 to 24 rows.
fn smuggler_queries() -> Vec<(String, Option<SmugglerRole>, usize)> {
    let roles = [
        ("", None),
        ("role=dedicated&", Some(SmugglerRole::Dedicated)),
        ("role=multi&", Some(SmugglerRole::Multi)),
    ];
    roles
        .iter()
        .flat_map(|&(query, role)| {
            (1..=24).map(move |limit| (format!("/smugglers?{query}limit={limit}"), role, limit))
        })
        .collect()
}

/// The parameters the mix draws from, and the answer to every
/// `/smugglers` query, assembled once before the load.
struct Catalog {
    sections: Vec<String>,
    walks: Vec<String>,
    uids: Vec<String>,
    smugglers: Vec<String>,
    smuggler_answers: HashMap<String, CachedBody>,
}

impl Catalog {
    fn new(index: &ServingIndex) -> Catalog {
        let class = |prefix: &str| -> Vec<String> {
            index
                .routes()
                .map(|(p, _)| p)
                .filter(|p| p.starts_with(prefix))
                .map(str::to_string)
                .collect()
        };
        let queries = smuggler_queries();
        Catalog {
            sections: class("/report/"),
            walks: class("/walks/"),
            uids: class("/uids/"),
            smugglers: queries.iter().map(|q| q.0.clone()).collect(),
            smuggler_answers: queries
                .into_iter()
                .map(|(path, role, limit)| (path, index.smugglers(role, limit)))
                .collect(),
        }
    }
}

/// One connection's seeded request mix, judged against the served index.
struct Mix {
    index: Arc<ServingIndex>,
    catalog: Arc<Catalog>,
    rng: Rng,
    report_etag: Option<String>,
    wrong: Vec<String>,
}

impl Driver for Mix {
    fn next(&mut self, _slot: u64) -> Req {
        let c = &self.catalog;
        let path = match MIX[self.rng.weighted(&MIX.map(|(_, w)| w))].0 {
            Route::Healthz => "/healthz".to_string(),
            Route::Report => {
                // Poll like cc-loadgen's caching client: revalidate with the
                // last seen ETag about a third of the time.
                let revalidate = self.rng.below(3) == 0;
                return Req {
                    path: "/report".into(),
                    if_none_match: self.report_etag.clone().filter(|_| revalidate),
                };
            }
            Route::Section => self.rng.pick(&c.sections).to_string(),
            Route::Smugglers => self.rng.pick(&c.smugglers).to_string(),
            Route::Uids => self.rng.pick(&c.uids).to_string(),
            Route::Walks => self.rng.pick(&c.walks).to_string(),
        };
        Req {
            path,
            if_none_match: None,
        }
    }

    fn check(&mut self, req: &Req, reply: &Reply, _done: Instant) -> bool {
        // The in-process answer to the same question.
        let want = self
            .catalog
            .smuggler_answers
            .get(&req.path)
            .or_else(|| self.index.lookup(&req.path));
        let ok = match want {
            // A 304 exactly when If-None-Match names the current ETag.
            Some(want) if req.if_none_match.as_deref() == Some(&want.etag) => {
                reply.status == 304
                    && reply.body.is_empty()
                    && reply.etag.as_deref() == Some(&want.etag)
            }
            Some(want) => {
                reply.status == 200
                    && reply.body == want.body.as_bytes()
                    && reply.etag.as_deref() == Some(&want.etag)
            }
            None => false,
        };
        if ok && reply.status == 200 && req.path == "/report" {
            self.report_etag = reply.etag.clone();
        }
        if !ok && self.wrong.len() < 5 {
            self.wrong.push(format!(
                "{} (If-None-Match {:?}) answered {}",
                req.path, req.if_none_match, reply.status
            ));
        }
        ok
    }

    fn wrong(&self) -> &[String] {
        &self.wrong
    }
}

/// A checkpoint as a traced cold start read it: the value, its size in
/// bytes, and how long decoding took.
type Decoded = (CrawlCheckpoint, usize, Duration);

/// One cold start: load, build, bind, first answer. Returns the running
/// server with the client that probed it, the start's wall time, and
/// (traced starts, which call each layer separately so each gets its own
/// span) the decoded checkpoint.
fn cold_start(
    ctx: &Ctx,
    ck_path: &std::path::Path,
    cfg: &ServeConfig,
    traced: bool,
) -> (Result<(ServerHandle, Client), String>, f64, Option<Decoded>) {
    let t = &ctx.tracer;
    let root = t.begin("serve.cold_start", None);
    let mut kept = None;
    let index = if traced {
        let (text, _) = t.time("checkpoint.read", Some(root.id()), || {
            std::fs::read_to_string(ck_path)
        });
        let text = text.map_err(|e| e.to_string());
        text.and_then(|text| {
            let (ck, decode) = t.time("checkpoint.decode", Some(root.id()), || {
                CrawlCheckpoint::from_json(&text)
            });
            let ck = ck.map_err(|e| e.to_string())?;
            let (web, _) = t.time("web.generate", Some(root.id()), || generate(&ck.study.web));
            t.time("web.absorb_truth", Some(root.id()), || {
                web.absorb_truth(&ck.truth)
            });
            let (output, _) = t.time("core.pipeline", Some(root.id()), || {
                cc_core::run_pipeline(&ck.partial)
            });
            let (report, _) = t.time("analysis.report", Some(root.id()), || {
                full_report(&web, &ck.partial, &output)
            });
            let (index, _) = t.time("serve.index_build", Some(root.id()), || {
                ServingIndex::from_report(&report, &ck.partial, &output)
            });
            kept = Some((ck, text.len(), decode));
            index.map_err(|e| e.to_string())
        })
    } else {
        let (index, _) = t.time("serve.load_index", Some(root.id()), || {
            ServingIndex::from_checkpoint_path(ck_path)
        });
        index.map_err(|e| e.to_string())
    };
    let started = index.and_then(|index| {
        let (server, _) = t.time("serve.start", Some(root.id()), || {
            Server::start(index, cfg.clone())
        });
        let server = server.map_err(|e| e.to_string())?;
        let (probe, _) = t.time("load.probe", Some(root.id()), || {
            let mut c = Client::connect(server.addr())?;
            c.get("/healthz", None).map(|r| (c, r))
        });
        match probe {
            Ok((client, reply)) if reply.status == 200 => Ok((server, client)),
            other => {
                let why = format!("first /healthz failed: {:?}", other.map(|(_, r)| r.status));
                server.shutdown();
                Err(why)
            }
        }
    });
    let took = root.end().as_secs_f64();
    (started, took, kept)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let t = &ctx.tracer;
    let mut out = Outcome::default();
    let study = ctx.study(SERVED_SEED, SEEDERS, ctx.crawl_workers);
    let cfg = serve_config(&study);
    let ck_path = ctx.scratch("serve-checkpoint");

    // Not measured: crawl the study to the end and checkpoint it.
    let prepared = {
        let web = generate(&study.web);
        StudyRun::new(&web, &study).run().and_then(|dataset| {
            CrawlCheckpoint::new(&study, dataset, web.truth_snapshot()).save(&ck_path)
        })
    };
    if let Err(e) = prepared {
        out.check("serve checkpoint prepared", false, e.to_string());
        return out;
    }

    let (mut setups, mut plain, mut traced) = (vec![], vec![], vec![]);
    let mut live: Option<(ServerHandle, Client)> = None;
    let mut decoded = None;
    for run in 0..COLD_STARTS {
        // Only the last cold start stays up for the load; stop the one
        // before so no two indexes are held at once. Hang up first: a
        // server worker waits out the keep-alive timeout on an open idle
        // connection before it drains.
        if let Some((old, old_client)) = live.take() {
            drop(old_client);
            let served = counter(&old.shutdown(), "serve.requests");
            out.check(
                format!("cold start {}: served its one probe", run - 1),
                served == 1,
                format!("{served}"),
            );
        }
        let it = ctx.iteration(run);
        // The peak read after the load covers the last server's cold
        // start and everything it served.
        out.reset_peak_rss();
        let (started, took, kept) = cold_start(ctx, &ck_path, &cfg, it.traced);
        if it.traced {
            traced.push(took);
        } else {
            plain.push(took);
            setups.push(took);
        }
        if let Some(tel) = it.finish(t) {
            out.telemetry = Some(tel);
        }
        decoded = decoded.or(kept);
        match started {
            Ok(up) => live = Some(up),
            Err(e) => out.check(format!("cold start {run}"), false, e),
        }
    }
    let Some((server, probe_client)) = live else {
        let _ = std::fs::remove_file(&ck_path);
        return out;
    };

    // The load: seeded mix, two keep-alive connections.
    let index = server.index_handle().current();
    let catalog = Arc::new(Catalog::new(&index));
    let mut clients = vec![probe_client];
    while clients.len() < CONNECTIONS {
        match Client::connect(server.addr()) {
            Ok(c) => clients.push(c),
            Err(e) => {
                out.check("second connection", false, e.to_string());
                break;
            }
        }
    }
    let mut drivers: Vec<Box<dyn Driver + Send>> = (0..clients.len() as u64)
        .map(|c| {
            Box::new(Mix {
                index: Arc::clone(&index),
                catalog: Arc::clone(&catalog),
                rng: Rng::new(ctx.seed ^ (0xA5A5_0000 + c)),
                report_etag: None,
                wrong: Vec::new(),
            }) as Box<dyn Driver + Send>
        })
        .collect();

    let fixed_span = t.begin("load.fixed_rate", None);
    let fixed = open_loop(
        &mut clients,
        &mut drivers,
        FIXED_RATE,
        ctx.seconds.mul_f64(0.6),
    );
    fixed_span.end();
    let mut reads: Vec<Read> = fixed.clone();
    let ladder_started = Instant::now();
    let mut max_rate = None;
    let mut steps = 0;
    for rate in LADDER {
        if ladder_started.elapsed() >= ctx.seconds.mul_f64(0.4) {
            break;
        }
        let step = Duration::from_secs_f64((1_050.0 / rate).max(0.3));
        let step_span = t.begin("load.ladder_step", None);
        let got = open_loop(&mut clients, &mut drivers, rate, step);
        let took = step_span.end();
        steps += 1;
        let lat: Vec<f64> = got.iter().map(|o| o.latency_ms).collect();
        let p99 = percentile(&lat, 0.99);
        let tail_late = tail_late_ms(&got);
        let pass = got.iter().all(|o| o.ok)
            && p99.is_some_and(|p| p <= P99_LIMIT_MS)
            && tail_late <= P99_LIMIT_MS;
        out.notes.push(format!(
            "ladder {rate}/s: {} reads, p99 {p99:?} ms, generator {tail_late:.3} ms behind at the end: {}",
            got.len(),
            if pass { "kept" } else { "missed" }
        ));
        reads.extend(got.iter().copied());
        if !pass {
            break;
        }
        // The rate achieved: completions over the step's whole wall time.
        max_rate = Some(got.len() as f64 / took.as_secs_f64());
    }
    drop(clients);
    let report = server.shutdown();
    out.e2e
        .push(Metric::new("peak_rss_mb", Some(peak_rss_mb()), "MB", 1));

    // Conservation and correctness of every read.
    // The probe that proved the last server up was its first request.
    let client_requests = 1 + reads.len() as u64;
    let served = counter(&report, "serve.requests");
    out.check(
        format!("client requests {client_requests} = serve.requests {served}"),
        client_requests == served,
        "",
    );
    let bad = reads.iter().filter(|o| !o.ok).count() as u64;
    out.attempted += reads.len() as u64;
    out.failed += bad;
    if bad > 0 {
        let why: Vec<&str> = drivers
            .iter()
            .flat_map(|d| d.wrong())
            .map(String::as_str)
            .collect();
        out.check(
            "reads answered correctly",
            false,
            format!("{bad} wrong: {}", why.join("; ")),
        );
    }
    let _ = std::fs::remove_file(&ck_path);

    let lat: Vec<f64> = fixed.iter().map(|o| o.latency_ms).collect();
    out.e2e_median("setup_s", &setups, "s");
    out.e2e_percentile("read_p50_ms", &lat, 0.5);
    out.e2e_percentile("read_p99_ms", &lat, 0.99);
    out.e2e
        .push(Metric::new("max_rate_rps", max_rate, "1/s", steps));

    if ctx.trace {
        if let Some((ck, bytes, decode)) = &decoded {
            crate::live::checkpoint_layers(ctx, &mut out, ck, *bytes, *decode);
        }
        for (name, span) in [
            ("web.generate_s", "web.generate"),
            ("core.pipeline_s", "core.pipeline"),
            ("analysis.report_s", "analysis.report"),
            ("serve.index_build_s", "serve.index_build"),
        ] {
            out.layer_span(t, name, span);
        }
        out.layer_exact("core.findings", index.findings() as f64, "count");
        let body: f64 = index.routes().map(|(_, b)| b.body.len() as f64).sum();
        out.layer_exact("serve.body_bytes", body, "bytes");
        out.layer_exact("serve.epochs", index.epoch() as f64, "count");
        out.layer_exact("serve.requests", served as f64, "count");
        out.layer_exact("serve.shed", counter(&report, "serve.shed") as f64, "count");
        let late: Vec<f64> = fixed.iter().map(|o| o.late_ms).collect();
        out.layer_percentile("load.late_ms_p99", &late, 0.99);
        out.overhead(&traced, &plain);
        out.uncovered(t, "serve.cold_start");
    }
    out
}
