//! The study benchmark: one command, four workloads, every end-to-end
//! metric by name and unit, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|live|serve|gaggle --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) that `BENCHMARK.json` declares. The lines before it are
//! the provenance header, every metric with its unit and sample count,
//! and the checks. The process exits 1 when any output or conservation
//! check fails.

mod batch;
mod common;
mod gaggle;
mod live;
mod load;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};

use common::{Ctx, Metric, Outcome, Shape, SEEDERS, SITES, STEPS, WORLD_SEED};

/// The benchmark's declaration, the one source of workload names and
/// reasons and of metric names and units.
const SPEC: &str = include_str!("../../BENCHMARK.json");

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<WorkloadSpec>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

#[derive(Deserialize)]
struct WorkloadSpec {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

impl Spec {
    fn load() -> Spec {
        serde_json::from_str(SPEC).expect("BENCHMARK.json declares workloads and metrics")
    }
}

/// The per-layer metrics a workload produces. Each must have a value in
/// a traced run; every other per-layer metric reads 0 on that workload.
fn layers_of(workload: &str) -> &'static [&'static str] {
    match workload {
        "batch" => batch::LAYERS,
        "live" => live::LAYERS,
        "serve" => serve::LAYERS,
        "gaggle" => gaggle::LAYERS,
        _ => &[],
    }
}

/// The workload reading behind a declared end-to-end metric.
fn source<'a>(metric: &'a str, workload: &str) -> &'a str {
    match (metric, workload) {
        ("result_ms", "serve") => "read_p50_ms",
        ("result_ms", _) => "study_ms",
        _ => metric,
    }
}

const USAGE: &str =
    "usage: perfbench --workload batch|live|serve|gaggle --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(spec: &Spec, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|&s| s > 0),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec.workloads.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a whole number of seconds, at least 1")?,
        trace: match trace {
            Some(0) => false,
            Some(1) => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// `git rev-parse HEAD`, when the working directory is the top of a git
/// checkout (and not some unrelated repository above it).
fn git_commit() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top =
        run(&["rev-parse", "--show-toplevel"]).and_then(|t| PathBuf::from(t).canonicalize().ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => {
            run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

#[derive(Serialize)]
struct World {
    seed: u64,
    sites: usize,
    seeders: usize,
    steps: usize,
    species: &'static str,
    retry: &'static str,
}

#[derive(Serialize)]
struct Provenance {
    nproc: usize,
    git_commit: String,
    rustc: &'static str,
    seed: u64,
    workload: String,
    seconds: u64,
    trace: bool,
    world: World,
    workloads: BTreeMap<&'static str, Shape>,
}

fn provenance(args: &Args, ctx: &Ctx) -> Provenance {
    Provenance {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_commit: git_commit(),
        rustc: env!("PERFBENCH_RUSTC"),
        seed: args.seed,
        workload: args.workload.clone(),
        seconds: args.seconds,
        trace: args.trace,
        world: World {
            seed: WORLD_SEED,
            sites: SITES,
            seeders: SEEDERS,
            steps: STEPS,
            species: "all",
            retry: "standard",
        },
        workloads: BTreeMap::from([
            ("batch", batch::shape(ctx)),
            ("live", live::shape()),
            ("serve", serve::shape(ctx)),
            ("gaggle", gaggle::shape()),
        ]),
    }
}

fn show(m: &Metric) -> String {
    let value = m.value.map_or_else(|| "n/a".to_string(), |v| v.to_string());
    format!(
        "metric {:<28} {:>22} {:<6} (samples: {})",
        m.name, value, m.unit, m.samples
    )
}

#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: String,
}

/// The last line of standard output.
#[derive(Serialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

/// The spans and telemetry of a traced run, written out at exit.
#[derive(Serialize)]
struct Dump {
    spans: Vec<trace::Span>,
    telemetry: Option<cc_telemetry::RunReport>,
}

/// The declared metrics of this run (end-to-end, or per-layer when
/// traced) with their values. A metric the workload should have and
/// does not, or has in another unit, is a failed check.
fn declared(spec: &Spec, args: &Args, outcome: &mut Outcome) -> Map {
    let layers = layers_of(&args.workload);
    let rows = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Map::new();
    for row in rows {
        let name = if args.trace {
            row.name.as_str()
        } else {
            source(&row.name, &args.workload)
        };
        let expected = !args.trace || layers.contains(&name);
        let found = outcome
            .e2e
            .iter()
            .chain(&outcome.layers)
            .find(|m| m.name == name);
        let value = match found {
            Some(m) if m.unit != row.unit => {
                let why = format!("in {}, declared in {}", m.unit, row.unit);
                outcome.check(format!("metric {name} has its declared unit"), false, why);
                0.0
            }
            Some(Metric { value: Some(v), .. }) => *v,
            _ => {
                if expected {
                    outcome.check(format!("metric {name} has a value"), false, "");
                }
                0.0
            }
        };
        let reading = Reading {
            value,
            unit: row.unit.clone(),
        };
        metrics.insert(
            row.name.clone(),
            serde_json::to_value(&reading).unwrap_or_default(),
        );
    }
    metrics
}

fn main() {
    let spec = Spec::load();
    let args = match parse(&spec, std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        crawl_workers: nproc.min(2),
        tracer: trace::Tracer::new(),
        out_dir,
    };
    let header = serde_json::to_string(&provenance(&args, &ctx)).unwrap_or_default();
    println!("# provenance {header}");
    let why = spec
        .workloads
        .iter()
        .find(|w| w.name == args.workload)
        .map_or("", |w| w.why.as_str());
    println!("# workload {}: {why}", args.workload);

    let mut outcome: Outcome = match args.workload.as_str() {
        "batch" => batch::run(&ctx),
        "live" => live::run(&ctx),
        "serve" => serve::run(&ctx),
        "gaggle" => gaggle::run(&ctx),
        _ => unreachable!("workload names are validated in parse"),
    };
    let metrics = declared(&spec, &args, &mut outcome);
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.e2e.push(Metric::new(
        "fail_frac",
        Some(fail_frac),
        "ratio",
        outcome.attempted as usize,
    ));

    for m in outcome.e2e.iter().chain(&outcome.layers) {
        println!("{}", show(m));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let failed: Vec<_> = outcome.checks.iter().filter(|c| !c.ok).collect();
    println!(
        "# checks: {} passed, {} failed",
        outcome.checks.len() - failed.len(),
        failed.len()
    );
    for c in &failed {
        println!("# check FAILED: {} {}", c.name, c.detail);
    }

    if args.trace {
        let path = ctx
            .out_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let dump = Dump {
            spans: ctx.tracer.spans(),
            telemetry: outcome.telemetry.take(),
        };
        let written = serde_json::to_string(&dump)
            .map_err(|e| e.to_string())
            .and_then(|body| std::fs::write(&path, body).map_err(|e| e.to_string()));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    // Every failed check also counts as a failed operation.
    let line = Line {
        correct: outcome.failed == 0,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: Value::Object(metrics),
    };
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if !line.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's layers are declared in `BENCHMARK.json`, and every
    /// declared per-layer metric belongs to some workload, so a renamed
    /// metric cannot silently read 0.
    #[test]
    fn workload_layers_match_the_declaration() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut covered = std::collections::BTreeSet::new();
        for w in &spec.workloads {
            let layers = layers_of(&w.name);
            assert!(!layers.is_empty(), "workload {} has no layers", w.name);
            for name in layers {
                assert!(
                    declared.contains(name),
                    "{}: {name} is not declared",
                    w.name
                );
                covered.insert(*name);
            }
        }
        for name in declared {
            assert!(covered.contains(name), "{name} belongs to no workload");
        }
        for m in &spec.end_to_end {
            assert!(!m.unit.is_empty());
        }
    }
}
