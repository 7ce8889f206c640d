//! The `crumbcruncher` command-line interface.
//!
//! The paper's pipeline "can be run as an almost entirely automated
//! pipeline to continuously update blocklists" (§7.2); this CLI is that
//! automation surface; [`usage`] lists its commands and flags.
//!
//! One table drives parsing and `help`: each row holds a flag's spelling,
//! value placeholder, help, the invocations that read it, and a setter
//! into a [`Cli`]. [`parse`] applies the setters in table order, so argv
//! order never changes the study, and [`StudyConfig::validate`] checks the
//! result — the CLI adds no policy of its own. [`run`] is one study driver
//! for in-process and gaggle runs alike, and the analysis pipeline runs
//! only for the commands that read it. Parsing is hand-rolled (the
//! workspace's dependency budget is deliberately small) and lives in the
//! library so it can be unit-tested.

use std::sync::Arc;

use cc_crawler::{CheckpointPolicy, CrawlCheckpoint, CrawlDataset, StudyConfig};
use cc_net::{BreakerPolicy, RetryPolicy};
use cc_util::{CcError, ProgressCounters};
use cc_web::WebConfig;

/// Which subcommand to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Command {
    /// Print the full analysis report.
    Report,
    /// Run the crawl and write the dataset JSON.
    Crawl,
    /// Run everything and write the blocklist artifacts.
    Blocklist,
    /// Score the defenses.
    Defense,
    /// Score the pipeline against ground truth.
    Truth,
    /// Serve a finished study (or a checkpoint) over HTTP.
    Serve,
    /// Generate load against a running serve instance.
    Loadgen,
    /// Distributed crawling: lease walks to workers over TCP (cc-gaggle).
    Gaggle,
    /// Print usage.
    #[default]
    Help,
}

/// Which side of the gaggle wire a `gaggle` invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaggleRole {
    /// Bind, partition the walk-id space into leases, assemble shards.
    Manager,
    /// Dial a manager and crawl the leases it streams.
    Worker,
}

/// Parsed CLI invocation: a subcommand plus the [`StudyConfig`] it runs
/// against, with the few flags that are about *this invocation* rather
/// than the study itself (output paths, resume source, telemetry).
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
    /// The unified study configuration every flag parses into.
    pub study: StudyConfig,
    /// Worker count as given on the command line (`None` = flag absent;
    /// controls whether the telemetry report carries a worker section).
    pub workers: Option<usize>,
    /// Resume the crawl from this checkpoint file.
    pub resume: Option<String>,
    /// Stop after this many new walks (graceful drain, for exercising
    /// checkpoint/resume).
    pub kill_after: Option<usize>,
    /// Output path for subcommands that write a file.
    pub out: Option<String>,
    /// Write the telemetry run report (JSON) to this path.
    pub metrics_out: Option<String>,
    /// Print the human-readable span tree to stderr after the run.
    pub trace: bool,
    /// Write the run's spans as chrome-trace (`trace_event`) JSON here.
    pub trace_out: Option<String>,
    /// Print the telemetry run report in Prometheus text exposition
    /// format instead of the command's normal output.
    pub prom: bool,
    /// Serve `/progress`, `/metrics`, `/metrics.prom`, and `/timeseries`
    /// from an observer (cc-serve's listener) while the study runs.
    pub obs_addr: Option<String>,
    /// Write the observer's bound address (with the real port) here.
    pub obs_addr_file: Option<String>,
    /// Render the run's snapshot ring into a self-contained HTML
    /// dashboard at this path when the study finishes.
    pub dashboard_out: Option<String>,
    /// `report`: print the analysis report as canonical JSON (the same
    /// bytes a serve instance answers on `/report`).
    pub json: bool,
    /// `serve`: build the index from this crawl checkpoint instead of
    /// running a fresh study.
    pub load: Option<String>,
    /// `serve`: follow a (possibly still growing) checkpoint file — every
    /// growth becomes a fresh served epoch until the crawl completes.
    pub follow: Option<String>,
    /// `serve`: write the bound address (with the real port) here.
    pub addr_file: Option<String>,
    /// `crawl`: serve the crawl live over HTTP at this address while it
    /// runs (in-process epoch publishing).
    pub serve_addr: Option<String>,
    /// `crawl`: write the live server's bound address here.
    pub serve_addr_file: Option<String>,
    /// `crawl`: publish a fresh serving epoch every K completed walks
    /// (default 25; live serving only).
    pub publish_every: Option<usize>,
    /// `loadgen`: the serve instance to aim at.
    pub target: Option<String>,
    /// `loadgen`: concurrent users.
    pub users: Option<usize>,
    /// `loadgen`: requests per user.
    pub duration_requests: Option<usize>,
    /// `loadgen`: task-mix name.
    pub mix: Option<String>,
    /// `loadgen`: write the `cc-loadgen/v1` load report here.
    pub bench_out: Option<String>,
    /// `gaggle`: which side of the wire this invocation is.
    pub gaggle_role: Option<GaggleRole>,
    /// `gaggle manager`: bind address (default `127.0.0.1:0`, ephemeral).
    pub bind: Option<String>,
    /// `gaggle worker`: the manager address to dial.
    pub connect: Option<String>,
    /// `gaggle manager`: planned worker count (sizes progress slots).
    pub workers_expected: Option<usize>,
    /// Walk ids per lease (`gaggle manager`, or `crawl` as a gaggle).
    pub lease_walks: Option<usize>,
    /// Lease deadline in milliseconds, renewed by worker heartbeats
    /// (`gaggle manager`, or `crawl` as a gaggle).
    pub lease_timeout_ms: Option<u64>,
    /// `crawl`: run the crawl as a gaggle, spawning N local worker
    /// processes against an in-process manager.
    pub gaggle: Option<usize>,
}

/// The invocations a flag applies to, one bit per [`INVOCATIONS`] row.
type Scope = u16;
const REPORT: Scope = 1;
const CRAWL: Scope = 1 << 1;
const BLOCKLIST: Scope = 1 << 2;
const DEFENSE: Scope = 1 << 3;
const TRUTH: Scope = 1 << 4;
const SERVE: Scope = 1 << 5;
const LOADGEN: Scope = 1 << 6;
const MANAGER: Scope = 1 << 7;
const WORKER: Scope = 1 << 8;
/// The study commands: each generates a world and crawls it in process.
const STUDY: Scope = REPORT | CRAWL | BLOCKLIST | DEFENSE | TRUTH;
/// Everything that builds a study from the world and crawl flags: the
/// study commands, `serve` without a checkpoint, and the gaggle manager.
const WORLD: Scope = STUDY | SERVE | MANAGER;
/// Everything whose run the telemetry and observability plane reports.
const RUN: Scope = STUDY | MANAGER;

/// The invocations, in scope-bit order: name (the command word, and a
/// gaggle role after it), command, role and help.
#[rustfmt::skip]
const INVOCATIONS: [(&str, Command, Option<GaggleRole>, &str); 10] = [
    ("report", Command::Report, None, "crawl the simulated web and print every table and figure"),
    ("crawl", Command::Crawl, None, "run the crawl and write the dataset JSON; no pipeline runs"),
    ("blocklist", Command::Blocklist, None,
        "run the pipeline and write the released blocklist bundle"),
    ("defense", Command::Defense, None, "score the §7 countermeasures against a fresh crawl"),
    ("truth", Command::Truth, None, "score the pipeline against the simulator's ground truth"),
    ("serve", Command::Serve, None, "serve the analysis over HTTP: /report, /smugglers, \
        /uids/{domain}, /walks/{id}, /metrics (runs a study, or loads a checkpoint)"),
    ("loadgen", Command::Loadgen, None, "drive a running serve instance with weighted load"),
    ("gaggle manager", Command::Gaggle, Some(GaggleRole::Manager), "own the study: lease the \
        walk-id space to workers over TCP and assemble their shards, byte-identical to a \
        single-process run at any worker count, even after a worker is killed"),
    ("gaggle worker", Command::Gaggle, Some(GaggleRole::Worker), "dial a manager and crawl the \
        leases it streams; takes no study flags (the whole study arrives in the Welcome frame)"),
    ("help", Command::Help, None, "print this message"),
];

/// Applies a flag's value ("" for a switch) to the invocation.
type Setter = fn(&mut Cli, &str) -> Result<(), String>;

/// One row of the flag table.
struct Flag {
    /// The spelling, `--name`.
    name: &'static str,
    /// The value's placeholder in help (`N`, `PATH`); empty for a switch.
    value: &'static str,
    /// The invocations that read the flag; every other one refuses it.
    scope: Scope,
    /// Help text, word-wrapped by [`usage`].
    help: &'static str,
    set: Setter,
    /// The invocations that cannot run without the flag.
    required_by: Scope,
    /// A flag this one qualifies, which must then be given too wherever
    /// it is in scope.
    needs: Option<&'static str>,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    scope: Scope,
    help: &'static str,
    set: Setter,
) -> Flag {
    Flag {
        name,
        value,
        scope,
        help,
        set,
        required_by: 0,
        needs: None,
    }
}

impl Flag {
    const fn required_by(mut self, scope: Scope) -> Flag {
        self.required_by = scope;
        self
    }

    const fn needs(mut self, flag: &'static str) -> Flag {
        self.needs = Some(flag);
        self
    }
}

// The spellings that the driver, the cross-flag rules or other rows name;
// every other spelling occurs only in its row.
const CHECKPOINT: &str = "--checkpoint";
const KILL_AFTER: &str = "--kill-after";
const LOAD: &str = "--load";
const FOLLOW: &str = "--follow";
const SERVE_ADDR: &str = "--serve-addr";
const GAGGLE: &str = "--gaggle";
const CONNECT: &str = "--connect";
const OUT: &str = "--out";
const METRICS_OUT: &str = "--metrics-out";
const TRACE_OUT: &str = "--trace-out";
const OBS_ADDR: &str = "--obs-addr";
const DASHBOARD_OUT: &str = "--dashboard-out";

/// The cross-flag rules no row can state: flags that exclude each other,
/// and why.
#[rustfmt::skip]
const EXCLUSIVE: [(&str, &str, &str); 3] = [
    (LOAD, FOLLOW, "one serves a finished checkpoint, the other tracks a growing one"),
    (SERVE_ADDR, GAGGLE, "live serving follows the in-process executor"),
    (KILL_AFTER, GAGGLE, "a drain stops the in-process crawl; kill a gaggle worker instead"),
];

/// The flag table, by help section. [`parse`] applies the setters in this
/// order whatever the order of argv, so a row that replaces a whole value
/// (the paper-scale world) precedes the rows that refine it, and a row
/// that amends another's value (the checkpoint interval) follows it.
#[rustfmt::skip]
const SECTIONS: &[(&str, &[Flag])] = &[("OPTIONS", &[
    flag("--paper-scale", "", WORLD, "10,000 sites and seeders, as in the paper's §3.1; the \
        other world flags refine it", |c, _| set(&mut c.study.web, WebConfig::paper_scale())),
    flag("--seed", "N", WORLD | LOADGEN, "master seed (default 0xC0FFEE)",
        |c, v| num(v).map(|seed| (c.study.seed, c.study.web.seed) = (seed, seed))),
    flag("--sites", "N", WORLD, "number of sites in the world (default 2000)",
        |c, v| set(&mut c.study.web.n_sites, num(v)?)),
    flag("--seeders", "N", WORLD, "number of seeder domains / walks (default 1000)",
        |c, v| set(&mut c.study.web.n_seeders, num(v)?)),
    flag("--steps", "N", WORLD, "steps per walk (default 10)",
        |c, v| set(&mut c.study.steps, num(v)?)),
    flag("--walks", "N", WORLD, "cap the number of walks",
        |c, v| set(&mut c.study.walks, Some(num(v)?))),
    flag("--species", "LIST", WORLD, "plant evasion-aware tracker species in the world: 'all' \
        or a comma list of remint,etag,consent,spa,cname (two trackers per named species; see \
        DESIGN.md §5f)", |c, v| species(&mut c.study.web, v)),
    flag("--workers", "N", WORLD, "crawl with N work-stealing worker threads (0 = one per \
        CPU); results are bit-identical to the serial crawl", |c, v| {
        // 0 means "use every CPU", like `make -j` without a count.
        let n = match num(v)? {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        c.workers = Some(n);
        set(&mut c.study.workers, n)
    }),
]), ("FAULT TOLERANCE", &[
    flag("--failure-rate", "F", WORLD, "per-connection failure probability in [0, 1] (default \
        0.033, the paper's observed rate)", |c, v| set(&mut c.study.failure_rate,
        v.trim().parse().map_err(|_| format!("{v:?} is not a number"))?)),
    flag("--retries", "N", WORLD, "retry failed connections up to N attempts with \
        deterministic exponential backoff (0/1 = off)", |c, v| set(&mut c.study.retry,
        match num(v)? {
            0 | 1 => RetryPolicy::disabled(),
            attempts => RetryPolicy { attempts, ..RetryPolicy::standard() },
        })),
    flag("--breaker", "N", WORLD, "trip a per-host circuit breaker after N consecutive \
        failures (0 = off; default off)", |c, v| set(&mut c.study.breaker, match num(v)? {
            0 => BreakerPolicy::disabled(),
            failure_threshold => BreakerPolicy { failure_threshold, ..BreakerPolicy::standard() },
        })),
    flag(CHECKPOINT, "PATH", WORLD, "write a resumable crawl checkpoint to PATH",
        |c, v| set(&mut c.study.checkpoint, Some(CheckpointPolicy { path: v.into(), every: 100 }))),
    flag("--checkpoint-every", "K", WORLD, "checkpoint every K completed walks (default 100)",
        |c, v| set(&mut c.study.checkpoint.as_mut().expect("set by the needed row").every,
            num(v)?)).needs(CHECKPOINT),
    flag("--resume", "PATH", RUN, "resume a killed crawl from its checkpoint; the final \
        dataset is identical to an uninterrupted run", |c, v| set(&mut c.resume, Some(v.into()))),
    flag(KILL_AFTER, "N", STUDY, "stop the crawl gracefully after N new walks (and write a \
        final checkpoint when checkpointing)", |c, v| set(&mut c.kill_after, Some(num(v)?))),
]), ("SERVING", &[
    flag(LOAD, "PATH", SERVE, "serve from a finished crawl checkpoint instead of crawling",
        |c, v| set(&mut c.load, Some(v.into()))),
    flag(FOLLOW, "PATH", SERVE, "serve a crawl *as it runs*: poll its checkpoint file and swap \
        in a fresh epoch whenever it grows (X-Cc-Epoch / Last-Modified advance monotonically; \
        /progress reports walks indexed vs total). The final epoch is byte-identical to serving \
        the finished checkpoint", |c, v| set(&mut c.follow, Some(v.into()))),
    flag("--addr", "HOST:PORT", SERVE, "bind address (default 127.0.0.1:8040; port 0 = \
        ephemeral)", |c, v| set(&mut c.study.serve.addr, v.into())),
    flag("--serve-workers", "N", SERVE | CRAWL, "server worker threads (default 8)",
        |c, v| set(&mut c.study.serve.workers, num(v)?)),
    flag("--max-inflight", "N", SERVE | CRAWL, "admission bound; connections beyond it are \
        shed with 503", |c, v| set(&mut c.study.serve.max_inflight, num(v)?)),
    flag("--addr-file", "PATH", SERVE | MANAGER | CRAWL, "write the bound address (with the \
        real port) of the server or the gaggle manager to PATH",
        |c, v| set(&mut c.addr_file, Some(v.into()))).needs(GAGGLE),
    flag("--json", "", REPORT, "print the analysis as canonical JSON — byte-identical to what \
        a serve instance answers on /report", |c, _| set(&mut c.json, true)),
]), ("LIVE SERVING (crawl)", &[
    flag(SERVE_ADDR, "HOST:PORT", CRAWL, "serve the crawl over HTTP *while it runs*, \
        in-process: starts at a warming epoch 0, then swaps in a fresh immutable index epoch \
        as walk batches land; keeps serving the final epoch after the crawl until POST \
        /shutdown", |c, v| set(&mut c.serve_addr, Some(v.into()))),
    flag("--serve-addr-file", "PATH", CRAWL, "write the live server's bound address to PATH",
        |c, v| set(&mut c.serve_addr_file, Some(v.into()))).needs(SERVE_ADDR),
    flag("--publish-every", "K", CRAWL, "publish an epoch every K completed walks (default 25)",
        |c, v| match num(v)? {
            0 => Err("must be at least 1".into()),
            every => set(&mut c.publish_every, Some(every)),
        }).needs(SERVE_ADDR),
]), ("DISTRIBUTED CRAWLING (gaggle)", &[
    flag("--bind", "HOST:PORT", MANAGER, "manager bind address (default 127.0.0.1:0, \
        ephemeral)", |c, v| set(&mut c.bind, Some(v.into()))),
    flag(CONNECT, "HOST:PORT", WORKER, "manager address a worker dials",
        |c, v| set(&mut c.connect, Some(v.into()))).required_by(WORKER),
    flag("--workers-expected", "N", MANAGER, "how many workers the operator plans to run — \
        sizes the /progress slots; late or extra workers still work",
        |c, v| set(&mut c.workers_expected, Some(num(v)?))),
    flag("--lease-walks", "K", MANAGER | CRAWL, "walk ids per lease (default 25; smaller = \
        faster rebalance and recovery, larger = less frame overhead)",
        |c, v| set(&mut c.lease_walks, Some(num(v)?))).needs(GAGGLE),
    flag("--lease-timeout-ms", "T", MANAGER | CRAWL, "lease deadline, renewed by heartbeats \
        (default 3000); a lease whose holder goes silent past T is re-issued",
        |c, v| set(&mut c.lease_timeout_ms, Some(num(v)?))).needs(GAGGLE),
    flag(GAGGLE, "N", CRAWL, "run the crawl as a gaggle by spawning N local worker processes \
        — output bytes identical to the in-process crawl", |c, v| match num(v)? {
        0 => Err("must spawn at least 1 worker".into()),
        n => set(&mut c.gaggle, Some(n)),
    }),
]), ("LOAD GENERATION (loadgen)", &[
    flag("--target", "HOST:PORT", LOADGEN, "the serve instance to aim at",
        |c, v| set(&mut c.target, Some(v.into()))).required_by(LOADGEN),
    flag("--users", "N", LOADGEN, "concurrent users, one keep-alive connection each (default \
        4; keep at or below the server's workers)", |c, v| set(&mut c.users, Some(num(v)?))),
    flag("--duration-requests", "N", LOADGEN, "requests per user (default 250)",
        |c, v| set(&mut c.duration_requests, Some(num(v)?))),
    flag("--mix", "NAME", LOADGEN, "task mix: mixed | reports | lookups (default mixed)",
        |c, v| match cc_loadgen::TaskMix::named(v) {
            Some(_) => set(&mut c.mix, Some(v.into())),
            None => Err(format!("unknown mix {v:?} (expected {:?})", cc_loadgen::TaskMix::NAMES)),
        }),
    flag("--bench-out", "PATH", LOADGEN, "write the cc-loadgen/v1 load report JSON",
        |c, v| set(&mut c.bench_out, Some(v.into()))),
]), ("TELEMETRY", &[
    flag(OUT, "PATH", CRAWL | BLOCKLIST | MANAGER, "output file: the dataset JSON, or the \
        blocklist bundle", |c, v| set(&mut c.out, Some(v.into()))).required_by(CRAWL | BLOCKLIST),
    flag(METRICS_OUT, "PATH", RUN | SERVE, "write the telemetry run report (JSON) to PATH: \
        counters, latency histograms (p50/p90/p99), span-tree rollups, and per-worker crawl \
        progress", |c, v| set(&mut c.metrics_out, Some(v.into()))),
    flag("--trace", "", RUN, "print the span tree (wall-clock timings per pipeline stage) to \
        stderr after the run", |c, _| set(&mut c.trace, true)),
    flag(TRACE_OUT, "PATH", RUN, "write the run's spans as chrome-trace JSON to PATH, one \
        track per crawl worker — load it in Perfetto or chrome://tracing",
        |c, v| set(&mut c.trace_out, Some(v.into()))),
    flag("--prom", "", RUN, "print the telemetry run report in Prometheus text exposition format \
        instead of the command's output (a scrape-able summary)", |c, _| set(&mut c.prom, true)),
]), ("OBSERVABILITY (watch the run while it goes)", &[
    flag(OBS_ADDR, "HOST:PORT", RUN, "serve live observability over HTTP during the study, \
        with the serve workers, keep-alive and shedding of the study's serve policy: \
        /progress (per-worker walk counts), /metrics (run report JSON), /metrics.prom \
        (Prometheus exposition), /timeseries (snapshot ring). Observation-only: results \
        are byte-identical with it on or off",
        |c, v| set(&mut c.obs_addr, Some(v.into()))),
    flag("--obs-addr-file", "PATH", RUN, "write the observer's bound address (with the real \
        port) to PATH", |c, v| set(&mut c.obs_addr_file, Some(v.into()))).needs(OBS_ADDR),
    flag(DASHBOARD_OUT, "PATH", RUN, "write a self-contained single-file HTML dashboard \
        (throughput, latency quantiles, inflight, starvation over time) when the run ends",
        |c, v| set(&mut c.dashboard_out, Some(v.into()))),
])];

fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// A number: decimal, or hex after `0x`.
fn num<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    let raw = v.trim();
    let n = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    n.ok()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{v:?} is not a number"))
}

/// Apply a species spec to the web config: `all` plants every species,
/// a comma list plants the named ones. Each named species gets the same
/// two-tracker population `WebConfig::all_species` uses, so `all` and
/// `remint,etag,consent,spa,cname` are the same world.
fn species(web: &mut WebConfig, spec: &str) -> Result<(), String> {
    if spec.trim() == "all" {
        *web = std::mem::take(web).all_species();
        return Ok(());
    }
    for name in spec.split(',') {
        match name.trim() {
            "remint" => web.n_remint = 2,
            "etag" => web.n_etag = 2,
            "consent" => web.n_consent = 2,
            "spa" => web.n_spa = 2,
            "cname" => web.n_cname = 2,
            other => {
                return Err(format!(
                    "unknown species {other:?} \
                     (expected 'all' or a comma list of remint,etag,consent,spa,cname)"
                ))
            }
        }
    }
    Ok(())
}

/// Every row of the flag table, in table order.
fn flags() -> impl Iterator<Item = &'static Flag> {
    SECTIONS.iter().flat_map(|(_, rows)| rows.iter())
}

/// The row spelled `name`, for a name the table itself holds.
fn row(name: &str) -> &'static Flag {
    flags()
        .find(|f| f.name == name)
        .expect("every flag the table names has a row")
}

/// The invocations in `scope`, the five study commands as one group.
fn describe(scope: Scope) -> String {
    let mut names = Vec::new();
    let mut rest = scope;
    if scope & STUDY == STUDY {
        let study: Vec<_> = INVOCATIONS[..5].iter().map(|i| i.0).collect();
        names.push(format!("the study commands ({})", study.join(", ")));
        rest &= !STUDY;
    }
    names.extend(
        INVOCATIONS
            .iter()
            .enumerate()
            .filter(|&(bit, _)| rest >> bit & 1 == 1)
            .map(|(_, i)| i.0.to_string()),
    );
    names.join(", ")
}

/// Parse argv (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, CcError> {
    let mut cli = Cli::default();
    // Unless told otherwise, the CLI crawls the calibrated 2,000-site world.
    cli.study.web.n_sites = 2_000;
    cli.study.web.n_seeders = 1_000;
    let (mut word, mut role) = (None, None);
    let mut given: Vec<(usize, &Flag, &str)> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if let Some((i, f)) = flags().enumerate().find(|(_, f)| f.name == arg) {
            // Every flag sets exactly one thing; a repeated flag is always
            // a mistake (usually an edited command line), so reject it by
            // name instead of silently letting one occurrence win.
            if given.iter().any(|&(j, _, _)| j == i) {
                return Err(CcError::cli(format!(
                    "duplicate flag {arg}: each flag may be given at most once"
                )));
            }
            let value = match f.value {
                "" => "",
                _ => args
                    .next()
                    .ok_or_else(|| CcError::cli(format!("{arg} needs {}", f.value)))?,
            };
            given.push((i, f, value));
        } else if INVOCATIONS
            .iter()
            .any(|i| i.0.split(' ').next() == Some(arg))
        {
            if word.replace(arg).is_some() {
                return Err(CcError::cli(format!("unexpected second command {arg:?}")));
            }
        } else if arg == "manager" || arg == "worker" {
            if role.replace(arg).is_some() {
                return Err(CcError::cli(format!(
                    "unexpected second gaggle role {arg:?}"
                )));
            }
        } else {
            return Err(CcError::cli(format!("unknown argument {arg:?}")));
        }
    }
    let word = word.ok_or_else(|| CcError::cli("no command given"))?;
    let name = role.map_or(word.to_string(), |role| format!("{word} {role}"));
    // A bare `gaggle`, or a role after another command, names no invocation.
    let bit = INVOCATIONS
        .iter()
        .position(|i| i.0 == name)
        .ok_or_else(|| {
            CcError::cli(format!(
                "no command {name:?}: gaggle takes a role ('gaggle manager [opts]' or \
                 'gaggle worker {CONNECT} A') and no other command does"
            ))
        })?;
    (_, cli.command, cli.gaggle_role, _) = INVOCATIONS[bit];
    let here: Scope = 1 << bit;

    let has = |name: &str| given.iter().any(|(_, f, _)| f.name == name);
    for (_, f, _) in &given {
        if f.scope & here == 0 {
            return Err(CcError::cli(format!(
                "{} applies to {}, not {}",
                f.name,
                describe(f.scope),
                describe(here)
            )));
        }
        if let Some(needed) = f.needs.map(row) {
            if needed.scope & here != 0 && !has(needed.name) {
                return Err(CcError::cli(format!(
                    "{} requires {} {}",
                    f.name, needed.name, needed.value
                )));
            }
        }
    }
    if let Some(f) = flags().find(|f| f.required_by & here != 0 && !has(f.name)) {
        return Err(CcError::cli(format!(
            "{} requires {} {}",
            describe(here),
            f.name,
            f.value
        )));
    }
    for (a, b, why) in EXCLUSIVE {
        if has(a) && has(b) {
            return Err(CcError::cli(format!(
                "{a} and {b} are mutually exclusive: {why}"
            )));
        }
    }

    given.sort_by_key(|&(i, _, _)| i);
    for (_, f, value) in given {
        (f.set)(&mut cli, value).map_err(|e| CcError::cli(format!("{}: {e}", f.name)))?;
    }
    cli.study.validate()?;
    Ok(cli)
}

/// The help text: the commands, then every option section rendered from
/// the flag table.
pub fn usage() -> String {
    let mut out = String::from(
        "crumbcruncher — reproduce 'Measuring UID Smuggling in the Wild' (IMC 2022)\n\n\
         USAGE:\n  crumbcruncher <COMMAND> [OPTIONS]    options in any order, each at most once\n\n\
         COMMANDS:\n",
    );
    for (name, _, _, help) in INVOCATIONS {
        entry(&mut out, name, help, 16);
    }
    for (title, rows) in SECTIONS {
        out.push_str(&format!("\n{title}:\n"));
        for f in *rows {
            let mut help = f.help.to_string();
            if let Some(needed) = f.needs.map(row) {
                let scope = needed.scope & f.scope;
                let when = (scope != f.scope).then(|| format!("{}: ", describe(scope)));
                let when = when.unwrap_or_default();
                help += &format!(" ({when}needs {} {})", needed.name, needed.value);
            }
            if f.required_by != 0 {
                help += &format!(" (required by {})", describe(f.required_by));
            }
            entry(
                &mut out,
                format!("{} {}", f.name, f.value).trim_end(),
                &help,
                24,
            );
        }
    }
    out
}

/// Append one help entry: `head` in a `width`-column gutter, then `help`
/// word-wrapped to 80 columns.
fn entry(out: &mut String, head: &str, help: &str, width: usize) {
    let mut line = format!("  {head:<w$}", w = width - 1);
    for word in help.split_whitespace() {
        let len = line.chars().count();
        if len > width + 1 && len + 1 + word.chars().count() > 80 {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(width + 1);
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// What a study's producer hands its command.
enum Produced {
    /// A study whose pipeline ran, for the commands that read it.
    Study(Box<crate::Study>),
    /// An in-process crawl's dataset: all `crawl` writes.
    Crawl(CrawlDataset),
    /// A gaggle manager's assembly.
    Gaggle(cc_gaggle::ManagerOutcome),
}

/// Execute a parsed invocation; returns the text to print.
///
/// Every study (the study commands and the gaggle manager) runs through
/// one driver: it owns the telemetry session, the artifact preflight and
/// the observability plane, and only the dataset producer differs.
pub fn run(cli: &Cli) -> Result<String, CcError> {
    // Serving and load generation manage their own lifecycles (a server
    // blocks until shutdown; loadgen talks to a remote process), and a
    // gaggle worker crawls for a remote manager: none of them is a study.
    match (cli.command, cli.gaggle_role) {
        (Command::Help, _) => return Ok(usage()),
        (Command::Serve, _) => return run_serve(cli),
        (Command::Loadgen, _) => return run_loadgen(cli),
        (Command::Gaggle, Some(GaggleRole::Worker)) => {
            // A worker is deliberately bare: no telemetry session and no
            // study flags — it dials, crawls what it is leased, ships shards
            // back, and hands its counters to the manager over the wire.
            let connect = cli.connect.clone().expect("required by parse");
            let label = format!("pid-{}", std::process::id());
            let s = cc_gaggle::run_worker(&cc_gaggle::WorkerConfig { connect, label })?;
            let (id, walks, leases) = (s.worker_id, s.walks, s.leases);
            return Ok(format!(
                "worker {id} crawled {walks} walks across {leases} leases\n"
            ));
        }
        _ => {}
    }

    // Telemetry is opt-in: a session only exists when a telemetry or
    // observability flag asked for one, so plain runs pay nothing. The
    // chrome-trace export additionally needs span capture turned on.
    let wants_session = cli.metrics_out.is_some()
        || cli.trace
        || cli.trace_out.is_some()
        || cli.prom
        || cli.obs_addr.is_some()
        || cli.dashboard_out.is_some();
    let session = if cli.trace_out.is_some() {
        Some(cc_telemetry::Session::start_with_trace())
    } else if wants_session {
        Some(cc_telemetry::Session::start())
    } else {
        None
    };
    // The set-up gets its own span, recorded before the observer can
    // answer, so a scrape never finds an empty session.
    let setup = cc_telemetry::span("study.setup");
    // Fail fast on unwritable artifact paths — before the crawl, not
    // after an hour of it.
    for (flag, path) in [
        (OUT, cli.out.as_deref()),
        (METRICS_OUT, cli.metrics_out.as_deref()),
        (TRACE_OUT, cli.trace_out.as_deref()),
        (DASHBOARD_OUT, cli.dashboard_out.as_deref()),
    ] {
        if let Some(path) = path {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| CcError::cli(format!("{flag} {path}: not writable: {e}")))?;
        }
    }
    let resume = match cli.resume.as_deref() {
        Some(path) => Some(CrawlCheckpoint::load(path)?),
        None => None,
    };

    // A gaggle (`gaggle manager`, or the single-machine spelling that
    // spawns N local workers) replaces the in-process executor with
    // cc-gaggle's lease loop. It is parallel by construction, so its run
    // report always carries the per-(remote-)worker section.
    let gaggle = (cli.command == Command::Gaggle || cli.gaggle.is_some()).then(|| {
        let defaults = cc_gaggle::GaggleConfig::default();
        cc_gaggle::GaggleConfig {
            bind: cli.bind.clone().unwrap_or(defaults.bind),
            workers_expected: cli.workers_expected.or(cli.gaggle).unwrap_or(1),
            lease_walks: cli.lease_walks.unwrap_or(defaults.lease_walks),
            lease_timeout_ms: cli.lease_timeout_ms.unwrap_or(defaults.lease_timeout_ms),
        }
    });
    let per_worker_report = gaggle.is_some() || cli.workers.is_some();

    // Live serving (in-process crawls only): start the server on a
    // warming epoch-0 index *before* the crawl, wire an in-process
    // publisher into the executor, and keep serving the final epoch after
    // the crawl completes until POST /shutdown.
    let live = match cli.serve_addr.as_deref() {
        Some(addr) => {
            let builder = cc_serve::IncrementalIndexBuilder::new(&cli.study);
            let index_handle = cc_serve::IndexHandle::new(builder.warming()?);
            let publisher = Arc::new(cc_serve::IndexPublisher::start(
                builder,
                index_handle.clone(),
            ));
            let server = cc_serve::Server::start(
                index_handle.clone(),
                cc_serve::ServeConfig {
                    addr: addr.to_string(),
                    ..(&cli.study.serve).into()
                },
            )?;
            if let Some(path) = cli.serve_addr_file.as_deref() {
                std::fs::write(path, server.addr().to_string())
                    .map_err(|e| CcError::io(path, e))?;
            }
            eprintln!(
                "cc-serve following the crawl on http://{} — epoch 0 (warming); \
                 POST /shutdown to stop",
                server.addr()
            );
            Some((server, publisher, index_handle))
        }
        None => None,
    };
    drop(setup);

    // The observability plane: caller-owned progress counters shared with
    // the crawl (one slot per executor thread, or per remote gaggle worker
    // modulo the expected count), a bounded snapshot ring, a periodic
    // sampler, and the observer routes on cc-serve's listener. All
    // strictly observation-only — the crawl result is byte-identical with
    // every piece on or off.
    let slots = gaggle
        .as_ref()
        .map_or(cli.study.workers, |g| g.workers_expected.max(1));
    let progress = Arc::new(ProgressCounters::new(slots));
    // 250 ms samples × 2,400 = a 10-minute window, plenty for any test
    // crawl and bounded (~55KB of samples) for a long one.
    let ring = Arc::new(cc_telemetry::SnapshotRing::new(2_400));
    // A session exists whenever an observer or a dashboard is asked for.
    let collector = session.as_ref().map(|s| s.shared_collector());
    let observer = match (cli.obs_addr.as_deref(), &collector) {
        (Some(addr), Some(collector)) => {
            let sources = cc_serve::ObsSources {
                collector: Arc::clone(collector),
                progress: Arc::clone(&progress),
                ring: Arc::clone(&ring),
                index: live.as_ref().map(|(_, _, handle)| handle.clone()),
            };
            let cfg = cc_serve::ServeConfig {
                addr: addr.to_string(),
                ..(&cli.study.serve).into()
            };
            let handle = cc_serve::Server::observe(sources, cfg)?;
            if let Some(path) = cli.obs_addr_file.as_deref() {
                if let Err(e) = std::fs::write(path, handle.addr().to_string()) {
                    handle.shutdown();
                    return Err(CcError::io(path, e));
                }
            }
            Some(handle)
        }
        _ => None,
    };
    let sampler = match collector {
        Some(collector) if observer.is_some() || cli.dashboard_out.is_some() => {
            Some(cc_obs::Sampler::start(
                cc_obs::SamplerConfig::default(),
                Arc::clone(&ring),
                collector,
                Arc::clone(&progress),
            ))
        }
        _ => None,
    };

    // The dataset producer. The pipeline runs only for the commands that
    // read its output.
    let produced = match gaggle {
        Some(cfg) => manage(cli, cfg, resume, Arc::clone(&progress)).map(Produced::Gaggle),
        None => {
            let mut study_builder = crate::Study::builder(&cli.study).progress(&progress);
            if let Some(ck) = resume {
                study_builder = study_builder.resume(ck);
            }
            if let Some(n) = cli.kill_after {
                study_builder = study_builder.stop_after(n);
            }
            if let Some((_, publisher, _)) = &live {
                study_builder = study_builder.index_publisher(
                    cli.publish_every.unwrap_or(25),
                    Arc::clone(publisher) as Arc<dyn cc_crawler::SnapshotSink>,
                );
            }
            if cli.command == Command::Crawl {
                study_builder.crawl().map(|c| Produced::Crawl(c.dataset))
            } else {
                study_builder.run().map(|s| Produced::Study(Box::new(s)))
            }
        }
    };
    let produced = match produced {
        Ok(produced) => produced,
        Err(e) => {
            // A failed crawl must not leave a half-warm server running,
            // nor an observer.
            if let Some((server, publisher, _)) = live {
                let _ = publisher.finish();
                server.shutdown();
            }
            if let Some(o) = observer {
                o.shutdown();
            }
            return Err(e);
        }
    };
    let crawled = progress.snapshot();
    // Crawl complete: close the publishing queue so the indexer folds the
    // executor's final (complete) snapshot into the last epoch. The
    // server keeps answering on it until POST /shutdown, below.
    if let Some((_, publisher, handle)) = &live {
        publisher.finish()?;
        eprintln!(
            "crawl complete — serving final epoch {} ({} walks); POST /shutdown to stop",
            handle.epoch(),
            handle.current().walks()
        );
    }

    let mut result = execute(cli, produced);

    // Wind the plane down: the sampler's shutdown sample is the
    // dashboard's last point, and counts the finished run. The observer
    // drains its connections, so an idle keep-alive client can hold the
    // exit for up to `keep_alive_ms`.
    if let Some(s) = sampler {
        s.shutdown();
    }
    if let Some(o) = observer {
        o.shutdown();
    }
    if let Some(path) = cli.dashboard_out.as_deref() {
        let title = format!("crumbcruncher — seed {:#x}", cli.study.seed);
        let html = cc_obs::render_dashboard(&title, &ring.snapshot());
        std::fs::write(path, &html).map_err(|e| CcError::io(path, e))?;
    }

    // Reporting happens after the command executed, so command-phase spans
    // (the analysis report sections, dataset serialization) are captured.
    if let Some(session) = &session {
        if cli.trace {
            eprint!("{}", session.render_trace());
        }
        if let Some(path) = cli.trace_out.as_deref() {
            std::fs::write(path, session.chrome_trace()).map_err(|e| CcError::io(path, e))?;
        }
        if cli.metrics_out.is_some() || cli.prom {
            // Per-worker progress is reported only when parallelism was
            // asked for — a plain serial run keeps its historical report
            // shape.
            let report = if per_worker_report {
                session.report_with_workers(cc_telemetry::WorkerSection::from_progress(&crawled))
            } else {
                session.report()
            };
            if let Some(path) = cli.metrics_out.as_deref() {
                let json = report
                    .to_json()
                    .map_err(|e| CcError::Serde(format!("serialize run report: {e}")))?;
                std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
            }
            if cli.prom && result.is_ok() {
                // The scrape-able exposition *is* the command output, so
                // nothing else pollutes stdout.
                result = Ok(cc_telemetry::render_prometheus(&report));
            }
        }
    }
    // A live-served crawl stays up after its artifacts are written, so
    // consumers can read the final epoch at their leisure; block until a
    // client posts /shutdown. On a failed command, fold the server
    // instead of hanging.
    if let Some((server, _, _)) = live {
        if result.is_ok() {
            server.wait();
        } else {
            server.shutdown();
        }
    }
    result
}

/// The gaggle producer: a manager leases the study's walk ids to workers
/// and assembles their shards. The single-machine spelling spawns its
/// workers as child processes of this very binary, so it exercises
/// exactly the code path a multi-machine gaggle does.
fn manage(
    cli: &Cli,
    cfg: cc_gaggle::GaggleConfig,
    resume: Option<CrawlCheckpoint>,
    progress: Arc<ProgressCounters>,
) -> Result<cc_gaggle::ManagerOutcome, CcError> {
    let progress = Some(progress);
    let opts = cc_gaggle::ManagerOptions { resume, progress };
    let manager = cc_gaggle::Manager::start(&cli.study, cfg, opts)?;
    let addr = manager.addr().to_string();
    if let Some(path) = cli.addr_file.as_deref() {
        std::fs::write(path, &addr).map_err(|e| CcError::io(path, e))?;
    }
    eprintln!(
        "cc-gaggle manager listening on {addr} — workers join with: \
         crumbcruncher gaggle worker {CONNECT} {addr}"
    );
    let mut children = Vec::new();
    if let Some(n) = cli.gaggle {
        let exe = std::env::current_exe().map_err(|e| CcError::io("current_exe", e))?;
        for _ in 0..n {
            let child = std::process::Command::new(&exe)
                .args(["gaggle", "worker", CONNECT, &addr])
                .stdout(std::process::Stdio::null())
                .spawn()
                .map_err(|e| CcError::io("spawn gaggle worker", e))?;
            children.push(child);
        }
    }
    let outcome = manager.join();
    // Workers exit on their own once the manager is gone (clean Goodbye,
    // or a Closed read if the manager errored out) — reap, don't kill.
    for mut child in children {
        let _ = child.wait();
    }
    outcome
}

/// Run the `serve` subcommand: resolve the [`cc_serve::IndexSource`]
/// (a finished checkpoint, a followed growing checkpoint, or a fresh
/// study), start the server, and block until it is shut down via
/// `POST /shutdown`.
fn run_serve(cli: &Cli) -> Result<String, CcError> {
    let source: cc_serve::IndexSource = match (cli.load.as_deref(), cli.follow.as_deref()) {
        (Some(path), None) => cc_serve::ServingIndex::from_checkpoint_path(path)?.into(),
        (None, Some(path)) => cc_serve::IndexSource::follow(path),
        (None, None) => {
            let study = crate::Study::from_config(&cli.study)?;
            cc_serve::ServingIndex::build(&study.web, &study.dataset, &study.output)?.into()
        }
        (Some(_), Some(_)) => unreachable!("exclusivity is checked by parse"),
    };
    let following = matches!(source, cc_serve::IndexSource::Follow(_));
    let handle = cc_serve::Server::start(source, cc_serve::ServeConfig::from(&cli.study.serve))?;
    let addr = handle.addr();
    if let Some(path) = cli.addr_file.as_deref() {
        std::fs::write(path, addr.to_string()).map_err(|e| CcError::io(path, e))?;
    }
    let index = handle.index_handle().current();
    if following {
        eprintln!(
            "cc-serve listening on http://{addr} — following {}, epoch {} ({} of {} walks); \
             POST /shutdown to stop",
            cli.follow.as_deref().unwrap_or_default(),
            index.epoch(),
            index.walks(),
            index.total_walks(),
        );
    } else {
        eprintln!(
            "cc-serve listening on http://{addr} — {} walks, {} findings; \
             POST /shutdown to stop",
            index.walks(),
            index.findings(),
        );
    }

    let metrics = handle.wait();
    if let Some(path) = cli.metrics_out.as_deref() {
        let json = metrics
            .to_json()
            .map_err(|e| CcError::Serde(format!("serialize serve metrics: {e}")))?;
        std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
    }
    let requests = metrics
        .deterministic
        .counters
        .get("serve.requests")
        .copied()
        .unwrap_or(0);
    Ok(format!("shut down cleanly after {requests} requests\n"))
}

/// Run the `loadgen` subcommand against an already-running serve
/// instance.
fn run_loadgen(cli: &Cli) -> Result<String, CcError> {
    let target = cli.target.clone().expect("validated in parse");
    let mut cfg = cc_loadgen::LoadConfig::new(target);
    cfg.mix = cc_loadgen::TaskMix::named(cli.mix.as_deref().unwrap_or("mixed"))
        .expect("validated in parse");
    cfg.seed = cli.study.seed;
    if let Some(u) = cli.users {
        cfg.users = u;
    }
    if let Some(r) = cli.duration_requests {
        cfg.requests_per_user = r;
    }

    let report = cc_loadgen::run_load(&cfg)?;
    if let Some(path) = cli.bench_out.as_deref() {
        std::fs::write(path, report.to_json()?).map_err(|e| CcError::io(path, e))?;
    }
    let a = &report.aggregate;
    let e = &report.epochs;
    Ok(format!(
        "{} requests ({} users x {}) in {:.0} ms — {:.0} req/s\n\
         ok {}  304 {}  4xx {}  5xx {} (shed {})  transport {}\n\
         latency p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms\n\
         epochs {}..{} ({} observed, {} regressions)\n",
        report.total_requests,
        report.users,
        report.requests_per_user,
        report.elapsed_ms,
        report.throughput_rps,
        a.ok,
        a.not_modified,
        a.client_errors,
        a.server_errors,
        a.shed,
        a.transport_errors,
        a.latency.p50_ms,
        a.latency.p90_ms,
        a.latency.p99_ms,
        e.min,
        e.max,
        e.observed,
        e.regressions,
    ))
}

/// Run the command on what the study's producer made; returns the text
/// to print.
fn execute(cli: &Cli, produced: Produced) -> Result<String, CcError> {
    let study = match produced {
        Produced::Study(study) => study,
        Produced::Crawl(dataset) => {
            let path = cli.out.as_deref().expect("required by parse");
            let (walks, bytes) = (dataset.walks.len(), write_dataset(path, &dataset)?);
            return Ok(format!("wrote {walks} walks ({bytes} bytes) to {path}\n"));
        }
        Produced::Gaggle(outcome) => {
            let mut artifact_note = String::new();
            if let Some(path) = cli.out.as_deref() {
                let bytes = write_dataset(path, &outcome.dataset)?;
                artifact_note = format!(" — wrote {bytes} bytes to {path}");
            }
            let s = &outcome.stats;
            return Ok(format!(
                "assembled {} walks from {} workers{artifact_note}\n\
                 leases: {} issued, {} completed, {} expired, {} reissued, \
                 {} stale results dropped\n\
                 frames: {} sent / {} received ({} / {} bytes)\n",
                outcome.dataset.walks.len(),
                s.workers_connected,
                s.leases_issued,
                s.leases_completed,
                s.leases_expired,
                s.leases_reissued,
                s.results_dropped_stale,
                s.frames_sent,
                s.frames_received,
                s.bytes_sent,
                s.bytes_received,
            ));
        }
    };
    match cli.command {
        Command::Report if cli.json => serde_json::to_string(&study.report())
            .map_err(|e| CcError::Serde(format!("serialize report: {e}"))),
        Command::Report => Ok(study.report().render()),
        Command::Blocklist => {
            let artifacts = cc_defense::artifacts::BlocklistArtifacts::from_output(&study.output);
            let json = artifacts
                .to_json()
                .map_err(|e| CcError::Serde(format!("serialize blocklist: {e}")))?;
            let path = cli.out.as_deref().expect("required by parse");
            std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
            Ok(format!(
                "released {} token names and {} tracker domains to {path}\n",
                artifacts.token_names.len(),
                artifacts.tracker_domains.len()
            ))
        }
        Command::Defense => {
            let eval = cc_defense::evaluate_defenses(&study.web, &study.output);
            Ok(format!(
                "Disconnect coverage of dedicated smugglers: {}\n\
                 EasyList coverage of smuggling paths:       {}\n\
                 Stripping (well-known params):              {}\n\
                 Stripping (with measurement feedback):      {}\n\
                 Debouncing prevents:                        {}\n",
                eval.disconnect_coverage,
                eval.easylist_coverage,
                eval.strip_well_known,
                eval.strip_with_feedback,
                eval.debounce_prevented
            ))
        }
        Command::Truth => {
            let score = study.truth_score();
            Ok(format!(
                "groups: tp {} fp {} fn {} fingerprint-misses {} unlabeled {}\n\
                 precision {:.3}  recall {:.3}\n",
                score.true_positives,
                score.false_positives,
                score.false_negatives,
                score.fingerprint_misses,
                score.unlabeled,
                score.precision(),
                score.recall()
            ))
        }
        _ => unreachable!("only the pipeline commands produce a study"),
    }
}

/// Write a dataset's JSON to `path`; returns its length in bytes.
fn write_dataset(path: &str, dataset: &CrawlDataset) -> Result<usize, CcError> {
    let json = dataset
        .to_json()
        .map_err(|e| CcError::Serde(format!("serialize dataset: {e}")))?;
    std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
    Ok(json.len())
}
#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_report_defaults() {
        let cli = parse(&argv("report")).unwrap();
        assert_eq!(cli.command, Command::Report);
        assert_eq!(cli.study.web.n_sites, 2_000);
        assert_eq!(cli.study.steps, 10);
        assert!(cli.out.is_none());
        assert!(!cli.study.retry.enabled(), "fault tolerance is opt-in");
        assert!(!cli.study.breaker.enabled());
        assert!(cli.study.checkpoint.is_none());
        assert!(cli.resume.is_none());
    }

    #[test]
    fn parse_options() {
        let cli = parse(&argv(
            "crawl --seed 0xAB --sites 500 --seeders 100 --steps 4 --walks 20 --out d.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Crawl);
        assert_eq!(cli.study.web.seed, 0xAB);
        assert_eq!(cli.study.seed, 0xAB);
        assert_eq!(cli.study.web.n_sites, 500);
        assert_eq!(cli.study.web.n_seeders, 100);
        assert_eq!(cli.study.steps, 4);
        assert_eq!(cli.study.walks, Some(20));
        assert_eq!(cli.out.as_deref(), Some("d.json"));
    }

    #[test]
    fn parse_workers() {
        let cli = parse(&argv("report --workers 4")).unwrap();
        assert_eq!(cli.workers, Some(4));
        assert_eq!(cli.study.workers, 4);
        let cli = parse(&argv("report")).unwrap();
        assert_eq!(cli.workers, None, "serial crawl by default");
        assert_eq!(cli.study.workers, 1);
        let cli = parse(&argv("report --workers 0")).unwrap();
        assert!(cli.workers.unwrap() >= 1, "0 resolves to available CPUs");
        assert!(parse(&argv("report --workers")).is_err());
        assert!(parse(&argv("report --workers many")).is_err());
    }

    #[test]
    fn parse_fault_tolerance_flags() {
        let cli = parse(&argv(
            "report --failure-rate 0.2 --retries 4 --breaker 3 \
             --checkpoint ck.json --checkpoint-every 100 --kill-after 50",
        ))
        .unwrap();
        assert_eq!(cli.study.failure_rate, 0.2);
        assert!(cli.study.retry.enabled());
        assert_eq!(cli.study.retry.attempts, 4);
        assert!(cli.study.breaker.enabled());
        assert_eq!(cli.study.breaker.failure_threshold, 3);
        let ck = cli.study.checkpoint.as_ref().unwrap();
        assert_eq!(ck.path, "ck.json");
        assert_eq!(ck.every, 100);
        assert_eq!(cli.kill_after, Some(50));

        let cli = parse(&argv("report --retries 0")).unwrap();
        assert!(!cli.study.retry.enabled(), "--retries 0 disables retries");
        let cli = parse(&argv("report --checkpoint ck.json")).unwrap();
        assert_eq!(
            cli.study.checkpoint.unwrap().every,
            100,
            "default interval"
        );
        let cli = parse(&argv("report --resume ck.json")).unwrap();
        assert_eq!(cli.resume.as_deref(), Some("ck.json"));
    }

    #[test]
    fn parse_rejects_invalid_fault_tolerance() {
        assert!(parse(&argv("report --failure-rate 1.5")).is_err());
        assert!(parse(&argv("report --failure-rate banana")).is_err());
        assert!(
            parse(&argv("report --checkpoint-every 10")).is_err(),
            "--checkpoint-every without --checkpoint"
        );
        assert!(parse(&argv("report --checkpoint")).is_err());
        assert!(parse(&argv("report --resume")).is_err());
    }

    #[test]
    fn workers_report_matches_serial_report() {
        let web = cc_web::WebConfig::small();
        let base = "truth --steps 3 --walks 8";
        let mut serial = parse(&argv(base)).unwrap();
        serial.study.web = web.clone();
        let mut parallel = parse(&argv(&format!("{base} --workers 3"))).unwrap();
        parallel.study.web = web;
        assert_eq!(run(&serial).unwrap(), run(&parallel).unwrap());
    }

    #[test]
    fn duplicate_flags_are_rejected_by_name() {
        let err = parse(&argv("report --seed 1 --seed 2")).unwrap_err().to_string();
        assert!(err.contains("duplicate flag --seed"), "unhelpful error: {err}");
        let err = parse(&argv("crawl --out a.json --out b.json"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate flag --out"), "unhelpful error: {err}");
        let err = parse(&argv("report --trace --trace")).unwrap_err().to_string();
        assert!(err.contains("duplicate flag --trace"), "unhelpful error: {err}");
        // A value that happens to equal a flag's spelling is a value,
        // not a second occurrence.
        let cli = parse(&argv("crawl --out --seed --seed 3")).unwrap();
        assert_eq!(cli.out.as_deref(), Some("--seed"));
        assert_eq!(cli.study.seed, 3);
    }

    #[test]
    fn parse_serve_flags() {
        let cli = parse(&argv(
            "serve --addr 127.0.0.1:0 --serve-workers 2 --max-inflight 8 \
             --load ck.json --addr-file addr.txt",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.study.serve.addr, "127.0.0.1:0");
        assert_eq!(cli.study.serve.workers, 2);
        assert_eq!(cli.study.serve.max_inflight, 8);
        assert_eq!(cli.load.as_deref(), Some("ck.json"));
        assert_eq!(cli.addr_file.as_deref(), Some("addr.txt"));

        let cli = parse(&argv("serve")).unwrap();
        assert_eq!(cli.study.serve.addr, "127.0.0.1:8040");
        assert_eq!(cli.study.serve.workers, 8);
        assert!(cli.load.is_none());

        assert!(
            parse(&argv("serve --serve-workers 8 --max-inflight 2")).is_err(),
            "admission bound below the worker count is nonsense"
        );
    }

    #[test]
    fn parse_live_serving_flags() {
        let cli = parse(&argv(
            "crawl --out ds.json --serve-addr 127.0.0.1:0 --serve-addr-file addr.txt \
             --publish-every 10",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Crawl);
        assert_eq!(cli.serve_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.serve_addr_file.as_deref(), Some("addr.txt"));
        assert_eq!(cli.publish_every, Some(10));

        let cli = parse(&argv("serve --follow ck.ccp")).unwrap();
        assert_eq!(cli.follow.as_deref(), Some("ck.ccp"));
        assert!(cli.load.is_none());

        let err = parse(&argv("serve --follow a.ccp --load b.ccp"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("mutually exclusive"), "unhelpful error: {err}");
        assert!(
            parse(&argv("report --follow ck.ccp")).is_err(),
            "--follow only makes sense for serve"
        );
        assert!(
            parse(&argv("serve --serve-addr 127.0.0.1:0")).is_err(),
            "--serve-addr is the crawl command's live-serving flag"
        );
        assert!(
            parse(&argv("crawl --out ds.json --serve-addr-file addr.txt")).is_err(),
            "--serve-addr-file without --serve-addr has nothing to write"
        );
        assert!(
            parse(&argv("crawl --out ds.json --publish-every 5")).is_err(),
            "--publish-every without --serve-addr publishes to nobody"
        );
        let err = parse(&argv("crawl --out ds.json --serve-addr 127.0.0.1:0 --publish-every 0"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("at least 1"), "unhelpful error: {err}");
    }

    #[test]
    fn parse_loadgen_flags() {
        let cli = parse(&argv(
            "loadgen --target 127.0.0.1:9 --users 2 --duration-requests 50 \
             --mix lookups --bench-out BENCH_serve.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Loadgen);
        assert_eq!(cli.target.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(cli.users, Some(2));
        assert_eq!(cli.duration_requests, Some(50));
        assert_eq!(cli.mix.as_deref(), Some("lookups"));
        assert_eq!(cli.bench_out.as_deref(), Some("BENCH_serve.json"));

        assert!(parse(&argv("loadgen")).is_err(), "loadgen requires --target");
        let err = parse(&argv("loadgen --target 127.0.0.1:9 --mix chaos"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("chaos"), "unhelpful mix error: {err}");
    }

    #[test]
    fn parse_gaggle_flags() {
        let cli = parse(&argv(
            "gaggle manager --workers-expected 2 --bind 127.0.0.1:0 --lease-walks 5 \
             --lease-timeout-ms 500 --out ds.json --addr-file a.txt",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Gaggle);
        assert_eq!(cli.gaggle_role, Some(GaggleRole::Manager));
        assert_eq!(cli.workers_expected, Some(2));
        assert_eq!(cli.bind.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.lease_walks, Some(5));
        assert_eq!(cli.lease_timeout_ms, Some(500));
        assert_eq!(cli.out.as_deref(), Some("ds.json"));
        assert_eq!(cli.addr_file.as_deref(), Some("a.txt"));

        let cli = parse(&argv("gaggle worker --connect 127.0.0.1:9")).unwrap();
        assert_eq!(cli.gaggle_role, Some(GaggleRole::Worker));
        assert_eq!(cli.connect.as_deref(), Some("127.0.0.1:9"));

        let cli = parse(&argv("crawl --out d.json --gaggle 2 --lease-walks 4")).unwrap();
        assert_eq!(cli.gaggle, Some(2));
        assert_eq!(cli.lease_walks, Some(4));

        assert!(parse(&argv("gaggle")).is_err(), "gaggle requires a role");
        assert!(parse(&argv("gaggle worker")).is_err(), "worker requires --connect");
        assert!(parse(&argv("gaggle manager worker")).is_err(), "one role only");
        assert!(parse(&argv("manager")).is_err(), "role without the gaggle command");
        assert!(
            parse(&argv("gaggle manager --connect 127.0.0.1:9")).is_err(),
            "--connect is the worker's flag"
        );
        for bad in [
            "gaggle worker --connect a --bind 127.0.0.1:0",
            "gaggle worker --connect a --out d.json",
            "gaggle worker --connect a --metrics-out m.json",
            "gaggle worker --connect a --obs-addr 127.0.0.1:0",
        ] {
            assert!(parse(&argv(bad)).is_err(), "worker flags leak: {bad}");
        }
        assert!(parse(&argv("report --gaggle 2")).is_err(), "--gaggle is crawl-only");
        assert!(parse(&argv("crawl --out d.json --gaggle 0")).is_err());
        assert!(parse(&argv("report --lease-walks 4")).is_err());
        assert!(parse(&argv("report --bind 127.0.0.1:0")).is_err());
        assert!(
            parse(&argv("crawl --out d.json --gaggle 2 --serve-addr 127.0.0.1:0")).is_err(),
            "live serving follows the in-process executor"
        );
        assert!(
            parse(&argv("crawl --out d.json --gaggle 2 --kill-after 4")).is_err(),
            "--kill-after drains the in-process crawl"
        );
    }

    #[test]
    fn gaggle_through_the_cli_matches_a_single_process_crawl() {
        let dir = std::env::temp_dir().join("ccrs-cli-gaggle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let solo_out = dir.join("solo.json");
        let gaggle_out = dir.join("gaggle.json");
        let addr_file = dir.join("addr.txt");
        std::fs::remove_file(&addr_file).ok();

        let study = "--seed 5 --steps 3 --walks 12 --workers 2";
        let mut solo =
            parse(&argv(&format!("crawl {study} --out {}", solo_out.display()))).unwrap();
        solo.study.web = cc_web::WebConfig::small();
        run(&solo).unwrap();

        // Manager in one thread, two CLI workers in others (threads, not
        // child processes: under `cargo test` current_exe is the test
        // harness, so the spawning path is covered by the integration
        // tests that have CARGO_BIN_EXE instead).
        let mut manager = parse(&argv(&format!(
            "gaggle manager {study} --workers-expected 2 --lease-walks 4 \
             --addr-file {} --out {}",
            addr_file.display(),
            gaggle_out.display()
        )))
        .unwrap();
        manager.study.web = cc_web::WebConfig::small();
        let manager = std::thread::spawn(move || run(&manager));
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            loop {
                if let Ok(s) = std::fs::read_to_string(&addr_file) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "manager never bound");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        };
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cli = parse(&argv(&format!("gaggle worker --connect {addr}"))).unwrap();
                std::thread::spawn(move || run(&cli))
            })
            .collect();
        let summary = manager.join().unwrap().unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }

        assert!(summary.contains("assembled 12 walks"), "{summary}");
        let solo_json = std::fs::read_to_string(&solo_out).unwrap();
        let gaggle_json = std::fs::read_to_string(&gaggle_out).unwrap();
        assert_eq!(solo_json, gaggle_json, "gaggle dataset bytes diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_loadgen_end_to_end_through_the_cli() {
        let dir = std::env::temp_dir().join("ccrs-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr.txt");
        let bench = dir.join("BENCH_serve.json");
        std::fs::remove_file(&addr_file).ok();

        // The server: a small fresh study on an ephemeral port.
        let mut serve_cli = parse(&argv(&format!(
            "serve --seed 5 --steps 5 --walks 15 --addr 127.0.0.1:0 \
             --serve-workers 4 --addr-file {}",
            addr_file.display()
        )))
        .unwrap();
        serve_cli.study.web = cc_web::WebConfig::small();
        let server = std::thread::spawn(move || run(&serve_cli));

        // Wait for the addr file to appear (the crawl takes a moment).
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            loop {
                if let Ok(s) = std::fs::read_to_string(&addr_file) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "server never came up");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        };

        // Drive it through the loadgen subcommand.
        let loadgen_cli = parse(&argv(&format!(
            "loadgen --target {addr} --users 2 --duration-requests 30 --bench-out {}",
            bench.display()
        )))
        .unwrap();
        let summary = run(&loadgen_cli).unwrap();
        assert!(summary.contains("60 requests"), "unexpected summary: {summary}");
        let bench_report = crate::loadgen::LoadReport::from_json(
            &std::fs::read_to_string(&bench).unwrap(),
        )
        .unwrap();
        assert_eq!(bench_report.total_requests, 60);
        assert_eq!(bench_report.aggregate.server_errors, 0);
        assert_eq!(bench_report.aggregate.transport_errors, 0);

        // The served /report is byte-identical to `report --json` of the
        // same study.
        let mut report_cli =
            parse(&argv("report --json --seed 5 --steps 5 --walks 15")).unwrap();
        report_cli.study.web = cc_web::WebConfig::small();
        let offline = run(&report_cli).unwrap();
        let served = {
            use std::io::{BufReader, Write};
            let mut stream = std::net::TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            write!(stream, "GET /report HTTP/1.1\r\nhost: {addr}\r\n\r\n").unwrap();
            let resp = crate::http::Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status.0, 200);
            String::from_utf8(resp.body.wire_bytes().to_vec()).unwrap()
        };
        assert_eq!(served, offline, "served report diverged from the offline one");

        // Shut the server down over the wire and join the serve command.
        {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(&addr).unwrap();
            write!(
                stream,
                "POST /shutdown HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n"
            )
            .unwrap();
        }
        let farewell = server.join().unwrap().unwrap();
        assert!(
            farewell.contains("shut down cleanly"),
            "unexpected serve output: {farewell}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_species_flag() {
        let cli = parse(&argv("report --species all")).unwrap();
        assert!(cli.study.web.species_enabled());
        assert_eq!(cli.study.web.n_remint, 2);
        assert_eq!(cli.study.web.n_etag, 2);
        assert_eq!(cli.study.web.n_consent, 2);
        assert_eq!(cli.study.web.n_spa, 2);
        assert_eq!(cli.study.web.n_cname, 2);
        assert_eq!(cli.study.web.n_sites, 2_000, "world scale is untouched");

        let cli = parse(&argv("report --species remint,spa")).unwrap();
        assert_eq!(cli.study.web.n_remint, 2);
        assert_eq!(cli.study.web.n_spa, 2);
        assert_eq!(cli.study.web.n_etag, 0);
        assert_eq!(cli.study.web.n_consent, 0);
        assert_eq!(cli.study.web.n_cname, 0);

        // The comma list and 'all' describe the same world.
        let listed = parse(&argv("report --species remint,etag,consent,spa,cname")).unwrap();
        let all = parse(&argv("report --species all")).unwrap();
        assert_eq!(listed.study.web, all.study.web);

        let cli = parse(&argv("report")).unwrap();
        assert!(!cli.study.web.species_enabled(), "species are opt-in");

        let err = parse(&argv("report --species werewolf")).unwrap_err().to_string();
        assert!(err.contains("werewolf"), "unhelpful error: {err}");
        assert!(parse(&argv("report --species")).is_err());
        assert!(parse(&argv("report --species all --species all")).is_err());
    }

    #[test]
    fn parse_paper_scale_preserves_seed() {
        let cli = parse(&argv("report --seed 42 --paper-scale")).unwrap();
        assert_eq!(cli.study.web.seed, 42);
        assert_eq!(cli.study.web.n_seeders, 10_000);
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("report report")).is_err());
        assert!(parse(&argv("report --seed")).is_err());
        assert!(parse(&argv("report --seed banana")).is_err());
        assert!(parse(&argv("report --frobnicate")).is_err());
        assert!(parse(&argv("crawl")).is_err(), "crawl requires --out");
        assert!(parse(&argv("blocklist")).is_err());
    }

    #[test]
    fn help_runs_without_crawling() {
        let cli = parse(&argv("help")).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("--metrics-out"), "help must document telemetry flags");
        assert!(out.contains("--trace"), "help must document telemetry flags");
        assert!(out.contains("--retries"), "help must document fault tolerance");
        assert!(out.contains("--resume"), "help must document fault tolerance");
    }

    #[test]
    fn parse_metrics_flags() {
        let cli = parse(&argv("report --metrics-out m.json --trace")).unwrap();
        assert_eq!(cli.metrics_out.as_deref(), Some("m.json"));
        assert!(cli.trace);
        let cli = parse(&argv("report")).unwrap();
        assert!(cli.metrics_out.is_none(), "telemetry is opt-in");
        assert!(!cli.trace);
        assert!(parse(&argv("report --metrics-out")).is_err());
    }

    #[test]
    fn parse_observability_flags() {
        let cli = parse(&argv(
            "crawl --out d.json --obs-addr 127.0.0.1:0 --obs-addr-file oa.txt \
             --trace-out trace.json --dashboard-out run.html",
        ))
        .unwrap();
        assert_eq!(cli.obs_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.obs_addr_file.as_deref(), Some("oa.txt"));
        assert_eq!(cli.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(cli.dashboard_out.as_deref(), Some("run.html"));
        assert!(!cli.prom);

        let cli = parse(&argv("report --prom")).unwrap();
        assert!(cli.prom);

        let cli = parse(&argv("report")).unwrap();
        assert!(cli.obs_addr.is_none(), "observability is opt-in");
        assert!(cli.trace_out.is_none());
        assert!(cli.dashboard_out.is_none());

        // An addr file without an observer to bind is a mistake.
        let err = parse(&argv("report --obs-addr-file oa.txt")).unwrap_err().to_string();
        assert!(err.contains("--obs-addr"), "unhelpful error: {err}");
        // The plane watches study runs, not serve/loadgen sessions.
        for bad in [
            "serve --obs-addr 127.0.0.1:0",
            "loadgen --target 127.0.0.1:9 --dashboard-out run.html",
            "serve --prom",
            "help --trace-out t.json",
        ] {
            let err = parse(&argv(bad)).unwrap_err().to_string();
            assert!(err.contains("study commands"), "{bad}: {err}");
        }
        assert!(parse(&argv("report --obs-addr")).is_err());
        assert!(parse(&argv("report --trace-out")).is_err());
        assert!(parse(&argv("report --dashboard-out")).is_err());
    }

    #[test]
    fn unwritable_metrics_out_is_rejected_before_the_crawl() {
        let mut cli =
            parse(&argv("report --metrics-out /nonexistent-ccrs-dir/m.json")).unwrap();
        // A paper-scale world would take minutes — the unwritable path must
        // error out long before the crawl would start.
        cli.study.web = cc_web::WebConfig::paper_scale();
        let start = std::time::Instant::now();
        let err = run(&cli).unwrap_err().to_string();
        assert!(
            err.contains("--metrics-out") && err.contains("not writable"),
            "unclear error: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "rejection should be fail-fast, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn metrics_out_writes_a_parsable_run_report() {
        let dir = std::env::temp_dir().join("ccrs-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let mut cli = parse(&argv(&format!(
            "truth --seed 5 --steps 3 --walks 6 --workers 2 --trace --metrics-out {}",
            path.display()
        )))
        .unwrap();
        cli.study.web = cc_web::WebConfig::small();
        run(&cli).unwrap();
        let report =
            cc_telemetry::RunReport::from_json(&std::fs::read_to_string(&path).unwrap())
                .expect("run report parses back");
        assert_eq!(report.schema, cc_telemetry::RunReport::SCHEMA);
        assert!(
            !report.deterministic.counters.is_empty(),
            "no counters recorded"
        );
        assert!(!report.timing.spans.is_empty(), "no spans recorded");
        let workers = report.workers.expect("parallel run carries worker section");
        assert_eq!(workers.n_workers, 2);
        assert_eq!(workers.per_worker.len(), 2);
    }

    #[test]
    fn truth_command_end_to_end() {
        let mut cli = parse(&argv("truth --seed 9 --sites 60 --seeders 10 --steps 3")).unwrap();
        cli.study.web = cc_web::WebConfig {
            seed: 9,
            n_sites: 60,
            n_seeders: 10,
            ..cc_web::WebConfig::small()
        };
        let out = run(&cli).unwrap();
        assert!(out.contains("precision"), "{out}");
    }

    #[test]
    fn blocklist_command_writes_file() {
        let dir = std::env::temp_dir().join("ccrs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocklist.json");
        let cli = parse(&argv(&format!(
            "blocklist --seed 4 --sites 80 --seeders 12 --steps 3 --out {}",
            path.display()
        )))
        .unwrap();
        let msg = run(&cli).unwrap();
        assert!(msg.contains("released"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            cc_defense::artifacts::BlocklistArtifacts::from_json(&content).is_ok(),
            "released bundle should parse back"
        );
    }

    #[test]
    fn kill_and_resume_through_the_cli_match_an_uninterrupted_run() {
        let dir = std::env::temp_dir().join("ccrs-cli-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json");
        let full_out = dir.join("full.json");
        let resumed_out = dir.join("resumed.json");
        let base = format!(
            "crawl --seed 11 --steps 3 --walks 10 --failure-rate 0.2 --retries 3 \
             --workers 2 --checkpoint {} --checkpoint-every 2",
            ck.display()
        );

        let mut full = parse(&argv(&format!("{base} --out {}", full_out.display()))).unwrap();
        full.study.web = cc_web::WebConfig::small();
        run(&full).unwrap();

        let mut killed =
            parse(&argv(&format!("{base} --kill-after 4 --out {}", dir.join("k.json").display())))
                .unwrap();
        killed.study.web = cc_web::WebConfig::small();
        run(&killed).unwrap();

        let mut resumed = parse(&argv(&format!(
            "{base} --resume {} --out {}",
            ck.display(),
            resumed_out.display()
        )))
        .unwrap();
        resumed.study.web = cc_web::WebConfig::small();
        run(&resumed).unwrap();

        let full_json = std::fs::read_to_string(&full_out).unwrap();
        let resumed_json = std::fs::read_to_string(&resumed_out).unwrap();
        assert_eq!(full_json, resumed_json, "resumed dataset bytes diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_out_is_rejected_before_the_crawl() {
        for command in ["crawl", "blocklist"] {
            // A paper-scale world would take minutes — the unwritable path
            // must error out long before the crawl would start.
            let cli = parse(&argv(&format!(
                "{command} --paper-scale --out /nonexistent-ccrs-dir/out.json"
            )))
            .unwrap();
            let start = std::time::Instant::now();
            let err = run(&cli).unwrap_err().to_string();
            assert!(
                err.contains("--out") && err.contains("not writable"),
                "{command}: unclear error: {err}"
            );
            assert!(
                start.elapsed() < std::time::Duration::from_secs(5),
                "{command}: rejection should be fail-fast, took {:?}",
                start.elapsed()
            );
        }
    }

    /// Valid command lines that set overlapping parts of the study, for the
    /// flag-order property below.
    const ORDERED_LINES: [&str; 6] = [
        "crawl --seed 5 --paper-scale --species remint,spa --sites 300 --seeders 40 --steps 3 \
         --walks 7 --workers 2 --checkpoint ck.json --checkpoint-every 5 --failure-rate 0.1 \
         --retries 3 --breaker 2 --out d.json --metrics-out m.json --trace",
        "report --species all --paper-scale --seed 0x2A --json --kill-after 4 \
         --resume ck.json --prom --workers 0",
        "gaggle manager --sites 500 --seeders 9 --paper-scale --seed 3 --lease-walks 4 \
         --lease-timeout-ms 900 --workers-expected 3 --bind 127.0.0.1:0 --addr-file a.txt \
         --out d.json --checkpoint ck.json --checkpoint-every 2",
        "serve --paper-scale --sites 12000 --addr 127.0.0.1:0 --serve-workers 2 --max-inflight 4 \
         --addr-file a.txt --metrics-out m.json --checkpoint ck.json --checkpoint-every 3",
        "crawl --out d.json --serve-addr 127.0.0.1:0 --serve-addr-file s.txt \
         --publish-every 5 --species etag --paper-scale --seeders 20",
        "loadgen --target 127.0.0.1:9 --users 2 --duration-requests 5 --mix lookups \
         --bench-out b.json --seed 7",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The setters run in table order, so no permutation of a valid
        /// command line's flags changes what it parses to.
        #[test]
        fn flag_order_never_changes_the_invocation(
            line in 0..ORDERED_LINES.len(),
            keys in proptest::collection::vec(0u64..1_000_000, 32..33),
        ) {
            let words = argv(ORDERED_LINES[line]);
            let first_flag = words.iter().position(|w| w.starts_with("--")).unwrap();
            let mut groups: Vec<Vec<String>> = Vec::new();
            for word in &words[first_flag..] {
                match groups.last_mut() {
                    Some(group) if !word.starts_with("--") => group.push(word.clone()),
                    _ => groups.push(vec![word.clone()]),
                }
            }
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by_key(|&i| (keys[i], i));
            let mut shuffled = words[..first_flag].to_vec();
            shuffled.extend(order.iter().flat_map(|&i| groups[i].clone()));
            let expected = format!("{:?}", parse(&words).unwrap());
            let got = format!("{:?}", parse(&shuffled).unwrap());
            proptest::prop_assert_eq!(got, expected, "argv {:?}", shuffled);
        }
    }

    /// The command line a documentation line runs the binary with, if it
    /// runs it: env-var prefixes, `&` tails, pipes, redirections and
    /// comments dropped, and every substitution replaced by an address.
    fn documented_invocation(line: &str) -> Option<Vec<String>> {
        let mut line = line.to_string();
        while let Some(start) = line.find("$(") {
            let mut depth = 0;
            let end = line[start..]
                .char_indices()
                .find(|&(_, c)| {
                    depth += (c == '(') as i32 - (c == ')') as i32;
                    c == ')' && depth == 0
                })
                .map(|(i, _)| start + i + 1)?;
            line.replace_range(start..end, "127.0.0.1:9");
        }
        let mut tokens = line
            .split_whitespace()
            .map(|t| t.trim_matches(|c| c == '"' || c == '\''))
            .skip_while(|t| {
                t.split_once('=').is_some_and(|(k, _)| {
                    k.chars().all(|c| c.is_ascii_uppercase() || c == '_') && !k.is_empty()
                })
            })
            .take_while(|t| {
                !["&", "&&", "|", "||", ";"].contains(t)
                    && !t.starts_with(['>', '<', '#'])
                    && !t.starts_with("2>")
            })
            .map(|t| {
                if t.contains('$') {
                    "127.0.0.1:9".to_string()
                } else {
                    t.to_string()
                }
            });
        match tokens.next()?.as_str() {
            "cargo" => {
                // `cargo run` of this package's binary, named or not.
                let cargo: Vec<String> = tokens.by_ref().take_while(|t| t != "--").collect();
                let others = ["--example", "--manifest-path", "-p", "--package"];
                let runs_it = cargo.first().is_some_and(|t| t == "run")
                    && !cargo.iter().any(|t| others.contains(&t.as_str()))
                    && cargo.windows(2).all(|w| w[0] != "--bin" || w[1] == "crumbcruncher");
                runs_it.then(|| tokens.collect())
            }
            word if word.ends_with("crumbcruncher") => Some(tokens.collect()),
            _ => None,
        }
    }

    #[test]
    fn documented_invocations_parse() {
        let mut checked = 0;
        for (doc, text) in [
            ("README.md", include_str!("../README.md")),
            ("ci.yml", include_str!("../.github/workflows/ci.yml")),
        ] {
            let mut joined = String::new();
            for line in text.lines() {
                let line = line.trim_end();
                match line.strip_suffix('\\') {
                    Some(head) => joined.push_str(head),
                    None => {
                        joined.push_str(line);
                        if let Some(args) = documented_invocation(&std::mem::take(&mut joined)) {
                            if let Err(e) = parse(&args) {
                                panic!("{doc}: `{}` does not parse: {e}", args.join(" "));
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked >= 40, "found only {checked} documented invocations");
    }
}
