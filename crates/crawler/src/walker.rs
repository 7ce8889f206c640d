//! Ten-step random walks with four synchronized crawlers.
//!
//! The execution model mirrors §3.1–§3.3:
//!
//! 1. Safari-1, Safari-2, and Chrome-3 load the same URL. The walk loop is
//!    the controller: it drives the three browsers in lockstep, one after
//!    another, and meets them at every rendezvous. Each browser owns its
//!    clock and randomness stream, so the order never changes a byte;
//!    crawl-level parallelism runs whole walks on separate workers.
//! 2. Each sends its element list to the controller, which applies the
//!    three matching heuristics and picks one shared element, preferring
//!    cross-site navigation.
//! 3. All three click; each follows its own redirect chain (dynamic ads
//!    mean the "same" iframe can lead to different places).
//! 4. Safari-1R — the *same user* as Safari-1, realized by cloning
//!    Safari-1's storage — repeats the step immediately after Safari-1
//!    finishes it.
//! 5. The controller compares final FQDNs; disagreement terminates the
//!    walk (but the data is kept, because those steps often contain
//!    separate instances of UID smuggling).
//!
//! Browser state persists for the duration of a walk and is discarded when
//! a new walk begins (§3.1).

use cc_browser::{Browser, Profile, Storage, StoragePolicy};
use cc_http::RequestKind;
use cc_net::{BreakerPolicy, FaultModel, RecoveryStats, RetryPolicy, SimClock, SimTime};
use cc_url::Url;
use cc_util::{DetRng, IStr};
use cc_web::{ClickTarget, ElementModel, SimWeb};

use crate::matching::{find_matching, select_shared};
use crate::names::CrawlerName;
use crate::record::{
    ClickedElement, CrawlDataset, CrawlObservation, FailureStats, StepRecord, WalkRecord,
    WalkTermination,
};

/// A navigation-rewriting hook: what a privacy defense installed in the
/// browser does to a click target before the navigation fires (Brave's
/// debouncing and query stripping are exactly this shape — §7.1).
#[derive(Clone)]
pub struct NavigationRewriter(pub std::sync::Arc<dyn Fn(&Url) -> Url + Send + Sync>);

impl NavigationRewriter {
    /// Wrap a rewriting function.
    pub fn new(f: impl Fn(&Url) -> Url + Send + Sync + 'static) -> Self {
        NavigationRewriter(std::sync::Arc::new(f))
    }

    /// Apply the rewrite.
    pub fn rewrite(&self, url: &Url) -> Url {
        (self.0)(url)
    }
}

impl std::fmt::Debug for NavigationRewriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NavigationRewriter(..)")
    }
}

/// Crawl parameters.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Master seed.
    pub seed: u64,
    /// Steps per walk (the paper uses 10).
    pub steps_per_walk: usize,
    /// Limit on the number of walks (None = one per seeder).
    pub max_walks: Option<usize>,
    /// Per-connection failure probability (the paper observed 3.3%).
    pub connect_failure_rate: f64,
    /// Browser storage policy (the paper's subject is `Partitioned`).
    pub storage_policy: StoragePolicy,
    /// Machine fingerprint shared by all four crawlers (one machine).
    pub fingerprint: u64,
    /// Retry policy for transient connection faults. The default is
    /// [`RetryPolicy::disabled`] so historical datasets stay byte-stable;
    /// enable via `StudyConfig::builder().retry(..)`.
    pub retry: RetryPolicy,
    /// Per-host circuit-breaker policy (disabled by default, same reason).
    pub breaker: BreakerPolicy,
    /// Optional in-browser defense applied to every click target before
    /// navigation (None = the paper's unprotected measurement).
    pub rewriter: Option<NavigationRewriter>,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            seed: 7,
            steps_per_walk: 10,
            max_walks: None,
            connect_failure_rate: 0.033,
            storage_policy: StoragePolicy::Partitioned,
            fingerprint: 0x51_AB_17_E5,
            retry: RetryPolicy::disabled(),
            breaker: BreakerPolicy::disabled(),
            rewriter: None,
        }
    }
}

/// The simulated study start: late October 2021 in epoch milliseconds, so
/// timestamp parameters minted by trackers have realistic shapes.
pub const STUDY_EPOCH_MS: u64 = 1_635_000_000_000;

/// The crawl driver.
pub struct Walker<'w> {
    web: &'w SimWeb,
    cfg: CrawlConfig,
    /// Reusable per-worker browser set. Between walks the browsers are
    /// rebound via [`Browser::prepare_walk`] — observationally identical
    /// to fresh construction, but the storage maps and request-log
    /// buffers keep their allocations, which removes most of the fixed
    /// per-walk overhead the executor pays on top of the walk itself.
    pool: Option<Box<WalkPool<'w>>>,
}

/// The four browsers of one walk, reused across walks.
struct WalkPool<'w> {
    browsers: [Browser<'w>; 3],
    trailing: Browser<'w>,
}

/// Snapshot, click, and follow: one crawler's half of a walk step.
fn click_leg(
    b: &mut Browser<'_>,
    page_url: Url,
    kind: cc_web::ElementKind,
    xpath: String,
    target: Url,
) -> CrawlLegAndPage {
    let page_snapshot = b.snapshot(&page_url.registered_domain_interned());
    let clicked = Some(ClickedElement { kind, xpath });
    match b.navigate(target) {
        Ok(mut out) => {
            let dest_snapshot = Some(b.snapshot(&out.final_url.registered_domain_interned()));
            let beacons = drain_beacons(b);
            // The hop list is only needed in the record; the outcome that
            // continues the walk only needs the final URL and page, so the
            // hops move rather than copy.
            let nav_hops = std::mem::take(&mut out.hops);
            CrawlLeg {
                page_url,
                page_snapshot,
                clicked,
                nav_hops,
                final_url: Some(out.final_url.clone()),
                dest_snapshot,
                beacons,
                error: None,
            }
            .with_outcome(out)
        }
        Err(e) => CrawlLegAndPage {
            leg: CrawlLeg {
                page_url,
                page_snapshot,
                clicked,
                nav_hops: Vec::new(),
                final_url: None,
                dest_snapshot: None,
                beacons: drain_beacons(b),
                error: Some(e.to_string()),
            },
            outcome: None,
        },
    }
}

/// Outcome of one crawler finishing one navigation within a step.
struct CrawlLeg {
    page_url: Url,
    page_snapshot: cc_browser::StorageSnapshot,
    clicked: Option<ClickedElement>,
    nav_hops: Vec<Url>,
    final_url: Option<Url>,
    dest_snapshot: Option<cc_browser::StorageSnapshot>,
    beacons: Vec<(IStr, Url)>,
    error: Option<String>,
}

impl<'w> Walker<'w> {
    /// Build a walker over a world.
    pub fn new(web: &'w SimWeb, cfg: CrawlConfig) -> Self {
        Walker {
            web,
            cfg,
            pool: None,
        }
    }

    /// Run the full crawl: one walk per seeder (§3.1's depth-first
    /// strategy: maximize distinct pages, one click per page).
    pub fn crawl(&mut self) -> CrawlDataset {
        let mut dataset = CrawlDataset::default();
        let seeders = self.web.seeder_urls();
        let limit = self.cfg.max_walks.unwrap_or(seeders.len());
        for (walk_id, seeder) in seeders.iter().take(limit).enumerate() {
            let walk = self.walk(walk_id as u32, seeder.clone(), &mut dataset.failures);
            dataset.ledger.note(&walk);
            dataset.walks.push(walk);
        }
        dataset
    }

    /// The per-walk deterministic streams: profile (with its embedded RNG
    /// stream), fault process, and retry-jitter stream. Keyed only by the
    /// global walk id and crawler name, never by worker identity.
    fn walk_streams(&self, walk_id: u32, crawler: CrawlerName) -> (Profile, FaultModel, DetRng) {
        let root = DetRng::new(self.cfg.seed);
        let stream = root.fork_indexed("walk-crawler", u64::from(walk_id) * 16 + crawler as u64);
        let profile = match crawler {
            CrawlerName::Chrome3 => Profile::chrome(crawler.label(), self.cfg.fingerprint, stream),
            _ => Profile::safari(crawler.label(), self.cfg.fingerprint, stream),
        };
        // The fault salt is shared by all four crawlers of a walk: a down
        // site is down for everyone, so connect failures never masquerade
        // as divergence (§3.3 counts failures per site visited). The retry
        // jitter stream forks off the same walk-keyed stream (forks are
        // non-consuming, so the salt draw is untouched): all four crawlers
        // wait identical backoffs and their retry outcomes stay in step.
        let fault_stream = root.fork_indexed("fault", u64::from(walk_id));
        let retry_rng = fault_stream.fork("retry");
        let fault = FaultModel::new(fault_stream, self.cfg.connect_failure_rate);
        (profile, fault, retry_rng)
    }

    fn make_browser(&self, walk_id: u32, crawler: CrawlerName) -> Browser<'w> {
        let (profile, fault, retry_rng) = self.walk_streams(walk_id, crawler);
        Browser::new(
            self.web,
            profile,
            Storage::new(self.cfg.storage_policy),
            SimClock::starting_at(SimTime(STUDY_EPOCH_MS)),
            fault,
        )
        .with_fault_tolerance(self.cfg.retry.clone(), self.cfg.breaker, retry_rng)
    }

    /// Rebind one pooled browser to a new walk (same streams as
    /// [`Self::make_browser`], fresh per-walk state, kept allocations).
    fn rebind_browser(&self, b: &mut Browser<'w>, walk_id: u32, crawler: CrawlerName) {
        let (profile, fault, retry_rng) = self.walk_streams(walk_id, crawler);
        b.prepare_walk(
            profile,
            SimClock::starting_at(SimTime(STUDY_EPOCH_MS)),
            fault,
            self.cfg.retry.clone(),
            self.cfg.breaker,
            retry_rng,
        );
    }

    /// Take the reusable browser pool, rebound to `walk_id` (building it
    /// on the first walk). The caller puts it back after the walk.
    fn take_pool(&mut self, walk_id: u32) -> Box<WalkPool<'w>> {
        match self.pool.take() {
            Some(mut pool) => {
                for (b, name) in pool.browsers.iter_mut().zip(CrawlerName::PARALLEL) {
                    self.rebind_browser(b, walk_id, name);
                }
                self.rebind_browser(&mut pool.trailing, walk_id, CrawlerName::Safari1R);
                pool
            }
            None => Box::new(WalkPool {
                browsers: [
                    self.make_browser(walk_id, CrawlerName::Safari1),
                    self.make_browser(walk_id, CrawlerName::Safari2),
                    self.make_browser(walk_id, CrawlerName::Chrome3),
                ],
                trailing: self.make_browser(walk_id, CrawlerName::Safari1R),
            }),
        }
    }

    /// Execute one ten-step walk from a seeder.
    pub(crate) fn walk(
        &mut self,
        walk_id: u32,
        seeder: Url,
        failures: &mut FailureStats,
    ) -> WalkRecord {
        let _walk_span = cc_telemetry::span("crawl.walk");
        let walk_started = std::time::Instant::now();
        let mut pool = self.take_pool(walk_id);
        let mut record = self.walk_inner(&mut pool, walk_id, seeder, failures);
        // Whatever way the walk terminated, roll the retry/breaker
        // accounting of all four crawlers into the record.
        let mut recovery = pool.trailing.recovery;
        for b in &pool.browsers {
            recovery.absorb(&b.recovery);
        }
        self.pool = Some(pool);
        record.recovery = recovery;
        if recovery.retries > 0 {
            cc_telemetry::counter_id(cc_telemetry::CounterId::CRAWL_WALKS_WITH_RETRIES, 1);
        }
        // Observation-only accounting: totals depend on the seed, never on
        // which worker ran the walk, so these stay in the deterministic
        // report section (the duration histogram is timing data).
        let kind = match &record.termination {
            WalkTermination::Completed => cc_telemetry::EventId::CRAWL_WALK_COMPLETED,
            WalkTermination::SyncFailure { .. } => cc_telemetry::EventId::CRAWL_WALK_SYNC_FAILURE,
            WalkTermination::Divergence { .. } => cc_telemetry::EventId::CRAWL_WALK_DIVERGENCE,
            WalkTermination::ConnectFailure { .. } => {
                cc_telemetry::EventId::CRAWL_WALK_CONNECT_FAILURE
            }
        };
        cc_telemetry::event_id(kind);
        cc_telemetry::counter_id(
            cc_telemetry::CounterId::CRAWL_STEPS_RECORDED,
            record.steps.len() as u64,
        );
        cc_telemetry::observe_ms_id(
            cc_telemetry::HistogramId::CRAWL_WALK_DURATION,
            walk_started.elapsed().as_secs_f64() * 1e3,
        );
        record
    }

    /// The walk loop proper: the controller driving the three parallel
    /// crawlers in lockstep (Safari-1, Safari-2, Chrome-3) and Safari-1R
    /// right behind Safari-1.
    fn walk_inner(
        &self,
        pool: &mut WalkPool<'w>,
        walk_id: u32,
        seeder: Url,
        failures: &mut FailureStats,
    ) -> WalkRecord {
        let seeder_domain = seeder.registered_domain_interned();
        let mut controller_rng =
            DetRng::new(self.cfg.seed).fork_indexed("controller", walk_id.into());

        let mut record = WalkRecord {
            walk_id,
            seeder: seeder_domain,
            steps: Vec::new(),
            termination: WalkTermination::Completed,
            recovery: RecoveryStats::default(),
        };

        let WalkPool { browsers, trailing } = pool;

        // Initial load of the seeder page by all three.
        failures.steps_attempted += 1;
        let initial = browsers.each_mut().map(|b| b.navigate(seeder.clone()));
        let mut pages = match split_ok(initial) {
            Ok(outcomes) => outcomes,
            Err(e) => {
                failures.connect_failures += 1;
                record.termination = WalkTermination::ConnectFailure { step: 0, error: e };
                return record;
            }
        };

        for step in 0..self.cfg.steps_per_walk {
            let _step_span = cc_telemetry::span("crawl.step");
            if step > 0 {
                failures.steps_attempted += 1;
            }
            let current_domain = pages[0].final_url.registered_domain_interned();

            // Controller rendezvous: match the three element lists.
            let lists = [
                pages[0].page.elements.as_slice(),
                pages[1].page.elements.as_slice(),
                pages[2].page.elements.as_slice(),
            ];
            let pick = select_shared(lists, &current_domain, &mut controller_rng);
            let Some(shared) = pick else {
                failures.sync_failures += 1;
                record.termination = WalkTermination::SyncFailure { step };
                record.steps.push(page_only_step(browsers, step, &pages));
                return record;
            };

            // Resolve per-crawler click targets (through the installed
            // defense, when any). Elements are borrowed from the live
            // pages — only the navigation URL is owned, because the
            // rewriter may produce a fresh one.
            let mut targets: Vec<Option<(&ElementModel, Url)>> = Vec::with_capacity(3);
            for (i, page) in pages.iter().enumerate() {
                let el = &page.page.elements[shared.indices[i]];
                match &el.target {
                    ClickTarget::Navigate(u) => {
                        let u = match &self.cfg.rewriter {
                            Some(r) => r.rewrite(u),
                            None => u.clone(),
                        };
                        targets.push(Some((el, u)))
                    }
                    ClickTarget::Inert => targets.push(None),
                }
            }
            if targets.iter().any(Option::is_none) {
                // An inert "shared" element is unusable; treat like a
                // synchronization failure.
                failures.sync_failures += 1;
                record.termination = WalkTermination::SyncFailure { step };
                record.steps.push(page_only_step(browsers, step, &pages));
                return record;
            }
            let targets: Vec<(&ElementModel, Url)> =
                targets.into_iter().map(Option::unwrap).collect();

            // All three click.
            let legs: [CrawlLegAndPage; 3] = std::array::from_fn(|i| {
                let (el, url) = &targets[i];
                click_leg(
                    &mut browsers[i],
                    pages[i].final_url.clone(),
                    el.kind,
                    el.xpath.clone(),
                    url.clone(),
                )
            });

            // Safari-1R replay: become the same user as Safari-1 (clone its
            // post-step state) and repeat the step.
            trailing.storage = browsers[0].storage.clone();
            let trailing_leg = self.replay_step(trailing, &pages[0].final_url, targets[0].0);

            // Assemble the step record.
            let mut step_record = StepRecord {
                index: step,
                observations: Vec::new(),
            };
            let mut new_pages = Vec::new();
            let mut connect_error: Option<String> = None;
            for (i, lp) in legs.into_iter().enumerate() {
                let crawler = CrawlerName::PARALLEL[i];
                if let Some(e) = &lp.leg.error {
                    connect_error = Some(e.clone());
                }
                step_record.observations.push(observation(crawler, lp.leg));
                if let Some(out) = lp.outcome {
                    new_pages.push(out);
                }
            }
            step_record
                .observations
                .push(observation(CrawlerName::Safari1R, trailing_leg));
            record.steps.push(step_record);

            if let Some(e) = connect_error {
                failures.connect_failures += 1;
                record.termination = WalkTermination::ConnectFailure { step, error: e };
                return record;
            }

            // FQDN agreement check (§3.3). Data is retained either way.
            let fqdns: Vec<&str> = new_pages
                .iter()
                .map(|p| p.final_url.host.as_str())
                .collect();
            if fqdns.len() == 3 && (fqdns[0] != fqdns[1] || fqdns[1] != fqdns[2]) {
                failures.divergence_failures += 1;
                record.termination = WalkTermination::Divergence { step };
                return record;
            }

            failures.steps_completed += 1;
            pages = match new_pages.try_into() {
                Ok(p) => p,
                Err(_) => {
                    // A leg failed without a network error (can't happen,
                    // but never panic inside a crawl).
                    record.termination = WalkTermination::ConnectFailure {
                        step,
                        error: "missing navigation outcome".into(),
                    };
                    return record;
                }
            };
        }

        record
    }

    /// Safari-1R's step replay: revisit the page Safari-1 clicked on, find
    /// the matching element on the *fresh* load (dynamic content may have
    /// rotated), and click it.
    fn replay_step(
        &self,
        trailing: &mut Browser<'_>,
        page_url: &Url,
        reference: &ElementModel,
    ) -> CrawlLeg {
        match trailing.navigate(page_url.clone()) {
            Ok(out) => {
                let page_snapshot = trailing.snapshot(&out.final_url.registered_domain_interned());
                let matched = find_matching(reference, &out.page.elements);
                // Only the clicked element's kind and xpath survive into
                // the record; cloning the whole model (href, geometry)
                // would be waste.
                let click = matched.and_then(|idx| {
                    let el = &out.page.elements[idx];
                    match &el.target {
                        ClickTarget::Navigate(u) => {
                            let u = match &self.cfg.rewriter {
                                Some(r) => r.rewrite(u),
                                None => u.clone(),
                            };
                            Some((el.kind, el.xpath.clone(), u))
                        }
                        ClickTarget::Inert => None,
                    }
                });
                match click {
                    Some((kind, xpath, url)) => match trailing.navigate(url) {
                        Ok(out2) => CrawlLeg {
                            page_url: page_url.clone(),
                            page_snapshot,
                            clicked: Some(ClickedElement { kind, xpath }),
                            nav_hops: out2.hops,
                            final_url: Some(out2.final_url.clone()),
                            dest_snapshot: Some(
                                trailing.snapshot(&out2.final_url.registered_domain_interned()),
                            ),
                            beacons: drain_beacons(trailing),
                            error: None,
                        },
                        Err(e) => CrawlLeg {
                            page_url: page_url.clone(),
                            page_snapshot,
                            clicked: None,
                            nav_hops: Vec::new(),
                            final_url: None,
                            dest_snapshot: None,
                            beacons: drain_beacons(trailing),
                            error: Some(e.to_string()),
                        },
                    },
                    None => CrawlLeg {
                        page_url: page_url.clone(),
                        page_snapshot,
                        clicked: None,
                        nav_hops: Vec::new(),
                        final_url: None,
                        dest_snapshot: None,
                        beacons: drain_beacons(trailing),
                        error: None,
                    },
                }
            }
            Err(e) => CrawlLeg {
                page_url: page_url.clone(),
                page_snapshot: cc_browser::StorageSnapshot::default(),
                clicked: None,
                nav_hops: Vec::new(),
                final_url: None,
                dest_snapshot: None,
                beacons: Vec::new(),
                error: Some(e.to_string()),
            },
        }
    }
}

/// Build a page-only step record: each crawler snapshots the page it is
/// on without clicking (sync-failure bookkeeping).
fn page_only_step(
    browsers: &mut [Browser<'_>; 3],
    step: usize,
    pages: &[cc_browser::NavigationOutcome; 3],
) -> StepRecord {
    let mut rec = StepRecord {
        index: step,
        observations: Vec::new(),
    };
    for (i, b) in browsers.iter_mut().enumerate() {
        let page_url = pages[i].final_url.clone();
        let page_snapshot = b.snapshot(&page_url.registered_domain_interned());
        rec.observations.push(CrawlObservation {
            crawler: CrawlerName::PARALLEL[i],
            page_url,
            page_snapshot,
            clicked: None,
            nav_hops: Vec::new(),
            final_url: None,
            dest_snapshot: None,
            beacons: drain_beacons(b),
        });
    }
    rec
}

/// A leg plus the navigation outcome needed to continue the walk.
struct CrawlLegAndPage {
    leg: CrawlLeg,
    outcome: Option<cc_browser::NavigationOutcome>,
}

impl CrawlLeg {
    fn with_outcome(self, out: cc_browser::NavigationOutcome) -> CrawlLegAndPage {
        CrawlLegAndPage {
            leg: self,
            outcome: Some(out),
        }
    }
}

fn observation(crawler: CrawlerName, leg: CrawlLeg) -> CrawlObservation {
    CrawlObservation {
        crawler,
        page_url: leg.page_url,
        page_snapshot: leg.page_snapshot,
        clicked: leg.clicked,
        nav_hops: leg.nav_hops,
        final_url: leg.final_url,
        dest_snapshot: leg.dest_snapshot,
        beacons: leg.beacons,
    }
}

/// Pull accumulated beacon (subresource) requests out of the browser log.
///
/// The log is taken whole and repartitioned by move — the former
/// filter-then-retain pair cloned every beacon's URL and top site only to
/// drop the originals one statement later.
fn drain_beacons(b: &mut Browser<'_>) -> Vec<(IStr, Url)> {
    let log = std::mem::take(&mut b.request_log);
    let mut beacons = Vec::new();
    for r in log {
        if r.kind == RequestKind::Subresource {
            beacons.push((r.top_site, r.url));
        } else {
            b.request_log.push(r);
        }
    }
    beacons
}

/// Split three navigation results into outcomes or the first error.
fn split_ok(
    results: [Result<cc_browser::NavigationOutcome, cc_browser::NavError>; 3],
) -> Result<[cc_browser::NavigationOutcome; 3], String> {
    let mut out = Vec::with_capacity(3);
    for r in results {
        match r {
            Ok(o) => out.push(o),
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(out.try_into().map_err(|_| "arity".to_string()).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_web::{generate, WebConfig};

    fn quick_cfg() -> CrawlConfig {
        CrawlConfig {
            seed: 11,
            steps_per_walk: 4,
            max_walks: Some(8),
            connect_failure_rate: 0.0,
            ..CrawlConfig::default()
        }
    }

    #[test]
    fn crawl_produces_walks_and_steps() {
        let web = generate(&WebConfig::small());
        let ds = Walker::new(&web, quick_cfg()).crawl();
        assert_eq!(ds.walks.len(), 8);
        assert!(ds.total_steps() > 0, "no steps recorded");
        // Every completed step has all four crawler observations.
        for w in &ds.walks {
            for s in &w.steps {
                if s.observations.iter().any(|o| o.clicked.is_some()) {
                    assert_eq!(
                        s.observations.len(),
                        4,
                        "walk {} step {}",
                        w.walk_id,
                        s.index
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_crawl() {
        let web = generate(&WebConfig::small());
        let a = Walker::new(&web, quick_cfg()).crawl();
        let web2 = generate(&WebConfig::small());
        let b = Walker::new(&web2, quick_cfg()).crawl();
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.walks.len(), b.walks.len());
        for (wa, wb) in a.walks.iter().zip(&b.walks) {
            assert_eq!(wa.termination, wb.termination);
            assert_eq!(wa.steps.len(), wb.steps.len());
        }
    }

    #[test]
    fn connect_failures_terminate_walks() {
        let web = generate(&WebConfig::small());
        let cfg = CrawlConfig {
            connect_failure_rate: 1.0,
            ..quick_cfg()
        };
        let ds = Walker::new(&web, cfg).crawl();
        assert_eq!(ds.failures.connect_failures, 8);
        for w in &ds.walks {
            assert!(matches!(
                w.termination,
                WalkTermination::ConnectFailure { step: 0, .. }
            ));
            assert!(w.steps.is_empty());
        }
    }

    #[test]
    fn trailing_crawler_sees_same_persistent_uids() {
        let web = generate(&WebConfig::small());
        let ds = Walker::new(&web, quick_cfg()).crawl();
        let mut compared = 0;
        for w in &ds.walks {
            for s in &w.steps {
                let s1 = s
                    .observations
                    .iter()
                    .find(|o| o.crawler == CrawlerName::Safari1);
                let s1r = s
                    .observations
                    .iter()
                    .find(|o| o.crawler == CrawlerName::Safari1R);
                let (Some(s1), Some(s1r)) = (s1, s1r) else {
                    continue;
                };
                for (name, value, _) in &s1.page_snapshot.cookies {
                    if name.ends_with("_uid") {
                        if let Some((_, v2, _)) =
                            s1r.page_snapshot.cookies.iter().find(|(n, _, _)| n == name)
                        {
                            assert_eq!(v2, value, "same-user UID changed: {name}");
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert!(compared > 0, "no same-user UID comparisons happened");
    }

    #[test]
    fn session_cookies_rotate_for_trailing_crawler() {
        let web = generate(&WebConfig::small());
        let ds = Walker::new(&web, quick_cfg()).crawl();
        let mut rotations = 0;
        for w in &ds.walks {
            for s in &w.steps {
                let s1 = s
                    .observations
                    .iter()
                    .find(|o| o.crawler == CrawlerName::Safari1);
                let s1r = s
                    .observations
                    .iter()
                    .find(|o| o.crawler == CrawlerName::Safari1R);
                let (Some(s1), Some(s1r)) = (s1, s1r) else {
                    continue;
                };
                let v1 = s1
                    .page_snapshot
                    .cookies
                    .iter()
                    .find(|(n, _, _)| n == "_sessid");
                let v2 = s1r
                    .page_snapshot
                    .cookies
                    .iter()
                    .find(|(n, _, _)| n == "_sessid");
                if let (Some((_, v1, _)), Some((_, v2, _))) = (v1, v2) {
                    if v1 != v2 {
                        rotations += 1;
                    }
                }
            }
        }
        assert!(
            rotations > 0,
            "session IDs never rotated for the repeat visitor"
        );
    }

    #[test]
    fn failure_accounting_is_consistent() {
        let web = generate(&WebConfig::small());
        let cfg = CrawlConfig {
            connect_failure_rate: 0.05,
            max_walks: Some(15),
            ..quick_cfg()
        };
        let ds = Walker::new(&web, cfg).crawl();
        let f = ds.failures;
        assert_eq!(
            f.steps_attempted,
            f.steps_completed + f.sync_failures + f.divergence_failures + f.connect_failures // walks that ran out of steps: attempted counts only failed
                                                                                             // or completed steps, so the equation balances exactly.
        );
    }

    #[test]
    fn navigation_hops_recorded_for_redirect_chains() {
        let web = generate(&WebConfig::small());
        let cfg = CrawlConfig {
            steps_per_walk: 6,
            max_walks: Some(15),
            ..quick_cfg()
        };
        let ds = Walker::new(&web, cfg).crawl();
        let max_hops = ds
            .observations()
            .map(|o| o.nav_hops.len())
            .max()
            .unwrap_or(0);
        assert!(
            max_hops >= 3,
            "expected at least one multi-hop redirect chain, max was {max_hops}"
        );
    }
}
