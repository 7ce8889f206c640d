//! The navigation engine.
//!
//! [`Browser::navigate`] follows a click the way Chrome does: hop by hop
//! through HTTP 302s and script redirects, attaching each hop's first-party
//! cookies, applying `Set-Cookie` into the jar under the hop's partition —
//! which is how redirectors accumulate smuggled UIDs as first parties — and
//! recording **every navigation request** like the paper's
//! `chrome.webRequest.onBeforeRequest` extension (§3.1, §3.8). On arrival it
//! executes the destination page's scripts (storage reads/writes, beacons)
//! through the [`ScriptHost`] interface.

use cc_http::{header::names, Request, RequestKind, SetCookie};
use cc_net::latency::LatencyModel;
use cc_net::{
    BreakerPolicy, CircuitBreaker, FaultModel, RecoveryStats, RetryPolicy, SimClock, SimDuration,
    SimTime,
};
use cc_url::Url;
use cc_util::{CcError, DetRng, IStr};
use cc_web::server::{LoadedPage, ServeCtx, ServeError};
use cc_web::{ScriptHost, SimWeb, StorageKind, TokenTruth, TruthLog};
use serde::{Deserialize, Serialize};

use crate::profile::Profile;
use crate::storage::StoragePolicy as cc_browser_policy;
use crate::storage::{Storage, StorageSnapshot};

/// Redirect-chain hop limit (Chrome uses 20).
const MAX_REDIRECTS: usize = 20;

/// One recorded web request (the extension's log).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoggedRequest {
    /// Requested URL.
    pub url: Url,
    /// Navigation or subresource.
    pub kind: RequestKind,
    /// When it was issued.
    pub at: SimTime,
    /// The top-level site (registered domain) at the time of the request.
    /// Interned: the vocabulary is the world's registered domains.
    pub top_site: IStr,
}

/// Navigation failure modes — the §3.3 failure taxonomy's "network error"
/// class plus structural failures.
///
/// Since the workspace error redesign this is the shared [`CcError`]
/// taxonomy (the historical variants — `Net`, `Dns`, `UnknownHost`,
/// `TooManyRedirects` — render identically); the alias keeps the
/// navigation layer's vocabulary intact.
pub type NavError = CcError;

/// The result of a completed navigation.
#[derive(Debug, Clone)]
pub struct NavigationOutcome {
    /// Every navigation-request URL in order: the clicked URL, each
    /// redirector hop, and the final destination. This is the "URL path"
    /// unit of the paper's §5 analysis.
    pub hops: Vec<Url>,
    /// Where the browser ended up.
    pub final_url: Url,
    /// The rendered destination page.
    pub page: LoadedPage,
}

/// A simulated browser: one crawler's Chrome instance.
#[derive(Debug)]
pub struct Browser<'w> {
    /// The web this browser browses.
    pub web: &'w SimWeb,
    /// The user profile (user data directory).
    pub profile: Profile,
    /// Cookie jar + localStorage.
    pub storage: Storage,
    /// Shared simulated clock.
    pub clock: SimClock,
    /// Connection-fault process.
    pub fault: FaultModel,
    /// Request latency model.
    pub latency: LatencyModel,
    /// The extension's request log.
    pub request_log: Vec<LoggedRequest>,
    /// Retry policy applied to transient connection faults.
    pub retry: RetryPolicy,
    /// Per-host circuit breakers.
    pub breaker: CircuitBreaker,
    /// Backoff-jitter stream (walk-keyed so all crawlers of one walk
    /// draw identical jitter and stay in step).
    retry_rng: DetRng,
    /// Retry/breaker accounting for the current walk.
    pub recovery: RecoveryStats,
}

impl<'w> Browser<'w> {
    /// Build a browser over a web with the given profile and storage policy.
    pub fn new(
        web: &'w SimWeb,
        profile: Profile,
        storage: Storage,
        clock: SimClock,
        fault: FaultModel,
    ) -> Self {
        let latency_rng = profile.rng.fork("latency");
        let retry_rng = profile.rng.fork("retry");
        Browser {
            web,
            profile,
            storage,
            clock,
            fault,
            latency: LatencyModel::default_web(latency_rng),
            request_log: Vec::new(),
            retry: RetryPolicy::disabled(),
            breaker: CircuitBreaker::new(BreakerPolicy::disabled()),
            retry_rng,
            recovery: RecoveryStats::default(),
        }
    }

    /// Enable fault tolerance: retry transient connection faults per
    /// `retry`, gate hosts through breakers per `breaker`, drawing backoff
    /// jitter from `retry_rng`.
    ///
    /// Pass a *walk-keyed* stream (not a per-profile one) as `retry_rng`
    /// when several crawlers replay the same walk: identical jitter keeps
    /// their retry outcomes, and therefore the walk comparison, in step.
    pub fn with_fault_tolerance(
        mut self,
        retry: RetryPolicy,
        breaker: BreakerPolicy,
        retry_rng: DetRng,
    ) -> Self {
        self.breaker = CircuitBreaker::new(breaker);
        self.retry = retry;
        self.retry_rng = retry_rng;
        self
    }

    /// One connection to `host`, governed by the breaker and retry policy.
    ///
    /// The walk's clock advances by each backoff wait, so a retried
    /// navigation lands later on the simulated timeline — which is exactly
    /// how it outlasts a transient outage window.
    fn connect(&mut self, host: &str) -> Result<(), CcError> {
        for attempt in 1..=self.retry.attempts.max(1) {
            if let Err(e) = self.breaker.check(host, self.clock.now()) {
                self.recovery.breaker_fast_fails += 1;
                return Err(e);
            }
            match self.fault.attempt_host(host, self.clock.now()) {
                Ok(()) => {
                    self.breaker.record_success(host);
                    if attempt > 1 {
                        self.recovery.recovered += 1;
                        cc_telemetry::counter_id(cc_telemetry::CounterId::NET_RETRY_RECOVERED, 1);
                    }
                    return Ok(());
                }
                Err(e) => {
                    if self.breaker.record_failure(host, e, self.clock.now()) {
                        self.recovery.breaker_trips += 1;
                    }
                    if attempt == self.retry.attempts.max(1) {
                        if self.retry.enabled() {
                            self.recovery.exhausted += 1;
                        }
                        return Err(e.into());
                    }
                    let backoff = self.retry.backoff(attempt, &mut self.retry_rng);
                    let spent = SimDuration::from_millis(self.recovery.backoff_ms);
                    if spent + backoff > self.retry.budget {
                        self.recovery.exhausted += 1;
                        return Err(e.into());
                    }
                    self.clock.advance(backoff);
                    self.recovery.backoff_ms += backoff.as_millis();
                    self.recovery.retries += 1;
                    cc_telemetry::counter_id(cc_telemetry::CounterId::NET_RETRY_ATTEMPT, 1);
                }
            }
        }
        unreachable!("loop always returns")
    }

    /// Navigate to a URL, following all redirects, and render the final
    /// page. Every hop is logged; cookies flow per the storage policy.
    /// The ground truth of every value the hops and the page's scripts
    /// mint is noted in `truth`, the caller's walk-local ledger.
    pub fn navigate(
        &mut self,
        url: Url,
        truth: &mut TruthLog,
    ) -> Result<NavigationOutcome, NavError> {
        let _nav_span = cc_telemetry::span("browser.navigate");
        let mut hops = Vec::new();
        let mut current = url;
        let mut referer: Option<String> = None;
        // Scratch for the rendered Cookie: header, reused across hops so
        // a redirect chain costs one buffer, not one per hop.
        let mut cookie_buf = String::new();

        for _ in 0..MAX_REDIRECTS {
            self.web
                .dns
                .resolve(current.host.as_str())
                .map_err(|_| NavError::Dns(current.host.as_str().to_string()))?;
            self.connect(current.host.as_str())?;

            let now = self.clock.now();
            let top_site = current.registered_domain_interned();

            let mut req =
                Request::navigation(current.clone()).with_user_agent(&self.profile.user_agent);
            cookie_buf.clear();
            if self
                .storage
                .cookie_header_into(&top_site, &top_site, now, &mut cookie_buf)
                > 0
            {
                req.headers.set(names::COOKIE, cookie_buf.as_str());
            }
            if let Some(r) = &referer {
                req.headers.set(names::REFERER, r.clone());
            }

            self.request_log.push(LoggedRequest {
                url: current.clone(),
                kind: RequestKind::Navigation,
                at: now,
                top_site: top_site.clone(),
            });
            hops.push(current.clone());

            let mut ctx = ServeCtx {
                rng: &mut self.profile.rng,
                now,
                truth,
            };
            let resp = match self.web.serve(&req, &mut ctx) {
                Ok(r) => r,
                Err(ServeError::UnknownHost(h)) => return Err(NavError::UnknownHost(h)),
            };

            // First-party Set-Cookie under the hop's own partition: the
            // mechanism dedicated smugglers rely on (§5.1).
            for sc in &resp.set_cookies {
                self.storage.set_cookie(&top_site, &top_site, sc, now);
            }

            let latency = self.latency.sample();
            self.clock.advance(latency);

            match resp.redirect_target() {
                Some(next) => {
                    referer = Some(current.to_url_string());
                    current = next;
                }
                None => {
                    // Arrived: render the page.
                    let page = self.render(&current, truth)?;
                    self.clock.advance(LatencyModel::page_dwell());
                    cc_telemetry::counter_id(
                        cc_telemetry::CounterId::BROWSER_NAVIGATIONS_COMPLETED,
                        1,
                    );
                    cc_telemetry::counter_id(
                        cc_telemetry::CounterId::BROWSER_NAV_HOPS_TOTAL,
                        hops.len() as u64,
                    );
                    if hops.len() > 1 {
                        cc_telemetry::counter_id(
                            cc_telemetry::CounterId::BROWSER_REDIRECT_CHAINS_FOLLOWED,
                            1,
                        );
                    }
                    return Ok(NavigationOutcome {
                        hops,
                        final_url: current,
                        page,
                    });
                }
            }
        }
        cc_telemetry::event_id(cc_telemetry::EventId::BROWSER_REDIRECT_CHAIN_TRUNCATED);
        Err(NavError::TooManyRedirects(current.to_url_string()))
    }

    /// Render the page at `url`: run scripts, log beacons.
    fn render(&mut self, url: &Url, truth: &mut TruthLog) -> Result<LoadedPage, NavError> {
        let _render_span = cc_telemetry::span("browser.render");
        let now = self.clock.now();
        let partition = url.registered_domain_interned();
        let mut host = PageHost {
            url: url.clone(),
            partition: partition.clone(),
            storage: &mut self.storage,
            rng: &mut self.profile.rng,
            fingerprint: self.profile.fingerprint,
            now,
            beacons: Vec::new(),
            truth,
        };
        let page = match self.web.load_page(url, &mut host) {
            Ok(p) => p,
            Err(ServeError::UnknownHost(h)) => return Err(NavError::UnknownHost(h)),
        };
        let beacons = host.beacons;
        for b in beacons {
            self.request_log.push(LoggedRequest {
                url: b,
                kind: RequestKind::Subresource,
                at: now,
                top_site: partition.clone(),
            });
        }
        Ok(page)
    }

    /// Snapshot the first-party storage visible on the current page's site.
    pub fn snapshot(&self, site_domain: &str) -> StorageSnapshot {
        self.storage.snapshot(site_domain, self.clock.now())
    }

    /// Adopt another browser's storage state — how Safari-1R becomes "the
    /// same user" as Safari-1 (§3.2).
    pub fn clone_state_from(&mut self, other: &Browser<'_>) {
        self.storage = other.storage.clone();
    }

    /// Start a fresh walk: new user data directory (§3.5).
    pub fn reset_for_new_walk(&mut self) {
        self.storage.clear();
        self.request_log.clear();
        self.recovery = RecoveryStats::default();
        self.breaker = CircuitBreaker::new(*self.breaker.policy());
    }

    /// Rebind this browser to a new walk: fresh profile, clock, and fault
    /// process; fault-tolerance state reset; storage and request log
    /// cleared.
    ///
    /// Observationally identical to a fresh
    /// `Browser::new(..).with_fault_tolerance(..)` — profile forks are
    /// non-consuming, so the latency stream drawn here matches the one a
    /// fresh construction would draw — while reusing this browser's
    /// allocations (storage maps, the request-log buffer) across walks.
    /// This is what lets the crawl executor keep one browser set per
    /// worker instead of constructing four browsers per walk.
    pub fn prepare_walk(
        &mut self,
        profile: Profile,
        clock: SimClock,
        fault: FaultModel,
        retry: RetryPolicy,
        breaker: BreakerPolicy,
        retry_rng: DetRng,
    ) {
        self.latency = LatencyModel::default_web(profile.rng.fork("latency"));
        self.profile = profile;
        self.clock = clock;
        self.fault = fault;
        self.retry = retry;
        self.breaker = CircuitBreaker::new(breaker);
        self.retry_rng = retry_rng;
        self.recovery = RecoveryStats::default();
        self.storage.clear();
        self.request_log.clear();
    }
}

/// The [`ScriptHost`] adapter binding page scripts to browser storage.
struct PageHost<'a> {
    url: Url,
    partition: IStr,
    storage: &'a mut Storage,
    rng: &'a mut DetRng,
    fingerprint: u64,
    now: SimTime,
    beacons: Vec<Url>,
    truth: &'a mut TruthLog,
}

impl ScriptHost for PageHost<'_> {
    fn page_url(&self) -> &Url {
        &self.url
    }

    fn storage_get(&self, key: &str) -> Option<String> {
        self.storage
            .cookie(&self.partition, &self.partition, key, self.now)
            .or_else(|| {
                self.storage
                    .local_get(&self.partition, &self.partition, key)
            })
    }

    fn storage_set(&mut self, key: &str, value: &str, kind: StorageKind) {
        match kind {
            StorageKind::Cookie(lifetime) => {
                let sc = match lifetime {
                    Some(d) => SetCookie::persistent(key, value, d),
                    None => SetCookie::session(key, value),
                };
                self.storage
                    .set_cookie(&self.partition, &self.partition, &sc, self.now);
            }
            StorageKind::Local => {
                self.storage
                    .local_set(&self.partition, &self.partition, key, value);
            }
        }
    }

    fn storage_get_owned(&self, owner_domain: &str, key: &str) -> Option<String> {
        match self.storage.policy() {
            // Third-party cookies are disabled and storage is partitioned:
            // tracker scripts fall back to first-party storage (§3.5).
            cc_browser_policy::Partitioned => self.storage_get(key),
            // The flat pre-partitioning world: the tracker's own bucket,
            // shared across every top-level site (Figure 1).
            cc_browser_policy::Flat => self
                .storage
                .cookie(&self.partition, owner_domain, key, self.now)
                .or_else(|| self.storage.local_get(&self.partition, owner_domain, key)),
        }
    }

    fn storage_set_owned(&mut self, owner_domain: &str, key: &str, value: &str, kind: StorageKind) {
        match self.storage.policy() {
            cc_browser_policy::Partitioned => self.storage_set(key, value, kind),
            cc_browser_policy::Flat => match kind {
                StorageKind::Cookie(lifetime) => {
                    let sc = match lifetime {
                        Some(d) => SetCookie::persistent(key, value, d),
                        None => SetCookie::session(key, value),
                    }
                    .with_domain(owner_domain);
                    self.storage
                        .set_cookie(&self.partition, owner_domain, &sc, self.now);
                }
                StorageKind::Local => {
                    self.storage
                        .local_set(&self.partition, owner_domain, key, value);
                }
            },
        }
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    fn send_beacon(&mut self, url: Url) {
        self.beacons.push(url);
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn note_truth(&mut self, value: &str, truth: TokenTruth) {
        self.truth.note(value, truth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::storage::StoragePolicy;
    use cc_web::{generate, ClickTarget, ElementKind, WebConfig};

    fn make_browser(web: &SimWeb, seed: u64) -> Browser<'_> {
        Browser::new(
            web,
            Profile::safari("safari-1", 0xF1, DetRng::new(seed)),
            Storage::new(StoragePolicy::Partitioned),
            SimClock::new(),
            FaultModel::none(DetRng::new(seed).fork("fault")),
        )
    }

    #[test]
    fn navigate_to_seeder_renders_page() {
        let web = generate(&WebConfig::small());
        let mut b = make_browser(&web, 1);
        let seed_url = web.seeder_urls()[0].clone();
        let out = b.navigate(seed_url.clone(), &mut TruthLog::new()).unwrap();
        assert_eq!(out.final_url, seed_url);
        assert_eq!(out.hops.len(), 1);
        assert!(!b.request_log.is_empty());
        assert!(b
            .request_log
            .iter()
            .any(|r| r.kind == RequestKind::Navigation));
    }

    #[test]
    fn clicking_an_ad_traverses_redirectors() {
        // World seed pinned so some seeder deterministically serves a
        // clickable ad iframe; a world without one is a hard failure, not
        // a silent skip.
        let web = generate(&WebConfig {
            seed: 0xAD5EED,
            ..WebConfig::small()
        });
        let clickable = web.seeder_urls().iter().find_map(|seed_url| {
            let mut b = make_browser(&web, 3);
            let out = b.navigate(seed_url.clone(), &mut TruthLog::new()).unwrap();
            let click = out.page.elements.iter().find_map(|e| {
                if e.kind == ElementKind::Iframe {
                    match &e.target {
                        ClickTarget::Navigate(u) => Some(u.clone()),
                        ClickTarget::Inert => None,
                    }
                } else {
                    None
                }
            });
            click.map(|url| (b, url))
        });
        let (mut b, click_url) =
            clickable.expect("world seed 0xAD5EED always yields a clickable ad iframe");
        let out2 = b.navigate(click_url, &mut TruthLog::new()).unwrap();
        // The navigation log contains every hop of the chain.
        assert!(!out2.hops.is_empty());
        assert!(web.site_for_host(out2.final_url.host.as_str()).is_some());
    }

    #[test]
    fn dns_failure_for_unknown_host() {
        let web = generate(&WebConfig::small());
        let mut b = make_browser(&web, 5);
        let err = b
            .navigate(
                Url::parse("https://not-in-world.com/").unwrap(),
                &mut TruthLog::new(),
            )
            .unwrap_err();
        assert!(matches!(err, NavError::Dns(_)));
    }

    #[test]
    fn fault_injection_fails_navigation() {
        let web = generate(&WebConfig::small());
        let mut b = make_browser(&web, 7);
        b.fault = FaultModel::new(DetRng::new(1), 1.0);
        let err = b
            .navigate(web.seeder_urls()[0].clone(), &mut TruthLog::new())
            .unwrap_err();
        assert!(matches!(err, NavError::Net(_)));
    }

    #[test]
    fn retries_recover_a_transient_outage() {
        use cc_net::{BreakerPolicy, RetryPolicy, SimDuration};
        let web = generate(&WebConfig::small());
        let fault = FaultModel::new(DetRng::new(31), 1.0);
        // No jitter: three backoffs wait exactly 250+500+1000 = 1750 ms.
        let retry = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        let seed = web
            .seeder_urls()
            .iter()
            .find(|u| match fault.outage_for(u.host.as_str()) {
                Some(d) => d <= SimDuration::from_millis(1_750),
                None => false,
            })
            .cloned()
            .expect("some seeder with an outage the retry budget outlasts");
        let mut b = Browser::new(
            &web,
            Profile::safari("safari-1", 0xF1, DetRng::new(31)),
            Storage::new(StoragePolicy::Partitioned),
            SimClock::new(),
            fault,
        )
        .with_fault_tolerance(retry, BreakerPolicy::disabled(), DetRng::new(31).fork("rj"));
        b.navigate(seed, &mut TruthLog::new())
            .expect("retry should outlast the outage");
        assert_eq!(b.recovery.recovered, 1);
        assert!(b.recovery.retries >= 1);
        assert_eq!(b.recovery.exhausted, 0);
    }

    #[test]
    fn breaker_trips_and_fast_fails_on_a_hard_outage() {
        use cc_net::{BreakerPolicy, RetryPolicy, SimDuration};
        let web = generate(&WebConfig::small());
        let fault = FaultModel::new(DetRng::new(37), 1.0);
        let seed = web
            .seeder_urls()
            .iter()
            .find(|u| match fault.outage_for(u.host.as_str()) {
                Some(d) => d > SimDuration::from_hours(1),
                None => false,
            })
            .cloned()
            .expect("some seeder in hard outage");
        let retry = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        let mut b = Browser::new(
            &web,
            Profile::safari("safari-1", 0xF1, DetRng::new(37)),
            Storage::new(StoragePolicy::Partitioned),
            SimClock::new(),
            fault,
        )
        .with_fault_tolerance(retry, BreakerPolicy::standard(), DetRng::new(37).fork("rj"));
        let err = b.navigate(seed, &mut TruthLog::new()).unwrap_err();
        // Three failures trip the breaker; the fourth attempt fails fast.
        assert!(matches!(err, NavError::BreakerOpen { .. }), "{err}");
        assert_eq!(b.recovery.breaker_trips, 1);
        assert_eq!(b.recovery.breaker_fast_fails, 1);
        assert_eq!(b.recovery.retries, 3);
    }

    #[test]
    fn storage_accumulates_and_resets() {
        let web = generate(&WebConfig::small());
        let mut b = make_browser(&web, 9);
        let mut truth = TruthLog::new();
        b.navigate(web.seeder_urls()[0].clone(), &mut truth)
            .unwrap();
        // Analytics trackers mint partition UIDs on every page, and
        // their ground truth lands in the caller's ledger.
        assert!(!b.storage.is_empty());
        assert!(truth.uid_count() > 0);
        assert_eq!(
            web.truth_snapshot(),
            generate(&WebConfig::small()).truth_snapshot(),
            "a mint reached the world's ledger"
        );
        b.reset_for_new_walk();
        assert!(b.storage.is_empty());
        assert!(b.request_log.is_empty());
    }

    #[test]
    fn repeat_visitor_reuses_uid() {
        let web = generate(&WebConfig::small());
        let mut s1 = make_browser(&web, 11);
        let seed = web.seeder_urls()[0].clone();
        s1.navigate(seed.clone(), &mut TruthLog::new()).unwrap();
        let domain = seed.registered_domain();
        let snap1 = s1.snapshot(&domain);

        // Safari-1R: clone state, revisit.
        let mut s1r = make_browser(&web, 999); // different rng stream!
        s1r.clone_state_from(&s1);
        s1r.navigate(seed, &mut TruthLog::new()).unwrap();
        let snap2 = s1r.snapshot(&domain);

        // Persistent tracker UIDs must be identical (same user), while the
        // rotating session cookie (if any) may differ.
        for (name, value, _lifetime) in &snap1.cookies {
            if name.ends_with("_uid") {
                let again = snap2
                    .cookies
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(_, v, _)| v.clone());
                assert_eq!(
                    again,
                    Some(value.clone()),
                    "cookie {name} changed for same user"
                );
            }
        }
    }

    #[test]
    fn different_users_get_different_uids() {
        let web = generate(&WebConfig::small());
        let seed = web.seeder_urls()[0].clone();
        let domain = seed.registered_domain();

        let mut s1 = make_browser(&web, 11);
        s1.navigate(seed.clone(), &mut TruthLog::new()).unwrap();
        let snap1 = s1.snapshot(&domain);

        let mut s2 = make_browser(&web, 22);
        s2.navigate(seed, &mut TruthLog::new()).unwrap();
        let snap2 = s2.snapshot(&domain);

        // Tracker partition UIDs are minted from each profile's stream.
        let uid1: Vec<_> = snap1
            .cookies
            .iter()
            .filter(|(n, _, _)| n.ends_with("_uid") && n != "_site_uid")
            .collect();
        if !uid1.is_empty() {
            let mut any_diff = false;
            for (name, value, _) in &snap1.cookies {
                if let Some((_, v2, _)) = snap2.cookies.iter().find(|(n, _, _)| n == name) {
                    if v2 != value {
                        any_diff = true;
                    }
                }
            }
            assert!(any_diff, "two users should not share every UID");
        }
    }

    #[test]
    fn beacons_are_logged_as_subresources() {
        let web = generate(&WebConfig::small());
        let mut b = make_browser(&web, 13);
        b.navigate(web.seeder_urls()[0].clone(), &mut TruthLog::new())
            .unwrap();
        assert!(
            b.request_log
                .iter()
                .any(|r| r.kind == RequestKind::Subresource),
            "embedded analytics should beacon"
        );
    }
}
