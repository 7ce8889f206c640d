//! The synthetic web server: answers every request in the simulated world.
//!
//! The server is **stateless per request**, exactly like the real systems it
//! models: redirectors carry all routing state in the click URL itself
//! (`cc_dest` = final destination, `cc_chain` = remaining hops, `cc_cid` =
//! campaign id — real ad clicks embed the destination the same way, e.g.
//! DoubleClick's `adurl=`), and all *user* state lives in the browser's
//! cookie jar. A redirector recognizes a returning user purely from the
//! first-party cookie the browser presents, which is precisely the mechanism
//! UID smuggling exploits (§2: redirectors "are permitted to store first
//! party cookies").

use cc_http::{header::names, parse_cookie_header, Cookie, PageBody, Request, Response, SetCookie};
use cc_net::{DnsDb, SimTime};
use cc_url::{Host, Scheme, Url};
use cc_util::{ids, DetRng, IStr, Zipf};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

use crate::campaign::{Campaign, CampaignId, UidSpan};
use crate::element::{BBox, ClickTarget, ElementKind, ElementModel};
use crate::entity::Organization;
use crate::script::{ScriptHost, StorageKind, TokenTruth, TruthLog};
use crate::site::{LinkDecoration, Page, Site, SiteId};
use crate::tracker::{Tracker, TrackerId, TrackerKind};

/// Internal routing parameter: the final destination URL.
pub const P_DEST: &str = "cc_dest";
/// Internal routing parameter: comma-separated remaining hop FQDNs.
pub const P_CHAIN: &str = "cc_chain";
/// Internal routing parameter: campaign id.
pub const P_CID: &str = "cc_cid";

/// Parameter name sites use when appending their own first-party UID to
/// outbound links (the Instagram → Play Store pattern).
pub const P_SITE_REF_UID: &str = "ref_uid";
/// Session-ID parameter name attached by some campaigns.
pub const P_SESSION: &str = "sid";
/// Timestamp parameter name attached by some campaigns.
pub const P_TIMESTAMP: &str = "ts";
/// Beacon parameter carrying the full page URL (the accidental-leak vector
/// of Figure 6).
pub const P_BEACON_URL: &str = "u";
/// First-party consent cookie minted when a site's banner is accepted
/// (the gate the consent-gated species checks at click time).
pub const CONSENT_COOKIE: &str = "cc_consent";
/// Value of the consent cookie.
pub const CONSENT_VALUE: &str = "granted";

/// Per-request server context supplied by the caller (the browser).
pub struct ServeCtx<'a> {
    /// Randomness for minting values server-side (deterministic per
    /// profile/visit).
    pub rng: &'a mut DetRng,
    /// Current simulated time.
    pub now: SimTime,
    /// The walk's own ground-truth ledger: every value this request
    /// mints is noted here, never in a ledger other walks share.
    pub truth: &'a mut TruthLog,
}

/// Server-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No site or tracker serves this host.
    UnknownHost(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownHost(h) => write!(f, "no simulated endpoint for host {h}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A rendered page as handed to the crawler: the URL it loaded at and the
/// clickable elements discovered on this particular load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedPage {
    /// Page URL (including smuggled params that arrived via navigation).
    pub url: Url,
    /// The site serving the page.
    pub site: SiteId,
    /// Clickable elements on this load.
    pub elements: Vec<ElementModel>,
}

/// The complete simulated Web.
#[derive(Debug)]
pub struct SimWeb {
    /// Sites, indexed by `SiteId`.
    pub sites: Vec<Site>,
    /// Trackers, indexed by `TrackerId`.
    pub trackers: Vec<Tracker>,
    /// Organizations, indexed by `OrgId`.
    pub orgs: Vec<Organization>,
    /// Campaigns, indexed by `CampaignId`.
    pub campaigns: Vec<Campaign>,
    /// DNS zone for every host in the world.
    pub dns: DnsDb,
    /// Seeder sites (the Tranco-like list walks start from).
    pub seeders: Vec<SiteId>,
    /// Zipf exponent for ad rotation within slots (see
    /// [`crate::genesis::WebConfig::slot_rotation_zipf`]).
    pub rotation_zipf: f64,
    site_by_fqdn: HashMap<String, SiteId>,
    tracker_by_fqdn: HashMap<String, TrackerId>,
    /// The world's ledger: generation-time entries plus what crawls
    /// absorb when they finish. Walks mint into their own ledgers.
    truth: RwLock<TruthLog>,
    prepared: Prepared,
    render_cache_enabled: AtomicBool,
}

/// Precomputed, immutable derivatives of the world data: validated hosts,
/// beacon/sync/click URL bases, cookie-name strings, and lazily-built page
/// render skeletons. Everything here is a pure function of the world, so it
/// can be shared freely across crawl workers without affecting determinism —
/// the per-visit randomness (churn, rotation, jitter, minting) still runs on
/// every load.
#[derive(Debug)]
struct Prepared {
    sites: Vec<PreparedSite>,
    trackers: Vec<PreparedTracker>,
    campaigns: Vec<PreparedCampaign>,
    /// `pages[site][page]`: lock-free lazily-initialized render skeletons.
    /// A skeleton is a pure function of immutable world data, so concurrent
    /// first-initialization by racing workers is benign — every thread
    /// computes the identical value.
    pages: Vec<Vec<OnceLock<PreparedPage>>>,
    seeders: Vec<Url>,
}

#[derive(Debug)]
struct PreparedSite {
    /// Validated `www.<domain>` host.
    www_host: Host,
    own_uid_cookie: String,
    session_cookie: String,
}

#[derive(Debug)]
struct PreparedTracker {
    /// Validated tracker FQDN.
    host: Host,
    /// Registered domain of the FQDN — the storage-partition owner key.
    owner_rd: IStr,
    uid_storage_key: String,
    received_uid_key: String,
    /// `https://<fqdn>/b` with no query yet.
    beacon_base: Url,
    /// One `https://<partner>/sync?pid=<self>` base per sync partner, in
    /// partner order, with the announcing tracker's `pid` already set.
    sync_bases: Vec<Url>,
}

#[derive(Debug)]
struct PreparedCampaign {
    /// The deterministic prefix of the click URL: destination (plus
    /// `cc_dest`/`cc_chain`/`cc_cid` routing when the campaign has hops).
    /// Only this much is cacheable — the owner-UID, word, timestamp, and
    /// session parameters must append *after* it in the original order,
    /// and some of them are minted per render.
    click_base: Url,
    /// `dest_url.to_url_string()`, noted as `UrlValue` truth on every
    /// render (the ledger mint must still fire per load).
    dest_string: String,
}

/// The deterministic skeleton of one page's rendered elements: everything
/// `render_elements` used to recompute per load that does not depend on the
/// visiting profile's RNG or storage. Geometry stores `y_base` (the jitter
/// is per-load), targets store the undecorated URL (decoration is per-load
/// state), and ad slots store the Zipf sampler (the sample is per-load).
#[derive(Debug, Clone)]
struct PreparedPage {
    links: Vec<PreparedLink>,
    slots: Vec<PreparedSlot>,
}

#[derive(Debug, Clone)]
struct PreparedLink {
    /// The href as rendered in the DOM (shim or direct destination).
    href: Url,
    xpath: String,
    x: i32,
    y_base: i32,
    w: i32,
    h: i32,
}

#[derive(Debug, Clone)]
struct PreparedSlot {
    /// Rotation sampler over the slot's campaigns (`None` when empty —
    /// the slot is inert).
    zipf: Option<Zipf>,
    xpath: String,
    x: i32,
    y_base: i32,
    w: i32,
    h: i32,
}

// The parallel crawl executor shares one `&SimWeb` across worker threads;
// every field is either immutable world data or the lock-guarded truth
// ledger, so the type must stay `Send + Sync`. This assertion turns any
// future interior-mutability regression into a compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimWeb>()
};

impl SimWeb {
    /// Assemble a world from parts (used by the generator and by tests that
    /// hand-build minimal worlds).
    pub fn assemble(
        sites: Vec<Site>,
        trackers: Vec<Tracker>,
        orgs: Vec<Organization>,
        campaigns: Vec<Campaign>,
        seeders: Vec<SiteId>,
    ) -> Self {
        let mut dns = DnsDb::new();
        let mut site_by_fqdn = HashMap::new();
        let mut tracker_by_fqdn = HashMap::new();
        for s in &sites {
            dns.register(&s.www_fqdn());
            dns.register(&s.domain);
            site_by_fqdn.insert(s.www_fqdn(), s.id);
            site_by_fqdn.insert(s.domain.clone(), s.id);
        }
        for t in &trackers {
            // A tracker whose FQDN collides with a site FQDN (the
            // www.facebook.com-as-redirector case) still resolves; tracker
            // routing is checked first for its /r`-style paths.
            dns.register(&t.fqdn);
            tracker_by_fqdn.insert(t.fqdn.clone(), t.id);
        }
        let prepared_sites: Vec<PreparedSite> = sites
            .iter()
            .map(|s| PreparedSite {
                www_host: Host::parse(&s.www_fqdn()).expect("site fqdn is a valid host"),
                own_uid_cookie: s.own_uid_cookie_name(),
                session_cookie: s.session_cookie_name(),
            })
            .collect();
        let prepared_trackers: Vec<PreparedTracker> = trackers
            .iter()
            .map(|t| {
                let host = Host::parse(&t.fqdn).expect("tracker fqdn is a valid host");
                PreparedTracker {
                    owner_rd: host.registered_domain_interned(),
                    uid_storage_key: t.uid_storage_key(),
                    received_uid_key: t.received_uid_key(),
                    beacon_base: Url::from_host(Scheme::Https, host.clone(), "/b"),
                    sync_bases: t
                        .sync_partners
                        .iter()
                        .map(|pid| {
                            let partner = &trackers[pid.0 as usize];
                            let mut sync = Url::https(&partner.fqdn, "/sync");
                            sync.query_set("pid", &t.id.0.to_string());
                            sync
                        })
                        .collect(),
                    host,
                }
            })
            .collect();
        let prepared_campaigns: Vec<PreparedCampaign> = campaigns
            .iter()
            .map(|c| {
                let dest_site = &sites[c.destination.0 as usize];
                let dest_url = Url::from_host(
                    Scheme::Https,
                    prepared_sites[c.destination.0 as usize].www_host.clone(),
                    &c.landing_path,
                );
                debug_assert_eq!(dest_url.host.as_str(), dest_site.www_fqdn());
                let dest_string = dest_url.to_url_string();
                let hops = c.hops();
                let click_base = if let Some(first) = hops.first() {
                    let mut u = Url::from_host(
                        Scheme::Https,
                        prepared_trackers[first.0 as usize].host.clone(),
                        "/click",
                    );
                    u.query_set(P_DEST, &dest_string);
                    u.query_set(
                        P_CHAIN,
                        &hops[1..]
                            .iter()
                            .map(|t| trackers[t.0 as usize].fqdn.clone())
                            .collect::<Vec<_>>()
                            .join(","),
                    );
                    u.query_set(P_CID, &c.id.0.to_string());
                    u
                } else {
                    dest_url
                };
                PreparedCampaign {
                    click_base,
                    dest_string,
                }
            })
            .collect();
        let prepared_pages: Vec<Vec<OnceLock<PreparedPage>>> = sites
            .iter()
            .map(|s| s.pages.iter().map(|_| OnceLock::new()).collect())
            .collect();
        let prepared_seeders: Vec<Url> = seeders
            .iter()
            .map(|id| {
                Url::from_host(
                    Scheme::Https,
                    prepared_sites[id.0 as usize].www_host.clone(),
                    "/",
                )
            })
            .collect();
        SimWeb {
            prepared: Prepared {
                sites: prepared_sites,
                trackers: prepared_trackers,
                campaigns: prepared_campaigns,
                pages: prepared_pages,
                seeders: prepared_seeders,
            },
            render_cache_enabled: AtomicBool::new(true),
            sites,
            trackers,
            orgs,
            campaigns,
            dns,
            seeders,
            rotation_zipf: 1.6,
            site_by_fqdn,
            tracker_by_fqdn,
            truth: RwLock::new(TruthLog::new()),
        }
    }

    /// Look up a site.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0 as usize]
    }

    /// Look up a tracker.
    pub fn tracker(&self, id: TrackerId) -> &Tracker {
        &self.trackers[id.0 as usize]
    }

    /// Look up a campaign.
    pub fn campaign(&self, id: CampaignId) -> Option<&Campaign> {
        self.campaigns.get(id.0 as usize)
    }

    /// The site serving a host, if any.
    pub fn site_for_host(&self, host: &str) -> Option<&Site> {
        self.site_by_fqdn.get(host).map(|id| self.site(*id))
    }

    /// The tracker serving a host, if any.
    pub fn tracker_for_host(&self, host: &str) -> Option<&Tracker> {
        self.tracker_by_fqdn.get(host).map(|id| self.tracker(*id))
    }

    /// Snapshot of the ground-truth ledger.
    pub fn truth_snapshot(&self) -> TruthLog {
        self.with_truth(TruthLog::clone)
    }

    /// Read the ground-truth ledger in place, without copying it. (A
    /// poisoned lock is read through: every note leaves the ledger whole.)
    pub fn with_truth<R>(&self, read: impl FnOnce(&TruthLog) -> R) -> R {
        read(&self.truth.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Fold a ledger in: a checkpoint's on resume, or a finished crawl's.
    ///
    /// `TruthLog::note` commutes and is idempotent for identical mints, so
    /// absorbing a checkpoint's ledger and then the remaining walks'
    /// converges to the same ledger an uninterrupted crawl builds.
    pub fn absorb_truth(&self, log: &TruthLog) {
        self.truth
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(log);
    }

    /// [`Self::absorb_truth`] for a ledger the caller is done with: its
    /// entries move in instead of being copied.
    pub fn absorb_truth_owned(&self, log: TruthLog) {
        self.truth
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(log);
    }

    /// Seeder URLs, most popular first — the walk starting points (§3.1).
    /// Built once at assembly; callers clone the entries they launch from.
    pub fn seeder_urls(&self) -> &[Url] {
        &self.prepared.seeders
    }

    /// Toggle the page-render skeleton cache (on by default).
    ///
    /// With the cache off, every `load_page` rebuilds the deterministic
    /// skeleton from scratch, exactly like the pre-cache implementation.
    /// The equivalence property — cached and uncached loads produce
    /// byte-identical pages, beacons, and responses — is what
    /// `tests/render_cache.rs` asserts; this switch exists so that test
    /// (and any debugging session that distrusts the cache) can run the
    /// uncached path.
    pub fn set_render_cache(&self, enabled: bool) {
        self.render_cache_enabled.store(enabled, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // HTTP serving
    // ------------------------------------------------------------------

    /// Answer a request.
    pub fn serve(&self, req: &Request, ctx: &mut ServeCtx<'_>) -> Result<Response, ServeError> {
        cc_telemetry::counter_id(cc_telemetry::CounterId::WEB_REQUESTS_SERVED, 1);
        let host = req.url.host.as_str();
        // Tracker endpoints are matched on (fqdn, tracker path); a tracker
        // may share its FQDN with a site (multi-purpose smugglers like
        // www.facebook.com), in which case non-tracker paths fall through
        // to the site.
        if let Some(tid) = self.tracker_by_fqdn.get(host) {
            if Self::is_tracker_path(&req.url.path) {
                return Ok(self.serve_tracker(self.tracker(*tid), req, ctx));
            }
        }
        if let Some(sid) = self.site_by_fqdn.get(host) {
            return Ok(self.serve_site(self.site(*sid), req, ctx));
        }
        if self.tracker_by_fqdn.contains_key(host) {
            // Tracker-only host hit on a non-tracker path.
            return Ok(Response::not_found());
        }
        Err(ServeError::UnknownHost(host.to_string()))
    }

    fn is_tracker_path(path: &str) -> bool {
        matches!(path, "/click" | "/r" | "/shim" | "/b" | "/sync" | "/signin" | "/en")
    }

    fn serve_site(&self, site: &Site, req: &Request, ctx: &mut ServeCtx<'_>) -> Response {
        let prep = &self.prepared.sites[site.id.0 as usize];
        let cookies = request_cookies(req);
        let mut resp = Response::page();
        if site.sets_session_cookie {
            // Rotating per-visit session ID: fresh on every response. This
            // is the §3.7.1 workload — identical-user crawlers (Safari-1 vs
            // Safari-1R) observe *different* values.
            let sid = ids::generate_session_id(ctx.rng);
            ctx.truth.note(&sid, TokenTruth::SessionId);
            resp = resp.with_set_cookie(SetCookie::session(prep.session_cookie.as_str(), sid));
        }
        if site.sets_own_uid && !has_cookie(&cookies, &prep.own_uid_cookie) {
            let uid = ids::generate_uid(ctx.rng);
            ctx.truth.note(
                &uid,
                TokenTruth::Uid {
                    tracker: None,
                    fingerprint_based: false,
                },
            );
            resp = resp.with_set_cookie(SetCookie::persistent(
                prep.own_uid_cookie.as_str(),
                uid,
                cc_net::SimDuration::from_days(365),
            ));
        }
        if site.consent_banner && !has_cookie(&cookies, CONSENT_COOKIE) {
            // The crawler persona accepts the banner: a first-party consent
            // cookie appears in this partition, which is what the
            // consent-gated species checks before decorating.
            ctx.truth.note(CONSENT_VALUE, TokenTruth::Internal);
            resp = resp.with_set_cookie(SetCookie::persistent(
                CONSENT_COOKIE,
                CONSENT_VALUE.to_string(),
                cc_net::SimDuration::from_days(365),
            ));
        }
        resp
    }

    fn serve_tracker(&self, tracker: &Tracker, req: &Request, ctx: &mut ServeCtx<'_>) -> Response {
        match req.url.path.as_str() {
            "/b" | "/sync" => Response::empty(),
            _ => self.serve_redirect_hop(tracker, req, ctx),
        }
    }

    /// One redirector hop: store what arrived, recognize the user, apply
    /// the campaign's UID-span policy, and send the browser onward.
    fn serve_redirect_hop(
        &self,
        tracker: &Tracker,
        req: &Request,
        ctx: &mut ServeCtx<'_>,
    ) -> Response {
        let cookies = request_cookies(req);

        // Destination: without one, there is nowhere to go.
        let dest = match req.url.query_get(P_DEST).and_then(|d| Url::parse(d).ok()) {
            Some(d) => d,
            None => return Response::not_found(),
        };
        let chain: Vec<String> = req
            .url
            .query_get(P_CHAIN)
            .map(|c| {
                c.split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let campaign = req
            .url
            .query_get(P_CID)
            .and_then(|c| c.parse::<u32>().ok())
            .and_then(|c| self.campaign(CampaignId(c)));

        // Payload parameters: everything that isn't routing plumbing.
        let mut payload: Vec<(String, String)> = req
            .url
            .query()
            .iter()
            .filter(|(k, _)| k != P_DEST && k != P_CHAIN && k != P_CID)
            .cloned()
            .collect();

        let mut set_cookies = Vec::new();
        let mut own_uid: Option<String> = None;

        if tracker.smuggles() {
            // Persist everything that arrived with the click as a
            // first-party cookie under our own domain: the aggregation
            // bucket dedicated smugglers exist for (§5.1). The serialized
            // form is URL-encoded, so the token extractor must recurse to
            // recover the inner values (§3.6).
            if !payload.is_empty() {
                let blob = serialize_params(&payload);
                ctx.truth.note(&blob, TokenTruth::Internal);
                set_cookies.push(SetCookie::persistent(
                    tracker.received_uid_key(),
                    blob,
                    tracker.uid_lifetime,
                ));
            }
            // Recognize (or mint) our own first-party UID for this user.
            let uid = match cookie_value(&cookies, "_ruid") {
                Some(v) => v.to_string(),
                None => {
                    let uid = ids::generate_uid(ctx.rng);
                    ctx.truth.note(
                        &uid,
                        TokenTruth::Uid {
                            tracker: Some(tracker.id),
                            fingerprint_based: false,
                        },
                    );
                    set_cookies.push(SetCookie::persistent(
                        "_ruid",
                        uid.clone(),
                        tracker.uid_lifetime,
                    ));
                    uid
                }
            };
            own_uid = Some(uid);
        }

        // Apply the campaign's UID-span policy at this hop.
        if let Some(c) = campaign {
            let total = c.hops().len();
            let remaining = chain.len();
            let idx = total.saturating_sub(remaining + 1);
            let owner_param = self.tracker(c.owner).uid_param.clone();
            match c.span {
                UidSpan::OriginatorToRedirector if idx == 0 => {
                    // The UID stops here: this hop stores it (above) but
                    // does not pass it on.
                    payload.retain(|(k, _)| *k != owner_param);
                }
                UidSpan::RedirectorToDestination | UidSpan::RedirectorToRedirector if idx == 0 => {
                    // The UID enters here: this redirector injects its own
                    // first-party identity into the onward path.
                    if let Some(uid) = &own_uid {
                        payload.push((tracker.uid_param.clone(), uid.clone()));
                    }
                }
                _ => {}
            }
            if matches!(c.span, UidSpan::RedirectorToRedirector) && idx == total.saturating_sub(1) {
                // Last hop of an R→R span: strip the injected UID so the
                // destination never sees it.
                if let Some(first) = c.hops().first() {
                    let injector_param = self.tracker(*first).uid_param.clone();
                    payload.retain(|(k, _)| *k != injector_param);
                }
            }
            // Bounce-to-remint species: whatever UID arrived with the click
            // dies here, and the hop re-mints from its own durable
            // first-party identity. Rewriting the click URL upstream is
            // useless — the value that reaches the destination is born
            // mid-chain.
            if tracker.kind == TrackerKind::RemintBouncer && c.span.smuggles() {
                let owner_param = self.tracker(c.owner).uid_param.clone();
                payload.retain(|(k, _)| *k != owner_param && *k != tracker.uid_param);
                if let Some(uid) = &own_uid {
                    payload.push((tracker.uid_param.clone(), uid.clone()));
                }
            }
        }

        // Build the onward URL.
        let onward = if let Some(next_host) = chain.first() {
            let mut u = Url::https(next_host, "/r");
            u.query_set(P_DEST, &dest.to_url_string());
            u.query_set(P_CHAIN, &chain[1..].join(","));
            if let Some(cid) = req.url.query_get(P_CID) {
                u.query_set(P_CID, cid);
            }
            for (k, v) in &payload {
                u.query_set(k, v);
            }
            u
        } else {
            let mut u = dest;
            for (k, v) in &payload {
                u.query_set(k, v);
            }
            u
        };

        let mut resp = if tracker.js_redirect {
            Response::script_redirect(onward)
        } else {
            Response::redirect(&onward)
        };
        for sc in set_cookies {
            resp = resp.with_set_cookie(sc);
        }
        resp
    }

    // ------------------------------------------------------------------
    // Page loading (script execution)
    // ------------------------------------------------------------------

    /// Render a page: run its scripts against the browser-provided host and
    /// return the clickable elements this load produced.
    pub fn load_page(
        &self,
        url: &Url,
        host: &mut dyn ScriptHost,
    ) -> Result<LoadedPage, ServeError> {
        let site = self
            .site_for_host(url.host.as_str())
            .ok_or_else(|| ServeError::UnknownHost(url.host.as_str().to_string()))?;
        // Same resolution as `Site::page` falling back to `Site::landing`,
        // but by index so the render-skeleton cache can be addressed.
        let page_idx = site
            .pages
            .iter()
            .position(|p| p.path == url.path)
            .unwrap_or(0);
        let page = &site.pages[page_idx];
        cc_telemetry::counter_id(cc_telemetry::CounterId::WEB_PAGES_LOADED, 1);

        // 1. Embedded trackers run: identity get-or-mint, UID collection
        //    from the landing URL, and beacons.
        for tid in &site.embedded_trackers {
            cc_telemetry::event_id(cc_telemetry::EventId::WEB_SCRIPT_EXECUTED_TRACKER);
            self.run_tracker_script(self.tracker(*tid), url, host);
        }

        // 2. Build this load's elements from the page's cached (or, with
        //    the cache disabled, freshly built) deterministic skeleton.
        let elements = if page.volatile {
            self.render_volatile(host)
        } else {
            let fresh;
            let skeleton: &PreparedPage = if self.render_cache_enabled.load(Ordering::Relaxed) {
                self.prepared.pages[site.id.0 as usize][page_idx]
                    .get_or_init(|| self.build_page_skeleton(page))
            } else {
                fresh = self.build_page_skeleton(page);
                &fresh
            };
            self.render_elements(site, page, skeleton, host)
        };

        Ok(LoadedPage {
            url: url.clone(),
            site: site.id,
            elements,
        })
    }

    /// Get-or-mint a tracker's UID for the current partition, honoring the
    /// tracker's storage preference and fingerprinting behavior.
    fn tracker_partition_uid(&self, tracker: &Tracker, host: &mut dyn ScriptHost) -> String {
        let prep = &self.prepared.trackers[tracker.id.0 as usize];
        let key = prep.uid_storage_key.as_str();
        let owner = prep.owner_rd.as_str();
        if let Some(v) = host.storage_get_owned(owner, key) {
            return v;
        }
        let uid = if tracker.fingerprints {
            fingerprint_uid(tracker.id, host.fingerprint())
        } else {
            ids::generate_uid(host.rng())
        };
        host.note_truth(
            &uid,
            TokenTruth::Uid {
                tracker: Some(tracker.id),
                fingerprint_based: tracker.fingerprints,
            },
        );
        let kind = if tracker.uses_local_storage {
            StorageKind::Local
        } else {
            StorageKind::Cookie(Some(tracker.uid_lifetime))
        };
        host.storage_set_owned(owner, key, &uid, kind);
        uid
    }

    fn run_tracker_script(&self, tracker: &Tracker, url: &Url, host: &mut dyn ScriptHost) {
        // ETag/cache-respawn species: if our own copy was purged but the
        // first-party cache-validator copy survived, revalidation brings
        // the *identical* UID back before the get-or-mint below runs.
        if tracker.kind == TrackerKind::EtagRespawner {
            let prep = &self.prepared.trackers[tracker.id.0 as usize];
            if host
                .storage_get_owned(prep.owner_rd.as_str(), &prep.uid_storage_key)
                .is_none()
            {
                if let Some(v) = host.storage_get(&tracker.etag_validator_key()) {
                    host.storage_set_owned(
                        prep.owner_rd.as_str(),
                        &prep.uid_storage_key,
                        &v,
                        StorageKind::Cookie(Some(tracker.uid_lifetime)),
                    );
                }
            }
        }
        let uid = self.tracker_partition_uid(tracker, host);
        let prep = &self.prepared.trackers[tracker.id.0 as usize];
        if tracker.kind == TrackerKind::EtagRespawner {
            // Dual-write the validator under the embedding site's own
            // keyspace — a purge of the tracker's domain never touches it.
            host.storage_set(
                &tracker.etag_validator_key(),
                &uid,
                StorageKind::Cookie(Some(tracker.uid_lifetime)),
            );
        }

        // Smugglers harvest their own UID parameter from the landing URL —
        // the collection end of link decoration (§2 step 3).
        if tracker.smuggles() {
            if let Some(v) = url.query_get(&tracker.uid_param) {
                host.storage_set(
                    &prep.received_uid_key,
                    v,
                    StorageKind::Cookie(Some(tracker.uid_lifetime)),
                );
            }
        }

        // Every tracker beacons home with its UID and the full page URL —
        // which is how UIDs leak to third parties that never smuggled
        // (Figure 6).
        let page_url_string = url.to_url_string();
        host.note_truth(&page_url_string, TokenTruth::UrlValue);
        let mut beacon = prep.beacon_base.clone();
        beacon.query_set(&tracker.uid_param, &uid);
        beacon.query_set(P_BEACON_URL, &page_url_string);
        host.send_beacon(beacon);

        // Cookie syncing (§8.2): announce our UID for this user to each
        // partner. Because the UID came from partitioned storage, the
        // shared knowledge is scoped to this top-level site — the
        // limitation that drove trackers to UID smuggling (§2). The base
        // carries the announcing network's short numeric partner id.
        for sync_base in &prep.sync_bases {
            let mut sync = sync_base.clone();
            sync.query_set(&tracker.uid_param, &uid);
            host.send_beacon(sync);
        }
    }

    /// Per-load random content for a volatile page: every element's target,
    /// x-path, and geometry is freshly sampled, so two crawlers loading the
    /// page share nothing the controller's heuristics can match.
    fn render_volatile(&self, host: &mut dyn ScriptHost) -> Vec<ElementModel> {
        let n = host.rng().range(2, 5) as usize;
        let mut elements = Vec::new();
        for _ in 0..n {
            let target_idx = host.rng().index(self.sites.len());
            let href = Url::from_host(
                Scheme::Https,
                self.prepared.sites[target_idx].www_host.clone(),
                "/",
            );
            let nonce = host.rng().next();
            elements.push(ElementModel {
                kind: ElementKind::Anchor,
                attr_names: vec!["href".into(), format!("data-w{:x}", nonce & 0xffff)],
                bbox: BBox {
                    x: (nonce % 900) as i32,
                    y: ((nonce >> 16) % 2000) as i32,
                    w: 40 + ((nonce >> 32) % 300) as i32,
                    h: 18 + ((nonce >> 40) % 60) as i32,
                },
                xpath: format!("/html/body/div[9]/div[{:x}]/a", nonce & 0xfff),
                href: Some(href.clone()),
                target: ClickTarget::Navigate(href),
            });
        }
        elements
    }

    /// Build the deterministic render skeleton for a non-volatile page:
    /// destination/shim URLs, x-paths, and geometry bases that the old
    /// implementation recomputed on all 23k+ loads per crawl. Per-load
    /// randomness (churn, decoration, rotation, jitter) is deliberately
    /// absent — it runs in [`Self::render_elements`] on every visit, in the
    /// exact draw order the uncached implementation used.
    fn build_page_skeleton(&self, page: &Page) -> PreparedPage {
        let links = page
            .links
            .iter()
            .enumerate()
            .map(|(i, link)| {
                let dest_url = Url::from_host(
                    Scheme::Https,
                    self.prepared.sites[link.to.0 as usize].www_host.clone(),
                    &link.to_path,
                );
                // The href as rendered in the DOM (shims carry the
                // destination in a query parameter, like l.instagram.com/?u=…).
                let href = match link.via_shim {
                    Some(shim) => {
                        let mut u = Url::from_host(
                            Scheme::Https,
                            self.prepared.trackers[shim.0 as usize].host.clone(),
                            "/shim",
                        );
                        u.query_set(P_DEST, &dest_url.to_url_string());
                        u
                    }
                    None => dest_url,
                };
                // Geometry is a deterministic function of the link's index,
                // so the same link renders identically on every crawler
                // while *different* links stay distinguishable to heuristic
                // 2. Only the y-coordinate floats per load — which the
                // heuristic deliberately ignores (§3.3).
                let i32i = i as i32;
                PreparedLink {
                    href,
                    xpath: format!("/html/body/div[1]/ul/li[{}]/a", i + 1),
                    x: 16 + 250 * (i32i % 3),
                    y_base: 120 + 60 * i32i,
                    w: 160 + (37 * i32i) % 120,
                    h: 24 + (i32i % 2) * 8,
                }
            })
            .collect();
        let slots = page
            .ad_slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                // Standard IAB ad sizes, chosen per slot: the same slot is
                // the same size on every crawler even when its *content*
                // differs — which is exactly why matched iframes can still
                // lead to different destinations (§3.3's divergence cases).
                const AD_SIZES: [(i32, i32); 4] = [(300, 250), (728, 90), (160, 600), (320, 50)];
                let (w, h) = AD_SIZES[slot.slot_id as usize % AD_SIZES.len()];
                PreparedSlot {
                    zipf: (!slot.campaigns.is_empty())
                        .then(|| Zipf::new(slot.campaigns.len(), self.rotation_zipf)),
                    xpath: format!("/html/body/div[2]/div[{}]/iframe", slot.slot_id),
                    x: 300 + 10 * (slot.slot_id as i32 % 7),
                    y_base: 90 + 280 * i as i32,
                    w,
                    h,
                }
            })
            .collect();
        PreparedPage { links, slots }
    }

    fn render_elements(
        &self,
        site: &Site,
        page: &Page,
        skeleton: &PreparedPage,
        host: &mut dyn ScriptHost,
    ) -> Vec<ElementModel> {
        let mut elements = Vec::with_capacity(skeleton.links.len() + skeleton.slots.len());
        let site_prep = &self.prepared.sites[site.id.0 as usize];

        for (link, prep) in page.links.iter().zip(&skeleton.links) {
            if host.rng().chance(page.element_churn) {
                continue; // dynamic widget absent from this load
            }

            // Click-time decoration (§2 step 1).
            let mut target = prep.href.clone();
            match link.decoration {
                LinkDecoration::None => {}
                LinkDecoration::SiteOwnUid => {
                    if let Some(uid) = host.storage_get(&site_prep.own_uid_cookie) {
                        target.query_set(P_SITE_REF_UID, &uid);
                    }
                }
                LinkDecoration::Tracker(tid) => {
                    let t = self.tracker(tid);
                    let uid = self.tracker_partition_uid(t, host);
                    target.query_set(&t.uid_param, &uid);
                }
            }

            let y_jitter = host.rng().range(0, 30) as i32;
            elements.push(ElementModel {
                kind: ElementKind::Anchor,
                attr_names: vec!["href".into(), "class".into()],
                bbox: BBox {
                    x: prep.x,
                    y: prep.y_base + y_jitter,
                    w: prep.w,
                    h: prep.h,
                },
                xpath: prep.xpath.clone(),
                href: Some(prep.href.clone()),
                target: ClickTarget::Navigate(target),
            });
        }

        for (slot, prep) in page.ad_slots.iter().zip(&skeleton.slots) {
            if host.rng().chance(page.element_churn) {
                continue;
            }
            let target = match &prep.zipf {
                None => ClickTarget::Inert,
                Some(zipf) => {
                    // Dynamic ad rotation: every load samples independently
                    // — the root cause of single-crawler observations
                    // (§3.7.2). Rotation is Zipf-skewed toward the slot's
                    // primary campaign, so parallel crawlers usually (not
                    // always) agree — keeping divergence near the paper's
                    // 1.8%.
                    let idx = zipf.sample(host.rng());
                    let campaign = self
                        .campaign(slot.campaigns[idx])
                        .expect("slot references a valid campaign");
                    ClickTarget::Navigate(self.campaign_click_url(campaign, host))
                }
            };
            let y_jitter = host.rng().range(0, 30) as i32;
            elements.push(ElementModel {
                kind: ElementKind::Iframe,
                attr_names: vec![
                    "src".into(),
                    "width".into(),
                    "height".into(),
                    "data-slot".into(),
                ],
                bbox: BBox {
                    x: prep.x,
                    y: prep.y_base + y_jitter,
                    w: prep.w,
                    h: prep.h,
                },
                xpath: prep.xpath.clone(),
                href: None,
                target,
            });
        }

        elements
    }

    /// Build the fully decorated click URL for a campaign ad.
    ///
    /// The routing prefix (`cc_dest`/`cc_chain`/`cc_cid`) comes from the
    /// campaign's cached base; the volatile suffix — owner UID, word
    /// params, timestamp, session id — appends per render in the original
    /// parameter order, and the truth-ledger mints still fire per render.
    fn campaign_click_url(&self, campaign: &Campaign, host: &mut dyn ScriptHost) -> Url {
        let prep = &self.prepared.campaigns[campaign.id.0 as usize];
        host.note_truth(&prep.dest_string, TokenTruth::UrlValue);
        let mut click = prep.click_base.clone();

        // The owner's UID enters at the originator when the span says so.
        if campaign.span.starts_at_originator() && campaign.span.smuggles() {
            let owner = self.tracker(campaign.owner);
            // Consent-gated species: without the first-party consent cookie
            // in this partition, the owner withholds decoration entirely.
            let consent_withheld = owner.kind == TrackerKind::ConsentGated
                && host.storage_get(CONSENT_COOKIE).is_none();
            if !consent_withheld {
                let uid = self.tracker_partition_uid(owner, host);
                click.query_set(&owner.uid_param, &uid);
            }
        }

        for (k, v) in &campaign.word_params {
            click.query_set(k, v);
        }
        if campaign.add_timestamp {
            let ts = host.now().as_millis().to_string();
            host.note_truth(&ts, TokenTruth::Timestamp);
            click.query_set(P_TIMESTAMP, &ts);
        }
        if campaign.add_session_id {
            let sid = ids::generate_session_id(host.rng());
            host.note_truth(&sid, TokenTruth::SessionId);
            click.query_set(P_SESSION, &sid);
        }
        click
    }
}

/// Derive a stable fingerprint-based UID (identical wherever the
/// fingerprint is identical — i.e. across all four crawlers).
pub fn fingerprint_uid(tracker: TrackerId, fingerprint: u64) -> String {
    let a = fingerprint ^ (u64::from(tracker.0).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let b = a.rotate_left(31) ^ 0xA5A5_5A5A_DEAD_BEEF;
    format!("{a:016x}{b:016x}")
}

/// Serialize params as a URL-encoded blob (the redirector's storage form).
fn serialize_params(params: &[(String, String)]) -> String {
    params
        .iter()
        .map(|(k, v)| {
            format!(
                "{}={}",
                cc_url::percent::encode_component(k),
                cc_url::percent::encode_component(v)
            )
        })
        .collect::<Vec<_>>()
        .join("&")
}

fn request_cookies(req: &Request) -> Vec<Cookie> {
    req.headers
        .get(names::COOKIE)
        .map(parse_cookie_header)
        .unwrap_or_default()
}

fn has_cookie(cookies: &[Cookie], name: &str) -> bool {
    cookies.iter().any(|c| c.name == name)
}

fn cookie_value<'a>(cookies: &'a [Cookie], name: &str) -> Option<&'a str> {
    cookies
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value.as_str())
}

/// Whether a response body is a renderable page (vs. empty/redirect).
pub fn is_renderable(resp: &Response) -> bool {
    matches!(resp.body, PageBody::Page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::Category;
    use crate::entity::OrgId;
    use crate::site::{AdSlot, StaticLink};
    use crate::tracker::TrackerKind;
    use cc_http::RequestKind;
    use cc_net::SimDuration;

    /// A minimal hand-built world: one news site with an ad slot, one shop
    /// destination, one dedicated smuggler with a 2-hop chain.
    fn tiny_world() -> SimWeb {
        let mut org_pub = Organization::new(OrgId(0), "PubCo");
        org_pub.add_domain("dailynews.com");
        let mut org_shop = Organization::new(OrgId(1), "ShopCo");
        org_shop.add_domain("megashop.com");
        let mut org_ads = Organization::new(OrgId(2), "AdCo");
        org_ads.add_domain("clicktrk.net");
        org_ads.add_domain("syncpx.link");

        let t0 = Tracker {
            id: TrackerId(0),
            name: "ClickTrk".into(),
            org: OrgId(2),
            fqdn: "adclick.g.clicktrk.net".into(),
            kind: TrackerKind::DedicatedSmuggler,
            uid_param: "gclid".into(),
            fingerprints: false,
            uid_lifetime: SimDuration::from_days(365),
            uses_local_storage: false,
            in_disconnect: false,
            in_easylist: false,
            benign_role_share: 0.0,
            js_redirect: false,
            sync_partners: Vec::new(),
        };
        let t1 = Tracker {
            id: TrackerId(1),
            name: "SyncPx".into(),
            org: OrgId(2),
            fqdn: "r.syncpx.link".into(),
            kind: TrackerKind::DedicatedSmuggler,
            uid_param: "spx_id".into(),
            fingerprints: false,
            uid_lifetime: SimDuration::from_days(30),
            uses_local_storage: false,
            in_disconnect: false,
            in_easylist: false,
            benign_role_share: 0.0,
            js_redirect: false,
            sync_partners: Vec::new(),
        };

        let campaign = Campaign {
            id: CampaignId(0),
            owner: TrackerId(0),
            hops: vec![TrackerId(0), TrackerId(1)],
            destination: SiteId(1),
            landing_path: "/deal".into(),
            span: UidSpan::Full,
            word_params: vec![("utm_campaign".into(), "sweet_magnolia_deal".into())],
            add_timestamp: true,
            add_session_id: true,
        };

        let news = Site {
            id: SiteId(0),
            domain: "dailynews.com".into(),
            org: OrgId(0),
            category: Category::NewsWeatherInformation,
            rank: 0,
            pages: vec![Page {
                path: "/".into(),
                links: vec![StaticLink {
                    to: SiteId(1),
                    to_path: "/".into(),
                    via_shim: None,
                    decoration: LinkDecoration::SiteOwnUid,
                }],
                ad_slots: vec![AdSlot {
                    slot_id: 1,
                    campaigns: vec![CampaignId(0)],
                }],
                element_churn: 0.0,
                volatile: false,
            }],
            embedded_trackers: vec![TrackerId(0)],
            sets_own_uid: true,
            sets_session_cookie: true,
            fingerprints: false,
            login_needs_uid: false,
            consent_banner: false,
        };
        let shop = Site {
            id: SiteId(1),
            domain: "megashop.com".into(),
            org: OrgId(1),
            category: Category::Shopping,
            rank: 1,
            pages: vec![Page {
                path: "/".into(),
                links: vec![],
                ad_slots: vec![],
                element_churn: 0.0,
                volatile: false,
            }],
            embedded_trackers: vec![TrackerId(0)],
            sets_own_uid: false,
            sets_session_cookie: false,
            fingerprints: false,
            login_needs_uid: false,
            consent_banner: false,
        };

        SimWeb::assemble(
            vec![news, shop],
            vec![t0, t1],
            vec![org_pub, org_shop, org_ads],
            vec![campaign],
            vec![SiteId(0)],
        )
    }

    /// Minimal in-test ScriptHost.
    struct TestHost {
        url: Url,
        storage: HashMap<String, String>,
        rng: DetRng,
        beacons: Vec<Url>,
        fp: u64,
        truth: TruthLog,
    }

    impl TestHost {
        fn new(url: &str, seed: u64) -> Self {
            TestHost {
                url: Url::parse(url).unwrap(),
                storage: HashMap::new(),
                rng: DetRng::new(seed),
                beacons: Vec::new(),
                fp: 0xFEED,
                truth: TruthLog::new(),
            }
        }
    }

    impl ScriptHost for TestHost {
        fn page_url(&self) -> &Url {
            &self.url
        }
        fn storage_get(&self, key: &str) -> Option<String> {
            self.storage.get(key).cloned()
        }
        fn storage_set(&mut self, key: &str, value: &str, _kind: StorageKind) {
            self.storage.insert(key.to_string(), value.to_string());
        }
        fn fingerprint(&self) -> u64 {
            self.fp
        }
        fn rng(&mut self) -> &mut DetRng {
            &mut self.rng
        }
        fn send_beacon(&mut self, url: Url) {
            self.beacons.push(url);
        }
        fn now(&self) -> SimTime {
            SimTime(1_234_567)
        }
        fn note_truth(&mut self, value: &str, truth: TokenTruth) {
            self.truth.note(value, truth);
        }
    }

    #[test]
    fn site_serve_sets_uid_and_session() {
        let web = tiny_world();
        let mut rng = DetRng::new(1);
        let req = Request::navigation(Url::parse("https://www.dailynews.com/").unwrap());
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let resp = web.serve(&req, &mut ctx).unwrap();
        assert!(is_renderable(&resp));
        let names: Vec<_> = resp
            .set_cookies
            .iter()
            .map(|sc| sc.cookie.name.clone())
            .collect();
        assert!(names.contains(&"_sessid".to_string()));
        assert!(names.contains(&"_site_uid".to_string()));
    }

    #[test]
    fn site_serve_respects_existing_uid_cookie() {
        let web = tiny_world();
        let mut rng = DetRng::new(1);
        let mut req = Request::navigation(Url::parse("https://www.dailynews.com/").unwrap());
        req.headers.set(names::COOKIE, "_site_uid=existing123");
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let resp = web.serve(&req, &mut ctx).unwrap();
        assert!(resp
            .set_cookies
            .iter()
            .all(|sc| sc.cookie.name != "_site_uid"));
    }

    #[test]
    fn unknown_host_errors() {
        let web = tiny_world();
        let mut rng = DetRng::new(1);
        let req = Request::navigation(Url::parse("https://nowhere.example/").unwrap());
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        assert!(matches!(
            web.serve(&req, &mut ctx),
            Err(ServeError::UnknownHost(_))
        ));
    }

    #[test]
    fn load_page_renders_elements_and_beacons() {
        let web = tiny_world();
        let mut host = TestHost::new("https://www.dailynews.com/", 42);
        host.storage
            .insert("_site_uid".into(), "siteuid12345".into());
        let page = web.load_page(&host.url.clone(), &mut host).unwrap();
        assert_eq!(page.site, SiteId(0));
        assert_eq!(page.elements.len(), 2);
        let anchor = &page.elements[0];
        assert_eq!(anchor.kind, ElementKind::Anchor);
        // Decorated with the site's own UID.
        match &anchor.target {
            ClickTarget::Navigate(u) => {
                assert_eq!(u.query_get(P_SITE_REF_UID), Some("siteuid12345"));
                assert_eq!(u.host.as_str(), "www.megashop.com");
            }
            ClickTarget::Inert => panic!("anchor should navigate"),
        }
        // The embedded tracker beaconed home with the page URL.
        assert_eq!(host.beacons.len(), 1);
        assert_eq!(host.beacons[0].host.as_str(), "adclick.g.clicktrk.net");
        assert!(host.beacons[0].query_get(P_BEACON_URL).is_some());
        assert!(host.beacons[0].query_get("gclid").is_some());
    }

    #[test]
    fn campaign_click_url_carries_uid_and_routing() {
        let web = tiny_world();
        let mut host = TestHost::new("https://www.dailynews.com/", 7);
        let page = web.load_page(&host.url.clone(), &mut host).unwrap();
        let iframe = page
            .elements
            .iter()
            .find(|e| e.kind == ElementKind::Iframe)
            .unwrap();
        let click = match &iframe.target {
            ClickTarget::Navigate(u) => u.clone(),
            ClickTarget::Inert => panic!("slot has a campaign"),
        };
        assert_eq!(click.host.as_str(), "adclick.g.clicktrk.net");
        assert_eq!(click.path, "/click");
        assert!(click.query_get(P_DEST).unwrap().contains("megashop.com"));
        assert_eq!(click.query_get(P_CHAIN), Some("r.syncpx.link"));
        assert_eq!(click.query_get(P_CID), Some("0"));
        // Full span → owner UID present, and it matches partition storage.
        let uid = click.query_get("gclid").unwrap();
        assert_eq!(host.storage.get("_clicktrk_uid").unwrap(), uid);
        assert!(click.query_get("utm_campaign").is_some());
        assert!(click.query_get(P_TIMESTAMP).is_some());
        assert!(click.query_get(P_SESSION).is_some());
    }

    #[test]
    fn redirect_chain_walks_to_destination() {
        let web = tiny_world();
        // Build the click URL via a page load.
        let mut host = TestHost::new("https://www.dailynews.com/", 9);
        let page = web.load_page(&host.url.clone(), &mut host).unwrap();
        let click = match &page.elements[1].target {
            ClickTarget::Navigate(u) => u.clone(),
            _ => panic!(),
        };
        let uid = click.query_get("gclid").unwrap().to_string();

        // Hop 1.
        let mut rng = DetRng::new(77);
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let req1 = Request {
            kind: RequestKind::Navigation,
            ..Request::navigation(click)
        };
        let resp1 = web.serve(&req1, &mut ctx).unwrap();
        let hop2_url = resp1.redirect_target().expect("302 to next hop");
        assert_eq!(hop2_url.host.as_str(), "r.syncpx.link");
        assert_eq!(hop2_url.query_get("gclid"), Some(uid.as_str()));
        // Hop 1 stored the payload and minted its own _ruid.
        let stored: Vec<_> = resp1
            .set_cookies
            .iter()
            .map(|sc| sc.cookie.name.as_str())
            .collect();
        assert!(stored.contains(&"_clicktrk_rcv"));
        assert!(stored.contains(&"_ruid"));

        // Hop 2 → destination.
        let req2 = Request::navigation(hop2_url);
        let resp2 = web.serve(&req2, &mut ctx).unwrap();
        let dest_url = resp2.redirect_target().expect("302 to destination");
        assert_eq!(dest_url.host.as_str(), "www.megashop.com");
        assert_eq!(dest_url.path, "/deal");
        // Full span: the UID survives to the destination URL.
        assert_eq!(dest_url.query_get("gclid"), Some(uid.as_str()));
        // Routing plumbing does not leak onto the destination URL.
        assert_eq!(dest_url.query_get(P_DEST), None);
        assert_eq!(dest_url.query_get(P_CHAIN), None);
    }

    #[test]
    fn redirector_recognizes_returning_user() {
        let web = tiny_world();
        let mut rng = DetRng::new(5);
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let mut u = Url::https("adclick.g.clicktrk.net", "/r");
        u.query_set(P_DEST, "https://www.megashop.com/");
        let mut req = Request::navigation(u);
        req.headers.set(names::COOKIE, "_ruid=known_user_uid_1");
        let resp = web.serve(&req, &mut ctx).unwrap();
        // No fresh _ruid minted for a recognized user.
        assert!(resp.set_cookies.iter().all(|sc| sc.cookie.name != "_ruid"));
    }

    #[test]
    fn destination_tracker_collects_smuggled_uid() {
        let web = tiny_world();
        let landing = "https://www.megashop.com/deal?gclid=smuggled_uid_value_1&ts=123";
        let mut host = TestHost::new(landing, 11);
        web.load_page(&host.url.clone(), &mut host).unwrap();
        assert_eq!(
            host.storage.get("_clicktrk_rcv").map(String::as_str),
            Some("smuggled_uid_value_1")
        );
    }

    #[test]
    fn fingerprint_uid_stable_across_profiles() {
        assert_eq!(
            fingerprint_uid(TrackerId(3), 0xABCD),
            fingerprint_uid(TrackerId(3), 0xABCD)
        );
        assert_ne!(
            fingerprint_uid(TrackerId(3), 0xABCD),
            fingerprint_uid(TrackerId(4), 0xABCD)
        );
        assert_eq!(fingerprint_uid(TrackerId(3), 1).len(), 32);
    }

    #[test]
    fn truth_ledger_populated() {
        let web = tiny_world();
        let mut host = TestHost::new("https://www.dailynews.com/", 21);
        web.load_page(&host.url.clone(), &mut host).unwrap();
        assert!(host.truth.uid_count() >= 1, "tracker UID should be labeled");
        let mut rng = DetRng::new(1);
        let mut truth = TruthLog::new();
        let req = Request::navigation(Url::parse("https://www.dailynews.com/").unwrap());
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        web.serve(&req, &mut ctx).unwrap();
        assert_eq!(truth.uid_count(), 1, "the site's own UID is labeled");
        assert!(
            web.truth_snapshot().is_empty(),
            "a mint reached the world's ledger"
        );
        web.absorb_truth_owned(truth);
        assert_eq!(web.with_truth(TruthLog::uid_count), 1);
    }

    #[test]
    fn beacon_endpoint_answers_empty() {
        let web = tiny_world();
        let mut rng = DetRng::new(1);
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let req =
            Request::subresource(Url::parse("https://adclick.g.clicktrk.net/b?gclid=x").unwrap());
        let resp = web.serve(&req, &mut ctx).unwrap();
        assert_eq!(resp.body, PageBody::Empty);
        assert!(resp.status.is_success());
    }

    #[test]
    fn hop_without_dest_is_not_found() {
        let web = tiny_world();
        let mut rng = DetRng::new(1);
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let req = Request::navigation(Url::parse("https://adclick.g.clicktrk.net/click").unwrap());
        let resp = web.serve(&req, &mut ctx).unwrap();
        assert_eq!(resp.status, cc_http::StatusCode::NOT_FOUND);
    }

    /// Hand-built world exercising the evasion species' server behaviors:
    /// a consent-bannered portal embedding an ETag respawner, plus a
    /// remint bouncer and a consent-gated network each owning a one-hop
    /// Full-span campaign to the store.
    fn species_world() -> SimWeb {
        let orgs = vec![
            Organization::new(OrgId(0), "PortalCo"),
            Organization::new(OrgId(1), "StoreCo"),
            Organization::new(OrgId(2), "RemintCo"),
            Organization::new(OrgId(3), "CacheCo"),
            Organization::new(OrgId(4), "ConsentCo"),
        ];
        let base = |id: u32, name: &str, org: u32, fqdn: &str, kind, param: &str| Tracker {
            id: TrackerId(id),
            name: name.into(),
            org: OrgId(org),
            fqdn: fqdn.into(),
            kind,
            uid_param: param.into(),
            fingerprints: false,
            uid_lifetime: SimDuration::from_days(365),
            uses_local_storage: false,
            in_disconnect: false,
            in_easylist: false,
            benign_role_share: 0.0,
            js_redirect: false,
            sync_partners: Vec::new(),
        };
        let remint = base(
            0,
            "Remintly",
            2,
            "r.remintly.net",
            TrackerKind::RemintBouncer,
            "rmt_rid",
        );
        let etag = base(
            1,
            "EdgeCache",
            3,
            "cdn.edgecache.net",
            TrackerKind::EtagRespawner,
            "click_id",
        );
        let consent = base(
            2,
            "Consentix",
            4,
            "go.consentix.net",
            TrackerKind::ConsentGated,
            "sub_id",
        );
        let camp = |id: u32, owner: u32, landing: &str| Campaign {
            id: CampaignId(id),
            owner: TrackerId(owner),
            hops: vec![TrackerId(owner)],
            destination: SiteId(1),
            landing_path: landing.into(),
            span: UidSpan::Full,
            word_params: vec![],
            add_timestamp: false,
            add_session_id: false,
        };
        let page = Page {
            path: "/".into(),
            links: vec![],
            ad_slots: vec![],
            element_churn: 0.0,
            volatile: false,
        };
        let portal = Site {
            id: SiteId(0),
            domain: "portal.com".into(),
            org: OrgId(0),
            category: Category::NewsWeatherInformation,
            rank: 0,
            pages: vec![page.clone()],
            embedded_trackers: vec![TrackerId(1)],
            sets_own_uid: false,
            sets_session_cookie: false,
            fingerprints: false,
            login_needs_uid: false,
            consent_banner: true,
        };
        let store = Site {
            id: SiteId(1),
            domain: "store.com".into(),
            org: OrgId(1),
            category: Category::Shopping,
            rank: 1,
            pages: vec![page],
            embedded_trackers: vec![],
            sets_own_uid: false,
            sets_session_cookie: false,
            fingerprints: false,
            login_needs_uid: false,
            consent_banner: false,
        };
        SimWeb::assemble(
            vec![portal, store],
            vec![remint, etag, consent],
            orgs,
            vec![camp(0, 0, "/l0"), camp(1, 2, "/l1")],
            vec![SiteId(0)],
        )
    }

    #[test]
    fn consent_banner_sets_first_party_cookie_once() {
        let web = species_world();
        let mut rng = DetRng::new(3);
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let url = Url::parse("https://www.portal.com/").unwrap();
        let resp = web.serve(&Request::navigation(url.clone()), &mut ctx).unwrap();
        let consent = resp
            .set_cookies
            .iter()
            .find(|sc| sc.cookie.name == CONSENT_COOKIE)
            .expect("banner accepted on first visit");
        assert_eq!(consent.cookie.value, CONSENT_VALUE);
        // A returning (consented) partition sees no banner.
        let mut req = Request::navigation(url);
        req.headers
            .set(names::COOKIE, format!("{CONSENT_COOKIE}={CONSENT_VALUE}"));
        let resp2 = web.serve(&req, &mut ctx).unwrap();
        assert!(resp2
            .set_cookies
            .iter()
            .all(|sc| sc.cookie.name != CONSENT_COOKIE));
    }

    #[test]
    fn consent_gated_species_withholds_decoration_without_consent() {
        let web = species_world();
        let campaign = web.campaign(CampaignId(1)).unwrap();
        let mut host = TestHost::new("https://www.portal.com/", 17);
        let bare = web.campaign_click_url(campaign, &mut host);
        assert_eq!(
            bare.query_get("sub_id"),
            None,
            "no consent cookie → no decoration"
        );
        host.storage
            .insert(CONSENT_COOKIE.into(), CONSENT_VALUE.into());
        let decorated = web.campaign_click_url(campaign, &mut host);
        let uid = decorated.query_get("sub_id").expect("consented → decorated");
        assert_eq!(host.storage.get("_consentix_uid").unwrap(), uid);
    }

    #[test]
    fn remint_bouncer_replaces_click_uid_with_its_own_mid_chain() {
        let web = species_world();
        let campaign = web.campaign(CampaignId(0)).unwrap();
        let mut host = TestHost::new("https://www.portal.com/", 23);
        let click = web.campaign_click_url(campaign, &mut host);
        let click_uid = click.query_get("rmt_rid").expect("Full span decorates").to_string();

        let mut rng = DetRng::new(29);
        let mut truth = TruthLog::new();
        let mut ctx = ServeCtx {
            rng: &mut rng,
            now: SimTime::EPOCH,
            truth: &mut truth,
        };
        let resp = web.serve(&Request::navigation(click), &mut ctx).unwrap();
        let onward = resp.redirect_target().expect("302 to destination");
        assert_eq!(onward.host.as_str(), "www.store.com");
        let onward_uid = onward.query_get("rmt_rid").expect("re-minted UID rides on");
        // The value that reaches the destination is NOT the one decorated
        // at the originator — it was born mid-chain from the hop's own
        // durable first-party identity.
        assert_ne!(onward_uid, click_uid);
        let ruid = resp
            .set_cookies
            .iter()
            .find(|sc| sc.cookie.name == "_ruid")
            .expect("hop minted a durable identity");
        assert_eq!(onward_uid, ruid.cookie.value);
    }

    #[test]
    fn etag_respawner_revives_identical_uid_after_purge() {
        let web = species_world();
        let mut host = TestHost::new("https://www.portal.com/", 31);
        web.load_page(&host.url.clone(), &mut host).unwrap();
        let uid = host.storage.get("_edgecache_uid").cloned().expect("uid minted");
        let validator = host
            .storage
            .get("_etv_edgecache")
            .cloned()
            .expect("validator dual-written");
        assert_eq!(uid, validator);
        // An ITP-style purge clears the tracker's own storage — but not
        // the first-party cache-validator copy.
        host.storage.remove("_edgecache_uid");
        web.load_page(&host.url.clone(), &mut host).unwrap();
        assert_eq!(
            host.storage.get("_edgecache_uid"),
            Some(&uid),
            "revalidation respawns the identical UID"
        );
    }
}
