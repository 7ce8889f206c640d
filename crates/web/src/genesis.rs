//! World generation: build a [`SimWeb`] from a [`WebConfig`] and a seed.
//!
//! The generator is where the paper's measured structure is *planted* so the
//! pipeline can *recover* it:
//!
//! * a long-tailed redirector ecosystem with one dominant dedicated
//!   smuggler (DoubleClick appears in >20% of the paper's smuggling cases)
//!   and an affiliate pair that always chains together (awin1 → zenaps);
//! * originator-heavy news/sports sites with iframe ad slots, and
//!   destination-heavy shopping/technology sites;
//! * organization families whose sites link to each other with first-party
//!   UID decoration (Sports Reference), and a social network whose app
//!   button smuggles its UID to an app store (Instagram → Play Store);
//! * noise: session IDs, timestamps, word-shaped campaign parameters,
//!   acronyms, coordinates — the §3.7.2 false-positive workload;
//! * fingerprinting sites and fingerprint-derived UIDs (§3.5);
//! * blocklist coverage gaps (41% of dedicated smugglers missing from
//!   Disconnect; ~6% EasyList coverage — §5.1, §7.1).

use cc_net::SimDuration;
use cc_util::{DetRng, Zipf};

use crate::campaign::{Campaign, CampaignId, UidSpan};
use crate::category::Category;
use crate::entity::{OrgId, Organization};
use crate::script::{TokenTruth, TruthLog};
use crate::server::SimWeb;
use crate::site::{AdSlot, LinkDecoration, Page, Site, SiteId, StaticLink};
use crate::tracker::{Tracker, TrackerId, TrackerKind, UID_PARAM_NAMES};
use crate::words;

/// Parameters controlling world generation.
///
/// Defaults are calibrated so a medium crawl reproduces the paper's headline
/// shape (≈8% of unique URL paths with UID smuggling, ≈2.7% bounce-only).
///
/// Serde-able so a `StudyConfig` (and therefore a crawl checkpoint) can
/// embed the exact world it was built for.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WebConfig {
    /// Master seed; every other stream forks from it.
    pub seed: u64,
    /// Number of sites in the world.
    pub n_sites: usize,
    /// Number of seeder sites (walk starting points).
    pub n_seeders: usize,
    /// Dedicated-smuggler trackers.
    pub n_dedicated: usize,
    /// Multi-purpose smuggler trackers.
    pub n_multipurpose: usize,
    /// Pure bounce trackers (never decorate UIDs).
    pub n_bounce: usize,
    /// Passive analytics trackers.
    pub n_analytics: usize,
    /// Campaigns per smuggling network.
    pub campaigns_per_network: usize,
    /// Probability a page carries an iframe ad slot.
    pub p_ad_slot: f64,
    /// Probability a site's internal family links are UID-decorated.
    pub p_static_decoration: f64,
    /// Probability a site fingerprints (Iqbal-list membership; the paper's
    /// §3.5 experiment found 13% of smuggling originates on such sites).
    pub p_site_fingerprints: f64,
    /// Probability a smuggler tracker derives UIDs from fingerprints.
    pub p_tracker_fingerprints: f64,
    /// Probability a site sets a rotating session cookie.
    pub p_session_cookie: f64,
    /// Probability a site sets its own persistent UID cookie.
    pub p_own_uid: f64,
    /// Mean per-element churn (element missing from a given load);
    /// calibrates the 7.6% sync-failure rate of §3.3.
    pub element_churn: f64,
    /// Weight multiplier for the dominant (DoubleClick-like) smuggler.
    pub dominant_weight: f64,
    /// Fraction of dedicated smugglers present on the Disconnect list
    /// (the paper found 59% = 16/27 present, i.e. 41% missing).
    pub disconnect_coverage_dedicated: f64,
    /// Fraction of smuggler URLs matched by EasyList (paper: ~6%).
    pub easylist_coverage: f64,
    /// Probability that a campaign continues to an additional redirector
    /// hop (geometric chain length).
    pub p_extra_hop: f64,
    /// Maximum redirector hops in any campaign.
    pub max_hops: usize,
    /// Probability that a page is fully dynamic (`volatile`): no element
    /// survives across loads, so the controller cannot synchronize there.
    /// Calibrates the 7.6% sync-failure rate of §3.3.
    pub p_volatile_page: f64,
    /// Zipf exponent for ad rotation within a slot: higher ⇒ crawlers
    /// loading the same slot agree on the ad more often (lower divergence,
    /// §3.3's 1.8%), lower ⇒ more single-crawler dynamic cases (§3.7.2).
    pub slot_rotation_zipf: f64,
    /// Bounce-to-remint evasion trackers ([`TrackerKind::RemintBouncer`]).
    /// All five species counts default to zero, and species generation
    /// draws exclusively from fresh named RNG streams — so worlds with the
    /// species disabled are byte-identical to pre-species worlds (and old
    /// serialized configs deserialize with the species off).
    #[serde(default)]
    pub n_remint: usize,
    /// ETag/cache-respawn evasion trackers ([`TrackerKind::EtagRespawner`]).
    #[serde(default)]
    pub n_etag: usize,
    /// Consent-gated evasion trackers ([`TrackerKind::ConsentGated`]).
    #[serde(default)]
    pub n_consent: usize,
    /// SPA-pushState evasion trackers ([`TrackerKind::SpaPushState`]).
    #[serde(default)]
    pub n_spa: usize,
    /// CNAME-cloaked sync trackers ([`TrackerKind::CnameCloaked`]).
    #[serde(default)]
    pub n_cname: usize,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            seed: 0xC0FFEE,
            n_sites: 300,
            n_seeders: 60,
            n_dedicated: 27,
            n_multipurpose: 30,
            n_bounce: 5,
            n_analytics: 18,
            campaigns_per_network: 10,
            p_ad_slot: 0.22,
            p_static_decoration: 0.12,
            p_site_fingerprints: 0.13,
            p_tracker_fingerprints: 0.10,
            p_session_cookie: 0.4,
            p_own_uid: 0.5,
            element_churn: 0.03,
            dominant_weight: 8.0,
            disconnect_coverage_dedicated: 0.59,
            easylist_coverage: 0.06,
            p_extra_hop: 0.42,
            max_hops: 8,
            p_volatile_page: 0.085,
            slot_rotation_zipf: 0.3,
            n_remint: 0,
            n_etag: 0,
            n_consent: 0,
            n_spa: 0,
            n_cname: 0,
        }
    }
}

impl WebConfig {
    /// A tiny world for fast unit tests.
    pub fn small() -> Self {
        WebConfig {
            n_sites: 60,
            n_seeders: 15,
            n_dedicated: 8,
            n_multipurpose: 8,
            n_bounce: 3,
            n_analytics: 5,
            campaigns_per_network: 5,
            ..WebConfig::default()
        }
    }

    /// Enable every evasion species (DESIGN §5f) at a small test-friendly
    /// scale on top of an existing configuration.
    pub fn all_species(self) -> Self {
        WebConfig {
            n_remint: 2,
            n_etag: 2,
            n_consent: 2,
            n_spa: 2,
            n_cname: 2,
            ..self
        }
    }

    /// Whether any evasion species is enabled.
    pub fn species_enabled(&self) -> bool {
        self.n_remint + self.n_etag + self.n_consent + self.n_spa + self.n_cname > 0
    }

    /// Paper-scale world (10,000 seeders — §3.1).
    pub fn paper_scale() -> Self {
        WebConfig {
            n_sites: 10_000,
            n_seeders: 10_000,
            n_dedicated: 40,
            n_multipurpose: 60,
            n_bounce: 15,
            n_analytics: 30,
            campaigns_per_network: 40,
            ..WebConfig::default()
        }
    }
}

/// Generate a complete world.
pub fn generate(config: &WebConfig) -> SimWeb {
    Generator::new(config.clone()).build()
}

struct Generator {
    cfg: WebConfig,
    rng: DetRng,
    orgs: Vec<Organization>,
    trackers: Vec<Tracker>,
    sites: Vec<Site>,
    campaigns: Vec<Campaign>,
    /// (value, truth) pairs to record once the web exists.
    truths: Vec<(String, TokenTruth)>,
    /// Popularity sampler over site ranks, built once (O(n)).
    popularity: Zipf,
}

impl Generator {
    fn new(cfg: WebConfig) -> Self {
        let rng = DetRng::new(cfg.seed).fork("genesis");
        let cfg_sites = cfg.n_sites.max(1);
        Generator {
            cfg,
            rng,
            orgs: Vec::new(),
            trackers: Vec::new(),
            sites: Vec::new(),
            campaigns: Vec::new(),
            truths: Vec::new(),
            popularity: Zipf::new(cfg_sites, 0.8),
        }
    }

    fn new_org(&mut self, name: String) -> OrgId {
        let id = OrgId(self.orgs.len() as u32);
        self.orgs.push(Organization::new(id, name));
        id
    }

    fn build(mut self) -> SimWeb {
        let tlds = ["com", "net", "org", "io", "co", "ru", "link", "world", "ca"];

        // ------------------------------------------------------------
        // 1. Tracker ecosystem.
        // ------------------------------------------------------------
        let mut smugglers: Vec<TrackerId> = Vec::new();
        let mut shims: Vec<TrackerId> = Vec::new();
        let mut bouncers: Vec<TrackerId> = Vec::new();
        let mut analytics: Vec<TrackerId> = Vec::new();

        // Dedicated smugglers; index 0 is the DoubleClick-like dominant.
        for i in 0..self.cfg.n_dedicated {
            let mut rng = self.rng.fork_indexed("tracker-dedicated", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = base.split('.').next().unwrap_or("adco").to_string();
            let org = self.new_org(format!("{name} Inc"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            let in_disconnect = rng.chance(self.cfg.disconnect_coverage_dedicated);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: words::tracker_fqdn(&mut rng, &base),
                kind: TrackerKind::DedicatedSmuggler,
                uid_param: pick_uid_param(&mut rng, i),
                fingerprints: rng.chance(self.cfg.p_tracker_fingerprints),
                uid_lifetime: sample_uid_lifetime(&mut rng),
                uses_local_storage: rng.chance(0.25),
                in_disconnect,
                in_easylist: rng.chance(self.cfg.easylist_coverage),
                benign_role_share: 0.0,
                js_redirect: rng.chance(0.2),
                sync_partners: Vec::new(),
            });
            smugglers.push(id);
        }

        // Affiliate pair: two dedicated smugglers under one org that always
        // chain together (the awin1.com → zenaps.com pattern of §5.3).
        let affiliate_org = self.new_org("AWIN-like Affiliates".into());
        let mut affiliate_pair = Vec::new();
        for (label, fq) in [
            ("awin1-like", "go.awn1.com"),
            ("zenaps-like", "r.zenps.com"),
        ] {
            let id = TrackerId(self.trackers.len() as u32);
            self.orgs[affiliate_org.0 as usize].add_domain(&cc_url::registered_domain(fq));
            self.trackers.push(Tracker {
                id,
                name: label.into(),
                org: affiliate_org,
                fqdn: fq.into(),
                kind: TrackerKind::DedicatedSmuggler,
                uid_param: "awc".into(),
                fingerprints: false,
                uid_lifetime: SimDuration::from_days(365),
                uses_local_storage: false,
                in_disconnect: false,
                in_easylist: false,
                benign_role_share: 0.0,
                js_redirect: false,
                sync_partners: Vec::new(),
            });
            smugglers.push(id);
            affiliate_pair.push(id);
        }

        // Multi-purpose smugglers: shims, sign-in hops, social link shims.
        for i in 0..self.cfg.n_multipurpose {
            let mut rng = self.rng.fork_indexed("tracker-multi", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = base.split('.').next().unwrap_or("shimco").to_string();
            let org = self.new_org(format!("{name} Corp"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: format!("l.{base}"),
                kind: TrackerKind::MultiPurposeSmuggler,
                uid_param: pick_uid_param(&mut rng, self.cfg.n_dedicated + i),
                fingerprints: rng.chance(self.cfg.p_tracker_fingerprints),
                uid_lifetime: sample_uid_lifetime(&mut rng),
                uses_local_storage: rng.chance(0.2),
                in_disconnect: rng.chance(0.7),
                in_easylist: rng.chance(self.cfg.easylist_coverage),
                benign_role_share: 0.4,
                js_redirect: rng.chance(0.3),
                sync_partners: Vec::new(),
            });
            shims.push(id);
            smugglers.push(id);
        }

        // Bounce trackers.
        for i in 0..self.cfg.n_bounce {
            let mut rng = self.rng.fork_indexed("tracker-bounce", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = base.split('.').next().unwrap_or("bounce").to_string();
            let org = self.new_org(format!("{name} Media"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: words::tracker_fqdn(&mut rng, &base),
                kind: TrackerKind::BounceTracker,
                uid_param: "bt".into(),
                fingerprints: false,
                uid_lifetime: SimDuration::from_days(30),
                uses_local_storage: false,
                in_disconnect: rng.chance(0.5),
                in_easylist: rng.chance(self.cfg.easylist_coverage),
                benign_role_share: 0.0,
                js_redirect: rng.chance(0.5),
                sync_partners: Vec::new(),
            });
            bouncers.push(id);
        }

        // Analytics (google-analytics-like passive third parties).
        for i in 0..self.cfg.n_analytics {
            let mut rng = self.rng.fork_indexed("tracker-analytics", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = base.split('.').next().unwrap_or("metrics").to_string();
            let org = self.new_org(format!("{name} Analytics"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: words::tracker_fqdn(&mut rng, &base),
                kind: TrackerKind::Analytics,
                uid_param: if i % 2 == 0 {
                    "cid".into()
                } else {
                    "vid".into()
                },
                fingerprints: rng.chance(self.cfg.p_tracker_fingerprints),
                uid_lifetime: SimDuration::from_days(730),
                uses_local_storage: rng.chance(0.3),
                in_disconnect: rng.chance(0.8),
                in_easylist: rng.chance(0.5),
                benign_role_share: 0.0,
                js_redirect: false,
                sync_partners: Vec::new(),
            });
            analytics.push(id);
        }

        // Cookie-sync partnerships (§8.2): analytics trackers exchange
        // UIDs with each other and with smugglers on the pages they share.
        {
            let mut rng = self.rng.fork("sync-partners");
            let pool: Vec<TrackerId> = analytics.iter().chain(smugglers.iter()).copied().collect();
            for &aid in &analytics {
                let n = rng.range(0, 2) as usize;
                for _ in 0..n {
                    let partner = pool[rng.index(pool.len())];
                    let t = &mut self.trackers[aid.0 as usize];
                    if partner != aid && !t.sync_partners.contains(&partner) {
                        t.sync_partners.push(partner);
                    }
                }
            }
        }

        // ------------------------------------------------------------
        // 2. Sites.
        // ------------------------------------------------------------
        let cat_weights: Vec<f64> = Category::ALL.iter().map(|c| c.site_weight()).collect();
        // Organization families (Sports-Reference-like and a social giant).
        let sports_org = self.new_org("Sports Reference-like".into());
        let social_org = self.new_org("Social Giant".into());
        let store_org = self.new_org("App Store Giant".into());

        for i in 0..self.cfg.n_sites {
            let mut rng = self.rng.fork_indexed("site", i as u64);
            let (org, domain, category) = if i < 4 {
                // The sports stats family: heavily interlinked same-org
                // sites (§5.2's most common originator).
                let domain = format!(
                    "{}-reference-{i}.com",
                    ["hockey", "baseball", "football", "stat"][i]
                );
                (sports_org, domain, Category::Sports)
            } else if i == 4 {
                (
                    social_org,
                    "instaface.com".to_string(),
                    Category::SocialNetworking,
                )
            } else if i == 5 {
                (
                    store_org,
                    "playstore-g.com".to_string(),
                    Category::TechnologyComputing,
                )
            } else {
                let cat = Category::ALL[rng.weighted_index(&cat_weights)];
                let tld = *rng.pick(&tlds);
                let domain = words::domain_name(&mut rng, tld);
                let org = self.new_org(format!("{} owner", domain));
                (org, domain, cat)
            };
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&domain));

            let id = SiteId(i as u32);
            let fingerprints = rng.chance(self.cfg.p_site_fingerprints);
            let mut embedded: Vec<TrackerId> = Vec::new();
            // 1–3 analytics trackers, favoring the head of the list so a few
            // domains dominate Figure 6 as in the paper.
            if !analytics.is_empty() {
                let z = Zipf::new(analytics.len(), 1.1);
                for _ in 0..rng.range(1, 3) {
                    let t = analytics[z.sample(&mut rng)];
                    if !embedded.contains(&t) {
                        embedded.push(t);
                    }
                }
            }

            self.sites.push(Site {
                id,
                domain,
                org,
                category,
                rank: i,
                pages: Vec::new(), // filled after campaigns exist
                embedded_trackers: embedded,
                sets_own_uid: rng.chance(self.cfg.p_own_uid),
                sets_session_cookie: rng.chance(self.cfg.p_session_cookie),
                fingerprints,
                login_needs_uid: i % 97 == 13, // a sparse sprinkling of login pages
                consent_banner: false, // planted by the species phase
            });
        }
        // The social site always has its own UID (the app-button case).
        self.sites[4].sets_own_uid = true;
        for s in self.sites.iter_mut().take(4) {
            s.sets_own_uid = true;
        }
        // The fixed families produce a large share of findings; letting the
        // fingerprinting flag land on them by chance would swing the §3.5
        // experiment wildly between seeds. Real equivalents (major sports
        // stats sites, the social giant) are not on Iqbal et al.'s list.
        for s in self.sites.iter_mut().take(6) {
            s.fingerprints = false;
        }

        // Some multi-purpose smugglers ARE user-facing sites — the
        // www.facebook.com-as-redirector rows of Table 3. A third of the
        // shims serve their redirects from a site's own www host, so their
        // FQDN is also observed as an originator/destination (failing the
        // dedicated-smuggler criterion by design).
        for (idx, &tid) in shims.iter().enumerate() {
            if idx % 3 != 0 {
                continue;
            }
            let site_idx = 6 + idx;
            if site_idx >= self.sites.len() {
                break;
            }
            let site = &self.sites[site_idx];
            let fqdn = site.www_fqdn();
            let org = site.org;
            let name = site
                .domain
                .split('.')
                .next()
                .unwrap_or("paired")
                .to_string();
            let t = &mut self.trackers[tid.0 as usize];
            t.fqdn = fqdn;
            t.org = org;
            t.name = name;
        }

        // ------------------------------------------------------------
        // 3. Campaigns.
        // ------------------------------------------------------------
        // Destination pool weighted by destination affinity and popularity.
        let dest_weights: Vec<f64> = self
            .sites
            .iter()
            .map(|s| s.category.destination_affinity() / (1.0 + s.rank as f64).sqrt())
            .collect();

        // Smuggler weights: dominant first dedicated smuggler.
        let mut smuggler_weights: Vec<f64> = smugglers.iter().map(|_| 1.0).collect();
        if !smuggler_weights.is_empty() {
            smuggler_weights[0] = self.cfg.dominant_weight;
        }

        // Campaigns are generated in *sibling clusters*: creatives of one
        // advertiser rotating in the same slot share a destination (so the
        // same iframe clicked on different crawlers usually lands on the
        // same FQDN — the paper's divergence rate is only 1.8%) while
        // differing in chain shape, span, and noise parameters (so the
        // *tokens* still differ — the dynamic cases of §3.7.2).
        let mut clusters: Vec<Vec<CampaignId>> = Vec::new();
        let network_pool: Vec<TrackerId> = smugglers.clone();
        for (wi, &network) in network_pool.iter().enumerate() {
            let n_campaigns = if wi == 0 {
                self.cfg.campaigns_per_network * 3 // the dominant network
            } else {
                self.cfg.campaigns_per_network
            };
            let mut cluster_left = 0usize;
            let mut cluster_dest = SiteId(0);
            for j in 0..n_campaigns {
                let mut rng = self.rng.fork_indexed("campaign", (wi * 10_000 + j) as u64);
                if cluster_left == 0 {
                    cluster_left = rng.range(3, 8) as usize;
                    cluster_dest = SiteId(rng.weighted_index(&dest_weights) as u32);
                    clusters.push(Vec::new());
                }
                cluster_left -= 1;
                let destination = cluster_dest;
                // Header-bidding realism: an advertiser's creatives can be
                // served through different networks. A different network
                // means a different UID parameter name — the source of
                // single-crawler observations (§3.7.2) without divergence.
                let owner = if rng.chance(0.6) && smugglers.len() > 1 {
                    smugglers[rng.weighted_index(&smuggler_weights)]
                } else {
                    network
                };
                // Chain: the network first, then geometric extra hops drawn
                // from the smuggler pool (dedicated smugglers favored for
                // long chains — Figure 7's observation).
                let extra = rng.geometric(self.cfg.p_extra_hop, self.cfg.max_hops - 1);
                let mut hops = vec![owner];
                for _ in 0..extra {
                    let pick = smugglers[rng.weighted_index(&smuggler_weights)];
                    if !hops.contains(&pick) {
                        hops.push(pick);
                    }
                }
                // The affiliate pair always travels together.
                if hops.contains(&affiliate_pair[0]) && !hops.contains(&affiliate_pair[1]) {
                    hops.push(affiliate_pair[1]);
                }

                // Zero-hop (direct O→D) campaigns for a slice of the pool.
                let direct = rng.chance(0.08);
                if direct {
                    hops.clear();
                }

                let owner_tracker = &self.trackers[owner.0 as usize];
                let span = if owner_tracker.kind == TrackerKind::BounceTracker {
                    UidSpan::None
                } else if direct {
                    UidSpan::OriginatorToDestination
                } else {
                    match rng.weighted_index(&[0.63, 0.11, 0.14, 0.07, 0.05]) {
                        0 => UidSpan::Full,
                        1 => UidSpan::RedirectorToDestination,
                        2 => UidSpan::OriginatorToRedirector,
                        3 if hops.len() >= 2 => UidSpan::RedirectorToRedirector,
                        3 => UidSpan::Full,
                        _ => UidSpan::None, // benign ad click, no UID
                    }
                };

                let word_params = self.gen_word_params(&mut rng);
                let cid = CampaignId(self.campaigns.len() as u32);
                self.campaigns.push(Campaign {
                    id: cid,
                    owner,
                    hops,
                    destination,
                    landing_path: format!("/landing/{}", j),
                    span,
                    word_params,
                    add_timestamp: rng.chance(0.6),
                    add_session_id: rng.chance(0.10),
                });
                clusters.last_mut().expect("cluster opened").push(cid);
                // Destination embeds the owner's script so the UID is
                // collected on arrival (§2 step 3).
                let dsite = &mut self.sites[destination.0 as usize];
                if !dsite.embedded_trackers.contains(&owner) {
                    dsite.embedded_trackers.push(owner);
                }
            }
        }

        // Bounce campaigns: bounce trackers get chains too.
        for (bi, &b) in bouncers.iter().enumerate() {
            for j in 0..self.cfg.campaigns_per_network / 8 + 1 {
                let mut rng = self
                    .rng
                    .fork_indexed("bounce-campaign", (bi * 1_000 + j) as u64);
                let destination = SiteId(rng.weighted_index(&dest_weights) as u32);
                let extra = rng.geometric(0.3, 2);
                let mut hops = vec![b];
                for _ in 0..extra {
                    let pick = bouncers[rng.index(bouncers.len())];
                    if !hops.contains(&pick) {
                        hops.push(pick);
                    }
                }
                let cid = CampaignId(self.campaigns.len() as u32);
                clusters.push(vec![cid]);
                let word_params = self.gen_word_params(&mut rng);
                self.campaigns.push(Campaign {
                    id: cid,
                    owner: b,
                    hops,
                    destination,
                    landing_path: "/".into(),
                    span: UidSpan::None,
                    word_params,
                    add_timestamp: rng.chance(0.5),
                    add_session_id: rng.chance(0.10),
                });
            }
        }

        // ------------------------------------------------------------
        // 4. Pages: ad slots and static links.
        // ------------------------------------------------------------
        let campaign_count = self.campaigns.len();
        let n_sites = self.sites.len();
        for i in 0..n_sites {
            let mut rng = self.rng.fork_indexed("pages", i as u64);
            let originator_affinity = self.sites[i].category.originator_affinity();
            let fingerprint_site = self.sites[i].fingerprints;
            let n_pages = rng.range(1, 3) as usize;
            let mut pages = Vec::new();
            for p in 0..n_pages {
                let path = if p == 0 {
                    "/".to_string()
                } else {
                    format!("/{}", words::word(&mut rng))
                };

                // Static links: 3–7 links to other sites (anchors dominate
                // clickable elements on real pages).
                let mut links = Vec::new();
                let n_links = rng.range(3, 7) as usize;
                for _ in 0..n_links {
                    let target = self.pick_link_target(i, &mut rng);
                    let same_org = self.sites[target.0 as usize].org == self.sites[i].org;
                    let decoration = if same_org
                        && self.sites[i].sets_own_uid
                        && rng.chance(self.cfg.p_static_decoration)
                    {
                        // Family interlinking with first-party UID
                        // (Sports Reference / Instagram → Play Store).
                        LinkDecoration::SiteOwnUid
                    } else if rng.chance(0.05) && !shims.is_empty() {
                        let shim = shims[rng.index(shims.len())];
                        if !self.sites[i].embedded_trackers.contains(&shim) {
                            self.sites[i].embedded_trackers.push(shim);
                        }
                        LinkDecoration::Tracker(shim)
                    } else {
                        LinkDecoration::None
                    };
                    // The l.instagram.com pattern: a decorated outbound
                    // link points AT the shim, which collects the UID as a
                    // first party before bouncing onward. Bare (benign)
                    // shims also exist — the bounce-tracking substrate.
                    let via_shim = match decoration {
                        LinkDecoration::Tracker(t) => Some(t),
                        _ if rng.chance(0.008) && !shims.is_empty() => {
                            Some(shims[rng.index(shims.len())])
                        }
                        _ => None,
                    };
                    links.push(StaticLink {
                        to: target,
                        to_path: "/".into(),
                        via_shim,
                        decoration,
                    });
                }

                // Ad slots on originator-affine pages. A slot serves one
                // advertiser's sibling cluster (same destination, varying
                // creatives/chains), occasionally polluted with a foreign
                // campaign — the residual source of FQDN divergence.
                let mut ad_slots = Vec::new();
                if campaign_count > 0 && rng.chance(self.cfg.p_ad_slot * originator_affinity) {
                    let n_slots = rng.range(1, 2) as usize;
                    for s in 0..n_slots {
                        let cluster_idx = if fingerprint_site && rng.chance(0.85) {
                            // Fingerprinting sites preferentially host
                            // campaigns of fingerprinting networks (§3.5's
                            // confound).
                            let fp_clusters: Vec<usize> = clusters
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| {
                                    c.first()
                                        .map(|cid| {
                                            let owner = self.campaigns[cid.0 as usize].owner;
                                            self.trackers[owner.0 as usize].fingerprints
                                        })
                                        .unwrap_or(false)
                                })
                                .map(|(i, _)| i)
                                .collect();
                            if fp_clusters.is_empty() {
                                rng.index(clusters.len())
                            } else {
                                fp_clusters[rng.index(fp_clusters.len())]
                            }
                        } else {
                            rng.index(clusters.len())
                        };
                        let mut campaigns = clusters[cluster_idx].clone();
                        if rng.chance(0.35) {
                            // Foreign creative in the rotation: clicking it
                            // lands somewhere else entirely.
                            campaigns.push(CampaignId(rng.index(campaign_count) as u32));
                        }
                        ad_slots.push(AdSlot {
                            slot_id: (p * 10 + s + 1) as u32,
                            campaigns,
                        });
                    }
                }

                pages.push(Page {
                    path,
                    links,
                    ad_slots,
                    element_churn: (self.cfg.element_churn * rng.range(0, 300) as f64 / 100.0)
                        .min(0.9),
                    volatile: rng.chance(self.cfg.p_volatile_page),
                });
            }
            self.sites[i].pages = pages;
        }

        // The social site's app button: a static SiteOwnUid-decorated link
        // to the app store (the Instagram → Play Store case).
        {
            let store = SiteId(5);
            let social_pages = &mut self.sites[4].pages;
            if let Some(p0) = social_pages.first_mut() {
                p0.links.insert(
                    0,
                    StaticLink {
                        to: store,
                        to_path: "/app".into(),
                        via_shim: None,
                        decoration: LinkDecoration::SiteOwnUid,
                    },
                );
            }
        }

        // ------------------------------------------------------------
        // 4b. Evasion species (DESIGN §5f). Every stream below is fresh,
        // so configurations with all species counts at zero generate
        // worlds byte-identical to pre-species ones.
        // ------------------------------------------------------------
        self.build_species(&dest_weights, &analytics);

        // ------------------------------------------------------------
        // 5. Seeders and final assembly.
        // ------------------------------------------------------------
        let seeders: Vec<SiteId> = (0..self.cfg.n_seeders.min(self.cfg.n_sites))
            .map(|i| SiteId(i as u32))
            .collect();

        let mut web = SimWeb::assemble(
            self.sites,
            self.trackers,
            self.orgs,
            self.campaigns,
            seeders,
        );
        web.rotation_zipf = self.cfg.slot_rotation_zipf;
        let mut truth = TruthLog::new();
        for (value, label) in self.truths {
            truth.note(&value, label);
        }
        web.absorb_truth_owned(truth);
        web
    }

    /// Link targets favor popular sites and same-org siblings.
    fn pick_link_target(&mut self, from: usize, rng: &mut DetRng) -> SiteId {
        let n = self.sites.len();
        // Same-org sibling with some probability (family interlinking).
        if rng.chance(0.35) {
            let org = self.sites[from].org;
            let siblings: Vec<usize> = (0..n)
                .filter(|&j| j != from && self.sites[j].org == org)
                .collect();
            if !siblings.is_empty() {
                return SiteId(siblings[rng.index(siblings.len())] as u32);
            }
        }
        // Otherwise popularity-weighted (Zipf over rank).
        let mut pick = self.popularity.sample(rng);
        if pick == from {
            pick = (pick + 1) % n;
        }
        SiteId(pick as u32)
    }

    /// Generate word-shaped noise parameters and remember their truths.
    fn gen_word_params(&mut self, rng: &mut DetRng) -> Vec<(String, String)> {
        const KEYS: &[&str] = &["utm_campaign", "topic", "cmp", "src", "cat", "share"];
        let n = rng.range(0, 3) as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            let key = (*rng.pick(KEYS)).to_string();
            let (value, truth) = match rng.weighted_index(&[0.35, 0.25, 0.1, 0.15, 0.15]) {
                0 => {
                    let n_words = rng.range(2, 4) as usize;
                    (words::delimited_phrase(rng, n_words), TokenTruth::WordLike)
                }
                1 => (words::concatenated_words(rng, 2), TokenTruth::WordLike),
                2 => (words::semi_abbreviated(rng), TokenTruth::WordLike),
                3 => (words::acronym(rng).to_string(), TokenTruth::Acronym),
                _ => {
                    let (a, b, c, d) = (
                        rng.range(10, 60),
                        rng.range(0, 9999),
                        rng.range(10, 120),
                        rng.range(0, 9999),
                    );
                    (format!("{a}.{b},-{c}.{d}"), TokenTruth::Coordinate)
                }
            };
            self.truths.push((value.clone(), truth));
            out.push((key, value));
        }
        out
    }

    /// Plant the five evasion-aware species (DESIGN §5f): their trackers,
    /// campaigns, consent banners, and the page elements that expose them
    /// to the crawlers. Runs only when a species count is non-zero.
    fn build_species(&mut self, dest_weights: &[f64], analytics: &[TrackerId]) {
        if !self.cfg.species_enabled() {
            return;
        }
        let tlds = ["com", "net", "io", "co"];
        // Running species index: keys the per-tracker placement streams
        // and slot ids so adding one species never reshuffles another.
        let mut sidx: u64 = 0;

        // Consent banners: most sites show one and this crawler persona
        // accepts, minting the first-party consent cookie the gated
        // species checks at click time.
        if self.cfg.n_consent > 0 {
            let mut rng = self.rng.fork("species-consent-banners");
            for s in self.sites.iter_mut() {
                s.consent_banner = rng.chance(0.7);
            }
        }

        // Bounce-to-remint: a redirector that drops the incoming UID and
        // re-mints from its own durable first-party identity mid-chain.
        // Its parameter name is custom, so no blocklist matches it.
        for i in 0..self.cfg.n_remint {
            let mut rng = self.rng.fork_indexed("tracker-remint", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = base.split('.').next().unwrap_or("remint").to_string();
            let org = self.new_org(format!("{name} Exchange"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: words::tracker_fqdn(&mut rng, &base),
                kind: TrackerKind::RemintBouncer,
                uid_param: format!("{}_rid", words::word(&mut rng)),
                fingerprints: false,
                uid_lifetime: SimDuration::from_days(365),
                uses_local_storage: false,
                in_disconnect: false,
                in_easylist: false,
                benign_role_share: 0.0,
                js_redirect: rng.chance(0.3),
                sync_partners: Vec::new(),
            });
            let cluster = self.species_campaigns(id, i, "remint-campaign", dest_weights);
            self.species_slots(&cluster, sidx);
            sidx += 1;
        }

        // ETag/cache respawning: an embedded tracker whose UID survives a
        // purge of its own storage via a first-party cache-validator copy.
        // Disconnect lists it — respawn, not list gaps, is its evasion.
        for i in 0..self.cfg.n_etag {
            let mut rng = self.rng.fork_indexed("tracker-etag", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = base.split('.').next().unwrap_or("cachepx").to_string();
            let org = self.new_org(format!("{name} CDN"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: words::tracker_fqdn(&mut rng, &base),
                kind: TrackerKind::EtagRespawner,
                uid_param: "click_id".into(),
                fingerprints: false,
                uid_lifetime: SimDuration::from_days(730),
                uses_local_storage: false,
                in_disconnect: true,
                in_easylist: false,
                benign_role_share: 0.0,
                js_redirect: false,
                sync_partners: Vec::new(),
            });
            self.species_links(id, sidx, dest_weights);
            sidx += 1;
        }

        // Consent-gated smuggling: a redirector network that decorates
        // only from partitions where the consent cookie exists — and is
        // absent from Disconnect/EasyList because "the user agreed".
        for i in 0..self.cfg.n_consent {
            let mut rng = self.rng.fork_indexed("tracker-consent", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = base.split('.').next().unwrap_or("cmp").to_string();
            let org = self.new_org(format!("{name} CMP"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: words::tracker_fqdn(&mut rng, &base),
                kind: TrackerKind::ConsentGated,
                uid_param: "sub_id".into(),
                fingerprints: false,
                uid_lifetime: SimDuration::from_days(365),
                uses_local_storage: false,
                in_disconnect: false,
                in_easylist: false,
                benign_role_share: 0.0,
                js_redirect: rng.chance(0.3),
                sync_partners: Vec::new(),
            });
            let cluster = self.species_campaigns(id, i, "consent-campaign", dest_weights);
            self.species_slots(&cluster, sidx);
            sidx += 1;
        }

        // SPA pushState: decorates outbound links *directly* (no shim, no
        // redirect hop), so the navigation-hop detector sees an empty
        // redirector set. localStorage SDK, well-known parameter.
        for i in 0..self.cfg.n_spa {
            let mut rng = self.rng.fork_indexed("tracker-spa", i as u64);
            let tld = *rng.pick(&tlds);
            let base = words::domain_name(&mut rng, tld);
            let name = format!("{}-sdk", base.split('.').next().unwrap_or("spa"));
            let org = self.new_org(format!("{name} Labs"));
            self.orgs[org.0 as usize].add_domain(&cc_url::registered_domain(&base));
            let id = TrackerId(self.trackers.len() as u32);
            self.trackers.push(Tracker {
                id,
                name,
                org,
                fqdn: format!("cdn.{base}"),
                kind: TrackerKind::SpaPushState,
                uid_param: "tduid".into(),
                fingerprints: false,
                uid_lifetime: SimDuration::from_days(365),
                uses_local_storage: true,
                in_disconnect: false,
                in_easylist: false,
                benign_role_share: 0.0,
                js_redirect: false,
                sync_partners: Vec::new(),
            });
            self.species_links(id, sidx, dest_weights);
            sidx += 1;
        }

        // Server-side CNAME-cloaked sync: served from a first-party-looking
        // subdomain of one host site (same registered domain, same org),
        // decorating under an innocuous custom parameter and syncing
        // server-side with an analytics partner.
        let seeder_count = self.cfg.n_seeders.min(self.sites.len()).max(1);
        for i in 0..self.cfg.n_cname {
            let mut rng = self.rng.fork_indexed("tracker-cname", i as u64);
            let host_idx = (6 + i * 7) % seeder_count;
            let host_domain = self.sites[host_idx].domain.clone();
            let host_org = self.sites[host_idx].org;
            let name = format!(
                "{}-metrics",
                host_domain.split('.').next().unwrap_or("host")
            );
            let id = TrackerId(self.trackers.len() as u32);
            let mut sync_partners = Vec::new();
            if !analytics.is_empty() {
                sync_partners.push(analytics[rng.index(analytics.len())]);
            }
            self.trackers.push(Tracker {
                id,
                name,
                org: host_org,
                fqdn: format!("metrics.{host_domain}"),
                kind: TrackerKind::CnameCloaked,
                uid_param: format!("{}_ref", words::word(&mut rng)),
                fingerprints: false,
                uid_lifetime: SimDuration::from_days(730),
                uses_local_storage: false,
                in_disconnect: false,
                in_easylist: false,
                benign_role_share: 0.0,
                js_redirect: false,
                sync_partners,
            });
            self.species_host_links(id, host_idx, sidx, dest_weights);
            sidx += 1;
        }
    }

    /// A small sibling cluster of campaigns for a chain-borne species
    /// (remint / consent-gated): one-hop chains owned by the species
    /// tracker, full span, destination embedding the owner for harvest.
    fn species_campaigns(
        &mut self,
        owner: TrackerId,
        i: usize,
        stream: &str,
        dest_weights: &[f64],
    ) -> Vec<CampaignId> {
        let n = (self.cfg.campaigns_per_network / 2).max(2);
        let mut out = Vec::new();
        for j in 0..n {
            let mut rng = self.rng.fork_indexed(stream, (i * 1_000 + j) as u64);
            let destination = SiteId(rng.weighted_index(dest_weights) as u32);
            let word_params = self.gen_word_params(&mut rng);
            let cid = CampaignId(self.campaigns.len() as u32);
            self.campaigns.push(Campaign {
                id: cid,
                owner,
                hops: vec![owner],
                destination,
                landing_path: format!("/landing/{j}"),
                span: UidSpan::Full,
                word_params,
                add_timestamp: rng.chance(0.5),
                add_session_id: rng.chance(0.1),
            });
            let dsite = &mut self.sites[destination.0 as usize];
            if !dsite.embedded_trackers.contains(&owner) {
                dsite.embedded_trackers.push(owner);
            }
            out.push(cid);
        }
        out
    }

    /// Put a species campaign cluster in an ad slot on most seeder landing
    /// pages so short crawls reliably encounter it.
    fn species_slots(&mut self, cluster: &[CampaignId], sidx: u64) {
        let mut rng = self.rng.fork_indexed("species-slots", sidx);
        let seeder_count = self.cfg.n_seeders.min(self.sites.len()).max(1);
        for si in 0..seeder_count {
            if !rng.chance(0.6) {
                continue;
            }
            if let Some(p0) = self.sites[si].pages.first_mut() {
                p0.ad_slots.push(AdSlot {
                    slot_id: 900 + sidx as u32,
                    campaigns: cluster.to_vec(),
                });
            }
        }
    }

    /// Scatter direct (shimless) decorated links for an embedded species
    /// (ETag respawn / SPA) across seeder landing pages; destinations
    /// embed the tracker so the decorated UID is harvested on arrival.
    fn species_links(&mut self, tid: TrackerId, sidx: u64, dest_weights: &[f64]) {
        let mut rng = self.rng.fork_indexed("species-links", sidx);
        let n_sites = self.sites.len();
        let seeder_count = self.cfg.n_seeders.min(n_sites).max(1);
        for si in 0..seeder_count {
            if !rng.chance(0.5) {
                continue;
            }
            let mut dest = rng.weighted_index(dest_weights);
            if dest == si {
                dest = (dest + 1) % n_sites;
            }
            if !self.sites[si].embedded_trackers.contains(&tid) {
                self.sites[si].embedded_trackers.push(tid);
            }
            let dsite = &mut self.sites[dest];
            if !dsite.embedded_trackers.contains(&tid) {
                dsite.embedded_trackers.push(tid);
            }
            if let Some(p0) = self.sites[si].pages.first_mut() {
                p0.links.push(StaticLink {
                    to: SiteId(dest as u32),
                    to_path: "/".into(),
                    via_shim: None,
                    decoration: LinkDecoration::Tracker(tid),
                });
            }
        }
    }

    /// Direct decorated links for the CNAME-cloaked species: only its one
    /// host site carries them (the tracker *is* that site's subdomain).
    fn species_host_links(
        &mut self,
        tid: TrackerId,
        host_idx: usize,
        sidx: u64,
        dest_weights: &[f64],
    ) {
        let mut rng = self.rng.fork_indexed("species-links", 10_000 + sidx);
        let n_sites = self.sites.len();
        if !self.sites[host_idx].embedded_trackers.contains(&tid) {
            self.sites[host_idx].embedded_trackers.push(tid);
        }
        for _ in 0..3 {
            let mut dest = rng.weighted_index(dest_weights);
            if dest == host_idx {
                dest = (dest + 1) % n_sites;
            }
            let dsite = &mut self.sites[dest];
            if !dsite.embedded_trackers.contains(&tid) {
                dsite.embedded_trackers.push(tid);
            }
            for page in self.sites[host_idx].pages.iter_mut() {
                page.links.push(StaticLink {
                    to: SiteId(dest as u32),
                    to_path: "/".into(),
                    via_shim: None,
                    decoration: LinkDecoration::Tracker(tid),
                });
            }
        }
    }
}

fn pick_uid_param(rng: &mut DetRng, index: usize) -> String {
    if index < UID_PARAM_NAMES.len() {
        UID_PARAM_NAMES[index].to_string()
    } else {
        format!("{}_uid", words::word(rng))
    }
}

/// UID-cookie lifetimes: the tracker *population* skews shorter than the
/// paper's finding-weighted numbers (9% under 30 days, 16% under 90) because
/// long-lived dominant networks are over-represented among findings; this
/// mix lands the finding-weighted fractions near the paper's (§3.7.1).
fn sample_uid_lifetime(rng: &mut DetRng) -> SimDuration {
    match rng.weighted_index(&[0.14, 0.12, 0.30, 0.44]) {
        0 => SimDuration::from_days(rng.range(7, 29)),
        1 => SimDuration::from_days(rng.range(30, 89)),
        2 => SimDuration::from_days(rng.range(90, 364)),
        _ => SimDuration::from_days(rng.range(365, 730)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::TrackerKind;

    #[test]
    fn generate_small_world() {
        let web = generate(&WebConfig::small());
        assert_eq!(web.sites.len(), 60);
        assert!(web.campaigns.len() > 20);
        assert_eq!(web.seeders.len(), 15);
        // Every site resolves in DNS.
        for s in &web.sites {
            assert!(web.dns.resolve(&s.www_fqdn()).is_ok(), "{}", s.www_fqdn());
        }
        for t in &web.trackers {
            assert!(web.dns.resolve(&t.fqdn).is_ok(), "{}", t.fqdn);
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&WebConfig::small());
        let b = generate(&WebConfig::small());
        assert_eq!(a.sites.len(), b.sites.len());
        for (sa, sb) in a.sites.iter().zip(&b.sites) {
            assert_eq!(sa, sb);
        }
        for (ta, tb) in a.trackers.iter().zip(&b.trackers) {
            assert_eq!(ta, tb);
        }
        for (ca, cb) in a.campaigns.iter().zip(&b.campaigns) {
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn campaigns_reference_valid_entities() {
        let web = generate(&WebConfig::small());
        for c in &web.campaigns {
            assert!((c.destination.0 as usize) < web.sites.len());
            assert!((c.owner.0 as usize) < web.trackers.len());
            for h in c.hops() {
                assert!((h.0 as usize) < web.trackers.len());
                assert!(web.tracker(*h).is_redirector());
            }
            assert!(c.span_consistent() || c.span == UidSpan::None, "{c:?}");
        }
    }

    #[test]
    fn slots_reference_valid_campaigns() {
        let web = generate(&WebConfig::small());
        for s in &web.sites {
            for p in &s.pages {
                for slot in &p.ad_slots {
                    for cid in &slot.campaigns {
                        assert!(web.campaign(*cid).is_some());
                    }
                }
                for l in &p.links {
                    assert!((l.to.0 as usize) < web.sites.len());
                }
            }
        }
    }

    #[test]
    fn tracker_kind_mix_present() {
        let web = generate(&WebConfig::small());
        let count = |k: TrackerKind| web.trackers.iter().filter(|t| t.kind == k).count();
        assert!(count(TrackerKind::DedicatedSmuggler) >= 8);
        assert!(count(TrackerKind::MultiPurposeSmuggler) >= 8);
        assert!(count(TrackerKind::BounceTracker) >= 3);
        assert!(count(TrackerKind::Analytics) >= 5);
    }

    #[test]
    fn disconnect_gap_exists() {
        let web = generate(&WebConfig::default());
        let dedicated: Vec<_> = web
            .trackers
            .iter()
            .filter(|t| t.kind == TrackerKind::DedicatedSmuggler)
            .collect();
        let missing = dedicated.iter().filter(|t| !t.in_disconnect).count();
        let frac = missing as f64 / dedicated.len() as f64;
        assert!(frac > 0.15 && frac < 0.75, "missing fraction {frac}");
    }

    #[test]
    fn span_mix_includes_partials_and_bounce() {
        let web = generate(&WebConfig::default());
        let spans: std::collections::HashSet<_> = web.campaigns.iter().map(|c| c.span).collect();
        assert!(spans.contains(&UidSpan::Full));
        assert!(spans.contains(&UidSpan::None));
        assert!(spans.contains(&UidSpan::OriginatorToDestination));
        assert!(spans.contains(&UidSpan::RedirectorToDestination));
    }

    #[test]
    fn lifetime_mix_has_short_lifetimes() {
        let mut rng = DetRng::new(1);
        let mut under30 = 0;
        let mut under90 = 0;
        let n = 10_000;
        for _ in 0..n {
            let d = sample_uid_lifetime(&mut rng).as_days();
            if d < 30 {
                under30 += 1;
            }
            if d < 90 {
                under90 += 1;
            }
        }
        let p30 = under30 as f64 / n as f64;
        let p90 = under90 as f64 / n as f64;
        assert!((p30 - 0.14).abs() < 0.02, "p30 {p30}");
        assert!((p90 - 0.26).abs() < 0.02, "p90 {p90}");
    }

    #[test]
    fn family_sites_interlink_with_decoration() {
        let web = generate(&WebConfig::small());
        // The sports family (sites 0..4) should have at least one
        // SiteOwnUid-decorated link to a sibling.
        let mut found = false;
        for s in web.sites.iter().take(4) {
            for p in &s.pages {
                for l in &p.links {
                    if matches!(l.decoration, LinkDecoration::SiteOwnUid)
                        && web.site(l.to).org == s.org
                    {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "no decorated family interlink generated");
    }

    #[test]
    fn species_phase_appends_without_disturbing_the_base_world() {
        let base = generate(&WebConfig::small());
        let with = generate(&WebConfig::small().all_species());
        // Base entities are a strict prefix: species generation only
        // appends trackers/campaigns on fresh streams.
        assert_eq!(base.trackers.len() + 10, with.trackers.len());
        for (a, b) in base.trackers.iter().zip(&with.trackers) {
            assert_eq!(a, b);
        }
        for (a, b) in base.campaigns.iter().zip(&with.campaigns) {
            assert_eq!(a, b);
        }
        assert!(with.campaigns.len() > base.campaigns.len());
        assert_eq!(base.sites.len(), with.sites.len());
        for kind in TrackerKind::SPECIES {
            assert_eq!(
                with.trackers.iter().filter(|t| t.kind == kind).count(),
                2,
                "{kind:?}"
            );
        }
        assert!(with.sites.iter().any(|s| s.consent_banner));
        assert!(base.sites.iter().all(|s| !s.consent_banner));
        // DNS covers the species endpoints too.
        for t in &with.trackers {
            assert!(with.dns.resolve(&t.fqdn).is_ok(), "{}", t.fqdn);
        }
    }

    #[test]
    fn cname_species_lives_on_its_host_sites_subdomain() {
        let web = generate(&WebConfig::small().all_species());
        let cloaked: Vec<_> = web
            .trackers
            .iter()
            .filter(|t| t.kind == TrackerKind::CnameCloaked)
            .collect();
        assert!(!cloaked.is_empty());
        for t in cloaked {
            assert!(t.fqdn.starts_with("metrics."), "{}", t.fqdn);
            let rd = cc_url::registered_domain(&t.fqdn);
            let host = web
                .sites
                .iter()
                .find(|s| s.domain == rd)
                .expect("cloaked tracker has a host site");
            assert_eq!(host.org, t.org, "cloak shares the host's org");
            // The host carries direct (shimless) decorated links.
            assert!(host.pages.iter().any(|p| p.links.iter().any(|l| {
                l.via_shim.is_none() && l.decoration == LinkDecoration::Tracker(t.id)
            })));
        }
    }

    #[test]
    fn social_app_button_present() {
        let web = generate(&WebConfig::small());
        let social = web.site(SiteId(4));
        let first = &social.pages[0].links[0];
        assert_eq!(first.to, SiteId(5));
        assert!(matches!(first.decoration, LinkDecoration::SiteOwnUid));
    }
}
