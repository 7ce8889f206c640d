//! Cached vs uncached render identity.
//!
//! The render-skeleton cache in `SimWeb::load_page` memoizes the
//! deterministic part of a page render per (site, page). The contract is
//! that caching is *invisible*: a cached load must produce byte-identical
//! pages, script effects (storage writes, beacons), and RNG consumption
//! compared to rebuilding the skeleton from scratch. This suite drives two
//! identically-generated worlds — one with the cache on, one off — through
//! 1,000 randomized (site, path, profile-seed) draws and demands identity
//! at every step.

use std::collections::HashMap;

use cc_net::SimTime;
use cc_url::Url;
use cc_util::DetRng;
use cc_web::{generate, ScriptHost, SimWeb, StorageKind, TokenTruth, TruthLog, WebConfig};

/// A minimal deterministic ScriptHost that records every script effect.
struct RecordingHost {
    url: Url,
    storage: HashMap<String, String>,
    rng: DetRng,
    beacons: Vec<Url>,
    writes: Vec<(String, String)>,
    fp: u64,
    truth: TruthLog,
}

impl RecordingHost {
    fn new(url: Url, seed: u64) -> Self {
        RecordingHost {
            url,
            storage: HashMap::new(),
            rng: DetRng::new(seed),
            beacons: Vec::new(),
            writes: Vec::new(),
            fp: 0xC0FFEE ^ seed,
            truth: TruthLog::new(),
        }
    }
}

impl ScriptHost for RecordingHost {
    fn page_url(&self) -> &Url {
        &self.url
    }
    fn storage_get(&self, key: &str) -> Option<String> {
        self.storage.get(key).cloned()
    }
    fn storage_set(&mut self, key: &str, value: &str, _kind: StorageKind) {
        self.writes.push((key.to_string(), value.to_string()));
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
        SimTime(1_700_000)
    }
    fn note_truth(&mut self, value: &str, truth: TokenTruth) {
        self.truth.note(value, truth);
    }
}

fn world() -> SimWeb {
    generate(&WebConfig {
        seed: 0xCAC4E,
        n_sites: 120,
        n_seeders: 30,
        ..WebConfig::default()
    })
}

#[test]
fn cached_and_uncached_loads_are_identical_over_1k_random_draws() {
    // Two independently generated but identically seeded worlds, so the
    // uncached one's lazily-built state can never leak into the cached one.
    let cached = world();
    let uncached = world();
    uncached.set_render_cache(false);

    let mut draw_rng = DetRng::new(0xD4A75);
    for draw in 0..1_000u64 {
        // Random (site, path, profile-seed) draw. Revisits are the point:
        // later draws of the same page hit the warm cache on one side and a
        // fresh rebuild on the other.
        let site = &cached.sites[draw_rng.index(cached.sites.len())];
        let page = &site.pages[draw_rng.index(site.pages.len())];
        let url = Url::parse(&format!("https://{}{}", site.www_fqdn(), page.path))
            .expect("generated page URL parses");
        let profile_seed = draw_rng.next();

        let mut host_a = RecordingHost::new(url.clone(), profile_seed);
        let mut host_b = RecordingHost::new(url.clone(), profile_seed);
        let page_a = cached.load_page(&url, &mut host_a).expect("cached load");
        let page_b = uncached
            .load_page(&url, &mut host_b)
            .expect("uncached load");

        assert_eq!(
            page_a, page_b,
            "draw {draw}: cached load of {url} diverged from uncached"
        );
        assert_eq!(
            host_a.writes, host_b.writes,
            "draw {draw}: storage writes diverged on {url}"
        );
        assert_eq!(
            host_a.beacons, host_b.beacons,
            "draw {draw}: beacons diverged on {url}"
        );
        assert_eq!(
            host_a.truth, host_b.truth,
            "draw {draw}: truth mints diverged on {url}"
        );
        // The cache must not change how much per-load randomness scripts
        // consume, or every downstream sample in a walk would shift.
        assert_eq!(
            host_a.rng.next(),
            host_b.rng.next(),
            "draw {draw}: RNG consumption diverged on {url}"
        );
    }
}

#[test]
fn toggling_the_cache_mid_run_does_not_change_loads() {
    let web = world();
    let url = web.seeder_urls()[0].clone();

    let mut warm = RecordingHost::new(url.clone(), 7);
    let warm_page = web.load_page(&url, &mut warm).expect("warm load");

    web.set_render_cache(false);
    let mut cold = RecordingHost::new(url.clone(), 7);
    let cold_page = web.load_page(&url, &mut cold).expect("cold load");
    web.set_render_cache(true);
    let mut back = RecordingHost::new(url.clone(), 7);
    let back_page = web.load_page(&url, &mut back).expect("re-warmed load");

    assert_eq!(warm_page, cold_page);
    assert_eq!(warm_page, back_page);
    assert_eq!(warm.beacons, cold.beacons);
    assert_eq!(warm.beacons, back.beacons);
}
