//! Flattening crawl records into token observations.
//!
//! Every value a candidate can be built from — cookies and localStorage
//! on the originator and destination pages, and query parameters of the
//! originator page and of every navigation hop — is run through the
//! recursive extractor and tagged with the first-party context (registered
//! domain) it was observed in. The later stages reason entirely over these
//! flat observations.
//!
//! Beacon-request parameters are not extracted here. The study counts a
//! token only when it crosses first-party contexts as a navigation query
//! parameter (§3.6); a beacon is a leak to a third party, not a transfer,
//! so no stage of the pipeline reads a beacon token. The report reads
//! beacons itself (Figure 6 and cookie sync, in cc-analysis).

use cc_crawler::{CrawlObservation, CrawlerName};
use cc_url::Url;
use serde::{Deserialize, Serialize};

use crate::extract::extract_tokens;

/// Where a token was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenSource {
    /// First-party cookie on the originator page.
    OriginCookie,
    /// localStorage on the originator page.
    OriginLocal,
    /// Query parameter of the originator page's own URL.
    OriginPageQuery,
    /// Query parameter of a navigation hop (index into the hop list).
    NavQuery {
        /// Hop index (0 = the clicked URL).
        hop: usize,
    },
    /// First-party cookie on the destination page.
    DestCookie,
    /// localStorage on the destination page.
    DestLocal,
}

impl TokenSource {
    /// Whether this source is a navigation query parameter — the only
    /// transfer mechanism the study counts (§3.6, §6).
    pub fn is_nav_query(&self) -> bool {
        matches!(self, TokenSource::NavQuery { .. })
    }
}

/// One observation of one token by one crawler during one step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenObs {
    /// Walk the observation belongs to.
    pub walk: u32,
    /// Step within the walk.
    pub step: usize,
    /// Observing crawler.
    pub crawler: CrawlerName,
    /// The name of the (innermost) name-value pair.
    pub name: String,
    /// The token value.
    pub value: String,
    /// Where it was seen.
    pub source: TokenSource,
    /// Registered domain of the first-party context it was seen in.
    pub context: String,
    /// Lifetime in days if the token came from a persistent cookie.
    pub cookie_lifetime_days: Option<u64>,
}

/// A step's navigation path as one crawler saw it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathView {
    /// Walk id.
    pub walk: u32,
    /// Step index.
    pub step: usize,
    /// Crawler.
    pub crawler: CrawlerName,
    /// Originator page URL.
    pub origin: Url,
    /// All navigation hop URLs (clicked URL … final destination).
    pub hops: Vec<Url>,
}

impl PathView {
    /// Registered-domain path: originator, redirectors, destination —
    /// the "domain path" unit of §5.
    pub fn domain_path(&self) -> Vec<String> {
        let mut path = vec![self.origin.registered_domain()];
        for hop in &self.hops {
            let d = hop.registered_domain();
            if path.last() != Some(&d) {
                path.push(d);
            }
        }
        path
    }

    /// The "URL path" unit of §5: host+path of origin and every hop.
    pub fn url_path(&self) -> Vec<String> {
        let mut path = vec![self.origin.host_and_path()];
        path.extend(self.hops.iter().map(|h| h.host_and_path()));
        path
    }

    /// Redirector registered domains (every hop except the final one,
    /// deduplicated against origin/destination).
    pub fn redirectors(&self) -> Vec<String> {
        if self.hops.is_empty() {
            return Vec::new();
        }
        let dest = self.hops[self.hops.len() - 1].registered_domain();
        let origin = self.origin.registered_domain();
        self.hops[..self.hops.len() - 1]
            .iter()
            .map(|h| h.registered_domain())
            .filter(|d| *d != dest && *d != origin)
            .collect()
    }

    /// Destination registered domain.
    pub fn destination(&self) -> Option<String> {
        self.hops.last().map(|h| h.registered_domain())
    }
}

/// Extract every token observation and path view from one crawl
/// observation.
pub fn observe(
    walk: u32,
    step: usize,
    obs: &CrawlObservation,
) -> (Vec<TokenObs>, Option<PathView>) {
    let mut out = Vec::new();
    let origin_domain = obs.page_url.registered_domain();

    // Originator page: cookies, localStorage, page URL query.
    for (name, value, lifetime) in &obs.page_snapshot.cookies {
        emit(
            &mut out,
            walk,
            step,
            obs.crawler,
            name,
            value,
            TokenSource::OriginCookie,
            &origin_domain,
            *lifetime,
        );
    }
    for (name, value) in &obs.page_snapshot.local {
        emit(
            &mut out,
            walk,
            step,
            obs.crawler,
            name,
            value,
            TokenSource::OriginLocal,
            &origin_domain,
            None,
        );
    }
    for (name, value) in obs.page_url.query() {
        emit(
            &mut out,
            walk,
            step,
            obs.crawler,
            name,
            value,
            TokenSource::OriginPageQuery,
            &origin_domain,
            None,
        );
    }

    // Navigation hops.
    for (hop, url) in obs.nav_hops.iter().enumerate() {
        let ctx = url.registered_domain();
        for (name, value) in url.query() {
            emit(
                &mut out,
                walk,
                step,
                obs.crawler,
                name,
                value,
                TokenSource::NavQuery { hop },
                &ctx,
                None,
            );
        }
    }

    // Destination storage.
    if let (Some(final_url), Some(snap)) = (&obs.final_url, &obs.dest_snapshot) {
        let dest_domain = final_url.registered_domain();
        for (name, value, lifetime) in &snap.cookies {
            emit(
                &mut out,
                walk,
                step,
                obs.crawler,
                name,
                value,
                TokenSource::DestCookie,
                &dest_domain,
                *lifetime,
            );
        }
        for (name, value) in &snap.local {
            emit(
                &mut out,
                walk,
                step,
                obs.crawler,
                name,
                value,
                TokenSource::DestLocal,
                &dest_domain,
                None,
            );
        }
    }

    let path = (!obs.nav_hops.is_empty()).then(|| PathView {
        walk,
        step,
        crawler: obs.crawler,
        origin: obs.page_url.clone(),
        hops: obs.nav_hops.clone(),
    });
    (out, path)
}

#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut Vec<TokenObs>,
    walk: u32,
    step: usize,
    crawler: CrawlerName,
    name: &str,
    value: &str,
    source: TokenSource,
    context: &str,
    cookie_lifetime_days: Option<u64>,
) {
    for e in extract_tokens(name, value) {
        out.push(TokenObs {
            walk,
            step,
            crawler,
            name: e.name,
            value: e.value,
            source,
            context: context.to_string(),
            cookie_lifetime_days,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_browser::StorageSnapshot;
    use cc_crawler::ClickedElement;
    use cc_web::ElementKind;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn sample_obs() -> CrawlObservation {
        CrawlObservation {
            crawler: CrawlerName::Safari1,
            page_url: url("https://www.news.com/?edition=en-US"),
            page_snapshot: StorageSnapshot {
                cookies: vec![(
                    "_tracker_uid".into(),
                    "aabbccddeeff0011".into(),
                    Some(365),
                )],
                local: vec![("_ls_uid".into(), "local-uid-00112233".into())],
            },
            clicked: Some(ClickedElement {
                kind: ElementKind::Iframe,
                xpath: "/x".into(),
            }),
            nav_hops: vec![
                url("https://r.trk.net/click?gclid=aabbccddeeff0011&cc_dest=https%3A%2F%2Fwww.shop.com%2F"),
                url("https://www.shop.com/?gclid=aabbccddeeff0011"),
            ],
            final_url: Some(url("https://www.shop.com/?gclid=aabbccddeeff0011")),
            dest_snapshot: Some(StorageSnapshot {
                cookies: vec![("_trk_rcv".into(), "gclid=aabbccddeeff0011".into(), Some(365))],
                local: vec![],
            }),
            beacons: vec![(
                "shop.com".into(),
                url("https://px.metrics.io/b?cid=beacon-uid-1&u=https%3A%2F%2Fwww.shop.com%2F%3Fgclid%3Daabbccddeeff0011"),
            )],
        }
    }

    #[test]
    fn observe_emits_all_sources() {
        let (tokens, path) = observe(3, 1, &sample_obs());
        let sources: std::collections::HashSet<_> = tokens.iter().map(|t| t.source).collect();
        assert!(sources.contains(&TokenSource::OriginCookie));
        assert!(sources.contains(&TokenSource::OriginLocal));
        assert!(sources.contains(&TokenSource::OriginPageQuery));
        assert!(sources.contains(&TokenSource::NavQuery { hop: 0 }));
        assert!(sources.contains(&TokenSource::NavQuery { hop: 1 }));
        assert!(sources.contains(&TokenSource::DestCookie));
        assert!(path.is_some());
    }

    #[test]
    fn beacon_parameters_yield_no_tokens() {
        let obs = sample_obs();
        let (with_beacons, _) = observe(0, 0, &obs);
        assert!(with_beacons.iter().all(|t| t.value != "beacon-uid-1"));
        let mut without = obs;
        without.beacons.clear();
        assert_eq!(observe(0, 0, &without).0, with_beacons);
    }

    #[test]
    fn uid_token_appears_in_three_contexts() {
        let (tokens, _) = observe(0, 0, &sample_obs());
        let contexts: std::collections::HashSet<_> = tokens
            .iter()
            .filter(|t| t.value == "aabbccddeeff0011")
            .map(|t| t.context.as_str())
            .collect();
        // Origin cookie (news.com), both hops (trk.net, shop.com) and the
        // dest cookie blob (shop.com).
        assert!(contexts.contains("news.com"));
        assert!(contexts.contains("trk.net"));
        assert!(contexts.contains("shop.com"));
    }

    #[test]
    fn nested_cookie_blob_is_unwrapped() {
        let (tokens, _) = observe(0, 0, &sample_obs());
        let from_blob: Vec<_> = tokens
            .iter()
            .filter(|t| t.source == TokenSource::DestCookie && t.value == "aabbccddeeff0011")
            .collect();
        assert_eq!(from_blob.len(), 1);
        assert_eq!(from_blob[0].name, "gclid");
    }

    #[test]
    fn cookie_lifetime_propagates() {
        let (tokens, _) = observe(0, 0, &sample_obs());
        let t = tokens
            .iter()
            .find(|t| t.source == TokenSource::OriginCookie)
            .unwrap();
        assert_eq!(t.cookie_lifetime_days, Some(365));
    }

    #[test]
    fn path_views() {
        let (_, path) = observe(0, 2, &sample_obs());
        let p = path.unwrap();
        assert_eq!(p.domain_path(), vec!["news.com", "trk.net", "shop.com"]);
        assert_eq!(p.redirectors(), vec!["trk.net"]);
        assert_eq!(p.destination(), Some("shop.com".into()));
        assert_eq!(
            p.url_path(),
            vec!["www.news.com/", "r.trk.net/click", "www.shop.com/"]
        );
    }

    #[test]
    fn no_click_no_path() {
        let mut obs = sample_obs();
        obs.nav_hops.clear();
        obs.final_url = None;
        obs.dest_snapshot = None;
        let (tokens, path) = observe(0, 0, &obs);
        assert!(path.is_none());
        assert!(tokens.iter().all(|t| !t.source.is_nav_query()));
    }

    #[test]
    fn consecutive_same_domain_hops_collapse_in_domain_path() {
        let mut obs = sample_obs();
        obs.nav_hops = vec![
            url("https://a.trk.net/click?cc_dest=x"),
            url("https://b.trk.net/r"),
            url("https://www.shop.com/"),
        ];
        let (_, path) = observe(0, 0, &obs);
        assert_eq!(
            path.unwrap().domain_path(),
            vec!["news.com", "trk.net", "shop.com"]
        );
    }
}
