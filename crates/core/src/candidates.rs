//! Detecting *potential* UID smuggling (§3.6).
//!
//! "We then discard all of the tokens that were not passed across at least
//! one first-party context as a query parameter." A token qualifies when it
//! appears as a **navigation query parameter** in some first-party context
//! and is also associated with at least one *different* registered domain
//! in the same step — an earlier or later hop, the originator's storage or
//! page URL, or the destination's storage. Tokens seen on two sites without
//! a query-parameter transfer are dropped as coincidences ("location or
//! language specifiers"), exactly as the paper found.

use std::collections::{BTreeMap, BTreeSet};

use cc_crawler::CrawlerName;
use serde::{Deserialize, Serialize};

use crate::observe::{PathView, TokenObs, TokenSource};

/// One candidate case: a token (by value) that crossed a first-party
/// boundary via a navigation query parameter, as seen by one crawler in
/// one step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// Walk id.
    pub walk: u32,
    /// Step index.
    pub step: usize,
    /// Observing crawler.
    pub crawler: CrawlerName,
    /// Name the token traveled under (innermost pair name).
    pub name: String,
    /// The token value.
    pub value: String,
    /// Registered domains the token was associated with.
    pub contexts: BTreeSet<String>,
    /// First hop index where it appeared as a navigation query parameter.
    pub first_hop: usize,
    /// Last hop index where it appeared as a navigation query parameter.
    pub last_hop: usize,
    /// Whether the token was present at the originator (storage or the
    /// originator page's own URL).
    pub at_origin: bool,
    /// Whether the token was present at the destination (final hop query
    /// or destination storage).
    pub at_destination: bool,
    /// Cookie lifetime (days) if the token was also stored persistently.
    pub cookie_lifetime_days: Option<u64>,
}

/// Find candidates among one (walk, step, crawler)'s observations.
///
/// `path` must be the same crawler's navigation path for the step.
pub fn find_candidates(tokens: &[TokenObs], path: &PathView) -> Vec<Candidate> {
    // Group all observations by token value.
    let mut by_value: BTreeMap<&str, Vec<&TokenObs>> = BTreeMap::new();
    for t in tokens {
        by_value.entry(t.value.as_str()).or_default().push(t);
    }

    let n_hops = path.hops.len();
    let dest_domain = path.destination();
    let mut out = Vec::new();

    for (value, obs) in by_value {
        // Must appear in a navigation query parameter at least once.
        let nav_hits: Vec<usize> = obs
            .iter()
            .filter_map(|t| match t.source {
                TokenSource::NavQuery { hop } => Some(hop),
                _ => None,
            })
            .collect();
        if nav_hits.is_empty() {
            continue;
        }

        // Contexts the token is associated with. Beacons never enter:
        // `observe` emits no beacon tokens, since a beacon leak is a
        // consequence, not a transfer mechanism.
        let contexts: BTreeSet<String> = obs.iter().map(|t| t.context.clone()).collect();
        if contexts.len() < 2 {
            continue;
        }

        let first_hop = *nav_hits.iter().min().expect("non-empty");
        let last_hop = *nav_hits.iter().max().expect("non-empty");
        let at_origin = obs.iter().any(|t| {
            matches!(
                t.source,
                TokenSource::OriginCookie | TokenSource::OriginLocal | TokenSource::OriginPageQuery
            )
        });
        let at_destination = obs
            .iter()
            .any(|t| matches!(t.source, TokenSource::DestCookie | TokenSource::DestLocal))
            || (n_hops > 0 && last_hop == n_hops - 1)
            || dest_domain
                .as_ref()
                .map(|d| {
                    obs.iter()
                        .any(|t| t.source.is_nav_query() && &t.context == d)
                })
                .unwrap_or(false);

        // The name the token traveled under in navigation (prefer the nav
        // observation's name over storage names).
        let name = obs
            .iter()
            .find(|t| t.source.is_nav_query())
            .map(|t| t.name.clone())
            .expect("nav hit exists");
        let cookie_lifetime_days = obs.iter().find_map(|t| t.cookie_lifetime_days);

        out.push(Candidate {
            walk: path.walk,
            step: path.step,
            crawler: path.crawler,
            name,
            value: value.to_string(),
            contexts,
            first_hop,
            last_hop,
            at_origin,
            at_destination,
            cookie_lifetime_days,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_url::Url;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn path() -> PathView {
        PathView {
            walk: 0,
            step: 0,
            crawler: CrawlerName::Safari1,
            origin: url("https://www.news.com/"),
            hops: vec![
                url("https://r.trk.net/click?gclid=u1"),
                url("https://www.shop.com/?gclid=u1"),
            ],
        }
    }

    fn obs(name: &str, value: &str, source: TokenSource, context: &str) -> TokenObs {
        TokenObs {
            walk: 0,
            step: 0,
            crawler: CrawlerName::Safari1,
            name: name.into(),
            value: value.into(),
            source,
            context: context.into(),
            cookie_lifetime_days: None,
        }
    }

    #[test]
    fn full_transfer_detected() {
        let tokens = vec![
            obs(
                "_t_uid",
                "uidvalue12345678",
                TokenSource::OriginCookie,
                "news.com",
            ),
            obs(
                "gclid",
                "uidvalue12345678",
                TokenSource::NavQuery { hop: 0 },
                "trk.net",
            ),
            obs(
                "gclid",
                "uidvalue12345678",
                TokenSource::NavQuery { hop: 1 },
                "shop.com",
            ),
            obs(
                "gclid",
                "uidvalue12345678",
                TokenSource::DestCookie,
                "shop.com",
            ),
        ];
        let c = find_candidates(&tokens, &path());
        assert_eq!(c.len(), 1);
        let c = &c[0];
        assert_eq!(c.name, "gclid");
        assert!(c.at_origin);
        assert!(c.at_destination);
        assert_eq!((c.first_hop, c.last_hop), (0, 1));
        assert_eq!(c.contexts.len(), 3);
    }

    #[test]
    fn no_nav_query_no_candidate() {
        // The paper's "location or language specifiers" case: same value on
        // both sites but never passed as a query parameter.
        let tokens = vec![
            obs(
                "lang",
                "en-US-variant",
                TokenSource::OriginCookie,
                "news.com",
            ),
            obs("lang", "en-US-variant", TokenSource::DestCookie, "shop.com"),
        ];
        assert!(find_candidates(&tokens, &path()).is_empty());
    }

    #[test]
    fn single_context_no_candidate() {
        // Token appears only in the destination's own URL: one context.
        let tokens = vec![obs(
            "q",
            "searchterm123",
            TokenSource::NavQuery { hop: 1 },
            "shop.com",
        )];
        assert!(find_candidates(&tokens, &path()).is_empty());
    }

    #[test]
    fn partial_transfer_origin_to_redirector() {
        // UID decorated at the originator, stored by the redirector, never
        // forwarded (O→R of Figure 8).
        let tokens = vec![
            obs(
                "_t_uid",
                "partial_uid_0001",
                TokenSource::OriginCookie,
                "news.com",
            ),
            obs(
                "gclid",
                "partial_uid_0001",
                TokenSource::NavQuery { hop: 0 },
                "trk.net",
            ),
        ];
        let c = find_candidates(&tokens, &path());
        assert_eq!(c.len(), 1);
        assert!(c[0].at_origin);
        assert!(!c[0].at_destination);
    }

    #[test]
    fn redirector_injected_uid() {
        // Injected by the redirector at hop 1, reaches the destination.
        let tokens = vec![
            obs(
                "spx_id",
                "injected_uid_77",
                TokenSource::NavQuery { hop: 1 },
                "shop.com",
            ),
            obs(
                "_spx_rcv",
                "injected_uid_77",
                TokenSource::DestCookie,
                "shop.com",
            ),
            // The redirector knows it from its own first-party cookie, but
            // that cookie lives in the redirector's partition, invisible
            // here — the hop-1 query + destination storage suffice? No:
            // both contexts are shop.com. Add the hop-0 appearance the
            // onward URL got when hop 0 302'd (it carries hop-1's URL
            // params only from hop 1 on, so simulate a 3-hop case).
            obs(
                "spx_id",
                "injected_uid_77",
                TokenSource::NavQuery { hop: 0 },
                "trk.net",
            ),
        ];
        let c = find_candidates(&tokens, &path());
        assert_eq!(c.len(), 1);
        assert!(!c[0].at_origin);
        assert!(c[0].at_destination);
    }

    #[test]
    fn lifetime_carried_from_cookie_observation() {
        let mut stored = obs(
            "_t_uid",
            "uid_with_life_99",
            TokenSource::OriginCookie,
            "news.com",
        );
        stored.cookie_lifetime_days = Some(42);
        let tokens = vec![
            stored,
            obs(
                "gclid",
                "uid_with_life_99",
                TokenSource::NavQuery { hop: 0 },
                "trk.net",
            ),
        ];
        let c = find_candidates(&tokens, &path());
        assert_eq!(c[0].cookie_lifetime_days, Some(42));
    }
}
