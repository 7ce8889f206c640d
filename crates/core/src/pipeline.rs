//! The end-to-end CrumbCruncher pipeline.
//!
//! Crawl dataset → token observations → candidates → classification →
//! [`UidFinding`]s, the unit the §5 analyses consume.
//!
//! The first stage is per walk ([`extract_walk`]); classification and
//! assembly look across walks ([`classify_walks`]). [`run_pipeline`] is
//! the two in sequence.

use std::borrow::Cow;
use std::collections::BTreeMap;

use cc_crawler::{CrawlDataset, CrawlerName, WalkRecord};
use serde::{Deserialize, Serialize};

use crate::candidates::{find_candidates, Candidate};
use crate::classify::{classify, ClassifyStats, ComboClass, TokenGroup, Verdict};
use crate::observe::{observe, PathView, TokenObs};

/// One confirmed case of UID smuggling.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UidFinding {
    /// Walk id.
    pub walk: u32,
    /// Step index.
    pub step: usize,
    /// The query-parameter name the UID traveled under.
    pub name: String,
    /// The UID value(s) observed, per crawler.
    pub values: BTreeMap<CrawlerName, std::collections::BTreeSet<String>>,
    /// Table-1 crawler-combination class.
    pub combo: ComboClass,
    /// Originator registered domain.
    pub origin: String,
    /// Destination registered domain.
    pub destination: Option<String>,
    /// Redirector registered domains in path order.
    pub redirectors: Vec<String>,
    /// Full domain path (origin, redirectors, destination).
    pub domain_path: Vec<String>,
    /// Full URL path (host+path of origin and every hop).
    pub url_path: Vec<String>,
    /// Whether the UID was present at the originator.
    pub at_origin: bool,
    /// Whether the UID reached the destination.
    pub at_destination: bool,
    /// Lifetime (days) of the cookie holding the UID, when stored.
    pub cookie_lifetime_days: Option<u64>,
}

impl UidFinding {
    /// The Figure-8 path portion this UID traversed.
    pub fn portion(&self) -> PathPortion {
        let has_redirectors = !self.redirectors.is_empty();
        match (self.at_origin, self.at_destination, has_redirectors) {
            (true, true, true) => PathPortion::OriginatorToRedirectorToDestination,
            (true, true, false) => PathPortion::OriginatorToDestination,
            (false, true, _) => PathPortion::RedirectorToDestination,
            (true, false, _) => PathPortion::OriginatorToRedirector,
            (false, false, _) => PathPortion::RedirectorToRedirector,
        }
    }
}

/// The five path portions of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PathPortion {
    /// Originator → redirector(s) → destination.
    OriginatorToRedirectorToDestination,
    /// Originator → destination (no redirectors).
    OriginatorToDestination,
    /// Redirector → destination.
    RedirectorToDestination,
    /// Originator → redirector.
    OriginatorToRedirector,
    /// Redirector → redirector.
    RedirectorToRedirector,
}

impl PathPortion {
    /// Figure-8 axis label.
    pub fn label(&self) -> &'static str {
        match self {
            PathPortion::OriginatorToRedirectorToDestination => {
                "Originator to Redirector to Destination"
            }
            PathPortion::OriginatorToDestination => "Originator to Destination",
            PathPortion::RedirectorToDestination => "Redirector to Destination",
            PathPortion::OriginatorToRedirector => "Originator to Redirector",
            PathPortion::RedirectorToRedirector => "Redirector to Redirector",
        }
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineOutput {
    /// Confirmed UID-smuggling findings.
    pub findings: Vec<UidFinding>,
    /// Every classified token group (including discards), for audit.
    pub groups: Vec<TokenGroup>,
    /// Classification statistics.
    pub stats: ClassifyStats,
    /// Every navigation path observed (smuggling or not) — the
    /// denominators of §5.
    pub paths: Vec<PathView>,
    /// All candidates that entered classification.
    pub candidates: Vec<Candidate>,
}

/// One walk's share of the pipeline's first stage: the candidates, the
/// navigation-query token observations and the navigation paths its
/// steps yield. A pure function of the walk, so a caller that sees the
/// same walk again (cc-serve's epoch folds) can keep it instead of
/// re-extracting.
#[derive(Debug, Clone, Default)]
pub struct WalkExtract {
    /// Potential UID smuggling found in the walk.
    pub candidates: Vec<Candidate>,
    /// Token observations from navigation query parameters.
    pub nav_obs: Vec<TokenObs>,
    /// Every navigation path observed in the walk.
    pub paths: Vec<PathView>,
}

impl WalkExtract {
    /// Append `walk`'s extraction.
    fn add_walk(&mut self, walk: &WalkRecord) {
        for step in &walk.steps {
            for obs in &step.observations {
                let (tokens, path) = observe(walk.walk_id, step.index, obs);
                if let Some(path) = path {
                    self.candidates.extend(find_candidates(&tokens, &path));
                    self.paths.push(path);
                }
                self.nav_obs
                    .extend(tokens.into_iter().filter(|t| t.source.is_nav_query()));
            }
        }
    }

    /// Append another extract: moved when owned, copied when borrowed.
    fn append(&mut self, other: Cow<'_, WalkExtract>) {
        match other {
            Cow::Owned(other)
                if self.candidates.is_empty()
                    && self.nav_obs.is_empty()
                    && self.paths.is_empty() =>
            {
                *self = other;
            }
            Cow::Owned(other) => {
                self.candidates.extend(other.candidates);
                self.nav_obs.extend(other.nav_obs);
                self.paths.extend(other.paths);
            }
            Cow::Borrowed(other) => {
                self.candidates.extend_from_slice(&other.candidates);
                self.nav_obs.extend_from_slice(&other.nav_obs);
                self.paths.extend_from_slice(&other.paths);
            }
        }
    }
}

/// The per-walk stage: extract one walk's tokens, candidates and paths.
pub fn extract_walk(walk: &WalkRecord) -> WalkExtract {
    let mut out = WalkExtract::default();
    out.add_walk(walk);
    out
}

/// Run the full pipeline over a crawl dataset: the per-walk extraction
/// of every walk, then [`classify_walks`].
pub fn run_pipeline(dataset: &CrawlDataset) -> PipelineOutput {
    let _pipeline_span = cc_telemetry::span("pipeline");
    let mut all = WalkExtract::default();
    {
        let _extract_span = cc_telemetry::span("pipeline.extract");
        for walk in &dataset.walks {
            all.add_walk(walk);
        }
    }
    classify_walks([Cow::Owned(all)])
}

/// The cross-walk stages over walk extracts in walk order:
/// classification, then finding assembly. Owned extracts are moved into
/// the output; borrowed ones (a cache's) are copied.
pub fn classify_walks<'a>(
    extracts: impl IntoIterator<Item = Cow<'a, WalkExtract>>,
) -> PipelineOutput {
    let mut all = WalkExtract::default();
    for extract in extracts {
        all.append(extract);
    }
    let WalkExtract {
        candidates: all_candidates,
        nav_obs: all_nav_obs,
        paths: all_paths,
    } = all;
    cc_telemetry::counter("pipeline.candidates.found", all_candidates.len() as u64);
    cc_telemetry::counter("pipeline.paths.observed", all_paths.len() as u64);

    let (groups, stats) = {
        let _classify_span = cc_telemetry::span("pipeline.classify");
        classify(&all_candidates, &all_nav_obs)
    };

    // Index candidates by (walk, step, name) for finding assembly.
    let _assemble_span = cc_telemetry::span("pipeline.assemble");
    let mut cand_index: BTreeMap<(u32, usize, &str), Vec<&Candidate>> = BTreeMap::new();
    for c in &all_candidates {
        cand_index
            .entry((c.walk, c.step, c.name.as_str()))
            .or_default()
            .push(c);
    }
    // Index paths by (walk, step, crawler).
    let mut path_index: BTreeMap<(u32, usize, CrawlerName), &PathView> = BTreeMap::new();
    for p in &all_paths {
        path_index.insert((p.walk, p.step, p.crawler), p);
    }

    const PREFERENCE: [CrawlerName; 4] = [
        CrawlerName::Safari1,
        CrawlerName::Safari2,
        CrawlerName::Chrome3,
        CrawlerName::Safari1R,
    ];

    let mut findings = Vec::new();
    for g in &groups {
        if g.verdict != Verdict::Uid {
            continue;
        }
        let Some(cands) = cand_index.get(&(g.walk, g.step, g.name.as_str())) else {
            continue;
        };
        // Prefer the canonical crawler order when choosing the
        // representative observation.
        let representative = PREFERENCE
            .iter()
            .find_map(|c| cands.iter().find(|cd| cd.crawler == *c))
            .unwrap_or(&cands[0]);
        let Some(path) = path_index.get(&(g.walk, g.step, representative.crawler)) else {
            continue;
        };
        let lifetime = cands.iter().find_map(|c| c.cookie_lifetime_days);
        findings.push(UidFinding {
            walk: g.walk,
            step: g.step,
            name: g.name.clone(),
            values: g.values.clone(),
            combo: g.combo,
            origin: path.origin.registered_domain(),
            destination: path.destination(),
            redirectors: path.redirectors(),
            domain_path: path.domain_path(),
            url_path: path.url_path(),
            at_origin: representative.at_origin,
            at_destination: representative.at_destination,
            cookie_lifetime_days: lifetime,
        });
    }

    cc_telemetry::counter("pipeline.findings.confirmed", findings.len() as u64);
    PipelineOutput {
        findings,
        groups,
        stats,
        paths: all_paths,
        candidates: all_candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{CrawlConfig, Walker};
    use cc_web::{generate, WebConfig};

    fn run_small() -> PipelineOutput {
        let web = generate(&WebConfig::small());
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 42,
                steps_per_walk: 6,
                max_walks: Some(50),
                connect_failure_rate: 0.0,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        run_pipeline(&ds)
    }

    #[test]
    fn pipeline_finds_smuggling() {
        let out = run_small();
        assert!(!out.paths.is_empty(), "no navigation paths observed");
        assert!(!out.candidates.is_empty(), "no candidates detected");
        assert!(!out.findings.is_empty(), "no UID smuggling found");
        assert!(out.stats.uids as usize >= out.findings.len());
    }

    #[test]
    fn findings_have_consistent_paths() {
        let out = run_small();
        for f in &out.findings {
            assert_eq!(f.domain_path.first(), Some(&f.origin));
            if let Some(dest) = &f.destination {
                assert_eq!(f.domain_path.last(), Some(dest));
            }
            assert!(f.url_path.len() >= 2, "a path has at least origin+hop");
            for r in &f.redirectors {
                assert!(f.domain_path.contains(r));
            }
        }
    }

    #[test]
    fn portions_cover_expected_cases() {
        let out = run_small();
        let portions: std::collections::HashSet<_> =
            out.findings.iter().map(|f| f.portion()).collect();
        // A healthy crawl yields at least full-path and one partial kind.
        assert!(
            portions.contains(&PathPortion::OriginatorToRedirectorToDestination)
                || portions.contains(&PathPortion::OriginatorToDestination),
            "no full transfers at all: {portions:?}"
        );
    }

    #[test]
    fn noise_is_filtered() {
        let out = run_small();
        // No finding should carry an obvious timestamp/URL/word value.
        for f in &out.findings {
            for vs in f.values.values() {
                for v in vs {
                    assert!(
                        crate::heuristics::programmatic_reject(v).is_none(),
                        "finding carries rejected value {v}"
                    );
                    assert!(
                        crate::manual::manual_reject(v).is_none() || f.values.len() == 4,
                        "dynamic finding carries manual-rejected value {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn discard_reasons_observed() {
        let out = run_small();
        assert!(
            out.stats.same_across_users > 0,
            "word params / fp uids should be discarded"
        );
        // Rotating values (timestamps, session IDs) are discarded either
        // by the Safari-1R rule (when the trailing crawler saw the name)
        // or by the programmatic shape filters.
        assert!(
            out.stats.session_rotation + out.stats.programmatic > 0,
            "rotating noise should be discarded: {:?}",
            out.stats
        );
    }

    #[test]
    fn session_ids_caught_whenever_the_trailing_crawler_saw_them() {
        // An honest limitation shared with the paper: a session ID seen by
        // a *single* crawler is indistinguishable from a UID (rule 2 needs
        // Safari-1/1R coverage). What must never happen is a session ID
        // surviving when both Safari-1 and Safari-1R observed its name.
        let out = run_small();
        for f in &out.findings {
            // Rotating site session cookies never transfer via query.
            assert_ne!(f.name, "_sessid");
            if f.name == "sid" {
                let s1 = f.values.get(&CrawlerName::Safari1);
                let s1r = f.values.get(&CrawlerName::Safari1R);
                assert!(
                    s1.is_none() || s1r.is_none(),
                    "rotating sid survived despite S1/S1R coverage: {f:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_pipeline() {
        let a = run_small();
        let b = run_small();
        assert_eq!(a.findings.len(), b.findings.len());
        assert_eq!(a.stats, b.stats);
    }
}
