//! UID identification (§3.7).
//!
//! "To track an individual user, a UID must be the same across all website
//! visits by the same user and different across visits to the same website
//! by different users."
//!
//! * **Static case** (§3.7.1) — the token appears on all four crawlers:
//!   discard values identical across *different* users; discard tokens
//!   whose value differs between Safari-1 and Safari-1R (the same user
//!   twice ⇒ session ID). Survivors are UIDs.
//! * **Dynamic case** (§3.7.2) — fewer than four crawlers: rule (1)
//!   discard tokens identical across two different-profile crawls;
//!   rule (2) discard tokens whose *name* appears on Safari-1 and
//!   Safari-1R with differing values. The remainder goes through the
//!   programmatic heuristics and the manual-analyst model.

use std::collections::{BTreeMap, BTreeSet};

use cc_crawler::CrawlerName;
use serde::{Deserialize, Serialize};

use crate::candidates::Candidate;
use crate::heuristics::programmatic_reject;
use crate::manual::manual_reject;
use crate::observe::{TokenObs, TokenSource};

/// Why a candidate token was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiscardReason {
    /// Identical value on crawls with different user profiles — cannot be
    /// a UID.
    SameAcrossUsers,
    /// Value differed between Safari-1 and Safari-1R — a session ID.
    SessionRotation,
    /// Programmatic: date or timestamp shape.
    TimestampOrDate,
    /// Programmatic: URL shape.
    LooksLikeUrl,
    /// Programmatic: shorter than eight characters.
    TooShort,
    /// Manual: natural-language words, coordinates, domains, or acronyms.
    Manual,
}

/// Telemetry label for a discard heuristic (low-cardinality, stable).
fn discard_reason_label(reason: DiscardReason) -> &'static str {
    match reason {
        DiscardReason::SameAcrossUsers => "same_across_users",
        DiscardReason::SessionRotation => "session_rotation",
        DiscardReason::TimestampOrDate => "timestamp_or_date",
        DiscardReason::LooksLikeUrl => "looks_like_url",
        DiscardReason::TooShort => "too_short",
        DiscardReason::Manual => "manual",
    }
}

/// Final verdict on a token group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// A genuine user identifier being smuggled.
    Uid,
    /// Discarded.
    Discarded(DiscardReason),
}

/// The crawler-combination classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ComboClass {
    /// "2 identical plus 1 or more different profiles" — Safari-1 and
    /// Safari-1R agree, and at least one other user saw the token too.
    TwoIdenticalPlusDifferent,
    /// "2 or more different profiles only".
    TwoOrMoreDifferentOnly,
    /// "2 identical profiles only" — just Safari-1 + Safari-1R.
    TwoIdenticalOnly,
    /// "1 profile only".
    OneProfileOnly,
}

impl ComboClass {
    /// Table-1 row label.
    pub fn label(&self) -> &'static str {
        match self {
            ComboClass::TwoIdenticalPlusDifferent => {
                "2 identical plus 1 or more different profiles"
            }
            ComboClass::TwoOrMoreDifferentOnly => "2 or more different profiles only",
            ComboClass::TwoIdenticalOnly => "2 identical profiles only",
            ComboClass::OneProfileOnly => "1 profile only",
        }
    }
}

/// One classified token group: a (walk, step, name) triple with the values
/// each crawler saw.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenGroup {
    /// Walk id.
    pub walk: u32,
    /// Step index.
    pub step: usize,
    /// Token name (the name it traveled under).
    pub name: String,
    /// Values per crawler.
    pub values: BTreeMap<CrawlerName, BTreeSet<String>>,
    /// Verdict.
    pub verdict: Verdict,
    /// Crawler-combination class (meaningful for UIDs).
    pub combo: ComboClass,
    /// Whether the group reached the manual stage (dynamic survivors of
    /// the programmatic filters) — the denominator of the paper's
    /// 577-of-1,581 statistic.
    pub entered_manual: bool,
}

/// Statistics over a classification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifyStats {
    /// Total groups considered.
    pub groups: u64,
    /// Groups classified as UIDs.
    pub uids: u64,
    /// Discards per rule.
    pub same_across_users: u64,
    /// Session-rotation discards.
    pub session_rotation: u64,
    /// Programmatic discards (all three filters).
    pub programmatic: u64,
    /// Groups that reached the manual stage.
    pub entered_manual: u64,
    /// Groups removed by the manual stage.
    pub manual_removed: u64,
}

impl ClassifyStats {
    /// Add another run's tallies (classification of disjoint groups).
    pub fn absorb(&mut self, other: ClassifyStats) {
        // Destructured, so a new tally cannot be left out.
        let ClassifyStats {
            groups,
            uids,
            same_across_users,
            session_rotation,
            programmatic,
            entered_manual,
            manual_removed,
        } = other;
        self.groups += groups;
        self.uids += uids;
        self.same_across_users += same_across_users;
        self.session_rotation += session_rotation;
        self.programmatic += programmatic;
        self.entered_manual += entered_manual;
        self.manual_removed += manual_removed;
    }
}

/// Classify all candidates (from all four crawlers).
///
/// `extra_nav_obs` supplies navigation-query token observations so that
/// rule (2) can see Safari-1R name/value pairs even when they did not form
/// candidates of their own.
pub fn classify(
    candidates: &[Candidate],
    extra_nav_obs: &[TokenObs],
) -> (Vec<TokenGroup>, ClassifyStats) {
    // Group candidates by (walk, step, name).
    type Key = (u32, usize, String);
    let mut groups: BTreeMap<Key, BTreeMap<CrawlerName, BTreeSet<String>>> = BTreeMap::new();
    for c in candidates {
        groups
            .entry((c.walk, c.step, c.name.clone()))
            .or_default()
            .entry(c.crawler)
            .or_default()
            .insert(c.value.clone());
    }
    // Augment with raw navigation observations (same keys only).
    for t in extra_nav_obs {
        if !matches!(t.source, TokenSource::NavQuery { .. }) {
            continue;
        }
        let key = (t.walk, t.step, t.name.clone());
        if let Some(g) = groups.get_mut(&key) {
            g.entry(t.crawler).or_default().insert(t.value.clone());
        }
    }

    let mut out = Vec::new();
    let mut stats = ClassifyStats::default();

    for ((walk, step, name), values) in groups {
        stats.groups += 1;
        let combo = combo_class(&values);
        let mut entered_manual = false;

        let verdict = (|| {
            // Rule A: identical value across different users.
            if same_value_across_users(&values) {
                return Verdict::Discarded(DiscardReason::SameAcrossUsers);
            }
            // Rule B: Safari-1 vs Safari-1R disagreement (by name).
            let s1 = values.get(&CrawlerName::Safari1);
            let s1r = values.get(&CrawlerName::Safari1R);
            if let (Some(a), Some(b)) = (s1, s1r) {
                if !a.is_empty() && !b.is_empty() && a.intersection(b).next().is_none() {
                    return Verdict::Discarded(DiscardReason::SessionRotation);
                }
            }
            // Programmatic shape filters apply globally: §8.1 states the
            // ≥8-character rule as a blanket requirement, and a URL or
            // timestamp is not a UID no matter how many crawlers saw it.
            let all_values: Vec<&String> = values.values().flatten().collect();
            for v in &all_values {
                match programmatic_reject(v) {
                    Some("too-short") => return Verdict::Discarded(DiscardReason::TooShort),
                    Some("timestamp-or-date") => {
                        return Verdict::Discarded(DiscardReason::TimestampOrDate)
                    }
                    Some("url") => return Verdict::Discarded(DiscardReason::LooksLikeUrl),
                    Some(_) | None => {}
                }
            }
            // Static case: present on all four crawlers ⇒ the four-crawler
            // comparison is authoritative (§3.7.1) — no manual pass needed.
            if values.len() == 4 {
                return Verdict::Uid;
            }
            // Dynamic case: the manual pass.
            entered_manual = true;
            for v in &all_values {
                if manual_reject(v).is_some() {
                    return Verdict::Discarded(DiscardReason::Manual);
                }
            }
            Verdict::Uid
        })();

        match verdict {
            Verdict::Uid => stats.uids += 1,
            Verdict::Discarded(DiscardReason::SameAcrossUsers) => stats.same_across_users += 1,
            Verdict::Discarded(DiscardReason::SessionRotation) => stats.session_rotation += 1,
            Verdict::Discarded(DiscardReason::Manual) => stats.manual_removed += 1,
            Verdict::Discarded(_) => stats.programmatic += 1,
        }
        match verdict {
            Verdict::Uid => cc_telemetry::counter_id(cc_telemetry::CounterId::CLASSIFY_UID_CONFIRMED, 1),
            Verdict::Discarded(reason) => cc_telemetry::event(
                "classify.token_rejected",
                &[("heuristic", discard_reason_label(reason))],
            ),
        }
        if entered_manual {
            stats.entered_manual += 1;
        }

        out.push(TokenGroup {
            walk,
            step,
            name,
            values,
            verdict,
            combo,
            entered_manual,
        });
    }
    (out, stats)
}

/// Do two crawls with *different users* share an identical value?
fn same_value_across_users(values: &BTreeMap<CrawlerName, BTreeSet<String>>) -> bool {
    let crawlers: Vec<&CrawlerName> = values.keys().collect();
    for (i, a) in crawlers.iter().enumerate() {
        for b in crawlers.iter().skip(i + 1) {
            if a.user() == b.user() {
                continue;
            }
            if values[*a].intersection(&values[*b]).next().is_some() {
                return true;
            }
        }
    }
    false
}

fn combo_class(values: &BTreeMap<CrawlerName, BTreeSet<String>>) -> ComboClass {
    let s1 = values.get(&CrawlerName::Safari1);
    let s1r = values.get(&CrawlerName::Safari1R);
    let identical_pair = matches!(
        (s1, s1r),
        (Some(a), Some(b)) if a.intersection(b).next().is_some()
    );
    let other_users = values
        .keys()
        .filter(|c| !matches!(c, CrawlerName::Safari1 | CrawlerName::Safari1R))
        .count();
    let distinct_users: BTreeSet<_> = values.keys().map(|c| c.user()).collect();

    if identical_pair && other_users > 0 {
        ComboClass::TwoIdenticalPlusDifferent
    } else if identical_pair {
        ComboClass::TwoIdenticalOnly
    } else if distinct_users.len() >= 2 {
        ComboClass::TwoOrMoreDifferentOnly
    } else {
        ComboClass::OneProfileOnly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(crawler: CrawlerName, name: &str, value: &str) -> Candidate {
        Candidate {
            walk: 0,
            step: 0,
            crawler,
            name: name.into(),
            value: value.into(),
            contexts: ["a.com".to_string(), "b.com".to_string()].into(),
            first_hop: 0,
            last_hop: 1,
            at_origin: true,
            at_destination: true,
            cookie_lifetime_days: None,
        }
    }

    fn verdict_of(cands: &[Candidate]) -> (Verdict, ComboClass) {
        let (groups, _) = classify(cands, &[]);
        assert_eq!(groups.len(), 1);
        (groups[0].verdict, groups[0].combo)
    }

    #[test]
    fn static_uid_identified() {
        // Four crawlers, per-user values, Safari-1 == Safari-1R.
        let cands = vec![
            cand(CrawlerName::Safari1, "gclid", "uid-user1-aaaa"),
            cand(CrawlerName::Safari1R, "gclid", "uid-user1-aaaa"),
            cand(CrawlerName::Safari2, "gclid", "uid-user2-bbbb"),
            cand(CrawlerName::Chrome3, "gclid", "uid-user3-cccc"),
        ];
        let (v, combo) = verdict_of(&cands);
        assert_eq!(v, Verdict::Uid);
        assert_eq!(combo, ComboClass::TwoIdenticalPlusDifferent);
    }

    #[test]
    fn same_across_users_discarded() {
        // Fingerprint-derived UID: identical everywhere (§3.5's missed
        // cases).
        let cands = vec![
            cand(CrawlerName::Safari1, "fpid", "same-value-everywhere"),
            cand(CrawlerName::Safari1R, "fpid", "same-value-everywhere"),
            cand(CrawlerName::Safari2, "fpid", "same-value-everywhere"),
            cand(CrawlerName::Chrome3, "fpid", "same-value-everywhere"),
        ];
        let (v, _) = verdict_of(&cands);
        assert_eq!(v, Verdict::Discarded(DiscardReason::SameAcrossUsers));
    }

    #[test]
    fn session_rotation_discarded() {
        let cands = vec![
            cand(CrawlerName::Safari1, "sid", "session-run-one-11"),
            cand(CrawlerName::Safari1R, "sid", "session-run-two-22"),
            cand(CrawlerName::Safari2, "sid", "session-run-thr-33"),
            cand(CrawlerName::Chrome3, "sid", "session-run-fou-44"),
        ];
        let (v, _) = verdict_of(&cands);
        assert_eq!(v, Verdict::Discarded(DiscardReason::SessionRotation));
    }

    #[test]
    fn dynamic_rule2_uses_raw_observations() {
        // Candidate only on Safari-1, but Safari-1R saw the same *name*
        // with a different value in its navigation — rule (2) applies.
        let cands = vec![cand(CrawlerName::Safari1, "sid", "rotating-value-01")];
        let obs = vec![TokenObs {
            walk: 0,
            step: 0,
            crawler: CrawlerName::Safari1R,
            name: "sid".into(),
            value: "rotating-value-02".into(),
            source: TokenSource::NavQuery { hop: 0 },
            context: "b.com".into(),
            cookie_lifetime_days: None,
        }];
        let (groups, stats) = classify(&cands, &obs);
        assert_eq!(
            groups[0].verdict,
            Verdict::Discarded(DiscardReason::SessionRotation)
        );
        assert_eq!(stats.session_rotation, 1);
    }

    #[test]
    fn dynamic_single_crawler_uid_survives() {
        let cands = vec![cand(CrawlerName::Chrome3, "gclid", "f3a9c17e2b4d5a60")];
        let (v, combo) = verdict_of(&cands);
        assert_eq!(v, Verdict::Uid);
        assert_eq!(combo, ComboClass::OneProfileOnly);
    }

    #[test]
    fn dynamic_word_token_needs_manual() {
        let cands = vec![cand(
            CrawlerName::Safari2,
            "utm_campaign",
            "sweet_magnolia_deal",
        )];
        let (groups, stats) = classify(&cands, &[]);
        assert_eq!(groups[0].verdict, Verdict::Discarded(DiscardReason::Manual));
        assert!(groups[0].entered_manual);
        assert_eq!(stats.entered_manual, 1);
        assert_eq!(stats.manual_removed, 1);
    }

    #[test]
    fn dynamic_programmatic_filters() {
        let ts = vec![cand(CrawlerName::Safari1, "ts", "1666666666123")];
        assert_eq!(
            verdict_of(&ts).0,
            Verdict::Discarded(DiscardReason::TimestampOrDate)
        );
        let url = vec![cand(
            CrawlerName::Safari1,
            "cc_dest",
            "https://www.shop.com/deal",
        )];
        assert_eq!(
            verdict_of(&url).0,
            Verdict::Discarded(DiscardReason::LooksLikeUrl)
        );
        let short = vec![cand(CrawlerName::Safari1, "v", "abc12")];
        assert_eq!(
            verdict_of(&short).0,
            Verdict::Discarded(DiscardReason::TooShort)
        );
    }

    #[test]
    fn static_case_skips_programmatic() {
        // §3.7.1: the four-crawler comparison alone decides the static
        // case — even a word-shaped value that differs per user and is
        // stable per user counts as a UID.
        let cands = vec![
            cand(CrawlerName::Safari1, "ref_uid", "sweetmagnolias"),
            cand(CrawlerName::Safari1R, "ref_uid", "sweetmagnolias"),
            cand(CrawlerName::Safari2, "ref_uid", "trustpilot"),
            cand(CrawlerName::Chrome3, "ref_uid", "dailydeals"),
        ];
        assert_eq!(verdict_of(&cands).0, Verdict::Uid);
    }

    #[test]
    fn combo_two_different_profiles_only() {
        let cands = vec![
            cand(CrawlerName::Safari2, "gclid", "uid-user2-bbbb01"),
            cand(CrawlerName::Chrome3, "gclid", "uid-user3-cccc02"),
        ];
        let (v, combo) = verdict_of(&cands);
        assert_eq!(v, Verdict::Uid);
        assert_eq!(combo, ComboClass::TwoOrMoreDifferentOnly);
    }

    #[test]
    fn combo_two_identical_only() {
        let cands = vec![
            cand(CrawlerName::Safari1, "gclid", "uid-user1-aaaa01"),
            cand(CrawlerName::Safari1R, "gclid", "uid-user1-aaaa01"),
        ];
        let (v, combo) = verdict_of(&cands);
        assert_eq!(v, Verdict::Uid);
        assert_eq!(combo, ComboClass::TwoIdenticalOnly);
    }

    #[test]
    fn stats_tally() {
        let cands = vec![
            cand(CrawlerName::Safari1, "a", "f3a9c17e2b4d5a60"),
            cand(CrawlerName::Safari2, "b", "1666666666"),
            cand(CrawlerName::Chrome3, "c", "share_button_topic"),
        ];
        let (_, stats) = classify(&cands, &[]);
        assert_eq!(stats.groups, 3);
        assert_eq!(stats.uids, 1);
        assert_eq!(stats.programmatic, 1);
        assert_eq!(stats.manual_removed, 1);
    }
}
