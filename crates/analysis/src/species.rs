//! The species-evasion matrix: per-species classifier precision/recall and
//! per-defense defeat rates, computed from the simulator's ground truth.
//!
//! This is the headline table the paper could never compute: it knew what
//! its pipeline *found*, but not what it *missed*, and it could only guess
//! which defense each tracker slips past. With every minted UID labeled by
//! its tracker, both fall out mechanically:
//!
//! * **recall** per species comes from [`cc_core::truth_eval::score_by_tracker`]
//!   (ledger-attributed true positives and false negatives);
//! * **precision** charges Uid-verdict groups with non-UID truth to the
//!   species whose trackers own the parameter name they traveled under;
//! * **defeat rates** replay each defense's decision rule over the
//!   species' findings: link-decoration stripping fires on well-known
//!   parameter names present at the originator, debouncing on redirect
//!   chains or blocklisted names, ITP's navigation-hop detector on domains
//!   that ever appear as redirectors, and list-based blocking on
//!   Disconnect/EasyList membership.

use std::collections::{BTreeMap, BTreeSet};

use cc_core::classify::Verdict;
use cc_core::pipeline::{PipelineOutput, UidFinding};
use cc_core::truth_eval::score_by_tracker;
use cc_url::Host;
use cc_web::script::TokenTruth;
use cc_web::tracker::UID_PARAM_NAMES;
use cc_web::{SimWeb, TrackerId, TrackerKind};
use serde::{Deserialize, Serialize};

/// One row of the species-evasion matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpeciesRow {
    /// Stable species label (`bounce-remint`, `etag-respawn`, …).
    pub species: String,
    /// Number of trackers of this species in the world.
    pub trackers: u64,
    /// Confirmed findings whose UID the ledger attributes to this species.
    pub findings: u64,
    /// Ledger-attributed groups the classifier labeled UID.
    pub true_positives: u64,
    /// Uid-verdict groups with non-UID truth traveling under this
    /// species' parameter names.
    pub false_positives: u64,
    /// Ledger-attributed genuine UIDs the classifier discarded.
    pub false_negatives: u64,
    /// `TP / (TP + FP)`; 1.0 on an empty denominator.
    pub precision: f64,
    /// `TP / (TP + FN)`; 1.0 on an empty denominator.
    pub recall: f64,
    /// Fraction of this species' findings link-decoration stripping does
    /// *not* neutralize (parameter unknown to the blocklist, or the value
    /// was born mid-chain where the click-time rewriter never looks).
    pub strip_evasion: f64,
    /// Fraction of this species' findings debouncing does *not* prevent
    /// (no redirect chain and no blocklisted name).
    pub debounce_evasion: f64,
    /// Fraction of this species' tracker domains ITP's navigation-hop
    /// detector ever sees as a redirector. Zero means the detector is
    /// structurally blind to the species.
    pub itp_flag_rate: f64,
    /// Fraction of this species' trackers on the Disconnect list.
    pub disconnect_listed: f64,
    /// Fraction of this species' trackers matched by EasyList/EasyPrivacy.
    pub easylist_listed: f64,
    /// Defenses this species demonstrably defeats, by the thresholds of
    /// [`SpeciesRow::compute_defeats`].
    pub defeats: Vec<String>,
}

impl SpeciesRow {
    /// Derive the defeated-defense list from the measured rates. A defense
    /// counts as defeated when it misses the species more often than not
    /// (or, for lists, when no tracker of the species is listed at all).
    fn compute_defeats(&mut self) {
        let mut d = Vec::new();
        if self.findings > 0 && self.strip_evasion > 0.5 {
            d.push("strip".to_string());
        }
        if self.findings > 0 && self.debounce_evasion > 0.5 {
            d.push("debounce".to_string());
        }
        if self.itp_flag_rate < 0.5 {
            d.push("itp".to_string());
        }
        if self.disconnect_listed == 0.0 && self.easylist_listed == 0.0 {
            d.push("lists".to_string());
        }
        self.defeats = d;
    }
}

/// The full species-evasion matrix. Empty when the world has no evasion
/// species (the default), which keeps the section out of pre-species
/// reports and renders.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpeciesEvasion {
    /// One row per species present in the world, in
    /// [`TrackerKind::SPECIES`] order.
    pub rows: Vec<SpeciesRow>,
}

impl SpeciesEvasion {
    /// Whether the world had no evasion species at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row for one species label, if present.
    pub fn row(&self, species: &str) -> Option<&SpeciesRow> {
        self.rows.iter().find(|r| r.species == species)
    }
}

/// The tracker the ledger attributes a finding's values to, if any.
fn finding_tracker(f: &UidFinding, truth: &cc_web::TruthLog) -> Option<TrackerId> {
    f.values.values().flatten().find_map(|v| match truth.get(v) {
        Some(TokenTruth::Uid {
            tracker: Some(tid), ..
        }) => Some(tid),
        _ => None,
    })
}

/// Build the species-evasion matrix from a crawl's pipeline output and the
/// world's ground-truth ledger, read in place.
pub fn species_evasion(web: &SimWeb, output: &PipelineOutput) -> SpeciesEvasion {
    let species_trackers: Vec<&cc_web::Tracker> = web
        .trackers
        .iter()
        .filter(|t| t.kind.is_species())
        .collect();
    if species_trackers.is_empty() {
        return SpeciesEvasion::default();
    }
    let _span = cc_telemetry::span("report.species");
    web.with_truth(|truth| species_rows(web, &species_trackers, output, truth))
}

/// The matrix's rows, one per species present in the world.
fn species_rows(
    web: &SimWeb,
    species_trackers: &[&cc_web::Tracker],
    output: &PipelineOutput,
    truth: &cc_web::TruthLog,
) -> SpeciesEvasion {
    let by_tracker = score_by_tracker(&output.groups, truth);
    let kind_of: BTreeMap<TrackerId, TrackerKind> =
        web.trackers.iter().map(|t| (t.id, t.kind)).collect();

    // Domains ITP's navigation-hop detector ever observed as redirectors.
    let flagged: BTreeSet<String> = output
        .paths
        .iter()
        .flat_map(|p| p.redirectors())
        .collect();
    let well_known: BTreeSet<&str> = UID_PARAM_NAMES.iter().copied().collect();

    let mut rows = Vec::new();
    for kind in TrackerKind::SPECIES {
        let trackers: Vec<&&cc_web::Tracker> = species_trackers
            .iter()
            .filter(|t| t.kind == kind)
            .collect();
        if trackers.is_empty() {
            continue;
        }
        let mut row = SpeciesRow {
            species: kind.species_label().expect("species kind").to_string(),
            trackers: trackers.len() as u64,
            ..SpeciesRow::default()
        };

        // Recall side: ledger-attributed scorecards summed over the
        // species' trackers.
        for t in &trackers {
            if let Some(s) = by_tracker.get(&t.id) {
                row.true_positives += s.true_positives;
                row.false_negatives += s.false_negatives;
            }
        }

        // Precision side: Uid verdicts with non-UID truth under this
        // species' parameter names.
        let params: BTreeSet<&str> = trackers.iter().map(|t| t.uid_param.as_str()).collect();
        for g in &output.groups {
            if g.verdict != Verdict::Uid || !params.contains(g.name.as_str()) {
                continue;
            }
            let label = g.values.values().flatten().find_map(|v| truth.get(v));
            if matches!(label, Some(l) if !l.is_uid()) {
                row.false_positives += 1;
            }
        }

        // Defense replay over the species' attributed findings.
        let findings: Vec<&UidFinding> = output
            .findings
            .iter()
            .filter(|f| {
                finding_tracker(f, truth)
                    .and_then(|tid| kind_of.get(&tid))
                    .is_some_and(|k| *k == kind)
            })
            .collect();
        row.findings = findings.len() as u64;
        if !findings.is_empty() {
            let stripped = findings
                .iter()
                .filter(|f| f.at_origin && well_known.contains(f.name.as_str()))
                .count();
            let debounced = findings
                .iter()
                .filter(|f| !f.redirectors.is_empty() || well_known.contains(f.name.as_str()))
                .count();
            let n = findings.len() as f64;
            row.strip_evasion = 1.0 - stripped as f64 / n;
            row.debounce_evasion = 1.0 - debounced as f64 / n;
        }

        let n_trackers = trackers.len() as f64;
        row.itp_flag_rate = trackers
            .iter()
            .filter(|t| {
                Host::parse(&t.fqdn)
                    .map(|h| flagged.contains(&h.registered_domain()))
                    .unwrap_or(false)
            })
            .count() as f64
            / n_trackers;
        row.disconnect_listed =
            trackers.iter().filter(|t| t.in_disconnect).count() as f64 / n_trackers;
        row.easylist_listed =
            trackers.iter().filter(|t| t.in_easylist).count() as f64 / n_trackers;

        let tp = row.true_positives as f64;
        let fp = row.false_positives as f64;
        let fneg = row.false_negatives as f64;
        row.precision = if tp + fp == 0.0 { 1.0 } else { tp / (tp + fp) };
        row.recall = if tp + fneg == 0.0 { 1.0 } else { tp / (tp + fneg) };
        row.compute_defeats();
        rows.push(row);
    }
    SpeciesEvasion { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{CrawlConfig, Walker};
    use cc_web::{generate, WebConfig};

    fn run(cfg: &WebConfig) -> (cc_web::SimWeb, PipelineOutput) {
        let web = generate(cfg);
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 5,
                steps_per_walk: 5,
                max_walks: Some(30),
                connect_failure_rate: 0.0,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let out = cc_core::run_pipeline(&ds);
        (web, out)
    }

    #[test]
    fn baseline_world_has_empty_matrix() {
        let (web, out) = run(&WebConfig::small());
        let m = species_evasion(&web, &out);
        assert!(m.is_empty());
    }

    #[test]
    fn all_species_world_has_one_row_per_species() {
        let (web, out) = run(&WebConfig::small().all_species());
        let m = species_evasion(&web, &out);
        assert_eq!(m.rows.len(), TrackerKind::SPECIES.len());
        for kind in TrackerKind::SPECIES {
            let label = kind.species_label().unwrap();
            let row = m.row(label).expect("row present");
            assert_eq!(row.trackers, 2, "{label}: small world plants 2 each");
            assert!(row.precision >= 0.0 && row.precision <= 1.0);
            assert!(row.recall >= 0.0 && row.recall <= 1.0);
        }
    }

    #[test]
    fn structural_defeats_follow_from_species_design() {
        let (web, out) = run(&WebConfig::small().all_species());
        let m = species_evasion(&web, &out);
        // Hop-free species are invisible to the navigation-hop detector.
        for label in ["spa-pushstate", "cname-cloaked", "etag-respawn"] {
            let row = m.row(label).unwrap();
            assert_eq!(row.itp_flag_rate, 0.0, "{label} should never be flagged");
            assert!(row.defeats.contains(&"itp".to_string()), "{label}");
        }
        // Chain species do get flagged.
        let remint = m.row("bounce-remint").unwrap();
        assert!(remint.itp_flag_rate > 0.0, "remint hops are observable");
        // Custom-named species evade the strip blocklist entirely.
        let cname = m.row("cname-cloaked").unwrap();
        assert_eq!(cname.disconnect_listed, 0.0);
        assert!(cname.defeats.contains(&"lists".to_string()));
        // The ETag species is the one deliberately Disconnect-listed.
        let etag = m.row("etag-respawn").unwrap();
        assert_eq!(etag.disconnect_listed, 1.0);
        assert!(!etag.defeats.contains(&"lists".to_string()));
    }
}
