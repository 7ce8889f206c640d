//! Crawl checkpoint/resume (`cc-checkpoint/v1`).
//!
//! Every walk is a pure function of `(StudyConfig, walk_id)`, so a crawl
//! interrupted at any point can be resumed from just three things: the
//! configuration, the set of walks already recorded, and the ground-truth
//! ledger accumulated so far. A [`CrawlCheckpoint`] bundles exactly that —
//! the embedded config lets `--resume` refuse a checkpoint produced under
//! different parameters, and the truth ledger makes the resumed run's
//! analysis report (not just its dataset) identical to an uninterrupted
//! run's.
//!
//! Checkpoints are written atomically (temp file + rename) so a crash
//! mid-write never leaves a truncated checkpoint behind.

use std::collections::HashSet;
use std::path::Path;

use cc_util::CcError;
use cc_web::TruthLog;
use serde::{Deserialize, Serialize};

use crate::config::StudyConfig;
use crate::record::CrawlDataset;

/// The checkpoint format identifier. Bump on incompatible change.
pub const CHECKPOINT_SCHEMA: &str = "cc-checkpoint/v1";

/// A resumable snapshot of a crawl in progress.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlCheckpoint {
    /// Format identifier, always [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// The configuration the crawl ran under.
    pub study: StudyConfig,
    /// Total walks the full crawl comprises.
    pub total_walks: usize,
    /// Walks recorded so far (any subset; ids key the remainder).
    pub partial: CrawlDataset,
    /// Ground-truth ledger at checkpoint time.
    pub truth: TruthLog,
}

impl CrawlCheckpoint {
    /// Bundle a partial crawl into a checkpoint.
    pub fn new(study: &StudyConfig, partial: CrawlDataset, truth: TruthLog) -> Self {
        CrawlCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            study: study.clone(),
            total_walks: study.total_walks(),
            partial,
            truth,
        }
    }

    /// Ids of the walks already recorded.
    pub fn completed(&self) -> HashSet<u32> {
        self.partial.walks.iter().map(|w| w.walk_id).collect()
    }

    /// Ids of the walks still to run, in order.
    pub fn remaining(&self) -> Vec<u32> {
        let done = self.completed();
        (0..self.total_walks as u32)
            .filter(|id| !done.contains(id))
            .collect()
    }

    /// Refuse to resume under a different configuration.
    pub fn validate_against(&self, study: &StudyConfig) -> Result<(), CcError> {
        if self.schema != CHECKPOINT_SCHEMA {
            return Err(CcError::Checkpoint(format!(
                "unsupported schema {:?} (expected {CHECKPOINT_SCHEMA:?})",
                self.schema
            )));
        }
        if &self.study != study {
            return Err(CcError::Checkpoint(
                "checkpoint was produced under a different study configuration".into(),
            ));
        }
        if self.partial.walks.len() > self.total_walks {
            return Err(CcError::Checkpoint(format!(
                "checkpoint holds {} walks but claims a total of {}",
                self.partial.walks.len(),
                self.total_walks
            )));
        }
        Ok(())
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String, CcError> {
        serde_json::to_string(self).map_err(|e| CcError::Serde(e.to_string()))
    }

    /// Deserialize from JSON, checking the schema tag first.
    pub fn from_json(s: &str) -> Result<Self, CcError> {
        let ck: CrawlCheckpoint =
            serde_json::from_str(s).map_err(|e| CcError::Checkpoint(e.to_string()))?;
        if ck.schema != CHECKPOINT_SCHEMA {
            return Err(CcError::Checkpoint(format!(
                "unsupported schema {:?} (expected {CHECKPOINT_SCHEMA:?})",
                ck.schema
            )));
        }
        Ok(ck)
    }

    /// Write atomically: serialize to a `.tmp`-suffixed sibling, then
    /// rename over `path`, so an interrupted write never corrupts the
    /// previous checkpoint (and a follower polling the file never reads
    /// a torn one).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CcError> {
        let path = path.as_ref();
        let json = self.to_json()?;
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &json).map_err(|e| CcError::io(tmp.display().to_string(), e))?;
        std::fs::rename(&tmp, path).map_err(|e| CcError::io(path.display().to_string(), e))?;
        cc_telemetry::counter("crawl.checkpoint.writes", 1);
        Ok(())
    }

    /// Load a checkpoint from disk. A file that is not a checkpoint
    /// (damaged, truncated, not UTF-8) is a [`CcError::Checkpoint`] that
    /// names the path.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CcError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| CcError::io(path.display().to_string(), e))?;
        let named = |msg: String| CcError::Checkpoint(format!("{}: {msg}", path.display()));
        let json = String::from_utf8(bytes).map_err(|e| named(e.to_string()))?;
        Self::from_json(&json).map_err(|e| match e {
            CcError::Checkpoint(msg) => named(msg),
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{WalkRecord, WalkTermination};
    use cc_net::RecoveryStats;

    fn walk(id: u32) -> WalkRecord {
        WalkRecord {
            walk_id: id,
            seeder: format!("s{id}.com").into(),
            steps: Vec::new(),
            termination: WalkTermination::Completed,
            recovery: RecoveryStats::default(),
        }
    }

    fn study() -> StudyConfig {
        StudyConfig::builder().walks(5).build().unwrap()
    }

    #[test]
    fn remaining_is_the_complement_of_completed() {
        let mut partial = CrawlDataset::default();
        partial.walks.push(walk(0));
        partial.walks.push(walk(3));
        let ck = CrawlCheckpoint::new(&study(), partial, TruthLog::new());
        assert_eq!(ck.total_walks, 5);
        assert_eq!(ck.remaining(), vec![1, 2, 4]);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut partial = CrawlDataset::default();
        partial.walks.push(walk(1));
        let ck = CrawlCheckpoint::new(&study(), partial, TruthLog::new());
        let back = CrawlCheckpoint::from_json(&ck.to_json().unwrap()).unwrap();
        assert_eq!(back.schema, CHECKPOINT_SCHEMA);
        assert_eq!(back.study, ck.study);
        assert_eq!(back.partial, ck.partial);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let ck = CrawlCheckpoint::new(&study(), CrawlDataset::default(), TruthLog::new());
        let json = ck.to_json().unwrap().replace("cc-checkpoint/v1", "cc-checkpoint/v0");
        let err = CrawlCheckpoint::from_json(&json).unwrap_err();
        assert!(matches!(err, CcError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let ck = CrawlCheckpoint::new(&study(), CrawlDataset::default(), TruthLog::new());
        let other = StudyConfig::builder().walks(5).seed(999).build().unwrap();
        assert!(ck.validate_against(&study()).is_ok());
        let err = ck.validate_against(&other).unwrap_err();
        assert!(matches!(err, CcError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir = std::env::temp_dir().join("cc-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let path = path.to_str().unwrap();
        let mut partial = CrawlDataset::default();
        partial.walks.push(walk(2));
        let ck = CrawlCheckpoint::new(&study(), partial, TruthLog::new());
        ck.save(path).unwrap();
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let back = CrawlCheckpoint::load(path).unwrap();
        assert_eq!(back.partial, ck.partial);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn damaged_checkpoints_are_errors_that_name_the_file() {
        let dir =
            std::env::temp_dir().join(format!("cc-checkpoint-damaged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut partial = CrawlDataset::default();
        partial.walks.extend([walk(0), walk(3)]);
        let mut truth = TruthLog::new();
        truth.note("uid-4f2a", cc_web::TokenTruth::SessionId);
        let json = CrawlCheckpoint::new(&study(), partial, truth)
            .to_json()
            .unwrap();
        let n = json.len();
        let mut damaged: Vec<(String, Vec<u8>)> = [0, 1, n / 4, n / 2, n - 1]
            .into_iter()
            .map(|cut| (format!("cut-at-{cut}.json"), json.as_bytes()[..cut].to_vec()))
            .collect();
        damaged.push(("garbage.json".into(), (0..=255u8).cycle().take(4096).collect()));
        for (name, bytes) in damaged {
            let path = dir.join(&name);
            std::fs::write(&path, bytes).unwrap();
            match CrawlCheckpoint::load(&path) {
                Err(CcError::Checkpoint(msg)) => {
                    assert!(msg.contains(&path.display().to_string()), "{name}: {msg}")
                }
                other => panic!("{name}: expected a checkpoint error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
