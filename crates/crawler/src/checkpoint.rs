//! Crawl checkpoint/resume (`cc-checkpoint/v2`): an append-only log.
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
//! # Format
//!
//! A checkpoint file is JSON Lines:
//!
//! * line 1 is the header: `{"schema":"cc-checkpoint/v2","study":…,"total_walks":…}`;
//! * batches follow. A batch is one line per [`WalkRecord`], then one
//!   *commit* line, `{"commit":{"failures":…,"truth":…}}`, holding the
//!   batch's [`FailureStats`] and the truth-ledger entries added or
//!   relabelled since the previous commit.
//!
//! The [`FailureLedger`](crate::FailureLedger) is not stored: the loader
//! rebuilds it from the walks, as [`CrawlDataset::merge`] does.
//!
//! # Loading
//!
//! A walk counts only once a commit line follows it. A final line with no
//! newline is a torn append: the loader drops it, together with the
//! uncommitted walks before it, so a file cut anywhere after its header
//! loads as its last complete commit. Anything else malformed — a complete
//! line that does not parse, a repeated walk id, a walk outside the study —
//! is a [`CcError::Checkpoint`] naming the line (and, from
//! [`CrawlCheckpoint::load`], the path).
//!
//! # Writing
//!
//! [`CrawlCheckpoint::to_json`] and [`CrawlCheckpoint::save`] write the
//! canonical form: the header, the walks in id order, and one commit line.
//! A running crawl writes through [`CheckpointLog`] instead, which pays
//! only for the walks added since its previous save and ends with the same
//! canonical form. Nothing is fsynced: appends and rewrites alike reach
//! the page cache and no further.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use cc_util::CcError;
use cc_web::TruthLog;
use serde::{Deserialize, Kind, Serialize, Source, Value};

use crate::config::StudyConfig;
use crate::record::{CrawlDataset, FailureStats, WalkRecord};

/// The checkpoint format identifier. Bump on incompatible change.
pub const CHECKPOINT_SCHEMA: &str = "cc-checkpoint/v2";

/// A resumable snapshot of a crawl in progress.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlCheckpoint {
    /// The configuration the crawl ran under.
    pub study: StudyConfig,
    /// Total walks the full crawl comprises.
    pub total_walks: usize,
    /// Walks recorded so far (any subset; ids key the remainder).
    pub partial: CrawlDataset,
    /// Ground-truth ledger at checkpoint time.
    pub truth: TruthLog,
}

/// Line 1 of a checkpoint file. Written from borrows, read owned.
#[derive(Serialize, Deserialize)]
struct Header<'a> {
    schema: Cow<'a, str>,
    study: Cow<'a, StudyConfig>,
    total_walks: usize,
}

/// A commit line.
#[derive(Serialize, Deserialize)]
struct CommitLine<'a> {
    commit: Commit<'a>,
}

/// The body of a commit line.
#[derive(Serialize, Deserialize)]
struct Commit<'a> {
    failures: FailureStats,
    truth: Cow<'a, TruthLog>,
}

impl CrawlCheckpoint {
    /// Bundle a partial crawl into a checkpoint.
    pub fn new(study: &StudyConfig, partial: CrawlDataset, truth: TruthLog) -> Self {
        CrawlCheckpoint {
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

    /// Refuse to resume under a different configuration, or from a walk
    /// set that repeats a walk or holds one outside the study.
    pub fn validate_against(&self, study: &StudyConfig) -> Result<(), CcError> {
        if &self.study != study {
            return Err(CcError::Checkpoint(
                "checkpoint was produced under a different study configuration".into(),
            ));
        }
        let mut ids = WalkIds::new(self.total_walks);
        for walk in &self.partial.walks {
            ids.admit(walk.walk_id).map_err(CcError::Checkpoint)?;
        }
        Ok(())
    }

    /// Serialize to the canonical form: the header, the walks in id
    /// order, and one commit line.
    pub fn to_json(&self) -> Result<String, CcError> {
        let mut walks: Vec<&WalkRecord> = self.partial.walks.iter().collect();
        walks.sort_by_key(|w| w.walk_id);
        let mut out = header_line(&self.study, self.total_walks)?;
        for walk in walks {
            out.push_str(&json_line(walk)?);
        }
        out.push_str(&commit_line(self.partial.failures, &self.truth)?);
        Ok(out)
    }

    /// Parse any `cc-checkpoint/v2` log (see the module docs for what
    /// counts and what is refused).
    pub fn from_json(s: &str) -> Result<Self, CcError> {
        Self::parse(s.as_bytes()).map_err(CcError::Checkpoint)
    }

    /// Write the canonical form atomically: to a `.tmp`-suffixed sibling,
    /// then renamed over `path`, so an interrupted write never corrupts
    /// the previous checkpoint.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CcError> {
        write_atomic(path.as_ref(), self.to_json()?.as_bytes())?;
        cc_telemetry::counter("crawl.checkpoint.writes", 1);
        Ok(())
    }

    /// Load a checkpoint from disk. A file that is not a checkpoint
    /// (damaged, not UTF-8, another schema) is a [`CcError::Checkpoint`]
    /// that names the path.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CcError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| CcError::io(path.display().to_string(), e))?;
        Self::parse(&bytes).map_err(|msg| CcError::Checkpoint(format!("{}: {msg}", path.display())))
    }

    /// The loader behind [`Self::from_json`] and [`Self::load`]. Works on
    /// bytes so that a torn append that split a UTF-8 sequence is dropped
    /// before anything decodes it.
    fn parse(bytes: &[u8]) -> Result<Self, String> {
        let mut lines = bytes.split_inclusive(|&b| b == b'\n').zip(1usize..);
        let Some((first, _)) = lines.next() else {
            return Err("empty file: no checkpoint header".into());
        };
        // The header is never appended, only written whole with the first
        // batch, so it is parsed even without its newline. Its schema is
        // checked before anything else in it is read.
        let header: Header = std::str::from_utf8(first.strip_suffix(b"\n").unwrap_or(first))
            .map_err(|e| e.to_string())
            .and_then(parse_line::<Value>)
            .and_then(|v| {
                let schema = v.as_object().and_then(|o| o.get("schema"));
                match schema.and_then(Value::as_str) {
                    Some(CHECKPOINT_SCHEMA) => serde_json::from_value(v).map_err(|e| e.to_string()),
                    other => Err(format!(
                        "unsupported schema {:?} (expected {CHECKPOINT_SCHEMA:?})",
                        other.unwrap_or("none")
                    )),
                }
            })
            .map_err(|e| format!("line 1: {e}"))?;

        let mut ids = WalkIds::new(header.total_walks);
        let mut partial = CrawlDataset::default();
        let mut truth = TruthLog::new();
        let mut batch: Vec<WalkRecord> = Vec::new();
        for (line, n) in lines {
            // A final line with no newline is a torn append: it and the
            // uncommitted walks before it are dropped.
            let Some(line) = line.strip_suffix(b"\n") else {
                break;
            };
            let at = |e: String| format!("line {n}: {e}");
            let line = std::str::from_utf8(line).map_err(|e| at(e.to_string()))?;
            if is_commit(line).map_err(at)? {
                let CommitLine { commit } = parse_line(line).map_err(at)?;
                partial.walks.append(&mut batch);
                partial.failures.absorb(commit.failures);
                if truth.is_empty() {
                    truth = commit.truth.into_owned();
                } else {
                    truth.merge(&commit.truth);
                }
            } else {
                let walk: WalkRecord = parse_line(line).map_err(at)?;
                ids.admit(walk.walk_id).map_err(at)?;
                batch.push(walk);
            }
        }
        // Walk ids are unique, so the unstable sort is deterministic.
        partial.walks.sort_unstable_by_key(|w| w.walk_id);
        for walk in &partial.walks {
            partial.ledger.note(walk);
        }
        Ok(CrawlCheckpoint {
            study: header.study.into_owned(),
            total_walks: header.total_walks,
            partial,
            truth,
        })
    }
}

/// The walk ids seen so far, refusing a repeat or one outside the study.
struct WalkIds {
    total: usize,
    seen: HashSet<u32>,
}

impl WalkIds {
    fn new(total: usize) -> WalkIds {
        WalkIds {
            total,
            seen: HashSet::new(),
        }
    }

    fn admit(&mut self, id: u32) -> Result<(), String> {
        if id as usize >= self.total {
            return Err(format!(
                "walk {id} is outside the study's {} walks",
                self.total
            ));
        }
        if !self.seen.insert(id) {
            return Err(format!("walk {id} appears twice"));
        }
        Ok(())
    }
}

fn parse_line<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Whether a log line is a commit: an object with a top-level `commit`
/// key. The writer puts that key first. Any other line that has the word
/// in it, spelled out or behind a `\u` escape, is scanned for the key.
fn is_commit(line: &str) -> Result<bool, String> {
    if line.starts_with("{\"commit\":") {
        return Ok(true);
    }
    if !line.contains("commit") && !line.contains("\\u") {
        return Ok(false);
    }
    has_key(line, "commit").map_err(|e| e.to_string())
}

/// Whether `line` is an object with the top-level key `key`.
fn has_key(line: &str, key: &str) -> Result<bool, serde::DeError> {
    let mut de = serde_json::Deserializer::new(line);
    if de.peek()? != Kind::Object {
        return Ok(false);
    }
    de.begin_object()?;
    while let Some(k) = de.next_key()? {
        if k == key {
            return Ok(true);
        }
        de.skip()?;
    }
    Ok(false)
}

/// The header line.
fn header_line(study: &StudyConfig, total_walks: usize) -> Result<String, CcError> {
    json_line(&Header {
        schema: Cow::Borrowed(CHECKPOINT_SCHEMA),
        study: Cow::Borrowed(study),
        total_walks,
    })
}

/// A commit line.
fn commit_line(failures: FailureStats, truth: &TruthLog) -> Result<String, CcError> {
    json_line(&CommitLine {
        commit: Commit {
            failures,
            truth: Cow::Borrowed(truth),
        },
    })
}

/// `value` as one line of JSON, newline included.
fn json_line(value: &impl Serialize) -> Result<String, CcError> {
    let mut line = serde_json::to_string(value).map_err(|e| CcError::Serde(e.to_string()))?;
    line.push('\n');
    Ok(line)
}

/// Write `bytes` to a `.tmp` sibling of `path` and rename it over `path`.
/// Returns the open file, positioned at its end, for later appends.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<File, CcError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let io = |e: std::io::Error| CcError::io(tmp.display().to_string(), e);
    let mut file = File::create(&tmp).map_err(io)?;
    file.write_all(bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(|e| CcError::io(path.display().to_string(), e))?;
    Ok(file)
}

/// The one writer of a running crawl's checkpoint: [`StudyRun`]'s sinks
/// and the cc-gaggle manager both save through it.
///
/// * The run's first save writes the header, the resume base and the
///   first batch atomically (temp file + rename), so the checkpoint being
///   resumed survives until its successor is whole.
/// * Each later save appends one batch: the new walks' lines, then a
///   commit line.
/// * [`CheckpointLog::finish`] rewrites the canonical form atomically,
///   copying the walk lines already on disk in id order rather than
///   re-encoding them. A finished checkpoint therefore equals
///   [`CrawlCheckpoint::to_json`] of its own load.
///
/// A failed save leaves the file at its last commit (a torn batch is
/// dropped on load) and refuses every later save.
///
/// [`StudyRun`]: crate::StudyRun
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    study: StudyConfig,
    /// Open from the first save on.
    file: Option<File>,
    /// Bytes of the file through its last commit.
    len: usize,
    header_len: usize,
    /// Each walk line on disk: its id and its byte range, newline included.
    lines: Vec<(u32, Range<usize>)>,
    /// The truth ledger as of the last commit.
    truth: TruthLog,
    failures: FailureStats,
    failed: bool,
}

impl CheckpointLog {
    /// A log for a run of `study` at `path`. Nothing is written until the
    /// first save.
    pub fn new(study: &StudyConfig, path: impl Into<PathBuf>) -> CheckpointLog {
        CheckpointLog {
            path: path.into(),
            study: study.clone(),
            file: None,
            len: 0,
            header_len: 0,
            lines: Vec::new(),
            truth: TruthLog::new(),
            failures: FailureStats::default(),
            failed: false,
        }
    }

    /// Save one batch: `walks` (completed since the previous save) with
    /// their `failures`, and `truth`, the whole ledger now. `base` is the
    /// run's resume base; only the first save writes it.
    pub fn append<'w>(
        &mut self,
        base: &'w CrawlDataset,
        walks: impl IntoIterator<Item = &'w WalkRecord>,
        failures: FailureStats,
        truth: &TruthLog,
    ) -> Result<(), CcError> {
        if self.failed {
            return Err(self.refused());
        }
        let _span = cc_telemetry::span("checkpoint.append");
        let (walks, failures) = self.batch(base, walks, failures);
        let mut buf = Vec::new();
        let mut lines = Vec::with_capacity(walks.len());
        let first = self.file.is_none();
        if first {
            buf.extend_from_slice(self.header()?.as_bytes());
        }
        let header_len = buf.len();
        for walk in walks {
            let at = self.len + buf.len();
            let line = json_line(walk)?;
            buf.extend_from_slice(line.as_bytes());
            lines.push((walk.walk_id, at..at + line.len()));
        }
        let delta = truth_delta(&self.truth, truth);
        buf.extend_from_slice(commit_line(failures, &delta)?.as_bytes());

        let written = match self.file.as_mut() {
            Some(file) => file
                .write_all(&buf)
                .map_err(|e| CcError::io(self.path.display().to_string(), e)),
            None => write_atomic(&self.path, &buf).map(|file| self.file = Some(file)),
        };
        if let Err(e) = written {
            self.failed = true;
            return Err(e);
        }
        if first {
            self.header_len = header_len;
        }
        self.lines.extend(lines);
        self.len += buf.len();
        self.failures.absorb(failures);
        self.truth.merge(&delta);
        cc_telemetry::counter("crawl.checkpoint.writes", 1);
        Ok(())
    }

    /// The run's final save: the last `walks` with their `failures`, and
    /// the whole `truth` ledger, rewritten with everything on disk into
    /// the canonical form (see [`CrawlCheckpoint::to_json`]).
    pub fn finish<'w>(
        self,
        base: &'w CrawlDataset,
        walks: impl IntoIterator<Item = &'w WalkRecord>,
        failures: FailureStats,
        truth: &TruthLog,
    ) -> Result<(), CcError> {
        if self.failed {
            return Err(self.refused());
        }
        let _span = cc_telemetry::span("checkpoint.finish");
        let (walks, failures) = self.batch(base, walks, failures);
        let (disk, header_len) = match self.file {
            Some(_) => {
                let disk = std::fs::read(&self.path)
                    .map_err(|e| CcError::io(self.path.display().to_string(), e))?;
                if disk.len() < self.len {
                    return Err(CcError::Checkpoint(format!(
                        "{}: shrank from {} to {} bytes under its writer",
                        self.path.display(),
                        self.len,
                        disk.len()
                    )));
                }
                (disk, self.header_len)
            }
            None => {
                let header = self.header()?;
                let len = header.len();
                (header.into_bytes(), len)
            }
        };
        let fresh: Vec<(u32, String)> = walks
            .iter()
            .map(|w| Ok((w.walk_id, json_line(w)?)))
            .collect::<Result<_, CcError>>()?;
        let mut lines: Vec<(u32, &[u8])> = self
            .lines
            .iter()
            .map(|(id, range)| (*id, &disk[range.clone()]))
            .chain(fresh.iter().map(|(id, line)| (*id, line.as_bytes())))
            .collect();
        lines.sort_unstable_by_key(|(id, _)| *id);
        let mut totals = self.failures;
        totals.absorb(failures);
        let commit = commit_line(totals, truth)?;

        let size = header_len + lines.iter().map(|(_, l)| l.len()).sum::<usize>() + commit.len();
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(&disk[..header_len]);
        for (_, line) in lines {
            out.extend_from_slice(line);
        }
        out.extend_from_slice(commit.as_bytes());
        write_atomic(&self.path, &out)?;
        cc_telemetry::counter("crawl.checkpoint.writes", 1);
        Ok(())
    }

    /// The walks and failure counters a save writes: the first save adds
    /// the resume base's.
    fn batch<'w>(
        &self,
        base: &'w CrawlDataset,
        walks: impl IntoIterator<Item = &'w WalkRecord>,
        mut failures: FailureStats,
    ) -> (Vec<&'w WalkRecord>, FailureStats) {
        let mut batch = Vec::new();
        if self.file.is_none() {
            batch.extend(&base.walks);
            failures.absorb(base.failures);
        }
        batch.extend(walks);
        (batch, failures)
    }

    fn header(&self) -> Result<String, CcError> {
        header_line(&self.study, self.study.total_walks())
    }

    fn refused(&self) -> CcError {
        CcError::Checkpoint(format!(
            "{}: an earlier save failed; the log stays at its last commit",
            self.path.display()
        ))
    }
}

/// The entries of `now` that `committed` lacks or labels differently.
/// Labels only ever rise in precedence, so merging the delta into
/// `committed` yields `now`.
fn truth_delta(committed: &TruthLog, now: &TruthLog) -> TruthLog {
    let mut delta = TruthLog::new();
    for (value, label) in now.iter() {
        if committed.get(value) != Some(label) {
            delta.note(value, label);
        }
    }
    delta
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

    /// A scratch directory unique to this test process.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
        assert_eq!(back.study, ck.study);
        assert_eq!(back.partial, ck.partial);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let ck = CrawlCheckpoint::new(&study(), CrawlDataset::default(), TruthLog::new());
        let json = ck
            .to_json()
            .unwrap()
            .replace(CHECKPOINT_SCHEMA, "cc-checkpoint/v0");
        let err = CrawlCheckpoint::from_json(&json).unwrap_err();
        assert!(matches!(err, CcError::Checkpoint(_)), "{err}");

        // A v1 checkpoint was one JSON object; it is refused by its schema.
        let v1 = format!(
            "{{\"schema\":\"cc-checkpoint/v1\",\"study\":{},\"total_walks\":5,\
             \"partial\":{},\"truth\":{}}}",
            serde_json::to_string(&study()).unwrap(),
            CrawlDataset::default().to_json().unwrap(),
            serde_json::to_string(&TruthLog::new()).unwrap()
        );
        match CrawlCheckpoint::from_json(&v1) {
            Err(CcError::Checkpoint(msg)) => assert!(
                msg.contains("cc-checkpoint/v1") && msg.contains(CHECKPOINT_SCHEMA),
                "{msg}"
            ),
            other => panic!("a v1 checkpoint loaded: {other:?}"),
        }
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
    fn repeated_or_foreign_walks_are_refused_in_memory_and_on_disk() {
        let dir = scratch("cc-checkpoint-walk-ids");
        for (ids, id, why) in [
            (&[0u32, 1, 2, 1][..], 1, "appears twice"),
            (&[0, 7][..], 7, "outside the study"),
        ] {
            let partial = CrawlDataset {
                walks: ids.iter().map(|&i| walk(i)).collect(),
                ..CrawlDataset::default()
            };
            let ck = CrawlCheckpoint::new(&study(), partial, TruthLog::new());
            match ck.validate_against(&study()) {
                Err(CcError::Checkpoint(msg)) => {
                    assert!(
                        msg.contains(&format!("walk {id} ")) && msg.contains(why),
                        "{msg}"
                    )
                }
                other => panic!("{ids:?}: expected a checkpoint error, got {other:?}"),
            }
            // The same walks in a file (the canonical writer sorts them).
            let path = dir.join(format!("walks-{id}.ccp"));
            std::fs::write(&path, ck.to_json().unwrap()).unwrap();
            let line = ids.iter().filter(|&&i| i <= id).count() + 1;
            match CrawlCheckpoint::load(&path) {
                Err(CcError::Checkpoint(msg)) => assert!(
                    msg.contains(&path.display().to_string())
                        && msg.contains(&format!("line {line}:"))
                        && msg.contains(&format!("walk {id} "))
                        && msg.contains(why),
                    "{msg}"
                ),
                other => panic!("{ids:?}: expected a checkpoint error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
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
        let mut damaged: Vec<(String, Vec<u8>)> = [0, 1, n / 4, n / 2]
            .into_iter()
            .map(|cut| {
                (
                    format!("cut-at-{cut}.json"),
                    json.as_bytes()[..cut].to_vec(),
                )
            })
            .collect();
        damaged.push((
            "garbage.json".into(),
            (0..=255u8).cycle().take(4096).collect(),
        ));
        // A complete line that is not a walk or a commit.
        let walk_line = json.lines().nth(1).unwrap();
        damaged.push((
            "bad-line.json".into(),
            json.replacen(walk_line, "{\"walk_id\":0,\"seeder\"", 1)
                .into_bytes(),
        ));
        for (name, bytes) in damaged {
            let path = dir.join(&name);
            std::fs::write(&path, bytes).unwrap();
            match CrawlCheckpoint::load(&path) {
                Err(CcError::Checkpoint(msg)) => {
                    assert!(msg.contains(&path.display().to_string()), "{name}: {msg}");
                    if name == "bad-line.json" {
                        assert!(msg.contains("line 2:"), "{name}: {msg}");
                    }
                }
                other => panic!("{name}: expected a checkpoint error, got {other:?}"),
            }
        }
        // Cut one byte short of the end, the file loses only the commit
        // line's newline: a torn append, so nothing is committed.
        let path = dir.join("cut-before-the-last-newline.json");
        std::fs::write(&path, &json.as_bytes()[..n - 1]).unwrap();
        let ck = CrawlCheckpoint::load(&path).unwrap();
        assert!(ck.partial.walks.is_empty() && ck.truth.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hostile lines: a real walk line, cut anywhere or with any one byte
    /// changed, and then committed, loads as an error naming line 2, or as
    /// the walk its `Value` tree decodes to. Nothing panics. The walk is
    /// trimmed to its first observation and two beacons, so every cut and
    /// change can be tried.
    #[test]
    fn every_cut_and_byte_change_of_a_walk_line_is_an_error_or_the_tree_s_walk() {
        use cc_web::{generate, WebConfig};

        let study = StudyConfig::builder()
            .web(WebConfig::small())
            .seed(7)
            .steps(1)
            .walks(5)
            .failure_rate(0.0)
            .build()
            .unwrap();
        let web = generate(&study.web);
        let mut walk = crate::crawl_study(&web, &study)
            .unwrap()
            .walks
            .swap_remove(0);
        let step = &mut walk.steps[0];
        step.observations.truncate(1);
        step.observations[0].beacons.truncate(2);
        let line = serde_json::to_string(&walk).unwrap();
        let head = header_line(&study, study.total_walks()).unwrap();
        let commit = commit_line(FailureStats::default(), &TruthLog::new()).unwrap();
        let load = |line: &[u8]| {
            let mut bytes = head.as_bytes().to_vec();
            bytes.extend_from_slice(line);
            bytes.push(b'\n');
            bytes.extend_from_slice(commit.as_bytes());
            CrawlCheckpoint::parse(&bytes)
        };
        let refused = |what: &str, got: Result<CrawlCheckpoint, String>| match got {
            Err(msg) => assert!(msg.starts_with("line 2: "), "{what}: {msg}"),
            Ok(_) => panic!("{what} loaded"),
        };
        assert_eq!(load(line.as_bytes()).unwrap().partial.walks, [walk]);

        for cut in 0..line.len() {
            refused(&format!("cut at {cut}"), load(&line.as_bytes()[..cut]));
        }
        for at in 0..line.len() {
            for &b in b"\"\\{}[]:,0a\x00\xff"
                .iter()
                .filter(|&&b| b != line.as_bytes()[at])
            {
                let mut changed = line.clone().into_bytes();
                changed[at] = b;
                let what = format!("byte {at} set to {b:#04x}");
                match load(&changed) {
                    Ok(ck) => {
                        let text = std::str::from_utf8(&changed).unwrap();
                        let tree: Value = serde_json::from_str(text).unwrap();
                        let want: WalkRecord = serde_json::from_value(tree).unwrap();
                        assert_eq!(ck.partial.walks, [want], "{what}");
                    }
                    got => refused(&what, got),
                }
            }
        }
        let deep = format!(
            "{{\"x\":{}{},{}",
            "[".repeat(100_000),
            "]".repeat(100_000),
            &line[1..]
        );
        refused("deep nesting", load(deep.as_bytes()));
    }

    /// The crash contract: a log cut anywhere after its header loads as
    /// its last complete commit, and resuming from it gives the
    /// uninterrupted run's bytes.
    #[test]
    fn a_cut_log_loads_as_its_last_commit_and_resumes_to_the_same_bytes() {
        use crate::{crawl_study, StudyRun};
        use cc_web::{generate, WebConfig};

        let study = StudyConfig::builder()
            .web(WebConfig::small())
            .seed(7)
            .steps(3)
            .walks(16)
            .failure_rate(0.1)
            .workers(2)
            .build()
            .unwrap();
        let reference = crawl_study(&generate(&study.web), &study)
            .unwrap()
            .to_json()
            .unwrap();

        // Three batches of four walks, written through the writer, with
        // the checkpoint each commit stands for.
        let dir = scratch("cc-checkpoint-crash");
        let path = dir.join("log.ccp");
        let web = generate(&study.web);
        let mut log = CheckpointLog::new(&study, &path);
        let mut commits = vec![(
            0usize,
            CrawlCheckpoint::new(&study, CrawlDataset::default(), TruthLog::new()),
        )];
        let mut so_far = CrawlDataset::default();
        for batch in [0u32..4, 4..8, 8..12] {
            let ids: Vec<u32> = batch.collect();
            let shard = StudyRun::new(&web, &study).lease(&ids).unwrap();
            let truth = web.truth_snapshot();
            log.append(
                &CrawlDataset::default(),
                &shard.walks,
                shard.failures,
                &truth,
            )
            .unwrap();
            so_far = CrawlDataset::merge([so_far, shard]);
            let end = std::fs::metadata(&path).unwrap().len() as usize;
            commits.push((end, CrawlCheckpoint::new(&study, so_far.clone(), truth)));
        }
        let bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let last_batch = commits[2].0;

        let mut cuts: Vec<usize> = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                let boundary = i + 1;
                cuts.extend([boundary - 1, boundary, boundary + 1]);
            }
        }
        cuts.extend((last_batch..bytes.len()).step_by(997));
        cuts.retain(|&c| c + 1 >= header_end && c <= bytes.len());
        cuts.sort_unstable();
        cuts.dedup();

        let mut resumed: Vec<usize> = Vec::new();
        for cut in cuts {
            let cut_path = dir.join(format!("cut-{cut}.ccp"));
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let ck = CrawlCheckpoint::load(&cut_path)
                .unwrap_or_else(|e| panic!("cut at {cut} of {}: {e}", bytes.len()));
            let (_, expected) = commits.iter().rev().find(|(end, _)| *end <= cut).unwrap();
            assert_eq!(
                &ck, expected,
                "cut at {cut} loaded something other than its last commit"
            );
            // Resume once per distinct commit: every other cut loaded an
            // equal checkpoint.
            let walks = ck.partial.walks.len();
            if !resumed.contains(&walks) {
                resumed.push(walks);
                let web = generate(&study.web);
                let ds = StudyRun::new(&web, &study).resume(ck).run().unwrap();
                assert_eq!(
                    ds.to_json().unwrap(),
                    reference,
                    "resume from the cut at {cut}"
                );
            }
            std::fs::remove_file(&cut_path).ok();
        }
        assert_eq!(
            resumed.len(),
            commits.len(),
            "every commit was a cut's last commit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
