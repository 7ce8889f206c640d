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
//!   batch's [`FailureStats`] and the truth its walks minted (the first
//!   batch of a resumed run adds the resume base's walks and truth). The
//!   loader merges the commits' ledgers, as `TruthLog::merge` commutes.
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
//! canonical form: the header, the walks in id order, and one commit line
//! holding the whole ledger. A running crawl writes through the log of
//! its [`WalkSinks`](crate::WalkSinks) instead, which pays only for the
//! walks added since its previous save and their truth, and ends with the
//! same canonical form. Nothing is fsynced: appends and rewrites alike reach the page
//! cache and no further.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
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

    /// Fold a later delta of the same crawl into this snapshot: its walks
    /// move in (kept in id order), and its failure counters and truth are
    /// added. This is how the deltas a [`SnapshotSink`] receives merge
    /// back into the study they came from.
    ///
    /// [`SnapshotSink`]: crate::SnapshotSink
    pub fn absorb(&mut self, delta: CrawlCheckpoint) {
        let partial = std::mem::take(&mut self.partial);
        self.partial = CrawlDataset::merge([partial, delta.partial]);
        self.truth.absorb(delta.truth);
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

/// The `.tmp` sibling a rewrite of `path` goes through.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Write `bytes` to a `.tmp` sibling of `path` and rename it over `path`.
/// Returns the open file, positioned at its end, for later appends.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<File, CcError> {
    let tmp = tmp_path(path);
    let io = |e: std::io::Error| CcError::io(tmp.display().to_string(), e);
    let mut file = File::create(&tmp).map_err(io)?;
    file.write_all(bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(|e| CcError::io(path.display().to_string(), e))?;
    Ok(file)
}

/// The one writer of a running crawl's checkpoint: [`WalkSinks`] saves
/// through it, whether its batches come from [`StudyRun`]'s workers or
/// from the cc-gaggle manager's leases.
///
/// * The run's first save writes the header, the resume base and the
///   first batch atomically (temp file + rename), so the checkpoint being
///   resumed survives until its successor is whole.
/// * Each later save appends one batch: the new walks' lines, then a
///   commit line with their failure counters and the truth they minted.
///   A save costs what its batch holds, never what the file holds.
/// * [`CheckpointLog::finish`] rewrites the canonical form atomically,
///   streaming the walk lines already on disk in id order from the old
///   file into the new one rather than re-encoding them or holding
///   either file in memory. A finished checkpoint therefore equals
///   [`CrawlCheckpoint::to_json`] of its own load.
///
/// A failed save leaves the file at its last commit (a torn batch is
/// dropped on load) and refuses every later save.
///
/// [`StudyRun`]: crate::StudyRun
/// [`WalkSinks`]: crate::WalkSinks
#[derive(Debug)]
pub(crate) struct CheckpointLog {
    path: PathBuf,
    study: StudyConfig,
    /// Open from the first save on.
    file: Option<File>,
    /// Bytes of the file through its last commit.
    len: usize,
    header_len: usize,
    /// Each walk line on disk: its id and its byte range, newline included.
    lines: Vec<(u32, Range<usize>)>,
    failures: FailureStats,
    failed: bool,
}

impl CheckpointLog {
    /// A log for a run of `study` at `path`. Nothing is written until the
    /// first save.
    pub(crate) fn new(study: &StudyConfig, path: impl Into<PathBuf>) -> CheckpointLog {
        CheckpointLog {
            path: path.into(),
            study: study.clone(),
            file: None,
            len: 0,
            header_len: 0,
            lines: Vec::new(),
            failures: FailureStats::default(),
            failed: false,
        }
    }

    /// Save one batch: `walks` (completed since the previous save) with
    /// their `failures` and `truth`, the ledger entries those walks
    /// minted. `base` is the run's resume base; only the first save
    /// writes its walks, failures and truth.
    pub(crate) fn append<'w>(
        &mut self,
        base: &'w CrawlCheckpoint,
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
        let commit = if first && !base.truth.is_empty() {
            let mut with_base = base.truth.clone();
            with_base.merge(truth);
            commit_line(failures, &with_base)?
        } else {
            commit_line(failures, truth)?
        };
        buf.extend_from_slice(commit.as_bytes());

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
        Ok(())
    }

    /// The run's final save: the last `walks` with their `failures`, and
    /// the whole `truth` ledger, which the canonical commit holds. The
    /// walk lines already on disk are copied by byte range, in id order,
    /// from the old file into a buffered temp file that is then renamed
    /// over it (see [`CrawlCheckpoint::to_json`] for the form).
    pub(crate) fn finish<'w>(
        self,
        base: &'w CrawlCheckpoint,
        walks: impl IntoIterator<Item = &'w WalkRecord>,
        failures: FailureStats,
        truth: &TruthLog,
    ) -> Result<(), CcError> {
        if self.failed {
            return Err(self.refused());
        }
        let _span = cc_telemetry::span("checkpoint.finish");
        let (walks, failures) = self.batch(base, walks, failures);
        let fresh: Vec<(u32, String)> = walks
            .iter()
            .map(|w| Ok((w.walk_id, json_line(w)?)))
            .collect::<Result<_, CcError>>()?;
        // Every walk line in id order.
        let mut lines: Vec<(u32, Line)> = self
            .lines
            .iter()
            .map(|(id, range)| (*id, Line::OnDisk(range.clone())))
            .chain(fresh.iter().map(|(id, line)| (*id, Line::Fresh(line))))
            .collect();
        lines.sort_unstable_by_key(|(id, _)| *id);
        let mut totals = self.failures;
        totals.absorb(failures);
        let commit = commit_line(totals, truth)?;

        let tmp = tmp_path(&self.path);
        let written = self.stream_canonical(&tmp, &lines, &commit);
        if written.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        written?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| CcError::io(self.path.display().to_string(), e))
    }

    /// Write the canonical form to `tmp`: the header, the walk lines in
    /// `lines`' order, then `commit`.
    fn stream_canonical(
        &self,
        tmp: &Path,
        lines: &[(u32, Line)],
        commit: &str,
    ) -> Result<(), CcError> {
        let at_tmp = |e: std::io::Error| CcError::io(tmp.display().to_string(), e);
        let at_log = |e: std::io::Error| CcError::io(self.path.display().to_string(), e);
        let mut out = BufWriter::new(File::create(tmp).map_err(at_tmp)?);
        let mut old = match self.file {
            Some(_) => {
                let file = File::open(&self.path).map_err(at_log)?;
                let on_disk = file.metadata().map_err(at_log)?.len() as usize;
                if on_disk < self.len {
                    return Err(CcError::Checkpoint(format!(
                        "{}: shrank from {} to {} bytes under its writer",
                        self.path.display(),
                        self.len,
                        on_disk
                    )));
                }
                let mut old = LineCopier {
                    old: BufReader::new(file),
                    at: 0,
                    buf: Vec::new(),
                    path: &self.path,
                };
                old.copy(0..self.header_len, &mut out, at_tmp)?;
                Some(old)
            }
            None => {
                out.write_all(self.header()?.as_bytes()).map_err(at_tmp)?;
                None
            }
        };
        for (_, line) in lines {
            match (line, old.as_mut()) {
                (Line::OnDisk(range), Some(old)) => old.copy(range.clone(), &mut out, at_tmp)?,
                (Line::OnDisk(_), None) => unreachable!("walk lines on disk imply an open log"),
                (Line::Fresh(fresh), _) => out.write_all(fresh.as_bytes()).map_err(at_tmp)?,
            }
        }
        out.write_all(commit.as_bytes()).map_err(at_tmp)?;
        out.flush().map_err(at_tmp)
    }

    /// The walks and failure counters a save writes: the first save adds
    /// the resume base's.
    fn batch<'w>(
        &self,
        base: &'w CrawlCheckpoint,
        walks: impl IntoIterator<Item = &'w WalkRecord>,
        mut failures: FailureStats,
    ) -> (Vec<&'w WalkRecord>, FailureStats) {
        let mut batch = Vec::new();
        if self.file.is_none() {
            batch.extend(&base.partial.walks);
            failures.absorb(base.partial.failures);
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

/// One walk line of the canonical rewrite.
enum Line<'a> {
    /// A byte range of the log on disk, newline included.
    OnDisk(Range<usize>),
    /// A line encoded by the final save.
    Fresh(&'a str),
}

/// Copies walk lines from the log on disk into its canonical rewrite.
struct LineCopier<'a> {
    old: BufReader<File>,
    /// `old`'s read position: a range that starts here is read without a
    /// seek, so lines laid out in id order stream sequentially.
    at: usize,
    buf: Vec<u8>,
    path: &'a Path,
}

impl LineCopier<'_> {
    /// Copy bytes `range` of the old file to `out`, whose errors `at_out`
    /// names.
    fn copy(
        &mut self,
        range: Range<usize>,
        out: &mut impl Write,
        at_out: impl Fn(std::io::Error) -> CcError,
    ) -> Result<(), CcError> {
        let at_old = |e: std::io::Error| CcError::io(self.path.display().to_string(), e);
        if range.start != self.at {
            self.old
                .seek(SeekFrom::Start(range.start as u64))
                .map_err(at_old)?;
        }
        self.buf.resize(range.len(), 0);
        self.old.read_exact(&mut self.buf).map_err(at_old)?;
        self.at = range.end;
        out.write_all(&self.buf).map_err(at_out)
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

    /// A log cut shorter under its writer is refused at `finish`, by
    /// path, and the truncated file is left as it is.
    #[test]
    fn a_log_truncated_under_its_writer_is_refused_at_finish() {
        let dir = scratch("cc-checkpoint-shrank");
        let path = dir.join("log.ccp");
        let fresh = CrawlCheckpoint::new(&study(), CrawlDataset::default(), TruthLog::new());
        let mut log = CheckpointLog::new(&study(), &path);
        log.append(
            &fresh,
            &[walk(0), walk(1)],
            FailureStats::default(),
            &TruthLog::new(),
        )
        .unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 10)
            .unwrap();
        match log.finish(
            &fresh,
            &[walk(2)],
            FailureStats::default(),
            &TruthLog::new(),
        ) {
            Err(CcError::Checkpoint(msg)) => assert!(
                msg.contains(&path.display().to_string()) && msg.contains("shrank"),
                "{msg}"
            ),
            other => panic!("a truncated log finished: {other:?}"),
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 10);
        assert!(
            !tmp_path(&path).exists(),
            "the refused rewrite left its temp file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A resumed run's first save writes the resume base's walks and
    /// truth with its own batch, and each later commit only its batch's.
    #[test]
    fn commits_hold_their_batch_s_truth_and_the_first_the_base_s() {
        let dir = scratch("cc-checkpoint-batch-truth");
        let path = dir.join("log.ccp");
        let label = |v: &str, t| {
            let mut log = TruthLog::new();
            log.note(v, t);
            log
        };
        let mut base = CrawlCheckpoint::new(&study(), CrawlDataset::default(), TruthLog::new());
        base.partial.walks.push(walk(0));
        base.truth = label("base-uid", cc_web::TokenTruth::SessionId);
        let mut log = CheckpointLog::new(&study(), &path);
        let first = label("first", cc_web::TokenTruth::Timestamp);
        let second = label("second", cc_web::TokenTruth::UrlValue);
        log.append(&base, &[walk(1)], FailureStats::default(), &first)
            .unwrap();
        log.append(&base, &[walk(2)], FailureStats::default(), &second)
            .unwrap();
        let bytes = std::fs::read_to_string(&path).unwrap();
        let commits: Vec<&str> = bytes
            .lines()
            .filter(|l| l.starts_with("{\"commit\""))
            .collect();
        assert_eq!(commits.len(), 2);
        assert!(commits[0].contains("base-uid") && commits[0].contains("first"));
        assert!(!commits[1].contains("base-uid") && !commits[1].contains("first"));
        assert!(commits[1].contains("second"));
        let ck = CrawlCheckpoint::load(&path).unwrap();
        assert_eq!(ck.partial.walks.len(), 3);
        assert_eq!(ck.truth.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
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
        let fresh = CrawlCheckpoint::new(&study, CrawlDataset::default(), TruthLog::new());
        let mut commits = vec![(0usize, fresh.clone())];
        let mut so_far = fresh.clone();
        for batch in [0u32..4, 4..8, 8..12] {
            let ids: Vec<u32> = batch.collect();
            let (shard, truth) = StudyRun::new(&web, &study).lease(&ids).unwrap();
            log.append(&fresh, &shard.walks, shard.failures, &truth)
                .unwrap();
            so_far.absorb(CrawlCheckpoint::new(&study, shard, truth));
            let end = std::fs::metadata(&path).unwrap().len() as usize;
            commits.push((end, so_far.clone()));
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
