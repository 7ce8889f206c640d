//! Immutable in-memory indexes over a finished crawl.
//!
//! Built once at startup, never mutated: every fixed endpoint's body is
//! serialized ahead of time and paired with a strong ETag, so serving a
//! hot response is a `BTreeMap` lookup plus a socket write. The only
//! bodies assembled per request are `/smugglers` (parameterized by role
//! and limit, assembled from presliced per-profile JSON rows) and
//! `/metrics` (live telemetry, owned by the server, not this index).
//!
//! The `/report` body is `serde_json::to_string` of the same
//! [`AnalysisReport`] the offline `report` command serializes from the
//! same checkpoint — both paths are deterministic, so the served bytes
//! are verifiable against the offline artifact.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

use cc_analysis::report::{full_report, full_report_in, AnalysisReport, ReportSection};
use cc_analysis::{classify_redirectors, RedirectorClass};
use cc_core::pipeline::PipelineOutput;
use cc_core::{Chunks, WalkExtract};
use cc_crawler::{CrawlCheckpoint, CrawlDataset, WalkRecord};
use cc_http::date::format_http_date;
use cc_net::SimTime;
use cc_util::CcError;
use cc_web::{generate, SimWeb};

/// The serving schema identifier (in `/healthz` and `/catalog`).
pub const SERVE_SCHEMA: &str = "cc-serve/v1";

/// The instant epoch 0 maps to in `Last-Modified` headers: midnight GMT,
/// 1 Nov 2022 (the month the source paper appeared at IMC). Epochs are
/// logical, not wall-clock, so the header must be a *deterministic*
/// function of the epoch number — each epoch advances it by one second,
/// which keeps the `X-Cc-Epoch`/`Last-Modified` pair monotone without
/// reading a real clock anywhere in the serving path.
const EPOCH_BASE_UNIX_SECS: u64 = 1_667_260_800;

/// The deterministic `Last-Modified` value for an epoch.
pub fn last_modified_for_epoch(epoch: u64) -> String {
    let secs = EPOCH_BASE_UNIX_SECS.saturating_add(epoch);
    format_http_date(SimTime(secs.saturating_mul(1_000)))
}

/// Strong ETag for a body: FNV-1a over the bytes, quoted per RFC 9110.
pub fn etag_for(body: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in body.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    format!("\"{hash:016x}\"")
}

/// A precomputed response body and its strong ETag.
#[derive(Debug, Clone)]
pub struct CachedBody {
    /// The serialized JSON body.
    pub body: String,
    /// Strong ETag (`"<fnv64-hex>"`).
    pub etag: String,
}

impl CachedBody {
    fn new(body: String) -> CachedBody {
        let etag = etag_for(&body);
        CachedBody { body, etag }
    }
}

/// A walk's `/walks/{id}` body.
fn walk_body(walk: &WalkRecord) -> Result<CachedBody, CcError> {
    serde_json::to_string(walk)
        .map(CachedBody::new)
        .map_err(|e| CcError::Serde(e.to_string()))
}

/// `per_walk` over `walks` in at most `chunks` chunks, in walk order.
fn map_walks<W: Sync, T: Send>(
    walks: &[W],
    chunks: Chunks,
    per_walk: impl Fn(&W) -> Result<T, CcError> + Sync,
) -> Result<Vec<T>, CcError> {
    let mut out = Vec::with_capacity(walks.len());
    for part in chunks.map(walks, |part| {
        part.iter().map(&per_walk).collect::<Result<Vec<_>, _>>()
    }) {
        out.extend(part?);
    }
    Ok(out)
}

/// The per-walk work a fold keeps across epochs, keyed by walk id: each
/// walk's pipeline extraction and its `/walks/{id}` body. Sound because
/// a walk is a pure function of `(study, walk_id)` and the incremental
/// builder refuses snapshots of another study.
#[derive(Debug, Default)]
pub(crate) struct FoldCache {
    walks: HashMap<u32, CachedWalk>,
}

#[derive(Debug)]
struct CachedWalk {
    extract: WalkExtract,
    body: CachedBody,
}

/// Which smuggler class `/smugglers` filters to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmugglerRole {
    /// Dedicated smugglers only (`role=dedicated`).
    Dedicated,
    /// Multi-purpose smugglers only (`role=multi`).
    Multi,
}

impl SmugglerRole {
    /// Parse the `role` query parameter value.
    pub fn parse(s: &str) -> Option<SmugglerRole> {
        match s {
            "dedicated" => Some(SmugglerRole::Dedicated),
            "multi" => Some(SmugglerRole::Multi),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            SmugglerRole::Dedicated => "dedicated",
            SmugglerRole::Multi => "multi",
        }
    }
}

/// The immutable route table: every fixed path's precomputed body, plus
/// the presliced rows `/smugglers` responses are assembled from.
///
/// An index is one **epoch** of a (possibly still running) crawl: it
/// carries its epoch number, the deterministic `Last-Modified` value
/// derived from it, and the walk total of the study it indexes, so
/// `/progress` can report walks-indexed vs walks-total without any
/// mutable state. Epoch metadata never reaches the cached bodies — the
/// final epoch of a followed crawl is byte-identical to an offline
/// build over the same walks.
#[derive(Debug)]
pub struct ServingIndex {
    routes: BTreeMap<String, CachedBody>,
    dedicated_rows: Vec<String>,
    multi_rows: Vec<String>,
    walks: usize,
    findings: usize,
    epoch: u64,
    last_modified: String,
    total_walks: usize,
}

impl ServingIndex {
    /// Load a checkpoint from disk and build the index. The simulated
    /// web is regenerated from the embedded [`StudyConfig`]
    /// (deterministic) and the pipeline + report rerun over the
    /// checkpointed walks, so the served report is identical to the one
    /// the offline `report` command produces from the same file.
    ///
    /// [`StudyConfig`]: cc_crawler::StudyConfig
    pub fn from_checkpoint_path(path: impl AsRef<Path>) -> Result<ServingIndex, CcError> {
        let ck = CrawlCheckpoint::load(path)?;
        Self::from_checkpoint(&ck, 1)
    }

    /// Build one epoch from an in-memory checkpoint snapshot: the web is
    /// regenerated from the embedded config, the checkpointed truth
    /// ledger restored, and the pipeline + report rerun over the
    /// snapshotted walks. This is a fold with an empty cache — the same
    /// routine followed crawls fold every published snapshot through,
    /// which is what makes the final followed epoch byte-identical to
    /// the offline index.
    pub fn from_checkpoint(ck: &CrawlCheckpoint, epoch: u64) -> Result<ServingIndex, CcError> {
        let web = generate(&ck.study.web);
        Self::fold_with_web(&web, ck, epoch)
    }

    /// [`Self::from_checkpoint`] over a caller-owned world. Absorbing a
    /// snapshot's truth ledger is monotone and idempotent (each
    /// snapshot's ledger is a superset of the previous one's), so a
    /// world reused across epochs converges to exactly the ledger a
    /// fresh [`generate`] + absorb of the same snapshot yields.
    pub fn fold_with_web(
        web: &SimWeb,
        ck: &CrawlCheckpoint,
        epoch: u64,
    ) -> Result<ServingIndex, CcError> {
        Self::fold(web, ck, epoch, &mut FoldCache::default(), false)
    }

    /// The one fold routine. Extracts and encodes only the walks `cache`
    /// lacks, then runs classification, the report and the remaining
    /// routes over every walk of the snapshot. With `keep`, the cache
    /// keeps its entries and the epoch gets copies; without, the epoch
    /// takes them (the last fold of a crawl, or a fold with no cache).
    ///
    /// A fold of a complete snapshot (`serve --load`, a crawl's last
    /// epoch) spreads its walks and its report over every core. A fold
    /// of an incomplete one stays on the calling thread: it runs beside
    /// the crawl, which already holds the cores, and helper threads there
    /// raised peak RSS by one more malloc arena's worth of freed memory.
    pub(crate) fn fold(
        web: &SimWeb,
        ck: &CrawlCheckpoint,
        epoch: u64,
        cache: &mut FoldCache,
        keep: bool,
    ) -> Result<ServingIndex, CcError> {
        // A repeated walk id would alias one cache entry.
        ck.validate_against(&ck.study)?;
        // The regenerated world's ledger is empty (truth accumulates
        // during the crawl); restore the checkpointed ledger so
        // ground-truth-scored sections (species evasion) serve the same
        // bytes as the offline report of the original run.
        web.absorb_truth(&ck.truth);
        let walks = &ck.partial.walks;
        let chunks = if walks.len() >= ck.total_walks {
            Chunks::available()
        } else {
            Chunks::ONE
        };
        let missing: Vec<&WalkRecord> = walks
            .iter()
            .filter(|w| !cache.walks.contains_key(&w.walk_id))
            .collect();
        let fresh = map_walks(&missing, chunks, |walk| {
            let entry = CachedWalk {
                extract: cc_core::extract_walk(walk),
                body: walk_body(walk)?,
            };
            Ok((walk.walk_id, entry))
        })?;
        cache.walks.extend(fresh);
        let (output, bodies) = if keep {
            let cached = |w: &WalkRecord| &cache.walks[&w.walk_id];
            let output =
                cc_core::classify_walks(walks.iter().map(|w| Cow::Borrowed(&cached(w).extract)));
            let bodies: Vec<_> = walks
                .iter()
                .map(|w| (w.walk_id, cached(w).body.clone()))
                .collect();
            (output, bodies)
        } else {
            let mut extracts = Vec::with_capacity(walks.len());
            let mut bodies = Vec::with_capacity(walks.len());
            for walk in walks {
                let taken = cache
                    .walks
                    .remove(&walk.walk_id)
                    .expect("every walk was cached above");
                extracts.push(Cow::Owned(taken.extract));
                bodies.push((walk.walk_id, taken.body));
            }
            (cc_core::classify_walks(extracts), bodies)
        };
        let report = full_report_in(web, &ck.partial, &output, chunks);
        let mut index = Self::assemble(&report, &output, bodies)?;
        index.set_epoch(epoch, ck.total_walks);
        Ok(index)
    }

    /// Build the index from an already-materialized study (epoch 1).
    pub fn build(
        web: &SimWeb,
        dataset: &CrawlDataset,
        output: &PipelineOutput,
    ) -> Result<ServingIndex, CcError> {
        let report = full_report(web, dataset, output);
        Self::from_report(&report, dataset, output)
    }

    /// Build the index from a prebuilt report (the report must come from
    /// the same dataset/output pair), encoding the walk bodies on every
    /// core ([`Self::from_report_in`] with [`Chunks::available`]).
    pub fn from_report(
        report: &AnalysisReport,
        dataset: &CrawlDataset,
        output: &PipelineOutput,
    ) -> Result<ServingIndex, CcError> {
        Self::from_report_in(report, dataset, output, Chunks::available())
    }

    /// [`Self::from_report`] with the `/walks/{id}` bodies encoded in at
    /// most `chunks` walk chunks.
    pub fn from_report_in(
        report: &AnalysisReport,
        dataset: &CrawlDataset,
        output: &PipelineOutput,
        chunks: Chunks,
    ) -> Result<ServingIndex, CcError> {
        let bodies = map_walks(&dataset.walks, chunks, |w| Ok((w.walk_id, walk_body(w)?)))?;
        Self::assemble(report, output, bodies)
    }

    /// Every route from the report, the pipeline output and the walks'
    /// `/walks/{id}` bodies (in walk order).
    fn assemble(
        report: &AnalysisReport,
        output: &PipelineOutput,
        walk_bodies: impl IntoIterator<Item = (u32, CachedBody)>,
    ) -> Result<ServingIndex, CcError> {
        let serde = |e: serde_json::Error| CcError::Serde(e.to_string());
        let mut routes: BTreeMap<String, CachedBody> = BTreeMap::new();

        let report_json = serde_json::to_string(report).map_err(serde)?;
        routes.insert("/report".into(), CachedBody::new(report_json));
        for section in ReportSection::ALL {
            routes.insert(
                format!("/report/{}", section.slug()),
                CachedBody::new(report.section_json(section)?),
            );
        }

        // One route per walk id.
        let mut walk_ids: Vec<String> = Vec::new();
        for (id, body) in walk_bodies {
            routes.insert(format!("/walks/{id}"), body);
            walk_ids.push(id.to_string());
        }

        // UID findings grouped under every registered domain they touch
        // (originator, redirectors, destination), so `/uids/{domain}`
        // answers "what does this domain smuggle or receive?".
        let mut finding_rows: Vec<String> = Vec::with_capacity(output.findings.len());
        let mut by_domain: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in output.findings.iter().enumerate() {
            finding_rows.push(serde_json::to_string(f).map_err(serde)?);
            let mut domains: BTreeSet<&str> = BTreeSet::new();
            domains.insert(f.origin.as_str());
            if let Some(d) = &f.destination {
                domains.insert(d.as_str());
            }
            for r in &f.redirectors {
                domains.insert(r.as_str());
            }
            for d in domains {
                by_domain.entry(d).or_default().push(i);
            }
        }
        for (domain, indices) in &by_domain {
            let rows: Vec<&str> = indices.iter().map(|&i| finding_rows[i].as_str()).collect();
            let body = format!(
                "{{\"domain\":{},\"count\":{},\"findings\":[{}]}}",
                serde_json::to_string(domain).map_err(serde)?,
                rows.len(),
                rows.join(",")
            );
            routes.insert(format!("/uids/{domain}"), CachedBody::new(body));
        }

        // Smuggler rows, presliced per role (classify_redirectors returns
        // a deterministic order).
        let mut dedicated_rows = Vec::new();
        let mut multi_rows = Vec::new();
        for profile in classify_redirectors(output) {
            let row = serde_json::to_string(&profile).map_err(serde)?;
            match profile.class {
                RedirectorClass::Dedicated => dedicated_rows.push(row),
                RedirectorClass::MultiPurpose => multi_rows.push(row),
            }
        }

        let walks = walk_ids.len();
        let findings = output.findings.len();
        routes.insert(
            "/healthz".into(),
            CachedBody::new(format!(
                "{{\"status\":\"ok\",\"schema\":\"{SERVE_SCHEMA}\",\"walks\":{walks},\
                 \"findings\":{findings},\"sections\":{}}}",
                ReportSection::ALL.len()
            )),
        );

        // The catalog lists every parameterizable address, so clients
        // (cc-loadgen in particular) can build valid task mixes without
        // guessing ids.
        let section_slugs: Vec<String> = ReportSection::ALL
            .iter()
            .map(|s| format!("\"{}\"", s.slug()))
            .collect();
        let domain_list: Vec<String> = by_domain
            .keys()
            .map(|d| serde_json::to_string(d).map_err(serde))
            .collect::<Result<_, _>>()?;
        routes.insert(
            "/catalog".into(),
            CachedBody::new(format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"sections\":[{}],\"walks\":[{}],\
                 \"domains\":[{}],\"smugglers\":{{\"dedicated\":{},\"multi\":{}}}}}",
                section_slugs.join(","),
                walk_ids.join(","),
                domain_list.join(","),
                dedicated_rows.len(),
                multi_rows.len()
            )),
        );

        Ok(ServingIndex {
            routes,
            dedicated_rows,
            multi_rows,
            walks,
            findings,
            epoch: 1,
            last_modified: last_modified_for_epoch(1),
            total_walks: walks,
        })
    }

    /// Stamp this snapshot's epoch metadata (the incremental builder
    /// numbers epochs; `total` is the study's full walk count so
    /// `/progress` can report indexed-vs-total).
    pub(crate) fn set_epoch(&mut self, epoch: u64, total: usize) {
        self.epoch = epoch;
        self.last_modified = last_modified_for_epoch(epoch);
        self.total_walks = total.max(self.walks);
    }

    /// Look up a precomputed body by exact path.
    pub fn lookup(&self, path: &str) -> Option<&CachedBody> {
        self.routes.get(path)
    }

    /// Every precomputed route, in path order (the byte-identity suites
    /// compare a followed crawl's final epoch against an offline build
    /// route by route).
    pub fn routes(&self) -> impl Iterator<Item = (&str, &CachedBody)> {
        self.routes.iter().map(|(p, b)| (p.as_str(), b))
    }

    /// Assemble a `/smugglers` body: `role = None` means both classes
    /// (dedicated first), `limit` caps the returned rows.
    pub fn smugglers(&self, role: Option<SmugglerRole>, limit: usize) -> CachedBody {
        let rows: Vec<&str> = match role {
            Some(SmugglerRole::Dedicated) => {
                self.dedicated_rows.iter().map(String::as_str).collect()
            }
            Some(SmugglerRole::Multi) => self.multi_rows.iter().map(String::as_str).collect(),
            None => self
                .dedicated_rows
                .iter()
                .chain(self.multi_rows.iter())
                .map(String::as_str)
                .collect(),
        };
        let returned: Vec<&str> = rows.iter().copied().take(limit).collect();
        CachedBody::new(format!(
            "{{\"role\":\"{}\",\"total\":{},\"returned\":{},\"smugglers\":[{}]}}",
            role.map_or("all", SmugglerRole::label),
            rows.len(),
            returned.len(),
            returned.join(",")
        ))
    }

    /// Number of walks indexed.
    pub fn walks(&self) -> usize {
        self.walks
    }

    /// Number of UID findings indexed.
    pub fn findings(&self) -> usize {
        self.findings
    }

    /// This snapshot's epoch number (1 for an offline build; a followed
    /// crawl increments it with every published batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The deterministic `Last-Modified` header value for this epoch.
    pub fn last_modified(&self) -> &str {
        &self.last_modified
    }

    /// Total walks the underlying study comprises (equals [`Self::walks`]
    /// once the crawl has finished).
    pub fn total_walks(&self) -> usize {
        self.total_walks
    }

    /// Whether every walk of the study is indexed.
    pub fn complete(&self) -> bool {
        self.walks >= self.total_walks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{CrawlConfig, Walker};
    use cc_web::WebConfig;

    fn index() -> (ServingIndex, String) {
        let web = generate(&WebConfig::small());
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 5,
                steps_per_walk: 5,
                max_walks: Some(15),
                connect_failure_rate: 0.0,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let out = cc_core::run_pipeline(&ds);
        let report = full_report(&web, &ds, &out);
        let report_json = serde_json::to_string(&report).unwrap();
        (ServingIndex::build(&web, &ds, &out).unwrap(), report_json)
    }

    #[test]
    fn last_modified_starts_at_the_epoch_base() {
        assert_eq!(last_modified_for_epoch(0), "Tue, 01 Nov 2022 00:00:00 GMT");
        assert_eq!(
            last_modified_for_epoch(86_400),
            "Wed, 02 Nov 2022 00:00:00 GMT"
        );
    }

    #[test]
    fn report_body_matches_offline_serialization() {
        let (idx, offline) = index();
        assert_eq!(idx.lookup("/report").unwrap().body, offline);
    }

    #[test]
    fn every_section_slug_is_routable() {
        let (idx, _) = index();
        for s in ReportSection::ALL {
            let cached = idx
                .lookup(&format!("/report/{}", s.slug()))
                .unwrap_or_else(|| panic!("missing route for {}", s.slug()));
            assert!(cached.etag.starts_with('"') && cached.etag.ends_with('"'));
        }
        assert!(idx.lookup("/report/no-such").is_none());
    }

    #[test]
    fn etags_are_strong_and_body_keyed() {
        assert_eq!(etag_for("a"), etag_for("a"));
        assert_ne!(etag_for("a"), etag_for("b"));
        let (idx, _) = index();
        let healthz = idx.lookup("/healthz").unwrap();
        assert_eq!(healthz.etag, etag_for(&healthz.body));
    }

    #[test]
    fn smugglers_assembly_respects_role_and_limit() {
        let (idx, _) = index();
        let all = idx.smugglers(None, usize::MAX);
        let dedicated = idx.smugglers(Some(SmugglerRole::Dedicated), usize::MAX);
        let multi = idx.smugglers(Some(SmugglerRole::Multi), usize::MAX);
        let count = |b: &CachedBody| {
            let v: serde_json::Value = serde_json::from_str(&b.body).unwrap();
            v.as_object()
                .and_then(|o| o.get("smugglers"))
                .and_then(|s| s.as_array())
                .expect("smugglers array")
                .len()
        };
        assert_eq!(count(&all), count(&dedicated) + count(&multi));
        let limited = idx.smugglers(None, 1);
        assert!(count(&limited) <= 1);
        assert!(limited.body.contains("\"role\":\"all\""));
        assert!(dedicated.body.contains("\"role\":\"dedicated\""));
    }

    #[test]
    fn walks_and_domains_are_addressable() {
        let (idx, _) = index();
        assert!(idx.walks() > 0);
        let first = idx.lookup("/walks/0").expect("walk 0 indexed");
        assert!(first.body.contains("\"walk_id\":0"));
        // The catalog's domain list keys the /uids routes.
        let catalog = idx.lookup("/catalog").unwrap();
        assert!(catalog.body.contains("\"sections\":[\"table-1\""));
    }
}
