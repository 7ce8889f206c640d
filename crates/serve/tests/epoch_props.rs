//! Property tests for the epoch/ETag contract.
//!
//! Two load-bearing invariants of the incremental serving design:
//!
//! 1. **Epoch metadata never leaks into bodies.** Folding the *same*
//!    snapshot at any two epoch numbers yields byte-identical bodies and
//!    ETags on every route — only the header metadata (`X-Cc-Epoch`,
//!    `Last-Modified`) tracks the epoch. This is what makes the final
//!    followed epoch byte-identical to an offline build.
//! 2. **ETags are injective across epochs for changed bodies.** Folding
//!    snapshots with different walk sets must change the ETag of every
//!    route whose body changed (and only those), so a caching client can
//!    never revalidate a stale body against a fresh epoch.
//! 3. **The fold cache changes no bytes.** One incremental builder fed
//!    any grouping of consecutive deltas, merged as `IndexPublisher`
//!    merges them, serves after each fold exactly what a fold with an
//!    empty cache serves over their union.

use std::sync::{Arc, Mutex, OnceLock};

use cc_crawler::{CrawlCheckpoint, PublishPolicy, SnapshotSink, StudyConfig, StudyRun};
use cc_serve::{last_modified_for_epoch, IncrementalIndexBuilder, ServingIndex};
use cc_web::{generate, WebConfig};
use proptest::prelude::*;

const WALKS: usize = 10;

/// One crawl, publishing a delta after every walk: the study, the deltas
/// in publish order, and their running unions (`.2[k]` merges the first
/// `k + 1` deltas, so it covers `k + 1` walks). Built once and shared
/// across all proptest cases.
type Deltas = (StudyConfig, Vec<CrawlCheckpoint>, Vec<CrawlCheckpoint>);

fn deltas() -> &'static Deltas {
    static CELL: OnceLock<Deltas> = OnceLock::new();
    CELL.get_or_init(|| {
        struct Rec(Mutex<Vec<CrawlCheckpoint>>);
        impl SnapshotSink for Rec {
            fn publish(&self, snapshot: CrawlCheckpoint) {
                self.0.lock().unwrap().push(snapshot);
            }
        }
        let study = StudyConfig::builder()
            .web(WebConfig::small())
            .seed(5)
            .steps(4)
            .walks(WALKS)
            .workers(1)
            .build()
            .unwrap();
        let rec = Arc::new(Rec(Mutex::new(Vec::new())));
        let web = generate(&study.web);
        StudyRun::new(&web, &study)
            .publish(PublishPolicy::new(
                1,
                Arc::clone(&rec) as Arc<dyn SnapshotSink>,
            ))
            .run()
            .unwrap();
        let deltas = std::mem::take(&mut *rec.0.lock().unwrap());
        // The final delta stands in for the last every-walk one.
        assert_eq!(deltas.len(), WALKS, "one delta per walk");
        let mut unions: Vec<CrawlCheckpoint> = Vec::new();
        for delta in &deltas {
            let mut union = match unions.last() {
                Some(last) => last.clone(),
                None => CrawlCheckpoint::new(&study, Default::default(), Default::default()),
            };
            union.absorb(delta.clone());
            unions.push(union);
        }
        (study, deltas, unions)
    })
}

/// The running unions of the deltas: the study as of each publish.
fn snapshots() -> &'static [CrawlCheckpoint] {
    &deltas().2
}

fn fold(ck: &CrawlCheckpoint, epoch: u64) -> ServingIndex {
    let (study, _, _) = deltas();
    let web = generate(&study.web);
    ServingIndex::fold_with_web(&web, ck, epoch).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: same snapshot, any two epoch numbers — every route's
    /// body and ETag is byte-identical; only the header metadata moves.
    #[test]
    fn epoch_number_never_leaks_into_bodies_or_etags(
        k in 0usize..WALKS,
        e1 in 1u64..60,
        e2 in 1u64..60,
    ) {
        let cks = snapshots();
        let ia = fold(&cks[k], e1);
        let ib = fold(&cks[k], e2);
        for (route, ca) in ia.routes() {
            let cb = ib.lookup(route).expect("same snapshot, same route set");
            prop_assert_eq!(&ca.body, &cb.body, "body leaked the epoch on {}", route);
            prop_assert_eq!(&ca.etag, &cb.etag, "etag leaked the epoch on {}", route);
        }
        prop_assert_eq!(ia.epoch(), e1);
        prop_assert_eq!(ia.last_modified(), last_modified_for_epoch(e1));
        if e1 != e2 {
            prop_assert_ne!(ia.last_modified(), ib.last_modified());
        }
    }

    /// Invariant 2: across two epochs over different walk sets, an ETag
    /// matches if and only if the body matched — a revalidating client
    /// can trust a 304 from any epoch.
    #[test]
    fn etags_are_injective_for_changed_bodies_across_epochs(
        a in 0usize..WALKS,
        b in 0usize..WALKS,
    ) {
        let cks = snapshots();
        let ia = fold(&cks[a], (a + 1) as u64);
        let ib = fold(&cks[b], (b + 1) as u64);
        for (route, ca) in ia.routes() {
            let Some(cb) = ib.lookup(route) else { continue };
            prop_assert_eq!(
                ca.etag == cb.etag,
                ca.body == cb.body,
                "etag/body equivalence broke on {} between epochs {} and {}",
                route, a + 1, b + 1
            );
        }
        if a != b {
            // The walk sets differ, so the catalog (which lists walk ids)
            // must have changed — and with it, its ETag.
            let catalog_a = ia.lookup("/catalog").unwrap();
            let catalog_b = ib.lookup("/catalog").unwrap();
            prop_assert_ne!(&catalog_a.body, &catalog_b.body);
            prop_assert_ne!(&catalog_a.etag, &catalog_b.etag);
        }
    }

    /// Invariant 3: one builder fed the deltas in any grouping of
    /// consecutive ones (`mask` marks where a fold happens; the deltas
    /// in between coalesce into it), merged as `IndexPublisher` merges
    /// them, serves after every fold the bodies and ETags of a fresh
    /// empty-cache fold of their union.
    #[test]
    fn cached_folds_serve_the_bytes_of_fresh_folds(mask in 1u32..(1 << WALKS)) {
        let (study, deltas, unions) = deltas();
        let mut builder = IncrementalIndexBuilder::new(study);
        let mut merged: Option<CrawlCheckpoint> = None;
        for (k, delta) in deltas.iter().enumerate() {
            let study = match merged.as_mut() {
                Some(study) => {
                    study.absorb(delta.clone());
                    study
                }
                None => merged.insert(delta.clone()),
            };
            if mask & (1 << k) == 0 {
                continue;
            }
            let cached = builder.fold(study).unwrap().expect("a growing snapshot folds");
            let fresh = fold(&unions[k], cached.epoch());
            let routes: Vec<_> = cached.routes().map(|(p, b)| (p, &b.body, &b.etag)).collect();
            let expected: Vec<_> = fresh.routes().map(|(p, b)| (p, &b.body, &b.etag)).collect();
            prop_assert_eq!(routes.len(), expected.len(), "route sets differ at snapshot {}", k);
            for (got, want) in routes.iter().zip(&expected) {
                prop_assert_eq!(got, want, "cached fold diverged at snapshot {}", k);
            }
            let all = |i: &ServingIndex| i.smugglers(None, usize::MAX).body;
            prop_assert_eq!(all(&cached), all(&fresh));
        }
    }
}
