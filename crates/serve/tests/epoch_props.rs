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
//! 3. **The fold cache changes no bytes.** An incremental builder that
//!    reuses per-walk work across epochs serves exactly what a fold with
//!    an empty cache serves over the same snapshot.

use std::sync::{Arc, Mutex, OnceLock};

use cc_crawler::{CrawlCheckpoint, PublishPolicy, SnapshotSink, StudyConfig, StudyRun};
use cc_serve::{last_modified_for_epoch, IncrementalIndexBuilder, ServingIndex};
use cc_web::{generate, WebConfig};
use proptest::prelude::*;

const WALKS: usize = 10;

/// One crawl, snapshotted after every walk: `snapshots()[k]` covers
/// `k + 1` walks. Built once and shared across all proptest cases.
fn snapshots() -> &'static (StudyConfig, Vec<CrawlCheckpoint>) {
    static CELL: OnceLock<(StudyConfig, Vec<CrawlCheckpoint>)> = OnceLock::new();
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
        let mut cks = std::mem::take(&mut *rec.0.lock().unwrap());
        // The final complete snapshot stands in for the last every-walk
        // one, so no two snapshots should share a walk count.
        cks.dedup_by_key(|ck| ck.partial.walks.len());
        assert_eq!(cks.len(), WALKS, "one snapshot per walk");
        (study, cks)
    })
}

fn fold(ck: &CrawlCheckpoint, epoch: u64) -> ServingIndex {
    let (study, _) = snapshots();
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
        let (_, cks) = snapshots();
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
        let (_, cks) = snapshots();
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

    /// Invariant 3: one builder fed an increasing subsequence of the
    /// snapshots (coalescing skips the rest) serves, after every fold,
    /// the bodies and ETags of a fresh empty-cache fold of that snapshot.
    #[test]
    fn cached_folds_serve_the_bytes_of_fresh_folds(mask in 1u32..(1 << WALKS)) {
        let (study, cks) = snapshots();
        let mut builder = IncrementalIndexBuilder::new(study);
        for (k, ck) in cks.iter().enumerate().filter(|(k, _)| mask & (1 << k) != 0) {
            let cached = builder.fold(ck).unwrap().expect("a growing snapshot folds");
            let fresh = fold(ck, cached.epoch());
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
