//! Report bytes pinned against bytes this code did not write.
//!
//! The identity suites compare the code with itself, so a change that
//! moved every report byte the same way would still pass them; it fails
//! here. Both fixtures were written by the code as it stood before the
//! pipeline stopped extracting beacon parameters and before Figure 6 and
//! cookie sync were rewritten to read each parameter once:
//!
//! * `fixtures/report-species.json` is the output of
//!   `crumbcruncher report --json` with [`ARGS`]: an all-species world
//!   crawled with connection faults, retries and a circuit breaker;
//! * `fixtures/report-flat.json` is the same study under
//!   [`StoragePolicy::Flat`], where one tracker UID is one bucket on every
//!   site, so cookie sync finds values that cross top-level sites.
//!
//! The tests also check that the fixtures still cover that code: Figure 6
//! has rows for direct and for full-URL leaks, and cookie sync has pairs.

use crumbcruncher::analysis::report::AnalysisReport;
use crumbcruncher::browser::StoragePolicy;
use crumbcruncher::cli::parse;
use crumbcruncher::Study;

/// The CLI arguments of both fixtures' study.
const ARGS: &str = "report --json --seed 5 --species all --sites 60 --seeders 12 --steps 3 \
                    --failure-rate 0.2 --retries 3 --breaker 2";

const SPECIES: &str = include_str!("fixtures/report-species.json");
const FLAT: &str = include_str!("fixtures/report-flat.json");

/// The report of the fixtures' study under `storage`, and its JSON text
/// as `report --json` prints it.
fn report(storage: StoragePolicy) -> (AnalysisReport, String) {
    let argv: Vec<String> = ARGS.split_whitespace().map(str::to_string).collect();
    let mut study = parse(&argv).expect("the fixture arguments parse").study;
    study.storage = storage;
    let report = Study::from_config(&study).expect("the study runs").report();
    let json = serde_json::to_string(&report).expect("the report serializes");
    (report, json)
}

/// The fixtures exercise every part of the report that reads beacons.
fn assert_covers_beacon_sections(report: &AnalysisReport) {
    let rows = &report.third_parties;
    assert!(
        rows.iter().any(|r| r.via_full_url_only > 0),
        "no full-URL leak in Figure 6: {rows:?}"
    );
    assert!(
        rows.iter().any(|r| r.requests > r.via_full_url_only),
        "no direct leak in Figure 6: {rows:?}"
    );
    assert!(!report.cookie_sync.pairs.is_empty(), "no cookie-sync pairs");
    assert!(report.failures.connect_failures > 0, "no connection faults");
    assert!(report.recovery.retries > 0, "no retries");
}

#[test]
fn the_species_report_is_the_fixture_byte_for_byte() {
    let (report, json) = report(StoragePolicy::Partitioned);
    assert_covers_beacon_sections(&report);
    assert!(json == SPECIES, "report bytes differ from the fixture");
}

#[test]
fn the_flat_storage_report_is_the_fixture_byte_for_byte() {
    let (report, json) = report(StoragePolicy::Flat);
    assert_covers_beacon_sections(&report);
    assert!(
        report.cookie_sync.cross_site_values > 0,
        "flat storage should let synced values cross sites"
    );
    assert!(json == FLAT, "report bytes differ from the fixture");
}
