//! The full study: reproduce every table and figure of the paper's
//! evaluation section on the simulated web, and print them side by side
//! with the paper's published values.
//!
//! ```sh
//! cargo run --release --example full_study              # medium scale
//! cargo run --release --example full_study -- --paper-scale
//! ```
//!
//! `--paper-scale` uses 10,000 seeder domains as in §3.1 (takes a few
//! minutes); the default uses 1,000 seeders and finishes in seconds.

use cc_crawler::StudyConfig;
use cc_web::WebConfig;
use crumbcruncher::Study;

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper-scale");

    let web_config = if paper_scale {
        WebConfig::paper_scale()
    } else {
        WebConfig {
            n_sites: 2_000,
            n_seeders: 1_000,
            ..WebConfig::default()
        }
    };
    let config = StudyConfig::builder()
        .web(web_config)
        .seed(0xC0FFEE)
        .build()
        .expect("static configuration is valid");

    eprintln!(
        "Generating a {}-site web and crawling {} seeders with 4 synchronized crawlers…",
        config.web.n_sites, config.web.n_seeders
    );
    let t0 = std::time::Instant::now();
    let study = Study::from_config(&config).expect("study runs");
    eprintln!("…done in {:.1?}\n", t0.elapsed());

    let report = study.report();
    println!("{}", report.render());

    println!("== Paper vs. measured (shape comparison) ==");
    let rows: Vec<(&str, String, String)> = vec![
        (
            "UID smuggling rate",
            "8.11%".into(),
            format!("{:.2}%", report.summary.smuggling_rate().percent()),
        ),
        (
            "bounce-only rate",
            "2.7%".into(),
            format!("{:.2}%", report.bounce.bounce_rate().percent()),
        ),
        (
            "navigational tracking",
            "10.8%".into(),
            format!(
                "{:.2}%",
                report.bounce.navigational_tracking_rate().percent()
            ),
        ),
        (
            "sync failures",
            "7.6%".into(),
            format!("{:.1}%", report.failures.sync_failure_rate() * 100.0),
        ),
        (
            "divergence",
            "1.8%".into(),
            format!("{:.1}%", report.failures.divergence_rate() * 100.0),
        ),
        (
            "connect failures",
            "3.3%".into(),
            format!("{:.1}%", report.failures.connect_failure_rate() * 100.0),
        ),
        (
            "manual removals",
            "577/1581 (36%)".into(),
            format!(
                "{}/{} ({:.0}%)",
                report.manual_removed,
                report.manual_entered,
                100.0 * report.manual_removed as f64 / report.manual_entered.max(1) as f64
            ),
        ),
        (
            "fp-site share of smuggling",
            "13%".into(),
            format!("{:.0}%", report.fingerprint.fp_share().percent()),
        ),
        (
            "multi-crawler: fp vs rest",
            "44% vs 52%".into(),
            format!(
                "{:.0}% vs {:.0}%",
                report.fingerprint.fp_multi_rate() * 100.0,
                report.fingerprint.non_fp_multi_rate() * 100.0
            ),
        ),
    ];
    println!("  {:<28} {:>16} {:>16}", "metric", "paper", "measured");
    for (metric, paper, measured) in rows {
        println!("  {metric:<28} {paper:>16} {measured:>16}");
    }

    // Lifetime ablation (§3.7.1): what lifetime-threshold baselines lose.
    let d90 = cc_core::baselines::lifetime_ablation(&study.output.findings, 90);
    let d30 = cc_core::baselines::lifetime_ablation(&study.output.findings, 30);
    println!("\n== Lifetime baseline ablation (§3.7.1) ==");
    println!(
        "  <90-day lifetimes: paper 16%, measured {:.0}% ({}/{})",
        d90.missed_fraction() * 100.0,
        d90.discarded_by_threshold,
        d90.with_lifetime
    );
    println!(
        "  <30-day lifetimes: paper  9%, measured {:.0}% ({}/{})",
        d30.missed_fraction() * 100.0,
        d30.discarded_by_threshold,
        d30.with_lifetime
    );

    let two = cc_core::baselines::two_crawler_ablation(&study.output.findings);
    println!(
        "  A two-crawler design keeps {}/{} UIDs (misses {:.0}%).",
        two.two_crawler_uids,
        two.four_crawler_uids,
        two.missed_fraction() * 100.0
    );

    let score = study.truth_score();
    println!(
        "\n== Ground truth (not available to the paper) ==\n  precision {:.2}  recall {:.2}  \
         fingerprint-based UIDs missed: {}",
        score.precision(),
        score.recall(),
        score.fingerprint_misses
    );
}
