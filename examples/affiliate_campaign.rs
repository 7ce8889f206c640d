//! A hand-built affiliate-marketing scenario: follow one UID hop by hop.
//!
//! §5.3 of the paper describes a navigation path that "started at a
//! coupon-collecting website, passed through a partner site owned by the
//! same entity, then passed through four different trackers before
//! arriving at the final destination (a retailer). Each of these trackers
//! had the ability to record information about the ad the user had
//! clicked." This example rebuilds that path with the affiliate pair that
//! always chains together (the awin1.com → zenaps.com pattern) and prints
//! the UID's journey.
//!
//! ```sh
//! cargo run --release --example affiliate_campaign
//! ```

use cc_browser::{Browser, Profile, Storage, StoragePolicy};
use cc_net::{FaultModel, SimClock, SimDuration};
use cc_url::Url;
use cc_util::DetRng;
use cc_web::campaign::{Campaign, CampaignId, UidSpan};
use cc_web::entity::{OrgId, Organization};
use cc_web::site::{AdSlot, LinkDecoration, Page, Site, SiteId, StaticLink};
use cc_web::tracker::{Tracker, TrackerId, TrackerKind};
use cc_web::{ClickTarget, ElementKind, SimWeb, TruthLog};

fn tracker(id: u32, name: &str, org: OrgId, fqdn: &str, param: &str) -> Tracker {
    Tracker {
        id: TrackerId(id),
        name: name.into(),
        org,
        fqdn: fqdn.into(),
        kind: TrackerKind::DedicatedSmuggler,
        uid_param: param.into(),
        fingerprints: false,
        uid_lifetime: SimDuration::from_days(365),
        uses_local_storage: false,
        in_disconnect: false,
        in_easylist: false,
        benign_role_share: 0.0,
        js_redirect: false,
        sync_partners: Vec::new(),
    }
}

fn page(links: Vec<StaticLink>, ad_slots: Vec<AdSlot>) -> Page {
    Page {
        path: "/".into(),
        links,
        ad_slots,
        element_churn: 0.0,
        volatile: false,
    }
}

fn site(id: u32, domain: &str, org: OrgId, category: cc_web::Category, pages: Vec<Page>) -> Site {
    Site {
        id: SiteId(id),
        domain: domain.into(),
        org,
        category,
        rank: id as usize,
        pages,
        embedded_trackers: vec![],
        sets_own_uid: true,
        sets_session_cookie: false,
        fingerprints: false,
        login_needs_uid: false,
        consent_banner: false,
    }
}

fn main() {
    println!("Affiliate campaign walkthrough (the §5.3 coupon-site path)");
    println!("===========================================================\n");

    // Organizations: the coupon publisher family, the retailer, and the
    // affiliate network that owns BOTH chained redirector domains.
    let mut coupon_org = Organization::new(OrgId(0), "CouponFollow-like");
    coupon_org.add_domain("couponfollow-like.com");
    coupon_org.add_domain("coupon-partner.com");
    let mut retail_org = Organization::new(OrgId(1), "MegaRetailer");
    retail_org.add_domain("megaretailer.com");
    let mut awin_org = Organization::new(OrgId(2), "AWIN-like");
    awin_org.add_domain("awn1-like.com");
    awin_org.add_domain("zenps-like.com");
    let mut iq_org = Organization::new(OrgId(3), "VisualIQ-like");
    iq_org.add_domain("myvsiq.net");
    let mut ken_org = Organization::new(OrgId(4), "Kenshoo-like");
    ken_org.add_domain("xg4k.net");

    // The four trackers of the chain.
    let t_awin = tracker(0, "awin1-like", OrgId(2), "go.awn1-like.com", "awc");
    let t_zenaps = tracker(1, "zenaps-like", OrgId(2), "r.zenps-like.com", "zv");
    let t_viq = tracker(2, "visualiq-like", OrgId(3), "t.myvsiq.net", "vid");
    let t_ken = tracker(3, "kenshoo-like", OrgId(4), "x1.xg4k.net", "kwid");

    // One campaign: the coupon ad for the retailer, UID across the full
    // path.
    let campaign = Campaign {
        id: CampaignId(0),
        owner: TrackerId(0),
        hops: vec![TrackerId(0), TrackerId(1), TrackerId(2), TrackerId(3)],
        destination: SiteId(2),
        landing_path: "/sale".into(),
        span: UidSpan::Full,
        word_params: vec![("cmp".into(), "spring_coupon_deal".into())],
        add_timestamp: true,
        add_session_id: false,
    };

    // Sites: coupon site links to its partner; the partner hosts the ad.
    let coupon = site(
        0,
        "couponfollow-like.com",
        OrgId(0),
        cc_web::Category::Shopping,
        vec![page(
            vec![StaticLink {
                to: SiteId(1),
                to_path: "/".into(),
                via_shim: None,
                decoration: LinkDecoration::SiteOwnUid,
            }],
            vec![],
        )],
    );
    let partner = site(
        1,
        "coupon-partner.com",
        OrgId(0),
        cc_web::Category::Shopping,
        vec![page(
            vec![],
            vec![AdSlot {
                slot_id: 1,
                campaigns: vec![CampaignId(0)],
            }],
        )],
    );
    let retailer = site(
        2,
        "megaretailer.com",
        OrgId(1),
        cc_web::Category::Shopping,
        vec![page(vec![], vec![])],
    );
    let mut retailer = retailer;
    retailer.embedded_trackers.push(TrackerId(0)); // collection script

    let web = SimWeb::assemble(
        vec![coupon, partner, retailer],
        vec![t_awin, t_zenaps, t_viq, t_ken],
        vec![coupon_org, retail_org, awin_org, iq_org, ken_org],
        vec![campaign],
        vec![SiteId(0)],
    );

    // One user browses: coupon site -> partner -> clicks the ad.
    let mut browser = Browser::new(
        &web,
        Profile::safari("user", 0xF1, DetRng::new(42)),
        Storage::new(StoragePolicy::Partitioned),
        SimClock::new(),
        FaultModel::none(DetRng::new(1)),
    );

    // The ground truth of every value the user's visits mint.
    let mut truth = TruthLog::new();
    let start = Url::parse("https://www.couponfollow-like.com/").unwrap();
    let out = browser
        .navigate(start, &mut truth)
        .expect("load coupon site");
    println!("1. User lands on {}", out.final_url);

    // Click the decorated family link to the partner site.
    let family_link = out.page.elements[0].clone();
    let partner_url = match &family_link.target {
        ClickTarget::Navigate(u) => u.clone(),
        ClickTarget::Inert => unreachable!(),
    };
    println!(
        "2. Clicks the partner link — decorated with the site's own UID: {}",
        partner_url
    );
    let out = browser
        .navigate(partner_url, &mut truth)
        .expect("load partner");

    // Click the affiliate ad.
    let ad = out
        .page
        .elements
        .iter()
        .find(|e| e.kind == ElementKind::Iframe)
        .expect("partner hosts the ad");
    let click_url = match &ad.target {
        ClickTarget::Navigate(u) => u.clone(),
        ClickTarget::Inert => unreachable!(),
    };
    println!("3. Clicks the affiliate ad. The UID's journey:");
    let out = browser
        .navigate(click_url, &mut truth)
        .expect("follow the chain");
    for (i, hop) in out.hops.iter().enumerate() {
        let uid = hop
            .query()
            .iter()
            .find(|(k, _)| k == "awc")
            .map(|(_, v)| v.as_str())
            .unwrap_or("-");
        println!("   hop {i}: {:<28} awc={}", hop.host.as_str(), uid);
    }
    println!("4. Lands on {}", out.final_url);

    // What did the trackers keep? Each redirector banked first-party state.
    println!("\nFirst-party storage banked along the way:");
    for domain in [
        "awn1-like.com",
        "zenps-like.com",
        "myvsiq.net",
        "xg4k.net",
        "megaretailer.com",
    ] {
        let snap = browser.snapshot(domain);
        for (name, value, _) in &snap.cookies {
            println!(
                "   {domain:<22} {name} = {}…",
                &value[..value.len().min(24)]
            );
        }
    }

    // Pipeline view: run the analysis over this one navigation.
    println!(
        "\nThe affiliate pair {} -> {} chained exactly as §5.3 describes: both domains are \
         owned by one organization, synchronizing UIDs across its acquired infrastructure.",
        out.hops
            .first()
            .map(|h| h.host.as_str().to_string())
            .unwrap_or_default(),
        out.hops
            .get(1)
            .map(|h| h.host.as_str().to_string())
            .unwrap_or_default()
    );
}
