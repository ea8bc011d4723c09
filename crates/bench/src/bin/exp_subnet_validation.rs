//! §6 Subnet Validation — candidates vs ground truth: exact matches,
//! more-specific discoveries inside truth prefixes, and the stratified-
//! sampling re-run that bounds discovery at truth granularity.

#![forbid(unsafe_code)]

use analysis::validate::{stratified_sample, validate};
use analysis::{discover_by_path_div, PathDivParams, TraceSet};
use beholder_bench::fmt::human;
use beholder_bench::Scenario;
use targets::TargetSet;
use yarrp6::campaign::run_campaign;
use yarrp6::YarrpConfig;

fn main() {
    let sc = Scenario::load();
    println!(
        "Subnet validation against ground-truth distribution subnets (scale {:?})\n",
        sc.scale
    );
    let resolver = sc.resolver();
    let params = PathDivParams::default();
    let vantage_asn = sc.topo.ases[sc.topo.vantages[0].as_idx as usize].asn;
    let truth: Vec<v6addr::Ipv6Prefix> = sc
        .topo
        .ground_truth_distribution_subnets()
        .into_iter()
        .map(|(p, _, _)| p)
        .collect();
    println!(
        "Ground truth: {} interior (distribution) subnets",
        human(truth.len() as u64)
    );

    // Full campaign over the combined z64 set from one vantage.
    let set = sc.targets.get("combined-z64").expect("combined-z64");
    let res = run_campaign(&sc.topo, 0, set, &YarrpConfig::default());
    let ts = TraceSet::from_log(&res.log);
    let cands = discover_by_path_div(&ts, &resolver, vantage_asn, &params);
    let report = validate(&cands, &truth, &set.addrs);
    println!("\nFull traces ({} targets):", human(set.len() as u64));
    println!(
        "  truth subnets traced into:     {}",
        human(report.truth_considered)
    );
    println!(
        "  candidates discovered:         {}",
        human(cands.len() as u64)
    );
    println!("  exact matches:                 {}", human(report.exact));
    println!(
        "  truth w/ more-specific cands:  {}",
        human(report.truth_with_more_specific)
    );

    // Stratified sampling: one target per truth subnet.
    let sample = stratified_sample(&set.addrs, &truth);
    let sample_set = TargetSet::new("stratified", sample.iter().copied());
    let res2 = run_campaign(&sc.topo, 0, &sample_set, &YarrpConfig::default());
    let ts2 = TraceSet::from_log(&res2.log);
    let cands2 = discover_by_path_div(&ts2, &resolver, vantage_asn, &params);
    let report2 = validate(&cands2, &truth, &sample_set.addrs);
    println!(
        "\nStratified sampling ({} targets, one per truth subnet):",
        human(sample_set.len() as u64)
    );
    println!(
        "  candidates discovered:         {}",
        human(cands2.len() as u64)
    );
    println!("  exact matches:                 {}", human(report2.exact));
    println!(
        "  short by one bit:              {}",
        human(report2.short_by_one)
    );
    println!(
        "  short by two bits:             {}",
        human(report2.short_by_two)
    );
    println!(
        "  unmatched:                     {}",
        human(report2.unmatched)
    );
    println!("\nExpect: full traces find mostly more-specific subnets (truth is interior);");
    println!("stratified sampling trades volume for exactness (paper: 43% exact, 52% one short).");
}
