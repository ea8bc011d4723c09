//! Table 5 — Target Set Properties: unique/exclusive targets, routed
//! targets, BGP prefix and ASN coverage, and 6to4 membership for every
//! `(source, zn)` target set.

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use targets::{characterize, TargetSet};

fn main() {
    let sc = Scenario::load();
    println!("Table 5: Target Set Properties (scale {:?})\n", sc.scale);

    let sets: Vec<&TargetSet> = sc.targets.sets.iter().collect();
    let independent = sc.targets.independent_indices();
    let stats = characterize(&sets, &independent, &sc.topo.bgp);

    header(&[
        ("Name", 16),
        ("Unique", 9),
        ("Excl", 9),
        ("Routed", 9),
        ("ExclRtd", 9),
        ("BGPPfx", 8),
        ("ExclPfx", 8),
        ("ASNs", 7),
        ("ExclASN", 8),
        ("6to4", 7),
    ]);
    for s in &stats {
        row(&[
            (s.name.to_string(), 16),
            (human(s.unique), 9),
            (human(s.exclusive), 9),
            (human(s.routed), 9),
            (human(s.exclusive_routed), 9),
            (human(s.bgp_prefixes), 8),
            (human(s.exclusive_prefixes), 8),
            (human(s.asns), 7),
            (human(s.exclusive_asns), 8),
            (human(s.sixtofour), 7),
        ]);
    }

    // Totals row over the union of everything (paper's "Total both").
    let all = TargetSet::union("total", &sets);
    let tstats = characterize(&[&all], &[], &sc.topo.bgp);
    let t = &tstats[0];
    println!();
    row(&[
        ("Total".into(), 16),
        (human(t.unique), 9),
        ("N/A".into(), 9),
        (human(t.routed), 9),
        ("N/A".into(), 9),
        (human(t.bgp_prefixes), 8),
        ("N/A".into(), 8),
        (human(t.asns), 7),
        ("N/A".into(), 8),
        (human(t.sixtofour), 7),
    ]);
    println!("\nExpect (paper shapes): fiebig has a large unrouted share; 6gen/cdn-k32 dominate");
    println!(
        "unique counts; caida covers the most BGP prefixes/ASNs per target; fdns/tum carry 6to4."
    );
}
