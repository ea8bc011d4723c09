//! Figure 2 — Features contributed by each z64 target set: targets,
//! routed targets, BGP prefixes and ASNs, with the shared-vs-exclusive
//! split (the main bars plus the "exclusive fraction" inset).

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use targets::{characterize, TargetSet};

fn main() {
    let sc = Scenario::load();
    println!(
        "Figure 2: Features contributed by each target set (z64, scale {:?})\n",
        sc.scale
    );
    let sets: Vec<&TargetSet> = sc
        .targets
        .iter()
        .filter(|(n, _)| {
            n.ends_with("-z64")
                && !n.starts_with("combined")
                && !n.starts_with("tum")
                && !n.starts_with("random")
        })
        .map(|(_, s)| s)
        .collect();
    let independent: Vec<usize> = (0..sets.len()).collect();
    let stats = characterize(&sets, &independent, &sc.topo.bgp);

    header(&[
        ("Set", 14),
        ("Targets", 10),
        ("Routed", 10),
        ("BGPPfx", 8),
        ("ASNs", 7),
        ("ExclPfx", 8),
        ("ExclASN", 8),
        ("ExclPfx%", 9),
        ("ExclASN%", 9),
    ]);
    for s in &stats {
        row(&[
            (s.name.trim_end_matches("-z64").to_string(), 14),
            (human(s.unique), 10),
            (human(s.routed), 10),
            (human(s.bgp_prefixes), 8),
            (human(s.asns), 7),
            (human(s.exclusive_prefixes), 8),
            (human(s.exclusive_asns), 8),
            (
                format!(
                    "{:.1}%",
                    100.0 * s.exclusive_prefixes as f64 / s.bgp_prefixes.max(1) as f64
                ),
                9,
            ),
            (
                format!(
                    "{:.1}%",
                    100.0 * s.exclusive_asns as f64 / s.asns.max(1) as f64
                ),
                9,
            ),
        ]);
    }
    println!("\nExpect: set size does NOT correlate with BGP-prefix/ASN coverage —");
    println!("the vast majority of prefixes/ASNs are shared by two or more sets.");
}
