//! Figure 7 — Address discovery power: unique interface addresses vs.
//! probes emitted (log-log) for each z64 target set from the EU-NET
//! vantage. This is the experiment behind the paper's headline: BGP-
//! guided breadth (caida) flattens early; random/6gen flatten after ~1M
//! probes; cdn-k32 and tum keep discovering linearly.

#![forbid(unsafe_code)]

use beholder_bench::fmt::human;
use beholder_bench::Scenario;
use yarrp6::campaign::run_campaign;
use yarrp6::YarrpConfig;

fn main() {
    let sc = Scenario::load();
    println!(
        "Figure 7: discovery vs probes, EU-NET vantage, z64 sets (scale {:?})\n",
        sc.scale
    );
    let cfg = YarrpConfig::default();

    // Log-spaced sample points in probe count.
    let sets: Vec<_> = sc
        .targets
        .iter()
        .filter(|(n, _)| n.ends_with("-z64") && !n.starts_with("combined"))
        .map(|(_, s)| s)
        .collect();
    let max_probes = sets
        .iter()
        .map(|s| s.len() as u64 * cfg.max_ttl as u64)
        .max()
        .unwrap_or(0);
    let mut points = Vec::new();
    let mut p = 1_000u64;
    while p < max_probes * 2 {
        points.push(p);
        p = p * 10 / 4; // ~2.5x steps on the log axis
    }

    print!("{:>12}", "set \\ probes");
    for p in &points {
        print!(" {:>8}", human(*p));
    }
    println!();
    for set in sets {
        let res = run_campaign(&sc.topo, 0, set, &cfg);
        let curve = analysis::discovery_curve(&res.log);
        print!("{:>12}", set.name.trim_end_matches("-z64"));
        for &pt in &points {
            // Last curve value at or before pt probes.
            let v = curve
                .iter()
                .take_while(|(probes, _)| *probes <= pt)
                .map(|&(_, u)| u)
                .last()
                .unwrap_or(0);
            if pt > res.log.probes_sent && v == 0 {
                print!(" {:>8}", "-");
            } else {
                print!(" {:>8}", human(v));
            }
        }
        println!(
            "   (total {} probes, {} ifaces)",
            human(res.log.probes_sent),
            human(res.log.interface_addrs().len() as u64)
        );
    }
    println!("\nExpect: caida strong early, flattens hard; random/6gen flatten after their");
    println!("cluster mass is spent; cdn-k32 and tum keep rising to the largest totals.");
}
