//! Table 6 — Fill Mode Trial Results: probes, fills, interface addresses
//! and yield for maximum TTL ∈ {4, 8, 16, 32} against the CAIDA target
//! set (fill cap 32).

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use yarrp6::campaign::run_campaign;
use yarrp6::YarrpConfig;

fn main() {
    let sc = Scenario::load();
    let set = sc.targets.get("caida-z64").expect("caida-z64");
    println!(
        "Table 6: Fill Mode Trial Results (caida-z64, {} targets, scale {:?})\n",
        set.len(),
        sc.scale
    );
    header(&[
        ("MaxTTL", 6),
        ("Probes", 10),
        ("Fills", 10),
        ("IntAddrs", 10),
        ("Yield%", 8),
    ]);
    let mut best = (0u8, 0.0f64);
    for max_ttl in [4u8, 8, 16, 32] {
        let cfg = YarrpConfig {
            max_ttl,
            fill_mode: true,
            fill_max_ttl: 32,
            ..Default::default()
        };
        let res = run_campaign(&sc.topo, 0, set, &cfg);
        let ints = res.log.interface_addrs().len() as u64;
        let yield_pct = 100.0 * ints as f64 / res.log.probes_sent.max(1) as f64;
        if yield_pct > best.1 {
            best = (max_ttl, yield_pct);
        }
        row(&[
            (max_ttl.to_string(), 6),
            (human(res.log.probes_sent), 10),
            (human(res.log.fills), 10),
            (human(ints), 10),
            (format!("{yield_pct:.1}"), 8),
        ]);
    }
    println!(
        "\nHighest yield at MaxTTL {} — the paper likewise selects 16 for its campaigns.",
        best.0
    );
}
