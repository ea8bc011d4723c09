//! §4.2 Doubletree trial — Doubletree vs Yarrp6 vs sequential at several
//! rates: probe cost, discovery, and the backward-probing pathology
//! under ICMPv6 rate limiting.

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use simnet::Engine;
use yarrp6::doubletree::{self, DoubletreeConfig};
use yarrp6::sequential::{self, SequentialConfig};
use yarrp6::yarrp::{self, YarrpConfig};

fn main() {
    let sc = Scenario::load();
    let set = sc.targets.get("caida-z64").expect("caida-z64");
    println!(
        "Doubletree trial: caida-z64 from {} (scale {:?})\n",
        sc.topo.vantages[1].name, sc.scale
    );
    header(&[
        ("Prober", 12),
        ("Rate", 7),
        ("Probes", 9),
        ("IntAddrs", 9),
        ("Yield%", 8),
        ("RateLimited", 12),
    ]);
    for rate in [20u64, 1_000, 2_000] {
        // Doubletree.
        let dt_cfg = DoubletreeConfig {
            rate_pps: rate,
            ..Default::default()
        };
        let mut e = Engine::new(sc.topo.clone());
        let log = doubletree::run(&mut e, 1, &set.addrs, &dt_cfg);
        print_result(
            "doubletree",
            rate,
            log.probes_sent,
            log.interface_addrs().len(),
            e.stats.rate_limited,
        );

        // Sequential.
        let seq_cfg = SequentialConfig {
            rate_pps: rate,
            ..Default::default()
        };
        let mut e = Engine::new(sc.topo.clone());
        let log = sequential::run(&mut e, 1, &set.addrs, &seq_cfg);
        print_result(
            "sequential",
            rate,
            log.probes_sent,
            log.interface_addrs().len(),
            e.stats.rate_limited,
        );

        // Yarrp6.
        let y_cfg = YarrpConfig {
            rate_pps: rate,
            fill_mode: false,
            ..Default::default()
        };
        let mut e = Engine::new(sc.topo.clone());
        let log = yarrp::run(&mut e, 1, &set.addrs, &y_cfg);
        print_result(
            "yarrp6",
            rate,
            log.probes_sent,
            log.interface_addrs().len(),
            e.stats.rate_limited,
        );
    }
    println!("\nExpect: doubletree uses the fewest probes at low rate, but its probe count");
    println!("*grows* with rate (silent rate-limited hops defeat the backward stop rule)");
    println!("while yarrp6 keeps full discovery at every rate.");
}

fn print_result(name: &str, rate: u64, probes: u64, ints: usize, rate_limited: u64) {
    row(&[
        (name.to_string(), 12),
        (format!("{rate}"), 7),
        (human(probes), 9),
        (human(ints as u64), 9),
        (
            format!("{:.1}", 100.0 * ints as f64 / probes.max(1) as f64),
            8,
        ),
        (human(rate_limited), 12),
    ]);
}
