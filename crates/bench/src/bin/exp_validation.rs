//! §5.3 Validation — production-system emulation: an Ark/Atlas-style
//! strategy (sequential ICMP-Paris to ::1 + random per BGP prefix, low
//! rate) versus this work's strategy (Yarrp6 over the synthesized target
//! sets). The paper's headline: an order of magnitude more interfaces
//! from a single vantage in a day, with only ~2x the traces.

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use simnet::Engine;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use targets::TargetSet;
use yarrp6::campaign::run_campaign;
use yarrp6::sequential::{self, SequentialConfig};
use yarrp6::YarrpConfig;

fn main() {
    let sc = Scenario::load();
    println!(
        "Validation vs production-style mapping (scale {:?})\n",
        sc.scale
    );
    header(&[
        ("System", 22),
        ("Targets", 9),
        ("Probes", 9),
        ("IntAddrs", 9),
        ("Ints/Probe", 11),
    ]);

    // Ark-style: sequential ICMP-Paris to the caida set from all three
    // vantages (production platforms are many weak vantages; three is
    // what we have — the per-vantage discovery overlaps heavily).
    let caida = sc.targets.get("caida-z64").expect("caida-z64");
    let mut ark_ifaces: BTreeSet<Ipv6Addr> = BTreeSet::new();
    let mut ark_probes = 0u64;
    for v in 0..3u8 {
        let cfg = SequentialConfig {
            rate_pps: 100,
            ..Default::default()
        };
        let mut e = Engine::new(sc.topo.clone());
        let log = sequential::run(&mut e, v, &caida.addrs, &cfg);
        ark_probes += log.probes_sent;
        ark_ifaces.extend(log.interface_addrs());
    }
    row(&[
        ("ark-style (3 vps)".into(), 22),
        (human(3 * caida.len() as u64), 9),
        (human(ark_probes), 9),
        (human(ark_ifaces.len() as u64), 9),
        (
            format!("{:.4}", ark_ifaces.len() as f64 / ark_probes.max(1) as f64),
            11,
        ),
    ]);

    // This work: Yarrp6 over the two most powerful sets from ONE vantage.
    let mut our_ifaces: BTreeSet<Ipv6Addr> = BTreeSet::new();
    let mut our_probes = 0u64;
    let mut our_targets = 0u64;
    for name in ["cdn-k32-z64", "tum-z64"] {
        let set: &TargetSet = sc.targets.get(name).unwrap();
        let res = run_campaign(&sc.topo, 0, set, &YarrpConfig::default());
        our_probes += res.log.probes_sent;
        our_targets += set.len() as u64;
        our_ifaces.extend(res.log.interface_addrs());
    }
    row(&[
        ("yarrp6 (1 vp, 2 sets)".into(), 22),
        (human(our_targets), 9),
        (human(our_probes), 9),
        (human(our_ifaces.len() as u64), 9),
        (
            format!("{:.4}", our_ifaces.len() as f64 / our_probes.max(1) as f64),
            11,
        ),
    ]);

    let factor = our_ifaces.len() as f64 / ark_ifaces.len().max(1) as f64;
    println!(
        "\nyarrp6-from-one-vantage discovered {factor:.1}x the interfaces of the ark-style system."
    );
    println!("Expect: a large multiple (paper: ~10x with ~2x the traces).");
}
