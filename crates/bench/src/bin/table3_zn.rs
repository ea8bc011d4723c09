//! Table 3 — ICMPv6 Trial Results by Transformation: probing the fdns
//! seed list under z40/z48/z56/z64 (fixediid synthesis). Reports probe
//! volume, non-Time-Exceeded ("Other ICMPv6") responses, unique
//! interface addresses, and addresses discovered *exclusively* at each
//! transformation level.

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use targets::synthesize::{synthesize, IidStrategy};
use yarrp6::campaign::run_campaign;
use yarrp6::YarrpConfig;

fn main() {
    let sc = Scenario::load();
    println!(
        "Table 3: ICMPv6 Trial Results by Transformation (fdns, scale {:?})\n",
        sc.scale
    );

    let levels = [40u8, 48, 56, 64];
    let mut per_level: BTreeMap<u8, (u64, u64, BTreeSet<Ipv6Addr>)> = BTreeMap::new();
    for &n in &levels {
        let prefixes = targets::transform::zn(&sc.seeds.fdns, n);
        let set = synthesize(format!("fdns-z{n}"), &prefixes, IidStrategy::FixedIid);
        let res = run_campaign(&sc.topo, 0, &set, &YarrpConfig::default());
        let addrs = res.log.interface_addrs();
        per_level.insert(n, (res.log.probes_sent, res.log.other_responses(), addrs));
    }

    header(&[
        ("zn", 5),
        ("Probes", 10),
        ("OtherICMPv6", 12),
        ("Addrs", 10),
        ("ExclAddrs", 10),
        ("Other/Probe", 12),
    ]);
    for &n in &levels {
        let (probes, other, addrs) = &per_level[&n];
        let exclusive = addrs
            .iter()
            .filter(|a| {
                per_level
                    .iter()
                    .all(|(&m, (_, _, other_addrs))| m == n || !other_addrs.contains(*a))
            })
            .count();
        row(&[
            (format!("/{n}"), 5),
            (human(*probes), 10),
            (human(*other), 12),
            (human(addrs.len() as u64), 10),
            (human(exclusive as u64), 10),
            (format!("{:.4}", *other as f64 / *probes.max(&1) as f64), 12),
        ]);
    }
    println!("\nExpect: probes and discovered addresses grow monotonically with n;");
    println!("z64 contributes a meaningful exclusive tail; other-ICMPv6 per probe rises with n");
    println!("(finer targets reach deeper into networks) — paper: 0.012 → 0.041.");
}
