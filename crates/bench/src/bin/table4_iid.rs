//! Table 4 — ICMPv6 Trial Results by IID: the response type/code mix for
//! lowbyte1 vs fixediid synthesis over cdn-k256 z64 prefixes, against
//! probing *known* addresses (fiebig seeds verbatim).
//!
//! The trials use UDP probes: the paper's table distinguishes port
//! unreachable (a host-generated error UDP elicits), and its central
//! finding — known-address probing reaches end hosts (2.3% port
//! unreachable) while lowbyte1/fixediid barely do — only manifests with
//! a transport that end hosts answer with errors.

#![forbid(unsafe_code)]

use beholder_bench::fmt::pct;
use beholder_bench::Scenario;
use std::collections::BTreeMap;
use targets::synthesize::{known, synthesize, IidStrategy};
use targets::TargetSet;
use v6packet::icmp6::DestUnreachCode;
use yarrp6::campaign::run_campaign;
use yarrp6::{Protocol, ResponseKind, YarrpConfig};

fn classify(log: &yarrp6::ProbeLog) -> BTreeMap<&'static str, u64> {
    let mut m: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in &log.records {
        let key = match r.kind {
            ResponseKind::TimeExceeded => "Time Exceeded",
            ResponseKind::DestUnreachable(DestUnreachCode::NoRoute) => "no route to destination",
            ResponseKind::DestUnreachable(DestUnreachCode::AdminProhibited) => {
                "administratively prohibited"
            }
            ResponseKind::DestUnreachable(DestUnreachCode::AddrUnreachable) => {
                "address unreachable"
            }
            ResponseKind::DestUnreachable(DestUnreachCode::PortUnreachable) => "port unreachable",
            ResponseKind::DestUnreachable(DestUnreachCode::RejectRoute) => {
                "reject route to destination"
            }
            // The paper's table covers ICMPv6 errors only.
            ResponseKind::EchoReply | ResponseKind::Tcp => continue,
        };
        *m.entry(key).or_default() += 1;
    }
    m
}

fn main() {
    let sc = Scenario::load();
    println!(
        "Table 4: ICMPv6 Trial Results by IID (cdn-k256 z64 + fiebig-known, UDP, scale {:?})\n",
        sc.scale
    );

    let prefixes = targets::transform::zn(&sc.seeds.cdn_k256, 64);
    let cfg = YarrpConfig {
        protocol: Protocol::Udp,
        ..Default::default()
    };
    let campaigns: Vec<(&str, TargetSet)> = vec![
        (
            "lowbyte1",
            synthesize("cdn-k256-z64-lowbyte1", &prefixes, IidStrategy::LowByte1),
        ),
        (
            "fixediid",
            synthesize("cdn-k256-z64-fixediid", &prefixes, IidStrategy::FixedIid),
        ),
        ("known", known("fiebig-known", sc.seeds.fiebig.addrs())),
    ];

    let rows = [
        "Time Exceeded",
        "no route to destination",
        "administratively prohibited",
        "address unreachable",
        "port unreachable",
        "reject route to destination",
    ];
    let mut dists: Vec<(String, BTreeMap<&'static str, u64>)> = Vec::new();
    for (name, set) in &campaigns {
        let res = run_campaign(&sc.topo, 0, set, &cfg);
        dists.push((name.to_string(), classify(&res.log)));
    }

    print!("{:>30}", "type/code");
    for (name, _) in &dists {
        print!(" {name:>10}");
    }
    println!();
    println!("{}", "-".repeat(30 + 11 * dists.len()));
    for key in rows {
        print!("{key:>30}");
        for (_, dist) in &dists {
            let total: u64 = dist.values().sum();
            let v = dist.get(key).copied().unwrap_or(0);
            print!(" {:>10}", pct(v as f64 / total.max(1) as f64));
        }
        println!();
    }
    println!("\nExpect: ≥95% Time Exceeded everywhere; lowbyte1 ≈ fixediid;");
    println!("'known' shows a clearly larger port-unreachable share (probes reach end hosts).");
}
