//! Figure 6 — Selected result features of the z64 Yarrp6 campaigns:
//! traces, discovered interfaces, their BGP prefixes and ASNs, with
//! exclusive fractions (the companion of Table 7).

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use yarrp6::campaign::{try_run_campaigns_parallel, CampaignSpec};
use yarrp6::YarrpConfig;

fn main() {
    let sc = Scenario::load();
    println!(
        "Figure 6: result features of z64 campaigns, all vantages (scale {:?})\n",
        sc.scale
    );
    let cfg = YarrpConfig::default();
    let sets: Vec<_> = sc
        .targets
        .iter()
        .filter(|(n, _)| {
            n.ends_with("-z64") && !n.starts_with("combined") && !n.starts_with("random")
        })
        .map(|(_, s)| s)
        .collect();

    struct R {
        name: String,
        probes: u64,
        ifaces: BTreeSet<Ipv6Addr>,
        pfxs: BTreeSet<v6addr::Ipv6Prefix>,
        asns: BTreeSet<u32>,
    }
    let mut results: Vec<R> = Vec::new();
    for set in &sets {
        let specs: Vec<CampaignSpec> = (0..3u8)
            .map(|v| CampaignSpec {
                vantage_idx: v,
                set,
                cfg,
            })
            .collect();
        let outs: Vec<_> = try_run_campaigns_parallel(&sc.topo, &specs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect();
        let mut r = R {
            name: set.name.trim_end_matches("-z64").to_string(),
            probes: 0,
            ifaces: BTreeSet::new(),
            pfxs: BTreeSet::new(),
            asns: BTreeSet::new(),
        };
        for out in outs {
            r.probes += out.log.probes_sent;
            for a in out.log.interface_addrs() {
                if let Some((p, asn)) = sc.topo.bgp.lookup(a) {
                    r.pfxs.insert(p);
                    r.asns.insert(asn.0);
                }
                r.ifaces.insert(a);
            }
        }
        results.push(r);
    }

    let mut iface_count: BTreeMap<Ipv6Addr, u32> = BTreeMap::new();
    let mut pfx_count: BTreeMap<v6addr::Ipv6Prefix, u32> = BTreeMap::new();
    let mut asn_count: BTreeMap<u32, u32> = BTreeMap::new();
    for r in &results {
        for &a in &r.ifaces {
            *iface_count.entry(a).or_default() += 1;
        }
        for &p in &r.pfxs {
            *pfx_count.entry(p).or_default() += 1;
        }
        for &a in &r.asns {
            *asn_count.entry(a).or_default() += 1;
        }
    }

    header(&[
        ("Set", 12),
        ("Traces", 10),
        ("IntAddrs", 10),
        ("IntPfx", 8),
        ("IntASN", 8),
        ("ExclInt", 8),
        ("ExclPfx", 8),
        ("ExclASN", 8),
    ]);
    for r in &results {
        let e_i = r.ifaces.iter().filter(|a| iface_count[a] == 1).count() as u64;
        let e_p = r.pfxs.iter().filter(|p| pfx_count[p] == 1).count() as u64;
        let e_a = r.asns.iter().filter(|a| asn_count[a] == 1).count() as u64;
        row(&[
            (r.name.clone(), 12),
            (human(r.probes), 10),
            (human(r.ifaces.len() as u64), 10),
            (human(r.pfxs.len() as u64), 8),
            (human(r.asns.len() as u64), 8),
            (human(e_i), 8),
            (human(e_p), 8),
            (human(e_a), 8),
        ]);
    }
    println!("\nExpect: prefixes/ASNs overwhelmingly shared across campaigns; cdn-k32 and tum");
    println!("carry the largest exclusive interface counts.");
}
