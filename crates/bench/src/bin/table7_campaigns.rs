//! Table 7 — Results of aggregate Yarrp6 campaigns from three vantages,
//! 18 target sets each (9 sources × z48/z64), reverse-sorted by
//! interface yield. Also prints the ALL / per-vantage summary rows.

#![forbid(unsafe_code)]

use analysis::metrics::CampaignMetrics;
use beholder_bench::fmt::{header, human, pct, row};
use beholder_bench::Scenario;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use targets::TargetSet;
use yarrp6::campaign::{run_campaign, CampaignSpec};
use yarrp6::{ProbeLog, YarrpConfig};

struct SetResult {
    name: String,
    probes: u64,
    targets: u64,
    metrics: CampaignMetrics,
    ifaces: BTreeSet<Ipv6Addr>,
    pfxs: BTreeSet<v6addr::Ipv6Prefix>,
    asns: BTreeSet<u32>,
}

fn reduce(name: &str, logs: Vec<ProbeLog>, targets: u64, bgp: &v6addr::BgpTable) -> SetResult {
    // Merge the three vantage logs into one aggregate campaign log.
    let mut merged = ProbeLog {
        vantage: "ALL".into(),
        target_set: name.into(),
        ..Default::default()
    };
    for log in logs {
        merged.probes_sent += log.probes_sent;
        merged.traces += log.traces;
        merged.fills += log.fills;
        merged.duration_us = merged.duration_us.max(log.duration_us);
        merged.records.extend(log.records);
    }
    let metrics = CampaignMetrics::compute(&merged, bgp);
    let ifaces = merged.interface_addrs();
    let mut pfxs = BTreeSet::new();
    let mut asns = BTreeSet::new();
    for &a in &ifaces {
        if let Some((p, asn)) = bgp.lookup(a) {
            pfxs.insert(p);
            asns.insert(asn.0);
        }
    }
    SetResult {
        name: name.to_string(),
        probes: merged.probes_sent,
        targets,
        metrics,
        ifaces,
        pfxs,
        asns,
    }
}

fn main() {
    let sc = Scenario::load();
    println!(
        "Table 7: Aggregate Yarrp6 campaign results, 3 vantages x 18 target sets (scale {:?})\n",
        sc.scale
    );
    let cfg = YarrpConfig::default();
    let sets: Vec<&TargetSet> = sc
        .targets
        .iter()
        .filter(|(n, _)| !n.starts_with("combined"))
        .map(|(_, s)| s)
        .collect();

    // Per-vantage cumulative interface sets for the summary rows.
    type VantageRow = (std::sync::Arc<str>, u64, BTreeSet<Ipv6Addr>, Vec<f64>);
    let mut per_vantage: Vec<VantageRow> = sc
        .topo
        .vantages
        .iter()
        .map(|v| (v.name.clone(), 0u64, BTreeSet::new(), Vec::new()))
        .collect();

    let mut results: Vec<SetResult> = Vec::new();
    for set in &sets {
        // The three vantages of one set run in parallel.
        let specs: Vec<CampaignSpec> = (0..3u8)
            .map(|v| CampaignSpec {
                vantage_idx: v,
                set,
                cfg,
            })
            .collect();
        let outs: Vec<_> = yarrp6::campaign::try_run_campaigns_parallel(&sc.topo, &specs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect();
        let mut logs = Vec::new();
        for (v, out) in outs.into_iter().enumerate() {
            per_vantage[v].1 += out.log.probes_sent;
            per_vantage[v].2.extend(out.log.interface_addrs());
            let m = CampaignMetrics::compute(&out.log, &sc.topo.bgp);
            per_vantage[v].3.push(m.reach_frac);
            logs.push(out.log);
        }
        results.push(reduce(&set.name, logs, set.len() as u64, &sc.topo.bgp));
        let _ = run_campaign; // (kept for doc discoverability)
    }

    // Exclusive features across per-set unions.
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

    // Summary rows.
    header(&[
        ("Campaign", 16),
        ("Probes", 9),
        ("Targets", 9),
        ("IntAddrs", 9),
        ("ExclInt", 8),
        ("IntPfx", 7),
        ("ExclPfx", 8),
        ("IntASN", 7),
        ("ExclASN", 8),
        ("Reach%", 7),
        ("PathLen", 9),
        ("EUI64", 7),
        ("EUI%", 6),
        ("Offset", 9),
    ]);
    let all_ifaces: BTreeSet<Ipv6Addr> = results
        .iter()
        .flat_map(|r| r.ifaces.iter().copied())
        .collect();
    let all_probes: u64 = results.iter().map(|r| r.probes).sum();
    row(&[
        ("ALL".into(), 16),
        (human(all_probes), 9),
        ("".into(), 9),
        (human(all_ifaces.len() as u64), 9),
        ("".into(), 8),
        ("".into(), 7),
        ("".into(), 8),
        ("".into(), 7),
        ("".into(), 8),
        ("".into(), 7),
        ("".into(), 9),
        ("".into(), 7),
        ("".into(), 6),
        ("".into(), 9),
    ]);
    for (name, probes, ifaces, reach) in &per_vantage {
        let mean_reach = reach.iter().sum::<f64>() / reach.len().max(1) as f64;
        row(&[
            (name.to_string(), 16),
            (human(*probes), 9),
            ("".into(), 9),
            (human(ifaces.len() as u64), 9),
            ("".into(), 8),
            ("".into(), 7),
            ("".into(), 8),
            ("".into(), 7),
            ("".into(), 8),
            (pct(mean_reach), 7),
            ("".into(), 9),
            ("".into(), 7),
            ("".into(), 6),
            ("".into(), 9),
        ]);
    }
    println!();

    // Per-set rows, reverse sorted by interface yield.
    results.sort_by_key(|r| std::cmp::Reverse(r.ifaces.len()));
    for r in &results {
        let excl_i = r.ifaces.iter().filter(|a| iface_count[a] == 1).count();
        let excl_p = r.pfxs.iter().filter(|p| pfx_count[p] == 1).count();
        let excl_a = r.asns.iter().filter(|a| asn_count[a] == 1).count();
        let m = &r.metrics;
        row(&[
            (r.name.clone(), 16),
            (human(r.probes), 9),
            (human(r.targets), 9),
            (human(r.ifaces.len() as u64), 9),
            (human(excl_i as u64), 8),
            (human(r.pfxs.len() as u64), 7),
            (human(excl_p as u64), 8),
            (human(r.asns.len() as u64), 7),
            (human(excl_a as u64), 8),
            (pct(m.reach_frac), 7),
            (format!("{} ({})", m.path_len_p95, m.path_len_median), 9),
            (human(m.eui64_addrs), 7),
            (pct(m.eui64_frac), 6),
            (
                format!("{} ({})", m.eui64_offset_p5, m.eui64_offset_median),
                9,
            ),
        ]);
    }
    println!("\nExpect (paper shapes): cdn-k32-z64 and tum-z64 lead in interfaces and exclusives;");
    println!("their EUI-64 shares are large with offsets at/near the last hop (CPE clouds);");
    println!("caida/fiebig trail despite caida's breadth; z64 beats z48 per source.");
}
