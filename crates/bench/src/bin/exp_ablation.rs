//! Ablation — why Yarrp6 keeps every header a load balancer can hash
//! constant per target (§4.1's checksum fudge / Paris discipline).
//!
//! The ablated prober varies the IPv6 flow label per probe; per-flow
//! ECMP then sprays one target's probes across parallel paths, and the
//! reconstructed "trace" interleaves hops of different paths. We
//! measure (a) per-(target, TTL) responder conflicts and (b) the effect
//! on path-divergence subnet inference, which relies on coherent paths.

#![forbid(unsafe_code)]

use analysis::{discover_by_path_div, PathDivParams, TraceSet};
use beholder_bench::fmt::human;
use beholder_bench::Scenario;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv6Addr;
use yarrp6::campaign::run_campaign;
use yarrp6::{ProbeLog, ResponseKind, YarrpConfig};

/// Counts (target, ttl) pairs that heard from more than one responder
/// across two repeated campaigns.
fn conflicts(logs: &[&ProbeLog]) -> (u64, u64) {
    let mut seen: HashMap<(Ipv6Addr, u8), BTreeSet<Ipv6Addr>> = HashMap::new();
    for log in logs {
        for r in &log.records {
            if r.kind == ResponseKind::TimeExceeded {
                if let Some(ttl) = r.probe_ttl {
                    seen.entry((r.target, ttl)).or_default().insert(r.responder);
                }
            }
        }
    }
    let total = seen.len() as u64;
    let conflicted = seen.values().filter(|s| s.len() > 1).count() as u64;
    (conflicted, total)
}

fn main() {
    let sc = Scenario::load();
    println!(
        "Ablation: per-target constant headers vs per-probe flow labels (scale {:?})\n",
        sc.scale
    );
    let set = sc.targets.get("combined-z64").expect("combined-z64");
    let resolver = sc.resolver();
    let vantage_asn = sc.topo.ases[sc.topo.vantages[1].as_idx as usize].asn;

    // Fill mode resends TTLs, giving conflict detection a second sample
    // per hop.
    for (name, vary) in [("paris (fudge)", false), ("varying flow label", true)] {
        // Two campaigns with different permutation keys: probes of one
        // (target, ttl) are emitted at different times, so the ablated
        // prober stamps them with different flow labels.
        let mut logs = Vec::new();
        for seed in [1u64, 2] {
            let cfg = YarrpConfig {
                vary_flow_label: vary,
                perm_seed: seed,
                ..Default::default()
            };
            logs.push(run_campaign(&sc.topo, 1, set, &cfg).log);
        }
        let (conflicted, total) = conflicts(&[&logs[0], &logs[1]]);
        let ts = TraceSet::from_log(&logs[0]);
        let cands = discover_by_path_div(&ts, &resolver, vantage_asn, &PathDivParams::default());
        let ifaces: BTreeSet<Ipv6Addr> = logs
            .iter()
            .flat_map(|l| l.interface_addrs().into_iter())
            .collect();
        println!("{name:>20}: interfaces {:>8}  (target,ttl) conflicts {:>6}/{} ({:.2}%)  subnets inferred {:>7}",
            human(ifaces.len() as u64),
            conflicted,
            total,
            100.0 * conflicted as f64 / total.max(1) as f64,
            human(cands.len() as u64),
        );
    }
    println!("\nExpect: the ablated prober shows (target,ttl) responder conflicts that the");
    println!("Paris-safe prober does not, because its probes take different ECMP paths.");
    println!("(Discovery may even rise — it samples more paths — but traces stop being");
    println!("paths, which is what §6's divergence inference needs.)");
}
