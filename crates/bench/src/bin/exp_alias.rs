//! §7.2 follow-on — speedtrap alias resolution and the router-level
//! graph: discover interfaces with a Yarrp6 campaign, resolve aliases
//! via fragment-identification counters, validate against ground truth,
//! and report the interface-level → router-level graph reduction.

#![forbid(unsafe_code)]

use aliasres::speedtrap::{resolve_aliases, AliasConfig};
use aliasres::RouterGraph;
use analysis::TraceSet;
use beholder_bench::fmt::human;
use beholder_bench::Scenario;
use simnet::Engine;
use std::net::Ipv6Addr;
use yarrp6::campaign::run_campaign;
use yarrp6::YarrpConfig;

fn main() {
    let sc = Scenario::load();
    println!(
        "Alias resolution + router-level graph (scale {:?})\n",
        sc.scale
    );

    // 1. Interface discovery: combined campaigns from all three
    // vantages — different approach directions reveal different
    // interfaces of the same routers, which is what gives alias
    // resolution something to merge.
    let set = sc.targets.get("combined-z64").expect("combined-z64");
    let mut iface_set = std::collections::BTreeSet::new();
    let mut logs = Vec::new();
    for v in 0..3u8 {
        let res = run_campaign(&sc.topo, v, set, &YarrpConfig::default());
        iface_set.extend(res.log.interface_addrs());
        logs.push(res.log);
    }
    let res_log = &logs[1];
    let ifaces: Vec<Ipv6Addr> = iface_set.into_iter().collect();
    println!(
        "discovered interfaces (3 vps): {}",
        human(ifaces.len() as u64)
    );

    // 2. Speedtrap over the discovered interfaces.
    let mut engine = Engine::new(sc.topo.clone());
    let sets = resolve_aliases(&mut engine, 1, &ifaces, &AliasConfig::default());
    println!("speedtrap probes:             {}", human(sets.probes));
    println!(
        "alias groups (>=2 ifaces):    {}",
        human(sets.groups.len() as u64)
    );
    println!(
        "aliased interfaces:           {}",
        human(sets.groups.iter().map(|g| g.len() as u64).sum())
    );
    println!(
        "singletons:                   {}",
        human(sets.singletons.len() as u64)
    );
    println!(
        "no fragmented reply:          {}",
        human(sets.unresponsive.len() as u64)
    );

    // 3. Validation against ground truth.
    let truth = sc.topo.ground_truth_aliases();
    let (precision, recall) = sets.score(&truth);
    println!("\nprecision (pairs): {precision:.3}   recall (probed pairs): {recall:.3}");

    // 4. Router-level graph (ITDK-style), from one vantage's traces.
    let traces = TraceSet::from_log(res_log);
    let iface_graph = RouterGraph::build(&traces, &[]);
    let router_graph = RouterGraph::build(&traces, &sets.groups);
    println!(
        "\ninterface-level graph: {} nodes, {} links",
        human(iface_graph.connected_node_count() as u64),
        human(iface_graph.links.len() as u64)
    );
    println!(
        "router-level graph:    {} nodes, {} links",
        human(router_graph.connected_node_count() as u64),
        human(router_graph.links.len() as u64)
    );
    let hist = router_graph.degree_histogram();
    let max_deg = hist.keys().next_back().copied().unwrap_or(0);
    println!("max router degree:     {max_deg}");
    println!("\nExpect: high precision (>0.95); the router-level graph has fewer nodes");
    println!("than the interface-level graph (aliases collapsed).");
}
