//! Golden determinism: the template/buffer-reuse hot path must produce
//! records **bit-identical** to the naive `ProbeSpec::build` + allocating
//! `Engine::inject` pipeline — for every protocol, with the
//! `vary_flow_label` ablation on and off, through fill chains, and on
//! middlebox-heavy topologies where fill chases rewritten quoted targets.

use simnet::config::TopologyConfig;
use simnet::generate::generate;
use simnet::{Engine, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6packet::probe::Protocol;
use yarrp6::yarrp::{self, YarrpConfig};

fn assert_pipelines_match(
    topo: &Arc<Topology>,
    vantage: u8,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
) {
    let hot = yarrp::run(&mut Engine::new(topo.clone()), vantage, targets, cfg);
    let naive = yarrp::run_reference(&mut Engine::new(topo.clone()), vantage, targets, cfg);
    let label = format!(
        "proto={} vary_flow_label={} max_ttl={}",
        cfg.protocol, cfg.vary_flow_label, cfg.max_ttl
    );
    assert_eq!(hot.probes_sent, naive.probes_sent, "probes_sent: {label}");
    assert_eq!(hot.fills, naive.fills, "fills: {label}");
    assert_eq!(hot.discarded, naive.discarded, "discarded: {label}");
    assert_eq!(hot.duration_us, naive.duration_us, "duration: {label}");
    assert_eq!(hot.records, naive.records, "records: {label}");
}

#[test]
fn template_pipeline_matches_naive_for_all_protocols() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
    for protocol in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
        for vary_flow_label in [false, true] {
            let cfg = YarrpConfig {
                protocol,
                vary_flow_label,
                ..Default::default()
            };
            assert_pipelines_match(&topo, 0, &targets, &cfg);
        }
    }
}

#[test]
fn template_pipeline_matches_naive_through_fill_chains() {
    // Small max_ttl forces fill mode to chase path tails; vantage 1
    // avoids vantage 0's silent-hop quirk that truncates chains.
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(40).collect();
    let cfg = YarrpConfig {
        max_ttl: 4,
        ..Default::default()
    };
    let probe = yarrp::run(&mut Engine::new(topo.clone()), 1, &targets, &cfg);
    assert!(probe.fills > 0, "fixture must exercise fill chains");
    assert_pipelines_match(&topo, 1, &targets, &cfg);
}

#[test]
fn template_pipeline_matches_naive_on_middlebox_topology() {
    // Middlebox-fronted ASes rewrite quoted destinations, sending fill
    // chains down the off-template scratch path.
    let mut tcfg = TopologyConfig::tiny(42);
    tcfg.middlebox_milli = 400;
    let topo = Arc::new(generate(tcfg));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
    for vary_flow_label in [false, true] {
        let cfg = YarrpConfig {
            max_ttl: 5,
            vary_flow_label,
            ..Default::default()
        };
        assert_pipelines_match(&topo, 1, &targets, &cfg);
    }
}

#[test]
fn neighborhood_mode_pipelines_match() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(80).collect();
    let cfg = YarrpConfig {
        neighborhood: Some(yarrp::Neighborhood {
            max_ttl: 4,
            window_us: 2_000_000,
        }),
        ..Default::default()
    };
    assert_pipelines_match(&topo, 0, &targets, &cfg);
}

// The hot path prefetches through a ring of the next
// `2 * yarrp::LOOKAHEAD` permutation values; the naive reference has no
// lookahead. These cases pin the ring's edges: campaigns shorter than,
// equal to and just around the window, skips and fills inside it, and
// every vantage.

#[test]
fn lookahead_matches_naive_on_empty_and_sub_window_campaigns() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let hosts: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(8).collect();
    let cfg = YarrpConfig {
        max_ttl: 4,
        ..Default::default()
    };
    assert_pipelines_match(&topo, 1, &[], &cfg);
    let empty = yarrp::run(&mut Engine::new(topo.clone()), 1, &[], &cfg);
    assert_eq!(empty.probes_sent, 0);
    // One target × four TTLs: fewer probes than the window.
    assert_pipelines_match(&topo, 1, &hosts[..1], &cfg);
    let one = yarrp::run(&mut Engine::new(topo.clone()), 1, &hosts[..1], &cfg);
    assert!(one.probes_sent >= 4 && 4 < 2 * yarrp::LOOKAHEAD as u64);
}

#[test]
fn lookahead_matches_naive_at_window_boundaries() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let hosts: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(40).collect();
    let window = 2 * yarrp::LOOKAHEAD;
    // Probe counts of K, 2K - 1, exactly 2K and 2K + 1, with fill off
    // so the permutation alone sets the count.
    for probes in [yarrp::LOOKAHEAD, window - 1, window, window + 1] {
        let cfg = YarrpConfig {
            max_ttl: 1,
            fill_mode: false,
            fill_max_ttl: 1,
            ..Default::default()
        };
        assert_pipelines_match(&topo, 1, &hosts[..probes], &cfg);
        let log = yarrp::run(&mut Engine::new(topo.clone()), 1, &hosts[..probes], &cfg);
        assert_eq!(log.probes_sent, probes as u64);
    }
    // Exactly 2K probes as targets × TTLs.
    let cfg = YarrpConfig {
        max_ttl: 16,
        fill_mode: false,
        ..Default::default()
    };
    let targets = &hosts[..window / 16];
    assert_pipelines_match(&topo, 1, targets, &cfg);
    let log = yarrp::run(&mut Engine::new(topo.clone()), 1, targets, &cfg);
    assert_eq!(log.probes_sent, window as u64);
}

#[test]
fn lookahead_matches_naive_when_neighborhood_skips_inside_the_window() {
    // A window of 2.5 send intervals starts skipping low TTLs a few
    // probes in, so skipped permutation values sit inside the prefetch
    // ring. The 40 ms interval outlasts every TTL ≤ 8 round trip, so no
    // response is stamped later than the next send.
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(12).collect();
    let cfg = YarrpConfig {
        rate_pps: 25,
        max_ttl: 8,
        fill_mode: false,
        neighborhood: Some(yarrp::Neighborhood {
            max_ttl: 6,
            window_us: 100_000,
        }),
        ..Default::default()
    };
    assert_pipelines_match(&topo, 0, &targets, &cfg);
    let log = yarrp::run(&mut Engine::new(topo.clone()), 0, &targets, &cfg);
    assert!(
        log.probes_sent < targets.len() as u64 * 8,
        "fixture must skip probes: {} sent",
        log.probes_sent
    );
}

#[test]
fn lookahead_matches_naive_through_fill_chains_on_every_vantage() {
    // Few targets and a short max_ttl: fill chains start inside the
    // first window and interleave with ring probes.
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(6).collect();
    let cfg = YarrpConfig {
        max_ttl: 3,
        ..Default::default()
    };
    for vantage in 0..3u8 {
        assert_pipelines_match(&topo, vantage, &targets, &cfg);
    }
    let log = yarrp::run(&mut Engine::new(topo.clone()), 2, &targets, &cfg);
    assert!(log.fills > 0, "fixture must exercise fill chains");
    // Vantage 2 on a full-size campaign, every protocol.
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
    for protocol in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
        let cfg = YarrpConfig {
            protocol,
            ..Default::default()
        };
        assert_pipelines_match(&topo, 2, &targets, &cfg);
    }
}
