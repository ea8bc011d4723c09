//! End-to-end hot-path throughput: probes/second through the full
//! probe → engine → decode → record pipeline on the `tiny` scenario,
//! for both the template/buffer-reuse hot path and the naive
//! build-per-probe reference. Writes `BENCH_hotpath.json` so the
//! performance trajectory is tracked PR over PR.

#![forbid(unsafe_code)]

use simnet::config::TopologyConfig;
use simnet::{Engine, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;
use yarrp6::yarrp::{self, YarrpConfig};

struct Measurement {
    probes: u64,
    elapsed_s: f64,
    pps: f64,
}

fn measure<F: FnMut(&mut Engine) -> u64>(
    topo: &Arc<Topology>,
    reps: usize,
    mut f: F,
) -> Measurement {
    let mut best_pps = 0.0f64;
    let mut probes = 0u64;
    let mut best_elapsed = f64::INFINITY;
    for _ in 0..reps {
        let mut engine = Engine::new(topo.clone());
        let t0 = Instant::now();
        let n = f(&mut engine);
        let dt = t0.elapsed().as_secs_f64();
        let pps = n as f64 / dt;
        if pps > best_pps {
            best_pps = pps;
            best_elapsed = dt;
            probes = n;
        }
    }
    Measurement {
        probes,
        elapsed_s: best_elapsed,
        pps: best_pps,
    }
}

fn main() {
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiny(7)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
    let cfg = YarrpConfig::default();
    let reps = 5;
    println!(
        "hotpath_pps: tiny scenario, {} targets x {} TTLs, best of {reps} runs",
        targets.len(),
        cfg.max_ttl
    );

    let hot = measure(&topo, reps, |e| {
        yarrp::run(e, 0, &targets, &cfg).probes_sent
    });
    println!(
        "  hot path   : {:>9} probes in {:.3}s  = {:>12.0} pps",
        hot.probes, hot.elapsed_s, hot.pps
    );

    let naive = measure(&topo, reps, |e| {
        yarrp::run_reference(e, 0, &targets, &cfg).probes_sent
    });
    println!(
        "  naive path : {:>9} probes in {:.3}s  = {:>12.0} pps",
        naive.probes, naive.elapsed_s, naive.pps
    );

    let speedup = hot.pps / naive.pps;
    println!("  speedup    : {speedup:.2}x");

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"hotpath_pps\",\n  \"scenario\": \"tiny\",\n  \"targets\": {},\n  \"max_ttl\": {},\n  \"probes\": {},\n  \"hot\": {{ \"elapsed_s\": {:.6}, \"pps\": {:.0} }},\n  \"naive\": {{ \"elapsed_s\": {:.6}, \"pps\": {:.0} }},\n  \"speedup\": {:.3}\n}}\n",
        targets.len(),
        cfg.max_ttl,
        hot.probes,
        hot.elapsed_s,
        hot.pps,
        naive.elapsed_s,
        naive.pps,
        speedup
    );
    let path = "BENCH_hotpath.json";
    std::fs::write(path, json).expect("write BENCH_hotpath.json");
    println!("  wrote {path}");
}
