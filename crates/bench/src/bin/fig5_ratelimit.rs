//! Figure 5 — Probing strategy vs. rate vs. per-hop responsiveness:
//! randomized (Yarrp6) against sequential (scamper-like) at 20 / 1000 /
//! 2000 pps from two vantages, CAIDA target set. The collapse of
//! sequential probing's near-hop responsiveness at high rates — and
//! randomization's immunity — is the paper's central §4.2 result.

#![forbid(unsafe_code)]

use analysis::metrics::hop_responsiveness;
use beholder_bench::Scenario;
use simnet::Engine;
use yarrp6::sequential::{self, SequentialConfig};
use yarrp6::yarrp::{self, YarrpConfig};

const MAX_TTL: u8 = 16;

fn main() {
    let sc = Scenario::load();
    let set = sc.targets.get("caida-z64").expect("caida-z64");
    println!(
        "Figure 5: per-hop responsiveness, sequential vs yarrp (caida-z64, {} targets, scale {:?})\n",
        set.len(),
        sc.scale
    );

    // Paper's panels: one better-connected vantage and US-EDU-2 (long
    // on-prem chain).
    for vantage in [1u8, 2] {
        println!("Vantage: {}", sc.topo.vantages[vantage as usize].name);
        print!("{:>22}", "method/rate \\ hop");
        for h in 1..=MAX_TTL {
            print!(" {h:>5}");
        }
        println!();
        for rate in [20u64, 1_000, 2_000] {
            let seq_cfg = SequentialConfig {
                rate_pps: rate,
                max_ttl: MAX_TTL,
                gap_limit: MAX_TTL, // full tracing, as the trial requires
                ..Default::default()
            };
            let mut e = Engine::new(sc.topo.clone());
            let log = sequential::run(&mut e, vantage, &set.addrs, &seq_cfg);
            print_row(
                &format!("sequential {rate}pps"),
                &hop_responsiveness(&log, MAX_TTL),
            );

            let yar_cfg = YarrpConfig {
                rate_pps: rate,
                max_ttl: MAX_TTL,
                fill_mode: false,
                ..Default::default()
            };
            let mut e = Engine::new(sc.topo.clone());
            let log = yarrp::run(&mut e, vantage, &set.addrs, &yar_cfg);
            print_row(
                &format!("yarrp (rand) {rate}pps"),
                &hop_responsiveness(&log, MAX_TTL),
            );
        }
        println!();
    }
    println!("Expect: at 20pps both methods match; at 1k/2kpps sequential collapses at");
    println!("near hops (drained token buckets) while yarrp stays near its 20pps curve.");
}

fn print_row(name: &str, resp: &[f64]) {
    print!("{name:>22}");
    for r in resp {
        print!(" {r:>5.2}");
    }
    println!();
}
