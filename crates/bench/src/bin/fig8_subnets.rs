//! Figure 8 — Subnets inferred by path divergence: (a) CDF of inferred
//! minimum prefix lengths per z64 target set, (b) counts by length,
//! including the /64 "IA hack" discoveries.

#![forbid(unsafe_code)]

use analysis::{discover_by_path_div, ia_hack, PathDivParams, TraceSet};
use beholder_bench::fmt::human;
use beholder_bench::Scenario;
use yarrp6::campaign::{try_run_campaigns_parallel, CampaignSpec};
use yarrp6::YarrpConfig;

const POINTS: [u8; 11] = [24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64];

fn main() {
    let sc = Scenario::load();
    println!(
        "Figure 8: subnets inferred by path divergence (scale {:?})\n",
        sc.scale
    );
    let cfg = YarrpConfig::default();
    let resolver = sc.resolver();
    let params = PathDivParams::default();

    let sets: Vec<_> = sc
        .targets
        .iter()
        .filter(|(n, _)| n.ends_with("-z64") && !n.starts_with("random"))
        .map(|(_, s)| s)
        .collect();

    println!("(a) CDF of inferred minimum prefix lengths; (b) counts and IA-hack /64s\n");
    print!("{:>12}", "set \\ len<=");
    for p in POINTS {
        print!(" {p:>5}");
    }
    println!(" {:>8} {:>8}", "total", "IA/64s");

    let mut grand_total = 0u64;
    let mut grand_ia = 0u64;
    for set in sets {
        // All three vantages contribute traces (the paper pools 45.8M).
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
        // Traces are analyzed per vantage (paths from different vantages
        // must not be mixed into one trace); candidate sets are unioned.
        let mut cands: Vec<analysis::CandidateSubnet> = Vec::new();
        let mut ia: Vec<analysis::CandidateSubnet> = Vec::new();
        for (v, out) in outs.into_iter().enumerate() {
            let ts = TraceSet::from_log(&out.log);
            let vantage_asn = sc.topo.ases[sc.topo.vantages[v].as_idx as usize].asn;
            cands.extend(discover_by_path_div(&ts, &resolver, vantage_asn, &params));
            ia.extend(ia_hack(&ts));
        }
        cands.sort_by_key(|c| (c.prefix.base_word(), c.prefix.len()));
        cands.dedup();
        ia.sort_by_key(|c| c.prefix.base_word());
        ia.dedup();

        // CDF over divergence-inferred lengths.
        let mut lens: Vec<u8> = cands.iter().map(|c| c.prefix.len()).collect();
        lens.sort_unstable();
        print!("{:>12}", set.name.trim_end_matches("-z64"));
        for p in POINTS {
            let frac = if lens.is_empty() {
                0.0
            } else {
                lens.partition_point(|&l| l <= p) as f64 / lens.len() as f64
            };
            print!(" {frac:>5.2}");
        }
        println!(
            " {:>8} {:>8}",
            human(lens.len() as u64),
            human(ia.len() as u64)
        );
        grand_total += lens.len() as u64;
        grand_ia += ia.len() as u64;
    }
    println!(
        "\nCombined candidates: {}; combined IA-hack /64 discoveries: {}",
        human(grand_total),
        human(grand_ia)
    );
    println!("Expect: per-set CDFs track the target sets' DPL distributions (Fig 3a);");
    println!("cdn sets cap out at the kIP aggregate lengths; DNS-based sets reach /64.");
}
