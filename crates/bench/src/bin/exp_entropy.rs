//! Entropy/IP-style structure analysis of the seed lists (\[24\], related
//! work the paper builds on): per-nybble entropy and the segmentation of
//! each list into constant / structured / random fields — a compact
//! fingerprint of how each source's collection bias shows up in the
//! addresses themselves.

#![forbid(unsafe_code)]

use beholder_bench::Scenario;
use std::net::Ipv6Addr;
use v6addr::entropy::{EntropyProfile, SegmentClass};

fn main() {
    let sc = Scenario::load();
    println!("Entropy/IP profile of seed lists (scale {:?})\n", sc.scale);
    println!(
        "{:>10} {:>9} {:>11} {:>36}",
        "list", "addrs", "total bits", "segments (nybble ranges)"
    );
    for (name, list) in sc.seeds.named() {
        let addrs: Vec<Ipv6Addr> = list.addrs().collect();
        let Some(p) = EntropyProfile::of(&addrs) else {
            println!("{name:>10} {:>9} {:>11} (prefix-only list)", 0, "-");
            continue;
        };
        let segs = p.segments();
        let rendered: Vec<String> = segs
            .iter()
            .map(|s| {
                let c = match s.class {
                    SegmentClass::Constant => 'C',
                    SegmentClass::Structured => 'S',
                    SegmentClass::Random => 'R',
                };
                format!("{}..{}{}", s.start, s.end, c)
            })
            .collect();
        println!(
            "{name:>10} {:>9} {:>11.1} {:>36}",
            p.count,
            p.total_bits(),
            rendered.join(" ")
        );
    }
    println!("\nLegend: C constant (shared prefix / zero pad), S structured (allocation");
    println!("counters, low-byte IIDs), R random (privacy IIDs / generated wildcards).");
    println!("Expect: random/6gen carry a long R tail; fdns is S-heavy in the IID;");
    println!("every list is C in the leading prefix nybbles.");
}
