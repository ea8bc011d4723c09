//! Table 2 — TUM Seed Subsets: sizes of the collection's component sets
//! and the unique union (our synthetic analogues of rapid7-dnsany,
//! caida-dnsnames/traceroute/openipmap, and ct/alexa).

#![forbid(unsafe_code)]

use beholder_bench::fmt::{header, human, row};
use beholder_bench::Scenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let sc = Scenario::load();
    println!("Table 2: TUM Seed Subsets (scale {:?})\n", sc.scale);
    // Rebuild the parts with the catalog's own derivation chain: the
    // catalog synthesizes fdns first, then tum from it; reusing the
    // catalog's fdns keeps the subsets consistent with `seeds.tum`.
    let mut rng = SmallRng::seed_from_u64(beholder_bench::MASTER_SEED ^ 0x70_75_6d);
    let parts = seeds::sources::tum_parts(&sc.topo, &sc.seeds.fdns, &mut rng);
    header(&[("Subset", 18), ("#Entries", 10)]);
    let mut total = 0u64;
    for p in &parts {
        row(&[(p.name.clone(), 18), (human(p.len() as u64), 10)]);
        total += p.len() as u64;
    }
    println!();
    row(&[("Total".into(), 18), (human(total), 10)]);
    row(&[
        ("Total Unique".into(), 18),
        (human(sc.seeds.tum.len() as u64), 10),
    ]);
    println!("\nExpect: heavy overlap between subsets — unique union well below the sum");
    println!("(paper: 80.1M summed, 5.6M unique).");
}
