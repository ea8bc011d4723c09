//! Figure 3 — Discriminating Prefix Length distributions for the z64
//! target sets: (a) each set alone, (b) each set's addresses inside the
//! combination of all sets. A rightward shift from (a) to (b) means other
//! sets interleave with — and add discriminating power to — this one.

#![forbid(unsafe_code)]

use beholder_bench::Scenario;
use targets::TargetSet;

const POINTS: [u8; 11] = [24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64];

fn main() {
    let sc = Scenario::load();
    println!(
        "Figure 3: DPL distributions, CDF at sampled lengths (scale {:?})\n",
        sc.scale
    );

    let sets: Vec<&TargetSet> = sc
        .targets
        .iter()
        .filter(|(n, _)| {
            n.ends_with("-z64") && !n.starts_with("combined") && !n.starts_with("random")
        })
        .map(|(_, s)| s)
        .collect();
    let combined = TargetSet::union("combined", &sets);

    println!("(a) Each set alone:");
    print_header();
    for set in &sets {
        let cdf = set.dpl_cdf();
        print_row(set.name.trim_end_matches("-z64"), |l| cdf.fraction_at(l));
    }

    println!("\n(b) Each set within the combination:");
    print_header();
    for set in &sets {
        let cdf = set.dpl_cdf_within(&combined);
        print_row(set.name.trim_end_matches("-z64"), |l| cdf.fraction_at(l));
    }
    println!("\nExpect: fiebig far right (dense) both alone and combined; caida far left alone");
    println!("but shifted right in combination; large sets (cdn-k32, 6gen, tum) barely shift.");
}

fn print_header() {
    print!("{:>12}", "set \\ DPL<=");
    for p in POINTS {
        print!(" {p:>5}");
    }
    println!();
}

fn print_row(name: &str, f: impl Fn(u8) -> f64) {
    print!("{name:>12}");
    for p in POINTS {
        print!(" {:>5.2}", f(p));
    }
    println!();
}
