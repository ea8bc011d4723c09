//! Table 1 — Seed List Properties: size and addr6 IID classification of
//! every seed list.

#![forbid(unsafe_code)]

use beholder_bench::fmt::{human, pct};
use beholder_bench::Scenario;
use v6addr::IidClass;

fn main() {
    let sc = Scenario::load();
    println!("Table 1: Seed List Properties (scale: {:?})\n", sc.scale);
    beholder_bench::fmt::header(&[
        ("Name", 10),
        ("#Entries", 10),
        ("#Addrs", 10),
        ("Random", 8),
        ("LowByte", 8),
        ("EUI-64", 8),
    ]);
    let mut lists = sc.seeds.named();
    lists.push(("combined", &sc.seeds.combined));
    for (name, list) in lists {
        let census = list.iid_census();
        let frac = |c| {
            if census.total == 0 {
                "N/A".to_string() // CDN aggregates: prefixes only
            } else {
                pct(census.fraction(c))
            }
        };
        beholder_bench::fmt::row(&[
            (name.to_string(), 10),
            (human(list.len() as u64), 10),
            (human(census.total), 10),
            (frac(IidClass::Random), 8),
            (frac(IidClass::LowByte), 8),
            (frac(IidClass::Eui64), 8),
        ]);
    }
    println!(
        "\n(CDN rows are kIP prefix aggregates; per the paper their IIDs are 'All random' / N/A.)"
    );
}
