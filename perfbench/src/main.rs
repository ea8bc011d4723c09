//! `perfbench --workload <sweep|adaptive|hardened> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::path::Path;

fn main() {
    let args = match perfbench::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", perfbench::USAGE);
            std::process::exit(2);
        }
    };
    let io_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("perfbench");
    if let Some(index) = args.child {
        println!("{}", perfbench::child_run(&args, index, &io_root));
        return;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            std::process::exit(1);
        }
    };
    let report = perfbench::run(&args, &exe, &io_root);
    println!(
        "perfbench {} seed {} ({} s{})",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for m in &report.metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for n in &report.notes {
        println!("  {n}");
    }
    for f in &report.failed_checks {
        eprintln!("FAILED CHECK: {f}");
    }
    println!("{}", report.json());
}
