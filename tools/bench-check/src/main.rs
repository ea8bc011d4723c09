//! `bench-check` — the CI guard for the repo's `BENCH_*.json`
//! trajectory.
//!
//! Every performance PR commits a benchmark JSON (hot-path pps,
//! columnar-analysis speedup, streaming ratio, adaptive yield). This
//! tool keeps those wins from silently rotting:
//!
//! * `bench-check compare <baseline-dir> <fresh.json>...` — for each
//!   fresh file, loads the same-named baseline, extracts the bench's
//!   **headline ratio** (see [`headline_key`]) and fails when the fresh
//!   value regresses more than `BENCH_CHECK_MAX_REGRESSION` (default
//!   0.30, i.e. >30%) below the baseline. A `scenario` mismatch
//!   against an existing baseline is a failure — cross-scale numbers
//!   must never be conflated, and silently skipping them would turn
//!   the gate into a no-op; regenerate the baseline with the current
//!   env instead. A missing baseline is a note, not a failure (new
//!   benches land before their baseline).
//! * `bench-check merge <out.json> <in.json>...` — bundles bench runs
//!   into one trend artifact for the scheduled CI job.
//!
//! The workspace's `serde` is a deliberate no-op shim (offline
//! container), so the benches hand-roll their JSON and this tool
//! hand-rolls the reading: a tiny scanner that extracts `"key": value`
//! pairs, which is all these flat files need.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// Fraction of the baseline headline the fresh value may lose before
/// the check fails.
const DEFAULT_MAX_REGRESSION: f64 = 0.30;

/// Extracts every numeric value keyed `key` anywhere in `json`.
fn extract_numbers(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let after = rest.trim_start();
        let Some(after) = after.strip_prefix(':') else {
            continue;
        };
        let val = after.trim_start();
        let end = val
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
            .unwrap_or(val.len());
        if let Ok(n) = val[..end].parse::<f64>() {
            out.push(n);
        }
    }
    out
}

/// Extracts the first string value keyed `key`.
fn extract_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let pos = json.find(&needle)?;
    let rest = json[pos + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The headline metric for a bench name: the single ratio a regression
/// gate should watch. Unknown benches fall back to `speedup`, then
/// `yield_ratio`.
fn headline_key(bench: &str) -> &'static [&'static str] {
    match bench {
        "hotpath_pps" | "trace_analysis_pps" | "stream_campaign_pps" | "shard_snapshot_pps" => {
            &["speedup"]
        }
        "adaptive_yield" | "vantage_yield" | "churn_yield" | "poisoned_yield" => &["yield_ratio"],
        // Both phases report a precision; the gate watches the worse.
        "alias_resolution_pps" => &["precision"],
        _ => &["speedup", "yield_ratio"],
    }
}

/// The headline value of a bench JSON: the *minimum* across the
/// headline key's occurrences (trace_analysis_pps reports two speedups;
/// the gate watches the worse one).
fn headline(json: &str) -> Option<(String, f64)> {
    let bench = extract_string(json, "bench")?;
    for key in headline_key(&bench) {
        let vals = extract_numbers(json, key);
        if let Some(min) = vals.into_iter().reduce(f64::min) {
            return Some((bench, min));
        }
    }
    None
}

fn compare(baseline_dir: &str, fresh_paths: &[String], max_regression: f64) -> ExitCode {
    let mut failed = false;
    let mut checked = 0;
    for path in fresh_paths {
        let name = std::path::Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        let Ok(fresh) = std::fs::read_to_string(path) else {
            eprintln!("FAIL {name}: fresh file unreadable");
            failed = true;
            continue;
        };
        let Some((bench, fresh_val)) = headline(&fresh) else {
            eprintln!("FAIL {name}: no headline metric found in fresh file");
            failed = true;
            continue;
        };
        let base_path = format!("{baseline_dir}/{name}");
        let Ok(base) = std::fs::read_to_string(&base_path) else {
            println!("skip {name}: no baseline at {base_path} (new bench?)");
            continue;
        };
        let Some((base_bench, base_val)) = headline(&base) else {
            eprintln!("FAIL {name}: no headline metric found in baseline");
            failed = true;
            continue;
        };
        if bench != base_bench {
            eprintln!("FAIL {name}: bench mismatch ({bench} vs baseline {base_bench})");
            failed = true;
            continue;
        }
        let (fs, bs) = (
            extract_string(&fresh, "scenario"),
            extract_string(&base, "scenario"),
        );
        if fs != bs {
            // A baseline exists but was produced at a different scale:
            // the CI env and the committed baselines have drifted
            // apart. Skipping here would quietly turn the whole gate
            // into a no-op, so it is a failure — regenerate the
            // baseline with the current env.
            eprintln!(
                "FAIL {name}: scenario mismatch ({} vs baseline {}) — \
                 regenerate the baseline with the current bench env",
                fs.as_deref().unwrap_or("-"),
                bs.as_deref().unwrap_or("-")
            );
            failed = true;
            continue;
        }
        checked += 1;
        let floor = base_val * (1.0 - max_regression);
        if fresh_val < floor {
            eprintln!(
                "FAIL {name} ({bench}): headline {fresh_val:.3} regressed below {floor:.3} \
                 (baseline {base_val:.3}, max regression {:.0}%)",
                max_regression * 100.0
            );
            failed = true;
        } else {
            println!(
                "ok   {name} ({bench}): headline {fresh_val:.3} vs baseline {base_val:.3} \
                 (floor {floor:.3})"
            );
        }
    }
    println!("bench-check: {checked} compared, failed: {failed}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn merge(out: &str, inputs: &[String]) -> ExitCode {
    let mut entries = Vec::new();
    for path in inputs {
        match std::fs::read_to_string(path) {
            Ok(s) => entries.push(s.trim().to_string()),
            Err(e) => {
                // A scheduled run should still produce a trend artifact
                // when one bench is missing; note it inline.
                let name = path.replace('"', "'");
                entries.push(format!("{{ \"bench\": \"{name}\", \"error\": \"{e}\" }}"));
            }
        }
    }
    let body = entries
        .iter()
        .map(|e| {
            let indented = e.replace('\n', "\n    ");
            format!("    {indented}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("{{\n  \"bench\": \"trend\",\n  \"entries\": [\n{body}\n  ]\n}}\n");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("FAIL: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("bench-check: merged {} run(s) into {out}", inputs.len());
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench-check compare <baseline-dir> <fresh.json>...\n  bench-check merge <out.json> <in.json>..."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_regression = std::env::var("BENCH_CHECK_MAX_REGRESSION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_MAX_REGRESSION);
    match args.split_first() {
        Some((cmd, rest)) if cmd == "compare" && rest.len() >= 2 => {
            compare(&rest[0], &rest[1..], max_regression)
        }
        Some((cmd, rest)) if cmd == "merge" && rest.len() >= 2 => merge(&rest[0], &rest[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANALYSIS: &str = r#"{
  "bench": "trace_analysis_pps",
  "scenario": "tiny combined-z64 x16",
  "reconstruction": { "speedup": 3.504 },
  "subnet_inference": { "speedup": 4.091 }
}"#;

    const ADAPTIVE: &str = r#"{
  "bench": "adaptive_yield",
  "scenario": "tiled x2",
  "static": { "interfaces": 538, "elapsed_s": 0.21 },
  "adaptive": { "interfaces": 901, "elapsed_s": 0.16 },
  "yield_ratio": 1.675
}"#;

    #[test]
    fn extracts_numbers_and_strings() {
        assert_eq!(extract_numbers(ANALYSIS, "speedup"), vec![3.504, 4.091]);
        assert_eq!(extract_numbers(ADAPTIVE, "yield_ratio"), vec![1.675]);
        assert_eq!(
            extract_string(ANALYSIS, "bench").as_deref(),
            Some("trace_analysis_pps")
        );
        assert_eq!(
            extract_string(ADAPTIVE, "scenario").as_deref(),
            Some("tiled x2")
        );
        assert!(extract_numbers(ANALYSIS, "missing").is_empty());
        assert!(extract_string(ANALYSIS, "missing").is_none());
    }

    #[test]
    fn headline_takes_worst_occurrence() {
        let (bench, v) = headline(ANALYSIS).unwrap();
        assert_eq!(bench, "trace_analysis_pps");
        assert!((v - 3.504).abs() < 1e-9);
        let (bench, v) = headline(ADAPTIVE).unwrap();
        assert_eq!(bench, "adaptive_yield");
        assert!((v - 1.675).abs() < 1e-9);
        assert!(headline("{\"no\": 1}").is_none());
    }

    #[test]
    fn alias_headline_is_worst_precision() {
        let j = r#"{
  "bench": "alias_resolution_pps",
  "scenario": "tiled x2",
  "standalone": { "pps": 240000, "precision": 1.0000, "recall": 0.98 },
  "adaptive": { "precision": 0.9412, "recall": 0.9000 }
}"#;
        let (bench, v) = headline(j).unwrap();
        assert_eq!(bench, "alias_resolution_pps");
        assert!((v - 0.9412).abs() < 1e-9, "worse precision wins: {v}");
    }

    #[test]
    fn negative_and_scientific_numbers_parse() {
        let j = r#"{"bench":"x","speedup": 1.2e1, "other": -3.5}"#;
        assert_eq!(extract_numbers(j, "speedup"), vec![12.0]);
        assert_eq!(extract_numbers(j, "other"), vec![-3.5]);
    }

    #[test]
    fn compare_logic_end_to_end() {
        let dir = std::env::temp_dir().join(format!("bench-check-test-{}", std::process::id()));
        let base_dir = dir.join("base");
        std::fs::create_dir_all(&base_dir).unwrap();
        let fresh_path = dir.join("BENCH_analysis.json");
        let base_path = base_dir.join("BENCH_analysis.json");
        std::fs::write(&base_path, ANALYSIS).unwrap();

        // Within tolerance (30% of 3.504 → floor 2.45).
        std::fs::write(&fresh_path, ANALYSIS.replace("3.504", "2.6")).unwrap();
        let ok = compare(
            base_dir.to_str().unwrap(),
            &[fresh_path.to_string_lossy().into_owned()],
            DEFAULT_MAX_REGRESSION,
        );
        assert_eq!(ok, ExitCode::SUCCESS);

        // Beyond tolerance.
        std::fs::write(&fresh_path, ANALYSIS.replace("3.504", "2.0")).unwrap();
        let bad = compare(
            base_dir.to_str().unwrap(),
            &[fresh_path.to_string_lossy().into_owned()],
            DEFAULT_MAX_REGRESSION,
        );
        assert_eq!(bad, ExitCode::FAILURE);

        // Scenario mismatch against an existing baseline fails: a
        // drifted CI env must not silently disable the gate.
        std::fs::write(
            &fresh_path,
            ANALYSIS.replace("x16", "x64").replace("3.504", "9.9"),
        )
        .unwrap();
        let drifted = compare(
            base_dir.to_str().unwrap(),
            &[fresh_path.to_string_lossy().into_owned()],
            DEFAULT_MAX_REGRESSION,
        );
        assert_eq!(drifted, ExitCode::FAILURE);

        // Missing baseline skips.
        let lone = dir.join("BENCH_new.json");
        std::fs::write(&lone, ADAPTIVE).unwrap();
        let skipped = compare(
            base_dir.to_str().unwrap(),
            &[lone.to_string_lossy().into_owned()],
            DEFAULT_MAX_REGRESSION,
        );
        assert_eq!(skipped, ExitCode::SUCCESS);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_produces_wrapped_json() {
        let dir = std::env::temp_dir().join(format!("bench-check-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let out = dir.join("trend.json");
        std::fs::write(&a, ADAPTIVE).unwrap();
        let code = merge(
            out.to_str().unwrap(),
            &[
                a.to_string_lossy().into_owned(),
                dir.join("missing.json").to_string_lossy().into_owned(),
            ],
        );
        assert_eq!(code, ExitCode::SUCCESS);
        let trend = std::fs::read_to_string(&out).unwrap();
        assert!(trend.contains("\"bench\": \"trend\""));
        assert!(trend.contains("adaptive_yield"));
        assert!(trend.contains("error"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
