//! The repository benchmark: three workloads (`sweep`, `adaptive`,
//! `hardened`) driven through the library's serial entry points, with
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. See `README.md` beside this crate.

pub mod measure;
pub mod trace;
pub mod workload;

use measure::{median, tail_percentile, with_peak_rss};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::{RoundRow, Tracer};
use workload::{Checks, Output, RoundClock, RunFigures, Workload};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Each timed run sets up as many times as fit in this many seconds
/// (at least once): `setup_s` is their median, so a fast set-up is
/// sampled often enough for a steady median.
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 100;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set when this process is one timed run of a parent benchmark.
    pub child: Option<usize>,
}

pub const USAGE: &str =
    "usage: perfbench --workload <sweep|adaptive|hardened> [--seed N] [--seconds S] [--trace 0|1]";

/// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
pub fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Sweep,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(bad)?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--child" => args.child = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything a benchmark run reports.
pub struct Report {
    pub attempted: u64,
    pub failed_checks: Vec<String>,
    pub failed_campaigns: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures for the human-readable table only.
    pub notes: Vec<String>,
}

impl Report {
    pub fn failed(&self) -> u64 {
        self.failed_checks.len() as u64 + self.failed_campaigns
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one timed run, in a process of its own, reports.
#[derive(Clone, Debug, Default)]
pub struct ChildReport {
    /// Median of the child's set-ups.
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub figures: RunFigures,
    pub checks_attempted: u64,
    pub checks_failed: u64,
}

impl ChildReport {
    const TAG: &'static str = "perfbench-child";

    fn line(&self) -> String {
        let f = &self.figures;
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {}",
            Self::TAG,
            self.setup_s,
            self.peak_rss_mib,
            f.wall_s,
            f.probes,
            f.discovery_probes,
            f.interfaces,
            f.subnets.map_or(-1, |v| v as i64),
            f.resume_s.unwrap_or(-1.0),
            f.campaigns,
            f.failed_campaigns,
            self.checks_attempted,
            self.checks_failed,
        )
    }

    fn parse(line: &str) -> Option<ChildReport> {
        let mut it = line.split_whitespace();
        if it.next()? != Self::TAG {
            return None;
        }
        let mut next = || it.next()?.parse::<f64>().ok();
        let mut c = ChildReport {
            setup_s: next()?,
            peak_rss_mib: next()?,
            ..ChildReport::default()
        };
        let f = &mut c.figures;
        f.wall_s = next()?;
        f.probes = next()? as u64;
        f.discovery_probes = next()? as u64;
        f.interfaces = next()? as u64;
        f.subnets = Some(next()?).filter(|v| *v >= 0.0).map(|v| v as u64);
        f.resume_s = Some(next()?).filter(|v| *v >= 0.0);
        f.campaigns = next()? as u64;
        f.failed_campaigns = next()? as u64;
        c.checks_attempted = next()? as u64;
        c.checks_failed = next()? as u64;
        Some(c)
    }
}

/// Builds the workload's inputs at least once and until
/// [`SETUP_BUDGET_S`] is spent; returns the last set-up and the
/// median set-up time.
fn timed_setups(args: &Args) -> (workload::Setup, f64) {
    let mut times = Vec::new();
    let mut setup = None;
    while times.is_empty()
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(workload::setup(args.workload, args.seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (setup.expect("at least one set-up"), median(&times))
}

/// One timed run: set-up, then the run with its peak RSS. The first
/// child (`index` 0) also checks the run's outputs, after the timed
/// region. Returns the line the parent parses.
pub fn child_run(args: &Args, index: usize, io_root: &Path) -> String {
    let (setup, setup_s) = timed_setups(args);
    let io_dir = io_root.join(format!("io-{}", std::process::id()));
    let mut checks = Checks::default();
    checks.check(
        "temporary directory created",
        std::fs::create_dir_all(&io_dir).is_ok(),
    );
    let mut report = ChildReport {
        setup_s,
        ..ChildReport::default()
    };
    match with_peak_rss(|| workload::run(&setup, &io_dir, None)) {
        Ok(((out, figures), peak)) => {
            report.figures = figures;
            report.peak_rss_mib = peak as f64 / (1u64 << 20) as f64;
            if index == 0 {
                workload::check(&setup, &out, &mut checks);
            }
        }
        Err(e) => checks.check(&format!("peak RSS measurable: {e}"), false),
    }
    let _ = std::fs::remove_dir_all(&io_dir);
    for f in &checks.failed {
        eprintln!("FAILED CHECK: {f}");
    }
    report.checks_attempted = checks.attempted;
    report.checks_failed = checks.failed.len() as u64;
    report.line()
}

fn spawn_child(exe: &Path, args: &Args, index: usize) -> Result<ChildReport, String> {
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", &index.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(ChildReport::parse)
        .ok_or_else(|| "printed no report".to_string())
}

/// Runs the benchmark: timed runs, one process each (`exe` is this
/// benchmark's binary), until their walls add up to `args.seconds`;
/// then, with `args.trace`, the traced run in this process. Temporary
/// files go under `io_root`.
pub fn run(args: &Args, exe: &Path, io_root: &Path) -> Report {
    let mut checks = Checks::default();
    let mut kids: Vec<ChildReport> = Vec::new();
    let mut measured = 0.0;
    while kids.is_empty() || measured < args.seconds {
        match spawn_child(exe, args, kids.len()) {
            Ok(k) if k.figures.wall_s > 0.0 => {
                measured += k.figures.wall_s;
                kids.push(k);
            }
            Ok(_) => {
                checks.check(&format!("timed run {} ran", kids.len()), false);
                break;
            }
            Err(e) => {
                checks.check(&format!("timed run {}: {e}", kids.len()), false);
                break;
            }
        }
    }
    let runs: Vec<RunFigures> = kids.iter().map(|k| k.figures).collect();
    checks.check(
        "runs agree on probes and interfaces",
        runs.windows(2)
            .all(|p| (p[0].probes, p[0].interfaces) == (p[1].probes, p[1].interfaces)),
    );
    let col = |f: &dyn Fn(&ChildReport) -> f64| -> Vec<f64> { kids.iter().map(f).collect() };
    let walls = col(&|k| k.figures.wall_s);
    let rss = col(&|k| k.peak_rss_mib);
    let wall_s = median(&walls);
    let probes = median(&col(&|k| k.figures.probes as f64));
    let interfaces = median(&col(&|k| k.figures.interfaces as f64));
    let discovery_probes = median(&col(&|k| k.figures.discovery_probes as f64));
    let pps = median(&col(&|k| ratio(k.figures.probes as f64, k.figures.wall_s)));
    let e2e = vec![
        metric("setup_s", "s", median(&col(&|k| k.setup_s))),
        metric("wall_s", "s", wall_s),
        metric("probes_per_s", "1/s", pps),
        metric("peak_rss_mib", "MiB", median(&rss)),
        metric("interfaces", "count", interfaces),
        metric(
            "yield_per_kprobe",
            "1/kprobe",
            1000.0 * ratio(interfaces, discovery_probes),
        ),
    ];

    let mut notes = Vec::new();
    let tail = match tail_percentile(&walls) {
        Some((p, v)) => format!("p{p} {v:.4} s"),
        None => "no percentile has ten samples beyond it".into(),
    };
    notes.push(format!(
        "wall_s: median {wall_s:.4} s over {} runs; {tail}",
        walls.len()
    ));
    notes.push(format!("probes per run: {probes}"));
    notes.push(format!("runs: wall_s {walls:.3?}; peak_rss_mib {rss:.1?}"));
    if let Some(sub) = runs.last().and_then(|f| f.subnets) {
        notes.push(format!("subnets: {sub} count"));
    }
    let resumes: Vec<f64> = runs.iter().filter_map(|f| f.resume_s).collect();
    if !resumes.is_empty() {
        notes.push(format!("resume_s: {} s (median)", median(&resumes)));
    }

    let mut campaigns: u64 = runs.iter().map(|f| f.campaigns).sum();
    let mut failed_campaigns: u64 = runs.iter().map(|f| f.failed_campaigns).sum();
    let checks_failed: u64 = kids.iter().map(|k| k.checks_failed).sum();
    let mut attempted = kids.iter().map(|k| k.checks_attempted).sum::<u64>();
    let metrics = if args.trace {
        let io_dir = io_root.join(format!(
            "io-{}-{}-{}",
            std::process::id(),
            args.workload.name(),
            args.seed
        ));
        checks.check(
            "temporary directory created",
            std::fs::create_dir_all(&io_dir).is_ok(),
        );
        let (setup, _) = timed_setups(args);
        let (metrics, figures) = traced_run(&setup, &io_dir, wall_s, &mut checks, &mut notes);
        let _ = std::fs::remove_dir_all(&io_dir);
        campaigns += figures.campaigns;
        failed_campaigns += figures.failed_campaigns;
        metrics
    } else {
        e2e
    };
    attempted += campaigns + checks.attempted;
    let failed = failed_campaigns + checks_failed + checks.failed.len() as u64;
    notes.push(format!(
        "failed_share: {} ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    ));
    if checks_failed > 0 {
        checks
            .failed
            .push(format!("{checks_failed} check(s) failed in a timed run"));
    }
    Report {
        attempted,
        failed_checks: checks.failed,
        failed_campaigns,
        metrics,
        notes,
    }
}

/// The traced run and its replays; returns the per-layer metrics.
fn traced_run(
    setup: &workload::Setup,
    io_dir: &Path,
    untraced_wall_s: f64,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> (Vec<Metric>, RunFigures) {
    let w = setup.workload;
    let mut tr = Tracer::new(format!("{}-seed{}", w.name(), setup.rng_seed));
    let mut clock = RoundClock::default();
    let start = Instant::now();
    let (out, figures) = workload::run(setup, io_dir, Some(&mut clock));
    let root = tr.record("workload.run", None, start, Instant::now());
    workload::check(setup, &out, checks);
    let (counts, rows) = trace::replay(&mut tr, root, setup, &out, &clock, start, io_dir, checks);

    let traced_wall = tr.duration_s(root);
    let stats = match &out {
        Output::Sweep(Ok((_, stats))) => *stats,
        Output::Sweep(Err(_)) => Default::default(),
        Output::Adaptive(res) => res.stats,
        Output::Hardened(h) => h.full.stats,
    };
    let (merge_s, write_s, read_s, decode_s) = match &out {
        Output::Hardened(h) => (h.merge_s, h.write_s, h.read_s, h.decode_s),
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    let sum = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0, |a, b| a + b);
    let encode_s = sum(&mut clock.encode_s.iter().copied());
    let t = |name: &str| tr.total_s(name);
    let (render, inject, decode) = (t("v6packet.render"), t("simnet.inject"), t("yarrp6.decode"));
    let (campaign, ingest) = (t("yarrp6.campaign"), t("analysis.ingest"));
    let probes = counts.probes as f64;
    let round_s = sum(&mut rows.iter().map(|r| r.round_s));
    let residual_s = sum(&mut rows.iter().map(|r| r.residual_s));
    let share = |v: f64| ratio(v, traced_wall);

    let m = metric;
    let metrics = vec![
        m(
            "v6packet.render_ns_per_probe",
            "ns",
            1e9 * ratio(render, probes),
        ),
        m("simnet.generate_s", "s", setup.generate_s),
        m("simnet.inject_s", "s", inject),
        m(
            "simnet.inject_ns_per_probe",
            "ns",
            1e9 * ratio(inject, probes),
        ),
        m(
            "simnet.responses_per_probe",
            "ratio",
            ratio(stats.responses() as f64, stats.probes as f64),
        ),
        m(
            "simnet.rate_limited_share",
            "share",
            ratio(stats.rate_limited as f64, stats.probes as f64),
        ),
        m("yarrp6.campaign_s", "s", campaign),
        m(
            "yarrp6.prober_self_s",
            "s",
            campaign - inject - render - decode,
        ),
        m(
            "yarrp6.decode_ns_per_response",
            "ns",
            1e9 * ratio(decode, counts.deliveries as f64),
        ),
        m(
            "yarrp6.records_per_probe",
            "ratio",
            ratio(counts.records as f64, probes),
        ),
        m(
            "yarrp6.decode_rejects",
            "count",
            counts.decode_rejects as f64,
        ),
        m("yarrp6.sink_wait_s", "s", counts.sink_wait_s),
        m(
            "yarrp6.sink_peak_records",
            "count",
            counts.sink_peak_records as f64,
        ),
        m("analysis.ingest_s", "s", ingest),
        m(
            "analysis.ingest_records_per_s",
            "1/s",
            ratio(counts.records as f64, ingest),
        ),
        m(
            "analysis.discovery_delta_share",
            "share",
            share(t("analysis.discovery_delta")),
        ),
        m(
            "analysis.ia_hack_share",
            "share",
            share(t("analysis.ia_hack")),
        ),
        m(
            "analysis.path_div_share",
            "share",
            share(t("analysis.path_div")),
        ),
        m(
            "analysis.quarantine_share",
            "share",
            share(t("analysis.quarantine")),
        ),
        m(
            "analysis.quarantine_cells_dropped_share",
            "share",
            ratio(counts.cells_dropped as f64, counts.cells as f64),
        ),
        m(
            "analysis.store_share",
            "share",
            share(merge_s + write_s + read_s),
        ),
        m(
            "analysis.snapshot_bytes",
            "bytes",
            counts.snapshot_bytes as f64,
        ),
        m(
            "seeds.feedback_list_share",
            "share",
            share(t("seeds.feedback_list")),
        ),
        m(
            "seeds.feedback_entries",
            "count",
            counts.feedback_entries as f64,
        ),
        m(
            "targets.feedback_targets_share",
            "share",
            share(t("targets.feedback_targets")),
        ),
        m("targets.pool_size", "count", counts.pool_size as f64),
        m(
            "targets.pool_fresh_share",
            "share",
            ratio(counts.pool_fresh as f64, counts.pool_size as f64),
        ),
        m(
            "aliasres.graph_ingest_share",
            "share",
            share(t("aliasres.graph_ingest")),
        ),
        m("aliasres.alias_probes", "count", counts.alias_probes as f64),
        m(
            "aliasres.pairs_confirmed",
            "count",
            counts.pairs_confirmed as f64,
        ),
        m("aliasres.precision", "share", counts.precision),
        m("aliasres.recall", "share", counts.recall),
        m("adaptive.rounds", "count", counts.rounds as f64),
        m(
            "adaptive.residual_share",
            "share",
            ratio(residual_s, round_s),
        ),
        m("checkpoint.share", "share", share(encode_s + decode_s)),
        m("checkpoint.bytes", "bytes", counts.checkpoint_bytes as f64),
    ];

    // Absolute stage times: zero on a workload whose stage is off, so
    // they go to the table rather than the metrics line.
    let absolute = [
        ("yarrp6.stream_campaign_s", t("yarrp6.stream_campaign")),
        ("analysis.discovery_delta_s", t("analysis.discovery_delta")),
        ("analysis.ia_hack_s", t("analysis.ia_hack")),
        ("analysis.path_div_s", t("analysis.path_div")),
        ("analysis.quarantine_s", t("analysis.quarantine")),
        ("analysis.merge_all_s", merge_s),
        ("analysis.snapshot_write_s", write_s),
        ("analysis.snapshot_read_s", read_s),
        ("seeds.feedback_list_s", t("seeds.feedback_list")),
        ("targets.feedback_targets_s", t("targets.feedback_targets")),
        ("aliasres.graph_ingest_s", t("aliasres.graph_ingest")),
        ("adaptive.round_s", round_s),
        ("adaptive.residual_s", residual_s),
        ("checkpoint.encode_s", encode_s),
        ("checkpoint.decode_s", decode_s),
        ("checkpoint.save_dir_s", t("checkpoint.save_dir")),
        ("checkpoint.load_dir_s", t("checkpoint.load_dir")),
    ];
    for (name, v) in absolute {
        notes.push(format!("{name}: {v:.6} s"));
    }
    if setup.hostile > 0 {
        notes.push(format!("hostile routers: {}", setup.hostile));
    }
    notes.push(format!(
        "tracing overhead: {:.4} s (traced wall {traced_wall:.4} s - untraced median {untraced_wall_s:.4} s)",
        traced_wall - untraced_wall_s
    ));
    notes.extend(rows.iter().map(round_note));

    let trace_dir = io_dir.parent().unwrap_or(io_dir).join("trace");
    let path = trace_dir.join(format!("{}.jsonl", tr.run_id));
    let written = std::fs::create_dir_all(&trace_dir).and_then(|_| tr.write_jsonl(&path));
    checks.check("spans written", written.is_ok());
    notes.push(format!("spans: {}", path.display()));
    (metrics, figures)
}

fn round_note(r: &RoundRow) -> String {
    let layers: Vec<String> = r
        .layers
        .iter()
        .filter(|(_, v)| *v > 0.0)
        .map(|(n, v)| format!("{n} {v:.4}"))
        .collect();
    format!(
        "round {}: round_s {:.4} = {} + residual {:.4}",
        r.round,
        r.round_s,
        layers.join(" + "),
        r.residual_s
    )
}
