//! The three workloads: their inputs (built from the seed), one timed
//! run each, and the output checks.

use analysis::{
    read_sharded_snapshot, stream_campaign, write_sharded_snapshot, PathDivParams, ShardedTraceSet,
    TraceSet,
};
use beholder::adaptive::{
    resume_adaptive, run_adaptive, run_adaptive_checkpointed, AdaptiveConfig, AdaptiveResult,
};
use beholder::checkpoint::Checkpoint;
use seeds::feedback::FeedbackParams;
use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::topology::{RouterId, RouterRole};
use simnet::{AdversarialClass, AdversarialSchedule, EngineStats, Scale, Topology};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use targets::synthesize::synthesize;
use targets::{IidStrategy, TargetSet};
use yarrp6::addrset::AddrSet;
use yarrp6::campaign::run_campaign;
use yarrp6::{StreamConfig, YarrpConfig};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One streaming Yarrp6 campaign over a static hitlist.
    Sweep,
    /// The multi-round feedback loop on one vantage.
    Adaptive,
    /// The feedback loop with hostile responders, quarantine, alias
    /// resolution, checkpoint/resume and the snapshot store.
    Hardened,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Adaptive, Workload::Hardened];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Adaptive => "adaptive",
            Workload::Hardened => "hardened",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Every 5th edge router of the hardened topology is hostile.
const HOSTILE_STRIDE: usize = 5;
/// Shards of the hardened workload's persisted store.
const STORE_SHARDS: usize = 16;
/// Probe budget of both feedback-loop workloads.
const LOOP_BUDGET: u64 = 2_000_000;

/// A workload's inputs: everything built from the seed before the
/// timed region.
pub struct Setup {
    pub workload: Workload,
    pub topo: Arc<Topology>,
    /// The sweep's hitlist, or the feedback loop's round-0 seeds.
    pub initial: TargetSet,
    /// Hostile routers in the topology's adversarial schedule.
    pub hostile: usize,
    /// Seconds spent in topology generation.
    pub generate_s: f64,
    pub rng_seed: u64,
}

/// Builds the workload's topology, seed catalog and target set from
/// `seed` (and, for `hardened`, the adversarial schedule).
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let t0 = Instant::now();
    let tc = match workload {
        Workload::Sweep => TopologyConfig::at_scale(Scale::Small, seed),
        Workload::Adaptive => TopologyConfig::tiled(seed, 8),
        Workload::Hardened => TopologyConfig::tiled(seed, 4),
    };
    let mut topo = simnet::generate::generate(tc);
    let generate_s = t0.elapsed().as_secs_f64();
    // The generator never reads the adversarial schedule (only the
    // engine does), so installing it after generation equals generating
    // with it, without a second generation pass to learn router roles.
    // Routers in the vantages' own ASes stay honest: a hostile router on
    // a vantage's site sits on every path from it, and whether one lands
    // there is a per-seed coin flip that swings the run's probes and
    // memory by a fifth.
    let mut hostile = 0;
    if workload == Workload::Hardened {
        let mut sched = AdversarialSchedule::default();
        let edge = topo.routers.iter().enumerate().filter(|(_, r)| {
            matches!(
                r.role,
                RouterRole::Distribution | RouterRole::LanGateway | RouterRole::Cpe
            ) && topo.vantages.iter().all(|v| v.as_idx != r.as_idx)
        });
        for (i, _) in edge.step_by(HOSTILE_STRIDE) {
            let class = AdversarialClass::ALL[hostile % AdversarialClass::ALL.len()];
            sched = sched.with_hostile_always(RouterId(i as u32), class);
            hostile += 1;
        }
        topo.config.adversarial = sched;
    }
    let topo = Arc::new(topo);
    let catalog = SeedCatalog::synthesize(&topo, seed);
    let initial = match workload {
        Workload::Sweep => synthesize(
            "combined-z64",
            &targets::zn(&catalog.combined, 64),
            IidStrategy::FixedIid,
        ),
        Workload::Adaptive => synthesize(
            "adaptive-r0",
            &targets::zn(&catalog.caida, 64),
            IidStrategy::FixedIid,
        ),
        Workload::Hardened => synthesize(
            "adaptive-r0",
            &targets::zn(&catalog.combined, 64),
            IidStrategy::FixedIid,
        ),
    };
    Setup {
        workload,
        topo,
        initial,
        hostile,
        generate_s,
        rng_seed: seed,
    }
}

/// The sweep's prober configuration.
pub fn sweep_config() -> YarrpConfig {
    YarrpConfig::default()
}

/// The feedback loop's configuration for `adaptive` / `hardened`.
pub fn loop_config(s: &Setup) -> AdaptiveConfig {
    let yarrp = YarrpConfig {
        fill_mode: false, // exact probe accounting: cost = targets × max_ttl
        ..YarrpConfig::default()
    };
    let (vantages, rounds) = match s.workload {
        Workload::Hardened => (vec![0, 1, 2], 8),
        _ => (vec![0], 16),
    };
    let per_target = yarrp.max_ttl as u64 * vantages.len() as u64;
    let round_targets = (LOOP_BUDGET / per_target) as usize / rounds;
    let hardened = s.workload == Workload::Hardened;
    AdaptiveConfig {
        yarrp,
        vantage_budgeting: hardened,
        vantages,
        probe_budget: LOOP_BUDGET,
        round_targets,
        shards: 4,
        max_rounds: rounds,
        min_yield_per_kprobes: 0.0,
        feedback: FeedbackParams {
            sixgen_budget: 8 * round_targets,
            ..FeedbackParams::default()
        },
        rng_seed: s.rng_seed,
        path_div: (!hardened).then(PathDivParams::default),
        quarantine_feedback: hardened,
        alias_resolution: hardened,
        ..AdaptiveConfig::default()
    }
}

/// Wall-clock marks the feedback loop's round callbacks leave behind.
#[derive(Default)]
pub struct RoundClock {
    /// Per round: when its callback was entered and when it returned.
    pub bounds: Vec<(Instant, Instant)>,
    /// Per round: seconds spent in `Checkpoint::to_bytes`.
    pub encode_s: Vec<f64>,
}

/// The hardened run's state-keeping phases.
pub struct HardenedOutput {
    pub full: AdaptiveResult,
    /// Bytes of the middle round's checkpoint.
    pub mid_bytes: Option<Vec<u8>>,
    /// The run resumed from the middle checkpoint.
    pub resumed: Result<AdaptiveResult, String>,
    pub written: ShardedTraceSet,
    pub read_back: Result<ShardedTraceSet, String>,
    pub decode_s: f64,
    pub merge_s: f64,
    pub write_s: f64,
    pub read_s: f64,
    pub snapshot_bytes: u64,
}

/// What one run produced, kept for the output checks.
pub enum Output {
    Sweep(Result<(TraceSet, EngineStats), String>),
    Adaptive(AdaptiveResult),
    Hardened(Box<HardenedOutput>),
}

/// One run's end-to-end figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunFigures {
    pub wall_s: f64,
    /// Probes injected, alias probes and resumed rounds included.
    pub probes: u64,
    /// Probes of the discovery run alone (no resumed rounds).
    pub discovery_probes: u64,
    pub interfaces: u64,
    pub subnets: Option<u64>,
    pub resume_s: Option<f64>,
    /// Campaigns run, alias campaigns included.
    pub campaigns: u64,
    /// Campaigns that came back degraded or errored.
    pub failed_campaigns: u64,
}

/// Runs the workload once. `clock` (traced runs) collects round
/// boundaries; the `adaptive` workload then runs through the
/// checkpointing entry point, whose per-round state capture is the
/// trace's overhead.
pub fn run(s: &Setup, io_dir: &Path, clock: Option<&mut RoundClock>) -> (Output, RunFigures) {
    let t0 = Instant::now();
    match s.workload {
        Workload::Sweep => {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stream_campaign(
                    &s.topo,
                    0,
                    &s.initial,
                    &sweep_config(),
                    &StreamConfig::default(),
                )
            }))
            .map_err(|_| "sweep campaign panicked".to_string());
            let wall_s = t0.elapsed().as_secs_f64();
            let mut f = RunFigures {
                wall_s,
                campaigns: 1,
                ..RunFigures::default()
            };
            match &out {
                Ok((ts, stats)) => {
                    f.probes = stats.probes;
                    f.discovery_probes = stats.probes;
                    f.interfaces = ts.interner().len() as u64;
                }
                Err(_) => f.failed_campaigns = 1,
            }
            (Output::Sweep(out), f)
        }
        Workload::Adaptive => {
            let cfg = loop_config(s);
            let res = match clock {
                None => run_adaptive(&s.topo, &s.initial, &cfg),
                Some(clock) => run_adaptive_checkpointed(&s.topo, &s.initial, &cfg, false, |_| {
                    let now = Instant::now();
                    clock.bounds.push((now, now));
                }),
            };
            let wall_s = t0.elapsed().as_secs_f64();
            let mut f = loop_figures(&res, &cfg);
            f.wall_s = wall_s;
            (Output::Adaptive(res), f)
        }
        Workload::Hardened => {
            let (out, mut f) = run_hardened(s, io_dir, clock);
            f.wall_s = t0.elapsed().as_secs_f64();
            (Output::Hardened(Box::new(out)), f)
        }
    }
}

fn run_hardened(
    s: &Setup,
    io_dir: &Path,
    clock: Option<&mut RoundClock>,
) -> (HardenedOutput, RunFigures) {
    let cfg = loop_config(s);
    let mid_round = cfg.max_rounds / 2;
    let mut mid_bytes = None;
    let mut own_clock = RoundClock::default();
    let clock = clock.unwrap_or(&mut own_clock);
    let full = run_adaptive_checkpointed(&s.topo, &s.initial, &cfg, false, |c| {
        let entered = Instant::now();
        let bytes = c.to_bytes();
        let left = Instant::now();
        clock.encode_s.push((left - entered).as_secs_f64());
        clock.bounds.push((entered, left));
        if c.round() == mid_round {
            mid_bytes = Some(bytes);
        }
    });
    let mut f = loop_figures(&full, &cfg);

    let t = Instant::now();
    let decoded = mid_bytes
        .as_deref()
        .ok_or_else(|| format!("no checkpoint after round {mid_round}"))
        .and_then(|b| Checkpoint::from_bytes(b).map_err(|e| e.to_string()));
    let decode_s = t.elapsed().as_secs_f64();
    let resumed = decoded.and_then(|ck| {
        resume_adaptive(&s.topo, &cfg, &ck, false)
            .inspect(|r| {
                // The resumed rounds re-probe: count what they injected.
                f.probes += r.stats.probes.saturating_sub(ck.consumed_probes());
                let all = loop_figures(r, &cfg);
                let before = loop_figures_upto(r, &cfg, ck.round());
                f.campaigns += all.campaigns - before.campaigns;
                f.failed_campaigns += all.failed_campaigns - before.failed_campaigns;
            })
            .map_err(|e| e.to_string())
    });
    let resume_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let written = ShardedTraceSet::from_set(&full.merged_traces(), STORE_SHARDS);
    let merge_s = t.elapsed().as_secs_f64();
    let dir = io_dir.join("snapshot");
    let t = Instant::now();
    let manifest = write_sharded_snapshot(&dir, &written);
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let read_back = match manifest {
        Ok(_) => read_sharded_snapshot(&dir).map_err(|e| e.to_string()),
        Err(e) => Err(format!("snapshot write failed: {e}")),
    };
    let read_s = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::read_dir(&dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    f.resume_s = Some(resume_s);
    let out = HardenedOutput {
        full,
        mid_bytes,
        resumed,
        written,
        read_back,
        decode_s,
        merge_s,
        write_s,
        read_s,
        snapshot_bytes,
    };
    (out, f)
}

/// Campaign counts and yield of a finished loop run.
fn loop_figures(res: &AdaptiveResult, cfg: &AdaptiveConfig) -> RunFigures {
    let mut f = loop_figures_upto(res, cfg, res.rounds.len());
    f.probes = res.probes();
    f.discovery_probes = res.probes();
    f.interfaces = res.unique_interfaces() as u64;
    f.subnets = Some(res.subnets.len() as u64);
    f
}

/// Campaigns (and degraded ones) over the first `rounds` rounds: one
/// per shard per vantage that was allocated targets, plus one alias
/// campaign per round that sent alias probes.
fn loop_figures_upto(res: &AdaptiveResult, cfg: &AdaptiveConfig, rounds: usize) -> RunFigures {
    let mut f = RunFigures::default();
    for r in &res.rounds[..rounds.min(res.rounds.len())] {
        for v in &r.per_vantage {
            if v.targets > 0 {
                f.campaigns += cfg.shards.max(1) as u64;
            }
            f.failed_campaigns += v.degraded as u64;
        }
        f.campaigns += (r.alias_probes > 0) as u64;
    }
    f
}

/// Output checks, counted instead of panicking.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed.push(name.to_string());
        }
    }
}

/// Checks one run's outputs. Runs outside the timed region.
pub fn check(s: &Setup, out: &Output, checks: &mut Checks) {
    match out {
        Output::Sweep(res) => {
            let Ok((ts, stats)) = res else {
                checks.check("sweep campaign completed", false);
                return;
            };
            let batch = run_campaign(&s.topo, 0, &s.initial, &sweep_config());
            checks.check(
                "sweep: streamed trace set equals the batch one",
                *ts == TraceSet::from_log(&batch.log),
            );
            checks.check(
                "sweep: streamed engine stats equal the batch ones",
                *stats == batch.engine_stats,
            );
        }
        Output::Adaptive(res) => check_loop(&loop_config(s), res, checks),
        Output::Hardened(h) => {
            let cfg = loop_config(s);
            check_loop(&cfg, &h.full, checks);
            checks.check(
                "hardened: every interface is a real router interface",
                h.full
                    .interfaces
                    .iter()
                    .all(|a| s.topo.router_by_iface(a).is_some()),
            );
            let rl = h.full.router_level.as_ref();
            checks.check(
                "hardened: routers <= interfaces",
                rl.is_some_and(|rl| rl.routers() as u64 <= rl.interfaces),
            );
            checks.check("hardened: middle checkpoint kept", h.mid_bytes.is_some());
            match &h.resumed {
                Ok(r) => {
                    checks.check(
                        "hardened: resumed rounds equal the uninterrupted run's",
                        r.rounds == h.full.rounds && r.round_targets == h.full.round_targets,
                    );
                    checks.check(
                        "hardened: resumed stats equal the uninterrupted run's",
                        r.stats == h.full.stats,
                    );
                    checks.check(
                        "hardened: resumed merged traces equal the uninterrupted run's",
                        r.merged_traces() == h.full.merged_traces(),
                    );
                }
                Err(e) => checks.check(&format!("hardened: resume failed: {e}"), false),
            }
            match &h.read_back {
                Ok(back) => checks.check(
                    "hardened: snapshot read-back equals the written store",
                    *back == h.written,
                ),
                Err(e) => checks.check(&format!("hardened: snapshot read failed: {e}"), false),
            }
        }
    }
}

fn check_loop(cfg: &AdaptiveConfig, res: &AdaptiveResult, checks: &mut Checks) {
    let mut all = AddrSet::new();
    let unique = res.round_targets.iter().flatten().all(|&t| all.insert(t));
    checks.check("loop: no target probed twice", unique);
    let round_probes: u64 = res.rounds.iter().map(|r| r.probes).sum();
    checks.check(
        "loop: round probes sum to the engine's",
        round_probes == res.stats.probes,
    );
    let nominal: u64 = res
        .rounds
        .iter()
        .flat_map(|r| &r.per_vantage)
        .map(|v| v.targets * cfg.yarrp.max_ttl as u64)
        .sum();
    checks.check(
        "loop: nominal cost within budget",
        nominal <= cfg.probe_budget,
    );
}
