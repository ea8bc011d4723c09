//! The traced run: spans recorded around this benchmark's own calls
//! into each layer's public functions, and the replays that give each
//! layer's numbers from the exact inputs the workload used.
//!
//! Nothing here reaches inside the library. A round's layer numbers come
//! from replaying that round's inputs (`AdaptiveResult::round_targets`
//! and `traces`) through the layer's public function; a campaign's
//! render / inject / decode split comes from replaying its exact probe
//! sequence (the prober's permutation order and virtual clock) through
//! `ProbeTemplate::render`, `Engine::inject_into` and `decode_response`.

use crate::workload::{loop_config, sweep_config, Checks, Output, RoundClock, Setup};
use aliasres::{AliasSets, RouterGraphBuilder};
use analysis::{
    discover_by_path_div, ia_hack, quarantine_all, AsnResolver, TraceSet, TraceSetBuilder,
};
use beholder::adaptive::{AdaptiveConfig, AdaptiveResult};
use beholder::checkpoint::Checkpoint;
use seeds::feedback::feedback_list;
use simnet::{Delivery, Engine, EngineStats, Topology};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::Ipv6Addr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use targets::{feedback_targets, stride_sample, TargetSet};
use v6packet::probe::{ProbeSpec, ProbeTemplate, MAX_PROBE_LEN};
use yarrp6::addrset::AddrSet;
use yarrp6::perm::Permutation;
use yarrp6::record::decode_response;
use yarrp6::sink::ChunkSender;
use yarrp6::{yarrp, RecordSink, RecordStream, ResponseKind, ResponseRecord, StreamConfig};
use yarrp6::{DecodeError, YarrpConfig};

/// One timed interval.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans of one traced run, kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub run_id: String,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an interval timed elsewhere.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    pub fn duration_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .fold(0.0, |acc, i| acc + self.duration_s(i))
    }

    /// Total seconds of the direct children of `parent` named `name`.
    fn child_s(&self, parent: usize, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(parent) && self.spans[i].name == name)
            .fold(0.0, |acc, i| acc + self.duration_s(i))
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\": \"{}\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counts gathered beside the spans.
#[derive(Default, Debug)]
pub struct Counts {
    pub probes: u64,
    pub deliveries: u64,
    pub records: u64,
    pub decode_rejects: u64,
    pub sink_wait_s: f64,
    pub sink_peak_records: u64,
    pub feedback_entries: u64,
    pub pool_size: u64,
    pub pool_fresh: u64,
    pub alias_probes: u64,
    pub pairs_confirmed: u64,
    pub precision: f64,
    pub recall: f64,
    pub cells: u64,
    pub cells_dropped: u64,
    pub snapshot_bytes: u64,
    pub checkpoint_bytes: u64,
    pub rounds: u64,
}

/// One round's wall time and the replayed self times that account for it.
pub struct RoundRow {
    pub round: usize,
    pub round_s: f64,
    pub layers: Vec<(&'static str, f64)>,
    pub residual_s: f64,
}

/// Span names of the layer calls a round's self times sum over.
/// `yarrp6.campaign` already contains the render / inject / decode work.
const ROUND_LAYERS: [&str; 9] = [
    "yarrp6.campaign",
    "analysis.ingest",
    "analysis.discovery_delta",
    "analysis.quarantine",
    "analysis.ia_hack",
    "analysis.path_div",
    "aliasres.graph_ingest",
    "seeds.feedback_list",
    "targets.feedback_targets",
];

/// Records the traced run's spans and replays its layers.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    tr: &mut Tracer,
    root: usize,
    s: &Setup,
    out: &Output,
    clock: &RoundClock,
    run_start: Instant,
    io_dir: &Path,
    checks: &mut Checks,
) -> (Counts, Vec<RoundRow>) {
    let mut counts = Counts::default();
    let mut rows = Vec::new();
    match out {
        Output::Sweep(res) => {
            let Ok((_, stats)) = res else {
                checks.check("sweep campaign completed", false);
                return (counts, rows);
            };
            let set = &s.initial;
            let rep = replay_campaign(
                tr,
                root,
                &s.topo,
                0,
                set,
                &sweep_config(),
                &mut counts,
                checks,
            );
            checks.check(
                "replay: campaign EngineStats equal the sweep's",
                rep.stats == *stats,
            );
        }
        Output::Adaptive(res) => {
            rows = replay_loop(tr, root, s, res, clock, run_start, &mut counts, checks);
        }
        Output::Hardened(h) => {
            rows = replay_loop(tr, root, s, &h.full, clock, run_start, &mut counts, checks);
            if let Some(bytes) = &h.mid_bytes {
                counts.checkpoint_bytes = bytes.len() as u64;
                let ck = tr.time("checkpoint.decode", Some(root), || {
                    Checkpoint::from_bytes(bytes)
                });
                match ck {
                    Ok(ck) => {
                        let dir = io_dir.join("checkpoint");
                        let saved =
                            tr.time("checkpoint.save_dir", Some(root), || ck.save_dir(&dir));
                        let loaded = tr.time("checkpoint.load_dir", Some(root), || {
                            Checkpoint::load_dir(&dir)
                        });
                        checks.check(
                            "replay: checkpoint directory round-trips",
                            saved.is_ok() && loaded.is_ok_and(|l| l.to_bytes() == *bytes),
                        );
                    }
                    Err(e) => checks.check(&format!("replay: checkpoint decode: {e}"), false),
                }
            }
            counts.snapshot_bytes = h.snapshot_bytes;
        }
    }
    (counts, rows)
}

/// The exact inputs and outputs of one replayed campaign.
struct CampaignReplay {
    traces: TraceSet,
    stats: EngineStats,
}

#[allow(clippy::too_many_arguments)]
fn replay_campaign(
    tr: &mut Tracer,
    parent: usize,
    topo: &Arc<Topology>,
    vantage: u8,
    set: &TargetSet,
    cfg: &YarrpConfig,
    counts: &mut Counts,
    checks: &mut Checks,
) -> CampaignReplay {
    let stream = StreamConfig::default();
    let vname = topo.vantages[vantage as usize].name.clone();

    // Streaming, with a sink that times the prober's blocked sends.
    let streamed = tr.time("yarrp6.stream_campaign", Some(parent), || {
        stream_counted(topo, vantage, set, cfg, &stream)
    });
    counts.sink_wait_s += streamed.wait_s;
    counts.sink_peak_records = counts.sink_peak_records.max(streamed.peak);

    // Batch prober, then ingest of its records.
    let mut engine = Engine::new(topo.clone());
    let log = tr.time("yarrp6.campaign", Some(parent), || {
        yarrp::run(&mut engine, vantage, &set.addrs, cfg)
    });
    let traces = tr.time("analysis.ingest", Some(parent), || {
        let mut b = TraceSetBuilder::new().with_identity(vname, set.name.clone());
        for c in log.records.chunks(stream.chunk_records) {
            b.push_chunk(c);
        }
        b.finish()
    });
    checks.check(
        "replay: streamed campaign equals the batch campaign",
        streamed.traces == traces && streamed.stats == engine.stats,
    );
    counts.records += log.records.len() as u64;
    let probes_sent = log.probes_sent;
    let log_rejects = log.decode_errors.total();
    drop(log);

    // The exact probe sequence, replayed layer by layer.
    let seq = probe_sequence(topo, vantage, &set.addrs, cfg);
    checks.check(
        "replay: probe sequence matches the campaign's probe count",
        seq.probes.len() as u64 == probes_sent,
    );
    let layered = replay_layers(tr, parent, topo, vantage, &set.addrs, cfg, seq);
    checks.check(
        "replay: inject_into replay's EngineStats equal the campaign's",
        layered.stats == engine.stats,
    );
    checks.check(
        "replay: decode rejects equal the campaign's",
        layered.rejects == log_rejects,
    );
    counts.probes += probes_sent;
    counts.deliveries += layered.deliveries;
    counts.decode_rejects += layered.rejects;
    CampaignReplay {
        traces,
        stats: engine.stats,
    }
}

struct Streamed {
    traces: TraceSet,
    stats: EngineStats,
    wait_s: f64,
    peak: u64,
}

/// `ChunkSender` that times the sends that hand a full chunk to the
/// channel (where the prober blocks when the consumer lags) and tracks
/// the records in flight.
struct CountingSink<'a> {
    inner: ChunkSender,
    chunk: usize,
    pending: usize,
    sent: u64,
    consumed: &'a AtomicU64,
    wait: Duration,
    peak: u64,
}

impl RecordSink for CountingSink<'_> {
    fn record(&mut self, rec: ResponseRecord) {
        self.pending += 1;
        if self.pending < self.chunk {
            self.inner.record(rec);
            return;
        }
        self.pending = 0;
        self.sent += self.chunk as u64;
        // A statistic: publishes no other data.
        let in_flight = self
            .sent
            .saturating_sub(self.consumed.load(Ordering::Relaxed));
        self.peak = self.peak.max(in_flight);
        let t = Instant::now();
        self.inner.record(rec);
        self.wait += t.elapsed();
    }

    fn note_decode_error(&mut self, err: DecodeError) {
        self.inner.note_decode_error(err);
    }
}

fn stream_counted(
    topo: &Arc<Topology>,
    vantage: u8,
    set: &TargetSet,
    cfg: &YarrpConfig,
    stream: &StreamConfig,
) -> Streamed {
    let (sender, records) = RecordStream::channel(stream);
    let consumed = AtomicU64::new(0);
    std::thread::scope(|sc| {
        let consumed = &consumed;
        let prober = sc.spawn(move || {
            let mut engine = Engine::new(topo.clone());
            let mut sink = CountingSink {
                inner: sender,
                chunk: stream.chunk_records.max(1),
                pending: 0,
                sent: 0,
                consumed,
                wait: Duration::ZERO,
                peak: 0,
            };
            yarrp::run_with_sink(&mut engine, vantage, &set.addrs, cfg, &mut sink);
            let ok = sink.inner.finish().is_ok();
            (engine.stats, sink.wait, sink.peak, ok)
        });
        let vname = topo.vantages[vantage as usize].name.clone();
        let mut b = TraceSetBuilder::new().with_identity(vname, set.name.clone());
        records.for_each_chunk(|c| {
            b.push_chunk(c);
            consumed.fetch_add(c.len() as u64, Ordering::Relaxed);
        });
        let traces = b.finish();
        let (stats, wait, peak, ok) = prober.join().expect("prober thread panicked");
        assert!(ok, "record stream consumer vanished");
        Streamed {
            traces,
            stats,
            wait_s: wait.as_secs_f64(),
            peak,
        }
    })
}

/// One probe of a campaign: a destination (a target index, or past the
/// end an index into the off-template destinations), hop limit and
/// virtual send time.
#[derive(Clone, Copy)]
struct Probe {
    dest: u32,
    ttl: u8,
    at_us: u64,
}

struct Sequence {
    probes: Vec<Probe>,
    /// Fill-chain destinations whose quoted target was rewritten.
    off: Vec<Ipv6Addr>,
}

/// Renders probe wires the way the prober does: per-target templates
/// built on first use, a scratch build for off-template destinations.
struct Wires<'t> {
    src: Ipv6Addr,
    targets: &'t [Ipv6Addr],
    templates: Vec<Option<ProbeTemplate>>,
    scratch: [u8; MAX_PROBE_LEN],
    cfg: YarrpConfig,
}

impl<'t> Wires<'t> {
    fn new(topo: &Topology, vantage: u8, targets: &'t [Ipv6Addr], cfg: &YarrpConfig) -> Self {
        assert!(
            cfg.neighborhood.is_none() && !cfg.vary_flow_label,
            "the replay mirrors the plain Yarrp6 prober"
        );
        Wires {
            src: topo.vantages[vantage as usize].addr,
            targets,
            templates: vec![None; targets.len()],
            scratch: [0; MAX_PROBE_LEN],
            cfg: *cfg,
        }
    }

    fn render(&mut self, p: Probe, off: &[Ipv6Addr]) -> &[u8] {
        let (src, cfg) = (self.src, self.cfg);
        match self.targets.get(p.dest as usize) {
            Some(&t) => self.templates[p.dest as usize]
                .get_or_insert_with(|| ProbeTemplate::new(src, t, cfg.protocol, cfg.instance))
                .render(p.ttl, p.at_us as u32),
            None => {
                let spec = ProbeSpec {
                    src,
                    target: off[p.dest as usize - self.targets.len()],
                    protocol: cfg.protocol,
                    ttl: p.ttl,
                    instance: cfg.instance,
                    elapsed_us: p.at_us as u32,
                };
                let n = spec.build_into(&mut self.scratch);
                &self.scratch[..n]
            }
        }
    }
}

/// Re-derives a campaign's exact probe sequence by running the Yarrp6
/// send loop (permutation order, virtual clock, fill chains) against a
/// fresh engine.
fn probe_sequence(
    topo: &Arc<Topology>,
    vantage: u8,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
) -> Sequence {
    let mut wires = Wires::new(topo, vantage, targets, cfg);
    let mut engine = Engine::new(topo.clone());
    let mut delivery = Delivery::default();
    let span = cfg.max_ttl as u64;
    let perm = Permutation::new(targets.len() as u64 * span, cfg.perm_seed);
    let interval_us = 1_000_000 / cfg.rate_pps.max(1);
    let mut seq = Sequence {
        probes: Vec::with_capacity(perm.len() as usize),
        off: Vec::new(),
    };
    let mut send = |seq: &mut Sequence, p: Probe| -> Option<ResponseRecord> {
        seq.probes.push(p);
        let wire = wires.render(p, &seq.off);
        if !engine.inject_into(wire, p.at_us, &mut delivery) {
            return None;
        }
        decode_response(&delivery.bytes, delivery.at_us, cfg.instance).ok()
    };
    let mut now_us = 0u64;
    for v in perm.iter() {
        let tidx = (v / span) as u32;
        let ttl = (v % span) as u8 + 1;
        let mut cur = send(
            &mut seq,
            Probe {
                dest: tidx,
                ttl,
                at_us: now_us,
            },
        );
        while let Some(rec) = cur.filter(|_| cfg.fill_mode) {
            let Some(h) = rec.probe_ttl.filter(|&h| {
                h >= cfg.max_ttl && h < cfg.fill_max_ttl && rec.kind == ResponseKind::TimeExceeded
            }) else {
                break;
            };
            let dest = if rec.target == targets[tidx as usize] {
                tidx
            } else {
                seq.off.push(rec.target);
                (targets.len() + seq.off.len() - 1) as u32
            };
            cur = send(
                &mut seq,
                Probe {
                    dest,
                    ttl: h + 1,
                    at_us: rec.recv_us,
                },
            );
        }
        now_us += interval_us;
    }
    seq
}

struct Layered {
    stats: EngineStats,
    deliveries: u64,
    rejects: u64,
}

/// Replays a probe sequence in chunks: render every wire of a chunk,
/// inject them all, then decode every delivery, each phase its own span.
fn replay_layers(
    tr: &mut Tracer,
    parent: usize,
    topo: &Arc<Topology>,
    vantage: u8,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
    seq: Sequence,
) -> Layered {
    const CHUNK: usize = 1 << 14;
    let mut wires = Wires::new(topo, vantage, targets, cfg);
    let mut engine = Engine::new(topo.clone());
    let mut buf = vec![0u8; CHUNK * MAX_PROBE_LEN];
    let mut lens = vec![0usize; CHUNK];
    let mut hit = vec![false; CHUNK];
    let mut deliveries: Vec<Delivery> = (0..CHUNK).map(|_| Delivery::default()).collect();
    let (mut delivered, mut rejects) = (0u64, 0u64);
    for chunk in seq.probes.chunks(CHUNK) {
        tr.time("v6packet.render", Some(parent), || {
            for (i, &p) in chunk.iter().enumerate() {
                let w = wires.render(p, &seq.off);
                lens[i] = w.len();
                buf[i * MAX_PROBE_LEN..i * MAX_PROBE_LEN + w.len()].copy_from_slice(w);
            }
        });
        tr.time("simnet.inject", Some(parent), || {
            for (i, p) in chunk.iter().enumerate() {
                let w = &buf[i * MAX_PROBE_LEN..i * MAX_PROBE_LEN + lens[i]];
                hit[i] = engine.inject_into(w, p.at_us, &mut deliveries[i]);
            }
        });
        tr.time("yarrp6.decode", Some(parent), || {
            for (d, _) in deliveries
                .iter()
                .zip(&hit[..chunk.len()])
                .filter(|(_, &h)| h)
            {
                delivered += 1;
                if std::hint::black_box(decode_response(&d.bytes, d.at_us, cfg.instance)).is_err() {
                    rejects += 1;
                }
            }
        });
    }
    Layered {
        stats: engine.stats,
        deliveries: delivered,
        rejects,
    }
}

/// Replays every round of a feedback-loop run.
#[allow(clippy::too_many_arguments)]
fn replay_loop(
    tr: &mut Tracer,
    root: usize,
    s: &Setup,
    res: &AdaptiveResult,
    clock: &RoundClock,
    run_start: Instant,
    counts: &mut Counts,
    checks: &mut Checks,
) -> Vec<RoundRow> {
    let cfg = loop_config(s);
    let topo = &s.topo;
    checks.check(
        "replay: one clock mark per round",
        clock.bounds.len() == res.rounds.len(),
    );
    let resolver = cfg.path_div.map(|_| {
        AsnResolver::new(
            topo.bgp.clone(),
            topo.rir_extra.clone(),
            &topo.asn_equivalences,
        )
    });
    let mut seen = AddrSet::new();
    let mut clean = AddrSet::new();
    let mut probed = AddrSet::new();
    let mut subnet_set = BTreeSet::new();
    let mut graph = cfg.alias_resolution.then(RouterGraphBuilder::new);
    let mut kept_at = 0usize;
    let mut rows = Vec::new();
    for (r, rep) in res.rounds.iter().enumerate() {
        let Some(&(end, _)) = clock.bounds.get(r) else {
            break;
        };
        let start = if r == 0 {
            run_start
        } else {
            clock.bounds[r - 1].1
        };
        let round_span = tr.record("adaptive.round", Some(root), start, end);
        let rs = tr.record("replay.round", Some(root), Instant::now(), Instant::now());

        // The round's campaigns, rebuilt as the loop builds them.
        let targets = &res.round_targets[r];
        let specs = round_campaigns(&cfg, r, targets, rep);
        let mut raw = Vec::with_capacity(specs.len());
        let mut probes = 0u64;
        for (v, set) in &specs {
            let c = replay_campaign(tr, rs, topo, *v, set, &cfg.yarrp, counts, checks);
            probes += c.stats.probes;
            raw.push(c.traces);
        }
        checks.check(
            "replay: round campaign probes equal RoundReport probes - alias probes",
            probes == rep.probes - rep.alias_probes,
        );

        let new_ifaces: usize = tr.time("analysis.discovery_delta", Some(rs), || {
            raw.iter()
                .map(|ts| ts.discovery_delta(&mut seen).len())
                .sum()
        });
        checks.check(
            "replay: discovery delta equals the round's new interfaces",
            new_ifaces as u64 == rep.new_interfaces,
        );
        let kept = if cfg.quarantine_feedback {
            let refs: Vec<&TraceSet> = raw.iter().collect();
            let (cleaned, report) = tr.time("analysis.quarantine", Some(rs), || {
                quarantine_all(&refs, &cfg.quarantine)
            });
            counts.cells += raw
                .iter()
                .flat_map(|ts| ts.iter())
                .map(|t| (t.hop_cells().len() + t.unreachable_cells().len()) as u64)
                .sum::<u64>();
            counts.cells_dropped += report.cells_dropped();
            cleaned
        } else {
            raw
        };
        let stored = res.traces.get(kept_at..kept_at + kept.len());
        checks.check(
            "replay: replayed trace sets equal the run's kept sets",
            stored == Some(&kept[..]),
        );
        kept_at += kept.len();

        let mut new_subnets = 0u64;
        tr.time("analysis.ia_hack", Some(rs), || {
            for ts in &kept {
                for c in ia_hack(ts) {
                    new_subnets += subnet_set.insert(c.prefix) as u64;
                }
            }
        });
        if let (Some(params), Some(resolver)) = (&cfg.path_div, &resolver) {
            tr.time("analysis.path_div", Some(rs), || {
                for (ts, (v, _)) in kept.iter().zip(&specs) {
                    let vasn = topo.ases[topo.vantages[*v as usize].as_idx as usize].asn;
                    for c in discover_by_path_div(ts, resolver, vasn, params) {
                        new_subnets += subnet_set.insert(c.prefix) as u64;
                    }
                }
            });
        }
        checks.check(
            "replay: subnet inference equals the round's new subnets",
            new_subnets == rep.new_subnets,
        );
        if let Some(g) = graph.as_mut() {
            tr.time("aliasres.graph_ingest", Some(rs), || {
                for ts in &kept {
                    g.ingest(ts);
                }
                std::hint::black_box(g.snapshot());
            });
        }
        for ts in &kept {
            for &w in ts.interner().words() {
                clean.insert(Ipv6Addr::from(w));
            }
        }
        for &t in targets {
            probed.insert(t);
        }

        // Feedback generation, skipped after the last round as the loop does.
        if let Some(next) = res.round_targets.get(r + 1) {
            let discovered: Vec<Ipv6Addr> = if cfg.quarantine_feedback {
                clean.iter().collect()
            } else {
                seen.iter().collect()
            };
            let probed_list: Vec<Ipv6Addr> = probed.iter().collect();
            let n_sub: u64 = res.rounds[..=r].iter().map(|x| x.new_subnets).sum();
            let subnets = &res.subnets[..(n_sub as usize).min(res.subnets.len())];
            let fb = tr.time("seeds.feedback_list", Some(rs), || {
                feedback_list(
                    format!("adaptive-fb-r{r}"),
                    &discovered,
                    &probed_list,
                    subnets,
                    &cfg.feedback,
                    simnet::flow::mix64(cfg.rng_seed ^ r as u64),
                )
            });
            let pool = tr.time("targets.feedback_targets", Some(rs), || {
                feedback_targets(
                    format!("adaptive-r{}", r + 1),
                    &fb,
                    cfg.per_prefix_64s,
                    cfg.iid,
                )
            });
            checks.check(
                "replay: the next round's targets all come from the regenerated pool",
                next.iter().all(|&t| pool.contains(t)),
            );
            counts.feedback_entries += fb.len() as u64;
            counts.pool_size += pool.len() as u64;
            counts.pool_fresh += pool.addrs.iter().filter(|&&a| !probed.contains(a)).count() as u64;
        }

        tr.spans[rs].end_ns = tr.ns(Instant::now());
        let round_s = tr.duration_s(round_span);
        let layers: Vec<(&'static str, f64)> = ROUND_LAYERS
            .iter()
            .map(|&n| (n, tr.child_s(rs, n)))
            .collect();
        let accounted: f64 = layers.iter().map(|(_, v)| v).sum();
        rows.push(RoundRow {
            round: r,
            round_s,
            layers,
            residual_s: round_s - accounted,
        });
        counts.alias_probes += rep.alias_probes;
        counts.pairs_confirmed += rep.alias_pairs_confirmed;
    }
    counts.rounds = res.rounds.len() as u64;
    if let Some(rl) = &res.router_level {
        let mut inferred = AliasSets::default();
        for node in &rl.graph.nodes {
            if node.len() >= 2 {
                inferred.groups.push(node.clone());
            } else {
                inferred.singletons.extend(node.iter().copied());
            }
        }
        let observed: Vec<Ipv6Addr> = rl.graph.nodes.iter().flatten().copied().collect();
        let (p, rc) = inferred.score(&topo.ground_truth_aliases_among(&observed));
        counts.precision = p;
        counts.recall = rc;
    }
    rows
}

/// A round's campaigns in the loop's order: per vantage, its slice of
/// the round list (the whole list under uniform allocation), split
/// round-robin into shards.
fn round_campaigns(
    cfg: &AdaptiveConfig,
    round: usize,
    targets: &[Ipv6Addr],
    rep: &beholder::adaptive::RoundReport,
) -> Vec<(u8, TargetSet)> {
    let shards = cfg.shards.max(1);
    let make_shards = |vt: &[Ipv6Addr]| -> Vec<TargetSet> {
        (0..shards)
            .map(|s| {
                let name = if shards == 1 {
                    format!("adaptive-r{round}")
                } else {
                    format!("adaptive-r{round}-s{s}")
                };
                let addrs = vt
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % shards == s);
                TargetSet::new(name, addrs.map(|(_, a)| a))
            })
            .collect()
    };
    let uniform = rep
        .per_vantage
        .iter()
        .all(|v| v.targets as usize >= targets.len());
    let mut out = Vec::new();
    for v in &rep.per_vantage {
        if v.targets == 0 {
            continue;
        }
        let sets = if uniform {
            make_shards(targets)
        } else {
            make_shards(&stride_sample(targets, v.targets as usize))
        };
        out.extend(sets.into_iter().map(|set| (v.vantage, set)));
    }
    out
}
