//! One benchmark run of one workload. A run of `s` seconds is a sequence
//! of episodes, each measuring up to two seconds on a cluster of its own:
//! set-up, warm-up, the measured window, quiescence and the correctness
//! gate. Every end-to-end number is the median over episodes. Fresh
//! clusters keep memory bounded (TPC-C inserts rows for as long as it
//! runs) and give every episode the same starting state, so a run does
//! not drift as its tables grow. With `--trace 1` the same episodes run a
//! second time with full tracing and history checking, for the per-layer
//! numbers.

use crate::spans::Spans;
use crate::trace::TraceStats;
use crate::workload::{self, Kind, Observe, FSYNC_BATCH, WORKERS};
use chiller::cluster::{Cluster, RunSpec};
use chiller::prelude::{Duration, RunReport, RuntimeTelemetry, TraceLog};
use chiller_common::metrics::{AbortReason, Histogram, MetricSet};
use chiller_common::rng::derive_seed;
use chiller_simnet::NetStats;
use serde::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Longest measured window of one episode.
const EPISODE_MS: u64 = 2_000;
/// Warm-up of every episode: its commits count toward the correctness
/// ledger, not toward any metric.
const WARMUP_MS: u64 = 500;
/// Whole episodes run and discarded before the measured ones. The first
/// episodes of a process run measurably slower (10–20% on TPC-C, with a
/// doubled p99) while the heap grows into memory later episodes reuse.
const WARM_EPISODES: usize = 2;
/// Share of CPU time, in percent, the hypervisor may steal from the
/// machine during a measured window before the episode is run again. A
/// stolen virtual CPU stalls every transaction its worker holds, so steal
/// of a few percent doubles p99 while barely moving throughput.
const STEAL_MAX_PCT: f64 = 2.0;
/// Most episodes one run repeats because of steal, which bounds its length.
const STEAL_RERUNS: usize = 2;
/// Fewest episodes within `STEAL_MAX_PCT` a run needs to report from
/// those alone; with fewer, it reports from all its episodes.
const MIN_CLEAN: usize = 3;
/// Window length of the traced run. Its trace and history rings (fixed
/// capacity, drained only between windows) must not overflow.
const TRACE_WINDOW_MS: u64 = 50;
/// Trace events exported as a Chrome trace for `obs.export_ms`: a fixed
/// amount of work, so the number compares across versions.
const EXPORT_EVENTS: usize = 1 << 18;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Settings {
    /// Measured milliseconds of each episode, summing to `seconds`.
    fn episodes(&self) -> Vec<u64> {
        windows(self.seconds * 1_000, EPISODE_MS).collect()
    }

    /// Episode `i`'s seed: distinct per episode, a function of `--seed`.
    /// Warm-up episodes take the indices after the measured ones.
    fn episode_seed(&self, i: usize) -> u64 {
        derive_seed(self.seed, i as u64)
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of a run: the contract's counts and metrics, plus facts
/// about what ran (configuration, gates passed, input fingerprint).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<(String, Value)>,
}

/// Per-procedure commits and logic aborts over a span of an episode.
#[derive(Default)]
struct Ledger {
    commits: BTreeMap<String, u64>,
    logic_aborts: u64,
}

impl Ledger {
    fn add(&mut self, m: &MetricSet) {
        for (name, s) in &m.per_type {
            *self.commits.entry(name.clone()).or_default() += s.commits;
            self.logic_aborts += s.logic_aborts;
        }
    }

    /// Inputs drawn that neither committed nor rolled back by design —
    /// abandoned after `max_retries`. More settled transactions than
    /// inputs would mean a commit no source issued, which fails the gate.
    fn abandoned(&self, drawn: u64) -> u64 {
        let settled = self.commits.values().sum::<u64>() + self.logic_aborts;
        assert!(
            drawn >= settled,
            "ledger: {settled} settled transactions but only {drawn} inputs drawn"
        );
        drawn - settled
    }
}

/// A fresh redo-log directory inside the benchmark's output directory,
/// removed when dropped.
struct WalDir(PathBuf);

impl WalDir {
    fn fresh() -> WalDir {
        let dir = out_dir().join(format!("wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's WAL directory");
        WalDir(dir)
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes spans and (transiently) redo logs: `out/`
/// inside its own package directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one window with metrics fresh at its start; returns the window's
/// report and drained trace (empty when tracing is off).
fn window(
    cluster: &mut Cluster,
    ms: u64,
    ledger: &mut Ledger,
    spans: &mut Spans,
) -> (RunReport, TraceLog) {
    let report = spans.time("core.run", |_| {
        cluster.run(RunSpec::new(Duration::ZERO, Duration::from_millis(ms)))
    });
    ledger.add(&report.metrics);
    let trace = cluster.take_trace();
    cluster.reset_metrics();
    (report, trace)
}

/// Cut `total_ms` into windows of at most `max_ms`.
fn windows(total_ms: u64, max_ms: u64) -> impl Iterator<Item = u64> {
    let n = total_ms.div_ceil(max_ms);
    (0..n).map(move |i| total_ms * (i + 1) / n - total_ms * i / n)
}

/// Engine metrics accumulated since the last reset (after a quiesce:
/// what the drain committed).
fn drained_metrics(cluster: &Cluster) -> MetricSet {
    let mut m = MetricSet::new();
    for e in cluster.engines() {
        m.merge(e.metrics());
    }
    m
}

/// `end − start` for every counter; high-water marks and the timer-slop
/// histogram (cumulative since build) are taken from `end`.
fn telemetry_delta(start: &RuntimeTelemetry, end: &RuntimeTelemetry) -> RuntimeTelemetry {
    RuntimeTelemetry {
        batches_drained: end.batches_drained - start.batches_drained,
        flush_stalls: end.flush_stalls - start.flush_stalls,
        parks: end.parks - start.parks,
        unparks: end.unparks - start.unparks,
        lost_wakeups_avoided: end.lost_wakeups_avoided - start.lost_wakeups_avoided,
        zero_progress_turns: end.zero_progress_turns - start.zero_progress_turns,
        tasks_pushed: end.tasks_pushed - start.tasks_pushed,
        tasks_injected: end.tasks_injected - start.tasks_injected,
        tasks_popped: end.tasks_popped - start.tasks_popped,
        tasks_stolen: end.tasks_stolen - start.tasks_stolen,
        steal_batches: end.steal_batches - start.steal_batches,
        notifies: end.notifies - start.notifies,
        trace_events_dropped: end.trace_events_dropped - start.trace_events_dropped,
        history_events_dropped: end.history_events_dropped - start.history_events_dropped,
        wal_records_appended: end.wal_records_appended - start.wal_records_appended,
        wal_bytes_appended: end.wal_bytes_appended - start.wal_bytes_appended,
        wal_flushes: end.wal_flushes - start.wal_flushes,
        wal_fsyncs: end.wal_fsyncs - start.wal_fsyncs,
        ..end.clone()
    }
}

fn net_delta(start: &NetStats, end: &NetStats) -> NetStats {
    NetStats {
        one_sided_msgs: end.one_sided_msgs - start.one_sided_msgs,
        rpc_msgs: end.rpc_msgs - start.rpc_msgs,
        local_msgs: end.local_msgs - start.local_msgs,
        timer_fires: end.timer_fires - start.timer_fires,
        events_processed: end.events_processed - start.events_processed,
    }
}

/// What the untraced episodes measured.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    build_s: Vec<f64>,
    quiesce_ms: Vec<f64>,
    tps: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// Commit-latency samples per episode.
    samples: Vec<u64>,
    /// Share of CPU time the hypervisor stole during each measured window.
    steal_pct: Vec<f64>,
    /// Engine metrics merged over the measured windows.
    metrics: MetricSet,
    commits: u64,
    /// Runtime counters over the measured windows (high-water marks and
    /// timer slop since build).
    telemetry: RuntimeTelemetry,
    net: NetStats,
    attempted: u64,
    failed: u64,
    /// Inputs drawn by this `Measured`'s own episodes, and the time
    /// their sources spent drawing them.
    drawn: u64,
    draw_ns: u64,
    /// Input fingerprint of the first episode.
    fingerprint: u64,
}

impl Measured {
    /// Count an episode's inputs toward the contract's `attempted` and
    /// `failed`, whether or not its numbers are kept.
    fn count(&mut self, e: &Episode) {
        self.attempted += e.drawn;
        self.failed += e.failed;
    }

    /// Keep an episode's numbers.
    fn keep(&mut self, e: Episode) {
        self.setup_s.push(e.setup_s);
        self.gen_s.push(e.gen_s);
        self.build_s.push(e.build_s);
        self.quiesce_ms.push(e.quiesce_ms);
        self.tps.push(e.tps);
        self.p50_us.push(e.p50_us);
        self.p99_us.push(e.p99_us);
        self.samples.push(e.metrics.latency.count());
        self.steal_pct.push(e.steal_pct);
        self.metrics.merge(&e.metrics);
        self.commits += e.commits;
        self.telemetry.merge(&e.telemetry);
        self.net.merge(&e.net);
        self.drawn += e.drawn;
        self.draw_ns += e.draw_ns;
    }
}

/// What one untraced episode measured.
struct Episode {
    setup_s: f64,
    gen_s: f64,
    build_s: f64,
    quiesce_ms: f64,
    tps: f64,
    p50_us: f64,
    p99_us: f64,
    steal_pct: f64,
    /// Engine metrics, runtime counters and network counters of the
    /// measured window.
    metrics: MetricSet,
    commits: u64,
    telemetry: RuntimeTelemetry,
    net: NetStats,
    /// Inputs drawn over the whole episode, those abandoned, and the time
    /// the sources spent drawing them.
    drawn: u64,
    failed: u64,
    draw_ns: u64,
    fingerprint: u64,
}

/// Generate and build one cluster, timing set-up in spans.
fn setup(
    s: &Settings,
    seed: u64,
    observe: Observe,
    wal: Option<&WalDir>,
    spans: &mut Spans,
) -> (workload::Spec, Cluster, workload::Draws) {
    spans.time("bench.setup", |sp| {
        let generated = sp.time("workload.gen", |_| workload::generate(s.kind, seed));
        let spec = generated.spec.clone();
        let (cluster, draws) = sp.time("core.build", |_| {
            workload::build(s.kind, seed, generated, observe, wal.map(|w| w.0.as_path()))
        });
        (spec, cluster, draws)
    })
}

/// One untraced episode: set-up, warm-up, one measured window,
/// quiescence, the correctness gate and the failure count.
fn measure_episode(s: &Settings, i: usize, ms: u64, spans: &mut Spans) -> Episode {
    let seed = s.episode_seed(i);
    let wal = s.kind.durable().then(WalDir::fresh);
    let (spec, mut cluster, draws) = setup(s, seed, Observe::OFF, wal.as_ref(), spans);
    let setup_s = spans.last_secs("bench.setup");
    let gen_s = spans.last_secs("workload.gen");
    let build_s = spans.last_secs("core.build");
    let mut ledger = Ledger::default();
    let (warm, _) = window(&mut cluster, WARMUP_MS, &mut ledger, spans);
    let before = cpu_ticks();
    let (r, _) = spans.time("bench.measure", |sp| {
        window(&mut cluster, ms, &mut ledger, sp)
    });
    let after = cpu_ticks();
    spans.time("core.quiesce", |_| cluster.quiesce());
    let quiesce_ms = spans.last_secs("core.quiesce") * 1e3;
    let label = format!("{} seed {} episode {i}", s.kind.name(), s.seed);
    workload::check_invariants(&spec, &cluster, &[&ledger.commits], &label);
    ledger.add(&drained_metrics(&cluster));
    let drawn = draws.count();
    Episode {
        setup_s,
        gen_s,
        build_s,
        quiesce_ms,
        tps: r.wall_throughput(),
        p50_us: us(&r.metrics.latency, 0.5),
        p99_us: us(&r.metrics.latency, 0.99),
        steal_pct: per(after.0 - before.0, after.1 - before.1, 100.0),
        commits: r.total_commits(),
        telemetry: telemetry_delta(&warm.telemetry, &r.telemetry),
        net: net_delta(&warm.net, &r.net),
        metrics: r.metrics,
        drawn,
        failed: ledger.abandoned(drawn),
        draw_ns: draws.nanos(),
        fingerprint: draws.fingerprint(),
    }
}

/// The run's measured episodes. Once all have run, the episode whose
/// window lost the most CPU to the hypervisor, if above `STEAL_MAX_PCT`,
/// is run again with the same seed, up to `STEAL_RERUNS` times per run,
/// and the attempt with less steal is kept. Steal comes in bursts, so a
/// rerun at the end of the run is less likely to meet the same burst.
/// The numbers are then taken from the episodes within `STEAL_MAX_PCT`
/// alone, if there are at least `MIN_CLEAN` of them. Every attempt passes
/// the correctness gate and counts toward `attempted` and `failed`.
/// Returns the reruns made.
fn measure(s: &Settings, spans: &mut Spans) -> (Measured, usize) {
    let episodes = s.episodes();
    let mut m = Measured::default();
    for i in 0..WARM_EPISODES {
        m.count(&measure_episode(s, episodes.len() + i, EPISODE_MS, spans));
    }
    let mut kept: Vec<Episode> = Vec::with_capacity(episodes.len());
    for (i, &ms) in episodes.iter().enumerate() {
        let e = measure_episode(s, i, ms, spans);
        m.count(&e);
        kept.push(e);
    }
    let mut reruns = 0;
    while reruns < STEAL_RERUNS {
        let (i, steal) = kept
            .iter()
            .map(|e| e.steal_pct)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a run has at least one episode");
        if steal <= STEAL_MAX_PCT {
            break;
        }
        reruns += 1;
        let e = measure_episode(s, i, episodes[i], spans);
        m.count(&e);
        if e.steal_pct < steal {
            kept[i] = e;
        }
    }
    m.fingerprint = kept[0].fingerprint;
    let clean = kept.iter().filter(|e| e.steal_pct <= STEAL_MAX_PCT).count();
    for e in kept {
        if clean < MIN_CLEAN || e.steal_pct <= STEAL_MAX_PCT {
            m.keep(e);
        }
    }
    (m, reruns)
}

/// What the traced episodes found.
#[derive(Default)]
struct Traced {
    trace: TraceStats,
    commits: u64,
    wall_s: f64,
    exported: usize,
    export_ms: f64,
    verify_ms: f64,
    checked_txns: u64,
    violations: u64,
    recovery_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// One traced episode: the untraced episode's seed and length with full
/// tracing and history, in short windows so no ring overflows. Its
/// numbers never feed an end-to-end metric. On the durable workload it
/// then crashes the cluster, recovers it from the log and checkpoints.
fn traced_episode(s: &Settings, i: usize, ms: u64, t: &mut Traced, spans: &mut Spans) {
    let seed = s.episode_seed(i);
    let wal = s.kind.durable().then(WalDir::fresh);
    let (spec, mut cluster, draws) = setup(s, seed, Observe::FULL, wal.as_ref(), spans);
    let mut ledger = Ledger::default();
    spans.time("bench.traced", |sp| {
        for w in windows(WARMUP_MS, TRACE_WINDOW_MS) {
            window(&mut cluster, w, &mut ledger, sp);
        }
        for w in windows(ms, TRACE_WINDOW_MS) {
            let (r, log) = window(&mut cluster, w, &mut ledger, sp);
            t.commits += r.total_commits();
            t.wall_s += r.wall_elapsed.as_secs_f64();
            if t.exported < EXPORT_EVENTS {
                let take = log.events.len().min(EXPORT_EVENTS - t.exported);
                let part = TraceLog {
                    events: log.events[..take].to_vec(),
                    dropped: 0,
                };
                let json = sp.time("obs.export", |_| part.to_chrome_trace());
                std::hint::black_box(json);
                t.export_ms += sp.last_secs("obs.export") * 1e3;
                t.exported += take;
            }
            t.trace.add(&log);
        }
    });
    t.trace.end_episode();
    spans.time("core.quiesce", |_| cluster.quiesce());
    cluster.take_trace();
    let label = format!("{} seed {} traced episode {i}", s.kind.name(), s.seed);
    workload::check_invariants(&spec, &cluster, &[&ledger.commits], &label);
    let report = spans.time("checker.verify", |_| cluster.check_history());
    t.verify_ms += spans.last_secs("checker.verify") * 1e3;
    t.checked_txns += report.txns as u64;
    t.violations += report.violations.len() as u64;
    assert!(
        report.ok() && report.is_complete(),
        "{label}: history check {}",
        report.summary()
    );
    ledger.add(&drained_metrics(&cluster));
    let drawn = draws.count();
    t.attempted += drawn;
    t.failed += ledger.abandoned(drawn);
    let Some(wal) = wal else {
        return;
    };
    // Crash at a flush boundary, then rebuild over the same logs: recovery
    // replays the episode's whole redo log. The ledger holds every commit
    // since load, so the live counters are cleared before the kill.
    cluster.reset_metrics();
    let snap = cluster.kill();
    let mut recovered = spans.time("bench.recover", |sp| {
        let generated = sp.time("workload.gen", |_| workload::generate(s.kind, seed));
        sp.time("core.recover", |_| {
            workload::build(s.kind, seed, generated, Observe::OFF, Some(&wal.0)).0
        })
    });
    t.recovery_ms.push(spans.last_secs("core.recover") * 1e3);
    let unacked = recovered
        .recovery()
        .expect("a rebuild over surviving logs recovers")
        .recovered_unacked
        .clone();
    workload::check_invariants(
        &spec,
        &recovered,
        &[&ledger.commits, &snap.commits_by_proc, &unacked],
        &format!("{label} recovered"),
    );
    spans.time("storage.checkpoint", |_| {
        recovered
            .checkpoint()
            .expect("checkpoint the recovered cluster")
    });
    t.checkpoint_ms
        .push(spans.last_secs("storage.checkpoint") * 1e3);
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn per(x: u64, commits: u64, scale: f64) -> f64 {
    if commits == 0 {
        0.0
    } else {
        x as f64 * scale / commits as f64
    }
}

fn us(h: &Histogram, q: f64) -> f64 {
    h.quantile(q) as f64 / 1e3
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// steal is time the hypervisor ran something else while a virtual CPU
/// of this machine wanted to run.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Filesystem type holding `path`, from the longest matching mount point.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn num(x: u64) -> Value {
    Value::Num(x as f64)
}

fn floats(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|&x| Value::Num(x)).collect())
}

/// Run the benchmark as `s` asks: the end-to-end metrics, or (with
/// `trace`) the per-layer metrics, which need the untraced episodes too.
pub fn run(s: &Settings, spans: &mut Spans) -> Outcome {
    let episodes = s.episodes();
    let (m, steal_reruns) = measure(s, spans);
    let rss = peak_rss_mib();
    let tps = median(&m.tps);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut gates = vec![Value::Str("invariants".into())];
    let mut info = vec![
        ("workload".into(), Value::Str(s.kind.name().into())),
        ("seed".into(), num(s.seed)),
        ("seconds".into(), num(s.seconds)),
        ("backend".into(), Value::Str("async".into())),
        ("protocol".into(), Value::Str("chiller".into())),
        ("workers".into(), num(WORKERS as u64)),
        ("detected_parallelism".into(), num(parallelism as u64)),
        ("partitions".into(), num(s.kind.partitions() as u64)),
        ("clients".into(), num(s.kind.clients() as u64)),
        ("load".into(), Value::Str("closed loop".into())),
        ("episodes".into(), num(episodes.len() as u64)),
        ("episodes_reported".into(), num(m.tps.len() as u64)),
        (
            "latency_samples".into(),
            Value::Arr(m.samples.iter().map(|&n| num(n)).collect()),
        ),
        ("episode_tps".into(), floats(&m.tps)),
        ("episode_p99_us".into(), floats(&m.p99_us)),
        ("episode_steal_pct".into(), floats(&m.steal_pct)),
        ("steal_reruns".into(), num(steal_reruns as u64)),
        (
            "input_fingerprint".into(),
            Value::Str(format!("{:016x}", m.fingerprint)),
        ),
    ];
    if s.kind.durable() {
        info.push(("fsync_batch".into(), num(FSYNC_BATCH)));
        info.push((
            "wal_filesystem".into(),
            Value::Str(filesystem_of(&out_dir())),
        ));
    }
    if !s.trace {
        info.push(("gates".into(), Value::Arr(gates)));
        return Outcome {
            attempted: m.attempted,
            failed: m.failed,
            metrics: vec![
                metric("commit_tps", tps, "txn/s"),
                metric("p50_commit_us", median(&m.p50_us), "us"),
                metric("p99_commit_us", median(&m.p99_us), "us"),
                metric("setup_s", median(&m.setup_s), "s"),
                metric("peak_rss_mib", rss, "MiB"),
            ],
            info,
        };
    }
    let mut t = Traced::default();
    for (i, &ms) in episodes.iter().enumerate() {
        traced_episode(s, i, ms, &mut t, spans);
    }
    gates.push(Value::Str("traced_invariants".into()));
    gates.push(Value::Str("checker".into()));
    if s.kind.durable() {
        gates.push(Value::Str("recovered_invariants".into()));
    }
    info.push(("gates".into(), Value::Arr(gates)));
    // History completeness is asserted per episode; trace drops are not
    // fatal but mark the traced numbers incomplete.
    info.push(("traced_complete".into(), Value::Bool(t.trace.dropped == 0)));
    info.push(("traced_hops_matched".into(), num(t.trace.hop_ns.count())));
    info.push((
        "traced_recvs_without_send".into(),
        num(t.trace.unmatched_recvs),
    ));
    Outcome {
        attempted: m.attempted + t.attempted,
        failed: m.failed + t.failed,
        metrics: layer_metrics(&m, &t, tps),
        info,
    }
}

/// Every per-layer metric. Counters come from the untraced episodes'
/// reports, summed over their measured windows; `cc.backoff_us_per_commit`,
/// `simnet.hop_us.*` and the `checker.*`, `obs.*`, `core.recovery_ms` and
/// `storage.checkpoint_ms` numbers come from the traced episodes.
fn layer_metrics(m: &Measured, t: &Traced, untraced_tps: f64) -> Vec<Metric> {
    let c = m.commits;
    let cm = &m.metrics;
    let tel = &m.telemetry;
    let net = &m.net;
    let traced_tps = if t.wall_s > 0.0 {
        t.commits as f64 / t.wall_s
    } else {
        0.0
    };
    vec![
        metric("workload.next_input_ns", per(m.draw_ns, m.drawn, 1.0), "ns"),
        metric("workload.gen_s", median(&m.gen_s), "s"),
        metric(
            "workload.failed_frac",
            per(m.failed, m.attempted, 1.0),
            "ratio",
        ),
        metric("core.build_s", median(&m.build_s), "s"),
        metric("core.quiesce_ms", median(&m.quiesce_ms), "ms"),
        metric("core.recovery_ms", median(&t.recovery_ms), "ms"),
        metric(
            "cc.attempts_per_commit",
            per(c + cm.total_aborts(), c, 1.0),
            "ratio",
        ),
        metric("cc.abort_rate", cm.overall_abort_rate(), "ratio"),
        metric(
            "cc.aborts.no_wait_conflict_per_kcommit",
            per(cm.abort_reasons.get(AbortReason::NoWaitConflict), c, 1e3),
            "count",
        ),
        metric(
            "cc.aborts.migration_stale_route_per_kcommit",
            per(
                cm.abort_reasons.get(AbortReason::MigrationStaleRoute),
                c,
                1e3,
            ),
            "count",
        ),
        metric(
            "cc.distributed_ratio",
            cm.overall_distributed_ratio(),
            "ratio",
        ),
        metric(
            "cc.hot_lock_hold_us.p50",
            us(&cm.hot_contention_span, 0.5),
            "us",
        ),
        metric(
            "cc.hot_lock_hold_us.p99",
            us(&cm.hot_contention_span, 0.99),
            "us",
        ),
        metric(
            "cc.cold_lock_hold_us.p50",
            us(&cm.cold_contention_span, 0.5),
            "us",
        ),
        metric(
            "cc.cold_lock_hold_us.p99",
            us(&cm.cold_contention_span, 0.99),
            "us",
        ),
        metric(
            "cc.backoff_us_per_commit",
            per(t.trace.backoff_ns, t.commits, 1e-3),
            "us",
        ),
        metric(
            "simnet.remote_msgs_per_commit",
            per(net.one_sided_msgs + net.rpc_msgs, c, 1.0),
            "count",
        ),
        metric(
            "simnet.local_msgs_per_commit",
            per(net.local_msgs, c, 1.0),
            "count",
        ),
        metric(
            "simnet.events_per_commit",
            per(net.events_processed, c, 1.0),
            "count",
        ),
        metric(
            "simnet.timer_fires_per_commit",
            per(net.timer_fires, c, 1.0),
            "count",
        ),
        metric(
            "simnet.batches_per_kcommit",
            per(tel.batches_drained, c, 1e3),
            "count",
        ),
        metric("simnet.parks_per_kcommit", per(tel.parks, c, 1e3), "count"),
        metric(
            "simnet.unparks_per_kcommit",
            per(tel.unparks, c, 1e3),
            "count",
        ),
        metric(
            "simnet.notifies_per_commit",
            per(tel.notifies, c, 1.0),
            "count",
        ),
        metric(
            "simnet.tasks_stolen_per_kcommit",
            per(tel.tasks_stolen, c, 1e3),
            "count",
        ),
        metric(
            "simnet.zero_progress_turns",
            tel.zero_progress_turns as f64,
            "count",
        ),
        metric("simnet.flush_stalls", tel.flush_stalls as f64, "count"),
        metric(
            "simnet.parked_depth_hwm",
            tel.parked_depth_hwm as f64,
            "count",
        ),
        metric(
            "simnet.ring_occupancy_hwm",
            tel.ring_occupancy_hwm as f64,
            "count",
        ),
        metric("simnet.timer_slop_us.p99", us(&tel.timer_slop, 0.99), "us"),
        metric("simnet.hop_us.p50", us(&t.trace.hop_ns, 0.5), "us"),
        metric("simnet.hop_us.p99", us(&t.trace.hop_ns, 0.99), "us"),
        metric(
            "storage.wal.bytes_per_commit",
            per(tel.wal_bytes_appended, c, 1.0),
            "B",
        ),
        metric(
            "storage.wal.records_per_commit",
            per(tel.wal_records_appended, c, 1.0),
            "count",
        ),
        metric(
            "storage.wal.commits_per_fsync",
            per(c, tel.wal_fsyncs, 1.0),
            "count",
        ),
        metric(
            "storage.wal.flushes_per_kcommit",
            per(tel.wal_flushes, c, 1e3),
            "count",
        ),
        metric("storage.checkpoint_ms", median(&t.checkpoint_ms), "ms"),
        metric("checker.verify_ms", t.verify_ms, "ms"),
        metric(
            "checker.txns_per_s",
            if t.verify_ms > 0.0 {
                t.checked_txns as f64 / t.verify_ms * 1e3
            } else {
                0.0
            },
            "1/s",
        ),
        metric("checker.violations", t.violations as f64, "count"),
        metric(
            "obs.trace_events_per_commit",
            per(t.trace.events, t.commits, 1.0),
            "count",
        ),
        metric("obs.trace_dropped", t.trace.dropped as f64, "count"),
        metric(
            "obs.trace_overhead_pct",
            if untraced_tps > 0.0 {
                (untraced_tps - traced_tps) / untraced_tps * 100.0
            } else {
                0.0
            },
            "%",
        ),
        metric("obs.export_ms", t.export_ms, "ms"),
    ]
}
