//! The three benchmark workloads: their sizes, how each cluster is built
//! through the public `ClusterBuilder`, and the correctness gate each run
//! must pass after quiescing.

use chiller::cluster::{Cluster, ClusterBuilder};
use chiller::prelude::{
    Backend, CheckMode, InputSource, MailboxKind, NodeId, PinPolicy, Protocol, RecordId, Row,
    SimConfig, SimTime, TraceMode, TxnInput,
};
use chiller_workload::smallbank::{self, SmallBankConfig, SmallBankSource};
use chiller_workload::tpcc::{self, TpccConfig, TpccMix, TpccPlacement, TpccSource};
use chiller_workload::transfer::{self, TransferConfig, TransferSource};
use rand::rngs::StdRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Async worker-pool size for every workload. Fixed rather than detected
/// so a result never depends on the host's core count silently; the
/// detected parallelism is recorded beside every result instead.
pub const WORKERS: usize = 2;

/// Group-commit batch of the durable workload: commit marks per fsync.
pub const FSYNC_BATCH: u64 = 16384;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full TPC-C mix, 4 warehouses, 8 in flight per warehouse.
    TpccContended,
    /// Uniform transfers over 100 000 accounts on 64 partitions.
    TransferScaleout,
    /// SmallBank with a hot set, redo log on, group commit of 64.
    SmallbankDurable,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 3] = [
        Kind::TpccContended,
        Kind::TransferScaleout,
        Kind::SmallbankDurable,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TpccContended => "tpcc_contended",
            Kind::TransferScaleout => "transfer_scaleout",
            Kind::SmallbankDurable => "smallbank_durable",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Partitions (= engines = nodes).
    pub fn partitions(self) -> usize {
        match self {
            Kind::TpccContended => 4,
            Kind::TransferScaleout => 64,
            Kind::SmallbankDurable => 4,
        }
    }

    /// Transactions each engine keeps in flight (the closed loop's
    /// clients per partition).
    pub fn concurrency(self) -> usize {
        match self {
            Kind::TpccContended => 8,
            Kind::TransferScaleout => 4,
            Kind::SmallbankDurable => 4,
        }
    }

    /// Closed-loop client count: partitions × in-flight per partition.
    pub fn clients(self) -> usize {
        self.partitions() * self.concurrency()
    }

    /// Whether the commit path writes the redo log.
    pub fn durable(self) -> bool {
        self == Kind::SmallbankDurable
    }
}

/// A workload's generated configuration and initial records.
pub struct Generated {
    pub spec: Spec,
    pub records: Vec<(RecordId, Row)>,
}

/// Workload-specific configuration, kept for the correctness gate.
#[derive(Clone)]
pub enum Spec {
    Tpcc(TpccConfig),
    Transfer(TransferConfig),
    SmallBank(SmallBankConfig),
}

/// Generate the initial records of `kind` from `seed`.
pub fn generate(kind: Kind, seed: u64) -> Generated {
    match kind {
        Kind::TpccContended => {
            let cfg = TpccConfig {
                seed,
                ..TpccConfig::with_warehouses(kind.partitions() as u64)
            };
            let records = tpcc::load_tpcc(&cfg);
            Generated {
                spec: Spec::Tpcc(cfg),
                records,
            }
        }
        Kind::TransferScaleout => {
            let cfg = TransferConfig {
                accounts: 100_000,
                hot_set: 0,
                hot_fraction: 0.0,
            };
            let records = cfg.initial_records();
            Generated {
                spec: Spec::Transfer(cfg),
                records,
            }
        }
        Kind::SmallbankDurable => {
            let cfg = SmallBankConfig {
                accounts: 10_000,
                hot_accounts: 8,
                hot_fraction: 0.4,
            };
            let records = cfg.initial_records();
            Generated {
                spec: Spec::SmallBank(cfg),
                records,
            }
        }
    }
}

/// Observation settings of one build.
#[derive(Debug, Clone, Copy)]
pub struct Observe {
    pub trace: TraceMode,
    pub check: CheckMode,
}

impl Observe {
    /// Tracing and checking off: the measured configuration.
    pub const OFF: Observe = Observe {
        trace: TraceMode::Off,
        check: CheckMode::Off,
    };
    /// Full trace and full history: the traced, checked run.
    pub const FULL: Observe = Observe {
        trace: TraceMode::Full,
        check: CheckMode::Full,
    };
}

/// Build the cluster for `kind` from generated records. Every setting that
/// changes behaviour is pinned here through the builder, so the
/// environment cannot change what runs. `wal_dir` makes the cluster
/// durable (and a build against a directory with surviving logs recovers).
pub fn build(
    kind: Kind,
    seed: u64,
    generated: Generated,
    observe: Observe,
    wal_dir: Option<&Path>,
) -> (Cluster, Draws) {
    let Generated { spec, records } = generated;
    let nodes = kind.partitions();
    let draws = Draws::new(nodes);
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = kind.concurrency();
    let schema = match &spec {
        Spec::Tpcc(_) => tpcc::tpcc_schema(),
        Spec::Transfer(_) => TransferConfig::schema(),
        Spec::SmallBank(_) => SmallBankConfig::schema(),
    };
    let mut builder = ClusterBuilder::new(schema, nodes);
    builder
        .protocol(Protocol::Chiller)
        .config(sim)
        .runtime(Backend::Async)
        .workers(WORKERS)
        .mailbox(MailboxKind::Ring)
        .pin_threads(PinPolicy::Off)
        .trace(observe.trace)
        .check(observe.check);
    if let Some(dir) = wal_dir {
        builder.durable(dir).fsync_batch(FSYNC_BATCH);
    }
    let counters = draws.nodes.clone();
    let wrap = move |node: NodeId, inner: Box<dyn InputSource>| -> Box<dyn InputSource> {
        Box::new(CountingSource {
            inner,
            draws: counters[node.0 as usize].clone(),
        })
    };
    match spec {
        Spec::Tpcc(cfg) => {
            let procs = tpcc::register_procs(|p| builder.register_proc(p));
            builder
                .placement(Arc::new(TpccPlacement::new(nodes as u32)))
                .hot_records(tpcc::hot_records(&cfg))
                .load(records);
            builder.source_per_node(move |node| {
                let home = node.0 as u64 + 1;
                let src = TpccSource::new(cfg.clone(), procs.clone(), TpccMix::default(), home);
                wrap(node, Box::new(src))
            });
        }
        Spec::Transfer(cfg) => {
            let proc = builder.register_proc(transfer::transfer_proc());
            builder
                .placement(Arc::new(cfg.chiller_placement(nodes as u32)))
                .hot_records(cfg.hot_records())
                .load(records);
            builder.source_per_node(move |node| {
                wrap(node, Box::new(TransferSource::new(cfg.clone(), proc)))
            });
        }
        Spec::SmallBank(cfg) => {
            let procs = smallbank::register_procs(|p| builder.register_proc(p));
            builder
                .placement(Arc::new(cfg.placement(nodes as u32)))
                .hot_records(cfg.hot_records())
                .load(records);
            builder.source_per_node(move |node| {
                wrap(node, Box::new(SmallBankSource::new(cfg.clone(), procs)))
            });
        }
    }
    let cluster = builder
        .build()
        .expect("benchmark cluster configuration is valid");
    (cluster, draws)
}

/// Run the workload's own post-quiescence invariant check (conservation,
/// leaked locks, zombie transactions, replica divergence); panics on a
/// violation. `earlier_commits` carries per-procedure commits the live
/// engine counters no longer hold (metric resets, earlier incarnations):
/// SmallBank's conservation law counts every commit since load.
pub fn check_invariants(
    spec: &Spec,
    cluster: &Cluster,
    earlier_commits: &[&BTreeMap<String, u64>],
    label: &str,
) {
    match spec {
        Spec::Tpcc(cfg) => tpcc::assert_tpcc_invariants(cluster, cfg, label),
        Spec::Transfer(cfg) => transfer::assert_serializability_invariants(cluster, cfg, label),
        Spec::SmallBank(cfg) => {
            smallbank::assert_smallbank_invariants_recovered(cluster, cfg, earlier_commits, label)
        }
    }
}

/// Per-node draw counters, written by the engine's source wrapper and
/// read by the benchmark between run windows. Aligned so two nodes'
/// counters never share a cache line.
#[repr(align(64))]
#[derive(Default)]
pub struct NodeDraws {
    count: AtomicU64,
    nanos: AtomicU64,
    first_seen: AtomicBool,
    first_input: AtomicU64,
}

/// What every node's input source has handed its engine so far.
pub struct Draws {
    nodes: Vec<Arc<NodeDraws>>,
}

impl Draws {
    fn new(nodes: usize) -> Draws {
        Draws {
            nodes: (0..nodes).map(|_| Arc::default()).collect(),
        }
    }

    /// Inputs drawn across all nodes.
    pub fn count(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Nanoseconds spent inside `next_input` across all nodes.
    pub fn nanos(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.nanos.load(Ordering::Relaxed))
            .sum()
    }

    /// Hash of the first input every node drew, in node order. The first
    /// draw precedes any retry-jitter draw from the engine's RNG, so it
    /// depends only on the seed: equal seeds give equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for n in &self.nodes {
            n.first_seen.load(Ordering::Acquire).hash(&mut h);
            n.first_input.load(Ordering::Relaxed).hash(&mut h);
        }
        h.finish()
    }
}

/// Wraps a node's input source to count and time its draws. Abandonment
/// after `max_retries` is counted nowhere inside the program, so the draw
/// count is the only witness of it: drawn − committed − rolled back.
struct CountingSource {
    inner: Box<dyn InputSource>,
    draws: Arc<NodeDraws>,
}

impl InputSource for CountingSource {
    fn next_input(&mut self, rng: &mut StdRng, now: SimTime) -> TxnInput {
        let start = Instant::now();
        let input = self.inner.next_input(rng, now);
        let nanos = start.elapsed().as_nanos() as u64;
        let d = &self.draws;
        if d.count.fetch_add(1, Ordering::Relaxed) == 0 {
            let mut h = DefaultHasher::new();
            input.proc.hash(&mut h);
            format!("{:?}", input.params).hash(&mut h);
            d.first_input.store(h.finish(), Ordering::Relaxed);
            // Release pairs with the Acquire in `Draws::fingerprint`.
            d.first_seen.store(true, Ordering::Release);
        }
        d.nanos.fetch_add(nanos, Ordering::Relaxed);
        input
    }
}
