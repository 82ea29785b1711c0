//! Exact simulator cost gate: fixed-seed runs on `Backend::Simulated`
//! under every protocol, asserting the deterministic cost counters
//! exactly.
//!
//! The simulator is bit-reproducible per seed, so commits, aborts,
//! message counts per verb class, timer fires, events handled and — on
//! the durable run — WAL records and bytes appended are exact numbers.
//! A change that claims to be a pure engine-CPU optimisation (hashing,
//! grouping, buffer reuse, sharing instead of cloning) must leave every
//! one of them untouched: any drift means the change sent a different
//! message, fired a different timer or logged a different byte.
//!
//! When a change is *meant* to alter the protocol's behaviour, re-record
//! the constants with `cargo test --release --test cost_gate --
//! --nocapture` (each case prints its measured line) and say why in the
//! change log.

use chiller::cluster::{Cluster, RunSpec};
use chiller::prelude::*;
use chiller_workload::smallbank::{build_cluster_durable, SmallBankConfig};
use chiller_workload::tpcc::{build_tpcc_cluster_full, TpccConfig, TpccMix};
use chiller_workload::transfer::{build_cluster_checked, TransferConfig};

/// The deterministic cost counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Costs {
    commits: u64,
    aborts: u64,
    one_sided_msgs: u64,
    rpc_msgs: u64,
    local_msgs: u64,
    timer_fires: u64,
    events_processed: u64,
    /// WAL records appended across all engines (0 when not durable).
    wal_records: u64,
    /// WAL bytes appended across all engines (0 when not durable).
    wal_bytes: u64,
}

/// Virtual time run before the measured window.
const WARMUP_MS: u64 = 1;
/// The measured window of virtual time.
const MEASURE_MS: u64 = 4;

fn sim_config(seed: u64, concurrency: usize) -> SimConfig {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = concurrency;
    sim
}

fn measure(cluster: &mut Cluster, label: &str) -> Costs {
    let report = cluster.run(RunSpec::millis(WARMUP_MS, MEASURE_MS));
    let (mut wal_records, mut wal_bytes) = (0, 0);
    for engine in cluster.engines() {
        if let Some(stats) = engine.wal_stats() {
            wal_records += stats.records_appended;
            wal_bytes += stats.bytes_appended;
        }
    }
    let costs = Costs {
        commits: report.total_commits(),
        aborts: report.total_aborts(),
        one_sided_msgs: report.net.one_sided_msgs,
        rpc_msgs: report.net.rpc_msgs,
        local_msgs: report.net.local_msgs,
        timer_fires: report.net.timer_fires,
        events_processed: report.net.events_processed,
        wal_records,
        wal_bytes,
    };
    eprintln!(
        "{label}: [{}, {}, {}, {}, {}, {}, {}, {}, {}]",
        costs.commits,
        costs.aborts,
        costs.one_sided_msgs,
        costs.rpc_msgs,
        costs.local_msgs,
        costs.timer_fires,
        costs.events_processed,
        costs.wal_records,
        costs.wal_bytes
    );
    costs
}

/// `[commits, aborts, one_sided, rpc, local, timer_fires, events,
/// wal_records, wal_bytes]`, in the order the test prints them.
fn expected(v: [u64; 9]) -> Costs {
    Costs {
        commits: v[0],
        aborts: v[1],
        one_sided_msgs: v[2],
        rpc_msgs: v[3],
        local_msgs: v[4],
        timer_fires: v[5],
        events_processed: v[6],
        wal_records: v[7],
        wal_bytes: v[8],
    }
}

fn check(label: &str, got: Costs, want: [u64; 9]) {
    assert_eq!(
        got,
        expected(want),
        "{label}: simulated cost counters drifted — the change altered a \
         message, a timer or a WAL byte"
    );
}

const PROTOCOLS: [Protocol; 3] = [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ];

/// Uniform transfers over many partitions: nearly every commit is
/// distributed and replicated.
#[test]
fn transfer_costs_are_exact() {
    let want = [
        [5393, 57, 55786, 11053, 9350, 6835, 103306, 0, 0], // chiller
        [5393, 57, 55786, 11053, 9350, 6835, 103306, 0, 0], // 2pl
        [4772, 63, 69242, 9761, 11270, 6045, 117204, 0, 0], // occ
    ];
    for (protocol, want) in PROTOCOLS.into_iter().zip(want) {
        let cfg = TransferConfig {
            accounts: 4_000,
            hot_set: 0,
            hot_fraction: 0.0,
        };
        let mut cluster = build_cluster_checked(
            &cfg,
            8,
            protocol,
            sim_config(301, 4),
            Backend::Simulated,
            None,
            None,
            None,
            Some(TraceMode::Off),
            Some(CheckMode::Off),
        );
        let label = format!("transfer/{protocol:?}");
        check(&label, measure(&mut cluster, &label), want);
    }
}

/// The full TPC-C mix on two warehouses: contended warehouse/district
/// rows, two-region execution under Chiller, inserts and range scans.
#[test]
fn tpcc_costs_are_exact() {
    let want = [
        [794, 9, 1339, 918, 2563, 1021, 9374, 0, 0],  // chiller
        [412, 406, 891, 468, 3875, 1042, 7610, 0, 0], // 2pl
        [242, 205, 786, 280, 3543, 552, 6232, 0, 0],  // occ
    ];
    for (protocol, want) in PROTOCOLS.into_iter().zip(want) {
        let cfg = TpccConfig {
            seed: 302,
            ..TpccConfig::with_warehouses(2)
        };
        let mut cluster = build_tpcc_cluster_full(
            &cfg,
            TpccMix::default(),
            protocol,
            sim_config(302, 6),
            Backend::Simulated,
            Some(TraceMode::Off),
            Some(CheckMode::Off),
            None,
        );
        let label = format!("tpcc/{protocol:?}");
        check(&label, measure(&mut cluster, &label), want);
    }
}

/// SmallBank with a hot set and the redo log on: the WAL's record and
/// byte counts join the exact counters.
#[test]
fn durable_smallbank_costs_are_exact() {
    let want = [
        [2467, 10, 10792, 3455, 4431, 3457, 27886, 11584, 580392], // chiller
        [2624, 565, 15271, 2359, 6153, 4357, 32967, 9638, 592382], // 2pl
        [2269, 388, 18740, 2080, 7076, 3765, 36352, 8450, 519618], // occ
    ];
    for (protocol, want) in PROTOCOLS.into_iter().zip(want) {
        let dir = std::env::temp_dir().join(format!(
            "chiller-cost-gate-{}-{protocol:?}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SmallBankConfig {
            accounts: 1_000,
            hot_accounts: 8,
            hot_fraction: 0.4,
        };
        let mut cluster = build_cluster_durable(
            &cfg,
            4,
            protocol,
            sim_config(303, 4),
            Backend::Simulated,
            None,
            Some(CheckMode::Off),
            Some(&dir),
        );
        let label = format!("smallbank-durable/{protocol:?}");
        let got = measure(&mut cluster, &label);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        check(&label, got, want);
    }
}
