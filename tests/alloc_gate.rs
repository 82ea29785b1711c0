//! Deterministic allocation gate: heap allocations per committed
//! transaction on the simulator, asserted against fixed ceilings.
//!
//! Wall-clock throughput is too noisy to catch a change that reintroduces
//! a per-row deep copy on the commit path (lock-read reply → execution
//! output → buffered write → one `Replicate` per replica → every store
//! install → redo record). The simulator is deterministic per seed, so
//! the number of allocations a run makes is too: this binary installs a
//! counting global allocator, runs fixed-seed transfer, TPC-C and durable
//! SmallBank workloads on `Backend::Simulated`, and fails when a
//! workload's allocations per commit exceed its ceiling.
//!
//! Counts are per thread (the simulator runs every engine on the calling
//! thread), so tests running concurrently in this binary cannot pollute
//! each other. Run with `--nocapture` to print the measured figures.

use chiller::cluster::{Cluster, RunSpec};
use chiller::prelude::*;
use chiller_workload::smallbank::{build_cluster_durable, SmallBankConfig};
use chiller_workload::tpcc::{build_tpcc_cluster_full, TpccConfig, TpccMix};
use chiller_workload::transfer::{build_cluster_checked, TransferConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation (and reallocation) the
/// current thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Ceilings on allocations per commit, set from the measured figures
/// with shared rows, inline one-record buckets and lock words, recycled
/// per-slot coordinator state, shared replica write-sets and in-place WAL
/// frames: transfer 12.7, TPC-C 29.6, durable SmallBank 13.4. The counts
/// are exact per seed (the same in dev and release builds), so the
/// headroom is kept under one allocation per commit: deep-copying the row
/// at each replica install alone adds 2.0, 12.3 and 1.3 and trips every
/// ceiling.
const TRANSFER_CEILING: f64 = 13.5;
const TPCC_CEILING: f64 = 30.4;
const SMALLBANK_CEILING: f64 = 14.2;

/// Virtual time run before counting, so one-off growth (maps, pools,
/// histograms) is out of the measured window.
const WARMUP_MS: u64 = 2;
/// The counted window of virtual time.
const MEASURE_MS: u64 = 10;

fn sim_config(seed: u64, concurrency: usize) -> SimConfig {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = concurrency;
    sim
}

/// Allocations per commit over a measured window after a warm-up.
fn allocations_per_commit(cluster: &mut Cluster, label: &str) -> f64 {
    cluster.run(RunSpec::millis(0, WARMUP_MS));
    cluster.reset_metrics();
    let before = allocations();
    let report = cluster.run_more(Duration::from_millis(MEASURE_MS));
    let allocs = allocations() - before;
    let commits = report.total_commits();
    assert!(commits > 100, "{label}: too few commits ({commits})");
    let per_commit = allocs as f64 / commits as f64;
    eprintln!("{label}: {allocs} allocations / {commits} commits = {per_commit:.1} per commit");
    per_commit
}

fn assert_ceiling(label: &str, per_commit: f64, ceiling: f64) {
    assert!(
        per_commit <= ceiling,
        "{label}: {per_commit:.1} allocations per commit exceed the ceiling of {ceiling} — \
         has a per-row copy crept back onto the commit path?"
    );
}

/// Uniform transfers over many partitions: the scale-out shape, where
/// nearly every commit is distributed and replicated.
#[test]
fn transfer_allocations_per_commit_stay_under_ceiling() {
    let cfg = TransferConfig {
        accounts: 10_000,
        hot_set: 0,
        hot_fraction: 0.0,
    };
    let mut cluster = build_cluster_checked(
        &cfg,
        16,
        Protocol::Chiller,
        sim_config(201, 4),
        Backend::Simulated,
        None,
        None,
        None,
        Some(TraceMode::Off),
        Some(CheckMode::Off),
    );
    let per_commit = allocations_per_commit(&mut cluster, "transfer");
    assert_ceiling("transfer", per_commit, TRANSFER_CEILING);
}

/// The full TPC-C mix on four warehouses under Chiller: contended
/// warehouse/district rows and ~12 inserted records per NewOrder.
#[test]
fn tpcc_allocations_per_commit_stay_under_ceiling() {
    let cfg = TpccConfig {
        seed: 202,
        ..TpccConfig::with_warehouses(4)
    };
    let mut cluster = build_tpcc_cluster_full(
        &cfg,
        TpccMix::default(),
        Protocol::Chiller,
        sim_config(202, 8),
        Backend::Simulated,
        Some(TraceMode::Off),
        Some(CheckMode::Off),
        None,
    );
    let per_commit = allocations_per_commit(&mut cluster, "tpcc");
    assert_ceiling("tpcc", per_commit, TPCC_CEILING);
}

/// SmallBank with a hot set and the redo log on, so redo records are on
/// the counted path.
#[test]
fn durable_smallbank_allocations_per_commit_stay_under_ceiling() {
    let dir = std::env::temp_dir().join(format!("chiller-alloc-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SmallBankConfig {
        accounts: 2_000,
        hot_accounts: 8,
        hot_fraction: 0.4,
    };
    let mut cluster = build_cluster_durable(
        &cfg,
        4,
        Protocol::Chiller,
        sim_config(203, 4),
        Backend::Simulated,
        None,
        Some(CheckMode::Off),
        Some(&dir),
    );
    let per_commit = allocations_per_commit(&mut cluster, "smallbank (durable)");
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    assert_ceiling("smallbank (durable)", per_commit, SMALLBANK_CEILING);
}
