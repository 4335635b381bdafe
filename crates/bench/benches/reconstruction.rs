//! Criterion benchmarks of classical post-processing.
//!
//! * end-to-end probability / expectation reconstruction (including variant
//!   execution on the exact backend),
//! * **dense vs contract**: the two executable strategies on the same
//!   pre-executed batch of a multi-fragment chain plan (reconstruction only,
//!   no execution inside the timed loop) — the measured counterpart of the
//!   Figure 6 FRP-vs-ARP cost models,
//! * **dense thread scaling**: the rayon-parallel dense component loop at 1
//!   worker thread vs all cores,
//! * **fold only**: `ExpectationAccumulator::absorb` + `finish` over a
//!   pre-executed batch of a 4-wire-cut plan with a many-term observable —
//!   the sum-factorised fold kernel and its bitset bookkeeping, nothing else.

use criterion::{criterion_group, criterion_main, Criterion};
use qrcc_circuit::generators::{hamiltonian_simulation, HamiltonianKind};
use qrcc_circuit::observable::PauliObservable;
use qrcc_circuit::Circuit;
use qrcc_core::execute::{execute_requests, ExecutionResults};
use qrcc_core::pipeline::{ExactBackend, QrccPipeline};
use qrcc_core::reconstruct::{
    ExpectationAccumulator, ExpectationReconstructor, ProbabilityReconstructor,
    ReconstructionOptions,
};
use qrcc_core::{DeviceRegistry, QrccConfig, ReconstructionStrategy, SchedulePolicy, Scheduler};
use std::time::Duration;

fn chain_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
        c.ry(0.1 * (q as f64 + 1.0), q + 1);
    }
    c
}

fn config(d: usize, gate_cuts: bool) -> QrccConfig {
    QrccConfig::new(d)
        .with_subcircuit_range(2, 3)
        .with_gate_cuts(gate_cuts)
        .with_ilp_time_limit(Duration::ZERO)
}

/// A fresh exact backend as a one-entry registry.
fn exact_fleet() -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register("exact", ExactBackend::new());
    registry
}

/// The probability workload's variants, executed once as one batch.
fn probability_batch(pipeline: &QrccPipeline) -> ExecutionResults {
    let requests = ProbabilityReconstructor::new().requests(pipeline.fragments()).unwrap();
    execute_requests(pipeline.fragments(), &requests, &ExactBackend::new()).unwrap()
}

fn bench_probability_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("probability_reconstruction");
    group.sample_size(10);
    let circuit = chain_circuit(6);
    let pipeline = QrccPipeline::plan(&circuit, config(4, false)).unwrap();
    group.bench_function("chain6_d4", |b| {
        b.iter(|| {
            let registry = exact_fleet();
            let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
            pipeline.execute_streaming(&scheduler).unwrap()
        });
    });
    group.finish();
}

fn bench_expectation_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("expectation_reconstruction");
    group.sample_size(10);
    let (circuit, graph) = qrcc_circuit::generators::qaoa_regular(6, 2, 1, 5);
    let observable = PauliObservable::maxcut(&graph);
    let pipeline = QrccPipeline::plan(&circuit, config(4, true)).unwrap();
    group.bench_function("qaoa6_d4_maxcut", |b| {
        b.iter(|| {
            let registry = exact_fleet();
            let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
            pipeline.execute_observables_streaming(&scheduler, &observable).unwrap()
        });
    });
    group.finish();
}

/// A chain plan with one fragment per link: `fragments` fragments and
/// `fragments − 1` wire cuts, the sweet spot of pairwise contraction.
fn chain_plan(n: usize) -> QrccPipeline {
    let config = QrccConfig::new(2)
        .with_subcircuit_range(n - 1, n - 1)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    QrccPipeline::plan(&chain_circuit(n), config).unwrap()
}

/// Dense vs contract on the same pre-executed batch: the timed loop runs
/// reconstruction only. The chain plan has ≥ 3 fragments, where the cut
/// graph is maximally sparse and contraction undercuts the global 4^cuts
/// loop.
fn bench_dense_vs_contract(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy");
    group.sample_size(10);
    // 8 fragments, 7 cuts: dense loops 4^7 · 2^8 combinations, contraction
    // never holds more than a couple of legs at once.
    let pipeline = chain_plan(9);
    assert!(pipeline.fragments().fragments.len() >= 3);
    let results = probability_batch(&pipeline);
    for strategy in [ReconstructionStrategy::Dense, ReconstructionStrategy::Contract] {
        let reconstructor = ProbabilityReconstructor::with_options(ReconstructionOptions {
            strategy,
            prune_tolerance: 0.0,
        });
        group.bench_function(format!("chain9_{strategy:?}"), |b| {
            b.iter(|| reconstructor.reconstruct(pipeline.fragments(), &results).unwrap());
        });
    }
    // pruned contraction: drops the chain's many exactly-redundant entries
    let pruned = ProbabilityReconstructor::with_options(ReconstructionOptions {
        strategy: ReconstructionStrategy::Contract,
        prune_tolerance: 1e-12,
    });
    group.bench_function("chain9_Contract_pruned", |b| {
        b.iter(|| pruned.reconstruct(pipeline.fragments(), &results).unwrap());
    });
    group.finish();
}

/// The dense component loop at 1 rayon worker vs all cores. A 13-qubit
/// chain in six 3-qubit fragments keeps the per-combination payload work
/// (2^13 output slots) heavy enough for parallelism to matter.
///
/// NOTE: toggling `RAYON_NUM_THREADS` between measurements only works with
/// the vendored rayon shim, which reads the variable on every parallel
/// call. Real rayon pins its global pool at first use — when the shim is
/// swapped out (see the ROADMAP vendor item), this bench must switch to
/// explicit `ThreadPoolBuilder::build().install(...)` pools or it will
/// silently measure the same thread count twice.
fn bench_dense_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_threads");
    group.sample_size(10);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("dense_threads: {cores} core(s) available (1thread vs all only differs on >1)");
    let config = QrccConfig::new(3)
        .with_subcircuit_range(6, 6)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&chain_circuit(13), config).unwrap();
    let results = probability_batch(&pipeline);
    let dense = ProbabilityReconstructor::with_options(ReconstructionOptions {
        strategy: ReconstructionStrategy::Dense,
        prune_tolerance: 0.0,
    });
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    group.bench_function("chain13_dense_1thread", |b| {
        b.iter(|| dense.reconstruct(pipeline.fragments(), &results).unwrap());
    });
    match &previous {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    group.bench_function("chain13_dense_all_threads", |b| {
        b.iter(|| dense.reconstruct(pipeline.fragments(), &results).unwrap());
    });
    group.finish();
}

/// The fold alone: a TFIM 3×4 step on an 8-qubit device plans to 4 wire
/// cuts, and its Ising observable has one Pauli term per edge and per site,
/// so one request folds thousands of (variant, term) pairs. Execution happens
/// once, outside the timed loop.
fn bench_fold_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("fold");
    group.sample_size(10);
    let (circuit, lattice) =
        hamiltonian_simulation(HamiltonianKind::TransverseFieldIsing, 3, 4, false, 1, 0.1);
    let observable = PauliObservable::ising(&lattice, 1.0, 0.5);
    let config = QrccConfig::new(8).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    let fragments = pipeline.fragments();
    assert!(fragments.num_wire_cuts() >= 4, "the fold bench needs a ≥4-wire-cut plan");
    assert!(observable.terms().len() >= 12, "the fold bench needs a many-term observable");
    let requests = ExpectationReconstructor::new().requests(fragments, &observable).unwrap();
    let results = execute_requests(fragments, &requests, &ExactBackend::new()).unwrap();
    group.bench_function("tfim3x4_d8_absorb_finish", |b| {
        b.iter(|| {
            let mut acc = ExpectationAccumulator::new(
                fragments,
                &observable,
                ReconstructionOptions::default(),
            )
            .unwrap();
            acc.absorb(results.clone()).unwrap();
            acc.finish().unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fold_only,
    bench_probability_reconstruction,
    bench_expectation_reconstruction,
    bench_dense_vs_contract,
    bench_dense_thread_scaling,
);
criterion_main!(benches);
