//! Criterion benchmarks of the execution scheduler layer:
//!
//! * **uniform vs variance-weighted shot allocation** at the same global
//!   budget — the allocation pass itself is classical bookkeeping, so the
//!   interesting number is that variance weighting costs nothing extra at
//!   dispatch time;
//! * **streamed reconstruction** — one request streamed in chunks of 4, so
//!   fragment-tensor folding overlaps device execution. On ideal simulated
//!   devices the fast sampling path makes execution nearly free, so this
//!   mostly measures the chunking overhead; the overlap wins when device
//!   latency dominates (noisy trajectory simulation, real-device queues).

use criterion::{criterion_group, criterion_main, Criterion};
use qrcc_circuit::Circuit;
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::schedule::{DeviceRegistry, Scheduler};
use qrcc_core::{QrccConfig, SchedulePolicy, ShotAllocation};
use qrcc_sim::device::{Device, DeviceConfig};
use std::time::Duration;

/// A 10-qubit chain cut for a 4-qubit device: several fragments of widths
/// 3–4, enough deduplicated circuits that routing and chunking have real
/// work to do.
fn workload() -> QrccPipeline {
    let n = 10;
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
        circuit.ry(0.1 * (q as f64 + 1.0), q + 1);
    }
    let config = QrccConfig::new(4)
        .with_subcircuit_range(2, 4)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    QrccPipeline::plan(&circuit, config).expect("plan")
}

fn registry() -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register_device("dev4", Device::new(DeviceConfig::ideal(4).with_seed(3)), 1);
    registry.register_device("dev3", Device::new(DeviceConfig::ideal(3).with_seed(5)), 1);
    registry
}

/// Uniform vs variance-weighted allocation at the same budget: same
/// dispatch machinery, different shot split.
fn bench_allocation_modes(c: &mut Criterion) {
    let pipeline = workload();
    let registry = registry();
    let mut group = c.benchmark_group("shot_allocation");
    group.sample_size(10);
    for allocation in [ShotAllocation::Uniform, ShotAllocation::VarianceWeighted] {
        let policy =
            SchedulePolicy::with_budget(40_000).with_allocation(allocation).with_min_shots(16);
        let scheduler = Scheduler::new(&registry, policy);
        group.bench_function(format!("{allocation:?}"), |b| {
            b.iter(|| {
                let (probabilities, _, report) = pipeline.execute_streaming(&scheduler).unwrap();
                assert_eq!(report.total_shots, 40_000);
                probabilities
            });
        });
    }
    group.finish();
}

/// Streamed wall-clock: each chunk folds while the next executes.
fn bench_streamed(c: &mut Criterion) {
    let pipeline = workload();
    let registry = registry();
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);

    let streamed_policy = SchedulePolicy::with_budget(40_000).with_min_shots(16).with_chunk_size(4);
    let streamed = Scheduler::new(&registry, streamed_policy);
    group.bench_function("streamed_overlapped", |b| {
        b.iter(|| {
            let (probabilities, _, _) = pipeline.execute_streaming(&streamed).unwrap();
            probabilities
        });
    });
    group.finish();
}

criterion_group!(benches, bench_allocation_modes, bench_streamed);
criterion_main!(benches);
