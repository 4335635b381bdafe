//! Criterion benchmarks of the async dispatch subsystem:
//!
//! * **blocking vs async dispatch at varying in-flight windows** — a window
//!   of 1 reproduces the old blocking scheduler (the next chunk is not
//!   dispatched until the consumer accepted the previous one); wider windows
//!   let execution run ahead of a slow consumer. On queue-latency devices
//!   ([`QueueBackend`]) the window is the lever that overlaps device queue
//!   time with reconstruction.
//! * **failure rates** — the retry machinery's overhead at 0% (fault-free
//!   fast path), and end-to-end cost when a seeded fraction of jobs drops
//!   once and re-routes to a healthy device.
//!
//! Every row times whole streaming requests: dispatch, fold and contract.

use criterion::{criterion_group, criterion_main, Criterion};
use qrcc_circuit::Circuit;
use qrcc_core::dispatch::{FlakyBackend, QueueBackend};
use qrcc_core::execute::ExactBackend;
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::schedule::{DeviceRegistry, Scheduler};
use qrcc_core::{QrccConfig, SchedulePolicy};
use std::time::Duration;

/// A 10-qubit chain cut for a 4-qubit device: enough deduplicated circuits
/// that chunking, windows and retries have real work to do.
fn workload() -> QrccPipeline {
    let n = 10;
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
        circuit.ry(0.13 * (q as f64 + 1.0), q + 1);
    }
    let config = QrccConfig::new(4)
        .with_subcircuit_range(2, 4)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    QrccPipeline::plan(&circuit, config).expect("plan")
}

/// Two exact devices behind simulated 2 ms job queues — the setting where
/// overlapping dispatch with reconstruction actually pays.
fn queued_registry() -> DeviceRegistry {
    let latency = Duration::from_millis(2);
    let mut registry = DeviceRegistry::new();
    registry.register("queued-a", QueueBackend::new(ExactBackend::capped(4), latency));
    registry.register("queued-b", QueueBackend::new(ExactBackend::capped(4), latency));
    registry
}

/// Blocking (window 1) vs async (wider windows, unbounded) dispatch over
/// queue-latency devices, streaming into incremental reconstruction.
fn bench_in_flight_windows(c: &mut Criterion) {
    let pipeline = workload();
    let registry = queued_registry();
    let mut group = c.benchmark_group("dispatch_window");
    group.sample_size(10);
    for (label, window) in
        [("blocking_window_1", 1usize), ("async_window_4", 4), ("async_unbounded", 0)]
    {
        let policy = SchedulePolicy::default().with_chunk_size(2).with_max_in_flight_chunks(window);
        let scheduler = Scheduler::new(&registry, policy);
        group.bench_function(label, |b| {
            b.iter(|| {
                let (probabilities, _, report) = pipeline.execute_streaming(&scheduler).unwrap();
                assert!(window == 0 || report.dispatch.max_in_flight_chunks <= window);
                probabilities
            });
        });
    }
    group.finish();
}

/// Retry overhead at varying failure rates: a flaky device drops a seeded
/// fraction of its jobs once, and each drop re-routes to the healthy device.
fn bench_failure_rates(c: &mut Criterion) {
    let pipeline = workload();
    let mut group = c.benchmark_group("dispatch_failure_rate");
    group.sample_size(10);
    for (label, fraction) in [("fault_free", 0.0), ("drop_20pct", 0.2), ("drop_60pct", 0.6)] {
        let policy = SchedulePolicy::default()
            .with_chunk_size(2)
            .with_max_in_flight_chunks(2)
            .with_max_retries(3);
        group.bench_function(label, |b| {
            b.iter(|| {
                // fresh registry per run: transient-fault bookkeeping resets,
                // so every iteration injects the same failure schedule
                let mut registry = DeviceRegistry::new();
                registry.register(
                    "flaky",
                    FlakyBackend::transient(ExactBackend::capped(4), 17, fraction),
                );
                registry.register("steady", ExactBackend::capped(4));
                let scheduler = Scheduler::new(&registry, policy);
                let (probabilities, _, report) = pipeline.execute_streaming(&scheduler).unwrap();
                assert!(fraction == 0.0 || report.dispatch.failures > 0);
                probabilities
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_in_flight_windows, bench_failure_rates);
criterion_main!(benches);
