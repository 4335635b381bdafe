//! Criterion benchmarks of the batch-first execution layer: the
//! rayon-parallel batch path (one `run` call over every variant) against
//! serial per-variant execution (one `run` call per circuit), on a
//! multi-fragment wire-cut workload — the paper's binding constraint at
//! practical sizes is exactly this `4^k·6^m` variant volume.

use criterion::{criterion_group, criterion_main, Criterion};
use qrcc_circuit::Circuit;
use qrcc_core::execute::{execute_requests, ExactBackend, ExecutionBackend};
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::reconstruct::ProbabilityReconstructor;
use qrcc_core::QrccConfig;
use std::time::{Duration, Instant};

/// A multi-fragment workload: a dense entangled 12-qubit chain cut for a
/// 6-qubit device, yielding several multi-qubit fragments with 4^k wire-cut
/// variants each — big enough that per-circuit simulation cost dominates the
/// batch bookkeeping.
fn workload() -> (QrccPipeline, Vec<Circuit>) {
    let n = 12;
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for layer in 0..2 {
        for q in 0..n - 1 {
            circuit.cx(q, q + 1);
            circuit.ry(0.1 * (q + layer) as f64 + 0.05, q + 1);
        }
    }
    let config = QrccConfig::new(6).with_subcircuit_range(3, 6).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).expect("plan");
    let fragments = pipeline.fragments();
    let requests = ProbabilityReconstructor::new().requests(fragments).expect("requests");
    // materialise the batch once for the raw-path benches (one circuit per
    // enumerated variant)
    let circuits: Vec<_> = requests
        .iter()
        .map(|request| fragments.instantiate_key(&request.key).expect("instantiate"))
        .collect();
    (pipeline, circuits)
}

fn bench_batch_vs_serial(c: &mut Criterion) {
    let (pipeline, circuits) = workload();
    eprintln!(
        "execution workload: {} fragments, {} unique variant circuits",
        pipeline.fragments().fragments.len(),
        circuits.len()
    );

    let mut group = c.benchmark_group("variant_execution");
    group.sample_size(10);
    group.bench_function("serial_run", |b| {
        b.iter(|| {
            let backend = ExactBackend::new();
            let results: Vec<_> = circuits.chunks(1).map(|c| backend.run_batch(c)).collect();
            assert!(results.iter().flatten().all(Result::is_ok));
            results.len()
        });
    });
    group.bench_function("parallel_run_batch", |b| {
        b.iter(|| {
            let backend = ExactBackend::new();
            let results = backend.run_batch(&circuits);
            assert!(results.iter().all(Result::is_ok));
            results.len()
        });
    });
    group.finish();

    // Headline number: the parallel batch path must beat serial execution on
    // a multi-core machine (single-core machines tie within noise).
    let backend = ExactBackend::new();
    let start = Instant::now();
    for circuit in circuits.chunks(1) {
        backend.run_batch(circuit).pop().unwrap().unwrap();
    }
    let serial = start.elapsed();
    let start = Instant::now();
    let _ = backend.run_batch(&circuits);
    let parallel = start.elapsed();
    eprintln!(
        "serial {serial:?} vs parallel batch {parallel:?} ({:.2}x speedup on {} cores)",
        serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
}

fn bench_end_to_end_batch(c: &mut Criterion) {
    let (pipeline, _) = workload();
    let fragments = pipeline.fragments();
    let requests = ProbabilityReconstructor::new().requests(fragments).expect("requests");
    let mut group = c.benchmark_group("batch_pipeline");
    group.sample_size(10);
    group.bench_function("enumerate_dedup_execute", |b| {
        b.iter(|| {
            let backend = ExactBackend::new();
            execute_requests(fragments, &requests, &backend).unwrap().executed()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batch_vs_serial, bench_end_to_end_batch);
criterion_main!(benches);
