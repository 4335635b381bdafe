//! Criterion benchmarks of the remote execution transport:
//!
//! * **loopback vs in-process** — the same deduplicated variant batch
//!   executed on a local `ExactBackend` and on the identical backend behind
//!   a loopback `QrccServer`, measuring what the framing, QASM
//!   serialisation/parsing and socket round trips cost on top of the
//!   simulation itself.
//! * **frame-size sweep** — batch submissions of 1, 8 and 32 circuits per
//!   `SubmitBatch` frame: many small frames pay per-round-trip latency,
//!   one big frame amortises it, bounding the useful dispatch chunk sizes
//!   for remote fleets.

use criterion::{criterion_group, criterion_main, Criterion};
use qrcc_circuit::Circuit;
use qrcc_core::execute::{ExactBackend, ExecutionBackend};
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::reconstruct::ProbabilityReconstructor;
use qrcc_core::QrccConfig;
use qrcc_net::{QrccServer, RemoteBackend};
use std::time::Duration;

/// The deduplicated variant circuits of an 8-qubit chain cut for 4 qubits —
/// a realistic per-chunk payload.
fn workload() -> Vec<Circuit> {
    let n = 8;
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
        circuit.ry(0.1 * (q as f64 + 1.0), q + 1);
    }
    let config = QrccConfig::new(4).with_subcircuit_range(2, 4).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).expect("plan");
    let fragments = pipeline.fragments();
    let requests = ProbabilityReconstructor::new().requests(fragments).expect("requests");
    let circuits: Vec<_> = requests
        .iter()
        .map(|request| fragments.instantiate_key(&request.key).expect("instantiate"))
        .collect();
    circuits
}

fn bench_loopback_vs_in_process(c: &mut Criterion) {
    let circuits = workload();
    let local = ExactBackend::new();
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).expect("bind").spawn();
    let remote = RemoteBackend::connect(server.addr()).expect("connect");
    eprintln!("transport workload: {} unique variant circuits", circuits.len());

    let mut group = c.benchmark_group("transport_loopback");
    group.sample_size(10);
    group.bench_function("in_process_batch", |b| {
        b.iter(|| {
            let results = local.run_batch(&circuits);
            assert!(results.iter().all(Result::is_ok));
            results.len()
        });
    });
    group.bench_function("loopback_batch", |b| {
        b.iter(|| {
            let results = remote.run_batch(&circuits);
            assert!(results.iter().all(Result::is_ok));
            results.len()
        });
    });
    group.finish();
    server.shutdown();
}

fn bench_frame_size_sweep(c: &mut Criterion) {
    let circuits = workload();
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).expect("bind").spawn();
    let remote = RemoteBackend::connect(server.addr()).expect("connect");

    let mut group = c.benchmark_group("transport_frame_size");
    group.sample_size(10);
    for per_frame in [1usize, 8, 32] {
        group.bench_function(format!("circuits_per_frame_{per_frame}"), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for chunk in circuits.chunks(per_frame) {
                    let results = remote.run_batch(chunk);
                    assert!(results.iter().all(Result::is_ok));
                    total += results.len();
                }
                total
            });
        });
    }
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_loopback_vs_in_process, bench_frame_size_sweep);
criterion_main!(benches);
