//! Criterion benchmarks of the kernel compiler: interpreted gate-by-gate
//! application vs compiled fused-kernel programs, the exact readout of an
//! all-measured circuit against the branching oracle, and the compile cost
//! itself beside the structural hash a lookup of the circuit would pay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrcc_circuit::generators;
use qrcc_circuit::Circuit;
use qrcc_sim::branching;
use qrcc_sim::compile::FramedProgram;
use qrcc_sim::StateVector;

/// Long single-qubit runs over a sparse entangling skeleton — the workload
/// gate fusion exists for (mirrors `bench_kernels`'s fusion-heavy family).
fn fusion_heavy(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..depth {
        for q in 0..n {
            let t = 0.1 + 0.01 * (layer * n + q) as f64;
            c.h(q).rz(t, q).s(q).u3(t, 0.2, 0.4, q).t(q).rx(1.3 * t, q);
        }
        c.cx(layer % n, (layer + 1) % n);
    }
    c
}

fn bench_compiled_vs_interpreted(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_compilation");
    group.sample_size(10);
    for n in [8usize, 12, 16] {
        let circuit = fusion_heavy(n, 8);
        group.bench_with_input(BenchmarkId::new("interpreted", n), &circuit, |b, circuit| {
            b.iter(|| StateVector::from_circuit(circuit).unwrap());
        });
        let program = FramedProgram::compile(&circuit);
        group.bench_with_input(BenchmarkId::new("compiled", n), &program, |b, program| {
            b.iter(|| program.run_unitary().unwrap());
        });
    }
    group.finish();
}

fn bench_qft_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_qft");
    group.sample_size(10);
    let circuit = generators::qft(14);
    group.bench_function("interpreted_14", |b| {
        b.iter(|| StateVector::from_circuit(&circuit).unwrap());
    });
    let program = FramedProgram::compile(&circuit);
    group.bench_function("compiled_14", |b| {
        b.iter(|| program.run_unitary().unwrap());
    });
    group.finish();
}

/// The exact classical distribution of an all-measured VQE layer: every
/// measure is terminal, so the compiled readout is one sweep where the
/// interpreted oracle builds `2^n` branch states.
fn bench_terminal_readout(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_readout");
    group.sample_size(10);
    let mut circuit = generators::vqe_two_local(12, 1, 13);
    circuit.measure_all();
    group.bench_function("oracle_vqe_12", |b| {
        b.iter(|| branching::classical_distribution(&circuit).unwrap());
    });
    let program = FramedProgram::compile(&circuit);
    group.bench_function("compiled_vqe_12", |b| {
        b.iter(|| program.classical_distribution().unwrap());
    });
    group.finish();
}

/// Backends compile every circuit where it runs and keep nothing: this is
/// that whole cost, beside the structural hash any keyed lookup of the same
/// circuit would have to pay first.
fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_compile");
    group.sample_size(10);
    let circuit = fusion_heavy(10, 8);
    group.bench_function("compile", |b| {
        b.iter(|| FramedProgram::compile(&circuit));
    });
    group.bench_function("structural_hash", |b| {
        b.iter(|| circuit.structural_hash());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compiled_vs_interpreted,
    bench_qft_kernels,
    bench_terminal_readout,
    bench_compile
);
criterion_main!(benches);
