//! Criterion benchmarks of the cut-search kernels: QRCC heuristic planning,
//! the CutQC-style baseline, and the exact ILP model on a small instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrcc_circuit::dag::CircuitDag;
use qrcc_circuit::generators;
use qrcc_circuit::graph::random_regular;
use qrcc_core::model::solve_qrcc_model;
use qrcc_core::planner::CutPlanner;
use qrcc_core::QrccConfig;
use std::time::Duration;

fn heuristic_config(d: usize) -> QrccConfig {
    QrccConfig::new(d).with_ilp_time_limit(Duration::ZERO)
}

fn bench_qrcc_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("qrcc_planning");
    group.sample_size(10);
    let reg40 = generators::qaoa(&random_regular(40, 5, 1), 1, 3);
    for (name, circuit, config) in [
        ("qft12_d8", generators::qft(12), heuristic_config(8)),
        ("adder5_d7", generators::ripple_carry_adder(5, 1), heuristic_config(7)),
        ("qaoa_reg16_d10", generators::qaoa_regular(16, 3, 1, 1).0, heuristic_config(10)),
        // paper-scale widths, as in bench_pipeline's `plan_wide`: hundreds of
        // DAG nodes and thousands of candidate moves per plan
        ("qft24_d16", generators::qft(24), heuristic_config(16)),
        ("spm5x6_d16", generators::supremacy(5, 6, 8, 1), heuristic_config(16)),
        ("add14_d16", generators::ripple_carry_adder(14, 2), heuristic_config(16)),
        ("reg40_d27", reg40, heuristic_config(27).with_gate_cuts(true)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, circuit| {
            // `ok()` keeps the benchmark meaningful even if a tight budget
            // makes a particular instance unsolvable for the heuristic.
            b.iter(|| {
                CutPlanner::new(config.clone()).plan(circuit).ok().map(|p| p.wire_cut_count())
            });
        });
    }
    group.finish();
}

fn bench_cutqc_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("cutqc_baseline_planning");
    group.sample_size(10);
    let circuit = generators::ripple_carry_adder(5, 1);
    group.bench_function("adder5_d7", |b| {
        b.iter(|| {
            CutPlanner::new(QrccConfig::cutqc(7)).plan(&circuit).ok().map(|p| p.wire_cut_count())
        });
    });
    group.finish();
}

fn bench_exact_ilp(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_ilp_model");
    group.sample_size(10);
    let mut chain = qrcc_circuit::Circuit::new(6);
    chain.h(0);
    for q in 0..5 {
        chain.cx(q, q + 1);
    }
    let dag = CircuitDag::from_circuit(&chain);
    group.bench_function("ghz6_d3_two_subcircuits", |b| {
        b.iter(|| solve_qrcc_model(&dag, &QrccConfig::new(3), 2, Duration::from_secs(30)).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_qrcc_planning, bench_cutqc_baseline, bench_exact_ilp);
criterion_main!(benches);
