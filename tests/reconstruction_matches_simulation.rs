//! Cross-crate integration tests: the full QRCC pipeline (plan → fragments →
//! execute → reconstruct) must reproduce direct state-vector simulation, for
//! both probability-distribution and expectation-value workloads — the
//! repository-level equivalent of the paper's Figure 4 verification.

use qrcc::circuit::generators;
use qrcc::circuit::observable::{PauliObservable, PauliString};
use qrcc::prelude::*;
use std::time::Duration;

fn config(device: usize, gate_cuts: bool) -> QrccConfig {
    QrccConfig::new(device)
        .with_subcircuit_range(2, 3)
        .with_gate_cuts(gate_cuts)
        .with_ilp_time_limit(Duration::ZERO)
}

/// `backend` as a one-entry registry.
fn fleet(backend: impl ExecutionBackend + Send + 'static) -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register("only", backend);
    registry
}

fn scheduler(registry: &DeviceRegistry) -> Scheduler<'_> {
    Scheduler::new(registry, SchedulePolicy::default())
}

fn expectation(pipeline: &QrccPipeline, observable: &PauliObservable) -> f64 {
    let registry = fleet(ExactBackend::new());
    let (value, _, schedule) = pipeline
        .execute_observables_streaming(&scheduler(&registry), observable)
        .expect("reconstruct");
    // every Pauli term's variants execute as one deduplicated batch
    assert_eq!(registry.total_executions(), schedule.circuits);
    value
}

fn assert_distribution_matches(circuit: &Circuit, device: usize) {
    let pipeline = QrccPipeline::plan(circuit, config(device, false)).expect("plan");
    let registry = fleet(ExactBackend::new());
    // one deduplicated batch, folded as it lands
    let (reconstructed, _, schedule) =
        pipeline.execute_streaming(&scheduler(&registry)).expect("reconstruct");
    assert_eq!(registry.total_executions(), schedule.circuits);
    let exact = StateVector::from_circuit(circuit).expect("simulate").probabilities();
    assert_eq!(reconstructed.len(), exact.len());
    for (i, (a, b)) in exact.iter().zip(&reconstructed).enumerate() {
        assert!(
            (a - b).abs() < 1e-6,
            "mismatch at basis state {i}: exact {a} vs reconstructed {b}"
        );
    }
}

#[test]
fn ghz_distribution_on_three_qubit_device() {
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cx(q, q + 1);
    }
    assert_distribution_matches(&circuit, 3);
}

#[test]
fn qft_distribution_on_four_qubit_device() {
    // QFT(5) keeps the all-to-all structure while staying cheap enough for an
    // exact (debug-mode) reconstruction of every subcircuit variant.
    let circuit = generators::qft(5);
    assert_distribution_matches(&circuit, 4);
}

#[test]
fn aqft_distribution_on_four_qubit_device() {
    // The approximate QFT keeps only short-range controlled-phase gates, so
    // the plan needs few cuts and the exact reconstruction stays cheap even
    // in debug builds (the full adder/QFT workloads are exercised at the
    // planning level in `planning_and_reuse.rs`).
    let circuit = generators::aqft(6, 3);
    assert_distribution_matches(&circuit, 4);
}

#[test]
fn supremacy_distribution_on_five_qubit_device() {
    let circuit = generators::supremacy(2, 4, 4, 11);
    assert_distribution_matches(&circuit, 5);
}

#[test]
fn qaoa_expectation_with_wire_and_gate_cuts() {
    let (circuit, graph) = generators::qaoa_regular(6, 2, 1, 17);
    let observable = PauliObservable::maxcut(&graph);
    let pipeline = QrccPipeline::plan(&circuit, config(4, true)).expect("plan");
    let reconstructed = expectation(&pipeline, &observable);
    let exact = StateVector::from_circuit(&circuit).expect("simulate").expectation(&observable);
    assert!((reconstructed - exact).abs() < 1e-6, "reconstructed {reconstructed} vs exact {exact}");
}

#[test]
fn hamiltonian_simulation_expectation_on_small_device() {
    let (circuit, graph) = generators::hamiltonian_simulation(
        generators::HamiltonianKind::TransverseFieldIsing,
        2,
        3,
        false,
        1,
        0.2,
    );
    let observable = PauliObservable::ising(&graph, 1.0, 0.5);
    let pipeline = QrccPipeline::plan(&circuit, config(4, true)).expect("plan");
    let reconstructed = expectation(&pipeline, &observable);
    let exact = StateVector::from_circuit(&circuit).expect("simulate").expectation(&observable);
    assert!((reconstructed - exact).abs() < 1e-6, "reconstructed {reconstructed} vs exact {exact}");
}

#[test]
fn vqe_expectation_with_mixed_observable() {
    let circuit = generators::vqe_two_local(6, 2, 7);
    let mut observable = PauliObservable::new(6);
    observable.add_term(0.5, PauliString::zz(6, 0, 5));
    observable.add_term(-0.75, PauliString::z(6, 3));
    observable.add_term(0.3, PauliString::x(6, 1));
    observable.add_term(1.0, PauliString::identity(6));
    let pipeline = QrccPipeline::plan(&circuit, config(4, false)).expect("plan");
    let reconstructed = expectation(&pipeline, &observable);
    let exact = StateVector::from_circuit(&circuit).expect("simulate").expectation(&observable);
    assert!((reconstructed - exact).abs() < 1e-6, "reconstructed {reconstructed} vs exact {exact}");
}

#[test]
fn shots_backend_converges_to_the_exact_distribution() {
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 1).ry(0.6, 1).cx(1, 2).cx(2, 3);
    let pipeline = QrccPipeline::plan(&circuit, config(3, false)).expect("plan");
    let device =
        qrcc::sim::device::Device::new(qrcc::sim::device::DeviceConfig::ideal(3).with_seed(23));
    let registry = fleet(ShotsBackend::new(device, 40_000));
    // the shots batch runs rayon-parallel with per-circuit sampling streams
    let (reconstructed, _, _) =
        pipeline.execute_streaming(&scheduler(&registry)).expect("reconstruct");
    let exact = StateVector::from_circuit(&circuit).expect("simulate").probabilities();
    let tvd: f64 = exact.iter().zip(&reconstructed).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
    assert!(tvd < 0.05, "total variation distance {tvd} too large");
}
