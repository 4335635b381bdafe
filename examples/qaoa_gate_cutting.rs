//! Gate cutting a QAOA MaxCut circuit (an expectation-value workload): the
//! integrated wire + gate cutting of QRCC reconstructs ⟨H⟩ exactly, mirroring
//! the paper's Figure 4 verification.
//!
//! Run with: `cargo run --release --example qaoa_gate_cutting`

use qrcc::circuit::generators;
use qrcc::circuit::observable::PauliObservable;
use qrcc::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // QAOA on a 2-regular graph with 6 nodes, evaluated on a 4-qubit device.
    let (circuit, graph) = generators::qaoa_regular(6, 2, 1, 13);
    let observable = PauliObservable::maxcut(&graph);
    println!(
        "QAOA MaxCut: {} qubits, {} edges, {} RZZ gates",
        circuit.num_qubits(),
        graph.num_edges(),
        circuit.two_qubit_gate_count()
    );

    let config = QrccConfig::new(4)
        .with_subcircuit_range(2, 3)
        .with_gate_cuts(true)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config)?;
    let plan = pipeline.plan_ref();
    println!(
        "plan: {} subcircuits, {} wire cuts + {} gate cuts = {:.2} effective cuts, widths {:?}",
        plan.num_subcircuits(),
        plan.wire_cut_count(),
        plan.gate_cut_count(),
        plan.metrics().effective_cuts(),
        plan.subcircuit_widths()
    );
    println!("subcircuit instances: {}", pipeline.total_instances());

    // One deduplicated batch serves every Pauli term of the observable; terms
    // of one qubit-wise-commuting group share a fragment's circuits.
    let mut registry = DeviceRegistry::new();
    registry.register("exact", ExactBackend::new());
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
    let (reconstructed, _, schedule) =
        pipeline.execute_observables_streaming(&scheduler, &observable)?;
    println!(
        "batch: {} Pauli terms → {} circuits executed",
        observable.terms().len(),
        schedule.circuits
    );
    let exact = StateVector::from_circuit(&circuit)?.expectation(&observable);
    println!("expectation value from reconstruction = {reconstructed:.6}");
    println!("expectation value from simulation     = {exact:.6}");
    assert!((reconstructed - exact).abs() < 1e-6);
    println!("match within 1e-6 — the integrated W-Cut + G-Cut reconstruction is exact.");
    Ok(())
}
