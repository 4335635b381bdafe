//! Quickstart: cut a 6-qubit GHZ-style circuit so it runs on a 3-qubit
//! device, execute every subcircuit variant as one deduplicated batch on an
//! exact simulator, and reconstruct the original probability distribution
//! as the results stream in.
//!
//! Run with: `cargo run --example quickstart`

use qrcc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the workload: a 6-qubit entangled chain.
    let mut circuit = Circuit::new(6);
    circuit.h(0);
    for q in 0..5 {
        circuit.cx(q, q + 1);
    }
    println!("original circuit: {} qubits, {} gates", circuit.num_qubits(), circuit.gate_count());

    // 2. Plan a qubit-reuse-aware cut for a 3-qubit device.
    let config = QrccConfig::new(3);
    let pipeline = QrccPipeline::plan(&circuit, config)?;
    let plan = pipeline.plan_ref();
    println!(
        "plan: {} subcircuits, {} wire cuts, {} gate cuts, widths {:?}",
        plan.num_subcircuits(),
        plan.wire_cut_count(),
        plan.gate_cut_count(),
        plan.subcircuit_widths()
    );
    println!("subcircuit instances to execute: {}", pipeline.total_instances());

    // 3. Execute and reconstruct in one request: the pipeline enumerates
    //    every variant, deduplicates them by structural key, and a scheduler
    //    runs the batch on the backend — a one-entry registry — while this
    //    thread folds the results into the fragment tensors.
    let mut registry = DeviceRegistry::new();
    registry.register("exact", ExactBackend::new());
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
    let (probabilities, _, schedule) = pipeline.execute_streaming(&scheduler)?;
    println!(
        "batch: {} circuits executed after dedup, in {} chunk(s)",
        schedule.circuits, schedule.chunks
    );

    // 4. Compare against direct state-vector simulation.
    let exact = StateVector::from_circuit(&circuit)?.probabilities();
    let max_error =
        probabilities.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("P(|000000>) = {:.4}   P(|111111>) = {:.4}", probabilities[0], probabilities[63]);
    println!("max |reconstructed - exact| = {max_error:.2e}");
    assert!(max_error < 1e-6);
    Ok(())
}
