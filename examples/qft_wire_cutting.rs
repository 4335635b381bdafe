//! Wire-cutting a Quantum Fourier Transform — the paper's hardest workload —
//! and comparing the QRCC planner against the CutQC-style baseline.
//!
//! Run with: `cargo run --release --example qft_wire_cutting`

use qrcc::circuit::generators;
use qrcc::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 10;
    let device = 6;
    let circuit = generators::qft(n);
    println!(
        "QFT({n}) with {} two-qubit gates, target device: {device} qubits",
        circuit.two_qubit_gate_count()
    );

    // CutQC baseline: wire cuts only, no qubit reuse; heuristic search
    // alone, like the QRCC plan below.
    let baseline = QrccConfig::cutqc(device).with_ilp_time_limit(Duration::ZERO);
    match CutPlanner::new(baseline).plan(&circuit) {
        Ok(plan) => println!(
            "CutQC baseline : {} subcircuits, {} cuts, widths {:?}",
            plan.num_subcircuits(),
            plan.wire_cut_count(),
            plan.subcircuit_widths()
        ),
        Err(e) => println!("CutQC baseline : no solution ({e})"),
    }

    // QRCC: integrated qubit reuse + wire cutting.
    let config = QrccConfig::new(device).with_ilp_time_limit(Duration::ZERO);
    let plan = CutPlanner::new(config).plan(&circuit)?;
    println!(
        "QRCC           : {} subcircuits, {} cuts, widths {:?} (planning took {:?})",
        plan.num_subcircuits(),
        plan.wire_cut_count(),
        plan.subcircuit_widths(),
        plan.planning_time()
    );
    println!("post-processing factor 4^cuts = {:.3e}", plan.metrics().post_processing_factor());

    // Verify a smaller instance end-to-end (QFT(6) on 4 qubits) so the example
    // also demonstrates reconstruction correctness.
    let small = generators::qft(6);
    let config = QrccConfig::new(4).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&small, config)?;
    let mut registry = DeviceRegistry::new();
    registry.register("exact", ExactBackend::new());
    let (reconstructed, _, _) =
        pipeline.execute_streaming(&Scheduler::new(&registry, SchedulePolicy::default()))?;
    let exact = StateVector::from_circuit(&small)?.probabilities();
    let max_error =
        reconstructed.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("QFT(6) on a 4-qubit device: max reconstruction error {max_error:.2e}");
    Ok(())
}
