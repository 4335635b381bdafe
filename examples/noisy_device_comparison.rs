//! The paper's Table 3 experiment in miniature: compare running a 7-qubit
//! QAOA circuit directly on a noisy 7-qubit device against QRCC's smaller
//! subcircuits on a noisy 4-qubit device plus classical post-processing.
//!
//! Run with: `cargo run --release --example noisy_device_comparison`

use qrcc::circuit::generators;
use qrcc::circuit::observable::PauliObservable;
use qrcc::prelude::*;
use qrcc::sim::device::{Device, DeviceConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shots = 4096;
    let (circuit, graph) = generators::qaoa_regular(7, 2, 1, 21);
    let observable = PauliObservable::maxcut(&graph);
    let exact = StateVector::from_circuit(&circuit)?.expectation(&observable);
    println!("state-vector (ground truth) ⟨H⟩ = {exact:.4}");

    // Whole-circuit execution on a noisy 7-qubit device.
    let noise = NoiseModel::ibm_lagos_like();
    let whole_device = Device::new(DeviceConfig::noisy(7, noise).with_seed(1));
    let whole = whole_device.estimate_expectation(&circuit, &observable, shots)?;
    println!("noisy 7-qubit device        ⟨H⟩ = {whole:.4}  (error {:.4})", (whole - exact).abs());

    // QRCC: plan for a 4-qubit device, execute subcircuits with the same
    // noise model, reconstruct classically.
    let config = QrccConfig::new(4)
        .with_subcircuit_range(2, 3)
        .with_gate_cuts(true)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config.clone())?;
    println!(
        "QRCC plan: {} subcircuits, {} wire cuts, {} gate cuts, {} instances",
        pipeline.plan_ref().num_subcircuits(),
        pipeline.plan_ref().wire_cut_count(),
        pipeline.plan_ref().gate_cut_count(),
        pipeline.total_instances()
    );
    // The batch runs rayon-parallel on the simulated device, with one
    // deterministic sampling stream per circuit.
    let mut registry = DeviceRegistry::new();
    registry.register_device(
        "noisy (4q)",
        Device::new(DeviceConfig::noisy(4, noise).with_seed(2)),
        shots,
    );
    let scheduler = Scheduler::new(&registry, config.schedule);
    let (qrcc_value, _, schedule) =
        pipeline.execute_observables_streaming(&scheduler, &observable)?;
    println!(
        "executed {} noisy subcircuit runs, {} shots in total",
        schedule.circuits, schedule.total_shots
    );
    println!(
        "QRCC (4-qubit + post-proc)  ⟨H⟩ = {qrcc_value:.4}  (error {:.4})",
        (qrcc_value - exact).abs()
    );
    println!("\nThe subcircuits contain fewer two-qubit gates each, so their noisy execution");
    println!("degrades the reconstructed value less than running the full circuit does.");
    Ok(())
}
