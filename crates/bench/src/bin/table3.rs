//! Table 3 — verification on a (simulated) noisy device: state-vector
//! simulation vs shot-based simulation vs whole-circuit execution on a noisy
//! 7-qubit device vs QRCC (4-qubit noisy device + classical post-processing).
//!
//! The real IBM Lagos backend of the paper is substituted by the calibrated
//! stochastic-Pauli noise model of `qrcc-sim` (see DESIGN.md).
//!
//! Usage: `cargo run --release -p qrcc-bench --bin table3 [--large]`

use qrcc_bench::{harness_config, print_header, Scale};
use qrcc_circuit::generators;
use qrcc_circuit::observable::PauliObservable;
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::{DeviceRegistry, Scheduler};
use qrcc_sim::device::{Device, DeviceConfig};
use qrcc_sim::noise::NoiseModel;
use qrcc_sim::StateVector;

fn accuracy(value: f64, exact: f64) -> f64 {
    if exact.abs() < 1e-12 {
        return if value.abs() < 1e-12 { 100.0 } else { 0.0 };
    }
    100.0 * (1.0 - (value - exact).abs() / exact.abs()).max(0.0)
}

fn main() {
    let scale = Scale::from_args();
    let shots: u64 = if scale == Scale::Paper { 16_384 } else { 4_096 };
    let runs = if scale == Scale::Paper { 10 } else { 3 };

    // REG (m=2), N=7, D=4: the paper's verification workload.
    let (circuit, graph) = generators::qaoa_regular(7, 2, 1, 21);
    let observable = PauliObservable::maxcut(&graph);
    let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&observable);

    // Shot-based (noise-free) simulation of the whole circuit.
    let mut shot_values = Vec::new();
    for run in 0..runs {
        let device = Device::new(DeviceConfig::ideal(7).with_seed(100 + run));
        shot_values.push(device.estimate_expectation(&circuit, &observable, shots).unwrap());
    }
    let shot_sim = shot_values.iter().sum::<f64>() / shot_values.len() as f64;

    // Whole-circuit execution on a noisy 7-qubit device (IBM-Lagos-like noise).
    let noise = NoiseModel::ibm_lagos_like();
    let mut device_values = Vec::new();
    for run in 0..runs {
        let device = Device::new(DeviceConfig::noisy(7, noise).with_seed(200 + run));
        device_values.push(device.estimate_expectation(&circuit, &observable, shots).unwrap());
    }
    let device_execution = device_values.iter().sum::<f64>() / device_values.len() as f64;

    // QRCC: cut to 4-qubit subcircuits, run on a noisy 4-qubit device,
    // reconstruct classically.
    let config = harness_config(4, 0.7, true).with_subcircuit_range(2, 3);
    let pipeline = match QrccPipeline::plan(&circuit, config.clone()) {
        Ok(pipeline) => pipeline,
        Err(e) => {
            eprintln!("could not plan REG(7) for a 4-qubit device: {e}");
            return;
        }
    };
    let plan = pipeline.plan_ref();
    println!(
        "QRCC plan: {} subcircuits, {} wire cuts, {} gate cuts, {} subcircuit instances",
        plan.num_subcircuits(),
        plan.wire_cut_count(),
        plan.gate_cut_count(),
        pipeline.total_instances()
    );
    let mut registry = DeviceRegistry::new();
    registry.register_device(
        "noisy (4q)",
        Device::new(DeviceConfig::noisy(4, noise).with_seed(300)),
        shots,
    );
    // One deduplicated batch of noisy subcircuit runs serves every Pauli term.
    let scheduler = Scheduler::new(&registry, config.schedule);
    let (qrcc_value, _, schedule) =
        pipeline.execute_observables_streaming(&scheduler, &observable).unwrap();
    println!("batch execution: {} noisy device runs after dedup", schedule.circuits);

    print_header(
        "Table 3: REG(m=2), N=7, D=4 — expectation value and accuracy",
        &["Execution mode", "Result", "Accuracy"],
    );
    println!("{:<28} | {:>8.4} | {:>6.1}%", "State Vector simulation", exact, 100.0);
    println!(
        "{:<28} | {:>8.4} | {:>6.1}%",
        "Shot-based Simulation",
        shot_sim,
        accuracy(shot_sim, exact)
    );
    println!(
        "{:<28} | {:>8.4} | {:>6.1}%",
        "Device Execution (7-qubit)",
        device_execution,
        accuracy(device_execution, exact)
    );
    println!(
        "{:<28} | {:>8.4} | {:>6.1}%",
        "QRCC-B (4-qubit + post-proc)",
        qrcc_value,
        accuracy(qrcc_value, exact)
    );
    println!(
        "\nPaper shape: QRCC accuracy > shot-based simulation > whole-circuit noisy execution."
    );
}
