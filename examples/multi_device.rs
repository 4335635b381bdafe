//! Multi-device scheduling walkthrough: run one cut plan across **two**
//! small devices with a single global shot budget, streaming chunked
//! partial results into incremental reconstruction.
//!
//! The pipeline is the enumerate → dedup → **schedule** → execute → fold
//! flow: the scheduler routes each deduplicated fragment circuit to a
//! compatible device (the 3-qubit fragments can only run on the larger
//! device, the narrow ones load-balance), splits the shot budget across the
//! batch by reconstruction-variance weight, and emits results chunk by
//! chunk so the fragment tensors fold while later chunks still execute.
//!
//! Run with: `cargo run --example multi_device`

use qrcc::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The workload: a 6-qubit entangled chain, too wide for either device.
    let mut circuit = Circuit::new(6);
    circuit.h(0);
    for q in 0..5 {
        circuit.cx(q, q + 1);
        circuit.ry(0.21 * (q as f64 + 1.0), q + 1);
    }
    println!("original circuit: {} qubits, {} gates", circuit.num_qubits(), circuit.gate_count());

    // 2. Plan a cut for a 3-qubit device budget.
    let config = QrccConfig::new(3)
        .with_subcircuit_range(2, 3)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config)?;
    println!(
        "plan: {} subcircuits, widths {:?}, {} wire cuts",
        pipeline.plan_ref().num_subcircuits(),
        pipeline.plan_ref().subcircuit_widths(),
        pipeline.plan_ref().wire_cut_count(),
    );

    // 3. Register two heterogeneous devices. Neither runs the whole batch
    //    alone: the 2-qubit device cannot host the 3-wide fragments, and
    //    sending everything to the 3-qubit device would leave half the
    //    hardware idle.
    let mut registry = DeviceRegistry::new();
    registry.register_device("lagos-ish (3q)", Device::new(DeviceConfig::ideal(3).with_seed(7)), 1);
    registry.register_device("small (2q)", Device::new(DeviceConfig::ideal(2).with_seed(13)), 1);

    // 4. One global budget, variance-weighted, streamed in chunks of 4.
    let policy = SchedulePolicy::with_budget(400_000).with_min_shots(64).with_chunk_size(4);
    let scheduler = Scheduler::new(&registry, policy);

    // 5. Execute + reconstruct in one streaming call: one worker thread per
    //    device executes while this thread's dispatch loop folds every
    //    finished chunk into the fragment tensors; only the final
    //    contraction happens after the last chunk lands.
    let (probabilities, reconstruction, schedule) = pipeline.execute_streaming(&scheduler)?;

    println!(
        "\nschedule: {} circuits in {} chunks, {} total shots ({:?} allocation)",
        schedule.circuits, schedule.chunks, schedule.total_shots, schedule.allocation
    );
    for usage in &schedule.backends {
        println!("  {:>14}: {} circuits, {} shots", usage.backend, usage.circuits, usage.shots);
    }
    println!(
        "reconstruction: {:?} strategy, {} contraction(s)",
        reconstruction.strategy, reconstruction.contractions
    );

    // 6. Compare against direct state-vector simulation.
    let exact = StateVector::from_circuit(&circuit)?.probabilities();
    let max_error =
        probabilities.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("max |reconstructed - exact| = {max_error:.2e} (shots-based)");
    assert!(max_error < 0.05);
    Ok(())
}
