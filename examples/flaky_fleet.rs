//! Fault-tolerant dispatch walkthrough: a three-device fleet where one
//! device drops jobs mid-run.
//!
//! The async dispatcher routes each deduplicated fragment circuit across the
//! fleet, streams chunks under a bounded in-flight window (a slow consumer
//! would throttle dispatch), and — when the flaky device rejects a job —
//! re-routes the failed circuits to a compatible healthy device with the
//! failer excluded. Shot accounting stays exact (every allocated shot is
//! spent exactly once, on the device where the circuit finally ran), and the
//! whole lifecycle is visible in the schedule and reconstruction reports.
//!
//! Run with: `cargo run --example flaky_fleet`

use qrcc::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The workload: a 6-qubit entangled chain, too wide for any device.
    let mut circuit = Circuit::new(6);
    circuit.h(0);
    for q in 0..5 {
        circuit.cx(q, q + 1);
        circuit.ry(0.21 * (q as f64 + 1.0), q + 1);
    }
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

    // 2. The fleet: "unstable" persistently drops a seeded ~40% of its
    //    circuits (think a miscalibrated device rejecting a job class), the
    //    other two are healthy. Only re-routing can save the dropped jobs.
    let mut registry = DeviceRegistry::new();
    registry.register(
        "unstable (3q)",
        FlakyBackend::persistent(
            ShotsBackend::new(Device::new(DeviceConfig::ideal(3).with_seed(7)), 1),
            13,
            0.4,
        ),
    );
    registry.register_device("steady (3q)", Device::new(DeviceConfig::ideal(3).with_seed(11)), 1);
    registry.register_device("small (2q)", Device::new(DeviceConfig::ideal(2).with_seed(17)), 1);

    // 3. One global budget, streamed in chunks of 4 with at most 2 chunks in
    //    flight (the dispatcher never runs further ahead of reconstruction)
    //    and up to 3 retries per circuit.
    let policy = SchedulePolicy::with_budget(400_000)
        .with_min_shots(64)
        .with_chunk_size(4)
        .with_max_in_flight_chunks(2)
        .with_max_retries(3);
    let scheduler = Scheduler::new(&registry, policy);

    // 4. Execute + reconstruct in one streaming call: the dispatcher drives
    //    the fleet on worker threads while this thread folds every delivered
    //    chunk into the fragment tensors.
    let (probabilities, reconstruction, schedule) = pipeline.execute_streaming(&scheduler)?;

    println!(
        "\nschedule: {} circuits in {} chunks, {} total shots ({:?} allocation)",
        schedule.circuits, schedule.chunks, schedule.total_shots, schedule.allocation
    );
    for usage in &schedule.backends {
        println!(
            "  {:>14}: {:>2} circuits, {:>6} shots, {:>2} failures, {:>2} rescued retries",
            usage.backend, usage.circuits, usage.shots, usage.failures, usage.retries
        );
    }
    let d = &schedule.dispatch;
    println!(
        "dispatch: {} jobs dispatched, {} completed clean, {} retried ({} requeued), \
         max {} chunk(s) in flight",
        d.jobs_dispatched,
        d.jobs_completed,
        d.jobs_retried,
        d.jobs_requeued,
        d.max_in_flight_chunks
    );
    println!(
        "timings: queue wait {:.1?}, backend execution {:.1?}, consumer delivery {:.1?}",
        d.queue_wait, d.execute_wall, d.deliver_wall
    );
    let rescued: u64 = schedule.backends.iter().map(|usage| usage.retries).sum();
    println!(
        "reconstruction: {:?} strategy, {} dispatch failures / {} retries absorbed",
        reconstruction.strategy, d.failures, rescued
    );

    // 5. The dropped jobs were re-routed, the budget was spent exactly, and
    //    the reconstruction still matches the state vector.
    assert!(d.failures > 0, "the unstable device must have dropped work");
    assert!(rescued > 0, "dropped circuits must have been rescued");
    assert_eq!(schedule.total_shots, 400_000, "every allocated shot spent exactly once");
    let exact = StateVector::from_circuit(&circuit)?.probabilities();
    let max_error =
        probabilities.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("max |reconstructed - exact| = {max_error:.2e} (shots-based)");
    assert!(max_error < 0.05);
    Ok(())
}
