//! Figure 6 — post-processing overhead (log₂ #FP operations) versus the
//! number of cuts for the reconstruction strategies: FRP_32, FRP_48, ARP_2,
//! ARP_4, FRE, against the FSS (full-state simulation) threshold — plus a
//! measured dispatch demo: one scheduled multi-device run with its
//! per-backend routing stats and shots-spent accounting.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin figure6`

use qrcc_bench::print_header;
use qrcc_circuit::Circuit;
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::reconstruct::cost::{
    arp_log2_flops, fre_log2_flops, frp_log2_flops, fss_threshold_log2, max_tolerable_cuts,
};
use qrcc_core::schedule::{DeviceRegistry, Scheduler};
use qrcc_core::{QrccConfig, SchedulePolicy};
use qrcc_sim::device::{Device, DeviceConfig};
use std::time::Duration;

fn main() {
    print_header(
        "Figure 6: log2(#FP) of reconstruction vs number of cuts",
        &["#cuts", "FRP_32", "FRP_48", "ARP_2", "ARP_4", "FRE", "FSS threshold"],
    );
    let threshold = fss_threshold_log2();
    for cuts in (1..=49).step_by(4) {
        println!(
            "{:>5} | {:>7.1} | {:>7.1} | {:>6.1} | {:>6.1} | {:>5.1} | {:>12.1}",
            cuts,
            frp_log2_flops(32, cuts),
            frp_log2_flops(48, cuts),
            arp_log2_flops(48, cuts, 2),
            arp_log2_flops(48, cuts, 4),
            fre_log2_flops(cuts as f64),
            threshold
        );
    }
    // `max_tolerable_cuts` distinguishes "tolerates zero cuts" (Some(0))
    // from "intolerable even uncut" (None).
    let tolerated = |cuts: Option<usize>| match cuts {
        Some(c) => c.to_string(),
        None => "none (over threshold even uncut)".to_string(),
    };
    println!("\nMaximum #cuts tolerated before exceeding the FSS threshold:");
    println!("  FRP_48: {}", tolerated(max_tolerable_cuts(|c| frp_log2_flops(48, c), 128)));
    println!("  FRP_32: {}", tolerated(max_tolerable_cuts(|c| frp_log2_flops(32, c), 128)));
    println!("  ARP_2 : {}", tolerated(max_tolerable_cuts(|c| arp_log2_flops(48, c, 2), 128)));
    println!("  ARP_4 : {}", tolerated(max_tolerable_cuts(|c| arp_log2_flops(48, c, 4), 128)));
    println!("  FRE   : {}", tolerated(max_tolerable_cuts(|c| fre_log2_flops(c as f64), 128)));
    println!("\nPaper shape: FRE ≫ ARP-4 > ARP-2 > FRP in cut tolerance; FRP_48 ≈ 16 cuts, FRE ≈ 40 cuts.");

    scheduled_dispatch_demo();
}

/// Post-processing cost is only half the overhead story at scale — dispatch
/// is the other (see the scalability study in PAPERS.md). Run one scheduled
/// multi-device batch and print where the circuits and shots actually went.
fn scheduled_dispatch_demo() {
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
    let pipeline = QrccPipeline::plan(&circuit, config).expect("plan");
    let mut registry = DeviceRegistry::new();
    registry.register_device("dev3", Device::new(DeviceConfig::ideal(3).with_seed(7)), 1);
    registry.register_device("dev2", Device::new(DeviceConfig::ideal(2).with_seed(13)), 1);
    let policy = SchedulePolicy::with_budget(100_000).with_min_shots(64).with_chunk_size(4);
    let scheduler = Scheduler::new(&registry, policy);
    let (_, reconstruction, report) = pipeline.execute_streaming(&scheduler).expect("schedule");

    println!(
        "\nScheduled dispatch demo (6q chain on 3q+2q devices, {} shot budget, {:?} allocation):",
        report.total_shots, report.allocation
    );
    println!("  {} circuits in {} chunks after dedup", report.circuits, report.chunks);
    for usage in &report.backends {
        println!(
            "  {:>6}: {:>3} circuits, {:>6} shots",
            usage.backend, usage.circuits, usage.shots
        );
    }
    println!(
        "  reconstruction consumed {} shots across {} backends ({:?} strategy)",
        report.total_shots,
        report.backends.len(),
        reconstruction.strategy
    );
}
