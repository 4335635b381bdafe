//! Compiled kernels: inspect what the kernel compiler did to a cut
//! workload's variant batch — fusion ratio, specialization coverage, and
//! structural-hash cache reuse across deduplicated variants — and verify the
//! compiled path reproduces the interpreted one.
//!
//! Two distinct caches share the structural-hash key but sit at different
//! layers: the **kernel cache** shown here memoizes *compiled gate programs*
//! (how to simulate a circuit — reuse saves compilation, the shots still
//! run), while the **result cache** (`qrcc_core::cache`, see the
//! `remote_fleet` example) memoizes *executed distributions* (what a circuit
//! produced — reuse skips the device entirely).
//!
//! Run with: `cargo run --release --example compiled_kernels`

use qrcc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A fusion-friendly workload: dense single-qubit runs over one
    //    entangling chain, too wide for the 3-qubit device below.
    let n = 6;
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        let t = 0.1 + 0.05 * q as f64;
        circuit.h(q).rz(t, q).t(q).rx(1.3 * t, q);
    }
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    for q in 0..n {
        let t = 0.3 + 0.05 * q as f64;
        circuit.rz(t, q).h(q).t(q);
    }

    // 2. Plan the cut and execute on the default (compiled) exact backend.
    let pipeline = QrccPipeline::plan(&circuit, QrccConfig::new(3))?;
    let run = |backend: ExactBackend| {
        let mut registry = DeviceRegistry::new();
        registry.register("exact", backend);
        pipeline.execute_streaming(&Scheduler::new(&registry, SchedulePolicy::default()))
    };
    let (probabilities, _, schedule) = run(ExactBackend::new())?;

    // 3. The schedule report carries the compiler's telemetry.
    let stats = schedule.kernel_compile.as_ref().expect("compiled backend reports stats");
    println!("kernel compiler over the variant batch:\n{stats}");
    println!(
        "fusion ratio {:.2}x, coverage {:.1}%, {} compiled bodies shared across {} requests",
        stats.fusion_ratio(),
        100.0 * stats.coverage(),
        stats.cache_misses,
        stats.cache_hits + stats.cache_misses,
    );

    // 4. The interpreted opt-out produces the same distribution.
    let (probabilities_interp, _, _) = run(ExactBackend::interpreted())?;
    let max_gap = probabilities
        .iter()
        .zip(&probabilities_interp)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |compiled - interpreted| over reconstructed P = {max_gap:.2e}");
    assert!(max_gap < 1e-12);

    // 5. And both match direct simulation of the uncut circuit.
    let exact = StateVector::from_circuit(&circuit)?.probabilities();
    let max_error =
        probabilities.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("max |reconstructed - exact| = {max_error:.2e}");
    assert!(max_error < 1e-6);
    Ok(())
}
