//! Pre-flight lint gate: analyze every paper benchmark family — circuit,
//! cut plan, and fleet pairing — in **deny-warnings** mode and exit
//! non-zero on any finding, exactly like `cargo clippy -- -D warnings`
//! for circuits. CI runs this as its `lint-gate` step.
//!
//! Also demonstrates what the diagnostics look like when something *is*
//! wrong: the same plans checked against a deliberately hostile fleet.
//!
//! Run with: `cargo run --example lint_plan`

use qrcc::prelude::*;
use std::time::Duration;

fn benchmarks() -> Vec<(&'static str, Circuit)> {
    use generators::HamiltonianKind;
    vec![
        ("QFT", generators::qft(6)),
        ("AQFT", generators::aqft(6, 3)),
        ("SPM", generators::supremacy(2, 3, 4, 7)),
        ("ADD", generators::ripple_carry_adder(2, 7)),
        ("REG", generators::qaoa_regular(6, 3, 1, 7).0),
        (
            "IS",
            generators::hamiltonian_simulation(
                HamiltonianKind::TransverseFieldIsing,
                2,
                3,
                false,
                1,
                0.1,
            )
            .0,
        ),
        ("VQE", generators::vqe_two_local(6, 1, 7)),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // a fleet that genuinely fits the plans: one wide exact device, one
    // narrower one (the scheduler will route fragments to either)
    let mut fleet = DeviceRegistry::new();
    fleet.register("big", ExactBackend::new());
    fleet.register("small", ExactBackend::capped(4));
    let scheduler = Scheduler::new(&fleet, SchedulePolicy::default());

    // 1. The gate: every benchmark family must analyze clean at Deny level
    //    (warnings are failures), before any backend is touched.
    let mut failures = 0usize;
    for (name, circuit) in benchmarks() {
        let config =
            QrccConfig::new(4).with_ilp_time_limit(Duration::ZERO).with_lint_level(LintLevel::Deny);
        let pipeline = QrccPipeline::plan(&circuit, config)?;
        match pipeline.preflight(&scheduler) {
            Ok(report) => {
                println!(
                    "{name:>5}: clean ({} notes, {} fragments)",
                    report.notes(),
                    pipeline.fragments().fragments.len()
                );
            }
            Err(error) => {
                failures += 1;
                println!("{name:>5}: FAILED the lint gate");
                println!("{}", pipeline.analyze_with_fleet(&scheduler));
                println!("  -> {error}");
            }
        }
    }

    // 2. The demonstration: the same workload against a 1-qubit fleet shows
    //    the diagnostics a failing pre-flight produces (QL0301: no backend
    //    can place the fragments). This is expected to fail — it is display
    //    only and does not affect the gate's exit status.
    let mut tiny = DeviceRegistry::new();
    tiny.register("tiny", ExactBackend::capped(1));
    let mut chain = Circuit::new(6);
    chain.h(0);
    for q in 0..5 {
        chain.cx(q, q + 1);
    }
    let pipeline = QrccPipeline::plan(&chain, QrccConfig::new(3))?;
    println!("\nwhat a failing pre-flight looks like (6-qubit chain, 1-qubit fleet):");
    println!("{}", pipeline.analyze_with_fleet(&Scheduler::new(&tiny, SchedulePolicy::default())));

    if failures > 0 {
        eprintln!("lint gate: {failures} benchmark(s) failed pre-flight analysis");
        std::process::exit(1);
    }
    println!("\nlint gate: all benchmarks clean at deny-warnings level");
    Ok(())
}
