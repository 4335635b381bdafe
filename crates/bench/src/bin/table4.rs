//! Table 4 — search-time comparison between the QRCC ILP model and the
//! CutQC-style MIP model, both solved with the workspace's own
//! branch-and-bound solver (the paper uses Gurobi; see DESIGN.md).
//!
//! Both models are given the same number of subcircuits and the same time
//! budget; the row reports wall-clock time, or `none` when the solve ended
//! without a feasible assignment (proven infeasible, or out of time).
//!
//! Usage: `cargo run --release -p qrcc-bench --bin table4 [--large]`

use qrcc_bench::{print_header, Scale};
use qrcc_circuit::dag::CircuitDag;
use qrcc_circuit::generators;
use qrcc_core::cutqc::solve_cutqc_model;
use qrcc_core::model::solve_qrcc_model;
use qrcc_core::QrccConfig;
use std::time::Duration;

fn main() {
    let scale = Scale::from_args();
    let time_limit = Duration::from_secs(if scale == Scale::Paper { 120 } else { 20 });
    let cases: Vec<(&str, qrcc_circuit::Circuit, usize, usize)> = match scale {
        Scale::Small => vec![
            ("SPM", generators::supremacy(2, 3, 3, 7), 4, 2),
            ("SPM", generators::supremacy(2, 4, 3, 7), 5, 2),
            ("QFT", generators::qft(5), 4, 2),
            ("QFT", generators::qft(6), 5, 2),
            ("ADD", generators::ripple_carry_adder(2, 1), 4, 2),
            ("AQFT", generators::aqft(7, 3), 5, 2),
        ],
        Scale::Paper => vec![
            ("SPM", generators::supremacy(3, 5, 8, 7), 7, 3),
            ("QFT", generators::qft(15), 9, 2),
            ("ADD", generators::ripple_carry_adder(7, 1), 7, 4),
            ("AQFT", generators::aqft(15, 5), 7, 4),
        ],
    };

    print_header(
        "Table 4: model solve time, QRCC ILP vs CutQC-style MIP",
        &["Bench", "N", "D", "CutQC time (s)", "QRCC time (s)", "Improvement"],
    );
    for (name, circuit, device, num_subcircuits) in cases {
        let dag = CircuitDag::from_circuit(&circuit);
        let config = QrccConfig::new(device);
        let qrcc = solve_qrcc_model(&dag, &config, num_subcircuits, time_limit);
        let cutqc = solve_cutqc_model(&dag, device, num_subcircuits, time_limit);
        let qrcc_time = qrcc.as_ref().map(|(_, _, t)| t.as_secs_f64());
        let cutqc_time = cutqc.as_ref().map(|(_, _, t)| t.as_secs_f64());
        let improvement = match (cutqc_time, qrcc_time) {
            (Some(c), Some(q)) if c > 0.0 => format!("{:.0}%", 100.0 * (c - q) / c),
            _ => "-".to_string(),
        };
        println!(
            "{:<5} | {:>3} | {:>3} | {:>14} | {:>13} | {:>10}",
            name,
            circuit.num_qubits(),
            device,
            cutqc_time.map(|t| format!("{t:.2}")).unwrap_or_else(|| "none".into()),
            qrcc_time.map(|t| format!("{t:.2}")).unwrap_or_else(|| "none".into()),
            improvement
        );
    }
    println!("\nPaper shape: the linear QRCC model solves faster than the CutQC-style model.");
}
