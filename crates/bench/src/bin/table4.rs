//! Table 4 — search-time comparison of the two width models of the one QRCC
//! ILP model: reuse-aware live-wire capacity (QRCC, paper Eq. (11)) against
//! CutQC's one-qubit-per-segment capacity ([`QrccConfig::cutqc`]), both
//! solved with the workspace's own branch-and-bound solver (the paper uses
//! Gurobi; see DESIGN.md).
//!
//! Both models are given the same number of subcircuits and the same time
//! budget; the row reports the decoded plan's wire cuts and the wall-clock
//! time, or `none` when the solve ended without a feasible assignment
//! (proven infeasible, or out of time). The binary exits non-zero when a
//! decoded plan does not fit the device under the width model its model was
//! built for.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin table4 [--large]`

use qrcc_bench::{print_header, Scale};
use qrcc_circuit::dag::CircuitDag;
use qrcc_circuit::generators;
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
        "Table 4: model solve time, QRCC ILP vs its CutQC (no-reuse) capacity",
        &[
            "Bench",
            "N",
            "D",
            "CutQC cuts",
            "CutQC time (s)",
            "QRCC cuts",
            "QRCC time (s)",
            "Improvement",
        ],
    );
    let mut misfits = Vec::new();
    for (name, circuit, device, num_subcircuits) in cases {
        let dag = CircuitDag::from_circuit(&circuit);
        let mut solve = |config: QrccConfig| {
            let solved = solve_qrcc_model(&dag, &config, num_subcircuits, time_limit)?;
            let widths = solved.0.subcircuit_widths(&dag, config.qubit_reuse_enabled);
            if widths.iter().any(|&w| w > device) {
                let model = if config.qubit_reuse_enabled { "QRCC" } else { "CutQC" };
                misfits.push(format!(
                    "{name}-{} on D={device}, {model}: widths {widths:?}",
                    dag.num_qubits()
                ));
            }
            Some((solved.0.wire_cuts(&dag).len(), solved.2.as_secs_f64()))
        };
        let cutqc = solve(QrccConfig::cutqc(device));
        let qrcc = solve(QrccConfig::new(device));
        let improvement = match (cutqc, qrcc) {
            (Some((_, c)), Some((_, q))) if c > 0.0 => format!("{:.0}%", 100.0 * (c - q) / c),
            _ => "-".to_string(),
        };
        let cells = |solved: Option<(usize, f64)>| match solved {
            Some((cuts, seconds)) => (cuts.to_string(), format!("{seconds:.2}")),
            None => ("none".to_string(), "none".to_string()),
        };
        let ((cutqc_cuts, cutqc_time), (qrcc_cuts, qrcc_time)) = (cells(cutqc), cells(qrcc));
        println!(
            "{:<5} | {:>3} | {:>3} | {:>10} | {:>14} | {:>9} | {:>13} | {:>10}",
            name,
            circuit.num_qubits(),
            device,
            cutqc_cuts,
            cutqc_time,
            qrcc_cuts,
            qrcc_time,
            improvement
        );
    }
    println!("\nPaper shape: the linear QRCC model solves faster than the CutQC-style model.");
    if !misfits.is_empty() {
        eprintln!("decoded plans that do not fit the device:\n  {}", misfits.join("\n  "));
        std::process::exit(1);
    }
}
