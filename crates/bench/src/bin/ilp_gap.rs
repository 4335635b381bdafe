//! Heuristic vs proven optimum — a table the paper could not show (it reports
//! Gurobi-refined plans only). For each benchmark family at sizes the exact
//! ILP closes, the heuristic's plan beside the ILP's answer for the same
//! subcircuit count (δ = 1, wire cuts only, warm-started by the heuristic),
//! with the search effort it took. It says what the planner's default ILP
//! refinement buys over the heuristic alone.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin ilp_gap [--large]`

use qrcc_bench::{harness_config, print_header, Scale};
use qrcc_circuit::generators;
use qrcc_circuit::Circuit;
use qrcc_core::model::QrccModel;
use qrcc_core::planner::CutPlanner;
use qrcc_ilp::{solver, IlpError, SolverConfig};
use std::time::{Duration, Instant};

fn main() {
    let scale = Scale::from_args();
    let time_limit = Duration::from_secs(if scale == Scale::Paper { 60 } else { 10 });
    let mut cases: Vec<(&str, Circuit, usize)> = vec![
        ("SPM", generators::supremacy(2, 3, 3, 7), 4),
        ("SPM", generators::supremacy(2, 4, 3, 7), 5),
        ("QFT", generators::qft(5), 4),
        ("QFT", generators::qft(6), 4),
        ("ADD", generators::ripple_carry_adder(2, 1), 4),
        ("AQFT", generators::aqft(7, 3), 5),
        ("VQE", generators::vqe_two_local(8, 2, 3), 5),
        ("REG", generators::qaoa_regular(8, 3, 1, 2).0, 5),
    ];
    if scale == Scale::Paper {
        cases.extend([
            ("QFT", generators::qft(8), 5),
            ("ADD", generators::ripple_carry_adder(3, 1), 5),
            ("VQE", generators::vqe_two_local(10, 2, 1), 6),
        ]);
    }

    print_header(
        "Heuristic vs proven optimum (QRCC model, same subcircuit count)",
        &[
            "Bench",
            "N",
            "D",
            "#SC",
            "heuristic cuts",
            "ILP cuts",
            "ILP width",
            "ILP status",
            "nodes",
            "pivots",
            "time (s)",
        ],
    );
    let (mut closed, mut improved) = (0, 0);
    for (name, circuit, device) in &cases {
        let config = harness_config(*device, 1.0, false);
        let Ok(plan) = CutPlanner::new(config.clone()).plan(circuit) else {
            println!("{name:<5} | {:>3} | {device:>3} | no heuristic plan", circuit.num_qubits());
            continue;
        };
        let subcircuits = plan.num_subcircuits().max(2);
        let model = QrccModel::build(plan.dag(), &config, subcircuits);
        let warm = model.warm_start(plan.solution(), plan.dag());
        let start = Instant::now();
        let solved = solver::solve_with_warm_start(
            &model.ilp,
            &SolverConfig::with_time_limit(time_limit),
            Some(&warm),
        );
        let seconds = start.elapsed().as_secs_f64();
        let none = || ("-".to_string(), "-".to_string());
        let ((cuts, width), status, nodes, pivots) = match &solved {
            Ok(solution) => {
                // the reuse-aware width of the decoded plan, not the model's
                // own accounting
                let refined = model.extract(solution).metrics(plan.dag(), true);
                closed += usize::from(solution.is_optimal());
                improved += usize::from(
                    refined.wire_cuts < plan.wire_cut_count() && refined.max_width() <= *device,
                );
                let status = if solution.is_optimal() { "optimal" } else { "feasible" };
                (
                    (refined.wire_cuts.to_string(), refined.max_width().to_string()),
                    status,
                    solution.nodes_explored(),
                    solution.pivots(),
                )
            }
            Err(IlpError::Infeasible) => (none(), "infeasible", 0, 0),
            Err(_) => (none(), "none", 0, 0),
        };
        println!(
            "{name:<5} | {:>3} | {device:>3} | {subcircuits:>3} | {:>14} | {cuts:>8} | {width:>9} | {status:>10} | {nodes:>5} | {pivots:>6} | {seconds:>8.3}",
            circuit.num_qubits(),
            plan.wire_cut_count(),
        );
    }
    println!(
        "\nThe ILP proved its optimum on {closed} of {} rows, and on {improved} found a plan that fits\nthe device with fewer wire cuts than the heuristic's.",
        cases.len()
    );
}
