//! Figure 7 — average number of cuts as a function of the N/D ratio for
//! small, medium and large circuits.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin figure7 [--large]`

use qrcc_bench::{harness_config, print_header, Scale};
use qrcc_circuit::generators;
use qrcc_core::planner::CutPlanner;

fn main() {
    let scale = Scale::from_args();
    let sizes: Vec<(&str, usize)> = match scale {
        Scale::Small => vec![("small", 24), ("medium", 36), ("large", 48)],
        Scale::Paper => vec![("small", 50), ("medium", 80), ("large", 170)],
    };
    let ratios = [1.2, 1.4, 1.6, 1.8, 2.0];

    print_header(
        "Figure 7: average #cuts vs N/D ratio",
        &["circuit", "N", "N/D", "D", "avg #cuts (REG/BAR/ERD)"],
    );
    for (label, n) in sizes {
        for ratio in ratios {
            let d = ((n as f64 / ratio).round() as usize).max(2);
            let workloads = vec![
                generators::qaoa_regular(n, 3, 1, 1).0,
                generators::qaoa_barabasi_albert(n, 2, 1, 2).0,
                generators::qaoa_erdos_renyi(n, 3.0 / n as f64, 1, 3).0,
            ];
            let mut cuts = Vec::new();
            for circuit in workloads {
                if let Ok(plan) = CutPlanner::new(harness_config(d, 1.0, true)).plan(&circuit) {
                    cuts.push(plan.metrics().effective_cuts());
                }
            }
            let avg = if cuts.is_empty() {
                f64::NAN
            } else {
                cuts.iter().sum::<f64>() / cuts.len() as f64
            };
            println!("{:<7} | {:>4} | {:>4.1} | {:>4} | {:>8.1}", label, n, ratio, d, avg);
        }
    }
    println!("\nPaper shape: #cuts grow with the N/D ratio, faster for larger/denser circuits.");
}
