//! Table 2 — wire-cut vs wire+gate-cut comparison on the expectation-value
//! benchmarks (REG, ERD, BAR, IS/XY/HS and their next-nearest variants, VQE).
//!
//! Usage: `cargo run --release -p qrcc-bench --bin table2 [--large]`

use qrcc_bench::{
    average_reduction, cutqc_config, harness_config, print_header, table2_workloads, Scale,
};
use qrcc_core::planner::CutPlanner;

fn main() {
    let scale = Scale::from_args();
    print_header(
        "Table 2: W-Cut vs W-Cut+G-Cut (expectation-value benchmarks)",
        &[
            "Bench",
            "N",
            "D",
            "CutQC #cuts",
            "QRCC-C W-only #cuts",
            "QRCC-C W+G (#W/#G/#EffCuts)",
            "#MS",
        ],
    );
    let mut reductions_wire = Vec::new();
    let mut reductions_both = Vec::new();
    for (workload, device) in table2_workloads(scale) {
        let cutqc = CutPlanner::new(cutqc_config(device)).plan(&workload.circuit).ok();
        let wire_only =
            CutPlanner::new(harness_config(device, 1.0, false)).plan(&workload.circuit).ok();
        let both = CutPlanner::new(harness_config(device, 1.0, true)).plan(&workload.circuit).ok();
        let cutqc_cuts = cutqc
            .as_ref()
            .map(|p| p.wire_cut_count().to_string())
            .unwrap_or_else(|| "No Solution".into());
        let wire_cuts = wire_only
            .as_ref()
            .map(|p| p.wire_cut_count().to_string())
            .unwrap_or_else(|| "No Solution".into());
        let both_desc = both
            .as_ref()
            .map(|p| {
                format!(
                    "{}/{}/{:.2}",
                    p.wire_cut_count(),
                    p.gate_cut_count(),
                    p.metrics().effective_cuts()
                )
            })
            .unwrap_or_else(|| "No Solution".into());
        let ms =
            both.as_ref().map(|p| p.metrics().max_two_qubit_gates.to_string()).unwrap_or_default();
        println!(
            "{:<5} | {:>3} | {:>3} | {:>12} | {:>12} | {:>16} | {:>5}",
            workload.name, workload.n, device, cutqc_cuts, wire_cuts, both_desc, ms
        );
        if let (Some(base), Some(w)) = (&cutqc, &wire_only) {
            reductions_wire.push((base.wire_cut_count() as f64, w.wire_cut_count() as f64));
        }
        if let (Some(base), Some(b)) = (&cutqc, &both) {
            reductions_both.push((base.wire_cut_count() as f64, b.metrics().effective_cuts()));
        }
    }
    println!(
        "\nAverage effective-cut reduction vs CutQC: W-only {:.0}%  W+G {:.0}%  (paper: 41% / 44%)",
        100.0 * average_reduction(&reductions_wire),
        100.0 * average_reduction(&reductions_both),
    );
}
