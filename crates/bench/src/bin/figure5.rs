//! Figure 5 — sweeping the δ meta-parameter: normalized cut count (left
//! axis of the paper's figure) and normalized #MS (right axis) as δ moves
//! priority between post-processing cost and fidelity balancing.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin figure5 [--large]`

use qrcc_bench::{harness_config, print_header, table2_workloads, Scale};
use qrcc_core::planner::CutPlanner;

fn main() {
    let scale = Scale::from_args();
    // A subset of the expectation benchmarks keeps the sweep fast; --large
    // uses all of them.
    let workloads = {
        let mut w = table2_workloads(scale);
        if scale == Scale::Small {
            w.truncate(4);
        }
        w
    };

    let deltas: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    print_header(
        "Figure 5: δ sweep (values averaged over benchmarks)",
        &[
            "delta",
            "avg #EffCuts",
            "normalized cuts (vs δ=1)",
            "avg #MS",
            "normalized #MS (vs circuit)",
        ],
    );

    // Reference values at δ = 1 for the normalisation.
    let mut rows = Vec::new();
    for &delta in &deltas {
        let mut cut_sum = 0.0;
        let mut ms_sum = 0.0;
        let mut ms_fraction_sum = 0.0;
        let mut count = 0.0;
        for (workload, device) in &workloads {
            let config = harness_config(*device, delta, true);
            if let Ok(plan) = CutPlanner::new(config).plan(&workload.circuit) {
                cut_sum += plan.metrics().effective_cuts();
                ms_sum += plan.metrics().max_two_qubit_gates as f64;
                ms_fraction_sum += plan.metrics().max_two_qubit_gates as f64
                    / workload.circuit.two_qubit_gate_count().max(1) as f64;
                count += 1.0;
            }
        }
        if count > 0.0 {
            rows.push((delta, cut_sum / count, ms_sum / count, ms_fraction_sum / count));
        }
    }
    let reference_cuts = rows.last().map(|r| r.1).unwrap_or(1.0).max(1e-9);
    for (delta, cuts, ms, ms_fraction) in rows {
        println!(
            "{:>5.1} | {:>12.2} | {:>24.2} | {:>7.1} | {:>27.2}",
            delta,
            cuts,
            cuts / reference_cuts,
            ms,
            ms_fraction
        );
    }
    println!(
        "\nPaper shape: cuts decrease and #MS increases as δ grows; cuts stabilise for δ > 0.5."
    );
}
