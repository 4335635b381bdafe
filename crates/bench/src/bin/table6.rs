//! Table 6 — applying CutQC and qubit reuse *sequentially* (cut for an
//! X-qubit device, then compress each subcircuit with the CaQR-style reuse
//! pass) versus QRCC's integrated search.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin table6 [--large]`

use qrcc_bench::{cutqc_config, harness_config, print_header, Scale};
use qrcc_circuit::generators;
use qrcc_core::fragment::FragmentSet;
use qrcc_core::planner::CutPlanner;

fn main() {
    let scale = Scale::from_args();
    let (n, d) = if scale == Scale::Paper { (15, 7) } else { (10, 5) };
    let circuit = generators::qft(n);

    // QRCC integrated result.
    let qrcc = CutPlanner::new(harness_config(d, 1.0, false)).plan(&circuit).ok();
    match &qrcc {
        Some(plan) => println!(
            "QRCC (integrated): {} subcircuits, {} cuts, max width {}",
            plan.num_subcircuits(),
            plan.wire_cut_count(),
            plan.metrics().max_width()
        ),
        None => println!("QRCC (integrated): no solution for D={d}"),
    }

    print_header(
        &format!("Table 6: CutQC(X) + qubit reuse, target D={d}, QFT N={n}"),
        &["X (CutQC device)", "#SC", "#cuts", "width before reuse", "width after reuse", "fits D?"],
    );
    for x in (d + 1)..n {
        let plan = match CutPlanner::new(cutqc_config(x)).plan(&circuit) {
            Ok(plan) => plan,
            Err(_) => {
                println!(
                    "{:>16} | {:>4} | {:>5} | {:>18} | {:>17} | {:>7}",
                    x, "-", "-", "No Solution", "-", "-"
                );
                continue;
            }
        };
        // Sanity-check that the CutQC plan materialises into fragments, then
        // apply qubit reuse to each subcircuit: the reuse-aware width of the
        // same cut solution is exactly what the CaQR-style pass achieves.
        if let Ok(fragments) = FragmentSet::from_plan(&plan) {
            debug_assert_eq!(fragments.fragments.len(), plan.num_subcircuits());
        }
        let width_before = plan.metrics().max_width();
        let reuse_widths = plan.solution().subcircuit_widths(plan.dag(), true);
        let width_after = reuse_widths.iter().copied().max().unwrap_or(width_before);
        println!(
            "{:>16} | {:>4} | {:>5} | {:>18} | {:>17} | {:>7}",
            x,
            plan.num_subcircuits(),
            plan.wire_cut_count(),
            width_before,
            width_after,
            if width_after <= d { "yes" } else { "no" }
        );
    }
    println!(
        "\nPaper shape: sequential CutQC+reuse needs either far more cuts or still does not fit D;"
    );
    println!("the integrated QRCC search reaches D directly with fewer cuts.");
}
