//! Table 5 — scalability vs circuit size and connectivity: cut counts for
//! large QAOA-style circuits as the interaction graph gets denser.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin table5 [--large]`

use qrcc_bench::{cutqc_config, harness_config, print_header, Scale};
use qrcc_circuit::generators;
use qrcc_core::planner::CutPlanner;

fn main() {
    let scale = Scale::from_args();
    let cases: Vec<(String, usize, usize, qrcc_circuit::Circuit)> = match scale {
        Scale::Small => vec![
            ("REG (m=3)".into(), 40, 30, generators::qaoa_regular(40, 3, 1, 1).0),
            ("REG (m=3)".into(), 60, 40, generators::qaoa_regular(60, 3, 1, 1).0),
            ("REG (m=4)".into(), 40, 30, generators::qaoa_regular(40, 4, 1, 2).0),
            ("REG (m=4)".into(), 60, 40, generators::qaoa_regular(60, 4, 1, 2).0),
            ("BAR (m=4)".into(), 40, 30, generators::qaoa_barabasi_albert(40, 4, 1, 3).0),
            ("BAR (m=2)".into(), 60, 40, generators::qaoa_barabasi_albert(60, 2, 1, 3).0),
            ("ERD (p=0.1)".into(), 40, 30, generators::qaoa_erdos_renyi(40, 0.1, 1, 4).0),
            ("ERD (p=0.05)".into(), 60, 40, generators::qaoa_erdos_renyi(60, 0.05, 1, 4).0),
        ],
        Scale::Paper => vec![
            ("REG (m=3)".into(), 200, 150, generators::qaoa_regular(200, 3, 1, 1).0),
            ("REG (m=3)".into(), 300, 200, generators::qaoa_regular(300, 3, 1, 1).0),
            ("REG (m=4)".into(), 200, 150, generators::qaoa_regular(200, 4, 1, 2).0),
            ("REG (m=4)".into(), 300, 200, generators::qaoa_regular(300, 4, 1, 2).0),
            ("BAR (m=4)".into(), 200, 150, generators::qaoa_barabasi_albert(200, 4, 1, 3).0),
            ("BAR (m=2)".into(), 300, 200, generators::qaoa_barabasi_albert(300, 2, 1, 3).0),
            ("ERD (p=0.05)".into(), 200, 150, generators::qaoa_erdos_renyi(200, 0.05, 1, 4).0),
            ("ERD (p=0.02)".into(), 300, 200, generators::qaoa_erdos_renyi(300, 0.02, 1, 4).0),
        ],
    };

    print_header(
        "Table 5: scalability vs circuit connectivity",
        &["Bench", "N", "D", "QRCC #W-Cuts", "QRCC #G-Cuts", "CutQC #W-Cuts"],
    );
    for (name, n, d, circuit) in cases {
        let qrcc = CutPlanner::new(harness_config(d, 1.0, true)).plan(&circuit).ok();
        let cutqc = CutPlanner::new(cutqc_config(d)).plan(&circuit).ok();
        println!(
            "{:<12} | {:>3} | {:>3} | {:>12} | {:>12} | {:>13}",
            name,
            n,
            d,
            qrcc.as_ref()
                .map(|p| p.wire_cut_count().to_string())
                .unwrap_or_else(|| "No Solution".into()),
            qrcc.as_ref().map(|p| p.gate_cut_count().to_string()).unwrap_or_default(),
            cutqc
                .as_ref()
                .map(|p| p.wire_cut_count().to_string())
                .unwrap_or_else(|| "No Solution".into()),
        );
    }
    println!("\nPaper shape: denser graphs (larger m / p) need roughly proportionally more cuts;");
    println!("QRCC keeps finding solutions where the no-reuse baseline starts failing.");
}
