//! Shared harness utilities for regenerating the paper's tables and figures.
//!
//! Each table/figure has a dedicated binary in `src/bin/` (`table1` …
//! `table6`, `figure5` … `figure7`). All binaries accept `--large` to run at
//! the paper's original problem sizes. The heuristic cut search plans those in
//! milliseconds; what is slow without a commercial ILP solver is whatever
//! solves the exact model — `table4` and `ilp_gap`, and the ILP refinement the
//! default configuration runs on plans of up to 600 node × subcircuit pairs
//! ([`harness_config`] switches it off, for QRCC and for the CutQC baseline of
//! [`cutqc_config`] alike). The default sizes are scaled down, exercising
//! identical code paths.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use qrcc_circuit::generators::{self, HamiltonianKind};
use qrcc_circuit::graph::Graph;
use qrcc_circuit::observable::PauliObservable;
use qrcc_circuit::Circuit;
use qrcc_core::planner::{CutPlan, CutPlanner};
use qrcc_core::{CoreError, CutMetrics, QrccConfig};
use std::time::Duration;

/// Problem-size selection for the harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down sizes (default): identical code paths, laptop-friendly.
    Small,
    /// The paper's original sizes (pass `--large`).
    Paper,
}

impl Scale {
    /// Parses the scale from command-line arguments (`--large` selects
    /// [`Scale::Paper`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--large") {
            Scale::Paper
        } else {
            Scale::Small
        }
    }
}

/// A named workload instance: the circuit, its benchmark label, and the
/// expectation observable when the benchmark computes one.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper-style benchmark label (e.g. `QFT`, `REG`).
    pub name: String,
    /// Number of qubits.
    pub n: usize,
    /// The circuit.
    pub circuit: Circuit,
    /// The observable for expectation-value benchmarks (`None` for
    /// probability-distribution benchmarks).
    pub observable: Option<PauliObservable>,
    /// The interaction graph if the workload is graph-based.
    pub graph: Option<Graph>,
}

impl Workload {
    fn new(name: impl Into<String>, circuit: Circuit) -> Self {
        let n = circuit.num_qubits();
        Workload { name: name.into(), n, circuit, observable: None, graph: None }
    }

    fn with_observable(mut self, observable: PauliObservable) -> Self {
        self.observable = Some(observable);
        self
    }

    fn with_graph(mut self, graph: Graph) -> Self {
        self.graph = Some(graph);
        self
    }
}

/// The probability-distribution workloads of Table 1 with their device sizes.
pub fn table1_workloads(scale: Scale) -> Vec<(Workload, usize)> {
    match scale {
        Scale::Small => vec![
            (Workload::new("QFT", generators::qft(10)), 6),
            (Workload::new("QFT", generators::qft(12)), 8),
            (Workload::new("SPM", generators::supremacy(3, 4, 6, 7)), 7),
            (Workload::new("SPM", generators::supremacy(3, 5, 6, 7)), 8),
            (Workload::new("ADD", generators::ripple_carry_adder(5, 1)), 7),
            (Workload::new("ADD", generators::ripple_carry_adder(6, 1)), 8),
            (Workload::new("AQFT", generators::aqft(12, 4)), 7),
            (Workload::new("AQFT", generators::aqft(14, 4)), 8),
        ],
        Scale::Paper => vec![
            (Workload::new("QFT", generators::qft(15)), 7),
            (Workload::new("QFT", generators::qft(15)), 9),
            (Workload::new("QFT", generators::qft(30)), 16),
            (Workload::new("QFT", generators::qft(30)), 24),
            (Workload::new("SPM", generators::supremacy(3, 5, 8, 7)), 7),
            (Workload::new("SPM", generators::supremacy(4, 5, 8, 7)), 7),
            (Workload::new("SPM", generators::supremacy(5, 6, 8, 7)), 16),
            (Workload::new("ADD", generators::ripple_carry_adder(7, 1)), 7),
            (Workload::new("ADD", generators::ripple_carry_adder(10, 1)), 7),
            (Workload::new("ADD", generators::ripple_carry_adder(14, 1)), 16),
            (Workload::new("AQFT", generators::aqft(15, 5)), 7),
            (Workload::new("AQFT", generators::aqft(20, 5)), 7),
            (Workload::new("AQFT", generators::aqft(30, 5)), 16),
        ],
    }
}

/// The expectation-value workloads of Table 2 with their device sizes.
pub fn table2_workloads(scale: Scale) -> Vec<(Workload, usize)> {
    let (n_small, d_small) = (12, 8);
    let qaoa_layers = 1;
    let mut result = Vec::new();
    match scale {
        Scale::Small => {
            let (c, g) = generators::qaoa_regular(n_small, 3, qaoa_layers, 1);
            result.push((
                Workload::new("REG", c).with_observable(PauliObservable::maxcut(&g)).with_graph(g),
                d_small,
            ));
            let (c, g) = generators::qaoa_erdos_renyi(n_small, 0.25, qaoa_layers, 2);
            result.push((
                Workload::new("ERD", c).with_observable(PauliObservable::maxcut(&g)).with_graph(g),
                d_small,
            ));
            let (c, g) = generators::qaoa_barabasi_albert(n_small, 2, qaoa_layers, 3);
            result.push((
                Workload::new("BAR", c).with_observable(PauliObservable::maxcut(&g)).with_graph(g),
                d_small,
            ));
            for (kind, name) in [
                (HamiltonianKind::TransverseFieldIsing, "IS"),
                (HamiltonianKind::Xy, "XY"),
                (HamiltonianKind::Heisenberg, "HS"),
            ] {
                let (c, g) = generators::hamiltonian_simulation(kind, 3, 4, false, 1, 0.1);
                result.push((
                    Workload::new(name, c)
                        .with_observable(PauliObservable::ising(&g, 1.0, 0.5))
                        .with_graph(g),
                    d_small,
                ));
                let (c, g) = generators::hamiltonian_simulation(kind, 3, 4, true, 1, 0.1);
                result.push((
                    Workload::new(format!("{name}-n"), c)
                        .with_observable(PauliObservable::ising(&g, 1.0, 0.5))
                        .with_graph(g),
                    d_small,
                ));
            }
            let c = generators::vqe_two_local(n_small, 2, 4);
            result.push((
                Workload::new("VQE", c).with_observable(PauliObservable::all_z(n_small)),
                d_small,
            ));
        }
        Scale::Paper => {
            for (n, d) in [(40, 27), (50, 27)] {
                let (c, g) = generators::qaoa_regular(n, 5, qaoa_layers, 1);
                result.push((
                    Workload::new("REG", c)
                        .with_observable(PauliObservable::maxcut(&g))
                        .with_graph(g),
                    d,
                ));
                let (c, g) = generators::qaoa_erdos_renyi(n, 0.1, qaoa_layers, 2);
                result.push((
                    Workload::new("ERD", c)
                        .with_observable(PauliObservable::maxcut(&g))
                        .with_graph(g),
                    d,
                ));
                let (c, g) = generators::qaoa_barabasi_albert(n, 3, qaoa_layers, 3);
                result.push((
                    Workload::new("BAR", c)
                        .with_observable(PauliObservable::maxcut(&g))
                        .with_graph(g),
                    d,
                ));
            }
            for (kind, name, rows, cols) in [
                (HamiltonianKind::TransverseFieldIsing, "IS", 6, 6),
                (HamiltonianKind::Xy, "XY", 6, 6),
                (HamiltonianKind::Heisenberg, "HS", 6, 6),
                (HamiltonianKind::TransverseFieldIsing, "IS-n", 6, 6),
                (HamiltonianKind::Xy, "XY-n", 6, 7),
                (HamiltonianKind::Heisenberg, "HS-n", 6, 7),
            ] {
                let next_nearest = name.ends_with("-n");
                let (c, g) =
                    generators::hamiltonian_simulation(kind, rows, cols, next_nearest, 1, 0.1);
                result.push((
                    Workload::new(name, c)
                        .with_observable(PauliObservable::ising(&g, 1.0, 0.5))
                        .with_graph(g),
                    27,
                ));
            }
            for n in [42, 50] {
                let c = generators::vqe_two_local(n, 2, 4);
                result
                    .push((Workload::new("VQE", c).with_observable(PauliObservable::all_z(n)), 27));
            }
        }
    }
    result
}

/// One comparison row: the metrics of each scheme (`None` = no solution).
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark label.
    pub name: String,
    /// Circuit size `N`.
    pub n: usize,
    /// Device size `D`.
    pub d: usize,
    /// CutQC baseline result.
    pub cutqc: Option<CutMetrics>,
    /// QRCC-C (δ = 1) result.
    pub qrcc_c: Option<CutMetrics>,
    /// QRCC-B (δ = 0.7) result.
    pub qrcc_b: Option<CutMetrics>,
}

/// Planner configuration shared by the harness: heuristic-only (the exact ILP
/// refinement is disabled by default so large workloads stay tractable).
pub fn harness_config(device: usize, delta: f64, gate_cuts: bool) -> QrccConfig {
    QrccConfig::new(device)
        .with_delta(delta)
        .with_gate_cuts(gate_cuts)
        .with_ilp_time_limit(Duration::ZERO)
}

/// The CutQC baseline ([`QrccConfig::cutqc`]: wire cuts only, no qubit
/// reuse) under the same planner budget [`harness_config`] gives QRCC.
pub fn cutqc_config(device: usize) -> QrccConfig {
    harness_config(device, 1.0, false).with_qubit_reuse(false)
}

/// Runs the three planners of Table 1 / Table 2 on one workload.
pub fn compare_planners(workload: &Workload, device: usize, gate_cuts: bool) -> ComparisonRow {
    let plan_metrics = |plan: Result<CutPlan, CoreError>| plan.ok().map(|p| p.metrics().clone());
    let cutqc = plan_metrics(CutPlanner::new(cutqc_config(device)).plan(&workload.circuit));
    let qrcc_c = plan_metrics(
        CutPlanner::new(harness_config(device, 1.0, gate_cuts)).plan(&workload.circuit),
    );
    let qrcc_b = plan_metrics(
        CutPlanner::new(harness_config(device, 0.7, gate_cuts)).plan(&workload.circuit),
    );
    ComparisonRow { name: workload.name.clone(), n: workload.n, d: device, cutqc, qrcc_c, qrcc_b }
}

/// Formats one scheme's metrics as `#SC / #cuts / #MS` (or `No Solution`).
pub fn format_metrics(metrics: &Option<CutMetrics>) -> String {
    match metrics {
        None => "No Solution".to_string(),
        Some(m) => format!(
            "{:>3} {:>6} {:>5}",
            m.num_subcircuits,
            if m.gate_cuts > 0 {
                format!("{:.2}", m.effective_cuts())
            } else {
                format!("{}", m.wire_cuts)
            },
            m.max_two_qubit_gates
        ),
    }
}

/// Prints a markdown-ish table header used by the table binaries.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join(" | "));
    println!("{}", vec!["---"; columns.len()].join(" | "));
}

/// Geometric-mean helper used for "average reduction" summaries.
pub fn average_reduction(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f64 = pairs
        .iter()
        .filter(|(base, _)| *base > 0.0)
        .map(|(base, improved)| (base - improved) / base)
        .sum();
    total / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_lists_are_nonempty_and_labelled() {
        let t1 = table1_workloads(Scale::Small);
        assert!(t1.len() >= 6);
        assert!(t1.iter().all(|(w, d)| w.n > *d));
        let t2 = table2_workloads(Scale::Small);
        assert!(t2.len() >= 8);
        assert!(t2.iter().all(|(w, _)| w.observable.is_some()));
    }

    #[test]
    fn comparison_row_runs_on_a_small_workload() {
        let workload = Workload::new("ADD", generators::ripple_carry_adder(3, 1));
        let row = compare_planners(&workload, 5, false);
        assert!(row.qrcc_c.is_some());
        let m = row.qrcc_c.unwrap();
        assert!(m.subcircuit_widths.iter().all(|&w| w <= 5));
    }

    #[test]
    fn average_reduction_is_a_fraction() {
        let r = average_reduction(&[(10.0, 5.0), (20.0, 20.0)]);
        assert!((r - 0.25).abs() < 1e-12);
        assert_eq!(average_reduction(&[]), 0.0);
    }

    #[test]
    fn format_metrics_handles_missing_solutions() {
        assert_eq!(format_metrics(&None), "No Solution");
    }
}
