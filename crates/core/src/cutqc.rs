//! CutQC-style baseline planner: wire cuts only, no qubit reuse.
//!
//! The baseline reproduces the width model of CutQC (Tang et al., ASPLOS'21):
//! every wire segment of a subcircuit occupies its own physical qubit for the
//! whole execution — the measurement side keeps the original qubit and the
//! initialisation side adds a fresh "initialization qubit" per cut — and
//! mid-circuit measurement/reset is not exploited. Comparing
//! [`CutQcPlanner`] against [`CutPlanner`](crate::planner::CutPlanner) is what
//! Tables 1, 2 and 6 of the paper do.
//!
//! Baseline plans produce ordinary [`FragmentSet`](crate::fragment::FragmentSet)s,
//! so they execute through the same batch-first layer
//! ([`crate::execute`]) as QRCC plans — mirroring CutQC's own evaluator,
//! which batches all subcircuit instances up front.

use crate::planner::{CutPlan, CutPlanner};
use crate::spec::CutSolution;
use crate::{CoreError, QrccConfig};
use qrcc_circuit::dag::CircuitDag;
use qrcc_circuit::Circuit;
use qrcc_ilp::SolveStatus;
use std::time::Duration;

/// The CutQC-style baseline planner (wire cuts only, no qubit reuse).
///
/// ```rust
/// use qrcc_circuit::generators;
/// use qrcc_core::cutqc::CutQcPlanner;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = generators::qft(5);
/// let plan = CutQcPlanner::new(4).plan(&circuit)?;
/// assert!(plan.subcircuit_widths().iter().all(|&w| w <= 4));
/// assert_eq!(plan.gate_cut_count(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CutQcPlanner {
    config: QrccConfig,
}

impl CutQcPlanner {
    /// A baseline planner targeting a `device_size`-qubit device.
    pub fn new(device_size: usize) -> Self {
        let config = QrccConfig::new(device_size).with_gate_cuts(false).with_qubit_reuse(false);
        CutQcPlanner { config }
    }

    /// Overrides the underlying configuration (gate cuts and qubit reuse are
    /// forced off regardless).
    pub fn with_config(mut self, config: QrccConfig) -> Self {
        self.config = config.with_gate_cuts(false).with_qubit_reuse(false);
        self
    }

    /// The effective configuration.
    pub fn config(&self) -> &QrccConfig {
        &self.config
    }

    /// Plans a wire-cut-only, no-reuse cut for `circuit`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CutPlanner::plan`].
    pub fn plan(&self, circuit: &Circuit) -> Result<CutPlan, CoreError> {
        CutPlanner::new(self.config.clone()).plan(circuit)
    }
}

/// Builds and solves a CutQC-style MIP for the search-time comparison
/// (Table 4).
///
/// The baseline model has the same assignment variables as the QRCC model but
/// (i) counts every incoming initialization qubit against the subcircuit
/// width for the whole run instead of per layer (no reuse), which requires
/// one extra indicator per (wire segment boundary, subcircuit) — the
/// linearised stand-in for CutQC's quadratic constraints — and (ii) has no
/// gate-cut variables. It carries the QRCC model's symmetry-breaking rows
/// (labels open in order), so the two models' solve times compare like for
/// like. Returns the solution, solver status and solve time.
pub fn solve_cutqc_model(
    dag: &CircuitDag,
    device_size: usize,
    num_subcircuits: usize,
    time_limit: Duration,
) -> Option<(CutSolution, SolveStatus, Duration)> {
    use qrcc_ilp::{solver, LinExpr, Model, SolverConfig};
    let start = std::time::Instant::now();
    let mut ilp = Model::new();
    let num_nodes = dag.nodes().len();

    // assignment variables
    let assign: Vec<Vec<qrcc_ilp::VarId>> = (0..num_nodes)
        .map(|x| (0..num_subcircuits).map(|c| ilp.add_binary(format!("a_{x}_{c}"))).collect())
        .collect();
    for row in &assign {
        let mut expr = LinExpr::new();
        for &a in row {
            expr.add_term(1.0, a);
        }
        ilp.add_eq(expr, 1.0);
    }
    crate::model::open_labels_in_order(&mut ilp, num_nodes, num_subcircuits, |x, c| {
        LinExpr::new().term(1.0, assign[x][c])
    });

    // wire-cut indicators
    let mut total_cuts = LinExpr::new();
    for q in 0..dag.num_qubits() {
        let qubit = qrcc_circuit::QubitId::new(q);
        let nodes = dag.wire(qubit);
        for pair in nodes.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let w = ilp.add_binary(format!("w_{q}_{a}_{b}"));
            for (&in_a, &in_b) in assign[a].iter().zip(&assign[b]) {
                ilp.add_le(LinExpr::new().term(-1.0, w).term(1.0, in_a).term(-1.0, in_b), 0.0);
                ilp.add_le(LinExpr::new().term(-1.0, w).term(1.0, in_b).term(-1.0, in_a), 0.0);
            }
            total_cuts.add_term(1.0, w);
        }
    }

    // Width constraint without reuse: every wire *segment* of a subcircuit
    // occupies its own physical qubit for the whole run. A segment of wire q
    // starts in c either because the wire's first node is in c, or because a
    // cut boundary (a, b) has its downstream node b in c while a is elsewhere
    // (CutQC's "initialization qubit"). The latter product is linearised with
    // one auxiliary binary per (boundary, subcircuit).
    // `c` is simultaneously an index into per-node variable rows and part of
    // the generated variable names, so a plain range loop reads best here.
    #[allow(clippy::needless_range_loop)]
    for c in 0..num_subcircuits {
        let mut width = LinExpr::new();
        for q in 0..dag.num_qubits() {
            let qubit = qrcc_circuit::QubitId::new(q);
            let nodes = dag.wire(qubit);
            let Some(&first) = nodes.first() else { continue };
            width.add_term(1.0, assign[first][c]);
            for pair in nodes.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let extra = ilp.add_binary(format!("init_{q}_{a}_{b}_{c}"));
                // extra >= assign[b][c] - assign[a][c]  (cut with downstream in c)
                ilp.add_le(
                    LinExpr::new()
                        .term(-1.0, extra)
                        .term(1.0, assign[b][c])
                        .term(-1.0, assign[a][c]),
                    0.0,
                );
                width.add_term(1.0, extra);
            }
        }
        if !width.is_empty() {
            ilp.add_le(width, device_size as f64);
        }
    }

    ilp.minimize(total_cuts);

    let solver_config = SolverConfig { time_limit, ..SolverConfig::default() };
    let solution = solver::solve(&ilp, &solver_config).ok()?;
    let status = solution.status();
    let mut assignment = vec![0usize; num_nodes];
    for (x, row) in assign.iter().enumerate() {
        assignment[x] = (0..num_subcircuits).find(|&c| solution.is_one(row[c])).unwrap_or(0);
    }
    let cut_solution = CutSolution {
        num_subcircuits,
        assignment,
        gate_cuts: Vec::new(),
        gate_cut_assignment: Vec::new(),
    };
    Some((cut_solution, status, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::CutPlanner;
    use qrcc_circuit::generators;

    #[test]
    fn baseline_never_uses_gate_cuts_or_reuse() {
        let circuit = generators::qft(5);
        let planner = CutQcPlanner::new(4);
        assert!(!planner.config().gate_cuts_enabled);
        assert!(!planner.config().qubit_reuse_enabled);
        let plan = planner.plan(&circuit).unwrap();
        assert_eq!(plan.gate_cut_count(), 0);
        assert!(plan.subcircuit_widths().iter().all(|&w| w <= 4));
    }

    #[test]
    fn qrcc_needs_no_more_cuts_than_the_baseline() {
        // both heuristic alone: the search spaces compared, not how far a
        // time-limited ILP refinement gets
        let circuit = generators::vqe_two_local(8, 2, 3);
        let heuristic = QrccConfig::new(5).with_ilp_time_limit(Duration::ZERO);
        let baseline = CutQcPlanner::new(5).with_config(heuristic.clone()).plan(&circuit);
        let qrcc = CutPlanner::new(heuristic).plan(&circuit).unwrap();
        if let Ok(baseline) = baseline {
            assert!(
                qrcc.wire_cut_count() <= baseline.wire_cut_count(),
                "qrcc {} vs cutqc {}",
                qrcc.wire_cut_count(),
                baseline.wire_cut_count()
            );
        }
    }

    #[test]
    fn cutqc_model_solves_small_chains() {
        let mut c = qrcc_circuit::Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let dag = CircuitDag::from_circuit(&c);
        let (solution, _status, _time) =
            solve_cutqc_model(&dag, 3, 2, Duration::from_secs(20)).expect("solvable");
        solution.validate(&dag).unwrap();
        // without reuse, splitting a 4-qubit chain for a 3-qubit device needs
        // at least one cut
        assert!(!solution.wire_cuts(&dag).is_empty());
        assert!(solution.subcircuit_widths(&dag, false).iter().all(|&w| w <= 3));
    }

    #[test]
    fn cutqc_model_optimum_matches_exhaustive_search() {
        // every two-subcircuit assignment, judged by the no-reuse widths:
        // the model's proven optimum, or its proof that none fits, must agree
        // (the two QFTs have none, the others one cut)
        for (circuit, device) in [
            (generators::qft(4), 3),
            (generators::qft(5), 4),
            (generators::aqft(5, 2), 4),
            (generators::vqe_two_local(4, 1, 3), 3),
        ] {
            let dag = CircuitDag::from_circuit(&circuit);
            let nodes = dag.nodes().len();
            let exhaustive = (0..1u32 << nodes)
                .filter_map(|mask| {
                    let solution = CutSolution {
                        num_subcircuits: 2,
                        assignment: (0..nodes).map(|x| (mask >> x & 1) as usize).collect(),
                        gate_cuts: Vec::new(),
                        gate_cut_assignment: Vec::new(),
                    };
                    let fits = solution.subcircuit_widths(&dag, false).iter().all(|&w| w <= device);
                    fits.then(|| solution.wire_cuts(&dag).len())
                })
                .min();
            let solved = solve_cutqc_model(&dag, device, 2, Duration::from_secs(60));
            let name = format!("{} on {device} qubits", circuit.name());
            match (exhaustive, solved) {
                (None, None) => {}
                (Some(cuts), Some((solution, status, _))) => {
                    assert_eq!(status, SolveStatus::Optimal, "{name}");
                    assert_eq!(solution.wire_cuts(&dag).len(), cuts, "{name}");
                }
                (exhaustive, solved) => {
                    panic!("{name}: exhaustive {exhaustive:?}, model {:?}", solved.map(|s| s.1))
                }
            }
        }
    }
}
