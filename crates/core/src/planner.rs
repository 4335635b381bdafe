//! The QRCC cut planner: searches for a qubit-reuse-aware cutting solution
//! that fits the target device, combining the heuristic search with an
//! optional exact ILP refinement on small instances.

use crate::heuristic::{self, metrics_cost, metrics_fit};
use crate::model;
use crate::spec::{CutMetrics, CutSolution};
use crate::{CoreError, QrccConfig};
use qrcc_circuit::dag::CircuitDag;
use qrcc_circuit::Circuit;
use std::time::{Duration, Instant};

/// A complete cutting plan for one circuit: the solution, its metrics and the
/// inputs needed to build subcircuit fragments from it.
#[derive(Debug, Clone)]
pub struct CutPlan {
    circuit: Circuit,
    dag: CircuitDag,
    solution: CutSolution,
    metrics: CutMetrics,
    config: QrccConfig,
    planning_time: Duration,
    used_ilp: bool,
}

impl CutPlan {
    /// The original circuit the plan was computed for.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The circuit's dependency DAG (node ids in the solution refer to it).
    pub fn dag(&self) -> &CircuitDag {
        &self.dag
    }

    /// The cutting solution.
    pub fn solution(&self) -> &CutSolution {
        &self.solution
    }

    /// Cut-quality metrics (`#SC`, `#cuts`, `#MS`, widths, ...).
    pub fn metrics(&self) -> &CutMetrics {
        &self.metrics
    }

    /// The configuration the plan was computed with.
    pub fn config(&self) -> &QrccConfig {
        &self.config
    }

    /// Number of subcircuits.
    pub fn num_subcircuits(&self) -> usize {
        self.metrics.num_subcircuits
    }

    /// Number of wire cuts.
    pub fn wire_cut_count(&self) -> usize {
        self.metrics.wire_cuts
    }

    /// Number of gate cuts.
    pub fn gate_cut_count(&self) -> usize {
        self.metrics.gate_cuts
    }

    /// Width (physical qubits needed) of every subcircuit.
    pub fn subcircuit_widths(&self) -> &[usize] {
        &self.metrics.subcircuit_widths
    }

    /// Wall-clock time spent planning.
    pub fn planning_time(&self) -> Duration {
        self.planning_time
    }

    /// Whether the exact ILP refinement contributed to this plan (as opposed
    /// to the heuristic alone).
    pub fn used_ilp(&self) -> bool {
        self.used_ilp
    }
}

/// The QRCC cut planner. Under [`QrccConfig::cutqc`] it is the CutQC
/// baseline the paper compares against: the same search and ILP model with
/// wire cuts only and no qubit reuse.
///
/// ```rust
/// use qrcc_circuit::generators;
/// use qrcc_core::{planner::CutPlanner, QrccConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = generators::qft(5);
/// let plan = CutPlanner::new(QrccConfig::new(3)).plan(&circuit)?;
/// assert!(plan.subcircuit_widths().iter().all(|&w| w <= 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CutPlanner {
    config: QrccConfig,
}

impl CutPlanner {
    /// Creates a planner with the given configuration.
    pub fn new(config: QrccConfig) -> Self {
        CutPlanner { config }
    }

    /// The planner's configuration.
    pub fn config(&self) -> &QrccConfig {
        &self.config
    }

    /// Plans a cut for `circuit`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidDeviceSize`] if the device is not strictly
    ///   smaller than the circuit (or is zero).
    /// * [`CoreError::NoCutFound`] if no solution fitting the device was
    ///   found within the subcircuit-count range and cut budgets.
    pub fn plan(&self, circuit: &Circuit) -> Result<CutPlan, CoreError> {
        let start = Instant::now();
        let n = circuit.num_qubits();
        let d = self.config.device_size;
        if d == 0 || d >= n {
            return Err(CoreError::InvalidDeviceSize { circuit_qubits: n, device_size: d });
        }
        let dag = CircuitDag::from_circuit(circuit);
        let reuse = self.config.qubit_reuse_enabled;
        let mut best_infeasible_width = usize::MAX;
        let mut chosen: Option<(CutSolution, CutMetrics)> = None;

        for num_subs in self.config.c_min..=self.config.c_max {
            if num_subs < 2 {
                continue;
            }
            let candidate = heuristic::search_with_subcircuits(&dag, &self.config, num_subs);
            candidate.validate(&dag)?;
            let metrics = candidate.metrics(&dag, reuse);
            if metrics_fit(&metrics, &self.config) {
                chosen = Some((candidate, metrics));
                break;
            }
            best_infeasible_width = best_infeasible_width.min(metrics.max_width());
        }

        let Some((mut solution, mut metrics)) = chosen else {
            return Err(CoreError::NoCutFound {
                device_size: d,
                best_width: if best_infeasible_width == usize::MAX {
                    n
                } else {
                    best_infeasible_width
                },
            });
        };

        // Exact refinement on small models, warm-started by the heuristic.
        let mut used_ilp = false;
        let model_size = dag.nodes().len() * solution.num_subcircuits;
        if !self.config.ilp_time_limit.is_zero() && model_size <= self.config.ilp_size_limit {
            if let Some(refined) = model::refine_with_ilp(&dag, &solution, &self.config) {
                let refined_metrics = refined.metrics(&dag, reuse);
                if metrics_fit(&refined_metrics, &self.config)
                    && metrics_cost(&refined_metrics, &self.config)
                        < metrics_cost(&metrics, &self.config) - 1e-9
                {
                    (solution, metrics) = (refined, refined_metrics);
                    used_ilp = true;
                }
            }
        }

        Ok(CutPlan {
            circuit: circuit.clone(),
            dag,
            solution,
            metrics,
            config: self.config.clone(),
            planning_time: start.elapsed(),
            used_ilp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrcc_circuit::generators;

    #[test]
    fn plan_fits_device_budget() {
        let circuit = generators::qft(6);
        let config = QrccConfig::new(4).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).unwrap();
        assert!(plan.subcircuit_widths().iter().all(|&w| w <= 4));
        assert!(plan.num_subcircuits() >= 2);
        assert!(plan.wire_cut_count() > 0);
        assert!(plan.planning_time() > Duration::ZERO);
    }

    #[test]
    fn invalid_device_sizes_are_rejected() {
        let circuit = generators::qft(4);
        for d in [0, 4, 10] {
            let err = CutPlanner::new(QrccConfig::new(d)).plan(&circuit);
            assert!(matches!(err, Err(CoreError::InvalidDeviceSize { .. })), "d = {d}");
        }
    }

    #[test]
    fn impossible_budget_reports_no_cut_found() {
        // A 1-qubit device can never host a two-qubit gate.
        let circuit = generators::qft(4);
        let config = QrccConfig::new(1).with_ilp_time_limit(Duration::ZERO);
        assert!(matches!(
            CutPlanner::new(config).plan(&circuit),
            Err(CoreError::NoCutFound { .. })
        ));
    }

    #[test]
    fn gate_cuts_reduce_effective_cost_on_qaoa() {
        let (circuit, _) = generators::qaoa_regular(8, 3, 1, 3);
        let base =
            QrccConfig::new(5).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let plan_wire_only = CutPlanner::new(base.clone()).plan(&circuit).unwrap();
        let plan_both = CutPlanner::new(base.with_gate_cuts(true)).plan(&circuit).unwrap();
        let eff_wire = plan_wire_only.metrics().effective_cuts();
        let eff_both = plan_both.metrics().effective_cuts();
        // The search is heuristic, so allow a small amount of noise, but gate
        // cutting must not make the effective post-processing cost blow up.
        assert!(
            eff_both <= eff_wire + 2.0,
            "gate cutting should not increase effective cuts much ({eff_both} vs {eff_wire})"
        );
    }

    #[test]
    fn reuse_enables_smaller_devices_than_no_reuse() {
        let circuit = generators::vqe_two_local(8, 2, 5);
        let reuse_cfg =
            QrccConfig::new(4).with_subcircuit_range(2, 4).with_ilp_time_limit(Duration::ZERO);
        let no_reuse_cfg = reuse_cfg.clone().with_qubit_reuse(false);
        let with_reuse = CutPlanner::new(reuse_cfg).plan(&circuit).unwrap();
        let without_reuse = CutPlanner::new(no_reuse_cfg).plan(&circuit);
        match without_reuse {
            Ok(plan) => assert!(
                with_reuse.wire_cut_count() <= plan.wire_cut_count(),
                "reuse-aware planning should not need more cuts"
            ),
            // no-reuse may simply fail to fit the device, which also proves the point
            Err(CoreError::NoCutFound { .. }) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
