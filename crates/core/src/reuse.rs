//! The standalone CaQR-style qubit-reuse pass.
//!
//! Mid-circuit Measure-and-Reset lets a physical qubit that has finished all
//! of its operations be measured, reset and handed to a logical qubit whose
//! operations have not started yet. Inside QRCC this is what shrinks
//! subcircuit widths; standalone (the [`ReusePass`]) it reproduces the
//! CaQR-style compiler pass the paper compares against in Table 6. Both use
//! one lifetime model: the pass is the width rule of
//! [`CutSolution::subcircuit_widths`] applied to the uncut plan
//! ([`CutSolution::trivial`]), whose segments are the circuit's wires.

use crate::spec::{assign_intervals, CutSolution, IntervalAssignment, Segment};
use crate::CoreError;
use qrcc_circuit::dag::CircuitDag;
use qrcc_circuit::{Circuit, QubitId};

/// Result of applying the standalone reuse pass to a circuit.
#[derive(Debug, Clone)]
pub struct ReusedCircuit {
    /// The transformed circuit over `num_physical` qubits; every original
    /// qubit is measured into classical bit `original qubit index`.
    pub circuit: Circuit,
    /// Number of physical qubits used.
    pub num_physical: usize,
    /// Physical qubit hosting each original qubit (indexed by original qubit).
    /// Idle original qubits map to `None`.
    pub mapping: Vec<Option<usize>>,
}

/// A CaQR-style standalone qubit-reuse pass.
///
/// The pass measures each original qubit in the computational basis as soon
/// as its last gate has executed (valid by the deferred-measurement
/// principle, since nothing acts on the wire afterwards), resets the physical
/// qubit and hands it to a logical qubit that has not started yet. The
/// transformed circuit therefore produces the same joint measurement
/// distribution as measuring the original circuit at the end, using
/// `max-overlap` many physical qubits instead of `N`.
///
/// ```rust
/// use qrcc_circuit::Circuit;
/// use qrcc_core::reuse::ReusePass;
///
/// // A GHZ chain only ever has two wires active at once.
/// let mut chain = Circuit::new(4);
/// chain.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
/// let reused = ReusePass::new().apply(&chain).unwrap();
/// assert_eq!(reused.num_physical, 2);
/// assert_eq!(reused.circuit.num_clbits(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReusePass {}

impl ReusePass {
    /// Creates the pass.
    pub fn new() -> Self {
        ReusePass {}
    }

    /// The minimum number of physical qubits the pass would need for
    /// `circuit` (without building the transformed circuit).
    pub fn required_qubits(&self, circuit: &Circuit) -> usize {
        let dag = CircuitDag::from_circuit(circuit);
        placed_wires(&dag).1.num_physical
    }

    /// Applies the pass.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCutSolution`] if the circuit already
    /// contains measurements or resets (the pass expects a unitary circuit
    /// and inserts its own terminal measurements).
    pub fn apply(&self, circuit: &Circuit) -> Result<ReusedCircuit, CoreError> {
        if !circuit.is_unitary_only() {
            return Err(CoreError::InvalidCutSolution {
                reason: "reuse pass expects a unitary circuit without measurements".into(),
            });
        }
        let dag = CircuitDag::from_circuit(circuit);
        let (wires, assignment) = placed_wires(&dag);

        let mut mapping: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
        for (wire, &phys) in wires.iter().zip(&assignment.physical) {
            mapping[wire.qubit.index()] = Some(phys);
        }

        let mut out = Circuit::with_clbits(assignment.num_physical.max(1), circuit.num_qubits());
        out.set_name(format!("{}_reused", circuit.name()));
        let mut started = vec![false; circuit.num_qubits()];
        let mut physical_dirty = vec![false; assignment.num_physical.max(1)];
        let mut remaining: Vec<usize> =
            (0..circuit.num_qubits()).map(|q| dag.wire(QubitId::new(q)).len()).collect();

        for id in dag.emission_order() {
            let node = dag.node(id);
            // prepare any wires this node starts
            for q in node.op.qubits() {
                let wire = q.index();
                if !started[wire] {
                    started[wire] = true;
                    let phys = mapping[wire].expect("active wire has a physical qubit");
                    if physical_dirty[phys] {
                        out.reset(phys);
                    }
                    physical_dirty[phys] = true;
                }
            }
            let mapped = node.op.map_qubits(|q| {
                QubitId::new(mapping[q.index()].expect("active wire has a physical qubit"))
            });
            out.push(mapped);
            // terminate any wires this node finishes
            for q in node.op.qubits() {
                let wire = q.index();
                remaining[wire] -= 1;
                if remaining[wire] == 0 {
                    let phys = mapping[wire].expect("active wire has a physical qubit");
                    out.measure(phys, wire);
                }
            }
        }
        // Idle original qubits measure trivially to 0; nothing to emit.
        Ok(ReusedCircuit { circuit: out, num_physical: assignment.num_physical.max(1), mapping })
    }
}

/// The circuit's wire runs, the segments of the uncut plan (one per wire
/// that carries an operation, in wire order), and their physical qubits.
fn placed_wires(dag: &CircuitDag) -> (Vec<Segment>, IntervalAssignment) {
    let wires = CutSolution::trivial(dag).segments(dag);
    let intervals: Vec<(usize, usize)> = wires.iter().map(Segment::interval).collect();
    let assignment = assign_intervals(&intervals);
    (wires, assignment)
}

/// Number of measurement/reset pairs the reuse pass introduces for a circuit
/// (how many times a physical qubit is handed over).
pub fn reuse_count(circuit: &Circuit) -> usize {
    let dag = CircuitDag::from_circuit(circuit);
    let (wires, assignment) = placed_wires(&dag);
    wires.len() - assignment.num_physical
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrcc_circuit::generators;
    use qrcc_sim::branching::classical_distribution;
    use qrcc_sim::StateVector;

    #[test]
    fn ghz_chain_runs_on_two_physical_qubits() {
        let mut chain = Circuit::new(5);
        chain.h(0);
        for q in 0..4 {
            chain.cx(q, q + 1);
        }
        let pass = ReusePass::new();
        assert_eq!(pass.required_qubits(&chain), 2);
        let reused = pass.apply(&chain).unwrap();
        assert_eq!(reused.num_physical, 2);
        assert_eq!(reused.circuit.num_qubits(), 2);
        // reuse introduces measure + reset pairs
        assert!(reused.circuit.count_ops().get("reset").copied().unwrap_or(0) >= 3);
    }

    #[test]
    fn reused_circuit_preserves_the_measurement_distribution() {
        let mut chain = Circuit::new(4);
        chain.h(0).cx(0, 1).ry(0.7, 1).cx(1, 2).cx(2, 3).rz(0.3, 3);
        let reused = ReusePass::new().apply(&chain).unwrap();
        assert!(reused.num_physical < 4);

        let exact = StateVector::from_circuit(&chain).unwrap().probabilities();
        let reused_dist = classical_distribution(&reused.circuit).unwrap();
        assert_eq!(reused_dist.len(), exact.len());
        for (i, (a, b)) in exact.iter().zip(&reused_dist).enumerate() {
            assert!((a - b).abs() < 1e-9, "distribution mismatch at {i}: {a} vs {b}");
        }
    }

    #[test]
    fn qft_cannot_be_compressed_by_reuse_alone() {
        // all-to-all interactions keep every wire alive to the end
        let qft = generators::qft_no_swap(5);
        assert_eq!(ReusePass::new().required_qubits(&qft), 5);
        assert_eq!(reuse_count(&qft), 0);
    }

    #[test]
    fn pass_rejects_measured_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        assert!(ReusePass::new().apply(&c).is_err());
    }

    #[test]
    fn idle_qubits_do_not_consume_physical_qubits() {
        let mut c = Circuit::new(4);
        c.h(1).cx(1, 2);
        let reused = ReusePass::new().apply(&c).unwrap();
        assert_eq!(reused.num_physical, 2);
        assert_eq!(reused.mapping[0], None);
        assert_eq!(reused.mapping[3], None);
    }
}
