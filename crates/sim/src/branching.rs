//! Exact enumeration of measurement branches.
//!
//! Gate cutting weights each subcircuit instance's expectation value by the
//! ±1 outcome β of a mid-circuit measurement (paper Eq. (4)). To verify the
//! reconstruction exactly (without shot noise), the pipeline needs the full
//! set of measurement branches of a circuit, each with its probability,
//! recorded classical bits and final state. [`enumerate_branches`] provides
//! exactly that.

use crate::{SimError, StateVector};
use qrcc_circuit::{Circuit, Operation};

/// Branches whose probability falls at or below this threshold are pruned —
/// shared by the interpreted enumerator and the compiled
/// [`FramedProgram`](crate::compile::FramedProgram) readout so both prune
/// the same outcomes.
pub(crate) const BRANCH_PRUNE: f64 = 1e-15;

/// One measurement branch of a circuit execution.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Probability of this branch (product of the probabilities of its
    /// measurement outcomes).
    pub probability: f64,
    /// Recorded classical bits, indexed by classical bit number. Bits never
    /// written remain `false`.
    pub clbits: Vec<bool>,
    /// The (normalised) final state of the branch.
    pub state: StateVector,
}

/// Enumerates every measurement/reset branch of `circuit` exactly.
///
/// Branches with zero probability are pruned. **Every** measurement and
/// reset branches here, terminal ones included, so there are up to
/// `2^(#measurements + #resets)` full states: deliberately naive, this is
/// the independent reference the compiled readout
/// ([`FramedProgram::classical_distribution`](crate::compile::FramedProgram::classical_distribution),
/// which branches only at mid-circuit measures and resets) is tested
/// against, and fit for small circuits only.
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] if the circuit exceeds the simulator's
/// qubit limit.
///
/// # Example
///
/// ```rust
/// use qrcc_circuit::Circuit;
/// use qrcc_sim::branching::enumerate_branches;
///
/// let mut c = Circuit::new(1);
/// c.h(0).measure(0, 0);
/// let branches = enumerate_branches(&c).unwrap();
/// assert_eq!(branches.len(), 2);
/// assert!((branches[0].probability - 0.5).abs() < 1e-12);
/// ```
pub fn enumerate_branches(circuit: &Circuit) -> Result<Vec<Branch>, SimError> {
    let num_clbits = circuit.num_clbits();
    let mut branches = vec![Branch {
        probability: 1.0,
        clbits: vec![false; num_clbits],
        state: StateVector::try_new(circuit.num_qubits())?,
    }];

    for op in circuit.operations() {
        match op {
            Operation::Single { gate, qubit } => {
                for b in &mut branches {
                    b.state.apply_gate(gate, &[*qubit]);
                }
            }
            Operation::Two { gate, qubits } => {
                for b in &mut branches {
                    b.state.apply_gate(gate, qubits);
                }
            }
            Operation::Barrier { .. } => {}
            Operation::Measure { qubit, clbit } => {
                let mut next = Vec::with_capacity(branches.len() * 2);
                for b in branches.into_iter() {
                    for outcome in [false, true] {
                        let mut state = b.state.clone();
                        let p = state.project(*qubit, outcome);
                        if p > BRANCH_PRUNE {
                            let mut clbits = b.clbits.clone();
                            clbits[*clbit] = outcome;
                            next.push(Branch { probability: b.probability * p, clbits, state });
                        }
                    }
                }
                branches = next;
            }
            Operation::Reset { qubit } => {
                let mut next = Vec::with_capacity(branches.len() * 2);
                for b in branches.into_iter() {
                    for outcome in [false, true] {
                        let mut state = b.state.clone();
                        let p = state.project(*qubit, outcome);
                        if p > BRANCH_PRUNE {
                            if outcome {
                                state.apply_gate(&qrcc_circuit::Gate::X, &[*qubit]);
                            }
                            next.push(Branch {
                                probability: b.probability * p,
                                clbits: b.clbits.clone(),
                                state,
                            });
                        }
                    }
                }
                branches = next;
            }
        }
    }
    Ok(branches)
}

/// The exact probability distribution over the circuit's classical bits,
/// marginalising over measurement branches. Entry `k` of the returned vector
/// is the probability of the classical bit pattern whose bit `i` equals bit
/// `i` of `k`.
///
/// # Errors
///
/// Propagates errors from [`enumerate_branches`]; additionally returns
/// [`SimError::NothingToMeasure`] when the circuit has no classical bits.
pub fn classical_distribution(circuit: &Circuit) -> Result<Vec<f64>, SimError> {
    if circuit.num_clbits() == 0 {
        return Err(SimError::NothingToMeasure);
    }
    let branches = enumerate_branches(circuit)?;
    Ok(distribution_over_clbits(&branches, circuit.num_clbits()))
}

/// Marginalises a branch set into the distribution over classical-bit
/// patterns.
fn distribution_over_clbits(branches: &[Branch], num_clbits: usize) -> Vec<f64> {
    let mut dist = vec![0.0; 1 << num_clbits];
    for b in branches {
        let mut key = 0usize;
        for (i, &bit) in b.clbits.iter().enumerate() {
            if bit {
                key |= 1 << i;
            }
        }
        dist[key] += b.probability;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrcc_circuit::observable::PauliString;

    #[test]
    fn unitary_circuit_has_a_single_branch() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let branches = enumerate_branches(&c).unwrap();
        assert_eq!(branches.len(), 1);
        assert!((branches[0].probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_measurement_branches_are_correlated() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure(0, 0);
        let branches = enumerate_branches(&c).unwrap();
        assert_eq!(branches.len(), 2);
        for b in &branches {
            assert!((b.probability - 0.5).abs() < 1e-12);
            // qubit 1 must agree with the recorded outcome of qubit 0
            let expected = b.clbits[0];
            assert!(
                (b.state.outcome_probability(qrcc_circuit::QubitId::new(1), expected) - 1.0).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn deterministic_measurement_does_not_split() {
        let mut c = Circuit::new(1);
        c.x(0).measure(0, 0);
        let branches = enumerate_branches(&c).unwrap();
        assert_eq!(branches.len(), 1);
        assert!(branches[0].clbits[0]);
    }

    #[test]
    fn branch_probabilities_sum_to_one() {
        let mut c = Circuit::new(3);
        c.h(0).ry(0.7, 1).cx(0, 1).measure(0, 0).reset(0).h(0).cx(1, 2).measure(1, 1).measure(2, 2);
        let branches = enumerate_branches(&c).unwrap();
        let total: f64 = branches.iter().map(|b| b.probability).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reset_branches_keep_qubit_in_zero() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).reset(0);
        for b in enumerate_branches(&c).unwrap() {
            assert!(b.state.outcome_probability(qrcc_circuit::QubitId::new(0), true) < 1e-12);
        }
    }

    #[test]
    fn classical_distribution_of_ghz_measurement() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let dist = classical_distribution(&c).unwrap();
        assert!((dist[0b000] - 0.5).abs() < 1e-12);
        assert!((dist[0b111] - 0.5).abs() < 1e-12);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classical_distribution_requires_clbits() {
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(matches!(classical_distribution(&c), Err(SimError::NothingToMeasure)));
    }

    #[test]
    fn qubit_reuse_style_circuit_statistics() {
        // Measure a qubit, reset it, and use it as a fresh logical qubit:
        // the two recorded bits must be independent 50/50 outcomes.
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0).reset(0).h(0).measure(0, 1);
        let dist = classical_distribution(&c).unwrap();
        for p in &dist {
            assert!((p - 0.25).abs() < 1e-12);
        }
        // expectation of the reused wire's Z from the branch states
        let branches = enumerate_branches(&c).unwrap();
        let ez: f64 = branches
            .iter()
            .map(|b| b.probability * b.state.expectation_pauli(&PauliString::z(1, 0)))
            .sum();
        assert!(ez.abs() < 1e-12);
    }
}
