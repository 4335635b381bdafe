use crate::{CircuitError, Gate};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a qubit within a [`Circuit`](crate::Circuit).
///
/// A thin newtype over `usize` so that qubit indices cannot silently be mixed
/// up with classical-bit or layer indices.
///
/// ```rust
/// use qrcc_circuit::QubitId;
///
/// let q = QubitId::new(3);
/// assert_eq!(q.index(), 3);
/// assert_eq!(QubitId::from(3usize), q);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QubitId(usize);

impl QubitId {
    /// Creates a qubit id from a raw index.
    pub fn new(index: usize) -> Self {
        QubitId(index)
    }

    /// The raw index of this qubit.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl From<usize> for QubitId {
    fn from(index: usize) -> Self {
        QubitId(index)
    }
}

impl From<QubitId> for usize {
    fn from(q: QubitId) -> usize {
        q.0
    }
}

impl fmt::Display for QubitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A single operation in a [`Circuit`](crate::Circuit).
///
/// Operations are either unitary gates (single- or two-qubit), mid-circuit
/// measurements into a classical bit, qubit resets (to |0⟩), or barriers.
/// Measurement and reset are exactly the operations needed for qubit reuse
/// (IBM's mid-circuit Measure-and-Reset functionality) and for the
/// measurement/initialization points introduced by wire cutting.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Operation {
    /// A single-qubit gate applied to `qubit`.
    Single {
        /// The gate.
        gate: Gate,
        /// The target qubit.
        qubit: QubitId,
    },
    /// A two-qubit gate applied to `(qubits[0], qubits[1])`.
    ///
    /// For controlled gates the first entry is the control and the second the
    /// target.
    Two {
        /// The gate.
        gate: Gate,
        /// The two target qubits, `[control, target]` for controlled gates.
        qubits: [QubitId; 2],
    },
    /// Projective measurement of `qubit` in the computational basis, storing
    /// the outcome in classical bit `clbit`. The qubit collapses and remains
    /// in the circuit.
    Measure {
        /// The measured qubit.
        qubit: QubitId,
        /// The classical bit receiving the outcome.
        clbit: usize,
    },
    /// Reset `qubit` to |0⟩ (used together with [`Operation::Measure`] for
    /// qubit reuse).
    Reset {
        /// The qubit being reset.
        qubit: QubitId,
    },
    /// A barrier across the listed qubits (no effect on semantics; prevents
    /// commuting operations across it during layering).
    Barrier {
        /// The qubits spanned by the barrier.
        qubits: Vec<QubitId>,
    },
}

impl Operation {
    /// Builds a gate operation, validating arity and duplicate qubits.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ArityMismatch`] when the number of qubits does
    /// not match the gate, [`CircuitError::DuplicateQubit`] when a two-qubit
    /// gate is applied to the same qubit twice, and
    /// [`CircuitError::NonFiniteParameter`] for NaN/infinite angles.
    pub fn gate(gate: Gate, qubits: &[QubitId]) -> Result<Self, CircuitError> {
        if !gate.params_finite() {
            return Err(CircuitError::NonFiniteParameter { gate: gate.name() });
        }
        match (gate.num_qubits(), qubits) {
            (1, [q]) => Ok(Operation::Single { gate, qubit: *q }),
            (2, [a, b]) => {
                if a == b {
                    Err(CircuitError::DuplicateQubit { qubit: a.index() })
                } else {
                    Ok(Operation::Two { gate, qubits: [*a, *b] })
                }
            }
            (expected, supplied) => Err(CircuitError::ArityMismatch {
                gate: gate.name(),
                expected,
                actual: supplied.len(),
            }),
        }
    }

    /// The qubits this operation touches, in application order.
    pub fn qubits(&self) -> Vec<QubitId> {
        match self {
            Operation::Single { qubit, .. } => vec![*qubit],
            Operation::Two { qubits, .. } => qubits.to_vec(),
            Operation::Measure { qubit, .. } => vec![*qubit],
            Operation::Reset { qubit } => vec![*qubit],
            Operation::Barrier { qubits } => qubits.clone(),
        }
    }

    /// The unitary gate of this operation, if it is a gate.
    pub fn as_gate(&self) -> Option<&Gate> {
        match self {
            Operation::Single { gate, .. } | Operation::Two { gate, .. } => Some(gate),
            _ => None,
        }
    }

    /// Whether this operation is a unitary gate (single- or two-qubit).
    pub fn is_gate(&self) -> bool {
        self.as_gate().is_some()
    }

    /// Whether this operation is a two-qubit gate.
    pub fn is_two_qubit_gate(&self) -> bool {
        matches!(self, Operation::Two { .. })
    }

    /// Whether this operation is a measurement.
    pub fn is_measure(&self) -> bool {
        matches!(self, Operation::Measure { .. })
    }

    /// Whether this operation is a reset.
    pub fn is_reset(&self) -> bool {
        matches!(self, Operation::Reset { .. })
    }

    /// Whether this operation is a barrier.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Operation::Barrier { .. })
    }

    /// Returns a copy of this operation with every qubit index remapped via
    /// `f`, e.g. when embedding a subcircuit into a larger register.
    pub fn map_qubits(&self, mut f: impl FnMut(QubitId) -> QubitId) -> Operation {
        match self {
            Operation::Single { gate, qubit } => {
                Operation::Single { gate: *gate, qubit: f(*qubit) }
            }
            Operation::Two { gate, qubits } => {
                Operation::Two { gate: *gate, qubits: [f(qubits[0]), f(qubits[1])] }
            }
            Operation::Measure { qubit, clbit } => {
                Operation::Measure { qubit: f(*qubit), clbit: *clbit }
            }
            Operation::Reset { qubit } => Operation::Reset { qubit: f(*qubit) },
            Operation::Barrier { qubits } => {
                Operation::Barrier { qubits: qubits.iter().map(|q| f(*q)).collect() }
            }
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Single { gate, qubit } => write!(f, "{gate} {qubit}"),
            Operation::Two { gate, qubits } => write!(f, "{gate} {},{}", qubits[0], qubits[1]),
            Operation::Measure { qubit, clbit } => write!(f, "measure {qubit} -> c{clbit}"),
            Operation::Reset { qubit } => write!(f, "reset {qubit}"),
            Operation::Barrier { qubits } => {
                let names: Vec<String> = qubits.iter().map(|q| q.to_string()).collect();
                write!(f, "barrier {}", names.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn gate_constructor_validates_arity() {
        assert!(Operation::gate(Gate::H, &[q(0)]).is_ok());
        assert!(Operation::gate(Gate::Cx, &[q(0), q(1)]).is_ok());
        assert!(matches!(
            Operation::gate(Gate::Cx, &[q(0)]),
            Err(CircuitError::ArityMismatch { .. })
        ));
        assert!(matches!(
            Operation::gate(Gate::H, &[q(0), q(1)]),
            Err(CircuitError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn gate_constructor_rejects_duplicate_qubits() {
        assert!(matches!(
            Operation::gate(Gate::Cz, &[q(2), q(2)]),
            Err(CircuitError::DuplicateQubit { qubit: 2 })
        ));
    }

    #[test]
    fn gate_constructor_rejects_nan_params() {
        assert!(matches!(
            Operation::gate(Gate::Rz(f64::NAN), &[q(0)]),
            Err(CircuitError::NonFiniteParameter { .. })
        ));
    }

    #[test]
    fn qubits_are_reported_in_order() {
        let op = Operation::gate(Gate::Cx, &[q(3), q(1)]).unwrap();
        assert_eq!(op.qubits(), vec![q(3), q(1)]);
    }

    #[test]
    fn map_qubits_remaps_all_variants() {
        let shift = |qq: QubitId| QubitId::new(qq.index() + 10);
        let ops = [
            Operation::gate(Gate::H, &[q(0)]).unwrap(),
            Operation::gate(Gate::Cx, &[q(0), q(1)]).unwrap(),
            Operation::Measure { qubit: q(2), clbit: 0 },
            Operation::Reset { qubit: q(3) },
            Operation::Barrier { qubits: vec![q(0), q(1)] },
        ];
        for op in ops {
            let mapped = op.map_qubits(shift);
            for (orig, new) in op.qubits().iter().zip(mapped.qubits()) {
                assert_eq!(new.index(), orig.index() + 10);
            }
        }
    }

    #[test]
    fn classification_predicates() {
        let m = Operation::Measure { qubit: q(0), clbit: 0 };
        assert!(m.is_measure() && !m.is_gate() && !m.is_reset());
        let r = Operation::Reset { qubit: q(0) };
        assert!(r.is_reset() && !r.is_gate());
        let g = Operation::gate(Gate::Cz, &[q(0), q(1)]).unwrap();
        assert!(g.is_gate() && g.is_two_qubit_gate());
    }

    #[test]
    fn qubit_id_conversions_roundtrip() {
        let id = QubitId::from(7usize);
        assert_eq!(usize::from(id), 7);
        assert_eq!(id.to_string(), "q7");
    }
}
