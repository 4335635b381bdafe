use crate::{CircuitError, Gate, Operation, QubitId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::f64::consts::FRAC_PI_2;
use std::fmt;

/// A gate-level quantum circuit over `num_qubits` qubits and `num_clbits`
/// classical bits.
///
/// A circuit is an ordered list of [`Operation`]s. Builder methods such as
/// [`Circuit::h`] and [`Circuit::cx`] append gates and return `&mut Self` so
/// they can be chained; they panic on out-of-range qubits (see *Panics* on
/// each method), while the lower-level [`Circuit::try_push`] returns a
/// [`CircuitError`] instead.
///
/// ```rust
/// use qrcc_circuit::Circuit;
///
/// let mut ghz = Circuit::new(3);
/// ghz.h(0).cx(0, 1).cx(1, 2);
/// assert_eq!(ghz.depth(), 3);
/// assert_eq!(ghz.two_qubit_gate_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<Operation>,
    name: String,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits and no classical bits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, num_clbits: 0, ops: Vec::new(), name: String::from("circuit") }
    }

    /// Creates an empty circuit with both quantum and classical registers.
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit { num_qubits, num_clbits, ops: Vec::new(), name: String::from("circuit") }
    }

    /// Sets a human-readable name used in harness reports.
    pub fn set_name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits in the circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits in the circuit.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The operations of the circuit in program order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations (gates, measurements, resets, barriers).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the circuit contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reserves room for at least `additional` more operations.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.ops.reserve(additional);
        self
    }

    /// Grows the classical register to at least `n` bits.
    pub fn ensure_clbits(&mut self, n: usize) -> &mut Self {
        if n > self.num_clbits {
            self.num_clbits = n;
        }
        self
    }

    /// Appends an operation after validating its qubit and classical-bit
    /// indices against this circuit's registers.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] or
    /// [`CircuitError::ClbitOutOfRange`] when an index exceeds the registers.
    pub fn try_push(&mut self, op: Operation) -> Result<&mut Self, CircuitError> {
        let qubits = match &op {
            Operation::Single { qubit, .. }
            | Operation::Measure { qubit, .. }
            | Operation::Reset { qubit } => std::slice::from_ref(qubit),
            Operation::Two { qubits, .. } => qubits.as_slice(),
            Operation::Barrier { qubits } => qubits.as_slice(),
        };
        for q in qubits {
            if q.index() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q.index(),
                    num_qubits: self.num_qubits,
                });
            }
        }
        if let Operation::Measure { clbit, .. } = op {
            if clbit >= self.num_clbits {
                return Err(CircuitError::ClbitOutOfRange { clbit, num_clbits: self.num_clbits });
            }
        }
        self.ops.push(op);
        Ok(self)
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation refers to a qubit or classical bit outside the
    /// circuit's registers. Use [`Circuit::try_push`] for a fallible variant.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        self.try_push(op).expect("operation refers to an out-of-range qubit or classical bit");
        self
    }

    fn push_gate(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        let ids: Vec<QubitId> = qubits.iter().copied().map(QubitId::new).collect();
        let op = Operation::gate(gate, &ids).expect("gate arity mismatch in builder");
        self.push(op)
    }

    // ---- single-qubit builders ------------------------------------------

    /// Appends an identity gate on `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range (as do all builder methods below).
    pub fn id(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::I, &[q])
    }

    /// Appends a Hadamard gate on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::H, &[q])
    }

    /// Appends a Pauli-X gate on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::X, &[q])
    }

    /// Appends a Pauli-Y gate on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Y, &[q])
    }

    /// Appends a Pauli-Z gate on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Z, &[q])
    }

    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::S, &[q])
    }

    /// Appends an S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Sdg, &[q])
    }

    /// Appends a T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::T, &[q])
    }

    /// Appends a T† gate on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::Tdg, &[q])
    }

    /// Appends a √X gate on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.push_gate(Gate::SqrtX, &[q])
    }

    /// Appends an X-rotation by `theta` on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::Rx(theta), &[q])
    }

    /// Appends a Y-rotation by `theta` on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::Ry(theta), &[q])
    }

    /// Appends a Z-rotation by `theta` on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::Rz(theta), &[q])
    }

    /// Appends a phase gate diag(1, e^{iλ}) on `q`.
    pub fn p(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::Phase(lambda), &[q])
    }

    /// Appends a general single-qubit gate U3(θ, φ, λ) on `q`.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.push_gate(Gate::U3(theta, phi, lambda), &[q])
    }

    // ---- two-qubit builders ----------------------------------------------

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push_gate(Gate::Cx, &[c, t])
    }

    /// Appends a controlled-Y with control `c` and target `t`.
    pub fn cy(&mut self, c: usize, t: usize) -> &mut Self {
        self.push_gate(Gate::Cy, &[c, t])
    }

    /// Appends a controlled-Z between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::Cz, &[a, b])
    }

    /// Appends a SWAP between `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::Swap, &[a, b])
    }

    /// Appends an RZZ(θ) interaction between `a` and `b`.
    pub fn rzz(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::Rzz(theta), &[a, b])
    }

    /// Appends an RXX(θ) interaction between `a` and `b`.
    pub fn rxx(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::Rxx(theta), &[a, b])
    }

    /// Appends an RYY(θ) interaction between `a` and `b`.
    pub fn ryy(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::Ryy(theta), &[a, b])
    }

    /// Appends a controlled-phase gate diag(1,1,1,e^{iλ}) between `a` and `b`.
    pub fn cp(&mut self, lambda: f64, a: usize, b: usize) -> &mut Self {
        self.push_gate(Gate::CPhase(lambda), &[a, b])
    }

    /// Appends a Toffoli (CCX) gate decomposed into single- and two-qubit
    /// gates (standard 6-CNOT + T decomposition), since the IR is restricted
    /// to at most two-qubit gates.
    pub fn ccx(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.h(t)
            .cx(c2, t)
            .tdg(t)
            .cx(c1, t)
            .t(t)
            .cx(c2, t)
            .tdg(t)
            .cx(c1, t)
            .t(c2)
            .t(t)
            .h(t)
            .cx(c1, c2)
            .t(c1)
            .tdg(c2)
            .cx(c1, c2)
    }

    // ---- non-unitary builders --------------------------------------------

    /// Appends a measurement of `q` into classical bit `c`, growing the
    /// classical register if needed.
    pub fn measure(&mut self, q: usize, c: usize) -> &mut Self {
        self.ensure_clbits(c + 1);
        self.push(Operation::Measure { qubit: QubitId::new(q), clbit: c })
    }

    /// Appends a measurement of every qubit into classical bits `0..n`.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(q, q);
        }
        self
    }

    /// Appends a reset of `q` to |0⟩.
    pub fn reset(&mut self, q: usize) -> &mut Self {
        self.push(Operation::Reset { qubit: QubitId::new(q) })
    }

    /// Appends a barrier across all qubits.
    pub fn barrier(&mut self) -> &mut Self {
        let qubits = (0..self.num_qubits).map(QubitId::new).collect();
        self.push(Operation::Barrier { qubits })
    }

    // ---- derived helpers --------------------------------------------------

    /// Appends an XX-interaction `exp(-iθ/2 X⊗X)` realised with Hadamard
    /// conjugation around an RZZ, keeping the two-qubit part a single
    /// gate-cuttable RZZ.
    pub fn xx_via_rzz(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.h(a).h(b).rzz(theta, a, b).h(a).h(b)
    }

    /// Appends a YY-interaction `exp(-iθ/2 Y⊗Y)` realised with basis-change
    /// conjugation around an RZZ.
    pub fn yy_via_rzz(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.rx(FRAC_PI_2, a).rx(FRAC_PI_2, b).rzz(theta, a, b).rx(-FRAC_PI_2, a).rx(-FRAC_PI_2, b)
    }

    /// Appends every operation of `other` to this circuit.
    ///
    /// # Panics
    ///
    /// Panics if `other` has more qubits or classical bits than this circuit.
    pub fn compose(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot compose a {}-qubit circuit into a {}-qubit circuit",
            other.num_qubits,
            self.num_qubits
        );
        self.ensure_clbits(other.num_clbits);
        for op in &other.ops {
            self.push(op.clone());
        }
        self
    }

    /// Returns the adjoint of the unitary part of this circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NonUnitaryOperation`] if the circuit contains
    /// a measurement or reset.
    pub fn inverse(&self) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::new(self.num_qubits);
        out.set_name(format!("{}_dg", self.name));
        for (i, op) in self.ops.iter().enumerate().rev() {
            match op {
                Operation::Single { gate, qubit } => {
                    out.push(Operation::Single { gate: gate.dagger(), qubit: *qubit });
                }
                Operation::Two { gate, qubits } => {
                    out.push(Operation::Two { gate: gate.dagger(), qubits: *qubits });
                }
                Operation::Barrier { qubits } => {
                    out.push(Operation::Barrier { qubits: qubits.clone() });
                }
                _ => return Err(CircuitError::NonUnitaryOperation { index: i }),
            }
        }
        Ok(out)
    }

    /// Returns a copy of this circuit without measurements, resets and
    /// barriers (only the unitary gates).
    pub fn without_non_unitary(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        out.set_name(self.name.clone());
        for op in &self.ops {
            if op.is_gate() {
                out.push(op.clone());
            }
        }
        out
    }

    /// Whether the circuit contains only unitary gates.
    pub fn is_unitary_only(&self) -> bool {
        self.ops.iter().all(Operation::is_gate)
    }

    /// The circuit depth: the length of the longest chain of operations on
    /// any wire (barriers are excluded).
    pub fn depth(&self) -> usize {
        let mut reach = vec![0usize; self.num_qubits];
        for op in &self.ops {
            if op.is_barrier() {
                continue;
            }
            let qs = op.qubits();
            let level = qs.iter().map(|q| reach[q.index()]).max().unwrap_or(0) + 1;
            for q in qs {
                reach[q.index()] = level;
            }
        }
        reach.into_iter().max().unwrap_or(0)
    }

    /// Total number of unitary gates.
    pub fn gate_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_gate()).count()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_two_qubit_gate()).count()
    }

    /// Number of single-qubit gates.
    pub fn single_qubit_gate_count(&self) -> usize {
        self.gate_count() - self.two_qubit_gate_count()
    }

    /// Per-gate-name operation counts, e.g. `{"cx": 4, "h": 3}`.
    pub fn count_ops(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for op in &self.ops {
            let name = match op {
                Operation::Single { gate, .. } | Operation::Two { gate, .. } => gate.name(),
                Operation::Measure { .. } => "measure",
                Operation::Reset { .. } => "reset",
                Operation::Barrier { .. } => "barrier",
            };
            *counts.entry(name).or_insert(0) += 1;
        }
        counts
    }

    /// The set of qubits that are touched by at least one operation.
    pub fn active_qubits(&self) -> Vec<QubitId> {
        let mut used = vec![false; self.num_qubits];
        for op in &self.ops {
            for q in op.qubits() {
                used[q.index()] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(i, &u)| if u { Some(QubitId::new(i)) } else { None })
            .collect()
    }

    /// Number of qubits touched by at least one operation.
    pub fn active_qubit_count(&self) -> usize {
        self.active_qubits().len()
    }

    /// Density of two-qubit gates: two-qubit gates per qubit.
    pub fn two_qubit_density(&self) -> f64 {
        if self.num_qubits == 0 {
            0.0
        } else {
            self.two_qubit_gate_count() as f64 / self.num_qubits as f64
        }
    }

    /// A 64-bit structural fingerprint of the circuit: qubit/clbit counts plus
    /// every operation (gate name, exact parameter bits, qubit and classical
    /// bit indices), in program order. The circuit's *name* is deliberately
    /// excluded — two circuits that execute identically hash identically.
    ///
    /// Execution-layer caches key on this hash (verifying equality on the rare
    /// bucket collision) instead of serialising circuits to QASM strings.
    pub fn structural_hash(&self) -> u64 {
        // FNV-1a over a canonical byte encoding of the circuit structure.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.num_qubits as u64);
        mix(self.num_clbits as u64);
        for op in &self.ops {
            match op {
                Operation::Single { gate, qubit } => {
                    mix(1);
                    hash_gate(gate, &mut mix);
                    mix(qubit.index() as u64);
                }
                Operation::Two { gate, qubits } => {
                    mix(2);
                    hash_gate(gate, &mut mix);
                    mix(qubits[0].index() as u64);
                    mix(qubits[1].index() as u64);
                }
                Operation::Measure { qubit, clbit } => {
                    mix(3);
                    mix(qubit.index() as u64);
                    mix(*clbit as u64);
                }
                Operation::Reset { qubit } => {
                    mix(4);
                    mix(qubit.index() as u64);
                }
                Operation::Barrier { qubits } => {
                    mix(5);
                    mix(qubits.len() as u64);
                    for q in qubits {
                        mix(q.index() as u64);
                    }
                }
            }
        }
        h
    }

    /// Whether two circuits execute identically: equal qubit/clbit counts and
    /// equal operation sequences, ignoring the circuit *name* — the equality
    /// counterpart of [`Circuit::structural_hash`]. Dedup layers must use this
    /// (not `PartialEq`, which compares names) so that e.g. two fragments'
    /// structurally identical variants collapse to one execution.
    pub fn structurally_equal(&self, other: &Circuit) -> bool {
        self.num_qubits == other.num_qubits
            && self.num_clbits == other.num_clbits
            && self.ops == other.ops
    }
}

/// Feeds a gate's identity (name pointer-independent) and exact parameter
/// bit patterns into a hash accumulator.
fn hash_gate(gate: &crate::Gate, mix: &mut impl FnMut(u64)) {
    for byte in gate.name().bytes() {
        mix(byte as u64);
    }
    for param in gate.params() {
        mix(param.to_bits());
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} qubits, {} clbits]", self.name, self.num_qubits, self.num_clbits)?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cz(1, 2).rz(0.3, 2).measure_all();
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.single_qubit_gate_count(), 2);
        assert_eq!(c.num_clbits(), 3);
        assert_eq!(c.count_ops()["measure"], 3);
    }

    #[test]
    fn depth_counts_longest_wire_chain() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        assert_eq!(c.depth(), 1);
        c.cx(0, 1);
        assert_eq!(c.depth(), 2);
        c.h(0).h(0);
        assert_eq!(c.depth(), 4);
    }

    #[test]
    fn depth_ignores_barriers() {
        let mut c = Circuit::new(2);
        c.h(0).barrier().h(0);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn builder_panics_on_bad_qubit() {
        let mut c = Circuit::new(2);
        c.h(5);
    }

    #[test]
    fn try_push_rejects_out_of_range_clbit() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Operation::Measure { qubit: QubitId::new(0), clbit: 3 });
        assert!(matches!(err, Err(CircuitError::ClbitOutOfRange { .. })));
    }

    #[test]
    fn inverse_reverses_and_daggers() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1).rz(0.7, 1);
        let inv = c.inverse().unwrap();
        assert_eq!(inv.gate_count(), 4);
        // last gate of the inverse is the dagger of the first gate
        match inv.operations().last().unwrap() {
            Operation::Single { gate, .. } => assert_eq!(*gate, Gate::H),
            other => panic!("unexpected op {other:?}"),
        }
        match inv.operations().first().unwrap() {
            Operation::Single { gate, .. } => assert_eq!(*gate, Gate::Rz(-0.7)),
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn inverse_rejects_measurements() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0);
        assert!(matches!(c.inverse(), Err(CircuitError::NonUnitaryOperation { .. })));
    }

    #[test]
    fn compose_appends_operations() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.compose(&b);
        assert_eq!(a.gate_count(), 2);
    }

    #[test]
    fn ccx_decomposition_uses_only_one_and_two_qubit_gates() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert!(c.operations().iter().all(|op| op.qubits().len() <= 2));
        assert_eq!(c.two_qubit_gate_count(), 6);
    }

    #[test]
    fn active_qubits_tracks_touched_wires() {
        let mut c = Circuit::new(5);
        c.h(1).cx(1, 3);
        assert_eq!(c.active_qubit_count(), 2);
        assert_eq!(c.active_qubits(), vec![QubitId::new(1), QubitId::new(3)]);
    }

    #[test]
    fn without_non_unitary_strips_measurements() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0).reset(0).cx(0, 1);
        let stripped = c.without_non_unitary();
        assert!(stripped.is_unitary_only());
        assert_eq!(stripped.gate_count(), 2);
    }

    #[test]
    fn display_lists_operations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let text = c.to_string();
        assert!(text.contains("h q0"));
        assert!(text.contains("cx q0,q1"));
    }

    #[test]
    fn structural_hash_distinguishes_structure_not_names() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).measure_all();
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).measure_all();
        b.set_name("renamed");
        assert_eq!(a.structural_hash(), b.structural_hash(), "names must not matter");

        let mut c = Circuit::new(2);
        c.h(0).cx(1, 0).measure_all(); // swapped operands
        assert_ne!(a.structural_hash(), c.structural_hash());

        let mut d = Circuit::new(2);
        d.h(0).cx(0, 1); // missing measurements
        assert_ne!(a.structural_hash(), d.structural_hash());

        let mut e = Circuit::new(2);
        e.rz(0.5, 0).cx(0, 1).measure_all();
        let mut f = Circuit::new(2);
        f.rz(0.5 + 1e-12, 0).cx(0, 1).measure_all(); // parameter bits differ
        assert_ne!(e.structural_hash(), f.structural_hash());
    }
}
