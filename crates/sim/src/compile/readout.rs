//! Exact readout: which measurements have to branch, and the walk over the
//! ones that do.
//!
//! By the deferred-measurement principle a `Measure { qubit, clbit }` that
//! nothing later depends on can be read off the final state instead of
//! collapsing it. [`Measurements::classify`] finds those in one reverse
//! pass:
//!
//! * a measure is **terminal** when no later step touches `qubit` (gate,
//!   measure or reset — barriers touch nothing) and no later measure writes
//!   `clbit`;
//! * every other measure — a reuse-style measure→reset, a wire measured
//!   twice (the earlier one), a clbit written twice (the earlier write) —
//!   and every reset is a **branch point**.
//!
//! The walk then splits the state at branch points only, depth first, and at
//! each leaf marginalises `|ψ|²` onto the terminal clbits. A leaf costs
//! O(2^n); there are at most 2^(branch points) leaves and one state buffer
//! per live depth, so a circuit whose measurements are all terminal is read
//! out in a single sweep.

use super::{CompileStats, Kernel};
use crate::branching::BRANCH_PRUNE;
use crate::StateVector;
use qrcc_circuit::{Circuit, Gate, Operation, QubitId};

/// What the classifier sees of one kernel or operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A unitary on one or two wires (`[q, q]` for one).
    Gate([usize; 2]),
    Measure {
        qubit: usize,
        clbit: usize,
    },
    Reset {
        qubit: usize,
    },
}

impl Step {
    /// The step of `op`; `None` for a barrier, which touches no wire.
    fn of_operation(op: &Operation) -> Option<Step> {
        match op {
            Operation::Single { qubit, .. } => Some(Step::Gate([qubit.index(); 2])),
            Operation::Two { qubits, .. } => {
                Some(Step::Gate([qubits[0].index(), qubits[1].index()]))
            }
            Operation::Measure { qubit, clbit } => {
                Some(Step::Measure { qubit: qubit.index(), clbit: *clbit })
            }
            Operation::Reset { qubit } => Some(Step::Reset { qubit: qubit.index() }),
            Operation::Barrier { .. } => None,
        }
    }
}

impl From<&Kernel> for Step {
    fn from(kernel: &Kernel) -> Step {
        match *kernel {
            Kernel::Unary { qubit, .. }
            | Kernel::Diag1 { qubit, .. }
            | Kernel::Flip1 { qubit, .. } => Step::Gate([qubit; 2]),
            Kernel::Diag2 { qa, qb, .. }
            | Kernel::SwapPerm { qa, qb }
            | Kernel::Two { qa, qb, .. } => Step::Gate([qa, qb]),
            Kernel::CFlip { control, target, .. } => Step::Gate([control, target]),
            Kernel::Measure { qubit, clbit, .. } => Step::Measure { qubit, clbit },
            Kernel::Reset { qubit, .. } => Step::Reset { qubit },
        }
    }
}

/// The measurements and resets of a step sequence, classified.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Measurements {
    /// `(qubit, clbit)` of every terminal measure, in program order. No
    /// qubit and no clbit appears twice.
    pub terminal: Vec<(usize, usize)>,
    /// Positions (indices into the classified steps) of every non-terminal
    /// measure and every reset, ascending.
    pub branch_points: Vec<usize>,
    /// Whether a wire is reset, or used again after being measured — what
    /// needs mid-circuit measurement hardware. A measure that branches only
    /// because its clbit is overwritten does not.
    pub reuses_wires: bool,
}

impl Measurements {
    /// Classifies `steps` in one reverse pass (see the module docs).
    fn classify(num_qubits: usize, num_clbits: usize, steps: &[Step]) -> Self {
        let mut touched = vec![false; num_qubits];
        let mut written = vec![false; num_clbits];
        let mut out = Measurements::default();
        for (position, step) in steps.iter().enumerate().rev() {
            match *step {
                Step::Gate(qubits) => {
                    for q in qubits {
                        touched[q] = true;
                    }
                }
                Step::Measure { qubit, clbit } => {
                    if touched[qubit] || written[clbit] {
                        out.branch_points.push(position);
                        out.reuses_wires |= touched[qubit];
                    } else {
                        out.terminal.push((qubit, clbit));
                    }
                    touched[qubit] = true;
                    written[clbit] = true;
                }
                Step::Reset { qubit } => {
                    out.branch_points.push(position);
                    out.reuses_wires = true;
                    touched[qubit] = true;
                }
            }
        }
        out.terminal.reverse();
        out.branch_points.reverse();
        out
    }

    /// Classifies the operations of a circuit (barriers skipped).
    pub(crate) fn of_circuit(circuit: &Circuit) -> Self {
        let steps: Vec<Step> = circuit.operations().iter().filter_map(Step::of_operation).collect();
        Self::classify(circuit.num_qubits(), circuit.num_clbits(), &steps)
    }

    /// Classifies a kernel sequence; branch points index into it.
    pub(super) fn of_kernels<'k>(
        num_qubits: usize,
        num_clbits: usize,
        kernels: impl Iterator<Item = &'k Kernel>,
    ) -> Self {
        let steps: Vec<Step> = kernels.map(Step::from).collect();
        Self::classify(num_qubits, num_clbits, &steps)
    }

    /// Records the classification in `stats`.
    pub(super) fn count_into(&self, stats: &mut CompileStats) {
        stats.terminal_measures += self.terminal.len() as u64;
        stats.branch_points += self.branch_points.len() as u64;
    }
}

/// The exact distribution over a program's classical bits, with the number
/// of leaves the walk visited to build it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactReadout {
    /// Entry `k` is the probability of the clbit pattern whose bit `i` is
    /// bit `i` of `k`; bits never written read 0.
    pub distribution: Vec<f64>,
    /// Measurement branches that survived pruning — `1` for a program whose
    /// measurements are all terminal, at most `2^branch_points`.
    pub leaves: u64,
}

/// One depth-first readout of a kernel sequence from |0…0⟩.
pub(super) struct Walk<'a> {
    kernels: &'a [&'a Kernel],
    branch_points: &'a [usize],
    /// Clbit mask of a basis index's low and high halves under the terminal
    /// `(qubit, clbit)` map: `deposit(i) = low[i % low.len()] | high[i / low.len()]`.
    low: Vec<usize>,
    high: Vec<usize>,
    /// Every clbit a terminal measure writes (it overwrites a branch's bit).
    terminal_clbits: usize,
    /// State buffers of finished siblings, reused by the next copy.
    spare: Vec<StateVector>,
    out: ExactReadout,
}

impl<'a> Walk<'a> {
    pub(super) fn new(
        kernels: &'a [&'a Kernel],
        measurements: &'a Measurements,
        num_qubits: usize,
        num_clbits: usize,
    ) -> Self {
        let mut clbit_of = vec![0usize; num_qubits];
        for &(qubit, clbit) in &measurements.terminal {
            clbit_of[qubit] = 1 << clbit;
        }
        let table = |wires: &[usize]| {
            let mut masks = vec![0usize; 1 << wires.len()];
            for v in 1..masks.len() {
                masks[v] = masks[v & (v - 1)] | wires[v.trailing_zeros() as usize];
            }
            masks
        };
        let (low_wires, high_wires) = clbit_of.split_at(num_qubits / 2);
        Walk {
            kernels,
            branch_points: &measurements.branch_points,
            low: table(low_wires),
            high: table(high_wires),
            terminal_clbits: clbit_of.iter().fold(0, |all, mask| all | mask),
            spare: Vec::new(),
            out: ExactReadout { distribution: vec![0.0; 1 << num_clbits], leaves: 0 },
        }
    }

    pub(super) fn run(mut self, mut root: StateVector) -> ExactReadout {
        self.descend(&mut root, 0, 0, 1.0, 0);
        self.out
    }

    /// Runs `kernels[from..]` on `state` (a normalised branch of probability
    /// `weight` that recorded `bits`), splitting at `branch_points[branch..]`.
    fn descend(
        &mut self,
        state: &mut StateVector,
        from: usize,
        branch: usize,
        weight: f64,
        bits: usize,
    ) {
        let until = self.branch_points.get(branch).copied().unwrap_or(self.kernels.len());
        // a control kernel short of the next branch point is a terminal measure
        for kernel in self.kernels[from..until].iter().filter(|k| !k.is_control()) {
            kernel.apply(state.amps_mut());
        }
        let (qubit, clbit) = match self.kernels.get(until) {
            None => return self.leaf(state, weight, bits),
            Some(Kernel::Measure { qubit, clbit, .. }) => (QubitId::new(*qubit), Some(*clbit)),
            Some(Kernel::Reset { qubit, .. }) => (QubitId::new(*qubit), None),
            Some(other) => unreachable!("branch point at a unitary kernel: {other:?}"),
        };
        let probabilities = state.outcome_probabilities(qubit);
        let child = |walk: &mut Self, state: &mut StateVector, outcome: bool| {
            let probability = probabilities[usize::from(outcome)];
            state.collapse(qubit, outcome, probability);
            let bits = match clbit {
                Some(c) => (bits & !(1 << c)) | (usize::from(outcome) << c),
                None => {
                    if outcome {
                        state.apply_gate(&Gate::X, &[qubit]);
                    }
                    bits
                }
            };
            walk.descend(state, until + 1, branch + 1, weight * probability, bits);
        };
        // Outcome 1 (or a lone outcome 0) collapses this depth's own buffer;
        // only a surviving sibling is worth a copy.
        let survives = probabilities.map(|p| p > BRANCH_PRUNE);
        if survives[0] && survives[1] {
            let mut copy = match self.spare.pop() {
                Some(mut buffer) => {
                    buffer.amps_mut().copy_from_slice(state.amplitudes());
                    buffer
                }
                None => state.clone(),
            };
            child(self, &mut copy, false);
            self.spare.push(copy);
        } else if survives[0] {
            child(self, state, false);
        }
        if survives[1] {
            child(self, state, true);
        }
    }

    fn leaf(&mut self, state: &StateVector, weight: f64, bits: usize) {
        self.out.leaves += 1;
        let bits = bits & !self.terminal_clbits;
        for (block, high) in state.amplitudes().chunks(self.low.len()).zip(&self.high) {
            let key = bits | high;
            for (amplitude, low) in block.iter().zip(&self.low) {
                self.out.distribution[key | low] += weight * amplitude.norm_sqr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_measurement_shape_classifies_as_documented() {
        // terminal measures and an unmeasured wire: nothing branches
        let mut c = Circuit::with_clbits(3, 2);
        c.h(0).cx(0, 1).cx(1, 2).measure(0, 0).measure(1, 1);
        let m = Measurements::of_circuit(&c);
        assert_eq!(m.terminal, vec![(0, 0), (1, 1)]);
        assert!(m.branch_points.is_empty() && !m.reuses_wires);

        // a measure followed only by a barrier is still terminal
        let mut c = Circuit::with_clbits(2, 1);
        c.h(0).measure(0, 0).barrier();
        let m = Measurements::of_circuit(&c);
        assert_eq!(m.terminal, vec![(0, 0)]);
        assert!(m.branch_points.is_empty());

        // a later gate on another wire does not demote a measure
        let mut c = Circuit::with_clbits(2, 1);
        c.h(0).measure(0, 0).h(1);
        assert_eq!(Measurements::of_circuit(&c).terminal, vec![(0, 0)]);

        // mid-circuit measure: the wire is used again
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0).measure(0, 0).h(0).measure(0, 1);
        let m = Measurements::of_circuit(&c);
        assert_eq!(m.terminal, vec![(0, 1)]);
        assert_eq!(m.branch_points, vec![1]);
        assert!(m.reuses_wires);

        // reuse: measure -> reset -> fresh logical qubit; both branch
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0).measure(0, 0).reset(0).h(0).measure(0, 1);
        let m = Measurements::of_circuit(&c);
        assert_eq!(m.terminal, vec![(0, 1)]);
        assert_eq!(m.branch_points, vec![1, 2]);
        assert!(m.reuses_wires);

        // a wire measured twice: only the last readout is terminal
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0).measure(0, 0).measure(0, 1);
        let m = Measurements::of_circuit(&c);
        assert_eq!(m.terminal, vec![(0, 1)]);
        assert_eq!(m.branch_points, vec![1]);
        assert!(m.reuses_wires);

        // a clbit written twice: the earlier write branches, but no wire is
        // reused, so the circuit needs no mid-circuit hardware
        let mut c = Circuit::with_clbits(2, 1);
        c.h(0).h(1).measure(0, 0).measure(1, 0);
        let m = Measurements::of_circuit(&c);
        assert_eq!(m.terminal, vec![(1, 0)]);
        assert_eq!(m.branch_points, vec![2]);
        assert!(!m.reuses_wires);

        // a lone reset is a branch point and reuses its wire
        let mut c = Circuit::with_clbits(1, 1);
        c.reset(0);
        let m = Measurements::of_circuit(&c);
        assert_eq!(m.branch_points, vec![0]);
        assert!(m.reuses_wires);
    }

    #[test]
    fn kernels_and_operations_classify_alike() {
        let mut c = Circuit::with_clbits(2, 3);
        c.h(0).cx(0, 1).measure(0, 0).reset(0).h(0).measure(0, 1).measure(1, 2);
        let from_ops = Measurements::of_circuit(&c);
        let program = super::super::FramedProgram::compile(&c);
        assert_eq!(program.readout_map(), &from_ops.terminal[..]);
        assert_eq!(program.stats().terminal_measures, 2);
        assert_eq!(program.stats().branch_points, 2);
    }
}
