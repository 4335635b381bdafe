//! Readout: which measurements have to branch, and the one walk over the
//! ones that do — exact or sampled.
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
//! The walk then splits the state at branch points only, depth first, with
//! one state buffer per live depth, and hands each leaf's final state to
//! what it [`Carry`]s:
//!
//! * a **weight** ([`Exact`]): each outcome gets `weight·p`, a leaf
//!   marginalises `weight·|ψ|²` onto the terminal clbits. A leaf costs
//!   O(2^n) and there are at most 2^(branch points) of them, so a circuit
//!   whose measurements are all terminal is read out in a single sweep.
//! * a number of **shots** ([`Sampled`]): a branch point deals its shots to
//!   the two outcomes with one binomial draw, only outcomes that were dealt
//!   a shot are descended, and a leaf deals its shots over `|ψ|²` as one
//!   multinomial (recursive halving of the basis-index range, one binomial
//!   draw per node that holds shots). At most `min(shots, 2^(branch
//!   points))` leaves, so never more sweeps than one trajectory per shot
//!   would make, and no cost grows with the shots themselves:
//!   O(leaves·K·2^n) for `K` kernels, plus one binomial draw per visited
//!   node — each O(1) expected.
//!   What a leaf deals lands in a [`ShotSink`]: a sparse [`Counts`] map or
//!   a [`DenseCounts`](crate::DenseCounts) vector, the same draws either
//!   way.

use super::Kernel;
use crate::binomial::binomial;
use crate::branching::BRANCH_PRUNE;
use crate::statevector::Multinomial;
use crate::{Counts, ShotSink, StateVector};
use qrcc_circuit::{Circuit, Gate, Operation, QubitId};
use rand::Rng;

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
    pub(super) fn of_kernels(num_qubits: usize, num_clbits: usize, kernels: &[Kernel]) -> Self {
        let steps: Vec<Step> = kernels.iter().map(Step::from).collect();
        Self::classify(num_qubits, num_clbits, &steps)
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

/// Shots over a program's classical bits, in the [`ShotSink`] `S` — a
/// [`Counts`] histogram unless asked otherwise — with the number of leaves
/// the walk visited to draw them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledReadout<S = Counts> {
    /// The sampled clbit patterns, keyed as [`ExactReadout::distribution`]
    /// is indexed; they hold every shot asked for.
    pub counts: S,
    /// Measurement branches that received at least one shot — `1` for a
    /// program whose measurements are all terminal, at most
    /// `min(shots, 2^branch_points)`.
    pub leaves: u64,
}

/// Where a leaf's basis indices land among the clbit patterns, under the
/// terminal `(qubit, clbit)` map.
pub(super) struct Deposit {
    /// Clbit mask of a basis index's low and high halves:
    /// `of(i) = low[i % low.len()] | high[i / low.len()]`.
    low: Vec<usize>,
    high: Vec<usize>,
    /// Every clbit a terminal measure writes (it overwrites a branch's bit).
    terminal_clbits: usize,
}

impl Deposit {
    fn new(terminal: &[(usize, usize)], num_qubits: usize) -> Self {
        let mut clbit_of = vec![0usize; num_qubits];
        for &(qubit, clbit) in terminal {
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
        Deposit {
            low: table(low_wires),
            high: table(high_wires),
            terminal_clbits: clbit_of.iter().fold(0, |all, mask| all | mask),
        }
    }

    fn of(&self, index: usize) -> usize {
        self.low[index % self.low.len()] | self.high[index / self.low.len()]
    }
}

/// What a walk carries from the root down to its leaves — the one thing the
/// exact and the sampled readout differ in.
pub(super) trait Carry {
    /// A node's share of what the root started with.
    type Share: Copy;

    /// Splits the `share` of a node between its outcomes 0 and 1, of
    /// probabilities `p`; an outcome given `None` is not descended.
    fn split(&mut self, share: Self::Share, p: [f64; 2]) -> [Option<Self::Share>; 2];

    /// Absorbs a leaf: `state` is its normalised final state, `bits` the
    /// clbits its branch recorded that no terminal measure overwrites.
    fn leaf(&mut self, deposit: &Deposit, state: &StateVector, share: Self::Share, bits: usize);
}

/// Carries a probability weight; a leaf adds `weight·|ψ|²` to the
/// distribution. Outcomes at or below [`BRANCH_PRUNE`] are dropped.
pub(super) struct Exact {
    distribution: Vec<f64>,
}

impl Carry for Exact {
    type Share = f64;

    fn split(&mut self, weight: f64, p: [f64; 2]) -> [Option<f64>; 2] {
        p.map(|p| (p > BRANCH_PRUNE).then_some(weight * p))
    }

    fn leaf(&mut self, deposit: &Deposit, state: &StateVector, weight: f64, bits: usize) {
        for (block, high) in state.amplitudes().chunks(deposit.low.len()).zip(&deposit.high) {
            let key = bits | high;
            for (amplitude, low) in block.iter().zip(&deposit.low) {
                self.distribution[key | low] += weight * amplitude.norm_sqr();
            }
        }
    }
}

/// Carries a number of shots; a branch point deals them to its outcomes
/// with one binomial draw (the Binomial(shots, p₁) that one
/// [`StateVector::measure`] per shot would make), a leaf deals them over
/// `|ψ|²` as one multinomial (the draw [`StateVector::sample_counts`]
/// makes) into `sink`. Only outcomes that were dealt a shot are descended.
pub(super) struct Sampled<'r, R, S> {
    rng: &'r mut R,
    sink: S,
    multinomial: Multinomial,
}

impl<R: Rng, S: ShotSink> Carry for Sampled<'_, R, S> {
    type Share = u64;

    fn split(&mut self, shots: u64, p: [f64; 2]) -> [Option<u64>; 2] {
        // an outcome of probability exactly 0 is dealt nothing, whatever
        // rounding left of the other's
        let ones = if p[0] <= 0.0 { shots } else { binomial(self.rng, shots, p[1]) };
        [shots - ones, ones].map(|dealt| (dealt > 0).then_some(dealt))
    }

    fn leaf(&mut self, deposit: &Deposit, state: &StateVector, shots: u64, bits: usize) {
        let sink = &mut self.sink;
        self.multinomial.deal(state.amplitudes(), shots, self.rng, |index, shots| {
            sink.record((bits | deposit.of(index)) as u64, shots)
        });
    }
}

/// One depth-first readout of a kernel sequence from |0…0⟩.
pub(super) struct Walk<'a, C> {
    kernels: &'a [Kernel],
    branch_points: &'a [usize],
    deposit: Deposit,
    /// State buffers of finished siblings, reused by the next copy.
    spare: Vec<StateVector>,
    leaves: u64,
    carry: C,
}

impl<'a, C: Carry> Walk<'a, C> {
    /// Walks `kernels` from `root`, which holds `share`; returns what was
    /// carried and the number of leaves it reached.
    fn run(
        kernels: &'a [Kernel],
        measurements: &'a Measurements,
        mut root: StateVector,
        carry: C,
        share: C::Share,
    ) -> (C, u64) {
        let mut walk = Walk {
            kernels,
            branch_points: &measurements.branch_points,
            deposit: Deposit::new(&measurements.terminal, root.num_qubits()),
            spare: Vec::new(),
            leaves: 0,
            carry,
        };
        walk.descend(&mut root, 0, 0, share, 0);
        (walk.carry, walk.leaves)
    }

    /// Runs `kernels[from..]` on `state` (a normalised branch holding
    /// `share`, that recorded `bits`), splitting at `branch_points[branch..]`.
    fn descend(
        &mut self,
        state: &mut StateVector,
        from: usize,
        branch: usize,
        share: C::Share,
        bits: usize,
    ) {
        let until = self.branch_points.get(branch).copied().unwrap_or(self.kernels.len());
        // a control kernel short of the next branch point is a terminal measure
        for kernel in self.kernels[from..until].iter().filter(|k| !k.is_control()) {
            kernel.apply(state.amps_mut());
        }
        let (qubit, clbit) = match self.kernels.get(until) {
            None => {
                self.leaves += 1;
                let bits = bits & !self.deposit.terminal_clbits;
                return self.carry.leaf(&self.deposit, state, share, bits);
            }
            Some(Kernel::Measure { qubit, clbit, .. }) => (QubitId::new(*qubit), Some(*clbit)),
            Some(Kernel::Reset { qubit, .. }) => (QubitId::new(*qubit), None),
            Some(other) => unreachable!("branch point at a unitary kernel: {other:?}"),
        };
        let probabilities = state.outcome_probabilities(qubit);
        let child = |walk: &mut Self, state: &mut StateVector, outcome: bool, share: C::Share| {
            state.collapse(qubit, outcome, probabilities[usize::from(outcome)]);
            let bits = match clbit {
                Some(c) => (bits & !(1 << c)) | (usize::from(outcome) << c),
                None => {
                    if outcome {
                        state.apply_gate(&Gate::X, &[qubit]);
                    }
                    bits
                }
            };
            walk.descend(state, until + 1, branch + 1, share, bits);
        };
        // Outcome 1 (or a lone outcome 0) collapses this depth's own buffer;
        // only a second descended outcome is worth a copy.
        match self.carry.split(share, probabilities) {
            [Some(zero), Some(one)] => {
                let mut copy = match self.spare.pop() {
                    Some(mut buffer) => {
                        buffer.amps_mut().copy_from_slice(state.amplitudes());
                        buffer
                    }
                    None => state.clone(),
                };
                child(self, &mut copy, false, zero);
                self.spare.push(copy);
                child(self, state, true, one);
            }
            [Some(zero), None] => child(self, state, false, zero),
            [None, Some(one)] => child(self, state, true, one),
            [None, None] => {}
        }
    }
}

/// The exact readout of `kernels` run from `root`.
pub(super) fn read_out(
    kernels: &[Kernel],
    measurements: &Measurements,
    num_clbits: usize,
    root: StateVector,
) -> ExactReadout {
    let carry = Exact { distribution: vec![0.0; 1 << num_clbits] };
    let (carry, leaves) = Walk::run(kernels, measurements, root, carry, 1.0);
    ExactReadout { distribution: carry.distribution, leaves }
}

/// `shots` sampled readouts of `kernels` run from `root`, drawn from `rng`
/// into `sink`.
pub(super) fn sample<S: ShotSink>(
    kernels: &[Kernel],
    measurements: &Measurements,
    root: StateVector,
    shots: u64,
    rng: &mut impl Rng,
    sink: S,
) -> SampledReadout<S> {
    let carry = Sampled { rng, sink, multinomial: Multinomial::default() };
    let (carry, leaves) = Walk::run(kernels, measurements, root, carry, shots);
    SampledReadout { counts: carry.sink, leaves }
}

#[cfg(test)]
mod tests {
    use super::super::FramedProgram;
    use super::*;
    use crate::SimError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// The two ends of `gen::<f64>()`: exactly 0 and `1 - 2^-53`.
    struct Constant(u64);
    impl rand::RngCore for Constant {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn an_all_terminal_program_makes_the_draws_of_sample_counts() {
        // q2 stays unmeasured and the clbits are a permutation of the wires
        let mut unitary = Circuit::with_clbits(3, 3);
        unitary.h(0).cx(0, 1).ry(0.9, 2).rx(0.4, 1);
        let mut measured = unitary.clone();
        measured.measure(0, 2).measure(1, 0);
        let program = FramedProgram::compile(&measured);
        let state = FramedProgram::compile(&unitary).run_unitary().unwrap();
        for seed in [0u64, 5, 77] {
            let sampled = program.sample(300, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(sampled.leaves, 1);
            let reference = state.sample_counts(300, &mut StdRng::seed_from_u64(seed)).unwrap();
            let mut expected = Counts::new(3);
            for (index, shots) in reference.iter() {
                expected.record((index & 1) << 2 | (index >> 1 & 1), shots);
            }
            assert_eq!(sampled.counts, expected, "seed {seed}");
        }
    }

    #[test]
    fn impossible_outcomes_and_basis_states_get_no_shot() {
        // measuring |1⟩ mid-circuit: outcome 0 has probability exactly 0 and
        // must be dealt nothing at either end of the draw, even once
        // rounding leaves p1 short of 1
        for word in [0, u64::MAX] {
            let mut carry = Sampled {
                rng: &mut Constant(word),
                sink: Counts::new(1),
                multinomial: Multinomial::default(),
            };
            assert_eq!(carry.split(9, [0.0, 1.0 - f64::EPSILON / 2.0]), [None, Some(9)]);
            assert_eq!(carry.split(9, [1.0, 0.0]), [Some(9), None]);
        }

        // a leaf with amplitude on |001⟩ and |011⟩ only, after a reset that
        // always reads 1: at either end of the draw the call returns, keeps
        // every shot and deals none to an empty entry
        let mut c = Circuit::with_clbits(3, 3);
        c.x(2).reset(2).x(0).h(1).measure(0, 0).measure(1, 1).measure(2, 2);
        let program = FramedProgram::compile(&c);
        for word in [0, u64::MAX] {
            let sampled = program.sample(10, &mut Constant(word)).unwrap();
            let possible = sampled.counts.count(0b001) + sampled.counts.count(0b011);
            assert_eq!((sampled.counts.shots(), possible, sampled.leaves), (10, 10, 1));
        }
    }

    #[test]
    fn sampling_needs_shots_and_clbits() {
        let mut c = Circuit::with_clbits(1, 1);
        c.h(0).measure(0, 0);
        let program = FramedProgram::compile(&c);
        assert_eq!(program.sample(0, &mut Constant(0)), Err(SimError::ZeroShots));
        let nothing = FramedProgram::compile(&Circuit::with_clbits(1, 0));
        assert_eq!(nothing.sample(5, &mut Constant(0)), Err(SimError::NothingToMeasure));
    }

    #[test]
    fn an_exact_readout_refuses_a_distribution_past_the_dense_cap() {
        // 2^31 values would not fit; 2^70 would wrap a shift to 2^6
        for clbits in [31, 40, 70] {
            let mut c = Circuit::with_clbits(1, clbits);
            c.h(0).measure(0, clbits - 1);
            let program = FramedProgram::compile(&c);
            let refused = SimError::TooManyClbits { required: clbits, available: 30 };
            assert_eq!(program.read_out().err(), Some(refused));
            if clbits <= 64 {
                let sampled = program.sample(4, &mut Constant(0)).unwrap();
                assert_eq!(sampled.counts.shots(), 4, "sparse counts hold {clbits} bits");
            }
        }
    }

    #[test]
    fn kernels_and_operations_classify_alike() {
        let mut c = Circuit::with_clbits(2, 3);
        c.h(0).cx(0, 1).measure(0, 0).reset(0).h(0).measure(0, 1).measure(1, 2);
        let from_ops = Measurements::of_circuit(&c);
        let program = FramedProgram::compile(&c);
        assert_eq!(program.readout_map(), &from_ops.terminal[..]);
        assert_eq!(program.stats().terminal_measures, 2);
        assert_eq!(program.stats().branch_points, 2);
    }
}
