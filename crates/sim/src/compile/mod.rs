//! Compile-then-execute: lowering circuits to flat fused-kernel programs.
//!
//! The interpreter, [`StateVector`], is the oracle: it applies a circuit one
//! [`Operation`] at a time, each gate one single-threaded pass over the
//! pairs or quads of amplitudes it touches, and shares no code with this
//! module. This module compiles the circuit **once** into a
//! [`FramedProgram`] — a flat list of [`Kernel`]s with its measurements
//! classified — and executes that instead:
//!
//! * **Fusion** — adjacent single-qubit gates on the same wire (including
//!   runs separated only by operations on *other* wires, which commute) are
//!   folded into one 2×2 matrix, so a run of `k` gates costs one sweep.
//!   Runs whose product is an exact identity are dropped entirely.
//! * **Specialization** — diagonal gates (Z/S/T/RZ/Phase, CZ/CP/RZZ) lower
//!   to multiply-only sweeps with no pair gathering; X-like anti-diagonal
//!   products and SWAP lower to index remaps; CX/CY lower to controlled
//!   flips that touch only half the array. Remaining two-qubit gates become
//!   cache-blocked 4-amplitude sweeps.
//! * **Parallelism** — every sweep is rayon-chunked above
//!   [`PAR_THRESHOLD`] amplitudes with disjoint
//!   per-chunk write sets, so results are bit-identical for any thread count.
//! * **Instruction set** — [`Kernel::apply`] runs the sweep bodies compiled
//!   for AVX2 where the CPU reports it at run time ([`avx2_sweeps`]) and the
//!   portable build elsewhere; the dense two-qubit class always runs
//!   portable. Both builds come from one source without fused multiply-add,
//!   so amplitudes are bit-identical whichever runs.
//! * **Compiled where it runs** — a backend compiles each circuit with
//!   [`FramedProgram::compile`] on the thread that runs it and keeps
//!   nothing: lowering is one linear pass, cheaper than looking a compiled
//!   body up under a shared lock, and a parameter sweep (every new angle a
//!   new circuit) leaves no compiled code resident. What it compiled is
//!   summed into [`CompileCounters`] with relaxed atomic adds.
//!
//! * **Readout** — each [`FramedProgram`] classifies its measurements once,
//!   in one reverse pass over its kernels: a measure is
//!   *terminal* when no later kernel touches its wire and no later measure
//!   rewrites its clbit; every other measure and every reset is a *branch
//!   point*. The exact readout ([`FramedProgram::read_out`]) and the
//!   sampled one ([`FramedProgram::sample`]) are **one walk** over the
//!   branch points, depth first with one state buffer per live depth: it
//!   carries a probability weight and marginalises each leaf's `|ψ|²` onto
//!   the terminal clbits — O(2^n) per leaf, at most 2^(branch points)
//!   leaves — or it carries a number of shots, deals them to the outcomes
//!   at each branch point with one binomial draw, descends only outcomes
//!   that were dealt one and deals each leaf's shots over its `|ψ|²` as one
//!   multinomial — at most min(shots, 2^(branch points)) leaves, no state
//!   is ever re-prepared per shot and no cost grows with the shots. An
//!   all-measured fragment is one sweep either way. The sampled walk deals
//!   into a [`ShotSink`]: a sparse [`Counts`] histogram
//!   ([`FramedProgram::sample`]) or, for a backend that returns dense
//!   probability vectors, a [`DenseCounts`](crate::DenseCounts) vector
//!   ([`FramedProgram::sample_into`]) — the same draws.
//!
//! [`CompileStats`] reports how much of the circuit lowered to fused or
//! specialized kernels and how its measurements classified; backends sum
//! it over what they ran and surface it through `ScheduleReport` in
//! `qrcc-core`.
//!
//! ```rust
//! use qrcc_circuit::Circuit;
//! use qrcc_sim::compile::FramedProgram;
//!
//! let mut c = Circuit::new(2);
//! c.h(0).t(0).h(0).cx(0, 1); // h·t·h fuses into one kernel
//! let program = FramedProgram::compile(&c);
//! assert_eq!(program.stats().gates_in, 4);
//! assert_eq!(program.stats().kernels_out, 2);
//! let sv = program.run_unitary().unwrap();
//! assert!((sv.norm() - 1.0).abs() < 1e-12);
//! ```
//!
//! [`Operation`]: qrcc_circuit::Operation

mod kernel;
mod readout;
mod stats;

pub use kernel::{avx2_sweeps, Kernel, PAR_THRESHOLD};
pub(crate) use readout::Measurements;
pub use readout::{ExactReadout, SampledReadout};
pub use stats::{CompileCounters, CompileStats, FamilyStats};

use crate::matrix::{matmul2, single_qubit_matrix, two_qubit_matrix, Matrix2};
use crate::{Complex, Counts, ShotSink, SimError, StateVector};
use qrcc_circuit::{Circuit, Gate, Operation};
use rand::Rng;
use stats::{Bucket, Tally};
use std::sync::OnceLock;

fn is_zero(c: Complex) -> bool {
    c.re == 0.0 && c.im == 0.0
}

fn is_one(c: Complex) -> bool {
    c.re == 1.0 && c.im == 0.0
}

/// A run of single-qubit gates on one wire, folded into one matrix.
struct Pending {
    m: Matrix2,
    /// Family ([`Gate::code`]) of the run's first gate: tallied when a
    /// second gate joins (every gate of a longer run is fused) or when the
    /// run is flushed alone.
    first: u8,
    len: u64,
}

/// Lowers `ops` into `kernels`, fusing and specializing, and tallies every
/// gate's outcome. `Measure`/`Reset` kernels carry their index in `ops`.
fn lower(num_qubits: usize, ops: &[Operation], kernels: &mut Vec<Kernel>, tally: &mut Tally) {
    let mut pending: Vec<Option<Pending>> = (0..num_qubits).map(|_| None).collect();
    for (op_index, op) in ops.iter().enumerate() {
        match op {
            Operation::Single { gate, qubit } => {
                let m = single_qubit_matrix(gate);
                let q = qubit.index();
                match &mut pending[q] {
                    // Later gates multiply from the left: state' = m · run · state.
                    Some(p) => {
                        p.m = matmul2(&m, &p.m);
                        if p.len == 1 {
                            tally.record_gate(p.first, Bucket::Fused);
                        }
                        tally.record_gate(gate.code(), Bucket::Fused);
                        p.len += 1;
                    }
                    None => pending[q] = Some(Pending { m, first: gate.code(), len: 1 }),
                }
            }
            Operation::Two { gate, qubits } => {
                flush(&mut pending, qubits[0].index(), kernels, tally);
                flush(&mut pending, qubits[1].index(), kernels, tally);
                lower_two(gate, qubits[0].index(), qubits[1].index(), kernels, tally);
            }
            Operation::Measure { qubit, clbit } => {
                flush(&mut pending, qubit.index(), kernels, tally);
                kernels.push(Kernel::Measure { qubit: qubit.index(), clbit: *clbit, op_index });
                tally.control_kernels += 1;
            }
            Operation::Reset { qubit } => {
                flush(&mut pending, qubit.index(), kernels, tally);
                kernels.push(Kernel::Reset { qubit: qubit.index(), op_index });
                tally.control_kernels += 1;
            }
            Operation::Barrier { .. } => {
                // An ordering fence: nothing fuses across a barrier.
                for q in 0..num_qubits {
                    flush(&mut pending, q, kernels, tally);
                }
            }
        }
    }
    for q in 0..num_qubits {
        flush(&mut pending, q, kernels, tally);
    }
}

/// Emits the pending fused run on qubit `q` (if any) as the most specialized
/// kernel its matrix admits. Zero tests are exact: gate matrices contain
/// exact 0.0 entries and products preserve them, so e.g. a run of diagonal
/// gates always classifies as diagonal.
fn flush(pending: &mut [Option<Pending>], q: usize, kernels: &mut Vec<Kernel>, tally: &mut Tally) {
    let Some(p) = pending[q].take() else { return };
    let m = p.m;
    let off_diag_zero = is_zero(m[0][1]) && is_zero(m[1][0]);
    let diag_zero = is_zero(m[0][0]) && is_zero(m[1][1]);
    let kernel = if off_diag_zero && is_one(m[0][0]) && is_one(m[1][1]) {
        tally.eliminated_gates += p.len;
        None
    } else if off_diag_zero {
        Some(Kernel::Diag1 { qubit: q, p0: m[0][0], p1: m[1][1] })
    } else if diag_zero {
        Some(Kernel::Flip1 { qubit: q, c01: m[0][1], c10: m[1][0] })
    } else {
        Some(Kernel::Unary { qubit: q, m })
    };
    // A run of one still lowers through the fusion pass into a unary 2×2
    // kernel, so it counts as fused: only gates reaching the generic dense
    // two-qubit fallback in `lower_two` land in the general bucket. Singleton
    // runs whose matrix classifies as diagonal/anti-diagonal (or folds to the
    // identity) report as specialized instead. Longer runs were tallied as
    // fused while they grew.
    if p.len == 1 {
        let bucket = match kernel {
            Some(Kernel::Unary { .. }) => Bucket::Fused,
            _ => Bucket::Specialized,
        };
        tally.record_gate(p.first, bucket);
    }
    if let Some(k) = kernel {
        kernels.push(k);
        tally.kernels_out += 1;
    }
}

/// Lowers a two-qubit gate directly to its specialized kernel class.
fn lower_two(gate: &Gate, qa: usize, qb: usize, kernels: &mut Vec<Kernel>, tally: &mut Tally) {
    let m = two_qubit_matrix(gate);
    let (k, bucket) = match gate {
        Gate::Cz | Gate::CPhase(_) | Gate::Rzz(_) => {
            (Kernel::Diag2 { qa, qb, p: [m[0][0], m[1][1], m[2][2], m[3][3]] }, Bucket::Specialized)
        }
        Gate::Swap => (Kernel::SwapPerm { qa, qb }, Bucket::Specialized),
        Gate::Cx | Gate::Cy => (
            Kernel::CFlip { control: qa, target: qb, c01: m[2][3], c10: m[3][2] },
            Bucket::Specialized,
        ),
        _ => (Kernel::Two { qa, qb, m }, Bucket::General),
    };
    tally.record_gate(gate.code(), bucket);
    kernels.push(k);
    tally.kernels_out += 1;
}

/// A circuit compiled to one flat kernel list, with its measurements
/// classified for readout: which are terminal and where a readout has to
/// branch.
#[derive(Debug, Clone)]
pub struct FramedProgram {
    num_qubits: usize,
    num_clbits: usize,
    kernels: Vec<Kernel>,
    measurements: Measurements,
    tally: Tally,
    /// The named report of `tally`, built on first read.
    stats: OnceLock<CompileStats>,
}

impl FramedProgram {
    /// Compiles `circuit` in one pass: lowering, then one reverse pass that
    /// classifies the measurements.
    pub fn compile(circuit: &Circuit) -> Self {
        let (num_qubits, num_clbits) = (circuit.num_qubits(), circuit.num_clbits());
        let mut kernels = Vec::new();
        let mut tally = Tally::default();
        lower(num_qubits, circuit.operations(), &mut kernels, &mut tally);
        let measurements = Measurements::of_kernels(num_qubits, num_clbits, &kernels);
        tally.terminal_measures = measurements.terminal.len() as u64;
        tally.branch_points = measurements.branch_points.len() as u64;
        FramedProgram {
            num_qubits,
            num_clbits,
            kernels,
            measurements,
            tally,
            stats: OnceLock::new(),
        }
    }

    /// Compilation telemetry for this program.
    pub fn stats(&self) -> &CompileStats {
        self.stats.get_or_init(|| self.tally.stats())
    }

    /// The counts behind [`stats`](Self::stats), unnamed.
    pub(crate) fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Number of qubits the program acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits the program writes.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The compiled kernels, in execution order.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Applies every kernel to `state`, failing on control kernels.
    ///
    /// # Errors
    ///
    /// [`SimError::NonUnitaryCircuit`] (with the source operation index) on
    /// the first measure/reset kernel — parity with
    /// [`StateVector::apply_circuit`].
    pub fn apply_unitary(&self, state: &mut StateVector) -> Result<(), SimError> {
        for k in &self.kernels {
            match k {
                Kernel::Measure { op_index, .. } | Kernel::Reset { op_index, .. } => {
                    return Err(SimError::NonUnitaryCircuit { index: *op_index })
                }
                _ => k.apply(state.amps_mut()),
            }
        }
        Ok(())
    }

    /// Runs the program from |0…0⟩ — the compiled analogue of
    /// [`StateVector::from_circuit`].
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past the simulator limit and
    /// [`SimError::NonUnitaryCircuit`] on measure/reset kernels.
    pub fn run_unitary(&self) -> Result<StateVector, SimError> {
        let mut state = StateVector::try_new(self.num_qubits)?;
        self.apply_unitary(&mut state)?;
        Ok(state)
    }

    /// The `(qubit, clbit)` pairs of the program's **terminal** measures —
    /// those no later kernel depends on, read off the final state instead
    /// of branching (see [`FramedProgram::read_out`]).
    pub fn readout_map(&self) -> &[(usize, usize)] {
        &self.measurements.terminal
    }

    /// Whether the compiled program resets a wire or uses one again after
    /// measuring it — what needs mid-circuit measurement hardware. Judged on
    /// the kernels, so gates that fused to nothing do not count as a use.
    pub fn reuses_wires(&self) -> bool {
        self.measurements.reuses_wires
    }

    /// The exact distribution over classical bits and the number of
    /// measurement branches it took. Only resets and non-terminal measures
    /// (a wire used again, a clbit overwritten) branch, depth first with one
    /// state buffer per live depth; terminal measures are marginalised out
    /// of each leaf's `|ψ|²` in one sweep. Cost: O(2^n) per leaf,
    /// leaves ≤ 2^[`branch_points`](CompileStats::branch_points).
    ///
    /// # Errors
    ///
    /// [`SimError::NothingToMeasure`] when the program has no classical
    /// bits, [`SimError::TooManyClbits`] when the distribution over them
    /// would hold more than 2^[`Counts::MAX_DENSE_BITS`] values, and
    /// [`SimError::TooManyQubits`] past the simulator limit.
    pub fn read_out(&self) -> Result<ExactReadout, SimError> {
        Counts::check_dense(self.num_clbits)?;
        let root = self.readout_root()?;
        Ok(readout::read_out(&self.kernels, &self.measurements, self.num_clbits, root))
    }

    /// `shots` samples of the classical bits, drawn from `rng`: the walk of
    /// [`FramedProgram::read_out`] carrying shots instead of a weight. At a
    /// branch point the node's shots are dealt to the two outcomes with one
    /// exact binomial draw and only outcomes that were dealt a shot are
    /// descended; a leaf deals its shots over `|ψ|²` as one multinomial, by
    /// recursive halving of the basis-index range with one binomial draw
    /// per half that holds shots. The draws are made in tree order, so the
    /// result depends on `rng` alone — and for a program without branch
    /// points it is the histogram [`StateVector::sample_counts`] draws from
    /// the final state. Cost: O(2^n) per kernel and leaf, leaves ≤
    /// min(shots, 2^[`branch_points`](CompileStats::branch_points)), plus
    /// one binomial draw (O(1) expected) per branch point and per halving
    /// node visited — at most min(2·2^n, shots·n) per leaf — so no cost
    /// grows with the shots themselves.
    ///
    /// # Errors
    ///
    /// [`SimError::ZeroShots`] for `shots == 0`, otherwise as
    /// [`FramedProgram::read_out`].
    pub fn sample(&self, shots: u64, rng: &mut impl Rng) -> Result<SampledReadout, SimError> {
        self.sample_into(shots, rng, Counts::over(self.num_clbits)?)
    }

    /// The draws of [`FramedProgram::sample`], dealt into `sink` — an empty
    /// [`ShotSink`] over the program's classical bits
    /// ([`ShotSink::over`]`(num_clbits)`) — instead of a fresh [`Counts`]
    /// map: the same walk, the same draws, so the same counts in either
    /// layout. A backend that reports dense probability vectors samples into
    /// a [`DenseCounts`](crate::DenseCounts) and skips the map.
    ///
    /// # Errors
    ///
    /// As [`FramedProgram::sample`].
    pub fn sample_into<S: ShotSink>(
        &self,
        shots: u64,
        rng: &mut impl Rng,
        sink: S,
    ) -> Result<SampledReadout<S>, SimError> {
        if shots == 0 {
            return Err(SimError::ZeroShots);
        }
        let root = self.readout_root()?;
        Ok(readout::sample(&self.kernels, &self.measurements, root, shots, rng, sink))
    }

    /// The root state of a readout walk.
    fn readout_root(&self) -> Result<StateVector, SimError> {
        if self.num_clbits == 0 {
            return Err(SimError::NothingToMeasure);
        }
        StateVector::try_new(self.num_qubits)
    }

    /// The exact distribution over classical bits — the compiled analogue of
    /// [`classical_distribution`](crate::branching::classical_distribution),
    /// which stays the naive every-measure-branches reference it is tested
    /// against.
    ///
    /// # Errors
    ///
    /// Same as [`FramedProgram::read_out`].
    pub fn classical_distribution(&self) -> Result<Vec<f64>, SimError> {
        self.read_out().map(|readout| readout.distribution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branching;

    fn assert_states_close(a: &StateVector, b: &StateVector) {
        assert_eq!(a.num_qubits(), b.num_qubits());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).abs() < 1e-12, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn single_qubit_runs_fuse_to_one_kernel() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).s(0).h(0).rx(0.4, 0);
        let p = FramedProgram::compile(&c);
        assert_eq!(p.stats().gates_in, 5);
        assert_eq!(p.stats().kernels_out, 1);
        assert!(p.stats().coverage() > 0.99);
        let sv = FramedProgram::compile(&c).run_unitary().unwrap();
        assert_states_close(&sv, &StateVector::from_circuit(&c).unwrap());
    }

    #[test]
    fn fusion_reaches_across_other_wires() {
        // rz(q0); cx(q1,q2); rz(q0) — the two rz's commute past the cx and
        // must fuse into a single diagonal kernel.
        let mut c = Circuit::new(3);
        c.rz(0.3, 0).cx(1, 2).rz(0.5, 0);
        let p = FramedProgram::compile(&c);
        assert_eq!(p.stats().kernels_out, 2);
        assert!(matches!(p.kernels()[1], Kernel::Diag1 { qubit: 0, .. }));
        let sv = FramedProgram::compile(&c).run_unitary().unwrap();
        assert_states_close(&sv, &StateVector::from_circuit(&c).unwrap());
    }

    #[test]
    fn identity_runs_are_eliminated() {
        let mut c = Circuit::new(1);
        c.z(0).z(0);
        let p = FramedProgram::compile(&c);
        assert_eq!(p.stats().kernels_out, 0);
        assert_eq!(p.stats().eliminated_gates, 2);
        assert_eq!(p.stats().coverage(), 1.0);
        let mut x = Circuit::new(1);
        x.x(0).x(0);
        assert_eq!(FramedProgram::compile(&x).stats().kernels_out, 0);
    }

    #[test]
    fn specialization_classes_match_gate_families() {
        let mut c = Circuit::new(2);
        c.z(0).x(1).cz(0, 1).swap(0, 1).cx(0, 1).rzz(0.3, 0, 1).rxx(0.2, 0, 1);
        let p = FramedProgram::compile(&c);
        let kinds: Vec<&Kernel> = p.kernels().iter().collect();
        assert!(matches!(kinds[0], Kernel::Diag1 { .. }));
        assert!(matches!(kinds[1], Kernel::Flip1 { .. }));
        assert!(matches!(kinds[2], Kernel::Diag2 { .. }));
        assert!(matches!(kinds[3], Kernel::SwapPerm { .. }));
        assert!(matches!(kinds[4], Kernel::CFlip { .. }));
        assert!(matches!(kinds[5], Kernel::Diag2 { .. }));
        assert!(matches!(kinds[6], Kernel::Two { .. }));
        // only rxx is general
        assert_eq!(p.stats().families["rxx"].general, 1);
        assert!((p.stats().coverage() - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn barriers_are_fusion_fences() {
        let mut fused = Circuit::new(1);
        fused.h(0).h(0);
        let mut fenced = Circuit::new(1);
        fenced.h(0).barrier().h(0);
        assert_eq!(FramedProgram::compile(&fused).stats().kernels_out, 1);
        assert_eq!(FramedProgram::compile(&fenced).stats().kernels_out, 2);
    }

    #[test]
    fn run_unitary_error_parity_with_interpreted() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0).h(1);
        let compiled = FramedProgram::compile(&c).run_unitary();
        assert_eq!(compiled.unwrap_err(), StateVector::from_circuit(&c).unwrap_err());
    }

    #[test]
    fn compiled_distribution_matches_interpreted_with_reuse() {
        // mid-circuit measure + reset (the qubit-reuse pattern)
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure(0, 0).reset(0).h(0).measure(0, 1).measure(1, 2);
        let compiled = FramedProgram::compile(&c).classical_distribution().unwrap();
        let interpreted = branching::classical_distribution(&c).unwrap();
        assert_eq!(compiled.len(), interpreted.len());
        for (a, b) in compiled.iter().zip(&interpreted) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn counters_sum_what_each_program_reports() {
        let mut a = Circuit::new(3);
        a.h(0).t(0).rxx(0.2, 0, 1).x(2).x(2).cx(1, 2).measure_all();
        let mut b = Circuit::with_clbits(2, 2);
        b.ry(0.3, 0).measure(0, 0).reset(0).h(0).cz(0, 1).measure(0, 1);
        let counters = CompileCounters::new();
        let mut merged = CompileStats::default();
        for circuit in [&a, &b, &a] {
            let program = FramedProgram::compile(circuit);
            counters.add(&program);
            merged.merge(program.stats());
        }
        assert_eq!(counters.stats(), merged);
        assert_eq!(merged.gates_in, 2 * 6 + 3);
        assert_eq!(merged.eliminated_gates, 2 * 2);
        assert_eq!((merged.terminal_measures, merged.branch_points), (2 * 3 + 1, 2));
        assert_eq!(merged.families["rxx"].general, 2);
        assert_eq!((merged.cache_hits, merged.cache_misses), (0, 0));
    }

    #[test]
    fn controlled_flip_coefficients_for_cy() {
        let mut c = Circuit::new(2);
        c.x(0).cy(0, 1);
        let sv = FramedProgram::compile(&c).run_unitary().unwrap();
        assert_states_close(&sv, &StateVector::from_circuit(&c).unwrap());
        // |10⟩ -> i|11⟩
        assert!((sv.amplitude(0b11) - Complex::i()).abs() < 1e-12);
    }
}
