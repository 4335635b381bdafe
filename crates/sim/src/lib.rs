//! State-vector simulation substrate for the QRCC reproduction.
//!
//! The paper executes subcircuits on IBM quantum devices and verifies results
//! against Qiskit's state-vector and shot-based simulators. This crate is the
//! stand-in for all of that, organised around a **compile-then-execute**
//! flow:
//!
//! 1. **Lower** — [`compile`] turns a circuit into a flat
//!    [`FramedProgram`](compile::FramedProgram): adjacent single-qubit gates
//!    fuse into one 2×2 matrix, diagonal/permutation/controlled-flip gates
//!    specialize to cheaper sweeps, the rest become cache-blocked dense
//!    kernels. Every sweep is rayon-chunked above a size threshold with
//!    disjoint write sets, so results are bit-identical for any thread count.
//! 2. **Compile where it runs** — backends compile each circuit on the
//!    thread that runs it and keep nothing compiled; what they compiled is
//!    summed into [`compile::CompileCounters`] without a shared lock.
//! 3. **Execute** — compiled programs run as exact unitaries
//!    ([`compile::FramedProgram::run_unitary`]) or are **read out**, exactly
//!    ([`compile::FramedProgram::read_out`]) or as shots
//!    ([`compile::FramedProgram::sample`]), by one depth-first walk:
//!    terminal measures are taken from the final state and only mid-circuit
//!    measures and resets branch. The exact walk carries a probability
//!    weight and costs O(2^n) per leaf with leaves ≤ 2^branch points; the
//!    sampled walk carries the shots, deals them out at each branch point
//!    with one binomial draw and follows only outcomes that got one, so
//!    leaves ≤ min(shots, 2^branch points), no state is re-prepared per shot
//!    and a leaf deals its shots as one multinomial: the cost does not grow
//!    with the shots. A noiseless [`device`] is exactly that sampled
//!    readout.
//! 4. **Interpret** — the original per-gate interpreter stays as the
//!    oracles the compiled path is tested against, called directly: exact
//!    branch enumeration in [`branching::classical_distribution`], and one
//!    trajectory per shot in [`device::Device::execute_trajectories`]. The
//!    trajectories are also what every noisy device runs. There is no
//!    switch that makes a backend interpret: a noiseless device always
//!    compiles.
//!
//! The pieces:
//!
//! * [`Complex`] — minimal complex arithmetic (no external numeric crates).
//! * [`StateVector`] — the exact simulator supporting every gate of the IR
//!   plus mid-circuit measurement and reset (required for qubit reuse), shot
//!   sampling and Pauli-observable expectation values. Widths are capped at
//!   [`MAX_QUBITS`] with a typed [`SimError::TooManyQubits`] error.
//! * [`compile`] — the kernel compiler and the [`compile::CompileStats`]
//!   coverage report described above.
//! * [`branching`] — exact interpreted enumeration of measurement branches
//!   (every measure branches, naive on purpose): the oracle the compiled
//!   readout is tested against.
//! * [`noise`] — stochastic-Pauli (depolarizing) and readout noise models.
//!   Noisy execution always interprets gate-by-gate: per-gate noise anchors
//!   to gate boundaries, which fusion would erase.
//! * [`device`] — a small simulated quantum device with a qubit budget,
//!   optional noise and shots-based execution, standing in for IBM Lagos:
//!   one sampled readout per circuit when noiseless, one interpreted
//!   trajectory per shot when noisy.
//! * [`Counts`] — measurement histograms; [`DenseCounts`] — the same shots
//!   tallied into a dense vector, what a probability-reporting backend
//!   samples into (both are [`ShotSink`]s).
//!
//! # Example
//!
//! ```rust
//! use qrcc_circuit::Circuit;
//! use qrcc_sim::compile::FramedProgram;
//! use qrcc_sim::StateVector;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! // interpreted and compiled paths agree
//! let interpreted = StateVector::from_circuit(&bell).unwrap();
//! let compiled = FramedProgram::compile(&bell).run_unitary().unwrap();
//! for (a, b) in interpreted.amplitudes().iter().zip(compiled.amplitudes()) {
//!     assert!((*a - *b).abs() < 1e-12);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod binomial;
mod complex;
mod counts;
mod error;
mod statevector;

pub mod branching;
pub mod compile;
pub mod device;
pub mod expectation;
pub mod matrix;
pub mod noise;

pub use complex::Complex;
pub use counts::{Counts, DenseCounts, ShotSink};
pub use error::SimError;
pub use statevector::{StateVector, MAX_QUBITS};
