//! Quantum circuit intermediate representation for the QRCC reproduction.
//!
//! This crate provides the gate-level circuit IR the QRCC compiler pass
//! operates on, together with everything needed to *produce* the circuits the
//! paper evaluates:
//!
//! * [`Gate`], [`Operation`] and [`Circuit`] — the IR itself, restricted to
//!   single- and two-qubit gates plus mid-circuit measurement and reset
//!   (exactly the operations assumed by the paper).
//! * [`dag`] — a wire-dependency DAG, its ASAP layering (the clock qubit
//!   reuse measures wire lifetimes by) and the order circuits sharing
//!   physical qubits are emitted in.
//! * [`graph`] — seeded random-graph generators (regular, Erdős–Rényi,
//!   Barabási–Albert, 2-D lattice) backing the QAOA / Hamiltonian-simulation
//!   benchmarks.
//! * [`generators`] — the benchmark circuits of the paper's evaluation: QFT,
//!   AQFT, Supremacy, ripple-carry adder, QAOA, 2-D lattice Hamiltonian
//!   simulation and hydrogen-chain VQE.
//! * [`observable`] — Pauli-string observables for expectation-value
//!   workloads.
//!
//! # Example
//!
//! ```rust
//! use qrcc_circuit::{Circuit, Gate};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! assert_eq!(bell.num_qubits(), 2);
//! assert_eq!(bell.two_qubit_gate_count(), 1);
//! assert_eq!(bell.depth(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod circuit;
mod error;
mod gate;
mod operation;

pub mod dag;
pub mod generators;
pub mod graph;
pub mod observable;
pub mod qasm;
pub mod routing;

pub use circuit::Circuit;
pub use error::CircuitError;
pub use gate::{Gate, GateKind};
pub use operation::{Operation, QubitId};
