//! A self-contained (mixed) 0-1 integer linear programming substrate.
//!
//! The QRCC paper formulates cutting as an ILP and solves it with Gurobi;
//! Gurobi is proprietary and unavailable offline, so this crate provides the
//! solving substrate from scratch:
//!
//! * [`LinExpr`], [`Model`] — modelling layer (binary / continuous variables,
//!   `≤` / `≥` / `=` constraints, linear objective).
//! * [`simplex`] — a bounded-variable dual simplex for LP relaxations,
//!   re-optimised in place after each bound change.
//! * [`solver`] — depth-first branch-and-bound over binary variables on one
//!   warm LP, with an incumbent cutoff, reduced-cost fixing, warm starts and
//!   node/time limits.
//!
//! The solver is not Gurobi-fast, but it is exact on small models and
//! degrades gracefully (feasible-but-maybe-suboptimal answers within a time
//! budget) on large ones, which is what the experiment harness needs.
//!
//! # Example
//!
//! ```rust
//! use qrcc_ilp::{Model, SolverConfig};
//!
//! // maximise x + 2y  s.t.  x + y <= 1  (a tiny set-packing problem)
//! let mut model = Model::new();
//! let x = model.add_binary("x");
//! let y = model.add_binary("y");
//! model.add_le(model.expr().term(1.0, x).term(1.0, y), 1.0);
//! model.minimize(model.expr().term(-1.0, x).term(-2.0, y));
//! let solution = qrcc_ilp::solver::solve(&model, &SolverConfig::default()).unwrap();
//! assert_eq!(solution.value(y).round() as i64, 1);
//! assert_eq!(solution.value(x).round() as i64, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod expr;
mod model;
mod solution;

pub mod simplex;
pub mod solver;

pub use expr::{LinExpr, VarId};
pub use model::{ConstraintSense, Model, VarKind};
pub use solution::{Solution, SolveStatus};
pub use solver::SolverConfig;

use std::error::Error;
use std::fmt;

/// Errors produced by the ILP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IlpError {
    /// The model has no feasible solution.
    Infeasible,
    /// The model references a variable that does not belong to it.
    UnknownVariable {
        /// The offending variable index.
        index: usize,
    },
    /// No feasible solution was found within the configured limits (the model
    /// may still be feasible).
    LimitReached,
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::Infeasible => write!(f, "model is infeasible"),
            IlpError::UnknownVariable { index } => {
                write!(f, "variable {index} does not belong to this model")
            }
            IlpError::LimitReached => {
                write!(f, "no feasible solution found within the solver limits")
            }
        }
    }
}

impl Error for IlpError {}
