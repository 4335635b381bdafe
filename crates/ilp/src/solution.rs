use crate::VarId;
use serde::{Deserialize, Serialize};

/// How a solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// The returned solution is provably optimal.
    Optimal,
    /// A feasible solution was found but optimality was not proven within the
    /// configured limits (time, node count).
    Feasible,
}

/// A feasible assignment returned by the solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
    status: SolveStatus,
    nodes_explored: u64,
    pivots: u64,
    solve_time_ms: u128,
}

impl Solution {
    /// Creates a solution record.
    pub fn new(
        values: Vec<f64>,
        objective: f64,
        status: SolveStatus,
        nodes_explored: u64,
        pivots: u64,
        solve_time_ms: u128,
    ) -> Self {
        Solution { values, objective, status, nodes_explored, pivots, solve_time_ms }
    }

    /// The value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Whether a binary variable is set (value rounds to 1).
    pub fn is_one(&self, var: VarId) -> bool {
        self.value(var) > 0.5
    }

    /// The full assignment, indexed by variable id.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The objective value of this assignment.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The termination status.
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// Whether optimality was proven.
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }

    /// Number of branch-and-bound nodes explored.
    pub fn nodes_explored(&self) -> u64 {
        self.nodes_explored
    }

    /// Simplex pivots spent over the whole search.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Wall-clock solve time in milliseconds.
    pub fn solve_time_ms(&self) -> u128 {
        self.solve_time_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        let s = Solution::new(vec![1.0, 0.0, 0.3], -2.5, SolveStatus::Feasible, 42, 99, 17);
        assert_eq!(s.value(VarId(0)), 1.0);
        assert!(s.is_one(VarId(0)));
        assert!(!s.is_one(VarId(1)));
        assert_eq!(s.objective(), -2.5);
        assert!(!s.is_optimal());
        assert_eq!(s.nodes_explored(), 42);
        assert_eq!(s.pivots(), 99);
        assert_eq!(s.solve_time_ms(), 17);
        assert_eq!(s.values().len(), 3);
    }
}
