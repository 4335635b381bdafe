//! The dense two-phase tableau the dual simplex replaced, kept as a test
//! oracle: variables are shifted to a zero lower bound, finite upper bounds
//! become explicit rows, `≥`/`=` rows get artificial variables, and every
//! call solves from scratch (phase 1, then phase 2, Dantzig pricing with a
//! Bland's-rule fallback).

use super::{LpSolution, LpStatus};
use crate::{ConstraintSense, Model};

const EPS: f64 = 1e-9;

/// Solves the relaxation of `model` under `var_bounds` from scratch.
pub(crate) fn solve(model: &Model, var_bounds: &[(f64, f64)]) -> LpSolution {
    Tableau::build(model, var_bounds).solve()
}

struct Tableau {
    /// rows x cols dense tableau; last column is the RHS.
    data: Vec<f64>,
    rows: usize,
    cols: usize,
    /// basis[r] = column index of the basic variable of row r.
    basis: Vec<usize>,
    /// Per original variable: either Fixed(value) or Free(slot).
    var_map: Vec<VarState>,
    /// Lower bound shift per free variable (indexed by slot).
    shifts: Vec<f64>,
    num_structural: usize,
    num_artificial: usize,
    artificial_start: usize,
    obj_constant: f64,
    objective: Vec<f64>,
    pivots: u64,
}

#[derive(Clone, Copy)]
enum VarState {
    Fixed(f64),
    Free(usize),
}

impl Tableau {
    fn build(model: &Model, var_bounds: &[(f64, f64)]) -> Self {
        let mut var_map = Vec::with_capacity(model.num_vars());
        let mut shifts = Vec::new();
        for &(lb, ub) in var_bounds {
            if (ub - lb).abs() <= EPS {
                var_map.push(VarState::Fixed(lb));
            } else {
                var_map.push(VarState::Free(shifts.len()));
                shifts.push(lb);
            }
        }
        let num_structural = shifts.len();

        // original constraints, then one upper-bound row per free variable
        let mut rows: Vec<(Vec<f64>, ConstraintSense, f64)> = Vec::new();
        for c in model.constraints() {
            let mut coeffs = vec![0.0; num_structural];
            let mut rhs = c.rhs - c.expr.constant_value();
            for (var, coef) in c.expr.iter() {
                match var_map[var.index()] {
                    VarState::Fixed(v) => rhs -= coef * v,
                    VarState::Free(slot) => {
                        coeffs[slot] += coef;
                        rhs -= coef * shifts[slot];
                    }
                }
            }
            rows.push((coeffs, c.sense, rhs));
        }
        for (orig, state) in var_map.iter().enumerate() {
            if let VarState::Free(slot) = *state {
                let mut coeffs = vec![0.0; num_structural];
                coeffs[slot] = 1.0;
                rows.push((coeffs, ConstraintSense::Le, var_bounds[orig].1 - shifts[slot]));
            }
        }

        let mut objective = vec![0.0; num_structural];
        let mut obj_constant = model.objective().constant_value();
        for (var, coef) in model.objective().iter() {
            match var_map[var.index()] {
                VarState::Fixed(v) => obj_constant += coef * v,
                VarState::Free(slot) => {
                    objective[slot] += coef;
                    obj_constant += coef * shifts[slot];
                }
            }
        }

        let num_slack = rows.iter().filter(|(_, sense, _)| *sense != ConstraintSense::Eq).count();
        let num_artificial = rows.len(); // one per row; unused ones stay zero
        let slack_start = num_structural;
        let artificial_start = slack_start + num_slack;
        let cols = artificial_start + num_artificial + 1; // +1 for RHS
        let nrows = rows.len();

        let mut data = vec![0.0; nrows * cols];
        let mut basis = vec![0usize; nrows];
        let mut slack_idx = 0usize;
        for (r, (mut coeffs, mut sense, mut rhs)) in rows.into_iter().enumerate() {
            if rhs < 0.0 {
                for c in &mut coeffs {
                    *c = -*c;
                }
                rhs = -rhs;
                sense = match sense {
                    ConstraintSense::Le => ConstraintSense::Ge,
                    ConstraintSense::Ge => ConstraintSense::Le,
                    ConstraintSense::Eq => ConstraintSense::Eq,
                };
            }
            let base = r * cols;
            data[base..base + num_structural].copy_from_slice(&coeffs);
            data[base + cols - 1] = rhs;
            match sense {
                ConstraintSense::Le => {
                    data[base + slack_start + slack_idx] = 1.0;
                    basis[r] = slack_start + slack_idx;
                    slack_idx += 1;
                }
                ConstraintSense::Ge => {
                    data[base + slack_start + slack_idx] = -1.0;
                    slack_idx += 1;
                    data[base + artificial_start + r] = 1.0;
                    basis[r] = artificial_start + r;
                }
                ConstraintSense::Eq => {
                    data[base + artificial_start + r] = 1.0;
                    basis[r] = artificial_start + r;
                }
            }
        }

        Tableau {
            data,
            rows: nrows,
            cols,
            basis,
            var_map,
            shifts,
            num_structural,
            num_artificial,
            artificial_start,
            obj_constant,
            objective,
            pivots: 0,
        }
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let cols = self.cols;
        let inv = 1.0 / self.at(pivot_row, pivot_col);
        let pr_base = pivot_row * cols;
        for c in 0..cols {
            self.data[pr_base + c] *= inv;
        }
        for r in 0..self.rows {
            let factor = self.at(r, pivot_col);
            if r == pivot_row || factor.abs() <= EPS {
                continue;
            }
            let r_base = r * cols;
            for c in 0..cols {
                self.data[r_base + c] -= factor * self.data[pr_base + c];
            }
        }
        self.basis[pivot_row] = pivot_col;
        self.pivots += 1;
    }

    /// Runs simplex iterations minimising `cost` over the first `allow_cols`
    /// columns. Returns `None` when unbounded. Stops silently at an
    /// iteration cap.
    fn run_phase(&mut self, cost: &[f64], allow_cols: usize) -> Option<()> {
        let max_iterations = 50_000 + 50 * (self.rows as u64 + self.cols as u64);
        for iteration in 1..=max_iterations {
            let use_bland = iteration > 5_000;
            let basic_costs: Vec<f64> = self.basis.iter().map(|&b| cost[b]).collect();
            let mut entering: Option<usize> = None;
            let mut best = -EPS;
            for (j, &cj) in cost.iter().enumerate().take(allow_cols) {
                if self.basis.contains(&j) {
                    continue;
                }
                let reduced = cj
                    - basic_costs.iter().enumerate().map(|(r, bc)| bc * self.at(r, j)).sum::<f64>();
                if reduced < best {
                    best = reduced;
                    entering = Some(j);
                    if use_bland {
                        break;
                    }
                }
            }
            let Some(col) = entering else {
                return Some(());
            };

            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let a = self.at(r, col);
                if a > EPS {
                    let ratio = self.at(r, self.cols - 1) / a;
                    if ratio < best_ratio - EPS
                        || (use_bland
                            && (ratio - best_ratio).abs() <= EPS
                            && leaving.is_some_and(|lr| self.basis[r] < self.basis[lr]))
                    {
                        best_ratio = ratio;
                        leaving = Some(r);
                    }
                }
            }
            let row = leaving?;
            self.pivot(row, col);
        }
        Some(())
    }

    fn solve(mut self) -> LpSolution {
        let rhs_col = self.cols - 1;
        let total_cols = self.cols - 1;
        let infeasible = |pivots| LpSolution {
            status: LpStatus::Infeasible,
            values: Vec::new(),
            objective: 0.0,
            pivots,
        };

        // phase 1: minimise the sum of the artificial variables
        let mut phase1_cost = vec![0.0; total_cols];
        for slot in
            &mut phase1_cost[self.artificial_start..self.artificial_start + self.num_artificial]
        {
            *slot = 1.0;
        }
        self.run_phase_to_end(&phase1_cost, total_cols);
        let artificial_sum: f64 = (0..self.rows)
            .filter(|&r| self.basis[r] >= self.artificial_start)
            .map(|r| self.at(r, rhs_col))
            .sum();
        if artificial_sum > 1e-6 {
            return infeasible(self.pivots);
        }
        // drive remaining zero-valued artificials out of the basis
        for r in 0..self.rows {
            if self.basis[r] >= self.artificial_start && self.at(r, rhs_col).abs() <= 1e-7 {
                if let Some(col) = (0..self.artificial_start).find(|&j| self.at(r, j).abs() > 1e-7)
                {
                    self.pivot(r, col);
                }
            }
        }

        // phase 2: the true objective, artificial columns excluded (boxed
        // variables cannot make it unbounded)
        let mut phase2_cost = vec![0.0; total_cols];
        phase2_cost[..self.num_structural].copy_from_slice(&self.objective);
        self.run_phase_to_end(&phase2_cost, self.artificial_start);

        let mut shifted = vec![0.0; self.num_structural];
        for r in 0..self.rows {
            if self.basis[r] < self.num_structural {
                shifted[self.basis[r]] = self.at(r, rhs_col);
            }
        }
        let values = self
            .var_map
            .iter()
            .map(|state| match *state {
                VarState::Fixed(v) => v,
                VarState::Free(slot) => shifted[slot] + self.shifts[slot],
            })
            .collect();
        let objective = self.obj_constant
            + self.objective.iter().zip(&shifted).map(|(c, x)| c * x).sum::<f64>();
        LpSolution { status: LpStatus::Optimal, values, objective, pivots: self.pivots }
    }

    fn run_phase_to_end(&mut self, cost: &[f64], allow_cols: usize) {
        self.run_phase(cost, allow_cols).expect("a program over boxed variables is bounded");
    }
}
