//! Dense two-phase primal simplex for LP relaxations.
//!
//! This is the bounding engine of the branch-and-bound solver. It is a
//! straightforward tableau implementation: variables are shifted to have a
//! zero lower bound, finite upper bounds become explicit rows, `≥`/`=` rows
//! get artificial variables, and a phase-1 / phase-2 pass solves the program.
//! Dantzig pricing is used with a Bland's-rule fallback to guarantee
//! termination.

use crate::{ConstraintSense, Model, VarId};

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints are inconsistent.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Result of an LP relaxation solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Values of the model's variables (original, unshifted domain). Empty
    /// unless `status == Optimal`.
    pub values: Vec<f64>,
    /// Objective value (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Number of simplex pivots performed across both phases.
    pub pivots: u64,
}

const EPS: f64 = 1e-9;

/// Solves the LP relaxation of `model` with per-variable bounds
/// `var_bounds[i] = (lb, ub)` replacing the variables' own domains (used by
/// branch-and-bound to fix binaries).
///
/// Integrality is ignored; binary variables are treated as continuous within
/// their bounds.
///
/// # Panics
///
/// Panics if `var_bounds.len() != model.num_vars()` or if a bound pair is
/// inverted.
pub fn solve_relaxation(model: &Model, var_bounds: &[(f64, f64)]) -> LpSolution {
    solve_relaxation_in(model, var_bounds, &mut Vec::new())
}

/// [`solve_relaxation`] with the dense tableau built in `scratch`, which
/// keeps its allocation for the next call. Branch-and-bound solves one
/// relaxation per node and the root's tableau is the largest, so a search
/// allocates its tableau (megabytes on a 100-variable model) once instead of
/// once per node. Freeing and re-allocating it per node left a hole that
/// small allocations split under glibc, after which the next tableau no
/// longer fitted and the heap grew by a second one for the process's life.
pub(crate) fn solve_relaxation_in(
    model: &Model,
    var_bounds: &[(f64, f64)],
    scratch: &mut Vec<f64>,
) -> LpSolution {
    assert_eq!(var_bounds.len(), model.num_vars(), "bounds length mismatch");
    for (i, (lb, ub)) in var_bounds.iter().enumerate() {
        assert!(lb <= ub, "inverted bounds for variable {i}: [{lb}, {ub}]");
    }
    let mut tableau = Tableau::build(model, var_bounds, std::mem::take(scratch));
    let solution = tableau.solve();
    *scratch = tableau.data;
    solution
}

/// Convenience wrapper: solve the relaxation with the model's own bounds.
pub fn solve_model_relaxation(model: &Model) -> LpSolution {
    let bounds: Vec<(f64, f64)> = model.vars().map(|v| model.bounds(v)).collect();
    solve_relaxation(model, &bounds)
}

struct Tableau {
    /// rows x cols dense tableau; last column is the RHS.
    data: Vec<f64>,
    rows: usize,
    cols: usize,
    /// basis[r] = column index of the basic variable of row r.
    basis: Vec<usize>,
    /// Column index of each free (non-fixed) structural variable.
    free_vars: Vec<usize>,
    /// Per original variable: either Fixed(value) or Free(slot index into free_vars).
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
    /// Builds the tableau in `data`, whose previous contents are discarded.
    fn build(model: &Model, var_bounds: &[(f64, f64)], mut data: Vec<f64>) -> Self {
        // Identify fixed variables and allocate columns for free ones.
        let mut var_map = Vec::with_capacity(model.num_vars());
        let mut free_vars = Vec::new();
        let mut shifts = Vec::new();
        for (i, &(lb, ub)) in var_bounds.iter().enumerate() {
            if (ub - lb).abs() <= EPS {
                var_map.push(VarState::Fixed(lb));
            } else {
                var_map.push(VarState::Free(free_vars.len()));
                free_vars.push(i);
                shifts.push(lb);
            }
        }
        let num_structural = free_vars.len();

        // Assemble rows: original constraints plus upper-bound rows for free
        // variables with finite width.
        struct Row {
            coeffs: Vec<f64>, // length num_structural
            sense: ConstraintSense,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::new();
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
            rows.push(Row { coeffs, sense: c.sense, rhs });
        }
        for (slot, &orig) in free_vars.iter().enumerate() {
            let (lb, ub) = var_bounds[orig];
            let width = ub - lb;
            let mut coeffs = vec![0.0; num_structural];
            coeffs[slot] = 1.0;
            rows.push(Row { coeffs, sense: ConstraintSense::Le, rhs: width });
        }

        // Objective over free variables (shifted); constant collects fixed
        // and shifted contributions.
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

        // Count slack and artificial columns.
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for row in &rows {
            // normalise to rhs >= 0 later; slack layout depends on sense
            match row.sense {
                ConstraintSense::Le | ConstraintSense::Ge => num_slack += 1,
                ConstraintSense::Eq => {}
            }
            num_artificial += 1; // allocate one per row; unused ones stay zero
        }
        let slack_start = num_structural;
        let artificial_start = slack_start + num_slack;
        let cols = artificial_start + num_artificial + 1; // +1 for RHS
        let nrows = rows.len();

        data.clear();
        data.resize(nrows * cols, 0.0);
        let mut basis = vec![0usize; nrows];
        let mut slack_idx = 0usize;

        for (r, row) in rows.iter().enumerate() {
            let mut coeffs = row.coeffs.clone();
            let mut rhs = row.rhs;
            let mut sense = row.sense;
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
            for (j, &v) in coeffs.iter().enumerate() {
                data[base + j] = v;
            }
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
            free_vars,
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

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let cols = self.cols;
        let pivot_value = self.at(pivot_row, pivot_col);
        debug_assert!(pivot_value.abs() > EPS);
        let inv = 1.0 / pivot_value;
        let pr_base = pivot_row * cols;
        for c in 0..cols {
            self.data[pr_base + c] *= inv;
        }
        for r in 0..self.rows {
            if r == pivot_row {
                continue;
            }
            let factor = self.at(r, pivot_col);
            if factor.abs() <= EPS {
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

    /// Runs simplex iterations minimising `cost` (length = cols-1, i.e.
    /// excludes the RHS column). Returns `None` when unbounded.
    fn run_phase(&mut self, cost: &[f64], allow_cols: usize) -> Option<()> {
        // reduced costs maintained implicitly: z_j - c_j computed on demand
        // via the basis. To keep the implementation simple we recompute the
        // multiplier vector each iteration from the basic costs.
        let max_iterations = 50_000 + 50 * (self.rows as u64 + self.cols as u64);
        let mut iterations: u64 = 0;
        loop {
            iterations += 1;
            if iterations > max_iterations {
                // Extremely unlikely; treat as converged to avoid hanging.
                return Some(());
            }
            let use_bland = iterations > 5_000;

            // reduced cost for column j: c_j - sum_r cost[basis[r]] * a[r][j]
            let basic_costs: Vec<f64> = self.basis.iter().map(|&b| cost[b]).collect();
            let mut entering: Option<usize> = None;
            let mut best = -EPS;
            for (j, &cj) in cost.iter().enumerate().take(allow_cols) {
                // skip basic columns quickly
                if self.basis.contains(&j) {
                    continue;
                }
                let mut reduced = cj;
                for (r, &bc) in basic_costs.iter().enumerate() {
                    let a = self.at(r, j);
                    if a != 0.0 {
                        reduced -= bc * a;
                    }
                }
                if reduced < best {
                    if use_bland {
                        entering = Some(j);
                        break;
                    }
                    best = reduced;
                    entering = Some(j);
                }
            }
            let Some(col) = entering else {
                return Some(());
            };

            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let a = self.at(r, col);
                if a > EPS {
                    let ratio = self.at(r, self.cols - 1) / a;
                    if ratio < best_ratio - EPS
                        || (use_bland
                            && (ratio - best_ratio).abs() <= EPS
                            && leaving.map(|lr| self.basis[r] < self.basis[lr]).unwrap_or(false))
                    {
                        best_ratio = ratio;
                        leaving = Some(r);
                    }
                }
            }
            let Some(row) = leaving else {
                return None; // unbounded in this direction
            };
            self.pivot(row, col);
        }
    }

    fn solve(&mut self) -> LpSolution {
        let rhs_col = self.cols - 1;
        let total_cols = self.cols - 1;

        // Phase 1: minimise sum of artificial variables.
        if self.num_artificial > 0 {
            let mut phase1_cost = vec![0.0; total_cols];
            let artificial = self.artificial_start..self.artificial_start + self.num_artificial;
            for slot in &mut phase1_cost[artificial] {
                *slot = 1.0;
            }
            if self.run_phase(&phase1_cost, total_cols).is_none() {
                // Phase 1 objective is bounded below by zero, so this cannot
                // happen; treat defensively as infeasible.
                return LpSolution {
                    status: LpStatus::Infeasible,
                    values: Vec::new(),
                    objective: 0.0,
                    pivots: self.pivots,
                };
            }
            // Check artificial sum.
            let artificial_sum: f64 = self
                .basis
                .iter()
                .enumerate()
                .filter(|(_, &b)| b >= self.artificial_start)
                .map(|(r, _)| self.at(r, rhs_col))
                .sum();
            if artificial_sum > 1e-6 {
                return LpSolution {
                    status: LpStatus::Infeasible,
                    values: Vec::new(),
                    objective: 0.0,
                    pivots: self.pivots,
                };
            }
            // Drive any remaining basic artificials out of the basis where possible.
            for r in 0..self.rows {
                if self.basis[r] >= self.artificial_start && self.at(r, rhs_col).abs() <= 1e-7 {
                    if let Some(col) =
                        (0..self.artificial_start).find(|&j| self.at(r, j).abs() > 1e-7)
                    {
                        self.pivot(r, col);
                    }
                }
            }
        }

        // Phase 2: minimise the true objective, artificial columns excluded.
        let mut phase2_cost = vec![0.0; total_cols];
        phase2_cost[..self.num_structural].copy_from_slice(&self.objective);
        if self.run_phase(&phase2_cost, self.artificial_start).is_none() {
            return LpSolution {
                status: LpStatus::Unbounded,
                values: Vec::new(),
                objective: f64::NEG_INFINITY,
                pivots: self.pivots,
            };
        }

        // Extract solution.
        let mut shifted = vec![0.0; self.num_structural];
        for r in 0..self.rows {
            if self.basis[r] < self.num_structural {
                shifted[self.basis[r]] = self.at(r, rhs_col);
            }
        }
        let mut values = vec![0.0; self.var_map.len()];
        for (i, state) in self.var_map.iter().enumerate() {
            values[i] = match state {
                VarState::Fixed(v) => *v,
                VarState::Free(slot) => shifted[*slot] + self.shifts[*slot],
            };
        }
        let _ = &self.free_vars;
        let objective = self.obj_constant
            + self.objective.iter().zip(&shifted).map(|(c, x)| c * x).sum::<f64>();
        LpSolution { status: LpStatus::Optimal, values, objective, pivots: self.pivots }
    }
}

/// Returns the most fractional binary variable of an LP solution, if any
/// (used for branching decisions).
pub fn most_fractional_binary(model: &Model, values: &[f64]) -> Option<(VarId, f64)> {
    let mut best: Option<(VarId, f64)> = None;
    for var in model.binary_vars() {
        let v = values[var.index()];
        let frac = (v - v.round()).abs();
        if frac > 1e-6 {
            let distance_to_half = (v - 0.5).abs();
            match best {
                Some((_, d)) if d <= distance_to_half => {}
                _ => best = Some((var, distance_to_half)),
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;

    #[test]
    fn simple_lp_optimum_at_vertex() {
        // minimise -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_le(LinExpr::new().term(1.0, x).term(1.0, y), 4.0);
        m.minimize(LinExpr::new().term(-1.0, x).term(-2.0, y));
        let sol = solve_model_relaxation(&m);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 2.0).abs() < 1e-6);
        assert!((sol.objective + 6.0).abs() < 1e-6);
    }

    #[test]
    fn a_reused_tableau_buffer_changes_no_answer() {
        // the same program under the bounds branch-and-bound walks through:
        // all free (the largest tableau), then smaller ones into the same,
        // still dirty buffer, an infeasible one among them
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        let z = m.add_binary("z");
        m.add_le(LinExpr::new().term(1.0, x).term(1.0, y).term(2.0, z), 4.5);
        m.add_ge(LinExpr::new().term(1.0, x).term(-1.0, y), -1.0);
        m.minimize(LinExpr::new().term(-1.0, x).term(-2.0, y).term(-1.5, z));
        let free = [(0.0, 3.0), (0.0, 2.0), (0.0, 1.0)];
        let mut scratch = Vec::new();
        for bounds in [
            free,
            [(0.0, 3.0), (0.0, 2.0), (1.0, 1.0)],
            [(0.0, 0.0), (2.0, 2.0), (1.0, 1.0)],
            [(3.0, 3.0), (0.0, 2.0), (0.0, 0.0)],
            free,
        ] {
            let fresh = solve_relaxation(&m, &bounds);
            assert_eq!(solve_relaxation_in(&m, &bounds, &mut scratch), fresh, "{bounds:?}");
        }
        assert!(!scratch.is_empty(), "the buffer comes back for the next call");
    }

    #[test]
    fn equality_constraints_are_respected() {
        // minimise x + y  s.t. x + y = 2, x - y = 0
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_eq(LinExpr::new().term(1.0, x).term(1.0, y), 2.0);
        m.add_eq(LinExpr::new().term(1.0, x).term(-1.0, y), 0.0);
        m.minimize(LinExpr::new().term(1.0, x).term(1.0, y));
        let sol = solve_model_relaxation(&m);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x.index()] - 1.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_program_is_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_ge(LinExpr::new().term(1.0, x), 2.0);
        m.minimize(LinExpr::new().term(1.0, x));
        let sol = solve_model_relaxation(&m);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn binary_relaxation_can_be_fractional() {
        // minimise -x - y s.t. x + y <= 1 gives x + y = 1 on the relaxation;
        // with a symmetric objective a vertex solution sets one of them to 1.
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_le(LinExpr::new().term(2.0, x).term(2.0, y), 1.0);
        m.minimize(LinExpr::new().term(-1.0, x).term(-1.0, y));
        let sol = solve_model_relaxation(&m);
        assert_eq!(sol.status, LpStatus::Optimal);
        let total = sol.values[x.index()] + sol.values[y.index()];
        assert!((total - 0.5).abs() < 1e-6);
        assert!(most_fractional_binary(&m, &sol.values).is_some());
    }

    #[test]
    fn fixed_variables_are_substituted() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_ge(LinExpr::new().term(1.0, x).term(1.0, y), 1.0);
        m.minimize(LinExpr::new().term(5.0, x).term(1.0, y));
        // Fix x = 1; optimal y should be 0 with objective 5.
        let sol = solve_relaxation(&m, &[(1.0, 1.0), (0.0, 1.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x.index()] - 1.0).abs() < 1e-9);
        assert!(sol.values[y.index()].abs() < 1e-6);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // x >= 1 written as -x <= -1
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        m.add_le(LinExpr::new().term(-1.0, x), -1.0);
        m.minimize(LinExpr::new().term(1.0, x));
        let sol = solve_model_relaxation(&m);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x.index()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn objective_constant_is_included() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.minimize(LinExpr::new().term(1.0, x).constant(10.0));
        let sol = solve_model_relaxation(&m);
        assert!((sol.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn most_fractional_binary_ignores_integral_values() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        assert!(most_fractional_binary(&m, &[1.0, 0.0]).is_none());
        let pick = most_fractional_binary(&m, &[1.0, 0.4]).unwrap();
        assert_eq!(pick.0, y);
        let _ = x;
    }
}
