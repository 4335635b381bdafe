//! Bounded-variable dual simplex for LP relaxations.
//!
//! This is the bounding engine of the branch-and-bound solver. Row `i`,
//! `aᵢ·x (≤|≥|=) bᵢ`, becomes `aᵢ·x + sᵢ = bᵢ` with one slack whose bounds
//! carry the sense: `[0, ∞)`, `(−∞, 0]` or `[0, 0]`. Every variable is then
//! boxed and no bound is ever a row: a nonbasic variable sits at one of its
//! bounds, and a basic one may leave through either. The dense tableau
//! `B⁻¹·[A | I | b]` has one row per constraint.
//!
//! **Why dual.** A model's variables are all finitely bounded (binaries, and
//! continuous variables with finite bounds), so *any* basis is dual feasible
//! once each nonbasic variable is parked at the bound its reduced cost points
//! to. The slack basis is such a start, so there is no phase 1. A bound
//! change, which is all a branch-and-bound node is, keeps the last basis dual
//! feasible too, so `DualSimplex` keeps its tableau between calls and a node
//! re-optimises from the previous node's basis in a few dual pivots instead
//! of solving the model again. The dual objective never decreases, so a solve
//! also stops as soon as it reaches the caller's cutoff: such a node cannot
//! beat the incumbent, whatever its optimum is.
//!
//! Pricing is dual steepest edge: the leaving row maximises its primal
//! infeasibility squared over `‖eᵣᵀ·B⁻¹‖²`. Those norms are exact, not
//! estimates, because the tableau's slack columns *are* `B⁻¹` and every
//! pivot already walks the rows it changes. The ratio test is Harris's two
//! passes, the largest pivot among near-minimal ratios. Both matter on the
//! heavily dual-degenerate cutting models, where largest-infeasibility
//! pricing lets the primal infeasibility run away. The tableau is rebuilt from
//! the original rows every `REFACTOR_PIVOTS` pivots, and again whenever an
//! optimum's primal residual has drifted, so rounding does not accumulate
//! over a search.

use crate::{ConstraintSense, Model, VarId};
use std::time::Instant;

#[cfg(test)]
mod oracle;

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints are inconsistent.
    Infeasible,
    /// The objective reached the caller's cutoff before the optimum was
    /// found, so the optimum is at least the cutoff.
    Cutoff,
    /// The iteration cap or the caller's deadline was hit; the program's
    /// status is unknown.
    Unfinished,
}

/// Result of an LP relaxation solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Values of the model's variables. Empty unless `status == Optimal`.
    pub values: Vec<f64>,
    /// Objective value (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Number of simplex pivots performed.
    pub pivots: u64,
}

/// A basic variable this far outside its bounds is infeasible, and an
/// original row this far off holds no more.
const PRIMAL_TOL: f64 = 1e-9;
/// A reduced cost this far past zero has the wrong sign.
const DUAL_TOL: f64 = 1e-9;
/// Tableau entries this small are never pivots.
const PIVOT_TOL: f64 = 1e-9;
/// Elimination results this small are stored as zero, keeping rows sparse.
const DROP_TOL: f64 = 1e-13;
/// Pivots between rebuilds of the tableau from the original rows.
const REFACTOR_PIVOTS: u64 = 400;
/// Steepest-edge weights are kept at least this large.
const WEIGHT_FLOOR: f64 = 1e-12;
/// Marks a column with no basic row.
const NONBASIC: usize = usize::MAX;

/// Solves the LP relaxation of `model` with per-variable bounds
/// `var_bounds[i] = (lb, ub)` replacing the variables' own domains (used by
/// branch-and-bound to fix binaries).
///
/// Integrality is ignored; binary variables are treated as continuous within
/// their bounds.
///
/// # Panics
///
/// Panics if `var_bounds.len() != model.num_vars()`, if a bound pair is
/// inverted or if a bound is not finite.
pub fn solve_relaxation(model: &Model, var_bounds: &[(f64, f64)]) -> LpSolution {
    let mut lp = DualSimplex::new(model);
    let status = lp.solve(var_bounds, f64::INFINITY, None);
    let values = if status == LpStatus::Optimal { lp.values() } else { Vec::new() };
    LpSolution { status, values, objective: lp.objective(), pivots: lp.pivots() }
}

/// Convenience wrapper: solve the relaxation with the model's own bounds.
pub fn solve_model_relaxation(model: &Model) -> LpSolution {
    let bounds: Vec<(f64, f64)> = model.vars().map(|v| model.bounds(v)).collect();
    solve_relaxation(model, &bounds)
}

/// A model's LP relaxation with its current basis, re-optimised in place
/// under each new set of variable bounds.
pub(crate) struct DualSimplex {
    rows: usize,
    /// Number of model variables; column `structural + i` is row `i`'s slack.
    structural: usize,
    /// Row length of the tableau: every column plus `B⁻¹·b` last.
    stride: usize,
    /// `[A | I | b]`, the tableau of the slack basis.
    original: Vec<f64>,
    /// The nonzeros of each row of `A`.
    sparse_rows: Vec<Vec<(usize, f64)>>,
    /// `B⁻¹·[A | I | b]`, row-major.
    tableau: Vec<f64>,
    /// Cost per column (slacks cost nothing).
    cost: Vec<f64>,
    obj_constant: f64,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Current value of every column.
    x: Vec<f64>,
    /// Reduced cost of every column (zero on basic columns).
    reduced: Vec<f64>,
    /// Basic column of each row.
    head: Vec<usize>,
    /// Row of each basic column, [`NONBASIC`] otherwise.
    basic_row: Vec<usize>,
    /// Which bound a nonbasic column sits at.
    at_upper: Vec<bool>,
    /// `‖eᵢᵀ·B⁻¹‖²` per row: the dual steepest-edge weights.
    weights: Vec<f64>,
    pivots: u64,
    since_refactor: u64,
    /// Whether the basic values must be recomputed from `B⁻¹·b` rather than
    /// updated by the nonbasic moves (before the first solve, after a
    /// refactorisation).
    stale: bool,
    /// The pivot row's nonzeros during an elimination; the nonzero nonbasic
    /// moves while the basic values follow them.
    scratch: Vec<(usize, f64)>,
}

impl DualSimplex {
    /// The relaxation of `model` at the slack basis, under the model's own
    /// variable bounds.
    pub(crate) fn new(model: &Model) -> Self {
        let rows = model.num_constraints();
        let structural = model.num_vars();
        let cols = structural + rows;
        let stride = cols + 1;
        let mut original = vec![0.0; rows * stride];
        let mut lower = vec![0.0; cols];
        let mut upper = vec![0.0; cols];
        for (i, c) in model.constraints().iter().enumerate() {
            let row = &mut original[i * stride..(i + 1) * stride];
            for (var, coef) in c.expr.iter() {
                row[var.index()] = coef;
            }
            row[structural + i] = 1.0;
            row[cols] = c.rhs - c.expr.constant_value();
            (lower[structural + i], upper[structural + i]) = match c.sense {
                ConstraintSense::Le => (0.0, f64::INFINITY),
                ConstraintSense::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintSense::Eq => (0.0, 0.0),
            };
        }
        for var in model.vars() {
            (lower[var.index()], upper[var.index()]) = model.bounds(var);
        }
        let mut cost = vec![0.0; cols];
        for (var, coef) in model.objective().iter() {
            cost[var.index()] = coef;
        }
        let sparse_rows = original
            .chunks_exact(stride)
            .map(|row| (0..structural).filter(|&j| row[j] != 0.0).map(|j| (j, row[j])).collect())
            .collect();
        DualSimplex {
            rows,
            sparse_rows,
            structural,
            stride,
            tableau: original.clone(),
            original,
            reduced: cost.clone(),
            cost,
            obj_constant: model.objective().constant_value(),
            lower,
            upper,
            x: vec![0.0; cols],
            head: (structural..cols).collect(),
            basic_row: (0..cols).map(|j| j.checked_sub(structural).unwrap_or(NONBASIC)).collect(),
            at_upper: vec![false; cols],
            weights: vec![1.0; rows],
            pivots: 0,
            since_refactor: 0,
            stale: true,
            scratch: Vec::new(),
        }
    }

    /// Re-optimises under `bounds` (one pair per model variable), starting
    /// from the basis the previous call ended with. Stops early with
    /// [`LpStatus::Cutoff`] once the objective is at least `cutoff`, and with
    /// [`LpStatus::Unfinished`] at `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` has the wrong length, or holds an inverted or
    /// infinite bound.
    pub(crate) fn solve(
        &mut self,
        bounds: &[(f64, f64)],
        cutoff: f64,
        deadline: Option<Instant>,
    ) -> LpStatus {
        assert_eq!(bounds.len(), self.structural, "bounds length mismatch");
        for (j, &(lo, up)) in bounds.iter().enumerate() {
            assert!(lo <= up, "inverted bounds for variable {j}: [{lo}, {up}]");
            assert!(lo.is_finite() && up.is_finite(), "infinite bound on variable {j}");
            (self.lower[j], self.upper[j]) = (lo, up);
        }
        if self.since_refactor >= REFACTOR_PIVOTS {
            self.refactor();
        }
        self.place_nonbasics();
        let limit = 20_000 + 50 * self.stride as u64;
        let mut refactored = false;
        for it in 0..limit {
            if self.objective() >= cutoff {
                return LpStatus::Cutoff;
            }
            if it % 64 == 63 && deadline.is_some_and(|d| Instant::now() >= d) {
                return LpStatus::Unfinished;
            }
            let Some(row) = self.leaving_row() else {
                if !refactored && self.residual() > PRIMAL_TOL {
                    refactored = true;
                    self.refactor();
                    self.place_nonbasics();
                    continue;
                }
                return LpStatus::Optimal;
            };
            let Some(col) = self.entering_column(row) else {
                return LpStatus::Infeasible;
            };
            self.pivot(row, col);
        }
        LpStatus::Unfinished
    }

    /// The model variables' values, clamped into their bounds.
    pub(crate) fn values(&self) -> Vec<f64> {
        (0..self.structural).map(|j| self.x[j].clamp(self.lower[j], self.upper[j])).collect()
    }

    /// The objective at the current point: the optimum after
    /// [`LpStatus::Optimal`], a lower bound on it after any other status.
    pub(crate) fn objective(&self) -> f64 {
        self.obj_constant
            + self.cost[..self.structural].iter().zip(&self.x).map(|(c, x)| c * x).sum::<f64>()
    }

    /// Total pivots since construction.
    pub(crate) fn pivots(&self) -> u64 {
        self.pivots
    }

    /// `(variable, bound, rate)` of every nonbasic model variable that is not
    /// fixed: the bound it sits at, and its reduced cost signed towards the
    /// interior. Moving the variable a distance `t` off that bound raises the
    /// objective of every feasible point by at least `t·rate`. Harris's ratio
    /// test may leave a rate slightly below zero, which bounds nothing.
    pub(crate) fn nonbasic_reduced_costs(&self) -> impl Iterator<Item = (VarId, f64, f64)> + '_ {
        (0..self.structural)
            .filter(|&j| self.basic_row[j] == NONBASIC && self.lower[j] < self.upper[j])
            .map(|j| {
                if self.at_upper[j] {
                    (VarId(j), self.upper[j], -self.reduced[j])
                } else {
                    (VarId(j), self.lower[j], self.reduced[j])
                }
            })
    }

    /// Parks every nonbasic column at the bound its reduced cost points to
    /// (keeping its side on a zero reduced cost) and moves the basic values
    /// with them, or recomputes them as `B⁻¹·b − B⁻¹N·x_N` when stale.
    fn place_nonbasics(&mut self) {
        let cols = self.stride - 1;
        let stale = std::mem::take(&mut self.stale);
        self.scratch.clear();
        for j in 0..cols {
            if self.basic_row[j] != NONBASIC {
                continue;
            }
            let (lo, up, d) = (self.lower[j], self.upper[j], self.reduced[j]);
            // a one-sided column sits at its finite bound
            let at_upper = match (lo.is_finite(), up.is_finite()) {
                (false, _) => true,
                (_, false) => false,
                _ if d > DUAL_TOL => false,
                _ if d < -DUAL_TOL => true,
                _ => self.at_upper[j],
            };
            self.at_upper[j] = at_upper;
            let value = if at_upper { up } else { lo };
            let moved = if stale { value } else { value - self.x[j] };
            self.x[j] = value;
            if moved != 0.0 {
                self.scratch.push((j, moved));
            }
        }
        if !stale && self.scratch.is_empty() {
            return;
        }
        for (i, row) in self.tableau.chunks_exact(self.stride).enumerate() {
            let start = if stale { row[cols] } else { self.x[self.head[i]] };
            self.x[self.head[i]] =
                self.scratch.iter().fold(start, |value, &(j, dj)| value - row[j] * dj);
        }
    }

    /// The infeasible row with the largest `violation² / weight`.
    fn leaving_row(&self) -> Option<usize> {
        let mut best = 0.0;
        let mut leaving = None;
        for (i, &j) in self.head.iter().enumerate() {
            let violation = (self.lower[j] - self.x[j]).max(self.x[j] - self.upper[j]);
            if violation > PRIMAL_TOL {
                let score = violation * violation / self.weights[i];
                if score > best {
                    best = score;
                    leaving = Some(i);
                }
            }
        }
        leaving
    }

    /// Harris's ratio test on row `r`: among the nonbasic columns whose move
    /// off their bound pushes row `r`'s basic variable back towards the
    /// bound it violates, the one that keeps every reduced cost's sign
    /// (within [`DUAL_TOL`]) with the largest pivot. `None` proves the
    /// program infeasible.
    fn entering_column(&self, r: usize) -> Option<usize> {
        let cols = self.stride - 1;
        let p = self.head[r];
        let rise = self.x[p] < self.lower[p];
        let row = &self.tableau[r * self.stride..r * self.stride + cols];
        // x_p = β_r − Σ α_j·x_j: raising x_j moves x_p by −α_j
        let eligible = |j: usize| -> Option<(f64, f64)> {
            if self.basic_row[j] != NONBASIC || self.lower[j] == self.upper[j] {
                return None;
            }
            let gain = if rise { -row[j] } else { row[j] };
            let (gain, d) =
                if self.at_upper[j] { (-gain, -self.reduced[j]) } else { (gain, self.reduced[j]) };
            (gain > PIVOT_TOL).then_some((gain, d.max(0.0)))
        };
        let bound = (0..cols)
            .filter_map(eligible)
            .map(|(gain, d)| (d + DUAL_TOL) / gain)
            .fold(f64::INFINITY, f64::min);
        if bound == f64::INFINITY {
            return None;
        }
        let mut entering = None;
        let mut largest = 0.0;
        for j in 0..cols {
            if let Some((gain, d)) = eligible(j) {
                if d / gain <= bound && gain > largest {
                    largest = gain;
                    entering = Some(j);
                }
            }
        }
        entering
    }

    /// Exchanges row `r`'s basic variable for column `q`: the leaving
    /// variable lands on the bound it violated, and values, reduced costs and
    /// tableau follow.
    fn pivot(&mut self, r: usize, q: usize) {
        let stride = self.stride;
        let p = self.head[r];
        let target = if self.x[p] < self.lower[p] { self.lower[p] } else { self.upper[p] };
        let step = (self.x[p] - target) / self.tableau[r * stride + q];
        for (i, row) in self.tableau.chunks_exact(stride).enumerate() {
            if row[q] != 0.0 {
                self.x[self.head[i]] -= row[q] * step;
            }
        }
        self.x[q] += step;
        self.x[p] = target;
        self.at_upper[p] = target != self.lower[p];

        let dq = self.reduced[q];
        self.eliminate(r, q);
        if dq != 0.0 {
            for &(j, a) in &self.scratch {
                self.reduced[j] -= dq * a;
            }
        }
        self.reduced[q] = 0.0;
        self.basic_row[p] = NONBASIC;
        self.basic_row[q] = r;
        self.head[r] = q;
        self.pivots += 1;
        self.since_refactor += 1;
    }

    /// Gauss–Jordan step on the tableau alone: scales row `r` so that
    /// column `q` reads 1, clears column `q` from every other row and
    /// carries the steepest-edge weights along. Leaves the scaled row's
    /// nonzeros (the `B⁻¹·b` column excluded) in `scratch`.
    fn eliminate(&mut self, r: usize, q: usize) {
        let stride = self.stride;
        let rhs = stride - 1;
        let pivot_row = &mut self.tableau[r * stride..(r + 1) * stride];
        let inv = 1.0 / pivot_row[q];
        self.scratch.clear();
        for (j, value) in pivot_row.iter_mut().enumerate() {
            if *value != 0.0 {
                *value *= inv;
                self.scratch.push((j, *value));
            }
        }
        pivot_row[q] = 1.0;
        // the scaled row's entries under B⁻¹ (the slack columns); a row
        // changed by `row −= f·pivot` has its squared norm there changed by
        // `−2f·⟨row, pivot⟩ + f²·‖pivot‖²`
        let inverse = {
            let from = self.scratch.partition_point(|&(j, _)| j < self.structural);
            let to = self.scratch.partition_point(|&(j, _)| j < rhs);
            &self.scratch[from..to]
        };
        let pivot_weight: f64 = inverse.iter().map(|(_, v)| v * v).sum();
        for (i, row) in self.tableau.chunks_exact_mut(stride).enumerate() {
            let factor = row[q];
            if i == r || factor == 0.0 {
                continue;
            }
            let dot: f64 = inverse.iter().map(|&(j, v)| row[j] * v).sum();
            self.weights[i] = (self.weights[i] - 2.0 * factor * dot
                + factor * factor * pivot_weight)
                .max(WEIGHT_FLOOR);
            for &(j, value) in &self.scratch {
                row[j] -= factor * value;
                if row[j].abs() < DROP_TOL {
                    row[j] = 0.0;
                }
            }
            row[q] = 0.0;
        }
        self.weights[r] = pivot_weight.max(WEIGHT_FLOOR);
        if self.scratch.last().is_some_and(|&(j, _)| j == rhs) {
            self.scratch.pop();
        }
    }

    /// Rebuilds the tableau of the current basis from the original rows and
    /// recomputes the reduced costs; falls back to the slack basis if the
    /// basis has become numerically singular. Either way the basis stays
    /// dual feasible once [`Self::place_nonbasics`] runs.
    fn refactor(&mut self) {
        self.since_refactor = 0;
        self.stale = true;
        self.tableau.copy_from_slice(&self.original);
        let basis = std::mem::take(&mut self.head);
        self.head = vec![NONBASIC; self.rows];
        // a basic slack's column is a unit vector the other pivots never
        // touch, so it keeps its own row
        for &j in &basis {
            if j >= self.structural {
                self.head[j - self.structural] = j;
            }
        }
        let structural = self.structural;
        for &j in basis.iter().filter(|&&j| j < structural) {
            let pivot = (0..self.rows)
                .filter(|&i| self.head[i] == NONBASIC)
                .map(|i| (i, self.tableau[i * self.stride + j].abs()))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match pivot {
                Some((i, size)) if size > PIVOT_TOL => {
                    self.eliminate(i, j);
                    self.head[i] = j;
                }
                _ => {
                    self.tableau.copy_from_slice(&self.original);
                    self.head = (self.structural..self.structural + self.rows).collect();
                    break;
                }
            }
        }
        self.basic_row.fill(NONBASIC);
        for (i, &j) in self.head.iter().enumerate() {
            self.basic_row[j] = i;
        }
        self.reduced.copy_from_slice(&self.cost);
        for (i, row) in self.tableau.chunks_exact(self.stride).enumerate() {
            let cb = self.cost[self.head[i]];
            if cb != 0.0 {
                for (d, a) in self.reduced.iter_mut().zip(row) {
                    *d -= cb * a;
                }
            }
        }
        for &j in &self.head {
            self.reduced[j] = 0.0;
        }
        let inverse = self.structural..self.stride - 1;
        for (w, row) in self.weights.iter_mut().zip(self.tableau.chunks_exact(self.stride)) {
            *w = row[inverse.clone()].iter().map(|v| v * v).sum::<f64>().max(WEIGHT_FLOOR);
        }
    }

    /// The largest `|aᵢ·x + sᵢ − bᵢ|` over the original rows.
    fn residual(&self) -> f64 {
        let rhs = self.stride - 1;
        (0..self.rows)
            .map(|i| {
                let lhs: f64 = self.sparse_rows[i].iter().map(|&(j, a)| a * self.x[j]).sum();
                let slack = self.x[self.structural + i];
                (lhs + slack - self.original[i * self.stride + rhs]).abs()
            })
            .fold(0.0, f64::max)
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
    use proptest::prelude::*;

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
    fn a_warm_basis_answers_every_bound_change_like_a_cold_solve() {
        // the bound sets branch-and-bound walks through: all free, then
        // fixings in and out of one another's subtrees, an infeasible one
        // among them, all re-optimised from whatever basis the last one left
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        let z = m.add_binary("z");
        m.add_le(LinExpr::new().term(1.0, x).term(1.0, y).term(2.0, z), 4.5);
        m.add_ge(LinExpr::new().term(1.0, x).term(-1.0, y), -1.0);
        m.minimize(LinExpr::new().term(-1.0, x).term(-2.0, y).term(-1.5, z));
        let free = [(0.0, 3.0), (0.0, 2.0), (0.0, 1.0)];
        let mut warm = DualSimplex::new(&m);
        for bounds in [
            free,
            [(0.0, 3.0), (0.0, 2.0), (1.0, 1.0)],
            [(0.0, 0.0), (2.0, 2.0), (1.0, 1.0)],
            [(3.0, 3.0), (0.0, 2.0), (0.0, 0.0)],
            [(3.0, 3.0), (2.0, 2.0), (1.0, 1.0)],
            free,
        ] {
            let cold = solve_relaxation(&m, &bounds);
            let status = warm.solve(&bounds, f64::INFINITY, None);
            assert_eq!(status, cold.status, "{bounds:?}");
            if status == LpStatus::Optimal {
                assert!((warm.objective() - cold.objective).abs() < 1e-9, "{bounds:?}");
            }
        }
        assert_eq!(
            warm.solve(&[(3.0, 3.0), (2.0, 2.0), (1.0, 1.0)], 0.0, None),
            LpStatus::Infeasible
        );
    }

    #[test]
    fn a_cutoff_stops_the_solve_below_the_optimum() {
        // the optimum is -6; any cutoff at or below it ends the solve early
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_ge(LinExpr::new().term(1.0, x).term(1.0, y), 4.0);
        m.minimize(LinExpr::new().term(1.0, x).term(2.0, y));
        let bounds = [(0.0, 3.0), (0.0, 2.0)];
        assert_eq!(solve_relaxation(&m, &bounds).objective, 5.0);
        let mut lp = DualSimplex::new(&m);
        assert_eq!(lp.solve(&bounds, 4.0, None), LpStatus::Cutoff);
        assert!(lp.objective() >= 4.0 && lp.objective() <= 5.0 + 1e-9);
        assert_eq!(lp.solve(&bounds, 5.5, None), LpStatus::Optimal);
    }

    #[test]
    fn a_nonbasic_reports_the_bound_it_sits_at_not_its_reduced_costs_sign() {
        // minimise x + 3y s.t. x + 2y >= 1: y ends nonbasic at 0 with rate 1
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_ge(LinExpr::new().term(1.0, x).term(2.0, y), 1.0);
        m.minimize(LinExpr::new().term(1.0, x).term(3.0, y));
        let mut lp = DualSimplex::new(&m);
        assert_eq!(lp.solve(&[(0.0, 1.0), (0.0, 1.0)], f64::INFINITY, None), LpStatus::Optimal);
        let at_y = |lp: &DualSimplex| lp.nonbasic_reduced_costs().find(|&(j, ..)| j == y);
        assert_eq!(at_y(&lp), Some((y, 0.0, 1.0)));
        // a Harris step may leave a reduced cost a hair on the wrong side of
        // zero: y still sits at 0, and a negative rate exceeds no room, however
        // tiny, so reduced-cost fixing never pushes y to 1
        lp.reduced[y.index()] = -1e-12;
        let (_, bound, rate) = at_y(&lp).unwrap();
        assert_eq!(bound, 0.0);
        assert!(rate < 1e-15);
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
        // minimise -x - y s.t. 2x + 2y <= 1 puts x + y = 0.5 on the relaxation
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

    /// Every row and every bound holds within 1e-7 (integrality aside).
    fn satisfies_relaxation(model: &Model, bounds: &[(f64, f64)], values: &[f64]) -> bool {
        let tol = 1e-7;
        bounds.iter().zip(values).all(|(&(lo, up), &v)| v >= lo - tol && v <= up + tol)
            && model.constraints().iter().all(|c| {
                let lhs = c.expr.evaluate(values);
                match c.sense {
                    ConstraintSense::Le => lhs <= c.rhs + tol,
                    ConstraintSense::Ge => lhs >= c.rhs - tol,
                    ConstraintSense::Eq => (lhs - c.rhs).abs() <= tol,
                }
            })
    }

    /// A random program over 2–7 boxed variables (binary or continuous,
    /// some with a shifted or negative range) and 1–6 rows of every sense
    /// with small integer coefficients.
    fn random_program() -> impl Strategy<Value = Model> {
        let var = (any::<bool>(), -3i8..3, 0u8..4);
        let row = (proptest::collection::vec(-3i8..4, 7), 0u8..3, -4i8..8);
        (
            proptest::collection::vec(var, 2..8),
            proptest::collection::vec(row, 1..7),
            proptest::collection::vec(-5i8..6, 7),
        )
            .prop_map(|(vars, rows, costs)| {
                let mut m = Model::new();
                let ids: Vec<VarId> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &(binary, lo, width))| {
                        if binary {
                            m.add_binary(format!("b{i}"))
                        } else {
                            m.add_continuous(format!("c{i}"), lo as f64, (lo + width as i8) as f64)
                        }
                    })
                    .collect();
                for (coeffs, sense, rhs) in rows {
                    let mut expr = LinExpr::new();
                    for (&id, &a) in ids.iter().zip(&coeffs) {
                        expr.add_term(a as f64, id);
                    }
                    let sense = [ConstraintSense::Le, ConstraintSense::Ge, ConstraintSense::Eq]
                        [sense as usize];
                    m.add_constraint(expr, sense, rhs as f64, "");
                }
                let mut objective = LinExpr::new();
                for (&id, &c) in ids.iter().zip(&costs) {
                    objective.add_term(c as f64, id);
                }
                m.minimize(objective);
                m
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dual simplex and the two-phase tableau it replaced agree on
        /// status and optimum, over a sequence of bound changes re-optimised
        /// from one warm basis.
        #[test]
        fn dual_simplex_and_tableau_oracle_reach_equal_optima(
            model in random_program(),
            fixings in proptest::collection::vec(
                proptest::collection::vec((0usize..7, any::<bool>()), 0..4), 1..6),
        ) {
            let base: Vec<(f64, f64)> = model.vars().map(|v| model.bounds(v)).collect();
            let mut warm = DualSimplex::new(&model);
            for fixing in &fixings {
                let mut bounds = base.clone();
                for &(var, upper) in fixing {
                    if let Some(&(lo, up)) = base.get(var) {
                        bounds[var] = if upper { (up, up) } else { (lo, lo) };
                    }
                }
                let oracle = oracle::solve(&model, &bounds);
                let status = warm.solve(&bounds, f64::INFINITY, None);
                prop_assert!(status == oracle.status,
                    "dual {:?} vs oracle {:?} under {:?}", status, oracle.status, bounds);
                if status == LpStatus::Optimal {
                    prop_assert!((warm.objective() - oracle.objective).abs() < 1e-7,
                        "dual {} vs oracle {} under {:?}", warm.objective(), oracle.objective, bounds);
                    let values = warm.values();
                    prop_assert!(satisfies_relaxation(&model, &bounds, &values));
                    prop_assert!((model.objective_value(&values) - warm.objective()).abs() < 1e-7);
                }
            }
        }
    }
}
