//! Property-based tests for the ILP solver: on random small 0-1 models the
//! branch-and-bound result must match brute-force enumeration.

use proptest::prelude::*;
use qrcc_ilp::{solver, LinExpr, Model, SolverConfig};

/// Builds a random small knapsack-like model from the given weights, values
/// and capacity fraction, returning the model and the brute-force optimum.
fn build_and_enumerate(weights: &[u8], values: &[i8], cover: bool) -> (Model, Option<f64>) {
    let n = weights.len();
    let mut model = Model::new();
    let vars: Vec<_> = (0..n).map(|i| model.add_binary(format!("v{i}"))).collect();
    let capacity: f64 = weights.iter().map(|&w| w as f64).sum::<f64>() / 2.0;

    let mut weight_expr = LinExpr::new();
    let mut obj = LinExpr::new();
    for i in 0..n {
        weight_expr.add_term(weights[i] as f64, vars[i]);
        obj.add_term(values[i] as f64, vars[i]);
    }
    if cover {
        model.add_ge(weight_expr, capacity);
    } else {
        model.add_le(weight_expr, capacity);
    }
    model.minimize(obj);

    // Brute force.
    let mut best: Option<f64> = None;
    for mask in 0..(1u32 << n) {
        let assignment: Vec<f64> =
            (0..n).map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 }).collect();
        if model.is_feasible(&assignment, 1e-9) {
            let obj = model.objective_value(&assignment);
            best = Some(best.map_or(obj, |b: f64| b.min(obj)));
        }
    }
    (model, best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branch_and_bound_matches_brute_force(
        weights in proptest::collection::vec(1u8..10, 2..8),
        values in proptest::collection::vec(-9i8..10, 2..8),
        cover in any::<bool>(),
    ) {
        let n = weights.len().min(values.len());
        let (model, brute) = build_and_enumerate(&weights[..n], &values[..n], cover);
        let result = solver::solve(&model, &SolverConfig::default());
        match brute {
            Some(best) => {
                let sol = result.expect("solver must find the feasible optimum");
                prop_assert!(sol.is_optimal());
                prop_assert!((sol.objective() - best).abs() < 1e-6,
                    "solver {} vs brute force {}", sol.objective(), best);
                prop_assert!(model.is_feasible(sol.values(), 1e-6));
            }
            None => prop_assert!(result.is_err()),
        }
    }
}
