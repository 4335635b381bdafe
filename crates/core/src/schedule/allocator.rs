//! ShotQC-style shot allocation: split a global shot budget across the
//! deduplicated batch proportionally to each circuit's reconstruction
//! variance contribution.
//!
//! Every executed variant's distribution enters the reconstruction
//! multiplied by cut coefficients — the Eq. (3) attribution weights of its
//! wire-cut legs and the quasi-probability coefficients of its gate-cut
//! instances. A variant whose coefficients are large transmits its sampling
//! noise into the output amplified; giving it proportionally more of the
//! budget minimises the total variance at fixed cost (the ShotQC
//! observation, see PAPERS.md).

use crate::config::{SchedulePolicy, ShotAllocation};
use crate::execute::PreparedBatch;
use crate::fragment::{CutBasis, Digits, FragmentSet, InitState, VariantKey};
use crate::CoreError;

/// Error-slope magnitude of an initialisation leg: the L2 norm of the
/// Eq. (3) attribution coefficients the state's empirical distribution is
/// combined with. |0⟩/|1⟩ feed three components with weights (1, −1, −1)
/// (L2 = √3); |+⟩/|i⟩ feed one component scaled by 2.
fn init_magnitude(state: InitState) -> f64 {
    match state {
        InitState::Zero | InitState::One => 1.7320508075688772, // √3
        InitState::Plus | InitState::PlusI => 2.0,
    }
}

/// Error-slope magnitude of a measurement leg, as a function of the
/// measured bit's empirical probability: Z-basis runs serve the two
/// projector components `2·p(0)` / `2·p(1)` (slopes ∓2, L2 = 2√2), X/Y
/// serve one Pauli expectation `1 − 2·p(1)` (slope 2).
fn basis_magnitude(basis: CutBasis) -> f64 {
    match basis {
        CutBasis::Z => 2.0 * std::f64::consts::SQRT_2,
        CutBasis::X | CutBasis::Y => 2.0,
    }
}

/// The structural reconstruction-variance weight of one variant: the product
/// over its cut legs of the error-slope magnitudes its measured distribution
/// is folded with (wire init/measure attribution slopes, gate-cut instance
/// coefficients — the dominant lever, since `cos²θ` vs `sin²θ` instances can
/// differ by orders of magnitude). A key that does not fit `fragments`
/// weighs nothing.
pub fn variant_weight(fragments: &FragmentSet, key: &VariantKey) -> f64 {
    let Ok(fragment) = fragments.fragment_of(key) else {
        return 0.0;
    };
    // the legs multiply in slot order, inits first, then bases, then gate
    // instances; the init digits sit above the bases in the ordinal
    let mut bases = Digits(key.ordinal);
    let mut upper = bases;
    for _ in &fragment.outgoing_cuts {
        upper.basis();
    }
    let mut weight = 1.0;
    for _ in &fragment.incoming_cuts {
        weight *= init_magnitude(upper.init());
    }
    for _ in &fragment.outgoing_cuts {
        weight *= basis_magnitude(bases.basis());
    }
    for &(cut, _) in &fragment.gate_cut_roles {
        let Some(form) = fragments.gate_cut_forms.get(cut) else {
            return 0.0;
        };
        weight *= form.coefficients()[upper.instance() - 1].abs();
    }
    weight
}

/// Splits a global shot budget across a deduplicated batch.
#[derive(Debug, Clone, Copy)]
pub struct ShotAllocator {
    policy: SchedulePolicy,
}

impl ShotAllocator {
    /// An allocator following `policy`.
    pub fn new(policy: SchedulePolicy) -> Self {
        ShotAllocator { policy }
    }

    /// The policy this allocator runs with.
    pub fn policy(&self) -> &SchedulePolicy {
        &self.policy
    }

    /// Per deduplicated circuit, the variance weight of the variant keys it
    /// serves. A circuit's sampling noise enters every reconstruction term
    /// its keys appear in as an independent contribution, so key weights
    /// combine in quadrature — the allocation that minimises
    /// `Σ w_k² / shots` at a fixed budget is `shots ∝ √(Σ w_k²)`.
    pub(crate) fn circuit_weights(
        &self,
        fragments: &FragmentSet,
        batch: &PreparedBatch,
    ) -> Vec<f64> {
        let mut weights = vec![0.0f64; batch.circuits.len()];
        for (key, &circuit) in batch.keys.iter().zip(&batch.circuit_of_key) {
            weights[circuit] += variant_weight(fragments, key).powi(2);
        }
        weights.iter_mut().for_each(|w| *w = w.sqrt());
        weights
    }

    /// Splits the policy's budget across `weights.len()` circuits:
    /// `Ok(None)` when no budget is set (backends keep their own defaults),
    /// otherwise a per-circuit shot vector summing exactly to the budget,
    /// with every circuit receiving at least `min_shots`.
    ///
    /// Rounding is deterministic largest-remainder, so equal inputs always
    /// produce equal splits.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShotBudgetTooSmall`] when the budget cannot cover
    /// `circuits × min_shots`.
    pub(crate) fn allocate(&self, weights: &[f64]) -> Result<Option<Vec<u64>>, CoreError> {
        let Some(budget) = self.policy.shot_budget else {
            return Ok(None);
        };
        let n = weights.len() as u64;
        if n == 0 {
            return Ok(Some(Vec::new()));
        }
        let min = self.policy.min_shots.max(1);
        let floor_total = n * min;
        if budget < floor_total {
            return Err(CoreError::ShotBudgetTooSmall { budget, needed: floor_total });
        }
        let spare = budget - floor_total;
        let total_weight: f64 = weights.iter().sum();
        let proportional = match self.policy.allocation {
            ShotAllocation::VarianceWeighted if total_weight > 0.0 => {
                weights.iter().map(|w| spare as f64 * w / total_weight).collect::<Vec<f64>>()
            }
            // uniform split (also the zero-weight fallback)
            _ => vec![spare as f64 / n as f64; weights.len()],
        };
        let mut shots: Vec<u64> = proportional.iter().map(|&t| min + t.floor() as u64).collect();
        let assigned: u64 = shots.iter().sum();
        // largest-remainder rounding: hand the leftover shots to the largest
        // fractional parts (ties broken by index) so the split is exact and
        // deterministic
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = proportional[a].fract();
            let fb = proportional[b].fract();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let mut leftover = budget - assigned;
        for &index in &order {
            if leftover == 0 {
                break;
            }
            shots[index] += 1;
            leftover -= 1;
        }
        debug_assert_eq!(shots.iter().sum::<u64>(), budget);
        Ok(Some(shots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulePolicy;

    fn allocate(policy: SchedulePolicy, weights: &[f64]) -> Vec<u64> {
        ShotAllocator::new(policy).allocate(weights).unwrap().unwrap()
    }

    #[test]
    fn uniform_allocation_splits_evenly_with_exact_total() {
        let policy = SchedulePolicy::with_budget(10).with_allocation(ShotAllocation::Uniform);
        let shots = allocate(policy, &[5.0, 1.0, 1.0]);
        assert_eq!(shots.iter().sum::<u64>(), 10);
        assert!(shots.iter().all(|&s| s == 3 || s == 4), "near-even split: {shots:?}");
    }

    #[test]
    fn variance_allocation_follows_weights() {
        let policy = SchedulePolicy::with_budget(1000);
        let shots = allocate(policy, &[6.0, 3.0, 1.0]);
        assert_eq!(shots.iter().sum::<u64>(), 1000);
        assert!(shots[0] > shots[1] && shots[1] > shots[2], "monotone in weight: {shots:?}");
        // proportionality within rounding error
        assert!((shots[0] as f64 - 600.0).abs() < 3.0);
    }

    #[test]
    fn min_shots_floor_is_respected() {
        let policy = SchedulePolicy::with_budget(100).with_min_shots(10);
        let shots = allocate(policy, &[1000.0, 0.0, 0.0]);
        assert_eq!(shots.iter().sum::<u64>(), 100);
        assert!(shots[1] >= 10 && shots[2] >= 10, "zero-weight circuits keep the floor");
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let policy = SchedulePolicy::with_budget(9);
        let shots = allocate(policy, &[0.0, 0.0, 0.0]);
        assert_eq!(shots, vec![3, 3, 3]);
    }

    #[test]
    fn too_small_budget_is_a_typed_error() {
        let allocator = ShotAllocator::new(SchedulePolicy::with_budget(5).with_min_shots(10));
        assert!(matches!(
            allocator.allocate(&[1.0, 1.0]),
            Err(CoreError::ShotBudgetTooSmall { budget: 5, needed: 20 })
        ));
    }

    #[test]
    fn no_budget_means_no_allocation() {
        let allocator = ShotAllocator::new(SchedulePolicy::default());
        assert!(allocator.allocate(&[1.0, 2.0]).unwrap().is_none());
    }
}
