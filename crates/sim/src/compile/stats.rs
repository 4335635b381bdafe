//! Compilation telemetry: how much of a circuit lowered to fused or
//! specialized kernels, and how often the [`KernelCache`](super::KernelCache)
//! served a compiled body without recompiling.

use std::collections::BTreeMap;
use std::fmt;

/// Per-gate-family lowering outcome. The three buckets are disjoint: every
/// gate of the family lands in exactly one of `fused` / `specialized` /
/// `general`, so they always sum to `gates`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Gates of this family seen by the compiler.
    pub gates: u64,
    /// Gates lowered through the fusion pass into a fused-unary 2×2 kernel.
    /// This counts runs of any length — a run of one still produces a fused
    /// unary kernel; the actual gate-count reduction is what
    /// [`CompileStats::fusion_ratio`] reports. Runs that folded to the exact
    /// identity and were dropped also count here when they span ≥ 2 gates.
    pub fused: u64,
    /// Gates lowered alone to a specialized kernel (diagonal multiply,
    /// anti-diagonal flip, permutation, controlled flip, or eliminated as an
    /// exact identity).
    pub specialized: u64,
    /// Gates that fell back to the generic dense two-qubit kernel — the only
    /// kernel class with no specialization at all (e.g. `rxx`/`ryy`).
    pub general: u64,
}

impl FamilyStats {
    /// Gates covered by fusion or specialization — everything that avoided
    /// the generic dense two-qubit fallback.
    pub fn covered(&self) -> u64 {
        self.fused + self.specialized
    }
}

/// Report of a compilation (or an aggregate over many, when read from a
/// [`KernelCache`](super::KernelCache)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// Unitary gates consumed by the compiler.
    pub gates_in: u64,
    /// Unitary kernels emitted (excludes measure/reset control kernels).
    pub kernels_out: u64,
    /// Measure/reset kernels emitted.
    pub control_kernels: u64,
    /// Measures no later kernel depends on (wire never touched again, clbit
    /// never rewritten): read off the final state, they never branch. Counted
    /// per framed program, so a cache aggregate sums it over requests.
    pub terminal_measures: u64,
    /// Resets and non-terminal measures — where exact readout has to split
    /// the state. A program with `k` of them visits at most `2^k` leaves;
    /// counted like [`terminal_measures`](Self::terminal_measures).
    pub branch_points: u64,
    /// Gates whose fused product was an exact identity and were dropped
    /// without emitting any kernel.
    pub eliminated_gates: u64,
    /// Requests served from an already-compiled cached body.
    pub cache_hits: u64,
    /// Requests that had to compile their body.
    pub cache_misses: u64,
    /// Compiled bodies the bounded [`KernelCache`](super::KernelCache)
    /// dropped to stay within its budget (each recompiles on its next use).
    pub cache_evictions: u64,
    /// Lowering outcome per gate family (keyed by OpenQASM-style gate name).
    pub families: BTreeMap<String, FamilyStats>,
}

impl CompileStats {
    /// Gates in per kernel out; `1.0` when nothing was compiled. Eliminated
    /// gates make this exceed the naive ratio because they emit no kernel.
    pub fn fusion_ratio(&self) -> f64 {
        if self.kernels_out == 0 {
            if self.gates_in == 0 {
                1.0
            } else {
                self.gates_in as f64
            }
        } else {
            self.gates_in as f64 / self.kernels_out as f64
        }
    }

    /// Fraction of gates lowered to a fused or specialized kernel — i.e.
    /// every gate except those that fell back to the generic dense two-qubit
    /// kernel; `1.0` for an empty compilation.
    pub fn coverage(&self) -> f64 {
        if self.gates_in == 0 {
            return 1.0;
        }
        let covered: u64 = self.families.values().map(FamilyStats::covered).sum();
        covered as f64 / self.gates_in as f64
    }

    /// Records one gate of `family` into the given disjoint bucket.
    pub(crate) fn record_gate(&mut self, family: &str, bucket: Bucket) {
        self.gates_in += 1;
        let entry = self.family_mut(family);
        entry.gates += 1;
        match bucket {
            Bucket::Fused => entry.fused += 1,
            Bucket::Specialized => entry.specialized += 1,
            Bucket::General => entry.general += 1,
        }
    }

    /// Accumulates `other` into `self` (bucket-wise sums).
    pub fn merge(&mut self, other: &CompileStats) {
        self.gates_in += other.gates_in;
        self.kernels_out += other.kernels_out;
        self.control_kernels += other.control_kernels;
        self.terminal_measures += other.terminal_measures;
        self.branch_points += other.branch_points;
        self.eliminated_gates += other.eliminated_gates;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        for (family, fs) in &other.families {
            let entry = self.family_mut(family);
            entry.gates += fs.gates;
            entry.fused += fs.fused;
            entry.specialized += fs.specialized;
            entry.general += fs.general;
        }
    }

    /// The stats of `family`, inserted empty on first sight: a family name
    /// is allocated once per map, not once per gate or merge.
    fn family_mut(&mut self, family: &str) -> &mut FamilyStats {
        if !self.families.contains_key(family) {
            self.families.insert(family.to_owned(), FamilyStats::default());
        }
        self.families.get_mut(family).expect("the family was just inserted")
    }
}

/// Which disjoint [`FamilyStats`] bucket a gate landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bucket {
    Fused,
    Specialized,
    General,
}

impl fmt::Display for CompileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} gates -> {} kernels (+{} control), fusion {:.2}x, coverage {:.1}%, cache {}/{} hits, {} evicted",
            self.gates_in,
            self.kernels_out,
            self.control_kernels,
            self.fusion_ratio(),
            self.coverage() * 100.0,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_evictions,
        )?;
        writeln!(
            f,
            "  readout: {} terminal measures, {} branch points (summed over requests)",
            self.terminal_measures, self.branch_points,
        )?;
        for (family, fs) in &self.families {
            writeln!(
                f,
                "  {family:>8}: {} gates ({} fused, {} specialized, {} general)",
                fs.gates, fs.fused, fs.specialized, fs.general
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_fully_covered() {
        let s = CompileStats::default();
        assert_eq!(s.fusion_ratio(), 1.0);
        assert_eq!(s.coverage(), 1.0);
    }

    #[test]
    fn buckets_are_disjoint_and_merge_adds() {
        let mut a = CompileStats::default();
        a.record_gate("h", Bucket::Fused);
        a.record_gate("h", Bucket::General);
        a.kernels_out = 2;
        a.branch_points = 2;
        let mut b = CompileStats::default();
        b.record_gate("h", Bucket::Specialized);
        b.kernels_out = 1;
        b.branch_points = 1;
        b.terminal_measures = 3;
        a.merge(&b);
        assert_eq!((a.terminal_measures, a.branch_points), (3, 3));
        let h = a.families["h"];
        assert_eq!(h.gates, 3);
        assert_eq!(h.fused + h.specialized + h.general, h.gates);
        assert_eq!(a.gates_in, 3);
        assert!((a.coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.fusion_ratio() - 1.0).abs() < 1e-12);
    }
}
