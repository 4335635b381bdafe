//! Compilation telemetry: how much of a circuit lowered to fused or
//! specialized kernels, and how its measurements classified.
//!
//! Lowering counts into a fixed-size [`Tally`] (one counter per gate family
//! and bucket, no allocation); a backend sums its programs' tallies into
//! [`CompileCounters`] with relaxed atomic adds, so compiling threads share
//! no lock. The named [`CompileStats`] report is built from either only
//! when it is read.

use qrcc_circuit::Gate;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One representative of every gate family, in the order [`family`]
/// numbers them; only the name is read.
const FAMILIES: [Gate; 23] = [
    Gate::I,
    Gate::H,
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::S,
    Gate::Sdg,
    Gate::T,
    Gate::Tdg,
    Gate::SqrtX,
    Gate::Rx(0.0),
    Gate::Ry(0.0),
    Gate::Rz(0.0),
    Gate::Phase(0.0),
    Gate::U3(0.0, 0.0, 0.0),
    Gate::Cx,
    Gate::Cy,
    Gate::Cz,
    Gate::Swap,
    Gate::Rzz(0.0),
    Gate::Rxx(0.0),
    Gate::Ryy(0.0),
    Gate::CPhase(0.0),
];

/// Number of gate families a tally counts.
const FAMILY_COUNT: usize = FAMILIES.len();

/// The index of `gate`'s family in [`FAMILIES`].
pub(crate) fn family(gate: &Gate) -> usize {
    use Gate::*;
    match gate {
        I => 0,
        H => 1,
        X => 2,
        Y => 3,
        Z => 4,
        S => 5,
        Sdg => 6,
        T => 7,
        Tdg => 8,
        SqrtX => 9,
        Rx(_) => 10,
        Ry(_) => 11,
        Rz(_) => 12,
        Phase(_) => 13,
        U3(..) => 14,
        Cx => 15,
        Cy => 16,
        Cz => 17,
        Swap => 18,
        Rzz(_) => 19,
        Rxx(_) => 20,
        Ryy(_) => 21,
        CPhase(_) => 22,
    }
}

/// Which disjoint [`FamilyStats`] bucket a gate landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bucket {
    Fused = 0,
    Specialized = 1,
    General = 2,
}

/// The counts of one compilation, by gate family and bucket: what lowering
/// and measurement classification record, without naming anything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    gates: [[u64; 3]; FAMILY_COUNT],
    pub(crate) kernels_out: u64,
    pub(crate) control_kernels: u64,
    pub(crate) terminal_measures: u64,
    pub(crate) branch_points: u64,
    pub(crate) eliminated_gates: u64,
}

impl Tally {
    /// Records one gate of family `family` (see [`family`]) into `bucket`.
    pub(crate) fn record_gate(&mut self, family: usize, bucket: Bucket) {
        self.gates[family][bucket as usize] += 1;
    }

    /// The scalar counters, in [`CompileCounters::scalars`] order.
    fn scalars(&self) -> [u64; 5] {
        [
            self.kernels_out,
            self.control_kernels,
            self.terminal_measures,
            self.branch_points,
            self.eliminated_gates,
        ]
    }

    /// The named report of these counts.
    pub(crate) fn stats(&self) -> CompileStats {
        stats_of(self.gates, self.scalars())
    }
}

/// Builds a [`CompileStats`] from per-family bucket counts and the scalar
/// counters in [`Tally::scalars`] order.
fn stats_of(gates: [[u64; 3]; FAMILY_COUNT], scalars: [u64; 5]) -> CompileStats {
    let [kernels_out, control_kernels, terminal_measures, branch_points, eliminated_gates] =
        scalars;
    let mut stats = CompileStats {
        kernels_out,
        control_kernels,
        terminal_measures,
        branch_points,
        eliminated_gates,
        ..CompileStats::default()
    };
    for (gate, [fused, specialized, general]) in FAMILIES.iter().zip(gates) {
        let total = fused + specialized + general;
        if total > 0 {
            stats.gates_in += total;
            let family = FamilyStats { gates: total, fused, specialized, general };
            stats.families.insert(gate.name().to_owned(), family);
        }
    }
    stats
}

/// Compile telemetry summed over every program a backend compiled.
///
/// Each [`add`](Self::add) is a handful of relaxed atomic adds — the
/// counters publish no other data — so the threads that compile and run a
/// batch never wait on one another; [`stats`](Self::stats) builds the named
/// report when it is read.
#[derive(Debug, Default)]
pub struct CompileCounters {
    gates: [[AtomicU64; 3]; FAMILY_COUNT],
    /// [`Tally::scalars`], in that order.
    scalars: [AtomicU64; 5],
}

impl CompileCounters {
    /// Counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the counts of one compiled program.
    pub fn add(&self, program: &super::FramedProgram) {
        let tally = program.tally();
        for (counters, counts) in self.gates.iter().zip(&tally.gates) {
            for (counter, &count) in counters.iter().zip(counts) {
                if count > 0 {
                    counter.fetch_add(count, Ordering::Relaxed);
                }
            }
        }
        for (counter, count) in self.scalars.iter().zip(tally.scalars()) {
            if count > 0 {
                counter.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// The report of everything added so far.
    pub fn stats(&self) -> CompileStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        stats_of(
            self.gates.each_ref().map(|row| row.each_ref().map(load)),
            self.scalars.each_ref().map(load),
        )
    }
}

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

/// Report of a compilation, or of the sum of many when read from a
/// backend's [`CompileCounters`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// Unitary gates consumed by the compiler.
    pub gates_in: u64,
    /// Unitary kernels emitted (excludes measure/reset control kernels).
    pub kernels_out: u64,
    /// Measure/reset kernels emitted.
    pub control_kernels: u64,
    /// Measures no later kernel depends on (wire never touched again, clbit
    /// never rewritten): read off the final state, they never branch.
    /// Counted per program, so a backend's sum counts every circuit it ran.
    pub terminal_measures: u64,
    /// Resets and non-terminal measures — where exact readout has to split
    /// the state. A program with `k` of them visits at most `2^k` leaves;
    /// counted like [`terminal_measures`](Self::terminal_measures).
    pub branch_points: u64,
    /// Gates whose fused product was an exact identity and were dropped
    /// without emitting any kernel.
    pub eliminated_gates: u64,
    /// Always 0: every circuit compiles on the thread that runs it, and no
    /// compiled program is kept. Kept only for readers of the field; it
    /// goes together with [`cache_misses`](Self::cache_misses).
    pub cache_hits: u64,
    /// Always 0, like [`cache_hits`](Self::cache_hits).
    pub cache_misses: u64,
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
        for (family, fs) in &other.families {
            let entry = self.family_mut(family);
            entry.gates += fs.gates;
            entry.fused += fs.fused;
            entry.specialized += fs.specialized;
            entry.general += fs.general;
        }
    }

    /// The stats of `family`, inserted empty on first sight: a family name
    /// is allocated once per map, not once per merge.
    fn family_mut(&mut self, family: &str) -> &mut FamilyStats {
        if !self.families.contains_key(family) {
            self.families.insert(family.to_owned(), FamilyStats::default());
        }
        self.families.get_mut(family).expect("the family was just inserted")
    }
}

impl fmt::Display for CompileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} gates -> {} kernels (+{} control), fusion {:.2}x, coverage {:.1}%",
            self.gates_in,
            self.kernels_out,
            self.control_kernels,
            self.fusion_ratio(),
            self.coverage() * 100.0,
        )?;
        writeln!(
            f,
            "  readout: {} terminal measures, {} branch points (summed over programs)",
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
    fn family_numbers_every_gate_once_in_table_order() {
        for (index, gate) in FAMILIES.iter().enumerate() {
            assert_eq!(family(gate), index, "{}", gate.name());
        }
        let mut names: Vec<&str> = FAMILIES.iter().map(Gate::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILY_COUNT, "one family per gate name");
    }

    #[test]
    fn buckets_are_disjoint_and_merge_adds() {
        let h = family(&Gate::H);
        let mut a = Tally::default();
        a.record_gate(h, Bucket::Fused);
        a.record_gate(h, Bucket::General);
        a.kernels_out = 2;
        a.branch_points = 2;
        let mut b = Tally::default();
        b.record_gate(h, Bucket::Specialized);
        b.kernels_out = 1;
        b.branch_points = 1;
        b.terminal_measures = 3;
        let mut a = a.stats();
        a.merge(&b.stats());
        assert_eq!((a.terminal_measures, a.branch_points), (3, 3));
        let h = a.families["h"];
        assert_eq!(h.gates, 3);
        assert_eq!(h.fused + h.specialized + h.general, h.gates);
        assert_eq!(a.gates_in, 3);
        assert!((a.coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.fusion_ratio() - 1.0).abs() < 1e-12);
    }
}
