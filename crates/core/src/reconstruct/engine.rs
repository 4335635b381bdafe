//! The shared contraction engine behind both accumulators (and so behind
//! every reconstruction).
//!
//! Every executed fragment variant is folded **once** into a cut-indexed
//! [`CutTensor`]: one axis per wire cut (radix 4, the attribution components
//! of Eq. (3)) or gate cut (radix 6, the Mitarai–Fujii instances), with a
//! payload per entry — the sub-normalised distribution over the fragment's
//! output bits for probability workloads, a parity-weighted scalar for
//! expectation workloads. A fold visits only the entries its variant can
//! reach (`WireSlots`): `O(2^c · (c + 3^in))` per probability variant, and
//! per expectation variant one `O(2^c · (#Z + r))` pass that marginalises
//! the distribution onto its `#Z` Z-basis cut bits and the `r` output bits
//! its terms tell apart, an `O(r · 2^(#Z + r))` Walsh–Hadamard pass, then
//! `O(3^in · 2^#Z)` per Pauli term — for a `c`-clbit distribution and `in`
//! incoming cuts.
//!
//! Reconstruction then runs in one of two executable strategies:
//!
//! * **Dense** — the global mixed-radix loop of the paper's FRP/FRE models.
//!   Probabilities: `4^cuts · 2^m` multiply-adds over an output split into
//!   rayon-filled slices (`m` measured qubits, one `2^m` scratch);
//!   expectations: `4^wire · 6^gate` scalar products in deterministic chunks.
//! * **Contract** — the ARP divide-and-conquer model made executable:
//!   tensors are merged pairwise along shared cut legs (each contracted wire
//!   leg folds the `1/2` scale, each gate leg folds its quasi-probability
//!   coefficient), with the merge order chosen greedily by intermediate
//!   tensor size. Attribution entries whose accumulated absolute weight
//!   falls below a tolerance are pruned, and the dropped mass is reported.
//!
//! [`resolve_strategy`] turns a [`ReconstructionStrategy`] (possibly `Auto`)
//! into a concrete executable path using the [`cost`] models.

use super::{init_weight, Odometer, MAX_DENSE_CUTS};
use crate::fragment::{CutBasis, Digits, Fragment, FragmentSet};
use crate::gatecut::{instance_measures, GateHalf};
use crate::reconstruct::cost;
use crate::{CoreError, QrccConfig};
use qrcc_circuit::observable::{Pauli, PauliString};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Which classical post-processing path reconstructs the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReconstructionStrategy {
    /// The global `4^wire · 6^gate` mixed-radix loop (the paper's FRP/FRE
    /// models), rayon-parallel over deterministic component chunks. Capped at
    /// [`MAX_DENSE_CUTS`] wire cuts.
    Dense,
    /// Pairwise fragment-tensor contraction along shared cuts (the paper's
    /// ARP model made executable), with greedy ordering and sparse term
    /// pruning. Only per-contraction legs are capped, so plans whose total
    /// cut count exceeds [`MAX_DENSE_CUTS`] remain reconstructable.
    Contract,
    /// Pick whichever feasible strategy the [`cost`] models rate cheaper.
    #[default]
    Auto,
}

/// The two reconstruction workloads the engine serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full probability-vector reconstruction (wire cuts only).
    Probability,
    /// Expectation-value reconstruction (wire and gate cuts).
    Expectation,
}

/// Tuning knobs of the reconstruction engine, shared by both reconstructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionOptions {
    /// Strategy selection (`Auto` consults the [`cost`] models).
    pub strategy: ReconstructionStrategy,
    /// Sparse-pruning tolerance of the `Contract` strategy: attribution
    /// entries whose accumulated absolute weight stays below this value are
    /// dropped (`0.0` disables pruning; the dense path never prunes).
    pub prune_tolerance: f64,
}

impl Default for ReconstructionOptions {
    fn default() -> Self {
        ReconstructionOptions { strategy: ReconstructionStrategy::Auto, prune_tolerance: 0.0 }
    }
}

impl ReconstructionOptions {
    /// The options a [`QrccConfig`] selects.
    pub fn from_config(config: &QrccConfig) -> Self {
        ReconstructionOptions {
            strategy: config.reconstruction_strategy,
            prune_tolerance: config.prune_tolerance,
        }
    }
}

/// What one reconstruction actually did: the resolved strategy, the pairwise
/// contraction stats, and the mass dropped by sparse pruning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconstructionReport {
    /// The strategy that executed (never `Auto`; the default value `Auto`
    /// only appears in a freshly initialised report).
    pub strategy: ReconstructionStrategy,
    /// Number of pairwise tensor contractions performed (0 for `Dense`).
    pub contractions: usize,
    /// The largest number of cut legs alive in any single tensor or pairwise
    /// contraction — the quantity the per-contraction cap applies to.
    pub max_contraction_legs: usize,
    /// Attribution entries that survived pruning across all tensors built.
    pub kept_terms: usize,
    /// Attribution entries dropped because their absolute weight stayed
    /// below the tolerance.
    pub pruned_terms: usize,
    /// Total absolute weight of the dropped entries — an upper-bound proxy
    /// for the reconstruction error pruning introduced.
    pub pruned_weight: f64,
    /// The tolerance pruning ran with.
    pub prune_tolerance: f64,
    /// Wall-clock attribution by pipeline phase ("where did the time go?"),
    /// measured by the streaming execution paths
    /// (`QrccPipeline::execute_streaming` and
    /// `QrccPipeline::execute_observables_streaming`). `None` when the
    /// consumer reconstructed from a pre-executed batch.
    pub profile: Option<crate::obs::PhaseProfile>,
}

impl ReconstructionReport {
    /// The report of a `strategy` run under `options`; the contraction fills
    /// in its own counters.
    pub(crate) fn new(strategy: ReconstructionStrategy, options: &ReconstructionOptions) -> Self {
        ReconstructionReport {
            strategy,
            prune_tolerance: options.prune_tolerance,
            ..ReconstructionReport::default()
        }
    }
}

/// One cut axis of a [`CutTensor`], identified by its global cut id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    /// A wire cut: 4 attribution components, contraction folds `1/2`.
    Wire(usize),
    /// A gate cut: 6 instances, contraction folds the instance coefficient.
    Gate(usize),
}

impl Leg {
    fn radix(self) -> usize {
        match self {
            Leg::Wire(_) => 4,
            Leg::Gate(_) => 6,
        }
    }
}

/// A fragment's executed variants folded into one cut-indexed tensor.
///
/// Entry `e` (mixed-radix over `legs`, least-significant leg first) holds a
/// payload of `2^bit_origins.len()` values: the weighted distribution over
/// the fragment's original-circuit output bits (`bit_origins[i]` names the
/// original qubit of payload bit `i`); expectation tensors carry scalar
/// payloads (`bit_origins` empty).
#[derive(Debug, Clone)]
pub(crate) struct CutTensor {
    legs: Vec<Leg>,
    strides: Vec<usize>,
    entries: usize,
    bit_origins: Vec<usize>,
    payload_len: usize,
    data: Vec<f64>,
    /// Per-entry liveness: `false` entries are all-zero (or pruned) and are
    /// skipped by both strategies.
    active: Vec<bool>,
}

impl CutTensor {
    fn new(legs: Vec<Leg>, bit_origins: Vec<usize>) -> Self {
        let mut strides = Vec::with_capacity(legs.len());
        let mut entries = 1usize;
        for leg in &legs {
            strides.push(entries);
            entries *= leg.radix();
        }
        let payload_len = 1usize << bit_origins.len();
        CutTensor {
            legs,
            strides,
            entries,
            bit_origins,
            payload_len,
            data: vec![0.0; entries * payload_len],
            active: vec![false; entries],
        }
    }

    fn payload(&self, entry: usize) -> &[f64] {
        &self.data[entry * self.payload_len..(entry + 1) * self.payload_len]
    }

    /// Recomputes the liveness flags from the payload contents.
    pub(crate) fn refresh_active(&mut self) {
        for entry in 0..self.entries {
            self.active[entry] = self.data
                [entry * self.payload_len..(entry + 1) * self.payload_len]
                .iter()
                .any(|&v| v != 0.0);
        }
    }

    /// Drops entries whose accumulated absolute weight stays below
    /// `tolerance`, recording the dropped mass in `report`. A tolerance of
    /// zero prunes nothing but still refreshes liveness and term counts.
    fn prune(&mut self, tolerance: f64, report: &mut ReconstructionReport) {
        for entry in 0..self.entries {
            let start = entry * self.payload_len;
            let slice = &mut self.data[start..start + self.payload_len];
            let mass: f64 = slice.iter().map(|v| v.abs()).sum();
            if mass == 0.0 {
                self.active[entry] = false;
            } else if mass < tolerance {
                slice.iter_mut().for_each(|v| *v = 0.0);
                self.active[entry] = false;
                report.pruned_terms += 1;
                report.pruned_weight += mass;
            } else {
                self.active[entry] = true;
                report.kept_terms += 1;
            }
        }
    }

    /// Sums out diagonal pairs of duplicated legs (a cut whose both sides
    /// land in the same fragment), folding the contraction weight. Such a
    /// cut is internal to the fragment — no other tensor carries its leg —
    /// so **both** axes disappear and the diagonal is summed over, exactly
    /// as the dense path's global component sum handles that cut. Real plans
    /// place the two sides of a cut in different fragments, so this is
    /// normally a no-op — but the contract path must not silently mis-handle
    /// a self-cut if a planner ever emits one.
    fn normalize_legs(mut self, coeffs: &[[f64; 6]]) -> CutTensor {
        loop {
            let dup = self.legs.iter().enumerate().find_map(|(p1, leg)| {
                self.legs[p1 + 1..].iter().position(|l| l == leg).map(|off| (p1, p1 + 1 + off))
            });
            let Some((p1, p2)) = dup else { return self };
            let legs: Vec<Leg> = self
                .legs
                .iter()
                .enumerate()
                .filter(|&(p, _)| p != p1 && p != p2)
                .map(|(_, &l)| l)
                .collect();
            let mut out = CutTensor::new(legs, self.bit_origins.clone());
            let diagonal_stride = self.strides[p1] + self.strides[p2];
            let radix = self.legs[p1].radix();
            let diagonal_weights: Vec<f64> = (0..radix)
                .map(|d| match self.legs[p1] {
                    Leg::Wire(_) => 0.5,
                    Leg::Gate(g) => coeffs[g][d],
                })
                .collect();
            let mut od = Odometer::new(out.legs.iter().map(|l| l.radix()).collect());
            let mut e_out = 0usize;
            while let Some(digits) = od.next() {
                // map the surviving out legs back to their original strides
                let mut base = 0usize;
                let mut out_digit = 0usize;
                for (tp, stride) in self.strides.iter().enumerate() {
                    if tp == p1 || tp == p2 {
                        continue;
                    }
                    base += digits[out_digit] * stride;
                    out_digit += 1;
                }
                let start = e_out * out.payload_len;
                for (d, &w) in diagonal_weights.iter().enumerate() {
                    if w == 0.0 {
                        continue;
                    }
                    let diag = self.payload(base + d * diagonal_stride);
                    for (slot, &v) in out.data[start..start + out.payload_len].iter_mut().zip(diag)
                    {
                        *slot += w * v;
                    }
                }
                e_out += 1;
            }
            out.refresh_active();
            self = out;
        }
    }
}

// ---------------------------------------------------------------------------
// Tensor building (consume phase, step 1)
// ---------------------------------------------------------------------------

/// An empty (clbit-free) fragment was never executed: the distribution over
/// its zero classical bits is the constant `[1.0]`.
pub(crate) const TRIVIAL: [f64; 1] = [1.0];

/// Gathers the bits of `value` at `positions` into a compact index: bit `i`
/// of the result is bit `positions[i]` of `value`.
fn gather_bits(value: usize, positions: &[usize]) -> usize {
    positions.iter().enumerate().fold(0, |acc, (bit, &pos)| acc | ((value >> pos) & 1) << bit)
}

/// The inverse spread: bit `i` of `value` lands at bit `positions[i]`.
fn scatter_bits(value: usize, positions: &[usize]) -> usize {
    positions.iter().enumerate().fold(0, |acc, (bit, &pos)| acc | ((value >> bit) & 1) << pos)
}

/// One executed variant's wire-cut slots, reduced to the tensor entries it
/// can touch at all — the sum-factorised form of Eq. (3) both folds share.
///
/// For fixed initialisation states only `≤ 3^in` incoming component combos
/// carry a non-zero [`init_weight`]; for fixed measurement bases a Z slot
/// sends an outcome to component 0 or 1 (picked by its cut bit, weight 2)
/// and an X/Y slot to component 2/3 (weight ±1 by its cut bit), so every
/// outcome has exactly **one** non-zero outgoing combo. [`select`] rebuilds
/// this view per variant ordinal, reusing its buffers.
///
/// [`select`]: WireSlots::select
#[derive(Debug, Clone)]
struct WireSlots {
    num_in: usize,
    /// Classical bit of each outgoing cut's measurement.
    cut_bit_positions: Vec<usize>,
    /// Non-zero `(entry offset, weight)` pairs over the incoming legs.
    in_terms: Vec<(usize, f64)>,
    in_scratch: Vec<(usize, f64)>,
    /// Classical bit and entry stride of every Z-basis outgoing slot.
    z_positions: Vec<usize>,
    z_strides: Vec<usize>,
    /// Entry offset of the X/Y slots' fixed components 2/3.
    out_base: usize,
    /// Classical bits of the X/Y slots: their parity signs the outcome.
    sign_mask: usize,
}

impl WireSlots {
    fn new(fragment: &Fragment) -> Self {
        WireSlots {
            num_in: fragment.incoming_cuts.len(),
            cut_bit_positions: fragment.cut_clbits.iter().map(|&(_, clbit)| clbit).collect(),
            in_terms: Vec::new(),
            in_scratch: Vec::new(),
            z_positions: Vec::new(),
            z_strides: Vec::new(),
            out_base: 0,
            sign_mask: 0,
        }
    }

    /// Specialises the slots to the variant `ordinal`; `strides` are the
    /// tensor's leg strides (incoming legs first, then outgoing). Returns
    /// the ordinal's digits left after the wire slots': its gate instances.
    fn select(&mut self, strides: &[usize], ordinal: u64) -> Digits {
        let (in_strides, out_strides) = strides.split_at(self.num_in);
        let mut digits = Digits(ordinal);
        self.z_positions.clear();
        self.z_strides.clear();
        self.out_base = 0;
        self.sign_mask = 0;
        for (&pos, &stride) in self.cut_bit_positions.iter().zip(out_strides) {
            match digits.basis() {
                CutBasis::Z => {
                    self.z_positions.push(pos);
                    self.z_strides.push(stride);
                }
                CutBasis::X => {
                    self.out_base += 2 * stride;
                    self.sign_mask |= 1 << pos;
                }
                CutBasis::Y => {
                    self.out_base += 3 * stride;
                    self.sign_mask |= 1 << pos;
                }
            }
        }

        self.in_terms.clear();
        self.in_terms.push((0, 1.0));
        for &stride in in_strides {
            let state = digits.init();
            self.in_scratch.clear();
            for &(idx, weight) in &self.in_terms {
                for component in 0..4 {
                    let w = init_weight(component, state);
                    if w != 0.0 {
                        self.in_scratch.push((idx + component * stride, weight * w));
                    }
                }
            }
            std::mem::swap(&mut self.in_terms, &mut self.in_scratch);
        }
        digits
    }

    /// Weight magnitude of the one non-zero outgoing combo: `2^#Z`.
    fn out_scale(&self) -> f64 {
        (1u64 << self.z_positions.len()) as f64
    }

    /// Entry offset of the outgoing combo whose Z slots read `z_key`.
    fn out_index(&self, z_key: usize) -> usize {
        self.z_strides
            .iter()
            .enumerate()
            .fold(self.out_base, |acc, (slot, &stride)| acc + ((z_key >> slot) & 1) * stride)
    }
}

/// Where one outcome lands in a fold — its payload or table index, its
/// outgoing entry offset and the parity that signs it — tabulated per
/// variant over the low and the high half of the outcome bits, as the
/// simulator's readout tabulates clbit masks: an outcome joins one entry of
/// each half instead of gathering its bits one at a time.
#[derive(Debug, Clone, Default)]
struct OutcomeTables {
    low: Vec<Spot>,
    high: Vec<Spot>,
    /// What each outcome bit alone contributes (a buffer reused per variant).
    bits: Vec<Spot>,
}

/// A set of outcome bits' share of where the outcome lands: output bits
/// (or-ed), outgoing offset (added) and sign parity (xor-ed) — each half's
/// share is exact, so joining two halves gives what the bit-by-bit gather
/// gave.
#[derive(Debug, Clone, Copy, Default)]
struct Spot {
    y: usize,
    out: usize,
    odd: bool,
}

impl Spot {
    fn join(self, other: Spot) -> Spot {
        Spot { y: self.y | other.y, out: self.out + other.out, odd: self.odd != other.odd }
    }
}

impl OutcomeTables {
    /// Tabulates the outcomes of a `len`-entry distribution: bit `i` of an
    /// outcome's `y` is its bit `y_positions[i]`, its `out` adds `stride`
    /// for each `(position, stride)` of `strided` whose bit it has set, and
    /// it is odd when it has an odd number of `sign_mask`'s bits. Returns
    /// the number of outcomes per low-half table.
    fn build(
        &mut self,
        len: usize,
        y_positions: &[usize],
        strided: impl Iterator<Item = (usize, usize)>,
        sign_mask: usize,
    ) -> usize {
        // enough bits to index every entry, even of a mis-sized distribution
        let clbits = len.checked_sub(1).map_or(0, |last| usize::BITS - last.leading_zeros());
        let clbits = clbits as usize;
        self.bits.clear();
        self.bits.resize(clbits, Spot::default());
        for (i, &position) in y_positions.iter().enumerate() {
            if let Some(bit) = self.bits.get_mut(position) {
                bit.y = 1 << i;
            }
        }
        for (position, stride) in strided {
            if let Some(bit) = self.bits.get_mut(position) {
                bit.out = stride;
            }
        }
        for (position, bit) in self.bits.iter_mut().enumerate() {
            bit.odd = sign_mask >> position & 1 == 1;
        }
        let (low, high) = self.bits.split_at(clbits / 2);
        fill(&mut self.low, low);
        fill(&mut self.high, high);
        self.low.len()
    }
}

/// Fills `table[v]` with the join of `bits[i]` over the set bits `i` of `v`.
fn fill(table: &mut Vec<Spot>, bits: &[Spot]) {
    table.clear();
    table.resize(1 << bits.len(), Spot::default());
    for v in 1..table.len() {
        table[v] = table[v & (v - 1)].join(bits[v.trailing_zeros() as usize]);
    }
}

/// The per-variant fold of one workload's measurement-setting group: the folder
/// writes `tensors[target][fragment]` of each of its targets (the
/// probability vector, or the Pauli terms it serves).
pub(crate) trait Fold {
    /// Folds **one** executed variant's distribution; callers must
    /// [`refresh_active`](CutTensor::refresh_active) (or prune) once folding
    /// is complete.
    fn fold(&mut self, tensors: &mut [Vec<CutTensor>], fragment: usize, ordinal: u64, dist: &[f64]);

    /// The targets whose tensors this folder writes.
    fn targets(&self) -> impl Iterator<Item = usize> + '_;
}

/// Reusable scratch for folding one fragment's probability variants into its
/// cut tensor one at a time. One folder serves any number of
/// [`CutTensor::fold_partial`] calls for the same fragment, whether the
/// variants arrive as one complete batch or as streamed chunks.
#[derive(Debug, Clone)]
pub(crate) struct FragmentFolder {
    output_bit_positions: Vec<usize>,
    slots: WireSlots,
    tables: OutcomeTables,
}

impl FragmentFolder {
    /// A folder plus the empty probability tensor of `fragment`: legs are
    /// the incoming then outgoing wire cuts, payloads the weighted
    /// distributions over the fragment's output bits.
    pub(crate) fn probability(fragment: &Fragment) -> (CutTensor, FragmentFolder) {
        let legs: Vec<Leg> = fragment
            .incoming_cuts
            .iter()
            .chain(&fragment.outgoing_cuts)
            .map(|&cut| Leg::Wire(cut))
            .collect();
        let bit_origins: Vec<usize> =
            fragment.output_clbits.iter().map(|&(orig, _)| orig).collect();
        let tensor = CutTensor::new(legs, bit_origins);
        let folder = FragmentFolder {
            output_bit_positions: fragment.output_clbits.iter().map(|&(_, clbit)| clbit).collect(),
            slots: WireSlots::new(fragment),
            tables: OutcomeTables::default(),
        };
        (tensor, folder)
    }
}

impl Fold for FragmentFolder {
    fn fold(
        &mut self,
        tensors: &mut [Vec<CutTensor>],
        fragment: usize,
        ordinal: u64,
        dist: &[f64],
    ) {
        tensors[0][fragment].fold_partial(self, ordinal, dist);
    }

    fn targets(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(0)
    }
}

impl CutTensor {
    /// Folds **one** executed probability variant's distribution into this
    /// tensor — the unit of tensor building. Every variant of a fragment
    /// folds through here, one batch or streamed chunk at a time; the
    /// accumulators fix the order so the sums round alike, and must
    /// [`refresh_active`](CutTensor::refresh_active) (or prune) once folding
    /// is complete.
    ///
    /// Cost: `O(2^c · 3^in + 2^(c/2) · c)` for a `c`-clbit distribution —
    /// each non-zero outcome writes its one outgoing combo under the
    /// variant's `≤ 3^in` incoming terms, never the `4^in · 4^out` component
    /// grid, and finds it by joining two half-width table entries.
    pub(crate) fn fold_partial(&mut self, folder: &mut FragmentFolder, ordinal: u64, dist: &[f64]) {
        let slots = &mut folder.slots;
        slots.select(&self.strides, ordinal);
        let scale = slots.out_scale();
        let strided = slots.z_positions.iter().copied().zip(slots.z_strides.iter().copied());
        let tables = &mut folder.tables;
        let low_len =
            tables.build(dist.len(), &folder.output_bit_positions, strided, slots.sign_mask);
        // outcome `high · low_len + low`, in ascending outcome order
        for (&high, chunk) in tables.high.iter().zip(dist.chunks(low_len)) {
            for (&low, &p) in tables.low.iter().zip(chunk) {
                if p == 0.0 {
                    continue;
                }
                let spot = low.join(high);
                let weight = if spot.odd { -(scale * p) } else { scale * p };
                let idx_out = slots.out_base + spot.out;
                for &(idx_in, in_weight) in &slots.in_terms {
                    self.data[(idx_in + idx_out) * self.payload_len + spot.y] += in_weight * weight;
                }
            }
        }
    }

    /// Zeroes the tensor so a dirty fragment can be re-folded from scratch
    /// (the shot-top-up path: only the touched fragment's tensor rebuilds).
    pub(crate) fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
        self.active.iter_mut().for_each(|a| *a = false);
    }
}

/// Reusable scratch for folding one fragment's expectation variants of one
/// measurement setting into the scalar cut tensors of every Pauli term of
/// that setting's qubit-wise-commuting group — the expectation
/// counterpart of [`FragmentFolder`], whether the variants arrive as one
/// complete batch or as streamed chunks.
///
/// Each distribution is marginalised **once**, onto the variant's Z-basis
/// cut bits plus the output bits some but not all served terms read (X/Y
/// cut bits, measuring gate instances and the outputs every term reads
/// enter as a sign). One Walsh–Hadamard pass over the read bits then holds
/// every term's parity sum at once.
#[derive(Debug, Clone)]
pub(crate) struct SignatureFolder {
    /// `(term, read bits)` per served term: the bits select, among
    /// `read_positions`, the outputs the term's Pauli string is not I on.
    terms: Vec<(usize, usize)>,
    /// Output clbits some, but not every, served term reads.
    read_positions: Vec<usize>,
    /// Output clbits every served term reads.
    read_by_all: usize,
    gate_bit_positions: Vec<usize>,
    role_halves: Vec<GateHalf>,
    gate_base_stride: usize,
    strides: Vec<usize>,
    slots: WireSlots,
    /// The table's bits, lowest first: the variant's Z cut bits, then
    /// `read_positions`.
    cells: Vec<usize>,
    table: Vec<f64>,
    outcomes: OutcomeTables,
}

impl SignatureFolder {
    /// The empty expectation tensor of `fragment`: legs are the incoming and
    /// outgoing wire cuts plus the fragment's gate-cut roles, payloads are
    /// parity-weighted scalars.
    pub(crate) fn tensor(fragment: &Fragment) -> CutTensor {
        let legs: Vec<Leg> = fragment
            .incoming_cuts
            .iter()
            .chain(&fragment.outgoing_cuts)
            .map(|&cut| Leg::Wire(cut))
            .chain(fragment.gate_cut_roles.iter().map(|&(cut, _)| Leg::Gate(cut)))
            .collect();
        CutTensor::new(legs, Vec::new())
    }

    /// A folder for `fragment` serving `terms`: `(term index, Pauli string)`
    /// pairs whose strings share one measurement setting on `fragment`
    /// (each agrees with it on the outputs the string is not I on).
    pub(crate) fn new(fragment: &Fragment, terms: &[(usize, &PauliString)]) -> Self {
        let reads = |string: &PauliString| {
            fragment
                .output_clbits
                .iter()
                .filter(|&&(orig, _)| string.pauli(orig) != Pauli::I)
                .fold(0usize, |mask, &(_, clbit)| mask | 1 << clbit)
        };
        let read_any = terms.iter().fold(0, |mask, &(_, string)| mask | reads(string));
        let read_by_all = terms.iter().fold(read_any, |mask, &(_, string)| mask & reads(string));
        let read_positions: Vec<usize> = (0..fragment.num_clbits)
            .filter(|&clbit| (read_any & !read_by_all) >> clbit & 1 == 1)
            .collect();
        SignatureFolder {
            terms: terms
                .iter()
                .map(|&(term, string)| (term, gather_bits(reads(string), &read_positions)))
                .collect(),
            read_positions,
            read_by_all,
            gate_bit_positions: fragment.gatecut_clbits.iter().map(|&(_, c)| c).collect(),
            role_halves: fragment.gate_cut_roles.iter().map(|&(_, h)| h).collect(),
            gate_base_stride: 4usize
                .pow((fragment.incoming_cuts.len() + fragment.outgoing_cuts.len()) as u32),
            strides: SignatureFolder::tensor(fragment).strides,
            slots: WireSlots::new(fragment),
            cells: Vec::new(),
            table: Vec::new(),
            outcomes: OutcomeTables::default(),
        }
    }
}

/// Cost per variant: one `O(2^c)` pass over half-width outcome tables
/// (`O(2^(c/2) · c)` to build) fills the signed table over the `#Z` Z-basis
/// cut bits and the `r` read output bits, one
/// `O(r · 2^(#Z + r))` Walsh–Hadamard pass gives every read-bit parity sum,
/// and per term one pass over the `2^#Z` outgoing combos writes the entries
/// that can be non-zero.
impl Fold for SignatureFolder {
    fn targets(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().map(|&(term, _)| term)
    }

    fn fold(
        &mut self,
        tensors: &mut [Vec<CutTensor>],
        fragment: usize,
        ordinal: u64,
        dist: &[f64],
    ) {
        let slots = &mut self.slots;
        let mut instances = slots.select(&self.strides, ordinal);

        // entry offset and measurement signs of this variant's gate instances
        let mut idx_gate = 0usize;
        let mut stride = self.gate_base_stride;
        let mut sign_mask = slots.sign_mask | self.read_by_all;
        for (&half, &position) in self.role_halves.iter().zip(&self.gate_bit_positions) {
            let instance = instances.instance();
            idx_gate += (instance - 1) * stride;
            stride *= 6;
            if instance_measures(instance, half) {
                sign_mask |= 1 << position;
            }
        }

        let z_bits = slots.z_positions.len();
        self.cells.clear();
        self.cells.extend(&slots.z_positions);
        self.cells.extend(&self.read_positions);
        self.table.clear();
        self.table.resize(1 << self.cells.len(), 0.0);
        let tables = &mut self.outcomes;
        let low_len = tables.build(dist.len(), &self.cells, std::iter::empty(), sign_mask);
        for (&high, chunk) in tables.high.iter().zip(dist.chunks(low_len)) {
            for (&low, &p) in tables.low.iter().zip(chunk) {
                if p != 0.0 {
                    let spot = low.join(high);
                    self.table[spot.y] += if spot.odd { -p } else { p };
                }
            }
        }
        // Walsh–Hadamard over the read bits: cell `z | m << #Z` becomes the
        // Z-marginal `z` with every outcome signed by its parity on `m`
        let mut half = 1 << z_bits;
        while half < self.table.len() {
            for block in self.table.chunks_mut(2 * half) {
                let (low, high) = block.split_at_mut(half);
                for (a, b) in low.iter_mut().zip(high) {
                    (*a, *b) = (*a + *b, *a - *b);
                }
            }
            half *= 2;
        }

        let scale = slots.out_scale();
        for &(term, reads) in &self.terms {
            let tensor = &mut tensors[term][fragment];
            let sums = &self.table[reads << z_bits..][..1 << z_bits];
            for (z_key, &sum) in sums.iter().enumerate() {
                if sum == 0.0 {
                    continue;
                }
                let idx = slots.out_index(z_key) + idx_gate;
                for &(idx_in, in_weight) in &slots.in_terms {
                    tensor.data[idx_in + idx] += in_weight * (scale * sum);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Contraction planning (greedy order + feasibility + cost)
// ---------------------------------------------------------------------------

/// Leg-level summary of one tensor, enough to plan a contraction order
/// without building the tensor.
#[derive(Debug, Clone)]
struct LegMeta {
    legs: Vec<Leg>,
    bits: usize,
}

/// A replayable pairwise-contraction schedule over an evolving tensor list:
/// step `(i, j)` contracts the tensors at positions `i < j`, removes both and
/// appends the result.
#[derive(Debug, Clone)]
pub(crate) struct ContractionPlan {
    steps: Vec<(usize, usize)>,
    /// Largest number of cut legs alive in any single tensor or pairwise
    /// contraction.
    pub(crate) max_step_legs: usize,
    /// `log₂` FP size of each step (for the [`cost`] comparison).
    pub(crate) step_log2_sizes: Vec<f64>,
}

fn leg_metas(fragments: &FragmentSet, workload: Workload) -> Vec<LegMeta> {
    fragments
        .fragments
        .iter()
        .map(|f| {
            let mut raw: Vec<Leg> =
                f.incoming_cuts.iter().chain(&f.outgoing_cuts).map(|&cut| Leg::Wire(cut)).collect();
            let bits = match workload {
                Workload::Probability => f.output_clbits.len(),
                Workload::Expectation => {
                    raw.extend(f.gate_cut_roles.iter().map(|&(cut, _)| Leg::Gate(cut)));
                    0
                }
            };
            // A leg appearing twice is a self-cut: `normalize_legs` sums it
            // out at tensor-build time, so it carries no axis at all.
            let legs: Vec<Leg> = raw
                .iter()
                .filter(|leg| raw.iter().filter(|l| l == leg).count() == 1)
                .copied()
                .collect();
            LegMeta { legs, bits }
        })
        .collect()
}

/// `log₂` of the FP cost of contracting two tensors: the full union of their
/// legs times both payload sizes.
fn pair_log2_size(a: &LegMeta, b: &LegMeta) -> f64 {
    let mut log2 = (a.bits + b.bits) as f64;
    for leg in &a.legs {
        log2 += (leg.radix() as f64).log2();
    }
    for leg in &b.legs {
        if !a.legs.contains(leg) {
            log2 += (leg.radix() as f64).log2();
        }
    }
    log2
}

/// Greedily orders pairwise contractions by smallest resulting intermediate
/// (ties broken by position, so the schedule is deterministic).
pub(crate) fn plan_contraction(fragments: &FragmentSet, workload: Workload) -> ContractionPlan {
    let mut metas = leg_metas(fragments, workload);
    let mut steps = Vec::new();
    let mut step_log2_sizes = Vec::new();
    let mut max_step_legs = metas.iter().map(|m| m.legs.len()).max().unwrap_or(0);
    while metas.len() > 1 {
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..metas.len() {
            for j in i + 1..metas.len() {
                let size = pair_log2_size(&metas[i], &metas[j]);
                if best.is_none_or(|(s, _, _)| size < s) {
                    best = Some((size, i, j));
                }
            }
        }
        let (size, i, j) = best.expect("at least one pair");
        let b = metas.remove(j);
        let a = metas.remove(i);
        let union_legs = a.legs.len() + b.legs.iter().filter(|l| !a.legs.contains(l)).count();
        max_step_legs = max_step_legs.max(union_legs);
        let merged_legs: Vec<Leg> = a
            .legs
            .iter()
            .filter(|l| !b.legs.contains(l))
            .chain(b.legs.iter().filter(|l| !a.legs.contains(l)))
            .copied()
            .collect();
        metas.push(LegMeta { legs: merged_legs, bits: a.bits + b.bits });
        steps.push((i, j));
        step_log2_sizes.push(size);
    }
    ContractionPlan { steps, max_step_legs, step_log2_sizes }
}

/// Resolves a requested strategy against a plan's feasibility and the
/// [`cost`] models: `Auto` picks the cheaper feasible path, explicit choices
/// fail with [`CoreError::TooManyCuts`] when infeasible. A probability
/// workload on a gate-cut plan fails first, with
/// [`CoreError::GateCutNeedsExpectation`]: gate-cut post-processing cannot
/// rebuild a distribution.
pub(crate) fn resolve_strategy(
    fragments: &FragmentSet,
    options: &ReconstructionOptions,
    workload: Workload,
) -> Result<(ReconstructionStrategy, ContractionPlan), CoreError> {
    if workload == Workload::Probability && fragments.num_gate_cuts() > 0 {
        return Err(CoreError::GateCutNeedsExpectation);
    }
    let plan = plan_contraction(fragments, workload);
    let wire_cuts = fragments.num_wire_cuts();
    let dense_feasible = wire_cuts <= MAX_DENSE_CUTS;
    let contract_feasible = plan.max_step_legs <= MAX_DENSE_CUTS;
    match options.strategy {
        ReconstructionStrategy::Dense => {
            if dense_feasible {
                Ok((ReconstructionStrategy::Dense, plan))
            } else {
                Err(CoreError::TooManyCuts { cuts: wire_cuts, limit: MAX_DENSE_CUTS })
            }
        }
        ReconstructionStrategy::Contract => {
            if contract_feasible {
                Ok((ReconstructionStrategy::Contract, plan))
            } else {
                Err(CoreError::TooManyCuts { cuts: plan.max_step_legs, limit: MAX_DENSE_CUTS })
            }
        }
        ReconstructionStrategy::Auto => match (dense_feasible, contract_feasible) {
            (false, false) => Err(CoreError::TooManyCuts {
                cuts: wire_cuts.max(plan.max_step_legs),
                limit: MAX_DENSE_CUTS,
            }),
            (true, false) => Ok((ReconstructionStrategy::Dense, plan)),
            (false, true) => Ok((ReconstructionStrategy::Contract, plan)),
            (true, true) => {
                let dense_log2 = match workload {
                    Workload::Probability => {
                        let measured =
                            fragments.output_owner.iter().filter(|o| o.is_some()).count();
                        cost::frp_log2_flops(measured, wire_cuts)
                    }
                    Workload::Expectation => {
                        // fold gate cuts into an effective cut count so that
                        // 2·cuts_eff = log₂(4^wire · 6^gate)
                        let effective =
                            wire_cuts as f64 + fragments.num_gate_cuts() as f64 * 6f64.log2() / 2.0;
                        cost::fre_log2_flops(effective)
                    }
                };
                let contract_log2 = cost::contract_log2_flops(&plan.step_log2_sizes);
                if contract_log2 < dense_log2 {
                    Ok((ReconstructionStrategy::Contract, plan))
                } else {
                    Ok((ReconstructionStrategy::Dense, plan))
                }
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Contract strategy (pairwise contraction)
// ---------------------------------------------------------------------------

/// Contracts two tensors along their shared legs: each shared wire leg folds
/// the `1/2` reconstruction scale, each shared gate leg folds its instance
/// coefficient, and the payloads combine as an outer product (`a`'s bits stay
/// low, `b`'s go high).
fn contract_pair(a: &CutTensor, b: &CutTensor, coeffs: &[[f64; 6]]) -> CutTensor {
    let shared: Vec<(usize, usize)> = a
        .legs
        .iter()
        .enumerate()
        .filter_map(|(pa, la)| b.legs.iter().position(|lb| lb == la).map(|pb| (pa, pb)))
        .collect();
    let free_a: Vec<usize> =
        (0..a.legs.len()).filter(|p| !shared.iter().any(|&(pa, _)| pa == *p)).collect();
    let free_b: Vec<usize> =
        (0..b.legs.len()).filter(|p| !shared.iter().any(|&(_, pb)| pb == *p)).collect();
    let legs: Vec<Leg> =
        free_a.iter().map(|&p| a.legs[p]).chain(free_b.iter().map(|&p| b.legs[p])).collect();
    let bit_origins: Vec<usize> = a.bit_origins.iter().chain(&b.bit_origins).copied().collect();
    let mut out = CutTensor::new(legs, bit_origins);

    let pa_len = a.payload_len;
    let out_payload_len = out.payload_len;
    let mut out_od = Odometer::new(out.legs.iter().map(|l| l.radix()).collect());
    let mut sh_od = Odometer::new(shared.iter().map(|&(pa, _)| a.legs[pa].radix()).collect());
    let mut e_out = 0usize;
    while let Some(digits) = out_od.next() {
        let base_a: usize =
            digits[..free_a.len()].iter().zip(&free_a).map(|(&d, &p)| d * a.strides[p]).sum();
        let base_b: usize =
            digits[free_a.len()..].iter().zip(&free_b).map(|(&d, &p)| d * b.strides[p]).sum();
        let start = e_out * out_payload_len;
        let acc = &mut out.data[start..start + out_payload_len];
        sh_od.reset();
        while let Some(shared_digits) = sh_od.next() {
            let mut w = 1.0f64;
            let mut ia = base_a;
            let mut ib = base_b;
            for (k, &(pa, pb)) in shared.iter().enumerate() {
                let d = shared_digits[k];
                ia += d * a.strides[pa];
                ib += d * b.strides[pb];
                w *= match a.legs[pa] {
                    Leg::Wire(_) => 0.5,
                    Leg::Gate(g) => coeffs[g][d],
                };
            }
            if w == 0.0 || !a.active[ia] || !b.active[ib] {
                continue;
            }
            let pa_slice = a.payload(ia);
            let pb_slice = b.payload(ib);
            for (yb, &vb) in pb_slice.iter().enumerate() {
                let f = w * vb;
                if f == 0.0 {
                    continue;
                }
                let row = &mut acc[yb * pa_len..(yb + 1) * pa_len];
                for (slot, &va) in row.iter_mut().zip(pa_slice) {
                    *slot += f * va;
                }
            }
        }
        e_out += 1;
    }
    out
}

/// Replays a [`ContractionPlan`] over concrete tensors, pruning every
/// intermediate, and returns the final (leg-free) tensor.
fn contract_all(
    mut tensors: Vec<CutTensor>,
    plan: &ContractionPlan,
    coeffs: &[[f64; 6]],
    tolerance: f64,
    report: &mut ReconstructionReport,
) -> CutTensor {
    for &(i, j) in &plan.steps {
        let b = tensors.remove(j);
        let a = tensors.remove(i);
        let mut merged = contract_pair(&a, &b, coeffs);
        report.contractions += 1;
        merged.prune(tolerance, report);
        tensors.push(merged);
    }
    tensors.pop().expect("contraction leaves one tensor")
}

/// The `Contract` strategy for the probability workload, fed with the
/// accumulator's folded (raw, un-normalised) fragment tensors: normalise,
/// prune, pairwise-contract, scatter into the `2^N` vector.
pub(crate) fn contract_probabilities_from_tensors(
    fragments: &FragmentSet,
    tensors: Vec<CutTensor>,
    plan: &ContractionPlan,
    tolerance: f64,
    report: &mut ReconstructionReport,
) -> Vec<f64> {
    let coeffs: Vec<[f64; 6]> = Vec::new();
    let tensors: Vec<CutTensor> = tensors
        .into_iter()
        .map(|tensor| {
            let mut tensor = tensor.normalize_legs(&coeffs);
            tensor.prune(tolerance, report);
            tensor
        })
        .collect();
    report.max_contraction_legs = plan.max_step_legs;
    let final_tensor = contract_all(tensors, plan, &coeffs, tolerance, report);
    debug_assert!(final_tensor.legs.is_empty(), "all cut legs must be contracted");

    let mut probabilities = vec![0.0; 1usize << fragments.original_qubits];
    for (y, &p) in final_tensor.payload(0).iter().enumerate() {
        probabilities[scatter_bits(y, &final_tensor.bit_origins)] += p;
    }
    probabilities
}

/// The `Contract` strategy for one Pauli string of the expectation workload,
/// fed with the accumulator's folded (raw, un-normalised) fragment tensors:
/// normalise, prune, pairwise-contract, read the final scalar.
pub(crate) fn contract_expectation_from_tensors(
    fragments: &FragmentSet,
    tensors: Vec<CutTensor>,
    plan: &ContractionPlan,
    tolerance: f64,
    report: &mut ReconstructionReport,
) -> f64 {
    let coeffs: Vec<[f64; 6]> =
        fragments.gate_cut_forms.iter().map(|form| form.coefficients()).collect();
    let tensors: Vec<CutTensor> = tensors
        .into_iter()
        .map(|tensor| {
            let mut tensor = tensor.normalize_legs(&coeffs);
            tensor.prune(tolerance, report);
            tensor
        })
        .collect();
    report.max_contraction_legs = report.max_contraction_legs.max(plan.max_step_legs);
    let final_tensor = contract_all(tensors, plan, &coeffs, tolerance, report);
    debug_assert!(final_tensor.legs.is_empty(), "all cut legs must be contracted");
    final_tensor.payload(0)[0]
}

// ---------------------------------------------------------------------------
// Dense strategy (global mixed-radix loop, rayon-parallel)
// ---------------------------------------------------------------------------

/// Splits `total` combinations into deterministic contiguous chunk bounds.
/// The chunk count depends only on the problem size (not the thread count),
/// so the ordered reduction gives bit-identical results on any machine.
fn chunk_bounds(total: usize) -> Vec<(usize, usize)> {
    let chunks = total.clamp(1, 64);
    (0..chunks).map(|c| (c * total / chunks, (c + 1) * total / chunks)).collect()
}

/// Per-fragment entry-index descriptors: `(stride, global cut id)` per wire
/// leg and `(stride, global gate id)` per gate leg.
fn leg_descriptors(tensors: &[CutTensor]) -> Vec<Vec<(usize, Leg)>> {
    tensors
        .iter()
        .map(|t| t.strides.iter().copied().zip(t.legs.iter().copied()).collect())
        .collect()
}

/// `log₂` of the output-slice length [`dense_probabilities`] hands to one
/// rayon task: at most 64 slices, none narrower than `2^12` slots. A function
/// of the output width alone, so the slicing — and with it every rounding —
/// is the same on any thread count.
fn dense_slice_bits(output_bits: usize) -> usize {
    output_bits.saturating_sub(6).max(12).min(output_bits)
}

/// Accumulates every `4^cuts` component combo into `out`, the slice of the
/// fragment-major output that starts at index `lo` (`out.len()` is a power
/// of two dividing `lo`). Inside the slice each fragment contributes one
/// contiguous window of its payload — the whole payload below the slice
/// width, a single value above it — so a combo is the outer product of those
/// windows: scalars fold into the weight, vectors into a running product
/// whose last factor is accumulated straight into `out`.
fn accumulate_dense_slice(
    tensors: &[CutTensor],
    descriptors: &[Vec<(usize, Leg)>],
    offsets: &[usize],
    cuts: usize,
    lo: usize,
    out: &mut [f64],
) {
    let slice_bits = out.len().trailing_zeros() as usize;
    let windows: Vec<(usize, usize)> = tensors
        .iter()
        .zip(offsets)
        .map(|(tensor, &offset)| {
            let bits = tensor.bit_origins.len();
            let varying = slice_bits.saturating_sub(offset).min(bits);
            ((lo >> offset) & (tensor.payload_len - 1), 1usize << varying)
        })
        .collect();
    let scale = 0.5f64.powi(cuts as i32);
    let mut prefix = vec![0.0f64; (out.len() / 2).max(1)];
    let mut factors: Vec<&[f64]> = Vec::with_capacity(tensors.len());
    let mut od = Odometer::uniform(cuts, 4);
    'combos: while let Some(components) = od.next() {
        let mut weight = scale;
        factors.clear();
        for ((tensor, legs), &(start, len)) in tensors.iter().zip(descriptors).zip(&windows) {
            let mut idx = 0usize;
            for &(stride, leg) in legs {
                let Leg::Wire(cut) = leg else {
                    unreachable!("probability tensors carry wire legs only")
                };
                idx += components[cut] * stride;
            }
            if !tensor.active[idx] {
                continue 'combos; // a zero block annihilates the combo
            }
            let window = &tensor.payload(idx)[start..start + len];
            if len == 1 {
                weight *= window[0];
            } else {
                factors.push(window);
            }
        }
        if weight == 0.0 {
            continue;
        }
        let Some((last, rest)) = factors.split_last() else {
            out[0] += weight;
            continue;
        };
        prefix[0] = weight;
        let mut filled = 1usize;
        for factor in rest {
            let (head, tail) = prefix.split_at_mut(filled);
            for (block, &f) in tail.chunks_mut(filled).zip(&factor[1..]) {
                for (slot, &h) in block.iter_mut().zip(head.iter()) {
                    *slot = h * f;
                }
            }
            head.iter_mut().for_each(|h| *h *= factor[0]);
            filled *= factor.len();
        }
        for (block, &f) in out.chunks_mut(filled).zip(last.iter()) {
            if f == 0.0 {
                continue;
            }
            for (slot, &h) in block.iter_mut().zip(&prefix[..filled]) {
                *slot += h * f;
            }
        }
    }
}

/// The dense (FRP) probability reconstruction, output-sliced: the result is
/// accumulated in a fragment-major layout (fragment `f`'s payload index in
/// bits `offsets[f]..`, the last fragment in the high bits), split into
/// contiguous slices that rayon tasks fill independently — each sums all
/// `4^cuts` combos in odometer order, so the result is bit-identical for any
/// thread count — and scattered to the `2^N` vector at the end.
///
/// Cost: `4^cuts · 2^m` multiply-adds for `m` measured qubits (plus a
/// geometrically smaller running-product term) and one `2^m` scratch; idle
/// wires cost nothing.
pub(crate) fn dense_probabilities(fragments: &FragmentSet, tensors: &[CutTensor]) -> Vec<f64> {
    let cuts = fragments.num_wire_cuts();
    let descriptors = leg_descriptors(tensors);
    let mut offsets = Vec::with_capacity(tensors.len());
    let mut output_bits = 0usize;
    for tensor in tensors {
        offsets.push(output_bits);
        output_bits += tensor.bit_origins.len();
    }

    let mut compact = vec![0.0f64; 1 << output_bits];
    let slice_len = 1usize << dense_slice_bits(output_bits);
    let slices: Vec<&mut [f64]> = compact.chunks_mut(slice_len).collect();
    slices.into_par_iter().enumerate().for_each(|(slice, out)| {
        accumulate_dense_slice(tensors, &descriptors, &offsets, cuts, slice * slice_len, out);
    });

    // Fragment-major index → original-qubit index: each fragment spreads its
    // payload bits to their original qubits; idle wires stay 0.
    let spreads: Vec<Vec<usize>> = tensors
        .iter()
        .map(|t| (0..t.payload_len).map(|y| scatter_bits(y, &t.bit_origins)).collect())
        .collect();
    let mut probabilities = vec![0.0f64; 1 << fragments.original_qubits];
    let Some((low, high)) = spreads.split_first() else { return probabilities };
    for (rest, block) in compact.chunks(low.len()).enumerate() {
        let mut base = 0usize;
        let mut shift = 0usize;
        for spread in high {
            base |= spread[(rest >> shift) & (spread.len() - 1)];
            shift += spread.len().trailing_zeros() as usize;
        }
        for (&p, &x) in block.iter().zip(low) {
            probabilities[base | x] = p;
        }
    }
    probabilities
}

/// The dense (FRE) expectation reconstruction for one Pauli string: a global
/// `4^wire · 6^gate` loop, rayon-parallel over deterministic wire-component
/// chunks with an ordered scalar reduction.
pub(crate) fn dense_expectation(fragments: &FragmentSet, tensors: &[CutTensor]) -> f64 {
    let wire_cuts = fragments.num_wire_cuts();
    let gate_cuts = fragments.num_gate_cuts();
    let scale = 0.5f64.powi(wire_cuts as i32);
    let coeffs: Vec<[f64; 6]> =
        fragments.gate_cut_forms.iter().map(|form| form.coefficients()).collect();
    let descriptors = leg_descriptors(tensors);
    let total = 1usize << (2 * wire_cuts);

    let partials: Vec<f64> = chunk_bounds(total)
        .into_par_iter()
        .map(|(start, end)| {
            let mut sum = 0.0f64;
            let mut wire_od = Odometer::uniform(wire_cuts, 4);
            wire_od.seek(start);
            let mut gate_od = Odometer::uniform(gate_cuts, 6);
            let mut remaining = end - start;
            while remaining > 0 {
                let Some(wire_components) = wire_od.next() else { break };
                remaining -= 1;
                gate_od.reset();
                'instances: while let Some(gate_instances) = gate_od.next() {
                    let mut term = scale;
                    for (g, &instance) in gate_instances.iter().enumerate() {
                        term *= coeffs[g][instance];
                        if term == 0.0 {
                            continue 'instances;
                        }
                    }
                    for (tensor, legs) in tensors.iter().zip(&descriptors) {
                        let mut idx = 0usize;
                        for &(stride, leg) in legs {
                            idx += match leg {
                                Leg::Wire(cut) => wire_components[cut] * stride,
                                Leg::Gate(cut) => gate_instances[cut] * stride,
                            };
                        }
                        if !tensor.active[idx] {
                            continue 'instances;
                        }
                        term *= tensor.payload(idx)[0];
                    }
                    sum += term;
                }
            }
            sum
        })
        .collect();

    partials.into_iter().sum()
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_default_is_auto() {
        assert_eq!(ReconstructionStrategy::default(), ReconstructionStrategy::Auto);
        let options = ReconstructionOptions::default();
        assert_eq!(options.strategy, ReconstructionStrategy::Auto);
        assert_eq!(options.prune_tolerance, 0.0);
    }

    #[test]
    fn leg_radices_match_the_paper() {
        assert_eq!(Leg::Wire(0).radix(), 4);
        assert_eq!(Leg::Gate(0).radix(), 6);
    }

    #[test]
    fn prune_drops_small_entries_and_reports_mass() {
        let mut tensor = CutTensor::new(vec![Leg::Wire(0)], vec![0]);
        // entry 0: mass 0.3; entry 1: mass 0.001; entries 2/3: zero
        tensor.data[0] = 0.1;
        tensor.data[1] = -0.2;
        tensor.data[2] = 0.001;
        let mut report = ReconstructionReport::default();
        tensor.prune(0.01, &mut report);
        assert_eq!(report.kept_terms, 1);
        assert_eq!(report.pruned_terms, 1);
        assert!((report.pruned_weight - 0.001).abs() < 1e-12);
        assert!(tensor.active[0]);
        assert!(!tensor.active[1]);
        assert_eq!(tensor.payload(1), &[0.0, 0.0]);
    }

    #[test]
    fn contract_pair_sums_shared_wire_legs_with_half_weight() {
        // a[c] payload [p] = c+1; b[c] scalar = 1 for all c
        let mut a = CutTensor::new(vec![Leg::Wire(0)], Vec::new());
        let mut b = CutTensor::new(vec![Leg::Wire(0)], Vec::new());
        for c in 0..4 {
            a.data[c] = (c + 1) as f64;
            b.data[c] = 1.0;
        }
        a.refresh_active();
        b.refresh_active();
        let out = contract_pair(&a, &b, &[]);
        assert!(out.legs.is_empty());
        // 0.5 · (1 + 2 + 3 + 4) = 5
        assert!((out.payload(0)[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn contract_pair_outer_products_disjoint_payloads() {
        let mut a = CutTensor::new(Vec::new(), vec![0]);
        a.data.copy_from_slice(&[0.25, 0.75]);
        a.refresh_active();
        let mut b = CutTensor::new(Vec::new(), vec![1]);
        b.data.copy_from_slice(&[0.5, 0.5]);
        b.refresh_active();
        let out = contract_pair(&a, &b, &[]);
        assert_eq!(out.bit_origins, vec![0, 1]);
        let expected = [0.125, 0.375, 0.125, 0.375];
        for (got, want) in out.payload(0).iter().zip(&expected) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_legs_sums_out_a_self_cut_diagonally() {
        // tensor with the same wire leg twice: T[c1, c2] = c1 + 4·c2 + 1
        let mut tensor = CutTensor::new(vec![Leg::Wire(3), Leg::Wire(3)], Vec::new());
        for (i, v) in tensor.data.iter_mut().enumerate() {
            *v = (i + 1) as f64;
        }
        tensor.refresh_active();
        let merged = tensor.normalize_legs(&[]);
        // the cut is internal: both axes disappear and the diagonal is
        // summed with the 0.5 cut scale: 0.5·(1 + 6 + 11 + 16) = 17
        assert!(merged.legs.is_empty());
        assert!((merged.payload(0)[0] - 17.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_legs_keeps_unique_legs_intact() {
        // a unique second leg survives the self-cut merge untouched
        let mut tensor = CutTensor::new(vec![Leg::Wire(0), Leg::Wire(1), Leg::Wire(0)], Vec::new());
        // T[c0, c1, c0'] = 1 when c0 == c0' == 0, marked per c1
        for c1 in 0..4 {
            tensor.data[c1 * 4] = (c1 + 1) as f64; // entry (0, c1, 0)
        }
        tensor.refresh_active();
        let merged = tensor.normalize_legs(&[]);
        assert_eq!(merged.legs, vec![Leg::Wire(1)]);
        for c1 in 0..4 {
            // only diagonal digit 0 holds data: 0.5 · (c1 + 1)
            assert!((merged.payload(c1)[0] - 0.5 * (c1 + 1) as f64).abs() < 1e-12);
        }
    }
}
