//! Shot-aware, content-addressed fragment result cache.
//!
//! Cut-and-reuse workloads re-execute structurally identical fragment
//! variants: parameter sweeps, retries and multi-tenant fleets resubmit
//! mostly-identical circuits, and the variant batch itself repeats circuits
//! across runs. [`ResultCache`] memoises executed distributions keyed by
//! [`Circuit::structural_hash`] — the init prologue, body and measurement
//! epilogue of an instantiated variant are all part of the hashed circuit, so
//! the hash content-addresses the `(structure, basis/init frame)` pair — with
//! an equality check on bucket collisions, exactly like batch dedup.
//!
//! **Shot semantics.** Every entry stores the shot count its distribution
//! was estimated from (`None` = exact, noise-free). A lookup asking for
//! `requested ≤ stored` shots is a **full hit**: the stored distribution is
//! at least as converged as the request needs. A lookup asking for
//! `requested > stored` is a **delta hit**: the caller executes only the
//! top-up (`requested − stored` shots), merges via [`merge_distributions`]
//! and writes the merged entry back, so the cache monotonically warms.
//! [`settle`] is that write-back rule, the one the dispatcher and a remote
//! worker both apply to what they executed.
//! Exact entries serve any request; sampled entries never serve an exact
//! request.
//!
//! **Eviction.** The cache is sharded ([`ResultCache::SHARDS`] mutexes) and
//! bounded by a total weight budget counted in stored distribution values
//! (`f64` slots). Inserting past the budget evicts least-recently-used
//! entries per shard. Every touch draws a fresh tick from one global counter,
//! and each shard keeps a recency index (tick → structural hash) beside its
//! buckets, so the shard's LRU entry is the index's first key: a lookup, a
//! store and an eviction each cost O(log n) in the shard's entry count plus
//! one hash bucket, and no operation scans the shard.
//!
//! **Sharing.** Entries hold distributions as the `Arc<Vec<f64>>` an
//! [`ExecutionResults`](crate::execute::ExecutionResults) carries: a hit
//! hands out the stored buffer and a store keeps the buffer it is given, so
//! neither copies a distribution. A stored buffer is never written again — an
//! upgrade or a delta merge replaces the entry's buffer with a new one — so
//! a reader's buffer never changes under it. The scheduled path hashes each
//! circuit once per request and hands that hash to both its lookup and its
//! store; [`ResultCache::lookup`] and [`ResultCache::store`] are the same
//! path with the hash computed for the caller.
//!
//! **Validation.** A record is only cached when it is a distribution over
//! its circuit's classical bits: exactly `1 << num_clbits` values, each
//! finite and non-negative. [`ResultCache::store`] drops any other record.
//!
//! **Persistence.** With [`ResultCachePolicy::persist_path`] set,
//! [`ResultCache::persist`] writes an atomic snapshot (temp file + rename)
//! and [`ResultCache::open`] reloads it, so a restarted worker serves hits
//! immediately. Snapshots carry a format version header; a mismatched,
//! unparseable or invalid snapshot — one entry failing the validation above
//! is enough — is ignored whole (the cache starts empty) rather than
//! failing the worker or half-loading; [`CacheStats::snapshot_ignored`]
//! records that this happened. Circuits are
//! stored as OpenQASM text and distribution values as `f64` bit patterns,
//! both of which round-trip exactly, so a reloaded entry hits on precisely
//! the hashes the live entry did.

use crate::execute::Shared;
use parking_lot::Mutex;
use qrcc_circuit::qasm::{from_qasm, to_qasm};
use qrcc_circuit::Circuit;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version of the on-disk snapshot format. Bumped whenever the layout (or
/// the semantics of a stored entry) changes; [`ResultCache::open`] ignores
/// snapshots written under any other version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// First token of a snapshot's header line.
const SNAPSHOT_MAGIC: &str = "QRCC-RESULT-CACHE";

/// Default capacity: 4 Mi stored distribution values (32 MiB of `f64`s).
pub const DEFAULT_CACHE_CAPACITY: u64 = 1 << 22;

/// Configuration for the result cache, consumed by
/// [`DeviceRegistry::with_result_cache`](crate::schedule::DeviceRegistry::with_result_cache)
/// and `QrccServer::with_result_cache` — the two places a cache is
/// attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultCachePolicy {
    /// Whether executions consult the cache at all. Off by default: caching
    /// changes which circuits reach a sampling backend, which shifts its
    /// deterministic stream assignment relative to a cache-free run.
    #[serde(default)]
    pub enabled: bool,
    /// Total weight budget, counted in stored distribution values (`f64`
    /// slots) across all shards. Zero means nothing can be stored.
    #[serde(default)]
    pub capacity: u64,
    /// Snapshot file for persistence across worker restarts, or `None` for
    /// a purely in-memory cache.
    #[serde(default)]
    pub persist_path: Option<String>,
}

impl Default for ResultCachePolicy {
    fn default() -> Self {
        ResultCachePolicy { enabled: false, capacity: DEFAULT_CACHE_CAPACITY, persist_path: None }
    }
}

impl ResultCachePolicy {
    /// An enabled, in-memory policy with the default capacity.
    pub fn in_memory() -> Self {
        ResultCachePolicy { enabled: true, ..ResultCachePolicy::default() }
    }

    /// An enabled policy persisting snapshots to `path`.
    pub fn persisted(path: impl Into<String>) -> Self {
        ResultCachePolicy {
            enabled: true,
            persist_path: Some(path.into()),
            ..ResultCachePolicy::default()
        }
    }

    /// Sets the weight budget (stored distribution values).
    #[must_use]
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }
}

/// Cumulative counters of one [`ResultCache`], snapshotted by
/// [`ResultCache::stats`]. A scheduled run reports the registry cache's
/// snapshot in
/// [`ScheduleReport::result_cache`](crate::schedule::ScheduleReport::result_cache).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups fully served from the cache (no execution needed).
    pub hits: u64,
    /// Lookups served partially: the caller executed only the shot top-up.
    pub delta_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries inserted or upgraded by write-backs.
    pub insertions: u64,
    /// Entries evicted to stay under the weight budget.
    pub evictions: u64,
    /// Device shots the cache absorbed: the full request on a hit, the
    /// stored portion on a delta hit. Exact requests save no shots.
    pub shots_saved: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Current weight (stored distribution values).
    pub weight: u64,
    /// Entries restored from a persisted snapshot at open.
    pub snapshot_loaded: u64,
    /// Whether a snapshot existed but was ignored (version mismatch,
    /// unparseable content or an invalid entry) — the cache started empty
    /// instead of failing.
    pub snapshot_ignored: bool,
}

impl CacheStats {
    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.delta_hits + self.misses
    }

    /// Fraction of lookups served fully or partially, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            (self.hits + self.delta_hits) as f64 / self.lookups() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits + {} delta / {} lookups ({:.1}% served), {} shots saved, \
             {} entries ({} values held, {} evicted)",
            self.hits,
            self.delta_hits,
            self.lookups(),
            100.0 * self.hit_rate(),
            self.shots_saved,
            self.entries,
            self.weight,
            self.evictions,
        )
    }
}

/// Outcome of one [`ResultCache::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Nothing usable cached: execute the full request, then
    /// [`store`](ResultCache::store) the outcome.
    Miss,
    /// Fully served: the distribution satisfies the requested shot count.
    /// The buffer is the stored one, not a copy.
    Hit(Arc<Vec<f64>>),
    /// Partially served: execute `missing` shots, merge with the stored
    /// `base` via [`merge_distributions`], and store the merge back.
    Delta {
        /// The cached distribution (the stored buffer).
        base: Arc<Vec<f64>>,
        /// Shots the cached distribution was estimated from.
        base_shots: u64,
        /// The shot top-up still to execute (`requested − base_shots`).
        missing: u64,
    },
}

/// One cached circuit: the executed distribution and its provenance.
struct Entry {
    circuit: Circuit,
    distribution: Shared,
    /// Shots the distribution was estimated from (`None` = exact).
    shots: Option<u64>,
    /// Global LRU tick of the last touch.
    last_used: u64,
}

impl Entry {
    fn weight(&self) -> u64 {
        self.distribution.len() as u64
    }

    /// How many requested shots this entry can serve (`u64::MAX` = any).
    fn serves(&self) -> u64 {
        self.shots.unwrap_or(u64::MAX)
    }
}

/// One lock domain: structural-hash buckets, their recency index and their
/// total weight.
#[derive(Default)]
struct Shard {
    buckets: HashMap<u64, Vec<Entry>>,
    /// Every held entry once, keyed by its `last_used` tick (ticks are
    /// unique): the first key is the least-recently-used entry.
    recency: BTreeMap<u64, u64>,
    weight: u64,
}

impl Shard {
    /// Moves `entry` (held in bucket `hash`) to `tick` in the recency index.
    fn touch(recency: &mut BTreeMap<u64, u64>, entry: &mut Entry, hash: u64, tick: u64) {
        recency.remove(&entry.last_used);
        recency.insert(tick, hash);
        entry.last_used = tick;
    }

    /// Removes the least-recently-used entry. Returns whether anything was
    /// removed.
    fn evict_lru(&mut self) -> bool {
        let Some((tick, hash)) = self.recency.pop_first() else {
            return false;
        };
        let bucket = self.buckets.get_mut(&hash).expect("indexed bucket exists");
        let index = bucket.iter().position(|e| e.last_used == tick).expect("indexed entry exists");
        let entry = bucket.remove(index);
        self.weight -= entry.weight();
        if bucket.is_empty() {
            self.buckets.remove(&hash);
        }
        true
    }
}

/// A sharded, shot-count-aware, content-addressed result cache. See the
/// [module docs](self) for key, shot and persistence semantics.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    capacity: u64,
    persist_path: Option<PathBuf>,
    tick: AtomicU64,
    hits: AtomicU64,
    delta_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    shots_saved: AtomicU64,
    snapshot_loaded: u64,
    snapshot_ignored: bool,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("stats", &self.stats())
            .field("persist_path", &self.persist_path)
            .finish()
    }
}

impl ResultCache {
    /// Number of independent lock domains.
    pub const SHARDS: usize = 16;

    /// An in-memory cache bounded by `capacity` stored distribution values.
    pub fn new(capacity: u64) -> Self {
        ResultCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity,
            persist_path: None,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            delta_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shots_saved: AtomicU64::new(0),
            snapshot_loaded: 0,
            snapshot_ignored: false,
        }
    }

    /// Opens a cache under `policy`: in-memory unless a persist path is set,
    /// in which case an existing snapshot is loaded. A snapshot written
    /// under a different [`SNAPSHOT_VERSION`] (or otherwise unparseable) is
    /// ignored and the cache starts empty; [`CacheStats::snapshot_ignored`]
    /// reports it.
    pub fn open(policy: &ResultCachePolicy) -> Self {
        let mut cache = ResultCache::new(policy.capacity);
        if let Some(path) = &policy.persist_path {
            cache.persist_path = Some(PathBuf::from(path));
            let path = Path::new(path);
            if path.exists() {
                match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| parse_snapshot(&text))
                {
                    Ok(entries) => {
                        for (circuit, distribution, shots) in entries {
                            let hash = circuit.structural_hash();
                            if cache.insert(&circuit, hash, Arc::new(distribution), shots) {
                                cache.snapshot_loaded += 1;
                            }
                        }
                    }
                    Err(_) => cache.snapshot_ignored = true,
                }
            }
        }
        cache
    }

    /// The snapshot path this cache persists to, if any.
    pub fn persist_path(&self) -> Option<&Path> {
        self.persist_path.as_deref()
    }

    /// Looks up `circuit` for a request of `requested_shots` (`None` = the
    /// caller needs an exact distribution). Touches the entry for LRU and
    /// counts the hit/delta/miss.
    pub fn lookup(&self, circuit: &Circuit, requested_shots: Option<u64>) -> CacheLookup {
        self.lookup_hashed(circuit, circuit.structural_hash(), requested_shots)
    }

    /// [`lookup`](Self::lookup) for a caller that already holds `circuit`'s
    /// [`Circuit::structural_hash`]. Entries under `hash` serve only a
    /// circuit structurally equal to theirs.
    pub(crate) fn lookup_hashed(
        &self,
        circuit: &Circuit,
        hash: u64,
        requested_shots: Option<u64>,
    ) -> CacheLookup {
        let mut shard = self.shards[(hash as usize) % Self::SHARDS].lock();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let Shard { buckets, recency, .. } = &mut *shard;
        let Some(bucket) = buckets.get_mut(&hash) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss;
        };
        // Among structurally equal entries, the one that serves the most
        // shots wins: it either fully serves the request or minimises the
        // delta top-up.
        let best = bucket
            .iter()
            .enumerate()
            .filter(|(_, e)| e.circuit.structurally_equal(circuit))
            .max_by_key(|(_, e)| e.serves())
            .map(|(i, _)| i);
        let Some(index) = best else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss;
        };
        let entry = &mut bucket[index];
        match (entry.shots, requested_shots) {
            // An exact entry serves anything; a sufficiently-sampled entry
            // serves any smaller sampled request.
            (None, requested) => {
                Shard::touch(recency, entry, hash, tick);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(requested.unwrap_or(0), Ordering::Relaxed);
                CacheLookup::Hit(Arc::clone(&entry.distribution))
            }
            (Some(stored), Some(requested)) if stored >= requested => {
                Shard::touch(recency, entry, hash, tick);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(requested, Ordering::Relaxed);
                CacheLookup::Hit(Arc::clone(&entry.distribution))
            }
            (Some(stored), Some(requested)) => {
                Shard::touch(recency, entry, hash, tick);
                self.delta_hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(stored, Ordering::Relaxed);
                CacheLookup::Delta {
                    base: Arc::clone(&entry.distribution),
                    base_shots: stored,
                    missing: requested - stored,
                }
            }
            // A sampled entry can never serve an exact request.
            (Some(_), None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                CacheLookup::Miss
            }
        }
    }

    /// Stores (or upgrades) `circuit`'s distribution. An existing entry is
    /// replaced only when the new record serves more shots (exact beats
    /// sampled; more shots beat fewer), so concurrent write-backs keep the
    /// best-converged distribution. Inserting past the weight budget evicts
    /// least-recently-used entries of the shard. A record that is not a
    /// distribution over `circuit`'s classical bits (see the
    /// [module docs](self)) is dropped.
    pub fn store(&self, circuit: &Circuit, distribution: &[f64], shots: Option<u64>) {
        let distribution = Arc::new(distribution.to_vec());
        self.store_hashed(circuit, circuit.structural_hash(), &distribution, shots);
    }

    /// [`store`](Self::store) for a caller that already holds `circuit`'s
    /// [`Circuit::structural_hash`]; the entry keeps `distribution` itself.
    pub(crate) fn store_hashed(
        &self,
        circuit: &Circuit,
        hash: u64,
        distribution: &Shared,
        shots: Option<u64>,
    ) {
        if is_distribution_of(circuit, distribution)
            && self.insert(circuit, hash, Arc::clone(distribution), shots)
        {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The insertion path shared by stores and snapshot loading, both of
    /// which validate the record first. Returns whether the record was
    /// inserted or upgraded. The circuit is copied only into a new entry.
    fn insert(
        &self,
        circuit: &Circuit,
        hash: u64,
        distribution: Shared,
        shots: Option<u64>,
    ) -> bool {
        let weight = distribution.len() as u64;
        let index = (hash as usize) % Self::SHARDS;
        let capacity = self.shard_capacity(index);
        if weight > capacity {
            return false; // wider than a whole shard: uncacheable
        }
        let mut shard = self.shards[index].lock();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let serves = shots.map_or(u64::MAX, |s| s);
        let Shard { buckets, recency, .. } = &mut *shard;
        let bucket = buckets.entry(hash).or_default();
        let gained = match bucket.iter_mut().find(|e| e.circuit.structurally_equal(circuit)) {
            Some(existing) if existing.serves() >= serves => return false,
            Some(existing) => {
                let replaced = existing.weight();
                existing.distribution = distribution;
                existing.shots = shots;
                Shard::touch(recency, existing, hash, tick);
                weight as i64 - replaced as i64
            }
            None => {
                let circuit = circuit.clone();
                bucket.push(Entry { circuit, distribution, shots, last_used: tick });
                recency.insert(tick, hash);
                weight as i64
            }
        };
        shard.weight = shard.weight.saturating_add_signed(gained);
        while shard.weight > capacity {
            if !shard.evict_lru() {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Shard `index`'s share of the weight budget: the budget split as
    /// evenly as whole values allow, so the shares sum to exactly the budget.
    fn shard_capacity(&self, index: usize) -> u64 {
        let shards = Self::SHARDS as u64;
        self.capacity / shards + u64::from((index as u64) < self.capacity % shards)
    }

    /// Number of entries currently held.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().recency.len()).sum()
    }

    /// Snapshot of the cumulative counters plus current entry/weight gauges.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut weight) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.recency.len() as u64;
            weight += shard.weight;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            shots_saved: self.shots_saved.load(Ordering::Relaxed),
            entries,
            weight,
            snapshot_loaded: self.snapshot_loaded,
            snapshot_ignored: self.snapshot_ignored,
        }
    }

    /// Writes an atomic snapshot (temp file + rename) of every held entry to
    /// the configured persist path. A cache without one is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the temp-file write or the rename.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.persist_path else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut text = snapshot_header();
        for shard in &self.shards {
            let shard = shard.lock();
            for entry in shard.buckets.values().flatten() {
                push_snapshot_entry(&mut text, &entry.circuit, &entry.distribution, entry.shots);
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

/// Whether `distribution` can be `circuit`'s outcome distribution: one
/// finite, non-negative value per classical-bit pattern.
fn is_distribution_of(circuit: &Circuit, distribution: &[f64]) -> bool {
    let patterns = u32::try_from(circuit.num_clbits()).ok().and_then(|n| 1usize.checked_shl(n));
    patterns == Some(distribution.len()) && distribution.iter().all(|v| v.is_finite() && *v >= 0.0)
}

/// Merges a cached `base` distribution (estimated from `base_shots`) with a
/// freshly executed `delta` distribution (`delta_shots`): the shot-weighted
/// average, i.e. exactly the empirical distribution of the union of both
/// shot sets.
pub fn merge_distributions(
    base: &[f64],
    base_shots: u64,
    delta: &[f64],
    delta_shots: u64,
) -> Vec<f64> {
    if base.len() != delta.len() || base_shots + delta_shots == 0 {
        return delta.to_vec(); // foreign shapes: trust the fresh execution
    }
    let total = (base_shots + delta_shots) as f64;
    let (wb, wd) = (base_shots as f64 / total, delta_shots as f64 / total);
    base.iter().zip(delta).map(|(b, d)| b * wb + d * wd).collect()
}

/// How a freshly executed result settles into the cache: the distribution
/// to deliver and store, and the shots to store it at (`None` = exact).
///
/// `ran` is the shots the execution spent, `None` when the backend that ran
/// it is exact; `delta` is the cached base and its shots when the execution
/// was a delta hit's top-up.
///
/// * A top-up that ran sampled is merged with its base
///   ([`merge_distributions`]) and stored at `base + ran` shots.
/// * A top-up that a retry re-routed onto an exact backend replaces the
///   base and is stored as exact: it beats any sampled merge.
/// * Any other result is stored as it came, at its own shots or as exact.
pub fn settle(
    fresh: Arc<Vec<f64>>,
    ran: Option<u64>,
    delta: Option<(Arc<Vec<f64>>, u64)>,
) -> (Arc<Vec<f64>>, Option<u64>) {
    match (delta, ran) {
        (Some((base, base_shots)), Some(ran)) => {
            (Arc::new(merge_distributions(&base, base_shots, &fresh, ran)), Some(base_shots + ran))
        }
        (_, ran) => (fresh, ran),
    }
}

/// A snapshot's first line.
fn snapshot_header() -> String {
    format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}\n")
}

/// Appends one entry — its header line, then its circuit as QASM — to a
/// snapshot document.
fn push_snapshot_entry(text: &mut String, circuit: &Circuit, dist: &[f64], shots: Option<u64>) {
    let shots = match shots {
        None => "exact".to_string(),
        Some(s) => s.to_string(),
    };
    let dist: Vec<String> = dist.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
    let qasm = to_qasm(circuit);
    let lines = qasm.lines().count();
    text.push_str(&format!("entry shots={shots} dist={} qasm_lines={lines}\n", dist.join(",")));
    text.push_str(&qasm);
    if !qasm.ends_with('\n') {
        text.push('\n');
    }
}

/// Parses a snapshot header line, returning its version.
fn parse_header(line: &str) -> Option<u32> {
    let rest = line.strip_prefix(SNAPSHOT_MAGIC)?.trim().strip_prefix('v')?;
    rest.parse().ok()
}

/// Parses a full snapshot document into its entries. Any malformed line or
/// invalid entry fails the whole parse — a torn or corrupt snapshot must not
/// half-load.
#[allow(clippy::type_complexity)]
fn parse_snapshot(text: &str) -> Result<Vec<(Circuit, Vec<f64>, Option<u64>)>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty snapshot")?;
    match parse_header(header) {
        Some(version) if version == SNAPSHOT_VERSION => {}
        Some(version) => return Err(format!("snapshot version v{version} != v{SNAPSHOT_VERSION}")),
        None => return Err("missing snapshot header".to_string()),
    }
    let mut entries = Vec::new();
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let rest = line.strip_prefix("entry ").ok_or_else(|| format!("bad entry line: {line}"))?;
        let mut shots: Option<Option<u64>> = None;
        let mut dist: Option<Vec<f64>> = None;
        let mut qasm_lines: Option<usize> = None;
        for field in rest.split_whitespace() {
            if let Some(value) = field.strip_prefix("shots=") {
                shots = Some(if value == "exact" {
                    None
                } else {
                    Some(value.parse().map_err(|_| format!("bad shot count: {value}"))?)
                });
            } else if let Some(value) = field.strip_prefix("dist=") {
                let values: Result<Vec<f64>, String> = value
                    .split(',')
                    .map(|word| {
                        u64::from_str_radix(word, 16)
                            .map(f64::from_bits)
                            .map_err(|_| format!("bad distribution word: {word}"))
                    })
                    .collect();
                dist = Some(values?);
            } else if let Some(value) = field.strip_prefix("qasm_lines=") {
                qasm_lines = Some(value.parse().map_err(|_| format!("bad line count: {value}"))?);
            }
        }
        let shots = shots.ok_or("entry missing shots=")?;
        let dist = dist.ok_or("entry missing dist=")?;
        let qasm_lines = qasm_lines.ok_or("entry missing qasm_lines=")?;
        let mut qasm = String::new();
        for _ in 0..qasm_lines {
            let line = lines.next().ok_or("truncated QASM block")?;
            qasm.push_str(line);
            qasm.push('\n');
        }
        let circuit = from_qasm(&qasm).map_err(|e| format!("snapshot QASM: {e}"))?;
        if !is_distribution_of(&circuit, &dist) {
            return Err(format!(
                "{} values is not a distribution over {} clbits",
                dist.len(),
                circuit.num_clbits()
            ));
        }
        entries.push((circuit, dist, shots));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    /// A full hit serving `distribution`.
    fn hit(distribution: Vec<f64>) -> CacheLookup {
        CacheLookup::Hit(Arc::new(distribution))
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    fn rotated(theta: f64) -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).ry(theta, 1).cx(0, 1).measure_all();
        c
    }

    /// A collision-free scratch path under the OS temp dir.
    fn scratch(name: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qrcc-cache-{}-{name}-{n}", std::process::id()))
    }

    #[test]
    fn miss_then_hit() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        assert_eq!(cache.lookup(&c, Some(100)), CacheLookup::Miss);
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], Some(100));
        assert_eq!(cache.lookup(&c, Some(100)), hit(vec![0.5, 0.0, 0.0, 0.5]));
        assert_eq!(cache.lookup(&c, Some(40)), hit(vec![0.5, 0.0, 0.0, 0.5]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.delta_hits), (2, 1, 0));
        assert_eq!(stats.shots_saved, 140);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn a_full_hit_hands_out_the_stored_buffer() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        let stored = Arc::new(vec![0.5, 0.0, 0.0, 0.5]);
        cache.store_hashed(&c, c.structural_hash(), &stored, None);
        for requested in [None, Some(100)] {
            let CacheLookup::Hit(served) = cache.lookup(&c, requested) else {
                panic!("an exact entry serves {requested:?}");
            };
            assert!(Arc::ptr_eq(&served, &stored), "a hit must not copy");
        }
    }

    #[test]
    fn a_store_keeps_the_buffer_it_was_delivered() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        let delivered = Arc::new(vec![0.25; 4]);
        cache.store_hashed(&c, c.structural_hash(), &delivered, Some(64));
        assert_eq!(Arc::strong_count(&delivered), 2, "the entry holds the delivered buffer");
        let shard = cache.shards[(c.structural_hash() as usize) % ResultCache::SHARDS].lock();
        let entry = shard.buckets.values().flatten().next().expect("one entry");
        assert!(Arc::ptr_eq(&entry.distribution, &delivered));
        drop(shard);
        // the copying wrapper stores a buffer of its own
        let copied = [0.5, 0.5, 0.0, 0.0];
        cache.store(&c, &copied, Some(128));
        let CacheLookup::Hit(served) = cache.lookup(&c, Some(128)) else { panic!("stored") };
        assert_eq!(served[..], copied[..]);
        assert_eq!(Arc::strong_count(&delivered), 1, "the upgrade released the old buffer");
    }

    #[test]
    fn an_equal_hash_never_serves_a_structurally_different_circuit() {
        let cache = ResultCache::new(1 << 16);
        let (a, b) = (bell(), rotated(0.3));
        assert!(!a.structurally_equal(&b));
        let hash = a.structural_hash();
        let stored_a = Arc::new(vec![0.5, 0.0, 0.0, 0.5]);
        cache.store_hashed(&a, hash, &stored_a, None);
        assert_eq!(cache.lookup_hashed(&b, hash, None), CacheLookup::Miss, "collision guard");
        // both live side by side in the one bucket, each serving only itself
        let stored_b = Arc::new(vec![0.25; 4]);
        cache.store_hashed(&b, hash, &stored_b, None);
        assert_eq!(cache.stats().entries, 2);
        for (circuit, stored) in [(&a, &stored_a), (&b, &stored_b)] {
            let CacheLookup::Hit(served) = cache.lookup_hashed(circuit, hash, None) else {
                panic!("stored")
            };
            assert!(Arc::ptr_eq(&served, stored));
        }
    }

    #[test]
    fn a_delta_merge_stores_a_new_buffer_and_never_mutates_a_held_one() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        let hash = c.structural_hash();
        let first = vec![1.0, 0.0, 0.0, 0.0];
        cache.store_hashed(&c, hash, &Arc::new(first.clone()), Some(100));
        let CacheLookup::Hit(reader) = cache.lookup_hashed(&c, hash, Some(100)) else {
            panic!("stored")
        };
        let CacheLookup::Delta { base, base_shots, missing } =
            cache.lookup_hashed(&c, hash, Some(300))
        else {
            panic!("more shots than stored is a delta hit")
        };
        assert!(Arc::ptr_eq(&base, &reader) && (base_shots, missing) == (100, 200));
        let merged = merge_distributions(&base, base_shots, &[0.0, 0.0, 0.0, 1.0], missing);
        let merged = Arc::new(merged);
        cache.store_hashed(&c, hash, &merged, Some(300));
        assert_eq!(reader[..], first[..], "a reader's buffer never changes");
        let CacheLookup::Hit(served) = cache.lookup_hashed(&c, hash, Some(300)) else {
            panic!("the merge serves 300 shots")
        };
        assert!(Arc::ptr_eq(&served, &merged) && !Arc::ptr_eq(&served, &reader));
    }

    #[test]
    fn shot_semantics_drive_hit_class() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        cache.store(&c, &[0.4, 0.1, 0.1, 0.4], Some(1_000));
        // more shots requested than stored: delta hit with the exact top-up
        match cache.lookup(&c, Some(1_600)) {
            CacheLookup::Delta { base_shots, missing, .. } => {
                assert_eq!(base_shots, 1_000);
                assert_eq!(missing, 600);
            }
            other => panic!("expected delta hit, got {other:?}"),
        }
        // a sampled entry never serves an exact request
        assert_eq!(cache.lookup(&c, None), CacheLookup::Miss);
        // an exact entry serves everything, sampled or exact
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], None);
        assert!(matches!(cache.lookup(&c, None), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(&c, Some(1 << 40)), CacheLookup::Hit(_)));
    }

    #[test]
    fn write_back_upgrades_monotonically() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        cache.store(&c, &[1.0, 0.0, 0.0, 0.0], Some(500));
        // a weaker record never downgrades the entry
        cache.store(&c, &[0.0, 1.0, 0.0, 0.0], Some(100));
        assert_eq!(cache.lookup(&c, Some(500)), hit(vec![1.0, 0.0, 0.0, 0.0]));
        // a stronger record upgrades it
        cache.store(&c, &[0.5, 0.5, 0.0, 0.0], Some(900));
        assert_eq!(cache.lookup(&c, Some(900)), hit(vec![0.5, 0.5, 0.0, 0.0]));
        assert_eq!(cache.stats().entries, 1, "upgrades replace, never duplicate");
    }

    #[test]
    fn merge_is_the_shot_weighted_average() {
        let merged = merge_distributions(&[1.0, 0.0], 300, &[0.0, 1.0], 100);
        assert!((merged[0] - 0.75).abs() < 1e-12);
        assert!((merged[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn settle_merges_a_sampled_top_up_at_the_summed_shots() {
        let base = Arc::new(vec![1.0, 0.0]);
        let (stored, shots) = settle(Arc::new(vec![0.0, 1.0]), Some(100), Some((base, 300)));
        assert_eq!(*stored, merge_distributions(&[1.0, 0.0], 300, &[0.0, 1.0], 100));
        assert_eq!(shots, Some(400));
    }

    #[test]
    fn settle_replaces_the_base_with_a_top_up_retried_on_an_exact_backend() {
        let fresh = Arc::new(vec![0.25, 0.75]);
        let (stored, shots) =
            settle(Arc::clone(&fresh), None, Some((Arc::new(vec![1.0, 0.0]), 300)));
        assert!(Arc::ptr_eq(&stored, &fresh), "the fresh buffer, unmerged");
        assert_eq!(shots, None);
    }

    #[test]
    fn settle_stores_a_result_without_a_base_as_it_came() {
        let fresh = Arc::new(vec![0.5, 0.5]);
        for ran in [Some(64), None] {
            let (stored, shots) = settle(Arc::clone(&fresh), ran, None);
            assert!(Arc::ptr_eq(&stored, &fresh));
            assert_eq!(shots, ran);
        }
    }

    /// `count` distinct 2-clbit circuits that all land in one shard.
    fn same_shard(count: usize) -> Vec<Circuit> {
        let shard = |c: &Circuit| (c.structural_hash() as usize) % ResultCache::SHARDS;
        let target = shard(&rotated(0.01));
        (1..).map(|i| rotated(0.01 * i as f64)).filter(|c| shard(c) == target).take(count).collect()
    }

    #[test]
    fn lru_evicts_the_least_recently_touched_entry_of_a_shard() {
        // 8 values per shard: two 4-value entries fit, a third evicts one
        let cache = ResultCache::new(16 * 8);
        let [a, b, c]: [Circuit; 3] = same_shard(3).try_into().unwrap();
        cache.store(&a, &[0.25; 4], Some(10));
        cache.store(&b, &[0.5, 0.5, 0.0, 0.0], Some(10));
        assert!(matches!(cache.lookup(&a, Some(10)), CacheLookup::Hit(_)));
        cache.store(&c, &[0.0, 0.0, 0.5, 0.5], Some(10));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries, stats.weight), (1, 2, 8));
        assert_eq!(cache.lookup(&b, Some(10)), CacheLookup::Miss, "B was least recently used");
        assert_eq!(cache.lookup(&a, Some(10)), hit(vec![0.25; 4]));
        assert_eq!(cache.lookup(&c, Some(10)), hit(vec![0.0, 0.0, 0.5, 0.5]));
    }

    #[test]
    fn weight_never_exceeds_a_budget_that_does_not_divide_by_the_shards() {
        // 113 values over 16 shards: one share of 8 values, fifteen of 7 —
        // rounding every share up to 8 would let the shards hold 128
        let cache = ResultCache::new(113);
        for i in 0..200 {
            cache.store(&rotated(0.01 * (i + 1) as f64), &[0.25; 4], Some(10));
            assert!(cache.stats().weight <= 113, "weight over budget after store {i}");
        }
        let total: u64 = (0..ResultCache::SHARDS).map(|i| cache.shard_capacity(i)).sum();
        assert_eq!(total, 113, "shard shares must sum to the budget");
    }

    #[test]
    fn mis_sized_or_non_probability_records_are_refused() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        for bad in [&[1.0, 0.0, 0.0][..], &[0.5, 0.5, 0.0, 0.0, 0.0], &[f64::NAN, 0.0, 0.0, 1.0]] {
            cache.store(&c, bad, None);
        }
        cache.store(&c, &[1.5, -0.5, 0.0, 0.0], None);
        cache.store(&c, &[f64::INFINITY, 0.0, 0.0, 0.0], None);
        assert_eq!(cache.lookup(&c, None), CacheLookup::Miss);
        assert_eq!(cache.stats().insertions, 0);
    }

    /// A snapshot document holding `entries` verbatim, valid or not.
    fn snapshot_text(entries: &[(Circuit, Vec<f64>, Option<u64>)]) -> String {
        let mut text = snapshot_header();
        for (circuit, dist, shots) in entries {
            push_snapshot_entry(&mut text, circuit, dist, *shots);
        }
        text
    }

    #[test]
    fn a_snapshot_with_a_mis_sized_distribution_is_ignored() {
        let path = scratch("missized");
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        let good = (rotated(0.7), vec![0.25; 4], None);
        for bad in [vec![1.0, 0.0, 0.0], vec![1.5, -0.5, 0.0, 0.0], vec![f64::NAN, 0.0, 0.0, 1.0]] {
            std::fs::write(&path, snapshot_text(&[good.clone(), (bell(), bad, None)])).unwrap();
            let cache = ResultCache::open(&policy);
            let stats = cache.stats();
            assert!(stats.snapshot_ignored, "an invalid entry must void the snapshot");
            assert_eq!((stats.snapshot_loaded, stats.entries), (0, 0));
            assert_eq!(cache.lookup(&bell(), None), CacheLookup::Miss);
            assert_eq!(cache.lookup(&rotated(0.7), None), CacheLookup::Miss);
        }
        // the same snapshot without the bad entry loads
        std::fs::write(&path, snapshot_text(&[good])).unwrap();
        assert_eq!(ResultCache::open(&policy).stats().snapshot_loaded, 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// A `qubits`-wide CX ladder with one angle: distinct angles give
    /// structurally distinct circuits over `qubits` clbits.
    fn ladder(qubits: usize, theta: f64) -> Circuit {
        let mut c = Circuit::new(qubits);
        c.h(0);
        for q in 1..qubits {
            c.cx(q - 1, q);
        }
        c.ry(theta, qubits - 1).measure_all();
        c
    }

    /// One entry of the scan oracle.
    struct ScanEntry {
        /// Index into the test's circuit universe.
        circuit: usize,
        distribution: Vec<f64>,
        shots: Option<u64>,
        last_used: u64,
    }

    /// The cache as it was before its recency index, kept as the oracle for
    /// it: one flat entry list per shard, whose eviction victim is found by
    /// scanning every entry of the shard for the oldest touch.
    struct ScanOracle {
        capacities: Vec<u64>,
        shards: Vec<Vec<ScanEntry>>,
        tick: u64,
        evictions: u64,
    }

    impl ScanOracle {
        fn new(cache: &ResultCache) -> Self {
            ScanOracle {
                capacities: (0..ResultCache::SHARDS).map(|i| cache.shard_capacity(i)).collect(),
                shards: (0..ResultCache::SHARDS).map(|_| Vec::new()).collect(),
                tick: 0,
                evictions: 0,
            }
        }

        fn lookup(&mut self, shard: usize, circuit: usize, requested: Option<u64>) -> CacheLookup {
            self.tick += 1;
            let Some(e) = self.shards[shard].iter_mut().find(|e| e.circuit == circuit) else {
                return CacheLookup::Miss;
            };
            let found = match (e.shots, requested) {
                (None, _) => hit(e.distribution.clone()),
                (Some(stored), Some(r)) if stored >= r => hit(e.distribution.clone()),
                (Some(stored), Some(r)) => CacheLookup::Delta {
                    base: Arc::new(e.distribution.clone()),
                    base_shots: stored,
                    missing: r - stored,
                },
                (Some(_), None) => return CacheLookup::Miss,
            };
            e.last_used = self.tick;
            found
        }

        fn store(&mut self, shard: usize, circuit: usize, dist: &[f64], shots: Option<u64>) {
            let capacity = self.capacities[shard];
            if dist.len() as u64 > capacity {
                return;
            }
            self.tick += 1;
            let serves = |shots: Option<u64>| shots.unwrap_or(u64::MAX);
            let entries = &mut self.shards[shard];
            match entries.iter_mut().find(|e| e.circuit == circuit) {
                Some(e) if serves(e.shots) >= serves(shots) => return,
                Some(e) => {
                    e.distribution = dist.to_vec();
                    e.shots = shots;
                    e.last_used = self.tick;
                }
                None => entries.push(ScanEntry {
                    circuit,
                    distribution: dist.to_vec(),
                    shots,
                    last_used: self.tick,
                }),
            }
            while entries.iter().map(|e| e.distribution.len() as u64).sum::<u64>() > capacity {
                let victim = (0..entries.len()).min_by_key(|&i| entries[i].last_used).unwrap();
                entries.remove(victim);
                self.evictions += 1;
            }
        }
    }

    /// One held entry: structural hash, distribution bit patterns, shots.
    type Held = (u64, Vec<u64>, Option<u64>);

    /// Every held entry as `(structural hash, distribution bits, shots)`,
    /// sorted; and a check that each shard's recency index holds exactly its
    /// entries, each under its own tick.
    fn held_entries(cache: &ResultCache) -> Result<Vec<Held>, String> {
        let mut held = Vec::new();
        for shard in &cache.shards {
            let shard = shard.lock();
            let entries: usize = shard.buckets.values().map(Vec::len).sum();
            if shard.recency.len() != entries {
                return Err(format!(
                    "index holds {} ticks for {entries} entries",
                    shard.recency.len()
                ));
            }
            for (&tick, hash) in &shard.recency {
                if !shard.buckets.get(hash).is_some_and(|b| b.iter().any(|e| e.last_used == tick)) {
                    return Err(format!("tick {tick} indexes no entry of bucket {hash:x}"));
                }
            }
            let weight: u64 = shard.buckets.values().flatten().map(Entry::weight).sum();
            if weight != shard.weight {
                return Err(format!("shard weight {} != held {weight}", shard.weight));
            }
            for (&hash, bucket) in &shard.buckets {
                for e in bucket {
                    let bits = e.distribution.iter().map(|v| v.to_bits()).collect();
                    held.push((hash, bits, e.shots));
                }
            }
        }
        held.sort();
        Ok(held)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random store/lookup sequences on a small cache whose circuits
        /// crowd two shards: every lookup answers as the scan oracle does,
        /// the surviving entries are the oracle's, and the recency index
        /// stays exactly in step with the buckets.
        #[test]
        fn recency_index_evicts_exactly_what_the_scan_did(
            ops in collection::vec(
                (any::<bool>(), 0..10usize, 0..4u64, 0..3usize),
                1..120,
            )
        ) {
            let shard_of = |c: &Circuit| (c.structural_hash() as usize) % ResultCache::SHARDS;
            let universe: Vec<Circuit> = (1..)
                .map(|i| ladder(1 + i % 3, 0.01 * i as f64))
                .filter(|c| shard_of(c) < 2)
                .take(10)
                .collect();
            // 195 values: shards 0-2 hold 13, the rest 12
            let cache = ResultCache::new(16 * 12 + 3);
            let mut oracle = ScanOracle::new(&cache);
            for (is_store, id, shots, variant) in ops {
                let circuit = &universe[id];
                let shots = (shots > 0).then_some(100 * shots);
                if is_store {
                    let len = 1usize << circuit.num_clbits();
                    let dist: Vec<f64> = (0..len).map(|k| ((k + variant) % 3) as f64).collect();
                    cache.store(circuit, &dist, shots);
                    oracle.store(shard_of(circuit), id, &dist, shots);
                } else {
                    let got = cache.lookup(circuit, shots);
                    prop_assert_eq!(got, oracle.lookup(shard_of(circuit), id, shots));
                }
            }
            let held = held_entries(&cache).map_err(TestCaseError::fail)?;
            let mut expected: Vec<Held> = oracle
                .shards
                .iter()
                .flatten()
                .map(|e| {
                    let bits = e.distribution.iter().map(|v| v.to_bits()).collect();
                    (universe[e.circuit].structural_hash(), bits, e.shots)
                })
                .collect();
            expected.sort();
            prop_assert_eq!(held, expected);
            prop_assert_eq!(cache.stats().evictions, oracle.evictions);
        }
    }

    /// Opens a cache over `bytes` written to `path` and checks the loader's
    /// contract: the snapshot is ignored whole, or every entry it loaded is a
    /// distribution over its circuit's classical bits.
    fn open_hostile(path: &Path, bytes: &[u8]) -> Result<(), TestCaseError> {
        std::fs::write(path, bytes).unwrap();
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        let cache = ResultCache::open(&policy);
        let stats = cache.stats();
        if stats.snapshot_ignored {
            prop_assert_eq!((stats.snapshot_loaded, stats.entries), (0, 0));
        }
        for shard in &cache.shards {
            for e in shard.lock().buckets.values().flatten() {
                let clbits = e.circuit.num_clbits();
                prop_assert!(clbits < 64 && e.distribution.len() == 1 << clbits);
                prop_assert!(e.distribution.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary bytes, bare or behind a valid header, never panic the
        /// loader.
        #[test]
        fn arbitrary_snapshot_bytes_never_panic_the_loader(
            bytes in collection::vec(any::<u8>(), 0..256),
            headed in any::<bool>(),
        ) {
            let path = scratch("arbitrary");
            let mut text = if headed { snapshot_header().into_bytes() } else { Vec::new() };
            text.extend(bytes);
            open_hostile(&path, &text)?;
            std::fs::remove_file(&path).unwrap();
        }

        /// A valid snapshot with a few bytes replaced, inserted or deleted —
        /// mostly bytes of the format's own alphabet, so mutants reach deep
        /// into the entry and QASM parsers — never panics the loader.
        #[test]
        fn mutated_snapshots_never_panic_the_loader(
            mutations in collection::vec((any::<usize>(), any::<u8>(), 0..3u8), 1..6),
        ) {
            const ALPHABET: &[u8] = b"0123456789abcdef,=; \n-.[]()qx";
            let mut text = snapshot_text(&[
                (bell(), vec![0.5, 0.0, 0.0, 0.5], None),
                (rotated(0.3), vec![0.25; 4], Some(512)),
                (ladder(3, 1.1), vec![0.125; 8], None),
            ])
            .into_bytes();
            for (at, byte, kind) in mutations {
                let byte = if byte < 128 { ALPHABET[byte as usize % ALPHABET.len()] } else { byte };
                let at = at % (text.len() + 1);
                match kind {
                    0 if at < text.len() => text[at] = byte,
                    1 => text.insert(at, byte),
                    _ if at < text.len() => {
                        text.remove(at);
                    }
                    _ => text.push(byte),
                }
            }
            let path = scratch("mutated");
            open_hostile(&path, &text)?;
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = ResultCache::new(0);
        let c = bell();
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], Some(100));
        assert_eq!(cache.lookup(&c, Some(10)), CacheLookup::Miss);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn structural_keying_ignores_names_but_not_structure() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], None);
        let mut renamed = bell();
        renamed.set_name("same_structure_other_name");
        assert!(matches!(cache.lookup(&renamed, None), CacheLookup::Hit(_)));
        assert_eq!(cache.lookup(&rotated(0.3), None), CacheLookup::Miss);
    }

    #[test]
    fn persistence_round_trips_bit_exactly() {
        let path = scratch("roundtrip");
        let policy =
            ResultCachePolicy::persisted(path.to_string_lossy().to_string()).with_capacity(1 << 16);
        let cache = ResultCache::open(&policy);
        let dist = vec![0.123_456_789_012_345, 0.3, 0.0, 1.0 - 0.123_456_789_012_345 - 0.3];
        cache.store(&bell(), &dist, Some(4_321));
        cache.store(&rotated(1.234_567_890_123), &[0.25; 4], None);
        cache.persist().unwrap();

        let restarted = ResultCache::open(&policy);
        let stats = restarted.stats();
        assert_eq!(stats.snapshot_loaded, 2);
        assert!(!stats.snapshot_ignored);
        assert_eq!(restarted.lookup(&bell(), Some(4_321)), hit(dist));
        assert!(matches!(restarted.lookup(&rotated(1.234_567_890_123), None), CacheLookup::Hit(_)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_ignored_not_fatal() {
        let path = scratch("version");
        std::fs::write(&path, "QRCC-RESULT-CACHE v999\nentry shots=exact dist=0 qasm_lines=0\n")
            .unwrap();
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        let cache = ResultCache::open(&policy);
        let stats = cache.stats();
        assert!(stats.snapshot_ignored);
        assert_eq!(stats.entries, 0);
        // garbage is equally non-fatal
        std::fs::write(&path, "not a snapshot at all").unwrap();
        assert!(ResultCache::open(&policy).stats().snapshot_ignored);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn policy_serde_round_trips() {
        let policy = ResultCachePolicy::persisted("/tmp/cache.snap").with_capacity(1 << 10);
        let json = serde_json_like(&policy);
        assert!(json.enabled);
        assert_eq!(json.capacity, 1 << 10);
        assert_eq!(json.persist_path.as_deref(), Some("/tmp/cache.snap"));
    }

    /// The vendored serde shim has no serde_json; clone-compare stands in
    /// for a full round trip (derive coverage is what matters).
    fn serde_json_like(policy: &ResultCachePolicy) -> ResultCachePolicy {
        policy.clone()
    }
}
