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
//! Exact entries serve any request; sampled entries never serve an exact
//! request.
//!
//! **Eviction.** The cache is sharded ([`ResultCache::SHARDS`] mutexes) and
//! bounded by a total weight budget counted in stored distribution values
//! (`f64` slots). Inserting past the budget evicts least-recently-used
//! entries per shard.
//!
//! **Persistence.** With [`ResultCachePolicy::persist_path`] set,
//! [`ResultCache::persist`] writes an atomic snapshot (temp file + rename)
//! and [`ResultCache::open`] reloads it, so a restarted worker serves hits
//! immediately. Snapshots carry a format version header; a mismatched or
//! unparseable snapshot is ignored (the cache starts empty) rather than
//! failing the worker — [`CacheStats::snapshot_ignored`] records that this
//! happened, and the `QL0305` lint warns about it pre-flight. Circuits are
//! stored as OpenQASM text and distribution values as `f64` bit patterns,
//! both of which round-trip exactly, so a reloaded entry hits on precisely
//! the hashes the live entry did.

use parking_lot::Mutex;
use qrcc_circuit::qasm::{from_qasm, to_qasm};
use qrcc_circuit::Circuit;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the on-disk snapshot format. Bumped whenever the layout (or
/// the semantics of a stored entry) changes; [`ResultCache::open`] ignores
/// snapshots written under any other version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// First token of a snapshot's header line.
const SNAPSHOT_MAGIC: &str = "QRCC-RESULT-CACHE";

/// Default capacity: 4 Mi stored distribution values (32 MiB of `f64`s).
pub const DEFAULT_CACHE_CAPACITY: u64 = 1 << 22;

/// Configuration for the result cache, carried by
/// [`QrccConfig`](crate::QrccConfig) and consumed by
/// [`DeviceRegistry::with_result_cache`](crate::schedule::DeviceRegistry::with_result_cache)
/// and `QrccServer::with_result_cache`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultCachePolicy {
    /// Whether executions consult the cache at all. Off by default: caching
    /// changes which circuits reach a sampling backend, which shifts its
    /// deterministic stream assignment relative to a cache-free run.
    #[serde(default)]
    pub enabled: bool,
    /// Total weight budget, counted in stored distribution values (`f64`
    /// slots) across all shards. Zero means nothing can be stored — the
    /// `QL0305` lint warns when caching is enabled with zero capacity.
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
    /// Whether a snapshot existed but was ignored (version mismatch or
    /// unparseable content) — the cache started empty instead of failing.
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
    Hit(Vec<f64>),
    /// Partially served: execute `missing` shots, merge with the stored
    /// `base` via [`merge_distributions`], and store the merge back.
    Delta {
        /// The cached distribution.
        base: Vec<f64>,
        /// Shots the cached distribution was estimated from.
        base_shots: u64,
        /// The shot top-up still to execute (`requested − base_shots`).
        missing: u64,
    },
}

/// One cached circuit: the executed distribution and its provenance.
struct Entry {
    circuit: Circuit,
    distribution: Vec<f64>,
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

/// One lock domain: structural-hash buckets plus their total weight.
#[derive(Default)]
struct Shard {
    buckets: HashMap<u64, Vec<Entry>>,
    weight: u64,
}

/// A sharded, shot-count-aware, content-addressed result cache. See the
/// [module docs](self) for key, shot and persistence semantics.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: u64,
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
            shard_capacity: capacity.div_ceil(Self::SHARDS as u64),
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
                            if cache.insert_silent(circuit, distribution, shots) {
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

    /// Reads just the version of a snapshot header. `None` when the file is
    /// unreadable or does not start with a snapshot header. Used by the
    /// `QL0305` lint to warn about mismatched snapshots without loading them.
    pub fn snapshot_version(path: &Path) -> Option<u32> {
        let text = std::fs::read_to_string(path).ok()?;
        parse_header(text.lines().next()?)
    }

    /// Looks up `circuit` for a request of `requested_shots` (`None` = the
    /// caller needs an exact distribution). Touches the entry for LRU and
    /// counts the hit/delta/miss.
    pub fn lookup(&self, circuit: &Circuit, requested_shots: Option<u64>) -> CacheLookup {
        let hash = circuit.structural_hash();
        let mut shard = self.shards[(hash as usize) % Self::SHARDS].lock();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(bucket) = shard.buckets.get_mut(&hash) else {
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
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(requested.unwrap_or(0), Ordering::Relaxed);
                CacheLookup::Hit(entry.distribution.clone())
            }
            (Some(stored), Some(requested)) if stored >= requested => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(requested, Ordering::Relaxed);
                CacheLookup::Hit(entry.distribution.clone())
            }
            (Some(stored), Some(requested)) => {
                entry.last_used = tick;
                self.delta_hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(stored, Ordering::Relaxed);
                CacheLookup::Delta {
                    base: entry.distribution.clone(),
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
    /// least-recently-used entries of the shard.
    pub fn store(&self, circuit: &Circuit, distribution: &[f64], shots: Option<u64>) {
        if self.insert_silent(circuit.clone(), distribution.to_vec(), shots) {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The insertion path shared by [`store`](Self::store) and snapshot
    /// loading. Returns whether the record was inserted or upgraded.
    fn insert_silent(&self, circuit: Circuit, distribution: Vec<f64>, shots: Option<u64>) -> bool {
        let weight = distribution.len() as u64;
        if weight > self.shard_capacity {
            return false; // wider than a whole shard: uncacheable
        }
        let hash = circuit.structural_hash();
        let mut shard = self.shards[(hash as usize) % Self::SHARDS].lock();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let serves = shots.map_or(u64::MAX, |s| s);
        let bucket = shard.buckets.entry(hash).or_default();
        let gained = match bucket.iter_mut().find(|e| e.circuit.structurally_equal(&circuit)) {
            Some(existing) if existing.serves() >= serves => return false,
            Some(existing) => {
                let replaced = existing_weight(existing);
                existing.distribution = distribution;
                existing.shots = shots;
                existing.last_used = tick;
                weight as i64 - replaced as i64
            }
            None => {
                bucket.push(Entry { circuit, distribution, shots, last_used: tick });
                weight as i64
            }
        };
        shard.weight = shard.weight.saturating_add_signed(gained);
        while shard.weight > self.shard_capacity {
            if !evict_lru(&mut shard) {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Number of entries currently held.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().buckets.values().map(Vec::len).sum::<usize>()).sum()
    }

    /// Snapshot of the cumulative counters plus current entry/weight gauges.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut weight) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.buckets.values().map(|b| b.len() as u64).sum::<u64>();
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
        let mut text = format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}\n");
        for shard in &self.shards {
            let shard = shard.lock();
            for entry in shard.buckets.values().flatten() {
                let shots = match entry.shots {
                    None => "exact".to_string(),
                    Some(s) => s.to_string(),
                };
                let dist: Vec<String> =
                    entry.distribution.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                let qasm = to_qasm(&entry.circuit);
                let lines = qasm.lines().count();
                text.push_str(&format!(
                    "entry shots={shots} dist={} qasm_lines={lines}\n",
                    dist.join(",")
                ));
                text.push_str(&qasm);
                if !qasm.ends_with('\n') {
                    text.push('\n');
                }
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

/// Weight of an entry behind a mutable borrow (free function to satisfy the
/// borrow checker inside `insert_silent`'s match).
fn existing_weight(entry: &Entry) -> u64 {
    entry.distribution.len() as u64
}

/// Removes the least-recently-used entry of `shard`. Returns whether
/// anything was removed.
fn evict_lru(shard: &mut Shard) -> bool {
    let victim = shard
        .buckets
        .iter()
        .flat_map(|(&hash, bucket)| {
            bucket.iter().enumerate().map(move |(i, e)| (e.last_used, hash, i))
        })
        .min()
        .map(|(_, hash, i)| (hash, i));
    let Some((hash, index)) = victim else {
        return false;
    };
    let bucket = shard.buckets.get_mut(&hash).expect("victim bucket exists");
    let entry = bucket.remove(index);
    shard.weight -= entry.weight();
    if bucket.is_empty() {
        shard.buckets.remove(&hash);
    }
    true
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

/// Parses a snapshot header line, returning its version.
fn parse_header(line: &str) -> Option<u32> {
    let rest = line.strip_prefix(SNAPSHOT_MAGIC)?.trim().strip_prefix('v')?;
    rest.parse().ok()
}

/// Parses a full snapshot document into its entries. Any malformed line
/// fails the whole parse — a torn snapshot must not half-load.
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
        entries.push((circuit, dist, shots));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        assert_eq!(cache.lookup(&c, Some(100)), CacheLookup::Hit(vec![0.5, 0.0, 0.0, 0.5]));
        assert_eq!(cache.lookup(&c, Some(40)), CacheLookup::Hit(vec![0.5, 0.0, 0.0, 0.5]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.delta_hits), (2, 1, 0));
        assert_eq!(stats.shots_saved, 140);
        assert_eq!(stats.entries, 1);
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
        assert_eq!(cache.lookup(&c, Some(500)), CacheLookup::Hit(vec![1.0, 0.0, 0.0, 0.0]));
        // a stronger record upgrades it
        cache.store(&c, &[0.5, 0.5, 0.0, 0.0], Some(900));
        assert_eq!(cache.lookup(&c, Some(900)), CacheLookup::Hit(vec![0.5, 0.5, 0.0, 0.0]));
        assert_eq!(cache.stats().entries, 1, "upgrades replace, never duplicate");
    }

    #[test]
    fn merge_is_the_shot_weighted_average() {
        let merged = merge_distributions(&[1.0, 0.0], 300, &[0.0, 1.0], 100);
        assert!((merged[0] - 0.75).abs() < 1e-12);
        assert!((merged[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        // capacity = 16 shards * 1 value each; 4-value distributions mean a
        // shard holds at most... nothing (4 > 1): use a bigger budget.
        let cache = ResultCache::new(16 * 8); // 8 values per shard = two 4-value entries
        let circuits: Vec<Circuit> = (0..40).map(|i| rotated(0.01 * (i + 1) as f64)).collect();
        for c in &circuits {
            cache.store(c, &[0.25; 4], Some(10));
        }
        let stats = cache.stats();
        assert!(stats.weight <= 16 * 8, "weight {} over budget", stats.weight);
        assert!(stats.evictions > 0, "40 entries cannot fit in 32 slots");
        // recently used entries survive preferentially: touch the last one
        assert!(matches!(
            cache.lookup(&circuits[39], Some(10)),
            CacheLookup::Hit(_) | CacheLookup::Miss
        ));
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
        assert_eq!(restarted.lookup(&bell(), Some(4_321)), CacheLookup::Hit(dist));
        assert!(matches!(restarted.lookup(&rotated(1.234_567_890_123), None), CacheLookup::Hit(_)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_ignored_not_fatal() {
        let path = scratch("version");
        std::fs::write(&path, "QRCC-RESULT-CACHE v999\nentry shots=exact dist=0 qasm_lines=0\n")
            .unwrap();
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        assert_eq!(ResultCache::snapshot_version(&path), Some(999));
        let cache = ResultCache::open(&policy);
        let stats = cache.stats();
        assert!(stats.snapshot_ignored);
        assert_eq!(stats.entries, 0);
        // garbage is equally non-fatal
        std::fs::write(&path, "not a snapshot at all").unwrap();
        assert_eq!(ResultCache::snapshot_version(&path), None);
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
