//! Span tracing: a global [`Tracer`] handing out cheap RAII [`SpanGuard`]s.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled** — `span()` on a disabled tracer is one
//!    relaxed atomic load returning an inert guard whose `Drop` does
//!    nothing. No allocation, no clock read, no lock.
//! 2. **Lock-light when enabled** — finished spans are appended to one of
//!    [`SHARDS`] mutex-protected buffers picked by thread id, so worker
//!    threads almost never contend; the only global atomics are the span-id
//!    counter and the drop counter.
//! 3. **Cross-thread and cross-process stitching** — parents are tracked
//!    per-thread (a thread-local span stack), crossed over threads by
//!    passing an explicit parent id ([`Tracer::span_under`]), and crossed
//!    over the wire by exporting a subtree as [`RemoteSpan`]s and grafting
//!    it back with [`Tracer::import`], which re-ids remote spans into the
//!    local id space.
//!
//! Timestamps are recorded as microseconds since the tracer's creation
//! (monotonic [`Instant`]), paired with the Unix-epoch microsecond captured
//! at the same moment so remote spans — which travel as absolute Unix
//! micros — can be rebased into the local monotonic timeline.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

/// Number of independent span buffers; threads hash onto one by id.
const SHARDS: usize = 16;

/// Capacity (spans) of the span buffer across all shards; spans past it
/// are counted as dropped, never reallocated.
pub const DEFAULT_BUFFER_CAPACITY: usize = 65_536;

/// One closed span, as stored in the trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within this tracer (ids start at 1; 0 means "no span").
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// Phase or operation name, e.g. `"phase.route"` or `"job.execute"`.
    pub name: Cow<'static, str>,
    /// Start time, microseconds since the tracer was created.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Opaque id of the thread that recorded the span.
    pub thread: u64,
    /// True when the span was grafted from a remote process.
    pub remote: bool,
}

/// A span exported for (or imported from) another process: ids are only
/// meaningful within the exporting process, and the start time is absolute
/// Unix-epoch microseconds so the importer can rebase it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSpan {
    /// Span id in the *exporting* process's id space.
    pub id: u64,
    /// Parent id in the same space; 0 marks a root of the exported subtree.
    pub parent: u64,
    /// Phase or operation name.
    pub name: String,
    /// Start time, absolute microseconds since the Unix epoch.
    pub start_unix_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
}

thread_local! {
    /// The stack of currently-open span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The tracing engine. Most code uses the process-global instance via
/// [`tracer()`]; tests may build private instances with [`Tracer::new`].
pub struct Tracer {
    enabled: AtomicBool,
    capacity: usize,
    next_id: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
    epoch_unix_us: u64,
    shards: [Mutex<Vec<SpanRecord>>; SHARDS],
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("recorded", &self.recorded.load(Ordering::Relaxed))
            .field("dropped", &self.dropped_spans())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer holding [`DEFAULT_BUFFER_CAPACITY`] spans.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_BUFFER_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Self {
        let epoch_unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        Tracer {
            enabled: AtomicBool::new(false),
            capacity,
            next_id: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            epoch_unix_us,
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Turns tracing on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns tracing off (already-open guards still record on drop).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span parented under the innermost open span on this thread
    /// (or as a root). The returned guard records the span when dropped.
    #[inline]
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { inner: None };
        }
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        self.open(name.into(), parent)
    }

    /// Opens a span under an explicit parent id — the cross-thread form
    /// (e.g. a worker resuming under the span id carried by its job).
    /// `parent == 0` makes a root span.
    #[inline]
    pub fn span_under(&self, name: impl Into<Cow<'static, str>>, parent: u64) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { inner: None };
        }
        self.open(name.into(), parent)
    }

    fn open(&self, name: Cow<'static, str>, parent: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            inner: Some(OpenSpan { tracer: self, id, parent, name, started: Instant::now() }),
        }
    }

    /// The id of the innermost open span on this thread, or 0.
    pub fn current(&self) -> u64 {
        SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    fn push(&self, record: SpanRecord) {
        if self.recorded.fetch_add(1, Ordering::Relaxed) as u128 >= self.capacity as u128 {
            self.recorded.fetch_sub(1, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let shard = (record.thread as usize) % SHARDS;
        self.shards[shard].lock().push(record);
    }

    /// Microseconds elapsed since this tracer's epoch.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// The Unix-epoch microsecond corresponding to tracer time `t_us`.
    pub fn to_unix_us(&self, t_us: u64) -> u64 {
        self.epoch_unix_us.saturating_add(t_us)
    }

    /// Grafts a remote span subtree under local span `under`, remapping ids
    /// into this tracer's id space and rebasing absolute Unix timestamps
    /// onto the local monotonic timeline. Remote parents that don't appear
    /// in the batch attach to `under` (0-parented roots always do).
    pub fn import(&self, spans: &[RemoteSpan], under: u64) {
        if !self.enabled() || spans.is_empty() {
            return;
        }
        let mut remap = std::collections::HashMap::with_capacity(spans.len());
        for span in spans {
            remap.insert(span.id, self.next_id.fetch_add(1, Ordering::Relaxed));
        }
        for span in spans {
            let parent = match span.parent {
                0 => under,
                p => remap.get(&p).copied().unwrap_or(under),
            };
            self.push(SpanRecord {
                id: remap[&span.id],
                parent,
                name: Cow::Owned(span.name.clone()),
                start_us: span.start_unix_us.saturating_sub(self.epoch_unix_us),
                duration_us: span.duration_us,
                thread: u64::MAX, // remote spans carry no local thread
                remote: true,
            });
        }
    }

    /// Takes every recorded span out of the buffer, sorted by start time.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock());
        }
        self.recorded.store(0, Ordering::Relaxed);
        all.sort_by_key(|s| (s.start_us, s.id));
        all
    }

    /// Copies the recorded spans without clearing the buffer.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().iter().cloned());
        }
        all.sort_by_key(|s| (s.start_us, s.id));
        all
    }

    /// Spans discarded because the buffer was full.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears the buffer and the drop counter (ids keep increasing, so
    /// spans recorded before and after a reset never collide).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// An open span on a private or global tracer.
struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    started: Instant,
}

/// RAII guard: records the span into the tracer when dropped. Inert (all
/// methods return 0 / do nothing) when the tracer was disabled at open.
pub struct SpanGuard<'t> {
    inner: Option<OpenSpan<'t>>,
}

impl SpanGuard<'_> {
    /// The span's id, or 0 for an inert guard — pass this to
    /// [`Tracer::span_under`] on another thread, or into a wire context.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id)
    }

    /// Whether this guard will record anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.remove(pos);
            }
        });
        let duration_us = open.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let start_us = open.tracer.now_us().saturating_sub(duration_us);
        let thread = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish()
        };
        open.tracer.push(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_us,
            duration_us,
            thread,
            remote: false,
        });
    }
}

/// The process-global tracer used by the pipeline, dispatcher and net
/// client. Disabled until [`Tracer::enable`] turns it on —
/// `tracer().enable()` is the one tracing switch.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let guard = t.span("nope");
            assert_eq!(guard.id(), 0);
            assert!(!guard.is_recording());
        }
        assert!(t.drain().is_empty());
    }

    #[test]
    fn nesting_follows_the_thread_local_stack() {
        let t = Tracer::new();
        t.enable();
        let (root_id, child_id);
        {
            let root = t.span("root");
            root_id = root.id();
            {
                let child = t.span("child");
                child_id = child.id();
            }
        }
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.id == child_id).unwrap();
        let root = spans.iter().find(|s| s.id == root_id).unwrap();
        assert_eq!(child.parent, root_id);
        assert_eq!(root.parent, 0);
        assert_eq!(child.name, "child");
    }

    #[test]
    fn span_under_crosses_threads() {
        let t = Tracer::new();
        t.enable();
        let parent_id = {
            let parent = t.span("parent");
            let id = parent.id();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _job = t.span_under("job", id);
                });
            });
            id
        };
        let spans = t.drain();
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(job.parent, parent_id);
    }

    #[test]
    fn buffer_capacity_drops_overflow() {
        let t = Tracer::with_capacity(4);
        t.enable();
        for _ in 0..10 {
            let _s = t.span("s");
        }
        assert_eq!(t.drain().len(), 4);
        assert_eq!(t.dropped_spans(), 6);
    }

    #[test]
    fn import_remaps_ids_and_grafts_under_parent() {
        let t = Tracer::new();
        t.enable();
        let local = t.span("local");
        let local_id = local.id();
        let remote = vec![
            RemoteSpan {
                id: 1,
                parent: 0,
                name: "server.batch".into(),
                start_unix_us: t.to_unix_us(5),
                duration_us: 100,
            },
            RemoteSpan {
                id: 2,
                parent: 1,
                name: "server.execute".into(),
                start_unix_us: t.to_unix_us(10),
                duration_us: 80,
            },
        ];
        t.import(&remote, local_id);
        drop(local);
        let spans = t.drain();
        let batch = spans.iter().find(|s| s.name == "server.batch").unwrap();
        let exec = spans.iter().find(|s| s.name == "server.execute").unwrap();
        assert!(batch.remote && exec.remote);
        assert_eq!(batch.parent, local_id);
        assert_eq!(exec.parent, batch.id);
        assert_ne!(batch.id, 1, "remote ids must be remapped into the local space");
        assert_eq!(batch.start_us, 5);
    }
}
