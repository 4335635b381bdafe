//! Worker threads of the dispatch event loop: one per registry backend,
//! each draining a FIFO job queue, serving each job through the result-cache
//! front and reporting outcomes over a shared event channel.

use crate::cache::{self, CachedBody, ResultCache, Served};
use crate::execute::PreparedBatch;
use crate::fragment::VariantKey;
use crate::schedule::RegisteredBackend;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// One dispatchable unit of work: a group of batch circuits bound for one
/// backend, named by their indices in the [`PreparedBatch`] the workers
/// borrow (no circuit is built before a worker runs it). Initial dispatch creates one job per (chunk, backend) sub-batch;
/// retries create single-circuit jobs.
pub(crate) struct Job {
    /// Which streamed chunk the circuits belong to.
    pub(crate) chunk: usize,
    /// Registry entry index of the backend this job was routed to.
    pub(crate) entry: usize,
    /// Batch-global indices of the circuits carried.
    pub(crate) circuits: Vec<usize>,
    /// Allocated per-circuit shots (when a global budget is set) — what
    /// the circuits request of the result-cache front.
    pub(crate) shots: Option<Vec<u64>>,
    /// Whether this job is a retry of circuits that failed elsewhere.
    pub(crate) retry: bool,
    /// When the dispatcher enqueued the job (queue-wait telemetry).
    pub(crate) dispatched_at: Instant,
    /// Tracing span of the dispatch phase that created the job (0 when
    /// tracing is off) — the worker's `job.execute` span parents under it
    /// so per-job spans stitch into the pipeline tree across threads.
    pub(crate) span: u64,
}

/// A finished job with its per-circuit answers and phase timings.
pub(crate) struct JobOutcome {
    pub(crate) job: Job,
    /// One answer per circuit of the job, in its order.
    pub(crate) results: Vec<Served>,
    /// Time the job sat in the worker's queue before execution started.
    pub(crate) queue_wait: Duration,
    /// Wall-clock of serving the job: cache lookups, the backend call and
    /// the write-backs.
    pub(crate) execute_wall: Duration,
}

/// Handle to one backend's worker thread: jobs sent here execute in FIFO
/// order on that backend. Dropping the handle terminates the worker once its
/// queue drains.
pub(crate) struct WorkerHandle {
    sender: Sender<Job>,
}

impl WorkerHandle {
    /// Enqueues a job. The worker is alive for as long as any handle exists,
    /// so a send can only fail after the event loop has shut down.
    pub(crate) fn submit(&self, job: Job) {
        self.sender.send(job).expect("worker thread alive while its handle exists");
    }
}

/// What every worker of one dispatched batch borrows: the prepared batch
/// its jobs index into, and the registry's result cache with every
/// fragment's body interned in it (indexed like the fragments).
#[derive(Clone, Copy)]
pub(crate) struct JobContext<'env> {
    pub(crate) batch: &'env PreparedBatch<'env>,
    pub(crate) cache: Option<(&'env ResultCache, &'env [CachedBody])>,
    pub(crate) cancelled: &'env AtomicBool,
}

/// Spawns one worker per registry entry inside `scope` and returns their
/// handles (indexed like the registry). Workers exit when every handle is
/// dropped and their queue is drained; when `context.cancelled` is set they
/// drain without executing, so an aborting run does not wait on queued
/// work.
pub(crate) fn spawn_workers<'scope, 'env: 'scope>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    entries: &'env [RegisteredBackend],
    events: &Sender<JobOutcome>,
    context: JobContext<'env>,
) -> Vec<WorkerHandle> {
    entries
        .iter()
        .map(|entry| {
            let (sender, receiver) = std::sync::mpsc::channel::<Job>();
            let events = events.clone();
            scope.spawn(move || worker_loop(entry, receiver, events, context));
            WorkerHandle { sender }
        })
        .collect()
}

/// The body of one worker thread: serve each queued job's canonical keys
/// through [`cache::serve`], whose one backend call is a
/// [`run`](crate::execute::ExecutionBackend::run) over the variants the
/// cache did not answer — keys over the request's fragment bodies, which a
/// local backend builds one per thread as it runs them — and report the
/// outcome. A closed event channel means the dispatcher is gone — stop
/// immediately.
fn worker_loop(
    entry: &RegisteredBackend,
    jobs: Receiver<Job>,
    events: Sender<JobOutcome>,
    context: JobContext<'_>,
) {
    let JobContext { batch, cache, cancelled } = context;
    while let Ok(job) = jobs.recv() {
        if cancelled.load(Ordering::Relaxed) {
            continue; // aborting: drain the queue without executing
        }
        let queue_wait = job.dispatched_at.elapsed();
        let started = Instant::now();
        // opens under the dispatch-phase span carried by the job; nested
        // spans (the cache's, a RemoteBackend submit) parent under it
        // through the worker's thread-local stack
        let span = crate::obs::tracer().span_under("job.execute", job.span);
        let keys: Vec<VariantKey> = job.circuits.iter().map(|&c| batch.canonical[c]).collect();
        let backend = entry.backend();
        // a panicking backend fails the job's circuits inside the front
        // instead of killing the worker, whose undelivered outcome would
        // hang the event loop; the retry machinery takes it from there
        let results = cache::serve(
            cache,
            entry.name(),
            backend.shots_per_circuit(),
            &keys,
            job.shots.as_deref(),
            |picked, shots| {
                // the variants stay keyed, so a remote backend ships keys
                let picks = picked.iter().map(|&i| job.circuits[i]);
                backend.run(&batch.variants(picks, shots.map(<[u64]>::to_vec)))
            },
        );
        drop(span);
        let execute_wall = started.elapsed();
        if events.send(JobOutcome { job, results, queue_wait, execute_wall }).is_err() {
            return;
        }
    }
}
