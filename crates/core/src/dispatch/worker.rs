//! Worker threads of the dispatch event loop: one per registry backend,
//! each draining a FIFO job queue and reporting outcomes over a shared
//! event channel.

use crate::execute::{PreparedBatch, VariantBatch};
use crate::fragment::FragmentSet;
use crate::schedule::RegisteredBackend;
use crate::CoreError;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// One dispatchable unit of work: a group of batch circuits bound for one
/// backend, named by their indices in the [`PreparedBatch`] the workers
/// borrow. Initial dispatch creates one job per (chunk, backend) sub-batch;
/// retries create single-circuit jobs.
pub(crate) struct Job {
    /// Which streamed chunk the circuits belong to.
    pub(crate) chunk: usize,
    /// Registry entry index of the backend this job was routed to.
    pub(crate) entry: usize,
    /// Batch-global indices of the circuits carried.
    pub(crate) circuits: Vec<usize>,
    /// Allocated per-circuit shots (when a global budget is set).
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

/// A finished job with its per-circuit results and phase timings.
pub(crate) struct JobOutcome {
    pub(crate) job: Job,
    pub(crate) results: Vec<Result<Vec<f64>, CoreError>>,
    /// Time the job sat in the worker's queue before execution started.
    pub(crate) queue_wait: Duration,
    /// Wall-clock of the backend's batch call.
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

/// What every worker of one dispatched batch borrows: the fragments and the
/// prepared batch its jobs index into.
#[derive(Clone, Copy)]
pub(crate) struct JobContext<'env> {
    pub(crate) fragments: &'env FragmentSet,
    pub(crate) batch: &'env PreparedBatch,
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

/// The body of one worker thread: run each queued job as a single
/// [`run_variants`](crate::execute::ExecutionBackend::run_variants) call on
/// the backend and report the outcome. A closed event channel means the
/// dispatcher is gone — stop immediately.
fn worker_loop(
    entry: &RegisteredBackend,
    jobs: Receiver<Job>,
    events: Sender<JobOutcome>,
    context: JobContext<'_>,
) {
    while let Ok(job) = jobs.recv() {
        if context.cancelled.load(Ordering::Relaxed) {
            continue; // aborting: drain the queue without executing
        }
        let queue_wait = job.dispatched_at.elapsed();
        let started = Instant::now();
        // opens under the dispatch-phase span carried by the job; nested
        // spans (e.g. a RemoteBackend submit) parent under it through the
        // worker's thread-local stack
        let span = crate::obs::tracer().span_under("job.execute", job.span);
        // A panicking backend must not kill the worker: with other workers
        // still holding event-channel clones, a dead worker would leave its
        // job's outcome undelivered and hang the event loop forever. Catch
        // the panic and report it as a per-circuit failure instead — the
        // retry machinery then treats it like any other backend fault.
        let variants = VariantBatch::picked(
            context.fragments,
            &context.batch.canonical,
            &context.batch.circuits,
            Cow::Borrowed(&job.circuits),
            job.shots.as_deref(),
        );
        let run = std::panic::AssertUnwindSafe(|| entry.backend().run_variants(&variants));
        let results = std::panic::catch_unwind(run).unwrap_or_else(|panic| {
            let reason = panic_message(panic.as_ref());
            job.circuits
                .iter()
                .map(|_| {
                    Err(CoreError::BackendUnavailable {
                        backend: entry.name().to_string(),
                        reason: format!("backend panicked: {reason}"),
                    })
                })
                .collect()
        });
        drop(span);
        let execute_wall = started.elapsed();
        if events.send(JobOutcome { job, results, queue_wait, execute_wall }).is_err() {
            return;
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
