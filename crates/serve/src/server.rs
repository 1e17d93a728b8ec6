//! The in-process inference server: an MPSC request queue with adaptive
//! micro-batching, where every flush runs on a caller's thread.
//!
//! # Batching policy
//!
//! A batch is ready when the queue holds a request and any trigger fires:
//!
//! * **fill** — queued graphs reach [`ServeConfig::max_batch`];
//! * **all in** — queued requests reach the number of live
//!   [`ServerHandle`]s, so no other request can arrive;
//! * **age** — the oldest queued request has waited
//!   [`ServeConfig::max_wait_us`];
//! * **stop** — the server is shutting down.
//!
//! One rule says who flushes: **the thread whose action makes a batch ready
//! flushes it**. The server spawns no thread of its own.
//!
//! * An admitting caller whose request makes the batch ready flushes it,
//!   and keeps flushing ready batches until its own result is delivered.
//! * A caller whose request is still queued waits on its slot until its own
//!   request would age out. By then the front request has aged too, so the
//!   caller wakes to a ready batch and flushes it.
//! * A handle whose `Drop` makes the batch ready wakes the caller of the
//!   front request, which flushes it.
//! * [`InferenceServer::shutdown`] drains the queue on its own thread.
//!
//! Every waiter re-checks readiness under the queue lock, the lock under
//! which admission, `Drop`, delivery and shutdown change it, so no wakeup is
//! lost. Flushes may overlap, one per flushing caller.
//!
//! Under load every flush goes out at capacity; a lone caller's requests
//! flush one by one, at once. Live handles are counted, not callers inside
//! `predict_batch`, because a handle between requests can still send: a
//! live handle that never sends holds the other callers' requests for up
//! to `max_wait_us`. Whole requests are never split across flushes, so a
//! caller's `predict_batch` result is always produced by a single model
//! epoch — a hot swap can never hand one caller a torn mix of old and new
//! weights. A request larger than `max_batch` flushes alone.
//!
//! The queue holds only requests whose callers are blocked in
//! `predict_batch`, so it is as long as the callers make it and needs no
//! bound. After shutdown a handle predicts inline on the caller's thread,
//! counted in [`crate::ServingReport::shed`].
//!
//! The queue uses `std::sync::{Mutex, Condvar}` rather than the vendored
//! `parking_lot` (which carries no condvar), matching the event sink's
//! idiom.

use crate::model::{ApGate, EpochPredictor, ModelEpoch, SwapCell, SwapOutcome};
use crate::stats::{LatencyHistogram, ServingReport};
use snowcat_core::{CoveragePredictor, ParallelPredictor, PredictedCoverage, PredictorStats};
use snowcat_events::{EventSink, ServeEvent};
use snowcat_graph::CtGraph;
use snowcat_nn::Checkpoint;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// No code panics while holding a serving lock, so poisoning means a bug.
const POISONED: &str = "a serving thread panicked while holding a lock";

/// Emit a [`ServeEvent::Snapshot`] every this many flushes.
const SNAPSHOT_EVERY: u64 = 64;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Flush as soon as this many graphs are queued.
    pub max_batch: usize,
    /// Flush the oldest request after it has waited this long, µs. A batch
    /// every live handle has joined flushes at once, so this bounds only
    /// the wait on a live handle that has not sent; with `u64::MAX` that
    /// wait has no limit.
    pub max_wait_us: u64,
    /// Inference worker threads per flush (1 = serial on the flushing
    /// thread).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 64, max_wait_us: 500, workers: 1 }
    }
}

impl ServeConfig {
    fn normalized(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.workers = self.workers.max(1);
        self
    }
}

/// Where a queued caller waits for its result. `ready` pairs with the queue
/// lock, and `result` is written and taken only under that lock.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Vec<PredictedCoverage>>>,
    ready: Condvar,
}

struct Request {
    graphs: Vec<CtGraph>,
    slot: Arc<Slot>,
    enqueued: Instant,
}

#[derive(Default)]
struct Queue {
    pending: VecDeque<Request>,
    pending_graphs: usize,
    /// Live [`ServerHandle`]s: the set that can still send a request.
    handles: usize,
    stopped: bool,
}

impl Queue {
    /// Whether a batch should flush now: the one test every flushing site
    /// applies (see the module doc's batching policy).
    fn ready(&self, cfg: &ServeConfig) -> bool {
        let Some(front) = self.pending.front() else { return false };
        self.pending_graphs >= cfg.max_batch
            || self.pending.len() >= self.handles
            || self.stopped
            || deadline(front.enqueued, cfg).is_some_and(|d| Instant::now() >= d)
    }

    /// Take whole requests from the front, up to `max_batch` graphs. An
    /// oversized request (> `max_batch` graphs) drains alone.
    fn drain(&mut self, max_batch: usize) -> Vec<Request> {
        let mut batch = Vec::new();
        let mut graphs = 0usize;
        while let Some(front) = self.pending.front() {
            let n = front.graphs.len();
            if !batch.is_empty() && graphs + n > max_batch {
                break;
            }
            let req = self.pending.pop_front().expect("front exists");
            self.pending_graphs -= n;
            graphs += n;
            batch.push(req);
            if graphs >= max_batch {
                break;
            }
        }
        batch
    }
}

/// When a request enqueued at `enqueued` ages out; `None` when the deadline
/// is unrepresentable (`max_wait_us` near `u64::MAX`).
fn deadline(enqueued: Instant, cfg: &ServeConfig) -> Option<Instant> {
    enqueued.checked_add(Duration::from_micros(cfg.max_wait_us))
}

struct Shared {
    cfg: ServeConfig,
    q: Mutex<Queue>,
    model: SwapCell,
    /// Serializes `try_swap` callers so install/gate/rollback is one
    /// transaction.
    swap_serial: parking_lot::Mutex<()>,
    requests: AtomicU64,
    inferences: AtomicU64,
    coalesced: AtomicU64,
    flushes: AtomicU64,
    flush_capacity: AtomicU64,
    shed: AtomicU64,
    queue_depth_max: AtomicU64,
    latency: LatencyHistogram,
    events: Option<EventSink>,
}

impl Shared {
    fn emit(&self, e: ServeEvent) {
        if let Some(s) = &self.events {
            s.serve(e);
        }
    }

    /// Predict on the caller's thread against the current epoch, counted
    /// as shed. Used after shutdown, so a handle never deadlocks and never
    /// returns a wrong-length result.
    fn predict_inline(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(graphs.len() as u64, Ordering::Relaxed);
        let start = Instant::now();
        let out = self.model.current().deployed.predict(graphs);
        self.latency.record(start.elapsed().as_micros() as u64);
        out
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.q.lock().expect(POISONED)
    }

    /// Drain the ready batch at the front of `q`, run it through the
    /// current model epoch with the lock released, then deliver each
    /// request's slice under the re-taken lock, which is returned.
    fn flush_front<'a>(&'a self, mut q: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        let mut batch = q.drain(self.cfg.max_batch);
        drop(q);
        debug_assert!(!batch.is_empty(), "flushed an empty batch");
        let epoch = self.model.current();
        // Move the graphs out of the requests rather than cloning them —
        // the batch is consumed here, and per-request lengths are all the
        // delivery loop needs.
        let sizes: Vec<usize> = batch.iter().map(|r| r.graphs.len()).collect();
        let graphs: Vec<CtGraph> =
            batch.iter_mut().flat_map(|r| std::mem::take(&mut r.graphs)).collect();
        let preds = if self.cfg.workers > 1 {
            ParallelPredictor::new(EpochPredictor::new(epoch), self.cfg.workers)
                .predict_batch(&graphs)
        } else {
            epoch.deployed.predict(&graphs)
        };
        debug_assert_eq!(preds.len(), graphs.len());

        // Account the flush before waking any caller, so a caller that
        // reads `stats()` right after its result arrives sees counters
        // that already include its own flush.
        let n = graphs.len() as u64;
        self.inferences.fetch_add(n, Ordering::Relaxed);
        self.coalesced.fetch_add(n, Ordering::Relaxed);
        self.flush_capacity.fetch_add(self.cfg.max_batch as u64, Ordering::Relaxed);
        let flushes = self.flushes.fetch_add(1, Ordering::Relaxed) + 1;

        let done = Instant::now();
        let mut it = preds.into_iter();
        let q = self.queue();
        for (req, size) in batch.into_iter().zip(sizes) {
            let part: Vec<PredictedCoverage> = it.by_ref().take(size).collect();
            let us = done.saturating_duration_since(req.enqueued).as_micros() as u64;
            self.latency.record(us);
            *req.slot.result.lock().expect(POISONED) = Some(part);
            req.slot.ready.notify_one();
        }
        if flushes.is_multiple_of(SNAPSHOT_EVERY) {
            self.emit(self.snapshot_event());
        }
        q
    }

    fn batch_fill(&self) -> f64 {
        let cap = self.flush_capacity.load(Ordering::Relaxed);
        if cap == 0 {
            0.0
        } else {
            self.coalesced.load(Ordering::Relaxed) as f64 / cap as f64
        }
    }

    fn snapshot_event(&self) -> ServeEvent {
        ServeEvent::Snapshot {
            requests: self.requests.load(Ordering::Relaxed),
            graphs: self.inferences.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            batch_fill: self.batch_fill(),
            p50_us: self.latency.percentile(0.5),
            p99_us: self.latency.percentile(0.99),
        }
    }

    fn report(&self) -> ServingReport {
        let cur = self.model.current();
        ServingReport {
            requests: self.requests.load(Ordering::Relaxed),
            graphs: self.inferences.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            batch_fill: self.batch_fill(),
            p50_us: self.latency.percentile(0.5),
            p99_us: self.latency.percentile(0.99),
            swaps: self.model.installs(),
            epoch: cur.epoch,
            model_name: cur.name.clone(),
        }
    }
}

/// Cloneable, thread-safe client of a running [`InferenceServer`].
///
/// Implements [`CoveragePredictor`], so it plugs into everything that
/// takes one — [`snowcat_core::PredictorService`], campaign explorers,
/// worker pools — while the server coalesces requests from any number of
/// concurrent handles into shared flushes. The server counts live handles
/// (see the module doc's batching policy): drop a handle that will not send
/// again, or it holds other callers' requests for up to `max_wait_us`.
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("name", &self.name()).finish()
    }
}

impl ServerHandle {
    fn new(shared: &Arc<Shared>) -> Self {
        shared.queue().handles += 1;
        Self { shared: shared.clone() }
    }

    /// Point-in-time serving report (same data as the owning server's).
    pub fn report(&self) -> ServingReport {
        self.shared.report()
    }
}

impl Clone for ServerHandle {
    fn clone(&self) -> Self {
        Self::new(&self.shared)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned queue still counts handles.
        let mut q = self.shared.q.lock().unwrap_or_else(PoisonError::into_inner);
        q.handles -= 1;
        // Requests waiting on this handle may now form a ready batch: the
        // caller of the front request flushes it.
        if let Some(front) = q.pending.front().filter(|_| q.ready(&self.shared.cfg)) {
            front.slot.ready.notify_one();
        }
    }
}

impl CoveragePredictor for ServerHandle {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        let shared = &*self.shared;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        if graphs.is_empty() {
            return Vec::new();
        }
        let slot = Arc::new(Slot::default());
        // Copy the graphs before touching the queue: the clone is the
        // expensive part of admission, and doing it under the mutex would
        // serialize every caller (and every drain) behind it.
        let owned = graphs.to_vec();
        let mut q = shared.queue();
        if q.stopped {
            drop(q);
            return shared.predict_inline(graphs);
        }
        let enqueued = Instant::now();
        q.pending.push_back(Request { graphs: owned, slot: slot.clone(), enqueued });
        q.pending_graphs += graphs.len();
        shared.queue_depth_max.fetch_max(q.pending_graphs as u64, Ordering::Relaxed);

        // Flush every batch that is ready while this request is queued;
        // otherwise wait until it is delivered, this request ages out, or
        // a dropped handle hands over the front batch.
        let my_deadline = deadline(enqueued, &shared.cfg);
        loop {
            if let Some(out) = slot.result.lock().expect(POISONED).take() {
                return out;
            }
            q = if q.ready(&shared.cfg) {
                shared.flush_front(q)
            } else if let Some(d) = my_deadline {
                let wait = d.saturating_duration_since(Instant::now());
                slot.ready.wait_timeout(q, wait).expect(POISONED).0
            } else {
                slot.ready.wait(q).expect(POISONED)
            };
        }
    }

    fn stats(&self) -> PredictorStats {
        let s = &self.shared;
        let mut out = PredictorStats::of_inference_counts(
            s.inferences.load(Ordering::Relaxed),
            s.requests.load(Ordering::Relaxed),
        );
        out.add_serving(
            s.queue_depth_max.load(Ordering::Relaxed),
            s.coalesced.load(Ordering::Relaxed),
            s.flushes.load(Ordering::Relaxed),
            s.flush_capacity.load(Ordering::Relaxed),
            s.shed.load(Ordering::Relaxed),
        );
        out
    }

    fn fingerprint(&self) -> u64 {
        // The served model's fingerprint, so callers can tell the epochs
        // of a hot swap apart.
        self.shared.model.current().fingerprint
    }

    fn name(&self) -> String {
        let cur = self.shared.model.current();
        format!(
            "serve(batch<={},{}us,{})",
            self.shared.cfg.max_batch, self.shared.cfg.max_wait_us, cur.name
        )
    }
}

/// The long-lived inference server: owns the model behind a [`SwapCell`]
/// and the request queue its handles flush.
pub struct InferenceServer {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceServer").field("report", &self.shared.report()).finish()
    }
}

impl InferenceServer {
    /// Start serving `checkpoint` under `cfg`, emitting serving events to
    /// `events` when provided.
    pub fn start(checkpoint: &Checkpoint, cfg: ServeConfig, events: Option<EventSink>) -> Self {
        let cfg = cfg.normalized();
        let shared = Arc::new(Shared {
            model: SwapCell::new(ModelEpoch::from_checkpoint(checkpoint, 0)),
            swap_serial: parking_lot::Mutex::new(()),
            q: Mutex::new(Queue::default()),
            requests: AtomicU64::new(0),
            inferences: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            flush_capacity: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            events,
            cfg,
        });
        shared.emit(ServeEvent::Started {
            model: checkpoint.name.clone(),
            max_batch: shared.cfg.max_batch as u64,
            max_wait_us: shared.cfg.max_wait_us,
        });
        Self { shared }
    }

    /// A new client handle. Handles stay valid after `shutdown` (they fall
    /// back to inline prediction).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle::new(&self.shared)
    }

    /// The epoch currently being served.
    pub fn current_epoch(&self) -> Arc<ModelEpoch> {
        self.shared.model.current()
    }

    /// Point-in-time serving report.
    pub fn report(&self) -> ServingReport {
        self.shared.report()
    }

    /// The event sink serving events go to, when one was provided.
    pub fn events(&self) -> Option<&EventSink> {
        self.shared.events.as_ref()
    }

    /// Offer `candidate` as the next served model.
    ///
    /// The swap is one serialized transaction: (1) a structurally broken
    /// candidate (non-finite weights, bogus threshold) is **rejected**
    /// before install; (2) otherwise the candidate is installed atomically
    /// — in-flight flushes finish on the epoch they already hold; (3) when
    /// `gate` carries validation data, the AP-regression breaker compares
    /// candidate vs. incumbent and **rolls back** to the incumbent's
    /// weights if the candidate is worse by more than the gate tolerance.
    pub fn try_swap(&self, candidate: &Checkpoint, gate: &ApGate) -> SwapOutcome {
        let shared = &self.shared;
        let _serial = shared.swap_serial.lock();
        let epoch_no = shared.model.claim_epoch();

        if let Err(reason) = candidate.sanity_check() {
            shared.emit(ServeEvent::SwapRejected { epoch: epoch_no, reason: reason.clone() });
            return SwapOutcome::Rejected { epoch: epoch_no, reason };
        }

        let incumbent = shared.model.current();
        let cand = ModelEpoch::from_checkpoint(candidate, epoch_no);
        let (name, fingerprint) = (cand.name.clone(), cand.fingerprint);
        shared.model.install(cand);
        shared.emit(ServeEvent::SwapInstalled { epoch: epoch_no, name, fingerprint });

        if !gate.is_empty() {
            let installed = shared.model.current();
            let candidate_ap = gate.ap(installed.deployed.model()).expect("gate non-empty");
            let incumbent_ap = gate.ap(incumbent.deployed.model()).expect("gate non-empty");
            if candidate_ap + gate.tolerance() < incumbent_ap {
                shared.model.rollback();
                shared.emit(ServeEvent::SwapRolledBack {
                    epoch: epoch_no,
                    candidate_ap,
                    incumbent_ap,
                });
                return SwapOutcome::RolledBack { epoch: epoch_no, candidate_ap, incumbent_ap };
            }
        }
        SwapOutcome::Installed { epoch: epoch_no }
    }

    /// Stop serving: flush every queued request on this thread (no
    /// prediction is ever dropped), emit [`ServeEvent::Stopped`], and return
    /// the final report. A flush already running on a caller's thread
    /// finishes there, so the report counts every request that returned
    /// before `shutdown` was called. Idempotent.
    pub fn shutdown(&mut self) -> ServingReport {
        let shared = &*self.shared;
        let mut q = shared.queue();
        let was_running = !std::mem::replace(&mut q.stopped, true);
        while !q.pending.is_empty() {
            q = shared.flush_front(q);
        }
        drop(q);
        let report = shared.report();
        if was_running {
            shared.emit(ServeEvent::Stopped {
                requests: report.requests,
                graphs: report.graphs,
                swaps: report.swaps,
            });
        }
        report
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
