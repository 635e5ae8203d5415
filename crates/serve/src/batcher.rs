//! Dynamic micro-batching: a bounded request queue drained by one
//! worker thread that coalesces whatever is waiting, up to a max batch
//! size, into a single batched forward pass.
//!
//! A batch never waits when no other request is coming. The worker
//! takes the first job plus whatever is already queued, and flushes at
//! once unless the batcher is *backlogged*: this batch found other jobs
//! queued, or the previous flush left work behind. Only then does it
//! wait for stragglers, until `max_wait` after the oldest job was
//! enqueued. So the deadline costs nothing at low load and still builds
//! batches during a burst, and a request's queue wait is bounded by
//! `max_wait` plus one forward.
//!
//! Batching is *bit-transparent*: preprocessing and every layer in the
//! suite operate row-independently, so a request's logits are identical
//! whether it rode a batch of 1 or of `max_batch` (the determinism test
//! suite pins this down).

use crate::metrics::ServeMetrics;
use crate::model::ServedModel;
use crate::ServeError;
use dlbench_tensor::Tensor;
use dlbench_trace::{monotonic_ns, Category, Stopwatch};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for one model's micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest batch one forward pass may carry.
    pub max_batch: usize,
    /// How long a backlogged batcher may hold a batch for stragglers,
    /// counted from the enqueue of the batch's oldest request. A batch
    /// that finds nothing else queued, after a flush that left nothing
    /// behind, is flushed at once and never waits.
    pub max_wait: Duration,
    /// Bounded queue capacity; requests beyond it are shed with
    /// [`ServeError::QueueFull`] (HTTP 503), never buffered unboundedly.
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 8, max_wait: Duration::from_millis(2), queue_capacity: 64 }
    }
}

/// One served prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Argmax class index.
    pub class: usize,
    /// Raw logits row for the request.
    pub logits: Vec<f32>,
    /// Size of the batch this request was served in.
    pub batch_size: usize,
    /// Queue-to-reply latency.
    pub latency: Duration,
    /// Model version that computed this prediction. The worker thread
    /// stamps it from the batcher's own immutable version, so a single
    /// response can never mix versions even while a fleet hot-swap is
    /// in flight.
    pub version: u64,
}

struct Job {
    input: Vec<f32>,
    /// Enqueue timestamp on the shared monotonic clock, so the worker
    /// can split latency into queue wait vs. forward time.
    enqueued_ns: u64,
    reply: mpsc::SyncSender<Result<Prediction, ServeError>>,
}

/// A bounded queue in front of one model, drained by a dedicated
/// worker thread that runs batched forward passes.
pub struct MicroBatcher {
    queue: Mutex<Option<mpsc::SyncSender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    depth: Arc<AtomicUsize>,
    metrics: Arc<ServeMetrics>,
    input_len: usize,
    version: u64,
    /// Set by [`MicroBatcher::handoff_to`]: the worker stops serving and
    /// instead parks every job it receives in `orphans` for requeueing
    /// on the successor batcher.
    handoff: Arc<AtomicBool>,
    orphans: Arc<Mutex<Vec<Job>>>,
}

impl MicroBatcher {
    /// Spawns the worker thread and returns the batcher handle,
    /// serving model version 0.
    pub fn spawn(served: ServedModel, config: BatchConfig, metrics: Arc<ServeMetrics>) -> Self {
        Self::spawn_versioned(served, config, metrics, 0)
    }

    /// Spawns a batcher whose predictions are stamped with `version` —
    /// the hook the fleet layer uses to hot-swap promoted checkpoints
    /// without ever mixing model versions inside one response.
    pub fn spawn_versioned(
        served: ServedModel,
        config: BatchConfig,
        metrics: Arc<ServeMetrics>,
        version: u64,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let depth = Arc::new(AtomicUsize::new(0));
        let handoff = Arc::new(AtomicBool::new(false));
        let orphans = Arc::new(Mutex::new(Vec::new()));
        let (c, h, w) = served.spec.input_dims();
        let input_len = c * h * w;
        let worker = {
            let depth = Arc::clone(&depth);
            let metrics = Arc::clone(&metrics);
            let handoff = Arc::clone(&handoff);
            let orphans = Arc::clone(&orphans);
            std::thread::spawn(move || {
                worker_loop(served, config, rx, depth, metrics, version, handoff, orphans)
            })
        };
        Self {
            queue: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            depth,
            metrics,
            input_len,
            version,
            handoff,
            orphans,
        }
    }

    /// Model version this batcher serves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Enqueues one request and blocks until its batch is served.
    ///
    /// Sheds immediately with [`ServeError::QueueFull`] when the
    /// bounded queue is at capacity — the caller (HTTP layer) turns
    /// this into `503` + `Retry-After` rather than stalling the client.
    pub fn predict(&self, input: Vec<f32>) -> Result<Prediction, ServeError> {
        if input.len() != self.input_len {
            self.metrics.count_error();
            return Err(ServeError::BadInput(format!(
                "expected {} input values, got {}",
                self.input_len,
                input.len()
            )));
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job { input, enqueued_ns: monotonic_ns(), reply: reply_tx };
        let sender = match lock(&self.queue).as_ref() {
            Some(s) => s.clone(),
            None => return Err(ServeError::Draining),
        };
        // Count the request before it can be observed by the worker so
        // the gauge never under-reports.
        self.depth.fetch_add(1, Ordering::SeqCst);
        match sender.try_send(job) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(_)) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                self.metrics.count_shed();
                return Err(ServeError::QueueFull);
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                return Err(ServeError::Draining);
            }
        }
        drop(sender);
        reply_rx.recv().unwrap_or(Err(ServeError::Draining))
    }

    /// Outstanding requests: queued plus riding an in-flight batch.
    ///
    /// The worker decrements the gauge only after a batch's replies are
    /// sent (flush time), not when the batch is assembled, so routing
    /// policies comparing replica depths see the work a replica has
    /// actually committed to — a replica mid-forward no longer looks
    /// idle.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting new requests, let the worker
    /// serve everything already queued, then join it. Idempotent.
    pub fn drain(&self) {
        drop(lock(&self.queue).take());
        if let Some(handle) = lock(&self.worker).take() {
            let _ = handle.join();
        }
    }

    /// Hot-swap handoff: stop this batcher and requeue everything it
    /// had queued (with original enqueue timestamps and reply channels
    /// intact) onto `next`, so an in-progress swap drops zero requests.
    ///
    /// Any batch already being forwarded completes on this batcher's
    /// version before the worker exits; jobs still queued are parked by
    /// the worker and re-enqueued here with a blocking send — `next`'s
    /// worker is live, so capacity frees up as it drains. Returns the
    /// number of requeued jobs.
    pub fn handoff_to(&self, next: &MicroBatcher) -> usize {
        self.handoff.store(true, Ordering::SeqCst);
        drop(lock(&self.queue).take());
        if let Some(handle) = lock(&self.worker).take() {
            let _ = handle.join();
        }
        let jobs: Vec<Job> = std::mem::take(&mut *lock(&self.orphans));
        let mut moved = 0;
        for job in jobs {
            let sender = lock(&next.queue).as_ref().cloned();
            match sender {
                Some(sender) => {
                    next.depth.fetch_add(1, Ordering::SeqCst);
                    match sender.send(job) {
                        Ok(()) => moved += 1,
                        Err(mpsc::SendError(job)) => {
                            next.depth.fetch_sub(1, Ordering::SeqCst);
                            let _ = job.reply.send(Err(ServeError::Draining));
                        }
                    }
                }
                None => {
                    let _ = job.reply.send(Err(ServeError::Draining));
                }
            }
        }
        moved
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.drain();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut served: ServedModel,
    config: BatchConfig,
    rx: mpsc::Receiver<Job>,
    depth: Arc<AtomicUsize>,
    metrics: Arc<ServeMetrics>,
    version: u64,
    handoff: Arc<AtomicBool>,
    orphans: Arc<Mutex<Vec<Job>>>,
) {
    let (c, h, w) = served.spec.input_dims();
    let max_batch = config.max_batch.max(1);
    let max_wait_ns = u64::try_from(config.max_wait.as_nanos()).unwrap_or(u64::MAX);
    // Whether the last flush left work queued behind it.
    let mut left_behind = false;
    loop {
        // Block for the batch's first request; a closed, empty channel
        // means the batcher has drained and the worker exits.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        if handoff.load(Ordering::SeqCst) {
            // Mid-swap: park the job (timestamp and reply channel
            // intact) for `handoff_to` to requeue on the successor.
            depth.fetch_sub(1, Ordering::SeqCst);
            lock(&orphans).push(first);
            continue;
        }
        let assembly_span = dlbench_trace::span(Category::Serve, "batch_assembly");
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        // Wait for stragglers only while backlogged, and only until
        // `max_wait` after the oldest job's enqueue.
        if left_behind || batch.len() > 1 {
            let oldest_ns = batch.iter().map(|job| job.enqueued_ns).fold(u64::MAX, u64::min);
            let deadline_ns = oldest_ns.saturating_add(max_wait_ns);
            while batch.len() < max_batch {
                let now_ns = monotonic_ns();
                if now_ns >= deadline_ns {
                    break;
                }
                match rx.recv_timeout(Duration::from_nanos(deadline_ns - now_ns)) {
                    Ok(job) => batch.push(job),
                    // Timeout: flush what we have. Disconnected: flush
                    // this final batch; the outer recv will then observe
                    // the closed channel and exit.
                    Err(_) => break,
                }
            }
        }
        let n = batch.len();
        // Queue wait ends here: the batch's membership is final and the
        // forward pass it rides is next. The depth gauge is NOT
        // decremented yet — these requests stay "outstanding" until
        // their replies go out at flush time.
        let dequeued_ns = monotonic_ns();
        for job in &batch {
            let wait = Duration::from_nanos(dequeued_ns.saturating_sub(job.enqueued_ns));
            metrics.observe_queue_wait(wait);
            dlbench_trace::record_span(Category::Serve, "queue_wait", job.enqueued_ns, dequeued_ns);
        }

        let mut data = Vec::with_capacity(n * c * h * w);
        for job in &batch {
            data.extend_from_slice(&job.input);
        }
        drop(assembly_span);
        let forward_started = Stopwatch::start();
        let forward_span = dlbench_trace::span(Category::Serve, "forward");
        let raw =
            Tensor::from_vec(&[n, c, h, w], data).expect("input lengths validated at enqueue");
        let x = served.preprocessing.apply(&raw, &served.channel_means);
        let logits = served.model.forward(&x, false);
        let classes = logits.argmax_rows();
        drop(forward_span);
        metrics.observe_forward(forward_started.elapsed());
        let width = logits.shape()[1];
        metrics.observe_batch(n);
        for (i, job) in batch.into_iter().enumerate() {
            let latency = Duration::from_nanos(monotonic_ns().saturating_sub(job.enqueued_ns));
            metrics.observe_latency(latency);
            let row = logits.data()[i * width..(i + 1) * width].to_vec();
            // A receiver gone away (client disconnected mid-flight) is
            // its problem, not the worker's.
            let _ = job.reply.send(Ok(Prediction {
                class: classes[i],
                logits: row,
                batch_size: n,
                latency,
                version,
            }));
        }
        // Flush complete: the batch is no longer outstanding. Sample
        // the gauge here — flush time — so consumers (trace counter,
        // metrics histogram, least-queue routing) all see the same
        // queued-plus-in-flight semantics.
        depth.fetch_sub(n, Ordering::SeqCst);
        let remaining = depth.load(Ordering::SeqCst);
        left_behind = remaining > 0;
        metrics.observe_flush_depth(remaining);
        dlbench_trace::counter(Category::Serve, "queue_depth", remaining as f64);
    }
}
