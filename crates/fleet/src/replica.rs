//! One fleet replica: a hot-swappable [`MicroBatcher`] slot.
//!
//! The replica owns an `Arc<MicroBatcher>` behind an `RwLock`; requests
//! take a brief read lock to clone the current batcher and then predict
//! without holding any lock. A hot swap builds the successor batcher,
//! replaces the slot under the write lock, and hands the old batcher's
//! queued jobs to the successor ([`MicroBatcher::handoff_to`]) — reply
//! channels intact, so the swap drops zero requests. Requests that race
//! the swap observe a transient `Draining` from the outgoing batcher
//! and retry against the slot, which by then holds the successor.

use dlbench_serve::batcher::{BatchConfig, MicroBatcher, Prediction};
use dlbench_serve::{ServeError, ServeMetrics, ServedModel};
use dlbench_trace::{span, Category};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// A single serving replica whose batcher can be hot-swapped to a new
/// model version without dropping requests.
pub(crate) struct Replica {
    id: usize,
    slot: RwLock<Arc<MicroBatcher>>,
    config: BatchConfig,
    metrics: Arc<ServeMetrics>,
    closed: AtomicBool,
}

fn read_slot(slot: &RwLock<Arc<MicroBatcher>>) -> Arc<MicroBatcher> {
    Arc::clone(&slot.read().unwrap_or_else(|e| e.into_inner()))
}

impl Replica {
    /// Spawns a replica serving `served` at `version`.
    pub fn spawn(
        id: usize,
        served: ServedModel,
        config: BatchConfig,
        metrics: Arc<ServeMetrics>,
        version: u64,
    ) -> Self {
        let batcher =
            Arc::new(MicroBatcher::spawn_versioned(served, config, Arc::clone(&metrics), version));
        Self { id, slot: RwLock::new(batcher), config, metrics, closed: AtomicBool::new(false) }
    }

    /// Stable replica id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Model version currently served.
    pub fn version(&self) -> u64 {
        read_slot(&self.slot).version()
    }

    /// Outstanding requests (queued + in-flight) on the current
    /// batcher — the flush-time gauge least-queue routing keys on.
    pub fn queue_depth(&self) -> usize {
        read_slot(&self.slot).queue_depth()
    }

    /// Whether the replica has been closed (scale-down).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Serves one request on the current batcher. A transient
    /// `Draining` from a batcher that was swapped out from under us is
    /// retried against the slot (which then holds the successor); a
    /// closed replica reports `Draining` for real and the fleet
    /// reroutes.
    pub fn predict(&self, input: Vec<f32>) -> Result<Prediction, ServeError> {
        loop {
            if self.is_closed() {
                return Err(ServeError::Draining);
            }
            let batcher = read_slot(&self.slot);
            match batcher.predict(input.clone()) {
                Err(ServeError::Draining) if !self.is_closed() => {
                    // Swap race: this batcher just handed off. Spin to
                    // the successor (installed before handoff begins).
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// Hot-swaps to `served` at `version`: spawns the successor,
    /// installs it, and requeues everything the outgoing batcher had
    /// queued. Returns the number of requeued requests. In-flight
    /// batches complete on the old version; nothing is dropped.
    pub fn swap(&self, served: ServedModel, version: u64) -> usize {
        let _s = span(Category::Fleet, "replica_swap");
        let next = Arc::new(MicroBatcher::spawn_versioned(
            served,
            self.config,
            Arc::clone(&self.metrics),
            version,
        ));
        let old = {
            let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *slot, Arc::clone(&next))
        };
        old.handoff_to(&next)
    }

    /// Closes the replica for scale-down: stops accepting, serves
    /// everything already queued, joins the worker. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        read_slot(&self.slot).drain();
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.close();
    }
}
