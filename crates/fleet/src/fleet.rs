//! The replica fleet: N hot-swappable replicas behind a `Router`.
//!
//! Every replica serves the same model bits (rebuilt from the same
//! checkpoint stream), so routing and scaling are latency/throughput
//! decisions that cannot change a prediction — the fleet is
//! bit-transparent by construction, and the determinism suite pins it
//! down. Promotion swaps replicas one at a time; see [`crate::promote`]
//! for the health gate in front of this.

use crate::replica::Replica;
use crate::router::{ReplicaView, Router, RoutingPolicy};
use dlbench_json::JsonValue;
use dlbench_serve::batcher::BatchConfig;
use dlbench_serve::{ModelSpec, ServeError, ServeMetrics, ServedModel};
use dlbench_trace::{counter, span, Category};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Fleet-level tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Initial replica count (min 1).
    pub replicas: usize,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Per-replica micro-batcher configuration.
    pub batch: BatchConfig,
    /// Latency SLO: a completed request slower than this burns budget.
    pub target_p99_ms: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            policy: RoutingPolicy::LeastQueue,
            batch: BatchConfig::default(),
            target_p99_ms: 50.0,
        }
    }
}

/// One fleet-served prediction: the batcher's answer plus where it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPrediction {
    /// Argmax class index.
    pub class: usize,
    /// Raw logits row.
    pub logits: Vec<f32>,
    /// Model version that served the request (never mixed within one
    /// response — the worker stamps its own immutable version).
    pub version: u64,
    /// Batch the request rode in.
    pub batch_size: usize,
    /// Queue-to-reply latency.
    pub latency: Duration,
    /// Replica id that served the request.
    pub replica: usize,
}

/// N replicas behind a router, with hot-swap promotion and explicit
/// scaling. All methods are `&self`; the fleet is shared across request
/// threads via `Arc`.
pub struct Fleet {
    spec: ModelSpec,
    config: FleetConfig,
    router: Router,
    replicas: RwLock<Vec<Arc<Replica>>>,
    metrics: Arc<ServeMetrics>,
    /// Serializes lifecycle operations (promote / scale) against each
    /// other; the request path never takes it.
    lifecycle: Mutex<LifecycleState>,
    version: AtomicU64,
    next_id: AtomicUsize,
    slo_breaches: AtomicU64,
    by_version: Mutex<BTreeMap<u64, u64>>,
}

/// Checkpoint bytes behind the current version (`None` = the spec's
/// seeded initialization), guarded by the lifecycle lock so scale-ups
/// always build the version the fleet currently serves.
struct LifecycleState {
    checkpoint: Option<Vec<u8>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Fleet {
    /// Builds and starts a fleet of `config.replicas` replicas serving
    /// `spec`, warm-loaded from `checkpoint` bytes when given.
    pub fn new(
        spec: ModelSpec,
        config: FleetConfig,
        checkpoint: Option<Vec<u8>>,
    ) -> Result<Self, ServeError> {
        let metrics = Arc::new(ServeMetrics::new());
        let mut replicas = Vec::new();
        for id in 0..config.replicas.max(1) {
            let served = build_served(&spec, checkpoint.as_deref())?;
            replicas.push(Arc::new(Replica::spawn(
                id,
                served,
                config.batch,
                Arc::clone(&metrics),
                0,
            )));
        }
        let next_id = replicas.len();
        Ok(Self {
            spec,
            router: Router::new(config.policy),
            config,
            replicas: RwLock::new(replicas),
            metrics,
            lifecycle: Mutex::new(LifecycleState { checkpoint }),
            version: AtomicU64::new(0),
            next_id: AtomicUsize::new(next_id),
            slo_breaches: AtomicU64::new(0),
            by_version: Mutex::new(BTreeMap::new()),
        })
    }

    /// The model spec every replica serves.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Model version currently promoted (0 = initial weights).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Live replica count.
    pub(crate) fn replica_count(&self) -> usize {
        self.snapshot().len()
    }

    /// `(replica id, outstanding)` pairs, in id order.
    pub(crate) fn queue_depths(&self) -> Vec<(usize, usize)> {
        self.snapshot().iter().map(|r| (r.id(), r.queue_depth())).collect()
    }

    /// Shared fleet metrics (completed/shed counters, latency
    /// percentiles, batch sizes — aggregated across replicas).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Fraction of completed requests that missed the latency SLO.
    pub fn slo_burn(&self) -> f64 {
        let completed = self.metrics.completed();
        if completed == 0 {
            return 0.0;
        }
        self.slo_breaches.load(Ordering::Relaxed) as f64 / completed as f64
    }

    /// Completed requests per model version, in version order.
    pub fn served_by_version(&self) -> Vec<(u64, u64)> {
        lock(&self.by_version).iter().map(|(&v, &n)| (v, n)).collect()
    }

    fn snapshot(&self) -> Vec<Arc<Replica>> {
        self.replicas.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Routes and serves one request.
    ///
    /// A replica closed between snapshot and enqueue surfaces as a
    /// transient `Draining`; the request re-routes against a fresh
    /// snapshot rather than failing. `QueueFull` (shed) and `BadInput`
    /// propagate to the caller.
    pub fn predict(&self, input: Vec<f32>) -> Result<FleetPrediction, ServeError> {
        let _s = span(Category::Fleet, "fleet_predict");
        // Bounded reroutes: each retry means a replica closed under us,
        // which takes a scale-down — not a hot loop.
        for _ in 0..64 {
            let snap = self.snapshot();
            if snap.is_empty() {
                return Err(ServeError::Draining);
            }
            let views: Vec<ReplicaView> = snap
                .iter()
                .map(|r| ReplicaView {
                    id: r.id(),
                    outstanding: r.queue_depth(),
                    max_batch: self.config.batch.max_batch,
                    available: !r.is_closed(),
                })
                .collect();
            let Some(i) = self.router.route(&views) else {
                return Err(ServeError::Draining);
            };
            match snap[i].predict(input.clone()) {
                Ok(p) => {
                    if p.latency.as_secs_f64() * 1e3 > self.config.target_p99_ms {
                        self.slo_breaches.fetch_add(1, Ordering::Relaxed);
                    }
                    *lock(&self.by_version).entry(p.version).or_insert(0) += 1;
                    return Ok(FleetPrediction {
                        class: p.class,
                        logits: p.logits,
                        version: p.version,
                        batch_size: p.batch_size,
                        latency: p.latency,
                        replica: snap[i].id(),
                    });
                }
                Err(ServeError::Draining) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(ServeError::Draining)
    }

    /// Promotes checkpoint `bytes` to a new version, hot-swapping every
    /// replica one at a time. Returns `(new_version, requeued)` where
    /// `requeued` counts requests moved across a swap without being
    /// dropped. Call through [`crate::promote::Promoter`] to health-gate
    /// the candidate first.
    pub fn promote(&self, bytes: &[u8]) -> Result<(u64, usize), ServeError> {
        let _s = span(Category::Fleet, "promotion");
        let mut lifecycle = lock(&self.lifecycle);
        let version = self.version.load(Ordering::SeqCst) + 1;
        let mut requeued = 0;
        for replica in self.snapshot() {
            let served = build_served(&self.spec, Some(bytes))?;
            requeued += replica.swap(served, version);
        }
        lifecycle.checkpoint = Some(bytes.to_vec());
        self.version.store(version, Ordering::SeqCst);
        Ok((version, requeued))
    }

    /// Scales the fleet to `n` replicas (min 1). New replicas serve the
    /// currently promoted version; removed replicas drain gracefully
    /// (queued requests are served, nothing is dropped). Returns
    /// `(added, removed)`.
    pub fn scale_to(&self, n: usize) -> Result<(usize, usize), ServeError> {
        let _s = span(Category::Fleet, "scale");
        let lifecycle = lock(&self.lifecycle);
        let n = n.max(1);
        let current = self.replica_count();
        let mut added = Vec::new();
        let version = self.version.load(Ordering::SeqCst);
        for _ in current..n {
            let served = build_served(&self.spec, lifecycle.checkpoint.as_deref())?;
            let id = self.next_id.fetch_add(1, Ordering::SeqCst);
            added.push(Arc::new(Replica::spawn(
                id,
                served,
                self.config.batch,
                Arc::clone(&self.metrics),
                version,
            )));
        }
        let n_added = added.len();
        let removed = {
            let mut reps = self.replicas.write().unwrap_or_else(|e| e.into_inner());
            reps.extend(added);
            let keep = n.min(reps.len());
            reps.split_off(keep)
        };
        let n_removed = removed.len();
        // Close outside the write lock: draining serves whatever the
        // removed replicas still had queued while new traffic routes to
        // the survivors.
        for r in &removed {
            r.close();
        }
        counter(Category::Fleet, "replicas", self.replica_count() as f64);
        Ok((n_added, n_removed))
    }

    /// Graceful fleet drain: every replica serves its queue and stops.
    pub fn drain(&self) {
        for r in self.snapshot() {
            r.close();
        }
    }

    /// Point-in-time JSON snapshot: fleet metrics plus per-replica
    /// depth/version and promotion state.
    pub fn metrics_json(&self) -> JsonValue {
        let replicas: Vec<JsonValue> = self
            .snapshot()
            .iter()
            .map(|r| {
                JsonValue::Object(vec![
                    ("id".into(), r.id().into()),
                    ("version".into(), (r.version() as usize).into()),
                    ("outstanding".into(), r.queue_depth().into()),
                ])
            })
            .collect();
        let by_version: Vec<JsonValue> = self
            .served_by_version()
            .into_iter()
            .map(|(v, n)| {
                JsonValue::Object(vec![
                    ("version".into(), (v as usize).into()),
                    ("completed".into(), (n as usize).into()),
                ])
            })
            .collect();
        let total_depth: usize = self.queue_depths().iter().map(|&(_, d)| d).sum();
        JsonValue::Object(vec![
            ("policy".into(), self.config.policy.name().into()),
            ("version".into(), (self.version() as usize).into()),
            ("slo_target_p99_ms".into(), self.config.target_p99_ms.into()),
            ("slo_burn".into(), self.slo_burn().into()),
            ("replicas".into(), JsonValue::Array(replicas)),
            ("served_by_version".into(), JsonValue::Array(by_version)),
            ("fleet".into(), self.metrics.snapshot(total_depth)),
        ])
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Rebuilds the served model from the spec, warm-loading `checkpoint`
/// bytes when given. Every replica built from the same bytes holds the
/// same bits — the root of the fleet's bit-transparency.
fn build_served(spec: &ModelSpec, checkpoint: Option<&[u8]>) -> Result<ServedModel, ServeError> {
    match checkpoint {
        Some(bytes) => {
            let mut cursor = bytes;
            spec.instantiate_from(&mut cursor)
        }
        None => spec.instantiate(None),
    }
}
