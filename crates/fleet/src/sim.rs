//! Discrete-event fleet simulator driven by `dlbench-simtime`.
//!
//! The real fleet ([`crate::Fleet`]) runs actual forward passes, which
//! caps how much load a test box can generate. This simulator keeps the
//! *control plane* real — the same `Router` policies and the same
//! `Autoscaler` state machine — but replaces each replica's forward
//! pass with its simtime cost (`CostModel::inference_seconds_batched`
//! over the personality network's [`LayerCost`]), so a heavy-tailed
//! open-loop arrival process can sweep rates up to millions-of-users
//! scale in bounded wall-clock.
//!
//! Everything is deterministic: arrivals come from a seeded bounded
//! Pareto stream, events are ordered by `(sim-time ns, sequence)`, and
//! the report carries no wall-clock fields — the same config yields a
//! byte-identical report, which check.sh enforces on `BENCH_fleet.json`.

use crate::autoscale::{AutoscaleConfig, Autoscaler, FleetSignal, ScaleDecision};
use crate::router::{ReplicaView, Router, RoutingPolicy};
use dlbench_data::DatasetKind;
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_json::{JsonValue, ToJson};
use dlbench_quant::cost_split;
use dlbench_serve::{Histogram, HistogramSummary, ModelDtype};
use dlbench_simtime::{devices, CostModel, SimClock};
use dlbench_tensor::SeededRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One fleet-simulation cell.
#[derive(Debug, Clone)]
pub struct SimFleetConfig {
    /// Host framework personality (sets the service-time profile).
    pub host: FrameworkKind,
    /// Dataset (sets the input shape).
    pub dataset: DatasetKind,
    /// Benchmark scale (sets the image size).
    pub scale: Scale,
    /// Seed for the arrival process.
    pub seed: u64,
    /// Routing policy under test.
    pub policy: RoutingPolicy,
    /// Initial replica count.
    pub replicas: usize,
    /// Per-replica max batch size.
    pub max_batch: usize,
    /// Per-replica flush deadline (milliseconds of sim-time).
    pub max_wait_ms: f64,
    /// Per-replica bounded queue; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Latency SLO for the burn metric.
    pub target_p99_ms: f64,
    /// Mean arrival rate (requests per sim-second, open loop).
    pub rate_rps: f64,
    /// Total arrivals to simulate.
    pub requests: usize,
    /// Pareto shape for inter-arrival gaps (2.0 = bursty but
    /// finite-mean heavy tail).
    pub pareto_alpha: f64,
    /// Autoscaler to drive, or `None` for a fixed fleet.
    pub autoscale: Option<AutoscaleConfig>,
    /// Autoscaler observation period (sim-seconds).
    pub autoscale_tick_s: f64,
    /// Numeric representation the replicas serve in. `Int8` charges the
    /// quantizable layers at the device's int8 throughput (see
    /// `CostModel::inference_seconds_batched_int8`) and the fallback
    /// layers at fp32 rates.
    pub dtype: ModelDtype,
}

impl SimFleetConfig {
    /// A TensorFlow/MNIST cell at `rate_rps` with sensible defaults.
    pub fn new(rate_rps: f64, requests: usize) -> Self {
        Self {
            host: FrameworkKind::TensorFlow,
            dataset: DatasetKind::Mnist,
            scale: Scale::Tiny,
            seed: 42,
            policy: RoutingPolicy::LeastQueue,
            replicas: 2,
            max_batch: 8,
            max_wait_ms: 2.0,
            queue_capacity: 64,
            target_p99_ms: 20.0,
            rate_rps,
            requests,
            pareto_alpha: 2.0,
            autoscale: None,
            autoscale_tick_s: 0.25,
            dtype: ModelDtype::Fp32,
        }
    }
}

/// What one simulated cell reports. No wall-clock fields: the report is
/// a pure function of the config.
#[derive(Debug, Clone)]
pub struct SimFleetReport {
    /// Routing policy that ran.
    pub policy: RoutingPolicy,
    /// Numeric representation the replicas served in.
    pub dtype: ModelDtype,
    /// Mean offered arrival rate (requests per sim-second).
    pub rate_rps: f64,
    /// Whether the autoscaler was active.
    pub autoscale: bool,
    /// Arrivals offered.
    pub requests: usize,
    /// Requests answered.
    pub completed: usize,
    /// Requests shed at a full replica queue.
    pub shed: usize,
    /// `shed / requests`.
    pub shed_rate: f64,
    /// Fraction of completed requests over the latency SLO.
    pub slo_burn: f64,
    /// End-to-end latency percentiles (sim-time milliseconds).
    pub latency_ms: Option<HistogramSummary>,
    /// Mean served batch size (batching efficiency under the policy).
    pub mean_batch: f64,
    /// Replica count at the start.
    pub replicas_initial: usize,
    /// Replica count at the end.
    pub replicas_final: usize,
    /// Peak concurrent replicas.
    pub replicas_peak: usize,
    /// Scale-up actions taken.
    pub scale_ups: usize,
    /// Scale-down actions taken.
    pub scale_downs: usize,
    /// Simulated seconds the run spanned.
    pub sim_seconds: f64,
}

impl ToJson for SimFleetReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("policy".into(), self.policy.name().into()),
            ("dtype".into(), self.dtype.name().into()),
            ("rate_rps".into(), self.rate_rps.into()),
            ("autoscale".into(), JsonValue::Bool(self.autoscale)),
            ("requests".into(), self.requests.into()),
            ("completed".into(), self.completed.into()),
            ("shed".into(), self.shed.into()),
            ("shed_rate".into(), self.shed_rate.into()),
            ("slo_burn".into(), self.slo_burn.into()),
            (
                "latency_ms".into(),
                self.latency_ms.as_ref().map_or(JsonValue::Null, ToJson::to_json),
            ),
            ("mean_batch".into(), self.mean_batch.into()),
            ("replicas_initial".into(), self.replicas_initial.into()),
            ("replicas_final".into(), self.replicas_final.into()),
            ("replicas_peak".into(), self.replicas_peak.into()),
            ("scale_ups".into(), self.scale_ups.into()),
            ("scale_downs".into(), self.scale_downs.into()),
            ("sim_seconds".into(), self.sim_seconds.into()),
        ])
    }
}

const NS: f64 = 1e9;

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    /// One request arrives (the next arrival is scheduled on pop).
    Arrival,
    /// A replica's max-wait deadline fires. Stale tokens are ignored.
    Flush { replica: usize, token: u64 },
    /// A replica's in-flight batch finishes; `batch` holds each
    /// member's arrival timestamp.
    Departure { replica: usize, batch: Vec<u64> },
    /// Autoscaler observation tick.
    ScaleTick,
}

/// Heap key: time, then insertion sequence — full determinism without
/// relying on heap stability.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at_ns: u64,
    seq: u64,
    kind_rank: u8,
}

struct SimReplica {
    id: usize,
    /// Sim-time before which the replica is warming (not routable).
    active_from_ns: u64,
    draining: bool,
    alive: bool,
    /// Arrival timestamps of queued requests.
    queue: VecDeque<u64>,
    in_flight: usize,
    /// Flush-deadline generation; bumping it invalidates scheduled
    /// flushes.
    token: u64,
}

impl SimReplica {
    fn new(id: usize, active_from_ns: u64) -> Self {
        Self {
            id,
            active_from_ns,
            draining: false,
            alive: true,
            queue: VecDeque::new(),
            in_flight: 0,
            token: 0,
        }
    }

    fn outstanding(&self) -> usize {
        self.queue.len() + self.in_flight
    }
}

/// Runs one simulated fleet cell to completion.
pub fn simulate_fleet(cfg: &SimFleetConfig) -> SimFleetReport {
    assert!(cfg.rate_rps > 0.0, "arrival rate must be positive");
    assert!(cfg.requests > 0, "need at least one request");
    assert!(cfg.pareto_alpha > 1.0, "pareto tail needs a finite mean");

    // Service time: the personality network's forward cost on the
    // simulated GPU, per achievable batch size.
    let setting = DefaultSetting::new(cfg.host, cfg.dataset);
    let network = trainer::build_cell_model(cfg.host, &setting, cfg.dataset, cfg.scale, cfg.seed);
    let cost_model = CostModel::new(devices::gtx_1080_ti(), cfg.host.execution_profile());
    let size = cfg.scale.image_size(cfg.dataset);
    let max_batch = cfg.max_batch.max(1);
    let svc_ns: Vec<u64> = (0..=max_batch)
        .map(|k| {
            if k == 0 {
                return 0;
            }
            let shape = [k, cfg.dataset.channels(), size, size];
            let seconds = match cfg.dtype {
                ModelDtype::Fp32 => cost_model.inference_seconds_batched(&network.cost(&shape), k),
                ModelDtype::Int8 => {
                    let (quantized, fallback) = cost_split(&network, &shape);
                    cost_model.inference_seconds_batched_int8(&quantized, &fallback, k)
                }
            };
            (seconds * NS).round() as u64
        })
        .collect();

    // Bounded Pareto inter-arrival gaps with the configured mean:
    // x_m * U^(-1/alpha) has mean alpha*x_m/(alpha-1), solved for x_m.
    let mut rng = SeededRng::new(cfg.seed).fork(0xF1EE7);
    let x_m = (cfg.pareto_alpha - 1.0) / (cfg.pareto_alpha * cfg.rate_rps);
    let gap_cap_ns = (1000.0 / cfg.rate_rps * NS) as u64;
    let mut next_gap_ns = move || -> u64 {
        let u = f64::from(rng.uniform(1e-6, 1.0));
        let gap = x_m * u.powf(-1.0 / cfg.pareto_alpha);
        ((gap * NS) as u64).min(gap_cap_ns).max(1)
    };

    let max_wait_ns = (cfg.max_wait_ms / 1e3 * NS) as u64;
    let router = Router::new(cfg.policy);
    let mut autoscaler = cfg.autoscale.map(Autoscaler::new);
    let warmup_ns = cfg.autoscale.map_or(0, |a| (a.warmup_s * NS) as u64);
    let tick_ns = ((cfg.autoscale_tick_s * NS) as u64).max(1);

    let mut replicas: Vec<SimReplica> =
        (0..cfg.replicas.max(1)).map(|id| SimReplica::new(id, 0)).collect();
    let mut next_replica_id = replicas.len();
    let mut replicas_peak = replicas.len();
    let mut scale_ups = 0usize;
    let mut scale_downs = 0usize;

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut payloads: std::collections::HashMap<u64, EventKind> = std::collections::HashMap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<Event>>,
                payloads: &mut std::collections::HashMap<u64, EventKind>,
                seq: &mut u64,
                at_ns: u64,
                kind: EventKind| {
        let rank = match kind {
            EventKind::Departure { .. } => 0,
            EventKind::Flush { .. } => 1,
            EventKind::Arrival => 2,
            EventKind::ScaleTick => 3,
        };
        heap.push(Reverse(Event { at_ns, seq: *seq, kind_rank: rank }));
        payloads.insert(*seq, kind);
        *seq += 1;
    };

    push(&mut heap, &mut payloads, &mut seq, next_gap_ns(), EventKind::Arrival);
    if autoscaler.is_some() {
        push(&mut heap, &mut payloads, &mut seq, tick_ns, EventKind::ScaleTick);
    }

    let mut emitted = 1usize;
    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut slo_breaches = 0usize;
    let mut latency_hist = Histogram::new();
    let mut window_hist = Histogram::new();
    let mut batch_total = 0usize;
    let mut batch_count = 0usize;
    let mut clock = SimClock::new();
    let mut last_ns = 0u64;

    // Starts (or restarts) service on replica `r` at time `now`.
    #[allow(clippy::too_many_arguments)]
    fn flush(
        r: &mut SimReplica,
        now: u64,
        max_batch: usize,
        svc_ns: &[u64],
        heap: &mut BinaryHeap<Reverse<Event>>,
        payloads: &mut std::collections::HashMap<u64, EventKind>,
        seq: &mut u64,
        batch_total: &mut usize,
        batch_count: &mut usize,
    ) {
        let k = r.queue.len().min(max_batch);
        debug_assert!(k > 0 && r.in_flight == 0);
        let batch: Vec<u64> = r.queue.drain(..k).collect();
        r.in_flight = k;
        r.token += 1; // invalidate any scheduled max-wait flush
        *batch_total += k;
        *batch_count += 1;
        let rank = 0u8;
        heap.push(Reverse(Event { at_ns: now + svc_ns[k], seq: *seq, kind_rank: rank }));
        payloads.insert(*seq, EventKind::Departure { replica: r.id, batch });
        *seq += 1;
    }

    while completed + shed < cfg.requests {
        let Some(Reverse(ev)) = heap.pop() else {
            unreachable!("event heap drained with requests outstanding");
        };
        let now = ev.at_ns;
        debug_assert!(now >= last_ns, "time must not run backwards");
        clock.advance((now - last_ns) as f64 / NS);
        last_ns = now;
        let kind = payloads.remove(&ev.seq).expect("payload for every event");

        match kind {
            EventKind::Arrival => {
                if emitted < cfg.requests {
                    push(
                        &mut heap,
                        &mut payloads,
                        &mut seq,
                        now + next_gap_ns(),
                        EventKind::Arrival,
                    );
                    emitted += 1;
                }
                let views: Vec<ReplicaView> = replicas
                    .iter()
                    .filter(|r| r.alive)
                    .map(|r| ReplicaView {
                        id: r.id,
                        outstanding: r.outstanding(),
                        max_batch,
                        available: !r.draining && now >= r.active_from_ns,
                    })
                    .collect();
                let alive_ids: Vec<usize> =
                    replicas.iter().filter(|r| r.alive).map(|r| r.id).collect();
                let Some(view_idx) = router.route(&views) else {
                    shed += 1;
                    continue;
                };
                let rid = alive_ids[view_idx];
                let r = replicas.iter_mut().find(|r| r.id == rid).expect("routed to live");
                if r.outstanding() >= cfg.queue_capacity {
                    shed += 1;
                    continue;
                }
                r.queue.push_back(now);
                if r.in_flight == 0 {
                    if r.queue.len() >= max_batch {
                        flush(
                            r,
                            now,
                            max_batch,
                            &svc_ns,
                            &mut heap,
                            &mut payloads,
                            &mut seq,
                            &mut batch_total,
                            &mut batch_count,
                        );
                    } else if r.queue.len() == 1 {
                        let token = r.token;
                        let rid = r.id;
                        push(
                            &mut heap,
                            &mut payloads,
                            &mut seq,
                            now + max_wait_ns,
                            EventKind::Flush { replica: rid, token },
                        );
                    }
                }
            }
            EventKind::Flush { replica, token } => {
                let Some(r) = replicas.iter_mut().find(|r| r.id == replica && r.alive) else {
                    continue;
                };
                if r.token != token || r.in_flight > 0 || r.queue.is_empty() {
                    continue; // stale deadline
                }
                flush(
                    r,
                    now,
                    max_batch,
                    &svc_ns,
                    &mut heap,
                    &mut payloads,
                    &mut seq,
                    &mut batch_total,
                    &mut batch_count,
                );
            }
            EventKind::Departure { replica, batch } => {
                for &arrived in &batch {
                    let ms = (now - arrived) as f64 / 1e6;
                    latency_hist.record(ms);
                    window_hist.record(ms);
                    if ms > cfg.target_p99_ms {
                        slo_breaches += 1;
                    }
                }
                completed += batch.len();
                let r = replicas
                    .iter_mut()
                    .find(|r| r.id == replica && r.alive)
                    .expect("departure from a live replica");
                r.in_flight = 0;
                if r.queue.is_empty() {
                    if r.draining {
                        r.alive = false; // drained: leave the fleet
                    }
                } else if r.queue.len() >= max_batch || r.queue[0] + max_wait_ns <= now {
                    flush(
                        r,
                        now,
                        max_batch,
                        &svc_ns,
                        &mut heap,
                        &mut payloads,
                        &mut seq,
                        &mut batch_total,
                        &mut batch_count,
                    );
                } else {
                    let token = r.token;
                    let rid = r.id;
                    let due = r.queue[0] + max_wait_ns;
                    push(
                        &mut heap,
                        &mut payloads,
                        &mut seq,
                        due,
                        EventKind::Flush { replica: rid, token },
                    );
                }
            }
            EventKind::ScaleTick => {
                let Some(scaler) = autoscaler.as_mut() else { continue };
                let alive: Vec<&SimReplica> = replicas.iter().filter(|r| r.alive).collect();
                let provisioned = alive.iter().filter(|r| !r.draining).count();
                let warming =
                    alive.iter().filter(|r| !r.draining && now < r.active_from_ns).count();
                let outstanding: usize = alive.iter().map(|r| r.outstanding()).sum();
                let p99_ms = window_hist.percentile(99.0);
                window_hist = Histogram::new();
                let signal = FleetSignal {
                    replicas: provisioned,
                    warming,
                    outstanding,
                    p99_ms,
                    target_p99_ms: cfg.target_p99_ms,
                };
                match scaler.observe(now as f64 / NS, &signal) {
                    ScaleDecision::Hold => {}
                    ScaleDecision::Up(to) => {
                        for _ in provisioned..to {
                            replicas.push(SimReplica::new(next_replica_id, now + warmup_ns));
                            next_replica_id += 1;
                        }
                        scale_ups += 1;
                    }
                    ScaleDecision::Down(to) => {
                        // Drain the newest non-draining replicas first.
                        let mut excess = provisioned.saturating_sub(to);
                        for r in replicas.iter_mut().rev() {
                            if excess == 0 {
                                break;
                            }
                            if r.alive && !r.draining {
                                r.draining = true;
                                if r.outstanding() == 0 {
                                    r.alive = false;
                                }
                                excess -= 1;
                            }
                        }
                        scale_downs += 1;
                    }
                }
                let live_now = replicas.iter().filter(|r| r.alive && !r.draining).count();
                replicas_peak = replicas_peak.max(live_now);
                if completed + shed < cfg.requests {
                    push(&mut heap, &mut payloads, &mut seq, now + tick_ns, EventKind::ScaleTick);
                }
            }
        }
    }

    let replicas_final = replicas.iter().filter(|r| r.alive && !r.draining).count();
    SimFleetReport {
        policy: cfg.policy,
        dtype: cfg.dtype,
        rate_rps: cfg.rate_rps,
        autoscale: cfg.autoscale.is_some(),
        requests: cfg.requests,
        completed,
        shed,
        shed_rate: shed as f64 / cfg.requests as f64,
        slo_burn: if completed == 0 { 0.0 } else { slo_breaches as f64 / completed as f64 },
        latency_ms: latency_hist.summary(),
        mean_batch: if batch_count == 0 { 0.0 } else { batch_total as f64 / batch_count as f64 },
        replicas_initial: cfg.replicas.max(1),
        replicas_final,
        replicas_peak,
        scale_ups,
        scale_downs,
        sim_seconds: clock.seconds(),
    }
}

/// Sweeps arrival rates × routing policies × autoscaling on/off into
/// the `BENCH_fleet.json` document. Pure sim-time: byte-identical
/// across runs of the same parameters.
pub fn fleet_sweep_doc(
    base: &SimFleetConfig,
    rates: &[f64],
    policies: &[RoutingPolicy],
    autoscale_modes: &[bool],
) -> JsonValue {
    let mut rows = Vec::new();
    for &rate in rates {
        for &policy in policies {
            for &autoscale in autoscale_modes {
                let mut cfg = base.clone();
                cfg.rate_rps = rate;
                cfg.policy = policy;
                // Scale the autoscaler's reaction time to the cell's
                // arrival window so scaling is exercised at every rate
                // (a 1M-rps cell spans milliseconds of sim-time).
                let window_s = base.requests as f64 / rate.max(1.0);
                cfg.autoscale_tick_s = (window_s / 50.0).clamp(1e-4, base.autoscale_tick_s);
                cfg.autoscale = autoscale.then(|| AutoscaleConfig::for_window(window_s));
                rows.push(simulate_fleet(&cfg).to_json());
            }
        }
    }
    JsonValue::Object(vec![
        ("benchmark".into(), "fleet".into()),
        ("host".into(), base.host.name().into()),
        ("dtype".into(), base.dtype.name().into()),
        ("dataset".into(), base.dataset.name().into()),
        ("seed".into(), (base.seed as usize).into()),
        ("requests_per_cell".into(), base.requests.into()),
        ("target_p99_ms".into(), base.target_p99_ms.into()),
        ("rates_rps".into(), JsonValue::Array(rates.iter().map(|&r| JsonValue::from(r)).collect())),
        ("rows".into(), JsonValue::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(rate: f64) -> SimFleetConfig {
        SimFleetConfig::new(rate, 400)
    }

    #[test]
    fn conserves_requests_and_is_deterministic() {
        let cfg = quick(2_000.0);
        let a = simulate_fleet(&cfg);
        let b = simulate_fleet(&cfg);
        assert_eq!(a.completed + a.shed, cfg.requests);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.slo_burn, b.slo_burn);
        assert_eq!(a.latency_ms.map(|s| (s.p50, s.p99)), b.latency_ms.map(|s| (s.p50, s.p99)));
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    #[test]
    fn overload_sheds_and_underload_does_not() {
        let calm = simulate_fleet(&quick(200.0));
        assert_eq!(calm.shed, 0, "2 replicas at 200 rps should not shed");
        let mut hot = quick(4_000_000.0);
        hot.replicas = 1;
        let slammed = simulate_fleet(&hot);
        assert!(
            slammed.shed > 0,
            "1 replica at 4M rps must shed (shed {} of {})",
            slammed.shed,
            slammed.requests
        );
        assert!(slammed.shed_rate > calm.shed_rate);
    }

    #[test]
    fn autoscaler_adds_replicas_under_pressure() {
        let mut cfg = quick(50_000.0);
        cfg.requests = 3_000;
        cfg.replicas = 1;
        cfg.autoscale =
            Some(AutoscaleConfig { cooldown_s: 0.02, warmup_s: 0.005, ..Default::default() });
        cfg.autoscale_tick_s = 0.01;
        let r = simulate_fleet(&cfg);
        assert!(r.scale_ups > 0, "sustained 50k rps on one replica must scale up");
        assert!(r.replicas_peak > 1);
        // Fixed fleet at the same rate sheds at least as much.
        let mut fixed = cfg.clone();
        fixed.autoscale = None;
        let f = simulate_fleet(&fixed);
        assert!(r.shed_rate <= f.shed_rate, "autoscaling {} vs fixed {}", r.shed_rate, f.shed_rate);
    }

    #[test]
    fn batch_aware_fills_batches_at_least_as_well_as_round_robin() {
        let mut rr = quick(100_000.0);
        rr.policy = RoutingPolicy::RoundRobin;
        rr.replicas = 4;
        let mut ba = rr.clone();
        ba.policy = RoutingPolicy::BatchAware;
        let (rr, ba) = (simulate_fleet(&rr), simulate_fleet(&ba));
        assert!(
            ba.mean_batch >= rr.mean_batch * 0.9,
            "batch-aware {} vs rr {}",
            ba.mean_batch,
            rr.mean_batch
        );
    }

    #[test]
    fn int8_replicas_serve_at_least_as_fast_as_fp32() {
        let fp32 = simulate_fleet(&quick(2_000.0));
        let mut cfg = quick(2_000.0);
        cfg.dtype = ModelDtype::Int8;
        let int8 = simulate_fleet(&cfg);
        assert_eq!(int8.completed + int8.shed, cfg.requests);
        let (p50_fp32, p50_int8) =
            (fp32.latency_ms.as_ref().unwrap().p50, int8.latency_ms.as_ref().unwrap().p50);
        assert!(p50_int8 <= p50_fp32, "int8 p50 {p50_int8} vs fp32 {p50_fp32}");
    }

    #[test]
    fn sweep_doc_has_a_row_per_cell() {
        let base = quick(1_000.0);
        let doc = fleet_sweep_doc(
            &base,
            &[500.0, 5_000.0],
            &[RoutingPolicy::RoundRobin, RoutingPolicy::LeastQueue],
            &[false, true],
        );
        assert_eq!(doc["rows"].as_array().unwrap().len(), 8);
        assert_eq!(doc["benchmark"].as_str(), Some("fleet"));
    }
}
