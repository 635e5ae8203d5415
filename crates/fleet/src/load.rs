//! Closed-loop load driver for an in-process [`Fleet`].
//!
//! `concurrency` worker threads pull request indices from a shared
//! counter and call [`Fleet::predict`] directly (no HTTP hop), which is
//! how the promotion tests hammer a fleet while checkpoints hot-swap
//! underneath. For open-loop, planet-scale rates use the simtime
//! simulator ([`crate::sim`]) instead.

use crate::fleet::Fleet;
use dlbench_json::{JsonValue, ToJson};
use dlbench_serve::{Histogram, HistogramSummary, ServeError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// What a load run observed, aggregated across client threads.
#[derive(Debug, Clone)]
pub struct FleetLoadReport {
    /// Requests issued.
    pub sent: usize,
    /// Requests answered with a prediction.
    pub ok: usize,
    /// Requests shed (queue full).
    pub shed: usize,
    /// Requests failing for any other reason (must be zero in the
    /// hot-swap tests: a swap may shed under pressure, never error).
    pub errors: usize,
    /// Client-observed latency percentiles (milliseconds).
    pub latency_ms: Option<HistogramSummary>,
    /// Completed requests per model version observed by clients.
    pub by_version: BTreeMap<u64, usize>,
    /// Completed requests per replica id.
    pub by_replica: BTreeMap<usize, usize>,
}

impl FleetLoadReport {
    /// `shed / sent`.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.shed as f64 / self.sent as f64
    }
}

impl ToJson for FleetLoadReport {
    fn to_json(&self) -> JsonValue {
        let versions: Vec<JsonValue> = self
            .by_version
            .iter()
            .map(|(&v, &n)| {
                JsonValue::Object(vec![
                    ("version".into(), (v as usize).into()),
                    ("completed".into(), n.into()),
                ])
            })
            .collect();
        let replicas: Vec<JsonValue> = self
            .by_replica
            .iter()
            .map(|(&r, &n)| {
                JsonValue::Object(vec![
                    ("replica".into(), r.into()),
                    ("completed".into(), n.into()),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("sent".into(), self.sent.into()),
            ("ok".into(), self.ok.into()),
            ("shed".into(), self.shed.into()),
            ("errors".into(), self.errors.into()),
            ("shed_rate".into(), self.shed_rate().into()),
            (
                "latency_ms".into(),
                self.latency_ms.as_ref().map_or(JsonValue::Null, ToJson::to_json),
            ),
            ("by_version".into(), JsonValue::Array(versions)),
            ("by_replica".into(), JsonValue::Array(replicas)),
        ])
    }
}

/// Drives `requests` predictions at `fleet` from `concurrency` client
/// threads, cycling through `inputs`.
pub fn drive(
    fleet: &Fleet,
    inputs: &[Vec<f32>],
    requests: usize,
    concurrency: usize,
) -> FleetLoadReport {
    let concurrency = concurrency.clamp(1, requests.max(1));
    drive_inner(fleet, inputs, Some(requests), concurrency, None)
}

/// Drives predictions at `fleet` until `stop` flips true (the last
/// in-flight request per thread still completes). This is how the CLI
/// demo keeps traffic on the fleet for the whole promotion window, so
/// every hot swap happens under live load.
pub fn drive_until(
    fleet: &Fleet,
    inputs: &[Vec<f32>],
    concurrency: usize,
    stop: &AtomicBool,
) -> FleetLoadReport {
    drive_inner(fleet, inputs, None, concurrency.max(1), Some(stop))
}

fn drive_inner(
    fleet: &Fleet,
    inputs: &[Vec<f32>],
    requests: Option<usize>,
    concurrency: usize,
    stop: Option<&AtomicBool>,
) -> FleetLoadReport {
    assert!(!inputs.is_empty(), "need at least one input to send");
    let next = AtomicUsize::new(0);
    let mut per_thread: Vec<ThreadTally> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut tally = ThreadTally::default();
                    loop {
                        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if requests.is_some_and(|r| i >= r) {
                            break;
                        }
                        tally.sent += 1;
                        match fleet.predict(inputs[i % inputs.len()].clone()) {
                            Ok(p) => {
                                tally.ok += 1;
                                tally.latency.record(p.latency.as_secs_f64() * 1e3);
                                *tally.by_version.entry(p.version).or_insert(0) += 1;
                                *tally.by_replica.entry(p.replica).or_insert(0) += 1;
                            }
                            Err(ServeError::QueueFull) => tally.shed += 1,
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            per_thread.push(h.join().unwrap_or_default());
        }
    });

    let mut latency = Histogram::new();
    let mut by_version = BTreeMap::new();
    let mut by_replica = BTreeMap::new();
    let (mut sent, mut ok, mut shed, mut errors) = (0, 0, 0, 0);
    for t in per_thread {
        sent += t.sent;
        ok += t.ok;
        shed += t.shed;
        errors += t.errors;
        latency.merge(&t.latency);
        for (v, n) in t.by_version {
            *by_version.entry(v).or_insert(0) += n;
        }
        for (r, n) in t.by_replica {
            *by_replica.entry(r).or_insert(0) += n;
        }
    }
    FleetLoadReport {
        sent,
        ok,
        shed,
        errors,
        latency_ms: latency.summary(),
        by_version,
        by_replica,
    }
}

#[derive(Default)]
struct ThreadTally {
    sent: usize,
    ok: usize,
    shed: usize,
    errors: usize,
    latency: Histogram,
    by_version: BTreeMap<u64, usize>,
    by_replica: BTreeMap<usize, usize>,
}
