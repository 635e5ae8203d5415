//! Per-model serving metrics: completed/shed/error counters, a
//! latency histogram (shared [`Histogram`] implementation, so `/metrics`,
//! the load generator and the fleet simulator agree on percentile
//! semantics), and the batch-size distribution the micro-batcher
//! actually achieved.

use dlbench_json::{JsonValue, ToJson};
use dlbench_trace::Stopwatch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A sample-keeping latency/duration distribution with percentile
/// queries. One implementation serves both report generation (the
/// `loadgen --sweep` rows) and the online `/metrics` endpoint, so the
/// two can never disagree about what "p99" means.
///
/// Percentiles use linear interpolation between closest ranks (the
/// numpy/Prometheus-client convention): for `n` sorted samples,
/// percentile `p` sits at fractional rank `p/100 · (n-1)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (non-finite values are dropped — a NaN
    /// latency would poison every percentile query).
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.push(v);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the recorded samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// The `p`-th percentile (`0.0 ..= 100.0`) by linear interpolation
    /// between closest ranks; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let [v] = select_percentiles(&mut self.samples.clone(), [p]);
        Some(v)
    }

    /// Absorbs every sample of `other` (per-thread histograms folding
    /// into a run-wide one).
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The p50/p95/p99 summary every latency report in the suite
    /// prints; `None` when empty. One copy of the samples, one
    /// selection per rank.
    pub fn summary(&self) -> Option<HistogramSummary> {
        let mean = self.mean()?;
        let [p50, p95, p99, max] =
            select_percentiles(&mut self.samples.clone(), [50.0, 95.0, 99.0, 100.0]);
        Some(HistogramSummary { count: self.len(), mean, p50, p95, p99, max })
    }
}

/// Orders samples, which are finite.
fn by_value(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("samples are finite")
}

/// Percentiles `ps` (ascending) of the non-empty `samples`, which it
/// reorders. The lower closest rank of each is one selection within
/// the part at or above the previous one; the upper closest rank is
/// the minimum of the part above the lower. Equal samples are equal
/// bits (a duration is never `-0.0`), so these are the order
/// statistics a sorted copy holds, and every percentile equals the
/// sort-and-interpolate value bitwise.
fn select_percentiles<const N: usize>(samples: &mut [f64], ps: [f64; N]) -> [f64; N] {
    let last = samples.len() - 1;
    let mut rest = samples;
    let mut start = 0; // the rank of `rest[0]`
    ps.map(|p| {
        let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let part = std::mem::take(&mut rest);
        let (_, &mut lo_v, above) = part.select_nth_unstable_by(lo - start, by_value);
        let v = if lo == hi {
            lo_v
        } else {
            let hi_v = above.iter().copied().min_by(by_value).expect("a sample above rank lo");
            lo_v + (hi_v - lo_v) * (rank - lo as f64)
        };
        rest = &mut part[lo - start..];
        start = lo;
        v
    })
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples behind the summary.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl ToJson for HistogramSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("count".into(), self.count.into()),
            ("mean".into(), self.mean.into()),
            ("p50".into(), self.p50.into()),
            ("p95".into(), self.p95.into()),
            ("p99".into(), self.p99.into()),
            ("max".into(), self.max.into()),
        ])
    }
}

/// Thread-safe metrics for one served model. All mutation paths are
/// lock-light (atomics for counters, short critical sections for the
/// histogram) so metric recording never backpressures the hot path.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Stopwatch,
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    latency_ms: Mutex<Histogram>,
    /// Time requests sat queued before their batch was assembled.
    queue_wait_ms: Mutex<Histogram>,
    /// Time spent in preprocessing + the batched forward pass.
    forward_ms: Mutex<Histogram>,
    batch_sizes: Mutex<BTreeMap<usize, u64>>,
    /// Queue-depth gauge sampled by the worker at flush time (after a
    /// batch's replies go out), i.e. outstanding = queued + in-flight.
    flush_depth: Mutex<Histogram>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking metrics writer must not take the server down with it.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics; throughput is measured from this instant.
    pub fn new() -> Self {
        Self {
            started: Stopwatch::start(),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency_ms: Mutex::new(Histogram::new()),
            queue_wait_ms: Mutex::new(Histogram::new()),
            forward_ms: Mutex::new(Histogram::new()),
            batch_sizes: Mutex::new(BTreeMap::new()),
            flush_depth: Mutex::new(Histogram::new()),
        }
    }

    /// Records one completed request and its queue-to-reply latency.
    pub(crate) fn observe_latency(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        lock(&self.latency_ms).record(latency.as_secs_f64() * 1e3);
    }

    /// Records one request's queue wait (enqueue to batch assembly).
    pub(crate) fn observe_queue_wait(&self, wait: Duration) {
        lock(&self.queue_wait_ms).record(wait.as_secs_f64() * 1e3);
    }

    /// Records one batched forward pass's duration (preprocessing +
    /// model forward, amortized over the whole batch).
    pub(crate) fn observe_forward(&self, forward: Duration) {
        lock(&self.forward_ms).record(forward.as_secs_f64() * 1e3);
    }

    /// Records one flushed batch of `n` requests.
    pub(crate) fn observe_batch(&self, n: usize) {
        *lock(&self.batch_sizes).entry(n).or_insert(0) += 1;
    }

    /// Records the queue-depth gauge as sampled by the worker at flush
    /// time, after a batch's replies were sent. This is the consistent
    /// depth signal least-queue routing keys on: it counts every
    /// request a batcher has committed to but not yet answered.
    pub(crate) fn observe_flush_depth(&self, depth: usize) {
        lock(&self.flush_depth).record(depth as f64);
    }

    /// Records one request shed because the queue was full.
    pub(crate) fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one malformed or otherwise failed request.
    pub(crate) fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed-request count.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Shed-request count.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Error count.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Point-in-time JSON snapshot for the `/metrics` endpoint.
    /// `queue_depth` is sampled by the caller (the batcher owns the
    /// gauge).
    pub fn snapshot(&self, queue_depth: usize) -> JsonValue {
        let elapsed = self.started.elapsed_s().max(1e-9);
        let completed = self.completed();
        let hist_json = |h: &Mutex<Histogram>| match lock(h).summary() {
            Some(s) => s.to_json(),
            None => JsonValue::Null,
        };
        let latency = hist_json(&self.latency_ms);
        let batches: Vec<JsonValue> = lock(&self.batch_sizes)
            .iter()
            .map(|(&size, &count)| {
                JsonValue::Object(vec![
                    ("batch_size".into(), size.into()),
                    ("count".into(), (count as usize).into()),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("completed".into(), (completed as usize).into()),
            ("shed".into(), (self.shed() as usize).into()),
            ("errors".into(), (self.errors() as usize).into()),
            ("queue_depth".into(), queue_depth.into()),
            ("uptime_s".into(), elapsed.into()),
            ("throughput_rps".into(), (completed as f64 / elapsed).into()),
            ("latency_ms".into(), latency),
            ("queue_wait_ms".into(), hist_json(&self.queue_wait_ms)),
            ("forward_ms".into(), hist_json(&self.forward_ms)),
            ("queue_depth_at_flush".into(), hist_json(&self.flush_depth)),
            ("batch_size_counts".into(), JsonValue::Array(batches)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_tensor::SeededRng;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
        assert!(h.summary().is_none());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(7.25);
        assert_eq!(h.len(), 1);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(7.25));
        }
        let s = h.summary().unwrap();
        assert_eq!((s.count, s.mean, s.p50, s.max), (1, 7.25, 7.25, 7.25));
    }

    #[test]
    fn exact_quantiles_on_linear_ramp() {
        // 0..=10 inclusive: rank p/100*(n-1) lands on integers for
        // every multiple of 10, so the percentiles are exact samples.
        let mut h = Histogram::new();
        for v in (0..=10).rev() {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(0.0), Some(0.0));
        assert_eq!(h.percentile(50.0), Some(5.0));
        assert_eq!(h.percentile(100.0), Some(10.0));
        // Interpolated: p95 sits between ranks 9 and 10.
        assert_eq!(h.percentile(95.0), Some(9.5));
        assert_eq!(h.mean(), Some(5.0));
    }

    #[test]
    fn merge_folds_samples_together() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.percentile(50.0), Some(2.0));
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(3.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.percentile(99.0), Some(3.0));
    }

    /// The sort-based percentile the selection replaced, kept as the
    /// oracle: clone, sort, interpolate between closest ranks.
    fn sorted_percentile(samples: &[f64], p: f64) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            return Some(sorted[lo]);
        }
        let frac = rank - lo as f64;
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
    }

    fn sorted_summary(h: &Histogram) -> Option<[u64; 6]> {
        let pct = |p| sorted_percentile(&h.samples, p).map(f64::to_bits);
        Some([h.len() as u64, h.mean()?.to_bits(), pct(50.0)?, pct(95.0)?, pct(99.0)?, pct(100.0)?])
    }

    fn summary_bits(h: &Histogram) -> Option<[u64; 6]> {
        let s = h.summary()?;
        Some([
            s.count as u64,
            s.mean.to_bits(),
            s.p50.to_bits(),
            s.p95.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
        ])
    }

    /// `len` non-negative samples; with `distinct` small, mostly ties.
    fn random_histogram(rng: &mut SeededRng, len: usize, distinct: usize) -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..len {
            let v = if distinct > 0 {
                rng.index(distinct) as f64 * 0.25
            } else {
                f64::from(rng.uniform(0.0, 50.0)).powi(2)
            };
            h.record(v);
        }
        h
    }

    #[test]
    fn selection_matches_the_sorted_oracle_bitwise() {
        let mut rng = SeededRng::new(0x5E1EC7);
        let lengths = (1..=64).chain((0..120).map(|_| 1 + rng.index(2_000))).chain([1_999, 2_000]);
        for len in lengths.collect::<Vec<_>>() {
            for distinct in [0, 1, 3, 40] {
                let h = random_histogram(&mut rng, len, distinct);
                assert_eq!(summary_bits(&h), sorted_summary(&h), "len {len}, distinct {distinct}");
                let random_p = f64::from(rng.uniform(-10.0, 110.0));
                for p in [0.0, 50.0, 95.0, 99.0, 100.0, 99.9, random_p] {
                    assert_eq!(
                        h.percentile(p).map(f64::to_bits),
                        sorted_percentile(&h.samples, p).map(f64::to_bits),
                        "len {len}, distinct {distinct}, p {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn merged_summary_equals_recording_the_union() {
        let mut rng = SeededRng::new(0x3E6E);
        for _ in 0..50 {
            let (n, m) = (rng.index(300), 1 + rng.index(300));
            let (ties_a, ties_b) = (rng.index(5), rng.index(5));
            let mut a = random_histogram(&mut rng, n, ties_a);
            let b = random_histogram(&mut rng, m, ties_b);
            let mut union = Histogram::new();
            for &v in a.samples.iter().chain(&b.samples) {
                union.record(v);
            }
            a.merge(&b);
            assert_eq!(summary_bits(&a), summary_bits(&union));
            assert_eq!(summary_bits(&a), sorted_summary(&union));
        }
    }

    #[test]
    fn summary_serializes_to_json() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(2.0);
        let json = h.summary().unwrap().to_json();
        assert_eq!(json["count"], 2.0);
        assert_eq!(json["p50"], 1.5);
        assert_eq!(json["max"], 2.0);
    }

    #[test]
    fn snapshot_reports_counts_and_percentiles() {
        let m = ServeMetrics::new();
        m.observe_latency(Duration::from_millis(10));
        m.observe_latency(Duration::from_millis(20));
        m.observe_queue_wait(Duration::from_millis(4));
        m.observe_forward(Duration::from_millis(6));
        m.observe_batch(2);
        m.observe_flush_depth(5);
        m.count_shed();
        m.count_error();
        let snap = m.snapshot(3);
        assert_eq!(snap["completed"], 2.0);
        assert_eq!(snap["shed"], 1.0);
        assert_eq!(snap["errors"], 1.0);
        assert_eq!(snap["queue_depth"], 3.0);
        let p50 = snap["latency_ms"]["p50"].as_f64().unwrap();
        assert!((14.0..=16.0).contains(&p50), "p50 {p50} should interpolate 10..20");
        // The queue-wait vs. forward-time breakdown rides the snapshot.
        let wait_p50 = snap["queue_wait_ms"]["p50"].as_f64().unwrap();
        assert!((3.5..=4.5).contains(&wait_p50), "queue wait p50 {wait_p50}");
        let fwd_p50 = snap["forward_ms"]["p50"].as_f64().unwrap();
        assert!((5.5..=6.5).contains(&fwd_p50), "forward p50 {fwd_p50}");
        let flush_p50 = snap["queue_depth_at_flush"]["p50"].as_f64().unwrap();
        assert!((4.5..=5.5).contains(&flush_p50), "flush depth p50 {flush_p50}");
        let batches = snap["batch_size_counts"].as_array().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0]["batch_size"], 2.0);
    }

    #[test]
    fn empty_metrics_snapshot_has_null_latency() {
        let m = ServeMetrics::new();
        let snap = m.snapshot(0);
        assert_eq!(snap["latency_ms"], JsonValue::Null);
        assert_eq!(snap["queue_wait_ms"], JsonValue::Null);
        assert_eq!(snap["forward_ms"], JsonValue::Null);
        assert_eq!(snap["completed"], 0.0);
    }
}
