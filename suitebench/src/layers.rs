//! The traced phase and per-layer attribution.
//!
//! The benchmark wraps each call it makes into a workspace crate in a
//! span named `<crate>.<call>` and each operation in a root span `op`.
//! A span's self time is its duration minus the bench spans nested
//! directly inside it, so every nanosecond of an operation lands in
//! exactly one crate, or in `op` itself (the benchmark's own glue).
//! The program's existing `Layer` spans nested directly under a bench
//! `nn.*` or `quant.forward` span split that time further by layer
//! kind.

use crate::harness::{run_pass, Level, Pass, Record};
use dlbench_trace::{Category, Event, EventKind, SpanGuard, TraceConfig};
use std::collections::BTreeMap;

/// Crates the benchmark calls into; the prefix of every bench span.
const CRATES: [&str; 8] = ["data", "nn", "optim", "adversarial", "quant", "serve", "json", "fleet"];

/// Events kept for the trace file: the first few operations' worth.
const KEEP_EVENTS: usize = 20_000;

/// Opens a bench span (inert unless tracing is armed).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    dlbench_trace::span(Category::Runner, name)
}

/// The crate a bench span belongs to (`"op"` for the root span), or
/// `None` for spans the program itself records.
fn bench_crate(e: &Event) -> Option<&'static str> {
    if e.cat != Category::Runner {
        return None;
    }
    if e.name == "op" {
        return Some("op");
    }
    let prefix = e.name.split('.').next()?;
    CRATES.iter().copied().find(|&c| c == prefix)
}

/// The breakdown bucket of a program `Layer` span nested directly under
/// the bench span `parent`.
fn layer_bucket(parent: &str, layer: &str) -> Option<&'static str> {
    let (kind, backward) = match layer.strip_suffix(".bwd") {
        Some(kind) => (kind, true),
        None => (layer, false),
    };
    if parent == "quant.forward" {
        return Some(match kind {
            "qconv2d" => "quant.qconv2d",
            "qlinear" => "quant.qlinear",
            "qembedding" | "qconv1d_bank" => "quant.qtext",
            _ => "quant.fallback",
        });
    }
    if !parent.starts_with("nn.") {
        return None;
    }
    Some(match (kind, backward) {
        ("conv2d", false) => "nn.conv2d.fwd",
        ("conv2d", true) => "nn.conv2d.bwd",
        ("linear", false) => "nn.linear.fwd",
        ("linear", true) => "nn.linear.bwd",
        ("embedding" | "conv1d_bank", _) => "nn.text",
        _ => return None,
    })
}

/// Self time per crate and per layer bucket, summed over the traced
/// operations.
#[derive(Debug, Default)]
pub struct Tally {
    ops: u64,
    op_ns: u64,
    crate_ns: BTreeMap<&'static str, u64>,
    bucket_ns: BTreeMap<&'static str, u64>,
    bucket_flops: BTreeMap<&'static str, u64>,
    span_ns: BTreeMap<String, u64>,
    arena: (u64, u64),
    kept: Vec<Event>,
}

impl Tally {
    /// Folds a batch of drained events into the tally.
    pub fn absorb(&mut self, events: Vec<Event>) {
        let mut by_thread: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
        for e in events.iter().filter(|e| e.is_span()) {
            by_thread.entry(e.tid).or_default().push(e);
        }
        for spans in by_thread.values_mut() {
            self.absorb_thread(spans);
        }
        let room = KEEP_EVENTS.saturating_sub(self.kept.len());
        self.kept.extend(events.into_iter().take(room));
    }

    fn absorb_thread(&mut self, spans: &mut [&Event]) {
        spans.sort_by_key(|e| (e.start_ns(), depth(e)));
        // Spans on one thread nest properly, so the enclosing span of
        // each is the nearest shallower span still open.
        let mut parent = vec![None; spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            while open.last().is_some_and(|&j| depth(spans[j]) >= depth(e)) {
                open.pop();
            }
            parent[i] = open.last().copied();
            open.push(i);
        }
        let mut bench_children_ns = vec![0u64; spans.len()];
        for (i, e) in spans.iter().enumerate() {
            if let (Some(_), Some(p)) = (bench_crate(e), parent[i]) {
                bench_children_ns[p] += dur(e);
            }
        }
        for (i, e) in spans.iter().enumerate() {
            if let Some(krate) = bench_crate(e) {
                let self_ns = dur(e).saturating_sub(bench_children_ns[i]);
                *self.crate_ns.entry(krate).or_default() += self_ns;
                *self.span_ns.entry(e.name.to_string()).or_default() += self_ns;
                if krate == "op" {
                    self.ops += 1;
                    self.op_ns += dur(e);
                }
            } else if e.cat == Category::Layer {
                let Some(p) = parent[i].map(|p| spans[p]) else { continue };
                if bench_crate(p).is_none() {
                    continue;
                }
                if let Some(bucket) = layer_bucket(&p.name, &e.name) {
                    *self.bucket_ns.entry(bucket).or_default() += dur(e);
                    *self.bucket_flops.entry(bucket).or_default() += flops(e);
                }
            }
        }
    }

    /// Share of traced operation time, percent.
    fn pct(&self, ns: u64) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.op_ns as f64
        }
    }

    fn bucket(&self, name: &str) -> u64 {
        self.bucket_ns.get(name).copied().unwrap_or(0)
    }

    /// Achieved GFLOP/s of a bucket (FLOPs per nanosecond).
    fn gflops(&self, name: &str) -> f64 {
        let ns = self.bucket(name);
        if ns == 0 {
            0.0
        } else {
            self.bucket_flops.get(name).copied().unwrap_or(0) as f64 / ns as f64
        }
    }

    /// Per-layer metric values derived from the tally.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        let krate = |c: &str| self.crate_ns.get(c).copied().unwrap_or(0);
        m.insert("bench_pct", self.pct(krate("op")));
        for (name, c) in [
            ("data_pct", "data"),
            ("nn_pct", "nn"),
            ("optim_pct", "optim"),
            ("adversarial_pct", "adversarial"),
            ("quant_pct", "quant"),
            ("serve_pct", "serve"),
            ("json_pct", "json"),
            ("fleet_pct", "fleet"),
        ] {
            m.insert(name, self.pct(krate(c)));
        }
        for (name, bucket) in [
            ("nn.conv2d.fwd_pct", "nn.conv2d.fwd"),
            ("nn.conv2d.bwd_pct", "nn.conv2d.bwd"),
            ("nn.linear.fwd_pct", "nn.linear.fwd"),
            ("nn.linear.bwd_pct", "nn.linear.bwd"),
            ("nn.text_pct", "nn.text"),
            ("quant.qconv2d_pct", "quant.qconv2d"),
            ("quant.qlinear_pct", "quant.qlinear"),
            ("quant.qtext_pct", "quant.qtext"),
            ("quant.fallback_pct", "quant.fallback"),
        ] {
            m.insert(name, self.pct(self.bucket(bucket)));
        }
        let nn_kinds: u64 =
            ["nn.conv2d.fwd", "nn.conv2d.bwd", "nn.linear.fwd", "nn.linear.bwd", "nn.text"]
                .iter()
                .map(|b| self.bucket(b))
                .sum();
        m.insert("nn.other_pct", self.pct(krate("nn").saturating_sub(nn_kinds)));
        m.insert("nn.conv2d.fwd_gflops", self.gflops("nn.conv2d.fwd"));
        m.insert("nn.linear.fwd_gflops", self.gflops("nn.linear.fwd"));
        let (hits, misses) = self.arena;
        let traffic = hits + misses;
        m.insert(
            "tensor.arena_hit_pct",
            if traffic == 0 { 0.0 } else { 100.0 * hits as f64 / traffic as f64 },
        );
        m
    }

    /// Layer-level report rows: mean self nanoseconds per operation of
    /// each bench span and layer bucket.
    pub fn records(&self, workload: &str) -> Vec<Record> {
        let per_op = |ns: u64| ns as f64 / self.ops.max(1) as f64;
        let spans = self.span_ns.iter().map(|(name, &ns)| (name.as_str(), ns, 0));
        let buckets = self
            .bucket_ns
            .iter()
            .map(|(&name, &ns)| (name, ns, self.bucket_flops.get(name).copied().unwrap_or(0)));
        spans
            .chain(buckets)
            .map(|(name, ns, flops)| Record {
                id: format!("{workload}/{name}"),
                level: Level::Layer,
                ns: per_op(ns),
                flops: flops / self.ops.max(1),
                bytes: 0,
            })
            .collect()
    }

    /// The kept events, for the trace file.
    pub fn into_events(self) -> Vec<Event> {
        self.kept
    }
}

fn depth(e: &Event) -> u32 {
    match e.kind {
        EventKind::Span { depth, .. } => depth,
        _ => 0,
    }
}

fn dur(e: &Event) -> u64 {
    e.end_ns() - e.start_ns()
}

fn flops(e: &Event) -> u64 {
    match e.kind {
        EventKind::Span { flops, .. } => flops,
        _ => 0,
    }
}

/// Tracing armed from [`Armed::arm`] (which clears old events and
/// samples the arena counters) until [`Armed::finish`].
pub struct Armed {
    arena: dlbench_tensor::arena::ArenaStats,
}

impl Armed {
    /// Arms the recorder.
    pub fn arm() -> Self {
        dlbench_trace::clear();
        dlbench_trace::configure(TraceConfig::on());
        Self { arena: dlbench_tensor::arena::stats() }
    }

    /// Disarms the recorder and folds the remaining events and the
    /// arena traffic since arming into `tally`.
    pub fn finish(self, tally: &mut Tally) {
        dlbench_trace::configure(TraceConfig::Off);
        tally.absorb(dlbench_trace::take_events());
        let now = dlbench_tensor::arena::stats();
        tally.arena.0 += now.hits - self.arena.hits;
        tally.arena.1 += now.misses - self.arena.misses;
    }
}

/// Runs one pass of `op` under tracing (see [`run_pass`]), each
/// operation inside an `op` span, draining and attributing events
/// between operations.
pub fn run_traced_pass(
    seconds: f64,
    first: usize,
    op: &mut dyn FnMut(usize) -> f64,
    tally: &mut Tally,
) -> Pass {
    let armed = Armed::arm();
    let pass = run_pass(
        seconds,
        first,
        &mut |i| {
            let _op = span("op");
            op(i)
        },
        &mut || tally.absorb(dlbench_trace::take_events()),
    );
    armed.finish(tally);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &'static str, cat: Category, start: u64, end: u64, depth: u32) -> Event {
        Event {
            name: Cow::Borrowed(name),
            cat,
            tid: 1,
            seq: 0,
            kind: EventKind::Span { start_ns: start, dur_ns: end - start, depth, flops: 10 },
        }
    }

    #[test]
    fn self_time_splits_an_op_across_crates() {
        let mut t = Tally::default();
        t.absorb(vec![
            ev("op", Category::Runner, 0, 100, 0),
            ev("data.batch", Category::Runner, 0, 10, 1),
            ev("nn.forward", Category::Runner, 10, 70, 1),
            ev("conv2d", Category::Layer, 10, 40, 2),
            ev("gemm", Category::Kernel, 12, 30, 3),
            ev("linear", Category::Layer, 40, 60, 2),
            ev("optim.step", Category::Runner, 70, 95, 1),
        ]);
        let m = t.metrics();
        assert_eq!(m["data_pct"], 10.0);
        assert_eq!(m["nn_pct"], 60.0);
        assert_eq!(m["optim_pct"], 25.0);
        assert_eq!(m["bench_pct"], 5.0);
        assert_eq!(m["nn.conv2d.fwd_pct"], 30.0);
        assert_eq!(m["nn.linear.fwd_pct"], 20.0);
        assert_eq!(m["nn.other_pct"], 10.0);
        assert_eq!(m["nn.conv2d.fwd_gflops"], 10.0 / 30.0);
        let total: f64 =
            ["bench_pct", "data_pct", "nn_pct", "optim_pct"].iter().map(|k| m[k]).sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn quant_layers_bucket_by_kind() {
        let mut t = Tally::default();
        t.absorb(vec![
            ev("op", Category::Runner, 0, 100, 0),
            ev("quant.forward", Category::Runner, 0, 100, 1),
            ev("qconv2d", Category::Layer, 0, 50, 2),
            ev("qconv2d", Category::Kernel, 1, 49, 3),
            ev("relu", Category::Layer, 50, 60, 2),
            ev("qlinear", Category::Layer, 60, 100, 2),
        ]);
        let m = t.metrics();
        assert_eq!(m["quant_pct"], 100.0);
        assert_eq!(m["quant.qconv2d_pct"], 50.0);
        assert_eq!(m["quant.fallback_pct"], 10.0);
        assert_eq!(m["quant.qlinear_pct"], 40.0);
    }
}
