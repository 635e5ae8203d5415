//! The span recorder: per-thread ring buffers behind a global
//! registry, armed and disarmed at runtime.
//!
//! Fast path: every instrumentation site starts with a relaxed load of
//! one global `AtomicBool`. When tracing is off ([`TraceConfig::Off`],
//! the default) that load and a branch are the entire cost — no locks,
//! no clock reads, no allocation — so instrumented kernels stay within
//! noise of uninstrumented ones. `benches/trace.rs` times both modes
//! side by side; no gate checks that claim.
//!
//! When armed, each recording thread lazily registers a shard — a
//! bounded ring buffer (oldest events drop first) wrapped in its own
//! mutex, so recording threads never contend with each other. A
//! thread-local drop guard retires the shard's events into a global
//! completed buffer when the thread exits; the scoped worker threads
//! `dlbench_tensor::par` spawns per call are exactly this short-lived,
//! and their events must outlive them.

use crate::clock::monotonic_ns;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Runtime tracing configuration — a switch, not a cargo feature, so
/// one binary serves both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceConfig {
    /// Recording disarmed (the default). Instrumentation sites cost
    /// one relaxed atomic load.
    Off,
    /// Recording armed with the given per-thread ring capacity.
    On {
        /// Maximum events each thread's ring holds before the oldest
        /// drop (counted by [`dropped_events`]).
        per_thread_capacity: usize,
    },
}

impl TraceConfig {
    /// Default per-thread ring capacity (events).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Recording armed at the default capacity.
    pub fn on() -> Self {
        TraceConfig::On { per_thread_capacity: Self::DEFAULT_CAPACITY }
    }
}

/// What subsystem a span belongs to. Ordered roughly outermost-first,
/// which is also how profile reports group rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// `BenchmarkRunner` cell lifecycle.
    Runner,
    /// Trainer epoch / iteration / evaluation boundaries.
    Train,
    /// `dlbench-dist` collective operations (allreduce, shard_wait,
    /// broadcast, ring hops).
    Dist,
    /// `dlbench-nn` layer forward/backward.
    Layer,
    /// `dlbench_tensor` compute kernels (gemm, im2col, maxpool, …).
    Kernel,
    /// `dlbench-serve` request path.
    Serve,
    /// `dlbench-fleet` replica fleet: routing, scaling, promotion.
    Fleet,
}

impl Category {
    /// Stable lowercase label used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Runner => "runner",
            Category::Train => "train",
            Category::Dist => "dist",
            Category::Layer => "layer",
            Category::Kernel => "kernel",
            Category::Serve => "serve",
            Category::Fleet => "fleet",
        }
    }
}

/// Payload of one recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A nested RAII span recorded on the thread that ran it.
    Span {
        /// Start, nanoseconds since the trace epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Nesting depth on the recording thread (0 = outermost).
        depth: u32,
        /// Estimated floating-point operations performed inside the
        /// span (0 when unknown); joined against `dlbench-simtime`
        /// cost estimates by [`crate::ProfileReport`].
        flops: u64,
    },
    /// A detached measured interval (e.g. a request's queue wait)
    /// whose start predates the recording site; exported as a Chrome
    /// async event so it never breaks same-track span nesting.
    Interval {
        /// Start, nanoseconds since the trace epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A sampled counter value (e.g. queue depth).
    Counter {
        /// Sample time, nanoseconds since the trace epoch.
        at_ns: u64,
        /// Sampled value.
        value: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (span/counter label).
    pub name: Cow<'static, str>,
    /// Subsystem category.
    pub cat: Category,
    /// Small sequential id of the recording thread (1-based; assigned
    /// in registration order, stable for the thread's lifetime).
    pub tid: u64,
    /// Global record sequence number — a total order over all events
    /// from all threads, assigned when the event is recorded.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// Start timestamp (sample time for counters).
    pub fn start_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { start_ns, .. } | EventKind::Interval { start_ns, .. } => start_ns,
            EventKind::Counter { at_ns, .. } => at_ns,
        }
    }

    /// End timestamp (== start for counters).
    pub fn end_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { start_ns, dur_ns, .. } | EventKind::Interval { start_ns, dur_ns } => {
                start_ns + dur_ns
            }
            EventKind::Counter { at_ns, .. } => at_ns,
        }
    }

    /// Whether this is a nested RAII span (not an interval/counter).
    pub fn is_span(&self) -> bool {
        matches!(self.kind, EventKind::Span { .. })
    }
}

// --- global state -----------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(TraceConfig::DEFAULT_CAPACITY);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

/// Retired events are capped at this multiple of the per-thread
/// capacity so a long armed run with churning worker threads cannot
/// grow without bound.
const RETIRED_CAP_FACTOR: usize = 4;

#[derive(Default)]
struct Registry {
    live: Vec<Arc<Mutex<Shard>>>,
    retired: VecDeque<Event>,
    dropped: u64,
}

struct Shard {
    events: VecDeque<Event>,
    dropped: u64,
}

impl Shard {
    fn push(&mut self, event: Event, cap: usize) {
        if self.events.len() >= cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct LocalCtx {
    shard: Arc<Mutex<Shard>>,
    tid: u64,
}

impl LocalCtx {
    fn register() -> Self {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let shard = Arc::new(Mutex::new(Shard { events: VecDeque::new(), dropped: 0 }));
        registry().live.push(Arc::clone(&shard));
        Self { shard, tid }
    }
}

impl Drop for LocalCtx {
    // Retire this thread's events into the global completed buffer so
    // short-lived scoped workers lose nothing.
    fn drop(&mut self) {
        let mut reg = registry();
        {
            let mut shard = self.shard.lock().unwrap_or_else(|e| e.into_inner());
            reg.dropped += shard.dropped;
            let events: Vec<Event> = shard.events.drain(..).collect();
            reg.retired.extend(events);
        }
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.shard));
        let cap = CAPACITY.load(Ordering::Relaxed).saturating_mul(RETIRED_CAP_FACTOR).max(1);
        while reg.retired.len() > cap {
            reg.retired.pop_front();
            reg.dropped += 1;
        }
    }
}

thread_local! {
    static LOCAL: LocalCtx = LocalCtx::register();
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn push_event(name: Cow<'static, str>, cat: Category, kind: EventKind) {
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let cap = CAPACITY.load(Ordering::Relaxed).max(1);
    // try_with: during thread teardown the TLS slot may already be
    // gone; the event is lost, never a panic.
    let _ = LOCAL.try_with(|ctx| {
        let event = Event { name, cat, tid: ctx.tid, seq, kind };
        ctx.shard.lock().unwrap_or_else(|e| e.into_inner()).push(event, cap);
    });
}

// --- public API -------------------------------------------------------

/// Arms or disarms recording. Arming does not clear previously
/// recorded events (use [`clear`]); disarming leaves them readable via
/// [`take_events`].
pub fn configure(config: TraceConfig) {
    match config {
        TraceConfig::Off => ENABLED.store(false, Ordering::SeqCst),
        TraceConfig::On { per_thread_capacity } => {
            CAPACITY.store(per_thread_capacity.max(1), Ordering::SeqCst);
            ENABLED.store(true, Ordering::SeqCst);
        }
    }
}

/// Whether recording is armed. This is the fast-path check every
/// instrumentation site performs (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether recording is armed (alias of [`enabled`] reading as a
/// configuration query at call sites).
#[inline]
pub fn is_configured_on() -> bool {
    enabled()
}

/// Opens a RAII span with a static name. Inert (and near-free) when
/// tracing is off. The event is recorded when the guard drops.
#[inline]
pub fn span(cat: Category, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::begin(Cow::Borrowed(name), cat, 0)
}

/// Opens a RAII span carrying a FLOP estimate for the work inside it.
#[inline]
pub fn span_flops(cat: Category, name: &'static str, flops: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::begin(Cow::Borrowed(name), cat, flops)
}

/// Opens a RAII span with a runtime-built name. The name is only
/// materialized by the caller, so gate `format!` on [`enabled`].
pub fn span_owned(cat: Category, name: String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::begin(Cow::Owned(name), cat, 0)
}

/// Owned-name variant of [`span_flops`].
pub fn span_owned_flops(cat: Category, name: String, flops: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::begin(Cow::Owned(name), cat, flops)
}

/// Records a detached measured interval whose start lies in the past
/// (e.g. a request's queue wait, measured from its enqueue timestamp).
/// Exported as a Chrome async event so it cannot break the recording
/// thread's span nesting.
pub fn record_span(cat: Category, name: &'static str, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let dur_ns = end_ns.saturating_sub(start_ns);
    push_event(Cow::Borrowed(name), cat, EventKind::Interval { start_ns, dur_ns });
}

/// Records a monotonic counter sample (e.g. queue depth).
pub fn counter(cat: Category, name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    push_event(Cow::Borrowed(name), cat, EventKind::Counter { at_ns: monotonic_ns(), value });
}

/// RAII span guard: records one complete event when dropped. Inert
/// when created while tracing was off.
#[must_use = "a span measures the scope it is bound to; bind it with `let _span = …`"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: Cow<'static, str>,
    cat: Category,
    start_ns: u64,
    depth: u32,
    flops: u64,
}

impl SpanGuard {
    fn begin(name: Cow<'static, str>, cat: Category, flops: u64) -> Self {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Self { active: Some(ActiveSpan { name, cat, start_ns: monotonic_ns(), depth, flops }) }
    }

    /// Attaches (or replaces) the span's FLOP estimate after creation,
    /// for sites that only learn the work size mid-span.
    pub fn set_flops(&mut self, flops: u64) {
        if let Some(a) = &mut self.active {
            a.flops = flops;
        }
    }

    /// Whether this guard will record an event on drop.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let end_ns = monotonic_ns();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        // Recorded even if tracing was disarmed mid-span: the guard
        // was armed at creation, and keeping it balances depth
        // bookkeeping and loses no measured work.
        push_event(
            a.name,
            a.cat,
            EventKind::Span {
                start_ns: a.start_ns,
                dur_ns: end_ns.saturating_sub(a.start_ns),
                depth: a.depth,
                flops: a.flops,
            },
        );
    }
}

/// Drains every recorded event — live shards and retired buffers —
/// sorted by the global record sequence. Events recorded concurrently
/// with the drain may land in the next drain.
pub fn take_events() -> Vec<Event> {
    let mut reg = registry();
    let mut out: Vec<Event> = reg.retired.drain(..).collect();
    let live: Vec<Arc<Mutex<Shard>>> = reg.live.iter().map(Arc::clone).collect();
    drop(reg);
    for shard in live {
        let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(shard.events.drain(..));
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Discards all recorded events and resets the ring-overflow counter.
pub fn clear() {
    let mut reg = registry();
    reg.retired.clear();
    reg.dropped = 0;
    let live: Vec<Arc<Mutex<Shard>>> = reg.live.iter().map(Arc::clone).collect();
    drop(reg);
    for shard in live {
        let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
        shard.events.clear();
        shard.dropped = 0;
    }
}

/// Events lost to ring-buffer overflow since the last [`clear`]. A
/// non-zero value means the per-thread capacity was too small for the
/// traced run.
pub fn dropped_events() -> u64 {
    let reg = registry();
    let mut total = reg.dropped;
    let live: Vec<Arc<Mutex<Shard>>> = reg.live.iter().map(Arc::clone).collect();
    drop(reg);
    for shard in live {
        total += shard.lock().unwrap_or_else(|e| e.into_inner()).dropped;
    }
    total
}
