//! Cross-crate tracing integration: spans recorded inside the parallel
//! execution layer's ephemeral worker threads must survive into the
//! merged event stream, and a traced training run must produce the
//! nested structure the profiler and Chrome exporter rely on.

use dlbench_nn::{Conv2d, Flatten, Initializer, Layer, Linear, Network, Relu};
use dlbench_tensor::{par, SeededRng, Tensor};
use dlbench_trace::{Category, EventKind, TraceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Serializes tests that mutate the global tracer and worker count.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms the tracer for one test and disarms it on every exit path.
struct Armed;

impl Armed {
    fn new() -> Self {
        dlbench_trace::configure(TraceConfig::on());
        dlbench_trace::clear();
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        dlbench_trace::configure(TraceConfig::Off);
        dlbench_trace::clear();
    }
}

#[test]
fn conv_worker_thread_spans_merge_into_one_stream() {
    let _gate = gate();
    let _armed = Armed::new();
    // Geometry from the determinism gate: the per-sample backward work
    // clears par::PAR_MIN_WORK, so at 4 threads the 8 samples really
    // land on ephemeral worker threads. (The fused forward records one
    // caller-thread span; the fused backward records a conv_bwd_data
    // and a conv_bwd_filter span per sample inside the workers.)
    let (n, c, hw, oc, k) = (8, 8, 32, 16, 3);
    assert!(oc * (c * k * k) * (hw * hw) >= par::PAR_MIN_WORK);
    let mut rng = SeededRng::new(0x7AC3);
    let mut conv = Conv2d::new(c, oc, k, 1, 1, Initializer::Xavier, &mut rng);
    let x = Tensor::randn(&[n, c, hw, hw], 0.0, 1.0, &mut rng);
    par::set_threads(4);
    let y = conv.forward(&x, true);
    let g = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
    let _gx = conv.backward(&g);
    par::set_threads(1);

    let events = dlbench_trace::take_events();
    let backward_tids: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.cat == Category::Kernel && e.is_span() && e.name.starts_with("conv_bwd_"))
        .map(|e| e.tid)
        .collect();
    // The per-sample conv kernels run on scoped worker threads that
    // exit as soon as the backward returns; their ring buffers must
    // have been retired into the shared registry, not lost.
    assert!(
        backward_tids.len() >= 2,
        "expected backward kernel spans from several worker threads, got tids {backward_tids:?}"
    );
    for kernel in ["conv_bwd_data", "conv_bwd_filter"] {
        let flops: Vec<u64> = events
            .iter()
            .filter(|e| e.name == kernel)
            .filter_map(|e| match e.kind {
                EventKind::Span { flops, .. } => Some(flops),
                _ => None,
            })
            .collect();
        assert!(flops.len() >= n, "expected a {kernel} span per sample, got {}", flops.len());
        assert!(flops.iter().all(|&f| f > 0), "a {kernel} span carries no FLOPs");
    }
    // The merged stream is seq-sorted regardless of which thread
    // recorded each event.
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "merged events out of order");
}

/// Kernel spans per name that `pass` records on `net`, after a
/// training forward on `x`.
fn kernel_counts(
    net: &mut Network,
    x: &Tensor,
    pass: impl FnOnce(&mut Network),
) -> BTreeMap<String, usize> {
    net.forward(x, true);
    dlbench_trace::take_events();
    pass(net);
    let mut counts = BTreeMap::new();
    for e in dlbench_trace::take_events() {
        if e.cat == Category::Kernel && e.is_span() {
            *counts.entry(e.name.to_string()).or_default() += 1;
        }
    }
    counts
}

#[test]
fn backward_halves_run_only_the_kernels_their_callers_read() {
    let _gate = gate();
    let _armed = Armed::new();
    let n = 3;
    let mut rng = SeededRng::new(0x5B17);
    let mut net = Network::new("traced-halves");
    net.push(Conv2d::new(1, 4, 3, 1, 1, Initializer::Xavier, &mut rng));
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(Linear::new(4 * 6 * 6, 5, Initializer::Xavier, &mut rng));
    let x = Tensor::randn(&[n, 1, 6, 6], 0.0, 1.0, &mut rng);
    let g = Tensor::randn(&[n, 5], 0.0, 1.0, &mut rng);

    // Training reads no network-input gradient: the first conv runs its
    // filter kernel per sample and no data kernel; the Linear runs both
    // of its GEMMs, since the conv needs its input gradient.
    let train = kernel_counts(&mut net, &x, |net| net.backward(&g));
    assert_eq!(train.get("conv_bwd_data"), None, "{train:?}");
    assert_eq!(train.get("conv_bwd_filter"), Some(&n), "{train:?}");
    assert_eq!(train.get("gemm_at_b"), Some(&1), "{train:?}");
    assert_eq!(train.get("gemm"), Some(&1), "{train:?}");

    // An attack reads no parameter gradient: no filter kernel and no
    // weight-gradient GEMM, only the data kernels.
    let attack = kernel_counts(&mut net, &x, |net| {
        net.input_grad(0, &g);
    });
    assert_eq!(attack.get("conv_bwd_filter"), None, "{attack:?}");
    assert_eq!(attack.get("gemm_at_b"), None, "{attack:?}");
    assert_eq!(attack.get("conv_bwd_data"), Some(&n), "{attack:?}");
    assert_eq!(attack.get("gemm"), Some(&1), "{attack:?}");
}

#[test]
fn traced_training_run_nests_train_over_layers_over_kernels() {
    let _gate = gate();
    let _armed = Armed::new();
    use dlbench_data::DatasetKind;
    use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};

    let host = FrameworkKind::Torch;
    let _ = trainer::run_training(
        host,
        DefaultSetting::new(host, DatasetKind::Mnist),
        DatasetKind::Mnist,
        Scale::Tiny,
        7,
    );
    let events = dlbench_trace::take_events();

    // Each category of the instrumentation stack shows up.
    for cat in [Category::Train, Category::Layer, Category::Kernel] {
        assert!(
            events.iter().any(|e| e.cat == cat && e.is_span()),
            "no {} span in traced training run",
            cat.as_str()
        );
    }
    // Single-threaded run: every layer span must sit inside an
    // iteration or evaluate span, every kernel span inside a layer span
    // — checked by interval containment on the one real thread.
    let spans: Vec<_> = events.iter().filter(|e| e.is_span()).collect();
    let contained_in = |inner: &dlbench_trace::Event, cat: Category| {
        spans.iter().any(|outer| {
            outer.cat == cat
                && outer.tid == inner.tid
                && outer.start_ns() <= inner.start_ns()
                && inner.end_ns() <= outer.end_ns()
        })
    };
    for span in &spans {
        match span.cat {
            Category::Layer => assert!(
                contained_in(span, Category::Train),
                "layer span `{}` outside any train span",
                span.name
            ),
            Category::Kernel => assert!(
                contained_in(span, Category::Layer),
                "kernel span `{}` outside any layer span",
                span.name
            ),
            _ => {}
        }
    }
    // Epoch boundaries were traced: epochs partition the iterations.
    let epochs = spans.iter().filter(|e| e.name == "epoch").count();
    let iterations = spans.iter().filter(|e| e.name == "iteration").count();
    assert!(epochs >= 1, "no epoch spans");
    assert!(iterations >= epochs, "fewer iterations ({iterations}) than epochs ({epochs})");
    // Layer spans carry the simtime FLOP estimate the profiler joins
    // with measured time.
    assert!(
        spans.iter().any(|e| {
            e.cat == Category::Layer && matches!(e.kind, EventKind::Span { flops, .. } if flops > 0)
        }),
        "no layer span carries a FLOP estimate"
    );
}

#[test]
fn traced_fleet_sweep_builds_one_service_table_for_all_cells() {
    let _gate = gate();
    let _armed = Armed::new();
    use dlbench_fleet::{fleet_sweep_doc, RoutingPolicy, SimFleetConfig};

    let base = SimFleetConfig::new(0.0, 200);
    let doc =
        fleet_sweep_doc(&base, &[500.0, 50_000.0], &[RoutingPolicy::LeastQueue], &[false, true]);
    assert_eq!(doc["rows"].as_array().map(<[_]>::len), Some(4));
    let events = dlbench_trace::take_events();
    let count = |name: &str| {
        events.iter().filter(|e| e.cat == Category::Fleet && e.is_span() && e.name == name).count()
    };
    assert_eq!(count("sim_service_table"), 1, "one service-time table per sweep");
    assert_eq!(count("sim_cell"), 4, "one span per simulated cell");
}
