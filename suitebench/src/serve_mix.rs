//! `serve-mix`: online serving over HTTP. An in-process server on
//! `127.0.0.1:0` hosts the TensorFlow, Caffe and Torch MNIST
//! own-default models in fp32 plus Caffe's in int8, at Small scale, each
//! behind its default micro-batcher. Requests rotate across the four
//! models; one operation is one request. Each pass starts a fresh
//! server, drives it open loop at a fixed rate for half the pass (the
//! latency), then saturates it for the other half (the goodput).

use crate::harness::{check_reference, percentile, Args, Checks, Outcome, Phase, Setup, PASSES};
use crate::layers::{Armed, Tally};
use crate::openloop::{drive, Load, Sent, Target};
use crate::{Measured, PassKind};
use dlbench_data::DatasetKind;
use dlbench_frameworks::{FrameworkKind, Scale};
use dlbench_serve::loadgen::{http_request, sample_inputs};
use dlbench_serve::{serve, BatchConfig, ModelDtype, ModelRegistry, ModelSpec, RunningServer};
use dlbench_tensor::Tensor;

const SCALE: Scale = Scale::Small;

const MODELS: [(&str, FrameworkKind, ModelDtype); 4] = [
    ("tf", FrameworkKind::TensorFlow, ModelDtype::Fp32),
    ("caffe", FrameworkKind::Caffe, ModelDtype::Fp32),
    ("torch", FrameworkKind::Torch, ModelDtype::Fp32),
    ("caffe-int8", FrameworkKind::Caffe, ModelDtype::Int8),
];

/// Offered load of the latency half, requests per second.
const RATE_RPS: f64 = 300.0;
/// A request counts toward goodput if it returns 200 within this.
const LIMIT_MS: f64 = 20.0;
/// Distinct inputs in the request pool.
const INPUTS: usize = 16;
/// Sequential requests sent before timing: two per model.
const WARMUP_REQUESTS: usize = 2 * MODELS.len();

/// The running server and what every reply must equal.
struct Served {
    server: RunningServer,
    names: Vec<String>,
    inputs: Vec<Vec<f32>>,
    /// `expected[model][input]`: a local single-sample forward.
    expected: Vec<Vec<Vec<f32>>>,
}

fn start(seed: u64) -> Result<Served, String> {
    let inputs = sample_inputs(DatasetKind::Mnist, SCALE, seed, INPUTS);
    let mut registry = ModelRegistry::new();
    let mut expected = Vec::new();
    for (name, host, dtype) in MODELS {
        let spec =
            ModelSpec::own_default(name, host, DatasetKind::Mnist, SCALE, seed).with_dtype(dtype);
        let served = spec.instantiate(None).map_err(|e| e.to_string())?;
        registry.register(served, BatchConfig::default()).map_err(|e| e.to_string())?;
        let mut local = spec.instantiate(None).map_err(|e| e.to_string())?;
        let (c, h, w) = spec.input_dims();
        let logits = inputs
            .iter()
            .map(|input| {
                let x = Tensor::from_vec(&[1, c, h, w], input.clone())
                    .expect("pool inputs fit the model");
                let x = local.preprocessing.apply(&x, &local.channel_means);
                local.model.forward(&x, false).data().to_vec()
            })
            .collect();
        expected.push(logits);
    }
    let server = serve(registry, "127.0.0.1:0").map_err(|e| format!("binding server: {e}"))?;
    let names = MODELS.iter().map(|(name, ..)| name.to_string()).collect();
    Ok(Served { server, names, inputs, expected })
}

impl Served {
    fn target(&self) -> Target<'_> {
        Target { addr: self.server.addr(), models: &self.names, inputs: &self.inputs }
    }

    /// Checks every reply; returns how many failed.
    fn check(&self, sent: &[Sent], checks: &mut Checks) -> u64 {
        let mut failed = 0;
        for s in sent {
            checks.check("serve-mix.status", s.status == Some(200), || {
                format!("request to {} returned {:?}", self.names[s.model], s.status)
            });
            if s.status != Some(200) {
                failed += 1;
                continue;
            }
            let want = &self.expected[s.model][s.input];
            let equal = s.logits.len() == want.len()
                && s.logits.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
            checks.check("serve-mix.logits", equal, || {
                format!(
                    "{} input {}: served {:?} != local {:?}",
                    self.names[s.model], s.input, s.logits, want
                )
            });
        }
        failed
    }

    /// Per-model `/metrics` summary: mean over models of queue-wait and
    /// forward p50 (ms), and the mean batch size over every batch.
    fn server_metrics(&self) -> Result<(f64, f64, f64), String> {
        let (status, body) =
            http_request(self.server.addr(), "GET", "/metrics", None).map_err(|e| e.to_string())?;
        let doc = dlbench_json::parse(&body).map_err(|e| format!("/metrics ({status}): {e}"))?;
        let (mut wait, mut forward, mut batched, mut batches) = (0.0, 0.0, 0.0, 0.0);
        for name in &self.names {
            let m = &doc[name.as_str()];
            wait += m["queue_wait_ms"]["p50"].as_f64().unwrap_or(0.0);
            forward += m["forward_ms"]["p50"].as_f64().unwrap_or(0.0);
            for row in m["batch_size_counts"].as_array().into_iter().flatten() {
                let (size, count) = (row["batch_size"].as_f64(), row["count"].as_f64());
                batched += size.unwrap_or(0.0) * count.unwrap_or(0.0);
                batches += count.unwrap_or(0.0);
            }
        }
        let n = self.names.len() as f64;
        Ok((wait / n, forward / n, batched / batches.max(1.0)))
    }
}

fn good(s: &Sent) -> bool {
    s.status == Some(200) && s.latency_ms <= LIMIT_MS
}

/// Open-loop requests as a [`Phase`]: the median latency from due time
/// over all of them (set by the batching deadline, so steady without
/// picking stretches), and the 200s within [`LIMIT_MS`] per wall
/// second.
fn phase(sent: &[Sent], wall_s: f64) -> Phase {
    let op_ms: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    let good = sent.iter().filter(|s| good(s)).count();
    Phase { time_ms: percentile(&op_ms, 50.0), op_ms, items_per_s: good as f64 / wall_s }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::new();
    let clients = crate::harness::nproc();
    let pass_s = args.seconds / PASSES as f64;
    let open = Load::Rate(RATE_RPS);
    // Open-loop requests and their wall time, by [`PassKind`].
    let mut phases: [(Vec<Sent>, f64); 3] = Default::default();
    let mut goodputs = Vec::new();
    let mut tally = Tally::default();
    let mut server_metrics = (0.0, 0.0, 0.0);
    for pass in 0..PASSES {
        setup.start();
        let served = start(args.seed)?;
        let warm_s = WARMUP_REQUESTS as f64 / RATE_RPS;
        let (warm, _) = drive(&served.target(), open, warm_s, 1);
        served.check(&warm, &mut out.checks);
        let bits: Vec<Vec<u32>> = served
            .expected
            .iter()
            .flatten()
            .map(|l| l.iter().map(|v| v.to_bits()).collect())
            .collect();
        setup.finish(bits, &mut out.checks);

        // An untraced run splits each pass between the open loop
        // (latency) and saturation (goodput); a traced run keeps to the
        // open loop.
        let kind = PassKind::of(args, pass);
        let open_s = if args.trace { pass_s } else { pass_s / 2.0 };
        kind.set_threads(args);
        let armed = (kind == PassKind::Traced).then(Armed::arm);
        let (sent, wall_s) = drive(&served.target(), open, open_s, clients);
        if let Some(armed) = armed {
            armed.finish(&mut tally);
            server_metrics = served.server_metrics()?;
        }
        PassKind::end_to_end(args).set_threads(args);
        out.failed += served.check(&sent, &mut out.checks);
        let phase = &mut phases[kind as usize];
        phase.0.extend(sent);
        phase.1 += wall_s;
        if !args.trace {
            let (saturated, wall_s) =
                drive(&served.target(), Load::Saturate, pass_s / 2.0, clients);
            out.failed += served.check(&saturated, &mut out.checks);
            out.attempted += saturated.len() as u64;
            goodputs.push(saturated.iter().filter(|s| good(s)).count() as f64 / wall_s);
        }
        if pass == 0 {
            for (m, (name, ..)) in MODELS.iter().enumerate() {
                let abs_sum: f64 =
                    served.expected[m].iter().flatten().map(|v| f64::from(v.abs())).sum();
                out.reference.push((format!("abs_logits.{name}"), abs_sum));
            }
        }
    }
    let end_to_end = PassKind::end_to_end(args);
    let [serial, nproc, (traced, traced_wall_s)] = &phases;
    let mut measured = Measured {
        untraced: [serial, nproc]
            .map(|(sent, wall_s)| (!sent.is_empty()).then(|| phase(sent, *wall_s))),
        end_to_end,
        traced: args.trace.then(|| (phase(traced, *traced_wall_s), tally)),
    };
    match &mut measured.untraced[end_to_end as usize] {
        // Goodput at saturation in the best pass, as closed-loop
        // workloads take their fastest stretch.
        Some(e2e) if !args.trace => e2e.items_per_s = goodputs.into_iter().fold(0.0, f64::max),
        _ => {}
    }
    measured.report("serve-mix", setup.times_s(), &mut out)?;
    if args.trace {
        let client_p50 = out.metrics["op_ms"];
        let (wait, forward, batch_mean) = server_metrics;
        out.metrics.insert("serve.queue_wait_pct", 100.0 * wait / client_p50);
        out.metrics.insert("serve.forward_pct", 100.0 * forward / client_p50);
        out.metrics.insert("serve.batch_mean", batch_mean);
        let lag_ms: Vec<f64> = phases[end_to_end as usize].0.iter().map(|s| s.lag_ms).collect();
        let interval_ms = 1e3 / RATE_RPS;
        out.metrics.insert("loadgen.lag_p99_pct", 100.0 * percentile(&lag_ms, 99.0) / interval_ms);
    }
    check_reference(&mut out.checks, "serve-mix", args.seed, &out.reference);
    Ok(out)
}
