//! Load generation against a running server: a hand-rolled HTTP/1.1
//! client, closed-loop (fixed concurrency, next request on reply) and
//! open-loop (fixed arrival rate, independent of replies) drivers,
//! [`serve_and_drive`] (one model on an ephemeral port, driven and shut
//! down), and the batch-deadline sweep behind `BENCH_serve.json`.

use crate::batcher::BatchConfig;
use crate::metrics::Histogram;
use crate::model::{ModelDtype, ModelRegistry, ModelSpec};
use crate::ServeError;
use dlbench_data::DatasetKind;
use dlbench_frameworks::{trainer, FrameworkKind, Scale};
use dlbench_json::JsonValue;
use dlbench_trace::Stopwatch;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Fixed concurrency: each of `concurrency` virtual clients fires
    /// its next request the moment the previous reply lands.
    Closed {
        /// Number of concurrent virtual clients.
        concurrency: usize,
    },
    /// Fixed arrival rate (requests per second), independent of reply
    /// latency — the mode that actually exposes queueing collapse.
    Open {
        /// Target arrival rate in requests per second.
        rate_rps: f64,
    },
}

/// One load-generation run's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Pacing mode.
    pub mode: LoadMode,
    /// Total requests to send.
    pub requests: usize,
}

/// Client-side view of one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: usize,
    /// `200` replies.
    pub ok: usize,
    /// `503` replies (load shed by the server).
    pub shed: usize,
    /// Transport failures and non-200/503 statuses.
    pub errors: usize,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
    /// Completed requests per second of wall-clock.
    pub achieved_rps: f64,
    /// Client-observed latency of `200` replies, milliseconds.
    pub latency_ms: Histogram,
    /// Sum of the batch sizes the `200` replies report riding in.
    pub batch_size_sum: usize,
}

impl LoadReport {
    /// Fraction of sent requests the server shed with `503`.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 / self.sent as f64
        }
    }

    /// Mean batch size of the `200` replies, weighted by request (a
    /// batch of 8 counts 8 times); `None` when nothing succeeded.
    pub fn batch_mean(&self) -> Option<f64> {
        (self.ok > 0).then(|| self.batch_size_sum as f64 / self.ok as f64)
    }

    /// JSON row for reports and the `loadgen --sweep` rows.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("sent".into(), self.sent.into()),
            ("ok".into(), self.ok.into()),
            ("shed".into(), self.shed.into()),
            ("shed_rate".into(), self.shed_rate().into()),
            ("errors".into(), self.errors.into()),
            ("wall_s".into(), self.wall_s.into()),
            ("achieved_rps".into(), self.achieved_rps.into()),
            ("latency_ms".into(), self.latency_json()),
        ])
    }

    /// The latency summary as JSON; `null` when nothing succeeded.
    fn latency_json(&self) -> JsonValue {
        match self.latency_ms.summary() {
            Some(s) => dlbench_json::ToJson::to_json(&s),
            None => JsonValue::Null,
        }
    }
}

/// One raw HTTP exchange: sends `method path` with an optional JSON
/// body over a fresh connection and returns `(status, body)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), ServeError> {
    let io = |e: std::io::Error| ServeError::Io(e.to_string());
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(io)?;
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(payload.as_bytes()).map_err(io)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io)?;
    let status_line = response.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ServeError::Io(format!("bad status line {status_line:?}")))?;
    let body = match response.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// Sends one predict request; returns `(status, parsed body)`.
pub fn predict(
    addr: SocketAddr,
    model: &str,
    input: &[f32],
) -> Result<(u16, JsonValue), ServeError> {
    let body = encode_input(input);
    let (status, text) = http_request(addr, "POST", &format!("/predict/{model}"), Some(&body))?;
    let value = dlbench_json::parse(&text)
        .map_err(|e| ServeError::Io(format!("unparsable response body: {e}")))?;
    Ok((status, value))
}

/// Encodes an input sample as the JSON array the predict endpoint
/// expects.
pub fn encode_input(input: &[f32]) -> String {
    let values: Vec<JsonValue> = input.iter().map(|&v| JsonValue::from(v)).collect();
    JsonValue::Array(values).pretty()
}

struct Tally {
    ok: usize,
    shed: usize,
    errors: usize,
    latency_ms: Histogram,
    batch_size_sum: usize,
}

impl Tally {
    fn new() -> Self {
        Self { ok: 0, shed: 0, errors: 0, latency_ms: Histogram::new(), batch_size_sum: 0 }
    }

    fn observe(&mut self, outcome: Result<(u16, JsonValue), ServeError>, elapsed: Duration) {
        match outcome {
            Ok((200, reply)) => {
                self.ok += 1;
                self.latency_ms.record(elapsed.as_secs_f64() * 1e3);
                let batch_size = reply["batch_size"].as_f64().unwrap_or(0.0) as usize;
                self.batch_size_sum = self.batch_size_sum.saturating_add(batch_size);
            }
            Ok((503, _)) => self.shed += 1,
            _ => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.latency_ms.merge(&other.latency_ms);
        self.batch_size_sum = self.batch_size_sum.saturating_add(other.batch_size_sum);
    }
}

/// Drives `config.requests` predict calls against `addr`, cycling
/// through `inputs` round-robin.
pub fn run(addr: SocketAddr, model: &str, inputs: &[Vec<f32>], config: &LoadConfig) -> LoadReport {
    assert!(!inputs.is_empty(), "loadgen needs at least one input sample");
    let started = Stopwatch::start();
    let results: Mutex<Tally> = Mutex::new(Tally::new());
    match config.mode {
        LoadMode::Closed { concurrency } => {
            let next = AtomicUsize::new(0);
            let workers = concurrency.max(1);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut local = Tally::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            if i >= config.requests {
                                break;
                            }
                            let input = &inputs[i % inputs.len()];
                            let t0 = Stopwatch::start();
                            let outcome = predict(addr, model, input);
                            local.observe(outcome, t0.elapsed());
                        }
                        merge_tallies(&results, local);
                    });
                }
            });
        }
        LoadMode::Open { rate_rps } => {
            let interval = Duration::from_secs_f64(1.0 / rate_rps.max(1e-6));
            std::thread::scope(|scope| {
                for i in 0..config.requests {
                    let due_ns = interval.as_nanos() as u64 * i as u64;
                    let wait_ns = due_ns.saturating_sub(started.elapsed_ns());
                    if wait_ns > 0 {
                        std::thread::sleep(Duration::from_nanos(wait_ns));
                    }
                    let input = &inputs[i % inputs.len()];
                    let results = &results;
                    scope.spawn(move || {
                        let mut local = Tally::new();
                        let t0 = Stopwatch::start();
                        let outcome = predict(addr, model, input);
                        local.observe(outcome, t0.elapsed());
                        merge_tallies(results, local);
                    });
                }
            });
        }
    }
    let wall_s = started.elapsed_s().max(1e-9);
    let tally = results.into_inner().unwrap_or_else(|e| e.into_inner());
    LoadReport {
        sent: config.requests,
        ok: tally.ok,
        shed: tally.shed,
        errors: tally.errors,
        wall_s,
        achieved_rps: tally.ok as f64 / wall_s,
        latency_ms: tally.latency_ms,
        batch_size_sum: tally.batch_size_sum,
    }
}

fn merge_tallies(results: &Mutex<Tally>, local: Tally) {
    let mut guard = results.lock().unwrap_or_else(|e| e.into_inner());
    guard.merge(local);
}

/// Test-set input samples for a dataset at a scale, flattened to the
/// predict wire format.
pub fn sample_inputs(dataset: DatasetKind, scale: Scale, seed: u64, count: usize) -> Vec<Vec<f32>> {
    let (_, test) = trainer::generate_data(dataset, scale, seed);
    let n = test.len().min(count.max(1));
    let idx: Vec<usize> = (0..n).collect();
    let (images, _) = test.gather(&idx);
    let sample_len = images.data().len() / n;
    images.data().chunks(sample_len).map(<[f32]>::to_vec).collect()
}

/// Serves `spec`'s model alone on an ephemeral port, drives it with
/// `load` (cycling through `inputs`) and shuts the server down. Returns
/// the load report and, for int8 models only, the calibration stats.
pub fn serve_and_drive(
    spec: &ModelSpec,
    batch: BatchConfig,
    inputs: &[Vec<f32>],
    load: &LoadConfig,
) -> Result<(LoadReport, Option<JsonValue>), String> {
    let served = spec.instantiate(None).map_err(|e| e.to_string())?;
    let calibration =
        (spec.dtype == ModelDtype::Int8).then(|| dlbench_quant::calibration_json(&served.model));
    let mut registry = ModelRegistry::new();
    registry.register(served, batch).map_err(|e| e.to_string())?;
    let server = crate::http::serve(registry, "127.0.0.1:0")
        .map_err(|e| format!("cannot bind an ephemeral port: {e}"))?;
    let report = run(server.addr(), &spec.name, inputs, load);
    server.shutdown();
    Ok((report, calibration))
}

/// Sweeps batch deadlines across the three framework personalities,
/// producing the rows behind `BENCH_serve.json`: throughput and tail
/// latency as a function of the micro-batcher's max-wait deadline.
///
/// Each row drives a fresh server twice with the same request count:
/// open loop at `rate_rps` (the row's plain fields), where one model's
/// requests rarely overlap and the batcher flushes each at once, then
/// closed loop at `2 × max_batch` clients (the `closed_*` fields), which
/// keeps the batcher backlogged so the deadline builds batches;
/// `closed_batch_mean` is the request-weighted mean batch size there.
pub fn sweep_personalities(
    scale: Scale,
    seed: u64,
    deadlines_ms: &[u64],
    requests: usize,
    rate_rps: f64,
    max_batch: usize,
) -> JsonValue {
    let dataset = DatasetKind::Mnist;
    let inputs = sample_inputs(dataset, scale, seed, 16);
    let mut rows = Vec::new();
    for fw in FrameworkKind::ALL {
        for &deadline_ms in deadlines_ms {
            let spec = ModelSpec::own_default("sweep", fw, dataset, scale, seed);
            let config = BatchConfig {
                max_batch,
                max_wait: Duration::from_millis(deadline_ms),
                ..BatchConfig::default()
            };
            let drive = |mode| {
                let load = LoadConfig { mode, requests };
                let (report, _) = serve_and_drive(&spec, config, &inputs, &load)
                    .unwrap_or_else(|e| panic!("serve sweep row: {e}"));
                report
            };
            let open = drive(LoadMode::Open { rate_rps });
            let concurrency = 2 * max_batch;
            let closed = drive(LoadMode::Closed { concurrency });
            let mut row = vec![
                ("framework".to_string(), JsonValue::from(fw.name())),
                ("batch_deadline_ms".to_string(), JsonValue::from(deadline_ms as usize)),
                ("max_batch".to_string(), JsonValue::from(max_batch)),
                ("offered_rps".to_string(), JsonValue::from(rate_rps)),
            ];
            if let JsonValue::Object(fields) = open.to_json() {
                row.extend(fields);
            }
            row.extend([
                ("closed_concurrency".to_string(), JsonValue::from(concurrency)),
                ("closed_achieved_rps".to_string(), JsonValue::from(closed.achieved_rps)),
                (
                    "closed_batch_mean".to_string(),
                    closed.batch_mean().map_or(JsonValue::Null, JsonValue::from),
                ),
                ("closed_latency_ms".to_string(), closed.latency_json()),
            ]);
            rows.push(JsonValue::Object(row));
        }
    }
    JsonValue::Object(vec![
        ("scale".to_string(), format!("{scale:?}").into()),
        ("seed".to_string(), (seed as usize).into()),
        ("rows".to_string(), JsonValue::Array(rows)),
    ])
}
