//! End-to-end smoke test of the serving stack: a real server on an
//! ephemeral port, concurrent predict requests, a `/metrics` scrape,
//! and a graceful shutdown that answers every in-flight request.

use dlbench_data::DatasetKind;
use dlbench_frameworks::{FrameworkKind, Scale};
use dlbench_json::JsonValue;
use dlbench_serve::{loadgen, serve, BatchConfig, ModelRegistry, ModelSpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SEED: u64 = 42;

fn registry_with(name: &str, host: FrameworkKind, config: BatchConfig) -> ModelRegistry {
    let spec = ModelSpec::own_default(name, host, DatasetKind::Mnist, Scale::Tiny, SEED);
    let served = spec.instantiate(None).expect("fresh model");
    let mut registry = ModelRegistry::new();
    registry.register(served, config).expect("fresh name");
    registry
}

fn tiny_inputs(count: usize) -> Vec<Vec<f32>> {
    loadgen::sample_inputs(DatasetKind::Mnist, Scale::Tiny, SEED, count)
}

#[test]
fn serves_concurrent_predicts_and_metrics_then_drains() {
    let registry = registry_with("mnist", FrameworkKind::TensorFlow, BatchConfig::default());
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.addr();
    let inputs = tiny_inputs(8);

    // Concurrent predict requests from independent client threads.
    let replies: Vec<(u16, JsonValue)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| scope.spawn(move || loadgen::predict(addr, "mnist", input).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(replies.len(), 8);
    for (status, body) in &replies {
        assert_eq!(*status, 200, "predict failed: {}", body.pretty());
        let class = body["class"].as_f64().unwrap();
        assert!((0.0..10.0).contains(&class));
        assert_eq!(body["logits"].as_array().unwrap().len(), 10);
    }

    // Health and metrics endpoints.
    let (status, health) = loadgen::http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let health = dlbench_json::parse(&health).unwrap();
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["models"].as_array().unwrap().len(), 1);

    let (status, metrics) = loadgen::http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let metrics = dlbench_json::parse(&metrics).unwrap();
    let model = &metrics["mnist"];
    assert_eq!(model["completed"], 8.0);
    assert_eq!(model["shed"], 0.0);
    for p in ["p50", "p95", "p99"] {
        assert!(model["latency_ms"][p].as_f64().unwrap() >= 0.0);
    }

    // Graceful drain: in-flight work above was all answered; afterwards
    // new requests are refused without a crash.
    server.shutdown();
    assert!(loadgen::predict(addr, "mnist", &inputs[0]).is_err());
}

#[test]
fn unknown_model_and_bad_input_report_clean_statuses() {
    let registry = registry_with("m", FrameworkKind::Torch, BatchConfig::default());
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.addr();

    let (status, _) = loadgen::predict(addr, "nope", &[0.0; 784]).unwrap();
    assert_eq!(status, 404);

    let (status, body) =
        loadgen::http_request(addr, "POST", "/predict/m", Some("[1, 2, 3]")).unwrap();
    assert_eq!(status, 400, "wrong input length must be a client error");
    assert!(body.contains("expected"));

    let (status, _) =
        loadgen::http_request(addr, "POST", "/predict/m", Some("{\"not\": \"array\"}")).unwrap();
    assert_eq!(status, 400);

    let (status, _) = loadgen::http_request(addr, "GET", "/no-such-route", None).unwrap();
    assert_eq!(status, 404);

    server.shutdown();
}

#[test]
fn overload_sheds_with_503_and_never_crashes() {
    // A one-slot queue with a slow flush cadence guarantees overflow
    // under a burst; the contract is 503 + Retry-After, not a panic or
    // a hung client.
    let config =
        BatchConfig { max_batch: 1, max_wait: Duration::from_millis(20), queue_capacity: 1 };
    let registry = registry_with("m", FrameworkKind::Caffe, config);
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.addr();
    let inputs = tiny_inputs(4);

    let report = loadgen::run(
        addr,
        "m",
        &inputs,
        &loadgen::LoadConfig { mode: loadgen::LoadMode::Closed { concurrency: 8 }, requests: 64 },
    );
    assert_eq!(report.sent, 64);
    assert_eq!(report.errors, 0, "overload must shed (503), not error");
    assert_eq!(report.ok + report.shed, 64);
    assert!(report.ok > 0, "some requests must be served under overload");

    // The server is still healthy after the burst.
    let (status, _) = loadgen::http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn shutdown_endpoint_drains_and_wait_returns() {
    let registry = registry_with("m", FrameworkKind::TensorFlow, BatchConfig::default());
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.addr();

    let (status, body) = loadgen::http_request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("draining"));
    // wait() must return now that the drain has been requested.
    server.wait();
}

#[test]
fn two_models_are_served_independently() {
    let mut registry = ModelRegistry::new();
    for (name, fw) in [("tf", FrameworkKind::TensorFlow), ("torch", FrameworkKind::Torch)] {
        let spec = ModelSpec::own_default(name, fw, DatasetKind::Mnist, Scale::Tiny, SEED);
        registry.register(spec.instantiate(None).unwrap(), BatchConfig::default()).unwrap();
    }
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.addr();
    let input = &tiny_inputs(1)[0];

    let (status, tf) = loadgen::predict(addr, "tf", input).unwrap();
    assert_eq!(status, 200);
    let (status, torch) = loadgen::predict(addr, "torch", input).unwrap();
    assert_eq!(status, 200);
    // Different personalities, different architectures — the logits
    // cannot coincide.
    assert_ne!(tf["logits"], torch["logits"]);

    let (_, metrics) = loadgen::http_request(addr, "GET", "/metrics", None).unwrap();
    let metrics = dlbench_json::parse(&metrics).unwrap();
    assert_eq!(metrics["tf"]["completed"], 1.0);
    assert_eq!(metrics["torch"]["completed"], 1.0);
    server.shutdown();
}

#[test]
fn lone_request_is_flushed_without_waiting_out_the_deadline() {
    // Nothing else is queued and nothing was left behind, so the batch
    // has no straggler to wait for: a one-second deadline must cost the
    // request nothing.
    let config = BatchConfig { max_batch: 8, max_wait: Duration::from_secs(1), queue_capacity: 64 };
    let registry = registry_with("m", FrameworkKind::TensorFlow, config);
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.addr();

    let started = Instant::now();
    let (status, body) = loadgen::predict(addr, "m", &tiny_inputs(1)[0]).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "predict failed: {}", body.pretty());
    assert_eq!(body["batch_size"], 1.0);
    assert!(elapsed < Duration::from_millis(500), "lone request took {elapsed:?}");

    let (_, metrics) = loadgen::http_request(addr, "GET", "/metrics", None).unwrap();
    let metrics = dlbench_json::parse(&metrics).unwrap();
    let wait_ms = metrics["m"]["queue_wait_ms"]["p50"].as_f64().unwrap();
    assert!(wait_ms < 50.0, "lone request waited {wait_ms} ms in the queue");
    server.shutdown();
}

#[test]
fn endless_request_line_is_refused_after_the_head_cap() {
    // 64 KiB of request line and no newline, on a connection the client
    // keeps open: the handler must stop reading at the head cap and
    // answer, not buffer on until the IO timeout.
    let registry = registry_with("m", FrameworkKind::Torch, BatchConfig::default());
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut line = b"GET /".to_vec();
    line.resize(64 * 1024, b'a');

    let started = Instant::now();
    let mut writer = stream.try_clone().unwrap();
    // The server may close with part of the line unread, so this write
    // can fail; only the reply matters.
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&line);
    });
    let mut reply = Vec::new();
    // A reset after the reply (unread bytes at close) ends the read with
    // an error; the bytes read before it are kept.
    let _ = stream.read_to_end(&mut reply);
    let elapsed = started.elapsed();
    sender.join().unwrap();

    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "unexpected reply: {reply:?}");
    assert!(reply.contains("headers too large"), "unexpected reply: {reply:?}");
    assert!(elapsed < Duration::from_secs(2), "refusal took {elapsed:?}");
    server.shutdown();
}

#[test]
fn loadgen_batch_mean_agrees_with_the_servers_batch_counts() {
    let config =
        BatchConfig { max_batch: 4, max_wait: Duration::from_millis(5), queue_capacity: 256 };
    let registry = registry_with("m", FrameworkKind::TensorFlow, config);
    let server = serve(registry, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.addr();
    let load =
        loadgen::LoadConfig { mode: loadgen::LoadMode::Closed { concurrency: 8 }, requests: 48 };
    let report = loadgen::run(addr, "m", &tiny_inputs(4), &load);
    assert_eq!(report.ok, 48, "every request answered");

    // Each reply reports the batch it rode, so the client's mean is the
    // server's batch-size distribution weighted by batch size.
    let (_, metrics) = loadgen::http_request(addr, "GET", "/metrics", None).unwrap();
    let metrics = dlbench_json::parse(&metrics).unwrap();
    let (mut requests, mut weighted) = (0.0, 0.0);
    for entry in metrics["m"]["batch_size_counts"].as_array().unwrap() {
        let (size, count) =
            (entry["batch_size"].as_f64().unwrap(), entry["count"].as_f64().unwrap());
        requests += size * count;
        weighted += size * size * count;
    }
    assert_eq!(requests, 48.0);
    assert_eq!(report.batch_mean(), Some(weighted / requests));
    server.shutdown();
}
