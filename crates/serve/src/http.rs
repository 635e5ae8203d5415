//! A dependency-free HTTP/1.1 server over `std::net::TcpListener`,
//! hand-rolled in the spirit of `dlbench-json`: exactly the protocol
//! subset the serving endpoints need, parsed defensively (size-capped
//! headers and bodies, malformed requests answered with `400`, never a
//! panic).
//!
//! Endpoints:
//!
//! * `POST /predict/<model>` — body is a JSON array of input floats;
//!   replies with class, logits, batch size and latency. Overload and
//!   drain reply `503` with `Retry-After`.
//! * `GET /healthz` — liveness plus the registered model names.
//! * `GET /metrics` — per-model latency percentiles, throughput,
//!   queue depth and batch-size distribution.
//! * `POST /shutdown` — initiates graceful drain: in-flight requests
//!   finish, then the server exits.

use crate::model::ModelRegistry;
use crate::ServeError;
use dlbench_json::JsonValue;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const MAX_HEAD_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request: method, path, body.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

struct Inner {
    registry: ModelRegistry,
    draining: AtomicBool,
    addr: SocketAddr,
}

/// A live server: an acceptor thread plus one handler thread per
/// connection. Dropping (or [`RunningServer::shutdown`]) drains
/// gracefully — every accepted request is answered before the workers
/// are joined.
pub struct RunningServer {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
/// starts serving `registry`.
pub fn serve(registry: ModelRegistry, addr: &str) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let inner = Arc::new(Inner { registry, draining: AtomicBool::new(false), addr: local });
    let acceptor = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || accept_loop(listener, inner))
    };
    Ok(RunningServer { inner, acceptor: Some(acceptor) })
}

impl RunningServer {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Whether a drain has been initiated.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Blocks until the server shuts down (via `POST /shutdown`),
    /// then drains the batchers.
    pub fn wait(mut self) {
        self.join();
    }

    /// Initiates graceful shutdown from the host process and blocks
    /// until every in-flight request has been answered.
    pub fn shutdown(mut self) {
        self.begin_drain();
        self.join();
    }

    fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.inner.addr);
    }

    fn join(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.inner.registry.drain();
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.begin_drain();
            self.join();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if inner.draining.load(Ordering::SeqCst) {
            // The drain wake-up connection (or a straggler racing it):
            // refuse politely and stop accepting.
            let _ = write_response(&stream, 503, &retry_after_headers(), &shed_body("draining"));
            break;
        }
        let inner = Arc::clone(&inner);
        handlers.push(std::thread::spawn(move || handle_connection(stream, inner)));
        // Reap finished handlers so the vec stays bounded under load.
        handlers.retain(|h| !h.is_finished());
    }
    // The in-flight guarantee: every accepted connection is answered
    // before shutdown completes.
    for handle in handlers {
        let _ = handle.join();
    }
}

fn handle_connection(stream: TcpStream, inner: Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let request = match read_request(&stream) {
        Ok(r) => r,
        Err(msg) => {
            let _ = write_response(&stream, 400, &[], &error_body(&msg));
            return;
        }
    };
    let (status, extra_headers, body) = route(&request, &inner);
    let _serialize = dlbench_trace::span(dlbench_trace::Category::Serve, "serialize");
    let _ = write_response(&stream, status, &extra_headers, &body);
}

fn route(req: &Request, inner: &Inner) -> (u16, Vec<(String, String)>, JsonValue) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let status = if inner.draining.load(Ordering::SeqCst) { "draining" } else { "ok" };
            let models: Vec<JsonValue> =
                inner.registry.names().into_iter().map(JsonValue::from).collect();
            let body = JsonValue::Object(vec![
                ("status".into(), status.into()),
                ("models".into(), JsonValue::Array(models)),
            ]);
            (200, Vec::new(), body)
        }
        ("GET", "/metrics") => (200, Vec::new(), inner.registry.metrics_json()),
        ("POST", "/shutdown") => {
            inner.draining.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(inner.addr);
            (200, Vec::new(), JsonValue::Object(vec![("draining".into(), true.into())]))
        }
        ("POST", path) if path.starts_with("/predict/") => {
            let model = &path["/predict/".len()..];
            if inner.draining.load(Ordering::SeqCst) {
                return (503, retry_after_headers(), shed_body("draining"));
            }
            let input = match parse_input(&req.body) {
                Ok(v) => v,
                Err(msg) => return (400, Vec::new(), error_body(&msg)),
            };
            match inner.registry.predict(model, input) {
                Ok(p) => {
                    let logits: Vec<JsonValue> =
                        p.logits.iter().map(|&v| JsonValue::from(v)).collect();
                    let body = JsonValue::Object(vec![
                        ("model".into(), model.into()),
                        ("class".into(), p.class.into()),
                        ("logits".into(), JsonValue::Array(logits)),
                        ("batch_size".into(), p.batch_size.into()),
                        ("latency_ms".into(), (p.latency.as_secs_f64() * 1e3).into()),
                        ("version".into(), (p.version as usize).into()),
                    ]);
                    (200, Vec::new(), body)
                }
                Err(ServeError::QueueFull) => (503, retry_after_headers(), shed_body("queue full")),
                Err(ServeError::Draining) => (503, retry_after_headers(), shed_body("draining")),
                Err(ServeError::UnknownModel(name)) => {
                    (404, Vec::new(), error_body(&format!("unknown model {name:?}")))
                }
                Err(e @ ServeError::BadInput(_)) => (400, Vec::new(), error_body(&e.to_string())),
                Err(e) => (500, Vec::new(), error_body(&e.to_string())),
            }
        }
        _ => (404, Vec::new(), error_body(&format!("no route {} {}", req.method, req.path))),
    }
}

/// Decodes a request body — a JSON array of numbers — into the input
/// vector.
fn parse_input(body: &[u8]) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = dlbench_json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let array = value.as_array().ok_or_else(|| "body must be a JSON array".to_string())?;
    array
        .iter()
        .map(|v| v.as_f64().map(|f| f as f32).ok_or_else(|| "array must be numeric".to_string()))
        .collect()
}

fn retry_after_headers() -> Vec<(String, String)> {
    vec![("Retry-After".to_string(), "1".to_string())]
}

fn shed_body(reason: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("error".into(), "unavailable".into()),
        ("reason".into(), reason.into()),
    ])
}

fn error_body(msg: &str) -> JsonValue {
    JsonValue::Object(vec![("error".into(), msg.into())])
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_response(
    mut stream: &TcpStream,
    status: u16,
    extra_headers: &[(String, String)],
    body: &JsonValue,
) -> std::io::Result<()> {
    let payload = body.pretty();
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(status),
        payload.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// Reads one line of the request head (the request line or a header)
/// from `head`, the head behind a `MAX_HEAD_BYTES` + 1 limit. Using up
/// the limit means the head is over the cap.
fn read_head_line<R: BufRead>(head: &mut Take<R>) -> Result<String, String> {
    let mut line = String::new();
    head.read_line(&mut line).map_err(|e| format!("read error: {e}"))?;
    if head.limit() == 0 {
        return Err("headers too large".to_string());
    }
    Ok(line)
}

fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    // The head is read through a limit, so a client that never sends a
    // newline makes the handler buffer at most `MAX_HEAD_BYTES` + 1.
    let mut head = (&mut reader).take(MAX_HEAD_BYTES as u64 + 1);
    let line = read_head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line missing path")?.to_string();
    let version = parts.next().ok_or("request line missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version}"));
    }

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut head)?;
        let trimmed = header.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse::<usize>().map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".to_string());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| format!("body read error: {e}"))?;
    Ok(Request { method, path, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_input_accepts_numeric_arrays() {
        assert_eq!(parse_input(b"[1, 2.5, -3]").unwrap(), vec![1.0, 2.5, -3.0]);
    }

    #[test]
    fn parse_input_rejects_non_arrays() {
        assert!(parse_input(b"{\"x\": 1}").is_err());
        assert!(parse_input(b"not json").is_err());
        assert!(parse_input(b"[1, \"two\"]").is_err());
        assert!(parse_input(&[0xff, 0xfe]).is_err());
    }
}
