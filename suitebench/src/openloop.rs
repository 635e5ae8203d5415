//! The benchmark's own load driver.
//!
//! Open loop ([`Load::Rate`]): request `i` is due `i / rate` seconds
//! after the start, whatever happened to earlier requests: independent
//! users do not wait for each other. Latency is timed from the due time,
//! not from the send, so a stall that delays later sends is charged to
//! them (no coordinated omission), and each request's lag — how late
//! its thread sent it — is recorded so a generator that cannot keep up
//! is visible.
//!
//! Saturated ([`Load::Saturate`]): each thread sends its next request
//! as soon as its last reply is in, so the server is as busy as the
//! client's connections can keep it; latency is timed from the send.
//!
//! Either way at most `threads` client threads send, each its share of
//! the requests, one connection at a time, so the client never uses
//! more threads or connections than that.

use crate::layers::span;
use dlbench_serve::loadgen::{encode_input, http_request};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one request saw.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index of the model the request went to.
    pub model: usize,
    /// Index of the input it carried.
    pub input: usize,
    /// How late the request was sent, ms.
    pub lag_ms: f64,
    /// Due time to parsed reply, ms.
    pub latency_ms: f64,
    /// HTTP status, or `None` for a transport or parse failure.
    pub status: Option<u16>,
    /// The reply's logits (empty unless the status is 200).
    pub logits: Vec<f32>,
}

/// Where and what to send.
pub struct Target<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Registered model names; request `i` goes to model `i % len`.
    pub models: &'a [String],
    /// Input pool; request `i` carries input `(i / models) % len`.
    pub inputs: &'a [Vec<f32>],
}

/// How requests are scheduled.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop at this many requests per second.
    Rate(f64),
    /// Closed loop: every thread keeps one request in flight.
    Saturate,
}

/// Drives `load` for `seconds` from `threads` client threads. Returns
/// every request, in index order, and the wall time from the start to
/// the last reply, seconds.
pub fn drive(target: &Target<'_>, load: Load, seconds: f64, threads: usize) -> (Vec<Sent>, f64) {
    let threads = threads.max(1);
    let start = Instant::now();
    let mut sent: Vec<(usize, Sent)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (t..).step_by(threads) {
                        let due = match load {
                            Load::Rate(rate) => {
                                let total = ((rate * seconds).round() as usize).max(1);
                                if i >= total {
                                    break;
                                }
                                start + Duration::from_secs_f64(i as f64 / rate)
                            }
                            Load::Saturate => {
                                // Every thread sends at least once.
                                if start.elapsed().as_secs_f64() >= seconds && i >= threads {
                                    break;
                                }
                                Instant::now()
                            }
                        };
                        out.push((i, send(target, i, due)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    sent.sort_by_key(|&(i, _)| i);
    (sent.into_iter().map(|(_, s)| s).collect(), wall_s)
}

fn send(target: &Target<'_>, i: usize, due: Instant) -> Sent {
    let model = i % target.models.len();
    let input = (i / target.models.len()) % target.inputs.len();
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let lag_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
    let (status, logits) = {
        let _op = span("op");
        let body = {
            let _s = span("json.encode");
            encode_input(&target.inputs[input])
        };
        let reply = {
            let _s = span("serve.request");
            http_request(
                target.addr,
                "POST",
                &format!("/predict/{}", target.models[model]),
                Some(&body),
            )
        };
        match reply {
            Ok((status, text)) => {
                let _s = span("json.parse");
                match dlbench_json::parse(&text) {
                    Ok(doc) if status == 200 => match logits_of(&doc) {
                        Some(logits) => (Some(status), logits),
                        None => (None, Vec::new()),
                    },
                    Ok(_) => (Some(status), Vec::new()),
                    Err(_) => (None, Vec::new()),
                }
            }
            Err(_) => (None, Vec::new()),
        }
    };
    let latency_ms = due.elapsed().as_secs_f64() * 1e3;
    Sent { model, input, lag_ms, latency_ms, status, logits }
}

fn logits_of(doc: &dlbench_json::JsonValue) -> Option<Vec<f32>> {
    doc["logits"].as_array()?.iter().map(|v| v.as_f64().map(|f| f as f32)).collect()
}
