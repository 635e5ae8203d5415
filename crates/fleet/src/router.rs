//! Pluggable request routing across replicas.
//!
//! A `Router` picks one replica per request from a slice of
//! `ReplicaView`s — the point-in-time facts the balancer is allowed
//! to see (outstanding depth, batch capacity, availability). Routing is
//! a *placement* decision only: every replica serves the same model
//! bits, so any policy produces bit-identical predictions and differs
//! purely in latency, shed rate and batch-fill efficiency. The same
//! router drives both the real in-process fleet and the simtime fleet
//! simulator, so simulated policy comparisons transfer.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The routing policies the fleet benchmark compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RoutingPolicy {
    /// Cycle through available replicas in order, ignoring load.
    RoundRobin,
    /// Send to the replica with the fewest outstanding requests
    /// (queued + in-flight), ties to the lowest replica id.
    LeastQueue,
    /// Prefer the replica whose forming batch is closest to full (it
    /// flushes soonest and rides the best amortization); fall back to
    /// least-queue when no partial batch is forming anywhere.
    BatchAware,
}

impl RoutingPolicy {
    /// Every policy, in report order.
    pub const ALL: [RoutingPolicy; 3] =
        [RoutingPolicy::RoundRobin, RoutingPolicy::LeastQueue, RoutingPolicy::BatchAware];

    /// Parses a policy name (`rr`/`round-robin`, `least-queue`/`lq`,
    /// `batch-aware`/`ba`), case-insensitively.
    pub fn parse(raw: &str) -> Option<RoutingPolicy> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "rr" | "round-robin" | "roundrobin" => Some(RoutingPolicy::RoundRobin),
            "least-queue" | "leastqueue" | "lq" => Some(RoutingPolicy::LeastQueue),
            "batch-aware" | "batchaware" | "ba" => Some(RoutingPolicy::BatchAware),
            _ => None,
        }
    }

    /// Stable lowercase label used in reports and spec files.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "rr",
            RoutingPolicy::LeastQueue => "least-queue",
            RoutingPolicy::BatchAware => "batch-aware",
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the router may observe about one replica when placing a
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplicaView {
    /// Stable replica id (tie-break key; survives scaling).
    pub id: usize,
    /// Outstanding requests: queued plus riding an in-flight batch
    /// (the flush-time depth gauge, see `MicroBatcher::queue_depth`).
    pub outstanding: usize,
    /// The replica's max batch size.
    pub max_batch: usize,
    /// Whether the replica accepts traffic (false while warming up
    /// after a scale-up or draining for a scale-down).
    pub available: bool,
}

/// A routing policy plus the mutable cursor round-robin needs. Safe to
/// share across request threads; `route` never blocks.
#[derive(Debug)]
pub(crate) struct Router {
    policy: RoutingPolicy,
    next: AtomicUsize,
}

impl Router {
    /// A router applying `policy`.
    pub fn new(policy: RoutingPolicy) -> Self {
        Self { policy, next: AtomicUsize::new(0) }
    }

    /// Picks the index (into `views`) of the replica to receive the
    /// next request, or `None` when no replica is available.
    pub fn route(&self, views: &[ReplicaView]) -> Option<usize> {
        let avail: Vec<usize> = (0..views.len()).filter(|&i| views[i].available).collect();
        if avail.is_empty() {
            return None;
        }
        let pick = match self.policy {
            RoutingPolicy::RoundRobin => {
                let seq = self.next.fetch_add(1, Ordering::Relaxed);
                avail[seq % avail.len()]
            }
            RoutingPolicy::LeastQueue => *avail
                .iter()
                .min_by_key(|&&i| (views[i].outstanding, views[i].id))
                .expect("non-empty"),
            RoutingPolicy::BatchAware => {
                // A replica with `outstanding % max_batch != 0` has a
                // partial batch forming: joining it fills a batch that
                // is already paying its max-wait latency. Among those,
                // the fullest partial batch flushes soonest.
                let partial = avail
                    .iter()
                    .filter(|&&i| {
                        let v = &views[i];
                        v.max_batch > 1 && !v.outstanding.is_multiple_of(v.max_batch)
                    })
                    .max_by_key(|&&i| {
                        let v = &views[i];
                        (v.outstanding % v.max_batch, std::cmp::Reverse(v.id))
                    });
                match partial {
                    Some(&i) => i,
                    None => *avail
                        .iter()
                        .min_by_key(|&&i| (views[i].outstanding, views[i].id))
                        .expect("non-empty"),
                }
            }
        };
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: usize, outstanding: usize) -> ReplicaView {
        ReplicaView { id, outstanding, max_batch: 4, available: true }
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(RoutingPolicy::parse("RR"), Some(RoutingPolicy::RoundRobin));
        assert_eq!(RoutingPolicy::parse(" round-robin "), Some(RoutingPolicy::RoundRobin));
        assert_eq!(RoutingPolicy::parse("least-queue"), Some(RoutingPolicy::LeastQueue));
        assert_eq!(RoutingPolicy::parse("lq"), Some(RoutingPolicy::LeastQueue));
        assert_eq!(RoutingPolicy::parse("batch-aware"), Some(RoutingPolicy::BatchAware));
        assert_eq!(RoutingPolicy::parse("random"), None);
    }

    #[test]
    fn round_robin_cycles_available_replicas() {
        let r = Router::new(RoutingPolicy::RoundRobin);
        let views = [view(0, 0), view(1, 0), view(2, 0)];
        let picks: Vec<usize> = (0..6).map(|_| r.route(&views).unwrap()).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_unavailable() {
        let r = Router::new(RoutingPolicy::RoundRobin);
        let mut views = [view(0, 0), view(1, 0), view(2, 0)];
        views[1].available = false;
        let picks: Vec<usize> = (0..4).map(|_| r.route(&views).unwrap()).collect();
        assert_eq!(picks, [0, 2, 0, 2]);
    }

    #[test]
    fn least_queue_picks_min_outstanding_with_id_tiebreak() {
        let r = Router::new(RoutingPolicy::LeastQueue);
        assert_eq!(r.route(&[view(0, 5), view(1, 2), view(2, 2)]), Some(1));
        assert_eq!(r.route(&[view(0, 0), view(1, 0)]), Some(0));
    }

    #[test]
    fn batch_aware_prefers_fullest_partial_batch() {
        let r = Router::new(RoutingPolicy::BatchAware);
        // Replica 1 has 3 of 4 slots of a forming batch: joining it
        // flushes a full batch immediately.
        assert_eq!(r.route(&[view(0, 1), view(1, 3), view(2, 0)]), Some(1));
        // No partial batches anywhere (all multiples of max_batch):
        // fall back to least-queue.
        assert_eq!(r.route(&[view(0, 8), view(1, 4), view(2, 0)]), Some(2));
    }

    #[test]
    fn no_available_replicas_routes_nowhere() {
        let r = Router::new(RoutingPolicy::LeastQueue);
        let mut v = view(0, 0);
        v.available = false;
        assert_eq!(r.route(&[v]), None);
        assert_eq!(r.route(&[]), None);
    }
}
