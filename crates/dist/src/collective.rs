//! Gradient-aggregation collectives.
//!
//! A [`Strategy`] decides *where* shard gradients meet and *what*
//! travels over the wire; the arithmetic is always the same canonical
//! fixed-order reduction ([`tree_reduce`]), which is why the choice of
//! strategy (and the world size) cannot change a single bit of the
//! result — only the simulated communication cost.

use crate::world::{Cmd, ShardGrad};
use dlbench_simtime::{CommCost, LinkProfile};
use dlbench_tensor::Tensor;
use dlbench_trace::{span, Category};
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Gradient aggregation strategies the driver can plug in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Central reduce on the driver, broadcast of the result — the
    /// classic parameter-server topology (TensorFlow's distributed
    /// runtime default in the paper's era).
    ParameterServer,
    /// Bandwidth-optimal ring: workers all-gather shard-gradient sets
    /// around a ring and reduce locally (the MPI/NCCL-style collective).
    Ring,
}

impl Strategy {
    /// Every strategy, for sweeps.
    pub const ALL: [Strategy; 2] = [Strategy::ParameterServer, Strategy::Ring];

    /// Parses a CLI strategy name.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        match s {
            "ps" | "parameter-server" => Ok(Strategy::ParameterServer),
            "ring" => Ok(Strategy::Ring),
            other => Err(format!("unknown strategy '{other}' (expected: ps, ring)")),
        }
    }

    /// Canonical short name (`ps`, `ring`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::ParameterServer => "ps",
            Strategy::Ring => "ring",
        }
    }

    /// Whether workers attach shard gradients to their `Computed` ack
    /// for a central reduce (`true`, the parameter server) or retain
    /// them for a peer exchange (`false`, the ring).
    pub fn centralizes_gradients(&self) -> bool {
        match self {
            Strategy::ParameterServer => true,
            Strategy::Ring => false,
        }
    }

    /// Builds the phase-2 command for each live worker, parallel to
    /// `live` order. `collected` holds the centrally collected shard
    /// gradients of this step (empty for the ring). The driver plays
    /// the parameter server: it reduces once and broadcasts the
    /// aggregate. Ring gradients never leave the worker pool: each
    /// worker gets its ring channels.
    pub fn reduce_cmds(&self, live: &[usize], collected: Vec<ShardGrad>) -> Vec<Cmd> {
        match self {
            Strategy::ParameterServer => {
                let agg = {
                    let _reduce = span(Category::Dist, "reduce");
                    Arc::new(tree_reduce(collected))
                };
                live.iter().map(|_| Cmd::Apply { grads: Arc::clone(&agg) }).collect()
            }
            Strategy::Ring => {
                debug_assert!(collected.is_empty(), "ring keeps gradients worker-resident");
                drop(collected);
                let m = live.len();
                // Channel i carries ring position i → i+1 (mod m). Worker
                // at position i sends on channel i and receives on
                // channel i-1.
                let mut senders = Vec::with_capacity(m);
                let mut receivers: Vec<Option<_>> = Vec::with_capacity(m);
                for _ in 0..m {
                    let (tx, rx) = channel::<Vec<ShardGrad>>();
                    senders.push(tx);
                    receivers.push(Some(rx));
                }
                let mut cmds = Vec::with_capacity(m);
                for (i, send) in senders.into_iter().enumerate() {
                    let recv =
                        receivers[(i + m - 1) % m].take().expect("each ring channel used once");
                    cmds.push(Cmd::Exchange { send, recv, hops: m - 1 });
                }
                cmds
            }
        }
    }

    /// Prices one step's gradient exchange on a link.
    pub fn comm_cost(&self, link: &LinkProfile, grad_bytes: u64, world: usize) -> CommCost {
        match self {
            Strategy::ParameterServer => link.parameter_server_step(grad_bytes, world),
            Strategy::Ring => link.ring_step(grad_bytes, world),
        }
    }
}

/// Reduces shard-gradient sets with a fixed-order binary tree keyed on
/// shard id: sets are sorted by id, then adjacent pairs are summed
/// level by level. Because the tree's shape and order depend only on
/// the canonical shard ids — never on which worker produced a set or
/// in what order sets arrived — the result is bitwise identical across
/// world sizes, strategies and rebalancing decisions.
///
/// # Panics
///
/// Panics if two sets disagree on tensor shapes (all shards of one
/// step come from replicas of the same network).
pub fn tree_reduce(mut sets: Vec<ShardGrad>) -> Vec<Tensor> {
    sets.sort_by_key(|s| s.shard);
    let mut level: Vec<Vec<Tensor>> = sets.into_iter().map(|s| s.grads).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                assert_eq!(a.len(), b.len(), "shard gradient sets must be parallel");
                for (ta, tb) in a.iter_mut().zip(&b) {
                    ta.add_assign(tb).expect("shard gradients share shapes");
                }
            }
            next.push(a);
        }
        level = next;
    }
    level.pop().unwrap_or_default()
}

/// Naive left-fold sum in *presentation order* — the reduction a
/// non-deterministic fabric would perform. Exposed so property tests
/// can demonstrate the difference: this matches [`tree_reduce`] only
/// within floating-point tolerance, not bitwise.
pub fn naive_sum(sets: &[ShardGrad]) -> Vec<Tensor> {
    let mut it = sets.iter();
    let Some(first) = it.next() else { return Vec::new() };
    let mut acc = first.grads.clone();
    for s in it {
        assert_eq!(acc.len(), s.grads.len(), "shard gradient sets must be parallel");
        for (ta, tb) in acc.iter_mut().zip(&s.grads) {
            ta.add_assign(tb).expect("shard gradients share shapes");
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_tensor::SeededRng;

    fn set(shard: usize, vals: &[f32]) -> ShardGrad {
        ShardGrad { shard, grads: vec![Tensor::from_vec(&[vals.len()], vals.to_vec()).unwrap()] }
    }

    #[test]
    fn tree_reduce_is_order_invariant() {
        let mut rng = SeededRng::new(7);
        let sets: Vec<ShardGrad> = (0..7)
            .map(|i| {
                let vals: Vec<f32> = (0..5).map(|_| rng.normal(0.0, 1.0)).collect();
                set(i, &vals)
            })
            .collect();
        let forward = tree_reduce(sets.clone());
        let mut shuffled = sets;
        shuffled.reverse();
        shuffled.swap(0, 3);
        let scrambled = tree_reduce(shuffled);
        assert_eq!(forward, scrambled, "presentation order must not matter");
    }

    #[test]
    fn tree_reduce_partition_invariance_is_exact() {
        // Reducing {0,1,2,3} in one go equals reducing {0,1} and {2,3}
        // worker-locally ... no wait — partial reduction is NOT part of
        // the protocol precisely because it would break this. What IS
        // guaranteed: any full set of shards reduces identically no
        // matter how it was transported. Simulate transport: clone sets
        // through several "hops" and reduce.
        let sets: Vec<ShardGrad> =
            (0..4).map(|i| set(i, &[0.1 * i as f32 + 0.3, -1.5, 2.25])).collect();
        let direct = tree_reduce(sets.clone());
        let hopped: Vec<ShardGrad> = sets.to_vec();
        assert_eq!(direct, tree_reduce(hopped));
    }

    #[test]
    fn naive_sum_depends_on_order_tree_does_not() {
        // Values chosen so f32 addition is visibly non-associative.
        let sets = vec![set(0, &[1.0e8]), set(1, &[1.0]), set(2, &[-1.0e8]), set(3, &[0.25])];
        let mut reversed = sets.clone();
        reversed.reverse();
        let a = naive_sum(&sets);
        let b = naive_sum(&reversed);
        assert_ne!(a, b, "the naive fold must expose non-associativity");
        assert_eq!(tree_reduce(sets), tree_reduce(reversed));
    }

    #[test]
    fn single_set_passes_through() {
        let s = set(0, &[1.5, -2.5]);
        assert_eq!(tree_reduce(vec![s.clone()]), s.grads);
        assert_eq!(naive_sum(std::slice::from_ref(&s)), s.grads);
    }

    #[test]
    fn strategy_parse_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()).unwrap(), s);
        }
        assert_eq!(Strategy::parse("parameter-server").unwrap(), Strategy::ParameterServer);
        assert!(Strategy::parse("gossip").is_err());
    }

    #[test]
    fn ring_reduce_cmds_wire_a_cycle() {
        let live = [0usize, 2, 5];
        let cmds = Strategy::Ring.reduce_cmds(&live, Vec::new());
        assert_eq!(cmds.len(), 3);
        for cmd in &cmds {
            match cmd {
                Cmd::Exchange { hops, .. } => assert_eq!(*hops, 2),
                _ => panic!("ring must issue Exchange commands"),
            }
        }
        // Wiring check: position 0 sends, position 1 receives it.
        let mut it = cmds.into_iter();
        let (Some(Cmd::Exchange { send: s0, .. }), Some(Cmd::Exchange { recv: r1, .. })) =
            (it.next(), it.next())
        else {
            panic!("expected Exchange commands");
        };
        s0.send(vec![set(9, &[1.0])]).unwrap();
        let got = r1.recv().unwrap();
        assert_eq!(got[0].shard, 9);
    }

    #[test]
    fn ps_reduce_cmds_share_one_aggregate() {
        let sets: Vec<ShardGrad> = (0..3).map(|i| set(i, &[i as f32, 1.0])).collect();
        let expect = tree_reduce(sets.clone());
        let cmds = Strategy::ParameterServer.reduce_cmds(&[0, 1], sets);
        assert_eq!(cmds.len(), 2);
        for cmd in cmds {
            match cmd {
                Cmd::Apply { grads } => assert_eq!(*grads, expect),
                _ => panic!("parameter server must issue Apply commands"),
            }
        }
    }
}
