//! # dlbench-dist — deterministic simulated data-parallel training
//!
//! Multi-worker data-parallel training over in-process channels, built
//! so that the *result* of training is a pure function of the cell
//! `(host, setting, dataset, scale, seed)` — bit-identical at any world
//! size, under either collective, with stragglers slowing workers down
//! or workers dying mid-epoch. The paper's scalability axis (and the
//! Deep500 critique it anticipates) is that distributed benchmarks
//! conflate *what* is computed with *how fast* it moves; this crate
//! separates the two completely:
//!
//! * **Arithmetic** is canonical. A global batch is cut into
//!   world-size-independent shards ([`shard::shard_batch`]), each shard's
//!   gradient is computed bit-deterministically on whichever replica it
//!   lands on (single-threaded kernels, per-`(step, shard)` dropout
//!   streams), and shards meet in a fixed-order reduction tree keyed on
//!   shard id ([`collective::tree_reduce`]). Moving a shard between
//!   workers — for load balancing or failure recovery — cannot change a
//!   bit.
//! * **Time** is simulated. Per-worker compute is priced by the
//!   paper-scale cost model on the cell's devices, and each step's
//!   gradient exchange by the collective's classic cost formula
//!   (parameter server: `2·W·P` serialized through the server's link;
//!   ring all-reduce: `2·(W−1)/W·P` per worker in parallel) on the host
//!   framework's link personality ([`dlbench_simtime::LinkProfile`]).
//!
//! The two collectives are the variants of [`collective::Strategy`],
//! which builds each step's reduce commands and prices its exchange;
//! [`fault::FaultPlan`] injects worker kills and stragglers, and
//! the driver answers with detect-and-rebalance recovery. The
//! [`sweep::scaling_sweep`] entry point produces the `BENCH_dist.json`
//! scaling curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod driver;
pub mod fault;
pub mod shard;
pub mod sim;
pub mod sweep;
pub mod world;

pub use collective::{naive_sum, tree_reduce, Strategy};
pub use driver::{run_dist_training, run_dist_training_observed, DistConfig, DistOutcome};
pub use fault::{FaultPlan, Kill, Straggler, StragglerDetector};
pub use shard::{assign_shards, shard_batch, Shard, MAX_SHARDS};
pub use sim::{CommTotals, DistSim};
pub use sweep::scaling_sweep;
pub use world::{ShardGrad, ShardStat};
