//! # dlbench-fleet
//!
//! A multi-replica serving fleet over `dlbench-serve`, closing the
//! ROADMAP's planet-scale serving loop: N hot-swappable
//! [`MicroBatcher`](dlbench_serve::MicroBatcher) replicas behind a
//! pluggable `Router`, a queue-depth/p99-driven `Autoscaler`, and
//! health-gated promotion of rolling checkpoints from a *live*
//! `dist-train` run into serving.
//!
//! ```text
//!            ┌──────────── Fleet ────────────┐
//! request ──▶ Router ──▶ Replica 0..N  ──▶ prediction (class, logits,
//!            │  rr │ least-queue │ batch-aware      version, replica)
//!            └──────────────▲───────────────┘
//!         Autoscaler ───────┤ scale_to / warm-up / drain
//!         Promoter ─────────┘ health-gated hot swap, zero drops
//!                ▲
//!         dist-train (live) ──▶ epoch-boundary checkpoints
//! ```
//!
//! Two execution planes share the control logic:
//!
//! * the **real fleet** ([`Fleet`]) runs actual batched forwards and is
//!   what the promotion/bit-transparency tests exercise;
//! * the **simulated fleet** ([`sim::simulate_fleet`]) swaps each
//!   forward for its `dlbench-simtime` cost, so heavy-tailed open-loop
//!   load can sweep arrival rates to millions-of-users scale in bounded
//!   wall-clock (`BENCH_fleet.json`); `dlbench-core` runs run-spec
//!   fleet cells on it.
//!
//! Determinism contract: predictions are bitwise identical across
//! routing policy, replica count and scaling activity for a fixed model
//! version (batching is bit-transparent and every replica is rebuilt
//! from the same checkpoint bytes); simulated sweeps are byte-identical
//! across runs (sim-time only, seeded arrivals, no wall-clock in the
//! report).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod fleet;
pub mod load;
pub mod promote;
pub mod replica;
pub mod router;
pub mod sim;

pub use autoscale::AutoscaleConfig;
pub use fleet::{Fleet, FleetConfig, FleetPrediction};
pub use load::{drive, drive_until, FleetLoadReport};
pub use promote::{dist_training_stream, Candidate, HealthGateConfig, Promoter, PromotionOutcome};
pub use router::RoutingPolicy;
pub use sim::{fleet_sweep_doc, simulate_fleet, SimFleetConfig, SimFleetReport};
