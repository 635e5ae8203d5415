//! The distributed training driver.
//!
//! Spawns N worker replicas over scoped threads, feeds them canonical
//! shards step by step, runs the strategy's collective reduce phase,
//! and keeps the books: loss curve, divergence latch, fault events,
//! simulated compute/communication time. The driver doubles as the
//! parameter server when that strategy is selected.
//!
//! Determinism contract: the trained parameters, loss curve, accuracy
//! and convergence flag of a run depend only on `(host, setting,
//! dataset, scale, seed)` — not on the worker count, the collective,
//! injected stragglers, or mid-run worker failures (as long as one
//! worker survives). See `crate` docs for why.

use crate::collective::Strategy;
use crate::fault::{FaultPlan, StragglerDetector};
use crate::shard::{assign_shards, shard_batch, Shard};
use crate::sim::{CommTotals, DistSim, SimTracker};
use crate::world::{worker_main, Ack, Cmd, WorkerEnv};
use dlbench_data::{BatchIter, DatasetKind, Preprocessing};
use dlbench_frameworks::trainer::{self, DIVERGED_LOSS};
use dlbench_frameworks::{DefaultSetting, FrameworkKind, Scale};
use dlbench_nn::Network;
use dlbench_trace::Stopwatch;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;

/// Configuration of one distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of logical workers (world size). Must be ≥ 1.
    pub workers: usize,
    /// Gradient-aggregation strategy.
    pub strategy: Strategy,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Whether to detect stragglers and rebalance shards away from
    /// them (`false` isolates the cost of not reacting).
    pub rebalance: bool,
    /// Optional cap on executed steps (testing/smoke runs).
    pub max_steps: Option<usize>,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 1,
            strategy: Strategy::ParameterServer,
            faults: FaultPlan::default(),
            rebalance: true,
            max_steps: None,
        }
    }
}

/// Everything a distributed run produces.
pub struct DistOutcome {
    /// Host framework personality.
    pub host: FrameworkKind,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Initial world size.
    pub world_size: usize,
    /// Workers still alive at the end.
    pub live_workers: usize,
    /// Top-1 accuracy on the held-out test set, in `[0, 1]`.
    pub accuracy: f32,
    /// `(iteration, mean loss)` samples along training.
    pub loss_curve: Vec<(usize, f32)>,
    /// Whether training stayed finite and beat the uniform plateau.
    pub converged: bool,
    /// Iterations executed at the reduced scale.
    pub executed_iterations: usize,
    /// Iteration budget of the paper configuration.
    pub paper_iterations: usize,
    /// Serialized final parameters (every surviving replica holds the
    /// same bits; this is rank 0's stream). The bit-identity tests
    /// compare these across world sizes.
    pub checkpoint: Vec<u8>,
    /// The trained model, rebuilt from the checkpoint.
    pub model: Network,
    /// Human-readable fault/rebalance events, in step order.
    pub events: Vec<String>,
    /// Simulated paper-scale times per device, with compute/comm/wait
    /// breakdown.
    pub sims: Vec<DistSim>,
    /// Bytes-on-wire accounting.
    pub comm: CommTotals,
    /// Wall-clock seconds the simulation itself took.
    pub wall_seconds: f64,
}

impl DistOutcome {
    /// Final recorded training loss.
    pub fn final_loss(&self) -> f32 {
        self.loss_curve.last().map(|&(_, l)| l).unwrap_or(f32::NAN)
    }
}

/// What the in-scope driver loop hands back across the scope boundary.
struct DriveResult {
    checkpoint: Vec<u8>,
    loss_curve: Vec<(usize, f32)>,
    events: Vec<String>,
    live_workers: usize,
    diverged: bool,
}

/// Runs data-parallel distributed training for one cell.
///
/// Fails (with a message suitable for the CLI) on an empty world, when
/// every worker dies, or when the final checkpoint cannot be
/// retrieved; divergence is *not* an error — it surfaces exactly as in
/// the single-node trainer, as a flat loss curve and chance accuracy.
pub fn run_dist_training(
    host: FrameworkKind,
    setting: DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    dcfg: &DistConfig,
) -> Result<DistOutcome, String> {
    run_dist_training_observed(host, setting, dataset, scale, seed, dcfg, None, |_, _| {})
}

/// [`run_dist_training`] with a live rolling-checkpoint observer.
///
/// When `checkpoint_every` is `Some(n)`, the driver pauses at every
/// n-th epoch boundary (while the workers idle between steps), pulls a
/// parameter snapshot from the lowest live rank via [`Cmd::Snapshot`],
/// and hands `(completed_epochs, bytes)` to `on_checkpoint` — the hook
/// `dlbench-fleet` uses to promote checkpoints from a run *while it is
/// still training*. Replicas are bit-identical at every step, so the
/// snapshot does not depend on which worker serves it. The observer
/// runs on the driving thread; a slow observer stalls training, not
/// correctness. No snapshots are taken after divergence.
#[allow(clippy::too_many_arguments)]
pub fn run_dist_training_observed(
    host: FrameworkKind,
    setting: DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    dcfg: &DistConfig,
    checkpoint_every: Option<usize>,
    mut on_checkpoint: impl FnMut(usize, Vec<u8>),
) -> Result<DistOutcome, String> {
    if dcfg.workers == 0 {
        return Err("world size must be at least 1".to_string());
    }
    let config = setting.training();
    let weight_decay = trainer::effective_weight_decay(host, dataset, &config);
    let preprocessing = trainer::effective_preprocessing(host, &setting, dataset);
    let (train, test) = trainer::generate_data(dataset, scale, seed);
    let channel_means = Preprocessing::channel_means(&train);
    let exec_full = trainer::planned_iterations(&config, setting.tuned_for, dataset, scale);
    let exec_iters = dcfg.max_steps.map_or(exec_full, |m| exec_full.min(m.max(1)));
    let iters_per_epoch = (train.len() / config.batch_size).max(1);

    let mut tracker = SimTracker::new(host, &setting, dataset);
    let started = Stopwatch::start();

    let world = dcfg.workers;
    let mut cmd_txs: Vec<Sender<Cmd>> = Vec::with_capacity(world);
    let mut ack_rxs: Vec<Receiver<Ack>> = Vec::with_capacity(world);
    let mut worker_envs: Vec<WorkerEnv<'_>> = Vec::with_capacity(world);
    for rank in 0..world {
        let (cmd_tx, cmd_rx) = channel();
        let (ack_tx, ack_rx) = channel();
        cmd_txs.push(cmd_tx);
        ack_rxs.push(ack_rx);
        worker_envs.push(WorkerEnv {
            rank,
            host,
            setting,
            dataset,
            scale,
            seed,
            train: &train,
            preprocessing,
            channel_means: channel_means.clone(),
            config: config.clone(),
            weight_decay,
            exec_iters,
            centralize: dcfg.strategy.centralizes_gradients(),
            kill_at: dcfg.faults.kill_step(rank),
            cmds: cmd_rx,
            acks: ack_tx,
        });
    }

    let drive = thread::scope(|scope| {
        // Own the command senders inside the scope: every return path
        // (including errors) must drop them so idle workers see their
        // channel close and exit before the scope joins.
        let cmd_txs = cmd_txs;
        for env in worker_envs.drain(..) {
            scope.spawn(move || worker_main(env));
        }
        let mut batches =
            BatchIter::new(&train, config.batch_size, trainer::batch_rng(host, &setting, seed));
        let mut detector = StragglerDetector::new();
        let mut live: Vec<usize> = (0..world).collect();
        let mut weights: Vec<f64> = vec![1.0; world];
        let mut loss_curve: Vec<(usize, f32)> = Vec::new();
        let mut events: Vec<String> = Vec::new();
        let mut diverged = false;
        let record_every = (exec_iters / 60).max(1);

        for it in 0..exec_iters {
            if diverged {
                if it % record_every == 0 {
                    loss_curve.push((it, DIVERGED_LOSS));
                }
                continue;
            }
            let epoch = it / iters_per_epoch;
            // Epoch boundary: `epoch` epochs are fully trained and the
            // workers idle between steps — the safe point to pull a
            // rolling checkpoint without perturbing the schedule.
            if let Some(every) = checkpoint_every {
                if it > 0 && it % iters_per_epoch == 0 && epoch.is_multiple_of(every.max(1)) {
                    let (reply_tx, reply_rx) = channel();
                    if cmd_txs[live[0]].send(Cmd::Snapshot { reply: reply_tx }).is_ok() {
                        if let Ok(bytes) = reply_rx.recv() {
                            on_checkpoint(epoch, bytes);
                        }
                    }
                }
            }
            let idx = batches.next_indices().to_vec();
            let batch_len = idx.len();
            let mut assignment = assign_shards(shard_batch(&idx), &live, &weights);

            // Phase 1: compute. Every live worker gets a command (an
            // empty one still elicits an ack, so death is detected no
            // matter where the shards went).
            let mut queues: HashMap<usize, VecDeque<Vec<Shard>>> = HashMap::new();
            let mut outstanding: VecDeque<usize> = VecDeque::new();
            for &rank in &live {
                let shards = assignment.remove(&rank).unwrap_or_default();
                queues.entry(rank).or_default().push_back(shards.clone());
                outstanding.push_back(rank);
                if cmd_txs[rank].send(Cmd::Compute { step: it, epoch, shards, batch_len }).is_err()
                {
                    // Death is surfaced uniformly via the missing ack.
                }
            }

            let mut stats_all = Vec::new();
            let mut grads_all = Vec::new();
            let mut samples: HashMap<usize, usize> = HashMap::new();
            while let Some(rank) = outstanding.pop_front() {
                match ack_rxs[rank].recv() {
                    Ok(Ack::Computed { stats, grads, .. }) => {
                        queues.get_mut(&rank).and_then(|q| q.pop_front());
                        for s in &stats {
                            *samples.entry(rank).or_insert(0) += s.samples;
                        }
                        stats_all.extend(stats);
                        if let Some(g) = grads {
                            grads_all.extend(g);
                        }
                    }
                    Ok(Ack::Applied { .. }) => {
                        return Err(format!("protocol violation: worker {rank} applied early"));
                    }
                    Err(_) => {
                        // Worker died. Reclaim every shard list still
                        // queued on it and redistribute over survivors.
                        let lost: Vec<Shard> = queues
                            .remove(&rank)
                            .map(|q| q.into_iter().flatten().collect())
                            .unwrap_or_default();
                        outstanding.retain(|&r| r != rank);
                        if let Some(pos) = live.iter().position(|&r| r == rank) {
                            live.remove(pos);
                            weights.remove(pos);
                        }
                        samples.remove(&rank);
                        if live.is_empty() {
                            return Err(format!(
                                "worker {rank} failed at step {it} and no workers remain"
                            ));
                        }
                        events.push(format!(
                            "step {it}: worker {rank} failed; redistributed {} shard(s) \
                             across {} surviving worker(s)",
                            lost.len(),
                            live.len()
                        ));
                        if !lost.is_empty() {
                            for (r2, shards) in assign_shards(lost, &live, &weights) {
                                queues.entry(r2).or_default().push_back(shards.clone());
                                outstanding.push_back(r2);
                                let _ = cmd_txs[r2].send(Cmd::Compute {
                                    step: it,
                                    epoch,
                                    shards,
                                    batch_len,
                                });
                            }
                        }
                    }
                }
            }

            // Simulated time for the step, before any rebalancing
            // reacts to it.
            let loads: Vec<(usize, f64)> = live
                .iter()
                .map(|&r| {
                    (samples.get(&r).copied().unwrap_or(0), dcfg.faults.straggle_factor(r, it))
                })
                .collect();
            tracker.record_step(&loads, batch_len, live.len(), dcfg.strategy);

            // Straggler detection and rebalance: adjust future shard
            // assignment weights from observed per-sample sim time.
            if dcfg.rebalance {
                let obs: Vec<(usize, f64)> = live
                    .iter()
                    .filter_map(|&r| {
                        let n = samples.get(&r).copied().unwrap_or(0);
                        (n > 0).then(|| {
                            (
                                r,
                                tracker.per_sample_reference(
                                    n,
                                    batch_len,
                                    dcfg.faults.straggle_factor(r, it),
                                ),
                            )
                        })
                    })
                    .collect();
                for det in detector.observe(&obs) {
                    if let Some(pos) = live.iter().position(|&r| r == det.worker) {
                        weights[pos] = det.weight;
                        events.push(format!(
                            "step {it}: worker {} straggling at {:.1}x the median; \
                             rebalanced to weight {:.2}",
                            det.worker, det.ratio, det.weight
                        ));
                    }
                }
            }

            // Step loss in canonical shard order — identical arithmetic
            // at every world size.
            stats_all.sort_by_key(|s| s.shard);
            debug_assert_eq!(
                stats_all.iter().map(|s| s.samples).sum::<usize>(),
                batch_len,
                "shard stats must cover the batch exactly once"
            );
            let mut acc = 0.0f32;
            for s in &stats_all {
                acc += s.loss * s.samples as f32;
            }
            let step_loss = acc / batch_len as f32;
            let nonfinite = stats_all.iter().any(|s| s.nonfinite_logits);
            if it % record_every == 0 {
                loss_curve.push((
                    it,
                    if step_loss.is_finite() {
                        step_loss.min(DIVERGED_LOSS)
                    } else {
                        DIVERGED_LOSS
                    },
                ));
            }
            if nonfinite || !step_loss.is_finite() || step_loss > 20.0 {
                diverged = true;
                for &rank in &live {
                    let _ = cmd_txs[rank].send(Cmd::Skip);
                }
                continue;
            }

            // Phase 2: the collective's reduce.
            let cmds = dcfg.strategy.reduce_cmds(&live, std::mem::take(&mut grads_all));
            for (&rank, cmd) in live.iter().zip(cmds) {
                let _ = cmd_txs[rank].send(cmd);
            }
            for &rank in &live {
                match ack_rxs[rank].recv() {
                    Ok(Ack::Applied { params_nonfinite, .. }) => {
                        if params_nonfinite {
                            diverged = true;
                        }
                    }
                    Ok(Ack::Computed { .. }) => {
                        return Err(format!("protocol violation: worker {rank} computed twice"));
                    }
                    Err(_) => {
                        return Err(format!("worker {rank} failed during the reduce of step {it}"));
                    }
                }
            }
        }

        // Retrieve the final parameters from the lowest surviving rank
        // (all replicas hold identical bits).
        let (reply_tx, reply_rx) = channel();
        let first = live[0];
        cmd_txs[first]
            .send(Cmd::Finish { reply: reply_tx })
            .map_err(|_| format!("worker {first} exited before the final checkpoint"))?;
        let checkpoint = reply_rx
            .recv()
            .map_err(|_| format!("worker {first} died before returning the checkpoint"))?;
        Ok(DriveResult { checkpoint, loss_curve, events, live_workers: live.len(), diverged })
    })?;

    // Rebuild the trained model from the checkpoint and evaluate.
    let mut model = trainer::build_cell_model(host, &setting, dataset, scale, seed);
    dlbench_nn::load_parameters(&mut model, &mut drive.checkpoint.as_slice())
        .map_err(|e| format!("final checkpoint unreadable: {e}"))?;
    let accuracy = trainer::evaluate(&mut model, &test, preprocessing, &channel_means);

    let (sims, comm) = tracker.finish(config.max_iterations);
    Ok(DistOutcome {
        host,
        strategy: dcfg.strategy,
        world_size: world,
        live_workers: drive.live_workers,
        accuracy,
        converged: trainer::converged(drive.diverged, &drive.loss_curve),
        loss_curve: drive.loss_curve,
        executed_iterations: exec_iters,
        paper_iterations: config.max_iterations,
        checkpoint: drive.checkpoint,
        model,
        events: drive.events,
        sims,
        comm,
        wall_seconds: started.elapsed_s(),
    })
}
