//! Queue-depth / p99-driven autoscaling as a pure state machine.
//!
//! The autoscaler never touches replicas itself: it observes a
//! `FleetSignal` each tick and returns a `ScaleDecision` for the
//! caller (the fleet simulator, or an operator loop around a real
//! [`crate::Fleet`]) to act on. Keeping it pure makes the hysteresis
//! behaviour unit-testable and the simulated sweeps bit-reproducible —
//! decisions depend only on the observed signal sequence, never on
//! wall-clock.
//!
//! Scale-up triggers when outstanding-per-replica or the recent p99
//! runs hot for `up_streak` consecutive ticks; scale-down needs a
//! longer cold streak (`down_streak`) *and* comfortable latency
//! headroom, the classic asymmetric hysteresis that prevents flapping.
//! A cooldown separates consecutive actions, and while freshly added
//! replicas are still warming the autoscaler holds rather than piling
//! on capacity it cannot yet observe.

/// Autoscaler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Never scale below this many replicas.
    pub min_replicas: usize,
    /// Never scale above this many replicas.
    pub max_replicas: usize,
    /// Scale-up pressure threshold: outstanding requests per replica.
    pub up_queue_per_replica: f64,
    /// Scale-down comfort threshold: outstanding requests per replica.
    pub down_queue_per_replica: f64,
    /// Consecutive hot ticks required before scaling up.
    pub up_streak: usize,
    /// Consecutive cold ticks required before scaling down (longer
    /// than `up_streak`: adding capacity late sheds traffic, removing
    /// it late only costs money).
    pub down_streak: usize,
    /// Seconds a new replica takes to warm before accepting traffic.
    pub warmup_s: f64,
    /// Minimum seconds between consecutive scale actions.
    pub cooldown_s: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 8,
            up_queue_per_replica: 6.0,
            down_queue_per_replica: 1.0,
            up_streak: 2,
            down_streak: 6,
            warmup_s: 0.5,
            cooldown_s: 2.0,
        }
    }
}

impl AutoscaleConfig {
    /// The default config with its time constants shrunk to react
    /// within an observation window of `window_s` sim-seconds. The
    /// stock warmup/cooldown are tuned for long-lived serving; a sweep
    /// cell whose arrivals span milliseconds of sim-time would end
    /// before the first cooldown expired, so the simulator scales the
    /// constants to the window (never above the defaults).
    pub(crate) fn for_window(window_s: f64) -> Self {
        let w = window_s.max(1e-3);
        Self { warmup_s: (w / 100.0).min(0.5), cooldown_s: (w / 25.0).min(2.0), ..Self::default() }
    }
}

/// What the autoscaler observes each tick.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FleetSignal {
    /// Replicas currently provisioned (including warming ones).
    pub replicas: usize,
    /// Of those, how many are still warming (not yet taking traffic).
    pub warming: usize,
    /// Total outstanding requests across the fleet (queued +
    /// in-flight, the flush-time depth gauge).
    pub outstanding: usize,
    /// p99 latency over the last observation window, if any requests
    /// completed in it.
    pub p99_ms: Option<f64>,
    /// The latency SLO the fleet is holding.
    pub target_p99_ms: f64,
}

/// The autoscaler's verdict for one tick. `Up`/`Down` carry the new
/// *total* replica count to provision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleDecision {
    /// No change.
    Hold,
    /// Scale up to this many replicas.
    Up(usize),
    /// Scale down to this many replicas.
    Down(usize),
}

/// Hysteresis state between ticks.
#[derive(Debug)]
pub(crate) struct Autoscaler {
    config: AutoscaleConfig,
    hot_run: usize,
    cold_run: usize,
    last_action_s: f64,
}

impl Autoscaler {
    /// A fresh autoscaler; the first action can fire as soon as a
    /// streak completes (no initial cooldown).
    pub fn new(config: AutoscaleConfig) -> Self {
        Self { config, hot_run: 0, cold_run: 0, last_action_s: f64::NEG_INFINITY }
    }

    /// Observes one tick and decides. `now_s` is the caller's clock
    /// (simtime seconds in the simulator); it must be non-decreasing.
    pub fn observe(&mut self, now_s: f64, sig: &FleetSignal) -> ScaleDecision {
        let c = self.config;
        let total = sig.replicas.max(1);
        let per_replica = sig.outstanding as f64 / total as f64;
        let hot = per_replica > c.up_queue_per_replica
            || sig.p99_ms.is_some_and(|p| p > sig.target_p99_ms);
        // Cold requires both a near-empty queue and real latency
        // headroom: p99 under half the target (or an idle window).
        let cold = per_replica < c.down_queue_per_replica
            && sig.p99_ms.is_none_or(|p| p < 0.5 * sig.target_p99_ms);
        if hot {
            self.hot_run += 1;
            self.cold_run = 0;
        } else if cold {
            self.cold_run += 1;
            self.hot_run = 0;
        } else {
            self.hot_run = 0;
            self.cold_run = 0;
        }
        let cooled = now_s - self.last_action_s >= c.cooldown_s;
        if hot && self.hot_run >= c.up_streak && cooled && sig.replicas < c.max_replicas {
            if sig.warming > 0 {
                // Capacity is already on the way; let it land first.
                return ScaleDecision::Hold;
            }
            // Multiplicative growth reacts to heavy-tailed bursts in
            // O(log n) actions instead of one replica at a time.
            let to = (sig.replicas + (sig.replicas / 2).max(1)).min(c.max_replicas);
            self.last_action_s = now_s;
            self.hot_run = 0;
            return ScaleDecision::Up(to);
        }
        if cold && self.cold_run >= c.down_streak && cooled && sig.replicas > c.min_replicas {
            let to = (sig.replicas - 1).max(c.min_replicas);
            self.last_action_s = now_s;
            self.cold_run = 0;
            return ScaleDecision::Down(to);
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(replicas: usize, outstanding: usize, p99_ms: Option<f64>) -> FleetSignal {
        FleetSignal { replicas, warming: 0, outstanding, p99_ms, target_p99_ms: 50.0 }
    }

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig { up_streak: 2, down_streak: 3, cooldown_s: 2.0, ..Default::default() }
    }

    #[test]
    fn one_hot_tick_does_not_scale() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(a.observe(0.0, &sig(2, 100, None)), ScaleDecision::Hold);
    }

    #[test]
    fn sustained_pressure_scales_up_multiplicatively() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(a.observe(0.0, &sig(2, 100, None)), ScaleDecision::Hold);
        assert_eq!(a.observe(0.5, &sig(2, 100, None)), ScaleDecision::Up(3));
    }

    #[test]
    fn p99_breach_alone_triggers_scale_up() {
        let mut a = Autoscaler::new(cfg());
        // Queue looks fine, latency does not.
        assert_eq!(a.observe(0.0, &sig(2, 2, Some(80.0))), ScaleDecision::Hold);
        assert_eq!(a.observe(0.5, &sig(2, 2, Some(80.0))), ScaleDecision::Up(3));
    }

    #[test]
    fn cooldown_separates_actions() {
        let mut a = Autoscaler::new(cfg());
        a.observe(0.0, &sig(2, 100, None));
        assert_eq!(a.observe(0.5, &sig(2, 100, None)), ScaleDecision::Up(3));
        // Still hot, but inside the cooldown window.
        a.observe(1.0, &sig(3, 100, None));
        assert_eq!(a.observe(1.5, &sig(3, 100, None)), ScaleDecision::Hold);
        // Past the cooldown, the sustained pressure acts again.
        assert_eq!(a.observe(3.0, &sig(3, 100, None)), ScaleDecision::Up(4));
    }

    #[test]
    fn holds_while_capacity_is_warming() {
        let mut a = Autoscaler::new(cfg());
        let mut s = sig(3, 100, None);
        s.warming = 1;
        a.observe(0.0, &s);
        assert_eq!(a.observe(0.5, &s), ScaleDecision::Hold);
    }

    #[test]
    fn scale_down_needs_longer_streak_and_headroom() {
        let mut a = Autoscaler::new(cfg());
        let idle = sig(4, 0, Some(5.0));
        assert_eq!(a.observe(0.0, &idle), ScaleDecision::Hold);
        assert_eq!(a.observe(1.0, &idle), ScaleDecision::Hold);
        assert_eq!(a.observe(2.0, &idle), ScaleDecision::Down(3));
        // p99 near the target blocks scale-down even with empty queues.
        let mut b = Autoscaler::new(cfg());
        let tight = sig(4, 0, Some(40.0));
        for t in 0..6 {
            assert_eq!(b.observe(t as f64, &tight), ScaleDecision::Hold);
        }
    }

    #[test]
    fn respects_min_and_max_bounds() {
        let mut a = Autoscaler::new(cfg());
        let idle = sig(1, 0, None);
        for t in 0..10 {
            assert_eq!(a.observe(t as f64, &idle), ScaleDecision::Hold, "min bound");
        }
        let mut b = Autoscaler::new(cfg());
        let hot = sig(8, 500, None);
        for t in 0..10 {
            assert_eq!(b.observe(t as f64, &hot), ScaleDecision::Hold, "max bound");
        }
    }

    #[test]
    fn mixed_signal_resets_both_streaks() {
        let mut a = Autoscaler::new(cfg());
        a.observe(0.0, &sig(2, 100, None)); // hot
        a.observe(0.5, &sig(2, 4, Some(20.0))); // neither hot nor cold
        assert_eq!(a.observe(1.0, &sig(2, 100, None)), ScaleDecision::Hold, "streak was reset");
    }
}
