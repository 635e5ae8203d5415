//! Activation-range calibration observers.

/// Streams batches of one tensor's values and records the statistics
/// post-training quantization needs: the absolute min/max ever
/// observed, and an exponential moving average of per-batch
/// percentiles. The EMA percentile range is what the affine quantizer
/// is derived from — it ignores rare outliers that would otherwise
/// stretch the scale and waste int8 resolution — while the absolute
/// range is kept for the calibration report.
///
/// Everything is deterministic: percentile extraction sorts with
/// `f32::total_cmp` and the EMA folds batches in arrival order, so the
/// same shard always produces the same quantizer.
#[derive(Debug, Clone)]
pub(crate) struct RangeObserver {
    percentile: f32,
    momentum: f32,
    min: f32,
    max: f32,
    ema_lo: f32,
    ema_hi: f32,
    batches: usize,
}

impl RangeObserver {
    /// An observer tracking the symmetric `percentile`
    /// (e.g. `0.999` keeps the [0.1%, 99.9%] span) with EMA `momentum`
    /// (weight of the running average per batch, e.g. `0.9`).
    ///
    /// # Panics
    ///
    /// Panics unless `0.5 < percentile <= 1.0` and
    /// `0.0 <= momentum < 1.0`.
    pub fn new(percentile: f32, momentum: f32) -> Self {
        assert!(percentile > 0.5 && percentile <= 1.0, "percentile must be in (0.5, 1]");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            percentile,
            momentum,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            ema_lo: 0.0,
            ema_hi: 0.0,
            batches: 0,
        }
    }

    /// Folds one batch of values into the running statistics.
    /// Empty batches are ignored.
    pub fn observe(&mut self, batch: &[f32]) {
        if batch.is_empty() {
            return;
        }
        let mut sorted: Vec<f32> = batch.to_vec();
        sorted.sort_by(f32::total_cmp);
        self.min = self.min.min(sorted[0]);
        self.max = self.max.max(sorted[sorted.len() - 1]);
        let hi_idx = (((sorted.len() - 1) as f64) * self.percentile as f64).floor() as usize;
        let lo_idx = sorted.len() - 1 - hi_idx;
        let (lo, hi) = (sorted[lo_idx], sorted[hi_idx]);
        if self.batches == 0 {
            self.ema_lo = lo;
            self.ema_hi = hi;
        } else {
            self.ema_lo = self.momentum * self.ema_lo + (1.0 - self.momentum) * lo;
            self.ema_hi = self.momentum * self.ema_hi + (1.0 - self.momentum) * hi;
        }
        self.batches += 1;
    }

    /// Absolute (min, max) ever observed. Meaningless before the first
    /// [`RangeObserver::observe`].
    pub fn observed(&self) -> (f32, f32) {
        (self.min, self.max)
    }

    /// The calibrated range the quantizer covers: the EMA percentile
    /// span, clamped inside the absolute observed range and widened to
    /// include zero (so the affine zero point represents 0.0 exactly —
    /// conv padding depends on that).
    pub fn range(&self) -> (f32, f32) {
        let lo = self.ema_lo.max(self.min).min(0.0);
        let hi = self.ema_hi.min(self.max).max(0.0);
        if hi - lo > f32::MIN_POSITIVE {
            (lo, hi)
        } else {
            // Degenerate (constant-zero) activations: any positive
            // span works, every value maps to the zero point.
            (lo, lo + 1.0)
        }
    }

    /// Affine quantizer for the calibrated range: `scale` spanning it
    /// over the 255 int8 steps and the `zero_point` that makes 0.0
    /// exactly representable.
    pub fn affine_params(&self) -> (f32, i8) {
        let (lo, hi) = self.range();
        let scale = ((hi - lo) / 255.0).max(f32::MIN_POSITIVE);
        let zp = (-128.0 - lo / scale).round().clamp(-128.0, 127.0) as i8;
        (scale, zp)
    }

    /// Fraction of `batch` falling outside the calibrated range — the
    /// values the quantizer clips. Used by the second calibration pass
    /// to report the clipped fraction per layer.
    pub fn count_clipped(&self, batch: &[f32]) -> u64 {
        let (lo, hi) = self.range();
        batch.iter().filter(|&&v| v < lo || v > hi).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_tracks_extremes_and_range_includes_zero() {
        let mut o = RangeObserver::new(1.0, 0.9);
        o.observe(&[1.0, 2.0, 3.0]);
        o.observe(&[0.5, 4.0]);
        assert_eq!(o.observed(), (0.5, 4.0));
        let (lo, hi) = o.range();
        assert!(lo <= 0.0, "range must include zero, got lo {lo}");
        // EMA lags the absolute max by design: 0.9·3 + 0.1·4 = 3.1.
        assert!((hi - 3.1).abs() < 1e-5, "EMA hi should be 3.1, got {hi}");
        assert!(hi <= 4.0, "range never exceeds the observed max");
    }

    #[test]
    fn percentile_ignores_rare_outliers() {
        let mut o = RangeObserver::new(0.95, 0.0);
        let mut batch: Vec<f32> = (0..1000).map(|i| i as f32 / 1000.0).collect();
        batch.push(1e6); // a single outlier
        o.observe(&batch);
        let (_, hi) = o.range();
        assert!(hi < 10.0, "the 95th percentile should ignore the outlier, got {hi}");
        assert!(o.count_clipped(&batch) >= 1);
    }

    #[test]
    fn affine_params_make_zero_exact() {
        let mut o = RangeObserver::new(0.999, 0.9);
        o.observe(&[-0.3, 1.7, 0.2, 0.9, -0.1]);
        let (scale, zp) = o.affine_params();
        // 0.0 quantizes to exactly the zero point and back to 0.0.
        let q = ((0.0 / scale).round() + zp as f32).clamp(-128.0, 127.0) as i8;
        assert_eq!(q, zp);
        assert!(scale > 0.0);
    }

    #[test]
    fn constant_zero_activations_do_not_degenerate() {
        let mut o = RangeObserver::new(0.999, 0.9);
        o.observe(&[0.0; 32]);
        let (scale, _) = o.affine_params();
        assert!(scale > 0.0 && scale.is_finite());
    }
}
