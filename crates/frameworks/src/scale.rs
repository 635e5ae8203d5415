//! Experiment scale presets.
//!
//! The paper trains at full dataset scale on a GPU testbed; this
//! reproduction runs on a small CPU host, so accuracy-bearing training
//! uses proportionally reduced configurations. Crucially, the *timing*
//! metrics never depend on the reduction: simulated training/testing
//! times are computed analytically from the full paper-scale schedule
//! and architecture (see `dlbench-simtime`), while accuracy is measured
//! by really training the scaled configuration.

use dlbench_data::DatasetKind;

/// A reduction preset for accuracy-bearing training runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scale {
    /// Minimal scale for unit/integration tests (seconds per cell).
    Tiny,
    /// Benchmark-grade scale (tens of seconds per cell).
    Small,
    /// Full paper scale (hours; native image sizes and iteration
    /// budgets — provided for completeness).
    Paper,
}

impl Scale {
    /// Parses a scale name case-insensitively (`tiny`/`small`/`paper`,
    /// any capitalization, surrounding whitespace ignored).
    pub fn parse(raw: &str) -> Option<Scale> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Image side length used for training at this scale. For text
    /// datasets this is the *sequence length* (tokens per sample) —
    /// longer than the image sides, since a width-5 conv branch needs
    /// headroom and token sequences are cheap (one id per position).
    pub fn image_size(&self, ds: DatasetKind) -> usize {
        if ds.is_text() {
            return match self {
                Scale::Tiny => 16,
                Scale::Small => 32,
                Scale::Paper => ds.native_size(),
            };
        }
        match self {
            Scale::Tiny => 12,
            Scale::Small => 16,
            Scale::Paper => ds.native_size(),
        }
    }

    /// Training-set size at this scale.
    pub fn train_samples(&self, ds: DatasetKind) -> usize {
        match self {
            Scale::Tiny => 300,
            Scale::Small => 2_000,
            Scale::Paper => ds.paper_train_samples(),
        }
    }

    /// Test-set size at this scale.
    pub fn test_samples(&self) -> usize {
        match self {
            Scale::Tiny => 100,
            Scale::Small => 500,
            Scale::Paper => 10_000,
        }
    }

    /// Channel/feature width multiplier applied to interior layers.
    pub fn width_mult(&self) -> f32 {
        match self {
            Scale::Tiny => 0.25,
            Scale::Small => 0.5,
            Scale::Paper => 1.0,
        }
    }

    /// Executed epochs standing in for a paper budget of `paper_epochs`.
    ///
    /// Square-root compression keeps the *ordering* of training budgets
    /// (TensorFlow's 2,560-epoch CIFAR-10 run still trains by far the
    /// longest) while keeping the longest cell bounded.
    pub fn exec_epochs(&self, paper_epochs: f32) -> usize {
        let compressed = paper_epochs.max(1.0).sqrt();
        let (mult, cap) = match self {
            Scale::Tiny => (0.5, 3.0),
            Scale::Small => (1.0, 14.0),
            Scale::Paper => return paper_epochs.ceil() as usize,
        };
        (compressed * mult).ceil().min(cap) as usize
    }

    /// Minimum optimizer steps per run. Low-learning-rate configs
    /// (TensorFlow's Adam at 1e-4, Caffe's CIFAR-10 SGD at 1e-3) need a
    /// floor of steps to move at all; without it, tiny datasets with
    /// large batches would execute a handful of iterations and measure
    /// noise.
    pub fn min_iterations(&self, ds: DatasetKind) -> usize {
        match (self, ds) {
            (Scale::Tiny, _) => 300,
            (Scale::Small, DatasetKind::Mnist) => 600,
            (Scale::Small, DatasetKind::Cifar10) => 450,
            (Scale::Small, DatasetKind::Imdb) => 450,
            (Scale::Paper, _) => 0,
        }
    }

    /// Executed iterations for a config with the given batch size and
    /// paper epoch budget.
    pub fn exec_iterations(&self, paper_epochs: f32, batch_size: usize, ds: DatasetKind) -> usize {
        let epochs = self.exec_epochs(paper_epochs);
        let samples = self.train_samples(ds);
        ((epochs * samples) / batch_size.max(1)).max(self.min_iterations(ds))
    }

    /// Additional step floor for plain SGD configurations: the step
    /// count SGD needs scales like `1/lr`, so epoch compression starves
    /// low-rate solvers (Caffe's CIFAR-10 quick solver at 1e-3) long
    /// before high-rate ones. Capped so no single cell dominates the
    /// harness.
    pub fn sgd_step_floor(&self, base_lr: f32) -> usize {
        let (k, cap) = match self {
            Scale::Tiny => (1.5f32, 1_500usize),
            Scale::Small => (1.2, 1_200),
            Scale::Paper => return 0,
        };
        ((k / base_lr.max(1e-6)) as usize).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_case_insensitive_and_rejects_unknown() {
        // Regression: only the exact strings `tiny`/`TINY` (etc.) used
        // to match, so `Tiny` silently ran at Small scale.
        for raw in ["tiny", "TINY", "Tiny", " tiny ", "tInY"] {
            assert_eq!(Scale::parse(raw), Some(Scale::Tiny), "{raw:?}");
        }
        assert_eq!(Scale::parse("Small"), Some(Scale::Small));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::parse(""), None);
    }

    #[test]
    fn paper_scale_is_identity() {
        assert_eq!(Scale::Paper.image_size(DatasetKind::Mnist), 28);
        assert_eq!(Scale::Paper.image_size(DatasetKind::Cifar10), 32);
        assert_eq!(Scale::Paper.train_samples(DatasetKind::Mnist), 60_000);
        assert_eq!(Scale::Paper.exec_epochs(2560.0), 2560);
        assert_eq!(Scale::Paper.width_mult(), 1.0);
    }

    #[test]
    fn epoch_compression_preserves_ordering() {
        let s = Scale::Small;
        let tf_cifar = s.exec_epochs(2560.0);
        let caffe_cifar = s.exec_epochs(10.0);
        let torch_cifar = s.exec_epochs(20.0);
        assert!(tf_cifar > torch_cifar);
        assert!(torch_cifar > caffe_cifar);
        assert!(tf_cifar <= 14, "cap bounds the longest cell");
    }

    #[test]
    fn exec_iterations_accounts_for_batch() {
        // Above the floor, iteration counts scale inversely with batch.
        let s = Scale::Paper;
        let it_b10 = s.exec_iterations(20.0, 10, DatasetKind::Mnist);
        let it_b100 = s.exec_iterations(20.0, 100, DatasetKind::Mnist);
        assert_eq!(it_b10, 10 * it_b100);
    }

    #[test]
    fn iteration_floor_guarantees_optimizer_steps() {
        // Tiny scale: 3 epochs x 300 samples / batch 50 would be 18
        // steps — too few for Adam at lr 1e-4; the floor kicks in.
        let s = Scale::Tiny;
        assert_eq!(s.exec_iterations(16.67, 50, DatasetKind::Mnist), 300);
        assert_eq!(Scale::Small.min_iterations(DatasetKind::Mnist), 600);
    }

    #[test]
    fn tiny_cells_are_tiny() {
        let s = Scale::Tiny;
        // Worst case: Torch CIFAR batch 1.
        let iters = s.exec_iterations(20.0, 1, DatasetKind::Cifar10);
        assert!(iters <= 1_000, "tiny scale must stay testable: {iters}");
    }
}
