//! In-memory labelled dataset (image grids or token sequences).

use crate::stats::DatasetStats;
use dlbench_tensor::Tensor;

/// Which reference dataset a generated set stands in for.
///
/// `Ord` follows the paper's presentation order (MNIST first) so
/// keyed collections iterate deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetKind {
    /// MNIST stand-in (grayscale, sparse, low entropy).
    Mnist,
    /// CIFAR-10 stand-in (RGB, dense, high entropy).
    Cifar10,
    /// IMDB sentiment stand-in (token-id sequences, two classes) — the
    /// suite's text-workload axis.
    Imdb,
}

impl DatasetKind {
    /// Parses a dataset name case-insensitively (`mnist`,
    /// `cifar10`/`cifar-10`/`cifar`, `imdb`) — the one spelling table
    /// the CLI and run-spec files share.
    pub fn parse(raw: &str) -> Result<DatasetKind, String> {
        match raw.to_ascii_lowercase().as_str() {
            "mnist" => Ok(DatasetKind::Mnist),
            "cifar10" | "cifar-10" | "cifar" => Ok(DatasetKind::Cifar10),
            "imdb" => Ok(DatasetKind::Imdb),
            _ => Err(format!("unknown dataset `{raw}` (expected mnist|cifar10|imdb)")),
        }
    }

    /// Channel count of the reference data.
    pub fn channels(&self) -> usize {
        match self {
            DatasetKind::Mnist => 1,
            DatasetKind::Cifar10 => 3,
            DatasetKind::Imdb => 1,
        }
    }

    /// Native extent of the reference data: image side length for the
    /// image datasets (28 / 32), sequence length for IMDB (256 tokens).
    pub fn native_size(&self) -> usize {
        match self {
            DatasetKind::Mnist => 28,
            DatasetKind::Cifar10 => 32,
            DatasetKind::Imdb => 256,
        }
    }

    /// Reference training-set size (60,000 / 50,000 / 25,000).
    pub fn paper_train_samples(&self) -> usize {
        match self {
            DatasetKind::Mnist => 60_000,
            DatasetKind::Cifar10 => 50_000,
            DatasetKind::Imdb => 25_000,
        }
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> usize {
        match self {
            DatasetKind::Mnist | DatasetKind::Cifar10 => 10,
            DatasetKind::Imdb => 2,
        }
    }

    /// Whether samples are token-id sequences rather than image grids.
    pub fn is_text(&self) -> bool {
        matches!(self, DatasetKind::Imdb)
    }

    /// Display name matching the source material.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Mnist => "MNIST",
            DatasetKind::Cifar10 => "CIFAR-10",
            DatasetKind::Imdb => "IMDB",
        }
    }
}

/// A structured reason a dataset could not be constructed. Token
/// validity is enforced *here*, at construction, so the lookup kernels
/// downstream (`dlbench_nn::Embedding`) never have to panic on bad
/// data — they clamp, and this error is the only place invalid ids
/// surface.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetError {
    /// A token value is not a finite integer.
    TokenNotIntegral {
        /// Flat position of the offending value.
        index: usize,
        /// The offending value.
        value: f32,
    },
    /// A token id falls outside `[0, vocab)`.
    TokenOutOfRange {
        /// Flat position of the offending value.
        index: usize,
        /// The offending value.
        value: f32,
        /// Vocabulary size the id must stay below.
        vocab: usize,
    },
    /// The token tensor is not `[N, 1, L, 1]`.
    BadSequenceShape {
        /// The shape that was provided.
        shape: Vec<usize>,
    },
    /// Label count disagrees with the sample count.
    LabelCountMismatch {
        /// Samples in the tensor.
        samples: usize,
        /// Labels provided.
        labels: usize,
    },
    /// A label is not below `num_classes`.
    LabelOutOfRange {
        /// Index of the offending label.
        index: usize,
        /// The offending label.
        label: usize,
        /// Exclusive upper bound.
        num_classes: usize,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::TokenNotIntegral { index, value } => {
                write!(f, "token at position {index} is not a finite integer: {value}")
            }
            DatasetError::TokenOutOfRange { index, value, vocab } => {
                write!(f, "token at position {index} is out of range: {value} (vocab {vocab})")
            }
            DatasetError::BadSequenceShape { shape } => {
                write!(f, "token tensor must be [N, 1, L, 1], got {shape:?}")
            }
            DatasetError::LabelCountMismatch { samples, labels } => {
                write!(f, "{samples} samples but {labels} labels")
            }
            DatasetError::LabelOutOfRange { index, label, num_classes } => {
                write!(f, "label {label} at index {index} not below {num_classes}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A labelled dataset held in memory: samples `[N, C, H, W]` plus
/// integer class labels. Image datasets store intensities in `[0, 1]`
/// with `H == W`; the text dataset stores token ids as `[N, 1, L, 1]`
/// (one id per sequence position, validated at construction).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which reference dataset this stands in for.
    pub kind: DatasetKind,
    /// Sample tensor `[N, C, H, W]`.
    pub images: Tensor,
    /// Class label per sample.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Constructs a token-sequence dataset, validating every token id
    /// against `vocab` and every label against `num_classes`. This is
    /// the only door sequence data enters through, so a malformed id is
    /// a structured [`DatasetError`] here — never a panic in a kernel.
    pub fn sequences(
        kind: DatasetKind,
        tokens: Tensor,
        labels: Vec<usize>,
        num_classes: usize,
        vocab: usize,
    ) -> Result<Dataset, DatasetError> {
        let shape = tokens.shape();
        if shape.len() != 4 || shape[1] != 1 || shape[3] != 1 {
            return Err(DatasetError::BadSequenceShape { shape: shape.to_vec() });
        }
        if shape[0] != labels.len() {
            return Err(DatasetError::LabelCountMismatch {
                samples: shape[0],
                labels: labels.len(),
            });
        }
        for (index, &value) in tokens.data().iter().enumerate() {
            if !value.is_finite() || value.fract() != 0.0 {
                return Err(DatasetError::TokenNotIntegral { index, value });
            }
            if value < 0.0 || value >= vocab as f32 {
                return Err(DatasetError::TokenOutOfRange { index, value, vocab });
            }
        }
        for (index, &label) in labels.iter().enumerate() {
            if label >= num_classes {
                return Err(DatasetError::LabelOutOfRange { index, label, num_classes });
            }
        }
        Ok(Dataset { kind, images: tokens, labels, num_classes })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Primary sample extent: image side length for image data,
    /// sequence length for token data (the `H` axis either way).
    pub fn size(&self) -> usize {
        self.images.shape()[2]
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.images.shape()[1]
    }

    /// The full per-sample shape (`[C, H, W]`).
    pub fn sample_shape(&self) -> &[usize] {
        &self.images.shape()[1..]
    }

    /// Splits off the first `n` samples as one dataset and the rest as
    /// another (generators already randomize order, so a prefix split is
    /// unbiased). The per-sample shape is carried over verbatim, so
    /// non-square sample shapes (token sequences) survive the split.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn split(&self, n: usize) -> (Dataset, Dataset) {
        assert!(n <= self.len(), "split point beyond dataset");
        let sample: usize = self.sample_shape().iter().product();
        let head =
            Tensor::from_vec(&self.batch_shape(n), self.images.data()[..n * sample].to_vec())
                .expect("head slice is consistent");
        let tail_n = self.len() - n;
        let tail =
            Tensor::from_vec(&self.batch_shape(tail_n), self.images.data()[n * sample..].to_vec())
                .expect("tail slice is consistent");
        (
            Dataset {
                kind: self.kind,
                images: head,
                labels: self.labels[..n].to_vec(),
                num_classes: self.num_classes,
            },
            Dataset {
                kind: self.kind,
                images: tail,
                labels: self.labels[n..].to_vec(),
                num_classes: self.num_classes,
            },
        )
    }

    /// Gathers a batch of samples at the given indices, preserving the
    /// per-sample shape.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let sample: usize = self.sample_shape().iter().product();
        let mut data = Vec::with_capacity(indices.len() * sample);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "gather index {i} out of range");
            data.extend_from_slice(&self.images.data()[i * sample..(i + 1) * sample]);
            labels.push(self.labels[i]);
        }
        let images = Tensor::from_vec(&self.batch_shape(indices.len()), data)
            .expect("gathered batch is consistent");
        (images, labels)
    }

    fn batch_shape(&self, n: usize) -> Vec<usize> {
        let mut shape = self.images.shape().to_vec();
        shape[0] = n;
        shape
    }

    /// Characterization statistics (entropy, sparsity, channel moments)
    /// used by the benchmark's dataset-analysis metric.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::measure(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let images = Tensor::arange(2 * 2 * 2).reshape(&[2, 1, 2, 2]).unwrap();
        Dataset { kind: DatasetKind::Mnist, images, labels: vec![3, 7], num_classes: 10 }
    }

    fn toy_seq() -> Dataset {
        let tokens = Tensor::from_vec(&[2, 1, 3, 1], vec![0.0, 2.0, 1.0, 3.0, 3.0, 0.0]).unwrap();
        Dataset::sequences(DatasetKind::Imdb, tokens, vec![0, 1], 2, 4).unwrap()
    }

    #[test]
    fn parse_accepts_every_spelling_case_insensitively() {
        for (raw, ds) in [
            ("mnist", DatasetKind::Mnist),
            ("CIFAR-10", DatasetKind::Cifar10),
            ("cifar10", DatasetKind::Cifar10),
            ("cifar", DatasetKind::Cifar10),
            ("IMDB", DatasetKind::Imdb),
        ] {
            assert_eq!(DatasetKind::parse(raw), Ok(ds), "{raw}");
        }
        let err = DatasetKind::parse("imagenet").unwrap_err();
        assert!(err.contains("`imagenet`") && err.contains("mnist|cifar10|imdb"), "{err}");
    }

    #[test]
    fn split_partitions_samples() {
        let d = toy();
        let (a, b) = d.split(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.labels, vec![3]);
        assert_eq!(b.labels, vec![7]);
        assert_eq!(b.images.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn gather_reorders() {
        let d = toy();
        let (imgs, labels) = d.gather(&[1, 0]);
        assert_eq!(labels, vec![7, 3]);
        assert_eq!(imgs.shape(), &[2, 1, 2, 2]);
        assert_eq!(&imgs.data()[..4], &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn split_and_gather_preserve_sequence_shape() {
        // Regression: split/gather used to rebuild `[n, c, size, size]`
        // square shapes, silently corrupting non-square [N, 1, L, 1]
        // token data.
        let d = toy_seq();
        let (a, b) = d.split(1);
        assert_eq!(a.images.shape(), &[1, 1, 3, 1]);
        assert_eq!(b.images.shape(), &[1, 1, 3, 1]);
        assert_eq!(b.images.data(), &[3.0, 3.0, 0.0]);
        let (batch, labels) = d.gather(&[1, 0, 1]);
        assert_eq!(batch.shape(), &[3, 1, 3, 1]);
        assert_eq!(labels, vec![1, 0, 1]);
        assert_eq!(&batch.data()[..3], &[3.0, 3.0, 0.0]);
    }

    #[test]
    fn sequences_reject_bad_tokens_with_structured_errors() {
        let mk = |vals: Vec<f32>| Tensor::from_vec(&[1, 1, 3, 1], vals).unwrap();
        let err = Dataset::sequences(DatasetKind::Imdb, mk(vec![0.0, 5.0, 1.0]), vec![0], 2, 4)
            .unwrap_err();
        assert_eq!(err, DatasetError::TokenOutOfRange { index: 1, value: 5.0, vocab: 4 });
        let err = Dataset::sequences(DatasetKind::Imdb, mk(vec![0.0, -1.0, 1.0]), vec![0], 2, 4)
            .unwrap_err();
        assert_eq!(err, DatasetError::TokenOutOfRange { index: 1, value: -1.0, vocab: 4 });
        let err = Dataset::sequences(DatasetKind::Imdb, mk(vec![0.0, 1.5, 1.0]), vec![0], 2, 4)
            .unwrap_err();
        assert_eq!(err, DatasetError::TokenNotIntegral { index: 1, value: 1.5 });
        let err =
            Dataset::sequences(DatasetKind::Imdb, mk(vec![0.0, f32::NAN, 1.0]), vec![0], 2, 4)
                .unwrap_err();
        assert!(matches!(err, DatasetError::TokenNotIntegral { index: 1, .. }));
        let err = Dataset::sequences(DatasetKind::Imdb, mk(vec![0.0, 1.0, 1.0]), vec![2], 2, 4)
            .unwrap_err();
        assert_eq!(err, DatasetError::LabelOutOfRange { index: 0, label: 2, num_classes: 2 });
        // Errors render human-readably.
        let text = format!("{}", DatasetError::TokenOutOfRange { index: 7, value: 9.0, vocab: 4 });
        assert!(text.contains("position 7") && text.contains("vocab 4"), "{text}");
    }

    #[test]
    fn sequences_reject_bad_shapes() {
        let square = Tensor::zeros(&[1, 1, 2, 2]);
        let err = Dataset::sequences(DatasetKind::Imdb, square, vec![0], 2, 4).unwrap_err();
        assert!(matches!(err, DatasetError::BadSequenceShape { .. }));
        let tokens = Tensor::zeros(&[2, 1, 3, 1]);
        let err = Dataset::sequences(DatasetKind::Imdb, tokens, vec![0], 2, 4).unwrap_err();
        assert_eq!(err, DatasetError::LabelCountMismatch { samples: 2, labels: 1 });
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(DatasetKind::Mnist.channels(), 1);
        assert_eq!(DatasetKind::Cifar10.channels(), 3);
        assert_eq!(DatasetKind::Imdb.channels(), 1);
        assert_eq!(DatasetKind::Mnist.native_size(), 28);
        assert_eq!(DatasetKind::Cifar10.native_size(), 32);
        assert_eq!(DatasetKind::Imdb.native_size(), 256);
        assert_eq!(DatasetKind::Mnist.paper_train_samples(), 60_000);
        assert_eq!(DatasetKind::Cifar10.paper_train_samples(), 50_000);
        assert_eq!(DatasetKind::Imdb.paper_train_samples(), 25_000);
        assert_eq!(DatasetKind::Imdb.num_classes(), 2);
        assert!(DatasetKind::Imdb.is_text());
        assert!(!DatasetKind::Mnist.is_text());
    }
}
