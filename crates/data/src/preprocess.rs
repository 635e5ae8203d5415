//! Per-framework input preprocessing pipelines.
//!
//! Each reference framework ships a different default input pipeline,
//! and — as the paper's Caffe-MNIST-settings-on-CIFAR divergence shows —
//! the pipeline travels with the *configuration*, so it is part of the
//! default-setting database rather than the dataset.

use crate::dataset::Dataset;
use dlbench_tensor::Tensor;

/// An input preprocessing scheme applied to `[N, C, H, W]` batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preprocessing {
    /// Keep raw `[0, 1]` intensities (Caffe's LeNet `scale: 0.00390625`
    /// pipeline: bytes scaled to `[0, 1]`, no centering).
    Raw01,
    /// Subtract the per-channel training-set mean (Caffe's CIFAR-10
    /// `mean.binaryproto` pipeline).
    MeanSubtract,
    /// Per-image standardization to zero mean / unit variance
    /// (TensorFlow's `tf.image.per_image_standardization`; Torch's
    /// global normalization behaves equivalently for our generator).
    Standardize,
    /// Raw byte-range values (`[0, 255]`): what a Caffe net sees when a
    /// transplanted prototxt loses its dataset-specific `scale`
    /// transform. Feeding byte-range inputs into a LeNet-class model
    /// explodes the softmax immediately — the mechanism behind the
    /// paper's Figure 5 flat-loss divergence (Caffe reports exactly
    /// `-ln(FLT_MIN) ≈ 87.34` forever).
    RawBytes,
    /// Token-id passthrough for text sequences: ids are categorical, so
    /// every numeric transform above would destroy them. Explicit (not
    /// `Raw01`) so a configuration table shows the text pipeline by
    /// name, and so numeric schemes transplanted onto token data are
    /// distinguishable from the intended no-op.
    TokenIds,
}

impl Preprocessing {
    /// Short name for configuration tables.
    pub fn name(&self) -> &'static str {
        match self {
            Preprocessing::Raw01 => "scale 1/256",
            Preprocessing::MeanSubtract => "mean subtract",
            Preprocessing::Standardize => "standardize",
            Preprocessing::RawBytes => "raw bytes (no scale)",
            Preprocessing::TokenIds => "token ids (passthrough)",
        }
    }

    /// Per-channel means of a dataset (the "training mean" a Caffe-style
    /// pipeline would bake in).
    pub fn channel_means(dataset: &Dataset) -> Vec<f32> {
        let c = dataset.channels();
        let plane = dataset.images.shape()[2] * dataset.images.shape()[3];
        let n = dataset.len();
        let mut means = vec![0.0f32; c];
        for s in 0..n {
            for (ch, m) in means.iter_mut().enumerate() {
                let off = (s * c + ch) * plane;
                *m += dataset.images.data()[off..off + plane].iter().sum::<f32>();
            }
        }
        means.iter().map(|m| m / (n * plane) as f32).collect()
    }

    /// The `channel_means` [`Preprocessing::apply`] needs: the
    /// per-channel means of `train` under
    /// [`Preprocessing::MeanSubtract`], empty for every other scheme.
    pub fn means_for(&self, train: &Dataset) -> Vec<f32> {
        if *self == Preprocessing::MeanSubtract {
            Self::channel_means(train)
        } else {
            Vec::new()
        }
    }

    /// Applies the preprocessing to a batch. `channel_means` must be the
    /// training-set means when the scheme is [`Preprocessing::MeanSubtract`]
    /// (ignored otherwise).
    pub fn apply(&self, batch: &Tensor, channel_means: &[f32]) -> Tensor {
        match self {
            Preprocessing::Raw01 | Preprocessing::TokenIds => batch.clone(),
            Preprocessing::RawBytes => batch.scale(255.0),
            Preprocessing::MeanSubtract => {
                let (n, c) = (batch.shape()[0], batch.shape()[1]);
                let plane: usize = batch.shape()[2] * batch.shape()[3];
                assert_eq!(channel_means.len(), c, "mean/channel mismatch");
                let mut out = batch.clone();
                for s in 0..n {
                    for (ch, &m) in channel_means.iter().enumerate() {
                        let off = (s * c + ch) * plane;
                        for v in &mut out.data_mut()[off..off + plane] {
                            *v -= m;
                        }
                    }
                }
                out
            }
            Preprocessing::Standardize => {
                let n = batch.shape()[0];
                let sample: usize = batch.shape()[1..].iter().product();
                let mut out = batch.clone();
                for s in 0..n {
                    let slice = &mut out.data_mut()[s * sample..(s + 1) * sample];
                    let mean = slice.iter().sum::<f32>() / sample as f32;
                    let var =
                        slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / sample as f32;
                    // TensorFlow floors the deviation to avoid amplifying
                    // constant images.
                    let std = var.sqrt().max(1.0 / (sample as f32).sqrt());
                    for v in slice.iter_mut() {
                        *v = (*v - mean) / std;
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SynthCifar10, SynthMnist};

    #[test]
    fn raw01_is_identity() {
        let d = SynthMnist::generate(4, 12, 1);
        let out = Preprocessing::Raw01.apply(&d.images, &[]);
        assert_eq!(out, d.images);
    }

    #[test]
    fn mean_subtract_centers_channels() {
        let d = SynthCifar10::generate(20, 12, 2);
        let means = Preprocessing::channel_means(&d);
        assert_eq!(means.len(), 3);
        let out = Preprocessing::MeanSubtract.apply(&d.images, &means);
        // Each channel's global mean should now be ~0.
        let plane = 12 * 12;
        for ch in 0..3 {
            let mut acc = 0.0f32;
            for s in 0..20 {
                let off = (s * 3 + ch) * plane;
                acc += out.data()[off..off + plane].iter().sum::<f32>();
            }
            assert!((acc / (20.0 * plane as f32)).abs() < 1e-4);
        }
    }

    #[test]
    fn standardize_zero_mean_unit_variance() {
        let d = SynthCifar10::generate(5, 16, 3);
        let out = Preprocessing::Standardize.apply(&d.images, &[]);
        let sample = 3 * 16 * 16;
        for s in 0..5 {
            let slice = &out.data()[s * sample..(s + 1) * sample];
            let mean = slice.iter().sum::<f32>() / sample as f32;
            let var = slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / sample as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 0.05, "var {var}");
        }
    }

    #[test]
    fn raw_bytes_rescales_to_byte_range() {
        let d = SynthMnist::generate(2, 12, 9);
        let out = Preprocessing::RawBytes.apply(&d.images, &[]);
        assert!(out.max() > 100.0, "byte-range values expected");
        assert!((out.data()[0] - d.images.data()[0] * 255.0).abs() < 1e-4);
    }

    #[test]
    fn standardize_constant_image_is_finite() {
        let img = Tensor::full(&[1, 1, 4, 4], 0.7);
        let out = Preprocessing::Standardize.apply(&img, &[]);
        assert!(!out.has_non_finite());
        assert!(out.data().iter().all(|&v| v.abs() < 1e-4));
    }
}
