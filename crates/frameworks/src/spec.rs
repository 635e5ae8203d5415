//! Architecture specifications (paper Tables IV and V as data).

use dlbench_nn::{
    AvgPool2d, Conv1dBank, Conv2d, Dropout, Embedding, Flatten, Initializer, Layer, LayerCost,
    Linear, LocalResponseNorm, MaxPool2d, Network, Relu, Tanh,
};
use dlbench_tensor::{Conv2dGeometry, SeededRng};

/// One entry of an architecture specification.
///
/// Convolution and fully-connected widths are stored at their paper
/// values; [`ArchSpec::build`] can scale them by a width multiplier for
/// reduced-scale runs. Fully-connected input dimensions are not stored:
/// they are the output shapes the built layers report (so the same spec
/// instantiates correctly at 28×28, 16×16 or any other input size).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpecEntry {
    /// Square convolution: output channels, kernel, stride, padding.
    Conv {
        /// Output feature maps at paper scale.
        out: usize,
        /// Kernel side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
    },
    /// Max pooling: kernel, stride, Caffe-style ceil rounding.
    MaxPool {
        /// Window side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Ceil-mode output rounding (Caffe convention).
        ceil: bool,
    },
    /// Average pooling: kernel, stride, ceil rounding.
    AvgPool {
        /// Window side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Ceil-mode output rounding.
        ceil: bool,
    },
    /// ReLU activation.
    Relu,
    /// Tanh activation.
    Tanh,
    /// Cross-channel local response normalization (TensorFlow CIFAR).
    Lrn,
    /// Fully connected layer to `out` features (input derived).
    Fc {
        /// Output features at paper scale.
        out: usize,
    },
    /// Dropout with the given rate (TensorFlow's regularizer).
    Dropout {
        /// Drop probability.
        rate: f32,
    },
    /// Token-embedding lookup for text inputs (`[N, 1, L, 1]` token ids
    /// → `[N, 1, L, dim]`). Must be the first entry of a text spec.
    Embed {
        /// Vocabulary size (rows of the embedding table; never scaled).
        vocab: usize,
        /// Embedding dimension at paper scale.
        dim: usize,
    },
    /// Sentence-CNN block: parallel 1-D convolutions over the token
    /// axis (one branch per kernel width), each max-pooled over time,
    /// concatenated to `widths.len() * filters` flat features. Only
    /// valid after [`LayerSpecEntry::Embed`].
    ConvBank {
        /// Filters per branch at paper scale.
        filters: usize,
        /// Kernel widths, one branch each (Kim-style 3/4/5).
        widths: Vec<usize>,
    },
}

/// A named, data-driven network architecture.
///
/// A spec holds layer entries and nothing derived from them: every
/// shape and cost it reports comes from the `dlbench-nn` layers it
/// builds. The paper-scale figures (Tables IV/V/IX and the simulated
/// times) are read from [`ArchSpec::paper_network`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    /// Diagnostic name, e.g. `"TF-MNIST"`.
    pub name: String,
    /// Layer entries in forward order. The final entry must be the
    /// classifier `Fc` (its width is never scaled).
    pub entries: Vec<LayerSpecEntry>,
}

impl ArchSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, entries: Vec<LayerSpecEntry>) -> Self {
        Self { name: name.into(), entries }
    }

    /// Scales a channel/feature width by `mult`, keeping at least 2.
    fn scaled(width: usize, mult: f32) -> usize {
        ((width as f32 * mult).round() as usize).max(2)
    }

    /// Instantiates the spec as a [`Network`] for `(channels, h, w)`
    /// inputs, scaling interior widths by `width_mult` (1.0 = paper
    /// scale) and initializing weights with `init`.
    ///
    /// Each layer's input shape is the output shape the layer before it
    /// reports ([`dlbench_nn::Layer::output_shape`]), so channel counts
    /// and fully-connected fan-ins follow nn's conv and pooling rules.
    /// A `Flatten` layer is inserted before the first fully-connected
    /// layer when its input is still spatial.
    ///
    /// # Panics
    ///
    /// Panics if the geometry collapses to zero extent (input too small
    /// for the spec) or the spec has no classifier layer.
    pub fn build(
        &self,
        input: (usize, usize, usize),
        width_mult: f32,
        init: Initializer,
        rng: &mut SeededRng,
    ) -> Network {
        let mut net = Network::new(self.name.clone());
        // One sample's shape entering the next layer.
        let mut shape = vec![1, input.0, input.1, input.2];
        let last_fc = self
            .entries
            .iter()
            .rposition(|e| matches!(e, LayerSpecEntry::Fc { .. }))
            .expect("spec must end in a classifier Fc");
        for (i, entry) in self.entries.iter().enumerate() {
            match *entry {
                LayerSpecEntry::Conv { out, kernel, stride, pad } => {
                    assert_eq!(shape.len(), 4, "conv after flatten is unsupported");
                    let out_c = Self::scaled(out, width_mult);
                    let conv = Conv2d::new(shape[1], out_c, kernel, stride, pad, init, rng);
                    push(&mut net, &mut shape, conv);
                }
                LayerSpecEntry::MaxPool { kernel, stride, ceil } => {
                    push(&mut net, &mut shape, MaxPool2d::new(kernel, stride, ceil));
                }
                LayerSpecEntry::AvgPool { kernel, stride, ceil } => {
                    push(&mut net, &mut shape, AvgPool2d::new(kernel, stride, ceil));
                }
                LayerSpecEntry::Relu => push(&mut net, &mut shape, Relu::new()),
                LayerSpecEntry::Tanh => push(&mut net, &mut shape, Tanh::new()),
                LayerSpecEntry::Lrn => {
                    push(&mut net, &mut shape, LocalResponseNorm::tensorflow_cifar());
                }
                LayerSpecEntry::Fc { out } => {
                    if shape.len() > 2 {
                        push(&mut net, &mut shape, Flatten::new());
                    }
                    let out_f = if i == last_fc { out } else { Self::scaled(out, width_mult) };
                    let fc = Linear::new(shape[1], out_f, init, rng);
                    push(&mut net, &mut shape, fc);
                }
                LayerSpecEntry::Dropout { rate } => {
                    push(&mut net, &mut shape, Dropout::new(rate, rng.fork(0xD0)));
                }
                LayerSpecEntry::Embed { vocab, dim } => {
                    assert!(i == 0, "Embed must be the first entry of a text spec");
                    assert_eq!(shape[3], 1, "text specs take [N, 1, L, 1] token-id inputs");
                    let dim_s = Self::scaled(dim, width_mult);
                    push(&mut net, &mut shape, Embedding::new(vocab, dim_s, init, rng));
                }
                LayerSpecEntry::ConvBank { filters, ref widths } => {
                    assert!(
                        matches!(self.entries.first(), Some(LayerSpecEntry::Embed { .. })),
                        "ConvBank requires an Embed entry first"
                    );
                    assert_eq!(shape.len(), 4, "conv bank after flatten is unsupported");
                    let (len, dim) = (shape[2], shape[3]);
                    assert!(
                        widths.iter().all(|&kw| kw <= len),
                        "sequence length {len} shorter than a kernel width in {}",
                        self.name
                    );
                    let f_s = Self::scaled(filters, width_mult);
                    // Max-over-time pools each branch to one feature per
                    // filter; the bank's output is already flat.
                    push(&mut net, &mut shape, Conv1dBank::new(f_s, widths, dim, init, rng));
                }
            }
            assert!(shape.iter().all(|&d| d > 0), "geometry collapsed in {}", self.name);
        }
        net
    }

    /// The paper-scale network (width 1.0, seed 0) for `input`-shaped
    /// samples: the one network the paper's shapes and simulated costs
    /// are read from ([`ArchSpec::paper_cost`], [`ArchSpec::first_fc`],
    /// [`ArchSpec::conv_geometries`], [`ArchSpec::describe`], and the
    /// trainer's and distributed simulator's per-cell costs).
    pub fn paper_network(&self, input: (usize, usize, usize)) -> Network {
        self.build(input, 1.0, Initializer::Xavier, &mut SeededRng::new(0))
    }

    /// Forward+backward cost of the paper-scale architecture over a
    /// batch of `batch` native-size inputs — the quantity the simulated
    /// device timing model charges per training iteration.
    pub fn paper_cost(&self, input: (usize, usize, usize), batch: usize) -> LayerCost {
        self.paper_network(input).cost(&[batch, input.0, input.1, input.2])
    }

    /// The `(in, out)` features of the first fully-connected layer at
    /// paper widths and the given input geometry: the dimensions the
    /// paper's Tables IV/V print and Table IX calls the third layer.
    pub fn first_fc(&self, input: (usize, usize, usize)) -> (usize, usize) {
        let net = self.paper_network(input);
        let fc = net
            .layers()
            .iter()
            .find_map(|l| l.as_any().downcast_ref::<Linear>())
            .expect("build ends every spec in a Linear");
        (fc.in_features(), fc.out_features())
    }

    /// Convolution shapes of the paper-scale architecture at the given
    /// input geometry, in forward order, each paired with its output
    /// channel count: each `Conv2d`'s geometry, and one per branch of a
    /// `Conv1dBank`. This is the ground truth the kernel bench harness
    /// and the fused-conv transparency tests iterate over, so they
    /// exercise exactly the shapes the personalities run.
    pub fn conv_geometries(&self, input: (usize, usize, usize)) -> Vec<(Conv2dGeometry, usize)> {
        let net = self.paper_network(input);
        let mut shape = vec![1, input.0, input.1, input.2];
        let mut geos = Vec::new();
        for layer in net.layers() {
            let layer_any = layer.as_any();
            if let Some(conv) = layer_any.downcast_ref::<Conv2d>() {
                geos.push((conv.geometry(shape[2], shape[3]), conv.out_channels()));
            } else if let Some(bank) = layer_any.downcast_ref::<Conv1dBank>() {
                geos.extend(bank.convs().iter().map(|c| (c.geometry(shape[2]), c.filters())));
            }
            shape = layer.output_shape(&shape);
        }
        geos
    }

    /// Paper-style per-layer description lines (for Table IV/V output).
    pub fn describe(&self, input: (usize, usize, usize)) -> Vec<String> {
        self.paper_network(input).describe()
    }
}

/// Appends `layer` to `net` and advances `shape` past it.
fn push(net: &mut Network, shape: &mut Vec<usize>, layer: impl Layer + 'static) {
    *shape = layer.output_shape(shape);
    net.push(layer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defaults::arch_defaults;
    use crate::FrameworkKind;
    use dlbench_data::DatasetKind;

    #[test]
    fn paper_fc_dimensions_mnist() {
        // Table IV: TF 7x7x64=3136->1024, Caffe 4x4x50=800->500,
        // Torch 3x3x64=576->200.
        let tf = arch_defaults(FrameworkKind::TensorFlow, DatasetKind::Mnist);
        assert_eq!(tf.first_fc((1, 28, 28)), (3136, 1024));
        let caffe = arch_defaults(FrameworkKind::Caffe, DatasetKind::Mnist);
        assert_eq!(caffe.first_fc((1, 28, 28)), (800, 500));
        let torch = arch_defaults(FrameworkKind::Torch, DatasetKind::Mnist);
        assert_eq!(torch.first_fc((1, 28, 28)), (3 * 3 * 64, 200));
    }

    #[test]
    fn paper_fc_dimensions_cifar() {
        // Table V: Caffe 4x4x64=1024, Torch 5x5x256=6400->128.
        let caffe = arch_defaults(FrameworkKind::Caffe, DatasetKind::Cifar10);
        assert_eq!(caffe.first_fc((3, 32, 32)).0, 1024);
        let torch = arch_defaults(FrameworkKind::Torch, DatasetKind::Cifar10);
        assert_eq!(torch.first_fc((3, 32, 32)), (6400, 128));
        // TF: paper prints 7x7x64 (24x24 crop pipeline); at full 32x32
        // with SAME pooling the same stack yields 8x8x64 — documented
        // deviation in DESIGN.md.
        let tf = arch_defaults(FrameworkKind::TensorFlow, DatasetKind::Cifar10);
        assert_eq!(tf.first_fc((3, 32, 32)).0, 8 * 8 * 64);
    }

    #[test]
    fn build_runs_forward_at_reduced_size() {
        let mut rng = SeededRng::new(1);
        for fw in FrameworkKind::ALL {
            for ds in [DatasetKind::Mnist, DatasetKind::Cifar10] {
                let spec = arch_defaults(fw, ds);
                let c = ds.channels();
                let mut net = spec.build((c, 16, 16), 0.5, fw.initializer(), &mut rng);
                let x = dlbench_tensor::Tensor::randn(&[2, c, 16, 16], 0.0, 1.0, &mut rng);
                let y = net.forward(&x, true);
                assert_eq!(y.shape(), &[2, 10], "{} on {:?}", spec.name, ds);
            }
        }
    }

    #[test]
    fn width_multiplier_shrinks_parameters() {
        let spec = arch_defaults(FrameworkKind::TensorFlow, DatasetKind::Mnist);
        let mut rng = SeededRng::new(2);
        let mut full = spec.build((1, 28, 28), 1.0, Initializer::Xavier, &mut rng);
        let mut half = spec.build((1, 28, 28), 0.5, Initializer::Xavier, &mut rng);
        assert!(half.num_params() < full.num_params() / 2);
    }

    #[test]
    fn classifier_width_never_scaled() {
        let spec = arch_defaults(FrameworkKind::Caffe, DatasetKind::Cifar10);
        let mut rng = SeededRng::new(3);
        let mut net = spec.build((3, 16, 16), 0.25, Initializer::Xavier, &mut rng);
        let x = dlbench_tensor::Tensor::zeros(&[1, 3, 16, 16]);
        assert_eq!(net.forward(&x, false).shape(), &[1, 10]);
    }

    #[test]
    fn conv_geometries_chain_spatial_dims() {
        let caffe = arch_defaults(FrameworkKind::Caffe, DatasetKind::Mnist);
        let geos = caffe.conv_geometries((1, 28, 28));
        assert_eq!(geos.len(), 2);
        let (g1, oc1) = &geos[0];
        assert_eq!((g1.in_channels, g1.in_h, g1.kernel_h, *oc1), (1, 28, 5, 20));
        // conv1 -> 24x24, ceil-mode 2/2 pool -> 12x12 feeding conv2.
        let (g2, oc2) = &geos[1];
        assert_eq!((g2.in_channels, g2.in_h, g2.in_w, *oc2), (20, 12, 12, 50));
    }

    #[test]
    fn paper_cost_positive_and_monotone_in_batch() {
        let spec = arch_defaults(FrameworkKind::TensorFlow, DatasetKind::Cifar10);
        let c1 = spec.paper_cost((3, 32, 32), 1);
        let c128 = spec.paper_cost((3, 32, 32), 128);
        assert!(c1.fwd_flops > 1_000_000);
        assert_eq!(c128.fwd_flops, 128 * c1.fwd_flops);
    }
}
