//! Per-layer cost accounting.
//!
//! Every layer reports how much arithmetic, parameter traffic and
//! activation traffic one forward (and backward) pass over a given batch
//! costs, plus how many device kernels it launches. The simulated device
//! model in `dlbench-simtime` converts these into seconds; the split into
//! FLOPs vs kernel launches is what lets the model reproduce the paper's
//! framework-overhead effects (e.g. Torch's eager per-op execution at
//! batch size 1–10 being launch-bound rather than compute-bound).
//!
//! The formulas two layer types share live here as [`LayerCost`]
//! constructors: a convolution's ([`crate::Conv2d`] and each
//! [`crate::Conv1d`]), and the `Linear`, `Embedding` and
//! `MaxOverTime` passes the int8 layers of `dlbench-quant` replace.
//! An int8 layer charges its fp32 twin's [`LayerCost::forward_only`].

use dlbench_tensor::Conv2dGeometry;

/// Cost of running one layer over one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCost {
    /// Floating-point operations for the forward pass.
    pub fwd_flops: u64,
    /// Floating-point operations for the backward pass (data + weight
    /// gradients).
    pub bwd_flops: u64,
    /// Number of learnable scalar parameters touched.
    pub params: u64,
    /// Number of activation scalars produced (output elements).
    pub activations: u64,
    /// Device kernels launched in the forward pass.
    pub fwd_kernels: u32,
    /// Device kernels launched in the backward pass.
    pub bwd_kernels: u32,
}

impl LayerCost {
    /// A convolution of geometry `geo` into `out_channels` maps over a
    /// batch of `n`: one MAC pair (2 flops) per weight tap per output
    /// site forward; backward runs a weight-gradient and an
    /// input-gradient GEMM, each the size of the forward one.
    pub fn conv(n: usize, geo: &Conv2dGeometry, out_channels: usize) -> LayerCost {
        let (n, oc) = (n as u64, out_channels as u64);
        let (patch, plane) = (geo.patch_len() as u64, geo.out_plane() as u64);
        let fwd = n * 2 * oc * patch * plane;
        LayerCost {
            fwd_flops: fwd,
            bwd_flops: 2 * fwd,
            params: oc * patch + oc,
            activations: n * oc * plane,
            // im2col + GEMM + bias per sample batchable into 3 kernels.
            fwd_kernels: 3,
            bwd_kernels: 4,
        }
    }

    /// A fully connected `in_features → out_features` layer over a
    /// batch of `n`: one GEMM forward, two backward.
    pub fn linear(n: usize, in_features: usize, out_features: usize) -> LayerCost {
        let (n, inf, outf) = (n as u64, in_features as u64, out_features as u64);
        let fwd = 2 * n * inf * outf;
        LayerCost {
            fwd_flops: fwd,
            bwd_flops: 2 * fwd,
            params: outf * inf + outf,
            activations: n * outf,
            fwd_kernels: 2,
            bwd_kernels: 3,
        }
    }

    /// A lookup of `n` sequences of `len` tokens in a `vocab × dim`
    /// table. A lookup moves data without arithmetic; it is charged one
    /// flop per copied scalar so the simtime model sees the memory
    /// traffic.
    pub fn embedding(n: usize, len: usize, vocab: usize, dim: usize) -> LayerCost {
        let copied = (n * len * dim) as u64;
        LayerCost {
            fwd_flops: copied,
            bwd_flops: copied,
            params: (vocab * dim) as u64,
            activations: copied,
            fwd_kernels: 1,
            bwd_kernels: 1,
        }
    }

    /// Max-over-time pooling of `n × filters` feature rows of `steps`
    /// time steps each.
    pub fn max_over_time(n: usize, filters: usize, steps: usize) -> LayerCost {
        let rows = (n * filters) as u64;
        LayerCost {
            fwd_flops: rows * steps as u64,
            bwd_flops: rows,
            params: 0,
            activations: rows,
            fwd_kernels: 1,
            bwd_kernels: 1,
        }
    }

    /// This cost without its backward pass: what an inference-only pass
    /// (a test batch, an int8 layer) is charged.
    #[must_use]
    pub fn forward_only(self) -> LayerCost {
        LayerCost { bwd_flops: 0, bwd_kernels: 0, ..self }
    }

    /// Component-wise sum of two costs.
    #[must_use]
    pub fn merge(self, other: LayerCost) -> LayerCost {
        LayerCost {
            fwd_flops: self.fwd_flops + other.fwd_flops,
            bwd_flops: self.bwd_flops + other.bwd_flops,
            params: self.params + other.params,
            activations: self.activations + other.activations,
            fwd_kernels: self.fwd_kernels + other.fwd_kernels,
            bwd_kernels: self.bwd_kernels + other.bwd_kernels,
        }
    }

    /// Total FLOPs for a training step (forward + backward).
    pub fn train_flops(&self) -> u64 {
        self.fwd_flops + self.bwd_flops
    }

    /// Total kernels for a training step.
    pub fn train_kernels(&self) -> u32 {
        self.fwd_kernels + self.bwd_kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let a = LayerCost {
            fwd_flops: 10,
            bwd_flops: 20,
            params: 5,
            activations: 7,
            fwd_kernels: 1,
            bwd_kernels: 2,
        };
        let b = LayerCost {
            fwd_flops: 1,
            bwd_flops: 2,
            params: 3,
            activations: 4,
            fwd_kernels: 5,
            bwd_kernels: 6,
        };
        let m = a.merge(b);
        assert_eq!(m.fwd_flops, 11);
        assert_eq!(m.bwd_flops, 22);
        assert_eq!(m.params, 8);
        assert_eq!(m.activations, 11);
        assert_eq!(m.fwd_kernels, 6);
        assert_eq!(m.bwd_kernels, 8);
        assert_eq!(m.train_flops(), 33);
        assert_eq!(m.train_kernels(), 14);
    }

    #[test]
    fn forward_only_drops_just_the_backward_pass() {
        let c = LayerCost::linear(3, 10, 5);
        let f = c.forward_only();
        assert_eq!((f.bwd_flops, f.bwd_kernels), (0, 0));
        assert_eq!(
            (f.fwd_flops, f.params, f.activations, f.fwd_kernels),
            (c.fwd_flops, c.params, c.activations, c.fwd_kernels)
        );
    }
}
