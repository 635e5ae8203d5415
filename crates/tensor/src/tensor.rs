//! The dense row-major `f32` tensor type.

use crate::arena;
use crate::error::{Result, TensorError};
use crate::rng::SeededRng;
use crate::shape::Shape;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// `Tensor` is the single value type flowing through the DLBench neural
/// network substrate: images are `[N, C, H, W]`, weight matrices are
/// `[out, in]`, convolution kernels are `[out_c, in_c, kh, kw]`.
///
/// All arithmetic is eager and allocates its result; in-place variants
/// (`*_assign`) exist for the optimizer hot paths. Backing storage is
/// recycled through the global [`crate::arena`], so steady-state
/// training and serving loops — which produce the same tensor shapes
/// every iteration — stop touching the system allocator after warm-up.
/// The arena keeps only as many buffers of a length as it handed out,
/// so dropping a tensor built with [`Tensor::from_vec`] at a length the
/// arena never handed out (a whole data split, say) frees its storage.
#[derive(Debug, PartialEq)]
pub struct Tensor {
    dims: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = arena::take_vec(self.data.len());
        data.copy_from_slice(&self.data);
        Self { dims: self.dims.clone(), data }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        arena::give_vec(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    // ---------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------

    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` is not
    /// the product of `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self> {
        let expect: usize = dims.iter().product();
        if data.len() != expect {
            return Err(TensorError::ShapeDataMismatch { shape: dims.to_vec(), len: data.len() });
        }
        Ok(Self { dims: dims.to_vec(), data })
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        Self { dims: dims.to_vec(), data: arena::take_vec_zeroed(dims.iter().product()) }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let mut data = arena::take_vec(dims.iter().product());
        data.fill(value);
        Self { dims: dims.to_vec(), data }
    }

    /// Tensor of i.i.d. Gaussian samples.
    pub fn randn(dims: &[usize], mean: f32, std: f32, rng: &mut SeededRng) -> Self {
        let mut data = arena::take_vec(dims.iter().product());
        for v in &mut data {
            *v = rng.normal(mean, std);
        }
        Self { dims: dims.to_vec(), data }
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        let mut data = arena::take_vec(dims.iter().product());
        for v in &mut data {
            *v = rng.uniform(lo, hi);
        }
        Self { dims: dims.to_vec(), data }
    }

    /// Rank-1 tensor holding `0, 1, …, n-1`.
    pub fn arange(n: usize) -> Self {
        let mut data = arena::take_vec(n);
        for (i, v) in data.iter_mut().enumerate() {
            *v = i as f32;
        }
        Self { dims: vec![n], data }
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// The dimension list.
    pub fn shape(&self) -> &[usize] {
        &self.dims
    }

    /// A [`Shape`] view of the dimensions.
    pub fn shape_view(&self) -> Shape<'_> {
        Shape::new(&self.dims)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing vector (the storage
    /// escapes the arena and is owned by the caller).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape_view().flat_index(index)]
    }

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let flat = self.shape_view().flat_index(index);
        &mut self.data[flat]
    }

    // ---------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] on element-count mismatch.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let expect: usize = dims.iter().product();
        if expect != self.data.len() {
            return Err(TensorError::InvalidReshape { from: self.dims.clone(), to: dims.to_vec() });
        }
        let mut data = arena::take_vec(self.data.len());
        data.copy_from_slice(&self.data);
        Ok(Self { dims: dims.to_vec(), data })
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Self {
        let mut data = arena::take_vec(self.data.len());
        data.copy_from_slice(&self.data);
        Self { dims: vec![self.data.len()], data }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose2 requires a matrix");
        let (r, c) = (self.dims[0], self.dims[1]);
        let mut out = arena::take_vec(r * c);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Self { dims: vec![c, r], data: out }
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of range.
    pub fn row(&self, i: usize) -> Self {
        assert_eq!(self.rank(), 2, "row() requires a matrix");
        let c = self.dims[1];
        let mut data = arena::take_vec(c);
        data.copy_from_slice(&self.data[i * c..(i + 1) * c]);
        Self { dims: vec![c], data }
    }

    /// Extracts sample `i` of a batched tensor (`[N, …]`) keeping the
    /// trailing dimensions, producing `[1, …]`.
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors or out-of-range `i`.
    pub fn slice_batch(&self, i: usize) -> Self {
        assert!(self.rank() >= 1, "slice_batch requires rank >= 1");
        assert!(i < self.dims[0], "batch index out of range");
        let stride: usize = self.dims[1..].iter().product();
        let mut dims = self.dims.clone();
        dims[0] = 1;
        let mut data = arena::take_vec(stride);
        data.copy_from_slice(&self.data[i * stride..(i + 1) * stride]);
        Self { dims, data }
    }

    /// Concatenates tensors along axis 0. All trailing dims must agree.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if trailing dimensions
    /// differ between inputs.
    pub fn concat0(parts: &[&Tensor]) -> Result<Self> {
        assert!(!parts.is_empty(), "concat0 requires at least one tensor");
        let tail = &parts[0].dims[1..];
        let mut n0 = 0usize;
        for p in parts {
            if &p.dims[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    lhs: parts[0].dims.clone(),
                    rhs: p.dims.clone(),
                    op: "concat0",
                });
            }
            n0 += p.dims[0];
        }
        let mut dims = parts[0].dims.clone();
        dims[0] = n0;
        let mut data = arena::take_vec(dims.iter().product());
        let mut off = 0usize;
        for p in parts {
            data[off..off + p.data.len()].copy_from_slice(&p.data);
            off += p.data.len();
        }
        Ok(Self { dims, data })
    }

    // ---------------------------------------------------------------
    // Elementwise arithmetic
    // ---------------------------------------------------------------

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.dims != other.dims {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims.clone(),
                rhs: other.dims.clone(),
                op,
            });
        }
        Ok(())
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.check_same_shape(other, "add")?;
        let mut data = arena::take_vec(self.data.len());
        for (d, (a, b)) in data.iter_mut().zip(self.data.iter().zip(&other.data)) {
            *d = a + b;
        }
        Ok(Self { dims: self.dims.clone(), data })
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.check_same_shape(other, "sub")?;
        let mut data = arena::take_vec(self.data.len());
        for (d, (a, b)) in data.iter_mut().zip(self.data.iter().zip(&other.data)) {
            *d = a - b;
        }
        Ok(Self { dims: self.dims.clone(), data })
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.check_same_shape(other, "mul")?;
        let mut data = arena::take_vec(self.data.len());
        for (d, (a, b)) in data.iter_mut().zip(self.data.iter().zip(&other.data)) {
            *d = a * b;
        }
        Ok(Self { dims: self.dims.clone(), data })
    }

    /// In-place `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (AXPY), the optimizer hot path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Self {
        let mut data = arena::take_vec(self.data.len());
        for (d, a) in data.iter_mut().zip(&self.data) {
            *d = a * scalar;
        }
        Self { dims: self.dims.clone(), data }
    }

    /// In-place `self *= scalar`.
    pub fn scale_assign(&mut self, scalar: f32) {
        for a in &mut self.data {
            *a *= scalar;
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = arena::take_vec(self.data.len());
        for (d, &a) in data.iter_mut().zip(&self.data) {
            *d = f(a);
        }
        Self { dims: self.dims.clone(), data }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        for a in &mut self.data {
            *a = value;
        }
    }

    /// Clamps all elements into `[lo, hi]`, in place.
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        for a in &mut self.data {
            *a = a.clamp(lo, hi);
        }
    }

    // ---------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first on ties; 0 for empty tensors).
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// L2 norm of the flattened tensor.
    pub fn norm2(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|a| !a.is_finite())
    }

    /// Matrix product of two rank-2 tensors (delegates to the blocked
    /// GEMM in [`crate::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.dims[0], self.dims[1]);
        let (k2, n) = (other.dims[0], other.dims[1]);
        assert_eq!(k, k2, "matmul inner dimensions disagree: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        crate::linalg::gemm(m, k, n, &self.data, &other.data, out.data_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(&[2, 3], vec![0.0; 6]).is_ok());
        let err = Tensor::from_vec(&[2, 3], vec![0.0; 5]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeDataMismatch { .. }));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::full(&[2, 2], 2.0);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.data(), &[3.0, 4.0, 5.0, 6.0]);
        let diff = sum.sub(&b).unwrap();
        assert_eq!(diff.data(), a.data());
        let prod = a.mul(&b).unwrap();
        assert_eq!(prod.data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
        let mut a = a;
        assert!(a.axpy(1.0, &b).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::arange(6);
        let b = a.reshape(&[2, 3]).unwrap();
        assert_eq!(b.at(&[1, 2]), 5.0);
        assert!(a.reshape(&[4]).is_err());
    }

    #[test]
    fn transpose2_is_involution() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[3, 5], 0.0, 1.0, &mut rng);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().at(&[4, 2]), a.at(&[2, 4]));
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn argmax_first_on_tie() {
        let t = Tensor::from_vec(&[4], vec![1.0, 3.0, 3.0, 2.0]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn slice_batch_extracts_sample() {
        let t = Tensor::arange(12).reshape(&[3, 2, 2]).unwrap();
        let s = t.slice_batch(1);
        assert_eq!(s.shape(), &[1, 2, 2]);
        assert_eq!(s.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn concat0_roundtrip() {
        let a = Tensor::arange(4).reshape(&[2, 2]).unwrap();
        let b = Tensor::arange(2).reshape(&[1, 2]).unwrap();
        let c = Tensor::concat0(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[0.0, 1.0, 2.0, 3.0, 0.0, 1.0]);
        let bad = Tensor::zeros(&[1, 3]);
        assert!(Tensor::concat0(&[&a, &bad]).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[4], vec![-1.0, 2.0, 0.5, -3.0]).unwrap();
        assert_eq!(t.sum(), -1.5);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert!((t.mean() + 0.375).abs() < 1e-6);
        assert!((t.norm2() - (1.0f32 + 4.0 + 0.25 + 9.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn clamp_inplace_bounds() {
        let mut t = Tensor::from_vec(&[3], vec![-2.0, 0.5, 9.0]).unwrap();
        t.clamp_inplace(0.0, 1.0);
        assert_eq!(t.data(), &[0.0, 0.5, 1.0]);
    }
}
