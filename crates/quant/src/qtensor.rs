//! The quantized tensor container.

use dlbench_tensor::quantize_i8;

/// An int8 tensor with its affine quantization parameters: a value `q`
/// represents the real number `scale · (q − zero_point)`. Symmetric
/// (weight) quantization is the `zero_point = 0` special case.
///
/// Not exported: the type is `pub` only because `QConv2d::weight` and
/// `QConv1dBank::branch_parts` hand it to the kernel tests, which read
/// its `data` and `scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    data: Vec<i8>,
    shape: Vec<usize>,
    /// Quantization step.
    pub scale: f32,
    /// Affine zero point.
    pub zero_point: i8,
}

impl QTensor {
    /// Wraps pre-quantized values.
    ///
    /// # Panics
    ///
    /// Panics if the shape's element count disagrees with `data` or the
    /// scale is not finite and positive.
    pub(crate) fn from_parts(shape: &[usize], data: Vec<i8>, scale: f32, zero_point: i8) -> Self {
        assert_eq!(shape.iter().product::<usize>(), data.len(), "QTensor shape mismatch");
        assert!(scale.is_finite() && scale > 0.0, "QTensor scale must be finite and positive");
        Self { data, shape: shape.to_vec(), scale, zero_point }
    }

    /// Symmetric per-tensor quantization: `scale = max|v| / 127`,
    /// `zero_point = 0`. The canonical weight path — symmetric weights
    /// keep the GEMM's zero-point correction to a single per-output
    /// column sum.
    pub(crate) fn quantize_symmetric(shape: &[usize], values: &[f32]) -> Self {
        let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = (max_abs / 127.0).max(f32::MIN_POSITIVE);
        let mut data = vec![0i8; values.len()];
        quantize_i8(values, scale, 0, &mut data);
        Self::from_parts(shape, data, scale, 0)
    }

    /// The quantized values.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Tensor shape.
    pub(crate) fn shape(&self) -> &[usize] {
        &self.shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_tensor::dequantize_i8;

    /// The real values `q` represents (`scale · (q − zero_point)`).
    fn dequantize(q: &QTensor) -> Vec<f32> {
        let mut out = vec![0.0f32; q.data.len()];
        dequantize_i8(&q.data, q.scale, q.zero_point, &mut out);
        out
    }

    #[test]
    fn symmetric_roundtrip_bounds_error_by_half_lsb() {
        let values = [0.9f32, -1.27, 0.0, 0.63, -0.005];
        let q = QTensor::quantize_symmetric(&[5], &values);
        assert_eq!(q.zero_point, 0);
        for (x, y) in values.iter().zip(dequantize(&q)) {
            assert!((x - y).abs() <= q.scale * 0.5 + 1e-7);
        }
    }

    #[test]
    fn all_zero_tensor_quantizes_without_degenerate_scale() {
        let q = QTensor::quantize_symmetric(&[4], &[0.0; 4]);
        assert!(q.scale > 0.0);
        assert!(dequantize(&q).iter().all(|&v| v == 0.0));
    }
}
