use crate::{ScratchArena, Tensor, TensorError};

/// ReLU of one element: a compare-and-select, so NaN and `-0.0` pass
/// through (the `< 0.0` compare is false for either). The only place the
/// expression is written — the unfused kernels and the fused conv
/// epilogue all call it.
#[inline]
pub(crate) fn relu_element(v: f32) -> f32 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// ReLU6 of one element: `f32::clamp` propagates NaN, matching the
/// documented semantics. The only place the expression is written, as for
/// [`relu_element`].
#[inline]
pub(crate) fn relu6_element(v: f32) -> f32 {
    v.clamp(0.0, 6.0)
}

/// The ReLU kernel behind [`relu`].
fn relu_apply(data: &mut [f32]) {
    for v in data {
        *v = relu_element(*v);
    }
}

/// The ReLU6 kernel behind [`relu6`].
fn relu6_apply(data: &mut [f32]) {
    for v in data {
        *v = relu6_element(*v);
    }
}

/// Rectified linear unit: `max(x, 0)` element-wise.
///
/// NaN inputs are preserved (PyTorch semantics), so faults that poison an
/// activation are not silently masked by the non-linearity.
///
/// # Example
///
/// ```
/// use sfi_tensor::{ops, Tensor};
///
/// let t = Tensor::from_vec([3], vec![-1.0, 0.5, 2.0]).unwrap();
/// assert_eq!(ops::relu(&t).as_slice(), &[0.0, 0.5, 2.0]);
/// ```
pub fn relu(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    relu_apply(out.as_mut_slice());
    out
}

/// [`relu`] drawing its output buffer from `arena` — the campaign hot path.
///
/// Fuses the copy and the clamp into one pass. Unlike the arithmetic ops
/// (GEMM, batch norm, add), ReLU performs no floating-point *arithmetic* —
/// only a compare-and-select — so every output bit pattern equals either
/// the input element or `0.0` regardless of how the loop is compiled.
/// Bit-identity with [`relu`] therefore holds by value, and both apply the
/// same element function.
pub fn relu_with(input: &Tensor, arena: &mut ScratchArena) -> Tensor {
    let mut data = arena.take(input.len());
    for (d, &s) in data.iter_mut().zip(input.as_slice()) {
        *d = relu_element(s);
    }
    Tensor::from_vec(input.shape(), data).expect("same length as input")
}

/// ReLU clamped at 6: `min(max(x, 0), 6)`, as used by MobileNetV2.
///
/// NaN inputs are preserved.
pub fn relu6(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    relu6_apply(out.as_mut_slice());
    out
}

/// [`relu6`] drawing its output buffer from `arena`, fused into one pass.
/// Bit-identical to [`relu6`] by value — `clamp` is compare-and-select,
/// not arithmetic, so both variants yield the same bits per element (see
/// [`relu_with`]).
pub fn relu6_with(input: &Tensor, arena: &mut ScratchArena) -> Tensor {
    let mut data = arena.take(input.len());
    for (d, &s) in data.iter_mut().zip(input.as_slice()) {
        *d = relu6_element(s);
    }
    Tensor::from_vec(input.shape(), data).expect("same length as input")
}

/// Numerically stable softmax over the last dimension of a rank-2 tensor
/// (`[batch, classes]`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for ranks other than 2 and
/// [`TensorError::Empty`] when the class dimension is zero.
pub fn softmax(input: &Tensor) -> Result<Tensor, TensorError> {
    const OP: &str = "softmax";
    if input.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 2,
            actual: input.shape().rank(),
        });
    }
    let classes = input.shape().dims()[1];
    if classes == 0 {
        return Err(TensorError::Empty { op: OP });
    }
    let batch = input.shape().dims()[0];
    let mut out = input.clone();
    let data = out.as_mut_slice();
    for b in 0..batch {
        let row = &mut data[b * classes..(b + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec([4], vec![-2.0, -0.0, 0.0, 3.0]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, -0.0, 0.0, 3.0]);
    }

    #[test]
    fn relu_preserves_nan() {
        let t = Tensor::from_vec([1], vec![f32::NAN]).unwrap();
        assert!(relu(&t).as_slice()[0].is_nan());
    }

    #[test]
    fn relu6_clamps_both_sides() {
        let t = Tensor::from_vec([3], vec![-1.0, 3.0, 10.0]).unwrap();
        assert_eq!(relu6(&t).as_slice(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn relu6_preserves_nan() {
        let t = Tensor::from_vec([1], vec![f32::NAN]).unwrap();
        assert!(relu6(&t).as_slice()[0].is_nan());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = softmax(&t).unwrap();
        for b in 0..2 {
            let sum: f32 = (0..3).map(|c| s.get([b, c]).unwrap()).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([1, 3], vec![101.0, 102.0, 103.0]).unwrap();
        let sa = softmax(&a).unwrap();
        let sb = softmax(&b).unwrap();
        assert!(sa.max_abs_diff(&sb).unwrap() < 1e-6);
    }

    #[test]
    fn softmax_survives_large_inputs() {
        let t = Tensor::from_vec([1, 2], vec![1e30, -1e30]).unwrap();
        let s = softmax(&t).unwrap();
        assert!((s.get([0, 0]).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_rejects_wrong_rank() {
        let t = Tensor::zeros([2, 2, 2]);
        assert!(softmax(&t).is_err());
    }
}
