use crate::{Shape, Tensor, TensorError};

use super::microkernel::{gemm_col, gemm_row};

/// Fully-connected layer: `out[b][o] = Σ_i input[b][i] * weight[o][i] + bias[o]`.
///
/// `input` is `[batch, in_features]`, `weight` is `[out_features,
/// in_features]` (PyTorch layout), `bias` (when present) is `[out_features]`.
///
/// # Errors
///
/// Returns an error when the operand ranks are wrong, the feature counts
/// disagree, or the bias length differs from `out_features`.
///
/// # Example
///
/// ```
/// use sfi_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), sfi_tensor::TensorError> {
/// let x = Tensor::from_vec([1, 2], vec![1.0, 2.0])?;
/// let w = Tensor::from_vec([1, 2], vec![3.0, 4.0])?;
/// let y = ops::linear(&x, &w, None)?;
/// assert_eq!(y.as_slice(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn linear(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<Tensor, TensorError> {
    const OP: &str = "linear";
    if input.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 2,
            actual: input.shape().rank(),
        });
    }
    if weight.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 2,
            actual: weight.shape().rank(),
        });
    }
    let batch = input.shape().dims()[0];
    let in_features = input.shape().dims()[1];
    let out_features = weight.shape().dims()[0];
    if weight.shape().dims()[1] != in_features {
        return Err(TensorError::ShapeMismatch { op: OP, lhs: input.shape(), rhs: weight.shape() });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[out_features]) {
            return Err(TensorError::ShapeMismatch {
                op: OP,
                lhs: b.shape(),
                rhs: Shape::new(&[out_features]),
            });
        }
    }
    let mut out = Tensor::zeros([batch, out_features]);
    // out[b, o] = input[b, :] . weight[o, :] — gemm with weight used as the
    // rhs would need a transpose, so run one matrix-vector GEMM per batch
    // row with roles swapped: weight [O, I] x input_row [I, 1]. `gemm_col`
    // interleaves the output chains, each in `gemm(O, I, 1, ..)`'s order.
    let out_data = out.as_mut_slice();
    for b in 0..batch {
        let x_row = &input.as_slice()[b * in_features..(b + 1) * in_features];
        let dst = &mut out_data[b * out_features..(b + 1) * out_features];
        gemm_col(out_features, in_features, weight.as_slice(), x_row, dst);
    }
    if let Some(bias) = bias {
        let b_data = bias.as_slice();
        for b in 0..batch {
            let dst = &mut out_data[b * out_features..(b + 1) * out_features];
            for (v, &bv) in dst.iter_mut().zip(b_data) {
                *v += bv;
            }
        }
    }
    Ok(out)
}

/// One output feature of [`linear`], bit-identically: the single
/// dot-product row `row` per batch image plus that row's bias term.
/// Returns `batch` values.
///
/// The fully-connected counterpart of the single-channel convergence probe
/// (see `conv2d_channel_batched`): a fault in `weight[row, :]` or
/// `bias[row]` can only reach this output feature, and the per-element
/// accumulation order of the lone GEMM row matches the full kernel's, so
/// the values carry exactly the bits [`linear`] would produce for them.
///
/// # Errors
///
/// Same conditions as [`linear`], plus [`TensorError::InvalidConfig`] when
/// `row` is out of range.
pub fn linear_row(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    row: usize,
) -> Result<Vec<f32>, TensorError> {
    const OP: &str = "linear_row";
    if input.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 2,
            actual: input.shape().rank(),
        });
    }
    if weight.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 2,
            actual: weight.shape().rank(),
        });
    }
    let batch = input.shape().dims()[0];
    let in_features = input.shape().dims()[1];
    let out_features = weight.shape().dims()[0];
    if weight.shape().dims()[1] != in_features {
        return Err(TensorError::ShapeMismatch { op: OP, lhs: input.shape(), rhs: weight.shape() });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[out_features]) {
            return Err(TensorError::ShapeMismatch {
                op: OP,
                lhs: b.shape(),
                rhs: Shape::new(&[out_features]),
            });
        }
    }
    if row >= out_features {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("row {row} out of range for {out_features} output features"),
        });
    }
    let w_row = &weight.as_slice()[row * in_features..(row + 1) * in_features];
    let mut out = vec![0.0f32; batch];
    // Batch the images as GEMM columns instead of running one dot product
    // per image: a lone `gemm(1, k, 1, ..)` is a single serial dependency
    // chain (every add waits on the previous one), while the transposed
    // `1 x k x batch` row multiply advances one independent chain per
    // image — measured 6.5-7.5x on the ResNet-20 head, ~2.5-2.9x net of
    // the transpose below. Bit-identity is untouched: `out[b]` still
    // receives `w_row[ki] * input[b][ki]` one at a time in increasing
    // `ki` order, exactly the per-image dot's chain.
    let mut xt = vec![0.0f32; in_features * batch];
    for b in 0..batch {
        let x_row = &input.as_slice()[b * in_features..(b + 1) * in_features];
        for (ki, &v) in x_row.iter().enumerate() {
            xt[ki * batch + b] = v;
        }
    }
    gemm_row(in_features, batch, w_row, &xt, &mut out);
    if let Some(bias) = bias {
        let bv = bias.as_slice()[row];
        for v in out.iter_mut() {
            *v += bv;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_product_with_bias() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 0.0, 2.0, 0.0, 1.0, 0.0]).unwrap();
        let w = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec([2], vec![0.5, -0.5]).unwrap();
        let y = linear(&x, &w, Some(&b)).unwrap();
        // row 0: [1*1+2*3, 1*4+2*6] + bias = [7.5, 15.5]
        // row 1: [2, 5] + bias = [2.5, 4.5]
        assert_eq!(y.as_slice(), &[7.5, 15.5, 2.5, 4.5]);
    }

    #[test]
    fn row_matches_full_kernel() {
        let x = Tensor::from_fn([3, 5], |i| (i as f32).sin());
        let mut w = Tensor::from_fn([4, 5], |i| (i as f32 * 0.7).cos());
        w.as_mut_slice()[7] = f32::NAN;
        w.as_mut_slice()[11] = f32::NEG_INFINITY;
        let b = Tensor::from_fn([4], |i| i as f32 * 0.3 - 0.5);
        let full = linear(&x, &w, Some(&b)).unwrap();
        for row in 0..4 {
            let vals = linear_row(&x, &w, Some(&b), row).unwrap();
            assert_eq!(vals.len(), 3);
            for (batch, v) in vals.iter().enumerate() {
                let want = full.as_slice()[batch * 4 + row];
                assert_eq!(v.to_bits(), want.to_bits(), "row {row}, image {batch}");
            }
        }
        assert!(linear_row(&x, &w, Some(&b), 4).is_err(), "out-of-range row must be rejected");
    }

    #[test]
    fn rejects_feature_mismatch() {
        let x = Tensor::zeros([1, 3]);
        let w = Tensor::zeros([2, 4]);
        assert!(linear(&x, &w, None).is_err());
    }

    #[test]
    fn rejects_bad_bias() {
        let x = Tensor::zeros([1, 3]);
        let w = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([3]);
        assert!(linear(&x, &w, Some(&b)).is_err());
    }

    #[test]
    fn rejects_rank_one_input() {
        let x = Tensor::zeros([3]);
        let w = Tensor::zeros([2, 3]);
        assert!(linear(&x, &w, None).is_err());
    }

    #[test]
    fn batch_independence() {
        let w = Tensor::from_vec([1, 2], vec![1.0, 1.0]).unwrap();
        let single = linear(&Tensor::from_vec([1, 2], vec![3.0, 4.0]).unwrap(), &w, None).unwrap();
        let batched =
            linear(&Tensor::from_vec([2, 2], vec![9.0, 9.0, 3.0, 4.0]).unwrap(), &w, None).unwrap();
        assert_eq!(batched.get([1, 0]), single.get([0, 0]));
    }
}
