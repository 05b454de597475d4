use crate::{Shape, Tensor, TensorError};

/// Per-channel parameters of an inference-mode batch normalisation.
///
/// All four tensors are rank 1 of length `C` (the channel count of the
/// input). The transform applied per channel `c` is
/// `y = gamma[c] * (x - mean[c]) / sqrt(var[c] + eps) + beta[c]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormParams<'a> {
    /// Learned scale `γ`.
    pub gamma: &'a Tensor,
    /// Learned shift `β`.
    pub beta: &'a Tensor,
    /// Running mean `μ`.
    pub mean: &'a Tensor,
    /// Running variance `σ²` (non-negative).
    pub var: &'a Tensor,
    /// Numerical-stability epsilon; PyTorch's default is `1e-5`.
    pub eps: f32,
}

/// Inference-mode batch normalisation over an NCHW tensor.
///
/// # Errors
///
/// Returns an error when the input is not rank 4 or any parameter tensor is
/// not rank 1 of length `C`.
///
/// # Example
///
/// ```
/// use sfi_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), sfi_tensor::TensorError> {
/// let x = Tensor::full([1, 1, 2, 2], 3.0);
/// let gamma = Tensor::full([1], 2.0);
/// let beta = Tensor::full([1], 1.0);
/// let mean = Tensor::full([1], 3.0);
/// let var = Tensor::full([1], 1.0);
/// let params = ops::BatchNormParams { gamma: &gamma, beta: &beta, mean: &mean, var: &var, eps: 0.0 };
/// let y = ops::batch_norm(&x, &params)?;
/// // (3 - 3) / 1 * 2 + 1 = 1
/// assert_eq!(y.as_slice(), &[1.0; 4]);
/// # Ok(())
/// # }
/// ```
pub fn batch_norm(input: &Tensor, params: &BatchNormParams<'_>) -> Result<Tensor, TensorError> {
    validate(input, params)?;
    let mut out = input.clone();
    bn_apply(out.as_mut_slice(), input.shape(), params);
    Ok(out)
}

/// [`batch_norm`] drawing its output buffer from `arena` — the campaign hot
/// path. Bit-identical to [`batch_norm`] (the same in-place kernel runs on
/// a copied buffer); only the buffer provenance differs.
///
/// # Errors
///
/// Same conditions as [`batch_norm`].
pub fn batch_norm_with(
    input: &Tensor,
    params: &BatchNormParams<'_>,
    arena: &mut crate::ScratchArena,
) -> Result<Tensor, TensorError> {
    validate(input, params)?;
    let mut data = arena.take(input.len());
    data.copy_from_slice(input.as_slice());
    bn_apply(&mut data, input.shape(), params);
    Ok(Tensor::from_vec(input.shape(), data).expect("same length as input"))
}

fn validate(input: &Tensor, params: &BatchNormParams<'_>) -> Result<(), TensorError> {
    const OP: &str = "batch_norm";
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    let want = Shape::new(&[input.shape().c()]);
    for t in [params.gamma, params.beta, params.mean, params.var] {
        if t.shape() != want {
            return Err(TensorError::ShapeMismatch { op: OP, lhs: t.shape(), rhs: want });
        }
    }
    Ok(())
}

/// The shared normalisation kernel: one compiled loop serves both
/// [`batch_norm`] and [`batch_norm_with`], keeping them bit-identical by
/// construction.
fn bn_apply(data: &mut [f32], shape: Shape, params: &BatchNormParams<'_>) {
    let (n, c, h, w) = (shape.n(), shape.c(), shape.h(), shape.w());
    let spatial = h * w;
    for ci in 0..c {
        let (scale, shift) = bn_channel_scale_shift(params, ci);
        for ni in 0..n {
            let chan = &mut data[(ni * c + ci) * spatial..][..spatial];
            for v in chan {
                *v = bn_element(*v, scale, shift);
            }
        }
    }
}

/// Batch normalisation of one element with its channel's folded
/// coefficients: one `mul`, then one `add`. The only place the expression
/// is written — [`bn_apply`] and the fused conv epilogue both call it.
#[inline]
pub(crate) fn bn_element(v: f32, scale: f32, shift: f32) -> f32 {
    v * scale + shift
}

/// The per-channel affine coefficients batch normalisation folds to:
/// `y = x * scale + shift` with `scale = γ / sqrt(σ² + ε)` and
/// `shift = β - μ * scale`.
///
/// This is the **only** place those expressions are written — [`bn_apply`]
/// and the compiled-plan conv+bn(+ReLU) fused epilogue both call it — so
/// the folded and unfused paths stay bit-identical by construction: the
/// same f32 operation sequence produces the coefficients, and both apply
/// them through [`bn_element`].
pub fn bn_channel_scale_shift(params: &BatchNormParams<'_>, channel: usize) -> (f32, f32) {
    let inv_std = 1.0 / (params.var.as_slice()[channel] + params.eps).sqrt();
    let scale = params.gamma.as_slice()[channel] * inv_std;
    let shift = params.beta.as_slice()[channel] - params.mean.as_slice()[channel] * scale;
    (scale, shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_params(c: usize) -> (Tensor, Tensor, Tensor, Tensor) {
        (Tensor::full([c], 1.0), Tensor::zeros([c]), Tensor::zeros([c]), Tensor::full([c], 1.0))
    }

    #[test]
    fn identity_params_are_identity() {
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32 * 0.5);
        let (g, b, m, v) = unit_params(3);
        let p = BatchNormParams { gamma: &g, beta: &b, mean: &m, var: &v, eps: 0.0 };
        let y = batch_norm(&x, &p).unwrap();
        assert!(x.max_abs_diff(&y).unwrap() < 1e-6);
    }

    #[test]
    fn normalises_per_channel() {
        let x = Tensor::from_vec([1, 2, 1, 2], vec![10.0, 10.0, -4.0, -4.0]).unwrap();
        let g = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec([2], vec![0.0, 1.0]).unwrap();
        let m = Tensor::from_vec([2], vec![10.0, -4.0]).unwrap();
        let v = Tensor::from_vec([2], vec![4.0, 1.0]).unwrap();
        let p = BatchNormParams { gamma: &g, beta: &b, mean: &m, var: &v, eps: 0.0 };
        let y = batch_norm(&x, &p).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn eps_prevents_division_by_zero() {
        let x = Tensor::full([1, 1, 1, 1], 5.0);
        let g = Tensor::full([1], 1.0);
        let b = Tensor::zeros([1]);
        let m = Tensor::zeros([1]);
        let v = Tensor::zeros([1]); // zero variance
        let p = BatchNormParams { gamma: &g, beta: &b, mean: &m, var: &v, eps: 1e-5 };
        let y = batch_norm(&x, &p).unwrap();
        assert!(y.as_slice()[0].is_finite());
    }

    #[test]
    fn rejects_wrong_param_length() {
        let x = Tensor::zeros([1, 3, 2, 2]);
        let (g, b, m, v) = unit_params(2);
        let p = BatchNormParams { gamma: &g, beta: &b, mean: &m, var: &v, eps: 1e-5 };
        assert!(batch_norm(&x, &p).is_err());
    }

    #[test]
    fn rejects_rank_two_input() {
        let x = Tensor::zeros([3, 3]);
        let (g, b, m, v) = unit_params(3);
        let p = BatchNormParams { gamma: &g, beta: &b, mean: &m, var: &v, eps: 1e-5 };
        assert!(batch_norm(&x, &p).is_err());
    }
}
