use std::ops::Range;

use crate::{ScratchArena, Shape, Tensor, TensorError};

use super::activation::{relu6_element, relu_element};
use super::gemm::{gemm, gemm_blocked_with};
use super::microkernel::{
    gemm_indirect, gemm_micro_packed, gemm_row, gemm_row_indirect, gemm_scratch_len,
    gemm_selected_kernel, pack_lhs_into, IndirectRhs, PackedLhs, NR,
};
use super::norm::bn_element;

/// Spatial padding policy for [`conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// Symmetric zero padding of `(kernel - 1) / 2` pixels, preserving the
    /// spatial size for odd kernels at stride 1.
    Same,
    /// Explicit symmetric zero padding in pixels.
    Explicit(usize),
}

/// Configuration of a 2-D convolution: stride, padding, and channel groups.
///
/// # Example
///
/// ```
/// use sfi_tensor::ops::{Conv2dCfg, Padding};
///
/// let cfg = Conv2dCfg::same(1);
/// assert_eq!(cfg.stride, 1);
/// assert_eq!(cfg.padding, Padding::Same);
/// assert_eq!(cfg.groups, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dCfg {
    /// Stride applied in both spatial dimensions.
    pub stride: usize,
    /// Zero-padding policy.
    pub padding: Padding,
    /// Number of channel groups; `groups == in_channels` is a depthwise
    /// convolution.
    pub groups: usize,
}

impl Conv2dCfg {
    /// Stride-`s` convolution with "same" padding and a single group.
    pub fn same(stride: usize) -> Self {
        Self { stride, padding: Padding::Same, groups: 1 }
    }

    /// Stride-`s` convolution with no padding and a single group.
    pub fn valid(stride: usize) -> Self {
        Self { stride, padding: Padding::Explicit(0), groups: 1 }
    }

    /// Returns a copy with the group count replaced.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    fn resolve_padding(&self, kernel: usize) -> usize {
        match self.padding {
            Padding::Same => (kernel - 1) / 2,
            Padding::Explicit(p) => p,
        }
    }
}

/// GEMM kernel selector for the `im2col` convolution path.
///
/// Both kernels are bit-identical (see [`gemm_blocked`](super::gemm_blocked));
/// `Naive` is retained so benches and ablations can measure the historical
/// unblocked path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GemmKernel {
    /// Cache-blocked kernel with a packed B panel (the default).
    #[default]
    Blocked,
    /// Plain m/k/n triple loop — the pre-optimization reference kernel.
    Naive,
}

/// A convolution weight pre-packed for the `im2col` GEMM: one
/// [`PackedLhs`] per channel group, each the group's
/// `c_out/groups x (c_in/groups * k_h * k_w)` weight matrix in the
/// register-tiled kernel's strip layout.
///
/// The conv entry points that accept one ([`conv2d_with`],
/// [`conv2d_from_lowered`], [`conv2d_batched_from_lowered`]) multiply
/// these panels instead of re-packing `weight` on every call. They read
/// `weight` only for its shape: the caller guarantees the panels were
/// packed from the values `weight` holds. Fault campaigns pack each golden
/// conv weight once and never hand a faulted layer its golden panels.
#[derive(Debug, Clone)]
pub struct PackedConvWeight {
    groups: Vec<PackedLhs>,
    /// `[c_out, c_in/groups, k_h, k_w]` of the packed weight.
    dims: [usize; 4],
}

impl PackedConvWeight {
    /// Packs `weight` (`[C_out, C_in/groups, K_h, K_w]`) for a convolution
    /// with `groups` channel groups. Pure data movement.
    ///
    /// # Errors
    ///
    /// Returns an error when `weight` is not rank 4 or `groups` does not
    /// divide its output channels.
    pub fn pack(weight: &Tensor, groups: usize) -> Result<Self, TensorError> {
        const OP: &str = "PackedConvWeight::pack";
        let ws = weight.shape();
        if ws.rank() != 4 {
            return Err(TensorError::RankMismatch { op: OP, expected: 4, actual: ws.rank() });
        }
        if groups == 0 || !ws.n().is_multiple_of(groups) {
            return Err(TensorError::InvalidConfig {
                op: OP,
                reason: format!("groups {groups} must divide out channels {}", ws.n()),
            });
        }
        let m = ws.n() / groups;
        let k = ws.c() * ws.h() * ws.w();
        let w = weight.as_slice();
        let groups = (0..groups).map(|g| PackedLhs::pack(m, k, &w[g * m * k..][..m * k])).collect();
        Ok(Self { groups, dims: [ws.n(), ws.c(), ws.h(), ws.w()] })
    }

    /// Heap footprint of the panels, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.groups.iter().map(PackedLhs::memory_bytes).sum()
    }

    /// Checks that these panels were packed for `weight`'s shape and
    /// `groups`.
    fn check(&self, op: &'static str, weight: &Tensor, groups: usize) -> Result<(), TensorError> {
        let ws = weight.shape();
        if ws.dims() != self.dims || self.groups.len() != groups {
            return Err(TensorError::InvalidConfig {
                op,
                reason: format!(
                    "panels packed for {:?} in {} groups do not match weight {ws} in {groups}",
                    self.dims,
                    self.groups.len()
                ),
            });
        }
        Ok(())
    }
}

/// The GEMM of one conv group: `out += w_group x cols` (`m x k` times
/// `k x n`), over the group's pre-packed panels when `packed` is given,
/// the self-dispatching kernel otherwise. Bit-identical either way.
fn group_gemm(
    packed: Option<&PackedConvWeight>,
    g: usize,
    (m, k, n): (usize, usize, usize),
    w_group: &[f32],
    cols: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    match packed {
        Some(p) => gemm_micro_packed(n, &p.groups[g], cols, out, scratch),
        None => gemm_blocked_with(m, k, n, w_group, cols, out, scratch),
    }
}

/// GEMM scratch for an `m x k x n` conv group at its final size: from the
/// arena when there is one (so the kernel never regrows it), empty
/// otherwise (the kernel grows it once for the call).
fn gemm_scratch(
    arena: Option<&mut ScratchArena>,
    (m, k, n): (usize, usize, usize),
    packed: bool,
) -> Vec<f32> {
    match arena {
        Some(a) => a.take(gemm_scratch_len(m, k, n, packed)),
        None => Vec::new(),
    }
}

struct ConvDims {
    batch: usize,
    c_in: usize,
    h_in: usize,
    w_in: usize,
    c_out: usize,
    c_in_per_group: usize,
    k_h: usize,
    k_w: usize,
    pad: usize,
    h_out: usize,
    w_out: usize,
}

impl ConvDims {
    /// Whether [`conv2d`] dispatches this shape to the depthwise kernel
    /// (which never lowers) instead of the `im2col` + GEMM path.
    fn is_depthwise(&self, cfg: Conv2dCfg) -> bool {
        cfg.groups == self.c_in && self.c_out == self.c_in && self.c_in_per_group == 1
    }

    /// The in-place rule (see [`conv2d_reads_in_place`]): a stride-1,
    /// single-group conv with a kernel larger than 1x1 whose `MR x NR`
    /// tiles never straddle an output row and whose per-image GEMM the
    /// micro tier serves.
    fn reads_in_place(&self, cfg: Conv2dCfg) -> bool {
        let (m, k, n) = (self.c_out, self.c_in * self.k_h * self.k_w, self.h_out * self.w_out);
        self.fits_in_place(cfg) && gemm_selected_kernel(m, k, n) == "micro"
    }

    /// The plane side of a depthwise conv the fixed-size kernel
    /// ([`depthwise_fixed`]) serves: stride 1, a 3x3 kernel with one pixel
    /// of padding, on square 4x4 or 8x8 planes. `None` sends the conv to
    /// [`depthwise_planes`].
    fn fixed_side(&self, cfg: Conv2dCfg) -> Option<usize> {
        let square = self.h_in == self.w_in && matches!(self.h_in, 4 | 8);
        let taps = self.k_h == 3 && self.k_w == 3 && self.pad == 1;
        (self.is_depthwise(cfg) && cfg.stride == 1 && taps && square).then_some(self.h_in)
    }

    /// Whether the in-place kernel can run this conv at all: a stride-1,
    /// single-group, non-depthwise conv with a kernel larger than 1x1
    /// whose `NR`-lane tiles never straddle an output row. 1x1 convs stay
    /// on the im2col path: on MobileNetV2's own activations the in-place
    /// reads did not beat it.
    fn fits_in_place(&self, cfg: Conv2dCfg) -> bool {
        cfg.stride == 1
            && cfg.groups == 1
            && !self.is_depthwise(cfg)
            && self.k_h * self.k_w > 1
            && self.w_out.is_multiple_of(NR)
    }
}

/// A buffer of `len` floats from `arena` (unspecified contents) or freshly
/// allocated.
fn take_buf(arena: Option<&mut ScratchArena>, len: usize) -> Vec<f32> {
    match arena {
        Some(a) => a.take(len),
        None => vec![0.0f32; len],
    }
}

/// The in-place operand geometry of a conv that
/// [`ConvDims::reads_in_place`]: reduction row `ki = (ci, kh, kw)` of the
/// column matrix starts at `offs[ki] = ci * plane + kh * pitch + kw` in
/// the zero-padded input image, whose rows are `pitch` wide.
struct InPlace {
    offs: Vec<usize>,
    pitch: usize,
    plane: usize,
}

impl InPlace {
    fn new(d: &ConvDims) -> Self {
        let pitch = d.w_in + 2 * d.pad;
        let plane = (d.h_in + 2 * d.pad) * pitch;
        let mut offs = Vec::with_capacity(d.c_in * d.k_h * d.k_w);
        for ci in 0..d.c_in {
            for kh in 0..d.k_h {
                offs.extend((0..d.k_w).map(|kw| ci * plane + kh * pitch + kw));
            }
        }
        Self { offs, pitch, plane }
    }

    /// Length of the padded-image buffer [`Self::rhs`] needs (0 unpadded).
    fn padded_len(&self, d: &ConvDims) -> usize {
        if d.pad == 0 {
            0
        } else {
            d.c_in * self.plane
        }
    }

    /// The column matrix of image `n` of `input`: the image itself when
    /// unpadded, otherwise its zero-padded copy written into `padded`.
    fn rhs<'a>(
        &'a self,
        d: &ConvDims,
        input: &'a [f32],
        n: usize,
        padded: &'a mut [f32],
    ) -> IndirectRhs<'a> {
        let len = d.c_in * d.h_in * d.w_in;
        let image = &input[n * len..][..len];
        let src = if d.pad == 0 {
            image
        } else {
            pad_image(image, d, self.pitch, padded);
            &*padded
        };
        IndirectRhs { src, offs: &self.offs, w_out: d.w_out, pitch: self.pitch }
    }
}

/// Writes `image` (`c_in x h_in x w_in`) into `dst` with a `d.pad`-pixel
/// zero border, rows `pitch` wide. Writes every element of `dst`, so a
/// dirty recycled buffer is a safe destination. Pure data movement.
fn pad_image(image: &[f32], d: &ConvDims, pitch: usize, dst: &mut [f32]) {
    let (pad, h_in, w_in) = (d.pad, d.h_in, d.w_in);
    let plane = (h_in + 2 * pad) * pitch;
    dst.fill(0.0);
    for c in 0..d.c_in {
        let src = &image[c * h_in * w_in..][..h_in * w_in];
        let dst = &mut dst[c * plane + pad * pitch + pad..];
        for ih in 0..h_in {
            dst[ih * pitch..][..w_in].copy_from_slice(&src[ih * w_in..][..w_in]);
        }
    }
}

fn validate(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<ConvDims, TensorError> {
    const OP: &str = "conv2d";
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 4,
            actual: weight.shape().rank(),
        });
    }
    let (batch, c_in, h_in, w_in) =
        (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
    let (c_out, c_w, k_h, k_w) =
        (weight.shape().n(), weight.shape().c(), weight.shape().h(), weight.shape().w());
    if cfg.stride == 0 {
        return Err(TensorError::InvalidConfig { op: OP, reason: "stride must be nonzero".into() });
    }
    if cfg.groups == 0 || c_in % cfg.groups != 0 || c_out % cfg.groups != 0 {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!(
                "groups {} must divide in channels {} and out channels {}",
                cfg.groups, c_in, c_out
            ),
        });
    }
    let c_in_per_group = c_in / cfg.groups;
    if c_w != c_in_per_group {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!(
                "weight expects {c_w} input channels per group, input provides {c_in_per_group}"
            ),
        });
    }
    if k_h == 0 || k_w == 0 {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: "kernel must be nonempty".into(),
        });
    }
    let pad = cfg.resolve_padding(k_h.max(k_w));
    let h_padded = h_in + 2 * pad;
    let w_padded = w_in + 2 * pad;
    if h_padded < k_h || w_padded < k_w {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("kernel {k_h}x{k_w} larger than padded input {h_padded}x{w_padded}"),
        });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[c_out]) {
            return Err(TensorError::ShapeMismatch {
                op: OP,
                lhs: b.shape(),
                rhs: Shape::new(&[c_out]),
            });
        }
    }
    let h_out = (h_padded - k_h) / cfg.stride + 1;
    let w_out = (w_padded - k_w) / cfg.stride + 1;
    Ok(ConvDims { batch, c_in, h_in, w_in, c_out, c_in_per_group, k_h, k_w, pad, h_out, w_out })
}

/// 2-D convolution over an NCHW input.
///
/// `input` is `[N, C_in, H, W]`, `weight` is
/// `[C_out, C_in/groups, K_h, K_w]`, `bias` (when present) is `[C_out]`.
/// The implementation dispatches to a specialised depthwise kernel when
/// `groups == C_in == C_out`, and to the `im2col` + blocked-GEMM path
/// otherwise.
///
/// # Errors
///
/// Returns an error when the operand ranks are not 4, the group count does
/// not divide the channel counts, the bias length differs from `C_out`, the
/// stride is zero, or the kernel exceeds the padded input.
///
/// # Example
///
/// ```
/// use sfi_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), sfi_tensor::TensorError> {
/// let input = Tensor::full([1, 1, 3, 3], 1.0);
/// let weight = Tensor::full([1, 1, 3, 3], 1.0);
/// let out = ops::conv2d(&input, &weight, None, ops::Conv2dCfg::same(1))?;
/// // centre pixel sees all nine ones
/// assert_eq!(out.get([0, 0, 1, 1]), Some(9.0));
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    conv2d_kernel(input, weight, bias, cfg, GemmKernel::Blocked)
}

/// [`conv2d`] with an explicit GEMM kernel choice.
///
/// Both kernels produce bit-identical results; `Naive` exists so the
/// pre-optimization path stays measurable (benches, ablation baselines).
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_kernel(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    kernel: GemmKernel,
) -> Result<Tensor, TensorError> {
    let dims = validate(input, weight, bias, cfg)?;
    match (dims.is_depthwise(cfg), kernel) {
        (true, GemmKernel::Naive) => Ok(depthwise_scalar(input, weight, bias, cfg, &dims)),
        (true, GemmKernel::Blocked) => {
            Ok(depthwise(input, weight, bias, cfg, &dims, dims.fixed_side(cfg), None, None))
        }
        (false, GemmKernel::Blocked) if dims.reads_in_place(cfg) => {
            Ok(in_place_conv(input, weight, bias, &dims, None, None, None))
        }
        (false, _) => Ok(im2col_conv(input, weight, bias, cfg, &dims, kernel, None, None, None)),
    }
}

/// [`conv2d`] drawing its column, packing, and output buffers from `arena`
/// instead of the allocator — the campaign-worker hot path — and, when
/// `packed` is given, multiplying `weight`'s pre-packed panels instead of
/// packing it per call (depthwise convs never use panels). An `epilogue`
/// (folded batch norm, activation) runs on each output element after its
/// `+ bias`, so a conv → batch norm → ReLU chain costs one output buffer.
///
/// Bit-identical to [`conv2d`] followed by the unfused
/// [`batch_norm`](super::batch_norm)/[`relu`](super::relu)/[`relu6`](super::relu6)
/// the epilogue stands for; only buffer provenance and packing differ.
///
/// # Errors
///
/// Same conditions as [`conv2d`], plus [`TensorError::InvalidConfig`]
/// when `packed` was packed for another weight shape or group count, or
/// the epilogue's coefficients do not cover the output channels.
pub fn conv2d_with(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    epilogue: Option<&ConvEpilogue<'_>>,
    packed: Option<&PackedConvWeight>,
    arena: &mut ScratchArena,
) -> Result<Tensor, TensorError> {
    const OP: &str = "conv2d_with";
    let dims = validate(input, weight, bias, cfg)?;
    if let Some(p) = packed {
        p.check(OP, weight, cfg.groups)?;
    }
    let ep = ConvEpilogue::checked(OP, epilogue, dims.c_out)?;
    if dims.is_depthwise(cfg) {
        let side = dims.fixed_side(cfg);
        Ok(depthwise(input, weight, bias, cfg, &dims, side, ep, Some(arena)))
    } else {
        let in_place = dims.reads_in_place(cfg);
        Ok(gemm_conv(input, weight, bias, cfg, &dims, in_place, ep, packed, arena))
    }
}

/// [`conv2d_with`] with the in-place rule ([`conv2d_reads_in_place`])
/// overridden: `in_place` picks the indirect kernel over the input or the
/// im2col path for any GEMM conv the indirect kernel can run.
/// Bit-identical to [`conv2d`] either way.
///
/// Bench and test use only: the kernels bench times both sides of the
/// rule with it and the bit-identity suite forces both paths. Production
/// callers use [`conv2d_with`], which follows the rule.
///
/// # Errors
///
/// Same conditions as [`conv2d_with`], plus [`TensorError::InvalidConfig`]
/// for a depthwise conv (it has no GEMM path), and for `in_place` on a
/// conv that is not stride-1 and single-group, has a 1x1 kernel, or whose
/// output rows split the kernel's 8-lane tiles.
#[doc(hidden)]
pub fn conv2d_path_with(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    in_place: bool,
    packed: Option<&PackedConvWeight>,
    arena: &mut ScratchArena,
) -> Result<Tensor, TensorError> {
    const OP: &str = "conv2d_path_with";
    let dims = validate(input, weight, bias, cfg)?;
    if let Some(p) = packed {
        p.check(OP, weight, cfg.groups)?;
    }
    if dims.is_depthwise(cfg) || (in_place && !dims.fits_in_place(cfg)) {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("no {} GEMM path", if in_place { "in-place" } else { "im2col" }),
        });
    }
    Ok(gemm_conv(input, weight, bias, cfg, &dims, in_place, None, packed, arena))
}

/// [`conv2d_with`] on a depthwise conv with the fixed-size rule
/// ([`conv2d_depthwise_fixed`]) overridden: `fixed` picks the fixed-size
/// kernel or the plane kernel. Bit-identical to [`conv2d_with`] either
/// way.
///
/// Bench and test use only, as for [`conv2d_path_with`].
///
/// # Errors
///
/// Same conditions as [`conv2d_with`], plus [`TensorError::InvalidConfig`]
/// for a conv that is not depthwise, and for `fixed` on a shape the
/// fixed-size kernel does not serve.
#[doc(hidden)]
pub fn depthwise_path_with(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    fixed: bool,
    epilogue: Option<&ConvEpilogue<'_>>,
    arena: &mut ScratchArena,
) -> Result<Tensor, TensorError> {
    const OP: &str = "depthwise_path_with";
    let dims = validate(input, weight, bias, cfg)?;
    let side = dims.fixed_side(cfg);
    if !dims.is_depthwise(cfg) || (fixed && side.is_none()) {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("no {} depthwise path", if fixed { "fixed-size" } else { "plane" }),
        });
    }
    let ep = ConvEpilogue::checked(OP, epilogue, dims.c_out)?;
    let side = side.filter(|_| fixed);
    Ok(depthwise(input, weight, bias, cfg, &dims, side, ep, Some(arena)))
}

/// The GEMM conv of [`conv2d_with`]: in place or over an im2col buffer.
#[allow(clippy::too_many_arguments)]
fn gemm_conv(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
    in_place: bool,
    ep: Option<&ConvEpilogue<'_>>,
    packed: Option<&PackedConvWeight>,
    arena: &mut ScratchArena,
) -> Tensor {
    if in_place {
        in_place_conv(input, weight, bias, d, ep, packed, Some(arena))
    } else {
        im2col_conv(input, weight, bias, cfg, d, GemmKernel::Blocked, ep, packed, Some(arena))
    }
}

/// Reference direct (sextuple-loop) convolution.
///
/// Retained as the test oracle and the baseline of the `ablation_conv`
/// bench. Note that padded positions are *skipped* here while the `im2col`
/// path multiplies them as explicit zeros — numerically identical for
/// finite weights, but with NaN/Inf weights the paths legitimately differ
/// at padded border pixels (`0.0 * NaN` is NaN).
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    let d = validate(input, weight, bias, cfg)?;
    let mut out = Tensor::zeros([d.batch, d.c_out, d.h_out, d.w_out]);
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let out_data = out.as_mut_slice();
    let c_out_per_group = d.c_out / cfg.groups;
    for n in 0..d.batch {
        for co in 0..d.c_out {
            let g = co / c_out_per_group;
            let base = bias.map_or(0.0, |b| b.as_slice()[co]);
            for oh in 0..d.h_out {
                for ow in 0..d.w_out {
                    let mut acc = 0.0f32;
                    for ci_g in 0..d.c_in_per_group {
                        let ci = g * d.c_in_per_group + ci_g;
                        for kh in 0..d.k_h {
                            let ih = (oh * cfg.stride + kh) as isize - d.pad as isize;
                            if ih < 0 || ih as usize >= d.h_in {
                                continue;
                            }
                            for kw in 0..d.k_w {
                                let iw = (ow * cfg.stride + kw) as isize - d.pad as isize;
                                if iw < 0 || iw as usize >= d.w_in {
                                    continue;
                                }
                                let in_idx = ((n * d.c_in + ci) * d.h_in + ih as usize) * d.w_in
                                    + iw as usize;
                                let w_idx =
                                    ((co * d.c_in_per_group + ci_g) * d.k_h + kh) * d.k_w + kw;
                                acc += in_data[in_idx] * w_data[w_idx];
                            }
                        }
                    }
                    let out_idx = ((n * d.c_out + co) * d.h_out + oh) * d.w_out + ow;
                    out_data[out_idx] = acc + base;
                }
            }
        }
    }
    Ok(out)
}

/// `im2col` + naive-GEMM convolution, exposed for the conv-strategy
/// ablation bench (the historical kernel, before blocking).
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    let dims = validate(input, weight, bias, cfg)?;
    Ok(im2col_conv(input, weight, bias, cfg, &dims, GemmKernel::Naive, None, None, None))
}

/// Whether `(input, weight, cfg)` is a GEMM convolution — one an
/// [`im2col_lower`] or [`im2col_lower_batched`] of this input can feed —
/// rather than a depthwise one. Depthwise-dispatched and invalid
/// configurations return `false`.
///
/// Not every such conv lowers on every path: per-image GEMMs of the convs
/// [`conv2d_reads_in_place`] accepts read the input in place, and only
/// the batched engine's panels lower them.
pub fn conv2d_uses_lowering(input: &Tensor, weight: &Tensor, cfg: Conv2dCfg) -> bool {
    match validate(input, weight, None, cfg) {
        Ok(d) => !d.is_depthwise(cfg),
        Err(_) => false,
    }
}

/// Whether the per-image GEMMs of `(input, weight, cfg)` read the input in
/// place — an indirect (implicit-GEMM) multiply over the zero-padded
/// image, or the input tensor itself when unpadded — instead of lowering
/// it to an im2col column buffer that the GEMM packs again.
///
/// [`conv2d`], [`conv2d_kernel`] with [`GemmKernel::Blocked`] and
/// [`conv2d_with`] take that path for exactly these convs, and
/// [`conv2d_channel_in_place`] is their single-channel probe. The rule is
/// a constant shape predicate: stride 1 and one group; a kernel larger
/// than 1x1 (pointwise convs keep the im2col path); output rows a multiple
/// of the tile's 8 lanes; and a per-image GEMM the register-tiled micro
/// tier serves. Invalid configurations return `false`.
pub fn conv2d_reads_in_place(input: &Tensor, weight: &Tensor, cfg: Conv2dCfg) -> bool {
    match validate(input, weight, None, cfg) {
        Ok(d) => d.reads_in_place(cfg),
        Err(_) => false,
    }
}

/// Whether [`conv2d`] and [`conv2d_with`] run the depthwise conv
/// `(input, weight, cfg)` through the fixed-size kernel instead of the
/// plane kernel: stride 1, a 3x3 kernel with one pixel of padding, on
/// square 4x4 or 8x8 planes. Both kernels are bit-identical to the scalar
/// loop. Non-depthwise and invalid configurations return `false`.
pub fn conv2d_depthwise_fixed(input: &Tensor, weight: &Tensor, cfg: Conv2dCfg) -> bool {
    match validate(input, weight, None, cfg) {
        Ok(d) => d.fixed_side(cfg).is_some(),
        Err(_) => false,
    }
}

/// One output channel of a convolution that [`conv2d_reads_in_place`],
/// bit-identically to [`conv2d`]: the single weight row `channel`
/// multiplied in place over each image's zero-padded input, plus the
/// channel's bias term. Returns `batch * h_out * w_out` values laid out
/// `[batch][spatial]`, drawn from `arena` when one is supplied — the
/// in-place counterpart of [`conv2d_channel_from_lowered`] behind the
/// campaign's single-channel convergence probe.
///
/// # Errors
///
/// Same conditions as [`conv2d`], plus [`TensorError::InvalidConfig`] when
/// the conv does not read its input in place or `channel` is out of range.
pub fn conv2d_channel_in_place(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    channel: usize,
    mut arena: Option<&mut ScratchArena>,
) -> Result<Vec<f32>, TensorError> {
    const OP: &str = "conv2d_channel_in_place";
    let d = validate(input, weight, bias, cfg)?;
    if !d.reads_in_place(cfg) {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: "the convolution does not read its input in place".into(),
        });
    }
    if channel >= d.c_out {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("channel {channel} out of range for {} output channels", d.c_out),
        });
    }
    let (k, n) = (d.c_in * d.k_h * d.k_w, d.h_out * d.w_out);
    let w_row = &weight.as_slice()[channel * k..][..k];
    let geometry = InPlace::new(&d);
    let mut padded = take_buf(arena.as_deref_mut(), geometry.padded_len(&d));
    let mut out = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(d.batch * n),
        None => vec![0.0f32; d.batch * n],
    };
    for img in 0..d.batch {
        let rhs = geometry.rhs(&d, input.as_slice(), img, &mut padded);
        gemm_row_indirect(k, n, w_row, &rhs, &mut out[img * n..][..n]);
    }
    if let Some(b) = bias {
        let bv = b.as_slice()[channel];
        for v in out.iter_mut() {
            *v += bv;
        }
    }
    if let Some(a) = arena {
        a.recycle(padded);
    }
    Ok(out)
}

/// The im2col column panels of one convolution input, precomputed by
/// [`im2col_lower`] and consumed by [`conv2d_from_lowered`].
///
/// Fault campaigns cache one of these per `(conv node, eval image)`: every
/// fault in a stratum perturbs the same layer, and incremental re-execution
/// feeds that layer its *golden* input, so the column matrix is byte-
/// identical across all of the stratum's faults and need only be lowered
/// once.
#[derive(Debug, Clone)]
pub struct LoweredConv {
    /// `[batch][group]` panels of `k_len * spatial` elements each.
    cols: Vec<f32>,
    batch: usize,
    groups: usize,
    c_out: usize,
    c_in_per_group: usize,
    k_h: usize,
    k_w: usize,
    k_len: usize,
    spatial: usize,
    h_out: usize,
    w_out: usize,
}

impl LoweredConv {
    /// Heap footprint of the cached panels, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<f32>()
    }

    fn panel(&self, n: usize, g: usize) -> &[f32] {
        let len = self.k_len * self.spatial;
        &self.cols[(n * self.groups + g) * len..][..len]
    }
}

/// Precomputes the im2col column panels of `input` for the convolution
/// described by `(weight, cfg)`.
///
/// The panels depend only on the *input* values and the geometry — not on
/// the weight values — so they stay valid under any weight fault.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn im2col_lower(
    input: &Tensor,
    weight: &Tensor,
    cfg: Conv2dCfg,
) -> Result<LoweredConv, TensorError> {
    let d = validate(input, weight, None, cfg)?;
    let spatial = d.h_out * d.w_out;
    let k_len = d.c_in_per_group * d.k_h * d.k_w;
    let panel = k_len * spatial;
    let mut cols = vec![0.0f32; d.batch * cfg.groups * panel];
    let in_data = input.as_slice();
    for n in 0..d.batch {
        for g in 0..cfg.groups {
            lower_group_fast(
                in_data,
                cfg,
                &d,
                n,
                g,
                &mut cols[(n * cfg.groups + g) * panel..][..panel],
            );
        }
    }
    Ok(LoweredConv {
        cols,
        batch: d.batch,
        groups: cfg.groups,
        c_out: d.c_out,
        c_in_per_group: d.c_in_per_group,
        k_h: d.k_h,
        k_w: d.k_w,
        k_len,
        spatial,
        h_out: d.h_out,
        w_out: d.w_out,
    })
}

/// Convolution over pre-lowered column panels: skips the lowering pass and
/// goes straight to the blocked GEMM — over `weight`'s pre-packed panels
/// when `packed` is given — then `+ bias` and the optional `epilogue`, as
/// in [`conv2d_with`]. Bit-identical to [`conv2d`] (and the unfused chain
/// the epilogue stands for) on the input `lowered` was built from.
///
/// # Errors
///
/// Returns [`TensorError::InvalidConfig`] when `weight`'s shape does not
/// match the geometry the panels were lowered for, `packed` was packed
/// for another shape, or the epilogue does not cover the output channels,
/// or a shape error for a mismatched bias.
pub fn conv2d_from_lowered(
    lowered: &LoweredConv,
    weight: &Tensor,
    bias: Option<&Tensor>,
    epilogue: Option<&ConvEpilogue<'_>>,
    packed: Option<&PackedConvWeight>,
    mut arena: Option<&mut ScratchArena>,
) -> Result<Tensor, TensorError> {
    const OP: &str = "conv2d_from_lowered";
    validate_lowered(OP, lowered, weight, bias)?;
    if let Some(p) = packed {
        p.check(OP, weight, lowered.groups)?;
    }
    let ep = ConvEpilogue::checked(OP, epilogue, lowered.c_out)?;
    let (k_len, spatial) = (lowered.k_len, lowered.spatial);
    let c_out_per_group = lowered.c_out / lowered.groups;
    let mnk = (c_out_per_group, k_len, spatial);
    let out_len = lowered.batch * lowered.c_out * spatial;
    let mut out_data = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(out_len),
        None => vec![0.0f32; out_len],
    };
    let mut scratch = gemm_scratch(arena.as_deref_mut(), mnk, packed.is_some());
    let w_data = weight.as_slice();
    for n in 0..lowered.batch {
        for g in 0..lowered.groups {
            let w_group = &w_data[g * c_out_per_group * k_len..][..c_out_per_group * k_len];
            let out_group = &mut out_data[(n * lowered.c_out + g * c_out_per_group) * spatial..]
                [..c_out_per_group * spatial];
            group_gemm(packed, g, mnk, w_group, lowered.panel(n, g), out_group, &mut scratch);
        }
        let image_len = lowered.c_out * spatial;
        finish_image(&mut out_data[n * image_len..][..image_len], bias, ep, spatial);
    }
    if let Some(a) = arena {
        a.recycle(scratch);
    }
    Ok(Tensor::from_vec([lowered.batch, lowered.c_out, lowered.h_out, lowered.w_out], out_data)
        .expect("output length follows from lowered dims"))
}

/// Weight/bias validation shared by the from-lowered entry points.
fn validate_lowered(
    op: &'static str,
    lowered: &LoweredConv,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<(), TensorError> {
    let ws = weight.shape();
    if ws.rank() != 4 {
        return Err(TensorError::RankMismatch { op, expected: 4, actual: ws.rank() });
    }
    if ws.n() != lowered.c_out
        || ws.c() != lowered.c_in_per_group
        || ws.h() != lowered.k_h
        || ws.w() != lowered.k_w
    {
        return Err(TensorError::InvalidConfig {
            op,
            reason: format!(
                "weight {ws} does not match panels lowered for [{}, {}, {}, {}]",
                lowered.c_out, lowered.c_in_per_group, lowered.k_h, lowered.k_w
            ),
        });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[lowered.c_out]) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: b.shape(),
                rhs: Shape::new(&[lowered.c_out]),
            });
        }
    }
    Ok(())
}

/// One output channel of [`conv2d_from_lowered`], bit-identically: the
/// single GEMM row `channel` over each image's panel plus that channel's
/// bias term. Returns `batch * spatial` values laid out `[batch][spatial]`
/// (drawn from `arena` when one is supplied — recycle the buffer when
/// done).
///
/// This is the kernel behind the campaign's *single-channel convergence
/// probe*: a weight fault in a conv layer can only reach output channel
/// `weight_index / (c_in_per_group * k_h * k_w)`; every other channel is a
/// deterministic recomputation from golden inputs and golden weight rows,
/// so probing the one reachable channel decides whole-node convergence at
/// `~1/c_out` of the node's GEMM cost. Bit identity with the full kernel
/// holds because every GEMM kernel accumulates each output element one
/// partial product at a time in increasing-`k` order (see
/// [`gemm_blocked`](super::gemm_blocked)), so a lone row carries exactly
/// the bits the full multiply would give it.
///
/// # Errors
///
/// Same conditions as [`conv2d_from_lowered`], plus
/// [`TensorError::InvalidConfig`] when `channel` is out of range.
pub fn conv2d_channel_from_lowered(
    lowered: &LoweredConv,
    weight: &Tensor,
    bias: Option<&Tensor>,
    channel: usize,
    arena: Option<&mut ScratchArena>,
) -> Result<Vec<f32>, TensorError> {
    const OP: &str = "conv2d_channel_from_lowered";
    validate_lowered(OP, lowered, weight, bias)?;
    if channel >= lowered.c_out {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("channel {channel} out of range for {} output channels", lowered.c_out),
        });
    }
    let (k_len, spatial) = (lowered.k_len, lowered.spatial);
    let c_out_per_group = lowered.c_out / lowered.groups;
    let g = channel / c_out_per_group;
    let w_row = &weight.as_slice()[channel * k_len..][..k_len];
    let mut out = match arena {
        Some(a) => a.take_zeroed(lowered.batch * spatial),
        None => vec![0.0f32; lowered.batch * spatial],
    };
    for n in 0..lowered.batch {
        // gemm_row self-selects between the lane-tiled row microkernel and
        // the naive loop by panel footprint; both are bit-identical to
        // `gemm(1, ..)`.
        gemm_row(k_len, spatial, w_row, lowered.panel(n, g), &mut out[n * spatial..][..spatial]);
    }
    if let Some(b) = bias {
        let bv = b.as_slice()[channel];
        for v in out.iter_mut() {
            *v += bv;
        }
    }
    Ok(out)
}

/// The activation applied by a fused conv epilogue, after the optional
/// folded batch norm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusedActivation {
    /// No activation.
    #[default]
    None,
    /// `max(x, 0)` with the exact compare-and-select of [`super::relu`].
    Relu,
    /// `clamp(x, 0, 6)` with the exact semantics of [`super::relu6`].
    Relu6,
}

/// Element-wise tail fused into the batched conv scatter: an optional
/// folded batch norm (per-output-channel `scale`/`shift` from
/// [`super::bn_channel_scale_shift`]) followed by an optional activation.
///
/// Applying the epilogue during the GEMM-output scatter produces exactly
/// the bits of running the unfused `conv → batch_norm → relu` chain: the
/// per-element operation sequence (`+ bias`, `* scale + shift`,
/// compare-and-select) is identical — only the intermediate buffers
/// disappear.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    /// Folded batch-norm coefficients, per output channel.
    pub bn: Option<(&'a [f32], &'a [f32])>,
    /// Fused activation, applied last.
    pub act: FusedActivation,
}

impl FusedActivation {
    /// The activation of one element, through the element function the
    /// unfused kernel applies.
    #[inline]
    fn apply(self, v: f32) -> f32 {
        match self {
            FusedActivation::None => v,
            FusedActivation::Relu => relu_element(v),
            FusedActivation::Relu6 => relu6_element(v),
        }
    }
}

impl ConvEpilogue<'_> {
    /// The epilogue of one element of output channel `channel`.
    #[inline]
    fn apply(&self, channel: usize, v: f32) -> f32 {
        let v = match self.bn {
            Some((scale, shift)) => bn_element(v, scale[channel], shift[channel]),
            None => v,
        };
        self.act.apply(v)
    }

    /// [`Self::apply`] in place over a run of output channel `channel`'s
    /// elements, one pass per stage: the same per-element sequence, so the
    /// same bits, with each stage's loop free of branches.
    fn apply_run(&self, channel: usize, run: &mut [f32]) {
        if let Some((scale, shift)) = self.bn {
            let (s, t) = (scale[channel], shift[channel]);
            run.iter_mut().for_each(|v| *v = bn_element(*v, s, t));
        }
        match self.act {
            FusedActivation::None => {}
            FusedActivation::Relu => run.iter_mut().for_each(|v| *v = relu_element(*v)),
            FusedActivation::Relu6 => run.iter_mut().for_each(|v| *v = relu6_element(*v)),
        }
    }

    /// `epilogue` checked against `c_out` output channels, with the
    /// identity epilogue mapped to `None` (nothing to apply).
    fn checked<'e>(
        op: &'static str,
        epilogue: Option<&'e Self>,
        c_out: usize,
    ) -> Result<Option<&'e Self>, TensorError> {
        let Some(ep) = epilogue else { return Ok(None) };
        if let Some((scale, shift)) = ep.bn {
            if scale.len() != c_out || shift.len() != c_out {
                return Err(TensorError::InvalidConfig {
                    op,
                    reason: format!(
                        "epilogue coefficients ({}, {}) do not cover {c_out} output channels",
                        scale.len(),
                        shift.len(),
                    ),
                });
            }
        }
        Ok((ep.bn.is_some() || ep.act != FusedActivation::None).then_some(ep))
    }
}

/// The image-interleaved im2col panels of one convolution input batch,
/// shaped for the batched eval-image forward: per group, one
/// `k_len x (batch * spatial)` panel whose columns are image-major
/// (`column = image * spatial + pixel`), so the whole batch costs **one
/// GEMM per group** instead of one per image.
///
/// Per output element the GEMM accumulation is indistinguishable from the
/// per-image [`LoweredConv`] path — batching concatenates independent
/// columns, never touching any element's `k`-order accumulation chain — so
/// batched and per-image convolution are bit-identical.
#[derive(Debug, Clone)]
pub struct BatchedLowered {
    /// `[group]` panels of `k_len * batch * spatial` elements each.
    cols: Vec<f32>,
    batch: usize,
    groups: usize,
    c_out: usize,
    c_in_per_group: usize,
    k_h: usize,
    k_w: usize,
    k_len: usize,
    spatial: usize,
    h_out: usize,
    w_out: usize,
}

impl BatchedLowered {
    /// Heap footprint of the panels, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<f32>()
    }

    /// Number of images interleaved in each panel.
    pub fn batch(&self) -> usize {
        self.batch
    }

    fn panel(&self, g: usize) -> &[f32] {
        let len = self.k_len * self.batch * self.spatial;
        &self.cols[g * len..][..len]
    }

    /// Consumes the panels, returning the backing buffer for arena
    /// recycling.
    pub fn into_cols(self) -> Vec<f32> {
        self.cols
    }
}

/// Lowers a (multi-image) input batch directly into the image-interleaved
/// panels of [`BatchedLowered`], drawing the buffer from `arena` when one
/// is supplied. The per-(row, image) bytes written are exactly those of
/// [`im2col_lower`] — only their placement differs.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn im2col_lower_batched(
    input: &Tensor,
    weight: &Tensor,
    cfg: Conv2dCfg,
    arena: Option<&mut ScratchArena>,
) -> Result<BatchedLowered, TensorError> {
    let d = validate(input, weight, None, cfg)?;
    let spatial = d.h_out * d.w_out;
    let k_len = d.c_in_per_group * d.k_h * d.k_w;
    let row_stride = d.batch * spatial;
    let panel = k_len * row_stride;
    let mut cols = match arena {
        Some(a) => a.take(cfg.groups * panel),
        None => vec![0.0f32; cfg.groups * panel],
    };
    let in_data = input.as_slice();
    for g in 0..cfg.groups {
        let dst = &mut cols[g * panel..][..panel];
        for n in 0..d.batch {
            lower_group_fast_strided(in_data, cfg, &d, n, g, dst, row_stride, n * spatial);
        }
    }
    Ok(BatchedLowered {
        cols,
        batch: d.batch,
        groups: cfg.groups,
        c_out: d.c_out,
        c_in_per_group: d.c_in_per_group,
        k_h: d.k_h,
        k_w: d.k_w,
        k_len,
        spatial,
        h_out: d.h_out,
        w_out: d.w_out,
    })
}

/// Weight/bias validation for the batched panels (mirrors
/// [`validate_lowered`]).
fn validate_batched(
    op: &'static str,
    lowered: &BatchedLowered,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<(), TensorError> {
    let ws = weight.shape();
    if ws.rank() != 4 {
        return Err(TensorError::RankMismatch { op, expected: 4, actual: ws.rank() });
    }
    if ws.n() != lowered.c_out
        || ws.c() != lowered.c_in_per_group
        || ws.h() != lowered.k_h
        || ws.w() != lowered.k_w
    {
        return Err(TensorError::InvalidConfig {
            op,
            reason: format!(
                "weight {ws} does not match panels lowered for [{}, {}, {}, {}]",
                lowered.c_out, lowered.c_in_per_group, lowered.k_h, lowered.k_w
            ),
        });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[lowered.c_out]) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: b.shape(),
                rhs: Shape::new(&[lowered.c_out]),
            });
        }
    }
    Ok(())
}

/// Batched convolution over image-interleaved panels: one GEMM per group
/// covers every image — over `weight`'s pre-packed panels when `packed` is
/// given — and the GEMM-output scatter back to NCHW applies the bias and
/// an optional fused epilogue (folded batch norm, ReLU) in the same pass.
///
/// Bit-identical to running [`conv2d_from_lowered`] per image followed by
/// the unfused `batch_norm`/`relu` ops: each output element's `k`
/// accumulation order, bias add, affine fold, and clamp are the exact
/// per-element operation sequence of the unfused chain (see
/// [`ConvEpilogue`]).
///
/// # Errors
///
/// Same conditions as [`conv2d_from_lowered`].
pub fn conv2d_batched_from_lowered(
    lowered: &BatchedLowered,
    weight: &Tensor,
    bias: Option<&Tensor>,
    epilogue: Option<&ConvEpilogue<'_>>,
    packed: Option<&PackedConvWeight>,
    mut arena: Option<&mut ScratchArena>,
) -> Result<Tensor, TensorError> {
    const OP: &str = "conv2d_batched_from_lowered";
    validate_batched(OP, lowered, weight, bias)?;
    if let Some(p) = packed {
        p.check(OP, weight, lowered.groups)?;
    }
    ConvEpilogue::checked(OP, epilogue, lowered.c_out)?;
    let (k_len, spatial, batch) = (lowered.k_len, lowered.spatial, lowered.batch);
    let bspatial = batch * spatial;
    let c_out_per_group = lowered.c_out / lowered.groups;
    let mnk = (c_out_per_group, k_len, bspatial);
    let mut gemm_out = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(c_out_per_group * bspatial),
        None => vec![0.0f32; c_out_per_group * bspatial],
    };
    let mut scratch = gemm_scratch(arena.as_deref_mut(), mnk, packed.is_some());
    let mut out_data = match arena.as_deref_mut() {
        Some(a) => a.take(batch * lowered.c_out * spatial),
        None => vec![0.0f32; batch * lowered.c_out * spatial],
    };
    let w_data = weight.as_slice();
    let b_data = bias.map(Tensor::as_slice);
    let identity = ConvEpilogue::default();
    let ep = epilogue.unwrap_or(&identity);
    for g in 0..lowered.groups {
        let w_group = &w_data[g * c_out_per_group * k_len..][..c_out_per_group * k_len];
        if g > 0 {
            gemm_out.fill(0.0);
        }
        group_gemm(packed, g, mnk, w_group, lowered.panel(g), &mut gemm_out, &mut scratch);
        // Scatter [c][image * spatial] rows into NCHW, fusing bias + tail.
        for cg in 0..c_out_per_group {
            let co = g * c_out_per_group + cg;
            let src_row = &gemm_out[cg * bspatial..][..bspatial];
            for n in 0..batch {
                let src = &src_row[n * spatial..][..spatial];
                let dst = &mut out_data[(n * lowered.c_out + co) * spatial..][..spatial];
                match b_data {
                    Some(b) => {
                        let bv = b[co];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = ep.apply(co, s + bv);
                        }
                    }
                    None => {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = ep.apply(co, s);
                        }
                    }
                }
            }
        }
    }
    if let Some(a) = arena {
        a.recycle(scratch);
        a.recycle(gemm_out);
    }
    Ok(Tensor::from_vec([batch, lowered.c_out, lowered.h_out, lowered.w_out], out_data)
        .expect("output length follows from lowered dims"))
}

/// One output channel of the batched convolution, bit-identically: a
/// single GEMM row over the image-interleaved panel plus the channel's
/// bias term. Returns `batch * spatial` values laid out `[image][spatial]`
/// — the same layout as [`conv2d_channel_from_lowered`], so the two probe
/// kernels are interchangeable bit-for-bit.
///
/// # Errors
///
/// Same conditions as [`conv2d_channel_from_lowered`].
pub fn conv2d_channel_batched(
    lowered: &BatchedLowered,
    weight: &Tensor,
    bias: Option<&Tensor>,
    channel: usize,
    arena: Option<&mut ScratchArena>,
) -> Result<Vec<f32>, TensorError> {
    const OP: &str = "conv2d_channel_batched";
    validate_batched(OP, lowered, weight, bias)?;
    if channel >= lowered.c_out {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("channel {channel} out of range for {} output channels", lowered.c_out),
        });
    }
    let (k_len, bspatial) = (lowered.k_len, lowered.batch * lowered.spatial);
    let c_out_per_group = lowered.c_out / lowered.groups;
    let g = channel / c_out_per_group;
    let w_row = &weight.as_slice()[channel * k_len..][..k_len];
    let mut out = match arena {
        Some(a) => a.take_zeroed(bspatial),
        None => vec![0.0f32; bspatial],
    };
    gemm_row(k_len, bspatial, w_row, lowered.panel(g), &mut out);
    if let Some(b) = bias {
        let bv = b.as_slice()[channel];
        for v in out.iter_mut() {
            *v += bv;
        }
    }
    Ok(out)
}

/// Lowers image `n`, group `g` of `in_data` into `cols` (`k_len x spatial`,
/// row-major). Writes **every** element — padding positions become explicit
/// zeros — so dirty (recycled) buffers are safe destinations.
/// [`lower_group`] with the per-element border test hoisted out of the
/// inner loop — the fast-path lowering.
///
/// For stride-1 convolutions every destination row splits into a zero
/// left border, one contiguous slice copy from the input row, and a zero
/// right border, so the branchy per-pixel gather becomes `fill`s and a
/// `copy_from_slice`. Pure data movement: it writes exactly the same
/// column matrix as [`lower_group`] (bit-identical by construction — no
/// floating-point arithmetic is performed), so the GEMM consuming it
/// cannot tell the difference. Strides other than 1 fall back to the
/// scalar gather.
fn lower_group_fast(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
) {
    let spatial = d.h_out * d.w_out;
    lower_group_fast_strided(in_data, cfg, d, n, g, cols, spatial, 0);
}

/// [`lower_group_fast`] writing each column-matrix row at
/// `row * row_stride + row_offset` instead of densely at `row * spatial` —
/// the addressing hook that lets one lowering kernel serve both the
/// per-image panels (`row_stride == spatial`) and the image-interleaved
/// batched panels of [`im2col_lower_batched`] (`row_stride ==
/// batch * spatial`, `row_offset == n * spatial`). Pure data movement
/// either way: the bytes written per (row, image) are identical.
#[allow(clippy::too_many_arguments)]
fn lower_group_fast_strided(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
    row_stride: usize,
    row_offset: usize,
) {
    if cfg.stride != 1 {
        return lower_group_strided(in_data, cfg, d, n, g, cols, row_stride, row_offset);
    }
    let spatial = d.h_out * d.w_out;
    for ci_g in 0..d.c_in_per_group {
        let ci = g * d.c_in_per_group + ci_g;
        let in_chan = &in_data[(n * d.c_in + ci) * d.h_in * d.w_in..][..d.h_in * d.w_in];
        for kh in 0..d.k_h {
            for kw in 0..d.k_w {
                let row = (ci_g * d.k_h + kh) * d.k_w + kw;
                let dst = &mut cols[row * row_stride + row_offset..][..spatial];
                // iw = ow + w_shift; valid input columns are a contiguous
                // run of ow, bounded below by iw >= 0 and above by
                // iw < w_in.
                let w_shift = kw as isize - d.pad as isize;
                let ow_hi = ((d.w_in as isize - w_shift).max(0) as usize).min(d.w_out);
                let ow_lo = ((-w_shift).max(0) as usize).min(ow_hi);
                for oh in 0..d.h_out {
                    let ih = (oh + kh) as isize - d.pad as isize;
                    let dst_row = &mut dst[oh * d.w_out..(oh + 1) * d.w_out];
                    if ih < 0 || ih as usize >= d.h_in {
                        dst_row.fill(0.0);
                        continue;
                    }
                    let in_row = &in_chan[ih as usize * d.w_in..][..d.w_in];
                    dst_row[..ow_lo].fill(0.0);
                    dst_row[ow_lo..ow_hi].copy_from_slice(
                        &in_row[(ow_lo as isize + w_shift) as usize
                            ..(ow_hi as isize + w_shift) as usize],
                    );
                    dst_row[ow_hi..].fill(0.0);
                }
            }
        }
    }
}

fn lower_group(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
) {
    let spatial = d.h_out * d.w_out;
    lower_group_strided(in_data, cfg, d, n, g, cols, spatial, 0);
}

/// [`lower_group`] with the strided row addressing of
/// [`lower_group_fast_strided`] — the scalar-gather fallback for strides
/// other than 1.
#[allow(clippy::too_many_arguments)]
fn lower_group_strided(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
    row_stride: usize,
    row_offset: usize,
) {
    let spatial = d.h_out * d.w_out;
    for ci_g in 0..d.c_in_per_group {
        let ci = g * d.c_in_per_group + ci_g;
        let in_chan = &in_data[(n * d.c_in + ci) * d.h_in * d.w_in..][..d.h_in * d.w_in];
        for kh in 0..d.k_h {
            for kw in 0..d.k_w {
                let row = (ci_g * d.k_h + kh) * d.k_w + kw;
                let dst = &mut cols[row * row_stride + row_offset..][..spatial];
                let mut idx = 0usize;
                for oh in 0..d.h_out {
                    let ih = (oh * cfg.stride + kh) as isize - d.pad as isize;
                    if ih < 0 || ih as usize >= d.h_in {
                        for _ in 0..d.w_out {
                            dst[idx] = 0.0;
                            idx += 1;
                        }
                        continue;
                    }
                    let in_row = &in_chan[ih as usize * d.w_in..][..d.w_in];
                    for ow in 0..d.w_out {
                        let iw = (ow * cfg.stride + kw) as isize - d.pad as isize;
                        dst[idx] =
                            if iw < 0 || iw as usize >= d.w_in { 0.0 } else { in_row[iw as usize] };
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// Finishes one image (`c_out x spatial`) of a GEMM conv's output: per
/// output channel, `+ bias` when there is one, then the epilogue — the
/// per-element sequence of the unfused conv → batch norm → activation
/// chain.
fn finish_image(
    image: &mut [f32],
    bias: Option<&Tensor>,
    ep: Option<&ConvEpilogue<'_>>,
    spatial: usize,
) {
    for (co, run) in image.chunks_exact_mut(spatial).enumerate() {
        if let Some(b) = bias {
            let bv = b.as_slice()[co];
            for v in run.iter_mut() {
                *v += bv;
            }
        }
        if let Some(ep) = ep {
            ep.apply_run(co, run);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn im2col_conv(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
    kernel: GemmKernel,
    ep: Option<&ConvEpilogue<'_>>,
    packed: Option<&PackedConvWeight>,
    mut arena: Option<&mut ScratchArena>,
) -> Tensor {
    let spatial = d.h_out * d.w_out;
    let k_len = d.c_in_per_group * d.k_h * d.k_w;
    let c_out_per_group = d.c_out / cfg.groups;
    let mnk = (c_out_per_group, k_len, spatial);
    let out_len = d.batch * d.c_out * spatial;
    let mut out_data = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(out_len),
        None => vec![0.0f32; out_len],
    };
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    // Column buffer reused across images and groups; `lower_group` writes
    // every element, so a dirty recycled buffer is fine.
    let mut cols = match arena.as_deref_mut() {
        Some(a) => a.take(k_len * spatial),
        None => vec![0.0f32; k_len * spatial],
    };
    let mut scratch = gemm_scratch(arena.as_deref_mut(), mnk, packed.is_some());
    for n in 0..d.batch {
        for g in 0..cfg.groups {
            // The Naive kernel keeps the historical scalar gather so the
            // pre-optimization cost model stays measurable; the fast path
            // lowers with slice copies. Both write the same column matrix.
            match kernel {
                GemmKernel::Naive => lower_group(in_data, cfg, d, n, g, &mut cols),
                GemmKernel::Blocked => lower_group_fast(in_data, cfg, d, n, g, &mut cols),
            }
            // GEMM: weights [c_out_per_group, k_len] x cols [k_len, spatial].
            let w_group = &w_data[g * c_out_per_group * k_len..][..c_out_per_group * k_len];
            let out_group = &mut out_data[(n * d.c_out + g * c_out_per_group) * spatial..]
                [..c_out_per_group * spatial];
            match kernel {
                GemmKernel::Naive => {
                    gemm(c_out_per_group, k_len, spatial, w_group, &cols, out_group)
                }
                GemmKernel::Blocked => {
                    group_gemm(packed, g, mnk, w_group, &cols, out_group, &mut scratch)
                }
            }
        }
        let image_len = d.c_out * spatial;
        finish_image(&mut out_data[n * image_len..][..image_len], bias, ep, spatial);
    }
    if let Some(a) = arena {
        a.recycle(cols);
        a.recycle(scratch);
    }
    Tensor::from_vec([d.batch, d.c_out, d.h_out, d.w_out], out_data)
        .expect("output length follows from conv dims")
}

/// The in-place convolution of a conv that [`ConvDims::reads_in_place`]:
/// per image, one indirect GEMM of the weight — `packed`'s golden panels,
/// or the weight packed once for the whole call — against the image's
/// zero-padded copy (or the image itself when unpadded), then the bias and
/// the epilogue.
///
/// Bit-identical to the im2col path: each output element receives the
/// same products, explicit padding zeros included, one multiply and one
/// add at a time in increasing-`k` order from a zeroed accumulator, then
/// the same `+ bias`.
fn in_place_conv(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    d: &ConvDims,
    ep: Option<&ConvEpilogue<'_>>,
    packed: Option<&PackedConvWeight>,
    mut arena: Option<&mut ScratchArena>,
) -> Tensor {
    let (m, k, n) = (d.c_out, d.c_in * d.k_h * d.k_w, d.h_out * d.w_out);
    let mut out_data = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(d.batch * m * n),
        None => vec![0.0f32; d.batch * m * n],
    };
    let mut per_call = Vec::new();
    let a: &[f32] = match packed {
        Some(p) => p.groups[0].data(),
        None => {
            per_call = take_buf(arena.as_deref_mut(), m * k);
            pack_lhs_into(m, k, weight.as_slice(), &mut per_call);
            &per_call
        }
    };
    let geometry = InPlace::new(d);
    let mut padded = take_buf(arena.as_deref_mut(), geometry.padded_len(d));
    for img in 0..d.batch {
        let rhs = geometry.rhs(d, input.as_slice(), img, &mut padded);
        let image = &mut out_data[img * m * n..][..m * n];
        gemm_indirect(m, k, n, a, &rhs, image);
        finish_image(image, bias, ep, n);
    }
    if let Some(arena) = arena {
        arena.recycle(padded);
        arena.recycle(per_call);
    }
    Tensor::from_vec([d.batch, d.c_out, d.h_out, d.w_out], out_data)
        .expect("output length follows from conv dims")
}

/// Depthwise convolution (`groups == C_in == C_out`) on the fast path,
/// then `+ bias` and the epilogue: the fixed-size kernel for a plane side
/// `fixed` ([`ConvDims::fixed_side`]), the plane kernel otherwise.
#[allow(clippy::too_many_arguments)]
fn depthwise(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
    fixed: Option<usize>,
    ep: Option<&ConvEpilogue<'_>>,
    arena: Option<&mut ScratchArena>,
) -> Tensor {
    let out_len = d.batch * d.c_out * d.h_out * d.w_out;
    let (x, w, b) = (input.as_slice(), weight.as_slice(), bias.map(Tensor::as_slice));
    // The fixed-size kernel writes every output element; the plane kernel
    // accumulates into a zeroed buffer.
    let out_data = match fixed {
        Some(side) => {
            let mut out = take_buf(arena, out_len);
            match side {
                4 => depthwise_fixed::<4>(x, w, b, d.c_in, ep, &mut out),
                _ => depthwise_fixed::<8>(x, w, b, d.c_in, ep, &mut out),
            }
            out
        }
        None => {
            let mut out = match arena {
                Some(a) => a.take_zeroed(out_len),
                None => vec![0.0f32; out_len],
            };
            depthwise_planes(x, w, b, cfg.stride, d, ep, &mut out);
            out
        }
    };
    Tensor::from_vec([d.batch, d.c_out, d.h_out, d.w_out], out_data)
        .expect("output length follows from conv dims")
}

/// Largest plane (8x8) of [`depthwise_fixed`].
const FIXED_MAX: usize = 64;

/// Per tap `t = kh * 3 + kw` of a 3x3 kernel with one pixel of padding
/// over an `s x s` plane, per output position `i = oh * s + ow` (the first
/// `s * s` entries): all ones where the tap lands inside the input
/// (`0 <= oh + kh - 1 < s` and `0 <= ow + kw - 1 < s`), zero where it
/// misses.
const fn fixed_masks(s: usize) -> [[u32; FIXED_MAX]; 9] {
    let mut masks = [[0u32; FIXED_MAX]; 9];
    let mut t = 0;
    while t < 9 {
        let (kh, kw) = (t / 3, t % 3);
        let mut i = 0;
        while i < s * s {
            let (oh, ow) = (i / s, i % s);
            if oh + kh >= 1 && oh + kh <= s && ow + kw >= 1 && ow + kw <= s {
                masks[t][i] = !0;
            }
            i += 1;
        }
        t += 1;
    }
    masks
}

/// The tap masks of [`depthwise_fixed`] for each plane side it serves.
struct FixedPlane<const S: usize>;

impl<const S: usize> FixedPlane<S> {
    const MASKS: [[u32; FIXED_MAX]; 9] = fixed_masks(S);
}

/// The fixed-size depthwise kernel: stride 1, 3x3 taps, one pixel of
/// padding, on `S x S` planes (`S` is 4 or 8, so a plane fits a handful of
/// vector registers). Bit-identical to [`depthwise_scalar`].
///
/// Per plane (channel `c` of one image) the input is copied between two
/// zero borders of `S + 1` elements, so tap `(kh, kw)` reads every output
/// position's input at one constant offset `kh * S + kw`. The nine taps run
/// in increasing `(kh, kw)` order over the whole plane from a zeroed
/// accumulator, each adding `x * w` and keeping the previous value bit for
/// bit, by a bitwise select, where it misses the input — a row or column
/// wrapped or in the border — so a miss is skipped, never multiplied as a
/// padding zero. Then `+ base` (the bias, or `0.0`), then the epilogue:
/// the scalar loop's per-element chain, with a constant trip count the
/// compiler unrolls and vectorises.
///
/// Writes every element of `out`. `#[inline(never)]` for the reason given
/// on [`depthwise_planes`].
#[inline(never)]
fn depthwise_fixed<const S: usize>(
    input: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    channels: usize,
    ep: Option<&ConvEpilogue<'_>>,
    out: &mut [f32],
) {
    let masks = &FixedPlane::<S>::MASKS;
    let mut xs = [0.0f32; FIXED_MAX + 2 * 9];
    let mut acc = [0.0f32; FIXED_MAX];
    let (xs, acc) = (&mut xs[..S * S + 2 * (S + 1)], &mut acc[..S * S]);
    for (plane, (x, y)) in input.chunks_exact(S * S).zip(out.chunks_exact_mut(S * S)).enumerate() {
        let c = plane % channels;
        xs[S + 1..][..S * S].copy_from_slice(x);
        acc.fill(0.0);
        for (t, (&wv, mask)) in weight[c * 9..][..9].iter().zip(masks).enumerate() {
            let src = &xs[(t / 3) * S + t % 3..][..S * S];
            for ((a, &xv), &keep) in acc.iter_mut().zip(src).zip(&mask[..S * S]) {
                let v = *a + xv * wv;
                // Bitwise select: `keep` is all ones or all zeros.
                *a = f32::from_bits((v.to_bits() & keep) | (a.to_bits() & !keep));
            }
        }
        let base = bias.map_or(0.0, |b| b[c]);
        acc.iter_mut().for_each(|a| *a += base);
        if let Some(ep) = ep {
            ep.apply_run(c, acc);
        }
        y.copy_from_slice(acc);
    }
}

/// The output positions `[lo, hi)` along one axis at which kernel tap `k`
/// lands inside the input: `0 <= o * stride + k - pad < len_in`, clamped to
/// `len_out`. The span is empty (`lo == hi`) when the tap never does.
fn tap_span(k: usize, pad: usize, stride: usize, len_in: usize, len_out: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = (len_in + pad).saturating_sub(k).div_ceil(stride).min(len_out);
    (lo.min(hi), hi)
}

/// One kernel tap of [`depthwise_planes`], resolved against its grid.
struct PlaneTap {
    /// The tap's index within the channel's `k_h * k_w` weights.
    weight: usize,
    /// The output-grid positions the tap updates: the rows it lands in,
    /// clipped to where its constant-offset read stays inside the phase
    /// plane (every position clipped away is one it does not land on).
    dst: Range<usize>,
    /// Phase-buffer index read for `dst.start`.
    src: usize,
    /// Start of the tap's column mask in the mask table, for taps that miss
    /// some output columns; `None` when the tap lands in every column.
    mask: Option<usize>,
}

/// The depthwise fast kernel: bit-identical to [`depthwise_scalar`].
///
/// Per `(image, channel)`, the input plane is split into `stride²` phase
/// planes (`x[a * stride + rh][b * stride + rw]` at grid position
/// `(a, b)` of phase `(rh, rw)`) laid out with the output's row stride,
/// so that each tap reads every output position's input at one constant
/// offset. At stride 1 with `w_in == w_out` the channel is its own phase
/// plane and nothing is copied. Each valid tap, in increasing `(kh, kw)`
/// order, then adds `x * w` over the single contiguous run of positions
/// in the rows it lands in, keeping the previous value bit for bit where
/// its column falls outside the input; `base` is added once at the end.
/// Every output element therefore sees the scalar loop's exact chain —
/// the same products, taps that miss it skipped rather than multiplied as
/// padding zeros, in the same order, then one `+ base` — while each run
/// autovectorises and no tap pays a per-element bounds test.
///
/// When a phase plane needs more columns than the output has
/// (`w_in.div_ceil(stride) > w_out`, as with explicit padding below
/// `(k - 1) / 2`), the channel is computed on a grid of that width and its
/// rows compacted into `out`. The epilogue, when given, runs on each
/// channel after its `+ base`.
///
/// `out` must be zeroed. `#[inline(never)]` keeps one compiled copy behind
/// every caller ([`conv2d`] and [`conv2d_with`]), for the NaN-payload
/// reason given on [`gemm`](super::gemm): a chain's surviving payload may
/// depend on the operand order the compiler picked for each inlined copy.
#[inline(never)]
fn depthwise_planes(
    input: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    stride: usize,
    d: &ConvDims,
    ep: Option<&ConvEpilogue<'_>>,
    out: &mut [f32],
) {
    let (plane_in, plane_out, k_taps) = (d.h_in * d.w_in, d.h_out * d.w_out, d.k_h * d.k_w);
    let grid_w = d.w_out.max(d.w_in.div_ceil(stride));
    let in_place = stride == 1 && d.w_in == grid_w;
    let phase_len = if in_place { plane_in } else { d.h_out.max(d.h_in.div_ceil(stride)) * grid_w };
    let grid_len = d.h_out * grid_w;
    let direct = grid_w == d.w_out;
    let cols: Vec<(usize, usize)> =
        (0..d.k_w).map(|kw| tap_span(kw, d.pad, stride, d.w_in, d.w_out)).collect();
    let masks: Vec<u32> = cols
        .iter()
        .flat_map(|&(lo, hi)| {
            (0..grid_len).map(move |i| if (lo..hi).contains(&(i % grid_w)) { !0 } else { 0 })
        })
        .collect();
    let (s, pad) = (stride as isize, d.pad as isize);
    let mut taps = Vec::with_capacity(k_taps);
    for kh in 0..d.k_h {
        let (row_lo, row_hi) = tap_span(kh, d.pad, stride, d.h_in, d.h_out);
        let qh = kh as isize - pad;
        for (kw, &(lo, hi)) in cols.iter().enumerate() {
            let qw = kw as isize - pad;
            let shift = qh.div_euclid(s) * grid_w as isize + qw.div_euclid(s);
            let start = ((row_lo * grid_w) as isize).max(-shift);
            let end = ((row_hi * grid_w) as isize).min(phase_len as isize - shift);
            if lo == hi || start >= end {
                continue;
            }
            let phase = (qh.rem_euclid(s) * s + qw.rem_euclid(s)) * phase_len as isize;
            taps.push(PlaneTap {
                weight: kh * d.k_w + kw,
                dst: start as usize..end as usize,
                src: (phase + start + shift) as usize,
                mask: (lo > 0 || hi < d.w_out).then_some(kw * grid_len + start as usize),
            });
        }
    }
    let mut phases = if in_place { Vec::new() } else { vec![0.0f32; stride * stride * phase_len] };
    let mut grid = if direct { Vec::new() } else { vec![0.0f32; grid_len] };
    for n in 0..d.batch {
        for c in 0..d.c_in {
            let x = &input[(n * d.c_in + c) * plane_in..][..plane_in];
            let src: &[f32] = if in_place {
                x
            } else {
                for (ih, x_row) in x.chunks_exact(d.w_in).enumerate() {
                    let (a, rh) = (ih / stride, ih % stride);
                    for rw in 0..stride {
                        let ph = &mut phases[(rh * stride + rw) * phase_len + a * grid_w..];
                        for (v, &xv) in ph.iter_mut().zip(x_row.iter().skip(rw).step_by(stride)) {
                            *v = xv;
                        }
                    }
                }
                &phases
            };
            let w = &weight[c * k_taps..][..k_taps];
            let y_at = (n * d.c_out + c) * plane_out;
            let acc: &mut [f32] = if direct {
                &mut out[y_at..][..plane_out]
            } else {
                grid.fill(0.0);
                &mut grid
            };
            for tap in &taps {
                let run = &mut acc[tap.dst.clone()];
                let xs = &src[tap.src..][..run.len()];
                let wv = w[tap.weight];
                match tap.mask {
                    None => {
                        for (o, &xv) in run.iter_mut().zip(xs) {
                            *o += xv * wv;
                        }
                    }
                    Some(m) => {
                        for ((o, &xv), &keep) in run.iter_mut().zip(xs).zip(&masks[m..]) {
                            let v = *o + xv * wv;
                            // Bitwise select: `keep` is all ones or all zeros.
                            *o = f32::from_bits((v.to_bits() & keep) | (o.to_bits() & !keep));
                        }
                    }
                }
            }
            let y = &mut out[y_at..][..plane_out];
            if !direct {
                for (row, g) in y.chunks_exact_mut(d.w_out).zip(grid.chunks_exact(grid_w)) {
                    row.copy_from_slice(&g[..d.w_out]);
                }
            }
            let base = bias.map_or(0.0, |b| b[c]);
            for o in y.iter_mut() {
                *o += base;
            }
            if let Some(ep) = ep {
                ep.apply_run(c, y);
            }
        }
    }
}

/// The scalar reference depthwise loop behind [`GemmKernel::Naive`]: one
/// output element at a time, each tap bounds-tested.
fn depthwise_scalar(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
) -> Tensor {
    let mut out = Tensor::zeros([d.batch, d.c_out, d.h_out, d.w_out]);
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let out_data = out.as_mut_slice();
    for n in 0..d.batch {
        for c in 0..d.c_in {
            let in_chan = &in_data[(n * d.c_in + c) * d.h_in * d.w_in..][..d.h_in * d.w_in];
            let w_chan = &w_data[c * d.k_h * d.k_w..][..d.k_h * d.k_w];
            let base = bias.map_or(0.0, |b| b.as_slice()[c]);
            let out_chan =
                &mut out_data[(n * d.c_out + c) * d.h_out * d.w_out..][..d.h_out * d.w_out];
            for oh in 0..d.h_out {
                for ow in 0..d.w_out {
                    let mut acc = 0.0f32;
                    for kh in 0..d.k_h {
                        let ih = (oh * cfg.stride + kh) as isize - d.pad as isize;
                        if ih < 0 || ih as usize >= d.h_in {
                            continue;
                        }
                        for kw in 0..d.k_w {
                            let iw = (ow * cfg.stride + kw) as isize - d.pad as isize;
                            if iw < 0 || iw as usize >= d.w_in {
                                continue;
                            }
                            acc += in_chan[ih as usize * d.w_in + iw as usize]
                                * w_chan[kh * d.k_w + kw];
                        }
                    }
                    out_chan[oh * d.w_out + ow] = acc + base;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: [usize; 4]) -> Tensor {
        Tensor::from_fn(shape, |i| (i % 13) as f32 * 0.25 - 1.0)
    }

    #[test]
    fn same_padding_preserves_size() {
        let input = Tensor::zeros([2, 3, 8, 8]);
        let weight = Tensor::zeros([5, 3, 3, 3]);
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(1)).unwrap();
        assert_eq!(out.shape().dims(), &[2, 5, 8, 8]);
    }

    #[test]
    fn stride_two_halves_size() {
        let input = Tensor::zeros([1, 3, 8, 8]);
        let weight = Tensor::zeros([4, 3, 3, 3]);
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(2)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn one_by_one_kernel_is_channel_mix() {
        let input = Tensor::from_vec([1, 2, 1, 1], vec![3.0, 5.0]).unwrap();
        let weight = Tensor::from_vec([1, 2, 1, 1], vec![2.0, -1.0]).unwrap();
        let out = conv2d(&input, &weight, None, Conv2dCfg::valid(1)).unwrap();
        assert_eq!(out.get([0, 0, 0, 0]), Some(1.0));
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let input = Tensor::zeros([1, 1, 2, 2]);
        let weight = Tensor::zeros([3, 1, 1, 1]);
        let bias = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), Conv2dCfg::valid(1)).unwrap();
        assert_eq!(out.get([0, 0, 0, 0]), Some(1.0));
        assert_eq!(out.get([0, 1, 1, 1]), Some(2.0));
        assert_eq!(out.get([0, 2, 0, 1]), Some(3.0));
    }

    #[test]
    fn im2col_matches_direct_grouped() {
        let input = seq_tensor([2, 4, 7, 7]);
        let weight = seq_tensor([6, 2, 3, 3]); // groups = 2
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        let a = conv2d_direct(&input, &weight, Some(&bias), cfg).unwrap();
        let b = conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4, "paths diverge");
    }

    #[test]
    fn depthwise_matches_direct() {
        let input = seq_tensor([1, 5, 6, 6]);
        let weight = seq_tensor([5, 1, 3, 3]);
        let cfg = Conv2dCfg::same(1).with_groups(5);
        let a = conv2d_direct(&input, &weight, None, cfg).unwrap();
        let b = conv2d(&input, &weight, None, cfg).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes");
        let same = a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: values diverge");
    }

    #[test]
    fn kernel_choice_is_bit_identical() {
        let input = seq_tensor([2, 4, 9, 9]);
        let weight = seq_tensor([6, 2, 3, 3]);
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1 - 0.2);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        let naive = conv2d_kernel(&input, &weight, Some(&bias), cfg, GemmKernel::Naive).unwrap();
        let blocked =
            conv2d_kernel(&input, &weight, Some(&bias), cfg, GemmKernel::Blocked).unwrap();
        assert_bits_equal(&naive, &blocked, "naive vs blocked");
    }

    #[test]
    fn arena_path_is_bit_identical_and_recycles() {
        let input = seq_tensor([1, 3, 8, 8]);
        let weight = seq_tensor([4, 3, 3, 3]);
        let cfg = Conv2dCfg::same(1);
        let plain = conv2d(&input, &weight, None, cfg).unwrap();
        let mut arena = ScratchArena::new();
        let a = conv2d_with(&input, &weight, None, cfg, None, None, &mut arena).unwrap();
        assert_bits_equal(&plain, &a, "arena first call");
        let parked = arena.free_buffers();
        assert!(parked >= 1, "cols buffer must be recycled");
        // A second call reuses the parked buffers and stays identical even
        // though they now hold stale contents.
        let b = conv2d_with(&input, &weight, None, cfg, None, None, &mut arena).unwrap();
        assert_bits_equal(&plain, &b, "arena second call");
        assert!(arena.peak_bytes() > 0);
    }

    #[test]
    fn lowered_path_is_bit_identical() {
        let input = seq_tensor([2, 4, 7, 7]);
        let weight = seq_tensor([6, 2, 3, 3]);
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        assert!(conv2d_uses_lowering(&input, &weight, cfg));
        let plain = conv2d(&input, &weight, Some(&bias), cfg).unwrap();
        let lowered = im2col_lower(&input, &weight, cfg).unwrap();
        assert_eq!(lowered.memory_bytes() % 4, 0);
        let from_cols =
            conv2d_from_lowered(&lowered, &weight, Some(&bias), None, None, None).unwrap();
        assert_bits_equal(&plain, &from_cols, "lowered, no arena");
        let mut arena = ScratchArena::new();
        let with_arena =
            conv2d_from_lowered(&lowered, &weight, Some(&bias), None, None, Some(&mut arena))
                .unwrap();
        assert_bits_equal(&plain, &with_arena, "lowered, arena");
    }

    #[test]
    fn channel_from_lowered_matches_full_kernel() {
        // Every channel of the single-row kernel must carry exactly the
        // bits the full from-lowered conv gives it — grouped geometry,
        // bias, and a NaN/Inf-corrupted weight row included.
        let input = seq_tensor([2, 4, 7, 7]);
        let mut weight = seq_tensor([6, 2, 3, 3]); // groups = 2
        weight.as_mut_slice()[3] = f32::NAN;
        weight.as_mut_slice()[20] = f32::INFINITY;
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        let lowered = im2col_lower(&input, &weight, cfg).unwrap();
        let full = conv2d_from_lowered(&lowered, &weight, Some(&bias), None, None, None).unwrap();
        let shape = full.shape();
        let dims = shape.dims();
        let (batch, c_out) = (dims[0], dims[1]);
        let spatial = dims[2] * dims[3];
        let mut arena = ScratchArena::new();
        for channel in 0..c_out {
            let row = conv2d_channel_from_lowered(
                &lowered,
                &weight,
                Some(&bias),
                channel,
                Some(&mut arena),
            )
            .unwrap();
            assert_eq!(row.len(), batch * spatial);
            for n in 0..batch {
                let got = &row[n * spatial..][..spatial];
                let want = &full.as_slice()[(n * c_out + channel) * spatial..][..spatial];
                let same = got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "channel {channel}, image {n} diverges from the full kernel");
            }
            arena.recycle(row);
        }
        assert!(
            conv2d_channel_from_lowered(&lowered, &weight, None, c_out, None).is_err(),
            "out-of-range channel must be rejected"
        );
    }

    #[test]
    fn lowered_panels_survive_weight_faults() {
        // The panels depend only on the input: reusing them with a corrupted
        // weight must equal re-running conv2d with that weight.
        let input = seq_tensor([1, 3, 6, 6]);
        let mut weight = seq_tensor([4, 3, 3, 3]);
        let cfg = Conv2dCfg::same(1);
        let lowered = im2col_lower(&input, &weight, cfg).unwrap();
        weight.as_mut_slice()[7] = f32::NAN;
        weight.as_mut_slice()[20] = f32::INFINITY;
        let plain = conv2d(&input, &weight, None, cfg).unwrap();
        let from_cols = conv2d_from_lowered(&lowered, &weight, None, None, None, None).unwrap();
        assert_bits_equal(&plain, &from_cols, "faulted weight");
    }

    #[test]
    fn depthwise_shapes_never_lower() {
        let input = seq_tensor([1, 5, 6, 6]);
        let weight = seq_tensor([5, 1, 3, 3]);
        let cfg = Conv2dCfg::same(1).with_groups(5);
        assert!(!conv2d_uses_lowering(&input, &weight, cfg));
        // Invalid shapes do not lower either.
        assert!(!conv2d_uses_lowering(&Tensor::zeros([2, 2]), &weight, cfg));
    }

    #[test]
    fn from_lowered_rejects_mismatched_weight() {
        let input = seq_tensor([1, 3, 6, 6]);
        let weight = seq_tensor([4, 3, 3, 3]);
        let lowered = im2col_lower(&input, &weight, Conv2dCfg::same(1)).unwrap();
        let wrong = seq_tensor([4, 3, 5, 5]);
        assert!(matches!(
            conv2d_from_lowered(&lowered, &wrong, None, None, None, None),
            Err(TensorError::InvalidConfig { .. })
        ));
        let bad_bias = Tensor::zeros([7]);
        assert!(conv2d_from_lowered(&lowered, &weight, Some(&bad_bias), None, None, None).is_err());
    }

    #[test]
    fn rejects_wrong_rank() {
        let bad = Tensor::zeros([3, 3]);
        let weight = Tensor::zeros([1, 1, 3, 3]);
        assert!(matches!(
            conv2d(&bad, &weight, None, Conv2dCfg::same(1)),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_groups() {
        let input = Tensor::zeros([1, 3, 4, 4]);
        let weight = Tensor::zeros([4, 3, 3, 3]);
        let cfg = Conv2dCfg::same(1).with_groups(2);
        assert!(matches!(
            conv2d(&input, &weight, None, cfg),
            Err(TensorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_zero_stride() {
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros([1, 1, 3, 3]);
        let cfg = Conv2dCfg { stride: 0, padding: Padding::Same, groups: 1 };
        assert!(conv2d(&input, &weight, None, cfg).is_err());
    }

    #[test]
    fn rejects_bias_of_wrong_length() {
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros([2, 1, 3, 3]);
        let bias = Tensor::zeros([3]);
        assert!(conv2d(&input, &weight, Some(&bias), Conv2dCfg::same(1)).is_err());
    }

    #[test]
    fn rejects_channel_mismatch() {
        let input = Tensor::zeros([1, 3, 4, 4]);
        let weight = Tensor::zeros([2, 4, 3, 3]);
        assert!(conv2d(&input, &weight, None, Conv2dCfg::same(1)).is_err());
    }

    #[test]
    fn kernel_larger_than_input_rejected_without_padding() {
        let input = Tensor::zeros([1, 1, 2, 2]);
        let weight = Tensor::zeros([1, 1, 5, 5]);
        assert!(conv2d(&input, &weight, None, Conv2dCfg::valid(1)).is_err());
    }

    #[test]
    fn nan_weight_propagates() {
        let input = Tensor::full([1, 1, 3, 3], 1.0);
        let mut weight = Tensor::full([1, 1, 3, 3], 1.0);
        weight.as_mut_slice()[4] = f32::NAN;
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(1)).unwrap();
        assert!(out.get([0, 0, 1, 1]).unwrap().is_nan());
    }

    #[test]
    fn known_edge_values_with_same_padding() {
        // All-ones 3x3 kernel over all-ones input: corners see 4, edges 6.
        let input = Tensor::full([1, 1, 3, 3], 1.0);
        let weight = Tensor::full([1, 1, 3, 3], 1.0);
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(1)).unwrap();
        assert_eq!(out.get([0, 0, 0, 0]), Some(4.0));
        assert_eq!(out.get([0, 0, 0, 1]), Some(6.0));
        assert_eq!(out.get([0, 0, 1, 1]), Some(9.0));
    }
}
