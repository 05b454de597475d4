//! Numeric operators over [`Tensor`](crate::Tensor)s.
//!
//! Every operator is a free function that borrows its operands, validates
//! shapes, and returns a freshly allocated result — callers decide where data
//! lives. The set is exactly what the two case-study CNNs (ResNet-20,
//! MobileNetV2) require:
//!
//! - [`conv2d`] (grouped / depthwise aware), with [`conv2d_direct`] and
//!   [`conv2d_im2col`] exposed separately for the conv-strategy ablation
//!   bench, [`conv2d_with`] for arena-backed buffers, and the
//!   [`im2col_lower`] / [`conv2d_from_lowered`] pair for campaign-level
//!   column-matrix caching, and [`PackedConvWeight`] for weights packed
//!   once into the GEMM's panel layout,
//! - [`linear`] fully-connected layers,
//! - [`batch_norm`] in inference mode,
//! - [`relu`], [`relu6`], [`softmax`],
//! - [`avg_pool2d`], [`max_pool2d`], [`global_avg_pool`],
//! - [`add`] residual addition and [`downsample_pad_channels`]
//!   (ResNet "option A" shortcut),
//! - [`gemm`], the naive reference kernel, and its bit-identical
//!   self-dispatching sibling [`gemm_blocked`], the matrix multiplies
//!   underneath `im2col` convolution, backed by the register-tiled
//!   microkernels [`gemm_micro`] (and [`gemm_micro_packed`] over a
//!   [`PackedLhs`] packed once) and [`gemm_row_lanes`] (lane-per-output
//!   tiling — see the `microkernel` module docs for why that SIMD shape is
//!   the bit-exact one). These feed every forward pass, including the
//!   suffix re-execution `Model::forward_suffix` of the `sfi-nn` crate.

mod activation;
mod conv;
mod elementwise;
mod gemm;
mod linear;
mod microkernel;
mod norm;
mod pool;

pub mod grad;

pub use activation::{relu, relu6, relu6_with, relu_with, softmax};
pub use conv::{
    conv2d, conv2d_batched_from_lowered, conv2d_channel_batched, conv2d_channel_from_lowered,
    conv2d_channel_in_place, conv2d_depthwise_fixed, conv2d_direct, conv2d_from_lowered,
    conv2d_im2col, conv2d_kernel, conv2d_path_with, conv2d_reads_in_place, conv2d_uses_lowering,
    conv2d_with, depthwise_path_with, im2col_lower, im2col_lower_batched, BatchedLowered,
    Conv2dCfg, ConvEpilogue, FusedActivation, GemmKernel, LoweredConv, PackedConvWeight, Padding,
};
pub use elementwise::{add, add_with, downsample_pad_channels};
pub use gemm::{gemm, gemm_blocked, gemm_blocked_with};
pub use linear::{linear, linear_row};
pub use microkernel::{
    gemm_col, gemm_micro, gemm_micro_packed, gemm_row, gemm_row_lanes, gemm_selected_kernel,
    PackedLhs, COL_LANES, MR as MICRO_MR, NR as MICRO_NR, NR1 as MICRO_NR1,
};
pub use norm::{batch_norm, batch_norm_with, bn_channel_scale_shift, BatchNormParams};
pub use pool::{avg_pool2d, global_avg_pool, max_pool2d};
