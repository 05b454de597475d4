//! Minimal f32 tensor library and CNN inference operators.
//!
//! This crate is the computational substrate of the SFI workspace: a small,
//! dependency-free (beyond `serde`) NCHW tensor type plus every operator the
//! [DATE 2023 SFI paper]'s two case-study networks need — 2-D convolution
//! (grouped and depthwise), fully-connected layers, inference-mode batch
//! normalisation, ReLU/ReLU6, average pooling, zero padding, residual adds
//! and softmax.
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — identical inputs produce bit-identical outputs on
//!    every run; fault-injection campaigns compare faulty against golden
//!    outputs, so any nondeterminism would masquerade as a fault effect.
//! 2. **Shape safety** — every operator validates its operand shapes and
//!    returns a structured [`TensorError`] instead of panicking.
//! 3. **Enough speed** — an `im2col` + blocked-GEMM convolution path keeps
//!    multi-million-fault campaigns tractable without unsafe code.
//!
//! # Example
//!
//! ```
//! use sfi_tensor::{Tensor, ops};
//!
//! # fn main() -> Result<(), sfi_tensor::TensorError> {
//! // A 1x3x8x8 input convolved with four 3x3 kernels.
//! let input = Tensor::zeros([1, 3, 8, 8]);
//! let weight = Tensor::zeros([4, 3, 3, 3]);
//! let out = ops::conv2d(&input, &weight, None, ops::Conv2dCfg::same(1))?;
//! assert_eq!(out.shape().dims(), &[1, 4, 8, 8]);
//! # Ok(())
//! # }
//! ```
//!
//! [DATE 2023 SFI paper]: https://doi.org/10.23919/DATE56975.2023.10136998

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod scratch;
mod shape;
mod tensor;

pub mod ops;

pub use error::TensorError;
pub use scratch::{ArenaStats, ScratchArena};
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;
