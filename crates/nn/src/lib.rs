//! CNN model graphs, parameter stores, and the two case-study topologies of
//! the DATE 2023 SFI paper.
//!
//! The crate provides:
//!
//! - [`ParameterStore`] — flat, named storage of every tensor a model owns,
//!   with *fault-injectable* weight parameters (convolution and linear
//!   weights) indexed by **weight layer** exactly as the paper's Tables I
//!   and II count them;
//! - [`Model`] — a topologically ordered operator graph with plain
//!   [`forward`](Model::forward) inference, cached inference
//!   ([`forward_cached`](Model::forward_cached)) and *incremental
//!   re-execution* ([`forward_suffix`](Model::forward_suffix)) that
//!   recomputes only from the first node affected by a fault — the key
//!   optimisation that makes million-fault campaigns tractable;
//! - [`CompiledPlan`] — the model's compiled schedule and its one
//!   weight-fault suffix pass ([`weight_suffix`](CompiledPlan::weight_suffix)),
//!   fused, early-exiting, one image or all evaluation images wide;
//! - [`resnet`] / [`mobilenet`] — CIFAR-10 builders for **ResNet-20**
//!   (20 weight layers, 268,336 weights) and **MobileNetV2** (54 weight
//!   layers, 2,203,584 weights), with width multipliers for reduced-scale
//!   exhaustive experiments;
//! - [`init`] — deterministic, seeded weight initialisation whose
//!   distributions match the shape of trained CNN weights (zero-mean,
//!   fan-in-scaled), which is what the paper's data-aware analysis
//!   consumes.
//!
//! # Example
//!
//! ```
//! use sfi_nn::resnet::ResNetConfig;
//! use sfi_tensor::Tensor;
//!
//! # fn main() -> Result<(), sfi_nn::NnError> {
//! let model = ResNetConfig::resnet20().build_seeded(42)?;
//! assert_eq!(model.weight_layers().len(), 20);
//! let logits = model.forward(&Tensor::zeros([1, 3, 32, 32]))?;
//! assert_eq!(logits.shape().dims(), &[1, 10]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod delta;
mod error;
mod model;
mod node;
mod param;

pub mod init;
pub mod mobilenet;
pub mod plan;
pub mod resnet;
pub mod train;
pub mod vgg;

pub use delta::{DeltaOptions, DeltaStats};
pub use error::NnError;
pub use model::{
    ActPatch, ActivationCache, ForwardOptions, ForwardOutcome, KernelPolicy, LayerStats, Model,
};
pub use node::{Node, NodeId, NodeOp};
pub use param::{ParamId, ParamKind, Parameter, ParameterStore, WeightLayer};
pub use plan::{CompiledPlan, GoldenPanels, SessionState, SuffixOutcome, BATCHED_MAX_SUFFIX_FLOPS};
