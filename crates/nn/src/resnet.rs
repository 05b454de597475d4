//! CIFAR-10 ResNet topologies (He et al. 2016), notably **ResNet-20** — the
//! paper's first case study.
//!
//! The CIFAR ResNet family uses a 3×3 stem convolution, three stages of `n`
//! basic blocks (two 3×3 convolutions each) at 16/32/64 channels, identity
//! shortcuts with the parameter-free "option A" downsample at stage
//! transitions, global average pooling and a linear classifier. ResNet-20 is
//! `n = 3`: 19 convolution layers + 1 linear layer = **20 weight layers**
//! holding 268,336 weights — matching the per-layer "Parameters" column of
//! paper Table I (which reports 268,346 because it folds the 10 classifier
//! biases into layer 11; see EXPERIMENTS.md).

use serde::{Deserialize, Serialize};

use sfi_tensor::ops::Conv2dCfg;

use crate::builder::GraphBuilder;
use crate::{init, Model, NnError, NodeId};

/// Configuration of a CIFAR ResNet.
///
/// # Example
///
/// ```
/// use sfi_nn::resnet::ResNetConfig;
///
/// let cfg = ResNetConfig::resnet20();
/// assert_eq!(cfg.depth(), 20);
/// // A quarter-width variant for cheap exhaustive experiments.
/// let micro = ResNetConfig::resnet20().with_width(4);
/// assert_eq!(micro.base_width, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResNetConfig {
    /// Channel count of the first stage (paper network: 16). Stages two and
    /// three use `2×` and `4×` this width.
    pub base_width: usize,
    /// Basic blocks per stage (ResNet-20: 3, ResNet-32: 5, …).
    pub blocks_per_stage: usize,
    /// Number of output classes (CIFAR-10: 10).
    pub classes: usize,
    /// Input spatial size (CIFAR: 32).
    pub input_size: usize,
}

impl ResNetConfig {
    /// The paper's ResNet-20: width 16, 3 blocks per stage, 10 classes,
    /// 32×32 inputs.
    pub fn resnet20() -> Self {
        Self { base_width: 16, blocks_per_stage: 3, classes: 10, input_size: 32 }
    }

    /// A reduced-width, reduced-resolution variant whose full fault space is
    /// small enough for exhaustive injection on a laptop: width 2,
    /// 16×16 inputs (4,310 weights, 275,840 stuck-at faults).
    pub fn resnet20_micro() -> Self {
        Self { base_width: 2, blocks_per_stage: 3, classes: 10, input_size: 16 }
    }

    /// Returns a copy with a different base width.
    pub fn with_width(mut self, base_width: usize) -> Self {
        self.base_width = base_width;
        self
    }

    /// Returns a copy with a different input resolution.
    pub fn with_input_size(mut self, input_size: usize) -> Self {
        self.input_size = input_size;
        self
    }

    /// The network depth `6n + 2` (ResNet-20 for `n = 3`).
    pub fn depth(&self) -> usize {
        6 * self.blocks_per_stage + 2
    }

    /// Builds the model with zeroed parameters.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is degenerate (zero width,
    /// blocks, classes, or an input size not divisible by 4).
    pub fn build(&self) -> Result<Model, NnError> {
        if self.base_width == 0 || self.blocks_per_stage == 0 || self.classes == 0 {
            return Err(NnError::InvalidGraph {
                reason: "width, blocks and classes must be nonzero".into(),
            });
        }
        if !self.input_size.is_multiple_of(4) || self.input_size == 0 {
            return Err(NnError::InvalidGraph {
                reason: format!("input size {} must be a positive multiple of 4", self.input_size),
            });
        }
        let mut b = GraphBuilder::new();
        let w = self.base_width;

        // Stem.
        let mut x = b.conv("conv0", 0, 3, w, 3, Conv2dCfg::same(1));
        x = b.batch_norm("bn0", x, w);
        x = b.relu(x);

        // Three stages at widths w, 2w, 4w.
        let mut c_in = w;
        for (stage, &c_out) in [w, 2 * w, 4 * w].iter().enumerate() {
            for block in 0..self.blocks_per_stage {
                let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                let name = format!("stage{}.block{}", stage + 1, block);
                x = basic_block(&mut b, &name, x, c_in, c_out, stride);
                c_in = c_out;
            }
        }

        // Head.
        x = b.global_avg_pool(x);
        let _ = b.linear("fc", x, 4 * w, self.classes);
        b.finish(format!("resnet{}", self.depth()), vec![3, self.input_size, self.input_size])
    }

    /// Builds the model and initialises every parameter from `seed`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResNetConfig::build`].
    pub fn build_seeded(&self, seed: u64) -> Result<Model, NnError> {
        let mut model = self.build()?;
        init::initialize_seeded(model.store_mut(), seed);
        Ok(model)
    }
}

impl Default for ResNetConfig {
    fn default() -> Self {
        Self::resnet20()
    }
}

/// A CIFAR basic block: two 3×3 convolutions with BN, an identity (or
/// option-A downsample) shortcut, and post-add ReLU.
fn basic_block(
    b: &mut GraphBuilder,
    name: &str,
    input: NodeId,
    c_in: usize,
    c_out: usize,
    stride: usize,
) -> NodeId {
    let mut x = b.conv(&format!("{name}.conv1"), input, c_in, c_out, 3, Conv2dCfg::same(stride));
    x = b.batch_norm(&format!("{name}.bn1"), x, c_out);
    x = b.relu(x);
    x = b.conv(&format!("{name}.conv2"), x, c_out, c_out, 3, Conv2dCfg::same(1));
    x = b.batch_norm(&format!("{name}.bn2"), x, c_out);
    let shortcut =
        if stride != 1 || c_in != c_out { b.downsample_pad(input, c_out, stride) } else { input };
    let sum = b.add(x, shortcut);
    b.relu(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForwardOptions;
    use sfi_tensor::Tensor;

    /// Paper Table I, "Parameters" column (conv/linear weights only; the
    /// paper's layer 11 additionally counts the 10 classifier biases).
    const TABLE1_PARAMS: [usize; 20] = [
        432, 2_304, 2_304, 2_304, 2_304, 2_304, 2_304, 4_608, 9_216, 9_216, 9_216, 9_216, 9_216,
        18_432, 36_864, 36_864, 36_864, 36_864, 36_864, 640,
    ];

    #[test]
    fn resnet20_matches_paper_layer_structure() {
        let m = ResNetConfig::resnet20().build().unwrap();
        let layers = m.weight_layers();
        assert_eq!(layers.len(), 20);
        for (l, &expected) in layers.iter().zip(&TABLE1_PARAMS) {
            assert_eq!(l.len, expected, "layer {} ({})", l.layer, l.name);
        }
        assert_eq!(m.store().total_weights(), 268_336);
    }

    #[test]
    fn resnet20_forward_shape_and_determinism() {
        let m = ResNetConfig::resnet20().with_width(4).build_seeded(11).unwrap();
        let input = Tensor::from_fn([1, 3, 32, 32], |i| ((i % 255) as f32 / 255.0) - 0.5);
        let a = m.forward(&input).unwrap();
        let b = m.forward(&input).unwrap();
        assert_eq!(a.shape().dims(), &[1, 10]);
        assert_eq!(a, b);
        assert!(a.iter().all(f32::is_finite));
    }

    #[test]
    fn micro_variant_is_small() {
        let m = ResNetConfig::resnet20_micro().build().unwrap();
        assert_eq!(m.weight_layers().len(), 20);
        assert_eq!(m.store().total_weights(), 4_310);
    }

    #[test]
    fn width_scales_quadratically() {
        let full = ResNetConfig::resnet20().build().unwrap().store().total_weights();
        let half = ResNetConfig::resnet20().with_width(8).build().unwrap().store().total_weights();
        // Inner convs scale with width²; stem and fc scale linearly.
        assert!(half * 3 < full, "half {half} vs full {full}");
    }

    #[test]
    fn stage_transitions_downsample() {
        let m = ResNetConfig::resnet20().with_width(2).build_seeded(5).unwrap();
        // 32x32 -> stage2 16x16 -> stage3 8x8 -> gap [N, 8].
        let out = m.forward(&Tensor::zeros([1, 3, 32, 32])).unwrap();
        assert_eq!(out.shape().dims(), &[1, 10]);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ResNetConfig::resnet20().with_width(0).build().is_err());
        assert!(ResNetConfig { blocks_per_stage: 0, ..ResNetConfig::resnet20() }.build().is_err());
        assert!(ResNetConfig::resnet20().with_input_size(30).build().is_err());
    }

    #[test]
    fn seeded_builds_are_reproducible() {
        let a = ResNetConfig::resnet20_micro().build_seeded(42).unwrap();
        let b = ResNetConfig::resnet20_micro().build_seeded(42).unwrap();
        assert_eq!(a.store(), b.store());
    }

    #[test]
    fn incremental_reexec_matches_full_forward() {
        let mut m = ResNetConfig::resnet20_micro().build_seeded(13).unwrap();
        let input = Tensor::from_fn([1, 3, 16, 16], |i| ((i * 31 % 97) as f32) * 0.01);
        let cache = m.forward_cached(&input).unwrap();
        // Corrupt a weight in layer 10 and compare incremental vs full.
        let layers = m.weight_layers();
        let target = &layers[10];
        let node = m.node_of_param(target.param).unwrap();
        m.store_mut().get_mut(target.param).unwrap().tensor.as_mut_slice()[3] = 2.5;
        let incremental =
            m.forward_suffix(Some(node), &cache, &[], &mut ForwardOptions::default()).unwrap();
        let full = m.forward(&input).unwrap();
        assert!(incremental.max_abs_diff(&full).unwrap() < 1e-5);
    }
}
