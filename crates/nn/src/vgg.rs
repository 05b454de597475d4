//! VGG-style plain CNNs — the paper's "different architectures" future
//! work.
//!
//! VGG (Simonyan & Zisserman 2015) is the classic plain stack: stages of
//! 3×3 convolutions with batch norm and ReLU, a 2× max pool after each
//! stage, global average pooling, and a linear classifier. No residual
//! connections — which makes it a useful contrast case for fault
//! propagation studies (no shortcut can route around a corrupted stage).

use serde::{Deserialize, Serialize};

use sfi_tensor::ops::Conv2dCfg;

use crate::builder::GraphBuilder;
use crate::{init, Model, NnError};

/// Configuration of a VGG-style network.
///
/// # Example
///
/// ```
/// use sfi_nn::vgg::VggConfig;
///
/// let model = VggConfig::vgg11().build().unwrap();
/// // VGG-11: 8 convolutions + 1 classifier = 9 weight layers.
/// assert_eq!(model.weight_layers().len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VggConfig {
    /// Stages as `(convolutions, channels)`; a 2× max pool follows each.
    pub stages: Vec<(usize, usize)>,
    /// Number of output classes.
    pub classes: usize,
    /// Input spatial size; must be divisible by `2^stages`.
    pub input_size: usize,
}

impl VggConfig {
    /// The CIFAR adaptation of VGG-11: stages
    /// `64 / 128 / 256×2 / 512×2 / 512×2`, GAP head.
    pub fn vgg11() -> Self {
        Self {
            stages: vec![(1, 64), (1, 128), (2, 256), (2, 512), (2, 512)],
            classes: 10,
            input_size: 32,
        }
    }

    /// A reduced variant for exhaustive fault-injection experiments:
    /// three narrow stages on 16×16 inputs.
    pub fn vgg_micro() -> Self {
        Self { stages: vec![(1, 4), (1, 8), (2, 16)], classes: 10, input_size: 16 }
    }

    /// Builds the model with zeroed parameters.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty stage list, zero channels/classes, or
    /// an input size the pooling chain cannot divide.
    pub fn build(&self) -> Result<Model, NnError> {
        if self.stages.is_empty() || self.classes == 0 {
            return Err(NnError::InvalidGraph {
                reason: "need at least one stage and one class".into(),
            });
        }
        if self.stages.iter().any(|&(convs, ch)| convs == 0 || ch == 0) {
            return Err(NnError::InvalidGraph {
                reason: "every stage needs nonzero convolutions and channels".into(),
            });
        }
        let divisor = 1usize << self.stages.len();
        if self.input_size == 0 || !self.input_size.is_multiple_of(divisor) {
            return Err(NnError::InvalidGraph {
                reason: format!(
                    "input size {} must be divisible by 2^{} = {divisor}",
                    self.input_size,
                    self.stages.len()
                ),
            });
        }
        let mut b = GraphBuilder::new();
        let mut x = 0;
        let mut c_in = 3usize;
        for (si, &(convs, channels)) in self.stages.iter().enumerate() {
            for conv in 0..convs {
                let name = format!("stage{si}.conv{conv}");
                x = b.conv(&name, x, c_in, channels, 3, Conv2dCfg::same(1));
                x = b.batch_norm(&format!("stage{si}.bn{conv}"), x, channels);
                x = b.relu(x);
                c_in = channels;
            }
            x = b.max_pool(x, 2);
        }
        x = b.global_avg_pool(x);
        let _ = b.linear("fc", x, c_in, self.classes);
        b.finish(
            format!("vgg{}", self.stages.iter().map(|s| s.0).sum::<usize>() + 1),
            vec![3, self.input_size, self.input_size],
        )
    }

    /// Builds the model and initialises every parameter from `seed`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VggConfig::build`].
    pub fn build_seeded(&self, seed: u64) -> Result<Model, NnError> {
        let mut model = self.build()?;
        init::initialize_seeded(model.store_mut(), seed);
        Ok(model)
    }
}

impl Default for VggConfig {
    fn default() -> Self {
        Self::vgg11()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForwardOptions;
    use sfi_tensor::Tensor;

    #[test]
    fn vgg11_structure() {
        let m = VggConfig::vgg11().build().unwrap();
        let layers = m.weight_layers();
        assert_eq!(layers.len(), 9);
        assert_eq!(layers[0].len, 3 * 64 * 9);
        assert_eq!(layers[8].len, 512 * 10);
        // Plain chain: no Add nodes.
        assert!(!m.nodes().iter().any(|n| matches!(n.op, crate::NodeOp::Add)));
        // Five max pools.
        let pools =
            m.nodes().iter().filter(|n| matches!(n.op, crate::NodeOp::MaxPool { .. })).count();
        assert_eq!(pools, 5);
    }

    #[test]
    fn micro_variant_forward_and_faults() {
        let m = VggConfig::vgg_micro().build_seeded(3).unwrap();
        let out = m.forward(&Tensor::full([1, 3, 16, 16], 0.2)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 10]);
        assert!(out.iter().all(f32::is_finite));
        assert_eq!(m.weight_layers().len(), 5);
    }

    #[test]
    fn incremental_reexec_holds_for_vgg() {
        let mut m = VggConfig::vgg_micro().build_seeded(3).unwrap();
        let input = Tensor::from_fn([1, 3, 16, 16], |i| ((i % 23) as f32) * 0.05 - 0.5);
        let cache = m.forward_cached(&input).unwrap();
        let info = m.weight_layers()[2].clone();
        let node = m.node_of_param(info.param).unwrap();
        m.store_mut().get_mut(info.param).unwrap().tensor.as_mut_slice()[7] = 3.0;
        let incremental =
            m.forward_suffix(Some(node), &cache, &[], &mut ForwardOptions::default()).unwrap();
        let full = m.forward(&input).unwrap();
        assert!(incremental.max_abs_diff(&full).unwrap() < 1e-5);
    }

    #[test]
    fn vgg_trains_on_a_toy_task() {
        use crate::train::{fit, SgdConfig, TrainConfig};
        let mut m = VggConfig { stages: vec![(1, 4), (1, 8)], classes: 2, input_size: 8 }
            .build_seeded(4)
            .unwrap();
        let images: Vec<Tensor> = (0..8)
            .map(|i| Tensor::full([1, 3, 8, 8], if i % 2 == 0 { 0.8 } else { -0.8 }))
            .collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 4,
            seed: 2,
            sgd: SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 0.0 },
        };
        let report = fit(&mut m, &images, &labels, &cfg).unwrap();
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(VggConfig { stages: vec![], ..VggConfig::vgg11() }.build().is_err());
        assert!(VggConfig { input_size: 24, ..VggConfig::vgg11() }.build().is_err());
        assert!(VggConfig { stages: vec![(0, 8)], classes: 10, input_size: 8 }.build().is_err());
    }

    #[test]
    fn seeded_builds_reproducible() {
        let a = VggConfig::vgg_micro().build_seeded(9).unwrap();
        let b = VggConfig::vgg_micro().build_seeded(9).unwrap();
        assert_eq!(a.store(), b.store());
    }
}
