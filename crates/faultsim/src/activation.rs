//! Transient activation (neuron) fault injection.
//!
//! The paper's campaigns target *static* parameters — weights resident in
//! memory, where soft errors accumulate and act like permanent faults for
//! the workload's lifetime. The complementary model, studied by its
//! references \[4\] (Li et al., SC'17) and \[14\] (FIDELITY), is a
//! *transient* upset striking a feature map during one inference. This
//! module brings that model onto the same statistical machinery:
//!
//! - [`ActivationSpace`] enumerates the per-inference fault population
//!   (node × element × bit), with per-node subpopulations mirroring the
//!   paper's per-layer stratification;
//! - [`run_activation_campaign`] injects each fault into one inference via
//!   [`Model::forward_suffix`] (the clean prefix is reused from the
//!   golden cache) and classifies the outcome against the golden top-1 —
//!   the sequential reference the campaign executor's transient path is
//!   checked against.
//!
//! A transient fault is tied to a specific image; the campaign evaluates
//! each sampled `(fault, image)` pair once, which is exactly the trial
//! structure the binomial machinery of `sfi-stats` expects.

use serde::{Deserialize, Serialize};

use sfi_dataset::Dataset;
use sfi_nn::{ForwardOptions, Model, NnError, NodeId};
use sfi_tensor::TensorError;

use crate::executor::validate_activation_site;
use crate::fault::FaultModel;
use crate::golden::GoldenReference;
use crate::multi::FaultTarget;
use crate::FaultSimError;

/// Location of a transient activation fault within one inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ActivationSite {
    /// Graph node whose output is struck.
    pub node: NodeId,
    /// Flat element index within the node's (single-image) output.
    pub element: usize,
    /// Bit position, 0..=31.
    pub bit: u8,
    /// Index of the evaluation image the upset coincides with.
    pub image: usize,
}

/// A transient activation fault: a site plus the bit-level fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ActivationFault {
    /// Where (and during which image's inference) the upset strikes.
    pub site: ActivationSite,
    /// How the bit misbehaves ([`FaultModel::BitFlip`] is the usual
    /// transient model).
    pub model: FaultModel,
}

/// The per-inference activation fault population of a model on a dataset:
/// every `(node, element, bit, image)` combination.
///
/// # Example
///
/// ```
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::activation::ActivationSpace;
/// use sfi_nn::resnet::ResNetConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
/// let space = ActivationSpace::build(&model, &data)?;
/// assert!(space.total() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationSpace {
    /// `(node id, per-image element count)` for every non-input node.
    node_sizes: Vec<(NodeId, usize)>,
    images: usize,
}

/// Bits per activation value (f32 feature maps).
pub const ACT_BITS: u64 = 32;

impl ActivationSpace {
    /// Enumerates the activation space by running one cached inference to
    /// discover every node's output size.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::EmptyEvalSet`] for an empty dataset, or an
    /// inference failure.
    pub fn build(model: &Model, data: &Dataset) -> Result<Self, FaultSimError> {
        Self::build_for(model, data, FaultTarget::Activation)
    }

    /// Enumerates the transient fault space of `target`:
    /// [`FaultTarget::Activation`] covers every non-input node's output,
    /// [`FaultTarget::Input`] covers the input tensor itself (node 0) — the
    /// Beyer-style image-corruption model on the same machinery.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::EmptyEvalSet`] for an empty dataset,
    /// [`FaultSimError::InvalidFault`] for [`FaultTarget::Weight`] (weight
    /// populations are enumerated by
    /// [`FaultSpace`](crate::population::FaultSpace)), or an inference
    /// failure.
    pub fn build_for(
        model: &Model,
        data: &Dataset,
        target: FaultTarget,
    ) -> Result<Self, FaultSimError> {
        if data.is_empty() {
            return Err(FaultSimError::EmptyEvalSet);
        }
        let node_sizes = match target {
            FaultTarget::Weight => {
                return Err(FaultSimError::InvalidFault {
                    reason: "weight faults have no activation space; use FaultSpace".into(),
                })
            }
            FaultTarget::Activation => {
                let cache = model.forward_cached(data.image(0))?;
                (1..cache.len())
                    .map(|id| (id, cache.get(id).expect("cache covers node").len()))
                    .collect()
            }
            FaultTarget::Input => vec![(0, data.image(0).len())],
        };
        Ok(Self { node_sizes, images: data.len() })
    }

    /// Number of eligible nodes.
    pub fn nodes(&self) -> usize {
        self.node_sizes.len()
    }

    /// The `(node id, per-image element count)` table.
    pub fn node_sizes(&self) -> &[(NodeId, usize)] {
        &self.node_sizes
    }

    /// Number of evaluation images.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Total bit-flip population: `Σ elements × 32 bits × images`.
    pub fn total(&self) -> u64 {
        self.node_sizes.iter().map(|&(_, len)| len as u64).sum::<u64>()
            * ACT_BITS
            * self.images as u64
    }

    /// Population of one node across all images and bits.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::InvalidFault`] for a node without
    /// activations (the input placeholder or an unknown id).
    pub fn node_population(&self, node: NodeId) -> Result<u64, FaultSimError> {
        let (_, len) = self.node_sizes.iter().find(|&&(id, _)| id == node).ok_or_else(|| {
            FaultSimError::InvalidFault { reason: format!("node {node} has no activations") }
        })?;
        Ok(*len as u64 * ACT_BITS * self.images as u64)
    }

    /// Population of node group `group` (an index into [`node_sizes`])
    /// across all images and bits — the transient analogue of a per-layer
    /// subpopulation.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::IndexOutOfRange`] for an unknown group.
    ///
    /// [`node_sizes`]: ActivationSpace::node_sizes
    pub fn group_population(&self, group: usize) -> Result<u64, FaultSimError> {
        let (_, len) = self.group(group)?;
        Ok(len as u64 * ACT_BITS * self.images as u64)
    }

    /// Population of node group `group` restricted to a single bit
    /// position: `elements × images`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::IndexOutOfRange`] for an unknown group.
    pub fn group_bit_population(&self, group: usize) -> Result<u64, FaultSimError> {
        let (_, len) = self.group(group)?;
        Ok(len as u64 * self.images as u64)
    }

    /// Decodes an index within group `group` (layout identical to the
    /// group's slice of the global index space) into its bit-flip fault.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::IndexOutOfRange`] for an unknown group or an
    /// index at or past [`group_population`](ActivationSpace::group_population).
    pub fn group_fault_at(
        &self,
        group: usize,
        index: u64,
    ) -> Result<ActivationFault, FaultSimError> {
        let (node, len) = self.group(group)?;
        let size = len as u64 * ACT_BITS * self.images as u64;
        if index >= size {
            return Err(FaultSimError::IndexOutOfRange { index, size });
        }
        let per_image = len as u64 * ACT_BITS;
        let image = (index / per_image) as usize;
        let in_image = index % per_image;
        let element = (in_image / ACT_BITS) as usize;
        let bit = (in_image % ACT_BITS) as u8;
        Ok(ActivationFault {
            site: ActivationSite { node, element, bit, image },
            model: FaultModel::BitFlip,
        })
    }

    /// Decodes an index within the `(group, bit)` subpopulation — the
    /// transient analogue of the paper's per-layer-per-bit strata. Layout:
    /// `element = index % elements`, `image = index / elements`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::IndexOutOfRange`] for an unknown group or an
    /// index at or past
    /// [`group_bit_population`](ActivationSpace::group_bit_population), and
    /// [`FaultSimError::InvalidFault`] for `bit >= 32`.
    pub fn group_bit_fault_at(
        &self,
        group: usize,
        bit: u8,
        index: u64,
    ) -> Result<ActivationFault, FaultSimError> {
        if u64::from(bit) >= ACT_BITS {
            return Err(FaultSimError::InvalidFault {
                reason: format!("bit {bit} outside f32 activation word"),
            });
        }
        let (node, len) = self.group(group)?;
        let size = len as u64 * self.images as u64;
        if index >= size {
            return Err(FaultSimError::IndexOutOfRange { index, size });
        }
        let element = (index % len as u64) as usize;
        let image = (index / len as u64) as usize;
        Ok(ActivationFault {
            site: ActivationSite { node, element, bit, image },
            model: FaultModel::BitFlip,
        })
    }

    fn group(&self, group: usize) -> Result<(NodeId, usize), FaultSimError> {
        self.node_sizes.get(group).copied().ok_or(FaultSimError::IndexOutOfRange {
            index: group as u64,
            size: self.node_sizes.len() as u64,
        })
    }

    /// Decodes a global index into its bit-flip fault.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::IndexOutOfRange`] when `index >= total()`.
    pub fn fault_at(&self, index: u64) -> Result<ActivationFault, FaultSimError> {
        if index >= self.total() {
            return Err(FaultSimError::IndexOutOfRange { index, size: self.total() });
        }
        let mut rest = index;
        for &(node, len) in &self.node_sizes {
            let node_size = len as u64 * ACT_BITS * self.images as u64;
            if rest < node_size {
                let per_image = len as u64 * ACT_BITS;
                let image = (rest / per_image) as usize;
                let in_image = rest % per_image;
                let element = (in_image / ACT_BITS) as usize;
                let bit = (in_image % ACT_BITS) as u8;
                return Ok(ActivationFault {
                    site: ActivationSite { node, element, bit, image },
                    model: FaultModel::BitFlip,
                });
            }
            rest -= node_size;
        }
        unreachable!("index verified against total()");
    }

    /// Decodes a batch of sampled indices.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range index error.
    pub fn faults_at(&self, indices: &[u64]) -> Result<Vec<ActivationFault>, FaultSimError> {
        indices.iter().map(|&i| self.fault_at(i)).collect()
    }
}

/// Outcome of an activation campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivationCampaignResult {
    /// Per-fault criticality (top-1 changed on the struck image), aligned
    /// with the input order.
    pub critical: Vec<bool>,
    /// Single-image inferences executed.
    pub inferences: u64,
}

impl ActivationCampaignResult {
    /// Number of critical upsets.
    pub fn critical_count(&self) -> u64 {
        self.critical.iter().filter(|&&c| c).count() as u64
    }

    /// Fraction of critical upsets.
    pub fn critical_rate(&self) -> f64 {
        if self.critical.is_empty() {
            0.0
        } else {
            self.critical_count() as f64 / self.critical.len() as f64
        }
    }
}

/// Runs a transient activation campaign: each fault strikes its image's
/// inference once; the outcome is critical when the struck inference's
/// top-1 differs from the golden prediction.
///
/// This is the executor-free reference for transient faults: it
/// classifies each fault with one plain forward pass, and the executor's
/// activation tests check every engine and worker count against it. It
/// stays for that reason.
///
/// # Errors
///
/// Returns [`FaultSimError::EmptyEvalSet`] for an empty golden reference,
/// [`FaultSimError::EvalSetMismatch`] for one built for a different number
/// of images than `data` holds, [`FaultSimError::InvalidFault`] for a site
/// outside the model/dataset (image, node, element or bit), or the first
/// inference failure — empty logits included, which leave no top-1 to
/// compare.
///
/// # Example
///
/// ```
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::activation::{run_activation_campaign, ActivationSpace};
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_nn::resnet::ResNetConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// let space = ActivationSpace::build(&model, &data)?;
/// let faults = space.faults_at(&[0, 1, 2])?;
/// let result = run_activation_campaign(&model, &data, &golden, &faults)?;
/// assert_eq!(result.critical.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn run_activation_campaign(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    faults: &[ActivationFault],
) -> Result<ActivationCampaignResult, FaultSimError> {
    golden.check_session(model, data)?;
    let mut critical = Vec::with_capacity(faults.len());
    let mut inferences = 0u64;
    for fault in faults {
        validate_activation_site(golden, fault)?;
        let cache = golden.cache(fault.site.image);
        let logits =
            model.forward_suffix(None, cache, &[fault.patch()], &mut ForwardOptions::default())?;
        inferences += 1;
        let pred = logits.argmax().ok_or(NnError::Op {
            node: model.nodes().len() - 1,
            source: TensorError::Empty { op: "argmax" },
        })?;
        critical.push(pred != golden.prediction(fault.site.image));
    }
    Ok(ActivationCampaignResult { critical, inferences })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_dataset::SynthCifarConfig;
    use sfi_nn::resnet::ResNetConfig;
    use std::collections::HashSet;

    fn setup() -> (Model, Dataset, GoldenReference, ActivationSpace) {
        let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
            .build_seeded(12)
            .unwrap();
        let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = ActivationSpace::build(&model, &data).unwrap();
        (model, data, golden, space)
    }

    #[test]
    fn space_counts_all_nodes_and_images() {
        let (model, data, _, space) = setup();
        assert_eq!(space.nodes(), model.nodes().len() - 1, "input node excluded");
        assert_eq!(space.images(), data.len());
        let manual: u64 = space.node_sizes().iter().map(|&(_, l)| l as u64).sum();
        assert_eq!(space.total(), manual * 32 * 2);
    }

    #[test]
    fn decoding_is_bijective_on_a_stride() {
        let (_, _, _, space) = setup();
        let mut seen = HashSet::new();
        for idx in (0..space.total()).step_by(1009) {
            let f = space.fault_at(idx).unwrap();
            assert!(seen.insert(f));
            assert!(f.site.bit < 32);
            assert!(f.site.image < 2);
        }
        assert!(space.fault_at(space.total()).is_err());
    }

    #[test]
    fn exponent_upsets_in_early_nodes_can_flip_predictions() {
        let (model, data, golden, space) = setup();
        // Strike bit 30 of many elements of the first conv's output.
        let (node, len) = space.node_sizes()[0];
        let faults: Vec<ActivationFault> = (0..len.min(64))
            .map(|e| ActivationFault {
                site: ActivationSite { node, element: e, bit: 30, image: 0 },
                model: FaultModel::BitFlip,
            })
            .collect();
        let res = run_activation_campaign(&model, &data, &golden, &faults).unwrap();
        assert!(res.critical_count() > 0, "some exponent upsets must be critical");
    }

    #[test]
    fn mantissa_lsb_upsets_are_harmless() {
        let (model, data, golden, space) = setup();
        let (node, len) = space.node_sizes()[2];
        let faults: Vec<ActivationFault> = (0..len.min(40))
            .map(|e| ActivationFault {
                site: ActivationSite { node, element: e, bit: 0, image: 1 },
                model: FaultModel::BitFlip,
            })
            .collect();
        let res = run_activation_campaign(&model, &data, &golden, &faults).unwrap();
        assert_eq!(res.critical_count(), 0);
    }

    #[test]
    fn transient_faults_do_not_mutate_the_model_or_cache() {
        let (model, data, golden, space) = setup();
        let store_before = model.store().clone();
        let golden_logits = golden.cache(0).get(golden.cache(0).len() - 1).unwrap().clone();
        let faults = space.faults_at(&[5, 500, 5000]).unwrap();
        let _ = run_activation_campaign(&model, &data, &golden, &faults).unwrap();
        assert_eq!(*model.store(), store_before);
        assert_eq!(*golden.cache(0).get(golden.cache(0).len() - 1).unwrap(), golden_logits);
    }

    #[test]
    fn campaign_is_deterministic() {
        let (model, data, golden, space) = setup();
        let faults = space.faults_at(&(0..200).step_by(7).collect::<Vec<_>>()).unwrap();
        let a = run_activation_campaign(&model, &data, &golden, &faults).unwrap();
        let b = run_activation_campaign(&model, &data, &golden, &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_image_rejected() {
        let (model, data, golden, _) = setup();
        let fault = ActivationFault {
            site: ActivationSite { node: 1, element: 0, bit: 0, image: 99 },
            model: FaultModel::BitFlip,
        };
        assert!(matches!(
            run_activation_campaign(&model, &data, &golden, &[fault]),
            Err(FaultSimError::InvalidFault { .. })
        ));
    }

    #[test]
    fn out_of_range_sites_are_rejected_not_skipped() {
        let (model, data, golden, _) = setup();
        let logits = golden.cache(0).get(model.nodes().len() - 1).unwrap().len();
        let site =
            ActivationSite { node: model.nodes().len() - 1, element: logits, bit: 30, image: 0 };
        for site in [
            site,
            ActivationSite { node: 999, element: 0, ..site },
            ActivationSite { bit: 32, element: 0, ..site },
        ] {
            let fault = ActivationFault { site, model: FaultModel::BitFlip };
            assert!(
                matches!(
                    run_activation_campaign(&model, &data, &golden, &[fault]),
                    Err(FaultSimError::InvalidFault { .. })
                ),
                "{site:?} must be rejected"
            );
        }
    }

    #[test]
    fn input_space_covers_exactly_the_input_tensor() {
        let (model, data, _, _) = setup();
        let space = ActivationSpace::build_for(&model, &data, FaultTarget::Input).unwrap();
        assert_eq!(space.node_sizes(), &[(0, data.image(0).len())]);
        assert_eq!(space.total(), data.image(0).len() as u64 * 32 * 2);
        let f = space.fault_at(17).unwrap();
        assert_eq!(f.site.node, 0);
        assert!(
            ActivationSpace::build_for(&model, &data, FaultTarget::Weight).is_err(),
            "weight target has no activation space"
        );
    }

    #[test]
    fn group_decoding_matches_global_layout() {
        let (_, _, _, space) = setup();
        // The global index space is the concatenation of the groups, so
        // group-local decoding must agree with the global decoder.
        let mut offset = 0u64;
        for g in 0..space.nodes() {
            let pop = space.group_population(g).unwrap();
            for local in [0, pop / 3, pop - 1] {
                assert_eq!(
                    space.group_fault_at(g, local).unwrap(),
                    space.fault_at(offset + local).unwrap()
                );
            }
            assert!(space.group_fault_at(g, pop).is_err());
            offset += pop;
        }
        assert_eq!(offset, space.total());
        assert!(space.group_population(space.nodes()).is_err());
    }

    #[test]
    fn group_bit_decoding_is_bijective_and_pinned_to_the_bit() {
        let (_, _, _, space) = setup();
        let g = 1;
        let pop = space.group_bit_population(g).unwrap();
        let (node, len) = space.node_sizes()[g];
        assert_eq!(pop, len as u64 * 2);
        let mut seen = HashSet::new();
        for idx in 0..pop {
            let f = space.group_bit_fault_at(g, 30, idx).unwrap();
            assert_eq!(f.site.node, node);
            assert_eq!(f.site.bit, 30);
            assert!(f.site.element < len && f.site.image < 2);
            assert!(seen.insert((f.site.element, f.site.image)));
        }
        assert!(space.group_bit_fault_at(g, 30, pop).is_err());
        assert!(space.group_bit_fault_at(g, 32, 0).is_err());
    }

    #[test]
    fn node_population_lookup() {
        let (_, _, _, space) = setup();
        let (node, len) = space.node_sizes()[0];
        assert_eq!(space.node_population(node).unwrap(), len as u64 * 32 * 2);
        assert!(space.node_population(0).is_err(), "input node has no activations");
    }
}
