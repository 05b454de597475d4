use serde::{Deserialize, Serialize};

use sfi_tensor::Tensor;

use crate::NnError;

/// Identifier of a parameter inside a [`ParameterStore`].
pub type ParamId = usize;

/// What role a parameter plays in the model.
///
/// Only [`ParamKind::Weight`] parameters belong to the fault population: the
/// paper injects permanent faults exclusively into convolution and
/// fully-connected *weights* (its Tables I/II count those and nothing else).
/// Biases and batch-norm statistics are auxiliary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamKind {
    /// A fault-injectable weight tensor, tagged with its 0-based weight
    /// layer index (the paper's "Layer" column).
    Weight {
        /// Position in the network's weight-layer ordering.
        layer: usize,
    },
    /// A convolution or linear bias.
    Bias,
    /// Batch-norm scale `γ`.
    BnGamma,
    /// Batch-norm shift `β`.
    BnBeta,
    /// Batch-norm running mean `μ`.
    BnMean,
    /// Batch-norm running variance `σ²`.
    BnVar,
}

/// A named tensor owned by a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameter {
    /// Human-readable dotted name, e.g. `stage2.block0.conv1.weight`.
    pub name: String,
    /// Role of the parameter.
    pub kind: ParamKind,
    /// The values.
    pub tensor: Tensor,
}

/// Description of one fault-injectable weight layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WeightLayer {
    /// The paper's 0-based layer index.
    pub layer: usize,
    /// Parameter id of the weight tensor.
    pub param: ParamId,
    /// Number of weights in the layer.
    pub len: usize,
    /// Name of the weight parameter.
    pub name: String,
}

/// Flat storage of every parameter of a model.
///
/// Parameters are appended during graph construction; their ids are stable
/// indices. Cloning a store is how campaign workers obtain an independent,
/// mutable copy to inject faults into.
///
/// # Example
///
/// ```
/// use sfi_nn::{ParamKind, ParameterStore};
/// use sfi_tensor::Tensor;
///
/// let mut store = ParameterStore::new();
/// let id = store.push("conv0.weight", ParamKind::Weight { layer: 0 }, Tensor::zeros([4, 3, 3, 3]));
/// assert_eq!(store.get(id).unwrap().name, "conv0.weight");
/// assert_eq!(store.weight_layers().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParameterStore {
    params: Vec<Parameter>,
}

impl ParameterStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a parameter, returning its id.
    pub fn push(&mut self, name: impl Into<String>, kind: ParamKind, tensor: Tensor) -> ParamId {
        self.params.push(Parameter { name: name.into(), kind, tensor });
        self.params.len() - 1
    }

    /// The parameter with id `id`, or `None` when out of range.
    pub fn get(&self, id: ParamId) -> Option<&Parameter> {
        self.params.get(id)
    }

    /// Mutable access to the parameter with id `id`.
    pub fn get_mut(&mut self, id: ParamId) -> Option<&mut Parameter> {
        self.params.get_mut(id)
    }

    /// Number of parameters (of all kinds).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// A 64-bit FNV-1a digest of every parameter's shape and value bits, in
    /// id order: equal stores digest equally, and any changed value (NaN
    /// payloads and signed zeros included) changes the digest with
    /// overwhelming probability. Names and kinds are not hashed.
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(PRIME);
        };
        for p in &self.params {
            for &d in p.tensor.shape().dims() {
                mix(d as u64);
            }
            for &v in p.tensor.as_slice() {
                mix(u64::from(v.to_bits()));
            }
        }
        h
    }

    /// Iterates over all parameters in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Parameter> {
        self.params.iter()
    }

    /// Iterates mutably over all parameters in id order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Parameter> {
        self.params.iter_mut()
    }

    /// The fault-injectable weight layers, ordered by layer index.
    ///
    /// # Panics
    ///
    /// Panics if two weight parameters claim the same layer index (a
    /// construction bug).
    pub fn weight_layers(&self) -> Vec<WeightLayer> {
        let mut layers: Vec<WeightLayer> = self
            .params
            .iter()
            .enumerate()
            .filter_map(|(id, p)| match p.kind {
                ParamKind::Weight { layer } => Some(WeightLayer {
                    layer,
                    param: id,
                    len: p.tensor.len(),
                    name: p.name.clone(),
                }),
                _ => None,
            })
            .collect();
        layers.sort_by_key(|l| l.layer);
        for pair in layers.windows(2) {
            assert_ne!(pair[0].layer, pair[1].layer, "duplicate weight layer index");
        }
        layers
    }

    /// Total number of fault-injectable weights across all layers.
    pub fn total_weights(&self) -> usize {
        self.params
            .iter()
            .filter(|p| matches!(p.kind, ParamKind::Weight { .. }))
            .map(|p| p.tensor.len())
            .sum()
    }

    /// The weight slice of layer `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] when no weight parameter has
    /// that layer index.
    pub fn layer_weights(&self, layer: usize) -> Result<&[f32], NnError> {
        self.params
            .iter()
            .find(|p| p.kind == ParamKind::Weight { layer })
            .map(|p| p.tensor.as_slice())
            .ok_or_else(|| NnError::InvalidParameter { reason: format!("no weight layer {layer}") })
    }

    /// Iterates over every fault-injectable weight value, layer by layer.
    pub fn all_weights(&self) -> impl Iterator<Item = f32> + '_ {
        let layers = self.weight_layers();
        layers.into_iter().flat_map(move |l| self.params[l.param].tensor.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_layers() -> ParameterStore {
        let mut s = ParameterStore::new();
        s.push("conv0.weight", ParamKind::Weight { layer: 0 }, Tensor::zeros([2, 3, 3, 3]));
        s.push("conv0.bn.gamma", ParamKind::BnGamma, Tensor::zeros([2]));
        s.push("fc.weight", ParamKind::Weight { layer: 1 }, Tensor::zeros([10, 2]));
        s.push("fc.bias", ParamKind::Bias, Tensor::zeros([10]));
        s
    }

    #[test]
    fn digest_tracks_values_and_shapes() {
        let base = store_with_layers();
        assert_eq!(base.digest(), store_with_layers().digest());
        let mut flipped = store_with_layers();
        flipped.get_mut(2).unwrap().tensor.as_mut_slice()[7] = -0.0;
        assert_ne!(base.digest(), flipped.digest(), "a signed zero is a different weight");
        let mut reshaped = ParameterStore::new();
        reshaped.push("w", ParamKind::Weight { layer: 0 }, Tensor::zeros([6]));
        let mut other = ParameterStore::new();
        other.push("w", ParamKind::Weight { layer: 0 }, Tensor::zeros([2, 3]));
        assert_ne!(reshaped.digest(), other.digest());
    }

    #[test]
    fn push_and_get_round_trip() {
        let s = store_with_layers();
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(0).unwrap().name, "conv0.weight");
        assert!(s.get(99).is_none());
    }

    #[test]
    fn weight_layers_only_include_weights() {
        let s = store_with_layers();
        let layers = s.weight_layers();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].layer, 0);
        assert_eq!(layers[0].len, 54);
        assert_eq!(layers[1].layer, 1);
        assert_eq!(layers[1].len, 20);
    }

    #[test]
    fn total_weights_sums_layers() {
        assert_eq!(store_with_layers().total_weights(), 74);
    }

    #[test]
    fn layer_weights_lookup() {
        let s = store_with_layers();
        assert_eq!(s.layer_weights(1).unwrap().len(), 20);
        assert!(s.layer_weights(7).is_err());
    }

    #[test]
    fn all_weights_iterates_in_layer_order() {
        let mut s = ParameterStore::new();
        s.push("b", ParamKind::Weight { layer: 1 }, Tensor::full([2], 2.0));
        s.push("a", ParamKind::Weight { layer: 0 }, Tensor::full([2], 1.0));
        let w: Vec<f32> = s.all_weights().collect();
        assert_eq!(w, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate weight layer")]
    fn duplicate_layer_indices_panic() {
        let mut s = ParameterStore::new();
        s.push("a", ParamKind::Weight { layer: 0 }, Tensor::zeros([2]));
        s.push("b", ParamKind::Weight { layer: 0 }, Tensor::zeros([2]));
        s.weight_layers();
    }
}
