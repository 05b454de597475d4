//! The fault-free reference a campaign classifies against.

use std::sync::Arc;

use sfi_dataset::Dataset;
use sfi_nn::{ActivationCache, CompiledPlan, Model};

use crate::FaultSimError;

/// Golden top-1 predictions plus per-image activation caches.
///
/// Built once per `(model, evaluation set)` pair; campaign workers share it
/// read-only. The caches enable incremental re-execution: a fault in weight
/// layer `l` re-runs inference from `l`'s node, reusing the cached prefix.
/// They are the only golden activation store: a suffix pass reads them in
/// chunks of one or all E images ([`caches`](Self::caches)), and the
/// faulted conv's im2col panels at that width are built lazily into each
/// worker's [`SessionState`](sfi_nn::plan::SessionState) single-slot cache.
///
/// # Example
///
/// ```
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_nn::resnet::ResNetConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// assert_eq!(golden.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GoldenReference {
    /// [`ParameterStore::digest`](sfi_nn::ParameterStore::digest) of the
    /// weights this reference was built from.
    weights_digest: u64,
    predictions: Vec<usize>,
    caches: Vec<ActivationCache>,
    plan: Arc<CompiledPlan>,
}

impl GoldenReference {
    /// Runs the fault-free model on every image of `data`, recording top-1
    /// predictions and full activation caches.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::EmptyEvalSet`] for an empty dataset, or the
    /// first inference failure.
    pub fn build(model: &Model, data: &Dataset) -> Result<Self, FaultSimError> {
        if data.is_empty() {
            return Err(FaultSimError::EmptyEvalSet);
        }
        let mut predictions = Vec::with_capacity(data.len());
        let mut caches = Vec::with_capacity(data.len());
        for (image, _) in data.iter() {
            let cache = model.forward_cached(image)?;
            let logits = cache.get(cache.len() - 1).expect("cache covers all nodes");
            predictions.push(logits.argmax().expect("logits are nonempty"));
            caches.push(cache);
        }
        let plan = Arc::new(CompiledPlan::compile(model, &caches[0])?);
        Ok(Self { weights_digest: model.store().digest(), predictions, caches, plan })
    }

    /// Returns the reference unchanged: the golden-input im2col panels a
    /// suffix pass reads are built lazily per worker
    /// ([`SessionState::ensure_panel`](sfi_nn::plan::SessionState::ensure_panel)),
    /// so there is nothing to precompute. Kept for the end-to-end
    /// benchmark, which still times it as `faultsim.golden_lowering`;
    /// never fails.
    pub fn with_lowering(self, _model: &Model) -> Result<Self, FaultSimError> {
        Ok(self)
    }

    /// The compiled execution plan of the reference model (topological
    /// order, tensor lifetime, cost estimates, fusion groups).
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Heap bytes held by a second, stacked golden store: always 0, since
    /// the per-image caches are the only one. Kept for the end-to-end
    /// benchmark, which still reports it as `faultsim.batched_mb`.
    pub fn batched_bytes(&self) -> usize {
        0
    }

    /// Heap bytes held by precomputed golden lowerings: always 0, since
    /// the panels live in each worker's session. Kept for the end-to-end
    /// benchmark, which still reports it as `faultsim.lowering_mb`.
    pub fn lowering_bytes(&self) -> usize {
        0
    }

    /// Number of reference images.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    /// Checks that this reference was built for this session: for `data`
    /// (both non-empty, with one image count) and from `model`'s current
    /// weights — its predictions, activation caches and the plan's golden
    /// weight panels are only valid for those.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::EmptyEvalSet`] when either is empty,
    /// [`FaultSimError::EvalSetMismatch`] when their image counts differ,
    /// or [`FaultSimError::ModelMismatch`] when the weight digests differ.
    pub(crate) fn check_session(&self, model: &Model, data: &Dataset) -> Result<(), FaultSimError> {
        if data.is_empty() || self.len() == 0 {
            return Err(FaultSimError::EmptyEvalSet);
        }
        if self.len() != data.len() {
            return Err(FaultSimError::EvalSetMismatch { golden: self.len(), data: data.len() });
        }
        let digest = model.store().digest();
        if digest != self.weights_digest {
            return Err(FaultSimError::ModelMismatch {
                golden: self.weights_digest,
                model: digest,
            });
        }
        Ok(())
    }

    /// Golden top-1 prediction of image `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn prediction(&self, idx: usize) -> usize {
        self.predictions[idx]
    }

    /// All golden predictions.
    pub fn predictions(&self) -> &[usize] {
        &self.predictions
    }

    /// Activation cache of image `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn cache(&self, idx: usize) -> &ActivationCache {
        &self.caches[idx]
    }

    /// Every image's activation cache, in image order: the chunks a suffix
    /// pass reads ([`CompiledPlan::weight_suffix`]).
    pub fn caches(&self) -> &[ActivationCache] {
        &self.caches
    }

    /// Total heap footprint of the activation caches, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.caches.iter().map(ActivationCache::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_dataset::SynthCifarConfig;
    use sfi_nn::resnet::ResNetConfig;

    #[test]
    fn build_matches_plain_prediction() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(5).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        for (i, (image, _)) in data.iter().enumerate() {
            assert_eq!(golden.prediction(i), model.predict(image).unwrap()[0]);
        }
    }

    #[test]
    fn rejects_empty_dataset() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(0).generate();
        assert!(matches!(GoldenReference::build(&model, &data), Err(FaultSimError::EmptyEvalSet)));
    }

    #[test]
    fn caches_cover_every_node() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        assert_eq!(golden.cache(0).len(), model.nodes().len());
        assert!(golden.memory_bytes() > 0);
    }
}
