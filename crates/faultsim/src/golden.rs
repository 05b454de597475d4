//! The fault-free reference a campaign classifies against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfi_dataset::Dataset;
use sfi_nn::{ActivationCache, CompiledPlan, Model, NnError, NodeId, NodeOp};
use sfi_tensor::ops::{self, BatchedLowered};

use crate::FaultSimError;

/// Precomputed im2col column matrices of the golden input of every conv
/// layer whose per-image GEMM still lowers
/// ([`CompiledPlan::lowers_per_image`]), per evaluation image: one-image
/// [`BatchedLowered`] panels, the width of a one-image suffix pass. Convs
/// that read their input in place are not held: the faulted conv and its
/// single-unit probe multiply the golden input directly.
///
/// Weight faults never change a layer's *input* under incremental
/// re-execution (the cached golden prefix feeds the faulted node), so the
/// lowering of that input is valid for every fault targeting the layer — it
/// depends only on input values and geometry, not on weights. Workers share
/// the cache read-only; hit/miss counters live behind [`Arc`] so clones made
/// for worker threads report into the same tallies.
#[derive(Debug, Clone)]
struct LoweringCache {
    /// `by_node[&node][image]` — one lowered panel set per eval image.
    by_node: HashMap<NodeId, Vec<BatchedLowered>>,
    bytes: usize,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

/// Golden top-1 predictions plus per-image activation caches.
///
/// Built once per `(model, evaluation set)` pair; campaign workers share it
/// read-only. The caches enable incremental re-execution: a fault in weight
/// layer `l` re-runs inference from `l`'s node, reusing the cached prefix.
/// They are the only golden activation store: a suffix pass over all E
/// images reads them as one chunk ([`caches`](Self::caches)), and the
/// faulted conv's E-wide im2col panel is built lazily into each worker's
/// [`SessionState`](sfi_nn::plan::SessionState) single-slot cache.
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
    lowering: Option<LoweringCache>,
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
        Ok(Self {
            weights_digest: model.store().digest(),
            predictions,
            caches,
            lowering: None,
            plan,
        })
    }

    /// Precomputes the im2col lowering of the golden input of every conv
    /// node whose per-image GEMM lowers, for every evaluation image.
    ///
    /// Convolutions that dispatch to the depthwise kernel (which never
    /// lowers) are skipped, and so are those that read their input in
    /// place ([`CompiledPlan::lowers_per_image`]): their faulted GEMM and
    /// single-unit probe multiply the golden input directly, so nothing
    /// would read their panels. The cached panels are consumed by the campaign
    /// executor when re-running the *faulted* conv itself: the faulted layer
    /// reads its golden input, so the lowering is valid for every fault in
    /// the stratum, by one-image suffix passes; an E-wide pass lowers its
    /// chunk's input into the worker's session panel instead, so the
    /// pass's width does not depend on this cache.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::Nn`] when a conv node references a missing
    /// weight parameter or its golden input fails to lower.
    pub fn with_lowering(mut self, model: &Model) -> Result<Self, FaultSimError> {
        let mut by_node: HashMap<NodeId, Vec<BatchedLowered>> = HashMap::new();
        let mut bytes = 0usize;
        for (id, node) in model.nodes().iter().enumerate() {
            let NodeOp::Conv { weight, cfg, .. } = node.op else { continue };
            if !self.plan.lowers_per_image(id) {
                continue;
            }
            let weight = &model
                .store()
                .get(weight)
                .ok_or_else(|| NnError::InvalidParameter {
                    reason: format!("conv node {id} references missing weight {weight}"),
                })?
                .tensor;
            let input_id = node.inputs[0];
            let mut per_image = Vec::with_capacity(self.caches.len());
            for cache in &self.caches {
                let input = cache.get(input_id).expect("cache covers all nodes");
                let lowered = ops::im2col_lower_batched(input, weight, cfg, None)
                    .map_err(|source| NnError::Op { node: id, source })?;
                bytes += lowered.memory_bytes();
                per_image.push(lowered);
            }
            by_node.insert(id, per_image);
        }
        self.lowering = Some(LoweringCache {
            by_node,
            bytes,
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        });
        Ok(self)
    }

    /// Cached lowering of conv node `node`'s golden input for image `image`,
    /// if the cache is enabled and covers that node.
    ///
    /// Counts a hit or miss only when the cache is enabled; with the cache
    /// absent (built without [`with_lowering`](Self::with_lowering)) every
    /// lookup returns `None` without touching the counters.
    pub fn lowering(&self, node: NodeId, image: usize) -> Option<&BatchedLowered> {
        let cache = self.lowering.as_ref()?;
        match cache.by_node.get(&node).and_then(|per_image| per_image.get(image)) {
            Some(lowered) => {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                Some(lowered)
            }
            None => {
                cache.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether the lowering cache was built.
    pub fn has_lowering(&self) -> bool {
        self.lowering.is_some()
    }

    /// The compiled execution plan of the reference model (topological
    /// order, tensor lifetime, cost estimates, fusion groups).
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Records one shared-panel lookup in the lowering-cache tallies: a
    /// reuse (`hit`), or a build or non-lowerable lookup. A batched pass
    /// performs one lookup per fault (against the worker's `SessionState`
    /// single-slot cache), not one per image.
    pub fn record_panel(&self, hit: bool) {
        if let Some(cache) = &self.lowering {
            let tally = if hit { &cache.hits } else { &cache.misses };
            tally.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Heap bytes held by a second, stacked golden store: always 0, since
    /// the per-image caches are the only one. Kept for the end-to-end
    /// benchmark, which still reports it as `faultsim.batched_mb`.
    pub fn batched_bytes(&self) -> usize {
        0
    }

    /// Heap bytes held by the cached column matrices (0 when disabled).
    pub fn lowering_bytes(&self) -> usize {
        self.lowering.as_ref().map_or(0, |c| c.bytes)
    }

    /// Number of cache lookups that found a precomputed lowering.
    pub fn lowering_hits(&self) -> u64 {
        self.lowering.as_ref().map_or(0, |c| c.hits.load(Ordering::Relaxed))
    }

    /// Number of cache lookups that missed (non-lowerable or uncovered node).
    pub fn lowering_misses(&self) -> u64 {
        self.lowering.as_ref().map_or(0, |c| c.misses.load(Ordering::Relaxed))
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

    /// Total heap footprint of the activation caches plus any lowering
    /// cache, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.caches.iter().map(ActivationCache::memory_bytes).sum::<usize>() + self.lowering_bytes()
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

    #[test]
    fn lowering_cache_covers_convs_and_counts_lookups() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(3).generate();
        let plain = GoldenReference::build(&model, &data).unwrap();
        assert!(!plain.has_lowering());
        assert_eq!(plain.lowering_bytes(), 0);
        let base_bytes = plain.memory_bytes();
        // Disabled cache: lookups return None and do not count as misses.
        assert!(plain.lowering(1, 0).is_none());
        assert_eq!(plain.lowering_misses(), 0);

        let golden = plain.with_lowering(&model).unwrap();
        assert!(golden.has_lowering());
        assert!(golden.lowering_bytes() > 0);
        assert_eq!(golden.batched_bytes(), 0, "the per-image caches are the only golden store");
        assert_eq!(golden.memory_bytes(), base_bytes + golden.lowering_bytes());

        let conv_nodes: Vec<usize> = model
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, sfi_nn::NodeOp::Conv { .. }))
            .map(|(id, _)| id)
            .collect();
        assert!(!conv_nodes.is_empty());
        let mut hits = 0;
        for &node in &conv_nodes {
            for image in 0..golden.len() {
                if golden.lowering(node, image).is_some() {
                    hits += 1;
                }
            }
        }
        assert!(hits > 0, "resnet20-micro has lowerable convs");
        assert_eq!(golden.lowering_hits(), hits);
        // A non-conv node is an honest miss once the cache is enabled.
        assert!(golden.lowering(0, 0).is_none());
        assert_eq!(golden.lowering_misses(), 1);
    }

    #[test]
    fn clones_share_lowering_counters() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(1).generate();
        let golden = GoldenReference::build(&model, &data).unwrap().with_lowering(&model).unwrap();
        let clone = golden.clone();
        let _ = clone.lowering(0, 0); // miss on the input node
        assert_eq!(golden.lowering_misses(), 1, "counters are shared across clones");
    }
}
