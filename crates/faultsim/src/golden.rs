//! The fault-free reference a campaign classifies against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfi_dataset::Dataset;
use sfi_nn::{ActivationCache, CompiledPlan, Model, NnError, NodeId, NodeOp};
use sfi_tensor::ops::{self, BatchedLowered};
use sfi_tensor::Tensor;

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

/// Golden state of the **batched** eval-image forward: the activation cache
/// of all E images stacked into one input. Shared read-only across workers
/// (the executor clones the whole [`GoldenReference`] behind an `Arc`).
/// Batched im2col panels are *not* prebuilt here — each worker lazily
/// builds the panel of the conv it is currently faulting into its
/// [`SessionState`](sfi_nn::plan::SessionState) single-slot cache, sharing
/// it across the adjacent same-node faults of the depth-sorted stratum
/// queue. That bounds panel memory to one panel per worker instead of
/// every conv's panel for the whole campaign.
#[derive(Debug, Clone)]
struct BatchedGolden {
    cache: ActivationCache,
}

/// Golden top-1 predictions plus per-image activation caches.
///
/// Built once per `(model, evaluation set)` pair; campaign workers share it
/// read-only. The caches enable incremental re-execution: a fault in weight
/// layer `l` re-runs inference from `l`'s node, reusing the cached prefix.
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
    batched: Option<BatchedGolden>,
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
            batched: None,
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
    /// the stratum. With more than one evaluation image this also builds
    /// the stacked golden state that suffix passes over all images at once
    /// classify against.
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
        if self.caches.len() > 1 {
            self.build_batched(model)?;
        }
        Ok(self)
    }

    /// Builds the batched golden state: stacks the E eval images into one
    /// input and runs the fault-free model once over the stack. The batched
    /// activations are bit-identical, image by image, to the per-image
    /// caches (every operator treats the batch dimension independently), so
    /// an all-images suffix pass classifies against the same golden bits.
    /// At E = 1 the stack would be a copy of `caches[0]`, so
    /// [`with_lowering`](Self::with_lowering) skips it there.
    fn build_batched(&mut self, model: &Model) -> Result<(), FaultSimError> {
        let first = self.caches[0].get(0).expect("cache covers all nodes");
        let per_image = first.len();
        let mut dims = first.shape().dims().to_vec();
        dims[0] = self.caches.len();
        let mut stacked = Vec::with_capacity(per_image * self.caches.len());
        for cache in &self.caches {
            stacked.extend_from_slice(cache.get(0).expect("cache covers all nodes").as_slice());
        }
        let input = Tensor::from_vec(sfi_tensor::Shape::new(&dims), stacked)
            .expect("stacked images match the input shape");
        let cache = model.forward_cached(&input)?;
        self.batched = Some(BatchedGolden { cache });
        Ok(())
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

    /// Whether the batched golden state (the stacked-image cache) was built:
    /// by [`with_lowering`](Self::with_lowering) on more than one image.
    /// Implies [`has_lowering`](Self::has_lowering).
    pub fn has_batched(&self) -> bool {
        self.batched.is_some()
    }

    /// The activation cache of the stacked eval images, when built.
    pub fn batched_cache(&self) -> Option<&ActivationCache> {
        self.batched.as_ref().map(|b| &b.cache)
    }

    /// Records one shared-panel reuse in the lowering-cache tallies: a
    /// batched pass performs one panel lookup per fault (against the
    /// worker's `SessionState` single-slot cache), not one per image.
    pub fn record_panel_hit(&self) {
        if let Some(cache) = &self.lowering {
            cache.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one shared-panel build (or non-lowerable lookup) in the
    /// lowering-cache tallies.
    pub fn record_panel_miss(&self) {
        if let Some(cache) = &self.lowering {
            cache.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Heap bytes held by the batched golden state (0 when disabled).
    /// Per-worker lazy panels are not included — they live in each
    /// worker's arena-backed session slot, not in the shared reference.
    pub fn batched_bytes(&self) -> usize {
        self.batched.as_ref().map_or(0, |b| b.cache.memory_bytes())
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

    /// Total heap footprint of the activation caches plus any lowering
    /// cache and batched golden state, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.caches.iter().map(ActivationCache::memory_bytes).sum::<usize>()
            + self.lowering_bytes()
            + self.batched_bytes()
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
        assert!(golden.has_batched());
        assert!(golden.batched_bytes() > 0);
        assert_eq!(
            golden.memory_bytes(),
            base_bytes + golden.lowering_bytes() + golden.batched_bytes()
        );

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
    fn batched_cache_rows_match_per_image_bits() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(3).generate();
        let golden = GoldenReference::build(&model, &data).unwrap().with_lowering(&model).unwrap();
        let batched = golden.batched_cache().expect("built by with_lowering");
        assert_eq!(batched.len(), model.nodes().len());
        assert_eq!(golden.plan().len(), model.nodes().len());
        for id in 0..batched.len() {
            let bt = batched.get(id).unwrap();
            let per_image = bt.len() / golden.len();
            for i in 0..golden.len() {
                let row = &bt.as_slice()[i * per_image..][..per_image];
                let gold = golden.cache(i).get(id).unwrap().as_slice();
                assert_eq!(row.len(), gold.len());
                for (a, b) in row.iter().zip(gold) {
                    assert_eq!(a.to_bits(), b.to_bits(), "node {id}, image {i}");
                }
            }
        }
    }

    #[test]
    fn one_image_builds_no_batched_state() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(1).generate();
        let plain = GoldenReference::build(&model, &data).unwrap();
        let base_bytes = plain.memory_bytes();
        let golden = plain.with_lowering(&model).unwrap();
        assert!(golden.has_lowering());
        assert!(!golden.has_batched(), "a one-image stack would copy caches[0]");
        assert!(golden.batched_cache().is_none());
        assert_eq!(golden.batched_bytes(), 0);
        assert_eq!(golden.memory_bytes(), base_bytes + golden.lowering_bytes());
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
