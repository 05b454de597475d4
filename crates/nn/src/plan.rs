//! Compiled execution plans: the explicit, analyzable form of a forward
//! pass, and the one weight-fault suffix evaluator that runs on them.
//!
//! [`CompiledPlan`] hoists every scheduling fact of a forward pass to
//! compile time, once per `(model, eval set)`:
//!
//! - **step list with input/flush lists** — per node, who reads it last
//!   ([`CompiledPlan::last_reader`]) and which activations die after each
//!   step ([flush lists](CompiledPlan::flush_after)), driving arena
//!   recycling at the earliest sound point;
//! - **suffix cost estimates** ([`CompiledPlan::suffix_flops`]) — the flop
//!   counts that make the choice of the pass's width (one image or all E)
//!   a pure function of the plan ([`CompiledPlan::batched_profitable`]);
//! - **golden weight panels** ([`GoldenPanels`]) — every conv weight the
//!   register-tiled GEMM tier serves, packed once into that kernel's strip
//!   layout, so every suffix GEMM downstream of a faulted node multiplies
//!   pre-packed golden panels instead of re-packing the layer per call;
//! - **conv+bn(+relu) fusion groups** — a conv or depthwise conv, the
//!   batch norm after it and an optional ReLU/ReLU6 run as one conv with a
//!   fused epilogue. Batch norm folds to a per-channel `mul`+`add` whose
//!   coefficients come from the *same*
//!   [`bn_channel_scale_shift`](sfi_tensor::ops::bn_channel_scale_shift)
//!   helper the unfused kernel uses, applied by the same element function,
//!   so the fused epilogue is bit-identical by construction. BN parameters
//!   are not fault-injectable (only weights are), so folding at compile
//!   time is always sound.
//!
//! The **weight-fault suffix pass** ([`CompiledPlan::weight_suffix`]) walks
//! that step list from the faulted node on, with golden-convergence checks
//! and a single-unit probe of the faulted node. It reads a chunk of the
//! per-image golden caches and is as wide as the chunk: one image, reading
//! that image's golden tensors in place, or all E evaluation images, which
//! then share one walk, one probe and the faulted conv's cached im2col
//! panel instead of E of each, and gather the golden rows they read into
//! arena buffers. The per-image caches are the only golden store.
//!
//! # Bit-identity across widths
//!
//! Every operator in the graph treats the batch dimension as fully
//! independent: image `i`'s output elements depend only on image `i`'s
//! inputs, and each output element accumulates its `k` products in the same
//! increasing-`ki` order at every width (the multi-image im2col panel
//! concatenates images along the *column* axis, which never reorders any
//! single element's accumulation chain). An E-wide pass is therefore
//! bit-identical, image by image, to E one-image passes, and since both
//! check convergence at the same steps, each image converges at the same
//! node — the invariant the differential proptests in
//! `tests/plan_equivalence.rs` pin.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfi_tensor::ops::{
    self, BatchNormParams, BatchedLowered, ConvEpilogue, FusedActivation, PackedConvWeight,
};
use sfi_tensor::{ScratchArena, Shape, Tensor};

use crate::model::NodeKernels;
use crate::{ActivationCache, KernelPolicy, Model, NnError, NodeId, NodeOp, ParamId};

/// One conv+bn(+relu) fusion group: the conv (or depthwise conv) head,
/// the folded batch-norm coefficients, and the optional activation,
/// emitted as a single fused kernel by the suffix pass.
#[derive(Debug, Clone)]
struct FusedGroup {
    /// The conv node heading the group.
    conv: NodeId,
    /// The batch-norm node folded into the epilogue.
    bn: NodeId,
    /// The activation node closing the group, when present.
    act: Option<NodeId>,
    /// Epilogue activation (`None` when the group is conv+bn only).
    activation: FusedActivation,
    /// Folded per-channel scale, from `bn_channel_scale_shift`.
    scale: Vec<f32>,
    /// Folded per-channel shift, from `bn_channel_scale_shift`.
    shift: Vec<f32>,
}

impl FusedGroup {
    /// The node whose activation the fused kernel produces.
    fn output(&self) -> NodeId {
        self.act.unwrap_or(self.bn)
    }

    /// The folded batch norm and activation, as a conv epilogue.
    fn epilogue(&self) -> ConvEpilogue<'_> {
        ConvEpilogue { bn: Some((&self.scale, &self.shift)), act: self.activation }
    }
}

/// An empty stand-in for a suffix activation that is fused away or already
/// recycled; it owns no buffer.
pub(crate) fn vacant() -> Tensor {
    Tensor::from_vec([0], Vec::new()).expect("an empty shape holds no elements")
}

/// The golden activations of the images one suffix pass covers: one
/// per-image cache each, in the chunk's order. Every golden read of the
/// pass goes through here.
#[derive(Clone, Copy)]
struct Golden<'a> {
    caches: &'a [ActivationCache],
}

impl<'a> Golden<'a> {
    /// Checks that `caches` is a nonempty chunk of one-image caches of
    /// `model`'s `n` nodes (the plan's).
    fn new(caches: &'a [ActivationCache], n: usize, model: &Model) -> Result<Self, NnError> {
        let one_image = |c: &ActivationCache| c.get(0).is_some_and(|t| t.shape().dims()[0] == 1);
        let fits = |c: &ActivationCache| c.len() == n && one_image(c);
        if caches.is_empty() || model.nodes().len() != n || !caches.iter().all(fits) {
            let (nodes, chunk) = (model.nodes().len(), caches.len());
            let reason =
                format!("suffix pass: plan of {n} nodes, model of {nodes}, {chunk} caches");
            return Err(NnError::CacheMismatch { reason });
        }
        Ok(Self { caches })
    }

    /// Number of images the chunk covers: the pass's width.
    fn width(&self) -> usize {
        self.caches.len()
    }

    /// Image `img`'s golden activation of node `id`.
    fn tensor(&self, id: NodeId, img: usize) -> &'a Tensor {
        self.caches[img].get(id).expect("cache covers all nodes")
    }

    /// Image `img`'s row of node `id`'s golden activation.
    fn row(&self, id: NodeId, img: usize) -> &'a [f32] {
        self.tensor(id, img).as_slice()
    }

    /// Node `id`'s golden activation at the images `rows` (ascending): the
    /// cache's own tensor, uncopied, at width 1 while the image survives;
    /// else [gathered](Self::gather).
    fn rows(&self, id: NodeId, rows: &[usize], arena: &mut ScratchArena) -> Cow<'a, Tensor> {
        if self.caches.len() == 1 && rows.len() == 1 {
            return Cow::Borrowed(self.tensor(id, 0));
        }
        Cow::Owned(self.gather(id, rows, arena))
    }

    /// The rows of node `id`'s golden activation at the images `rows`,
    /// copied into an arena buffer, which the caller recycles.
    fn gather(&self, id: NodeId, rows: &[usize], arena: &mut ScratchArena) -> Tensor {
        let first = self.tensor(id, 0);
        let len = first.len();
        let mut data = arena.take(rows.len() * len);
        for (r, &img) in rows.iter().enumerate() {
            data[r * len..][..len].copy_from_slice(self.row(id, img));
        }
        let mut dims = first.shape().dims().to_vec();
        dims[0] = rows.len();
        Tensor::from_vec(Shape::new(&dims), data).expect("rows keep the row shape")
    }
}

/// Returns a gathered golden tensor's buffer to `arena`.
fn recycle(golden: Cow<'_, Tensor>, arena: &mut ScratchArena) {
    if let Cow::Owned(t) = golden {
        arena.recycle(t.into_vec());
    }
}

/// The operands one step of a suffix pass reads: the chunk's golden
/// activations, the recomputed suffix values from `first_dirty` on, the
/// first dirty conv's lowering and the images still in the panel.
#[derive(Clone, Copy)]
struct Pass<'a> {
    first_dirty: NodeId,
    golden: Golden<'a>,
    fresh: &'a [Tensor],
    lowered: Option<&'a BatchedLowered>,
    rows: &'a [usize],
}

/// Maximum estimated suffix flops (per image) of a weight fault for its
/// suffix pass to run all evaluation images at once
/// ([`CompiledPlan::batched_profitable`]). Small suffixes are
/// per-call-overhead-dominated, and running the images through one pass
/// wins; large suffixes are compute-bound, and the per-image passes
/// already run at full arithmetic throughput.
pub const BATCHED_MAX_SUFFIX_FLOPS: u64 = 2_000_000;

/// A compiled execution plan for one [`Model`]: explicit topological step
/// order, tensor lifetime, suffix costs, and fusion groups. Built once
/// per `(model, eval set)` (shapes come from a golden activation cache) and
/// shared read-only across campaign workers.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    n_nodes: usize,
    /// `last_reader[i]` — the last node that reads node `i`'s activation
    /// (`i` itself when nothing does).
    last_reader: Vec<NodeId>,
    /// `flush[id]` — nodes whose activation dies once step `id` has run.
    flush: Vec<Vec<NodeId>>,
    /// `suffix_flops[id]` — estimated dense flops of nodes `id..` per image.
    suffix_flops: Vec<u64>,
    /// Fusion group index a conv node heads, if any.
    head: Vec<Option<usize>>,
    /// Fusion group index a node is a *non-head* member of, if any.
    member: Vec<Option<usize>>,
    groups: Vec<FusedGroup>,
    /// Conv nodes whose golden input can lower to im2col panels, as the
    /// first dirty conv's cached panel (depthwise convs dispatch to a
    /// direct kernel and never lower).
    lowerable: Vec<bool>,
    /// Conv nodes whose per-image GEMMs read the golden input in place
    /// ([`ops::conv2d_reads_in_place`]) and so never need a per-image
    /// lowering.
    in_place: Vec<bool>,
    /// Golden conv weights pre-packed for the GEMM.
    panels: GoldenPanels,
}

/// The golden weights of every conv node whose GEMM the register-tiled
/// `micro` tier serves, packed once into that kernel's strip layout
/// ([`PackedConvWeight`]). Built by [`CompiledPlan::compile`] from the
/// model's golden parameters and shared read-only (one copy per process,
/// inside the `Arc`-shared plan).
///
/// A panel is golden data: it is only sound for a node whose weights hold
/// their golden values during the pass. The suffix passes enforce this
/// for the one node a weight fault dirties — [`Model::forward_suffix`] and
/// [`CompiledPlan::weight_suffix`] always re-pack that node's live
/// weights — so callers pass panels only to passes with at most one faulted
/// weight tensor.
#[derive(Debug, Clone, Default)]
pub struct GoldenPanels {
    by_node: Vec<Option<PackedConvWeight>>,
}

impl GoldenPanels {
    /// The packed golden weight of conv node `id`, when it has one.
    pub fn get(&self, id: NodeId) -> Option<&PackedConvWeight> {
        self.by_node.get(id).and_then(Option::as_ref)
    }

    /// Number of conv nodes holding a panel.
    pub fn count(&self) -> usize {
        self.by_node.iter().flatten().count()
    }

    /// Heap footprint of every panel, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.by_node.iter().flatten().map(PackedConvWeight::memory_bytes).sum()
    }
}

/// Result of the single-unit probe of the first dirty node.
enum UnitProbe {
    /// No single-unit kernel for this node/op; fall back to full eval.
    Unsupported,
    /// Per-image probe verdicts: `clean[i]` — image `i`'s probed unit
    /// recomputed to golden bits (that image is provably golden from here
    /// on). `dirty` is the node's materialized activation restricted to the
    /// non-clean images (rows in ascending image order, golden clone with
    /// the probed unit overwritten per image), `None` when every image
    /// probed clean.
    Probed { clean: Vec<bool>, dirty: Option<Tensor> },
}

/// Outcome of a weight-fault suffix pass ([`CompiledPlan::weight_suffix`])
/// over the images of its cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixOutcome {
    /// Per image: the node at which its rows went bitwise-golden with no
    /// live dirty values — its prediction provably equals the golden one —
    /// or `None` when it reached the output. All `None` without a
    /// convergence check.
    pub converged_at: Vec<Option<NodeId>>,
    /// `[survivors, classes]` logits rows of the images that reached the
    /// output, in ascending image order, bit-identical to their per-image
    /// forward passes.
    pub logits: Vec<f32>,
    /// Row width of `logits`.
    pub classes: usize,
}

impl CompiledPlan {
    /// Compiles `model` against the activation shapes recorded in `cache`
    /// (any golden cache of the model — shapes, not values, are read; the
    /// batch dimension of the cache does not matter).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when `cache` does not cover the
    /// model's nodes.
    pub fn compile(model: &Model, cache: &ActivationCache) -> Result<Self, NnError> {
        let nodes = model.nodes();
        let n = nodes.len();
        if cache.len() != n {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "plan compile: cache holds {} activations, model has {n} nodes",
                    cache.len()
                ),
            });
        }
        let mut last_reader: Vec<NodeId> = (0..n).collect();
        let mut readers: Vec<u32> = vec![0; n];
        for (id, node) in nodes.iter().enumerate().skip(1) {
            for &inp in &node.inputs {
                last_reader[inp] = id;
                readers[inp] += 1;
            }
        }
        let mut flush: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for i in 0..n.saturating_sub(1) {
            flush[last_reader[i]].push(i);
        }
        let param = |p: ParamId| &model.store().get(p).expect("validated at construction").tensor;
        // Estimated floating-point operations of each step, per image.
        let mut flops = vec![0u64; n];
        let mut lowerable = vec![false; n];
        let mut in_place = vec![false; n];
        let mut panels = vec![None; n];
        for (id, node) in nodes.iter().enumerate().skip(1) {
            let out = cache.get(id).expect("cache covers all nodes");
            let out_shape = out.shape();
            let out_elems: usize = out_shape.dims()[1..].iter().product();
            flops[id] = match &node.op {
                NodeOp::Conv { weight, cfg, .. } => {
                    let w = param(*weight);
                    let k_len: usize = w.shape().dims()[1..].iter().product();
                    let input = cache.get(node.inputs[0]).expect("cache covers all nodes");
                    lowerable[id] = ops::conv2d_uses_lowering(input, w, *cfg);
                    in_place[id] = ops::conv2d_reads_in_place(input, w, *cfg);
                    let c_out = w.shape().n();
                    let m = c_out / cfg.groups;
                    if lowerable[id]
                        && ops::gemm_selected_kernel(m, k_len, out_elems / c_out) == "micro"
                    {
                        let packed = PackedConvWeight::pack(w, cfg.groups)
                            .map_err(|source| NnError::Op { node: id, source })?;
                        panels[id] = Some(packed);
                    }
                    2 * k_len as u64 * out_elems as u64
                }
                NodeOp::Linear { weight, .. } => {
                    let w = param(*weight);
                    2 * w.shape().dims().iter().product::<usize>() as u64
                }
                NodeOp::BatchNorm { .. } => 2 * out_elems as u64,
                NodeOp::AvgPool { kernel } | NodeOp::MaxPool { kernel } => {
                    (kernel * kernel) as u64 * out_elems as u64
                }
                NodeOp::GlobalAvgPool => {
                    let input = cache.get(node.inputs[0]).expect("cache covers all nodes");
                    input.shape().dims()[1..].iter().product::<usize>() as u64
                }
                _ => out_elems as u64,
            };
        }
        let mut suffix_flops = vec![0u64; n + 1];
        for id in (0..n).rev() {
            suffix_flops[id] = suffix_flops[id + 1] + flops[id];
        }
        suffix_flops.pop();

        // Fusion grouping: conv -> bn (-> relu/relu6) chains whose
        // intermediates have exactly one reader, in consecutive id order
        // (how every builder emits them), headed by a GEMM or a depthwise
        // conv. Single-reader is what makes it sound to never materialize
        // the intermediate activations.
        let mut head = vec![None; n];
        let mut member = vec![None; n];
        let mut groups = Vec::new();
        for id in 1..n {
            if !matches!(nodes[id].op, NodeOp::Conv { .. }) {
                continue;
            }
            let Some(bn_node) = nodes.get(id + 1) else { continue };
            let NodeOp::BatchNorm { gamma, beta, mean, var, eps } = &bn_node.op else { continue };
            if bn_node.inputs != [id] || readers[id] != 1 {
                continue;
            }
            let bn = id + 1;
            let channels = cache.get(bn).expect("cache covers all nodes").shape().dims()[1];
            let params = BatchNormParams {
                gamma: param(*gamma),
                beta: param(*beta),
                mean: param(*mean),
                var: param(*var),
                eps: *eps,
            };
            let mut scale = Vec::with_capacity(channels);
            let mut shift = Vec::with_capacity(channels);
            for c in 0..channels {
                let (s, t) = ops::bn_channel_scale_shift(&params, c);
                scale.push(s);
                shift.push(t);
            }
            let act = nodes.get(bn + 1).and_then(|cand| {
                if cand.inputs != [bn] || readers[bn] != 1 {
                    return None;
                }
                match cand.op {
                    NodeOp::Relu => Some((bn + 1, FusedActivation::Relu)),
                    NodeOp::Relu6 => Some((bn + 1, FusedActivation::Relu6)),
                    _ => None,
                }
            });
            let (act_node, activation) = match act {
                Some((a, f)) => (Some(a), f),
                None => (None, FusedActivation::None),
            };
            let gi = groups.len();
            groups.push(FusedGroup { conv: id, bn, act: act_node, activation, scale, shift });
            head[id] = Some(gi);
            member[bn] = Some(gi);
            if let Some(a) = act_node {
                member[a] = Some(gi);
            }
        }
        Ok(Self {
            n_nodes: n,
            last_reader,
            flush,
            suffix_flops,
            head,
            member,
            groups,
            lowerable,
            in_place,
            panels: GoldenPanels { by_node: panels },
        })
    }

    /// The golden weight panels packed at compile time.
    pub fn panels(&self) -> &GoldenPanels {
        &self.panels
    }

    /// Number of nodes the plan covers.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.n_nodes
    }

    /// Per-node last readers (tensor lifetime); `last_reader[i] == i` means
    /// nothing reads node `i`.
    pub fn last_reader(&self) -> &[NodeId] {
        &self.last_reader
    }

    /// Nodes whose activations die once step `id` has executed: every node
    /// but the output, the input included, is listed once, after its last
    /// reader.
    pub fn flush_after(&self, id: NodeId) -> &[NodeId] {
        &self.flush[id]
    }

    /// Estimated dense flops (per image) of re-executing nodes `id..`.
    pub fn suffix_flops(&self, id: NodeId) -> u64 {
        self.suffix_flops.get(id).copied().unwrap_or(0)
    }

    /// Whether node `id` is a conv whose input lowers to im2col panels.
    pub fn is_lowerable_conv(&self, id: NodeId) -> bool {
        self.lowerable.get(id).copied().unwrap_or(false)
    }

    /// Whether node `id` is a conv whose per-image GEMMs read the golden
    /// input in place ([`ops::conv2d_reads_in_place`]): the dense suffix
    /// and its single-unit probe need no per-image lowering of it.
    pub fn reads_in_place(&self, id: NodeId) -> bool {
        self.in_place.get(id).copied().unwrap_or(false)
    }

    /// Whether node `id` is a conv whose per-image GEMMs lower its input to
    /// im2col panels: a lowerable conv that does not read in place. A
    /// one-image pass gets its panel from the worker's [`SessionState`]
    /// for exactly these convs.
    pub fn lowers_per_image(&self, id: NodeId) -> bool {
        self.is_lowerable_conv(id) && !self.reads_in_place(id)
    }

    /// Number of conv+bn(+relu) fusion groups in the plan.
    pub fn fused_groups(&self) -> usize {
        self.groups.len()
    }

    /// The fusion group conv node `id` heads, as its output node and the
    /// epilogue that stands for the rest of the group: running node `id`
    /// with that epilogue yields the output node's activation.
    pub fn fused_at(&self, id: NodeId) -> Option<(NodeId, ConvEpilogue<'_>)> {
        let g = &self.groups[self.head.get(id).copied().flatten()?];
        Some((g.output(), g.epilogue()))
    }

    /// The fusion group node `id` belongs to, as `(head conv, group
    /// output)`, when the plan fused it into one.
    pub fn fusion_of(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        let gi = self
            .head
            .get(id)
            .copied()
            .flatten()
            .or_else(|| self.member.get(id).copied().flatten())?;
        let g = &self.groups[gi];
        Some((g.conv, g.output()))
    }

    /// The width of the suffix pass of a weight fault whose first dirty
    /// node is `first_dirty`: all evaluation images at once when the
    /// estimated suffix from there costs at most
    /// [`BATCHED_MAX_SUFFIX_FLOPS`] per image. A pure function of the
    /// compiled plan, so every build and every host dispatches alike.
    /// Classifications and inference counts are identical on both sides of
    /// the decision.
    pub fn batched_profitable(&self, first_dirty: NodeId) -> bool {
        first_dirty < self.n_nodes && self.suffix_flops(first_dirty) <= BATCHED_MAX_SUFFIX_FLOPS
    }

    /// The weight-fault suffix pass: re-executes nodes `first_dirty..`
    /// over the golden activations in `caches` after a fault in the
    /// parameters of node `first_dirty`, on the plan's schedule — each
    /// fusion group the suffix enters at its head runs as one conv with a
    /// fused epilogue, and each recomputed activation goes back to `arena`
    /// once its last reader has run ([`CompiledPlan::flush_after`]).
    ///
    /// `caches` is the chunk of evaluation images the pass covers, one
    /// per-image golden cache each, and the pass is as wide as their count:
    /// one image, or all E evaluation images, which then share one pass.
    /// Golden reads of a one-image pass use the cache's tensors in place; a
    /// wider pass gathers the rows of its surviving images into arena
    /// buffers where a step reads a golden prefix input. Every conv step
    /// but the first dirty one runs the same one-image kernels at either
    /// width: [`ops::conv2d_with`] reads the input in place, runs the
    /// direct small-plane kernel, or lowers each image to im2col, by the
    /// shape rules. `lowered` holds the im2col panels of the first dirty
    /// conv's golden input at the pass's width, so that conv skips its
    /// lowering; `dirty_unit` is the one output unit the weight fault can
    /// reach (see [`Model::param_output_unit`]). Every conv except the
    /// first dirty one multiplies its golden weight panel, so the caller
    /// asserts that only node `first_dirty`'s parameters differ from the
    /// golden ones.
    ///
    /// With `check_convergence` this is a **converging** pass: after each
    /// step every surviving image's rows are compared bitwise
    /// (`u32`-reinterpreted, so NaN payloads and signed zeros count)
    /// against its golden cache. Every operator is deterministic and
    /// bit-exact in its inputs, so an image's remaining suffix is provably
    /// golden once its current rows match and none of its *live dirty*
    /// values — recomputed activations that differ from golden and are
    /// still read later, such as a diverged conv whose ReLU clamped back
    /// to golden but which a residual `Add` reads — remains. Such an image
    /// drops out of the panel: all live suffix tensors are compacted to
    /// the surviving rows, so later steps shrink as images converge. A
    /// fusion group is checked at its output only; its intermediates have
    /// one reader inside the group, so they are never live past it. With
    /// `dirty_unit` set the first dirty node is decided by a *single-unit
    /// probe* — one GEMM row over `lowered` or, for a conv that
    /// [`ops::conv2d_reads_in_place`], the golden input — and the images
    /// whose unit diverged get their activation materialized as a golden
    /// clone with that unit overwritten, bit-identical to full evaluation
    /// because no other unit depends on the faulted weight row.
    ///
    /// Each image's convergence node and surviving logits row are the same
    /// at every width (see the module docs and DESIGN.md §5h).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when the plan or a cache does not
    /// match the model, `caches` is empty or one of its caches holds more
    /// than one image, or the first operator failure.
    #[allow(clippy::too_many_arguments)]
    pub fn weight_suffix(
        &self,
        model: &Model,
        first_dirty: NodeId,
        caches: &[ActivationCache],
        lowered: Option<&BatchedLowered>,
        dirty_unit: Option<usize>,
        check_convergence: bool,
        arena: &mut ScratchArena,
    ) -> Result<SuffixOutcome, NnError> {
        let n = self.n_nodes;
        let golden = Golden::new(caches, n, model)?;
        let batch = golden.width();
        let classes = golden.row(n - 1, 0).len();
        let mut converged_at: Vec<Option<NodeId>> = vec![None; batch];
        // Per-image converging bookkeeping, indexed by ORIGINAL image id:
        // `rows[r]` maps the panel's surviving row `r` back to its image
        // (always ascending), `expiring[step * batch + img]` counts image
        // `img`'s dirty tensors whose last reader is `step`.
        let mut rows: Vec<usize> = (0..batch).collect();
        let first_dirty = first_dirty.max(1);
        if first_dirty >= n {
            let logits = golden.rows(n - 1, &rows, arena).into_owned().into_vec();
            return Ok(SuffixOutcome { converged_at, logits, classes });
        }
        let mut keep: Vec<usize> = Vec::with_capacity(batch);
        let mut expiring: Vec<u32> = vec![0; if check_convergence { n * batch } else { 0 }];
        let mut live_dirty: Vec<u32> = vec![0; batch];
        let mut fresh: Vec<Tensor> = Vec::with_capacity(n - first_dirty);
        let mut start = first_dirty;
        if let (true, Some(unit)) = (check_convergence, dirty_unit) {
            if let UnitProbe::Probed { clean, dirty } =
                self.probe_unit(model, first_dirty, golden, lowered, unit, arena)?
            {
                for (img, c) in clean.iter().enumerate() {
                    if *c {
                        converged_at[img] = Some(first_dirty);
                    }
                }
                rows.retain(|&img| !clean[img]);
                let Some(t) = dirty else {
                    return Ok(SuffixOutcome { converged_at, logits: Vec::new(), classes });
                };
                let lr = self.last_reader[first_dirty];
                if lr > first_dirty {
                    for &img in &rows {
                        expiring[lr * batch + img] += 1;
                        live_dirty[img] += 1;
                    }
                }
                fresh.push(t);
                start = first_dirty + 1;
            }
        }
        let mut id = start;
        while id < n {
            // A fused group executes whole only when the suffix enters at
            // (or before) its head; a mid-group suffix start runs the
            // remaining members unfused.
            let (out_node, epilogue) = match self.fused_at(id) {
                Some((out, ep)) => (out, Some(ep)),
                None => (id, None),
            };
            let pass = Pass { first_dirty, golden, fresh: &fresh, lowered, rows: &rows };
            let mut value = self.eval_at(model, id, epilogue, &pass, arena)?;
            if check_convergence {
                let vbits = value.as_slice();
                let chunk = vbits.len() / rows.len();
                let lr = self.last_reader[out_node];
                keep.clear();
                for (r, &img) in rows.iter().enumerate() {
                    // The steps id..=out_node have now read their inputs:
                    // this image's dirty values last read inside the group
                    // can no longer spread.
                    for step in id..=out_node {
                        live_dirty[img] -= expiring[step * batch + img];
                    }
                    let clean = bits_eq(&vbits[r * chunk..][..chunk], golden.row(out_node, img));
                    if clean && live_dirty[img] == 0 {
                        converged_at[img] = Some(out_node);
                        continue;
                    }
                    if !clean && lr > out_node {
                        expiring[lr * batch + img] += 1;
                        live_dirty[img] += 1;
                    }
                    keep.push(r);
                }
                if keep.len() < rows.len() {
                    if keep.is_empty() {
                        arena.recycle(value.into_vec());
                        for t in fresh {
                            arena.recycle(t.into_vec());
                        }
                        return Ok(SuffixOutcome { converged_at, logits: Vec::new(), classes });
                    }
                    // Compact the new value AND every live suffix tensor to
                    // the surviving rows, so all live tensors always agree
                    // on the panel width (skip connections may read tensors
                    // produced many compactions apart).
                    let kept = take_rows(&value, &keep, arena);
                    arena.recycle(value.into_vec());
                    value = kept;
                    for slot in fresh.iter_mut() {
                        if !slot.is_empty() {
                            let old = std::mem::replace(slot, vacant());
                            let kept = take_rows(&old, &keep, arena);
                            arena.recycle(old.into_vec());
                            *slot = kept;
                        }
                    }
                    for (r, &k) in keep.iter().enumerate() {
                        rows[r] = rows[k];
                    }
                    rows.truncate(keep.len());
                }
            }
            // Fused-away intermediates occupy their suffix slots with
            // vacant tensors; the single-reader fusion condition guarantees
            // nothing outside the group reads them.
            fresh.extend((id..out_node).map(|_| vacant()));
            fresh.push(value);
            // Flush activations whose last reader has now run.
            for dead in (id..=out_node).flat_map(|step| self.flush_after(step)) {
                if let Some(slot) = dead.checked_sub(first_dirty) {
                    arena.recycle(std::mem::replace(&mut fresh[slot], vacant()).into_vec());
                }
            }
            id = out_node + 1;
        }
        let out = fresh.pop().expect("suffix is nonempty");
        for t in fresh {
            arena.recycle(t.into_vec());
        }
        Ok(SuffixOutcome { converged_at, logits: out.into_vec(), classes })
    }

    /// Evaluates step `id` of a suffix pass — with `epilogue`, the whole
    /// fusion group it heads. Golden prefix inputs are the surviving
    /// images' rows ([`Golden::rows`]). The first dirty conv runs over
    /// `lowered` when given; every other node runs through the model's
    /// fast per-op kernels ([`Model::eval_node`], so [`ops::conv2d_with`]
    /// for a conv), one image at a time inside the batch, at either width.
    /// A conv multiplies its golden weight panel when it has one, never the
    /// first dirty node's.
    fn eval_at(
        &self,
        model: &Model,
        id: NodeId,
        epilogue: Option<ConvEpilogue<'_>>,
        pass: &Pass<'_>,
        arena: &mut ScratchArena,
    ) -> Result<Tensor, NnError> {
        let Pass { first_dirty, golden, fresh, lowered, rows } = *pass;
        let node = &model.nodes()[id];
        let panel = self.golden_panel(id, first_dirty);
        let param = |p: ParamId| &model.store().get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        match (&node.op, lowered) {
            // The first dirty conv's golden-input panel is shared across
            // every fault at this node; the converging pass only evaluates
            // the seed node while all rows are still live, so the panel
            // never needs compaction.
            (NodeOp::Conv { weight, bias, .. }, Some(low))
                if id == first_dirty && rows.len() == golden.width() =>
            {
                let (w, b) = (param(*weight), bias.map(&param));
                ops::conv2d_batched_from_lowered(low, w, b, epilogue.as_ref(), panel, Some(arena))
                    .map_err(wrap)
            }
            _ => {
                let mut input = |i: NodeId| match i.checked_sub(first_dirty) {
                    Some(slot) => Cow::Borrowed(&fresh[slot]),
                    None => golden.rows(i, rows, arena),
                };
                let x0 = input(node.inputs[0]);
                let x1 = node.inputs.get(1).map(|&i| input(i));
                let kernels =
                    NodeKernels { policy: KernelPolicy::Fast, panel, epilogue, rows: None };
                let out = model.eval_node(id, &x0, x1.as_deref(), kernels, Some(arena));
                [Some(x0), x1].into_iter().flatten().for_each(|x| recycle(x, arena));
                out
            }
        }
    }

    /// The golden panel of conv node `id` for a pass whose faulted node is
    /// `first_dirty`: none for the faulted node itself, whose live weights
    /// differ from the golden ones the panel was packed from.
    fn golden_panel(&self, id: NodeId, first_dirty: NodeId) -> Option<&PackedConvWeight> {
        if id == first_dirty {
            None
        } else {
            self.panels.get(id)
        }
    }

    /// Single-unit probe of the first dirty node: evaluates only the
    /// faulted output unit for **all** images — one GEMM row over
    /// `lowered`, or over the golden input in place for a conv that reads
    /// it in place — and compares it against the golden activation
    /// bit-for-bit.
    fn probe_unit(
        &self,
        model: &Model,
        id: NodeId,
        golden: Golden<'_>,
        lowered: Option<&BatchedLowered>,
        unit: usize,
        arena: &mut ScratchArena,
    ) -> Result<UnitProbe, NnError> {
        let node = &model.nodes()[id];
        let param = |p: ParamId| &model.store().get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let batch = golden.width();
        let all: Vec<usize> = (0..batch).collect();
        let input = node.inputs.first().copied().unwrap_or(0);
        let vals: Vec<f32> = match &node.op {
            NodeOp::Conv { weight, bias, cfg } => {
                let w = param(*weight);
                if unit >= w.shape().n() {
                    return Ok(UnitProbe::Unsupported);
                }
                let b = bias.map(&param);
                match lowered {
                    Some(low) => ops::conv2d_channel_batched(low, w, b, unit, Some(arena)),
                    None if self.in_place[id] => {
                        let x = golden.rows(input, &all, arena);
                        let out = ops::conv2d_channel_in_place(&x, w, b, *cfg, unit, Some(arena));
                        recycle(x, arena);
                        out
                    }
                    None => return Ok(UnitProbe::Unsupported),
                }
                .map_err(wrap)?
            }
            NodeOp::Linear { weight, bias } => {
                let w = param(*weight);
                if unit >= w.shape().dims()[0] {
                    return Ok(UnitProbe::Unsupported);
                }
                let x = golden.rows(input, &all, arena);
                let out = if x.shape().rank() == 2 {
                    ops::linear_row(&x, w, bias.map(&param), unit)
                } else {
                    x.reshape([batch, x.len() / batch])
                        .and_then(|x2| ops::linear_row(&x2, w, bias.map(&param), unit))
                };
                recycle(x, arena);
                out.map_err(wrap)?
            }
            _ => return Ok(UnitProbe::Unsupported),
        };
        let shape = golden.tensor(id, 0).shape();
        let chunk: usize = shape.dims()[2..].iter().product();
        let clean: Vec<bool> = (0..batch)
            .map(|n| {
                bits_eq(&golden.row(id, n)[unit * chunk..][..chunk], &vals[n * chunk..][..chunk])
            })
            .collect();
        let survivors: Vec<usize> = (0..batch).filter(|&n| !clean[n]).collect();
        if survivors.is_empty() {
            arena.recycle(vals);
            return Ok(UnitProbe::Probed { clean, dirty: None });
        }
        // Materialize the node's activation for the dirty images only:
        // their golden rows with the probed unit overwritten, already
        // compacted to the surviving panel width.
        let mut t = golden.gather(id, &survivors, arena);
        let row = shape.dims()[1] * chunk;
        for (r, &img) in survivors.iter().enumerate() {
            t.as_mut_slice()[r * row + unit * chunk..][..chunk]
                .copy_from_slice(&vals[img * chunk..][..chunk]);
        }
        arena.recycle(vals);
        Ok(UnitProbe::Probed { clean, dirty: Some(t) })
    }
}

/// Bitwise f32 slice equality (NaN payloads included), the element-level
/// form of [`Tensor::bits_equal`].
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Copies the given leading-axis rows of `t` into a new arena-backed
/// tensor, preserving the per-row layout. The converging pass uses this to
/// drop converged images out of live suffix tensors (`keep` = surviving
/// row indices).
fn take_rows(t: &Tensor, keep: &[usize], arena: &mut ScratchArena) -> Tensor {
    let shape = t.shape();
    let dims = shape.dims();
    let chunk: usize = dims[1..].iter().product();
    let src = t.as_slice();
    let mut data = arena.take(keep.len() * chunk);
    for (r, &row) in keep.iter().enumerate() {
        data[r * chunk..][..chunk].copy_from_slice(&src[row * chunk..][..chunk]);
    }
    let mut nd = dims.to_vec();
    nd[0] = keep.len();
    Tensor::from_vec(Shape::new(&nd), data).expect("row subset preserves the element count")
}

/// NaN-aware argmax over one logits row, identical to
/// [`Tensor::argmax`](sfi_tensor::Tensor::argmax) on a single-image tensor:
/// NaNs are skipped unless the whole row is NaN (then index 0 wins), ties
/// keep the first maximum.
pub fn row_argmax(row: &[f32]) -> Option<usize> {
    if row.is_empty() {
        return None;
    }
    Some(crate::model::argmax_slice(row))
}

/// Reusable per-worker session state: the scratch arena, a high-water
/// mark shared across every worker of a campaign session (so telemetry
/// reports one session-wide arena peak instead of summing — and
/// double-counting — per-worker figures), and a single-slot cache of the
/// im2col panels of one conv node's golden input at one pass width, one
/// panel per chunk of the pass. The executor runs faults deepest-first,
/// so every fault sharing a first dirty conv lands adjacent on one
/// worker and the single slot captures nearly all panel reuse while
/// bounding memory to one node's panels per worker.
#[derive(Debug, Default)]
pub struct SessionState {
    /// The worker's scratch arena; persists across faults and campaigns.
    pub arena: ScratchArena,
    shared_peak: Option<Arc<AtomicU64>>,
    /// The golden-input panels this worker currently holds.
    panels: Option<PanelSlot>,
}

/// The im2col panels of conv node `node`'s golden input for passes
/// `width` images wide: `chunks[c]` is chunk `c`'s panel, built on the
/// first pass over that chunk.
#[derive(Debug)]
struct PanelSlot {
    node: NodeId,
    width: usize,
    chunks: Vec<Option<BatchedLowered>>,
}

impl SessionState {
    /// A fresh state with a private arena and no shared peak.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh state publishing its arena peak into `peak` (shared by
    /// every worker of one session).
    pub fn with_shared_peak(peak: Arc<AtomicU64>) -> Self {
        Self { arena: ScratchArena::new(), shared_peak: Some(peak), panels: None }
    }

    /// What a suffix pass over `chunk` needs beside the plan: the worker's
    /// arena and the im2col panel of first dirty conv `node`'s golden
    /// input, with whether that panel was reused (`Some(true)`) or built
    /// (`Some(false)`). `chunk` holds one per-image golden cache per image,
    /// as [`CompiledPlan::weight_suffix`] takes them, and is the chunk at
    /// `index` of its pass. A one-image pass gets a panel for a conv that
    /// [lowers per image](CompiledPlan::lowers_per_image), a wider one for
    /// any [lowerable conv](CompiledPlan::is_lowerable_conv); otherwise the
    /// panel and the flag are `None`. The panel is gathered and lowered
    /// into the arena on the first pass over the chunk. The slot is keyed
    /// by node and width: every pass of a campaign at one width covers
    /// the same chunks. The faulty weight values never enter the panel —
    /// lowering reads only the node's *input* activation and the kernel
    /// geometry — so one panel serves every fault at the node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when the caches do not match the
    /// plan, or the lowering kernel's first failure.
    pub fn ensure_panel(
        &mut self,
        model: &Model,
        plan: &CompiledPlan,
        chunk: &[ActivationCache],
        index: usize,
        node: NodeId,
    ) -> Result<(&mut ScratchArena, Option<&BatchedLowered>, Option<bool>), NnError> {
        let width = chunk.len();
        let lowers =
            if width == 1 { plan.lowers_per_image(node) } else { plan.is_lowerable_conv(node) };
        let conv = match model.nodes().get(node).map(|n| &n.op) {
            Some(NodeOp::Conv { weight, cfg, .. }) if lowers => (*weight, *cfg),
            _ => return Ok((&mut self.arena, None, None)),
        };
        if self.panels.as_ref().is_none_or(|s| (s.node, s.width) != (node, width)) {
            for old in self.panels.take().into_iter().flat_map(|s| s.chunks).flatten() {
                self.arena.recycle(old.into_cols());
            }
            self.panels = Some(PanelSlot { node, width, chunks: Vec::new() });
        }
        let slot = self.panels.as_mut().expect("slot set above");
        if slot.chunks.len() <= index {
            slot.chunks.resize_with(index + 1, || None);
        }
        let reused = slot.chunks[index].is_some();
        if !reused {
            let golden = Golden::new(chunk, plan.len(), model)?;
            let w = &model.store().get(conv.0).expect("validated at construction").tensor;
            let all: Vec<usize> = (0..width).collect();
            let input = golden.rows(model.nodes()[node].inputs[0], &all, &mut self.arena);
            let built = ops::im2col_lower_batched(&input, w, conv.1, Some(&mut self.arena))
                .map_err(|source| NnError::Op { node, source });
            recycle(input, &mut self.arena);
            slot.chunks[index] = Some(built?);
        }
        Ok((&mut self.arena, slot.chunks[index].as_ref(), Some(reused)))
    }

    /// Publishes the arena's current high-water mark into the shared
    /// session peak (monotone `max`), returning the session-wide value.
    pub fn publish_peak(&self) -> u64 {
        let mine = self.arena.peak_bytes() as u64;
        match &self.shared_peak {
            Some(shared) => {
                shared.fetch_max(mine, Ordering::Relaxed);
                shared.load(Ordering::Relaxed)
            }
            None => mine,
        }
    }

    /// The session-wide arena high-water mark (this worker's own peak when
    /// no shared counter was attached).
    pub fn high_water(&self) -> u64 {
        match &self.shared_peak {
            Some(shared) => shared.load(Ordering::Relaxed).max(self.arena.peak_bytes() as u64),
            None => self.arena.peak_bytes() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::ResNetConfig;

    fn setup() -> (Model, ActivationCache, CompiledPlan) {
        let model = ResNetConfig::resnet20_micro().build_seeded(7).unwrap();
        let input = Tensor::from_fn([1, 3, 16, 16], |i| (i as f32 * 0.37).sin());
        let cache = model.forward_cached(&input).unwrap();
        let plan = CompiledPlan::compile(&model, &cache).unwrap();
        (model, cache, plan)
    }

    #[test]
    fn compile_covers_every_node_and_orders_lifetimes() {
        let (model, _, plan) = setup();
        assert_eq!(plan.len(), model.nodes().len());
        for (i, &lr) in plan.last_reader().iter().enumerate() {
            assert!(lr >= i, "a reader never precedes its producer");
        }
        // Every non-final node, the input included, dies exactly once
        // across the flush lists, after its last reader.
        let mut flushed = vec![0usize; plan.len()];
        for id in 0..plan.len() {
            for &dead in plan.flush_after(id) {
                assert_eq!(plan.last_reader()[dead], id, "node {dead} flushed early or late");
                flushed[dead] += 1;
            }
        }
        for (i, &count) in flushed.iter().enumerate() {
            let want = usize::from(i < plan.len() - 1);
            assert_eq!(count, want, "node {i} must be flushed exactly once");
        }
    }

    #[test]
    fn fusion_groups_cover_conv_bn_relu_chains() {
        let (model, _, plan) = setup();
        assert!(plan.fused_groups() > 0, "resnet emits conv+bn+relu chains");
        // Group heads are lowerable convs.
        for (id, node) in model.nodes().iter().enumerate() {
            if plan.head.get(id).copied().flatten().is_some() {
                assert!(matches!(node.op, NodeOp::Conv { .. }));
                assert!(plan.is_lowerable_conv(id));
            }
        }
    }

    #[test]
    fn depthwise_heads_fuse_with_bn_and_relu6() {
        let model = crate::mobilenet::MobileNetV2Config::cifar_micro().build_seeded(7).unwrap();
        let input = Tensor::from_fn([1, 3, 16, 16], |i| (i as f32 * 0.29).sin());
        let plan = CompiledPlan::compile(&model, &model.forward_cached(&input).unwrap()).unwrap();
        let mut depthwise = 0;
        for (id, node) in model.nodes().iter().enumerate() {
            let NodeOp::Conv { cfg, .. } = node.op else { continue };
            let (out, ep) = plan.fused_at(id).expect("every MobileNetV2 conv heads a group");
            assert_eq!(plan.fusion_of(out), Some((id, out)));
            if cfg.groups > 1 {
                depthwise += 1;
                assert!(!plan.is_lowerable_conv(id));
                assert_eq!(ep.act, FusedActivation::Relu6, "depthwise -> bn -> relu6");
                assert!(matches!(model.nodes()[out].op, NodeOp::Relu6));
            }
        }
        assert!(depthwise > 0, "inverted-residual blocks hold depthwise convs");
    }

    #[test]
    fn suffix_flops_monotone_decreasing() {
        let (_, _, plan) = setup();
        for id in 1..plan.len() {
            assert!(plan.suffix_flops(id - 1) >= plan.suffix_flops(id));
        }
        assert!(plan.suffix_flops(1) > 0);
    }

    /// Per-image golden caches of `n` deterministic inputs.
    fn per_image_caches(model: &Model, n: usize, phase: f32) -> Vec<ActivationCache> {
        (0..n)
            .map(|s| {
                let input =
                    Tensor::from_fn([1, 3, 16, 16], |i| ((i + s * 31) as f32 * phase).cos());
                model.forward_cached(&input).unwrap()
            })
            .collect()
    }

    #[test]
    fn batched_forward_matches_per_image_bitwise() {
        let (model, _, plan) = setup();
        let caches = per_image_caches(&model, 3, 0.21);
        let mut arena = ScratchArena::new();
        // Re-run the whole graph three images wide (suffix start = 1, no
        // probe, no convergence) and compare per-image rows to per-image
        // passes.
        let out = plan.weight_suffix(&model, 1, &caches, None, None, false, &mut arena).unwrap();
        assert_eq!(out.converged_at, vec![None; 3], "no convergence requested");
        for (i, cache) in caches.iter().enumerate() {
            let per_image = model.forward(cache.get(0).unwrap()).unwrap();
            let row = &out.logits[i * out.classes..][..out.classes];
            for (a, b) in row.iter().zip(per_image.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "image {i}");
            }
        }
        assert!(
            plan.weight_suffix(&model, 1, &[], None, None, false, &mut arena).is_err(),
            "an empty chunk is a cache mismatch"
        );
    }

    #[test]
    fn batched_convergence_detects_golden_recompute() {
        let (model, _, plan) = setup();
        let caches = per_image_caches(&model, 2, 0.11);
        let mut arena = ScratchArena::new();
        // Nothing is dirty: recomputing from node 1 must converge every
        // image with no surviving logits rows.
        let out = plan.weight_suffix(&model, 1, &caches, None, None, true, &mut arena).unwrap();
        let SuffixOutcome { converged_at, logits, .. } = out;
        assert_eq!(converged_at.len(), 2);
        assert!(converged_at.iter().all(Option::is_some), "golden recompute converges everywhere");
        assert!(logits.is_empty(), "no image survives to the output");
    }

    #[test]
    fn session_state_panel_slot_hits_on_repeat_node() {
        let (model, _, plan) = setup();
        let caches = per_image_caches(&model, 2, 0.13);
        let conv = (1..plan.len()).find(|&id| plan.lowers_per_image(id)).expect("has convs");
        let other = (conv + 1..plan.len()).find(|&id| plan.lowers_per_image(id)).unwrap();
        let mut session = SessionState::new();
        let mut lookup = |node, chunk: &[ActivationCache], index| {
            let (_, panel, reused) =
                session.ensure_panel(&model, &plan, chunk, index, node).unwrap();
            assert_eq!(panel.is_some(), reused.is_some());
            reused
        };
        assert_eq!(lookup(conv, &caches, 0), Some(false), "first build");
        assert_eq!(lookup(conv, &caches, 0), Some(true), "repeat hits");
        assert_eq!(lookup(other, &caches, 0), Some(false), "rebuild on switch");
        // One image wide the slot holds one panel per image, built once each.
        for (index, chunk) in caches.chunks(1).enumerate() {
            assert_eq!(lookup(other, chunk, index), Some(false), "image {index} builds");
        }
        for (index, chunk) in caches.chunks(1).enumerate() {
            assert_eq!(lookup(other, chunk, index), Some(true), "image {index} hits");
        }
        assert_eq!(lookup(other, &caches, 0), Some(false), "the slot is keyed by width");
        assert_eq!(lookup(0, &caches, 0), None, "the input node has no panel");
    }

    #[test]
    fn session_state_publishes_shared_peak() {
        let shared = Arc::new(AtomicU64::new(0));
        let mut a = SessionState::with_shared_peak(Arc::clone(&shared));
        let mut b = SessionState::with_shared_peak(Arc::clone(&shared));
        let buf = a.arena.take(1000);
        a.arena.recycle(buf);
        let buf = b.arena.take(10);
        b.arena.recycle(buf);
        a.publish_peak();
        b.publish_peak();
        assert_eq!(shared.load(Ordering::Relaxed), 4000);
        assert_eq!(b.high_water(), 4000, "peers see the session-wide peak");
    }

    #[test]
    fn row_argmax_matches_tensor_argmax() {
        let t = Tensor::from_vec([1, 4], vec![0.5, f32::NAN, 2.0, 2.0]).unwrap();
        assert_eq!(row_argmax(t.as_slice()), t.argmax());
        assert_eq!(row_argmax(&[]), None);
    }
}
