//! Sparse delta-propagation faulty inference for transient faults.
//!
//! A transient fault corrupts exactly one element of one activation;
//! everything else that node holds is bit-golden. Instead of re-running the
//! dense suffix ([`Model::forward_suffix`] with the fault's patch), the
//! delta pass represents every faulty activation as *golden + delta*: the
//! full tensor is materialized, but a [`DirtyMask`] records which
//! per-channel, per-spatial-block regions may differ bitwise from the
//! golden run. Each node then:
//!
//! 1. computes a conservative **candidate** mask from its inputs' masks and
//!    the operator's receptive-field geometry (a conv dilates spatial
//!    blocks by its kernel extent and spreads to every output channel of
//!    the same group; pooling contracts; `Add` unions; element-wise ops
//!    copy);
//! 2. recomputes only the candidate elements with *order-exact* scalar
//!    kernels that replicate the dense kernels' per-element accumulation
//!    sequence (so the bits match exactly, non-finite values included);
//!    clean elements are copied from golden, which is exact because their
//!    dense recomputation would read only bit-golden inputs;
//! 3. **trims** the mask by bit-comparing the recomputed candidate blocks
//!    against golden — this is what makes deltas die (ReLU clamping both
//!    values to zero, zero input windows, non-sampled strided pixels);
//! 4. falls back to the dense kernel when the candidate region saturates
//!    past [`DeltaOptions::saturation`] (a deterministic, pure function of
//!    the mask, so outcomes are identical at any worker count).
//!
//! An empty mask ⇔ the activation is provably bit-golden, so the pass
//! inherits the golden-convergence early exit for free.
//!
//! The pass runs on the model's [`CompiledPlan`]: a conv that heads a
//! conv+bn(+relu) fusion group and goes dense runs the whole group as one
//! fused conv, every dense conv multiplies its golden weight panel, and
//! each dirty activation goes back to the arena once its last reader has
//! run ([`CompiledPlan::flush_after`]).
//!
//! Weight faults do not take this engine: a weight fault dirties a whole
//! output channel, so its cone saturates at the first downstream conv and
//! the pass degrades to the dense suffix plus mask bookkeeping.

use sfi_tensor::ops::{self, Conv2dCfg, Padding};
use sfi_tensor::{DirtyMask, ScratchArena, Tensor, DIRTY_BLOCK};

use crate::model::{ActivationCache, ForwardOutcome, NodeKernels};
use crate::{CompiledPlan, Model, NnError, NodeId, NodeOp, ParamId};

/// Default [`DeltaOptions::saturation`] threshold: when a node's candidate
/// dirty region covers at least this fraction of its blocks, the sparse
/// kernels lose to the blocked dense path and the node is evaluated
/// densely. Lower thresholds give up the sparse wins while a transient's
/// cone is still narrow; higher ones drag sparse kernels through
/// near-dense cones. At 0.125 the full-scale ResNet-20 transient campaign
/// runs 1.78x over the dense patched suffix (`BENCH_transient.json`).
pub const DELTA_SATURATION_DEFAULT: f64 = 0.125;

/// Per-caller state threaded through [`Model::forward_delta_site`].
pub struct DeltaOptions<'a> {
    /// Scratch arena for materialized activations; each dirty activation
    /// returns to it once its last reader has run.
    pub arena: Option<&'a mut ScratchArena>,
    /// The model's compiled plan: activation lifetimes, fusion groups and
    /// golden weight panels. A transient fault leaves every weight golden,
    /// so every panel is sound.
    pub plan: &'a CompiledPlan,
    /// Dense-fallback threshold on the candidate mask's dirty fraction, in
    /// `[0, 1]`. A node whose candidate fraction is `>=` this value is
    /// evaluated densely. `0.0` forces every node dense; `1.0` (or more)
    /// keeps every node sparse.
    pub saturation: f64,
}

impl<'a> DeltaOptions<'a> {
    /// Options over `plan` with no arena and the default saturation
    /// threshold.
    pub fn new(plan: &'a CompiledPlan) -> Self {
        Self { arena: None, plan, saturation: DELTA_SATURATION_DEFAULT }
    }
}

/// Work counters of one [`Model::forward_delta_site`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Nodes recomputed through the sparse (dirty-cone) kernels.
    pub sparse_nodes: u64,
    /// Nodes that saturated past the threshold and fell back to the dense
    /// kernel; a fused group counts every member it stands for.
    pub dense_nodes: u64,
    /// Nodes proven clean without per-element work (empty candidate or all
    /// inputs clean), plus nodes (or fused groups) whose recomputed delta
    /// trimmed to empty.
    pub clean_nodes: u64,
    /// Total dirty blocks across all surviving per-node masks — the volume
    /// of the fault's dirty cone.
    pub dirty_blocks: u64,
}

/// One node's materialized faulty activation plus its dirty-region mask.
struct DeltaState {
    value: Tensor,
    mask: DirtyMask,
    /// The mask crossed the saturation threshold when this state was
    /// created. Downstream readers then skip candidate geometry and mask
    /// rebuilds entirely — the cone is already dense, so they evaluate
    /// densely and decide dirtiness with the same short-circuit bitwise
    /// compare the convergence pass uses, paying no delta overhead.
    saturated: bool,
}

impl Model {
    /// Incremental faulty inference from a single corrupted activation
    /// element — the transient-fault injection hook.
    ///
    /// The seed is not recomputed at all: the golden activation of `node` is
    /// cloned, its flat `element` is replaced by `faulty_bits`, and the
    /// delta cone starts from [`DirtyMask::single_site`]. `node` may be `0`,
    /// which corrupts the *input* tensor and propagates through the whole
    /// network. When the corrupted bits equal the golden bits the fault is
    /// provably masked and [`ForwardOutcome::Converged`] at `node` is
    /// returned without any downstream work.
    ///
    /// With `saturation == 0.0` every downstream node takes the dense
    /// bit-compare fast path, which makes this hook behave like the dense
    /// golden-convergence pass on the plan's schedule — same
    /// classifications, same bits — converging at fusion-group outputs, as
    /// that pass does.
    ///
    /// # Errors
    ///
    /// [`NnError::CacheMismatch`] when the cache or plan does not cover the
    /// model or the site names a node/element out of range.
    pub fn forward_delta_site(
        &self,
        node: NodeId,
        element: usize,
        faulty_bits: u32,
        cache: &ActivationCache,
        opts: &mut DeltaOptions<'_>,
    ) -> Result<(ForwardOutcome, DeltaStats), NnError> {
        let n_nodes = self.nodes().len();
        if cache.len() != n_nodes || opts.plan.len() != n_nodes {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "cache holds {} activations, plan covers {} nodes, model has {n_nodes}",
                    cache.len(),
                    opts.plan.len()
                ),
            });
        }
        if node >= n_nodes {
            return Err(NnError::CacheMismatch {
                reason: format!("activation site names node {node}, model has {n_nodes} nodes"),
            });
        }
        let golden = cache.get(node).expect("cache covers model");
        let g = golden.as_slice();
        if element >= g.len() {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "activation site element {element} out of range for node {node} ({} elements)",
                    g.len()
                ),
            });
        }
        let mut stats = DeltaStats::default();
        if g[element].to_bits() == faulty_bits {
            stats.clean_nodes += 1;
            return Ok((ForwardOutcome::Converged { at_node: node }, stats));
        }
        let wrap = |source| NnError::Op { node, source };
        let mut data = golden_copy(golden, opts.arena.as_deref_mut());
        data[element] = f32::from_bits(faulty_bits);
        let mask = DirtyMask::single_site(golden.shape(), element).map_err(wrap)?;
        let saturated = mask.dirty_fraction() >= opts.saturation;
        let value = Tensor::from_vec(golden.shape(), data).expect("golden-shaped buffer");
        stats.sparse_nodes += 1;
        self.delta_run(node, cache, DeltaState { value, mask, saturated }, opts, stats)
    }

    /// Propagates the seeded delta state of [`Model::forward_delta_site`]
    /// through the suffix after `first_dirty` on the plan's schedule.
    /// `first_dirty` may be `0` (input faults), in which case node 0's
    /// state is the patched input itself.
    fn delta_run(
        &self,
        first_dirty: NodeId,
        cache: &ActivationCache,
        seed: DeltaState,
        opts: &mut DeltaOptions<'_>,
        mut stats: DeltaStats,
    ) -> Result<(ForwardOutcome, DeltaStats), NnError> {
        let n_nodes = self.nodes().len();
        // `states[i]` is node `first_dirty + i`'s dirty state: `None` when
        // the node is clean, fused away, or flushed after its last reader.
        // `live` counts the dirty states still held: while one remains, a
        // later reader may spread its diff, so the pass cannot converge
        // (a diverged conv whose ReLU clamped back to golden can still
        // reach a residual `Add`).
        let mut states: Vec<Option<DeltaState>> = Vec::with_capacity(n_nodes - first_dirty);
        stats.dirty_blocks += seed.mask.dirty_blocks() as u64;
        states.push(Some(seed));
        let mut live = 1 - flush(opts, first_dirty, first_dirty..=first_dirty, &mut states);
        let mut id = first_dirty + 1;
        while id < n_nodes {
            let (out, state) =
                self.delta_step(id, first_dirty, cache, &states, opts, &mut stats)?;
            // Fused-away members hold no state: the single-reader fusion
            // condition guarantees nothing outside the group reads them.
            states.extend((id..out).map(|_| None));
            let dirty = state.is_some();
            if let Some(s) = &state {
                stats.dirty_blocks += s.mask.dirty_blocks() as u64;
                live += 1;
            }
            states.push(state);
            live -= flush(opts, first_dirty, id..=out, &mut states);
            if !dirty && live == 0 {
                return Ok((ForwardOutcome::Converged { at_node: out }, stats));
            }
            id = out + 1;
        }
        // Every state but the output's was flushed after its last reader.
        let out = match states.pop().flatten() {
            Some(s) => s.value,
            None => cache.get(n_nodes - 1).expect("nonempty").clone(),
        };
        Ok((ForwardOutcome::Logits(out), stats))
    }

    /// Evaluates step `id` of the delta pass: clean inputs ⇒ no work;
    /// otherwise candidate geometry, then sparse recompute + trim or dense
    /// fallback past the saturation threshold. A dense conv that heads a
    /// fusion group runs the whole group. Returns the node whose state the
    /// step produced (the group output, or `id`) and that state, `None`
    /// when it is bit-golden.
    fn delta_step(
        &self,
        id: NodeId,
        first_dirty: NodeId,
        cache: &ActivationCache,
        states: &[Option<DeltaState>],
        opts: &mut DeltaOptions<'_>,
        stats: &mut DeltaStats,
    ) -> Result<(NodeId, Option<DeltaState>), NnError> {
        let node = &self.nodes()[id];
        let resolve = |inp: NodeId| -> (&Tensor, Option<&DirtyMask>, bool) {
            if inp >= first_dirty {
                if let Some(s) = &states[inp - first_dirty] {
                    return (&s.value, Some(&s.mask), s.saturated);
                }
            }
            (cache.get(inp).expect("cache covers model"), None, false)
        };
        let x0full = resolve(node.inputs[0]);
        let x1full = node.inputs.get(1).map(|&i| resolve(i));
        let x0 = (x0full.0, x0full.1);
        let x1 = x1full.map(|x| (x.0, x.1));
        if x0.1.is_none() && x1.is_none_or(|x| x.1.is_none()) {
            // Zero-delta fast path: every readable input is bit-golden, so
            // this node's dense recomputation would be too. No per-element
            // work happens here.
            stats.clean_nodes += 1;
            return Ok((id, None));
        }
        let golden = cache.get(id).expect("cache covers model");
        let wrap = |source| NnError::Op { node: id, source };
        // Candidate geometry runs over unsaturated inputs only: over a
        // saturated one it could only rediscover a (near-)full mask, so the
        // node goes dense at once. This caps the per-node delta overhead at
        // exactly the dense early-exit cost once the cone has gone dense.
        if !x0full.2 && !x1full.is_some_and(|x| x.2) {
            let cand = self.candidate_mask(id, golden, x0, x1).map_err(wrap)?;
            if cand.is_empty() {
                stats.clean_nodes += 1;
                return Ok((id, None));
            }
            if cand.dirty_fraction() < opts.saturation {
                stats.sparse_nodes += 1;
                let mut arena = opts.arena.as_deref_mut();
                let mut data = golden_copy(golden, arena.as_deref_mut());
                self.sparse_recompute(id, x0.0, x1.map(|x| x.0), &cand, &mut data, arena)
                    .map_err(wrap)?;
                let mask = trimmed_mask(golden, &data, &cand).map_err(wrap)?;
                let value = Tensor::from_vec(golden.shape(), data).expect("golden-shaped buffer");
                if mask.is_empty() {
                    if let Some(a) = opts.arena.as_deref_mut() {
                        a.recycle(value.into_vec());
                    }
                    stats.clean_nodes += 1;
                    return Ok((id, None));
                }
                let saturated = mask.dirty_fraction() >= opts.saturation;
                return Ok((id, Some(DeltaState { value, mask, saturated })));
            }
        }
        // Dense: the node, or the whole fusion group it heads, decided by
        // the convergence pass's short-circuit bitwise compare at the
        // group output.
        let (out, epilogue) = match opts.plan.fused_at(id) {
            Some((out, ep)) => (out, Some(ep)),
            None => (id, None),
        };
        stats.dense_nodes += (out - id + 1) as u64;
        let panel = opts.plan.panels().get(id);
        let kernels = NodeKernels { panel, epilogue, ..NodeKernels::default() };
        let value =
            self.eval_node(id, x0.0, x1.map(|x| x.0), kernels, opts.arena.as_deref_mut())?;
        let golden = cache.get(out).expect("cache covers model");
        if value.bits_equal(golden) {
            if let Some(a) = opts.arena.as_deref_mut() {
                a.recycle(value.into_vec());
            }
            stats.clean_nodes += 1;
            return Ok((out, None));
        }
        let mask =
            DirtyMask::full(golden.shape()).map_err(|source| NnError::Op { node: out, source })?;
        Ok((out, Some(DeltaState { value, mask, saturated: true })))
    }

    /// Conservative candidate mask of node `id` from its inputs' masks:
    /// every output block that could read a dirty input element is marked.
    fn candidate_mask(
        &self,
        id: NodeId,
        golden: &Tensor,
        x0: (&Tensor, Option<&DirtyMask>),
        x1: Option<(&Tensor, Option<&DirtyMask>)>,
    ) -> Result<DirtyMask, sfi_tensor::TensorError> {
        let node = &self.nodes()[id];
        let param = |p: ParamId| &self.store().get(p).expect("validated at construction").tensor;
        match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, cfg, .. } => {
                let xm = x0.1.expect("conv input is dirty");
                let w = param(*weight);
                conv_candidate(golden, x0.0, w.shape().h(), w.shape().w(), *cfg, xm)
            }
            NodeOp::BatchNorm { .. } | NodeOp::Relu | NodeOp::Relu6 => {
                Ok(x0.1.expect("elementwise input is dirty").clone())
            }
            NodeOp::AvgPool { kernel } | NodeOp::MaxPool { kernel } => {
                pool_candidate(golden, x0.1.expect("pool input is dirty"), *kernel)
            }
            NodeOp::GlobalAvgPool => {
                let xm = x0.1.expect("gap input is dirty");
                let mut cand = DirtyMask::for_shape(golden.shape())?;
                for p in 0..xm.planes() {
                    if xm.plane_is_dirty(p) {
                        cand.mark_block(p, 0, 0);
                    }
                }
                Ok(cand)
            }
            NodeOp::Linear { .. } => {
                let xm = x0.1.expect("linear input is dirty");
                let mut cand = DirtyMask::for_shape(golden.shape())?;
                let (batch, out_features) = (golden.shape().dims()[0], golden.shape().dims()[1]);
                let per_image = xm.planes() / batch;
                for n in 0..batch {
                    let dirty = (0..per_image).any(|c| xm.plane_is_dirty(n * per_image + c));
                    if dirty {
                        for o in 0..out_features {
                            cand.mark_block(n * out_features + o, 0, 0);
                        }
                    }
                }
                Ok(cand)
            }
            NodeOp::Add => {
                let rhs = x1.expect("Add is binary");
                match (x0.1, rhs.1) {
                    (Some(a), Some(b)) => {
                        let mut m = a.clone();
                        m.union_with(b);
                        Ok(m)
                    }
                    (Some(a), None) => Ok(a.clone()),
                    (None, Some(b)) => Ok(b.clone()),
                    (None, None) => unreachable!("at least one Add input is dirty"),
                }
            }
            NodeOp::DownsamplePad { stride, .. } => {
                down_candidate(golden, x0.0, x0.1.expect("downsample input is dirty"), *stride)
            }
        }
    }

    /// Recomputes the candidate elements of node `id` into `data` (a copy
    /// of the golden activation) with order-exact kernels, drawing scratch
    /// from `arena`.
    fn sparse_recompute(
        &self,
        id: NodeId,
        x0: &Tensor,
        x1: Option<&Tensor>,
        cand: &DirtyMask,
        data: &mut [f32],
        arena: Option<&mut ScratchArena>,
    ) -> Result<(), sfi_tensor::TensorError> {
        let node = &self.nodes()[id];
        let param = |p: ParamId| &self.store().get(p).expect("validated at construction").tensor;
        match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, bias, cfg } => {
                sparse_conv(x0, param(*weight), bias.map(&param), *cfg, cand, data, arena);
            }
            NodeOp::BatchNorm { gamma, beta, mean, var, eps } => {
                let (gs, bs, ms, vs) = (
                    param(*gamma).as_slice(),
                    param(*beta).as_slice(),
                    param(*mean).as_slice(),
                    param(*var).as_slice(),
                );
                let c = x0.shape().c();
                let x = x0.as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let ci = p % c;
                    // Exactly bn_apply's per-channel affine form.
                    let inv_std = 1.0 / (vs[ci] + eps).sqrt();
                    let scale = gs[ci] * inv_std;
                    let shift = bs[ci] - ms[ci] * scale;
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = x[idx] * scale + shift;
                });
            }
            NodeOp::Relu => {
                let x = x0.as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = if x[idx] < 0.0 { 0.0 } else { x[idx] };
                });
            }
            NodeOp::Relu6 => {
                let x = x0.as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = x[idx].clamp(0.0, 6.0);
                });
            }
            NodeOp::AvgPool { kernel } => {
                let (h_in, w_in) = (x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let k = *kernel;
                let norm = 1.0 / (k * k) as f32;
                for_dirty_pixels(cand, |p, oh, ow| {
                    let chan = &x[p * h_in * w_in..][..h_in * w_in];
                    let mut acc = 0.0f32;
                    for kh in 0..k {
                        for kw in 0..k {
                            acc += chan[(oh * k + kh) * w_in + ow * k + kw];
                        }
                    }
                    data[(p * cand.height() + oh) * cand.width() + ow] = acc * norm;
                });
            }
            NodeOp::MaxPool { kernel } => {
                let (h_in, w_in) = (x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let k = *kernel;
                for_dirty_pixels(cand, |p, oh, ow| {
                    let chan = &x[p * h_in * w_in..][..h_in * w_in];
                    let mut best = f32::NEG_INFINITY;
                    let mut seen = false;
                    for kh in 0..k {
                        for kw in 0..k {
                            let v = chan[(oh * k + kh) * w_in + ow * k + kw];
                            if !v.is_nan() && (v > best || !seen) {
                                best = v;
                                seen = true;
                            }
                        }
                    }
                    data[(p * cand.height() + oh) * cand.width() + ow] =
                        if seen { best } else { f32::NAN };
                });
            }
            NodeOp::GlobalAvgPool => {
                let (h_in, w_in) = (x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let norm = 1.0 / (h_in * w_in) as f32;
                for_dirty_pixels(cand, |p, _, _| {
                    let chan = &x[p * h_in * w_in..][..h_in * w_in];
                    data[p] = chan.iter().sum::<f32>() * norm;
                });
            }
            NodeOp::Linear { weight, bias } => {
                let w = param(*weight);
                let b = bias.map(&param);
                let (out_features, in_features) = (w.shape().dims()[0], w.shape().dims()[1]);
                let batch = cand.planes() / out_features;
                let x = x0.as_slice();
                for n in 0..batch {
                    let dirty =
                        (0..out_features).any(|o| cand.block_is_dirty(n * out_features + o, 0, 0));
                    if !dirty {
                        continue;
                    }
                    let x_row = &x[n * in_features..(n + 1) * in_features];
                    let row = &mut data[n * out_features..(n + 1) * out_features];
                    row.fill(0.0);
                    // The matrix-vector tier `ops::linear` runs, so the
                    // row's bits match the dense evaluation.
                    ops::gemm_col(out_features, in_features, w.as_slice(), x_row, row);
                    if let Some(b) = b {
                        for (v, &bv) in row.iter_mut().zip(b.as_slice()) {
                            *v += bv;
                        }
                    }
                }
            }
            NodeOp::Add => {
                let a = x0.as_slice();
                let bb = x1.expect("Add is binary").as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = a[idx] + bb[idx];
                });
            }
            NodeOp::DownsamplePad { out_channels, stride } => {
                let (c_in, h_in, w_in) = (x0.shape().c(), x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let (oc, s) = (*out_channels, *stride);
                for_dirty_pixels(cand, |p, oh, ow| {
                    let (n, co) = (p / oc, p % oc);
                    debug_assert!(co < c_in, "padded channels are never candidates");
                    let src = ((n * c_in + co) * h_in + oh * s) * w_in + ow * s;
                    data[(p * cand.height() + oh) * cand.width() + ow] = x[src];
                });
            }
        }
        Ok(())
    }
}

/// Drops the dirty states whose last reader is one of `steps` (the plan's
/// flush lists), returning their buffers to the arena. Returns how many
/// dirty states it dropped.
fn flush(
    opts: &mut DeltaOptions<'_>,
    first_dirty: NodeId,
    steps: std::ops::RangeInclusive<NodeId>,
    states: &mut [Option<DeltaState>],
) -> u32 {
    let mut dropped = 0;
    for dead in steps.flat_map(|step| opts.plan.flush_after(step)) {
        let Some(slot) = dead.checked_sub(first_dirty) else { continue };
        if let Some(s) = states[slot].take() {
            dropped += 1;
            if let Some(a) = opts.arena.as_deref_mut() {
                a.recycle(s.value.into_vec());
            }
        }
    }
    dropped
}

/// Copies the golden activation into a working buffer, via the arena when
/// available.
fn golden_copy(golden: &Tensor, arena: Option<&mut ScratchArena>) -> Vec<f32> {
    let mut data = take_buf(arena, golden.len());
    data.copy_from_slice(golden.as_slice());
    data
}

/// A buffer of `len` floats from `arena` (unspecified contents) or freshly
/// allocated.
fn take_buf(arena: Option<&mut ScratchArena>, len: usize) -> Vec<f32> {
    match arena {
        Some(a) => a.take(len),
        None => vec![0.0f32; len],
    }
}

/// Visits every pixel of every dirty block of `mask` as `(plane, y, x)`.
fn for_dirty_pixels(mask: &DirtyMask, mut f: impl FnMut(usize, usize, usize)) {
    for p in 0..mask.planes() {
        for by in 0..mask.blocks_h() {
            for bx in 0..mask.blocks_w() {
                if !mask.block_is_dirty(p, by, bx) {
                    continue;
                }
                let (y0, y1, x0, x1) = mask.block_pixels(by, bx);
                for y in y0..y1 {
                    for x in x0..x1 {
                        f(p, y, x);
                    }
                }
            }
        }
    }
}

/// The final mask of a sparse node: candidate blocks whose recomputed
/// values actually differ bitwise from golden. Blocks outside the
/// candidate are clean by construction and never compared.
fn trimmed_mask(
    golden: &Tensor,
    data: &[f32],
    cand: &DirtyMask,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut mask = DirtyMask::for_shape(golden.shape())?;
    let g = golden.as_slice();
    let (h, w) = (cand.height(), cand.width());
    for p in 0..cand.planes() {
        for by in 0..cand.blocks_h() {
            for bx in 0..cand.blocks_w() {
                if !cand.block_is_dirty(p, by, bx) {
                    continue;
                }
                let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                let differs = (y0..y1).any(|y| {
                    let row = (p * h + y) * w;
                    g[row + x0..row + x1]
                        .iter()
                        .zip(&data[row + x0..row + x1])
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                });
                if differs {
                    mask.mark_block(p, by, bx);
                }
            }
        }
    }
    Ok(mask)
}

/// Input dirty-block range touched by output pixels `[p0, p1)` of a
/// stride/kernel/pad windowed op, clipped to `limit` input pixels. Returns
/// an empty range when the window lies entirely in the padding.
fn window_block_range(
    p0: usize,
    p1: usize,
    stride: usize,
    k: usize,
    pad: usize,
    limit: usize,
) -> (usize, usize) {
    let lo = (p0 * stride) as isize - pad as isize;
    let hi = ((p1 - 1) * stride + k - 1) as isize - pad as isize;
    if hi < 0 {
        return (0, 0);
    }
    let lo = lo.max(0) as usize;
    let hi = (hi as usize).min(limit.saturating_sub(1));
    if lo > hi {
        return (0, 0);
    }
    (lo / DIRTY_BLOCK, hi / DIRTY_BLOCK + 1)
}

/// Resolves a conv's padding exactly as `Conv2dCfg::resolve_padding` does.
fn resolve_pad(cfg: Conv2dCfg, k_h: usize, k_w: usize) -> usize {
    match cfg.padding {
        Padding::Same => (k_h.max(k_w) - 1) / 2,
        Padding::Explicit(p) => p,
    }
}

/// Candidate mask of a convolution: an output block is dirty for *every*
/// channel of group `g` when its receptive field intersects a dirty block
/// of any of `g`'s input channels (grouped convs confine the channel
/// spread; the bitwise trim pass removes the conservatism).
fn conv_candidate(
    golden: &Tensor,
    input: &Tensor,
    k_h: usize,
    k_w: usize,
    cfg: Conv2dCfg,
    xm: &DirtyMask,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut cand = DirtyMask::for_shape(golden.shape())?;
    let (batch, c_out) = (golden.shape().n(), golden.shape().c());
    let (c_in, h_in, w_in) = (input.shape().c(), input.shape().h(), input.shape().w());
    let groups = cfg.groups;
    let (cpg_in, cpg_out) = (c_in / groups, c_out / groups);
    let pad = resolve_pad(cfg, k_h, k_w);
    for n in 0..batch {
        for g in 0..groups {
            let any_chan_dirty =
                (0..cpg_in).any(|ci_g| xm.plane_is_dirty(n * c_in + g * cpg_in + ci_g));
            if !any_chan_dirty {
                continue;
            }
            for by in 0..cand.blocks_h() {
                for bx in 0..cand.blocks_w() {
                    let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                    let (iby0, iby1) = window_block_range(y0, y1, cfg.stride, k_h, pad, h_in);
                    let (ibx0, ibx1) = window_block_range(x0, x1, cfg.stride, k_w, pad, w_in);
                    if iby0 >= iby1 || ibx0 >= ibx1 {
                        continue;
                    }
                    let hit = (0..cpg_in).any(|ci_g| {
                        xm.any_in(n * c_in + g * cpg_in + ci_g, iby0, iby1, ibx0, ibx1)
                    });
                    if hit {
                        for co_g in 0..cpg_out {
                            cand.mark_block(n * c_out + g * cpg_out + co_g, by, bx);
                        }
                    }
                }
            }
        }
    }
    Ok(cand)
}

/// Candidate mask of an evenly-divided pooling op (window == stride == `k`).
fn pool_candidate(
    golden: &Tensor,
    xm: &DirtyMask,
    k: usize,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut cand = DirtyMask::for_shape(golden.shape())?;
    for p in 0..cand.planes() {
        if !xm.plane_is_dirty(p) {
            continue;
        }
        for by in 0..cand.blocks_h() {
            for bx in 0..cand.blocks_w() {
                let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                let (iby0, iby1) = (y0 * k / DIRTY_BLOCK, (y1 * k - 1) / DIRTY_BLOCK + 1);
                let (ibx0, ibx1) = (x0 * k / DIRTY_BLOCK, (x1 * k - 1) / DIRTY_BLOCK + 1);
                if xm.any_in(p, iby0, iby1, ibx0, ibx1) {
                    cand.mark_block(p, by, bx);
                }
            }
        }
    }
    Ok(cand)
}

/// Candidate mask of the parameter-free strided downsample: only sampled
/// input pixels (multiples of `stride`) can propagate; padded channels are
/// always clean.
fn down_candidate(
    golden: &Tensor,
    input: &Tensor,
    xm: &DirtyMask,
    stride: usize,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut cand = DirtyMask::for_shape(golden.shape())?;
    let (batch, oc) = (golden.shape().n(), golden.shape().c());
    let c_in = input.shape().c();
    for n in 0..batch {
        for co in 0..c_in {
            let in_plane = n * c_in + co;
            if !xm.plane_is_dirty(in_plane) {
                continue;
            }
            let out_plane = n * oc + co;
            for by in 0..cand.blocks_h() {
                for bx in 0..cand.blocks_w() {
                    let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                    let (iby0, iby1) =
                        (y0 * stride / DIRTY_BLOCK, ((y1 - 1) * stride) / DIRTY_BLOCK + 1);
                    let (ibx0, ibx1) =
                        (x0 * stride / DIRTY_BLOCK, ((x1 - 1) * stride) / DIRTY_BLOCK + 1);
                    if xm.any_in(in_plane, iby0, iby1, ibx0, ibx1) {
                        cand.mark_block(out_plane, by, bx);
                    }
                }
            }
        }
    }
    Ok(cand)
}

/// Output channels per lane group of the sparse GEMM conv.
const LANES: usize = 16;

/// Output pixels per tile of the sparse GEMM conv.
const PIX: usize = 4;

/// Order-exact convolution over the candidate region.
///
/// The GEMM paths (im2col and in place) compute each output element as
/// `acc = Σ_k w[k]·col[k]` with `k = (ci_g·k_h + kh)·k_w + kw` ascending,
/// starting from `0.0`, padding multiplied as explicit zeros, and the bias
/// added *after* the GEMM with a separate `+=`. Here each dirty block of
/// a group runs as tiles of [`PIX`] pixels × [`LANES`] output channels
/// ([`lanes_tile`]) over the group's `[k][c_out]` weight transpose: the
/// vector lanes sit on output channels, and every output still receives
/// its products one at a time in ascending `k`, so its bits are the dense
/// kernels' — NaN/Inf included (e.g. `0.0 × NaN = NaN` at padded border
/// pixels).
///
/// The depthwise kernel instead *skips* out-of-bounds taps and writes
/// `acc + base` in one add; it is replicated by a scalar loop.
fn sparse_conv(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    cand: &DirtyMask,
    data: &mut [f32],
    mut arena: Option<&mut ScratchArena>,
) {
    let (batch, c_in, h_in, w_in) =
        (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
    let (c_out, cpg_in, k_h, k_w) =
        (weight.shape().n(), weight.shape().c(), weight.shape().h(), weight.shape().w());
    let groups = cfg.groups;
    let cpg_out = c_out / groups;
    let pad = resolve_pad(cfg, k_h, k_w) as isize;
    let (h_out, w_out) = (cand.height(), cand.width());
    let x = input.as_slice();
    let w = weight.as_slice();
    if groups == c_in && c_out == c_in && cpg_in == 1 {
        for_dirty_pixels(cand, |p, oh, ow| {
            let (n, co) = (p / c_out, p % c_out);
            let in_chan = &x[(n * c_in + co) * h_in * w_in..][..h_in * w_in];
            let w_chan = &w[co * k_h * k_w..][..k_h * k_w];
            let base = bias.map_or(0.0, |b| b.as_slice()[co]);
            let mut acc = 0.0f32;
            for kh in 0..k_h {
                let ih = (oh * cfg.stride + kh) as isize - pad;
                if ih < 0 || ih as usize >= h_in {
                    continue;
                }
                for kw in 0..k_w {
                    let iw = (ow * cfg.stride + kw) as isize - pad;
                    if iw < 0 || iw as usize >= w_in {
                        continue;
                    }
                    acc += in_chan[ih as usize * w_in + iw as usize] * w_chan[kh * k_w + kw];
                }
            }
            data[(p * h_out + oh) * w_out + ow] = acc + base;
        });
        return;
    }
    let k_len = cpg_in * k_h * k_w;
    // The weight transpose, one `[k][LANES]` strip per lane group of each
    // channel group; lanes past the group's channels hold zeros (their
    // outputs are never stored).
    let strips = cpg_out.div_ceil(LANES);
    let strip_len = k_len * LANES;
    let mut wt = take_buf(arena.as_deref_mut(), groups * strips * strip_len);
    for (s, strip) in wt.chunks_exact_mut(strip_len).enumerate() {
        let (g, co0) = (s / strips, s % strips * LANES);
        let w_g = &w[g * cpg_out * k_len..][..cpg_out * k_len];
        for (k, lanes) in strip.chunks_exact_mut(LANES).enumerate() {
            for (l, v) in lanes.iter_mut().enumerate() {
                *v = if co0 + l < cpg_out { w_g[(co0 + l) * k_len + k] } else { 0.0 };
            }
        }
    }
    // `cols[k][p]`: the im2col column of each pixel of the tile.
    let mut cols = take_buf(arena.as_deref_mut(), k_len * PIX);
    let mut pixels = [(0usize, 0usize); DIRTY_BLOCK * DIRTY_BLOCK];
    for n in 0..batch {
        for g in 0..groups {
            let planes = n * c_out + g * cpg_out..n * c_out + (g + 1) * cpg_out;
            for by in 0..cand.blocks_h() {
                for bx in 0..cand.blocks_w() {
                    if !planes.clone().any(|p| cand.block_is_dirty(p, by, bx)) {
                        continue;
                    }
                    let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                    let mut count = 0;
                    for oh in y0..y1 {
                        for ow in x0..x1 {
                            pixels[count] = (oh, ow);
                            count += 1;
                        }
                    }
                    for tile in pixels[..count].chunks(PIX) {
                        for (p, &(oh, ow)) in tile.iter().enumerate() {
                            let mut k = 0;
                            for ci_g in 0..cpg_in {
                                let ci = g * cpg_in + ci_g;
                                let in_chan = &x[(n * c_in + ci) * h_in * w_in..][..h_in * w_in];
                                for kh in 0..k_h {
                                    let ih = (oh * cfg.stride + kh) as isize - pad;
                                    let row_ok = ih >= 0 && (ih as usize) < h_in;
                                    for kw in 0..k_w {
                                        let iw = (ow * cfg.stride + kw) as isize - pad;
                                        cols[k * PIX + p] =
                                            if row_ok && iw >= 0 && (iw as usize) < w_in {
                                                in_chan[ih as usize * w_in + iw as usize]
                                            } else {
                                                0.0
                                            };
                                        k += 1;
                                    }
                                }
                            }
                        }
                        for s in 0..strips {
                            let co0 = s * LANES;
                            let strip = &wt[(g * strips + s) * strip_len..][..strip_len];
                            let acc = lanes_tile(strip, &cols);
                            for co_g in co0..(co0 + LANES).min(cpg_out) {
                                let plane = planes.start + co_g;
                                if !cand.block_is_dirty(plane, by, bx) {
                                    continue;
                                }
                                let base = bias.map(|b| b.as_slice()[g * cpg_out + co_g]);
                                for (acc_p, &(oh, ow)) in acc.iter().zip(tile) {
                                    let mut v = acc_p[co_g - co0];
                                    if let Some(b) = base {
                                        v += b;
                                    }
                                    data[(plane * h_out + oh) * w_out + ow] = v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if let Some(a) = arena {
        a.recycle(wt);
        a.recycle(cols);
    }
}

/// One tile of the sparse GEMM conv: [`PIX`] pixels × [`LANES`] output
/// channels. `strip` holds the channels' weights as `[k][LANES]`, `cols`
/// the pixels' im2col columns as `[k][PIX]`. Each output owns one
/// accumulator lane that starts at `0.0` and receives its products one
/// multiply and one add at a time in ascending `k` — the dense GEMM's
/// chain — so vector width never reorders it. Lanes and pixels past the
/// tile's real extent compute values nobody stores.
#[inline(never)]
fn lanes_tile(strip: &[f32], cols: &[f32]) -> [[f32; LANES]; PIX] {
    let mut acc = [[0.0f32; LANES]; PIX];
    for (w_k, x_k) in strip.chunks_exact(LANES).zip(cols.chunks_exact(PIX)) {
        for (p, row) in acc.iter_mut().enumerate() {
            let x_v = x_k[p];
            for (acc_v, &w_v) in row.iter_mut().zip(w_k) {
                *acc_v += w_v * x_v;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActPatch, ForwardOptions, Node, ParamKind, ParameterStore};

    /// The dense suffix re-execution the delta pass must reproduce.
    fn dense_suffix(m: &Model, cache: &ActivationCache, patches: &[ActPatch]) -> Tensor {
        m.forward_suffix(None, cache, patches, &mut ForwardOptions::default()).unwrap()
    }

    fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// conv(1->2, 3x3) -> relu -> gap -> linear, as in model.rs tests.
    fn tiny_model() -> Model {
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 9.0) * 0.1),
        );
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let b1 = store.push("fc.bias", ParamKind::Bias, Tensor::from_fn([3], |i| i as f32 * 0.1));
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::unary(NodeOp::GlobalAvgPool, 2),
            Node::unary(NodeOp::Linear { weight: w1, bias: Some(b1) }, 3),
        ];
        Model::new("tiny", nodes, store, vec![1, 4, 4]).unwrap()
    }

    /// Strikes `(node, element)` with `value` through `forward_delta_site`
    /// at `saturation` and asserts the outcome is indistinguishable from
    /// the dense patched suffix: bit-identical logits on divergence,
    /// bit-golden dense logits on convergence, with and without an arena.
    fn assert_site_exact(
        m: &Model,
        node: NodeId,
        element: usize,
        value: f32,
        cache: &ActivationCache,
        saturation: f64,
        ctx: &str,
    ) -> (ForwardOutcome, DeltaStats) {
        let bits = value.to_bits();
        let set = ActPatch { and_mask: 0, or_mask: bits, ..ActPatch::identity(node, element) };
        let dense = dense_suffix(m, cache, &[set]);
        let plan = CompiledPlan::compile(m, cache).unwrap();
        let mut arena = ScratchArena::new();
        let opts = &mut DeltaOptions { arena: Some(&mut arena), plan: &plan, saturation };
        let (out, stats) = m.forward_delta_site(node, element, bits, cache, opts).unwrap();
        match &out {
            ForwardOutcome::Logits(l) => {
                assert!(bits_eq(l, &dense), "{ctx}: delta logits diverge from dense");
            }
            ForwardOutcome::Converged { at_node } => {
                let golden = cache.get(cache.len() - 1).unwrap();
                assert!(bits_eq(&dense, golden), "{ctx}: spurious convergence at node {at_node}");
            }
        }
        let plain = &mut DeltaOptions { saturation, ..DeltaOptions::new(&plan) };
        let (out2, _) = m.forward_delta_site(node, element, bits, cache, plain).unwrap();
        match (&out, &out2) {
            (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => {
                assert!(bits_eq(a, b), "{ctx}: arena changed the bits");
            }
            (a, b) => assert_eq!(a, b, "{ctx}: arena changed the outcome"),
        }
        (out, stats)
    }

    #[test]
    fn delta_matches_dense_on_a_diverging_fault() {
        let m = tiny_model();
        let input = Tensor::from_fn([2, 1, 4, 4], |i| (i as f32).sin());
        let cache = m.forward_cached(&input).unwrap();
        let (out, stats) = assert_site_exact(&m, 0, 5, 100.0, &cache, 0.95, "diverging input");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
        assert!(stats.sparse_nodes > 1, "the conv must run sparse: {stats:?}");
        assert!(stats.dirty_blocks > 0);
    }

    #[test]
    fn saturation_boundary_at_threshold_goes_dense() {
        // A strike in one of the conv's two 4x4 output channels makes the
        // seed's and the ReLU candidate's dirty fraction exactly 0.5.
        // saturation == that fraction must fall back dense (>=); just above
        // keeps it sparse. Classifications stay bit-identical either way.
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32).cos());
        let cache = m.forward_cached(&input).unwrap();
        let (_, at) = assert_site_exact(&m, 1, 0, 7.0, &cache, 0.5, "at threshold");
        let (_, over) = assert_site_exact(&m, 1, 0, 7.0, &cache, 0.5001, "over threshold");
        assert!(at.dense_nodes > over.dense_nodes, "at: {at:?}, over: {over:?}");
        assert!(over.sparse_nodes > at.sparse_nodes, "at: {at:?}, over: {over:?}");
        // saturation 0.0 forces every dirty node dense; 1.1 keeps all sparse.
        let (_, all_dense) = assert_site_exact(&m, 1, 0, 7.0, &cache, 0.0, "all dense");
        assert_eq!(all_dense.sparse_nodes, 1, "only the site seed counts sparse: {all_dense:?}");
        let (_, all_sparse) = assert_site_exact(&m, 1, 0, 7.0, &cache, 1.1, "all sparse");
        assert_eq!(all_sparse.dense_nodes, 0, "{all_sparse:?}");
    }

    #[test]
    fn delta_through_stride2_and_grouped_conv() {
        // conv(1->2) -> relu -> conv(2->4, stride 2, groups 2) -> relu ->
        // gap -> linear; strikes before and at the strided grouped conv.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv1.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 8.0) * 0.11),
        );
        let w1 = store.push(
            "conv2.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([4, 1, 3, 3], |i| ((i * 5) % 17) as f32 * 0.07 - 0.5),
        );
        let w2 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 2 },
            Tensor::from_fn([3, 4], |i| (i as f32 - 5.0) * 0.3),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::unary(
                NodeOp::Conv { weight: w1, bias: None, cfg: Conv2dCfg::same(2).with_groups(2) },
                2,
            ),
            Node::unary(NodeOp::Relu, 3),
            Node::unary(NodeOp::GlobalAvgPool, 4),
            Node::unary(NodeOp::Linear { weight: w2, bias: None }, 5),
        ];
        let m = Model::new("strided", nodes, store, vec![1, 8, 8]).unwrap();
        let input = Tensor::from_fn([2, 1, 8, 8], |i| ((i * 3) % 7) as f32 * 0.2 - 0.5);
        let cache = m.forward_cached(&input).unwrap();
        // Sampled and skipped pixels of the stride, in both groups and both
        // images, plus a strike through the whole network from the input.
        for (node, element, val) in
            [(2, 0usize, 5.0f32), (2, 9, f32::NAN), (2, 64 + 27, -9.0), (2, 128 + 70, 3.0)]
        {
            let ctx = format!("node {node}[{element}]={val}");
            let (_, stats) = assert_site_exact(&m, node, element, val, &cache, 0.95, &ctx);
            assert!(stats.sparse_nodes > 1, "{ctx}: the grouped conv must run sparse: {stats:?}");
        }
        assert_site_exact(&m, 0, 19, 4.0, &cache, 0.95, "input strike");
        // Strike on the grouped conv's own output.
        assert_site_exact(&m, 3, 11, f32::INFINITY, &cache, 0.95, "grouped conv output");
    }

    #[test]
    fn delta_through_depthwise_conv() {
        // conv(1->2) -> relu -> depthwise conv(2->2, groups 2) -> gap -> fc.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 9.0) * 0.1),
        );
        let dw = store.push(
            "dw.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([2, 1, 3, 3], |i| ((i * 7) % 5) as f32 * 0.15 - 0.2),
        );
        let dwb = store.push("dw.bias", ParamKind::Bias, Tensor::from_fn([2], |i| i as f32 * 0.4));
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 2 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::unary(
                NodeOp::Conv {
                    weight: dw,
                    bias: Some(dwb),
                    cfg: Conv2dCfg::same(1).with_groups(2),
                },
                2,
            ),
            Node::unary(NodeOp::GlobalAvgPool, 3),
            Node::unary(NodeOp::Linear { weight: w1, bias: None }, 4),
        ];
        let m = Model::new("dw", nodes, store, vec![1, 6, 6]).unwrap();
        let input = Tensor::from_fn([1, 1, 6, 6], |i| (i as f32 * 0.7).sin());
        let cache = m.forward_cached(&input).unwrap();
        // Border and interior pixels: the depthwise kernel skips padded
        // taps, which the sparse kernel must replicate.
        for element in [0usize, 14, 36 + 35] {
            let ctx = format!("depthwise input[{element}]");
            let (_, stats) = assert_site_exact(&m, 2, element, -4.0, &cache, 0.95, &ctx);
            assert!(stats.sparse_nodes > 1, "{ctx}: depthwise must run sparse: {stats:?}");
        }
    }

    #[test]
    fn skip_connection_remerges_dirty_and_clean_branches() {
        // The strike drives a negative conv output further negative: the
        // ReLU clamps both to zero and trims clean, while the conv output
        // it shadows stays dirty and flows around it through the Add. The
        // delta pass must keep the dirty branch alive and reproduce dense
        // bits at the merge.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 9.0) * 0.1),
        );
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::binary(NodeOp::Add, 2, 1),
            Node::unary(NodeOp::GlobalAvgPool, 3),
            Node::unary(NodeOp::Linear { weight: w1, bias: None }, 4),
        ];
        let m = Model::new("skip", nodes, store, vec![1, 4, 4]).unwrap();
        let input = Tensor::full([1, 1, 4, 4], -1.0);
        let cache = m.forward_cached(&input).unwrap();
        // Channel 1's weights are all >= 0, so on an all -1 input its conv
        // outputs are <= 0 and the ReLU holds them at zero.
        let element = 16 + 5;
        assert!(cache.get(1).unwrap().as_slice()[element] < 0.0, "the trap is live");
        let (out, stats) = assert_site_exact(&m, 1, element, -100.0, &cache, 0.95, "skip remerge");
        assert!(
            matches!(out, ForwardOutcome::Logits(_)),
            "must not converge past a live dirty skip input"
        );
        assert!(stats.clean_nodes >= 1, "the ReLU trims to a clean node: {stats:?}");
    }

    #[test]
    fn add_unions_disjoint_dirty_regions() {
        // The second conv reads only its top-left tap, so a strike at pixel
        // (3, 3) of node 1 dirties pixel (4, 4) of node 2: the Add's inputs
        // are dirty in disjoint 4x4 blocks, and its candidate must hold
        // both of them.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv0.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([1, 1, 3, 3], |i| (i as f32 - 4.0) * 0.2),
        );
        let w1 = store.push(
            "conv1.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([1, 1, 3, 3], |i| if i == 0 { 0.5 } else { 0.0 }),
        );
        let w2 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 2 },
            Tensor::from_fn([2, 1], |i| i as f32 + 0.5),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Conv { weight: w1, bias: None, cfg: Conv2dCfg::same(1) }, 1),
            Node::binary(NodeOp::Add, 2, 1),
            Node::unary(NodeOp::GlobalAvgPool, 3),
            Node::unary(NodeOp::Linear { weight: w2, bias: None }, 4),
        ];
        let m = Model::new("disjoint", nodes, store, vec![1, 8, 8]).unwrap();
        let input = Tensor::from_fn([1, 1, 8, 8], |i| (i as f32 * 0.37).sin());
        let cache = m.forward_cached(&input).unwrap();
        let (out, _) = assert_site_exact(&m, 1, 3 * 8 + 3, 50.0, &cache, 1.1, "disjoint add");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
    }

    #[test]
    fn candidate_masks_are_exact_receptive_fields() {
        // One dirty block at the top-left of a 16x16 plane (4x4 blocks).
        let shape = sfi_tensor::Shape::new(&[1, 1, 16, 16]);
        let x = Tensor::zeros(shape);
        let xm = DirtyMask::single_site(shape, 0).unwrap();
        let blocks = |m: &DirtyMask| -> Vec<(usize, usize)> {
            let mut v = Vec::new();
            for by in 0..m.blocks_h() {
                for bx in 0..m.blocks_w() {
                    if m.block_is_dirty(0, by, bx) {
                        v.push((by, bx));
                    }
                }
            }
            v
        };
        // A 3x3 stride-1 conv reaches one pixel past each block edge: the
        // blocks whose windows touch block (0, 0).
        let cand = conv_candidate(&x, &x, 3, 3, Conv2dCfg::same(1), &xm).unwrap();
        assert_eq!(blocks(&cand), [(0, 0), (0, 1), (1, 0), (1, 1)]);
        // A 1x1 conv does not dilate.
        let cand = conv_candidate(&x, &x, 1, 1, Conv2dCfg::same(1), &xm).unwrap();
        assert_eq!(blocks(&cand), [(0, 0)]);
        // Stride 2 halves the plane: output block (0, 0) covers input 0..8.
        let half = Tensor::zeros([1, 1, 8, 8]);
        let cand = conv_candidate(&half, &x, 3, 3, Conv2dCfg::same(2), &xm).unwrap();
        assert_eq!(blocks(&cand), [(0, 0)]);
        let cand = pool_candidate(&half, &xm, 2).unwrap();
        assert_eq!(blocks(&cand), [(0, 0)]);
        let cand = down_candidate(&half, &x, &xm, 2).unwrap();
        assert_eq!(blocks(&cand), [(0, 0)]);
        // Block (1, 1) of the input: 3x3 stride 1 reaches blocks 0..=2.
        let mut xm = DirtyMask::for_shape(shape).unwrap();
        xm.mark_block(0, 1, 1);
        let cand = conv_candidate(&x, &x, 3, 3, Conv2dCfg::same(1), &xm).unwrap();
        assert_eq!(cand.dirty_blocks(), 9);
        assert!(!cand.block_is_dirty(0, 3, 3));
    }

    /// Deterministic operand values: finite values of mixed magnitude (so
    /// a reordered accumulation chain rounds differently), with specials
    /// from one NaN payload family per case sprinkled in — literal NaNs
    /// (`family` 1), ±Inf (2, whose `0 × Inf` and `Inf − Inf` are the one
    /// indefinite NaN), or −0 (3) — as a single fault produces.
    fn operand(seed: usize, i: usize, family: usize) -> f32 {
        let h = (i + 1).wrapping_mul(2_654_435_761).wrapping_add(seed.wrapping_mul(40_503)) >> 7;
        let v = ((h % 2001) as f32 - 1000.0) * 0.0137 * [1.0, 3.1e-3, 17.0][h % 3];
        match (family, h % 11) {
            (1, 0) => f32::NAN,
            (2, 0) => f32::INFINITY,
            (2, 1) => f32::NEG_INFINITY,
            (3, 0 | 1) => -0.0,
            _ => v,
        }
    }

    #[test]
    fn sparse_conv_lanes_are_bit_identical_to_dense_kernels() {
        let mut arena = ScratchArena::new();
        let mut cases = 0usize;
        for groups in [1usize, 2, 4] {
            for stride in [1usize, 2] {
                for k in [1usize, 3, 5] {
                    for pad in 0..=k {
                        for side in [3usize, 5, 7, 9] {
                            if side + 2 * pad < k {
                                continue;
                            }
                            for bias in [false, true] {
                                cases += 1;
                                // Group widths below, at and past one lane
                                // group of output channels.
                                let cpg_out = [1usize, 3, 16, 17, 5][cases % 5];
                                let cpg_in = 1 + cases % 3;
                                let cfg =
                                    Conv2dCfg { stride, padding: Padding::Explicit(pad), groups };
                                let (c_in, c_out) = (groups * cpg_in, groups * cpg_out);
                                let family = cases % 4;
                                let x = Tensor::from_fn([2, c_in, side, side], |i| {
                                    operand(cases, i, family)
                                });
                                let w = Tensor::from_fn([c_out, cpg_in, k, k], |i| {
                                    operand(cases + 7, i, family)
                                });
                                let b = Tensor::from_fn([c_out], |i| operand(cases + 3, i, family));
                                let b = bias.then_some(&b);
                                let ctx = format!(
                                    "groups {groups} stride {stride} k {k} pad {pad} side {side} \
                                     bias {bias} c_out {c_out} family {family}"
                                );
                                assert_lanes_exact(&x, &w, b, cfg, &mut arena, &ctx);
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 500, "{cases} cases");
    }

    /// Runs the sparse conv over candidates seeded from one input site and
    /// from a union of sites, and compares every candidate element with
    /// the naive GEMM conv and with `conv2d_with`, bit for bit; elements
    /// outside the candidate must stay untouched.
    fn assert_lanes_exact(
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
        cfg: Conv2dCfg,
        arena: &mut ScratchArena,
        ctx: &str,
    ) {
        let naive = ops::conv2d_kernel(x, w, b, cfg, ops::GemmKernel::Naive).unwrap();
        let fast = ops::conv2d_with(x, w, b, cfg, None, None, arena).unwrap();
        let len = x.len();
        let mut union = DirtyMask::single_site(x.shape(), len / 3).unwrap();
        for site in [0, len - 1, len / 2 + 1] {
            union.union_with(&DirtyMask::single_site(x.shape(), site).unwrap());
        }
        let seeds = [DirtyMask::single_site(x.shape(), len * 2 / 5).unwrap(), union];
        for xm in &seeds {
            let (kh, kw) = (w.shape().h(), w.shape().w());
            let cand = conv_candidate(&naive, x, kh, kw, cfg, xm).unwrap();
            let sentinel = f32::from_bits(0x7f80_1234);
            let mut data = vec![sentinel; naive.len()];
            sparse_conv(x, w, b, cfg, &cand, &mut data, Some(&mut *arena));
            let (h, wd) = (cand.height(), cand.width());
            for (idx, v) in data.iter().enumerate() {
                let (p, y, xx) = (idx / (h * wd), idx / wd % h, idx % wd);
                let bits = v.to_bits();
                if cand.block_is_dirty(p, y / DIRTY_BLOCK, xx / DIRTY_BLOCK) {
                    let (n, f) = (naive.as_slice()[idx], fast.as_slice()[idx]);
                    assert_eq!(bits, n.to_bits(), "{ctx}: element {idx} {v} vs naive {n}");
                    assert_eq!(bits, f.to_bits(), "{ctx}: element {idx} {v} vs conv2d_with {f}");
                } else {
                    assert_eq!(bits, sentinel.to_bits(), "{ctx}: element {idx} off the candidate");
                }
            }
        }
        arena.recycle(fast.into_vec());
    }

    #[test]
    fn dense_fallback_and_sparse_agree_under_nonfinite_faults() {
        let m = tiny_model();
        let input = Tensor::from_fn([2, 1, 4, 4], |i| (i as f32 * 0.3).cos());
        let cache = m.forward_cached(&input).unwrap();
        for (node, element) in [(0usize, 4usize), (1, 20)] {
            for val in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3.4e38, -1.2e-38] {
                let ctx = format!("node {node}[{element}]={val}");
                let sparse = assert_site_exact(&m, node, element, val, &cache, 1.1, &ctx);
                let dense = assert_site_exact(&m, node, element, val, &cache, 0.0, &ctx);
                match (&sparse.0, &dense.0) {
                    (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => {
                        assert!(bits_eq(a, b), "{ctx}: saturation policy changed the bits");
                    }
                    (a, b) => assert_eq!(a, b, "{ctx}: saturation policy changed the outcome"),
                }
            }
        }
    }

    #[test]
    fn delta_site_matches_dense_patched_forward() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32).sin());
        let cache = m.forward_cached(&input).unwrap();
        // Strike every node (input included) at a fixed element with a
        // sign-bit flip; delta must match the dense patched forward bitwise.
        for node in 0..cache.len() {
            let golden = cache.get(node).unwrap();
            let element = golden.len() / 2;
            let faulty = f32::from_bits(golden.as_slice()[element].to_bits() ^ (1 << 31));
            for saturation in [0.0, DELTA_SATURATION_DEFAULT, 1.1] {
                let ctx = format!("node {node} sat {saturation}");
                assert_site_exact(&m, node, element, faulty, &cache, saturation, &ctx);
            }
        }
    }

    #[test]
    fn delta_site_masks_identical_bits_without_work() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| i as f32 * 0.1);
        let cache = m.forward_cached(&input).unwrap();
        let plan = CompiledPlan::compile(&m, &cache).unwrap();
        let golden_bits = cache.get(2).unwrap().as_slice()[3].to_bits();
        let opts = &mut DeltaOptions::new(&plan);
        let (out, stats) = m.forward_delta_site(2, 3, golden_bits, &cache, opts).unwrap();
        assert_eq!(out, ForwardOutcome::Converged { at_node: 2 });
        assert_eq!(
            stats,
            DeltaStats { sparse_nodes: 0, dense_nodes: 0, clean_nodes: 1, dirty_blocks: 0 }
        );
    }

    #[test]
    fn delta_site_input_fault_propagates_from_node_zero() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32 * 0.3).cos());
        let cache = m.forward_cached(&input).unwrap();
        let faulty = f32::from_bits(input.as_slice()[7].to_bits() ^ (0x5 << 20));
        let (_, stats) =
            assert_site_exact(&m, 0, 7, faulty, &cache, DELTA_SATURATION_DEFAULT, "input");
        assert!(stats.sparse_nodes > 0 || stats.dense_nodes > 0);
    }

    #[test]
    fn delta_site_rejects_out_of_range_sites_and_foreign_caches() {
        let m = tiny_model();
        let input = Tensor::zeros([1, 1, 4, 4]);
        let cache = m.forward_cached(&input).unwrap();
        let plan = CompiledPlan::compile(&m, &cache).unwrap();
        assert!(matches!(
            m.forward_delta_site(99, 0, 0, &cache, &mut DeltaOptions::new(&plan)),
            Err(NnError::CacheMismatch { .. })
        ));
        assert!(matches!(
            m.forward_delta_site(1, usize::MAX, 0, &cache, &mut DeltaOptions::new(&plan)),
            Err(NnError::CacheMismatch { .. })
        ));
        let other = Model::new(
            "other",
            vec![Node { op: NodeOp::Input, inputs: vec![] }],
            ParameterStore::new(),
            vec![1, 4, 4],
        )
        .unwrap();
        let foreign = other.forward_cached(&input).unwrap();
        assert!(matches!(
            m.forward_delta_site(0, 0, 0, &foreign, &mut DeltaOptions::new(&plan)),
            Err(NnError::CacheMismatch { .. })
        ));
        let foreign_plan = CompiledPlan::compile(&other, &foreign).unwrap();
        assert!(matches!(
            m.forward_delta_site(0, 0, 0, &cache, &mut DeltaOptions::new(&foreign_plan)),
            Err(NnError::CacheMismatch { .. })
        ));
    }
}
