//! Row-band faulty inference for transient faults.
//!
//! A transient fault corrupts exactly one element of one activation;
//! everything else that node holds is bit-golden. Instead of re-running the
//! dense suffix ([`Model::forward_suffix`] with the fault's patch), the
//! pass carries every faulty activation as a materialized tensor plus a
//! **row band**: rows `y0..y1` of every plane hold every element that may
//! differ from golden. The seed is the struck node's golden copy with the
//! struck element replaced, and its band is exactly the struck row.
//!
//! Each later node whose inputs are all bit-golden is skipped: its dense
//! recomputation would be golden too. Every other node runs densely on the
//! plan's schedule, and its band follows the window geometry (a conv
//! widens it by its kernel reach and divides it by its stride; pooling and
//! the strided downsample divide it; element-wise ops keep it; `Add`
//! unions its inputs' bands; rank-2 outputs take their one row). A dense
//! GEMM conv computes only its band's output rows, copying every other row
//! from golden: those rows would read only golden input rows, so their
//! dense values are the golden bits. Depthwise and small-plane convs
//! compute every row. Each output's band is then trimmed to its first and
//! last row that differs bitwise from golden (ReLU clamping both values to
//! zero, zero windows and non-sampled strided rows make deltas die); an
//! empty band means bit-golden, so the pass inherits the golden-convergence
//! early exit.
//!
//! The pass runs on the model's [`CompiledPlan`]: a conv that heads a
//! conv+bn(+relu) fusion group runs the whole group as one fused conv,
//! every conv multiplies its golden weight panel, and each dirty
//! activation goes back to the arena once its last reader has run
//! ([`CompiledPlan::flush_after`]).
//!
//! Weight faults do not take this engine: a weight fault dirties a whole
//! output channel, so its band covers the plane at the first downstream
//! conv and the pass is the dense suffix plus row bookkeeping.

use std::ops::Range;

use sfi_tensor::ops::{self, Conv2dCfg, ConvRows, Padding};
use sfi_tensor::{ScratchArena, Shape, Tensor};

use crate::model::{ActivationCache, ForwardOutcome, NodeKernels};
use crate::{CompiledPlan, Model, NnError, NodeId, NodeOp, ParamId};

/// Per-caller state threaded through [`Model::forward_delta_site`].
pub struct DeltaOptions<'a> {
    /// Scratch arena for materialized activations; each dirty activation
    /// returns to it once its last reader has run.
    pub arena: Option<&'a mut ScratchArena>,
    /// The model's compiled plan: activation lifetimes, fusion groups and
    /// golden weight panels. A transient fault leaves every weight golden,
    /// so every panel is sound.
    pub plan: &'a CompiledPlan,
}

impl<'a> DeltaOptions<'a> {
    /// Options over `plan` with no arena.
    pub fn new(plan: &'a CompiledPlan) -> Self {
        Self { arena: None, plan }
    }
}

/// Work counters of one [`Model::forward_delta_site`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Nodes evaluated densely over their row bands; a fused group counts
    /// every member it stands for.
    pub dense_nodes: u64,
    /// Nodes proven clean without work (every input bit-golden, or a band
    /// that reaches no output row), plus nodes (or fused groups) whose
    /// recomputed band trimmed to empty.
    pub clean_nodes: u64,
    /// Dirty 4x4 spatial blocks the surviving row bands stand for (the
    /// seed counts one) — the volume of the fault's dirty cone.
    pub dirty_blocks: u64,
    /// Output rows (per plane) the dense convs computed: a GEMM conv
    /// computes the rows its input band reaches, a depthwise or
    /// small-plane ([`ops::conv2d_small_plane`]) conv every row.
    pub conv_rows: u64,
    /// Output rows (per plane) of those same dense convs: the rows a
    /// full-height pass would compute.
    pub conv_rows_full: u64,
}

/// Side of the square spatial block [`DeltaStats::dirty_blocks`] counts in.
const CONE_BLOCK: usize = 4;

/// One node's materialized faulty activation plus the rows of every plane
/// that hold all of its differences from golden.
struct DeltaState {
    value: Tensor,
    rows: Range<usize>,
}

impl Model {
    /// Incremental faulty inference from a single corrupted activation
    /// element — the transient-fault injection hook.
    ///
    /// The seed is not recomputed at all: the golden activation of `node` is
    /// cloned, its flat `element` is replaced by `faulty_bits`, and its band
    /// is the element's row. `node` may be `0`, which corrupts the *input*
    /// tensor and propagates through the whole network. When the corrupted
    /// bits equal the golden bits the fault is provably masked and
    /// [`ForwardOutcome::Converged`] at `node` is returned without any
    /// downstream work.
    ///
    /// Every later node with a dirty input runs densely on the plan's
    /// schedule (GEMM convs over the rows their input bands reach, fusion
    /// groups whole), so the pass is the dense golden-convergence pass —
    /// same classifications, same bits — converging at fusion-group
    /// outputs, as that pass does.
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
        if element >= golden.len() {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "activation site element {element} out of range for node {node} ({} elements)",
                    golden.len()
                ),
            });
        }
        let mut stats = DeltaStats::default();
        if golden.as_slice()[element].to_bits() == faulty_bits {
            stats.clean_nodes += 1;
            return Ok((ForwardOutcome::Converged { at_node: node }, stats));
        }
        let mut data = golden_copy(golden, opts.arena.as_deref_mut());
        data[element] = f32::from_bits(faulty_bits);
        let value = Tensor::from_vec(golden.shape(), data).expect("golden-shaped buffer");
        let (_, h, w) = plane_dims(golden.shape());
        let row = element / w % h;
        stats.dirty_blocks += 1;
        self.delta_run(node, cache, DeltaState { value, rows: row..row + 1 }, opts, stats)
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
            live += u32::from(dirty);
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

    /// Evaluates step `id` of the delta pass: bit-golden inputs ⇒ no work;
    /// otherwise the node, or the whole fusion group it heads, runs densely
    /// over the output rows its inputs' bands reach, and a compare of those
    /// rows at the group output decides its band. Returns the node whose
    /// state the step produced (the group output, or `id`) and that state,
    /// `None` when it is bit-golden.
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
        let resolve = |inp: NodeId| -> (&Tensor, Option<&DeltaState>) {
            match inp.checked_sub(first_dirty).and_then(|slot| states[slot].as_ref()) {
                Some(s) => (&s.value, Some(s)),
                None => (cache.get(inp).expect("cache covers model"), None),
            }
        };
        let x0 = resolve(node.inputs[0]);
        let x1 = node.inputs.get(1).map(|&i| resolve(i));
        let dirty = x0.1.into_iter().chain(x1.and_then(|x| x.1));
        let Some(rows_in) = dirty.map(|s| s.rows.clone()).reduce(union) else {
            stats.clean_nodes += 1;
            return Ok((id, None));
        };
        let (out, epilogue) = match opts.plan.fused_at(id) {
            Some((out, ep)) => (out, Some(ep)),
            None => (id, None),
        };
        stats.dense_nodes += (out - id + 1) as u64;
        let golden = cache.get(id).expect("cache covers model");
        let golden_out = cache.get(out).expect("cache covers model");
        let rows = self.reach(id, rows_in, golden.shape());
        // GEMM convs compute the band's rows; depthwise and small-plane
        // convs compute every row whenever they run.
        let banded = match &node.op {
            NodeOp::Conv { weight, cfg, .. } => {
                let h_out = golden.shape().h();
                let w = &self.store().get(*weight).expect("validated at construction").tensor;
                let gemm = ops::conv2d_uses_lowering(x0.0, w, *cfg)
                    && !ops::conv2d_small_plane(x0.0, w, *cfg);
                let computed = match (rows.is_empty(), gemm) {
                    (true, _) => 0,
                    (false, true) => rows.len(),
                    (false, false) => h_out,
                };
                stats.conv_rows += computed as u64;
                stats.conv_rows_full += h_out as u64;
                gemm
            }
            _ => false,
        };
        if rows.is_empty() {
            stats.clean_nodes += 1;
            return Ok((out, None));
        }
        let band = ConvRows { rows: rows.clone(), base: golden_out };
        let kernels = NodeKernels {
            panel: opts.plan.panels().get(id),
            epilogue,
            rows: banded.then_some(&band),
            ..NodeKernels::default()
        };
        let value =
            self.eval_node(id, x0.0, x1.map(|x| x.0), kernels, opts.arena.as_deref_mut())?;
        let Some(rows) = differing_rows(golden_out, &value, rows) else {
            if let Some(a) = opts.arena.as_deref_mut() {
                a.recycle(value.into_vec());
            }
            stats.clean_nodes += 1;
            return Ok((out, None));
        };
        stats.dirty_blocks += band_blocks(golden_out.shape(), &rows);
        Ok((out, Some(DeltaState { value, rows })))
    }

    /// The output rows of node `id` (of output shape `out`) that input rows
    /// `rows` of its dirty inputs' planes reach.
    fn reach(&self, id: NodeId, rows: Range<usize>, out: Shape) -> Range<usize> {
        let h_out = plane_dims(out).1;
        let clip = |r: Range<usize>| r.start.min(h_out)..r.end.min(h_out);
        let param = |p: ParamId| &self.store().get(p).expect("validated at construction").tensor;
        match &self.nodes()[id].op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, cfg, .. } => {
                let (k_h, k_w) = (param(*weight).shape().h(), param(*weight).shape().w());
                conv_reach(rows, cfg.stride, k_h, resolve_pad(*cfg, k_h, k_w), h_out)
            }
            NodeOp::BatchNorm { .. } | NodeOp::Relu | NodeOp::Relu6 | NodeOp::Add => rows,
            NodeOp::AvgPool { kernel: k } | NodeOp::MaxPool { kernel: k } => {
                clip(rows.start / k..(rows.end - 1) / k + 1)
            }
            NodeOp::DownsamplePad { stride: s, .. } => {
                clip(rows.start.div_ceil(*s)..rows.end.div_ceil(*s))
            }
            NodeOp::GlobalAvgPool | NodeOp::Linear { .. } => 0..h_out,
        }
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
    match arena {
        Some(a) => {
            let mut data = a.take(golden.len());
            data.copy_from_slice(golden.as_slice());
            data
        }
        None => golden.as_slice().to_vec(),
    }
}

/// The smallest row range covering `a` and `b` (dirty bands are never
/// empty).
fn union(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    a.start.min(b.start)..a.end.max(b.end)
}

/// `(planes, height, width)` of `shape`: rank-4 `[N, C, H, W]` is `N * C`
/// planes of `H x W`, any other rank one 1x1 plane per element.
fn plane_dims(shape: Shape) -> (usize, usize, usize) {
    match shape.rank() {
        4 => (shape.n() * shape.c(), shape.h(), shape.w()),
        _ => (shape.len(), 1, 1),
    }
}

/// The rows of `rows` from the first to the last one in which some plane
/// of `value` differs bitwise from `golden`; `None` when none does. Rows
/// outside `rows` are not read.
fn differing_rows(golden: &Tensor, value: &Tensor, rows: Range<usize>) -> Option<Range<usize>> {
    let (planes, h, w) = plane_dims(golden.shape());
    let (g, v) = (golden.as_slice(), value.as_slice());
    let differs = |y: usize| {
        (0..planes).any(|p| {
            let row = (p * h + y) * w..(p * h + y + 1) * w;
            g[row.clone()].iter().zip(&v[row]).any(|(a, b)| a.to_bits() != b.to_bits())
        })
    };
    let first = rows.clone().find(|&y| differs(y))?;
    let last = (first..rows.end).rev().find(|&y| differs(y)).expect("the first row differs");
    Some(first..last + 1)
}

/// Dirty blocks a row band of a `shape` activation stands for: every
/// [`CONE_BLOCK`]-square block of every plane that holds one of its rows.
fn band_blocks(shape: Shape, rows: &Range<usize>) -> u64 {
    let (planes, _, w) = plane_dims(shape);
    let block_rows = rows.end.div_ceil(CONE_BLOCK) - rows.start / CONE_BLOCK;
    (planes * block_rows * w.div_ceil(CONE_BLOCK)) as u64
}

/// The output rows (of `h_out`) of a conv with vertical stride `stride`,
/// kernel height `k_h` and padding `pad` whose windows read any of input
/// rows `rows`: output row `oh` reads input rows `oh * stride - pad ..
/// oh * stride - pad + k_h`.
fn conv_reach(
    rows: Range<usize>,
    stride: usize,
    k_h: usize,
    pad: usize,
    h_out: usize,
) -> Range<usize> {
    let lo = (rows.start + pad + 1).saturating_sub(k_h).div_ceil(stride);
    let hi = ((rows.end - 1 + pad) / stride + 1).min(h_out);
    lo.min(hi)..hi
}

/// Resolves a conv's padding exactly as `Conv2dCfg::resolve_padding` does.
fn resolve_pad(cfg: Conv2dCfg, k_h: usize, k_w: usize) -> usize {
    match cfg.padding {
        Padding::Same => (k_h.max(k_w) - 1) / 2,
        Padding::Explicit(p) => p,
    }
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
    /// and asserts the outcome is indistinguishable from the dense patched
    /// suffix: bit-identical logits on divergence, bit-golden dense logits
    /// on convergence, with and without an arena.
    fn assert_site_exact(
        m: &Model,
        node: NodeId,
        element: usize,
        value: f32,
        cache: &ActivationCache,
        ctx: &str,
    ) -> (ForwardOutcome, DeltaStats) {
        let bits = value.to_bits();
        let set = ActPatch { and_mask: 0, or_mask: bits, ..ActPatch::identity(node, element) };
        let dense = dense_suffix(m, cache, &[set]);
        let plan = CompiledPlan::compile(m, cache).unwrap();
        let mut arena = ScratchArena::new();
        let opts = &mut DeltaOptions { arena: Some(&mut arena), plan: &plan };
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
        let plain = &mut DeltaOptions::new(&plan);
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
        let (out, stats) = assert_site_exact(&m, 0, 5, 100.0, &cache, "diverging input");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
        assert!(stats.dense_nodes > 1, "the conv and its readers run: {stats:?}");
        assert!(stats.dirty_blocks > 0);
    }

    #[test]
    fn a_strike_seeds_a_band_of_its_own_row() {
        // A 10x8 plane keeps the 3x3 conv on the GEMM path (small-plane
        // convs compute every row): a strike in input row 5 reaches
        // exactly output rows 4..7.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 8.5) * 0.1),
        );
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::GlobalAvgPool, 1),
            Node::unary(NodeOp::Linear { weight: w1, bias: None }, 2),
        ];
        let m = Model::new("band", nodes, store, vec![1, 10, 8]).unwrap();
        let input = Tensor::from_fn([1, 1, 10, 8], |i| (i as f32 * 0.41).cos());
        let cache = m.forward_cached(&input).unwrap();
        let (out, stats) = assert_site_exact(&m, 0, 5 * 8 + 3, 9.0, &cache, "mid-plane strike");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
        assert_eq!((stats.conv_rows, stats.conv_rows_full), (3, 10), "{stats:?}");
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
        // Sampled and skipped rows of the stride, in both groups and both
        // images, plus a strike through the whole network from the input.
        for (node, element, val) in
            [(2, 0usize, 5.0f32), (2, 9, f32::NAN), (2, 64 + 27, -9.0), (2, 128 + 70, 3.0)]
        {
            let ctx = format!("node {node}[{element}]={val}");
            let (_, stats) = assert_site_exact(&m, node, element, val, &cache, &ctx);
            assert_eq!(stats.conv_rows_full, 4, "{ctx}: the grouped conv runs: {stats:?}");
        }
        assert_site_exact(&m, 0, 19, 4.0, &cache, "input strike");
        // Strike on the grouped conv's own output.
        assert_site_exact(&m, 3, 11, f32::INFINITY, &cache, "grouped conv output");
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
        // taps, and computes every row of its plane.
        for element in [0usize, 14, 36 + 35] {
            let ctx = format!("depthwise input[{element}]");
            let (_, stats) = assert_site_exact(&m, 2, element, -4.0, &cache, &ctx);
            assert_eq!((stats.conv_rows, stats.conv_rows_full), (6, 6), "{ctx}: {stats:?}");
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
        let (out, stats) = assert_site_exact(&m, 1, element, -100.0, &cache, "skip remerge");
        assert!(
            matches!(out, ForwardOutcome::Logits(_)),
            "must not converge past a live dirty skip input"
        );
        assert!(stats.clean_nodes >= 1, "the ReLU trims to a clean node: {stats:?}");
    }

    #[test]
    fn add_unions_disjoint_dirty_bands() {
        // The second conv reads only its top-left taps, so a strike in row
        // 3 of node 1 dirties row 4 of node 2: the Add's inputs are dirty in
        // disjoint one-row bands, and its band must hold both, or the GEMM
        // conv behind it copies golden rows its dirty row 3 reaches.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv0.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 4.0) * 0.2),
        );
        let w1 = store.push(
            "conv1.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([2, 2, 3, 3], |i| if i % 9 == 0 { 0.5 } else { 0.0 }),
        );
        let w2 = store.push(
            "conv2.weight",
            ParamKind::Weight { layer: 2 },
            Tensor::from_fn([2, 2, 3, 3], |i| (i as f32 * 0.7).sin()),
        );
        let w3 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 3 },
            Tensor::from_fn([2, 2], |i| i as f32 + 0.5),
        );
        let same = Conv2dCfg::same(1);
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: same }, 0),
            Node::unary(NodeOp::Conv { weight: w1, bias: None, cfg: same }, 1),
            Node::binary(NodeOp::Add, 2, 1),
            Node::unary(NodeOp::Conv { weight: w2, bias: None, cfg: same }, 3),
            Node::unary(NodeOp::GlobalAvgPool, 4),
            Node::unary(NodeOp::Linear { weight: w3, bias: None }, 5),
        ];
        let m = Model::new("disjoint", nodes, store, vec![1, 10, 8]).unwrap();
        let input = Tensor::from_fn([1, 1, 10, 8], |i| (i as f32 * 0.37).sin());
        let cache = m.forward_cached(&input).unwrap();
        let (out, stats) = assert_site_exact(&m, 1, 3 * 8 + 3, 50.0, &cache, "disjoint add");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
        // conv1 computes the 3 rows row 3 reaches (its band trims to row
        // 4), the last conv the 4 rows the Add's band 3..5 reaches.
        assert_eq!((stats.conv_rows, stats.conv_rows_full), (3 + 4, 20), "{stats:?}");
    }

    #[test]
    fn row_bands_follow_the_window_geometry() {
        // 3x3, pad 1, stride 1: one row reaches its neighbours, clipped.
        assert_eq!(conv_reach(5..6, 1, 3, 1, 8), 4..7);
        assert_eq!(conv_reach(0..1, 1, 3, 1, 8), 0..2);
        assert_eq!(conv_reach(7..8, 1, 3, 1, 8), 6..8);
        // 1x1 convs keep the band; 5x5 pad 2 widens it by two rows a side.
        assert_eq!(conv_reach(3..5, 1, 1, 0, 8), 3..5);
        assert_eq!(conv_reach(3..5, 1, 5, 2, 8), 1..7);
        // Stride 2, 3x3 pad 1: output row oh reads input rows 2oh-1..=2oh+1.
        assert_eq!(conv_reach(4..5, 2, 3, 1, 4), 2..3);
        assert_eq!(conv_reach(5..6, 2, 3, 1, 4), 2..4);
        assert_eq!(conv_reach(0..8, 2, 3, 1, 4), 0..4);
        // Stride 2, 1x1 unpadded: odd input rows reach nothing.
        assert!(conv_reach(3..4, 2, 1, 0, 4).is_empty());
        assert_eq!(conv_reach(3..5, 2, 1, 0, 4), 2..3);
        // No padding: the last input row only reaches the last output row.
        assert_eq!(conv_reach(7..8, 1, 3, 0, 6), 5..6);
        // The blocks a band stands for.
        let shape = Shape::new(&[1, 2, 10, 9]);
        assert_eq!(band_blocks(shape, &(4..8)), 2 * 3);
        assert_eq!(band_blocks(shape, &(5..6)), 2 * 3);
        assert_eq!(band_blocks(shape, &(3..9)), 2 * 3 * 3);
        assert_eq!(band_blocks(Shape::new(&[2, 10]), &(0..1)), 20);
    }

    #[test]
    fn differing_rows_trim_a_band_to_its_first_and_last_difference() {
        let golden = Tensor::from_fn([1, 2, 6, 3], |i| i as f32);
        let mut data = golden.as_slice().to_vec();
        data[18 + 2 * 3 + 1] = f32::NAN; // plane 1, row 2
        data[4 * 3] = -0.0; // plane 0, row 4: -0.0 differs from golden 12.0
        let value = Tensor::from_vec([1, 2, 6, 3], data).unwrap();
        assert_eq!(differing_rows(&golden, &value, 0..6), Some(2..5));
        assert_eq!(differing_rows(&golden, &value, 3..6), Some(4..5));
        assert_eq!(differing_rows(&golden, &value, 5..6), None, "rows outside are not read");
        assert_eq!(differing_rows(&golden, &golden, 0..6), None);
    }

    #[test]
    fn nonfinite_strikes_match_dense() {
        let m = tiny_model();
        let input = Tensor::from_fn([2, 1, 4, 4], |i| (i as f32 * 0.3).cos());
        let cache = m.forward_cached(&input).unwrap();
        for (node, element) in [(0usize, 4usize), (1, 20)] {
            for val in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3.4e38, -1.2e-38] {
                assert_site_exact(&m, node, element, val, &cache, &format!("{node}[{element}]"));
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
            assert_site_exact(&m, node, element, faulty, &cache, &format!("node {node}"));
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
        assert_eq!(stats, DeltaStats { clean_nodes: 1, ..DeltaStats::default() });
    }

    #[test]
    fn delta_site_input_fault_propagates_from_node_zero() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32 * 0.3).cos());
        let cache = m.forward_cached(&input).unwrap();
        let faulty = f32::from_bits(input.as_slice()[7].to_bits() ^ (0x5 << 20));
        let (_, stats) = assert_site_exact(&m, 0, 7, faulty, &cache, "input");
        assert!(stats.dense_nodes > 0, "{stats:?}");
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
