use serde::{Deserialize, Serialize};

use sfi_tensor::ops::{
    self, BatchNormParams, ConvEpilogue, ConvRows, GemmKernel, PackedConvWeight,
};
use sfi_tensor::{ScratchArena, Tensor};

use crate::{CompiledPlan, NnError, Node, NodeId, ParamId, ParameterStore, WeightLayer};

/// Kernel and allocation policy of a forward pass.
///
/// The two policies are **bit-identical** — the register-tiled microkernel
/// dispatch preserves the naive kernel's per-output-element accumulation
/// order (see `sfi_tensor::ops::gemm_micro`) — so fault classifications
/// never depend on the choice; only speed does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelPolicy {
    /// Self-dispatching GEMM (register-tiled microkernels above the naive
    /// floor), by-reference input reads, and (when an arena is provided)
    /// recycled buffers.
    #[default]
    Fast,
    /// The historical reference path: naive GEMM, fresh allocations, and a
    /// defensive clone of every node input. Kept as the measurable
    /// pre-optimization baseline for benches and ablations.
    Naive,
}

/// Per-caller state threaded through [`Model::forward_with`] and
/// [`Model::forward_suffix`].
///
/// The plain [`Model::forward`] uses the defaults (fast kernels, no arena,
/// no golden weight panels).
#[derive(Default)]
pub struct ForwardOptions<'a> {
    /// Kernel and allocation policy.
    pub policy: KernelPolicy,
    /// Scratch arena for im2col/GEMM buffers; intermediate activations are
    /// recycled into it when the pass finishes.
    pub arena: Option<&'a mut ScratchArena>,
    /// The model's compiled plan, for a [`Model::forward_suffix`] pass
    /// under [`KernelPolicy::Fast`]: its golden weight panels
    /// ([`CompiledPlan::panels`]) feed the conv GEMMs. The pass never lets
    /// its `weight_dirty` node read its panel, and the caller asserts every
    /// *other* recomputed node's weights hold the golden values the panels
    /// were packed from — true for a single weight fault and for transient
    /// faults, not for accumulated multi-layer faults. Ignored by
    /// [`Model::forward_with`].
    pub plan: Option<&'a CompiledPlan>,
}

/// Outcome of a suffix re-execution that can stop early
/// ([`Model::forward_delta_site`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardOutcome {
    /// The suffix diverged from the golden activations all the way to the
    /// output; these are the recomputed logits.
    Logits(Tensor),
    /// Node `at_node`'s recomputed activation was **bit-identical** to the
    /// cached golden one, so every downstream tensor — logits included —
    /// is provably identical to the golden run and was not computed.
    Converged {
        /// The first recomputed node whose activation matched the cache
        /// bit-for-bit; nodes `at_node + 1 ..` were skipped.
        at_node: NodeId,
    },
}

impl ForwardOutcome {
    /// The pass's logits: the recomputed ones, or — after a convergence,
    /// which proves them bit-identical to the golden run — a clone of the
    /// final activation `cache` holds.
    pub fn into_logits(self, cache: &ActivationCache) -> Tensor {
        match self {
            ForwardOutcome::Logits(l) => l,
            ForwardOutcome::Converged { .. } => {
                cache.activations.last().expect("cache covers the model").clone()
            }
        }
    }
}

/// The kernel hints of one [`Model::eval_node`] call besides its operands.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeKernels<'a> {
    /// Kernel and allocation policy.
    pub(crate) policy: KernelPolicy,
    /// This node's conv weight, pre-packed from its live values.
    pub(crate) panel: Option<&'a PackedConvWeight>,
    /// The fused batch norm and activation of the group this conv heads,
    /// applied to its output (fast policy only).
    pub(crate) epilogue: Option<ConvEpilogue<'a>>,
    /// The output rows this conv computes and the tensor its other rows
    /// are copied from (fast policy only).
    pub(crate) rows: Option<&'a ConvRows<'a>>,
}

/// Resolves node-output references during a forward pass: a clean prefix
/// (cached activations), a (usually empty) list of overridden nodes, and
/// the recomputed suffix.
pub(crate) struct NodeValues<'a> {
    pub(crate) prefix: &'a [Tensor],
    /// Corrupted values of nodes that are *not* recomputed — the patched
    /// prefix activations of [`Model::forward_suffix`]. Scanned linearly;
    /// a pass carries at most a handful of entries.
    pub(crate) overrides: &'a [(NodeId, Tensor)],
    pub(crate) suffix_base: usize,
    pub(crate) suffix: &'a [Tensor],
}

impl NodeValues<'_> {
    pub(crate) fn get(&self, id: NodeId) -> &Tensor {
        if let Some((_, t)) = self.overrides.iter().find(|(n, _)| *n == id) {
            return t;
        }
        if id >= self.suffix_base {
            &self.suffix[id - self.suffix_base]
        } else {
            &self.prefix[id]
        }
    }
}

/// One transient activation corruption, expressed as IEEE-754 bit masks
/// over a single flat element of one node's activation tensor.
///
/// The masks compose every supported single-bit fault model:
/// stuck-at-0 clears via `and_mask`, stuck-at-1 sets via `or_mask`,
/// bit-flips toggle via `xor_mask`. The application order is
/// `(bits & and_mask | or_mask) ^ xor_mask`.
///
/// # Example
///
/// ```
/// use sfi_nn::ActPatch;
///
/// // Flip bit 31 (the sign) of element 5 of node 2's activation.
/// let patch = ActPatch { xor_mask: 1 << 31, ..ActPatch::identity(2, 5) };
/// assert_eq!(patch.apply(1.0), -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActPatch {
    /// The struck node (0 = the input tensor itself).
    pub node: NodeId,
    /// Flat element index into the node's activation tensor.
    pub element: usize,
    /// Bits to keep (stuck-at-0 clears its target bit here).
    pub and_mask: u32,
    /// Bits to force on (stuck-at-1).
    pub or_mask: u32,
    /// Bits to toggle (bit-flips).
    pub xor_mask: u32,
}

impl ActPatch {
    /// A no-op patch at `(node, element)`; combine with mask overrides.
    pub fn identity(node: NodeId, element: usize) -> Self {
        Self { node, element, and_mask: !0, or_mask: 0, xor_mask: 0 }
    }

    /// Applies the masks to a raw IEEE-754 bit pattern.
    pub fn apply_bits(&self, bits: u32) -> u32 {
        (bits & self.and_mask | self.or_mask) ^ self.xor_mask
    }

    /// Applies the masks to a value, bit-exactly (NaN payloads preserved).
    pub fn apply(&self, v: f32) -> f32 {
        f32::from_bits(self.apply_bits(v.to_bits()))
    }

    /// Whether applying this patch to `v` leaves its bits unchanged — the
    /// fault is provably masked at its own site.
    pub fn is_noop_on(&self, v: f32) -> bool {
        self.apply_bits(v.to_bits()) == v.to_bits()
    }
}

/// Cached per-node activations of one input, produced by
/// [`Model::forward_cached`] and consumed by [`Model::forward_suffix`].
///
/// Fault campaigns keep one cache per evaluation image: a fault in weight
/// layer `l` leaves every node before `l`'s node untouched, so re-running
/// inference can start from the cached prefix.
#[derive(Debug, Clone)]
pub struct ActivationCache {
    activations: Vec<Tensor>,
}

impl ActivationCache {
    /// The cached output of node `id`.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        self.activations.get(id)
    }

    /// Number of cached node outputs.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.activations.len()
    }

    /// Approximate heap size of the cache in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.activations.iter().map(|t| t.len() * std::mem::size_of::<f32>()).sum()
    }

    /// All cached activations in node order (the compiled-plan engine
    /// resolves prefix reads against this slice directly).
    pub(crate) fn activations(&self) -> &[Tensor] {
        &self.activations
    }
}

/// A CNN as a topologically ordered operator graph plus its parameters.
///
/// Build models through the topology configs in [`crate::resnet`] and
/// [`crate::mobilenet`], or assemble graphs manually with [`Model::new`].
///
/// # Example
///
/// ```
/// use sfi_nn::resnet::ResNetConfig;
/// use sfi_tensor::Tensor;
///
/// # fn main() -> Result<(), sfi_nn::NnError> {
/// let model = ResNetConfig::resnet20().with_width(4).build_seeded(7)?;
/// let logits = model.forward(&Tensor::zeros([2, 3, 32, 32]))?;
/// assert_eq!(logits.shape().dims(), &[2, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    nodes: Vec<Node>,
    store: ParameterStore,
    input_dims: Vec<usize>,
    /// For each node, the smallest node id it transitively influences is
    /// itself; for incremental re-execution we need, per parameter, the node
    /// that consumes it.
    param_node: Vec<Option<NodeId>>,
}

impl Model {
    /// Assembles a model from a topologically ordered node list.
    ///
    /// `input_dims` is the per-image input shape (e.g. `[3, 32, 32]`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] when node 0 is not the input
    /// placeholder, any node references a node at or after itself, or input
    /// arity does not match the operator; returns
    /// [`NnError::InvalidParameter`] when a referenced parameter id is out
    /// of range.
    pub fn new(
        name: impl Into<String>,
        nodes: Vec<Node>,
        store: ParameterStore,
        input_dims: Vec<usize>,
    ) -> Result<Self, NnError> {
        use crate::NodeOp;
        if nodes.is_empty() || !matches!(nodes[0].op, NodeOp::Input) {
            return Err(NnError::InvalidGraph {
                reason: "node 0 must be the Input placeholder".into(),
            });
        }
        let mut param_node: Vec<Option<NodeId>> = vec![None; store.len()];
        for (id, node) in nodes.iter().enumerate() {
            let arity = match node.op {
                NodeOp::Input => 0,
                NodeOp::Add => 2,
                _ => 1,
            };
            if node.inputs.len() != arity {
                return Err(NnError::InvalidGraph {
                    reason: format!("node {id} expects {arity} inputs, has {}", node.inputs.len()),
                });
            }
            for &inp in &node.inputs {
                if inp >= id {
                    return Err(NnError::InvalidGraph {
                        reason: format!("node {id} references non-preceding node {inp}"),
                    });
                }
            }
            for p in node.params() {
                if p >= store.len() {
                    return Err(NnError::InvalidParameter {
                        reason: format!("node {id} references unknown parameter {p}"),
                    });
                }
                if param_node[p].is_none() {
                    param_node[p] = Some(id);
                }
            }
        }
        Ok(Self { name: name.into(), nodes, store, input_dims, param_node })
    }

    /// The model's name (e.g. `"resnet20"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The parameter store.
    pub fn store(&self) -> &ParameterStore {
        &self.store
    }

    /// Mutable access to the parameter store (used by fault injectors).
    pub fn store_mut(&mut self) -> &mut ParameterStore {
        &mut self.store
    }

    /// Per-image input dimensions (e.g. `[3, 32, 32]`).
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// The fault-injectable weight layers, in the paper's layer order.
    pub fn weight_layers(&self) -> Vec<WeightLayer> {
        self.store.weight_layers()
    }

    /// The node that consumes parameter `param`, when any does.
    pub fn node_of_param(&self, param: ParamId) -> Option<NodeId> {
        self.param_node.get(param).copied().flatten()
    }

    /// The output unit of the node consuming `param` that a fault at flat
    /// `index` within the parameter can reach — the leading-dimension slot
    /// in every parameter layout this graph uses: conv weights are
    /// `[c_out, c_in/g, k_h, k_w]`, linear weights `[out, in]`, and
    /// vector parameters (biases, batch-norm terms) are indexed by unit
    /// directly. Pass the result as `dirty_unit` to
    /// [`CompiledPlan::weight_suffix`] to arm the single-unit convergence
    /// probe. `None` when the parameter is unknown or the index is out of
    /// range.
    pub fn param_output_unit(&self, param: ParamId, index: usize) -> Option<usize> {
        let tensor = &self.store.get(param)?.tensor;
        if index >= tensor.len() {
            return None;
        }
        let shape = tensor.shape();
        let per_unit: usize = shape.dims()[1..].iter().product();
        Some(index / per_unit)
    }

    fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        let dims = input.shape();
        let ok =
            dims.rank() == self.input_dims.len() + 1 && dims.dims()[1..] == self.input_dims[..];
        if ok {
            Ok(())
        } else {
            Err(NnError::InputShape {
                expected: self.input_dims.clone(),
                actual: dims.dims().to_vec(),
            })
        }
    }

    /// Evaluates node `id` with its operands read from `vals` and `panel`
    /// as its packed conv weight (callers pass only a panel packed from
    /// this node's live weights). See [`Model::eval_node`].
    fn eval_node_with(
        &self,
        id: NodeId,
        vals: &NodeValues<'_>,
        panel: Option<&PackedConvWeight>,
        opts: &mut ForwardOptions<'_>,
    ) -> Result<Tensor, NnError> {
        let inputs = &self.nodes[id].inputs;
        let x0 = vals.get(inputs.first().copied().unwrap_or(0));
        let x1 = inputs.get(1).map(|&i| vals.get(i));
        let kernels = NodeKernels { policy: opts.policy, panel, ..NodeKernels::default() };
        self.eval_node(id, x0, x1, kernels, opts.arena.as_deref_mut())
    }

    /// The one dense operator evaluator: node `id` over its explicitly
    /// resolved operands `x0` (and `x1` for `Add`), shared by every forward
    /// pass, the compiled plan's suffix pass and the delta engine's dense
    /// fallback.
    ///
    /// Under [`KernelPolicy::Fast`] convs consume `kernels.panel` (the
    /// packed weight) when given, apply `kernels.epilogue` to their output
    /// (the node then stands for its whole fusion group), compute only
    /// `kernels.rows` when given ([`ops::conv2d_rows_with`]), and every
    /// buffer comes from `arena` when there is one. A conv that
    /// [`ops::conv2d_reads_in_place`] multiplies `x0` in place (over
    /// `kernels.panel`, or its weight packed once for the call), a conv
    /// that [`ops::conv2d_small_plane`] runs the direct small-plane kernel
    /// (computing every row even with `kernels.rows`), and every other conv
    /// lowers `x0` itself.
    /// [`KernelPolicy::Naive`] is the historical reference path: it clones
    /// every operand, allocates fresh, runs the naive GEMM and the scalar
    /// depthwise loop, and ignores the conv hints; it is never given an
    /// epilogue. Every combination is bit-identical.
    pub(crate) fn eval_node(
        &self,
        id: NodeId,
        x0: &Tensor,
        x1: Option<&Tensor>,
        kernels: NodeKernels<'_>,
        arena: Option<&mut ScratchArena>,
    ) -> Result<Tensor, NnError> {
        use crate::NodeOp;
        let naive = kernels.policy == KernelPolicy::Naive;
        let copies;
        let (x0, x1, arena) = if naive {
            copies = (x0.clone(), x1.cloned());
            (&copies.0, copies.1.as_ref(), None)
        } else {
            (x0, x1, arena)
        };
        let node = &self.nodes[id];
        let param = |p: ParamId| &self.store.get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let out = match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, bias, cfg } => {
                let (w, b) = (param(*weight), bias.map(&param));
                let (ep, panel) = (kernels.epilogue.as_ref(), kernels.panel);
                debug_assert!(
                    !naive || (ep.is_none() && kernels.rows.is_none()),
                    "the naive path runs unfused over every row"
                );
                let mut fresh = None;
                let conv = match (naive, arena) {
                    (true, _) => ops::conv2d_kernel(x0, w, b, *cfg, GemmKernel::Naive),
                    (false, arena) => {
                        let a = arena.unwrap_or_else(|| fresh.insert(ScratchArena::new()));
                        match kernels.rows {
                            Some(band) => ops::conv2d_rows_with(x0, w, b, *cfg, band, ep, panel, a),
                            None => ops::conv2d_with(x0, w, b, *cfg, ep, panel, a),
                        }
                    }
                };
                conv.map_err(wrap)?
            }
            NodeOp::BatchNorm { gamma, beta, mean, var, eps } => {
                let params = BatchNormParams {
                    gamma: param(*gamma),
                    beta: param(*beta),
                    mean: param(*mean),
                    var: param(*var),
                    eps: *eps,
                };
                match arena {
                    Some(a) => ops::batch_norm_with(x0, &params, a).map_err(wrap)?,
                    None => ops::batch_norm(x0, &params).map_err(wrap)?,
                }
            }
            NodeOp::Relu => match arena {
                Some(a) => ops::relu_with(x0, a),
                None => ops::relu(x0),
            },
            NodeOp::Relu6 => match arena {
                Some(a) => ops::relu6_with(x0, a),
                None => ops::relu6(x0),
            },
            NodeOp::AvgPool { kernel } => ops::avg_pool2d(x0, *kernel).map_err(wrap)?,
            NodeOp::MaxPool { kernel } => ops::max_pool2d(x0, *kernel).map_err(wrap)?,
            NodeOp::GlobalAvgPool => ops::global_avg_pool(x0).map_err(wrap)?,
            NodeOp::Linear { weight, bias } => {
                let reshaped;
                let x2 = if x0.shape().rank() == 2 {
                    x0
                } else {
                    let n = x0.shape().dims()[0];
                    let rest = x0.len() / n;
                    reshaped = x0.reshape([n, rest]).map_err(wrap)?;
                    &reshaped
                };
                ops::linear(x2, param(*weight), bias.map(&param)).map_err(wrap)?
            }
            NodeOp::Add => {
                let rhs = x1.expect("Add is binary");
                match arena {
                    Some(a) => ops::add_with(x0, rhs, a).map_err(wrap)?,
                    None => ops::add(x0, rhs).map_err(wrap)?,
                }
            }
            NodeOp::DownsamplePad { out_channels, stride } => {
                ops::downsample_pad_channels(x0, *out_channels, *stride).map_err(wrap)?
            }
        };
        Ok(out)
    }

    /// Runs inference, returning the logits of the final node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] for a mismatched input, or the first
    /// operator failure.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        self.forward_with(input, &mut ForwardOptions::default())
    }

    /// [`Model::forward`] with explicit [`ForwardOptions`] — the campaign
    /// hot path threads a per-worker [`ScratchArena`] through here so conv
    /// buffers and intermediate activations are recycled across faults.
    ///
    /// Bit-identical to [`Model::forward`] for every option combination.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::forward`].
    pub fn forward_with(
        &self,
        input: &Tensor,
        opts: &mut ForwardOptions<'_>,
    ) -> Result<Tensor, NnError> {
        self.check_input(input)?;
        let mut suffix: Vec<Tensor> = Vec::with_capacity(self.nodes.len().saturating_sub(1));
        for id in 1..self.nodes.len() {
            let v = self.eval_node_with(
                id,
                &NodeValues {
                    prefix: std::slice::from_ref(input),
                    overrides: &[],
                    suffix_base: 1,
                    suffix: &suffix,
                },
                None,
                opts,
            )?;
            suffix.push(v);
        }
        let out = match suffix.pop() {
            Some(t) => t,
            None => input.clone(),
        };
        recycle(suffix, opts);
        Ok(out)
    }

    /// Runs inference and returns every node's activation, for later
    /// incremental re-execution with [`Model::forward_suffix`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::forward`].
    pub fn forward_cached(&self, input: &Tensor) -> Result<ActivationCache, NnError> {
        self.check_input(input)?;
        let mut values: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        values.push(input.clone());
        for id in 1..self.nodes.len() {
            let v = self.eval_node_with(
                id,
                &NodeValues {
                    prefix: &values,
                    overrides: &[],
                    suffix_base: usize::MAX,
                    suffix: &[],
                },
                None,
                &mut ForwardOptions::default(),
            )?;
            values.push(v);
        }
        Ok(ActivationCache { activations: values })
    }

    /// Re-runs inference over one input's cached golden activations after
    /// a fault, unfused, node by node: the reference suffix re-execution
    /// behind transient and accumulated faults and the
    /// [`KernelPolicy::Naive`] baseline. A single weight fault under
    /// [`KernelPolicy::Fast`] runs on [`CompiledPlan::weight_suffix`]
    /// instead, with fused groups, early exit and recycling.
    ///
    /// - `weight_dirty` names the first node whose *recomputation* differs:
    ///   the node consuming a faulted parameter (see
    ///   [`Model::node_of_param`]). This is sound because a fault in the
    ///   parameter consumed by node `d` cannot change any activation of the
    ///   nodes `< d` in a topologically ordered graph. `Some(0)` degrades
    ///   to a full forward pass over the cached input; `None` means the
    ///   parameters are golden.
    /// - Each [`ActPatch`] corrupts one element of one node's activation
    ///   *as produced during this faulty inference*: a patch on a node
    ///   before the recomputation start applies to the cached golden
    ///   activation, a patch on a recomputed node to its freshly computed
    ///   (possibly already faulty) value. Node 0 is the input image.
    ///
    /// Recomputation starts at the earliest node whose value can change:
    /// `weight_dirty` (at least 1), or the node right after the earliest
    /// patched one (the struck node itself is not recomputed). With nothing
    /// to recompute the cached — possibly patched — final activation is
    /// returned.
    ///
    /// With [`ForwardOptions::plan`] every recomputed conv GEMM reads its
    /// golden weight panel — except the `weight_dirty` node's, which always
    /// packs its live (faulted) weights. Intermediate tensors are recycled
    /// into `opts.arena` when the pass ends, so the next image reuses the
    /// same scratch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when the cache or the plan does
    /// not cover this model's nodes or a patch names an out-of-range node
    /// or element, or the first operator failure.
    pub fn forward_suffix(
        &self,
        weight_dirty: Option<NodeId>,
        cache: &ActivationCache,
        patches: &[ActPatch],
        opts: &mut ForwardOptions<'_>,
    ) -> Result<Tensor, NnError> {
        let n_nodes = self.nodes.len();
        let golden = &cache.activations;
        if golden.len() != n_nodes {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "cache holds {} activations, model has {n_nodes} nodes",
                    golden.len()
                ),
            });
        }
        if let Some(plan) = opts.plan.filter(|p| p.len() != n_nodes) {
            return Err(NnError::CacheMismatch {
                reason: format!("plan covers {} nodes, model has {n_nodes}", plan.len()),
            });
        }
        for p in patches {
            let Some(value) = golden.get(p.node) else {
                return Err(NnError::CacheMismatch {
                    reason: format!("patch names node {}, model has {n_nodes} nodes", p.node),
                });
            };
            if p.element >= value.len() {
                return Err(NnError::CacheMismatch {
                    reason: format!(
                        "patch element {} out of range for node {} ({} elements)",
                        p.element,
                        p.node,
                        value.len()
                    ),
                });
            }
        }
        let start = weight_dirty
            .map(|w| w.max(1))
            .into_iter()
            .chain(patches.iter().map(|p| p.node + 1))
            .min()
            .unwrap_or(n_nodes)
            .min(n_nodes);
        // Patched golden activations of nodes before the recomputation
        // start; patches at or past it strike recomputed values. Empty (and
        // allocation-free) for pure weight faults.
        let mut overrides: Vec<(NodeId, Tensor)> = Vec::new();
        for p in patches.iter().filter(|p| p.node < start) {
            let t = match overrides.iter().position(|(n, _)| *n == p.node) {
                Some(i) => &mut overrides[i].1,
                None => {
                    overrides.push((p.node, golden[p.node].clone()));
                    &mut overrides.last_mut().expect("just pushed").1
                }
            };
            let s = t.as_mut_slice();
            s[p.element] = p.apply(s[p.element]);
        }
        if start >= n_nodes {
            let last = n_nodes - 1;
            return Ok(match overrides.into_iter().find(|(n, _)| *n == last) {
                Some((_, t)) => t,
                None => golden[last].clone(),
            });
        }
        let mut fresh: Vec<Tensor> = Vec::with_capacity(n_nodes - start);
        for id in start..n_nodes {
            let vals = NodeValues {
                prefix: golden,
                overrides: &overrides,
                suffix_base: start,
                suffix: &fresh,
            };
            let panel = match opts.plan {
                Some(p) if weight_dirty != Some(id) => p.panels().get(id),
                _ => None,
            };
            let mut v = self.eval_node_with(id, &vals, panel, opts)?;
            for p in patches.iter().filter(|p| p.node == id) {
                let s = v.as_mut_slice();
                s[p.element] = p.apply(s[p.element]);
            }
            fresh.push(v);
        }
        let out = fresh.pop().expect("suffix is nonempty");
        recycle(fresh, opts);
        Ok(out)
    }

    /// A human-readable summary: one line per weight layer with its name,
    /// shape, and parameter count, plus totals.
    ///
    /// # Example
    ///
    /// ```
    /// use sfi_nn::resnet::ResNetConfig;
    ///
    /// # fn main() -> Result<(), sfi_nn::NnError> {
    /// let model = ResNetConfig::resnet20().build()?;
    /// let summary = model.summary();
    /// assert!(summary.contains("resnet20"));
    /// assert!(summary.contains("268336 weights"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} ({} nodes)", self.name, self.nodes.len());
        for layer in self.weight_layers() {
            let param = self.store.get(layer.param).expect("layer param exists");
            let _ = writeln!(
                out,
                "  L{:<3} {:<28} {:<16} {:>9}",
                layer.layer,
                layer.name,
                param.tensor.shape().to_string(),
                layer.len
            );
        }
        let _ = writeln!(
            out,
            "  total: {} weights across {} layers ({} parameters incl. aux)",
            self.store.total_weights(),
            self.weight_layers().len(),
            self.store.iter().map(|p| p.tensor.len()).sum::<usize>()
        );
        out
    }

    /// Per-weight-layer summary statistics of the golden weights:
    /// `(layer, mean, std, min, max)` — the inputs a reliability engineer
    /// inspects before trusting the data-aware prior.
    pub fn weight_stats(&self) -> Vec<LayerStats> {
        self.weight_layers()
            .iter()
            .map(|l| {
                let w = self.store.get(l.param).expect("layer param exists").tensor.as_slice();
                let n = w.len() as f64;
                let mean = w.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
                let var = w.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n;
                LayerStats {
                    layer: l.layer,
                    mean,
                    std: var.sqrt(),
                    min: w.iter().copied().fold(f32::INFINITY, f32::min),
                    max: w.iter().copied().fold(f32::NEG_INFINITY, f32::max),
                }
            })
            .collect()
    }

    /// Top-1 class indices for a batch of inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::forward`].
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.forward(input)?;
        let batch = logits.shape().dims()[0];
        let classes = logits.shape().dims()[1];
        let data = logits.as_slice();
        Ok((0..batch)
            .map(|b| {
                let row = &data[b * classes..(b + 1) * classes];
                argmax_slice(row)
            })
            .collect())
    }
}

/// Summary statistics of one weight layer's golden values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStats {
    /// The paper's 0-based layer index.
    pub layer: usize,
    /// Mean weight value.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
    /// Minimum weight.
    pub min: f32,
    /// Maximum weight.
    pub max: f32,
}

/// Returns a finished pass's intermediate tensors to `opts.arena`.
fn recycle(tensors: Vec<Tensor>, opts: &mut ForwardOptions<'_>) {
    if let Some(arena) = opts.arena.as_deref_mut() {
        for t in tensors {
            arena.recycle(t.into_vec());
        }
    }
}

/// Index of the maximum element, NaN-aware (see [`Tensor::argmax`]).
pub(crate) fn argmax_slice(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_val = f32::NEG_INFINITY;
    let mut seen_finite = false;
    for (i, &v) in row.iter().enumerate() {
        if !v.is_nan() && (v > best_val || !seen_finite) {
            best = i;
            best_val = v;
            seen_finite = true;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeOp, ParamKind, SuffixOutcome};
    use sfi_tensor::ops::{BatchedLowered, Conv2dCfg};

    /// A tiny two-layer model: conv(1->2, 3x3) -> relu -> gap -> linear.
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

    fn tiny_input() -> Tensor {
        Tensor::from_fn([1, 1, 4, 4], |i| (i as f32).sin())
    }

    #[test]
    fn forward_produces_logits() {
        let m = tiny_model();
        let out = m.forward(&tiny_input()).unwrap();
        assert_eq!(out.shape().dims(), &[1, 3]);
        assert!(out.iter().all(f32::is_finite));
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let m = tiny_model();
        assert!(matches!(m.forward(&Tensor::zeros([1, 2, 4, 4])), Err(NnError::InputShape { .. })));
        assert!(m.forward(&Tensor::zeros([1, 4, 4])).is_err());
    }

    #[test]
    fn cached_forward_matches_plain() {
        let m = tiny_model();
        let input = tiny_input();
        let plain = m.forward(&input).unwrap();
        let cache = m.forward_cached(&input).unwrap();
        let last = cache.get(cache.len() - 1).unwrap();
        assert_eq!(plain, *last);
    }

    /// [`Model::forward_suffix`] with default options.
    fn suffix(
        m: &Model,
        weight_dirty: Option<NodeId>,
        cache: &ActivationCache,
        patches: &[ActPatch],
    ) -> Result<Tensor, NnError> {
        m.forward_suffix(weight_dirty, cache, patches, &mut ForwardOptions::default())
    }

    /// A patch that overwrites its element with `v`.
    fn set(node: NodeId, element: usize, v: f32) -> ActPatch {
        ActPatch { and_mask: 0, or_mask: v.to_bits(), ..ActPatch::identity(node, element) }
    }

    #[test]
    fn suffix_from_zero_matches_full() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        let out = suffix(&m, Some(0), &cache, &[]).unwrap();
        assert_eq!(out, m.forward(&input).unwrap());
    }

    #[test]
    fn suffix_detects_weight_change() {
        let mut m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        let golden = m.forward(&input).unwrap();
        // Corrupt the fc weight; only node 4 is dirty.
        let fc = m.node_of_param(1).unwrap();
        assert_eq!(fc, 4);
        m.store_mut().get_mut(1).unwrap().tensor.as_mut_slice()[0] += 100.0;
        let faulty = suffix(&m, Some(fc), &cache, &[]).unwrap();
        assert!(golden.max_abs_diff(&faulty).unwrap() > 1.0);
        // And the cached prefix is genuinely reused: recompute-from-conv
        // gives the same answer.
        let full = m.forward(&input).unwrap();
        assert!(full.max_abs_diff(&faulty).unwrap() < 1e-6);
    }

    #[test]
    fn suffix_without_faults_or_past_end_returns_cached_output() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let golden = cache.get(cache.len() - 1).unwrap();
        for weight_dirty in [None, Some(999)] {
            let out = suffix(&m, weight_dirty, &cache, &[]).unwrap();
            assert!(out.bits_equal(golden), "{weight_dirty:?}");
        }
    }

    #[test]
    fn suffix_rejects_foreign_cache_and_bad_sites() {
        let m = tiny_model();
        let foreign = ActivationCache { activations: vec![Tensor::zeros([1])] };
        assert!(matches!(suffix(&m, Some(1), &foreign, &[]), Err(NnError::CacheMismatch { .. })));
        let plan = CompiledPlan::compile(&m, &m.forward_cached(&tiny_input()).unwrap()).unwrap();
        let arena = &mut ScratchArena::new();
        assert!(matches!(
            plan.weight_suffix(&m, 1, &foreign, None, None, true, arena),
            Err(NnError::CacheMismatch { .. })
        ));
        let cache = m.forward_cached(&tiny_input()).unwrap();
        for bad in [ActPatch::identity(99, 0), ActPatch::identity(1, usize::MAX)] {
            for weight_dirty in [None, Some(1)] {
                assert!(matches!(
                    suffix(&m, weight_dirty, &cache, &[bad]),
                    Err(NnError::CacheMismatch { .. })
                ));
            }
        }
    }

    #[test]
    fn identity_patch_matches_cached_output() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let out = suffix(&m, None, &cache, &[ActPatch::identity(2, 0)]).unwrap();
        assert_eq!(out, *cache.get(cache.len() - 1).unwrap());
    }

    #[test]
    fn input_patch_matches_full_forward() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        // Patch the input: zero one pixel; compare against a plain forward
        // on the same modified image.
        let mut modified = input.clone();
        modified.as_mut_slice()[5] = 0.0;
        let patched = suffix(&m, None, &cache, &[set(0, 5, 0.0)]).unwrap();
        let direct = m.forward(&modified).unwrap();
        assert!(patched.max_abs_diff(&direct).unwrap() < 1e-6);
    }

    #[test]
    fn last_node_patch_returns_patched_logits() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let last = m.nodes().len() - 1;
        let out = suffix(&m, None, &cache, &[set(last, 0, 99.0)]).unwrap();
        assert_eq!(out.as_slice()[0], 99.0);
        assert_eq!(out.as_slice()[1..], cache.get(last).unwrap().as_slice()[1..]);
    }

    #[test]
    fn patch_propagates_corruption() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let golden = cache.get(cache.len() - 1).unwrap().clone();
        let patches: Vec<ActPatch> =
            (0..cache.get(1).unwrap().len()).map(|e| set(1, e, 10.0)).collect();
        let corrupted = suffix(&m, None, &cache, &patches).unwrap();
        assert!(golden.max_abs_diff(&corrupted).unwrap() > 0.1);
    }

    #[test]
    fn accumulated_patches_match_sequential_application() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        // Two activation strikes on different nodes: the accumulated pass
        // must match patching the input by hand, re-caching, then striking
        // node 2's produced value.
        let p0 = ActPatch { xor_mask: 1 << 30, ..ActPatch::identity(0, 3) };
        let p2 = ActPatch { or_mask: 1 << 31, ..ActPatch::identity(2, 5) };
        let out = suffix(&m, None, &cache, &[p0, p2]).unwrap();
        let mut modified = input.clone();
        let s = modified.as_mut_slice();
        s[3] = p0.apply(s[3]);
        let faulty_cache = m.forward_cached(&modified).unwrap();
        let direct = suffix(&m, None, &faulty_cache, &[p2]).unwrap();
        assert!(out.bits_equal(&direct), "accumulated patches diverge from sequential application");
    }

    #[test]
    fn graph_validation_rejects_forward_references() {
        let store = ParameterStore::new();
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Relu, 1), // self-reference
        ];
        assert!(Model::new("bad", nodes, store, vec![1, 2, 2]).is_err());
    }

    #[test]
    fn graph_validation_rejects_missing_input_node() {
        let store = ParameterStore::new();
        let nodes = vec![Node::unary(NodeOp::Relu, 0)];
        assert!(Model::new("bad", nodes, store, vec![1]).is_err());
    }

    #[test]
    fn graph_validation_rejects_bad_arity() {
        let store = ParameterStore::new();
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node { op: NodeOp::Add, inputs: vec![0] },
        ];
        assert!(Model::new("bad", nodes, store, vec![1]).is_err());
    }

    #[test]
    fn graph_validation_rejects_unknown_param() {
        let store = ParameterStore::new();
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Linear { weight: 5, bias: None }, 0),
        ];
        assert!(matches!(
            Model::new("bad", nodes, store, vec![1]),
            Err(NnError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn predict_returns_argmax_per_image() {
        let m = tiny_model();
        let batch = Tensor::from_fn([2, 1, 4, 4], |i| ((i * 7) % 11) as f32 * 0.1);
        let preds = m.predict(&batch).unwrap();
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn argmax_slice_nan_aware() {
        assert_eq!(argmax_slice(&[f32::NAN, 2.0, 1.0]), 1);
        assert_eq!(argmax_slice(&[f32::NAN, f32::NAN]), 0);
        assert_eq!(argmax_slice(&[1.0, 3.0, 3.0]), 1);
    }

    #[test]
    fn summary_lists_every_weight_layer() {
        let m = tiny_model();
        let s = m.summary();
        assert!(s.contains("tiny"));
        assert!(s.contains("conv.weight"));
        assert!(s.contains("fc.weight"));
        assert!(s.contains("total: 24 weights across 2 layers"));
    }

    #[test]
    fn weight_stats_are_consistent() {
        let m = tiny_model();
        let stats = m.weight_stats();
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert!(s.min <= s.max);
            assert!(f64::from(s.min) <= s.mean && s.mean <= f64::from(s.max));
            assert!(s.std >= 0.0);
        }
        // conv weights are the ramp (i - 9) * 0.1 over i in 0..18: mean -0.05.
        assert!((stats[0].mean - (-0.05)).abs() < 1e-6, "mean {}", stats[0].mean);
    }

    #[test]
    fn cache_memory_accounting() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        // input 16 + conv out 32 + relu 32 + gap 2 + fc 3 = 85 floats
        assert_eq!(cache.memory_bytes(), 85 * 4);
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes");
        assert!(a.bits_equal(b), "{what}: values diverge");
    }

    #[test]
    fn forward_policies_and_arena_are_bit_identical() {
        let m = tiny_model();
        let input = tiny_input();
        let fast = m.forward(&input).unwrap();
        let naive = m
            .forward_with(
                &input,
                &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() },
            )
            .unwrap();
        assert_bits_equal(&fast, &naive, "fast vs naive");
        let mut arena = ScratchArena::new();
        for _ in 0..3 {
            let opts = &mut ForwardOptions { arena: Some(&mut arena), ..Default::default() };
            let with_arena = m.forward_with(&input, opts).unwrap();
            assert_bits_equal(&fast, &with_arena, "arena round");
        }
        assert!(arena.peak_bytes() > 0, "arena must have been used");
    }

    /// Golden im2col panels of tiny_model's conv (node 1), whose input is
    /// the image itself.
    fn conv_panels(m: &Model, cache: &ActivationCache) -> BatchedLowered {
        let NodeOp::Conv { weight, cfg, .. } = m.nodes()[1].op else {
            panic!("node 1 is the conv")
        };
        let w = &m.store().get(weight).unwrap().tensor;
        ops::im2col_lower_batched(cache.get(0).unwrap(), w, cfg, None).unwrap()
    }

    /// A one-image plan pass's outcome as a per-image one: the convergence
    /// node, or the logits.
    fn per_image(out: SuffixOutcome) -> ForwardOutcome {
        match out.converged_at[..] {
            [Some(at_node)] => ForwardOutcome::Converged { at_node },
            _ => ForwardOutcome::Logits(Tensor::from_vec([1, out.classes], out.logits).unwrap()),
        }
    }

    #[test]
    fn plan_pass_with_lowered_panels_and_arena_matches_plain() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let plan = CompiledPlan::compile(&m, &cache).unwrap();
        let lowered = conv_panels(&m, &cache);
        let plain = suffix(&m, Some(1), &cache, &[]).unwrap();
        let mut arena = ScratchArena::new();
        for low in [Some(&lowered), None] {
            let out = plan.weight_suffix(&m, 1, &cache, low, None, false, &mut arena).unwrap();
            match per_image(out) {
                ForwardOutcome::Logits(l) => assert_bits_equal(&plain, &l, "plan pass"),
                other => panic!("pass without a convergence check gave {other:?}"),
            }
        }
    }

    #[test]
    fn patched_suffix_with_plan_and_arena_matches_plain() {
        // Golden weight panels stay sound under activation strikes: every
        // weight holds its golden value.
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let plan = CompiledPlan::compile(&m, &cache).unwrap();
        let patches = [set(0, 5, 3.0), ActPatch { xor_mask: 1 << 30, ..ActPatch::identity(3, 0) }];
        let plain = suffix(&m, None, &cache, &patches).unwrap();
        let mut arena = ScratchArena::new();
        for _ in 0..2 {
            let opts = &mut ForwardOptions {
                arena: Some(&mut arena),
                plan: Some(&plan),
                ..Default::default()
            };
            let out = m.forward_suffix(None, &cache, &patches, opts).unwrap();
            assert_bits_equal(&plain, &out, "patched with plan and arena");
        }
    }

    /// The converging plan pass one image wide: `faulty`'s suffix from
    /// `first_dirty` over `cache`, on the plan of the golden model `m`,
    /// with the single-unit probe armed by `dirty_unit` and the first dirty
    /// conv's golden-input lowering when its GEMM lowers per image.
    fn converging_probed(
        m: &Model,
        faulty: &Model,
        first_dirty: NodeId,
        cache: &ActivationCache,
        dirty_unit: Option<usize>,
    ) -> ForwardOutcome {
        let plan = CompiledPlan::compile(m, cache).unwrap();
        let lowered = match &faulty.nodes()[first_dirty].op {
            NodeOp::Conv { weight, cfg, .. } if plan.lowers_per_image(first_dirty) => {
                let input = cache.get(faulty.nodes()[first_dirty].inputs[0]).unwrap();
                let w = &faulty.store().get(*weight).unwrap().tensor;
                Some(ops::im2col_lower_batched(input, w, *cfg, None).unwrap())
            }
            _ => None,
        };
        let arena = &mut ScratchArena::new();
        let out = plan
            .weight_suffix(faulty, first_dirty, cache, lowered.as_ref(), dirty_unit, true, arena)
            .unwrap();
        per_image(out)
    }

    /// A converging pass without the probe.
    fn converging(
        m: &Model,
        faulty: &Model,
        first_dirty: NodeId,
        cache: &ActivationCache,
    ) -> ForwardOutcome {
        converging_probed(m, faulty, first_dirty, cache, None)
    }

    #[test]
    fn converging_suffix_detects_an_unchanged_model() {
        // With no fault injected, the very first recomputed step matches
        // the cache and the pass stops immediately.
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        assert_eq!(converging(&m, &m, 1, &cache), ForwardOutcome::Converged { at_node: 1 });
    }

    #[test]
    fn converging_suffix_matches_plain_on_a_diverging_model() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        // A large conv-weight change diverges all the way to the logits.
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[0] += 100.0;
        let plain = suffix(&faulty, Some(1), &cache, &[]).unwrap();
        match converging(&m, &faulty, 1, &cache) {
            ForwardOutcome::Logits(l) => assert_bits_equal(&plain, &l, "diverged logits"),
            ForwardOutcome::Converged { at_node } => panic!("spurious convergence at {at_node}"),
        }
    }

    #[test]
    fn converging_suffix_detects_relu_annihilation() {
        // tiny_model's conv output channel 1 has non-negative weights
        // ((9..18) - 9) * 0.1; on an all-negative input every channel-1
        // pre-activation is <= 0, so the ReLU clamps the whole channel to
        // zero. Scaling a channel-1 weight keeps the pre-activations
        // non-positive: the conv output *diverges* from the cache, but the
        // ReLU output is bit-identical — the fault is provably masked at
        // node 2 and the rest of the network is never computed.
        let m = tiny_model();
        let input = Tensor::full([1, 1, 4, 4], -1.0);
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        // Weight 13 belongs to output channel 1 and is 0.4; keep it positive.
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        assert_eq!(converging(&m, &faulty, 1, &cache), ForwardOutcome::Converged { at_node: 2 });
    }

    /// conv -> relu -> add(relu, conv) -> gap -> linear: the residual Add
    /// reads the conv output directly, around the ReLU.
    fn skip_model() -> Model {
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
        Model::new("skip", nodes, store, vec![1, 4, 4]).unwrap()
    }

    #[test]
    fn converging_suffix_respects_skip_connections() {
        // Same ReLU-annihilation fault as above, but a residual Add reads
        // the *conv* output directly. The ReLU activation matches golden
        // bit-for-bit, yet the still-dirty conv output flows around it —
        // stopping there would misclassify. Live-dirty tracking must keep
        // the pass going and reproduce the full forward pass exactly.
        let m = skip_model();
        let input = Tensor::full([1, 1, 4, 4], -1.0);
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        // The ReLU output really is golden — a chain-only rule would stop
        // at node 2 — while the conv output it shadows is dirty.
        let refreshed = faulty.forward_cached(&input).unwrap();
        assert!(refreshed.get(2).unwrap().bits_equal(cache.get(2).unwrap()));
        assert!(!refreshed.get(1).unwrap().bits_equal(cache.get(1).unwrap()));
        let full = faulty.forward(&input).unwrap();
        match converging(&m, &faulty, 1, &cache) {
            ForwardOutcome::Logits(l) => assert_bits_equal(&full, &l, "skip logits"),
            ForwardOutcome::Converged { at_node } => {
                panic!("unsound convergence at node {at_node} past a live dirty skip input")
            }
        }
    }

    /// Runs the converging plan pass with and without the single-unit
    /// probe armed and asserts the outcomes are indistinguishable.
    fn assert_probe_invisible(
        m: &Model,
        faulty: &Model,
        first_dirty: NodeId,
        cache: &ActivationCache,
        dirty_unit: usize,
        ctx: &str,
    ) -> ForwardOutcome {
        let probed = converging_probed(m, faulty, first_dirty, cache, Some(dirty_unit));
        let full = converging(m, faulty, first_dirty, cache);
        match (&probed, &full) {
            (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => assert_bits_equal(a, b, ctx),
            (a, b) => assert_eq!(a, b, "{ctx}: probe changed the outcome"),
        }
        probed
    }

    #[test]
    fn single_unit_probe_is_invisible_on_diverging_faults() {
        // Conv fault reaching channel 0: diverges to the logits. The probe
        // must materialize the conv activation bit-identically (golden
        // clone + one recomputed channel) so the downstream suffix — and
        // the returned logits — match the unprobed pass exactly.
        let input = tiny_input();
        let m = tiny_model();
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[0] += 100.0;
        let out = assert_probe_invisible(&m, &faulty, 1, &cache, 0, "conv channel 0");
        assert!(matches!(out, ForwardOutcome::Logits(_)));

        // Non-finite faulted weight: NaN bits must flow through the probed
        // row exactly as through the full kernel.
        let mut nan_faulty = m.clone();
        nan_faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[3] = f32::NAN;
        assert_probe_invisible(&m, &nan_faulty, 1, &cache, 0, "conv channel 0 NaN");

        // Linear fault (last node): the probe's materialized activation IS
        // the returned logits.
        let fc = m.node_of_param(1).unwrap();
        let mut fc_faulty = m.clone();
        fc_faulty.store_mut().get_mut(1).unwrap().tensor.as_mut_slice()[5] += 7.0;
        let unit = fc_faulty.param_output_unit(1, 5).unwrap();
        let out = assert_probe_invisible(&m, &fc_faulty, fc, &cache, unit, "fc row");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
    }

    #[test]
    fn single_unit_probe_converges_on_a_masked_channel() {
        // All-zero input: every conv product is 0.0 * w, so any *finite*
        // weight change leaves the output channel bit-identical — the
        // probe alone proves convergence at the conv node without
        // computing the other channel.
        let m = tiny_model();
        let input = Tensor::zeros([1, 1, 4, 4]);
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        let out = assert_probe_invisible(&m, &faulty, 1, &cache, 1, "masked conv channel");
        assert_eq!(out, ForwardOutcome::Converged { at_node: 1 });
    }

    #[test]
    fn single_unit_probe_respects_skip_connections() {
        // The skip-connection trap from converging_suffix_respects_skip_
        // connections, probed: the faulted channel diverges at the conv,
        // the following ReLU matches golden, and the residual Add still
        // reads the dirty conv — the probed pass must keep going exactly
        // like the full one.
        let m = skip_model();
        let input = Tensor::full([1, 1, 4, 4], -1.0);
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        let out = assert_probe_invisible(&m, &faulty, 1, &cache, 1, "skip with probe");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
    }

    #[test]
    fn param_output_unit_reads_the_leading_dimension() {
        let m = tiny_model();
        // conv weight [2, 1, 3, 3]: 9 elements per out-channel.
        assert_eq!(m.param_output_unit(0, 8), Some(0));
        assert_eq!(m.param_output_unit(0, 13), Some(1));
        // fc weight [3, 2]: 2 elements per row.
        assert_eq!(m.param_output_unit(1, 5), Some(2));
        // fc bias [3]: unit == index.
        assert_eq!(m.param_output_unit(2, 1), Some(1));
        // Out of range.
        assert_eq!(m.param_output_unit(0, 18), None);
        assert_eq!(m.param_output_unit(99, 0), None);
    }
}
