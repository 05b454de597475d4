use serde::{Deserialize, Serialize};

use sfi_tensor::ops::{self, BatchNormParams, GemmKernel, LoweredConv, PackedConvWeight};
use sfi_tensor::{ScratchArena, Tensor};

use crate::{GoldenPanels, NnError, Node, NodeId, ParamId, ParameterStore, WeightLayer};

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
/// no pre-lowered panels, no convergence check).
#[derive(Default)]
pub struct ForwardOptions<'a> {
    /// Kernel and allocation policy.
    pub policy: KernelPolicy,
    /// Scratch arena for im2col/GEMM buffers; intermediate activations are
    /// recycled into it when the pass finishes.
    pub arena: Option<&'a mut ScratchArena>,
    /// Pre-lowered im2col panels for one conv node. Consulted only when
    /// that exact node is evaluated under [`KernelPolicy::Fast`]; the
    /// caller asserts the panels were lowered from the value the node's
    /// input holds during this pass. [`Model::forward_suffix`] ignores
    /// them whenever it applies activation patches.
    pub lowered: Option<(NodeId, &'a LoweredConv)>,
    /// Golden weight panels ([`CompiledPlan::panels`](crate::CompiledPlan::panels))
    /// for the conv GEMMs of a [`Model::forward_suffix`] pass under
    /// [`KernelPolicy::Fast`]. The pass never lets its `weight_dirty` node
    /// read its panel; the caller asserts every *other* recomputed node's
    /// weights hold the golden values the panels were packed from — true
    /// for a single weight fault and for transient faults, not for
    /// accumulated multi-layer faults. Ignored by [`Model::forward_with`].
    pub panels: Option<&'a GoldenPanels>,
    /// Output unit (conv out-channel / linear out-feature) through which
    /// the active weight fault reaches the *first dirty* node, when the
    /// caller knows it (see [`Model::param_output_unit`]). A converging
    /// [`Model::forward_suffix`] then evaluates only that unit of the
    /// first dirty node — every other unit is a deterministic
    /// recomputation from golden inputs and unfaulted weight rows, hence
    /// bit-golden — deciding convergence (or materializing the node's full
    /// activation) at a fraction of the node cost. Ignored unless
    /// [`converge`](Self::converge) is in effect, and by unsupported node
    /// kinds.
    pub dirty_unit: Option<usize>,
    /// Golden-convergence early exit for [`Model::forward_suffix`]: stop
    /// with [`ForwardOutcome::Converged`] once the recomputed suffix is
    /// provably bit-golden. Honoured only for pure weight faults (no
    /// activation patches); ignored by [`Model::forward_with`].
    pub converge: bool,
}

/// Outcome of a suffix re-execution ([`Model::forward_suffix`]).
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
    /// im2col panels lowered from this node's operand.
    pub(crate) lowered: Option<&'a LoweredConv>,
    /// This node's conv weight, pre-packed from its live values.
    pub(crate) panel: Option<&'a PackedConvWeight>,
}

/// Result of the single-unit convergence probe (a converging
/// [`Model::forward_suffix`] with [`ForwardOptions::dirty_unit`] set).
enum ProbeOutcome {
    /// The node/op/options combination has no single-unit kernel; fall
    /// back to full evaluation.
    Unsupported,
    /// The probed unit recomputed to golden bits — the whole node is
    /// provably golden.
    Clean,
    /// The probed unit diverged; this is the node's full activation
    /// (golden clone with the unit overwritten).
    Dirty(Tensor),
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
    fn get(&self, id: NodeId) -> &Tensor {
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
    /// directly. Feed the result to [`ForwardOptions::dirty_unit`] to arm
    /// the single-unit convergence probe. `None` when the parameter is
    /// unknown or the index is out of range.
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

    /// Evaluates node `id` with its operands read from `vals`, the cached
    /// lowering `opts` names for this node, and `panel` as its packed conv
    /// weight (callers pass only a panel packed from this node's live
    /// weights). See [`Model::eval_node`].
    pub(crate) fn eval_node_with(
        &self,
        id: NodeId,
        vals: &NodeValues<'_>,
        panel: Option<&PackedConvWeight>,
        opts: &mut ForwardOptions<'_>,
    ) -> Result<Tensor, NnError> {
        let inputs = &self.nodes[id].inputs;
        let x0 = vals.get(inputs.first().copied().unwrap_or(0));
        let x1 = inputs.get(1).map(|&i| vals.get(i));
        let lowered = match opts.lowered {
            Some((n, low)) if n == id => Some(low),
            _ => None,
        };
        let kernels = NodeKernels { policy: opts.policy, lowered, panel };
        self.eval_node(id, x0, x1, kernels, opts.arena.as_deref_mut())
    }

    /// The one dense operator evaluator: node `id` over its explicitly
    /// resolved operands `x0` (and `x1` for `Add`), shared by every forward
    /// pass and the delta engine's dense fallback.
    ///
    /// Under [`KernelPolicy::Fast`] convs consume `kernels.lowered` (im2col
    /// panels of `x0`) and `kernels.panel` (the packed weight) when given,
    /// and every buffer comes from `arena` when there is one. Without
    /// `kernels.lowered`, a conv that [`ops::conv2d_reads_in_place`]
    /// multiplies `x0` in place (over `kernels.panel`, or its weight packed
    /// once for the call) and every other conv lowers `x0` itself.
    /// [`KernelPolicy::Naive`] is the historical reference path: it clones
    /// every operand, allocates fresh, runs the naive GEMM and the scalar
    /// depthwise loop, and ignores both conv hints. Every combination is
    /// bit-identical.
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
                let conv = match (naive, kernels.lowered, arena) {
                    (true, ..) => ops::conv2d_kernel(x0, w, b, *cfg, GemmKernel::Naive),
                    (false, Some(low), a) => ops::conv2d_from_lowered(low, w, b, kernels.panel, a),
                    (false, None, Some(a)) => ops::conv2d_with(x0, w, b, *cfg, kernels.panel, a),
                    (false, None, None) => {
                        ops::conv2d_with(x0, w, b, *cfg, kernels.panel, &mut ScratchArena::new())
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
    /// a fault — the single suffix re-execution primitive behind every
    /// fault model.
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
    /// Pure weight faults (`patches` empty) additionally honour two
    /// options that assume golden activations upstream of the faulted
    /// node:
    ///
    /// - [`ForwardOptions::lowered`]: when it names the first dirty conv
    ///   node, that node's im2col lowering is skipped and the cached panels
    ///   feed the GEMM — the node reads its *golden* input, the exact value
    ///   the panels were lowered from. Convs that
    ///   [`ops::conv2d_reads_in_place`] need no panels: they multiply the
    ///   golden input in place.
    /// - [`ForwardOptions::converge`]: after each recomputed node its
    ///   activation is compared bitwise (`u32`-reinterpreted) against the
    ///   cached golden one, and the pass stops with
    ///   [`ForwardOutcome::Converged`] once the skipped suffix is provably
    ///   golden. Every operator is deterministic and bit-exact in its
    ///   inputs, so that holds once **every activation the suffix can
    ///   still read** is bitwise-golden — stronger than "node `k`
    ///   matches": with skip connections (ResNet's residual `Add`) a node
    ///   after `k` may read a recomputed activation *before* `k` that still
    ///   differs (a diverged conv whose following ReLU clamped back to
    ///   golden). The pass therefore tracks the *live dirty* nodes —
    ///   recomputed nodes that differ from golden and are read past the
    ///   current one — and converges only when the current node matches
    ///   and none is live. NaN payloads and signed zeros compare by bits.
    ///   When [`ForwardOptions::dirty_unit`] names the one output unit the
    ///   fault can reach, the first dirty node is decided by a
    ///   *single-unit probe* — one GEMM row instead of the full layer, over
    ///   the cached panels or, for an in-place conv, the golden input —
    ///   and on divergence its activation is materialized as a golden
    ///   clone with that unit overwritten, bit-identical to full
    ///   re-evaluation because no other unit depends on the faulted
    ///   weight row.
    ///
    /// With [`ForwardOptions::panels`] every recomputed conv GEMM reads its
    /// golden weight panel — except the `weight_dirty` node's, which always
    /// packs its live (faulted) weights. This holds for patched passes too.
    ///
    /// Intermediate tensors are recycled into `opts.arena` when the pass
    /// ends, so the next image reuses the same scratch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when the cache does not cover
    /// this model's nodes or a patch names an out-of-range node or
    /// element, or the first operator failure.
    pub fn forward_suffix(
        &self,
        weight_dirty: Option<NodeId>,
        cache: &ActivationCache,
        patches: &[ActPatch],
        opts: &mut ForwardOptions<'_>,
    ) -> Result<ForwardOutcome, NnError> {
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
            return Ok(ForwardOutcome::Logits(
                match overrides.into_iter().find(|(n, _)| *n == last) {
                    Some((_, t)) => t,
                    None => golden[last].clone(),
                },
            ));
        }
        // A corrupted activation upstream of a lowered conv makes its
        // panels unsound.
        let lowered = opts.lowered;
        if !patches.is_empty() {
            opts.lowered = None;
        }
        let out = self.recompute_suffix(start, weight_dirty, cache, &overrides, patches, opts);
        opts.lowered = lowered;
        out
    }

    /// The recompute loop of [`Model::forward_suffix`] from node `start`
    /// on, with the golden-convergence bookkeeping when it applies. Node
    /// `weight_dirty` never reads its golden panel.
    fn recompute_suffix(
        &self,
        start: NodeId,
        weight_dirty: Option<NodeId>,
        cache: &ActivationCache,
        overrides: &[(NodeId, Tensor)],
        patches: &[ActPatch],
        opts: &mut ForwardOptions<'_>,
    ) -> Result<ForwardOutcome, NnError> {
        let n_nodes = self.nodes.len();
        let golden = &cache.activations;
        let converge = opts.converge && patches.is_empty();
        // For each node, the last node that reads its activation: a dirty
        // (differs-from-golden) recomputed node stays live — and blocks
        // convergence — until its last reader has been evaluated.
        // `expiring[id]` counts the live dirty nodes that die once node
        // `id` has consumed them. Both stay empty without convergence.
        let (mut last_reader, mut expiring) = (Vec::new(), Vec::new());
        if converge {
            last_reader = (0..n_nodes).collect();
            for (id, node) in self.nodes.iter().enumerate().skip(start) {
                for &inp in &node.inputs {
                    last_reader[inp] = id;
                }
            }
            expiring = vec![0u32; n_nodes];
        }
        let mut live_dirty: u32 = 0;
        let mut fresh: Vec<Tensor> = Vec::with_capacity(n_nodes - start);
        let mut next = start;
        if let (true, Some(unit)) = (converge, opts.dirty_unit) {
            match self.probe_dirty_unit(start, cache, unit, opts)? {
                ProbeOutcome::Unsupported => {}
                ProbeOutcome::Clean => return Ok(ForwardOutcome::Converged { at_node: start }),
                ProbeOutcome::Dirty(t) => {
                    if last_reader[start] > start {
                        expiring[last_reader[start]] += 1;
                        live_dirty += 1;
                    }
                    fresh.push(t);
                    next = start + 1;
                }
            }
        }
        for id in next..n_nodes {
            let vals = NodeValues { prefix: golden, overrides, suffix_base: start, suffix: &fresh };
            let panel = match opts.panels {
                Some(p) if weight_dirty != Some(id) => p.get(id),
                _ => None,
            };
            let mut v = self.eval_node_with(id, &vals, panel, opts)?;
            for p in patches.iter().filter(|p| p.node == id) {
                let s = v.as_mut_slice();
                s[p.element] = p.apply(s[p.element]);
            }
            if converge {
                // Node `id` has now read its inputs; dirty nodes last read
                // here can no longer influence the suffix.
                live_dirty -= expiring[id];
                if v.bits_equal(&golden[id]) {
                    if live_dirty == 0 {
                        fresh.push(v);
                        recycle(fresh, opts);
                        return Ok(ForwardOutcome::Converged { at_node: id });
                    }
                } else if last_reader[id] > id {
                    expiring[last_reader[id]] += 1;
                    live_dirty += 1;
                }
            }
            fresh.push(v);
        }
        let out = fresh.pop().expect("suffix is nonempty");
        recycle(fresh, opts);
        Ok(ForwardOutcome::Logits(out))
    }

    /// Evaluates only output unit `unit` of node `id` and compares it
    /// against the golden activation: `Clean` means the unit — and hence
    /// the whole node, since the fault reaches no other unit — recomputed
    /// to golden bits; `Dirty` carries the node's full activation (a golden
    /// clone with the probed unit overwritten, bit-identical to a full
    /// re-evaluation). `Unsupported` asks the caller to fall back to full
    /// evaluation: the op has no single-unit kernel, the conv neither has
    /// a cached lowering nor reads its golden input in place
    /// ([`ops::conv2d_reads_in_place`]), or the naive cost-model policy is
    /// active.
    fn probe_dirty_unit(
        &self,
        id: NodeId,
        cache: &ActivationCache,
        unit: usize,
        opts: &mut ForwardOptions<'_>,
    ) -> Result<ProbeOutcome, NnError> {
        use crate::NodeOp;
        if opts.policy == KernelPolicy::Naive {
            return Ok(ProbeOutcome::Unsupported);
        }
        let node = &self.nodes[id];
        let param = |p: ParamId| &self.store.get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let golden = &cache.activations[id];
        let vals: Vec<f32> = match &node.op {
            NodeOp::Conv { weight, bias, cfg } => {
                let w = param(*weight);
                if unit >= w.shape().n() {
                    return Ok(ProbeOutcome::Unsupported);
                }
                let (b, arena) = (bias.map(&param), opts.arena.as_deref_mut());
                let x = &cache.activations[node.inputs[0]];
                match opts.lowered {
                    Some((ln, low)) if ln == id => {
                        ops::conv2d_channel_from_lowered(low, w, b, unit, arena).map_err(wrap)?
                    }
                    _ if ops::conv2d_reads_in_place(x, w, *cfg) => {
                        ops::conv2d_channel_in_place(x, w, b, *cfg, unit, arena).map_err(wrap)?
                    }
                    _ => return Ok(ProbeOutcome::Unsupported),
                }
            }
            NodeOp::Linear { weight, bias } => {
                let xv = &cache.activations[node.inputs[0]];
                let reshaped;
                let x2 = if xv.shape().rank() == 2 {
                    xv
                } else {
                    let n = xv.shape().dims()[0];
                    let rest = xv.len() / n;
                    reshaped = xv.reshape([n, rest]).map_err(wrap)?;
                    &reshaped
                };
                let w = param(*weight);
                if unit >= w.shape().dims()[0] {
                    return Ok(ProbeOutcome::Unsupported);
                }
                ops::linear_row(x2, w, bias.map(&param), unit).map_err(wrap)?
            }
            _ => return Ok(ProbeOutcome::Unsupported),
        };
        // Unit `unit` occupies `chunk` contiguous elements per image in the
        // golden layout ([batch, units, ...]); `vals` holds the same
        // elements back to back, one image after another.
        let shape = golden.shape();
        let dims = shape.dims();
        let (batch, units) = (dims[0], dims[1]);
        let chunk: usize = dims[2..].iter().product();
        let g = golden.as_slice();
        let clean = (0..batch).all(|n| {
            let gs = &g[(n * units + unit) * chunk..][..chunk];
            let vs = &vals[n * chunk..][..chunk];
            gs.iter().zip(vs).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if clean {
            if let Some(a) = opts.arena.as_deref_mut() {
                a.recycle(vals);
            }
            return Ok(ProbeOutcome::Clean);
        }
        let mut data = match opts.arena.as_deref_mut() {
            Some(a) => a.take(g.len()),
            None => vec![0.0f32; g.len()],
        };
        data.copy_from_slice(g);
        for n in 0..batch {
            data[(n * units + unit) * chunk..][..chunk]
                .copy_from_slice(&vals[n * chunk..][..chunk]);
        }
        if let Some(a) = opts.arena.as_deref_mut() {
            a.recycle(vals);
        }
        let t = Tensor::from_vec(shape, data)
            .expect("materialized activation matches the golden shape");
        Ok(ProbeOutcome::Dirty(t))
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
    use crate::{NodeOp, ParamKind};
    use sfi_tensor::ops::Conv2dCfg;

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

    /// [`Model::forward_suffix`] with `opts`, resolved to its logits.
    fn suffix_with(
        m: &Model,
        weight_dirty: Option<NodeId>,
        cache: &ActivationCache,
        patches: &[ActPatch],
        opts: &mut ForwardOptions<'_>,
    ) -> Result<Tensor, NnError> {
        Ok(m.forward_suffix(weight_dirty, cache, patches, opts)?.into_logits(cache))
    }

    /// [`Model::forward_suffix`] with default options, resolved to its logits.
    fn suffix(
        m: &Model,
        weight_dirty: Option<NodeId>,
        cache: &ActivationCache,
        patches: &[ActPatch],
    ) -> Result<Tensor, NnError> {
        suffix_with(m, weight_dirty, cache, patches, &mut ForwardOptions::default())
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
        for converge in [false, true] {
            let opts = &mut ForwardOptions { converge, ..Default::default() };
            assert!(matches!(
                m.forward_suffix(Some(1), &foreign, &[], opts),
                Err(NnError::CacheMismatch { .. })
            ));
        }
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
    fn conv_panels(m: &Model, cache: &ActivationCache) -> LoweredConv {
        let NodeOp::Conv { weight, cfg, .. } = m.nodes()[1].op else {
            panic!("node 1 is the conv")
        };
        let w = &m.store().get(weight).unwrap().tensor;
        ops::im2col_lower(cache.get(0).unwrap(), w, cfg).unwrap()
    }

    #[test]
    fn suffix_with_lowered_panels_and_arena_matches_plain() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let lowered = conv_panels(&m, &cache);
        let plain = suffix(&m, Some(1), &cache, &[]).unwrap();
        let mut arena = ScratchArena::new();
        let opts = &mut ForwardOptions {
            arena: Some(&mut arena),
            lowered: Some((1, &lowered)),
            ..Default::default()
        };
        let fast = suffix_with(&m, Some(1), &cache, &[], opts).unwrap();
        assert_bits_equal(&plain, &fast, "lowered suffix");
        assert!(opts.lowered.is_some(), "the caller's options are left as given");
    }

    #[test]
    fn patches_bypass_lowered_panels_and_convergence() {
        // Panels lowered from the golden image are unsound once the image
        // is struck, and a converging pass would stop at the first node
        // matching golden although a later patch still strikes: both
        // options must be ignored whenever a patch applies.
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let lowered = conv_panels(&m, &cache);
        let patches = [set(0, 5, 3.0), ActPatch { xor_mask: 1 << 30, ..ActPatch::identity(3, 0) }];
        let plain = suffix(&m, None, &cache, &patches).unwrap();
        let mut arena = ScratchArena::new();
        let opts = &mut ForwardOptions {
            arena: Some(&mut arena),
            lowered: Some((1, &lowered)),
            converge: true,
            ..Default::default()
        };
        let out = m.forward_suffix(None, &cache, &patches, opts).unwrap();
        match out {
            ForwardOutcome::Logits(l) => assert_bits_equal(&plain, &l, "patched with options"),
            ForwardOutcome::Converged { at_node } => panic!("patched pass converged at {at_node}"),
        }
        assert!(opts.lowered.is_some(), "the caller's options are left as given");
        let patched_arena = &mut ForwardOptions { arena: Some(&mut arena), ..Default::default() };
        let again = suffix_with(&m, None, &cache, &patches, patched_arena).unwrap();
        assert_bits_equal(&plain, &again, "patched with arena");
    }

    /// A converging pass with default options otherwise.
    fn converging(m: &Model, first_dirty: NodeId, cache: &ActivationCache) -> ForwardOutcome {
        let opts = &mut ForwardOptions { converge: true, ..Default::default() };
        m.forward_suffix(Some(first_dirty), cache, &[], opts).unwrap()
    }

    #[test]
    fn converging_suffix_detects_an_unchanged_model() {
        // With no fault injected, the very first recomputed node matches
        // the cache and the pass stops immediately.
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let mut arena = ScratchArena::new();
        let opts =
            &mut ForwardOptions { arena: Some(&mut arena), converge: true, ..Default::default() };
        let out = m.forward_suffix(Some(1), &cache, &[], opts).unwrap();
        assert_eq!(out, ForwardOutcome::Converged { at_node: 1 });
    }

    #[test]
    fn converging_suffix_matches_plain_on_a_diverging_model() {
        let mut m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        // A large conv-weight change diverges all the way to the logits.
        m.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[0] += 100.0;
        let plain = suffix(&m, Some(1), &cache, &[]).unwrap();
        match converging(&m, 1, &cache) {
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
        assert_eq!(converging(&faulty, 1, &cache), ForwardOutcome::Converged { at_node: 2 });
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
        match converging(&faulty, 1, &cache) {
            ForwardOutcome::Logits(l) => assert_bits_equal(&full, &l, "skip logits"),
            ForwardOutcome::Converged { at_node } => {
                panic!("unsound convergence at node {at_node} past a live dirty skip input")
            }
        }
    }

    /// Runs a converging `forward_suffix` with and without the single-unit
    /// probe armed and asserts the outcomes are indistinguishable.
    fn assert_probe_invisible(
        faulty: &Model,
        first_dirty: NodeId,
        cache: &ActivationCache,
        dirty_unit: usize,
        ctx: &str,
    ) -> ForwardOutcome {
        let input = cache.get(0).unwrap();
        let lowered = match &faulty.nodes()[first_dirty].op {
            NodeOp::Conv { weight, cfg, .. } => Some(
                ops::im2col_lower(input, &faulty.store().get(*weight).unwrap().tensor, *cfg)
                    .unwrap(),
            ),
            _ => None,
        };
        let mut arena = ScratchArena::new();
        let run = |dirty_unit, arena| {
            let opts = &mut ForwardOptions {
                arena,
                lowered: lowered.as_ref().map(|l| (first_dirty, l)),
                dirty_unit,
                converge: true,
                ..Default::default()
            };
            faulty.forward_suffix(Some(first_dirty), cache, &[], opts).unwrap()
        };
        let probed = run(Some(dirty_unit), Some(&mut arena));
        let full = run(None, None);
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
        let out = assert_probe_invisible(&faulty, 1, &cache, 0, "conv channel 0");
        assert!(matches!(out, ForwardOutcome::Logits(_)));

        // Non-finite faulted weight: NaN bits must flow through the probed
        // row exactly as through the full kernel.
        let mut nan_faulty = m.clone();
        nan_faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[3] = f32::NAN;
        assert_probe_invisible(&nan_faulty, 1, &cache, 0, "conv channel 0 NaN");

        // Linear fault (last node): the probe's materialized activation IS
        // the returned logits.
        let fc = m.node_of_param(1).unwrap();
        let mut fc_faulty = m.clone();
        fc_faulty.store_mut().get_mut(1).unwrap().tensor.as_mut_slice()[5] += 7.0;
        let unit = fc_faulty.param_output_unit(1, 5).unwrap();
        let out = assert_probe_invisible(&fc_faulty, fc, &cache, unit, "fc row");
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
        let out = assert_probe_invisible(&faulty, 1, &cache, 1, "masked conv channel");
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
        let out = assert_probe_invisible(&faulty, 1, &cache, 1, "skip with probe");
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
