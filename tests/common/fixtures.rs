//! Shared, seeded test fixtures for the workspace's differential suites.
//!
//! Included via `#[path]` from the tensor kernel bit-identity tests, the
//! faultsim executor-determinism tests, and the workspace-level
//! crash-tolerance / delta-equivalence tests, so every suite draws models,
//! datasets, faults, and IEEE-754 special values from the same seeded,
//! shape-parameterized generators. The crates that include this file must
//! have `sfi-tensor`, `sfi-nn`, `sfi-dataset`, `sfi-faultsim`, `proptest`,
//! and `rand` visible (as dependencies or dev-dependencies).

#![allow(dead_code)]
#![allow(unused_imports)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sfi_dataset::{Dataset, SynthCifarConfig};
use sfi_faultsim::activation::{ActivationFault, ActivationSpace};
use sfi_faultsim::fault::Fault;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::multi::{AccumulatedFault, FaultTarget};
use sfi_faultsim::population::FaultSpace;
use sfi_nn::resnet::ResNetConfig;
use sfi_nn::{
    ActPatch, ActivationCache, CompiledPlan, DeltaOptions, DeltaStats, ForwardOptions,
    ForwardOutcome, Model, Node, NodeOp, ParamKind, ParameterStore,
};
use sfi_tensor::ops::{self, Conv2dCfg};
use sfi_tensor::{ScratchArena, Tensor};

/// Mostly ordinary magnitudes with a sprinkling of the IEEE-754 specials a
/// bit-level fault injection produces (NaN, ±Inf, huge, subnormal-ish).
pub fn fault_like_f32() -> impl Strategy<Value = f32> {
    (0u32..16, -2.0f32..2.0f32).prop_map(|(kind, v)| match kind {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 3.4e38,
        4 => -1.2e-38,
        _ => v,
    })
}

/// Asserts two f32 slices are **bit**-identical (NaN payloads included).
pub fn assert_bits_equal(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i} diverges: {x} vs {y}");
    }
}

/// Fills a buffer of `len` elements by cycling `values` with the given
/// stride and offset — the shared pattern for deriving full operands from a
/// small proptest-drawn value pool while letting every position host a
/// special value.
pub fn cycled(values: &[f32], len: usize, stride: usize, offset: usize) -> Vec<f32> {
    (0..len).map(|i| values[(i * stride + offset) % values.len()]).collect()
}

/// A unique, empty temp directory for journals and checkpoints; callers
/// remove it on success.
pub fn unique_tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sfi-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The reduced-width ResNet-20 used by the determinism suites.
pub fn micro_resnet(seed: u64) -> Model {
    ResNetConfig::resnet20_micro().build_seeded(seed).unwrap()
}

/// An even smaller ResNet (base width 2, one block per stage) for plan-level
/// crash-tolerance tests, shape-parameterized by input size.
pub fn tiny_resnet(seed: u64, input_size: usize) -> Model {
    ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size }
        .build_seeded(seed)
        .unwrap()
}

/// A deterministic synthetic evaluation set of `samples` images at
/// `size`×`size`.
pub fn synth_images(size: usize, samples: usize) -> Dataset {
    SynthCifarConfig::new().with_size(size).with_samples(samples).generate()
}

/// Dataset + golden reference for `model`, the common campaign setup.
pub fn campaign_world(model: &Model, size: usize, samples: usize) -> (Dataset, GoldenReference) {
    let data = synth_images(size, samples);
    let golden = GoldenReference::build(model, &data).unwrap();
    (data, golden)
}

/// Draws `n` (possibly repeated) faults from the model's full stuck-at
/// population — repeats are legal campaign inputs and must classify
/// identically at each occurrence.
pub fn random_faults(space: &FaultSpace, seed: u64, n: usize) -> Vec<Fault> {
    let sub = space.network_subpopulation();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| sub.fault_at(rng.gen_range(0..sub.size())).unwrap()).collect()
}

/// The transient-activation population of `model` over `data` (every
/// element of every post-input activation tensor, per image, times 32 bits).
pub fn activation_space(model: &Model, data: &Dataset) -> ActivationSpace {
    ActivationSpace::build_for(model, data, FaultTarget::Activation).unwrap()
}

/// The transient-input population of `model` over `data` (the input image
/// tensor only).
pub fn input_space(model: &Model, data: &Dataset) -> ActivationSpace {
    ActivationSpace::build_for(model, data, FaultTarget::Input).unwrap()
}

/// Draws `n` (possibly repeated) transient faults from an activation or
/// input population — the activation-side analogue of [`random_faults`].
pub fn random_transient_faults(
    space: &ActivationSpace,
    seed: u64,
    n: usize,
) -> Vec<ActivationFault> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| space.fault_at(rng.gen_range(0..space.total())).unwrap()).collect()
}

/// Draws `n` accumulated instances of `k` simultaneous faults each, every
/// instance composed of distinct sites from the union of the weight and
/// activation populations (weight sites first, as in campaign sampling).
pub fn random_accumulated_faults(
    weights: &FaultSpace,
    acts: &ActivationSpace,
    seed: u64,
    k: usize,
    n: usize,
) -> Vec<AccumulatedFault> {
    let sub = weights.network_subpopulation();
    let union = sub.size() + acts.total();
    assert!(k as u64 <= union, "k exceeds the composed population");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut sites: Vec<u64> = Vec::with_capacity(k);
            while sites.len() < k {
                let site = rng.gen_range(0..union);
                if !sites.contains(&site) {
                    sites.push(site);
                }
            }
            let mut ws = Vec::new();
            let mut avs = Vec::new();
            for site in sites {
                if site < sub.size() {
                    ws.push(sub.fault_at(site).unwrap());
                } else {
                    avs.push(acts.fault_at(site - sub.size()).unwrap());
                }
            }
            AccumulatedFault { weights: ws, activations: avs }
        })
        .collect()
}

/// The transient-site differential oracle: asserts that the dense patched
/// suffix re-execution (`forward_suffix` with the fault's single patch) and
/// the row-band delta pass (`forward_delta_site`) classify the injected
/// site identically — the same predicted class and logits bits, with any
/// `Converged` outcome backed by bit-golden dense logits. Returns the
/// predicted class of the faulty inference.
pub fn assert_site_forward_equiv(
    model: &Model,
    cache: &ActivationCache,
    golden_prediction: usize,
    fault: &ActivationFault,
    ctx: &str,
) -> usize {
    let site = fault.site;
    let golden_v = cache.get(site.node).unwrap().as_slice()[site.element];
    let faulty_bits = fault.model.apply(golden_v, site.bit).to_bits();
    let patch = [fault.patch()];
    let dense = model.forward_suffix(None, cache, &patch, &mut ForwardOptions::default()).unwrap();
    let dense_pred = dense.argmax().unwrap_or(usize::MAX);
    let golden_logits = cache.get(cache.len() - 1).unwrap();
    let plan = CompiledPlan::compile(model, cache).unwrap();
    let mut arena = ScratchArena::new();
    let mut opts = DeltaOptions { arena: Some(&mut arena), plan: &plan };
    let (out, _stats) =
        model.forward_delta_site(site.node, site.element, faulty_bits, cache, &mut opts).unwrap();
    match out {
        ForwardOutcome::Logits(l) => {
            assert_eq!(
                l.argmax().unwrap_or(usize::MAX),
                dense_pred,
                "{ctx}: delta path classifies the injected site differently"
            );
            assert_bits_equal(l.as_slice(), dense.as_slice());
        }
        ForwardOutcome::Converged { at_node } => {
            assert_bits_equal(dense.as_slice(), golden_logits.as_slice());
            assert_eq!(
                dense_pred, golden_prediction,
                "{ctx}: delta path converged at node {at_node} but dense prediction differs \
                 from golden"
            );
        }
    }
    dense_pred
}

/// Bernoulli draw: the vendored `rand` shim has no `gen_bool`.
fn chance(rng: &mut StdRng, p: f64) -> bool {
    rng.gen_range(0.0f64..1.0) < p
}

/// A seeded random small conv/bn/relu/add/pool graph for differential
/// proptests: conv (randomly strided/grouped/biased) → optional batch norm
/// → ReLU/ReLU6 → optional second conv (optionally rejoined with a skip
/// `Add`) → optional avg pool → global average pool → linear. Weight layer
/// 0 is always the first conv, so single-bit faults on layer 0 exercise the
/// deepest dirty cone the graph offers.
pub fn random_small_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParameterStore::new();
    let c_in = rng.gen_range(1..3usize);
    let size = rng.gen_range(6..9usize);
    let groups = if c_in == 2 && chance(&mut rng, 0.3) { 2 } else { 1 };
    let c0 = groups * rng.gen_range(1..3usize);
    // Odd kernels only: `Same` padding then preserves `ceil(size / stride)`
    // spatial dims, keeping skip-`Add` shapes and pool gating sound.
    let k0 = 1 + 2 * rng.gen_range(0..2usize);
    let stride0 = rng.gen_range(1..3usize);
    let mut wv = |n: usize, scale: f32| -> Vec<f32> {
        (0..n).map(|_| (rng.gen_range(-10i32..11) as f32) * scale).collect()
    };
    let w0 = store.push(
        "conv0.weight",
        ParamKind::Weight { layer: 0 },
        Tensor::from_vec([c0, c_in / groups, k0, k0], wv(c0 * (c_in / groups) * k0 * k0, 0.13))
            .unwrap(),
    );
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x9e37);
    let b0 = if chance(&mut rng2, 0.5) {
        Some(store.push(
            "conv0.bias",
            ParamKind::Bias,
            Tensor::from_vec([c0], wv(c0, 0.2)).unwrap(),
        ))
    } else {
        None
    };
    let mut nodes = vec![Node { op: NodeOp::Input, inputs: vec![] }];
    nodes.push(Node::unary(
        NodeOp::Conv {
            weight: w0,
            bias: b0,
            cfg: Conv2dCfg { stride: stride0, padding: ops::Padding::Same, groups },
        },
        0,
    ));
    let mut cur = 1usize;
    if chance(&mut rng2, 0.5) {
        let gamma = store.push(
            "bn.gamma",
            ParamKind::BnGamma,
            Tensor::from_vec([c0], wv(c0, 0.1)).unwrap(),
        );
        let beta =
            store.push("bn.beta", ParamKind::BnBeta, Tensor::from_vec([c0], wv(c0, 0.1)).unwrap());
        let mean =
            store.push("bn.mean", ParamKind::BnMean, Tensor::from_vec([c0], wv(c0, 0.05)).unwrap());
        let var = store.push(
            "bn.var",
            ParamKind::BnVar,
            Tensor::from_vec([c0], (0..c0).map(|i| 0.5 + 0.1 * i as f32).collect()).unwrap(),
        );
        nodes.push(Node::unary(NodeOp::BatchNorm { gamma, beta, mean, var, eps: 1e-5 }, cur));
        cur += 1;
    }
    nodes.push(Node::unary(if chance(&mut rng2, 0.8) { NodeOp::Relu } else { NodeOp::Relu6 }, cur));
    cur += 1;
    let relu_out = cur;
    let mut channels = c0;
    if chance(&mut rng2, 0.6) {
        let k1 = 1 + 2 * rng2.gen_range(0..2usize);
        let c1 = if chance(&mut rng2, 0.5) { c0 } else { rng2.gen_range(1..4usize) };
        let w1 = store.push(
            "conv1.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_vec([c1, c0, k1, k1], wv(c1 * c0 * k1 * k1, 0.11)).unwrap(),
        );
        nodes.push(Node::unary(
            NodeOp::Conv {
                weight: w1,
                bias: None,
                cfg: Conv2dCfg { stride: 1, padding: ops::Padding::Same, groups: 1 },
            },
            cur,
        ));
        cur += 1;
        channels = c1;
        // Skip-connection re-merge: the (possibly clean) ReLU branch joins
        // the conv branch, exactly the dirty/clean Add case delta
        // propagation must keep alive.
        if c1 == c0 && chance(&mut rng2, 0.6) {
            nodes.push(Node::binary(NodeOp::Add, cur, relu_out));
            cur += 1;
        }
    }
    let spatial = size.div_ceil(stride0);
    if spatial % 2 == 0 && chance(&mut rng2, 0.4) {
        nodes.push(Node::unary(NodeOp::AvgPool { kernel: 2 }, cur));
        cur += 1;
    }
    nodes.push(Node::unary(NodeOp::GlobalAvgPool, cur));
    cur += 1;
    let classes = rng2.gen_range(2..5usize);
    let wl = store.push(
        "fc.weight",
        ParamKind::Weight { layer: 9 },
        Tensor::from_vec([classes, channels], wv(classes * channels, 0.3)).unwrap(),
    );
    let bl = store.push(
        "fc.bias",
        ParamKind::Bias,
        Tensor::from_vec([classes], wv(classes, 0.1)).unwrap(),
    );
    nodes.push(Node::unary(NodeOp::Linear { weight: wl, bias: Some(bl) }, cur));
    Model::new("random-small", nodes, store, vec![c_in, size, size]).unwrap()
}

/// A deterministic input batch for [`random_small_model`]`(seed)`.
pub fn random_small_input(seed: u64, model: &Model) -> Tensor {
    let dims = model.input_dims();
    let batch = 1 + (seed % 2) as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5f1);
    let shape = [batch, dims[0], dims[1], dims[2]];
    let len = batch * dims[0] * dims[1] * dims[2];
    Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-1.5f32..1.5)).collect()).unwrap()
}

/// The weight-fault forward oracle: asserts that the unfused incremental
/// re-execution (`forward_suffix` from `first_dirty`, which must be the
/// faulted parameter's node) and the plan's suffix pass as wide as
/// `cache`'s batch, over one golden cache per image (`cache`, `plan` and
/// those caches all from the golden `model`), reproduce the full
/// `Model::forward` of the faulted model bit for bit, and that the
/// converging plan pass — the single-unit probe armed by `dirty_unit`, the
/// node's golden-input lowering fed when its GEMM lowers per image —
/// observes the same faulty inference: bit-identical logits on divergence,
/// and on convergence dense logits that are bit-golden (so their
/// prediction is the golden one). Returns the dense logits.
pub fn assert_forward_equiv(
    model: &Model,
    faulty: &Model,
    plan: &CompiledPlan,
    first_dirty: usize,
    cache: &ActivationCache,
    dirty_unit: Option<usize>,
    ctx: &str,
) -> Tensor {
    let dense = faulty
        .forward_suffix(Some(first_dirty), cache, &[], &mut ForwardOptions::default())
        .unwrap();
    let full = faulty.forward(cache.get(0).unwrap()).unwrap();
    assert!(dense.bits_equal(&full), "{ctx}: suffix diverges from the full faulty forward");
    // Pre-lowered panels for the first dirty conv, exactly as the campaign
    // executor would feed them from the golden reference (lowered from the
    // node's *golden* input, which incremental re-execution hands it).
    let seed = first_dirty.max(1).min(faulty.nodes().len() - 1);
    let lowered = match &faulty.nodes()[seed].op {
        NodeOp::Conv { weight, cfg, .. } if plan.lowers_per_image(seed) => {
            let input = cache.get(faulty.nodes()[seed].inputs[0]).expect("prefix cached");
            let w = &faulty.store().get(*weight).unwrap().tensor;
            Some(ops::im2col_lower_batched(input, w, *cfg, None).unwrap())
        }
        _ => None,
    };
    let d = model.input_dims();
    let image = |x: &[f32]| Tensor::from_vec([1, d[0], d[1], d[2]], x.to_vec()).unwrap();
    let images = cache.get(0).unwrap().as_slice().chunks_exact(d.iter().product());
    let caches: Vec<_> = images.map(|x| model.forward_cached(&image(x)).unwrap()).collect();
    let mut arena = ScratchArena::new();
    let golden = cache.get(cache.len() - 1).unwrap();
    for (converge, dirty_unit) in [(false, None), (true, dirty_unit)] {
        let out = plan
            .weight_suffix(
                faulty,
                first_dirty,
                &caches,
                lowered.as_ref(),
                dirty_unit,
                converge,
                &mut arena,
            )
            .unwrap();
        // Image by image: a survivor's row bit-equals its dense row, and a
        // converged image's dense row is bit-golden.
        let classes = out.classes;
        let mut survivors = out.logits.chunks_exact(classes.max(1));
        for (img, converged_at) in out.converged_at.iter().enumerate() {
            let dense_row = &dense.as_slice()[img * classes..][..classes];
            match converged_at {
                None => assert_bits_equal(survivors.next().expect("survivor row"), dense_row),
                Some(at_node) => assert!(
                    converge
                        && dense_row
                            .iter()
                            .zip(&golden.as_slice()[img * classes..])
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{ctx}: plan pass spuriously converged image {img} at node {at_node}"
                ),
            }
        }
        assert!(survivors.next().is_none(), "{ctx}: extra logits rows");
    }
    dense
}

/// The delta oracle: strikes element `element` of node `node`'s golden
/// activation with `faulty_bits` and asserts that row-band delta
/// propagation (`forward_delta_site`, with and without a scratch arena)
/// observes exactly the inference of the dense patched suffix —
/// bit-identical logits on divergence, and on convergence dense logits
/// that are bit-golden. Returns the delta pass's outcome and work counters.
pub fn assert_site_delta_equiv(
    model: &Model,
    cache: &ActivationCache,
    node: usize,
    element: usize,
    faulty_bits: u32,
    ctx: &str,
) -> (ForwardOutcome, DeltaStats) {
    let tensor_bits = |a: &Tensor, b: &Tensor| -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let set = ActPatch { and_mask: 0, or_mask: faulty_bits, ..ActPatch::identity(node, element) };
    let dense = model.forward_suffix(None, cache, &[set], &mut ForwardOptions::default()).unwrap();
    let plan = CompiledPlan::compile(model, cache).unwrap();
    let mut arena = ScratchArena::new();
    let (delta_out, stats) = model
        .forward_delta_site(
            node,
            element,
            faulty_bits,
            cache,
            &mut DeltaOptions { arena: Some(&mut arena), plan: &plan },
        )
        .unwrap();
    match &delta_out {
        ForwardOutcome::Logits(l) => {
            assert!(tensor_bits(l, &dense), "{ctx}: delta logits diverge from dense bits");
        }
        ForwardOutcome::Converged { at_node } => {
            let golden = cache.get(cache.len() - 1).unwrap();
            assert!(
                tensor_bits(&dense, golden),
                "{ctx}: delta pass spuriously converged at node {at_node}"
            );
        }
    }
    // The pass must be arena-invariant: recycled dirty buffers cannot leak
    // into results.
    let (delta_plain, _) = model
        .forward_delta_site(node, element, faulty_bits, cache, &mut DeltaOptions::new(&plan))
        .unwrap();
    match (&delta_out, &delta_plain) {
        (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => {
            assert!(tensor_bits(a, b), "{ctx}: scratch arena changed the delta bits");
        }
        (a, b) => assert_eq!(a, b, "{ctx}: scratch arena changed the delta outcome"),
    }
    (delta_out, stats)
}
