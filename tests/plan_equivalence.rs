//! Differential harness pinning the compiled-plan execution path.
//!
//! The compiled plan re-expresses what the legacy forward passes derived
//! per call — topological step order, tensor lifetime, fusion, dispatch —
//! and runs the one weight-fault suffix pass, one image or all eval images
//! wide. Its contract is *bitwise* equivalence: on any graph and any
//! weight fault (NaN/Inf exponent flips included) the pass must reproduce
//! every per-image inference exactly at either width, and a campaign
//! classified through it must be byte-identical to the naive reference at
//! any worker count, for all three fault models. These properties are
//! what let `batched` default on without a checkpoint-fingerprint bump.

#[path = "common/fixtures.rs"]
mod fixtures;

use fixtures::{
    activation_space, campaign_world, micro_resnet, random_accumulated_faults, random_faults,
    random_small_model, random_transient_faults,
};
use proptest::prelude::*;
use sfi::faultsim::campaign::run_campaign;
use sfi::prelude::*;
use sfi_faultsim::fault::{FaultModel, FaultSite};
use sfi_faultsim::multi::AccumulatedFault;
use sfi_nn::resnet::ResNetConfig;
use sfi_nn::{ActPatch, CompiledPlan, DeltaOptions, ForwardOptions, ParamKind};
use sfi_nn::{ActivationCache, KernelPolicy, Model, NodeOp, SessionState};
use sfi_nn::{ForwardOutcome, NodeId};
use sfi_tensor::ops;
use sfi_tensor::{ScratchArena, Tensor};
use std::slice::from_ref;

/// ParamIds of every fault-injectable weight tensor in `model`.
fn weight_params(model: &Model) -> Vec<usize> {
    (0..model.store().len())
        .filter(|&p| matches!(model.store().get(p).unwrap().kind, ParamKind::Weight { .. }))
        .collect()
}

/// Per-image deterministic inputs for `model` (batch 1 each).
fn per_image_inputs(model: &Model, n: usize, seed: u64) -> Vec<Tensor> {
    let dims = model.input_dims();
    (0..n)
        .map(|img| {
            Tensor::from_fn([1, dims[0], dims[1], dims[2]], |i| {
                ((i as u64 * 37 + img as u64 * 101 + seed * 13) % 997) as f32 * 0.002 - 1.0
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The suffix pass E images wide over the per-image caches is
    /// bitwise-equal to the per-image unfused re-execution on random small
    /// conv/bn/relu/add/pool graphs under random single-bit weight faults —
    /// with guaranteed NaN/±Inf coverage on top of uniform flips — with and
    /// without the single-unit probe, the session's lowered panel of the
    /// chunk, and convergence checking. The same pass one image wide over
    /// each per-image cache, with the one-image lowering on and off,
    /// reports every image's convergence node and surviving logits bits
    /// exactly as the E-wide pass does.
    #[test]
    fn batched_suffix_is_bitwise_equal_on_random_graphs(
        seed in 0u64..1_000_000,
        param_pick in 0usize..8,
        elem_pick in 0usize..4096,
        bit in 0u32..32,
        force_special in 0u32..8,
    ) {
        let model = random_small_model(seed);
        let images = per_image_inputs(&model, 2 + (seed % 2) as usize, seed);
        let caches: Vec<_> =
            images.iter().map(|img| model.forward_cached(img).unwrap()).collect();
        let plan = CompiledPlan::compile(&model, &caches[0]).unwrap();

        let weights = weight_params(&model);
        let pid = weights[param_pick % weights.len()];
        let len = model.store().get(pid).unwrap().tensor.len();
        let idx = elem_pick % len;
        let mut faulty = model.clone();
        {
            let slot = &mut faulty.store_mut().get_mut(pid).unwrap().tensor.as_mut_slice()[idx];
            *slot = match force_special {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => f32::from_bits(slot.to_bits() ^ (1u32 << bit)),
            };
        }
        let first_dirty = model.node_of_param(pid).unwrap();
        let unit = model.param_output_unit(pid, idx);

        // The per-image reference: unfused incremental re-execution.
        let dense: Vec<Tensor> = caches
            .iter()
            .map(|c| {
                let opts = &mut ForwardOptions::default();
                faulty.forward_suffix(Some(first_dirty), c, &[], opts).unwrap()
            })
            .collect();

        // Golden im2col panels of the first dirty conv's input, at both
        // widths, as the campaign executor would feed them: the session
        // panel gathered from the chunk, and each image's own lowering.
        let node = &faulty.nodes()[first_dirty];
        let lower = |cache: &ActivationCache| match &node.op {
            NodeOp::Conv { weight, cfg, .. } if plan.is_lowerable_conv(first_dirty) => {
                let input = cache.get(node.inputs[0]).unwrap();
                let w = &faulty.store().get(*weight).unwrap().tensor;
                Some(ops::im2col_lower_batched(input, w, *cfg, None).unwrap())
            }
            _ => None,
        };
        let mut session = SessionState::new();
        let (_, lowered, _) =
            session.ensure_panel(&faulty, &plan, &caches, 0, first_dirty).unwrap();
        prop_assert_eq!(lowered.is_some(), plan.is_lowerable_conv(first_dirty));
        let lowered_1: Vec<_> = caches.iter().map(lower).collect();

        let mut arena = ScratchArena::new();
        for check_convergence in [false, true] {
            for (dirty_unit, tag) in [(unit, "probe"), (None, "dense-seed")] {
                for use_lowered in [lowered.is_some(), false] {
                    let ctx = format!(
                        "seed={seed} pid={pid} idx={idx} {tag} conv={check_convergence} \
                         lowered={use_lowered}"
                    );
                    let dirty_unit = if check_convergence { dirty_unit } else { None };
                    let out = plan
                        .weight_suffix(
                            &faulty,
                            first_dirty,
                            &caches,
                            if use_lowered { lowered } else { None },
                            dirty_unit,
                            check_convergence,
                            &mut arena,
                        )
                        .unwrap();
                    // Per image: a converged image is only sound if its
                    // dense inference is bit-golden; a survivor's logits
                    // row must bit-equal its dense inference.
                    let classes = out.classes;
                    prop_assert_eq!(out.converged_at.len(), images.len(), "{}", &ctx);
                    if !check_convergence {
                        prop_assert!(out.converged_at.iter().all(Option::is_none), "{}", &ctx);
                    }
                    let survivors = out.converged_at.iter().filter(|c| c.is_none()).count();
                    prop_assert_eq!(out.logits.len(), survivors * classes, "{}", &ctx);
                    let mut cursor = 0usize;
                    for (i, d) in dense.iter().enumerate() {
                        let row = match out.converged_at[i] {
                            Some(at_node) => {
                                let c = &caches[i];
                                let golden = c.get(c.len() - 1).unwrap();
                                prop_assert!(
                                    d.bits_equal(golden),
                                    "{} image {} spuriously converged at {}", &ctx, i, at_node
                                );
                                None
                            }
                            None => {
                                let row = &out.logits[cursor * classes..][..classes];
                                cursor += 1;
                                prop_assert_eq!(row.len(), d.len(), "{} image {}", &ctx, i);
                                for (a, b) in row.iter().zip(d.as_slice()) {
                                    prop_assert_eq!(
                                        a.to_bits(), b.to_bits(),
                                        "{} survivor image {} diverges", &ctx, i
                                    );
                                }
                                Some(row)
                            }
                        };
                        // The same pass one image wide.
                        let low = if use_lowered { lowered_1[i].as_ref() } else { None };
                        let one = plan
                            .weight_suffix(
                                &faulty,
                                first_dirty,
                                from_ref(&caches[i]),
                                low,
                                dirty_unit,
                                check_convergence,
                                &mut arena,
                            )
                            .unwrap();
                        prop_assert_eq!(
                            &one.converged_at, &vec![out.converged_at[i]],
                            "{} image {}: convergence differs across widths", &ctx, i
                        );
                        if let Some(row) = row {
                            prop_assert_eq!(one.logits.len(), row.len(), "{} image {}", &ctx, i);
                            for (a, b) in one.logits.iter().zip(row) {
                                prop_assert_eq!(
                                    a.to_bits(), b.to_bits(),
                                    "{} image {}: logits differ across widths", &ctx, i
                                );
                            }
                        }
                        arena.recycle(one.logits);
                    }
                    arena.recycle(out.logits);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign classifications and inference counts are identical with the
    /// batched engine on and off, at workers ∈ {1, 4, 8}, across the
    /// convergence/delta configuration matrix.
    #[test]
    fn batched_campaign_is_invisible_across_workers(
        fault_seed in 0u64..1_000_000,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 12);

        // The flag matrix below must demonstrably run on the register-tiled
        // microkernel layer, not on a naive-only dispatch: the batched
        // engine's interleaved panels (n = images * spatial) are exactly
        // the shapes the `micro` tier owns. Pin the dispatch decision for a
        // representative batched conv GEMM of this setup (c_out=4 x
        // k_len=36 x 2 images * 256 spatial) so a future threshold change
        // that silently drops the hot path back to naive fails here.
        prop_assert_eq!(ops::gemm_selected_kernel(4, 36, 2 * 256), "micro");

        let base = CampaignConfig {
            workers: 1,
            convergence: false,
            delta: false,
            batched: false,
            ..Default::default()
        };
        let reference = run_campaign(&model, &data, &golden, &faults, &base).unwrap();
        for workers in [1usize, 4, 8] {
            for (convergence, delta) in [(false, false), (true, false), (true, true)] {
                for batched in [false, true] {
                    let cfg = CampaignConfig {
                        workers,
                        convergence,
                        delta,
                        batched,
                        ..Default::default()
                    };
                    let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
                    prop_assert_eq!(
                        &res.classes, &reference.classes,
                        "workers={} convergence={} delta={} batched={}",
                        workers, convergence, delta, batched
                    );
                    prop_assert_eq!(
                        res.inferences, reference.inferences,
                        "workers={} convergence={} delta={} batched={}",
                        workers, convergence, delta, batched
                    );
                }
            }
        }
    }

    /// The `batched` flag is invisible on the transient and accumulated
    /// fault models too (their classification goes through the per-site
    /// paths, but the flag must not disturb them), at any worker count.
    #[test]
    fn batched_flag_is_invisible_on_transient_and_accumulated(
        fault_seed in 0u64..1_000_000,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let acts = activation_space(&model, &data);

        let transient: Vec<CampaignFault> = random_transient_faults(&acts, fault_seed, 6)
            .into_iter()
            .map(CampaignFault::Activation)
            .collect();
        let accumulated: Vec<CampaignFault> =
            random_accumulated_faults(&space, &acts, fault_seed, 3, 4)
                .into_iter()
                .map(CampaignFault::Accumulated)
                .collect();
        for (name, generic) in [("transient", transient), ("accumulated", accumulated)] {
            let base = CampaignConfig { workers: 1, batched: false, ..Default::default() };
            let reference = run_campaign(&model, &data, &golden, &generic, &base).unwrap();
            for workers in [1usize, 4, 8] {
                let cfg = CampaignConfig { workers, batched: true, ..Default::default() };
                let res = run_campaign(&model, &data, &golden, &generic, &cfg).unwrap();
                prop_assert_eq!(
                    &res.classes, &reference.classes,
                    "{} workers={}", name, workers
                );
                prop_assert_eq!(
                    res.inferences, reference.inferences,
                    "{} workers={}", name, workers
                );
            }
        }
    }
}

/// The depthwise fast kernel is invisible at model level. On MobileNetV2,
/// whose depthwise convolutions run from 16x16 down to 2x2 planes at
/// strides 1 and 2, a forward pass under `KernelPolicy::Fast` (without and
/// with a reused arena) is bit-identical to `KernelPolicy::Naive`, whose
/// convs run the scalar per-output depthwise loop; and a weight campaign
/// classifies identically under both policies, in classes and inference
/// counts, at workers 1 and 4.
#[test]
fn depthwise_kernel_is_invisible_on_mobilenet() {
    let model = MobileNetV2Config::cifar_micro().build_seeded(5).unwrap();
    let (data, golden) = campaign_world(&model, model.input_dims()[1], 2);
    let mut arena = ScratchArena::new();
    for img in 0..data.len() {
        let x = data.image(img);
        let naive = model
            .forward_with(
                x,
                &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() },
            )
            .unwrap();
        let fast = model.forward_with(x, &mut ForwardOptions::default()).unwrap();
        assert!(naive.bits_equal(&fast), "image {img}: fast forward diverged");
        for round in 0..2 {
            let with_arena = model
                .forward_with(
                    x,
                    &mut ForwardOptions { arena: Some(&mut arena), ..Default::default() },
                )
                .unwrap();
            assert!(naive.bits_equal(&with_arena), "image {img}: arena round {round} diverged");
        }
    }

    let faults = random_faults(&FaultSpace::stuck_at(&model), 11, 32);
    let naive_cfg =
        CampaignConfig { kernel: KernelPolicy::Naive, workers: 1, ..Default::default() };
    let reference = run_campaign(&model, &data, &golden, &faults, &naive_cfg).unwrap();
    for workers in [1usize, 4] {
        for kernel in [KernelPolicy::Naive, KernelPolicy::Fast] {
            let cfg = CampaignConfig { kernel, workers, ..Default::default() };
            let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
            assert_eq!(res.classes, reference.classes, "{kernel:?} workers={workers}");
            assert_eq!(res.inferences, reference.inferences, "{kernel:?} workers={workers}");
        }
    }
}

/// Bit-flip weight faults on the first `n` weights of `layer`.
fn layer_faults(layer: usize, bit: u8, n: usize) -> Vec<Fault> {
    (0..n)
        .map(|w| Fault { site: FaultSite { layer, weight: w, bit }, model: FaultModel::BitFlip })
        .collect()
}

/// The golden-panel soundness rule, end to end: a faulted conv always
/// packs its live weights, and accumulated multi-layer faults never read
/// golden panels. Weight campaigns with faults in the first conv, a middle
/// (pointwise, where the model has any) conv and the last conv classify
/// identically — classes and inference counts — under `KernelPolicy::Fast`
/// with golden panels and under `KernelPolicy::Naive`, at workers 1, 4 and
/// 8, with convergence on and off (off runs the faulted node's full conv
/// instead of the single-unit probe) and batched on and off. An
/// accumulated campaign pairs a small-mantissa fault in one panelled layer
/// with an exponent fault in a deeper panelled one. At base width 2 every
/// ResNet-20 conv GEMM sits below the register-tiled tier's floor, so
/// `resnet20_micro` holds no panels; the width-8 variant does.
#[test]
fn faulted_node_never_reads_its_golden_panel() {
    let models = [
        ("mobilenetv2-micro", MobileNetV2Config::cifar_micro().build_seeded(5).unwrap(), true),
        ("resnet20-micro", micro_resnet(3), false),
        (
            "resnet20-micro-w8",
            ResNetConfig::resnet20_micro().with_width(8).build_seeded(3).unwrap(),
            true,
        ),
    ];
    for (name, model, expect_panels) in models {
        let (data, golden) = campaign_world(&model, model.input_dims()[1], 2);
        let layers = model.weight_layers();
        let node_of = |l: usize| model.node_of_param(layers[l].param).unwrap();
        let conv_kernel = |l: usize| match &model.nodes()[node_of(l)].op {
            NodeOp::Conv { weight, cfg, .. } => {
                Some((model.store().get(*weight).unwrap().tensor.shape().h(), cfg.groups))
            }
            _ => None,
        };
        let convs: Vec<usize> = (0..layers.len()).filter(|&l| conv_kernel(l).is_some()).collect();
        let panelled: Vec<usize> = convs
            .iter()
            .copied()
            .filter(|&l| golden.plan().panels().get(node_of(l)).is_some())
            .collect();
        assert_eq!(!panelled.is_empty(), expect_panels, "{name}: panelled layers {panelled:?}");
        let (first, last) = (convs[0], *convs.last().unwrap());
        // A middle conv: the panelled pointwise one nearest the middle,
        // else any panelled one, else the middle conv.
        let pointwise: Vec<usize> =
            panelled.iter().copied().filter(|&l| conv_kernel(l) == Some((1, 1))).collect();
        let pool = [&pointwise, &panelled, &convs].into_iter().find(|p| !p.is_empty()).unwrap();
        let middle = pool[pool.len() / 2];
        if expect_panels {
            assert!(panelled.contains(&middle), "{name}: middle layer {middle} has no panel");
        }

        // Engine level, bit for bit: with an exponent flip in the faulted
        // layer, the unfused suffix over golden panels and the plan's
        // suffix pass one image and E images wide reproduce the naive
        // per-image logits. A transient strike on the
        // layer's output leaves every weight golden, so the delta engine
        // (every node dense) reads every panel and must reproduce the naive
        // patched suffix.
        let plan = golden.plan();
        let mut arena = ScratchArena::new();
        for layer in [first, middle, last] {
            let node = node_of(layer);
            let mut faulty = model.clone();
            let w = &mut faulty.store_mut().get_mut(layers[layer].param).unwrap().tensor;
            w.as_mut_slice()[0] = f32::from_bits(w.as_slice()[0].to_bits() ^ (1 << 30));
            let mut rows = Vec::new();
            for img in 0..data.len() {
                let cache = golden.cache(img);
                let naive_opts =
                    &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() };
                let naive = faulty.forward_suffix(Some(node), cache, &[], naive_opts).unwrap();
                let fast_opts = &mut ForwardOptions {
                    arena: Some(&mut arena),
                    plan: Some(plan),
                    ..Default::default()
                };
                let fast = faulty.forward_suffix(Some(node), cache, &[], fast_opts).unwrap();
                assert!(naive.bits_equal(&fast), "{name} L{layer} unfused");
                let one = plan.weight_suffix(
                    &faulty,
                    node,
                    from_ref(cache),
                    None,
                    None,
                    false,
                    &mut arena,
                );
                fixtures::assert_bits_equal(naive.as_slice(), &one.unwrap().logits);
                let strike = ActPatch { xor_mask: 1 << 30, ..ActPatch::identity(node, 0) };
                let naive_opts =
                    &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() };
                let struck = model.forward_suffix(None, cache, &[strike], naive_opts).unwrap();
                let delta_opts = &mut DeltaOptions { arena: Some(&mut arena), plan };
                let bits = strike.apply_bits(cache.get(node).unwrap().as_slice()[0].to_bits());
                let (delta, _) =
                    model.forward_delta_site(node, 0, bits, cache, delta_opts).unwrap();
                assert!(struck.bits_equal(&delta.into_logits(cache)), "{name} L{layer} delta");
                rows.extend_from_slice(naive.as_slice());
            }
            let caches = golden.caches();
            let batched =
                plan.weight_suffix(&faulty, node, caches, None, None, false, &mut arena).unwrap();
            fixtures::assert_bits_equal(&rows, &batched.logits);
        }

        let mut faults = Vec::new();
        for layer in [first, middle, last] {
            faults.extend(layer_faults(layer, 30, 3));
            faults.extend(layer_faults(layer, 22, 2));
        }
        let naive_cfg =
            CampaignConfig { kernel: KernelPolicy::Naive, workers: 1, ..Default::default() };
        let reference = run_campaign(&model, &data, &golden, &faults, &naive_cfg).unwrap();
        for workers in [1usize, 4, 8] {
            for convergence in [false, true] {
                for batched in [false, true] {
                    let cfg =
                        CampaignConfig { workers, convergence, batched, ..Default::default() };
                    let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
                    let ctx = format!(
                        "{name} workers={workers} convergence={convergence} batched={batched}"
                    );
                    assert_eq!(res.classes, reference.classes, "{ctx}");
                    assert_eq!(res.inferences, reference.inferences, "{ctx}");
                }
            }
        }

        // Two weight faults in different panelled layers: a low mantissa
        // flip in the shallower one, an exponent flip in the deeper one.
        let (shallow, deep) = match panelled.as_slice() {
            [a, .., b] => (*a, *b),
            _ => (first, last),
        };
        let accumulated: Vec<CampaignFault> = layer_faults(shallow, 0, 3)
            .into_iter()
            .zip(layer_faults(deep, 30, 3))
            .map(|(a, b)| {
                let weights = vec![a, b];
                CampaignFault::Accumulated(AccumulatedFault { weights, activations: Vec::new() })
            })
            .collect();
        let reference = run_campaign(&model, &data, &golden, &accumulated, &naive_cfg).unwrap();
        for workers in [1usize, 4, 8] {
            let cfg = CampaignConfig { workers, ..Default::default() };
            let res = run_campaign(&model, &data, &golden, &accumulated, &cfg).unwrap();
            assert_eq!(res.classes, reference.classes, "{name} accumulated workers={workers}");
            assert_eq!(
                res.inferences, reference.inferences,
                "{name} accumulated workers={workers}"
            );
        }
    }
}

/// The in-place rule is invisible end to end. On `cifar_micro` and the
/// width-8 `resnet20_micro` the rule sends at least one conv each way (in
/// place, and through an im2col buffer), and weight campaigns with faults
/// in an in-place conv, a non-strided conv kept on the im2col path and a
/// strided conv (depthwise on MobileNetV2) classify identically — classes and inference counts —
/// under `KernelPolicy::Fast` (session lowering panels, golden panels) and
/// `KernelPolicy::Naive`, at workers 1, 4 and 8, with convergence (and
/// with it the single-channel probe) on and off and batched on and off.
#[test]
fn in_place_convs_are_invisible_in_campaigns() {
    let models = [
        ("mobilenetv2-micro", MobileNetV2Config::cifar_micro().build_seeded(5).unwrap()),
        (
            "resnet20-micro-w8",
            ResNetConfig::resnet20_micro().with_width(8).build_seeded(3).unwrap(),
        ),
    ];
    for (name, model) in models {
        let (data, golden) = campaign_world(&model, model.input_dims()[1], 2);
        let plan = golden.plan();
        let layers = model.weight_layers();
        let node_of = |l: usize| model.node_of_param(layers[l].param).unwrap();
        let stride_of = |l: usize| match &model.nodes()[node_of(l)].op {
            NodeOp::Conv { cfg, .. } => Some(cfg.stride),
            _ => None,
        };
        let gemm_convs: Vec<usize> = (0..layers.len())
            .filter(|&l| stride_of(l).is_some() && plan.is_lowerable_conv(node_of(l)))
            .collect();
        let in_place: Vec<usize> =
            gemm_convs.iter().copied().filter(|&l| plan.reads_in_place(node_of(l))).collect();
        let packed: Vec<usize> = gemm_convs
            .iter()
            .copied()
            .filter(|&l| !plan.reads_in_place(node_of(l)) && stride_of(l) == Some(1))
            .collect();
        // MobileNetV2's strided convs are all depthwise.
        let strided = (0..layers.len()).find(|&l| stride_of(l).is_some_and(|s| s != 1));
        assert!(!in_place.is_empty(), "{name}: the rule reads no conv in place");
        assert!(!packed.is_empty(), "{name}: the rule keeps no stride-1 conv on im2col");
        let strided = strided.unwrap_or_else(|| panic!("{name}: no strided conv"));
        // One image wide, a faulted in-place conv gets no lowering panel.
        let mut session = SessionState::new();
        let mut panel_of = |l: usize| {
            let image = &golden.caches()[..1];
            let (_, panel, _) = session.ensure_panel(&model, plan, image, 0, node_of(l)).unwrap();
            panel.is_some()
        };
        for &l in &in_place {
            assert!(!plan.lowers_per_image(node_of(l)), "{name}: L{l} lowered in place");
            assert!(!panel_of(l), "{name}: L{l} has a one-image panel");
        }
        assert!(plan.lowers_per_image(node_of(packed[0])), "{name}: packed not lowered");
        assert!(panel_of(packed[0]), "{name}: packed has no one-image panel");

        let mut faults = Vec::new();
        for layer in [in_place[in_place.len() / 2], packed[packed.len() / 2], strided] {
            faults.extend(layer_faults(layer, 30, 3));
            faults.extend(layer_faults(layer, 22, 2));
            faults.extend(layer_faults(layer, 1, 1));
        }
        let naive_cfg =
            CampaignConfig { kernel: KernelPolicy::Naive, workers: 1, ..Default::default() };
        let reference = run_campaign(&model, &data, &golden, &faults, &naive_cfg).unwrap();
        for workers in [1usize, 4, 8] {
            for convergence in [false, true] {
                for batched in [false, true] {
                    let cfg =
                        CampaignConfig { workers, convergence, batched, ..Default::default() };
                    let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
                    let ctx = format!(
                        "{name} workers={workers} convergence={convergence} batched={batched}"
                    );
                    assert_eq!(res.classes, reference.classes, "{ctx}");
                    assert_eq!(res.inferences, reference.inferences, "{ctx}");
                }
            }
        }
    }
}

/// The dense weight-fault suffix on the plan's schedule — fused conv and
/// depthwise groups, convergence at group outputs, last-reader recycling —
/// is invisible end to end. On `cifar_micro` and the width-8
/// `resnet20_micro`, faults in a group with an activation (an expansion,
/// or a block's first conv), a depthwise group, a group without an
/// activation (a projection, or a block's second conv) and the last conv
/// reproduce the naive per-image logits bit for bit, and classify
/// identically — classes and inference counts — under `KernelPolicy::Fast`
/// and `KernelPolicy::Naive`, at workers 1, 4 and 8, with convergence on
/// and off and batched on and off.
#[test]
fn fused_dense_suffix_is_invisible_in_campaigns() {
    let models = [
        ("mobilenetv2-micro", MobileNetV2Config::cifar_micro().build_seeded(5).unwrap()),
        (
            "resnet20-micro-w8",
            ResNetConfig::resnet20_micro().with_width(8).build_seeded(3).unwrap(),
        ),
    ];
    for (name, model) in models {
        let (data, golden) = campaign_world(&model, model.input_dims()[1], 2);
        let plan = golden.plan();
        let layers = model.weight_layers();
        let node_of = |l: usize| model.node_of_param(layers[l].param).unwrap();
        let convs: Vec<usize> = (0..layers.len())
            .filter(|&l| matches!(model.nodes()[node_of(l)].op, NodeOp::Conv { .. }))
            .collect();
        // Each conv's group output, and whether the conv is depthwise.
        let group_of = |l: usize| {
            let (out, _) = plan.fused_at(node_of(l)).expect("every conv heads a group");
            let NodeOp::Conv { cfg, .. } = model.nodes()[node_of(l)].op else { unreachable!() };
            (model.nodes()[out].op.clone(), cfg.groups > 1)
        };
        let activated = |l: usize| {
            let (op, depthwise) = group_of(l);
            !depthwise && matches!(op, NodeOp::Relu | NodeOp::Relu6)
        };
        let with_act = *convs.iter().skip(1).find(|&&l| activated(l)).unwrap();
        let no_act = *convs
            .iter()
            .find(|&&l| matches!(group_of(l).0, NodeOp::BatchNorm { .. }))
            .unwrap_or_else(|| panic!("{name}: no group without an activation"));
        let last = *convs.last().unwrap();
        let mut picked = vec![with_act, no_act, last];
        if let Some(&depthwise) = convs.iter().find(|&&l| group_of(l).1) {
            assert!(matches!(group_of(depthwise).0, NodeOp::Relu6), "{name}: depthwise group");
            picked.push(depthwise);
        }

        let mut arena = ScratchArena::new();
        for &layer in &picked {
            let node = node_of(layer);
            let mut faulty = model.clone();
            let w = &mut faulty.store_mut().get_mut(layers[layer].param).unwrap().tensor;
            w.as_mut_slice()[0] = f32::from_bits(w.as_slice()[0].to_bits() ^ (1 << 30));
            for img in 0..data.len() {
                let cache = golden.cache(img);
                let naive_opts =
                    &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() };
                let naive = faulty.forward_suffix(Some(node), cache, &[], naive_opts).unwrap();
                let fast = plan
                    .weight_suffix(&faulty, node, from_ref(cache), None, None, false, &mut arena)
                    .unwrap();
                assert_eq!(fast.converged_at, [None], "{name} L{layer} image {img}");
                fixtures::assert_bits_equal(naive.as_slice(), &fast.logits);
            }
        }

        let mut faults = Vec::new();
        for &layer in &picked {
            faults.extend(layer_faults(layer, 30, 3));
            faults.extend(layer_faults(layer, 22, 2));
            faults.extend(layer_faults(layer, 1, 1));
        }
        let naive_cfg =
            CampaignConfig { kernel: KernelPolicy::Naive, workers: 1, ..Default::default() };
        let reference = run_campaign(&model, &data, &golden, &faults, &naive_cfg).unwrap();
        for workers in [1usize, 4, 8] {
            for convergence in [false, true] {
                for batched in [false, true] {
                    let cfg =
                        CampaignConfig { workers, convergence, batched, ..Default::default() };
                    let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
                    let ctx = format!(
                        "{name} workers={workers} convergence={convergence} batched={batched}"
                    );
                    assert_eq!(res.classes, reference.classes, "{ctx}");
                    assert_eq!(res.inferences, reference.inferences, "{ctx}");
                }
            }
        }
    }
}

/// Last-reader recycling keeps the suffix pass allocation-free: after a
/// warm-up fault, a MobileNetV2 weight-fault suffix one image wide serves
/// every arena request from a recycled buffer, with and without the
/// convergence check (and the single-unit probe it arms).
#[test]
fn fused_dense_suffix_allocates_nothing_after_warm_up() {
    let model = MobileNetV2Config::cifar_micro().build_seeded(5).unwrap();
    let (_, golden) = campaign_world(&model, model.input_dims()[1], 1);
    let caches = golden.caches();
    let layers = model.weight_layers();
    let param = layers[1].param;
    let first = model.node_of_param(param).unwrap();
    let unit = model.param_output_unit(param, 0);
    let mut session = SessionState::new();
    let pass = |session: &mut SessionState, bit: u32, converge: bool| {
        let mut faulty = model.clone();
        let w = &mut faulty.store_mut().get_mut(param).unwrap().tensor;
        w.as_mut_slice()[0] = f32::from_bits(w.as_slice()[0].to_bits() ^ (1 << bit));
        let plan = golden.plan();
        let (arena, lowered, _) = session.ensure_panel(&faulty, plan, caches, 0, first).unwrap();
        let dirty_unit = unit.filter(|_| converge);
        let out = plan
            .weight_suffix(&faulty, first, caches, lowered, dirty_unit, converge, arena)
            .unwrap();
        arena.recycle(out.logits);
    };
    for converge in [false, true] {
        pass(&mut session, 30, converge);
        let before = session.arena.stats();
        pass(&mut session, 29, converge);
        let after = session.arena.stats();
        let takes = after.takes - before.takes;
        assert!(takes > 0, "converge={converge}: the suffix draws its buffers from the arena");
        assert_eq!(
            takes,
            after.reuses - before.reuses,
            "converge={converge}: a warm suffix allocates nothing new"
        );
    }
}

/// Every conv of `resnet20_micro` runs the direct small-plane kernel
/// (`ops::conv2d_small_plane`), at either width of the suffix pass. For an
/// exponent flip, a mid-mantissa flip and a sign flip in each of its conv
/// and linear layers, the pass four images wide reproduces each image's
/// one-image pass bit for bit — convergence node and surviving logits —
/// and both match the naive per-image suffix, with the convergence check
/// off, on with the single-unit probe, and on with the first dirty conv's
/// cached lowering. Then, after one warm-up fault, a second four-image
/// pass through every small-plane conv takes all its arena buffers from
/// the free list, with and without the convergence check; so does a warm
/// converging pass whose images drop out before a residual `Add` gathers
/// the survivors' golden rows.
#[test]
fn small_plane_suffix_matches_across_widths_on_resnet20_micro() {
    const E: usize = 4;
    let model = micro_resnet(3);
    let (_, golden) = campaign_world(&model, model.input_dims()[1], E);
    let plan = golden.plan();
    let caches = golden.caches();
    assert_eq!(caches.len(), E);
    let param = |p: usize| &model.store().get(p).unwrap().tensor;
    let mut convs = 0;
    for (id, node) in model.nodes().iter().enumerate() {
        if let NodeOp::Conv { weight, cfg, .. } = &node.op {
            let x = caches[0].get(node.inputs[0]).unwrap();
            assert!(ops::conv2d_small_plane(x, param(*weight), *cfg), "conv node {id}");
            convs += 1;
        }
    }
    assert!(convs >= 19, "resnet20_micro has {convs} convs");

    let lower =
        |faulty: &Model, node: NodeId, cache: &ActivationCache| match &faulty.nodes()[node].op {
            NodeOp::Conv { weight, cfg, .. } if plan.is_lowerable_conv(node) => {
                let input = cache.get(faulty.nodes()[node].inputs[0]).unwrap();
                let w = &faulty.store().get(*weight).unwrap().tensor;
                Some(ops::im2col_lower_batched(input, w, *cfg, None).unwrap())
            }
            _ => None,
        };
    let mut arena = ScratchArena::new();
    let mut session = SessionState::new();
    for layer in model.weight_layers() {
        let node = model.node_of_param(layer.param).unwrap();
        let len = param(layer.param).len();
        for (bit, idx) in [(30u32, 0usize), (19, len / 2), (31, len - 1)] {
            let mut faulty = model.clone();
            let w = &mut faulty.store_mut().get_mut(layer.param).unwrap().tensor;
            w.as_mut_slice()[idx] = f32::from_bits(w.as_slice()[idx].to_bits() ^ (1 << bit));
            let unit = model.param_output_unit(layer.param, idx);
            let naive: Vec<Tensor> = (0..E)
                .map(|img| {
                    let opts =
                        &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() };
                    faulty.forward_suffix(Some(node), golden.cache(img), &[], opts).unwrap()
                })
                .collect();
            let (_, wide_low, _) = session.ensure_panel(&faulty, plan, caches, 0, node).unwrap();
            for (converge, use_low) in [(false, false), (true, false), (true, true)] {
                let ctx =
                    format!("node {node} idx {idx} bit {bit} converge={converge} low={use_low}");
                let dirty_unit = unit.filter(|_| converge);
                let low = wide_low.filter(|_| use_low);
                let wide = plan
                    .weight_suffix(&faulty, node, caches, low, dirty_unit, converge, &mut arena)
                    .unwrap();
                let classes = wide.classes;
                let mut cursor = 0;
                for (img, want) in naive.iter().enumerate() {
                    let cache = golden.cache(img);
                    let low_1 = lower(&faulty, node, cache).filter(|_| use_low);
                    let one = plan
                        .weight_suffix(
                            &faulty,
                            node,
                            from_ref(cache),
                            low_1.as_ref(),
                            dirty_unit,
                            converge,
                            &mut arena,
                        )
                        .unwrap();
                    assert_eq!(one.converged_at, vec![wide.converged_at[img]], "{ctx} image {img}");
                    match wide.converged_at[img] {
                        Some(_) => {
                            let out = cache.get(cache.len() - 1).unwrap();
                            assert!(want.bits_equal(out), "{ctx} image {img} converged spuriously");
                        }
                        None => {
                            let row = &wide.logits[cursor * classes..][..classes];
                            cursor += 1;
                            fixtures::assert_bits_equal(want.as_slice(), row);
                            fixtures::assert_bits_equal(want.as_slice(), &one.logits);
                        }
                    }
                    arena.recycle(one.logits);
                }
                assert_eq!(wide.logits.len(), cursor * classes, "{ctx}");
                arena.recycle(wide.logits);
            }
        }
    }

    // The first stage's first conv: its suffix runs every later conv. The
    // flip of its weight 16's lowest bit drops images out of a converging
    // pass before the block's residual `Add`, which then gathers the
    // survivors' rows of the block's golden input.
    let layer = model.weight_layers()[1].clone();
    let first = model.node_of_param(layer.param).unwrap();
    let pass = |arena: &mut ScratchArena, (idx, bit): (usize, u32), converge: bool| {
        let mut faulty = model.clone();
        let w = &mut faulty.store_mut().get_mut(layer.param).unwrap().tensor;
        w.as_mut_slice()[idx] = f32::from_bits(w.as_slice()[idx].to_bits() ^ (1 << bit));
        let dirty_unit = model.param_output_unit(layer.param, idx).filter(|_| converge);
        let out =
            plan.weight_suffix(&faulty, first, caches, None, dirty_unit, converge, arena).unwrap();
        arena.recycle(out.logits);
        out.converged_at
    };
    let nodes = model.nodes();
    let add = (first + 1..nodes.len())
        .find(|&id| {
            matches!(nodes[id].op, NodeOp::Add) && nodes[id].inputs.iter().any(|&i| i < first)
        })
        .expect("the first block's shortcut reads its golden input");
    for (warm, fault, converge) in
        [((0, 30), (0, 29), false), ((0, 30), (0, 29), true), ((16, 0), (16, 0), true)]
    {
        let ctx = format!("fault {fault:?} converge={converge}");
        let mut arena = ScratchArena::new();
        pass(&mut arena, warm, converge);
        let before = arena.stats();
        let converged_at = pass(&mut arena, fault, converge);
        let after = arena.stats();
        let takes = after.takes - before.takes;
        assert!(takes > 0, "{ctx}: the suffix draws its buffers from the arena");
        assert_eq!(takes, after.reuses - before.reuses, "{ctx}: a warm pass allocates nothing new");
        if fault == (16, 0) {
            let dropped = converged_at.iter().any(|c| c.is_some_and(|at| at < add));
            let reached = converged_at.iter().any(|c| c.is_none_or(|at| at > add));
            assert!(dropped && reached, "{ctx}: images must split at the Add: {converged_at:?}");
        }
    }
}

/// One site per stage of `model`: the middle element of the first conv
/// output at each plane size, plus the input.
fn stage_sites(model: &Model, cache: &ActivationCache) -> Vec<(NodeId, usize)> {
    let mut sites = vec![(0, cache.get(0).unwrap().len() / 2)];
    let mut sides = Vec::new();
    for (id, node) in model.nodes().iter().enumerate() {
        let out = cache.get(id).unwrap();
        if matches!(node.op, NodeOp::Conv { .. }) && !sides.contains(&out.shape().h()) {
            sides.push(out.shape().h());
            sites.push((id, out.len() / 2 + 1));
        }
    }
    sites
}

/// The elements struck in node `node`'s activation: its element at a third
/// of its length, and for a rank-4 activation one element in its top row,
/// one in its bottom row and one in its middle row.
fn strike_elements(cache: &ActivationCache, node: NodeId) -> Vec<usize> {
    let t = cache.get(node).unwrap();
    let mut elements = vec![t.len() / 3];
    if t.shape().rank() == 4 {
        let (c, h, w) = (t.shape().c(), t.shape().h(), t.shape().w());
        let at = |y: usize| ((c / 2) * h + y) * w + w / 2;
        elements.extend([at(0), at(h - 1), at(h / 2)]);
    }
    elements
}

/// Node `node`'s activation under `strike`, through the naive patched
/// suffix of the model cut after `node`.
fn naive_activation(model: &Model, input: &Tensor, strike: ActPatch, node: NodeId) -> Tensor {
    let nodes = model.nodes()[..=node].to_vec();
    let prefix =
        Model::new("prefix", nodes, model.store().clone(), model.input_dims().to_vec()).unwrap();
    let cache = prefix.forward_cached(input).unwrap();
    let naive_opts = &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() };
    prefix.forward_suffix(None, &cache, &[strike], naive_opts).unwrap()
}

/// The plan's transient delta pass is the naive patched suffix: on
/// `resnet20_micro` (width 8) and `cifar_micro`, a strike on every node
/// (the input included) at two bits — at a third of the activation, and
/// in its top, bottom and middle rows — reproduces the naive per-image
/// logits bit for bit (fusion groups whole, convs over the row bands their
/// inputs reach). A pass converges exactly when the naive logits are
/// golden, and at a node whose naive activation is golden. On ResNet-20
/// some dense conv computes fewer rows than its full height.
#[test]
fn transient_delta_on_the_plan_matches_the_naive_patched_suffix() {
    let models = [
        ("mobilenetv2-micro", MobileNetV2Config::cifar_micro().build_seeded(5).unwrap()),
        (
            "resnet20-micro-w8",
            ResNetConfig::resnet20_micro().with_width(8).build_seeded(3).unwrap(),
        ),
    ];
    for (name, model) in models {
        let (_, golden) = campaign_world(&model, model.input_dims()[1], 1);
        let (cache, plan) = (golden.cache(0), golden.plan());
        let golden_logits = cache.get(cache.len() - 1).unwrap();
        let mut arena = ScratchArena::new();
        let (mut converged, mut banded) = (0, 0);
        for node in 0..model.nodes().len() {
            for element in strike_elements(cache, node) {
                for bit in [30u32, 22] {
                    let strike =
                        ActPatch { xor_mask: 1 << bit, ..ActPatch::identity(node, element) };
                    let naive_opts =
                        &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() };
                    let naive = model.forward_suffix(None, cache, &[strike], naive_opts).unwrap();
                    let bits =
                        strike.apply_bits(cache.get(node).unwrap().as_slice()[element].to_bits());
                    let ctx = format!("{name} node {node}[{element}] bit {bit}");
                    let opts = &mut DeltaOptions { arena: Some(&mut arena), plan };
                    let (out, stats) =
                        model.forward_delta_site(node, element, bits, cache, opts).unwrap();
                    assert!(stats.conv_rows <= stats.conv_rows_full, "{ctx}: {stats:?}");
                    banded += usize::from(stats.conv_rows < stats.conv_rows_full);
                    match out {
                        ForwardOutcome::Logits(l) => {
                            assert!(!naive.bits_equal(golden_logits), "{ctx}: no convergence");
                            fixtures::assert_bits_equal(naive.as_slice(), l.as_slice());
                        }
                        ForwardOutcome::Converged { at_node } => {
                            converged += 1;
                            assert!(
                                naive.bits_equal(golden_logits),
                                "{ctx}: converged at node {at_node} off golden logits"
                            );
                            let input = cache.get(0).unwrap();
                            let at = naive_activation(&model, input, strike, at_node);
                            assert!(
                                at.bits_equal(cache.get(at_node).unwrap()),
                                "{ctx}: converged at node {at_node} off its golden activation"
                            );
                        }
                    }
                }
            }
        }
        assert!(converged > 0, "{name}: some strike is masked");
        if name.starts_with("resnet20") {
            assert!(banded > 0, "{name}: some dense conv ran on a row band");
        }
    }
}

/// Last-reader recycling keeps the transient delta pass allocation-free:
/// after one warm-up strike on the input of `resnet20_micro`, strikes in
/// every stage (the input again, and each stage's first conv output)
/// serve every arena request from a recycled buffer.
#[test]
fn transient_delta_allocates_nothing_after_warm_up() {
    let model = ResNetConfig::resnet20_micro().build_seeded(7).unwrap();
    let (_, golden) = campaign_world(&model, model.input_dims()[1], 1);
    let (cache, plan) = (golden.cache(0), golden.plan());
    let sites = stage_sites(&model, cache);
    assert_eq!(sites.len(), 4, "the input and three stages");
    let strike = |arena: &mut ScratchArena, (node, element): (NodeId, usize)| {
        let bits = cache.get(node).unwrap().as_slice()[element].to_bits() ^ (1 << 30);
        let opts = &mut DeltaOptions { arena: Some(arena), plan };
        model.forward_delta_site(node, element, bits, cache, opts).unwrap();
    };
    let mut arena = ScratchArena::new();
    strike(&mut arena, sites[0]);
    let before = arena.stats();
    for &site in &sites {
        strike(&mut arena, site);
    }
    let after = arena.stats();
    let takes = after.takes - before.takes;
    assert!(takes > 0, "the pass draws its buffers from the arena");
    assert_eq!(takes, after.reuses - before.reuses, "a warm pass allocates nothing new");
}
