//! Differential harness pinning the row-band delta-propagation path and the
//! per-image suffix passes it is checked against.
//!
//! The delta engine's contract is *bitwise* equivalence: on any graph and
//! any single-element strike — including NaN/Inf values —
//! `forward_delta_site` must observe exactly the inference the dense
//! patched suffix observes, and a campaign classified through it must be
//! byte-identical to the no-early-exit and golden-convergence paths at any
//! worker count. These properties are what let `delta` default on without
//! a fingerprint bump. Weight faults never take the delta engine; their
//! dense and converging suffix passes are pinned here on the same random
//! graphs.

#[path = "common/fixtures.rs"]
mod fixtures;

use fixtures::{
    activation_space, assert_forward_equiv, assert_site_delta_equiv, assert_site_forward_equiv,
    campaign_world, input_space, micro_resnet, random_accumulated_faults, random_faults,
    random_small_input, random_small_model, random_transient_faults, tiny_resnet, unique_tmp_dir,
};
use proptest::prelude::*;
use sfi::faultsim::campaign::run_campaign;
use sfi::prelude::*;
use sfi_nn::{CompiledPlan, ParamKind};

/// ParamIds of every fault-injectable weight tensor in `model`.
fn weight_params(model: &Model) -> Vec<usize> {
    (0..model.store().len())
        .filter(|&p| matches!(model.store().get(p).unwrap().kind, ParamKind::Weight { .. }))
        .collect()
}

/// Everything of an [`SfiOutcome`] except wall-clock durations.
fn fingerprint(outcome: &SfiOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        outcome.scheme(),
        outcome.strata().to_vec(),
        outcome
            .stratum_telemetry()
            .iter()
            .map(|t| {
                (t.injections, t.inferences, t.masked, t.critical, t.non_critical, t.exec_failures)
            })
            .collect::<Vec<_>>(),
        outcome.layer_tallies().to_vec(),
        outcome.injections(),
        outcome.inferences(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `forward_delta_site` is bitwise-equal to the dense patched
    /// `forward_suffix` on random small conv/bn/relu/add/pool graphs under
    /// random single-element strikes on any node (the input included) —
    /// with guaranteed NaN/±Inf coverage on top of uniform single-bit
    /// flips.
    #[test]
    fn delta_is_bitwise_equal_on_random_graphs(
        seed in 0u64..1_000_000,
        node_pick in 0usize..16,
        elem_pick in 0usize..4096,
        bit in 0u32..32,
        force_special in 0u32..8,
    ) {
        let model = random_small_model(seed);
        let input = random_small_input(seed, &model);
        let cache = model.forward_cached(&input).unwrap();

        let node = node_pick % model.nodes().len();
        let golden = cache.get(node).unwrap().as_slice();
        let element = elem_pick % golden.len();
        let faulty_bits = match force_special {
            0 => f32::NAN.to_bits(),
            1 => f32::INFINITY.to_bits(),
            2 => f32::NEG_INFINITY.to_bits(),
            _ => golden[element].to_bits() ^ (1u32 << bit),
        };
        let ctx = format!("seed={seed} node={node} element={element}");
        assert_site_delta_equiv(&model, &cache, node, element, faulty_bits, &ctx);
    }

    /// Unfused incremental re-execution and the plan's suffix pass one
    /// image wide reproduce the full faulty forward, and the converging
    /// plan pass (with and without the single-unit probe) observes the same
    /// inference, on the same random graphs under random
    /// single-bit weight faults with guaranteed NaN/±Inf coverage.
    #[test]
    fn suffix_is_bitwise_equal_on_random_graphs(
        seed in 0u64..1_000_000,
        param_pick in 0usize..8,
        elem_pick in 0usize..4096,
        bit in 0u32..32,
        force_special in 0u32..8,
    ) {
        let model = random_small_model(seed);
        let input = random_small_input(seed, &model);
        let cache = model.forward_cached(&input).unwrap();

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
        let plan = CompiledPlan::compile(&model, &cache).unwrap();
        for (dirty_unit, tag) in [(unit, "probe"), (None, "dense-seed")] {
            let ctx = format!("seed={seed} pid={pid} idx={idx} {tag}");
            assert_forward_equiv(&model, &faulty, &plan, first_dirty, &cache, dirty_unit, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign classifications and inference counts match pairwise across
    /// the no-early-exit, golden-convergence, and delta re-execution paths
    /// at workers ∈ {1, 4, 8}.
    #[test]
    fn campaign_classes_match_across_paths_and_workers(
        fault_seed in 0u64..1_000_000,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 12);

        let base =
            CampaignConfig { workers: 1, convergence: false, delta: false, ..Default::default() };
        let reference = run_campaign(&model, &data, &golden, &faults, &base).unwrap();
        for workers in [1usize, 4, 8] {
            for (convergence, delta, label) in [
                (false, false, "no-early-exit"),
                (true, false, "early-exit"),
                (false, true, "delta"),
                (true, true, "delta+early-exit"),
            ] {
                let cfg = CampaignConfig { workers, convergence, delta, ..Default::default() };
                let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
                prop_assert_eq!(
                    &res.classes, &reference.classes,
                    "{} workers={}", label, workers
                );
                prop_assert_eq!(
                    res.inferences, reference.inferences,
                    "{} workers={}", label, workers
                );
            }
        }
    }

    /// Transient activation and input faults classify identically on the
    /// dense patched path and the row-band delta pass — per injected
    /// site and for whole campaigns at any worker count, with and without
    /// convergence/delta enabled.
    #[test]
    fn transient_site_paths_agree(fault_seed in 0u64..1_000_000) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        for (name, space) in
            [("activation", activation_space(&model, &data)), ("input", input_space(&model, &data))]
        {
            let faults = random_transient_faults(&space, fault_seed, 8);
            for fault in &faults {
                let img = fault.site.image;
                assert_site_forward_equiv(
                    &model,
                    golden.cache(img),
                    golden.prediction(img),
                    fault,
                    &format!("{name} seed {fault_seed}"),
                );
            }
            let generic: Vec<CampaignFault> =
                faults.iter().map(|&f| CampaignFault::Activation(f)).collect();
            let base = CampaignConfig {
                workers: 1,
                convergence: false,
                delta: false,
                ..Default::default()
            };
            let reference = run_campaign(&model, &data, &golden, &generic, &base).unwrap();
            for workers in [1usize, 4, 8] {
                for (convergence, delta) in [(true, false), (false, true), (true, true)] {
                    let cfg =
                        CampaignConfig { workers, convergence, delta, ..Default::default() };
                    let res = run_campaign(&model, &data, &golden, &generic, &cfg).unwrap();
                    prop_assert_eq!(
                        &res.classes, &reference.classes,
                        "{} workers={} convergence={} delta={}", name, workers, convergence, delta
                    );
                }
            }
        }
    }

    /// Accumulated multi-fault instances (k simultaneous weight +
    /// activation faults) classify identically across worker counts and
    /// fast-path configurations.
    #[test]
    fn accumulated_instances_classify_identically_across_paths(
        fault_seed in 0u64..1_000_000,
        k in 2usize..5,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let acts = activation_space(&model, &data);
        let instances = random_accumulated_faults(&space, &acts, fault_seed, k, 6);
        let generic: Vec<CampaignFault> =
            instances.into_iter().map(CampaignFault::Accumulated).collect();
        let base =
            CampaignConfig { workers: 1, convergence: false, delta: false, ..Default::default() };
        let reference = run_campaign(&model, &data, &golden, &generic, &base).unwrap();
        for workers in [1usize, 4, 8] {
            for (convergence, delta) in [(true, false), (true, true)] {
                let cfg = CampaignConfig { workers, convergence, delta, ..Default::default() };
                let res = run_campaign(&model, &data, &golden, &generic, &cfg).unwrap();
                prop_assert_eq!(
                    &res.classes, &reference.classes,
                    "k={} workers={} convergence={} delta={}", k, workers, convergence, delta
                );
            }
        }
    }

    /// Interrupting a checkpointed campaign mid-plan on one re-execution
    /// path and resuming on the other (delta → convergence and vice versa)
    /// merges to an outcome byte-identical to an uninterrupted dense run:
    /// `delta`, like `convergence`, is excluded from the plan fingerprint,
    /// so the journal must accept the switch.
    #[test]
    fn interrupted_campaign_resumes_across_delta_and_dense_paths(
        stop_frac in 0.1f64..0.9,
        delta_first in any::<bool>(),
    ) {
        let model = tiny_resnet(5, 8);
        let (data, golden) = campaign_world(&model, 8, 2);
        let space = FaultSpace::stuck_at(&model);
        let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
        let plan = plan_layer_wise(&space, &spec);
        let seed = 11u64;
        let dense_cfg = CampaignConfig { convergence: false, delta: false, ..Default::default() };
        let clean = Campaign::new(&model, &data, &golden, &plan, seed, &dense_cfg)
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let reference = fingerprint(&clean);

        let dir = unique_tmp_dir("delta-cross-path");
        let first_cfg = CampaignConfig {
            workers: 2,
            delta: delta_first,
            convergence: !delta_first,
            ..Default::default()
        };
        let stop_at = ((clean.injections() as f64 * stop_frac) as u64).max(1);
        let token = CancelToken::new();
        let first = Campaign::new(&model, &data, &golden, &plan, seed, &first_cfg)
            .checkpoint(&CheckpointConfig::new(&dir))
            .cancel(&token)
            .progress(&mut |p| {
                if p.plan_completed >= stop_at {
                    token.cancel();
                }
            })
            .run()
            .unwrap();
        let outcome = match first {
            // Cancellation is cooperative; a fast pool may finish first.
            CampaignRun::Complete { outcome, .. } => outcome,
            CampaignRun::Interrupted { stats } => {
                prop_assert!(stats.completed >= stop_at);
                let resume_cfg = CampaignConfig {
                    workers: 4,
                    delta: !delta_first,
                    convergence: delta_first,
                    ..Default::default()
                };
                let checkpoint =
                    CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 16 };
                let resumed = Campaign::new(&model, &data, &golden, &plan, seed, &resume_cfg)
                    .checkpoint(&checkpoint)
                    .run()
                    .unwrap();
                match resumed {
                    CampaignRun::Complete { outcome, stats } => {
                        prop_assert!(
                            stats.resumed > 0,
                            "the journal must carry work across the path switch"
                        );
                        outcome
                    }
                    CampaignRun::Interrupted { .. } => {
                        prop_assert!(false, "resume did not complete");
                        unreachable!()
                    }
                }
            }
        };
        prop_assert_eq!(fingerprint(&outcome), reference);
        std::fs::remove_dir_all(&dir).ok();
    }
}
