//! Property-based determinism suite for the campaign executor: the
//! classification vector is a pure function of (model, data, faults,
//! criterion) — never of the schedule. Any worker count, scheduler, and
//! re-execution strategy must produce identical `classes`.

#[path = "../../../tests/common/fixtures.rs"]
mod fixtures;

use fixtures::{campaign_world, micro_resnet, random_faults, unique_tmp_dir};
use proptest::prelude::*;

use sfi_faultsim::campaign::{
    run_campaign, run_campaign_static, CampaignConfig, FaultClass, Ieee754Corruption,
};
use sfi_faultsim::executor::{with_executor, CancelToken};
use sfi_faultsim::fault::Fault;
use sfi_faultsim::journal::{recover, FaultId, JournalWriter};
use sfi_faultsim::multi::CampaignFault;
use sfi_faultsim::population::FaultSpace;
use sfi_faultsim::FaultSimError;
use sfi_obs::Probe;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: for a random fault subset of reduced-width
    /// ResNet-20, `classes` (and the per-fault inference cost) are
    /// identical across workers ∈ {1, 2, 4, 8} × incremental on/off ×
    /// early-exit on/off, under both schedulers.
    #[test]
    fn classes_invariant_across_schedules(
        fault_seed in 0u64..1_000_000,
        incremental in any::<bool>(),
        early_exit in any::<bool>(),
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 3);
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 16);

        let reference = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { workers: 1, incremental, early_exit, ..Default::default() },
        )
        .unwrap();
        for workers in [2usize, 4, 8] {
            let cfg = CampaignConfig { workers, incremental, early_exit, ..Default::default() };
            let stealing = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
            prop_assert_eq!(
                &stealing.classes, &reference.classes,
                "work stealing, workers = {}", workers
            );
            prop_assert_eq!(stealing.inferences, reference.inferences);
            let static_ =
                run_campaign_static(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption)
                    .unwrap();
            prop_assert_eq!(
                &static_.classes, &reference.classes,
                "static shards, workers = {}", workers
            );
            prop_assert_eq!(static_.inferences, reference.inferences);
        }
    }

    /// The fast inference path (blocked GEMM, scratch arenas, the
    /// workers' golden-input lowering panels) is a pure optimisation:
    /// classifications and inference counts equal the naive kernel path
    /// at workers ∈ {1, 2, 4, 8}, and every incremental fast pass whose
    /// faulted conv has a panel at its width tallies a panel lookup.
    #[test]
    fn fast_path_matches_naive_across_caches_and_workers(
        fault_seed in 0u64..1_000_000,
        incremental in any::<bool>(),
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 3);
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 16);

        let reference = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig {
                workers: 1,
                incremental,
                kernel: sfi_nn::KernelPolicy::Naive,
                ..Default::default()
            },
        )
        .unwrap();
        // Effective faults whose first pass reads a panel: one image wide
        // a conv that lowers per image, E wide any lowerable conv.
        let plan = golden.plan();
        let layers = model.weight_layers();
        let panelled = faults
            .iter()
            .zip(&reference.classes)
            .filter(|&(f, class)| {
                let node = model.node_of_param(layers[f.site.layer].param).unwrap();
                *class != FaultClass::Masked
                    && if plan.batched_profitable(node) {
                        plan.is_lowerable_conv(node)
                    } else {
                        plan.lowers_per_image(node)
                    }
            })
            .count() as u64;
        for workers in [1usize, 2, 4, 8] {
            let cfg = CampaignConfig { workers, incremental, ..Default::default() };
            let fast = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
            prop_assert_eq!(
                &fast.classes, &reference.classes,
                "fast vs naive, workers = {}", workers
            );
            prop_assert_eq!(fast.inferences, reference.inferences);
            let lookups = fast.lowering_hits + fast.lowering_misses;
            if incremental {
                prop_assert!(
                    lookups >= panelled,
                    "incremental fast runs must consult the session panel ({} < {})",
                    lookups, panelled
                );
            } else {
                prop_assert_eq!(lookups, 0, "full passes read no panel");
            }
        }
    }

    /// Splitting one campaign into arbitrary sub-campaigns on a shared
    /// executor session concatenates to the same classifications — the
    /// plan-execution pattern (many strata, one pool) in miniature.
    #[test]
    fn session_split_is_concatenation(
        fault_seed in 0u64..1_000_000,
        split in 1usize..23,
        workers in 1usize..5,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 24);
        let cfg = CampaignConfig { workers, ..Default::default() };

        let joint = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
        let off = Probe::disabled();
        let stitched = with_executor(&model, &data, &golden, &cfg, &Ieee754Corruption, off, |exec| {
            let mut classes = exec.run(&faults[..split])?.classes;
            classes.extend(exec.run(&faults[split..])?.classes);
            Ok(classes)
        })
        .unwrap();
        prop_assert_eq!(stitched, joint.classes);
    }

    /// Interrupting a journaled campaign at an arbitrary fault and resuming
    /// from the recovered journal — at a possibly different worker count —
    /// reconstructs classifications byte-identical to an uninterrupted run.
    #[test]
    fn interrupt_and_journal_resume_is_identical(
        fault_seed in 0u64..1_000_000,
        stop_at in 1usize..16,
        first_idx in 0usize..4,
        resume_idx in 0usize..4,
    ) {
        const WORKERS: [usize; 4] = [1, 2, 4, 8];
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 16);
        let generic: Vec<CampaignFault> = faults.iter().map(|&f| f.into()).collect();
        let reference =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();

        // Session one: journal every classification, fire the token after
        // `stop_at` of them. Cancellation is cooperative, so a fast pool may
        // still complete every fault — both outcomes are legal.
        let dir = unique_tmp_dir("executor-determinism");
        let fingerprint = 0x5f1_u64 ^ fault_seed;
        let mut writer = JournalWriter::create(&dir, fingerprint, 8).unwrap();
        let token = CancelToken::new();
        let cfg = CampaignConfig { workers: WORKERS[first_idx], ..Default::default() };
        let off = Probe::disabled();
        let first = with_executor(&model, &data, &golden, &cfg, &Ieee754Corruption, off, |exec| {
            let mut journal_err = None;
            let res = exec.run_with(
                &generic,
                &mut |_| {},
                &mut |idx, class, inferences| {
                    if let Err(e) = writer.append(FaultId::new(0, idx), class, inferences) {
                        journal_err.get_or_insert(e);
                    }
                    if writer.appended() >= stop_at as u64 {
                        token.cancel();
                    }
                },
                Some(&token),
            );
            if let Some(e) = journal_err {
                return Err(e);
            }
            Ok(res)
        })
        .unwrap();
        writer.seal().unwrap();
        match &first {
            Ok(res) => prop_assert_eq!(&res.classes, &reference.classes),
            Err(FaultSimError::Cancelled { completed }) => {
                prop_assert!(*completed >= stop_at as u64)
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }

        // Session two: recover the journal, execute only the missing faults,
        // and merge by fault index.
        let recovery = recover(&dir).unwrap();
        prop_assert_eq!(recovery.dropped, 0);
        prop_assert_eq!(recovery.fingerprint, fingerprint);
        let done = recovery.as_map();
        let todo: Vec<Fault> = faults
            .iter()
            .enumerate()
            .filter(|(i, _)| !done.contains_key(&FaultId::new(0, *i)))
            .map(|(_, f)| *f)
            .collect();
        let resume_cfg = CampaignConfig { workers: WORKERS[resume_idx], ..Default::default() };
        let fresh = run_campaign(&model, &data, &golden, &todo, &resume_cfg).unwrap();
        let mut cursor = 0;
        let merged: Vec<_> = (0..faults.len())
            .map(|i| match done.get(&FaultId::new(0, i)) {
                Some((class, _)) => *class,
                None => {
                    cursor += 1;
                    fresh.classes[cursor - 1]
                }
            })
            .collect();
        prop_assert_eq!(merged, reference.classes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
