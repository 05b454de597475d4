//! Crash-tolerance properties of checkpointed plan execution.
//!
//! The tentpole invariant: interrupting a campaign at an *arbitrary* fault
//! and resuming it — possibly at a different worker count — produces an
//! outcome identical to the uninterrupted run (wall-clock aside). On top
//! of that, a fault whose evaluation panics must neither hang nor abort
//! the campaign: surviving workers finish, and the poisoned fault is
//! recorded as [`FaultClass::ExecutionFailure`] in the telemetry.

#[path = "common/fixtures.rs"]
mod fixtures;

use fixtures::{activation_space, campaign_world, tiny_resnet, unique_tmp_dir};
use proptest::prelude::*;
use sfi::core::plan::{plan_accumulated, plan_transient};
use sfi::faultsim::campaign::Corruption;
use sfi::obs::{Probe, TraceLevel};
use sfi::prelude::*;
use sfi::stats::sampling::sample_without_replacement;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Model, Dataset, GoldenReference, FaultSpace, SfiPlan) {
    let model = tiny_resnet(5, 8);
    let (data, golden) = campaign_world(&model, 8, 2);
    let space = FaultSpace::stuck_at(&model);
    let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    (model, data, golden, space, plan)
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
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interrupt at an arbitrary point, resume at an arbitrary worker
    /// count: the merged outcome equals the uninterrupted one.
    #[test]
    fn interrupt_anywhere_and_resume_matches_uninterrupted(
        stop_frac in 0.05f64..0.95,
        first_idx in 0usize..4,
        resume_idx in 0usize..4,
    ) {
        const WORKERS: [usize; 4] = [1, 2, 4, 8];
        let (model, data, golden, _, plan) = setup();
        let seed = 11u64;
        let clean_cfg = CampaignConfig::default();
        let clean = Campaign::new(&model, &data, &golden, &plan, seed, &clean_cfg)
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let reference = fingerprint(&clean);

        let dir = unique_tmp_dir("crash-tolerance-prop");
        let first_cfg = CampaignConfig { workers: WORKERS[first_idx], ..clean_cfg };
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
            // Fast pools may complete before the token is observed —
            // cancellation is cooperative, not preemptive.
            CampaignRun::Complete { outcome, .. } => outcome,
            CampaignRun::Interrupted { stats } => {
                prop_assert!(stats.completed >= stop_at);
                prop_assert!(stats.completed < clean.injections());
                let resume_cfg = CampaignConfig { workers: WORKERS[resume_idx], ..clean_cfg };
                let checkpoint = CheckpointConfig {
                    dir: dir.clone(), resume: true, checkpoint_every: 16,
                };
                let resumed = Campaign::new(&model, &data, &golden, &plan, seed, &resume_cfg)
                    .checkpoint(&checkpoint)
                    .run()
                    .unwrap();
                let (outcome, stats) = match resumed {
                    CampaignRun::Complete { outcome, stats } => (outcome, stats),
                    CampaignRun::Interrupted { .. } => {
                        prop_assert!(false, "resume did not complete");
                        unreachable!()
                    }
                };
                prop_assert!(stats.resumed > 0, "the journal must carry work across sessions");
                prop_assert_eq!(stats.resumed + stats.completed, stats.total);
                outcome
            }
        };
        prop_assert_eq!(fingerprint(&outcome), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same interrupt-anywhere invariant for transient-activation and
    /// accumulated (k simultaneous weight + activation faults) campaigns,
    /// with every optional part of the builder composed: a spans-level
    /// probe, a checkpoint journal, and a cancel token fired mid-stratum.
    /// The first session runs inline, so the token stops it at the next
    /// fault boundary; resumed at workers 2, 4, or 8, the outcome is
    /// identical to a plain run of the same plan.
    #[test]
    fn mixed_model_interrupt_and_resume_matches_uninterrupted(
        stop_frac in 0.1f64..0.9,
        resume_idx in 0usize..3,
        accumulated in any::<bool>(),
    ) {
        const WORKERS: [usize; 3] = [2, 4, 8];
        let model = tiny_resnet(5, 8);
        let (data, golden) = campaign_world(&model, 8, 2);
        let weights = FaultSpace::stuck_at(&model);
        let acts = activation_space(&model, &data);
        let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
        let (plan, cspace) = if accumulated {
            let union = weights.total() + acts.total();
            (plan_accumulated(union, 2, &spec).unwrap(),
             CampaignSpace::Accumulated { weights: &weights, activations: &acts })
        } else {
            (plan_transient(&acts, FaultTarget::Activation, SchemeKind::LayerWise, None, &spec)
                 .unwrap(),
             CampaignSpace::Transient(&acts))
        };
        let seed = 11u64;
        let cfg = CampaignConfig::default();
        let clean = Campaign::new(&model, &data, &golden, &plan, seed, &cfg)
            .space(cspace)
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let reference = fingerprint(&clean);

        let dir = unique_tmp_dir("crash-tolerance-mixed");
        let stop_at = ((clean.injections() as f64 * stop_frac) as u64).max(1);
        let token = CancelToken::new();
        let probe = Probe::new(TraceLevel::Spans, None).unwrap();
        let first = Campaign::new(&model, &data, &golden, &plan, seed, &cfg)
            .space(cspace)
            .probe(&probe)
            .checkpoint(&CheckpointConfig::new(&dir))
            .cancel(&token)
            .progress(&mut |p| {
                if p.plan_completed >= stop_at {
                    token.cancel();
                }
            })
            .run()
            .unwrap();
        prop_assert!(probe.snapshot().fsyncs > 0, "the journal reports to the probe");
        let CampaignRun::Interrupted { stats } = first else {
            panic!("an inline session stops at the next fault boundary");
        };
        prop_assert!(stats.completed < clean.injections());
        let resume_cfg = CampaignConfig { workers: WORKERS[resume_idx], ..cfg };
        let checkpoint = CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 16 };
        let resumed = Campaign::new(&model, &data, &golden, &plan, seed, &resume_cfg)
            .space(cspace)
            .checkpoint(&checkpoint)
            .run()
            .unwrap();
        prop_assert!(resumed.stats().resumed > 0, "the journal must carry work across sessions");
        let outcome = resumed.into_outcome().unwrap();
        prop_assert_eq!(fingerprint(&outcome), reference,
            "accumulated={} resume workers={}", accumulated, WORKERS[resume_idx]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Mirrors the private stratum sampling of `sfi-core` (documented as
/// deterministic in the seed) so the test can name one concrete sampled
/// fault to poison.
fn sampled_fault(plan: &SfiPlan, space: &FaultSpace, seed: u64, stratum: usize, k: usize) -> Fault {
    let s = plan.strata()[stratum];
    let subpop = match (s.layer, s.bit) {
        (None, _) => space.network_subpopulation(),
        (Some(l), None) => space.layer_subpopulation(l).unwrap(),
        (Some(l), Some(b)) => space.bit_subpopulation(l, b).unwrap(),
    };
    let mut rng =
        StdRng::seed_from_u64(seed ^ (stratum as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let indices = sample_without_replacement(subpop.size(), s.sample, &mut rng).unwrap();
    subpop.faults_at(&indices).unwrap()[k]
}

/// Corruption identical to [`Ieee754Corruption`] except that one designated
/// fault panics — the stand-in for a fault whose evaluation crashes.
struct PoisonedCorruption {
    poison: Fault,
}

impl Corruption for PoisonedCorruption {
    fn corrupt(&self, fault: &Fault, original: f32) -> f32 {
        assert!(*fault != self.poison, "poisoned fault");
        fault.apply_to(original)
    }
}

#[test]
fn worker_panic_mid_plan_neither_hangs_nor_aborts() {
    let (model, data, golden, space, plan) = setup();
    let seed = 3u64;
    let clean = Campaign::new(&model, &data, &golden, &plan, seed, &CampaignConfig::default())
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();

    let target_stratum = 2usize;
    let poison = sampled_fault(&plan, &space, seed, target_stratum, 1);
    let poison_class = {
        let res =
            run_campaign(&model, &data, &golden, &[poison], &CampaignConfig::default()).unwrap();
        res.classes[0]
    };
    // 4 workers, 1 retry: the poisoned fault retires two workers; the two
    // survivors must still finish the whole plan.
    let cfg = CampaignConfig { workers: 4, ..CampaignConfig::default() };
    let outcome = Campaign::new(&model, &data, &golden, &plan, seed, &cfg)
        .space(CampaignSpace::Weight(&space))
        .corruption(&PoisonedCorruption { poison })
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();

    assert_eq!(outcome.injections(), clean.injections());
    let failures: u64 = outcome.stratum_telemetry().iter().map(|t| t.exec_failures).sum();
    assert_eq!(failures, 1, "exactly the poisoned fault fails");
    for (idx, (t, c)) in
        outcome.stratum_telemetry().iter().zip(clean.stratum_telemetry()).enumerate()
    {
        if idx != target_stratum {
            assert_eq!(t.exec_failures, 0, "stratum {idx}");
            assert_eq!(
                (t.masked, t.critical, t.non_critical),
                (c.masked, c.critical, c.non_critical),
                "stratum {idx} must match the clean run"
            );
        }
    }
    // In the poisoned stratum the failed fault is excluded from the
    // statistical sample; the other classifications are unchanged.
    let poisoned = &outcome.stratum_telemetry()[target_stratum];
    let clean_t = &clean.stratum_telemetry()[target_stratum];
    assert_eq!(poisoned.exec_failures, 1);
    assert_eq!(poisoned.injections, clean_t.injections);
    let expected = match poison_class {
        FaultClass::Masked => (clean_t.masked - 1, clean_t.critical, clean_t.non_critical),
        FaultClass::Critical => (clean_t.masked, clean_t.critical - 1, clean_t.non_critical),
        FaultClass::NonCritical => (clean_t.masked, clean_t.critical, clean_t.non_critical - 1),
        other => panic!("clean class of the poisoned fault cannot be {other:?}"),
    };
    assert_eq!((poisoned.masked, poisoned.critical, poisoned.non_critical), expected);
    let stratum = &outcome.strata()[target_stratum];
    assert_eq!(stratum.result.sample, poisoned.injections - 1);
}

#[test]
fn resume_stats_roundtrip_through_campaign_run() {
    let stats = ResumeStats {
        resumed: 3,
        dropped: 1,
        completed: 7,
        total: 10,
        per_stratum_resumed: vec![1, 2],
    };
    let run = CampaignRun::Interrupted { stats: stats.clone() };
    assert_eq!(run.stats(), &stats);
    assert!(run.outcome().is_none());
}
