//! Crash-tolerant plan execution: checkpoint journal, resume, cancellation.
//!
//! Validation-scale campaigns (the paper's Table I runs millions of
//! inferences) can outlive a machine's patience: jobs get pre-empted,
//! nodes reboot, users hit Ctrl-C. A [`Campaign`] given a
//! [`CheckpointConfig`] with [`Campaign::checkpoint`] writes the
//! [`sfi_faultsim::journal`] write-ahead journal, so an interrupted
//! campaign loses at most `checkpoint_every` classifications:
//!
//! 1. every classified fault is appended to the journal **as it
//!    completes** (completion order, not fault order);
//! 2. a resumed execution replays the journal, skips every fault already
//!    classified, and re-executes only the remainder;
//! 3. the merged outcome is identical to an uninterrupted run — same
//!    classes, same tallies, same estimates, at any worker count —
//!    because per-fault classification is deterministic and keyed by a
//!    stable [`FaultId`].
//!
//! A journal is bound to its plan by a [`plan_fingerprint`]: resuming
//! under a different model, plan, seed, or campaign criterion is rejected
//! with [`FaultSimError::CheckpointMismatch`] rather than silently mixing
//! incompatible classifications.
//!
//! Cancellation is cooperative: pass a [`CancelToken`] with
//! [`Campaign::cancel`] and arm it from anywhere; the execution stops at
//! the next fault boundary, flushes and seals the journal, and returns
//! [`CampaignRun::Interrupted`] with resume statistics. Running the same
//! command again with `resume` picks up where the journal left off.

use std::path::{Path, PathBuf};

use sfi_dataset::Dataset;
use sfi_faultsim::activation::ActivationFault;
use sfi_faultsim::campaign::{CampaignConfig, Corruption, Criterion, FaultClass};
use sfi_faultsim::executor::CancelToken;
use sfi_faultsim::fault::{Fault, FaultModel};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::journal::{self, FaultId, JournalWriter};
use sfi_faultsim::multi::{CampaignFault, FaultTarget};
use sfi_faultsim::FaultSimError;
use sfi_nn::Model;
use sfi_obs::Probe;

use crate::execute::{Campaign, CampaignSpace, PlanProgress, SfiOutcome};
use crate::plan::{SchemeKind, SfiPlan};
use crate::SfiError;

/// Where and how often to checkpoint a plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Journal directory (created when absent; must be empty or hold a
    /// journal of the same plan when `resume` is set).
    pub dir: PathBuf,
    /// Continue from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Fsync the journal every this many classifications (≥ 1). Lower
    /// values bound the re-execution window after a crash more tightly at
    /// the cost of more frequent synchronous I/O.
    pub checkpoint_every: u64,
}

impl CheckpointConfig {
    /// A fresh (non-resuming) checkpoint configuration with the default
    /// 64-record fsync cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), resume: false, checkpoint_every: 64 }
    }
}

/// Resume bookkeeping of one campaign run (nothing is resumed without a
/// checkpoint).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Faults skipped because the journal already held their class.
    pub resumed: u64,
    /// Corrupt journal records discarded during recovery (truncated or
    /// checksum-failing tails); their faults were re-executed.
    pub dropped: u64,
    /// Faults classified (and journaled) by this session.
    pub completed: u64,
    /// Total faults the plan schedules.
    pub total: u64,
    /// Per-stratum count of journal-resumed faults, in plan order.
    pub per_stratum_resumed: Vec<u64>,
}

/// What a [`Campaign::run`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignRun {
    /// Every planned fault is classified; the outcome is complete (and
    /// identical to an uninterrupted run, wall-clock aside).
    Complete {
        /// The assembled outcome.
        outcome: SfiOutcome,
        /// How much of it came from the journal vs. this session.
        stats: ResumeStats,
    },
    /// The execution was cancelled before completing; with a checkpoint,
    /// everything classified so far is sealed in the journal and a re-run
    /// with `resume` continues from here.
    Interrupted {
        /// Journal/session bookkeeping up to the stop.
        stats: ResumeStats,
    },
}

impl CampaignRun {
    /// The resume statistics of either variant.
    pub fn stats(&self) -> &ResumeStats {
        match self {
            CampaignRun::Complete { stats, .. } | CampaignRun::Interrupted { stats } => stats,
        }
    }

    /// The outcome, when the run completed.
    pub fn outcome(&self) -> Option<&SfiOutcome> {
        match self {
            CampaignRun::Complete { outcome, .. } => Some(outcome),
            CampaignRun::Interrupted { .. } => None,
        }
    }

    /// The completed outcome.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::Cancelled`] for an interrupted run.
    pub fn into_outcome(self) -> Result<SfiOutcome, SfiError> {
        match self {
            CampaignRun::Complete { outcome, .. } => Ok(outcome),
            CampaignRun::Interrupted { stats } => {
                Err(FaultSimError::Cancelled { completed: stats.completed }.into())
            }
        }
    }
}

/// 64-bit FNV-1a over the facts that determine a campaign's
/// classifications: scheme, fault target and accumulation order, seed,
/// evaluation-set size, classification criterion, execution strategy, and
/// every sampled fault (with a per-fault variant tag for non-weight
/// faults, so a journal written by a weight campaign can never be resumed
/// by a transient or accumulated one even when their site coordinates
/// collide).
///
/// Worker count, retry budget, kernel policy and the golden-convergence
/// early exit are deliberately excluded — they change scheduling or speed,
/// never classifications — so a campaign checkpointed at 8 workers resumes
/// cleanly at 1, a journal written on the naive kernel path resumes on the
/// fast path, and a run interrupted with convergence on resumes with it
/// off (and vice versa). The fingerprint does not hash model
/// weights or image pixels; it relies on the sampled fault list (a
/// deterministic function of plan and seed) plus the caller using the
/// same artifacts, which the CLI derives from the same seeds.
pub fn plan_fingerprint(
    plan: &SfiPlan,
    seed: u64,
    eval_images: usize,
    cfg: &CampaignConfig,
    sampled: &[Vec<CampaignFault>],
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    let scheme_tag: u8 = match plan.scheme() {
        SchemeKind::NetworkWise => 0,
        SchemeKind::LayerWise => 1,
        SchemeKind::DataUnaware => 2,
        SchemeKind::DataAware => 3,
        SchemeKind::Neyman => 4,
    };
    eat(&[scheme_tag]);
    let target_tag: u8 = match plan.target() {
        FaultTarget::Weight => 0,
        FaultTarget::Activation => 1,
        FaultTarget::Input => 2,
    };
    eat(&[target_tag]);
    eat(&plan.accumulate().to_le_bytes());
    eat(&seed.to_le_bytes());
    eat(&(eval_images as u64).to_le_bytes());
    match cfg.criterion {
        Criterion::AnyMismatch => eat(&[0]),
        Criterion::MismatchRate { threshold } => {
            eat(&[1]);
            eat(&threshold.to_bits().to_le_bytes());
        }
    }
    eat(&[u8::from(cfg.incremental), u8::from(cfg.early_exit)]);
    fn model_tag(model: FaultModel) -> u8 {
        match model {
            FaultModel::StuckAt0 => 0,
            FaultModel::StuckAt1 => 1,
            FaultModel::BitFlip => 2,
            FaultModel::AdjacentFlip => 3,
        }
    }
    fn eat_weight(eat: &mut impl FnMut(&[u8]), fault: &Fault) {
        eat(&(fault.site.layer as u64).to_le_bytes());
        eat(&(fault.site.weight as u64).to_le_bytes());
        eat(&[fault.site.bit]);
        eat(&[model_tag(fault.model)]);
    }
    fn eat_activation(eat: &mut impl FnMut(&[u8]), fault: &ActivationFault) {
        eat(&(fault.site.node as u64).to_le_bytes());
        eat(&(fault.site.element as u64).to_le_bytes());
        eat(&[fault.site.bit]);
        eat(&(fault.site.image as u64).to_le_bytes());
        eat(&[model_tag(fault.model)]);
    }
    for faults in sampled {
        eat(&(faults.len() as u64).to_le_bytes());
        for fault in faults {
            match fault {
                CampaignFault::Weight(f) => eat_weight(&mut eat, f),
                CampaignFault::Activation(f) => {
                    eat(&[1u8]);
                    eat_activation(&mut eat, f);
                }
                CampaignFault::Accumulated(acc) => {
                    eat(&[2u8]);
                    eat(&(acc.weights.len() as u64).to_le_bytes());
                    eat(&(acc.activations.len() as u64).to_le_bytes());
                    for f in &acc.weights {
                        eat_weight(&mut eat, f);
                    }
                    for f in &acc.activations {
                        eat_activation(&mut eat, f);
                    }
                }
            }
        }
    }
    h
}

/// [`Campaign`] with a space, corruption, checkpoint, optional cancel
/// token, probe and progress observer, as one call. Kept as a delegate
/// because the end-to-end benchmark in `benchmark/` calls it; new code uses
/// [`Campaign`].
///
/// # Errors
///
/// Same conditions as [`Campaign::run`].
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_checkpointed_traced_any<C: Corruption>(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    plan: &SfiPlan,
    space: CampaignSpace<'_>,
    seed: u64,
    campaign_cfg: &CampaignConfig,
    corruption: &C,
    checkpoint: &CheckpointConfig,
    cancel: Option<&CancelToken>,
    probe: &Probe,
    progress: &mut dyn FnMut(PlanProgress),
) -> Result<CampaignRun, SfiError> {
    let campaign = Campaign::new(model, data, golden, plan, seed, campaign_cfg).space(space);
    let campaign = campaign.corruption(corruption).checkpoint(checkpoint).cancel(cancel);
    campaign.probe(probe).progress(progress).run()
}

/// Already-classified faults recovered from a journal: class and inference
/// cost per fault.
pub(crate) type DoneMap = std::collections::HashMap<FaultId, (FaultClass, u64)>;

/// Creates or resumes the journal, returning the writer, the map of
/// already-classified faults, and the count of corrupt records dropped
/// during recovery.
pub(crate) fn open_journal(
    dir: &Path,
    resume: bool,
    fingerprint: u64,
    checkpoint_every: u64,
) -> Result<(JournalWriter, DoneMap, u64), SfiError> {
    if resume {
        let (writer, recovery) = journal::resume(dir, fingerprint, checkpoint_every)?;
        let dropped = recovery.dropped;
        Ok((writer, recovery.as_map(), dropped))
    } else {
        let writer = JournalWriter::create(dir, fingerprint, checkpoint_every)?;
        Ok((writer, DoneMap::new(), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::sample_strata_any;
    use crate::plan::plan_layer_wise;
    use sfi_dataset::SynthCifarConfig;
    use sfi_faultsim::population::FaultSpace;
    use sfi_nn::resnet::ResNetConfig;
    use sfi_stats::sample_size::SampleSpec;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sfi-checkpoint-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn setup() -> (Model, Dataset, GoldenReference, FaultSpace) {
        let model = ResNetConfig::resnet20_micro().build_seeded(10).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(3).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        (model, data, golden, space)
    }

    fn loose_spec() -> SampleSpec {
        SampleSpec { error_margin: 0.15, ..SampleSpec::paper_default() }
    }

    #[allow(clippy::too_many_arguments)]
    fn checkpointed_any(
        world: &(Model, Dataset, GoldenReference, FaultSpace),
        acts: &sfi_faultsim::activation::ActivationSpace,
        plan: &SfiPlan,
        space_kind: &str,
        seed: u64,
        cfg: &CampaignConfig,
        dir: &Path,
        resume: bool,
        cancel: Option<&CancelToken>,
        progress: &mut dyn FnMut(PlanProgress),
    ) -> CampaignRun {
        let (model, data, golden, weights) = world;
        let space = match space_kind {
            "transient" => CampaignSpace::Transient(acts),
            "accumulated" => CampaignSpace::Accumulated { weights, activations: acts },
            _ => CampaignSpace::Weight(weights),
        };
        let checkpoint = CheckpointConfig { dir: dir.to_path_buf(), resume, checkpoint_every: 64 };
        Campaign::new(model, data, golden, plan, seed, cfg)
            .space(space)
            .checkpoint(&checkpoint)
            .cancel(cancel)
            .progress(progress)
            .run()
            .unwrap()
    }

    #[test]
    fn transient_interrupt_and_resume_is_identical_to_uninterrupted() {
        let world = setup();
        let acts = sfi_faultsim::activation::ActivationSpace::build_for(
            &world.0,
            &world.1,
            FaultTarget::Activation,
        )
        .unwrap();
        let plan = crate::plan::plan_transient(
            &acts,
            FaultTarget::Activation,
            SchemeKind::LayerWise,
            None,
            &loose_spec(),
        )
        .unwrap();
        let cfg = CampaignConfig::default();
        let plain = Campaign::new(&world.0, &world.1, &world.2, &plan, 7, &cfg)
            .space(CampaignSpace::Transient(&acts))
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let dir = tmp_dir("transient");
        let token = CancelToken::new();
        let stop_at = plain.injections() / 2;
        let run = checkpointed_any(
            &world,
            &acts,
            &plan,
            "transient",
            7,
            &cfg,
            &dir,
            false,
            Some(&token),
            &mut |p| {
                if p.plan_completed >= stop_at {
                    token.cancel();
                }
            },
        );
        let CampaignRun::Interrupted { stats } = run else { panic!("expected interrupted") };
        assert!(stats.completed < plain.injections());
        for workers in [1usize, 4, 8] {
            let resume_cfg = CampaignConfig { workers, ..cfg };
            // Re-resume from the same journal at several worker counts;
            // every one must reconstruct the identical outcome.
            let run = checkpointed_any(
                &world,
                &acts,
                &plan,
                "transient",
                7,
                &resume_cfg,
                &dir,
                true,
                None,
                &mut |_| {},
            );
            let CampaignRun::Complete { outcome, stats } = run else { panic!("expected complete") };
            assert!(stats.resumed > 0, "workers={workers}");
            assert_eq!(outcome.strata(), plain.strata(), "workers={workers}");
            assert_eq!(outcome.injections(), plain.injections());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn accumulated_interrupt_and_resume_is_identical_to_uninterrupted() {
        let world = setup();
        let acts = sfi_faultsim::activation::ActivationSpace::build_for(
            &world.0,
            &world.1,
            FaultTarget::Activation,
        )
        .unwrap();
        let union = world.3.total() + acts.total();
        let plan = crate::plan::plan_accumulated(union, 2, &loose_spec()).unwrap();
        let cfg = CampaignConfig::default();
        let plain = Campaign::new(&world.0, &world.1, &world.2, &plan, 7, &cfg)
            .space(CampaignSpace::Accumulated { weights: &world.3, activations: &acts })
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let dir = tmp_dir("accumulated");
        let token = CancelToken::new();
        let stop_at = plain.injections() / 2;
        let run = checkpointed_any(
            &world,
            &acts,
            &plan,
            "accumulated",
            7,
            &cfg,
            &dir,
            false,
            Some(&token),
            &mut |p| {
                if p.plan_completed >= stop_at {
                    token.cancel();
                }
            },
        );
        let CampaignRun::Interrupted { .. } = run else { panic!("expected interrupted") };
        let run = checkpointed_any(
            &world,
            &acts,
            &plan,
            "accumulated",
            7,
            &CampaignConfig { workers: 4, ..cfg },
            &dir,
            true,
            None,
            &mut |_| {},
        );
        let CampaignRun::Complete { outcome, stats } = run else { panic!("expected complete") };
        assert!(stats.resumed > 0);
        assert_eq!(outcome.strata(), plain.strata());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_binds_fault_model_and_accumulation() {
        let (model, data, _, space) = setup();
        let acts = sfi_faultsim::activation::ActivationSpace::build_for(
            &model,
            &data,
            FaultTarget::Activation,
        )
        .unwrap();
        let cfg = CampaignConfig::default();
        let wplan = plan_layer_wise(&space, &loose_spec());
        let wsampled = sample_strata_any(&wplan, CampaignSpace::Weight(&space), 3).unwrap();
        let wfp = plan_fingerprint(&wplan, 3, data.len(), &cfg, &wsampled);
        let tplan = crate::plan::plan_transient(
            &acts,
            FaultTarget::Activation,
            SchemeKind::LayerWise,
            None,
            &loose_spec(),
        )
        .unwrap();
        let tsampled = sample_strata_any(&tplan, CampaignSpace::Transient(&acts), 3).unwrap();
        let tfp = plan_fingerprint(&tplan, 3, data.len(), &cfg, &tsampled);
        assert_ne!(wfp, tfp, "weight and transient journals must not cross-resume");
        let union = space.total() + acts.total();
        let a2 = crate::plan::plan_accumulated(union, 2, &loose_spec()).unwrap();
        let a4 = crate::plan::plan_accumulated(union, 4, &loose_spec()).unwrap();
        let s2 = sample_strata_any(
            &a2,
            CampaignSpace::Accumulated { weights: &space, activations: &acts },
            3,
        )
        .unwrap();
        let s4 = sample_strata_any(
            &a4,
            CampaignSpace::Accumulated { weights: &space, activations: &acts },
            3,
        )
        .unwrap();
        assert_ne!(
            plan_fingerprint(&a2, 3, data.len(), &cfg, &s2),
            plan_fingerprint(&a4, 3, data.len(), &cfg, &s4),
            "different accumulation orders must not cross-resume"
        );
    }

    #[test]
    fn weight_plan_fingerprint_is_pinned() {
        // Journals written by earlier builds must keep resuming, so the
        // fingerprint of a fixed weight plan at a fixed seed is frozen.
        let (_, data, _, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        assert_eq!(plan.total_sample(), 1459);
        let sampled = sample_strata_any(&plan, CampaignSpace::Weight(&space), 3).unwrap();
        let cfg = CampaignConfig::default();
        assert_eq!(plan_fingerprint(&plan, 3, data.len(), &cfg, &sampled), 0x82b5_33d6_61af_4ca2);
    }

    fn strip_wall(outcome: &SfiOutcome) -> impl PartialEq + std::fmt::Debug {
        (
            outcome.scheme(),
            outcome.strata().to_vec(),
            outcome
                .stratum_telemetry()
                .iter()
                .map(|t| {
                    (
                        t.injections,
                        t.inferences,
                        t.masked,
                        t.critical,
                        t.non_critical,
                        t.exec_failures,
                    )
                })
                .collect::<Vec<_>>(),
            outcome.layer_tallies().to_vec(),
            outcome.injections(),
            outcome.inferences(),
        )
    }

    #[test]
    fn uninterrupted_checkpointed_run_matches_plain_execution() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let cfg = CampaignConfig::default();
        let plain = Campaign::new(&model, &data, &golden, &plan, 5, &cfg)
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let dir = tmp_dir("plain");
        let run = Campaign::new(&model, &data, &golden, &plan, 5, &cfg)
            .checkpoint(&CheckpointConfig::new(&dir))
            .run()
            .unwrap();
        let CampaignRun::Complete { outcome, stats } = run else { panic!("expected Complete") };
        assert_eq!(strip_wall(&outcome), strip_wall(&plain));
        assert_eq!(stats.resumed, 0);
        assert_eq!(stats.completed, plain.injections());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupt_and_resume_is_identical_to_uninterrupted() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let cfg = CampaignConfig::default();
        let plain = Campaign::new(&model, &data, &golden, &plan, 7, &cfg)
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let dir = tmp_dir("resume");
        // Interrupt after ~40% of the plan.
        let token = CancelToken::new();
        let stop_at = plain.injections() * 2 / 5;
        let run = Campaign::new(&model, &data, &golden, &plan, 7, &cfg)
            .checkpoint(&CheckpointConfig::new(&dir))
            .cancel(&token)
            .progress(&mut |p| {
                if p.plan_completed >= stop_at {
                    token.cancel();
                }
            })
            .run()
            .unwrap();
        let CampaignRun::Interrupted { stats } = run else { panic!("expected an interrupted run") };
        assert!(stats.completed >= stop_at);
        assert!(stats.completed < plain.injections());
        // Resume to completion (different worker count on purpose).
        let resume_cfg = CampaignConfig { workers: 4, ..cfg };
        let checkpoint = CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 64 };
        let run = Campaign::new(&model, &data, &golden, &plan, 7, &resume_cfg)
            .checkpoint(&checkpoint)
            .run()
            .unwrap();
        let CampaignRun::Complete { outcome, stats } = run else { panic!("expected Complete") };
        assert_eq!(stats.resumed, stats.total - stats.completed);
        assert!(stats.resumed > 0, "the journal must have carried work over");
        assert_eq!(strip_wall(&outcome), strip_wall(&plain));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_under_different_plan_is_rejected() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let cfg = CampaignConfig::default();
        let dir = tmp_dir("mismatch");
        let run = Campaign::new(&model, &data, &golden, &plan, 1, &cfg)
            .checkpoint(&CheckpointConfig::new(&dir))
            .run();
        assert!(run.is_ok());
        // Same journal, different seed: the fingerprint must not match.
        let checkpoint = CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 64 };
        let err = Campaign::new(&model, &data, &golden, &plan, 2, &cfg)
            .checkpoint(&checkpoint)
            .run()
            .unwrap_err();
        assert!(matches!(err, SfiError::FaultSim(FaultSimError::CheckpointMismatch { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_ignores_workers_but_not_criterion() {
        let (_, data, _, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let cfg1 = CampaignConfig { workers: 1, ..CampaignConfig::default() };
        let cfg8 = CampaignConfig { workers: 8, ..CampaignConfig::default() };
        let sampled = sample_strata_any(&plan, CampaignSpace::Weight(&space), 3).unwrap();
        let a = plan_fingerprint(&plan, 3, data.len(), &cfg1, &sampled);
        let b = plan_fingerprint(&plan, 3, data.len(), &cfg8, &sampled);
        assert_eq!(a, b, "worker count must not invalidate a checkpoint");
        let naive =
            CampaignConfig { kernel: sfi_nn::KernelPolicy::Naive, ..CampaignConfig::default() };
        let k = plan_fingerprint(&plan, 3, data.len(), &naive, &sampled);
        assert_eq!(a, k, "kernel policy must not invalidate a checkpoint");
        let no_conv = CampaignConfig { convergence: false, ..CampaignConfig::default() };
        let v = plan_fingerprint(&plan, 3, data.len(), &no_conv, &sampled);
        assert_eq!(a, v, "the convergence early exit must not invalidate a checkpoint");
        let strict = CampaignConfig {
            criterion: Criterion::MismatchRate { threshold: 0.5 },
            ..CampaignConfig::default()
        };
        let c = plan_fingerprint(&plan, 3, data.len(), &strict, &sampled);
        assert_ne!(a, c, "the classification criterion is part of the plan identity");
    }

    #[test]
    fn interrupt_with_convergence_resumes_without_it_and_vice_versa() {
        // The journal stores classifications, not exit depths, so a run
        // interrupted with the golden-convergence early exit on must
        // resume byte-identically with it off — and the other way round.
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let base = CampaignConfig::default();
        let plain = Campaign::new(&model, &data, &golden, &plan, 13, &base)
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        for (first_conv, second_conv) in [(true, false), (false, true)] {
            let dir = tmp_dir(if first_conv { "conv-on-off" } else { "conv-off-on" });
            let first_cfg = CampaignConfig { convergence: first_conv, ..base };
            let token = CancelToken::new();
            let stop_at = plain.injections() / 2;
            let run = Campaign::new(&model, &data, &golden, &plan, 13, &first_cfg)
                .checkpoint(&CheckpointConfig::new(&dir))
                .cancel(&token)
                .progress(&mut |p| {
                    if p.plan_completed >= stop_at {
                        token.cancel();
                    }
                })
                .run()
                .unwrap();
            assert!(matches!(run, CampaignRun::Interrupted { .. }));
            let second_cfg = CampaignConfig { convergence: second_conv, ..base };
            let checkpoint =
                CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 64 };
            let run = Campaign::new(&model, &data, &golden, &plan, 13, &second_cfg)
                .checkpoint(&checkpoint)
                .run()
                .unwrap();
            let CampaignRun::Complete { outcome, stats } = run else { panic!("expected Complete") };
            assert!(stats.resumed > 0, "the journal must have carried work over");
            assert_eq!(
                strip_wall(&outcome),
                strip_wall(&plain),
                "convergence {first_conv}->{second_conv} resume must match the clean run"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupting_two_segments_drops_exactly_two_records_and_still_converges() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let cfg = CampaignConfig::default();
        let plain = Campaign::new(&model, &data, &golden, &plan, 11, &cfg)
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        let dir = tmp_dir("two-corrupt");
        // Session 1: interrupt partway so segment-000001 seals a prefix.
        let token = CancelToken::new();
        let stop_at = plain.injections() * 2 / 5;
        let run = Campaign::new(&model, &data, &golden, &plan, 11, &cfg)
            .checkpoint(&CheckpointConfig::new(&dir))
            .cancel(&token)
            .progress(&mut |p| {
                if p.plan_completed >= stop_at {
                    token.cancel();
                }
            })
            .run()
            .unwrap();
        assert!(matches!(run, CampaignRun::Interrupted { .. }));
        // Session 2: resume to completion, sealing segment-000002.
        let checkpoint = CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 64 };
        let run = Campaign::new(&model, &data, &golden, &plan, 11, &cfg)
            .checkpoint(&checkpoint)
            .run()
            .unwrap();
        assert!(matches!(run, CampaignRun::Complete { .. }));
        // Tear the final record of BOTH segments: each sealed segment then
        // yields one record fewer than its manifest entry, so recovery must
        // report exactly one drop per segment — two in total.
        for seg in ["segment-000001.sfj", "segment-000002.sfj"] {
            let path = dir.join(seg);
            let len = std::fs::metadata(&path).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len - 5).unwrap();
        }
        // Session 3: recovery drops the two torn records, re-executes those
        // two faults, and the merged outcome still matches the clean run.
        let run = Campaign::new(&model, &data, &golden, &plan, 11, &cfg)
            .checkpoint(&checkpoint)
            .run()
            .unwrap();
        let CampaignRun::Complete { outcome, stats } = run else { panic!("expected Complete") };
        assert_eq!(stats.dropped, 2, "exactly one record torn off each of the two segments");
        assert_eq!(stats.completed, 2, "each dropped record forces one re-execution");
        assert_eq!(stats.resumed, stats.total - 2);
        assert_eq!(strip_wall(&outcome), strip_wall(&plain));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completed_journal_resumes_to_the_same_outcome_without_reexecution() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let cfg = CampaignConfig::default();
        let dir = tmp_dir("noop");
        let first = Campaign::new(&model, &data, &golden, &plan, 9, &cfg)
            .checkpoint(&CheckpointConfig::new(&dir))
            .run()
            .unwrap();
        let checkpoint = CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 64 };
        let second = Campaign::new(&model, &data, &golden, &plan, 9, &cfg)
            .checkpoint(&checkpoint)
            .run()
            .unwrap();
        let (CampaignRun::Complete { outcome: a, .. }, CampaignRun::Complete { outcome: b, stats }) =
            (first, second)
        else {
            panic!("both runs must complete")
        };
        assert_eq!(stats.completed, 0, "nothing left to execute");
        assert_eq!(stats.resumed, stats.total);
        assert_eq!(strip_wall(&a), strip_wall(&b));
        std::fs::remove_dir_all(&dir).ok();
    }
}
