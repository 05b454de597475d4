//! The campaign runner: inject → re-infer → classify → revert, over a list
//! of faults, optionally across worker threads.
//!
//! [`run_campaign`] is a thin wrapper over the work-stealing
//! [`executor`](crate::executor) — one model clone per worker and dynamic
//! fault distribution. The historical static-shard scheduler is kept as
//! [`run_campaign_static`], the fault-order reference the executor's
//! depth-sorted schedule is tested against.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use sfi_dataset::Dataset;
use sfi_nn::{KernelPolicy, Model, SessionState};
use sfi_obs::Probe;

use crate::executor::{classify_one, needed_for_critical, with_executor, FaultTally};
use crate::fault::Fault;
use crate::golden::GoldenReference;
use crate::multi::CampaignFault;
use crate::FaultSimError;

/// How a fault corrupts a stored weight.
///
/// The default, [`Ieee754Corruption`], applies the fault model directly to
/// the weight's IEEE-754 bits — the paper's setting. Reduced-precision
/// representations implement this trait to strike the encoded weight
/// instead (see the `sfi-repr` crate).
pub trait Corruption: Sync {
    /// The faulty value the golden `original` reads as under `fault`.
    fn corrupt(&self, fault: &Fault, original: f32) -> f32;
}

/// Direct IEEE-754 single-precision corruption (the paper's fault model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ieee754Corruption;

impl Corruption for Ieee754Corruption {
    fn corrupt(&self, fault: &Fault, original: f32) -> f32 {
        fault.apply_to(original)
    }
}

/// How a fault's effect on the evaluation set maps to a classification.
///
/// The paper classifies faults as Critical or Non-critical "depending on
/// whether the top-1 prediction is correct"; with the golden predictions as
/// reference, the natural criterion is whether *any* evaluated image changes
/// its top-1 class ([`Criterion::AnyMismatch`]). The rate-based variant
/// generalises this to a tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Criterion {
    /// Critical iff at least one image's top-1 prediction changes.
    #[default]
    AnyMismatch,
    /// Critical iff the fraction of changed predictions exceeds `threshold`.
    MismatchRate {
        /// Fraction of the evaluation set that must change, in `[0, 1]`.
        threshold: f64,
    },
}

/// Classification outcome of a single injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// The fault changed at least the criterion's share of predictions.
    Critical,
    /// The stored bits changed but no (or too few) predictions did.
    NonCritical,
    /// The stuck-at value equalled the stored bit: the fault cannot have
    /// any effect and no inference was run.
    Masked,
    /// The fault could not be classified: evaluating it panicked beyond the
    /// retry budget or produced degenerate logits. Recorded instead of
    /// aborting the campaign; excluded from the statistical sample.
    ExecutionFailure,
}

impl FaultClass {
    /// Whether this class counts as a *success* in the paper's statistics
    /// (a fault that became a critical failure).
    pub fn is_critical(&self) -> bool {
        matches!(self, FaultClass::Critical)
    }
}

/// Campaign execution options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Fault classification criterion.
    pub criterion: Criterion,
    /// Reuse golden activation caches and re-run inference only from the
    /// faulted layer onwards. Disable to measure the ablation baseline.
    pub incremental: bool,
    /// Worker threads. `1` runs inline; larger values spawn a pool of
    /// scoped threads, each with its own model clone, that steal faults
    /// from a shared cursor (see [`crate::executor`]).
    pub workers: usize,
    /// Stop evaluating a fault's remaining images as soon as its
    /// classification is decided (always sound for
    /// [`Criterion::AnyMismatch`]).
    pub early_exit: bool,
    /// How many times a fault whose evaluation *panicked* is re-queued
    /// (to a surviving worker, or to a fresh model clone inline) before it
    /// is recorded as [`FaultClass::ExecutionFailure`]. Panics never abort
    /// a campaign; they cost at most `1 + max_fault_retries` attempts.
    pub max_fault_retries: usize,
    /// Inference kernel policy. [`KernelPolicy::Fast`] (the default) uses
    /// blocked GEMM, scratch arenas and any cached lowerings;
    /// [`KernelPolicy::Naive`] reproduces the historical per-fault cost
    /// (fresh allocations, naive GEMM) for ablation benches. Classifications
    /// are bit-identical either way. Excluded from plan fingerprints, like
    /// `workers`.
    #[serde(default)]
    pub kernel: KernelPolicy,
    /// Golden-convergence early exit: during incremental fast-path
    /// re-execution, stop the forward pass the moment a recomputed
    /// activation is **bit-identical** to the cached golden one — the
    /// skipped suffix could only have reproduced the golden activations,
    /// so the image's prediction is known without computing it.
    /// Classifications and inference counts are identical either way; only
    /// the per-inference cost (and the within-stratum fault order, which is
    /// depth-sorted when enabled) changes. Excluded from plan fingerprints,
    /// like `workers` and `kernel`.
    #[serde(default = "default_convergence")]
    pub convergence: bool,
    /// Row-band delta propagation for transient activation and input
    /// faults: during incremental fast-path re-execution, carry each faulty
    /// activation with the band of rows that may differ from golden,
    /// starting from the struck element's row, skip every node whose
    /// inputs are golden, and run each GEMM conv over only the rows its
    /// input band reaches ([`sfi_nn::Model::forward_delta_site`]). When
    /// off, transients run the dense patched suffix. Weight faults never take
    /// this engine: they run dense or batched whatever this field says.
    /// Classifications and inference counts are bit-identical either way;
    /// only the per-inference cost changes. Excluded from plan
    /// fingerprints, like `workers`, `kernel` and `convergence`.
    #[serde(default = "default_delta")]
    pub delta: bool,
    /// Batched eval-image forward: during incremental fast-path weight
    /// campaigns, run the dirty suffix of **all** E eval images as one
    /// batched pass over the compiled execution plan — one fused GEMM per
    /// conv step for the whole batch instead of one per image. Per-image
    /// logits rows are bit-identical to E per-image passes, and the
    /// executor replays the per-image early-exit loop over them, so
    /// classifications and inference counts are identical at any worker
    /// count. The compiled plan picks it per fault from the suffix's static
    /// cost ([`sfi_nn::CompiledPlan::batched_profitable`]); it needs more
    /// than one eval image. Excluded from plan fingerprints, like `workers`, `kernel`,
    /// `convergence` and `delta`.
    #[serde(default = "default_batched")]
    pub batched: bool,
}

/// Serde default for [`CampaignConfig::convergence`]: configs written
/// before the early-exit engine existed load with it enabled.
fn default_convergence() -> bool {
    true
}

/// Serde default for [`CampaignConfig::delta`]: configs written before the
/// delta-propagation engine existed load with it enabled.
fn default_delta() -> bool {
    true
}

/// Serde default for [`CampaignConfig::batched`]: configs written before
/// the batched eval-image engine existed load with it enabled.
fn default_batched() -> bool {
    true
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            criterion: Criterion::AnyMismatch,
            incremental: true,
            workers: 1,
            early_exit: true,
            max_fault_retries: 1,
            kernel: KernelPolicy::Fast,
            convergence: default_convergence(),
            delta: default_delta(),
            batched: default_batched(),
        }
    }
}

/// Aggregate outcome of a campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-fault classification, aligned with the input fault order.
    pub classes: Vec<FaultClass>,
    /// Number of faults injected (== input length).
    pub injections: u64,
    /// Number of single-image inferences executed.
    pub inferences: u64,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
    /// Weight-fault suffix passes that reused a worker's im2col panel of
    /// the faulted conv's golden input.
    #[serde(default)]
    pub lowering_hits: u64,
    /// Weight-fault suffix passes that built that panel (passes whose
    /// faulted node has no panel count as neither).
    #[serde(default)]
    pub lowering_misses: u64,
    /// High-water mark of per-worker scratch-arena bytes at campaign end
    /// (0 under [`KernelPolicy::Naive`], which allocates afresh).
    #[serde(default)]
    pub arena_peak_bytes: u64,
    /// Faults for which at least one image's forward pass converged onto
    /// the golden activations early (0 with
    /// [`CampaignConfig::convergence`] disabled).
    #[serde(default)]
    pub converged: u64,
    /// Graph nodes skipped by golden-convergence early exits, summed over
    /// every converged image of every fault.
    #[serde(default)]
    pub nodes_skipped: u64,
    /// Nodes the delta engine evaluated densely over their row bands (0
    /// with [`CampaignConfig::delta`] disabled).
    #[serde(default)]
    pub delta_fallbacks: u64,
    /// Dirty 4x4 spatial blocks summed over every delta pass's surviving
    /// row bands — the total dirty-cone volume of the campaign.
    #[serde(default)]
    pub delta_dirty_blocks: u64,
    /// Faults evaluated by the dense (early-exit) engine. Masked faults
    /// (and faults that panicked past the retry budget) count toward no
    /// engine; every evaluated fault counts toward exactly one.
    #[serde(default)]
    pub engine_dense: u64,
    /// Faults evaluated by the row-band delta engine.
    #[serde(default)]
    pub engine_delta: u64,
    /// Faults evaluated by the batched eval-image engine.
    #[serde(default)]
    pub engine_batched: u64,
}

impl CampaignResult {
    /// Number of critical faults.
    pub fn critical(&self) -> u64 {
        self.classes.iter().filter(|c| c.is_critical()).count() as u64
    }

    /// Number of masked faults (stuck-at equal to the stored bit).
    pub fn masked(&self) -> u64 {
        self.classes.iter().filter(|c| matches!(c, FaultClass::Masked)).count() as u64
    }

    /// Number of faults recorded as [`FaultClass::ExecutionFailure`]
    /// (panicked beyond the retry budget or degenerate logits).
    pub fn exec_failures(&self) -> u64 {
        self.classes.iter().filter(|c| matches!(c, FaultClass::ExecutionFailure)).count() as u64
    }

    /// Fraction of critical faults among all injected faults.
    pub fn critical_rate(&self) -> f64 {
        if self.classes.is_empty() {
            0.0
        } else {
            self.critical() as f64 / self.classes.len() as f64
        }
    }
}

/// Runs a fault-injection campaign.
///
/// For every fault: inject into a worker-local clone of `model`, evaluate
/// the dataset (incrementally from the faulted layer when
/// `cfg.incremental`), classify against `golden`, revert. `faults` is any
/// list that converts into [`CampaignFault`]s: weight faults, transient
/// activation/input faults, and accumulated multi-fault instances, freely
/// mixed. Results are returned in input order regardless of worker count,
/// and the entire run is deterministic.
///
/// # Errors
///
/// Returns [`FaultSimError::EmptyEvalSet`] for an empty dataset,
/// [`FaultSimError::EvalSetMismatch`] for a golden reference built for a
/// different number of images, an injection error for a fault that does
/// not fit the model, or the first inference failure.
///
/// # Example
///
/// ```
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::campaign::{run_campaign, CampaignConfig};
/// use sfi_faultsim::fault::{Fault, FaultModel, FaultSite};
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_nn::resnet::ResNetConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(3).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// let fault = Fault {
///     site: FaultSite { layer: 0, weight: 0, bit: 30 },
///     model: FaultModel::StuckAt1,
/// };
/// let result = run_campaign(&model, &data, &golden, &[fault], &CampaignConfig::default())?;
/// assert_eq!(result.injections, 1);
/// # Ok(())
/// # }
/// ```
pub fn run_campaign<F: Clone + Into<CampaignFault>>(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    faults: &[F],
    cfg: &CampaignConfig,
) -> Result<CampaignResult, FaultSimError> {
    // Never spawn more workers than faults; the executor's cursor would
    // leave the excess idle anyway, but their model clones are not free.
    let cfg = CampaignConfig { workers: cfg.workers.max(1).min(faults.len().max(1)), ..*cfg };
    with_executor(model, data, golden, &cfg, &Ieee754Corruption, Probe::disabled(), |exec| {
        exec.run(faults)
    })
}

/// Runs a campaign with the historical static-shard scheduler: the fault
/// list is split into `workers` contiguous chunks up front, one scoped
/// thread per chunk.
///
/// Classifications are identical to [`run_campaign`]; only the schedule
/// differs. It stays as a test reference: it classifies in fault order
/// while the executor classifies in depth-sorted execution order, and the
/// executor-determinism and eval-set-mismatch tests compare the two. It is
/// also the `campaign` bench's ablation baseline — per-fault cost is uneven
/// (masked faults are free, early-exited critical faults nearly so), so
/// static shards straggle where the work-stealing executor balances.
///
/// # Errors
///
/// Same conditions as [`run_campaign`].
pub fn run_campaign_static<C: Corruption>(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    faults: &[Fault],
    cfg: &CampaignConfig,
    corruption: &C,
) -> Result<CampaignResult, FaultSimError> {
    golden.check_session(model, data)?;
    let start = Instant::now();
    let workers = cfg.workers.max(1).min(faults.len().max(1));
    let shard_out = if workers <= 1 {
        let mut worker_model = model.clone();
        run_shard(&mut worker_model, data, golden, faults, cfg, corruption)?
    } else {
        let chunk = faults.len().div_ceil(workers);
        let shards: Vec<&[Fault]> = faults.chunks(chunk).collect();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| {
                    scope.spawn(move || {
                        let mut worker_model = model.clone();
                        run_shard(&mut worker_model, data, golden, shard, cfg, corruption)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker must not panic"))
                .collect::<Vec<_>>()
        });
        let mut merged = ShardOutcome::default();
        for r in results {
            let shard = r?;
            merged.classes.extend(shard.classes);
            merged.tally += shard.tally;
            merged.arena_peak = merged.arena_peak.max(shard.arena_peak);
        }
        merged
    };
    Ok(shard_out.tally.into_result(shard_out.classes, start.elapsed(), shard_out.arena_peak))
}

/// Tallies of one static shard.
#[derive(Default)]
struct ShardOutcome {
    classes: Vec<FaultClass>,
    tally: FaultTally,
    arena_peak: u64,
}

/// Processes a contiguous shard of faults on one worker-local model,
/// returning classifications, inference count, and the shard arena's
/// high-water mark. The static scheduler runs faults in shard order (no
/// depth sorting), which cannot affect results — only the schedule.
fn run_shard<C: Corruption>(
    model: &mut Model,
    data: &Dataset,
    golden: &GoldenReference,
    faults: &[Fault],
    cfg: &CampaignConfig,
    corruption: &C,
) -> Result<ShardOutcome, FaultSimError> {
    let needed = needed_for_critical(cfg, data.len());
    let mut out = ShardOutcome { classes: Vec::with_capacity(faults.len()), ..Default::default() };
    let mut session = SessionState::new();
    for fault in faults {
        let item = classify_one(
            model,
            data,
            golden,
            fault,
            needed,
            cfg,
            corruption,
            &mut session,
            sfi_obs::WorkerProbe::off(),
        )?;
        out.classes.push(item.class);
        out.tally += item.tally;
    }
    out.arena_peak = session.arena.peak_bytes() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, FaultSite};
    use crate::population::FaultSpace;
    use sfi_dataset::SynthCifarConfig;
    use sfi_nn::resnet::ResNetConfig;

    fn setup() -> (Model, Dataset, GoldenReference) {
        let model = ResNetConfig::resnet20_micro().build_seeded(4).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        (model, data, golden)
    }

    fn sa1(layer: usize, weight: usize, bit: u8) -> Fault {
        Fault { site: FaultSite { layer, weight, bit }, model: FaultModel::StuckAt1 }
    }

    #[test]
    fn exponent_msb_faults_are_mostly_critical() {
        let (model, data, golden) = setup();
        let faults: Vec<Fault> = (0..20).map(|w| sa1(0, w, 30)).collect();
        let res =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        assert_eq!(res.injections, 20);
        assert!(
            res.critical() > 10,
            "exponent-MSB stuck-at-1 should overwhelmingly be critical, got {}",
            res.critical()
        );
    }

    #[test]
    fn mantissa_lsb_faults_are_harmless() {
        let (model, data, golden) = setup();
        let faults: Vec<Fault> = (0..20).map(|w| sa1(0, w, 0)).collect();
        let res =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        assert_eq!(res.critical(), 0, "mantissa LSB flips cannot move the top-1");
    }

    #[test]
    fn incremental_and_full_reexecution_agree() {
        let (model, data, golden) = setup();
        let space = FaultSpace::stuck_at(&model);
        let sub = space.bit_subpopulation(3, 29).unwrap();
        let faults: Vec<Fault> = sub.iter().take(40).collect();
        let inc = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { incremental: true, early_exit: false, ..Default::default() },
        )
        .unwrap();
        let full = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { incremental: false, early_exit: false, ..Default::default() },
        )
        .unwrap();
        assert_eq!(inc.classes, full.classes);
    }

    #[test]
    fn multi_worker_matches_single_worker() {
        let (model, data, golden) = setup();
        let faults: Vec<Fault> = (0..30).map(|w| sa1(1, w % 36, (w % 31) as u8)).collect();
        let single = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { workers: 1, ..Default::default() },
        )
        .unwrap();
        let multi = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { workers: 4, ..Default::default() },
        )
        .unwrap();
        assert_eq!(single.classes, multi.classes);
    }

    #[test]
    fn masked_faults_skip_inference() {
        let (model, data, golden) = setup();
        // He-init weights have |w| < 2, so bit 30 is 0: stuck-at-0 masked.
        let faults: Vec<Fault> = (0..10)
            .map(|w| Fault {
                site: FaultSite { layer: 0, weight: w, bit: 30 },
                model: FaultModel::StuckAt0,
            })
            .collect();
        let res =
            run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        assert_eq!(res.masked(), 10);
        assert_eq!(res.inferences, 0);
        assert_eq!(res.critical(), 0);
    }

    #[test]
    fn early_exit_reduces_inferences_without_changing_classes() {
        let (model, data, golden) = setup();
        let faults: Vec<Fault> = (0..10).map(|w| sa1(0, w, 30)).collect();
        let eager = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { early_exit: true, ..Default::default() },
        )
        .unwrap();
        let lazy = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { early_exit: false, ..Default::default() },
        )
        .unwrap();
        assert_eq!(eager.classes, lazy.classes);
        assert!(eager.inferences <= lazy.inferences);
    }

    #[test]
    fn mismatch_rate_criterion_is_stricter() {
        let (model, data, golden) = setup();
        let faults: Vec<Fault> = (0..16).map(|w| sa1(0, w, 29)).collect();
        let any = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig { criterion: Criterion::AnyMismatch, ..Default::default() },
        )
        .unwrap();
        let strict = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig {
                criterion: Criterion::MismatchRate { threshold: 0.99 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(strict.critical() <= any.critical());
    }

    #[test]
    fn static_scheduler_matches_work_stealing() {
        let (model, data, golden) = setup();
        let faults: Vec<Fault> = (0..30).map(|w| sa1(1, w % 36, (w % 31) as u8)).collect();
        let cfg = CampaignConfig { workers: 4, ..Default::default() };
        let stealing = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
        let static_ =
            run_campaign_static(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption).unwrap();
        assert_eq!(stealing.classes, static_.classes);
        assert_eq!(stealing.inferences, static_.inferences);
    }

    #[test]
    fn model_is_clean_after_campaign() {
        let (model, data, golden) = setup();
        let before = model.store().clone();
        let faults: Vec<Fault> = (0..8).map(|w| sa1(2, w, 28)).collect();
        let _ = run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
        assert_eq!(*model.store(), before, "campaign must not mutate the input model");
    }

    #[test]
    fn empty_faults_yield_empty_result() {
        let (model, data, golden) = setup();
        let res =
            run_campaign::<Fault>(&model, &data, &golden, &[], &CampaignConfig::default()).unwrap();
        assert_eq!(res.injections, 0);
        assert_eq!(res.critical_rate(), 0.0);
    }

    #[test]
    fn rejects_empty_dataset() {
        let (model, data, golden) = setup();
        let empty = data.truncated(0);
        assert!(matches!(
            run_campaign::<Fault>(&model, &empty, &golden, &[], &CampaignConfig::default()),
            Err(FaultSimError::EmptyEvalSet)
        ));
    }
}
