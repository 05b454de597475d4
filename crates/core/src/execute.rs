//! Executing an [`SfiPlan`]: sampling, injecting, classifying, estimating —
//! the [`Campaign`] builder and its single stratum loop.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use sfi_dataset::Dataset;
use sfi_faultsim::activation::ActivationSpace;
use sfi_faultsim::campaign::{
    CampaignConfig, CampaignResult, Corruption, FaultClass, Ieee754Corruption,
};
use sfi_faultsim::executor::{with_executor, CampaignTelemetry, CancelToken};
use sfi_faultsim::fault::Fault;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::journal::FaultId;
use sfi_faultsim::multi::{AccumulatedFault, CampaignFault, FaultTarget};
use sfi_faultsim::population::{FaultSpace, Subpopulation};
use sfi_faultsim::FaultSimError;
use sfi_nn::Model;
use sfi_obs::{Event, Probe};
use sfi_stats::confidence::Confidence;
use sfi_stats::estimate::{stratified_estimate, StratifiedEstimate, StratumResult};
use sfi_stats::sample_size::accumulated_population;
use sfi_stats::sampling::sample_without_replacement;

use crate::checkpoint::{
    open_journal, plan_fingerprint, CampaignRun, CheckpointConfig, DoneMap, ResumeStats,
};
use crate::plan::{SchemeKind, SfiPlan, Stratum};
use crate::SfiError;

/// The fault population a plan executes against — the union of the
/// supported fault models. Weight plans resolve strata in a
/// [`FaultSpace`]; transient plans in an [`ActivationSpace`]; accumulated
/// plans draw `k`-subsets of the *composed* population (weight sites
/// first, then activation sites).
#[derive(Clone, Copy)]
pub enum CampaignSpace<'a> {
    /// Permanent weight faults (the paper's setting).
    Weight(&'a FaultSpace),
    /// Transient activation/input faults.
    Transient(&'a ActivationSpace),
    /// Accumulated multi-fault instances over the union of both spaces.
    Accumulated {
        /// The permanent weight-fault population.
        weights: &'a FaultSpace,
        /// The transient activation-fault population.
        activations: &'a ActivationSpace,
    },
}

/// Per-stratum outcome: the plan entry plus the observed tallies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StratumOutcome {
    /// The planned stratum.
    pub stratum: Stratum,
    /// Observed sample / success counts (population repeated for estimator
    /// convenience).
    pub result: StratumResult,
}

/// Tally of one layer's share of a campaign (used for per-layer estimates
/// of schemes that do not stratify by layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerTally {
    /// Weight layer index.
    pub layer: usize,
    /// Faults of this layer that were injected.
    pub sample: u64,
    /// Of those, how many were critical.
    pub successes: u64,
}

/// Live progress of a plan execution, delivered to the observer set with
/// [`Campaign::progress`] after every classified fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanProgress {
    /// Index of the stratum currently executing (plan order).
    pub stratum: usize,
    /// Total strata in the plan.
    pub strata: usize,
    /// Faults classified within the current stratum.
    pub completed: u64,
    /// Faults planned for the current stratum.
    pub total: u64,
    /// Faults classified across the whole plan so far.
    pub plan_completed: u64,
    /// Faults planned across the whole plan.
    pub plan_total: u64,
    /// Single-image inferences executed across the whole plan so far.
    pub inferences: u64,
}

/// Complete outcome of executing an SFI plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SfiOutcome {
    scheme: SchemeKind,
    strata: Vec<StratumOutcome>,
    stratum_telemetry: Vec<CampaignTelemetry>,
    layer_tallies: Vec<LayerTally>,
    layer_populations: Vec<u64>,
    injections: u64,
    inferences: u64,
    elapsed: Duration,
}

impl SfiOutcome {
    /// The scheme that was executed.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// Per-stratum outcomes, in plan order.
    pub fn strata(&self) -> &[StratumOutcome] {
        &self.strata
    }

    /// Total faults injected.
    pub fn injections(&self) -> u64 {
        self.injections
    }

    /// Total single-image inferences executed.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Wall-clock duration of the execution.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Whole-network critical-rate estimate.
    ///
    /// For stratified schemes this is the weighted stratified estimator;
    /// for the network-wise scheme it is the plain proportion estimate.
    ///
    /// # Errors
    ///
    /// Returns an error when the outcome holds no strata.
    pub fn network_estimate(&self, confidence: Confidence) -> Result<StratifiedEstimate, SfiError> {
        let results: Vec<StratumResult> = self.strata.iter().map(|s| s.result).collect();
        Ok(stratified_estimate(&results, confidence)?)
    }

    /// Critical-rate estimate for one weight layer.
    ///
    /// - Layer-stratified schemes (layer-wise, data-unaware, data-aware)
    ///   combine the layer's strata with the stratified estimator.
    /// - The network-wise scheme falls back to treating the faults that
    ///   happened to land in the layer as a simple random sample of it —
    ///   statistically shaky by design; the paper's Fig. 7 uses exactly
    ///   this construction to show how wide the resulting margins are.
    ///
    /// Returns `None` when the layer received no strata and no faults.
    pub fn layer_estimate(
        &self,
        layer: usize,
        confidence: Confidence,
    ) -> Option<StratifiedEstimate> {
        let results: Vec<StratumResult> = self
            .strata
            .iter()
            .filter(|s| s.stratum.layer == Some(layer))
            .map(|s| s.result)
            .collect();
        if !results.is_empty() {
            return stratified_estimate(&results, confidence).ok();
        }
        // Network-wise fallback: per-layer tally with the layer population.
        let tally = self.layer_tallies.iter().find(|t| t.layer == layer)?;
        let population = *self.layer_populations.get(layer)?;
        let result = StratumResult { population, sample: tally.sample, successes: tally.successes };
        stratified_estimate(&[result], confidence).ok()
    }

    /// Per-layer raw tallies (every scheme records them).
    pub fn layer_tallies(&self) -> &[LayerTally] {
        &self.layer_tallies
    }

    /// Per-stratum telemetry (wall time, inference counts, class tallies),
    /// aligned with [`strata`](Self::strata).
    pub fn stratum_telemetry(&self) -> &[CampaignTelemetry] {
        &self.stratum_telemetry
    }
}

/// One SFI campaign: `plan` executed against `model` on `data`.
///
/// [`Campaign::new`] takes what every campaign needs and defaults the rest:
/// the stuck-at [`FaultSpace`] of `model`, [`Ieee754Corruption`], a
/// disabled probe, no progress observer, no checkpoint journal and no
/// cancellation. Each setter replaces one default; [`run`](Campaign::run)
/// executes the plan.
///
/// Sampling is deterministic in `seed` (each stratum derives an independent
/// sub-seed), so outcomes are reproducible and different samples `S0..S9`
/// (paper Fig. 6) are obtained by varying `seed`. Classifications and
/// estimates are byte-identical across worker counts, trace levels, and
/// interrupt/resume cycles.
///
/// # Example
///
/// ```
/// use sfi_core::execute::Campaign;
/// use sfi_core::plan::plan_layer_wise;
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::campaign::CampaignConfig;
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_faultsim::population::FaultSpace;
/// use sfi_nn::resnet::ResNetConfig;
/// use sfi_stats::confidence::Confidence;
/// use sfi_stats::sample_size::SampleSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// let space = FaultSpace::stuck_at(&model);
/// // A deliberately loose spec to keep the doctest fast.
/// let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
/// let plan = plan_layer_wise(&space, &spec);
/// let cfg = CampaignConfig::default();
/// let outcome = Campaign::new(&model, &data, &golden, &plan, 7, &cfg).run()?.into_outcome()?;
/// let est = outcome.network_estimate(Confidence::C99)?;
/// assert!((0.0..=1.0).contains(&est.proportion));
/// # Ok(())
/// # }
/// ```
pub struct Campaign<'a, C: Corruption = Ieee754Corruption> {
    model: &'a Model,
    data: &'a Dataset,
    golden: &'a GoldenReference,
    plan: &'a SfiPlan,
    seed: u64,
    cfg: &'a CampaignConfig,
    space: Option<CampaignSpace<'a>>,
    corruption: &'a C,
    probe: &'a Probe,
    progress: Option<&'a mut dyn FnMut(PlanProgress)>,
    checkpoint: Option<&'a CheckpointConfig>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Campaign<'a> {
    /// A campaign of `plan` at sampling seed `seed`, with every optional
    /// part at its default.
    pub fn new(
        model: &'a Model,
        data: &'a Dataset,
        golden: &'a GoldenReference,
        plan: &'a SfiPlan,
        seed: u64,
        cfg: &'a CampaignConfig,
    ) -> Self {
        Self {
            model,
            data,
            golden,
            plan,
            seed,
            cfg,
            space: None,
            corruption: &Ieee754Corruption,
            probe: Probe::disabled(),
            progress: None,
            checkpoint: None,
            cancel: None,
        }
    }
}

impl<'a, C: Corruption> Campaign<'a, C> {
    /// The fault population to sample: a weight space (for example a
    /// reduced-precision one from `FaultSpace::with_bits`), a transient
    /// activation/input space, or the accumulated union of both. It must
    /// match the plan's fault model.
    pub fn space(self, space: CampaignSpace<'a>) -> Self {
        Self { space: Some(space), ..self }
    }

    /// How a fault corrupts a stored weight (see the `sfi-repr` crate for
    /// reduced-precision formats).
    pub fn corruption<D: Corruption>(self, corruption: &'a D) -> Campaign<'a, D> {
        Campaign {
            model: self.model,
            data: self.data,
            golden: self.golden,
            plan: self.plan,
            seed: self.seed,
            cfg: self.cfg,
            space: self.space,
            corruption,
            probe: self.probe,
            progress: self.progress,
            checkpoint: self.checkpoint,
            cancel: self.cancel,
        }
    }

    /// An observability probe: the run emits `campaign_start`,
    /// `plan_compiled`, per-stratum spans, `fault` events and
    /// `campaign_end` (plus `resume`/`interrupted` with a checkpoint), and
    /// the executor records per-worker metrics into it. The probe never
    /// changes classifications or estimates.
    pub fn probe(self, probe: &'a Probe) -> Self {
        Self { probe, ..self }
    }

    /// A progress observer, called after every classified fault with
    /// plan-wide completion and inference counts.
    pub fn progress(self, progress: &'a mut dyn FnMut(PlanProgress)) -> Self {
        Self { progress: Some(progress), ..self }
    }

    /// Write-ahead checkpointing into a journal.
    ///
    /// - **Fresh run** (`checkpoint.resume == false`): `checkpoint.dir`
    ///   must not already hold a journal; every classification is
    ///   journaled as it completes.
    /// - **Resume** (`checkpoint.resume == true`): the journal is recovered
    ///   (tolerating truncated or checksum-failing tails), validated
    ///   against this plan's [`plan_fingerprint`], and every fault it
    ///   already classifies is skipped. Only the remainder is re-executed,
    ///   into a fresh journal segment.
    ///
    /// Takes a `&CheckpointConfig` or an `Option` of one.
    pub fn checkpoint(self, checkpoint: impl Into<Option<&'a CheckpointConfig>>) -> Self {
        Self { checkpoint: checkpoint.into(), ..self }
    }

    /// Cooperative cancellation: when `cancel` fires, the run stops at a
    /// fault boundary, drains in-flight work (into the journal, when there
    /// is one), and returns [`CampaignRun::Interrupted`].
    ///
    /// Takes a `&CancelToken` or an `Option` of one.
    pub fn cancel(self, cancel: impl Into<Option<&'a CancelToken>>) -> Self {
        Self { cancel: cancel.into(), ..self }
    }

    /// Samples every stratum, then executes them all against **one** worker
    /// pool ([`with_executor`]): each worker's model clone is built once and
    /// amortised across the entire plan. A completed outcome is identical
    /// however many times the campaign was interrupted and resumed, and at
    /// whichever worker counts it ran; only wall-clock durations differ.
    ///
    /// # Errors
    ///
    /// Returns an error when the plan does not fit the space
    /// ([`SfiError::PlanMismatch`], also when the plan's fault model does
    /// not match the space variant), sampling fails, or the underlying
    /// campaign fails; with a checkpoint, also journal I/O failures
    /// ([`FaultSimError::Journal`]) and resuming against a journal from a
    /// different plan ([`FaultSimError::CheckpointMismatch`]).
    pub fn run(self) -> Result<CampaignRun, SfiError> {
        let Campaign { model, data, golden, plan, seed, cfg, space, corruption, .. } = self;
        let Campaign { probe, progress, checkpoint, cancel, .. } = self;
        if checkpoint.is_some_and(|c| c.checkpoint_every == 0) {
            return Err(SfiError::InvalidExperiment {
                reason: "checkpoint_every must be at least 1".into(),
            });
        }
        let stuck_at;
        let space = match space {
            Some(space) => space,
            None => {
                stuck_at = FaultSpace::stuck_at(model);
                CampaignSpace::Weight(&stuck_at)
            }
        };
        let mut no_progress = |_: PlanProgress| {};
        let progress = progress.unwrap_or(&mut no_progress);
        let start = Instant::now();
        // Phase 1 — resolve and sample every stratum (plan/sampling errors
        // surface before any worker is spawned), then recover the journal.
        let sampled = sample_strata_any(plan, space, seed)?;
        let (mut journal, done, dropped) = match checkpoint {
            Some(c) => {
                let fingerprint = plan_fingerprint(plan, seed, data.len(), cfg, &sampled);
                let (writer, done, dropped) =
                    open_journal(&c.dir, c.resume, fingerprint, c.checkpoint_every)?;
                (Some(writer), done, dropped)
            }
            None => (None, DoneMap::new(), 0),
        };
        let n_strata = sampled.len();
        let plan_total: u64 = sampled.iter().map(|f| f.len() as u64).sum();
        let per_stratum_resumed: Vec<u64> = sampled
            .iter()
            .enumerate()
            .map(|(s, faults)| {
                (0..faults.len()).filter(|&i| done.contains_key(&FaultId::new(s, i))).count() as u64
            })
            .collect();
        let resumed: u64 = per_stratum_resumed.iter().sum();
        probe.emit(&Event::CampaignStart {
            strata: n_strata,
            faults: plan_total,
            workers: cfg.workers.max(1),
            fault_model: fault_model_label(plan),
        });
        let exec_plan = golden.plan();
        probe.emit(&Event::PlanCompiled {
            nodes: exec_plan.len(),
            fused_groups: exec_plan.fused_groups(),
            lowerable_convs: (0..exec_plan.len())
                .filter(|&i| exec_plan.is_lowerable_conv(i))
                .count(),
            batched: cfg.batched,
        });
        if checkpoint.is_some_and(|c| c.resume) {
            probe.emit(&Event::Resume { resumed, dropped });
        }

        // Phase 2 — one executor session across all strata, journaling each
        // classification from the collector as it completes.
        let mut completed = 0u64;
        let mut journal_error: Option<FaultSimError> = None;
        let mut session: Vec<Option<CampaignResult>> = Vec::with_capacity(n_strata);
        let mut interrupted = false;
        let exec_out = with_executor(model, data, golden, cfg, corruption, probe, |exec| {
            let mut done_before = resumed;
            let mut inferences_before = 0u64;
            for (s, faults) in sampled.iter().enumerate() {
                if cancel.is_some_and(|t| t.is_cancelled()) {
                    interrupted = true;
                    break;
                }
                let stratum_resumed = per_stratum_resumed[s];
                // A stratum the journal covers entirely has nothing to run.
                if stratum_resumed > 0 && stratum_resumed == faults.len() as u64 {
                    session.push(None);
                    continue;
                }
                // Faults still to run, and each one's index in the stratum.
                let todo: Option<(Vec<CampaignFault>, Vec<usize>)> =
                    (stratum_resumed > 0).then(|| {
                        (0..faults.len())
                            .filter(|&i| !done.contains_key(&FaultId::new(s, i)))
                            .map(|i| (faults[i].clone(), i))
                            .unzip()
                    });
                let (to_run, index_of): (&[CampaignFault], &[usize]) = match &todo {
                    Some((subset, indices)) => (subset, indices),
                    None => (faults, &[]),
                };
                let index = |i: usize| index_of.get(i).copied().unwrap_or(i);
                if probe.spans() {
                    let label = stratum_label_any(plan.target(), &plan.strata()[s]);
                    probe.emit(&Event::StratumStart {
                        stratum: s,
                        label: &label,
                        faults: to_run.len() as u64,
                    });
                }
                let out = exec.run_with(
                    to_run,
                    &mut |p| {
                        progress(PlanProgress {
                            stratum: s,
                            strata: n_strata,
                            completed: stratum_resumed + p.completed,
                            total: faults.len() as u64,
                            plan_completed: done_before + p.completed,
                            plan_total,
                            inferences: inferences_before + p.inferences,
                        })
                    },
                    &mut |i, class, cost| {
                        completed += 1;
                        probe.emit(&Event::Fault {
                            stratum: s,
                            index: index(i),
                            class: class_name(class),
                            inferences: cost,
                        });
                        if let (Some(writer), None) = (journal.as_mut(), &journal_error) {
                            if let Err(e) = writer.append(FaultId::new(s, index(i)), class, cost) {
                                journal_error = Some(e);
                            }
                        }
                    },
                    cancel,
                );
                match out {
                    Ok(result) => {
                        if probe.spans() {
                            let tel = CampaignTelemetry::from_result(&result);
                            probe.emit(&Event::StratumEnd {
                                stratum: s,
                                injections: tel.injections,
                                masked: tel.masked,
                                critical: tel.critical,
                                non_critical: tel.non_critical,
                                failures: tel.exec_failures,
                                lowering_hits: tel.lowering_hits,
                                lowering_misses: tel.lowering_misses,
                                converged: tel.converged,
                                nodes_skipped: tel.nodes_skipped,
                                delta_fallbacks: tel.delta_fallbacks,
                                delta_dirty_blocks: tel.delta_dirty_blocks,
                                wall_ms: tel.wall.as_secs_f64() * 1e3,
                            });
                        }
                        done_before += result.injections;
                        inferences_before += result.inferences;
                        session.push(Some(result));
                    }
                    Err(FaultSimError::Cancelled { .. }) => interrupted = true,
                    Err(e) => return Err(e),
                }
                if let Some(e) = journal_error.take() {
                    return Err(e);
                }
                if interrupted {
                    break;
                }
            }
            Ok(())
        });
        // Seal before surfacing any error: whatever was classified is durable.
        let seal = journal.as_mut().map_or(Ok(()), |writer| {
            let seal = writer.seal();
            let (fsyncs, fsync_ns) = writer.fsync_stats();
            probe.record_fsync(fsyncs, fsync_ns);
            seal
        });
        exec_out?;
        seal?;

        let stats =
            ResumeStats { resumed, dropped, completed, total: plan_total, per_stratum_resumed };
        if interrupted {
            probe.emit(&Event::Interrupted { completed });
            return Ok(CampaignRun::Interrupted { stats });
        }
        // Phase 3 — splice journal-resumed classes (and their inference
        // costs) back into fault order. Fast-path counters stay the fresh
        // session's own: the journal stores classes, not exit depths.
        let mut results = Vec::with_capacity(n_strata);
        for ((s, faults), fresh) in sampled.iter().enumerate().zip(session) {
            let mut result = fresh.unwrap_or_default();
            if stats.per_stratum_resumed[s] > 0 {
                let mut fresh_classes = std::mem::take(&mut result.classes).into_iter();
                for i in 0..faults.len() {
                    let class = match done.get(&FaultId::new(s, i)) {
                        Some(&(class, cost)) => {
                            result.inferences += cost;
                            class
                        }
                        None => {
                            fresh_classes.next().expect("the session ran every unjournaled fault")
                        }
                    };
                    result.classes.push(class);
                }
                result.injections = faults.len() as u64;
            }
            results.push(result);
        }
        let outcome = assemble_outcome_any(plan, space, &sampled, &results, start.elapsed());
        probe.emit(&Event::CampaignEnd {
            injections: outcome.injections,
            inferences: outcome.inferences,
            wall_ms: outcome.elapsed.as_secs_f64() * 1e3,
        });
        Ok(CampaignRun::Complete { outcome, stats })
    }
}

/// The display label of a stratum (matches the telemetry report). Weight
/// strata index layers (`L3/b17`); transient strata index node groups
/// (`N3/b17`).
pub(crate) fn stratum_label_any(target: FaultTarget, stratum: &Stratum) -> String {
    let tag = if target == FaultTarget::Weight { 'L' } else { 'N' };
    match (stratum.layer, stratum.bit) {
        (None, _) => "network".to_string(),
        (Some(l), None) => format!("{tag}{l}"),
        (Some(l), Some(b)) => format!("{tag}{l}/b{b}"),
    }
}

/// The trace-attribute spelling of a plan's fault model: the target name,
/// or `accumulated` when instances compose `k > 1` faults.
pub fn fault_model_label(plan: &SfiPlan) -> &'static str {
    if plan.accumulate() > 1 {
        "accumulated"
    } else {
        match plan.target() {
            FaultTarget::Weight => "weight",
            FaultTarget::Activation => "activation",
            FaultTarget::Input => "input",
        }
    }
}

/// The trace-event spelling of a fault classification.
pub(crate) fn class_name(class: FaultClass) -> &'static str {
    match class {
        FaultClass::Masked => "masked",
        FaultClass::Critical => "critical",
        FaultClass::NonCritical => "non_critical",
        FaultClass::ExecutionFailure => "exec_failure",
    }
}

/// [`Campaign`] with a space, corruption, probe and progress observer, as
/// one call. Kept as a delegate because the end-to-end benchmark in
/// `benchmark/` calls it; new code uses [`Campaign`].
///
/// # Errors
///
/// Same conditions as [`Campaign::run`]; a cancellation is impossible here.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_traced_any<C: Corruption>(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    plan: &SfiPlan,
    space: CampaignSpace<'_>,
    seed: u64,
    campaign_cfg: &CampaignConfig,
    corruption: &C,
    probe: &Probe,
    progress: &mut dyn FnMut(PlanProgress),
) -> Result<SfiOutcome, SfiError> {
    let campaign = Campaign::new(model, data, golden, plan, seed, campaign_cfg).space(space);
    campaign.corruption(corruption).probe(probe).progress(progress).run()?.into_outcome()
}

/// Resolves and samples every stratum of `plan` (phase 1 of execution).
///
/// Sampling is deterministic in `seed`: each stratum derives an
/// independent sub-seed, so the same `(plan, seed)` pair always yields the
/// same fault lists — the property checkpoint resume relies on.
pub(crate) fn sample_strata(
    plan: &SfiPlan,
    space: &FaultSpace,
    seed: u64,
) -> Result<Vec<Vec<Fault>>, SfiError> {
    let mut sampled: Vec<Vec<Fault>> = Vec::with_capacity(plan.strata().len());
    for (idx, stratum) in plan.strata().iter().enumerate() {
        let subpop = resolve(space, stratum)?;
        if subpop.size() != stratum.population {
            return Err(SfiError::PlanMismatch {
                reason: format!(
                    "stratum {idx} plans population {} but the model provides {}",
                    stratum.population,
                    subpop.size()
                ),
            });
        }
        let indices = sample_stratum_indices(seed, idx, subpop.size(), stratum.sample)?;
        sampled.push(subpop.faults_at(&indices)?);
    }
    Ok(sampled)
}

/// Draws a stratum's sample indices from its independent sub-seeded RNG —
/// the one sampling primitive every fault model shares, so weight,
/// transient, and accumulated campaigns inherit identical determinism.
fn sample_stratum_indices(
    seed: u64,
    stratum_idx: usize,
    population: u64,
    sample: u64,
) -> Result<Vec<u64>, SfiError> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (stratum_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    Ok(sample_without_replacement(population, sample, &mut rng)?)
}

/// Resolves and samples every stratum of `plan` against any
/// [`CampaignSpace`] (phase 1 of fault-model-generic execution).
///
/// - Weight plans delegate to [`sample_strata`], so generic execution of a
///   weight plan injects **exactly** the faults the weight-only path does.
/// - Transient plans resolve strata as node groups (all-bits or per-bit)
///   of the activation space.
/// - Accumulated plans draw `stratum.sample` instances, each a `k`-subset
///   of the composed site population (weight sites `0..W`, activation
///   sites `W..W+A`), from the same per-stratum RNG stream.
///
/// # Errors
///
/// Returns [`SfiError::PlanMismatch`] when the plan's fault model does not
/// match the space variant or a planned population disagrees with the
/// model's.
pub(crate) fn sample_strata_any(
    plan: &SfiPlan,
    space: CampaignSpace<'_>,
    seed: u64,
) -> Result<Vec<Vec<CampaignFault>>, SfiError> {
    match space {
        CampaignSpace::Weight(ws) => {
            if plan.target() != FaultTarget::Weight || plan.accumulate() != 1 {
                return Err(SfiError::PlanMismatch {
                    reason: format!(
                        "a weight space cannot execute a {} plan",
                        fault_model_label(plan)
                    ),
                });
            }
            Ok(sample_strata(plan, ws, seed)?
                .into_iter()
                .map(|faults| faults.into_iter().map(CampaignFault::Weight).collect())
                .collect())
        }
        CampaignSpace::Transient(acts) => {
            if plan.target() == FaultTarget::Weight || plan.accumulate() != 1 {
                return Err(SfiError::PlanMismatch {
                    reason: format!(
                        "a transient space cannot execute a {} plan",
                        fault_model_label(plan)
                    ),
                });
            }
            let mut sampled = Vec::with_capacity(plan.strata().len());
            for (idx, stratum) in plan.strata().iter().enumerate() {
                let population = match (stratum.layer, stratum.bit) {
                    (None, _) => acts.total(),
                    (Some(g), None) => acts.group_population(g).map_err(SfiError::FaultSim)?,
                    (Some(g), Some(_)) => {
                        acts.group_bit_population(g).map_err(SfiError::FaultSim)?
                    }
                };
                if population != stratum.population {
                    return Err(SfiError::PlanMismatch {
                        reason: format!(
                            "stratum {idx} plans population {} but the model provides {population}",
                            stratum.population,
                        ),
                    });
                }
                let indices = sample_stratum_indices(seed, idx, population, stratum.sample)?;
                let faults = indices
                    .iter()
                    .map(|&i| match (stratum.layer, stratum.bit) {
                        (None, _) => acts.fault_at(i),
                        (Some(g), None) => acts.group_fault_at(g, i),
                        (Some(g), Some(b)) => acts.group_bit_fault_at(g, b, i),
                    })
                    .map(|r| r.map(CampaignFault::Activation).map_err(SfiError::FaultSim))
                    .collect::<Result<Vec<_>, _>>()?;
                sampled.push(faults);
            }
            Ok(sampled)
        }
        CampaignSpace::Accumulated { weights, activations } => {
            let k = plan.accumulate();
            let w_total = weights.total();
            let union = w_total + activations.total();
            let mut sampled = Vec::with_capacity(plan.strata().len());
            for (idx, stratum) in plan.strata().iter().enumerate() {
                let subsets = accumulated_population(union, k);
                if subsets != stratum.population {
                    return Err(SfiError::PlanMismatch {
                        reason: format!(
                            "stratum {idx} plans {} k-subsets but the composed population of \
                             {union} sites yields {subsets}",
                            stratum.population,
                        ),
                    });
                }
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let wsub = weights.network_subpopulation();
                let mut faults = Vec::with_capacity(stratum.sample as usize);
                for _ in 0..stratum.sample {
                    let sites = sample_without_replacement(union, k, &mut rng)?;
                    let mut acc = AccumulatedFault { weights: Vec::new(), activations: Vec::new() };
                    for site in sites {
                        if site < w_total {
                            acc.weights.push(wsub.fault_at(site).map_err(SfiError::FaultSim)?);
                        } else {
                            acc.activations.push(
                                activations.fault_at(site - w_total).map_err(SfiError::FaultSim)?,
                            );
                        }
                    }
                    faults.push(CampaignFault::Accumulated(acc));
                }
                sampled.push(faults);
            }
            Ok(sampled)
        }
    }
}

/// Builds the [`SfiOutcome`] from per-stratum campaign results (phase 3 of
/// execution; shared with checkpointed execution).
///
/// Faults recorded as [`FaultClass::ExecutionFailure`] are excluded from
/// each stratum's statistical sample — they produced no classification, so
/// counting them would silently bias the estimate downwards.
pub(crate) fn assemble_outcome_any(
    plan: &SfiPlan,
    space: CampaignSpace<'_>,
    sampled: &[Vec<CampaignFault>],
    results: &[sfi_faultsim::campaign::CampaignResult],
    elapsed: Duration,
) -> SfiOutcome {
    let mut strata = Vec::with_capacity(results.len());
    let mut stratum_telemetry = Vec::with_capacity(results.len());
    // Per-"layer" tallies: weight layers for weight plans, node groups for
    // transient plans. Accumulated instances span several sites at once,
    // so no single layer can own them — their tallies stay empty.
    let groups = match space {
        CampaignSpace::Weight(ws) => ws.layers(),
        CampaignSpace::Transient(acts) => acts.nodes(),
        CampaignSpace::Accumulated { .. } => 0,
    };
    let mut layer_counts: Vec<(u64, u64)> = vec![(0, 0); groups];
    let group_of_node = |node: usize| match space {
        CampaignSpace::Transient(acts) => acts.node_sizes().iter().position(|&(id, _)| id == node),
        _ => None,
    };
    let mut injections = 0u64;
    let mut inferences = 0u64;
    for ((stratum, faults), result) in plan.strata().iter().zip(sampled).zip(results) {
        injections += result.injections;
        inferences += result.inferences;
        for (fault, class) in faults.iter().zip(&result.classes) {
            if matches!(class, FaultClass::ExecutionFailure) {
                continue;
            }
            let group = match fault {
                CampaignFault::Weight(f) => Some(f.site.layer),
                CampaignFault::Activation(f) => group_of_node(f.site.node),
                CampaignFault::Accumulated(_) => None,
            };
            if let Some(entry) = group.and_then(|g| layer_counts.get_mut(g)) {
                entry.0 += 1;
                if class.is_critical() {
                    entry.1 += 1;
                }
            }
        }
        stratum_telemetry.push(CampaignTelemetry::from_result(result));
        strata.push(StratumOutcome {
            stratum: *stratum,
            result: StratumResult {
                population: stratum.population,
                sample: result.injections - result.exec_failures(),
                successes: result.critical(),
            },
        });
    }
    let layer_tallies = layer_counts
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| *n > 0)
        .map(|(layer, &(sample, successes))| LayerTally { layer, sample, successes })
        .collect();
    let layer_populations = match space {
        CampaignSpace::Weight(ws) => (0..ws.layers())
            .map(|l| ws.layer_subpopulation(l).expect("index in range").size())
            .collect(),
        CampaignSpace::Transient(acts) => {
            (0..acts.nodes()).map(|g| acts.group_population(g).expect("index in range")).collect()
        }
        CampaignSpace::Accumulated { .. } => Vec::new(),
    };
    SfiOutcome {
        scheme: plan.scheme(),
        strata,
        stratum_telemetry,
        layer_tallies,
        layer_populations,
        injections,
        inferences,
        elapsed,
    }
}

fn resolve(space: &FaultSpace, stratum: &Stratum) -> Result<Subpopulation, SfiError> {
    Ok(match (stratum.layer, stratum.bit) {
        (None, _) => space.network_subpopulation(),
        (Some(l), None) => space.layer_subpopulation(l)?,
        (Some(l), Some(b)) => space.bit_subpopulation(l, b)?,
    })
}

/// Convenience: how a [`FaultClass`] maps to the paper's success notion.
pub fn is_success(class: FaultClass) -> bool {
    class.is_critical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{
        activation_bit_analysis, plan_accumulated, plan_data_unaware, plan_layer_wise,
        plan_network_wise, plan_transient,
    };
    use sfi_dataset::SynthCifarConfig;
    use sfi_faultsim::activation::ActivationSpace;
    use sfi_nn::resnet::ResNetConfig;
    use sfi_stats::sample_size::SampleSpec;

    fn setup() -> (Model, Dataset, GoldenReference, FaultSpace) {
        let model = ResNetConfig::resnet20_micro().build_seeded(10).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(3).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        (model, data, golden, space)
    }

    fn run_to_end(campaign: Campaign<'_>) -> SfiOutcome {
        campaign.run().unwrap().into_outcome().unwrap()
    }

    fn loose_spec() -> SampleSpec {
        SampleSpec { error_margin: 0.15, ..SampleSpec::paper_default() }
    }

    fn run_transient(
        target: FaultTarget,
        scheme: SchemeKind,
        workers: usize,
        seed: u64,
    ) -> SfiOutcome {
        let (model, data, golden, _) = setup();
        let space = ActivationSpace::build_for(&model, &data, target).unwrap();
        let plan = plan_transient(&space, target, scheme, None, &loose_spec()).unwrap();
        let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
        run_to_end(
            Campaign::new(&model, &data, &golden, &plan, seed, &cfg)
                .space(CampaignSpace::Transient(&space)),
        )
    }

    #[test]
    fn transient_activation_campaign_runs_and_tallies() {
        let outcome = run_transient(FaultTarget::Activation, SchemeKind::LayerWise, 1, 11);
        assert!(outcome.injections() > 0);
        let total: u64 = outcome.strata().iter().map(|t| t.result.sample).sum();
        assert_eq!(total, outcome.injections());
    }

    #[test]
    fn transient_input_campaign_runs() {
        let outcome = run_transient(FaultTarget::Input, SchemeKind::NetworkWise, 2, 11);
        assert!(outcome.injections() > 0);
    }

    #[test]
    fn transient_outcome_is_byte_identical_across_worker_counts() {
        let one = run_transient(FaultTarget::Activation, SchemeKind::LayerWise, 1, 9);
        for workers in [2, 4, 8] {
            let many = run_transient(FaultTarget::Activation, SchemeKind::LayerWise, workers, 9);
            assert_eq!(one.strata(), many.strata(), "workers={workers}");
            assert_eq!(one.injections(), many.injections());
        }
    }

    #[test]
    fn transient_data_aware_uses_observed_activation_bits() {
        let (model, data, golden, _) = setup();
        let space = ActivationSpace::build_for(&model, &data, FaultTarget::Activation).unwrap();
        let analysis = activation_bit_analysis(&golden, &space).unwrap();
        let p = sfi_stats::bit_analysis::data_aware_p(
            &analysis,
            &sfi_stats::bit_analysis::DataAwareConfig::paper_default(),
        )
        .unwrap();
        let plan = plan_transient(
            &space,
            FaultTarget::Activation,
            SchemeKind::DataAware,
            Some(&p),
            &loose_spec(),
        )
        .unwrap();
        // Data-aware transient plans sample fewer faults than data-unaware
        // ones because post-ReLU activations pin the sign bit near p=0.
        let unaware = plan_transient(
            &space,
            FaultTarget::Activation,
            SchemeKind::DataUnaware,
            None,
            &loose_spec(),
        )
        .unwrap();
        assert!(plan.total_sample() <= unaware.total_sample());
        let outcome = run_to_end(
            Campaign::new(&model, &data, &golden, &plan, 3, &CampaignConfig::default())
                .space(CampaignSpace::Transient(&space)),
        );
        assert_eq!(outcome.injections(), plan.total_sample());
    }

    #[test]
    fn accumulated_campaign_runs_and_is_deterministic() {
        let (model, data, golden, space) = setup();
        let acts = ActivationSpace::build_for(&model, &data, FaultTarget::Activation).unwrap();
        let union = space.total() + acts.total();
        for k in [2u64, 4] {
            let plan = plan_accumulated(union, k, &loose_spec()).unwrap();
            assert_eq!(plan.accumulate(), k);
            let run = |workers: usize| {
                run_to_end(
                    Campaign::new(
                        &model,
                        &data,
                        &golden,
                        &plan,
                        7,
                        &CampaignConfig { workers, ..CampaignConfig::default() },
                    )
                    .space(CampaignSpace::Accumulated { weights: &space, activations: &acts }),
                )
            };
            let one = run(1);
            let four = run(4);
            assert_eq!(one.strata(), four.strata(), "k={k}");
            assert!(one.injections() > 0);
        }
    }

    #[test]
    fn accumulated_sampling_draws_distinct_sites() {
        let (model, data, _, space) = setup();
        let acts = ActivationSpace::build_for(&model, &data, FaultTarget::Activation).unwrap();
        let union = space.total() + acts.total();
        let plan = plan_accumulated(union, 3, &loose_spec()).unwrap();
        let sampled = sample_strata_any(
            &plan,
            CampaignSpace::Accumulated { weights: &space, activations: &acts },
            13,
        )
        .unwrap();
        for fault in &sampled[0] {
            let CampaignFault::Accumulated(acc) = fault else {
                panic!("expected accumulated fault")
            };
            assert_eq!(acc.k(), 3);
        }
    }

    #[test]
    fn weight_campaign_through_generic_path_matches_legacy() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let legacy =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 5, &CampaignConfig::default()));
        let generic = run_to_end(
            Campaign::new(&model, &data, &golden, &plan, 5, &CampaignConfig::default())
                .space(CampaignSpace::Weight(&space)),
        );
        assert_eq!(legacy.strata(), generic.strata());
        assert_eq!(legacy.injections(), generic.injections());
        assert_eq!(legacy.layer_tallies(), generic.layer_tallies());
    }

    #[test]
    fn layer_wise_outcome_has_per_layer_estimates() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let outcome =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 1, &CampaignConfig::default()));
        assert_eq!(outcome.scheme(), SchemeKind::LayerWise);
        assert_eq!(outcome.injections(), plan.total_sample());
        for l in 0..20 {
            let est = outcome.layer_estimate(l, Confidence::C99).unwrap();
            assert!((0.0..=1.0).contains(&est.proportion), "layer {l}");
            assert!(est.error_margin >= 0.0);
        }
        let net = outcome.network_estimate(Confidence::C99).unwrap();
        assert!((0.0..=1.0).contains(&net.proportion));
    }

    #[test]
    fn network_wise_outcome_supports_shaky_per_layer_estimates() {
        let (model, data, golden, space) = setup();
        let plan = plan_network_wise(&space, &loose_spec());
        let outcome =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 2, &CampaignConfig::default()));
        // Big layers certainly received some faults.
        let est = outcome.layer_estimate(14, Confidence::C99).expect("layer 14 sampled");
        // The per-layer sample is only the layer's proportional share of
        // the tiny global sample — far fewer faults than a layer-wise
        // campaign gives the same layer, which is why the paper calls
        // per-layer readings of a network-wise SFI statistically invalid.
        let lw_plan = plan_layer_wise(&space, &loose_spec());
        let lw = run_to_end(Campaign::new(
            &model,
            &data,
            &golden,
            &lw_plan,
            2,
            &CampaignConfig::default(),
        ));
        let lw_est = lw.layer_estimate(14, Confidence::C99).unwrap();
        assert!(
            est.sample * 4 < lw_est.sample,
            "network-wise layer sample {} should be far below layer-wise {}",
            est.sample,
            lw_est.sample
        );
        // When the tiny sample observes any criticality at all, its margin
        // is wider than the layer-wise one.
        if est.successes > 0 && est.successes < est.sample {
            assert!(est.error_margin > lw_est.error_margin);
        }
    }

    #[test]
    fn execution_is_deterministic_in_seed() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let a =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 5, &CampaignConfig::default()));
        let b =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 5, &CampaignConfig::default()));
        assert_eq!(a.strata(), b.strata());
        let c =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 6, &CampaignConfig::default()));
        // Different seed virtually always gives different tallies somewhere.
        assert!(a.strata() != c.strata() || a.layer_tallies() != c.layer_tallies());
    }

    #[test]
    fn plan_for_wrong_model_is_rejected() {
        let (model, data, golden, _) = setup();
        let other = ResNetConfig::resnet20().build().unwrap();
        let plan = plan_layer_wise(&FaultSpace::stuck_at(&other), &loose_spec());
        assert!(matches!(
            Campaign::new(&model, &data, &golden, &plan, 0, &CampaignConfig::default())
                .run()
                .and_then(CampaignRun::into_outcome),
            Err(SfiError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn data_unaware_on_one_layer_subset() {
        // Execute only the bit strata of layer 0 by constructing a pruned
        // plan — keeps the test fast while exercising bit subpopulations.
        let (model, data, golden, space) = setup();
        let full = plan_data_unaware(&space, &loose_spec());
        let pruned = full.restricted_to_layer(0, &space);
        let outcome = run_to_end(Campaign::new(
            &model,
            &data,
            &golden,
            &pruned,
            3,
            &CampaignConfig::default(),
        ));
        assert_eq!(outcome.strata().len(), 32);
        let est = outcome.layer_estimate(0, Confidence::C99).unwrap();
        assert!(est.sample > 0);
    }

    #[test]
    fn telemetry_sums_match_outcome_totals() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let outcome =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 9, &CampaignConfig::default()));
        let telemetry = outcome.stratum_telemetry();
        assert_eq!(telemetry.len(), outcome.strata().len());
        let inferences: u64 = telemetry.iter().map(|t| t.inferences).sum();
        assert_eq!(inferences, outcome.inferences());
        let injections: u64 = telemetry.iter().map(|t| t.injections).sum();
        assert_eq!(injections, outcome.injections());
        for (t, s) in telemetry.iter().zip(outcome.strata()) {
            assert_eq!(t.injections, s.result.sample);
            assert_eq!(t.critical, s.result.successes);
            assert_eq!(t.masked + t.critical + t.non_critical, t.injections);
        }
    }

    #[test]
    fn observer_sees_monotone_plan_progress() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let mut seen: Vec<PlanProgress> = Vec::new();
        let cfg = CampaignConfig::default();
        let outcome = Campaign::new(&model, &data, &golden, &plan, 11, &cfg)
            .progress(&mut |p| seen.push(p))
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        assert_eq!(seen.len() as u64, outcome.injections(), "one event per fault");
        for pair in seen.windows(2) {
            assert_eq!(pair[1].plan_completed, pair[0].plan_completed + 1);
            assert!(pair[1].inferences >= pair[0].inferences);
            assert!(pair[1].stratum >= pair[0].stratum);
        }
        let last = seen.last().unwrap();
        assert_eq!(last.plan_completed, last.plan_total);
        assert_eq!(last.plan_total, outcome.injections());
        assert_eq!(last.inferences, outcome.inferences());
        assert_eq!(last.stratum, outcome.strata().len() - 1);
    }

    #[test]
    fn observed_execution_matches_unobserved() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let cfg = CampaignConfig { workers: 4, ..CampaignConfig::default() };
        let plain = run_to_end(Campaign::new(&model, &data, &golden, &plan, 13, &cfg));
        let observed = Campaign::new(&model, &data, &golden, &plan, 13, &cfg)
            .space(CampaignSpace::Weight(&space))
            .progress(&mut |_| {})
            .run()
            .unwrap()
            .into_outcome()
            .unwrap();
        assert_eq!(plain.strata(), observed.strata());
        assert_eq!(plain.layer_tallies(), observed.layer_tallies());
    }

    #[test]
    fn tallies_sum_to_injections() {
        let (model, data, golden, space) = setup();
        let plan = plan_layer_wise(&space, &loose_spec());
        let outcome =
            run_to_end(Campaign::new(&model, &data, &golden, &plan, 9, &CampaignConfig::default()));
        let tallied: u64 = outcome.layer_tallies().iter().map(|t| t.sample).sum();
        assert_eq!(tallied, outcome.injections());
    }
}
