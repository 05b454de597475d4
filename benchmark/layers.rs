//! Every call the benchmark makes into the SFI library, in one file.
//!
//! When the library's campaign or forward entry points change, this is the
//! only file of the benchmark that has to follow. The only timing taken
//! here is [`Outcome`]'s, which brackets exactly the plan-execution call.

use std::path::Path;
use std::time::Instant;

use sfi_core::checkpoint::{execute_plan_checkpointed_traced_any, CampaignRun, CheckpointConfig};
use sfi_core::execute::{execute_plan_traced_any, CampaignSpace, SfiOutcome};
use sfi_core::plan::{
    plan_data_aware, plan_data_unaware, plan_network_wise, plan_transient, SchemeKind, SfiPlan,
};
use sfi_dataset::{Dataset, SynthCifarConfig};
use sfi_faultsim::activation::ActivationSpace;
use sfi_faultsim::campaign::{CampaignConfig, Ieee754Corruption};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::multi::FaultTarget;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::mobilenet::MobileNetV2Config;
use sfi_nn::resnet::ResNetConfig;
use sfi_nn::{KernelPolicy, Model, NodeOp};
use sfi_obs::{Probe, TraceLevel};
use sfi_stats::bit_analysis::{DataAwareConfig, WeightBitAnalysis};
use sfi_stats::confidence::Confidence;
use sfi_stats::sample_size::SampleSpec;
use sfi_tensor::ops;

use crate::spans::Spans;
use crate::{Net, Scheme, Workload};

/// Errors from the library, the file system, or a failed check.
pub type Error = Box<dyn std::error::Error>;

/// Seed of the model weights and of the evaluation images. Fixed, so that
/// `--seed` changes which faults are drawn, never the network.
const MODEL_SEED: u64 = 42;

/// Everything a workload's campaign needs, built once per set-up.
pub struct Campaign {
    model: Model,
    data: Dataset,
    golden: GoldenReference,
    space: FaultSpace,
    acts: Option<ActivationSpace>,
    plan: SfiPlan,
    gate_plan: SfiPlan,
}

/// Builds model, evaluation data, golden reference (with its lowering,
/// batched state and calibration), activation space and plans, one span
/// per library call. `gate_margin` is the error margin of the reduced plan
/// the correctness gate executes.
pub fn setup(w: &Workload, gate_margin: f64, spans: &mut Spans) -> Result<Campaign, Error> {
    let data = spans.span("dataset.generate", |_| {
        SynthCifarConfig::new()
            .with_size(w.net.input_size())
            .with_samples(w.images)
            .with_seed(MODEL_SEED)
            .generate()
    });
    let model = spans.span("nn.build", |_| match w.net {
        Net::Resnet20 => ResNetConfig::resnet20().build_seeded(MODEL_SEED),
        Net::Resnet20Micro => ResNetConfig::resnet20_micro().build_seeded(MODEL_SEED),
        Net::MobileNetV2 => MobileNetV2Config::cifar().build_seeded(MODEL_SEED),
        #[cfg(test)]
        Net::MobileNetV2Micro => MobileNetV2Config::cifar_micro().build_seeded(MODEL_SEED),
    })?;
    let golden = spans.span("faultsim.golden_build", |_| GoldenReference::build(&model, &data))?;
    let golden = spans.span("faultsim.golden_lowering", |_| golden.with_lowering(&model))?;
    let acts = match w.scheme {
        Scheme::ActivationNetworkWise => Some(spans.span("faultsim.activation_space", |_| {
            ActivationSpace::build_for(&model, &data, FaultTarget::Activation)
        })?),
        _ => None,
    };
    let (space, plan, gate_plan) = spans.span("core.plan", |_| -> Result<_, Error> {
        let space = FaultSpace::stuck_at(&model);
        let analysis = match w.scheme {
            Scheme::WeightDataAware => {
                Some(WeightBitAnalysis::from_weights(model.store().all_weights())?)
            }
            _ => None,
        };
        let plan_at = |error_margin: f64| -> Result<SfiPlan, Error> {
            let spec = SampleSpec { error_margin, ..SampleSpec::paper_default() };
            Ok(match w.scheme {
                Scheme::WeightDataAware => plan_data_aware(
                    &space,
                    analysis.as_ref().expect("analysed above"),
                    &spec,
                    &DataAwareConfig::paper_default(),
                )?,
                Scheme::WeightNetworkWise => plan_network_wise(&space, &spec),
                Scheme::WeightDataUnaware => plan_data_unaware(&space, &spec),
                Scheme::ActivationNetworkWise => plan_transient(
                    acts.as_ref().expect("built above"),
                    FaultTarget::Activation,
                    SchemeKind::NetworkWise,
                    None,
                    &spec,
                )?,
            })
        };
        let plan = plan_at(w.error_margin)?;
        let gate_plan = plan_at(gate_margin)?;
        Ok((space, plan, gate_plan))
    })?;
    Ok(Campaign { model, data, golden, space, acts, plan, gate_plan })
}

impl Campaign {
    /// Faults the workload's plan classifies.
    pub fn plan_faults(&self) -> u64 {
        self.plan.total_sample()
    }

    /// Faults the correctness gate's reduced plan classifies.
    pub fn gate_faults(&self) -> u64 {
        self.gate_plan.total_sample()
    }

    fn space(&self) -> CampaignSpace<'_> {
        match &self.acts {
            Some(acts) => CampaignSpace::Transient(acts),
            None => CampaignSpace::Weight(&self.space),
        }
    }
}

/// Summed engine and cache counters of every stratum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub lowering_hits: u64,
    pub lowering_misses: u64,
    /// Largest per-worker scratch-arena high-water mark of any stratum.
    pub arena_peak_bytes: u64,
    pub converged: u64,
    pub nodes_skipped: u64,
    pub delta_sparse_nodes: u64,
    pub delta_fallbacks: u64,
    pub engine_dense: u64,
    pub engine_delta: u64,
    pub engine_batched: u64,
}

/// Worker metrics a spans-level probe recorded during one execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeMetrics {
    /// Time inside inferences, summed over workers.
    pub inference_ns: u64,
    pub mean_inference_us: f64,
    /// Upper bound of the log2 latency bucket holding the 99th percentile.
    pub p99_inference_us: f64,
    pub arena_takes: u64,
    pub arena_reuses: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
}

/// What one plan execution produced, reduced to the numbers the benchmark
/// checks and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `(sample, successes)` of every stratum, in plan order.
    pub strata: Vec<(u64, u64)>,
    pub injections: u64,
    pub inferences: u64,
    /// Faults per class: `[masked, critical, non-critical, execution failure]`.
    pub classes: [u64; 4],
    /// Network critical-rate estimate and its 99% margin at the observed
    /// per-stratum rates.
    pub proportion: f64,
    pub margin: f64,
    /// 99% margin of the network estimate at p = 0.5 in every stratum:
    /// depends only on how many faults each stratum classified.
    pub worst_margin: f64,
    pub counters: Counters,
    pub probe: Option<ProbeMetrics>,
    /// Bytes the checkpoint journal holds after the run (0 unjournaled).
    pub journal_bytes: u64,
    /// Wall time of the plan-execution call alone.
    pub wall_s: f64,
}

impl Outcome {
    /// The first difference in classifications (per-stratum tallies, class
    /// counts, injections, inferences) between `self` and `other`, if any.
    pub fn difference(&self, other: &Outcome) -> Option<String> {
        if self.strata != other.strata {
            let at = self.strata.iter().zip(&other.strata).position(|(a, b)| a != b);
            return Some(match at {
                Some(i) => format!(
                    "stratum {i}: (sample, successes) {:?} vs {:?}",
                    self.strata[i], other.strata[i]
                ),
                None => format!("{} vs {} strata", self.strata.len(), other.strata.len()),
            });
        }
        if self.classes != other.classes {
            return Some(format!(
                "class counts [masked, critical, non-critical, failure] {:?} vs {:?}",
                self.classes, other.classes
            ));
        }
        if (self.injections, self.inferences) != (other.injections, other.inferences) {
            return Some(format!(
                "(injections, inferences) ({}, {}) vs ({}, {})",
                self.injections, self.inferences, other.injections, other.inferences
            ));
        }
        None
    }

    /// 64-bit FNV-1a digest of the per-stratum `(sample, successes)`, the
    /// total inferences and the network estimate.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &(sample, successes) in &self.strata {
            feed(sample);
            feed(successes);
        }
        feed(self.inferences);
        feed(self.proportion.to_bits());
        feed(self.margin.to_bits());
        h
    }
}

/// How to execute a plan.
pub struct Exec<'a> {
    /// Execute the gate's reduced plan instead of the workload's plan.
    pub gate: bool,
    pub seed: u64,
    pub workers: usize,
    /// Journal every classification to this directory, emptied first.
    pub journal: Option<&'a Path>,
    /// Record worker metrics with a spans-level probe.
    pub traced: bool,
}

/// Executes a plan with the engines a user gets by default (fast kernels,
/// lowering cache, batched, delta and convergence on).
pub fn execute(c: &Campaign, e: &Exec<'_>) -> Result<Outcome, Error> {
    let cfg = CampaignConfig { workers: e.workers, ..CampaignConfig::default() };
    run_plan(c, &c.golden, if e.gate { &c.gate_plan } else { &c.plan }, &cfg, e)
}

/// Executes the gate's reduced plan with the reference configuration: a
/// golden reference without lowering cache, naive kernels, and the batched,
/// delta and convergence engines off.
pub fn execute_reference(c: &Campaign, seed: u64, spans: &mut Spans) -> Result<Outcome, Error> {
    let golden = spans.span("gate.golden_build", |_| GoldenReference::build(&c.model, &c.data))?;
    let cfg = CampaignConfig {
        workers: 1,
        kernel: KernelPolicy::Naive,
        convergence: false,
        delta: false,
        batched: false,
        ..CampaignConfig::default()
    };
    let exec = Exec { gate: true, seed, workers: 1, journal: None, traced: false };
    spans.span("gate.reference", |_| run_plan(c, &golden, &c.gate_plan, &cfg, &exec))
}

fn run_plan(
    c: &Campaign,
    golden: &GoldenReference,
    plan: &SfiPlan,
    cfg: &CampaignConfig,
    e: &Exec<'_>,
) -> Result<Outcome, Error> {
    let owned_probe = if e.traced { Some(Probe::new(TraceLevel::Spans, None)?) } else { None };
    let probe = owned_probe.as_ref().unwrap_or_else(|| Probe::disabled());
    if let Some(dir) = e.journal {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
    }
    let start = Instant::now();
    let outcome = match e.journal {
        Some(dir) => {
            let checkpoint = CheckpointConfig::new(dir);
            let run = execute_plan_checkpointed_traced_any(
                &c.model,
                &c.data,
                golden,
                plan,
                c.space(),
                e.seed,
                cfg,
                &Ieee754Corruption,
                &checkpoint,
                None,
                probe,
                &mut |_| {},
            )?;
            match run {
                CampaignRun::Complete { outcome, .. } => outcome,
                CampaignRun::Interrupted { .. } => return Err("campaign was interrupted".into()),
            }
        }
        None => execute_plan_traced_any(
            &c.model,
            &c.data,
            golden,
            plan,
            c.space(),
            e.seed,
            cfg,
            &Ieee754Corruption,
            probe,
            &mut |_| {},
        )?,
    };
    let wall_s = start.elapsed().as_secs_f64();
    let journal_bytes = match e.journal {
        Some(dir) => dir_bytes(dir)?,
        None => 0,
    };
    let probe = owned_probe.map(|p| {
        let m = p.snapshot();
        ProbeMetrics {
            inference_ns: m.inference_ns,
            mean_inference_us: m.mean_inference_us(),
            p99_inference_us: m.latency_quantile_us(0.99),
            arena_takes: m.arena_takes,
            arena_reuses: m.arena_reuses,
            fsyncs: m.fsyncs,
            fsync_ns: m.fsync_ns,
        }
    });
    summarize(&outcome, probe, journal_bytes, wall_s)
}

fn summarize(
    outcome: &SfiOutcome,
    probe: Option<ProbeMetrics>,
    journal_bytes: u64,
    wall_s: f64,
) -> Result<Outcome, Error> {
    let net = outcome.network_estimate(Confidence::C99)?;
    let z = Confidence::C99.z();
    let mut worst_var = 0.0;
    for s in outcome.strata() {
        let r = s.result;
        if r.sample == 0 || r.population <= 1 || r.sample >= r.population {
            continue;
        }
        let w = r.population as f64 / net.population as f64;
        let (n, big_n) = (r.sample as f64, r.population as f64);
        worst_var += w * w * 0.25 / n * (big_n - n) / (big_n - 1.0);
    }
    let mut classes = [0u64; 4];
    let mut k = Counters::default();
    for t in outcome.stratum_telemetry() {
        classes[0] += t.masked;
        classes[1] += t.critical;
        classes[2] += t.non_critical;
        classes[3] += t.exec_failures;
        k.lowering_hits += t.lowering_hits;
        k.lowering_misses += t.lowering_misses;
        k.arena_peak_bytes = k.arena_peak_bytes.max(t.arena_peak_bytes);
        k.converged += t.converged;
        k.nodes_skipped += t.nodes_skipped;
        k.delta_sparse_nodes += t.delta_sparse_nodes;
        k.delta_fallbacks += t.delta_fallbacks;
        k.engine_dense += t.engine_dense;
        k.engine_delta += t.engine_delta;
        k.engine_batched += t.engine_batched;
    }
    Ok(Outcome {
        strata: outcome.strata().iter().map(|s| (s.result.sample, s.result.successes)).collect(),
        injections: outcome.injections(),
        inferences: outcome.inferences(),
        classes,
        proportion: net.proportion,
        margin: net.error_margin,
        worst_margin: z * worst_var.sqrt(),
        counters: k,
        probe,
        journal_bytes,
        wall_s,
    })
}

fn dir_bytes(dir: &Path) -> Result<u64, Error> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        bytes += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(bytes)
}

/// Resumes the workload's plan over the completed journal in `dir`: the
/// journal's read path. Fails unless every fault comes from the journal.
pub fn recover(c: &Campaign, seed: u64, dir: &Path) -> Result<(), Error> {
    let cfg = CampaignConfig::default();
    let checkpoint = CheckpointConfig { resume: true, ..CheckpointConfig::new(dir) };
    let run = execute_plan_checkpointed_traced_any(
        &c.model,
        &c.data,
        &c.golden,
        &c.plan,
        c.space(),
        seed,
        &cfg,
        &Ieee754Corruption,
        &checkpoint,
        None,
        Probe::disabled(),
        &mut |_| {},
    )?;
    let stats = run.stats();
    if run.outcome().is_none() || stats.resumed != stats.total {
        return Err(format!(
            "journal recovery resumed {} of {} faults",
            stats.resumed, stats.total
        )
        .into());
    }
    Ok(())
}

/// One fault-free forward pass of the first evaluation image.
pub fn forward(c: &Campaign) -> Result<(), Error> {
    std::hint::black_box(c.model.forward(std::hint::black_box(c.data.image(0)))?);
    Ok(())
}

/// `(m, k, n)` of the GEMM behind every lowerable conv (one per channel
/// group) for a single image, read off the golden activations.
pub fn conv_gemm_shapes(c: &Campaign) -> Vec<(usize, usize, usize)> {
    let cache = c.golden.cache(0);
    let mut shapes = Vec::new();
    for (id, node) in c.model.nodes().iter().enumerate() {
        let NodeOp::Conv { weight, cfg, .. } = node.op else { continue };
        let Some(weight) = c.model.store().get(weight).map(|p| &p.tensor) else { continue };
        let (Some(input), Some(output)) = (cache.get(node.inputs[0]), cache.get(id)) else {
            continue;
        };
        if !ops::conv2d_uses_lowering(input, weight, cfg) {
            continue;
        }
        let (w_shape, o_shape) = (weight.shape(), output.shape());
        let (w, o) = (w_shape.dims(), o_shape.dims());
        let groups = cfg.groups.max(1);
        for _ in 0..groups {
            shapes.push((w[0] / groups, w[1] * w[2] * w[3], o[2] * o[3]));
        }
    }
    shapes
}

/// The library's dispatched GEMM, `c = a · b` for an `m×k` by `k×n` product.
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    packed: &mut Vec<f32>,
) {
    ops::gemm_blocked_with(m, k, n, a, b, c, packed);
}

/// Heap bytes of the golden reference: activation caches, lowering cache,
/// batched golden state.
pub fn golden_bytes(c: &Campaign) -> (usize, usize, usize) {
    let (lowering, batched) = (c.golden.lowering_bytes(), c.golden.batched_bytes());
    (c.golden.memory_bytes() - lowering - batched, lowering, batched)
}
