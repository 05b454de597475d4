//! The `sfi` command-line interface.
//!
//! A thin, dependency-free argument parser plus the drivers behind the
//! `sfi` binary's subcommands. Parsing is separated from execution so the
//! grammar is unit-testable; see [`parse`] and [`run`].
//!
//! ```text
//! sfi plan    --model resnet20 --scheme data-aware [--error 0.01] [--seed 1]
//! sfi run     --model resnet20-micro --scheme layer-wise [--images 4] [--error 0.05]
//! sfi run     --model resnet20-micro --trace-out trace.jsonl [--trace-level events]
//! sfi analyze --model mobilenetv2 [--seed 1]
//! sfi bits    --model resnet20-micro [--images 4] [--error 0.1]
//! sfi harden  --model resnet20-micro [--budget-frac 0.5] [--images 4]
//! sfi trace report trace.jsonl
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sfi_core::bits::bit_ranking;
use sfi_core::checkpoint::{CampaignRun, CheckpointConfig};
use sfi_core::execute::{fault_model_label, Campaign, CampaignSpace, PlanProgress};
use sfi_core::hardening::{plan_protection, HardeningConfig};
use sfi_core::plan::{
    activation_bit_analysis, plan_accumulated, plan_data_aware, plan_data_unaware, plan_layer_wise,
    plan_network_wise, plan_transient, SchemeKind, SfiPlan,
};
use sfi_core::report::{
    group_digits, percent, phase_report, telemetry_report, telemetry_report_resumed, PhaseLine,
    TextTable,
};
use sfi_dataset::SynthCifarConfig;
use sfi_faultsim::activation::ActivationSpace;
use sfi_faultsim::campaign::CampaignConfig;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::multi::FaultTarget;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::mobilenet::MobileNetV2Config;
use sfi_nn::resnet::ResNetConfig;
use sfi_nn::Model;
use sfi_obs::{summary, Event, Probe, TraceLevel};
use sfi_stats::bit_analysis::{data_aware_p, DataAwareConfig, WeightBitAnalysis};
use sfi_stats::confidence::Confidence;
use sfi_stats::sample_size::SampleSpec;

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError {
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseCliError {}

fn err(message: impl Into<String>) -> ParseCliError {
    ParseCliError { message: message.into() }
}

/// The subcommand to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Print a sampling plan (no simulation).
    Plan,
    /// Execute a statistical campaign and print estimates.
    Run,
    /// Print the weight-distribution bit analysis (Figs. 3/4).
    Analyze,
    /// Run a data-unaware campaign and print the bit-criticality ranking.
    Bits,
    /// Run a layer-wise campaign and print a selective-hardening plan.
    Harden,
    /// Summarize a JSONL trace written by `run --trace-out` (the trace
    /// path travels in [`CliOptions::trace_out`]).
    TraceReport,
    /// Print usage.
    Help,
}

/// Which network to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// Full-size ResNet-20 (268,336 weights) — planning/analysis only.
    Resnet20,
    /// Reduced ResNet-20 (width 2, 16×16) for simulation-backed commands.
    Resnet20Micro,
    /// Full-size CIFAR MobileNetV2 (2,203,584 weights).
    MobileNetV2,
    /// Reduced MobileNetV2 for simulation-backed commands.
    MobileNetV2Micro,
    /// Full-size CIFAR VGG-11 (9 weight layers).
    Vgg11,
    /// Reduced VGG for simulation-backed commands.
    VggMicro,
}

impl ModelChoice {
    fn parse(s: &str) -> Result<Self, ParseCliError> {
        match s {
            "resnet20" => Ok(ModelChoice::Resnet20),
            "resnet20-micro" => Ok(ModelChoice::Resnet20Micro),
            "mobilenetv2" => Ok(ModelChoice::MobileNetV2),
            "mobilenetv2-micro" => Ok(ModelChoice::MobileNetV2Micro),
            "vgg11" => Ok(ModelChoice::Vgg11),
            "vgg-micro" => Ok(ModelChoice::VggMicro),
            other => Err(err(format!(
                "unknown model `{other}` (expected resnet20, resnet20-micro, mobilenetv2, \
                 mobilenetv2-micro, vgg11, vgg-micro)"
            ))),
        }
    }

    fn build(&self, seed: u64) -> Result<Model, sfi_nn::NnError> {
        match self {
            ModelChoice::Resnet20 => ResNetConfig::resnet20().build_seeded(seed),
            ModelChoice::Resnet20Micro => ResNetConfig::resnet20_micro().build_seeded(seed),
            ModelChoice::MobileNetV2 => MobileNetV2Config::cifar().build_seeded(seed),
            ModelChoice::MobileNetV2Micro => MobileNetV2Config::cifar_micro().build_seeded(seed),
            ModelChoice::Vgg11 => sfi_nn::vgg::VggConfig::vgg11().build_seeded(seed),
            ModelChoice::VggMicro => sfi_nn::vgg::VggConfig::vgg_micro().build_seeded(seed),
        }
    }

    fn input_size(&self) -> usize {
        match self {
            ModelChoice::Resnet20 | ModelChoice::MobileNetV2 | ModelChoice::Vgg11 => 32,
            ModelChoice::Resnet20Micro | ModelChoice::MobileNetV2Micro | ModelChoice::VggMicro => {
                16
            }
        }
    }
}

/// Which SFI scheme to plan or run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeChoice {
    /// One sample over the whole fault space.
    NetworkWise,
    /// One sample per weight layer.
    LayerWise,
    /// One sample per `(layer, bit)` at p = 0.5.
    DataUnaware,
    /// One sample per `(layer, bit)` at the data-derived p(i).
    DataAware,
}

impl SchemeChoice {
    fn parse(s: &str) -> Result<Self, ParseCliError> {
        match s {
            "network-wise" | "network" => Ok(SchemeChoice::NetworkWise),
            "layer-wise" | "layer" => Ok(SchemeChoice::LayerWise),
            "data-unaware" => Ok(SchemeChoice::DataUnaware),
            "data-aware" => Ok(SchemeChoice::DataAware),
            other => Err(err(format!(
                "unknown scheme `{other}` (expected network-wise, layer-wise, data-unaware, \
                 data-aware)"
            ))),
        }
    }
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Subcommand.
    pub command: Command,
    /// Target network.
    pub model: ModelChoice,
    /// Scheme (plan/run).
    pub scheme: SchemeChoice,
    /// Which tensors faults strike: permanent weight faults (the paper's
    /// baseline) or transient activation/input faults (plan/run).
    pub fault_model: FaultTarget,
    /// Number of simultaneous faults per injection (`run`). 1 replicates
    /// the paper's single-fault campaigns; k > 1 composes k distinct sites
    /// drawn from the union of the weight and activation populations.
    pub accumulate: u64,
    /// Error margin `e`.
    pub error_margin: f64,
    /// Evaluation images for simulation-backed commands.
    pub images: usize,
    /// Seed for weights, data, and sampling.
    pub seed: u64,
    /// Fraction of the full SEC-DED budget for `harden`.
    pub budget_frac: f64,
    /// Campaign worker threads for simulation-backed commands.
    pub workers: usize,
    /// Report live progress (stderr) and per-stratum telemetry for `run`.
    pub progress: bool,
    /// Checkpoint-journal directory for `run` (enables crash tolerance).
    pub checkpoint_dir: Option<String>,
    /// Resume from the journal in `checkpoint_dir` instead of starting
    /// fresh.
    pub resume: bool,
    /// Fsync the journal every this many classifications (`run`).
    pub checkpoint_every: u64,
    /// Stop each faulty forward pass as soon as the activation wavefront
    /// is provably back to golden (`run`). On by default;
    /// `--no-early-exit` disables it. Classifications and inference counts
    /// are identical either way.
    pub early_exit: bool,
    /// Propagate transient activation and input faults as row-band deltas
    /// over the golden activations, recomputing only the rows the struck
    /// element's row reaches (`run`). On by default; `--no-delta` re-executes
    /// transients densely. Weight faults are unaffected. Classifications
    /// and inference counts are identical either way.
    pub delta: bool,
    /// Evaluate all eval images of a faulty suffix in one batched forward
    /// pass per node (`run`). On by default; `--no-batched` falls back to
    /// the per-image loop. Classifications and inference counts are
    /// identical either way.
    pub batched: bool,
    /// JSONL trace destination for `run` (enables tracing), or the trace
    /// to summarize for `trace report`.
    pub trace_out: Option<String>,
    /// Trace verbosity for `run`; defaults to `events` when `--trace-out`
    /// is given, `off` otherwise.
    pub trace_level: Option<TraceLevel>,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            command: Command::Help,
            model: ModelChoice::Resnet20Micro,
            scheme: SchemeChoice::LayerWise,
            fault_model: FaultTarget::Weight,
            accumulate: 1,
            error_margin: 0.05,
            images: 4,
            seed: 42,
            budget_frac: 0.5,
            workers: 1,
            progress: false,
            checkpoint_dir: None,
            resume: false,
            checkpoint_every: 64,
            early_exit: true,
            delta: true,
            batched: true,
            trace_out: None,
            trace_level: None,
        }
    }
}

/// Usage text printed by `sfi help` (and on parse errors).
pub const USAGE: &str = "\
sfi — statistical fault injection for CNN reliability (DATE 2023)

USAGE:
    sfi <COMMAND> [OPTIONS]

COMMANDS:
    plan      compute a sampling plan (no simulation; full-size models fine)
    run       execute a statistical campaign and print per-layer estimates
    analyze   golden weight bit analysis: f0/f1 and data-aware p(i)
    bits      bit-criticality ranking from a data-unaware campaign
    harden    selective SEC-DED protection plan from per-layer estimates
    trace     `trace report <file>`: summarize a JSONL trace from --trace-out
    help      print this message

OPTIONS:
    --model <resnet20|resnet20-micro|mobilenetv2|mobilenetv2-micro|vgg11|vgg-micro>
    --scheme <network-wise|layer-wise|data-unaware|data-aware>
    --fault-model <weight|activation|input>
                              what faults strike (default weight): permanent
                              weight faults, or transient faults in activation
                              tensors / the input image (plan/run)
    --accumulate <k>          inject k simultaneous faults per trial (run),
                              drawn without replacement from the union of the
                              weight and activation populations (default 1)
    --error <fraction>        planned error margin e (default 0.05; paper: 0.01)
    --images <n>              evaluation images for run/bits/harden (default 4)
    --seed <n>                master seed (default 42)
    --budget-frac <fraction>  share of the full ECC budget for harden (default 0.5)
    --workers <n>             campaign worker threads (default 1)
    --progress                live progress on stderr + per-stratum telemetry (run)
    --checkpoint-dir <dir>    journal every classification to <dir> (run); an
                              interrupted campaign can then be continued
    --resume                  continue from the journal in --checkpoint-dir
    --checkpoint-every <n>    fsync the journal every n classifications (default 64)
    --no-early-exit           always run faulty forward passes to the logits
                              instead of stopping once the activations are
                              provably golden again (run); slower, same results
    --no-delta                re-execute transient activation/input faults
                              densely instead of as row-band deltas (run);
                              slower, same results
    --no-batched              evaluate eval images one at a time instead of in
                              a single batched pass per fault (run); slower,
                              same results
    --trace-out <file>        write a JSONL event trace of the campaign (run);
                              summarize it later with `sfi trace report <file>`
    --trace-level <off|spans|events>
                              trace verbosity (default: events when --trace-out
                              is given); spans skips per-fault events
";

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseCliError`] describing the first offending token.
pub fn parse(args: &[String]) -> Result<CliOptions, ParseCliError> {
    let mut opts = CliOptions::default();
    let mut iter = args.iter();
    let Some(cmd) = iter.next() else {
        return Ok(opts); // no args: help
    };
    opts.command = match cmd.as_str() {
        "plan" => Command::Plan,
        "run" => Command::Run,
        "analyze" => Command::Analyze,
        "bits" => Command::Bits,
        "harden" => Command::Harden,
        "trace" => {
            match iter.next().map(String::as_str) {
                Some("report") => {}
                Some(other) => {
                    return Err(err(format!(
                        "unknown trace subcommand `{other}` (expected report)"
                    )))
                }
                None => return Err(err("`trace` expects a subcommand (report)")),
            }
            let Some(path) = iter.next() else {
                return Err(err("`trace report` expects a trace file path"));
            };
            opts.trace_out = Some(path.clone());
            Command::TraceReport
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(err(format!("unknown command `{other}`"))),
    };
    while let Some(flag) = iter.next() {
        let mut value =
            || iter.next().cloned().ok_or_else(|| err(format!("flag `{flag}` expects a value")));
        match flag.as_str() {
            "--model" => opts.model = ModelChoice::parse(&value()?)?,
            "--scheme" => opts.scheme = SchemeChoice::parse(&value()?)?,
            "--fault-model" => {
                let v = value()?;
                opts.fault_model = v.parse::<FaultTarget>().map_err(|_| {
                    err(format!("unknown fault model `{v}` (expected weight, activation, input)"))
                })?;
            }
            "--accumulate" => {
                let v = value()?;
                opts.accumulate = v
                    .parse::<u64>()
                    .map_err(|_| err(format!("`--accumulate {v}` is not an integer")))?;
                if opts.accumulate == 0 {
                    return Err(err("`--accumulate` must be at least 1"));
                }
            }
            "--error" => {
                let v = value()?;
                opts.error_margin =
                    v.parse::<f64>().map_err(|_| err(format!("`--error {v}` is not a number")))?;
                if !(opts.error_margin > 0.0 && opts.error_margin < 1.0) {
                    return Err(err("`--error` must lie in (0, 1)"));
                }
            }
            "--images" => {
                let v = value()?;
                opts.images = v
                    .parse::<usize>()
                    .map_err(|_| err(format!("`--images {v}` is not an integer")))?;
                if opts.images == 0 {
                    return Err(err("`--images` must be at least 1"));
                }
            }
            "--seed" => {
                let v = value()?;
                opts.seed =
                    v.parse::<u64>().map_err(|_| err(format!("`--seed {v}` is not an integer")))?;
            }
            "--budget-frac" => {
                let v = value()?;
                opts.budget_frac = v
                    .parse::<f64>()
                    .map_err(|_| err(format!("`--budget-frac {v}` is not a number")))?;
                if !(0.0..=1.0).contains(&opts.budget_frac) {
                    return Err(err("`--budget-frac` must lie in [0, 1]"));
                }
            }
            "--workers" => {
                let v = value()?;
                opts.workers = v
                    .parse::<usize>()
                    .map_err(|_| err(format!("`--workers {v}` is not an integer")))?;
                if opts.workers == 0 {
                    return Err(err("`--workers` must be at least 1"));
                }
            }
            "--progress" => opts.progress = true,
            "--checkpoint-dir" => {
                let v = value()?;
                if v.is_empty() {
                    return Err(err("`--checkpoint-dir` must not be empty"));
                }
                opts.checkpoint_dir = Some(v);
            }
            "--resume" => opts.resume = true,
            "--no-early-exit" => opts.early_exit = false,
            "--no-delta" => opts.delta = false,
            "--no-batched" => opts.batched = false,
            "--trace-out" => {
                let v = value()?;
                if v.is_empty() {
                    return Err(err("`--trace-out` must not be empty"));
                }
                opts.trace_out = Some(v);
            }
            "--trace-level" => {
                let v = value()?;
                opts.trace_level = Some(TraceLevel::parse(&v).ok_or_else(|| {
                    err(format!("`--trace-level {v}` is not one of off, spans, events"))
                })?);
            }
            "--checkpoint-every" => {
                let v = value()?;
                opts.checkpoint_every = v
                    .parse::<u64>()
                    .map_err(|_| err(format!("`--checkpoint-every {v}` is not an integer")))?;
                if opts.checkpoint_every == 0 {
                    return Err(err("`--checkpoint-every` must be at least 1"));
                }
            }
            other => return Err(err(format!("unknown flag `{other}`"))),
        }
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err(err("`--resume` requires `--checkpoint-dir`"));
    }
    if opts.trace_level.is_some_and(|l| l > TraceLevel::Off) && opts.trace_out.is_none() {
        return Err(err("`--trace-level` requires `--trace-out`"));
    }
    Ok(opts)
}

fn build_plan(
    opts: &CliOptions,
    model: &Model,
    space: &FaultSpace,
) -> Result<SfiPlan, Box<dyn std::error::Error>> {
    let spec = SampleSpec { error_margin: opts.error_margin, ..SampleSpec::paper_default() };
    Ok(match opts.scheme {
        SchemeChoice::NetworkWise => plan_network_wise(space, &spec),
        SchemeChoice::LayerWise => plan_layer_wise(space, &spec),
        SchemeChoice::DataUnaware => plan_data_unaware(space, &spec),
        SchemeChoice::DataAware => {
            let analysis = WeightBitAnalysis::from_weights(model.store().all_weights())?;
            plan_data_aware(space, &analysis, &spec, &DataAwareConfig::paper_default())?
        }
    })
}

/// Builds a transient-fault sampling plan over `acts`. Data-aware plans
/// re-derive the per-bit p(i) from the model's own golden activation
/// distribution (not its weights), so the statistics match what transient
/// faults actually strike.
fn build_transient_plan(
    opts: &CliOptions,
    model: &Model,
    data: &sfi_dataset::Dataset,
    golden: Option<&GoldenReference>,
    acts: &ActivationSpace,
) -> Result<SfiPlan, Box<dyn std::error::Error>> {
    let spec = SampleSpec { error_margin: opts.error_margin, ..SampleSpec::paper_default() };
    let scheme = match opts.scheme {
        SchemeChoice::NetworkWise => SchemeKind::NetworkWise,
        SchemeChoice::LayerWise => SchemeKind::LayerWise,
        SchemeChoice::DataUnaware => SchemeKind::DataUnaware,
        SchemeChoice::DataAware => SchemeKind::DataAware,
    };
    let p_storage;
    let p: Option<&[f64]> = if scheme == SchemeKind::DataAware {
        let golden_owned;
        let golden = match golden {
            Some(g) => g,
            None => {
                golden_owned = GoldenReference::build(model, data)?;
                &golden_owned
            }
        };
        let analysis = activation_bit_analysis(golden, acts)?;
        p_storage = data_aware_p(&analysis, &DataAwareConfig::paper_default())?;
        Some(&p_storage)
    } else {
        None
    };
    Ok(plan_transient(acts, opts.fault_model, scheme, p, &spec)?)
}

/// Executes a parsed command line, writing the report to `out`.
///
/// # Errors
///
/// Propagates model construction, planning, and campaign failures.
pub fn run(
    opts: &CliOptions,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    match opts.command {
        Command::Help => {
            write!(out, "{USAGE}")?;
            return Ok(());
        }
        Command::Plan => {
            let model = opts.model.build(opts.seed)?;
            let mut table = TextTable::new(vec!["group".into(), "population".into(), "n".into()]);
            let plan = if opts.accumulate > 1 {
                let data = SynthCifarConfig::new()
                    .with_size(opts.model.input_size())
                    .with_samples(opts.images)
                    .with_seed(opts.seed)
                    .generate();
                let space = FaultSpace::stuck_at(&model);
                let acts = ActivationSpace::build_for(&model, &data, FaultTarget::Activation)?;
                let spec =
                    SampleSpec { error_margin: opts.error_margin, ..SampleSpec::paper_default() };
                let plan = plan_accumulated(space.total() + acts.total(), opts.accumulate, &spec)?;
                table.add_row(vec![
                    "network".into(),
                    group_digits(plan.total_population()),
                    group_digits(plan.total_sample()),
                ]);
                plan
            } else if opts.fault_model != FaultTarget::Weight {
                let data = SynthCifarConfig::new()
                    .with_size(opts.model.input_size())
                    .with_samples(opts.images)
                    .with_seed(opts.seed)
                    .generate();
                let acts = ActivationSpace::build_for(&model, &data, opts.fault_model)?;
                let plan = build_transient_plan(opts, &model, &data, None, &acts)?;
                for group in 0..acts.nodes() {
                    let n: u64 = plan
                        .strata()
                        .iter()
                        .filter(|st| st.layer == Some(group))
                        .map(|st| st.sample)
                        .sum();
                    table.add_row(vec![
                        format!("N{group}"),
                        group_digits(acts.group_population(group)?),
                        group_digits(n),
                    ]);
                }
                plan
            } else {
                let space = FaultSpace::stuck_at(&model);
                let plan = build_plan(opts, &model, &space)?;
                for layer in 0..space.layers() {
                    table.add_row(vec![
                        format!("L{layer}"),
                        group_digits(space.layer_subpopulation(layer)?.size()),
                        group_digits(plan.restricted_to_layer(layer, &space).total_sample()),
                    ]);
                }
                plan
            };
            writeln!(
                out,
                "{} {} plan for {} (e = {}%, 99% confidence)\n",
                plan.scheme(),
                fault_model_label(&plan),
                model.name(),
                opts.error_margin * 100.0
            )?;
            write!(out, "{}", table.render())?;
            writeln!(
                out,
                "total: {} of {} faults ({:.2}%)",
                group_digits(plan.total_sample()),
                group_digits(plan.total_population()),
                plan.injected_percent()
            )?;
        }
        Command::Run => {
            // parse() already rejects these, but CliOptions can also be
            // built programmatically; fail with a typed error instead of
            // hanging a zero-worker pool or dividing by an empty eval set.
            if opts.workers == 0 {
                return Err(Box::new(err("`--workers` must be at least 1")));
            }
            if opts.images == 0 {
                return Err(Box::new(err(
                    "`--images` must be at least 1: an empty evaluation set cannot classify \
                     faults",
                )));
            }
            let trace_level = match (&opts.trace_out, opts.trace_level) {
                (Some(_), Some(level)) => level,
                (Some(_), None) => TraceLevel::Events,
                (None, _) => TraceLevel::Off,
            };
            let owned_probe;
            let probe: &Probe = if trace_level == TraceLevel::Off {
                Probe::disabled()
            } else {
                owned_probe = Probe::new(trace_level, opts.trace_out.as_deref().map(Path::new))?;
                &owned_probe
            };
            let mut phases: Vec<PhaseLine> = Vec::new();
            let mut mark = Instant::now();
            let phase_end = |name: &str, phases: &mut Vec<PhaseLine>, mark: &mut Instant| {
                phases.push(PhaseLine {
                    name: name.to_string(),
                    wall_ms: mark.elapsed().as_secs_f64() * 1e3,
                    busy_ms: None,
                });
                *mark = Instant::now();
            };
            let model = opts.model.build(opts.seed)?;
            let data = SynthCifarConfig::new()
                .with_size(opts.model.input_size())
                .with_samples(opts.images)
                .with_seed(opts.seed)
                .generate();
            phase_end("model", &mut phases, &mut mark);
            let golden = GoldenReference::build(&model, &data)?;
            phase_end("golden", &mut phases, &mut mark);
            let space = FaultSpace::stuck_at(&model);
            let acts: Option<ActivationSpace> = if opts.accumulate > 1 {
                // Accumulated campaigns compose the weight population with
                // the chosen transient population (activations by default).
                let target = match opts.fault_model {
                    FaultTarget::Input => FaultTarget::Input,
                    _ => FaultTarget::Activation,
                };
                Some(ActivationSpace::build_for(&model, &data, target)?)
            } else if opts.fault_model != FaultTarget::Weight {
                Some(ActivationSpace::build_for(&model, &data, opts.fault_model)?)
            } else {
                None
            };
            let plan = match &acts {
                Some(acts) if opts.accumulate > 1 => {
                    let spec = SampleSpec {
                        error_margin: opts.error_margin,
                        ..SampleSpec::paper_default()
                    };
                    plan_accumulated(space.total() + acts.total(), opts.accumulate, &spec)?
                }
                Some(acts) => build_transient_plan(opts, &model, &data, Some(&golden), acts)?,
                None => build_plan(opts, &model, &space)?,
            };
            let cspace = match &acts {
                Some(acts) if opts.accumulate > 1 => {
                    CampaignSpace::Accumulated { weights: &space, activations: acts }
                }
                Some(acts) => CampaignSpace::Transient(acts),
                None => CampaignSpace::Weight(&space),
            };
            phase_end("plan", &mut phases, &mut mark);
            writeln!(
                out,
                "executing {} {} campaign: {} faults on {} images ({} worker{})...",
                plan.scheme(),
                fault_model_label(&plan),
                group_digits(plan.total_sample()),
                opts.images,
                opts.workers,
                if opts.workers == 1 { "" } else { "s" }
            )?;
            writeln!(
                out,
                "golden reference: {} activation-cache bytes",
                group_digits(golden.memory_bytes() as u64),
            )?;
            let cfg = CampaignConfig {
                workers: opts.workers,
                convergence: opts.early_exit,
                delta: opts.delta,
                batched: opts.batched,
                ..CampaignConfig::default()
            };
            // Throttle stderr updates to ~100 over the whole plan.
            let report_progress = opts.progress;
            let mut progress = |p: PlanProgress| {
                if !report_progress {
                    return;
                }
                let step = (p.plan_total / 100).max(1);
                if p.plan_completed.is_multiple_of(step) || p.plan_completed == p.plan_total {
                    eprint!(
                        "\rstratum {}/{}  faults {}/{}  inferences {}    ",
                        p.stratum + 1,
                        p.strata,
                        p.plan_completed,
                        p.plan_total,
                        group_digits(p.inferences)
                    );
                }
            };
            let checkpoint = opts.checkpoint_dir.as_ref().map(|dir| CheckpointConfig {
                dir: PathBuf::from(dir),
                resume: opts.resume,
                checkpoint_every: opts.checkpoint_every,
            });
            let run = Campaign::new(&model, &data, &golden, &plan, opts.seed, &cfg)
                .space(cspace)
                .checkpoint(checkpoint.as_ref())
                .probe(probe)
                .progress(&mut progress)
                .run()?;
            if report_progress {
                eprintln!();
            }
            let (outcome, resume_stats) = match run {
                CampaignRun::Complete { outcome, stats } => {
                    if stats.resumed > 0 {
                        writeln!(
                            out,
                            "resumed {} of {} classifications from the checkpoint journal \
                             ({} corrupt record(s) dropped and re-executed)",
                            group_digits(stats.resumed),
                            group_digits(stats.total),
                            stats.dropped
                        )?;
                    }
                    (outcome, checkpoint.is_some().then_some(stats))
                }
                CampaignRun::Interrupted { stats } => {
                    writeln!(
                        out,
                        "campaign interrupted: {} of {} faults classified and journaled",
                        group_digits(stats.resumed + stats.completed),
                        group_digits(stats.total)
                    )?;
                    // Seal the trace so the partial campaign is still
                    // inspectable with `sfi trace report`.
                    if let Some(trace) = probe.finish()? {
                        writeln!(
                            out,
                            "trace written: {} ({} events)",
                            trace.path.display(),
                            trace.events
                        )?;
                    }
                    let dir = opts.checkpoint_dir.as_deref().unwrap_or_default();
                    return Err(format!(
                        "campaign interrupted; continue it with `--checkpoint-dir {dir} --resume`"
                    )
                    .into());
                }
            };
            {
                let busy_ms = probe.enabled().then(|| probe.snapshot().inference_ns as f64 / 1e6);
                phases.push(PhaseLine {
                    name: "campaign".to_string(),
                    wall_ms: mark.elapsed().as_secs_f64() * 1e3,
                    busy_ms,
                });
                mark = Instant::now();
            }
            if opts.progress {
                writeln!(out, "\nper-stratum telemetry:")?;
                let table = match &resume_stats {
                    Some(stats) => {
                        telemetry_report_resumed(&outcome, Some(&stats.per_stratum_resumed))
                    }
                    None => telemetry_report(&outcome),
                };
                write!(out, "{table}")?;
                writeln!(out)?;
            }
            let mut table =
                TextTable::new(vec!["group".into(), "critical %".into(), "± %".into(), "n".into()]);
            let (groups, prefix) = match &cspace {
                CampaignSpace::Weight(_) => (space.layers(), "L"),
                CampaignSpace::Transient(acts) => (acts.nodes(), "N"),
                // Accumulated faults span sites in several groups at once;
                // only the network-level estimate is meaningful.
                CampaignSpace::Accumulated { .. } => (0, "L"),
            };
            for group in 0..groups {
                if let Some(est) = outcome.layer_estimate(group, Confidence::C99) {
                    table.add_row(vec![
                        format!("{prefix}{group}"),
                        format!("{:.3}", est.proportion * 100.0),
                        format!("{:.3}", est.error_margin * 100.0),
                        group_digits(est.sample),
                    ]);
                }
            }
            write!(out, "{}", table.render())?;
            let net = outcome.network_estimate(Confidence::C99)?;
            writeln!(
                out,
                "network: {:.3}% ± {:.3}% critical ({} injections, {} inferences, {:.1?})",
                net.proportion * 100.0,
                net.error_margin * 100.0,
                group_digits(outcome.injections()),
                group_digits(outcome.inferences()),
                outcome.elapsed()
            )?;
            if probe.enabled() {
                phase_end("report", &mut phases, &mut mark);
                for phase in &phases {
                    probe.emit(&Event::Phase {
                        name: &phase.name,
                        wall_ms: phase.wall_ms,
                        busy_ms: phase.busy_ms,
                    });
                }
                writeln!(out, "\nphase breakdown:")?;
                write!(out, "{}", phase_report(&phases))?;
            }
            if let Some(trace) = probe.finish()? {
                writeln!(out, "trace written: {} ({} events)", trace.path.display(), trace.events)?;
            }
            let failures: u64 = outcome.stratum_telemetry().iter().map(|t| t.exec_failures).sum();
            if failures > 0 {
                return Err(format!(
                    "campaign recorded {} execution failure(s); the affected faults were \
                     excluded from the estimates",
                    group_digits(failures)
                )
                .into());
            }
        }
        Command::TraceReport => {
            let path = opts
                .trace_out
                .as_deref()
                .ok_or_else(|| err("`trace report` expects a trace file path"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading trace `{path}`: {e}"))?;
            let trace = summary::summarize(&text).map_err(|e| format!("trace `{path}`: {e}"))?;
            writeln!(out, "trace of {} event(s): {path}", group_digits(trace.events))?;
            if let (Some(strata), Some(faults), Some(workers)) =
                (trace.planned_strata, trace.planned_faults, trace.workers)
            {
                writeln!(
                    out,
                    "campaign: {} strata, {} faults, {} worker(s)",
                    group_digits(strata),
                    group_digits(faults),
                    group_digits(workers)
                )?;
            }
            if let Some(plan) = &trace.plan {
                writeln!(
                    out,
                    "plan: {} nodes, {} fused conv+bn group(s), {} lowerable conv(s), \
                     batched eval {}",
                    group_digits(plan.nodes),
                    group_digits(plan.fused_groups),
                    group_digits(plan.lowerable_convs),
                    if plan.batched { "on" } else { "off" }
                )?;
            }
            if let Some((resumed, dropped)) = trace.resumed {
                writeln!(
                    out,
                    "resumed: {} classifications from a checkpoint journal ({} corrupt \
                     record(s) dropped)",
                    group_digits(resumed),
                    dropped
                )?;
            }
            if !trace.strata.is_empty() {
                writeln!(out, "\nper-stratum spans:")?;
                let mut table = TextTable::new(vec![
                    "stratum".into(),
                    "faults".into(),
                    "masked".into(),
                    "critical".into(),
                    "non-crit".into(),
                    "failures".into(),
                    "wall [ms]".into(),
                ]);
                for s in &trace.strata {
                    let label = if s.label.is_empty() {
                        format!("#{}", s.stratum)
                    } else {
                        s.label.clone()
                    };
                    table.add_row(vec![
                        label,
                        group_digits(s.injections.max(s.fault_events)),
                        group_digits(s.masked),
                        group_digits(s.critical),
                        group_digits(s.non_critical),
                        group_digits(s.failures),
                        format!("{:.1}", s.wall_ms),
                    ]);
                }
                write!(out, "{}", table.render())?;
            }
            if trace.fault_events > 0 {
                let classes: Vec<String> = trace
                    .class_counts
                    .iter()
                    .map(|(name, n)| format!("{name}={}", group_digits(*n)))
                    .collect();
                writeln!(
                    out,
                    "fault events: {} ({})",
                    group_digits(trace.fault_events),
                    classes.join(", ")
                )?;
            }
            if let Some(rate) = trace.lowering_hit_rate() {
                writeln!(out, "lowering-panel hit rate: {}", percent(rate, 1))?;
            }
            if !trace.phases.is_empty() {
                let phases: Vec<PhaseLine> = trace
                    .phases
                    .iter()
                    .map(|p| PhaseLine {
                        name: p.name.clone(),
                        wall_ms: p.wall_ms,
                        busy_ms: p.busy_ms,
                    })
                    .collect();
                writeln!(out, "\nphase breakdown:")?;
                write!(out, "{}", phase_report(&phases))?;
            }
            if let Some(m) = &trace.metrics {
                writeln!(
                    out,
                    "metrics: {} inferences (mean {:.1} us, p99 {:.1} us), {} requeue(s), \
                     {} worker retirement(s), {} fsync(s) (mean {:.1} us), arena {}/{} \
                     reuse/take",
                    group_digits(m.inferences),
                    m.mean_inference_us,
                    m.p99_inference_us,
                    m.requeues,
                    m.worker_retirements,
                    m.fsyncs,
                    m.mean_fsync_us,
                    group_digits(m.arena_reuses),
                    group_digits(m.arena_takes),
                )?;
                if m.delta_conv_rows_full > 0 {
                    writeln!(
                        out,
                        "delta dense conv rows: {} of {} ({})",
                        group_digits(m.delta_conv_rows),
                        group_digits(m.delta_conv_rows_full),
                        percent(m.delta_conv_rows as f64 / m.delta_conv_rows_full as f64, 1)
                    )?;
                }
            }
            if let Some(completed) = trace.interrupted {
                writeln!(out, "interrupted after {} classification(s)", group_digits(completed))?;
            }
            if let Some(c) = &trace.campaign {
                writeln!(
                    out,
                    "total: {} injections, {} inferences, {:.1} ms",
                    group_digits(c.injections),
                    group_digits(c.inferences),
                    c.wall_ms
                )?;
            }
        }
        Command::Analyze => {
            let model = opts.model.build(opts.seed)?;
            let analysis = WeightBitAnalysis::from_weights(model.store().all_weights())?;
            let p = data_aware_p(&analysis, &DataAwareConfig::paper_default())?;
            writeln!(
                out,
                "bit analysis of {} ({} weights)\n",
                model.name(),
                group_digits(model.store().total_weights() as u64)
            )?;
            let mut table = TextTable::new(vec![
                "bit".into(),
                "f1 fraction".into(),
                "D_avg".into(),
                "p(i)".into(),
            ]);
            for bit in (0..32).rev() {
                table.add_row(vec![
                    bit.to_string(),
                    format!("{:.4}", analysis.fraction_one(bit)),
                    format!("{:.3e}", analysis.d_avg(bit)),
                    format!("{:.4}", p[bit as usize]),
                ]);
            }
            write!(out, "{}", table.render())?;
        }
        Command::Bits => {
            let model = opts.model.build(opts.seed)?;
            let data = SynthCifarConfig::new()
                .with_size(opts.model.input_size())
                .with_samples(opts.images)
                .with_seed(opts.seed)
                .generate();
            let golden = GoldenReference::build(&model, &data)?;
            let space = FaultSpace::stuck_at(&model);
            let spec =
                SampleSpec { error_margin: opts.error_margin, ..SampleSpec::paper_default() };
            let plan = plan_data_unaware(&space, &spec);
            writeln!(
                out,
                "data-unaware campaign ({} faults) for the bit ranking...",
                group_digits(plan.total_sample())
            )?;
            let cfg = CampaignConfig { workers: opts.workers, ..CampaignConfig::default() };
            let outcome = Campaign::new(&model, &data, &golden, &plan, opts.seed, &cfg)
                .run()?
                .into_outcome()?;
            let mut table =
                TextTable::new(vec!["bit".into(), "critical %".into(), "± %".into(), "n".into()]);
            for v in bit_ranking(&outcome, Confidence::C99) {
                table.add_row(vec![
                    v.bit.to_string(),
                    format!("{:.3}", v.estimate.proportion * 100.0),
                    format!("{:.3}", v.estimate.error_margin * 100.0),
                    group_digits(v.estimate.sample),
                ]);
            }
            write!(out, "{}", table.render())?;
        }
        Command::Harden => {
            let model = opts.model.build(opts.seed)?;
            let data = SynthCifarConfig::new()
                .with_size(opts.model.input_size())
                .with_samples(opts.images)
                .with_seed(opts.seed)
                .generate();
            let golden = GoldenReference::build(&model, &data)?;
            let space = FaultSpace::stuck_at(&model);
            let spec =
                SampleSpec { error_margin: opts.error_margin, ..SampleSpec::paper_default() };
            let plan = plan_layer_wise(&space, &spec);
            let cfg = CampaignConfig { workers: opts.workers, ..CampaignConfig::default() };
            let outcome = Campaign::new(&model, &data, &golden, &plan, opts.seed, &cfg)
                .run()?
                .into_outcome()?;
            let full = HardeningConfig::secded32(model.store().total_weights() as u64 * 7);
            let cfg = HardeningConfig {
                budget_bits: (full.budget_bits as f64 * opts.budget_frac) as u64,
                ..full
            };
            let protection = plan_protection(&outcome, &space, &cfg, Confidence::C99)?;
            writeln!(
                out,
                "SEC-DED budget: {} of {} check bits ({:.0}%)\n",
                group_digits(cfg.budget_bits),
                group_digits(full.budget_bits),
                opts.budget_frac * 100.0
            )?;
            let mut table = TextTable::new(vec![
                "priority".into(),
                "layer".into(),
                "critical %".into(),
                "cost bits".into(),
                "protected".into(),
            ]);
            for (rank, l) in protection.ranking.iter().enumerate() {
                table.add_row(vec![
                    (rank + 1).to_string(),
                    format!("L{}", l.layer),
                    format!("{:.3}", l.critical_rate * 100.0),
                    group_digits(l.cost_bits),
                    if l.protected { "yes".into() } else { "no".into() },
                ]);
            }
            write!(out, "{}", table.render())?;
            writeln!(
                out,
                "criticality: {:.3}% baseline -> {:.3}% residual ({:.1}% removed)",
                protection.baseline_rate * 100.0,
                protection.residual_rate * 100.0,
                protection.criticality_removed() * 100.0
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_defaults_to_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&args("help")).unwrap().command, Command::Help);
    }

    #[test]
    fn parse_full_run_command() {
        let o = parse(&args(
            "run --model resnet20-micro --scheme data-aware --error 0.02 --images 8 --seed 7",
        ))
        .unwrap();
        assert_eq!(o.command, Command::Run);
        assert_eq!(o.model, ModelChoice::Resnet20Micro);
        assert_eq!(o.scheme, SchemeChoice::DataAware);
        assert_eq!(o.error_margin, 0.02);
        assert_eq!(o.images, 8);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn parse_rejects_bad_tokens() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("run --model teapot")).is_err());
        assert!(parse(&args("run --scheme magic")).is_err());
        assert!(parse(&args("run --error two")).is_err());
        assert!(parse(&args("run --error 1.5")).is_err());
        assert!(parse(&args("run --images 0")).is_err());
        assert!(parse(&args("run --images")).is_err());
        assert!(parse(&args("run --bogus 1")).is_err());
        assert!(parse(&args("harden --budget-frac 2")).is_err());
    }

    #[test]
    fn parse_fault_model_and_accumulate() {
        let o = parse(&args("run --fault-model activation --accumulate 4")).unwrap();
        assert_eq!(o.fault_model, FaultTarget::Activation);
        assert_eq!(o.accumulate, 4);
        let o = parse(&args("run --fault-model input")).unwrap();
        assert_eq!(o.fault_model, FaultTarget::Input);
        let d = parse(&args("run")).unwrap();
        assert_eq!(d.fault_model, FaultTarget::Weight);
        assert_eq!(d.accumulate, 1);
        assert!(parse(&args("run --fault-model neutron")).is_err());
        assert!(parse(&args("run --accumulate 0")).is_err());
        assert!(parse(&args("run --accumulate two")).is_err());
    }

    #[test]
    fn run_transient_activation_campaign_end_to_end() {
        let opts = parse(&args(
            "run --model resnet20-micro --fault-model activation --scheme layer-wise              --error 0.2 --images 2 --workers 2",
        ))
        .unwrap();
        let trace_path = std::env::temp_dir()
            .join(format!("sfi-cli-transient-trace-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let opts = CliOptions { trace_out: Some(trace_path.clone()), ..opts };
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("layer-wise activation campaign"), "{text}");
        assert!(text.contains("N0"), "expected node-group rows: {text}");
        assert!(text.contains("network:"), "{text}");

        // The trace counts the rows the delta engine's dense convs computed
        // against their full height, and `sfi trace report` prints the share.
        let raw = std::fs::read_to_string(&trace_path).unwrap();
        let m = summary::summarize(&raw).unwrap().metrics.unwrap();
        assert!(0 < m.delta_conv_rows && m.delta_conv_rows <= m.delta_conv_rows_full, "{m:?}");
        let report_opts = parse(&["trace".to_string(), "report".to_string(), trace_path.clone()]);
        let mut report = Vec::new();
        run(&report_opts.unwrap(), &mut report).unwrap();
        let report = String::from_utf8(report).unwrap();
        assert!(report.contains("delta dense conv rows: "), "{report}");
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn run_accumulated_campaign_end_to_end() {
        let opts = parse(&args(
            "run --model resnet20-micro --accumulate 2 --error 0.2 --images 2 --workers 2",
        ))
        .unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("accumulated campaign"), "{text}");
        assert!(text.contains("network:"), "{text}");
    }

    #[test]
    fn plan_transient_prints_node_groups() {
        let opts = parse(&args(
            "plan --model resnet20-micro --fault-model activation --scheme layer-wise              --error 0.1 --images 2",
        ))
        .unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("layer-wise activation plan"), "{text}");
        assert!(text.contains("N0"), "{text}");
    }

    #[test]
    fn run_transient_data_aware_uses_activation_statistics() {
        let opts = parse(&args(
            "run --model resnet20-micro --fault-model activation --scheme data-aware              --error 0.2 --images 2",
        ))
        .unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("data-aware activation campaign"), "{text}");
    }

    #[test]
    fn parse_workers_and_progress() {
        let o = parse(&args("run --workers 4 --progress")).unwrap();
        assert_eq!(o.workers, 4);
        assert!(o.progress);
        let d = parse(&args("run")).unwrap();
        assert_eq!(d.workers, 1);
        assert!(!d.progress);
        assert!(parse(&args("run --workers 0")).is_err());
        assert!(parse(&args("run --workers four")).is_err());
    }

    #[test]
    fn run_with_progress_prints_telemetry() {
        let opts = parse(&args(
            "run --model resnet20-micro --scheme network-wise --error 0.2 --images 2 \
             --workers 2 --progress",
        ))
        .unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("per-stratum telemetry:"), "{text}");
        assert!(text.contains("inf/s"));
        assert!(text.contains("total"));
        assert!(text.contains("network:"));
    }

    #[test]
    fn worker_count_does_not_change_estimates() {
        let base =
            parse(&args("run --model resnet20-micro --scheme network-wise --error 0.2 --images 2"))
                .unwrap();
        let mut serial = Vec::new();
        run(&base, &mut serial).unwrap();
        let parallel_opts = CliOptions { workers: 4, ..base };
        let mut parallel = Vec::new();
        run(&parallel_opts, &mut parallel).unwrap();
        // Drop the header (worker count) and the trailing wall-clock token
        // of the summary line; everything else must match exactly.
        let strip = |b: &[u8]| {
            String::from_utf8(b.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.contains("..."))
                .map(|l| {
                    if l.starts_with("network:") {
                        l.rsplit_once(", ").map(|(a, _)| a.to_string()).unwrap_or_default()
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&serial), strip(&parallel));
    }

    #[test]
    fn parse_checkpoint_flags() {
        let o = parse(&args("run --checkpoint-dir /tmp/j --checkpoint-every 8 --resume")).unwrap();
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/j"));
        assert!(o.resume);
        assert_eq!(o.checkpoint_every, 8);
        let d = parse(&args("run")).unwrap();
        assert_eq!(d.checkpoint_dir, None);
        assert!(!d.resume);
        assert_eq!(d.checkpoint_every, 64);
        assert!(parse(&args("run --resume")).is_err(), "resume requires a checkpoint dir");
        assert!(parse(&args("run --checkpoint-dir /tmp/j --checkpoint-every 0")).is_err());
        assert!(parse(&args("run --checkpoint-dir /tmp/j --checkpoint-every x")).is_err());
        assert!(parse(&args("run --checkpoint-dir")).is_err());
    }

    #[test]
    fn checkpointed_run_and_resume_match_plain_run() {
        let base =
            parse(&args("run --model resnet20-micro --scheme network-wise --error 0.2 --images 2"))
                .unwrap();
        let mut plain = Vec::new();
        run(&base, &mut plain).unwrap();
        let dir = std::env::temp_dir().join(format!("sfi-cli-checkpoint-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let checkpointed =
            CliOptions { checkpoint_dir: Some(dir.to_string_lossy().into_owned()), ..base.clone() };
        let mut first = Vec::new();
        run(&checkpointed, &mut first).unwrap();
        // Resuming over the completed journal re-executes nothing and
        // reports the same estimates.
        let resume = CliOptions { resume: true, ..checkpointed.clone() };
        let mut second = Vec::new();
        run(&resume, &mut second).unwrap();
        let strip = |b: &[u8]| {
            String::from_utf8(b.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.contains("...") && !l.starts_with("resumed"))
                .map(|l| {
                    if l.starts_with("network:") {
                        l.rsplit_once(", ").map(|(a, _)| a.to_string()).unwrap_or_default()
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&plain), strip(&first));
        assert_eq!(strip(&plain), strip(&second));
        let second_text = String::from_utf8(second).unwrap();
        assert!(second_text.contains("resumed"), "{second_text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_no_lowering_cache() {
        // The golden lowering cache is gone: the flag is an unknown one.
        let e = parse(&args("run --no-lowering-cache")).unwrap_err();
        assert!(e.message.contains("unknown flag `--no-lowering-cache`"), "{e}");
    }

    #[test]
    fn parse_no_early_exit() {
        let o = parse(&args("run --no-early-exit")).unwrap();
        assert!(!o.early_exit);
        assert!(parse(&args("run")).unwrap().early_exit, "early exit is on by default");
    }

    #[test]
    fn parse_no_batched() {
        let o = parse(&args("run --no-batched")).unwrap();
        assert!(!o.batched);
        assert!(parse(&args("run")).unwrap().batched, "batched eval is on by default");
    }

    #[test]
    fn early_exit_does_not_change_estimates() {
        let base =
            parse(&args("run --model resnet20-micro --scheme network-wise --error 0.2 --images 2"))
                .unwrap();
        let mut fast = Vec::new();
        run(&base, &mut fast).unwrap();
        let mut plain = Vec::new();
        run(&CliOptions { early_exit: false, ..base }, &mut plain).unwrap();
        // Only wall-clock lines may differ; every estimate matches exactly.
        let strip = |b: &[u8]| {
            String::from_utf8(b.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.contains("..."))
                .map(|l| {
                    if l.starts_with("network:") {
                        l.rsplit_once(", ").map(|(a, _)| a.to_string()).unwrap_or_default()
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&fast), strip(&plain));
    }

    #[test]
    fn batched_does_not_change_estimates() {
        let base =
            parse(&args("run --model resnet20-micro --scheme network-wise --error 0.2 --images 2"))
                .unwrap();
        let mut batched = Vec::new();
        run(&base, &mut batched).unwrap();
        let mut per_image = Vec::new();
        run(&CliOptions { batched: false, ..base }, &mut per_image).unwrap();
        let strip = |b: &[u8]| {
            String::from_utf8(b.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.contains("..."))
                .map(|l| {
                    if l.starts_with("network:") {
                        l.rsplit_once(", ").map(|(a, _)| a.to_string()).unwrap_or_default()
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&batched), strip(&per_image));
    }

    #[test]
    fn parse_trace_flags() {
        let o = parse(&args("run --trace-out /tmp/t.jsonl")).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(o.trace_level, None, "level defaults to events at run time");
        let o = parse(&args("run --trace-out /tmp/t.jsonl --trace-level spans")).unwrap();
        assert_eq!(o.trace_level, Some(TraceLevel::Spans));
        assert!(parse(&args("run --trace-level events")).is_err(), "level needs an output file");
        assert!(parse(&args("run --trace-level verbose --trace-out /tmp/t.jsonl")).is_err());
        assert!(parse(&args("run --trace-out")).is_err());
        // `--trace-level off` alone is a no-op, not an error.
        assert!(parse(&args("run --trace-level off")).is_ok());
    }

    #[test]
    fn parse_trace_report_command() {
        let o = parse(&args("trace report /tmp/t.jsonl")).unwrap();
        assert_eq!(o.command, Command::TraceReport);
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(parse(&args("trace")).is_err());
        assert!(parse(&args("trace report")).is_err());
        assert!(parse(&args("trace explain /tmp/t.jsonl")).is_err());
    }

    #[test]
    fn run_rejects_degenerate_options_with_typed_errors() {
        let zero_workers = CliOptions { command: Command::Run, workers: 0, ..Default::default() };
        let e = run(&zero_workers, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("--workers"), "{e}");
        let no_images = CliOptions { command: Command::Run, images: 0, ..Default::default() };
        let e = run(&no_images, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("empty evaluation set"), "{e}");
    }

    #[test]
    fn traced_run_writes_a_summarizable_jsonl_trace() {
        let trace_path = std::env::temp_dir()
            .join(format!("sfi-cli-trace-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let base =
            parse(&args("run --model resnet20-micro --scheme network-wise --error 0.2 --images 2"))
                .unwrap();
        let traced = CliOptions { trace_out: Some(trace_path.clone()), ..base.clone() };
        let mut traced_out = Vec::new();
        run(&traced, &mut traced_out).unwrap();
        let text = String::from_utf8(traced_out).unwrap();
        assert!(text.contains("phase breakdown:"), "{text}");
        assert!(text.contains("trace written:"), "{text}");

        // The stream is valid JSONL that the summarizer accepts, with the
        // campaign's planned spans and per-fault events all present.
        let raw = std::fs::read_to_string(&trace_path).unwrap();
        let trace = summary::summarize(&raw).unwrap();
        assert!(trace.planned_faults.unwrap() > 0);
        assert_eq!(trace.fault_events, trace.planned_faults.unwrap());
        assert!(trace.campaign.is_some(), "campaign_end must be present");
        assert!(trace.metrics.is_some(), "the final metrics event must be present");
        assert!(!trace.phases.is_empty());

        // `sfi trace report` renders the same stream.
        let report_opts =
            parse(&["trace".to_string(), "report".to_string(), trace_path.clone()]).unwrap();
        let mut report_out = Vec::new();
        run(&report_opts, &mut report_out).unwrap();
        let report = String::from_utf8(report_out).unwrap();
        assert!(report.contains("per-stratum spans:"), "{report}");
        assert!(report.contains("fault events:"), "{report}");
        assert!(report.contains("phase breakdown:"), "{report}");
        assert!(report.contains("metrics:"), "{report}");

        // Tracing never changes what the user sees of the campaign: the
        // estimate lines match an untraced run exactly.
        let mut plain_out = Vec::new();
        run(&base, &mut plain_out).unwrap();
        let plain = String::from_utf8(plain_out).unwrap();
        let estimates = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with('L') || l.starts_with("network:"))
                .map(|l| {
                    if l.starts_with("network:") {
                        l.rsplit_once(", ").map(|(a, _)| a.to_string()).unwrap_or_default()
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(estimates(&plain), estimates(&text));
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn trace_report_rejects_missing_or_malformed_files() {
        let missing = parse(&args("trace report /nonexistent/sfi-trace.jsonl")).unwrap();
        let e = run(&missing, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("reading trace"), "{e}");
        let bad_path =
            std::env::temp_dir().join(format!("sfi-cli-badtrace-{}.jsonl", std::process::id()));
        std::fs::write(&bad_path, "not json\n").unwrap();
        let bad = parse(&[
            "trace".to_string(),
            "report".to_string(),
            bad_path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let e = run(&bad, &mut Vec::new()).unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        std::fs::remove_file(&bad_path).ok();
    }

    #[test]
    fn scheme_aliases() {
        assert_eq!(SchemeChoice::parse("network").unwrap(), SchemeChoice::NetworkWise);
        assert_eq!(SchemeChoice::parse("layer").unwrap(), SchemeChoice::LayerWise);
    }

    #[test]
    fn help_renders_usage() {
        let mut buf = Vec::new();
        run(&CliOptions::default(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("--budget-frac"));
    }

    #[test]
    fn plan_command_on_full_resnet() {
        let opts = parse(&args("plan --model resnet20 --scheme layer-wise --error 0.01")).unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Paper Table I values appear in the plan output (the natural
        // layer-11 count of 9,216 makes the total 307,649 instead of the
        // paper's 307,650, which includes 10 classifier biases there).
        assert!(text.contains("307,649"), "{text}");
        assert!(text.contains("10,389"));
        assert!(text.contains("16,524"));
    }

    #[test]
    fn analyze_command_reports_bits() {
        let opts = parse(&args("analyze --model resnet20-micro")).unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("f1 fraction"));
        assert!(text.contains("p(i)"));
    }

    #[test]
    fn run_command_small_campaign() {
        let opts =
            parse(&args("run --model resnet20-micro --scheme network-wise --error 0.2 --images 2"))
                .unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("network:"), "{text}");
    }

    #[test]
    fn harden_command_produces_plan() {
        let opts =
            parse(&args("harden --model resnet20-micro --error 0.2 --images 2 --budget-frac 0.3"))
                .unwrap();
        let mut buf = Vec::new();
        run(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("SEC-DED budget"));
        assert!(text.contains("residual"));
    }
}
