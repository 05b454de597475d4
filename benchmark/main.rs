//! The repository's end-to-end benchmark: statistical fault-injection (SFI)
//! campaigns run through the library's public API, one workload per
//! process.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]
//! benchmark [--seed <n>] [--seconds <n>] [--trace 0|1]   # every workload
//! benchmark --list
//! ```
//!
//! A run sets the campaign up several times, passes the correctness gate,
//! then executes the plan repeatedly until `--seconds` (the whole run's
//! budget) are used up. It reports the median set-up and the fastest
//! execution.
//! The last line of standard output is one JSON object with the verdict and
//! the metrics: the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this file for the workloads, the
//! metrics and the comparison protocol.

mod layers;
mod spans;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use layers::{Error, Exec, Outcome};
use spans::Spans;

/// A run sets the campaign up at least this many times, and for at least
/// `1/SETUP_SHARE` of `--seconds`; `setup_s` is the median set-up.
const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 16.0;
/// Fewest untraced plan executions in the measured window, whatever
/// `--seconds`.
const MIN_EXECUTIONS: usize = 3;
/// The gate's reduced plan has this many times the workload's error margin
/// (about 1/16 of the faults where the plan is not at its one-fault-per-
/// stratum floor).
const GATE_MARGIN_FACTOR: f64 = 4.0;
/// Largest error margin the gate plans at.
const GATE_MARGIN_CAP: f64 = 0.5;
/// Fault-free forward passes timed for `nn.forward_ms` (median).
const FORWARD_REPS: usize = 5;
/// Timings of each GEMM shape for `tensor.gemm_ms` (minimum).
const GEMM_REPS: usize = 5;
/// Workers of the traced run's parallel execution, for
/// `faultsim.parallel_efficiency`.
const PARALLEL_WORKERS: usize = 2;

/// A network the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// ResNet-20 for CIFAR: width 16, 32×32 inputs.
    Resnet20,
    /// ResNet-20 at width 2, 16×16 inputs.
    Resnet20Micro,
    /// MobileNetV2 for CIFAR: width 1.0, 32×32 inputs.
    MobileNetV2,
    /// MobileNetV2 at width 0.1, 16×16 inputs: the unit tests' stand-in
    /// for `MobileNetV2`.
    #[cfg(test)]
    MobileNetV2Micro,
}

impl Net {
    /// Side of the square input images.
    pub fn input_size(self) -> usize {
        match self {
            Net::Resnet20 | Net::MobileNetV2 => 32,
            Net::Resnet20Micro => 16,
            #[cfg(test)]
            Net::MobileNetV2Micro => 16,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Net::Resnet20 => "ResNet-20 (width 16, 32x32)",
            Net::Resnet20Micro => "resnet20-micro (width 2, 16x16)",
            Net::MobileNetV2 => "MobileNetV2 (width 1.0, 32x32)",
            #[cfg(test)]
            Net::MobileNetV2Micro => "mobilenetv2-micro (width 0.1, 16x16)",
        }
    }
}

/// Fault model and sampling plan of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Permanent weight stuck-at faults, one stratum per (layer, bit) at
    /// the data-derived p(i).
    WeightDataAware,
    /// Permanent weight stuck-at faults, one sample over the network.
    WeightNetworkWise,
    /// Permanent weight stuck-at faults, one stratum per (layer, bit) at
    /// p = 0.5.
    WeightDataUnaware,
    /// Transient activation bit faults, one sample over the network.
    ActivationNetworkWise,
}

impl Scheme {
    fn label(self) -> &'static str {
        match self {
            Scheme::WeightDataAware => "weight stuck-at, data-aware plan",
            Scheme::WeightNetworkWise => "weight stuck-at, network-wise plan",
            Scheme::WeightDataUnaware => "weight stuck-at, data-unaware plan",
            Scheme::ActivationNetworkWise => "transient activation, network-wise plan",
        }
    }
}

/// One campaign the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    /// Evaluation images.
    pub images: usize,
    pub scheme: Scheme,
    /// Error margin `e` of the plan, at 99% confidence.
    pub error_margin: f64,
    /// Journal every classification to a fresh checkpoint directory.
    pub journaled: bool,
    /// Why the benchmark runs it (also its `why` in `BENCHMARK.json`).
    pub why: &'static str,
}

impl Workload {
    fn definition(&self) -> String {
        format!(
            "{}, {} image(s), {}, e = {}, 99% confidence, 1 worker{}",
            self.net.label(),
            self.images,
            self.scheme.label(),
            self.error_margin,
            if self.journaled { ", journaled (fsync every 64)" } else { "" }
        )
    }
}

/// The workloads, in the order the all-workload mode runs them. Each
/// executes its plan with one worker: on a shared two-core host, a
/// two-worker execution also waits for whichever core another tenant slows
/// down (`README.md` has the measurements). The traced run also executes
/// every plan with `PARALLEL_WORKERS`.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "resnet20-weight-dataaware",
        net: Net::Resnet20,
        images: 2,
        scheme: Scheme::WeightDataAware,
        error_margin: 0.12,
        journaled: false,
        why: "The paper's method on its network: GEMM-bound suffix re-execution (GEMM is ~70% of \
              a forward pass), where the kernels, early exit and the lowering cache do the work",
    },
    Workload {
        name: "mobilenetv2-weight-networkwise",
        net: Net::MobileNetV2,
        images: 1,
        scheme: Scheme::WeightNetworkWise,
        error_margin: 0.025,
        journaled: false,
        why: "Depthwise convs and many cheap BN/ReLU6/add nodes make GEMM a small share, exposing \
              the non-GEMM floor; the largest model, stressing set-up and memory",
    },
    Workload {
        name: "resnet20-activation-transient",
        net: Net::Resnet20,
        images: 8,
        scheme: Scheme::ActivationNetworkWise,
        error_margin: 0.025,
        journaled: false,
        why: "One-element transient faults route to the sparse delta engine and bypass batched: \
              weight-engine changes should leave it flat",
    },
    Workload {
        name: "resnet20micro-weight-checkpointed",
        net: Net::Resnet20Micro,
        images: 4,
        scheme: Scheme::WeightDataUnaware,
        error_margin: 0.1,
        journaled: true,
        why: "Tens of microseconds per fault: dispatch, sampling, bookkeeping and journal fsync \
              dominate; the only workload on the journal's write path, and the one where batched \
              is picked",
    },
];

/// A metric's name and unit.
type Metric = (&'static str, &'static str);

/// What a user of the library waits for or pays, reported untraced.
const END_TO_END: &[Metric] = &[
    ("faults_per_s", "faults/s"),
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("margin_pct", "%"),
];

/// Single-layer metrics, reported by the traced run.
const PER_LAYER: &[Metric] = &[
    ("dataset.generate_s", "s"),
    ("nn.build_s", "s"),
    ("nn.forward_ms", "ms"),
    ("nn.converged_share", "fraction"),
    ("nn.nodes_skipped_per_fault", "nodes/fault"),
    ("nn.engine_dense_share", "fraction"),
    ("nn.engine_delta_share", "fraction"),
    ("nn.engine_batched_share", "fraction"),
    ("nn.delta_sparse_nodes_per_fault", "nodes/fault"),
    ("nn.delta_fallback_ratio", "fraction"),
    ("tensor.gemm_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_share", "fraction"),
    ("faultsim.golden_build_s", "s"),
    ("faultsim.golden_lowering_s", "s"),
    ("faultsim.activation_space_s", "s"),
    ("faultsim.golden_mb", "MB"),
    ("faultsim.lowering_mb", "MB"),
    ("faultsim.batched_mb", "MB"),
    ("faultsim.arena_peak_mb", "MB"),
    ("faultsim.lowering_hit_rate", "fraction"),
    ("faultsim.inference_busy_s", "s"),
    ("faultsim.inference_mean_us", "us"),
    ("faultsim.inference_p99_us", "us"),
    ("faultsim.masked_share", "fraction"),
    ("faultsim.inferences_per_fault", "inferences/fault"),
    ("faultsim.arena_reuse_ratio", "fraction"),
    ("faultsim.outside_inference_share", "fraction"),
    ("faultsim.parallel_efficiency", "fraction"),
    ("journal.fsyncs", "count"),
    ("journal.fsync_s", "s"),
    ("journal.fsync_share", "fraction"),
    ("journal.bytes_per_fault", "B/fault"),
    ("journal.recover_s", "s"),
    ("core.plan_s", "s"),
    ("core.plan_faults", "faults"),
    ("obs.trace_overhead", "fraction"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    list: bool,
    /// Where journals and span files go.
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 17,
        trace: false,
        list: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--list" {
            parsed.list = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` expects a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("`{flag}` expects a number"));
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload `{value}` (see --list)"));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The outcome of one workload run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// The result line: verdict, counts and every metric with its unit.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The wall time of the fastest of several executions of one plan. The
/// executions repeat the same work, and the host only ever adds time to
/// them: on a shared machine, other tenants slow it down in bursts of a few
/// seconds, so the fastest execution is the one that repeats from run to
/// run.
fn fastest_wall_s(runs: &[Outcome]) -> f64 {
    runs.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min)
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Deterministic GEMM operands.
fn filled(len: usize, seed: u32) -> Vec<f32> {
    let mut x = seed.wrapping_mul(2_654_435_761).max(1);
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x % 2000) as f32 / 1000.0 - 1.0
        })
        .collect()
}

/// Layer measurements only the traced run takes.
struct TraceExtras {
    forward_ms: f64,
    gemm_ms: f64,
    gemm_flops: f64,
    recover_s: f64,
    /// The plan executed by `PARALLEL_WORKERS` workers.
    parallel: Outcome,
}

fn trace_extras(
    c: &layers::Campaign,
    seed: u64,
    journal: Option<&Path>,
    spans: &mut Spans,
) -> Result<TraceExtras, Error> {
    for _ in 0..FORWARD_REPS {
        spans.span("nn.forward", |_| layers::forward(c))?;
    }
    let forward_ms = median(&spans.seconds("nn.forward")) * 1e3;
    let (gemm_ms, gemm_flops) = spans.span("tensor.gemm", |_| {
        let mut packed = Vec::new();
        let (mut ms, mut flops) = (0.0, 0.0);
        for (i, &(m, k, n)) in layers::conv_gemm_shapes(c).iter().enumerate() {
            let a = filled(m * k, 2 * i as u32 + 1);
            let b = filled(k * n, 2 * i as u32 + 2);
            let mut out = vec![0.0f32; m * n];
            let mut best = f64::INFINITY;
            for _ in 0..GEMM_REPS {
                let t = Instant::now();
                layers::gemm(m, k, n, &a, &b, &mut out, &mut packed);
                std::hint::black_box(&mut out);
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            ms += best;
            flops += 2.0 * (m * k * n) as f64;
        }
        (ms, flops)
    });
    let mut recover_s = 0.0;
    if let Some(dir) = journal {
        spans.span("journal.recover", |_| layers::recover(c, seed, dir))?;
        recover_s = spans.seconds("journal.recover")[0];
    }
    let exec = Exec { gate: false, seed, workers: PARALLEL_WORKERS, journal, traced: false };
    let parallel = spans.span("campaign.parallel", |_| layers::execute(c, &exec))?;
    Ok(TraceExtras { forward_ms, gemm_ms, gemm_flops, recover_s, parallel })
}

/// Runs workload `w` in this process: set-up, correctness gate, measured
/// window, and with `--trace 1` the per-layer measurements and span file.
/// Progress and the human-readable report go to `out`.
fn run_workload(w: &Workload, args: &Args, out: &mut dyn Write) -> Result<Report, Error> {
    let mut spans = Spans::new(w.name);
    std::fs::create_dir_all(&args.out_dir)?;
    let journal = w
        .journaled
        .then(|| args.out_dir.join(format!("journal-{}-{}", w.name, std::process::id())));
    let journal = journal.as_deref();
    let gate_margin = (w.error_margin * GATE_MARGIN_FACTOR).min(GATE_MARGIN_CAP);
    let start = Instant::now();
    let budget = args.seconds as f64;
    let elapsed = || start.elapsed().as_secs_f64();

    let mut campaign = None;
    for n in 0.. {
        if n >= MIN_SETUPS && elapsed() >= budget / SETUP_SHARE {
            break;
        }
        if let Some(previous) = campaign.take() {
            spans.span("teardown", |_| drop(previous));
        }
        campaign = Some(spans.span("setup", |s| layers::setup(w, gate_margin, s))?);
    }
    let c = campaign.expect("at least one set-up");
    writeln!(out, "workload {}: {}", w.name, w.definition())?;
    writeln!(
        out,
        "plan: {} faults; gate plan: {} faults at e = {gate_margin}; sampling seed {}",
        c.plan_faults(),
        c.gate_faults(),
        args.seed
    )?;

    let exec =
        |gate: bool, traced: bool| Exec { gate, seed: args.seed, workers: 1, journal, traced };
    // The gate runs before the window, so it also warms caches and the
    // allocator up.
    let (gate_timed, gate_reference) = spans.span("gate", |s| -> Result<_, Error> {
        let timed = s.span("gate.timed", |_| layers::execute(&c, &exec(true, false)))?;
        Ok((timed, layers::execute_reference(&c, args.seed, s)?))
    })?;
    let mut problems = Vec::new();
    if let Some(diff) = gate_timed.difference(&gate_reference) {
        problems.push(format!("correctness gate: timed vs reference configuration: {diff}"));
    }

    // The window: executions until the next one, at the median length of
    // the ones before it, would end past the budget.
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let mut rounds: Vec<f64> = Vec::new();
    while untraced.len() < MIN_EXECUTIONS || elapsed() + median(&rounds) <= budget {
        let round = Instant::now();
        untraced.push(spans.span("campaign", |_| layers::execute(&c, &exec(false, false)))?);
        if args.trace {
            traced
                .push(spans.span("campaign.traced", |_| layers::execute(&c, &exec(false, true)))?);
        }
        rounds.push(round.elapsed().as_secs_f64());
    }
    let extras =
        if args.trace { Some(trace_extras(&c, args.seed, journal, &mut spans)?) } else { None };
    let parallel = extras.as_ref().map(|x| &x.parallel);
    let first = &untraced[0];
    for (i, run) in untraced.iter().chain(&traced).chain(parallel).enumerate().skip(1) {
        if let Some(diff) = run.difference(first) {
            problems.push(format!("execution {i} differs from execution 0: {diff}"));
        }
    }
    let executed = [&gate_timed, &gate_reference].into_iter().chain(&untraced).chain(&traced);
    let executed = executed.chain(parallel);
    let (attempted, failures) =
        executed.fold((0, 0), |(a, f), r| (a + r.injections, f + r.classes[3]));
    let correct = problems.is_empty();
    for problem in &problems {
        writeln!(out, "FAILED {problem}")?;
    }
    writeln!(
        out,
        "digest {:016x}: {:.4}% ± {:.4}% critical, {} injections, {} inferences",
        first.digest(),
        first.proportion * 100.0,
        first.margin * 100.0,
        first.injections,
        first.inferences
    )?;

    let campaign_s = fastest_wall_s(&untraced);
    writeln!(
        out,
        "{} executions in the window: {}; campaign_s {campaign_s:.4} s",
        untraced.len(),
        untraced.iter().map(|r| format!("{:.4} s", r.wall_s)).collect::<Vec<_>>().join(", ")
    )?;

    let metrics: Vec<(&'static str, &'static str, f64)> = if !args.trace {
        let faults_per_s = first.injections as f64 / campaign_s;
        let setup_s = median(&spans.seconds("setup"));
        let peak_rss_mb = peak_rss_mb()?;
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "faults_per_s" => faults_per_s,
                    "campaign_s" => campaign_s,
                    "setup_s" => setup_s,
                    "peak_rss_mb" => peak_rss_mb,
                    "margin_pct" => first.worst_margin * 100.0,
                    _ => unreachable!("end-to-end metric {name} has no value"),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        let x = extras.as_ref().expect("the traced run takes the layer measurements");
        let t = traced.last().expect("the traced run executes the plan");
        let p = t.probe.expect("traced executions carry probe metrics");
        let k = t.counters;
        let evaluated = (k.engine_dense + k.engine_delta + k.engine_batched) as f64;
        let traced_s = fastest_wall_s(&traced);
        let faults = t.injections as f64;
        let (golden_b, lowering_b, batched_b) = layers::golden_bytes(&c);
        let med = |name: &str| median(&spans.seconds(name));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "dataset.generate_s" => med("dataset.generate"),
                    "nn.build_s" => med("nn.build"),
                    "nn.forward_ms" => x.forward_ms,
                    "nn.converged_share" => ratio(k.converged as f64, evaluated),
                    "nn.nodes_skipped_per_fault" => ratio(k.nodes_skipped as f64, evaluated),
                    "nn.engine_dense_share" => ratio(k.engine_dense as f64, evaluated),
                    "nn.engine_delta_share" => ratio(k.engine_delta as f64, evaluated),
                    "nn.engine_batched_share" => ratio(k.engine_batched as f64, evaluated),
                    "nn.delta_sparse_nodes_per_fault" => {
                        ratio(k.delta_sparse_nodes as f64, evaluated)
                    }
                    "nn.delta_fallback_ratio" => ratio(
                        k.delta_fallbacks as f64,
                        (k.delta_sparse_nodes + k.delta_fallbacks) as f64,
                    ),
                    "tensor.gemm_ms" => x.gemm_ms,
                    "tensor.gemm_gflops" => ratio(x.gemm_flops, x.gemm_ms * 1e6),
                    "tensor.gemm_share" => ratio(x.gemm_ms, x.forward_ms),
                    "faultsim.golden_build_s" => med("faultsim.golden_build"),
                    "faultsim.golden_lowering_s" => med("faultsim.golden_lowering"),
                    "faultsim.activation_space_s" => med("faultsim.activation_space"),
                    "faultsim.golden_mb" => golden_b as f64 / 1e6,
                    "faultsim.lowering_mb" => lowering_b as f64 / 1e6,
                    "faultsim.batched_mb" => batched_b as f64 / 1e6,
                    "faultsim.arena_peak_mb" => k.arena_peak_bytes as f64 / 1e6,
                    "faultsim.lowering_hit_rate" => {
                        ratio(k.lowering_hits as f64, (k.lowering_hits + k.lowering_misses) as f64)
                    }
                    "faultsim.inference_busy_s" => p.inference_ns as f64 / 1e9,
                    "faultsim.inference_mean_us" => p.mean_inference_us,
                    "faultsim.inference_p99_us" => p.p99_inference_us,
                    "faultsim.masked_share" => ratio(t.classes[0] as f64, faults),
                    "faultsim.inferences_per_fault" => ratio(t.inferences as f64, faults),
                    "faultsim.arena_reuse_ratio" => {
                        ratio(p.arena_reuses as f64, p.arena_takes as f64)
                    }
                    "faultsim.outside_inference_share" => {
                        1.0 - ratio(p.inference_ns as f64 / 1e9, t.wall_s)
                    }
                    "faultsim.parallel_efficiency" => {
                        ratio(campaign_s, PARALLEL_WORKERS as f64 * x.parallel.wall_s)
                    }
                    "journal.fsyncs" => p.fsyncs as f64,
                    "journal.fsync_s" => p.fsync_ns as f64 / 1e9,
                    "journal.fsync_share" => ratio(p.fsync_ns as f64 / 1e9, t.wall_s),
                    "journal.bytes_per_fault" => ratio(t.journal_bytes as f64, faults),
                    "journal.recover_s" => x.recover_s,
                    "core.plan_s" => med("core.plan"),
                    "core.plan_faults" => c.plan_faults() as f64,
                    "obs.trace_overhead" => traced_s / campaign_s - 1.0,
                    _ => unreachable!("per-layer metric {name} has no value"),
                };
                (name, unit, value)
            })
            .collect()
    };
    if let Some(dir) = journal {
        spans.span("cleanup", |_| std::fs::remove_dir_all(dir))?;
    }
    spans.finish();

    if args.trace {
        let path = args.out_dir.join(format!("trace-{}-{}.json", w.name, args.seed));
        std::fs::write(&path, spans.to_json(args.seed))?;
        let wall = spans.seconds(w.name)[0];
        writeln!(out, "\nspans (written to {}):", path.display())?;
        writeln!(out, "{:<28} {:>6} {:>12} {:>8}", "span", "count", "self [s]", "share")?;
        for (name, count, self_s) in spans.self_times() {
            let share = self_s / wall * 100.0;
            writeln!(out, "{name:<28} {count:>6} {self_s:>12.4} {share:>7.2}%")?;
        }
        writeln!(out, "residual: {:.2}% of {wall:.3} s", spans.residual_share() * 100.0)?;
    }
    writeln!(out)?;
    for &(name, unit, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        writeln!(out, "{name:<36} {value:>16.6} {unit}")?;
    }
    Ok(Report { correct, attempted, failed: if correct { failures } else { attempted }, metrics })
}

/// Runs every workload in a child process of its own, one after another,
/// forwarding their output. True when every workload ran and was correct.
fn run_all(args: &Args) -> Result<bool, Error> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()?;
        std::io::stdout().write_all(&output.stdout)?;
        if !output.status.success() {
            println!("workload {} FAILED ({})", w.name, output.status);
            all_correct = false;
        }
        println!();
    }
    println!("verdict: {}", if all_correct { "all workloads correct" } else { "FAILED" });
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: benchmark [--workload <name>] [--seed <n>] [--seconds <n>] [--trace 0|1] | --list");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in WORKLOADS {
            println!("{}\n  {}\n  why: {}\n", w.name, w.definition(), w.why);
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = &args.workload else {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let w = WORKLOADS.iter().find(|w| w.name == name).expect("parse_args checked the name");
    let mut stdout = std::io::stdout();
    match run_workload(w, &args, &mut stdout) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

    impl Workload {
        /// The same code path on a micro network, two images and a loose
        /// margin: seconds instead of minutes.
        fn toy(&self) -> Workload {
            let net = match self.net {
                Net::Resnet20 | Net::Resnet20Micro => Net::Resnet20Micro,
                Net::MobileNetV2 | Net::MobileNetV2Micro => Net::MobileNetV2Micro,
            };
            Workload { net, images: 2, error_margin: self.error_margin.max(0.2), ..*self }
        }
    }

    fn toy_args(trace: bool, tag: &str) -> Args {
        Args {
            workload: None,
            seed: 3,
            seconds: 0,
            trace,
            list: false,
            out_dir: std::env::temp_dir()
                .join(format!("sfi-benchmark-{tag}-{}", std::process::id())),
        }
    }

    /// The `BENCHMARK.json` line that declares `name`.
    fn declaration(name: &str) -> Option<&'static str> {
        let key = format!("\"name\": \"{name}\"");
        BENCHMARK_JSON.lines().find(|l| l.contains(&key))
    }

    /// Runs workload `name` at toy scale, untraced and traced, and checks
    /// the verdict, that every metric is reported with its unit, and what
    /// the run leaves behind.
    fn check_toy_run(name: &str) {
        let w = WORKLOADS.iter().find(|w| w.name == name).expect("known workload").toy();
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let args = toy_args(trace, name);
            let mut out = Vec::new();
            let report = run_workload(&w, &args, &mut out).expect("toy workload runs");
            let text = String::from_utf8(out).expect("utf-8 report");
            assert!(report.correct, "{name}: {text}");
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            let names: Vec<Metric> = report.metrics.iter().map(|m| (m.0, m.1)).collect();
            assert_eq!(names, table.to_vec());
            let json = report.json();
            for (metric, unit) in table {
                assert!(json.contains(&format!("\"{metric}\": {{\"value\": ")), "{metric}");
                assert!(text.contains(&format!(" {unit}\n")), "{metric} printed with {unit}");
            }
            let left: Vec<String> = std::fs::read_dir(&args.out_dir)
                .expect("output directory exists")
                .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
                .collect();
            let spans = format!("trace-{name}-3.json");
            assert_eq!(left, if trace { vec![spans] } else { vec![] }, "journals are removed");
            if trace {
                assert!(text.contains("residual: "));
            }
            std::fs::remove_dir_all(&args.out_dir).expect("remove test output");
        }
    }

    #[test]
    fn dataaware_workload_runs_at_toy_scale() {
        check_toy_run("resnet20-weight-dataaware");
    }

    #[test]
    fn mobilenetv2_workload_runs_at_toy_scale() {
        check_toy_run("mobilenetv2-weight-networkwise");
    }

    #[test]
    fn transient_workload_runs_at_toy_scale() {
        check_toy_run("resnet20-activation-transient");
    }

    #[test]
    fn checkpointed_workload_runs_at_toy_scale() {
        check_toy_run("resnet20micro-weight-checkpointed");
    }

    #[test]
    fn gate_fails_on_a_mismatched_reference() {
        let w = WORKLOADS[0].toy();
        let mut spans = Spans::new(w.name);
        let c = layers::setup(&w, 0.5, &mut spans).expect("toy set-up");
        let exec = Exec { gate: true, seed: 5, workers: 1, journal: None, traced: false };
        let timed = layers::execute(&c, &exec).expect("timed gate run");
        let reference = layers::execute_reference(&c, 5, &mut spans).expect("reference run");
        assert_eq!(timed.difference(&reference), None);
        assert_eq!(timed.digest(), reference.digest());

        let mut tally = reference.clone();
        tally.strata[0].1 += 1;
        assert!(timed.difference(&tally).expect("tallies differ").contains("stratum 0"));
        let mut classes = reference.clone();
        classes.classes.swap(1, 2);
        assert!(timed.difference(&classes).expect("classes differ").contains("class counts"));
        let mut inferences = reference;
        inferences.inferences += 1;
        assert!(timed.difference(&inferences).is_some());
        assert_ne!(timed.digest(), inferences.digest());
    }

    #[test]
    fn benchmark_json_declares_every_workload_and_metric() {
        for w in WORKLOADS {
            let line = declaration(w.name).unwrap_or_else(|| panic!("{} missing", w.name));
            assert!(line.contains(&format!("\"why\": \"{}\"", w.why)), "{} why differs", w.name);
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let line = declaration(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{name} unit differs");
        }
        let declared = BENCHMARK_JSON.matches("\"name\": ").count();
        assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn parse_args_reads_the_driver_flags_and_rejects_bad_ones() {
        let args: Vec<String> =
            "--workload resnet20-activation-transient --seed 7 --seconds 12 --trace 1"
                .split(' ')
                .map(String::from)
                .collect();
        let parsed = parse_args(&args).expect("valid flags");
        assert_eq!(parsed.workload.as_deref(), Some("resnet20-activation-transient"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 12, true));
        for bad in ["--workload nope", "--seed x", "--trace 2", "--seconds", "--frobnicate 1"] {
            let bad: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
    }
}
