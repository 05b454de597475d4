//! `obs_overhead`: the observability zero-cost gate. Compares a
//! probe-free, hand-rolled classification loop (the pre-observability
//! fast path, built from the same public APIs the executor uses) against
//! the library path with tracing disabled, then measures what the spans
//! and events levels add. Classifications must be identical on every
//! path. With `--smoke` the binary exits non-zero if the tracing-disabled
//! library path is more than 2% slower than the probe-free baseline
//! (used by CI); with `--bench` the comparison is written to
//! `BENCH_obs.json` at the workspace root.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sfi_bench::{host_fingerprint, resnet20_setup, Scale};
use sfi_faultsim::campaign::{
    run_campaign, CampaignConfig, Corruption, FaultClass, Ieee754Corruption,
};
use sfi_faultsim::executor::with_executor;
use sfi_faultsim::fault::Fault;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::injector::{inject_with, revert};
use sfi_faultsim::multi::CampaignFault;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::plan::row_argmax;
use sfi_nn::{Model, SessionState};
use sfi_obs::{Probe, TraceLevel};
use sfi_stats::sampling::sample_without_replacement;

/// The network-wide bit-level workload: `per_bit` faults from every
/// (layer, bit) stratum — the plan shape the paper's Table I runs and the
/// one the observability layer must not slow down.
fn bit_level_faults(space: &FaultSpace, per_bit: u64) -> Vec<Fault> {
    let mut faults = Vec::new();
    for layer in 0..space.layers() {
        for bit in (0..32).rev() {
            let sub = space.bit_subpopulation(layer, bit).unwrap();
            let mut rng = StdRng::seed_from_u64(7000 + (layer * 32 + bit as usize) as u64);
            let n = per_bit.min(sub.size());
            let indices = sample_without_replacement(sub.size(), n, &mut rng).unwrap();
            faults.extend(sub.faults_at(&indices).unwrap());
        }
    }
    faults
}

/// The pre-observability classification loop, hand-rolled from public
/// APIs: inject, run the plan's suffix pass from the dirty node over
/// chunks of the per-image golden caches as wide as the plan picks (all
/// images at once or one image at a time, over the worker's session
/// panel of the chunk) — converging, with the
/// single-unit probe armed — count mismatches against the golden top-1
/// with early exit, revert. No probe anywhere — this is the baseline the
/// instrumented executor is gated against.
fn classify_probe_free(
    model: &mut Model,
    data: &sfi_dataset::Dataset,
    golden: &GoldenReference,
    faults: &[Fault],
    session: &mut SessionState,
) -> Vec<FaultClass> {
    let plan = golden.plan();
    let corruption = Ieee754Corruption;
    let mut classes = Vec::with_capacity(faults.len());
    for fault in faults {
        let class = catch_unwind(AssertUnwindSafe(|| {
            let injection =
                inject_with(model, fault, |f, original| corruption.corrupt(f, original)).unwrap();
            if !injection.is_effective() {
                revert(model, &injection);
                return FaultClass::Masked;
            }
            let mut mismatches = 0usize;
            let mut failed = false;
            let dirty = injection.dirty_node;
            let unit = model.param_output_unit(injection.param, injection.index);
            let width = if plan.batched_profitable(dirty) { data.len() } else { 1 };
            'images: for (c, chunk) in golden.caches().chunks(width).enumerate() {
                let first = c * width;
                let (arena, lowered, _) =
                    session.ensure_panel(model, plan, chunk, c, dirty).unwrap();
                let out =
                    plan.weight_suffix(model, dirty, chunk, lowered, unit, true, arena).unwrap();
                let mut rows = out.logits.chunks_exact(out.classes.max(1));
                for (i, converged_at) in out.converged_at.iter().enumerate() {
                    if converged_at.is_some() {
                        continue;
                    }
                    let Some(pred) = rows.next().and_then(row_argmax) else {
                        failed = true;
                        break 'images;
                    };
                    if pred != golden.prediction(first + i) {
                        mismatches += 1;
                        break 'images; // AnyMismatch criterion: one mismatch is critical.
                    }
                }
                session.arena.recycle(out.logits);
            }
            revert(model, &injection);
            if failed {
                FaultClass::ExecutionFailure
            } else if mismatches > 0 {
                FaultClass::Critical
            } else {
                FaultClass::NonCritical
            }
        }))
        .unwrap_or(FaultClass::ExecutionFailure);
        classes.push(class);
    }
    classes
}

/// One campaign through the library path at the given trace level,
/// returning the classifications. `out` receives the JSONL stream when
/// the level writes one.
fn run_traced(
    model: &Model,
    data: &sfi_dataset::Dataset,
    golden: &GoldenReference,
    faults: &[Fault],
    cfg: &CampaignConfig,
    level: TraceLevel,
    out: Option<&std::path::Path>,
) -> Vec<FaultClass> {
    let probe = Probe::new(level, out).unwrap();
    let faults: Vec<CampaignFault> = faults.iter().map(|&f| f.into()).collect();
    let result = with_executor(model, data, golden, cfg, &Ieee754Corruption, &probe, |ex| {
        ex.run_with(&faults, &mut |_| {}, &mut |_, _, _| {}, None)
    })
    .unwrap();
    probe.finish().unwrap();
    result.classes
}

struct Workload {
    model: Model,
    data: sfi_dataset::Dataset,
    golden: GoldenReference,
    faults: Vec<Fault>,
    cfg: CampaignConfig,
}

fn workload(per_bit: u64) -> Workload {
    let setup = resnet20_setup(Scale::Default);
    let golden = GoldenReference::build(&setup.model, &setup.data).unwrap();
    let space = FaultSpace::stuck_at(&setup.model);
    let faults = bit_level_faults(&space, per_bit);
    Workload {
        model: setup.model,
        data: setup.data,
        golden,
        faults,
        cfg: CampaignConfig::default(),
    }
}

fn trace_tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfi-obs-overhead-{tag}-{}.jsonl", std::process::id()))
}

/// Measured seconds for every path, plus the classification identity
/// check between the probe-free baseline and the library path.
struct Measurement {
    faults: usize,
    baseline_s: f64,
    off_s: f64,
    spans_s: f64,
    events_s: f64,
    identical: bool,
}

fn measure(per_bit: u64, iters: usize) -> Measurement {
    let w = workload(per_bit);
    let (model, data, golden, faults, cfg) = (&w.model, &w.data, &w.golden, &w.faults, &w.cfg);

    // Identity first: the instrumented executor must classify exactly as
    // the probe-free loop does (both single-threaded here).
    let mut scratch_model = model.clone();
    let mut session = SessionState::new();
    let baseline_classes =
        classify_probe_free(&mut scratch_model, data, golden, faults, &mut session);
    let library = run_campaign(model, data, golden, faults, cfg).unwrap();
    let identical = baseline_classes == library.classes;

    // Interleave the four paths within each round instead of timing each
    // one back to back: slow drift in machine load then hits every path
    // equally instead of biasing whichever ran last. min-of-rounds
    // discards the noise spikes a 2% gate cannot tolerate.
    let spans_path = trace_tmp("spans");
    let events_path = trace_tmp("events");
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let mut baseline_s = f64::INFINITY;
    let mut off_s = f64::INFINITY;
    let mut spans_s = f64::INFINITY;
    let mut events_s = f64::INFINITY;
    for round in 0..=iters {
        let b = time(&mut || {
            let mut m = model.clone();
            classify_probe_free(&mut m, data, golden, faults, &mut SessionState::new());
        });
        let o = time(&mut || {
            run_campaign(model, data, golden, faults, cfg).unwrap();
        });
        let s = time(&mut || {
            run_traced(model, data, golden, faults, cfg, TraceLevel::Spans, Some(&spans_path));
        });
        let e = time(&mut || {
            run_traced(model, data, golden, faults, cfg, TraceLevel::Events, Some(&events_path));
        });
        if round == 0 {
            continue; // warm-up round
        }
        baseline_s = baseline_s.min(b);
        off_s = off_s.min(o);
        spans_s = spans_s.min(s);
        events_s = events_s.min(e);
    }
    std::fs::remove_file(&spans_path).ok();
    std::fs::remove_file(&events_path).ok();
    Measurement { faults: faults.len(), baseline_s, off_s, spans_s, events_s, identical }
}

fn bench_obs(c: &mut Criterion) {
    let w = workload(1);
    let (model, data, golden, faults, cfg) = (&w.model, &w.data, &w.golden, &w.faults, &w.cfg);
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("probe_free_baseline", |b| {
        b.iter(|| {
            let mut m = model.clone();
            classify_probe_free(&mut m, data, golden, faults, &mut SessionState::new())
        })
    });
    g.bench_function("tracing_off", |b| {
        b.iter(|| run_campaign(model, data, golden, faults, cfg).unwrap())
    });
    g.finish();
}

/// Writes `BENCH_obs.json` at the workspace root: the probe-free vs
/// tracing-off vs spans vs events comparison on the network-wide
/// bit-level plan.
fn emit_bench_json() {
    const ITERS: usize = 12;
    let m = measure(2, ITERS);
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"host\": {},\n  \"workload\": \"ResNet-20 \
         (reduced scale), \
         network-wide bit-level plan, {} faults\",\n  \"iters_per_point\": {ITERS},\n  \
         \"timing\": \"min over iters\",\n  \"probe_free_baseline_s\": {:.6},\n  \
         \"tracing_off_s\": {:.6},\n  \"spans_s\": {:.6},\n  \"events_s\": {:.6},\n  \
         \"tracing_off_overhead\": {:.4},\n  \"spans_overhead\": {:.4},\n  \
         \"events_overhead\": {:.4},\n  \"classes_identical\": {},\n  \
         \"meets_2pct_gate\": {}\n}}\n",
        host_fingerprint(),
        m.faults,
        m.baseline_s,
        m.off_s,
        m.spans_s,
        m.events_s,
        m.off_s / m.baseline_s - 1.0,
        m.spans_s / m.baseline_s - 1.0,
        m.events_s / m.baseline_s - 1.0,
        m.identical,
        m.off_s <= m.baseline_s * 1.02
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, &json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}

/// CI gate: the tracing-disabled library path must stay within 2% of the
/// probe-free baseline on the network-wide bit-level plan, and every path
/// must classify identically.
fn smoke() -> i32 {
    const ITERS: usize = 5;
    let m = measure(1, ITERS);
    println!(
        "smoke obs_overhead ({} faults): baseline {:.1}ms, off {:.1}ms ({:+.2}%), \
         spans {:.1}ms, events {:.1}ms",
        m.faults,
        m.baseline_s * 1e3,
        m.off_s * 1e3,
        (m.off_s / m.baseline_s - 1.0) * 100.0,
        m.spans_s * 1e3,
        m.events_s * 1e3,
    );
    if !m.identical {
        eprintln!("FAIL: instrumented executor classified differently from the probe-free loop");
        return 1;
    }
    if m.off_s > m.baseline_s * 1.02 {
        eprintln!(
            "FAIL: tracing-disabled instrumentation costs more than 2%: \
             {:.6}s vs {:.6}s baseline ({:+.2}%)",
            m.off_s,
            m.baseline_s,
            (m.off_s / m.baseline_s - 1.0) * 100.0
        );
        return 1;
    }
    0
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let mut c = Criterion::default();
    bench_obs(&mut c);
    if std::env::args().any(|a| a == "--bench") {
        emit_bench_json();
    }
}
