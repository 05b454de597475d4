//! `earlyexit`: measures the golden-convergence early exit end-to-end.
//!
//! The workload is the ResNet-20 bit-level plan over all 32 bit strata
//! (every layer sampled per bit). The baseline is the PR-3 fast path
//! (blocked GEMM, lowering panels, scratch arenas) with convergence
//! checking disabled; the contender is the same path with the early exit
//! on. The two must produce byte-identical classifications *and* inference
//! counts — the exit only skips work that is provably unobservable.
//!
//! Under `cargo bench -- --bench` the comparison (plus per-bit exit rates)
//! is written to `BENCH_earlyexit.json` at the workspace root. With
//! `--smoke` the binary runs a seconds-scale regression guard instead and
//! exits non-zero if classifications differ or the early-exit path is
//! slower than the baseline (used by CI).

use std::time::{Duration, Instant};

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sfi_bench::{host_fingerprint, resnet20_setup, Scale};
use sfi_faultsim::campaign::{run_campaign, CampaignConfig, CampaignResult};
use sfi_faultsim::fault::Fault;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_stats::sampling::sample_without_replacement;

/// Faults for one bit position, sampled across every layer of the network
/// (the kernels bench samples per layer; here the stratum of interest is
/// the bit, since convergence behaviour is driven by fault magnitude).
fn bit_stratum(space: &FaultSpace, bit: u8, per_layer: u64) -> Vec<Fault> {
    let mut faults = Vec::new();
    for layer in 0..space.layers() {
        let sub = space.bit_subpopulation(layer, bit).unwrap();
        let mut rng = StdRng::seed_from_u64(1700 + bit as u64 * 64 + layer as u64);
        let n = per_layer.min(sub.size());
        let indices = sample_without_replacement(sub.size(), n, &mut rng).unwrap();
        faults.extend(sub.faults_at(&indices).unwrap());
    }
    faults
}

/// The PR-3 fast path without the convergence check.
fn baseline_cfg() -> CampaignConfig {
    CampaignConfig { convergence: false, ..CampaignConfig::default() }
}

/// Mean wall times of the `base`/`fast` contenders, interleaved (one
/// warm-up each first). Alternating the contenders inside every iteration
/// spreads slow drift — thermal throttling, frequency scaling — evenly
/// over both means; measuring them in separate back-to-back blocks was
/// observed to bias the comparison by more than the effect under test.
fn mean_secs_pair<F: FnMut(), G: FnMut()>(mut base: F, mut fast: G, iters: usize) -> (f64, f64) {
    base();
    fast();
    let (mut tb, mut tf) = (0.0, 0.0);
    for _ in 0..iters {
        let start = Instant::now();
        base();
        tb += start.elapsed().as_secs_f64();
        let start = Instant::now();
        fast();
        tf += start.elapsed().as_secs_f64();
    }
    (tb / iters as f64, tf / iters as f64)
}

/// Per-bit convergence telemetry extracted from one campaign result.
struct BitLine {
    bit: u8,
    injections: u64,
    effective: u64,
    converged: u64,
    exit_rate: f64,
}

fn bit_line(bit: u8, result: &CampaignResult) -> BitLine {
    let effective = result.injections - result.masked();
    let exit_rate = if effective == 0 { 0.0 } else { result.converged as f64 / effective as f64 };
    BitLine {
        bit,
        injections: result.injections,
        effective,
        converged: result.converged,
        exit_rate,
    }
}

fn bench_earlyexit(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Default);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults: Vec<Fault> = (0..32).rev().flat_map(|bit| bit_stratum(&space, bit, 1)).collect();

    let base = run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap();
    assert_eq!(base.classes, fast.classes, "early exit changed classifications");
    assert_eq!(base.inferences, fast.inferences, "early exit changed inference counts");

    let mut g = c.benchmark_group("earlyexit_campaign");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("no_early_exit", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap())
    });
    g.bench_function("early_exit", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap())
    });
    g.finish();
}

/// One formatted `by_scale` JSON line.
fn scale_json(name: &str, faults: usize, converged: u64, base_s: f64, fast_s: f64) -> String {
    format!(
        "    {{\"scale\": \"{name}\", \"faults\": {faults}, \"converged_images\": {converged}, \
         \"no_early_exit_mean_s\": {base_s:.6}, \"early_exit_mean_s\": {fast_s:.6}, \
         \"speedup\": {:.3}}}",
        base_s / fast_s,
    )
}

/// One exit-off/exit-on wall-time pair over the bit-level plan at `scale`
/// (`per_layer` faults per bit stratum and layer).
fn scale_line(scale: Scale, name: &str, per_layer: u64, iters: usize) -> String {
    let setup = resnet20_setup(scale);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults: Vec<Fault> =
        (0..32).rev().flat_map(|bit| bit_stratum(&space, bit, per_layer)).collect();
    let fast = run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap();
    let (base_s, fast_s) = mean_secs_pair(
        || {
            run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
        },
        || {
            run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap();
        },
        iters,
    );
    scale_json(name, faults.len(), fast.converged, base_s, fast_s)
}

/// Full-scale comparison written to `BENCH_earlyexit.json`: end-to-end
/// wall time with the exit off vs on over the whole bit-level plan, plus
/// per-bit-stratum exit rates (share of effective faults with at least one
/// converged image) and a per-scale speedup sweep — bitwise convergence
/// probability decays with tensor size, so the win is scale-dependent.
fn emit_bench_json() {
    const ITERS: usize = 3;
    const PER_LAYER: u64 = 2;

    let setup = resnet20_setup(Scale::Full);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let strata: Vec<(u8, Vec<Fault>)> =
        (0..32).rev().map(|bit| (bit, bit_stratum(&space, bit, PER_LAYER))).collect();
    let faults: Vec<Fault> = strata.iter().flat_map(|(_, fs)| fs.clone()).collect();

    let base = run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap();
    let identical = base.classes == fast.classes && base.inferences == fast.inferences;

    let (base_s, fast_s) = mean_secs_pair(
        || {
            run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
        },
        || {
            run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap();
        },
        ITERS,
    );
    let speedup = base_s / fast_s;

    let mut lines = Vec::new();
    for (bit, fs) in &strata {
        let r = run_campaign(model, data, &golden, fs, &CampaignConfig::default()).unwrap();
        lines.push(bit_line(*bit, &r));
    }
    lines.sort_by_key(|l| l.bit);
    let low_bits_meet_70pct = lines.iter().filter(|l| l.bit < 16).all(|l| l.exit_rate >= 0.70);
    let per_bit = lines
        .iter()
        .map(|l| {
            format!(
                "    {{\"bit\": {}, \"injections\": {}, \"effective\": {}, \"converged\": {}, \
                 \"exit_rate\": {:.3}}}",
                l.bit, l.injections, l.effective, l.converged, l.exit_rate
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // The full-scale line reuses the campaign measurement above rather
    // than timing the same workload twice.
    let scales = [
        scale_line(Scale::Smoke, "smoke", 1, ITERS),
        scale_line(Scale::Default, "default", 1, ITERS),
        scale_json("full", faults.len(), fast.converged, base_s, fast_s),
    ]
    .join(",\n");

    let json = format!(
        "{{\n  \"bench\": \"earlyexit\",\n  \"host\": {},\n  \"workload\": \"ResNet-20 (CIFAR \
         scale), bit-level \
         plan over all 32 bit strata x {} layers, {} faults, {} eval images\",\n  \
         \"iters_per_point\": {ITERS},\n  \"campaign\": {{\n    \"no_early_exit_mean_s\": \
         {base_s:.6},\n    \"early_exit_mean_s\": {fast_s:.6},\n    \"speedup\": {speedup:.3},\n    \
         \"classes_identical\": {identical},\n    \"meets_1_5x_target\": {},\n    \
         \"low_bits_meet_70pct\": {low_bits_meet_70pct}\n  }},\n  \"by_scale\": [\n{scales}\n  ],\n  \
         \"per_bit\": [\n{per_bit}\n  ]\n}}\n",
        host_fingerprint(),
        space.layers(),
        faults.len(),
        data.len(),
        speedup >= 1.5,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_earlyexit.json");
    std::fs::write(path, &json).expect("write BENCH_earlyexit.json");
    println!("wrote {path}");
}

/// CI regression guard: the whole bit-level plan at the scale picked by
/// `--scale` (CI passes `--scale smoke` for a seconds-scale run), failing
/// the process when the early-exit path changes any classification or
/// inference count, or is slower than the no-exit baseline (10% tolerance
/// for machine noise).
fn smoke() -> i32 {
    const ITERS: usize = 3;
    let setup = resnet20_setup(Scale::from_args());
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults: Vec<Fault> = (0..32).rev().flat_map(|bit| bit_stratum(&space, bit, 1)).collect();

    let base = run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap();
    if base.classes != fast.classes || base.inferences != fast.inferences {
        eprintln!("FAIL: early exit changed campaign results");
        return 1;
    }
    let (base_s, fast_s) = mean_secs_pair(
        || {
            run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
        },
        || {
            run_campaign(model, data, &golden, &faults, &CampaignConfig::default()).unwrap();
        },
        ITERS,
    );
    println!(
        "smoke earlyexit: baseline {:.1}ms early-exit {:.1}ms (speedup {:.2}x), {} faults \
         converged {}",
        base_s * 1e3,
        fast_s * 1e3,
        base_s / fast_s,
        faults.len(),
        fast.converged,
    );
    if fast_s > base_s * 1.10 {
        eprintln!("FAIL: early-exit path slower than baseline: {fast_s:.6}s vs {base_s:.6}s");
        return 1;
    }
    0
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let mut c = Criterion::default();
    bench_earlyexit(&mut c);
    if std::env::args().any(|a| a == "--bench") {
        emit_bench_json();
    }
}
