//! `transient`: measures sparse delta propagation on transient
//! activation faults end-to-end.
//!
//! The workload is a network-wise sample of single-bit transient faults
//! over the full activation population of ResNet-20 (every element of
//! every post-input activation tensor, per evaluation image). The baseline
//! re-executes the dense suffix from each struck node
//! (`Model::forward_suffix`, delta off); the contender classifies the
//! same faults through `Model::forward_delta_site` (the default config).
//! Both must produce byte-identical classifications — delta propagation is
//! an exact re-encoding of the faulty inference, never an approximation.
//!
//! Transient faults are where the delta engine earns its keep: a single
//! struck activation element starts a one-element dirty cone (against the
//! channel-wide cone a weight fault opens), and faults deep in the network
//! skip the entire clean prefix. Under `cargo bench -- --bench` the
//! comparison (plus per-depth-quartile telemetry) is written to
//! `BENCH_transient.json` at the workspace root. With `--smoke` the binary
//! runs a seconds-scale regression guard instead and exits non-zero if
//! classifications differ or the delta path is slower than dense
//! re-execution (used by CI).

use std::time::{Duration, Instant};

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sfi_bench::{host_fingerprint, resnet20_setup, Scale};
use sfi_faultsim::activation::ActivationSpace;
use sfi_faultsim::campaign::{run_campaign, CampaignConfig, CampaignResult};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::multi::{CampaignFault, FaultTarget};

/// A seeded network-wise sample of `n` transient activation faults.
fn transient_sample(space: &ActivationSpace, seed: u64, n: usize) -> Vec<CampaignFault> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            CampaignFault::Activation(space.fault_at(rng.gen_range(0..space.total())).unwrap())
        })
        .collect()
}

/// Dense suffix re-execution from the struck node (no sparse propagation).
fn baseline_cfg() -> CampaignConfig {
    CampaignConfig { delta: false, ..CampaignConfig::default() }
}

/// The delta path (the default config).
fn delta_cfg() -> CampaignConfig {
    CampaignConfig::default()
}

/// Mean wall times of the `base`/`fast` contenders, interleaved (one
/// warm-up each first) so slow drift spreads evenly over both means.
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

fn bench_transient(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Default);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = ActivationSpace::build_for(model, data, FaultTarget::Activation).unwrap();
    let faults = transient_sample(&space, 2300, 512);

    let base = run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap();
    assert_eq!(base.classes, fast.classes, "delta changed transient classifications");

    let mut g = c.benchmark_group("transient_campaign");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("dense_patched", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap())
    });
    g.bench_function("delta_site", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap())
    });
    g.finish();
}

/// One formatted `by_scale` JSON line.
fn scale_json(name: &str, faults: usize, sparse_nodes: u64, base_s: f64, fast_s: f64) -> String {
    format!(
        "    {{\"scale\": \"{name}\", \"faults\": {faults}, \"sparse_nodes\": {sparse_nodes}, \
         \"dense_mean_s\": {base_s:.6}, \"delta_mean_s\": {fast_s:.6}, \"speedup\": {:.3}}}",
        base_s / fast_s,
    )
}

/// One dense/delta wall-time pair over a transient sample at `scale`.
fn scale_line(scale: Scale, name: &str, n: usize, iters: usize) -> String {
    let setup = resnet20_setup(scale);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = ActivationSpace::build_for(model, data, FaultTarget::Activation).unwrap();
    let faults = transient_sample(&space, 2300, n);
    let fast = run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap();
    let (base_s, fast_s) = mean_secs_pair(
        || {
            run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
        },
        || {
            run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap();
        },
        iters,
    );
    scale_json(name, faults.len(), fast.delta_sparse_nodes, base_s, fast_s)
}

/// Splits the sample into depth quartiles by struck node and reports the
/// delta engine's per-quartile work — deep faults skip long clean prefixes,
/// so their speedup dwarfs the shallow quartile's.
fn depth_lines(
    model: &sfi_nn::Model,
    data: &sfi_dataset::Dataset,
    golden: &GoldenReference,
    faults: &[CampaignFault],
    iters: usize,
) -> String {
    let n_nodes = model.nodes().len();
    let mut quartiles: [Vec<CampaignFault>; 4] = Default::default();
    for f in faults {
        let CampaignFault::Activation(a) = f else { continue };
        let q = (a.site.node * 4 / n_nodes).min(3);
        quartiles[q].push(f.clone());
    }
    let mut lines = Vec::new();
    for (q, fs) in quartiles.iter().enumerate() {
        if fs.is_empty() {
            continue;
        }
        let r: CampaignResult = run_campaign(model, data, golden, fs, &delta_cfg()).unwrap();
        let (base_s, fast_s) = mean_secs_pair(
            || {
                run_campaign(model, data, golden, fs, &baseline_cfg()).unwrap();
            },
            || {
                run_campaign(model, data, golden, fs, &delta_cfg()).unwrap();
            },
            iters,
        );
        lines.push(format!(
            "    {{\"depth_quartile\": {q}, \"faults\": {}, \"sparse_nodes\": {}, \
             \"fallbacks\": {}, \"dirty_blocks\": {}, \"dense_mean_s\": {base_s:.6}, \
             \"delta_mean_s\": {fast_s:.6}, \"speedup\": {:.3}}}",
            fs.len(),
            r.delta_sparse_nodes,
            r.delta_fallbacks,
            r.delta_dirty_blocks,
            base_s / fast_s,
        ));
    }
    lines.join(",\n")
}

/// Full-scale comparison written to `BENCH_transient.json`: end-to-end
/// wall time of dense suffix re-execution vs the delta engine over a
/// network-wise transient-activation sample, plus a per-scale sweep and
/// per-depth-quartile telemetry.
fn emit_bench_json() {
    const ITERS: usize = 3;
    const FAULTS: usize = 1024;

    let setup = resnet20_setup(Scale::Full);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = ActivationSpace::build_for(model, data, FaultTarget::Activation).unwrap();
    let faults = transient_sample(&space, 2300, FAULTS);

    let base = run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap();
    let identical = base.classes == fast.classes;

    let (base_s, fast_s) = mean_secs_pair(
        || {
            run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
        },
        || {
            run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap();
        },
        ITERS,
    );
    let speedup = base_s / fast_s;

    let by_depth = depth_lines(model, data, &golden, &faults, ITERS);
    let scales = [
        scale_line(Scale::Smoke, "smoke", 256, ITERS),
        scale_line(Scale::Default, "default", 512, ITERS),
        scale_json("full", faults.len(), fast.delta_sparse_nodes, base_s, fast_s),
    ]
    .join(",\n");

    let json = format!(
        "{{\n  \"bench\": \"transient\",\n  \"host\": {},\n  \"workload\": \"ResNet-20 (CIFAR \
         scale), \
         network-wise transient-activation sample, {} faults over a population of {}, {} eval \
         images\",\n  \"baseline\": \"dense suffix re-execution from the struck node (delta \
         off)\",\n  \"iters_per_point\": {ITERS},\n  \"campaign\": {{\n    \"dense_mean_s\": \
         {base_s:.6},\n    \"delta_mean_s\": {fast_s:.6},\n    \"speedup\": {speedup:.3},\n    \
         \"classes_identical\": {identical},\n    \"sparse_nodes\": {},\n    \
         \"dense_fallbacks\": {},\n    \"dirty_blocks\": {}\n  }},\n  \"by_scale\": \
         [\n{scales}\n  ],\n  \"by_depth\": [\n{by_depth}\n  ]\n}}\n",
        host_fingerprint(),
        faults.len(),
        space.total(),
        data.len(),
        fast.delta_sparse_nodes,
        fast.delta_fallbacks,
        fast.delta_dirty_blocks,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transient.json");
    std::fs::write(path, &json).expect("write BENCH_transient.json");
    println!("wrote {path}");
}

/// CI regression guard at the scale picked by `--scale` (CI passes
/// `--scale smoke`): fails the process when the delta path changes any
/// transient classification or is slower than dense re-execution.
fn smoke() -> i32 {
    const ITERS: usize = 3;
    let setup = resnet20_setup(Scale::from_args());
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = ActivationSpace::build_for(model, data, FaultTarget::Activation).unwrap();
    let faults = transient_sample(&space, 2300, 256);

    let base = run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap();
    if base.classes != fast.classes {
        eprintln!("FAIL: delta path changed transient campaign results");
        return 1;
    }
    let (base_s, fast_s) = mean_secs_pair(
        || {
            run_campaign(model, data, &golden, &faults, &baseline_cfg()).unwrap();
        },
        || {
            run_campaign(model, data, &golden, &faults, &delta_cfg()).unwrap();
        },
        ITERS,
    );
    println!(
        "smoke transient: dense {:.1}ms delta {:.1}ms (speedup {:.2}x), {} faults, sparse nodes \
         {} fallbacks {}",
        base_s * 1e3,
        fast_s * 1e3,
        base_s / fast_s,
        faults.len(),
        fast.delta_sparse_nodes,
        fast.delta_fallbacks,
    );
    // Single-element transient cones stay sparse, so delta must never lose
    // to dense re-execution (10% tolerance for machine noise).
    if fast_s > base_s * 1.1 {
        eprintln!(
            "FAIL: delta path slower than dense on transient faults: {fast_s:.6}s vs {base_s:.6}s"
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
    bench_transient(&mut c);
    if std::env::args().any(|a| a == "--bench") {
        emit_bench_json();
    }
}
