//! `ablation_incremental`: incremental re-execution (cached activations up
//! to the faulted layer) vs full re-inference per fault — the campaign
//! runner's central optimisation (DESIGN.md §5). Also measures raw forward
//! latency per network as the baseline unit of campaign cost.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sfi_bench::{resnet20_setup, Scale};
use sfi_faultsim::campaign::{run_campaign, CampaignConfig};
use sfi_faultsim::fault::{Fault, FaultModel, FaultSite};
use sfi_faultsim::golden::GoldenReference;
use sfi_nn::ForwardOptions;

fn bench_incremental(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Smoke);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    // 64 bit-flip faults spread across shallow, middle, deep layers.
    let faults: Vec<Fault> = (0..64)
        .map(|i| Fault {
            site: FaultSite {
                layer: [0usize, 7, 13, 19][i % 4],
                weight: i % 36,
                bit: (i % 31) as u8,
            },
            model: FaultModel::BitFlip,
        })
        .collect();
    let mut g = c.benchmark_group("ablation_incremental");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for incremental in [true, false] {
        let cfg = CampaignConfig { incremental, early_exit: false, ..Default::default() };
        let label = if incremental { "incremental" } else { "full_reexec" };
        g.bench_with_input(BenchmarkId::new(label, "64_faults"), &cfg, |b, cfg| {
            b.iter(|| run_campaign(model, data, &golden, &faults, cfg).unwrap())
        });
    }
    g.finish();
}

fn bench_forward(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Smoke);
    let image = setup.data.image(0);
    let mut g = c.benchmark_group("forward_latency");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    g.bench_function("resnet20_micro_8x8", |b| {
        b.iter(|| setup.model.forward(std::hint::black_box(image)).unwrap())
    });
    let cache = setup.model.forward_cached(image).unwrap();
    // Re-running from the deepest weight layer touches only the head.
    let deep_node = setup.model.node_of_param(setup.model.weight_layers()[19].param).unwrap();
    g.bench_function("resnet20_micro_8x8_from_fc", |b| {
        b.iter(|| {
            let opts = &mut ForwardOptions::default();
            setup.model.forward_suffix(Some(deep_node), &cache, &[], opts).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_incremental, bench_forward);
criterion_main!(benches);
