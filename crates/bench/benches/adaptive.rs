//! `ablation_adaptive`: fixed Eq.-1 campaigns vs adaptive Wilson-stopping
//! campaigns at the same target margin — the cost side of the sequential
//! sampling extension.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use sfi_bench::{resnet20_setup, Scale};
use sfi_core::adaptive::{run_adaptive, AdaptiveConfig};
use sfi_core::execute::Campaign;
use sfi_core::plan::plan_layer_wise;
use sfi_faultsim::campaign::CampaignConfig;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_stats::sample_size::SampleSpec;

fn bench_adaptive_vs_fixed(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Smoke);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let target = 0.05;
    let cfg = CampaignConfig::default();

    let mut g = c.benchmark_group("ablation_adaptive");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    let spec = SampleSpec { error_margin: target, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec).restricted_to_layer(13, &space);
    g.bench_function("fixed_eq1_layer13", |b| {
        b.iter(|| {
            Campaign::new(model, data, &golden, &plan, 5, &cfg)
                .run()
                .unwrap()
                .into_outcome()
                .unwrap()
        })
    });
    let subpop = space.layer_subpopulation(13).unwrap();
    g.bench_function("adaptive_wilson_layer13", |b| {
        b.iter(|| {
            run_adaptive(model, data, &golden, &subpop, &AdaptiveConfig::new(target), 5, &cfg)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_adaptive_vs_fixed);
criterion_main!(benches);
