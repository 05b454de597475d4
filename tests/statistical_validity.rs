//! Regression test for the paper's Table III validity criterion in
//! miniature: a seeded data-aware statistical campaign on `resnet20_micro`
//! must bracket the exhaustive critical rate of the same population within
//! its error margins.
//!
//! Kept tractable by restricting both campaigns to layer 0 (3,456 faults
//! exhaustively), which preserves the full per-bit stratification that
//! distinguishes the data-aware scheme.

use sfi_core::execute::Campaign;
use sfi_core::exhaustive::exhaustive_layer;
use sfi_core::plan::plan_data_aware;
use sfi_dataset::SynthCifarConfig;
use sfi_faultsim::campaign::{run_campaign, CampaignConfig};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::resnet::ResNetConfig;
use sfi_stats::bit_analysis::{DataAwareConfig, WeightBitAnalysis};
use sfi_stats::confidence::Confidence;
use sfi_stats::estimate::stratified_estimate;
use sfi_stats::sample_size::SampleSpec;

// Seeds are fixed: the campaign must be reproducible, and the margins are
// 99%-confidence ones, so a layer- or stratum-level miss is possible (and
// expected ~1% / ~8% of the time) for an arbitrary seed.
const MODEL_SEED: u64 = 7;
const PLAN_SEED: u64 = 3;
const LAYER: usize = 0;

/// Data-aware configuration scaled to this test's population sizes. The
/// paper's `p_floor = 0.001` is calibrated for per-stratum populations of
/// 10⁵–10⁷ faults; with 108 faults per (layer, bit) stratum it would plan
/// ~7-fault samples whose Wald margins collapse (the degenerate regime of
/// `sfi_core::validation`). A floor of 0.25 keeps every stratum's sample
/// large enough for its 99% margin to carry meaning while preserving the
/// scheme's defining property: the worst-case bit is sampled hardest.
fn scaled_data_aware() -> DataAwareConfig {
    DataAwareConfig { p_floor: 0.25, ..DataAwareConfig::paper_default() }
}

struct Fixture {
    model: sfi_nn::Model,
    data: sfi_dataset::Dataset,
    golden: GoldenReference,
    space: FaultSpace,
}

fn fixture() -> Fixture {
    let model = ResNetConfig::resnet20_micro().build_seeded(MODEL_SEED).unwrap();
    let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    Fixture { model, data, golden, space }
}

#[test]
fn data_aware_estimate_brackets_exhaustive_rate() {
    let f = fixture();
    let cfg = CampaignConfig::default();

    let (truth, _) = exhaustive_layer(&f.model, &f.data, &f.golden, &f.space, LAYER, &cfg).unwrap();
    assert_eq!(truth.sample, truth.population, "exhaustive covers the population");
    assert!(truth.successes > 0, "some layer-0 faults must be critical");

    let analysis = WeightBitAnalysis::from_weights(f.model.store().all_weights()).unwrap();
    let spec = SampleSpec { error_margin: 0.1, ..SampleSpec::paper_default() };
    let plan = plan_data_aware(&f.space, &analysis, &spec, &scaled_data_aware())
        .unwrap()
        .restricted_to_layer(LAYER, &f.space);
    assert_eq!(plan.strata().len(), 32, "one stratum per bit position");
    assert!(
        plan.total_sample() < truth.population,
        "the statistical campaign must inject fewer faults than exhaustive"
    );

    let outcome = Campaign::new(&f.model, &f.data, &f.golden, &plan, PLAN_SEED, &cfg)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    let est = outcome.layer_estimate(LAYER, Confidence::C99).expect("layer estimated");
    let rate = truth.proportion();
    assert!(
        (est.proportion - rate).abs() <= est.error_margin + 1e-12,
        "estimate {} ± {} must bracket exhaustive rate {}",
        est.proportion,
        est.error_margin,
        rate
    );
    assert!(est.error_margin <= 0.1 + 1e-9, "realised margin respects the planned bound");
}

#[test]
fn per_stratum_estimates_bracket_exhaustive_bit_rates() {
    let f = fixture();
    let cfg = CampaignConfig::default();

    let analysis = WeightBitAnalysis::from_weights(f.model.store().all_weights()).unwrap();
    let spec = SampleSpec { error_margin: 0.1, ..SampleSpec::paper_default() };
    let plan = plan_data_aware(&f.space, &analysis, &spec, &scaled_data_aware())
        .unwrap()
        .restricted_to_layer(LAYER, &f.space);
    let outcome = Campaign::new(&f.model, &f.data, &f.golden, &plan, PLAN_SEED, &cfg)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();

    let mut non_degenerate = 0usize;
    let mut misses = 0usize;
    for s in outcome.strata() {
        let bit = s.stratum.bit.expect("data-aware strata are per-bit");
        // Exhaustive ground truth for this bit subpopulation.
        let sub = f.space.bit_subpopulation(LAYER, bit).unwrap();
        let faults: Vec<_> = sub.iter().collect();
        let exact = run_campaign(&f.model, &f.data, &f.golden, &faults, &cfg).unwrap();
        let exact_rate = exact.critical_rate();
        // Degenerate strata (all or nothing observed) have a collapsed
        // Wald margin that asserts nothing; the paper's full-scale samples
        // never reach this regime, reduced-scale runs can.
        if s.result.successes == 0 || s.result.successes == s.result.sample {
            continue;
        }
        non_degenerate += 1;
        let est = stratified_estimate(&[s.result], Confidence::C99).unwrap();
        if (est.proportion - exact_rate).abs() > est.error_margin + 1e-12 {
            misses += 1;
        }
    }
    assert!(non_degenerate >= 4, "enough strata observe mixed outcomes: {non_degenerate}");
    // Margins are per-stratum 99% ones; demand the aggregate behaviour the
    // paper's Table III reports rather than zero misses.
    assert!(
        misses * 10 <= non_degenerate,
        "{misses} of {non_degenerate} non-degenerate strata missed their 99% margin"
    );
}

#[test]
fn validity_holds_identically_under_parallel_execution() {
    let f = fixture();
    let analysis = WeightBitAnalysis::from_weights(f.model.store().all_weights()).unwrap();
    let spec = SampleSpec { error_margin: 0.1, ..SampleSpec::paper_default() };
    let plan = plan_data_aware(&f.space, &analysis, &spec, &scaled_data_aware())
        .unwrap()
        .restricted_to_layer(LAYER, &f.space);
    let serial = Campaign::new(
        &f.model,
        &f.data,
        &f.golden,
        &plan,
        PLAN_SEED,
        &CampaignConfig { workers: 1, ..CampaignConfig::default() },
    )
    .run()
    .unwrap()
    .into_outcome()
    .unwrap();
    let parallel = Campaign::new(
        &f.model,
        &f.data,
        &f.golden,
        &plan,
        PLAN_SEED,
        &CampaignConfig { workers: 4, ..CampaignConfig::default() },
    )
    .run()
    .unwrap()
    .into_outcome()
    .unwrap();
    assert_eq!(serial.strata(), parallel.strata());
    assert_eq!(serial.inferences(), parallel.inferences());
}
