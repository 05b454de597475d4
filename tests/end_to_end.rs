//! End-to-end integration tests spanning every crate in the workspace:
//! model construction → dataset → golden reference → planning → execution
//! → estimation → validation.

use sfi::prelude::*;

fn tiny_model() -> Model {
    ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(99)
        .expect("valid config")
}

fn tiny_data() -> Dataset {
    SynthCifarConfig::new().with_size(8).with_samples(3).generate()
}

#[test]
fn full_pipeline_layer_wise() {
    let model = tiny_model();
    let data = tiny_data();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let spec = SampleSpec { error_margin: 0.08, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    let outcome = Campaign::new(&model, &data, &golden, &plan, 3, &CampaignConfig::default())
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    assert_eq!(outcome.injections(), plan.total_sample());
    let est = outcome.network_estimate(Confidence::C99).unwrap();
    assert!((0.0..=1.0).contains(&est.proportion));
    assert!(est.error_margin <= 0.08 + 1e-9, "margin {}", est.error_margin);
}

#[test]
fn full_pipeline_data_aware_beats_data_unaware_cost() {
    let model = tiny_model();
    let space = FaultSpace::stuck_at(&model);
    let analysis = WeightBitAnalysis::from_weights(model.store().all_weights()).unwrap();
    let spec = SampleSpec { error_margin: 0.05, ..SampleSpec::paper_default() };
    let unaware = plan_data_unaware(&space, &spec);
    let aware =
        plan_data_aware(&space, &analysis, &spec, &DataAwareConfig::paper_default()).unwrap();
    assert!(aware.total_sample() < unaware.total_sample());
    // Both plans cover the same population.
    assert_eq!(aware.total_population(), unaware.total_population());
}

#[test]
fn statistical_estimate_brackets_exhaustive_on_one_layer() {
    // The paper's validity criterion, end to end, on one small layer.
    let model = tiny_model();
    let data = tiny_data();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let cfg = CampaignConfig::default();

    // Exhaustive truth for layer 4 (the 4->4 conv, 144 weights).
    let sub = space.layer_subpopulation(4).unwrap();
    let faults: Vec<Fault> = sub.iter().collect();
    let exhaustive = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
    let truth_rate = exhaustive.critical_rate();

    // Statistical estimate at e = 4%.
    let spec = SampleSpec { error_margin: 0.04, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec).restricted_to_layer(4, &space);
    let outcome = Campaign::new(&model, &data, &golden, &plan, 21, &cfg)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    let est = outcome.layer_estimate(4, Confidence::C99).unwrap();
    assert!(
        (est.proportion - truth_rate).abs() <= est.error_margin.max(0.04) + 1e-9,
        "estimate {} ± {} vs truth {}",
        est.proportion,
        est.error_margin,
        truth_rate
    );
}

#[test]
fn masked_faults_never_critical() {
    // Stuck-at faults that match the stored bit must classify as Masked
    // and never contribute to criticality.
    let model = tiny_model();
    let data = tiny_data();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let weights = model.store().layer_weights(0).unwrap().to_vec();
    let faults: Vec<Fault> = weights
        .iter()
        .enumerate()
        .take(32)
        .map(|(i, &w)| {
            let bit = 20u8;
            let model_kind = if sfi::stats::bit_analysis::bit_is_one(w, bit as u32) {
                FaultModel::StuckAt1
            } else {
                FaultModel::StuckAt0
            };
            Fault { site: FaultSite { layer: 0, weight: i, bit }, model: model_kind }
        })
        .collect();
    let res = run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
    assert_eq!(res.masked(), 32);
    assert_eq!(res.critical(), 0);
}

#[test]
fn bit_flip_campaign_differs_from_stuck_at() {
    // The same sites under the transient bit-flip model: every injection is
    // effective (flips always change the bit), so none are masked.
    let model = tiny_model();
    let data = tiny_data();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let faults: Vec<Fault> = (0..32)
        .map(|i| Fault {
            site: FaultSite { layer: 0, weight: i, bit: 24 },
            model: FaultModel::BitFlip,
        })
        .collect();
    let res = run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
    assert_eq!(res.masked(), 0);
    assert_eq!(res.injections, 32);
}

#[test]
fn mobilenet_micro_pipeline() {
    // The second case-study topology goes through the same pipeline.
    let model = MobileNetV2Config::cifar_micro().build_seeded(5).unwrap();
    let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    assert_eq!(space.layers(), 54);
    // Sample a handful of faults from the depthwise layer of block 0.
    let sub = space.layer_subpopulation(2).unwrap();
    let faults: Vec<Fault> = sub.iter().take(64).collect();
    let res = run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default()).unwrap();
    assert_eq!(res.injections, 64);
}

#[test]
fn vgg_pipeline_cross_architecture() {
    // The methodology is topology-agnostic: a plain (no-shortcut) VGG
    // flows through the same planners, campaigns, and estimators.
    let model = VggConfig { stages: vec![(1, 4), (1, 8)], classes: 10, input_size: 8 }
        .build_seeded(6)
        .unwrap();
    let data = SynthCifarConfig::new().with_size(8).with_samples(3).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    assert_eq!(space.layers(), 3, "2 convs + classifier");
    let spec = SampleSpec { error_margin: 0.08, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    let outcome = Campaign::new(&model, &data, &golden, &plan, 4, &CampaignConfig::default())
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    for l in 0..3 {
        let est = outcome.layer_estimate(l, Confidence::C99).unwrap();
        assert!((0.0..=1.0).contains(&est.proportion));
    }
}

#[test]
fn network_wise_sample_size_is_population_independent_at_scale() {
    // The paper's headline observation about Eq. 1: ResNet-20 (17.2M
    // faults) and MobileNetV2 (141M faults) need nearly the same n.
    let spec = SampleSpec::paper_default();
    let n_resnet = sample_size(17_174_144, &spec);
    let n_mobilenet = sample_size(141_029_376, &spec);
    assert_eq!(n_resnet, 16_625);
    assert_eq!(n_mobilenet, 16_639);
    assert!((n_mobilenet as i64 - n_resnet as i64).abs() < 20);
}

#[test]
fn seeds_change_samples_but_not_plans() {
    let model = tiny_model();
    let data = tiny_data();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let spec = SampleSpec { error_margin: 0.15, ..SampleSpec::paper_default() };
    let plan_a = plan_layer_wise(&space, &spec);
    let plan_b = plan_layer_wise(&space, &spec);
    assert_eq!(plan_a, plan_b, "planning is deterministic");
    let cfg = CampaignConfig::default();
    let o1 = Campaign::new(&model, &data, &golden, &plan_a, 1, &cfg)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    let o2 = Campaign::new(&model, &data, &golden, &plan_a, 2, &cfg)
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    assert_eq!(o1.injections(), o2.injections(), "same plan, same cost");
}

#[test]
fn neyman_plan_meets_the_network_margin_cheaply() {
    // The Neyman-allocated extension: one budget, optimal split, combined
    // margin within the target — at a fraction of the data-aware cost.
    let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(2)
        .unwrap();
    let data = SynthCifarConfig::new().with_size(8).with_samples(3).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let analysis = WeightBitAnalysis::from_weights(model.store().all_weights()).unwrap();
    let p = data_aware_p(&analysis, &DataAwareConfig::paper_default()).unwrap();
    let spec = SampleSpec { error_margin: 0.01, ..SampleSpec::paper_default() };
    let neyman = plan_neyman(&space, &p, &spec).unwrap();
    let aware =
        plan_data_aware(&space, &analysis, &spec, &DataAwareConfig::paper_default()).unwrap();
    assert!(neyman.total_sample() < aware.total_sample());
    let outcome = Campaign::new(&model, &data, &golden, &neyman, 8, &CampaignConfig::default())
        .run()
        .unwrap()
        .into_outcome()
        .unwrap();
    let est = outcome.network_estimate(Confidence::C99).unwrap();
    assert!(
        est.error_margin <= 0.01 + 1e-6,
        "combined margin {} must respect the 1% target",
        est.error_margin
    );
}
