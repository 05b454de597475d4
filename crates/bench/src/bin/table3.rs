//! Regenerates **paper Table III**: the four SFI schemes compared against
//! exhaustive ground truth — injected faults, injected %, and average
//! per-layer error margin.
//!
//! The paper runs this on full-size networks (37–54 GPU-days of exhaustive
//! injection); here the same experiment runs on reduced-scale topologies
//! whose fault space is exhaustively enumerable in minutes, which preserves
//! every claim the table makes (see DESIGN.md §2). The planned error margin
//! scales with the preset (`--scale smoke|default|full`).
//!
//! Run with: `cargo run --release -p sfi-bench --bin table3 [-- --scale full]`

use sfi_bench::{mobilenet_setup, resnet_setup, Scale, Setup};
use sfi_core::checkpoint::CampaignRun;
use sfi_core::execute::Campaign;
use sfi_core::exhaustive::ExhaustiveTruth;
use sfi_core::plan::{
    plan_data_aware, plan_data_unaware, plan_layer_wise, plan_network_wise, SfiPlan,
};
use sfi_core::report::{group_digits, percent, TextTable};
use sfi_core::validation::validate_against_exhaustive;
use sfi_faultsim::campaign::CampaignConfig;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_stats::bit_analysis::{DataAwareConfig, WeightBitAnalysis};
use sfi_stats::confidence::Confidence;

fn run(name: &str, setup: &Setup) {
    let Setup { model, data, spec } = setup;
    let golden = GoldenReference::build(model, data).expect("golden reference builds");
    let space = FaultSpace::stuck_at(model);
    let cfg = CampaignConfig::default();

    eprintln!("[{name}] exhaustive campaign over {} faults...", group_digits(space.total()));
    let truth = ExhaustiveTruth::build(model, data, &golden, &cfg).expect("exhaustive runs");

    let analysis =
        WeightBitAnalysis::from_weights(model.store().all_weights()).expect("model has weights");
    let plans: Vec<SfiPlan> = vec![
        plan_network_wise(&space, spec),
        plan_layer_wise(&space, spec),
        plan_data_unaware(&space, spec),
        plan_data_aware(&space, &analysis, spec, &DataAwareConfig::paper_default())
            .expect("valid data-aware config"),
    ];

    println!(
        "\nTable III — {name} (planned e = {:.1}%, acceptable margin < {:.1}%)",
        spec.error_margin * 100.0,
        spec.error_margin * 100.0
    );
    let mut table = TextTable::new(vec![
        "Scheme".into(),
        "FIs (n)".into(),
        "Injected %".into(),
        "Avg margin %".into(),
        "Coverage".into(),
    ]);
    table.add_row(vec![
        "Exhaustive FI".into(),
        group_digits(truth.injections()),
        "100.00".into(),
        "-".into(),
        "-".into(),
    ]);
    for plan in plans {
        eprintln!("[{name}] executing {} ({} faults)...", plan.scheme(), plan.total_sample());
        let outcome = Campaign::new(model, data, &golden, &plan, 11, &cfg)
            .run()
            .and_then(CampaignRun::into_outcome)
            .expect("campaign executes");
        let v = validate_against_exhaustive(&outcome, &truth, Confidence::C99);
        table.add_row(vec![
            plan.scheme().to_string(),
            group_digits(v.injections),
            format!("{:.2}", v.injected_percent),
            format!("{:.3}", v.avg_error_margin * 100.0),
            v.coverage_non_degenerate().map(|c| percent(c, 0)).unwrap_or_else(|| "n/a".into()),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    let scale = Scale::from_args();
    run("ResNet (reduced)", &resnet_setup(scale));
    run("MobileNetV2 (reduced)", &mobilenet_setup(scale));
    println!("paper (full size): ResNet-20 margins 1.57 / 0.19 / 0.06 / 0.08 %,");
    println!("                   MobileNetV2 margins 3.28 / 0.01 / 0.01 / 0.008 %");
}
