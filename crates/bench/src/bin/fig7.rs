//! Regenerates **paper Fig. 7**: MobileNetV2 per-layer criticality —
//! network-wise vs data-aware SFI against exhaustive ground truth, showing
//! that only the data-aware scheme depicts the per-layer profile correctly.
//!
//! Run with: `cargo run --release -p sfi-bench --bin fig7 [-- --scale smoke|full]`

use sfi_bench::{mobilenet_setup, Scale};
use sfi_core::checkpoint::CampaignRun;
use sfi_core::execute::Campaign;
use sfi_core::exhaustive::ExhaustiveTruth;
use sfi_core::plan::{plan_data_aware, plan_network_wise};
use sfi_core::report::{group_digits, TextTable};
use sfi_faultsim::campaign::CampaignConfig;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_stats::bit_analysis::{DataAwareConfig, WeightBitAnalysis};
use sfi_stats::confidence::Confidence;

fn main() {
    let setup = mobilenet_setup(Scale::from_args());
    let (model, data, spec) = (&setup.model, &setup.data, &setup.spec);
    let golden = GoldenReference::build(model, data).expect("golden reference builds");
    let space = FaultSpace::stuck_at(model);
    let cfg = CampaignConfig::default();

    eprintln!(
        "exhaustive campaign over {} faults ({} layers)...",
        group_digits(space.total()),
        space.layers()
    );
    let truth = ExhaustiveTruth::build(model, data, &golden, &cfg).expect("exhaustive runs");

    let nw_plan = plan_network_wise(&space, spec);
    let analysis =
        WeightBitAnalysis::from_weights(model.store().all_weights()).expect("model has weights");
    let da_plan = plan_data_aware(&space, &analysis, spec, &DataAwareConfig::paper_default())
        .expect("valid data-aware config");
    eprintln!("network-wise: {} faults...", group_digits(nw_plan.total_sample()));
    let nw = Campaign::new(model, data, &golden, &nw_plan, 9, &cfg)
        .run()
        .and_then(CampaignRun::into_outcome)
        .expect("network-wise runs");
    eprintln!("data-aware:   {} faults...", group_digits(da_plan.total_sample()));
    let da = Campaign::new(model, data, &golden, &da_plan, 9, &cfg)
        .run()
        .and_then(CampaignRun::into_outcome)
        .expect("data-aware runs");

    println!("\nFig. 7 — MobileNetV2 per-layer criticality");
    let mut table = TextTable::new(vec![
        "Layer".into(),
        "Exhaustive %".into(),
        "NW %".into(),
        "NW ±".into(),
        "DA %".into(),
        "DA ±".into(),
        "DA inside?".into(),
    ]);
    let mut da_hits = 0usize;
    let mut nw_hits = 0usize;
    let mut compared = 0usize;
    for l in 0..space.layers() {
        let t = truth.layer_rate(l).expect("truth covers every layer");
        let da_est = da.layer_estimate(l, Confidence::C99).expect("layer stratified");
        let nw_est = nw.layer_estimate(l, Confidence::C99);
        let da_inside = (da_est.proportion - t).abs() <= da_est.error_margin + 1e-12;
        compared += 1;
        da_hits += usize::from(da_inside);
        let (nw_p, nw_m) = match nw_est {
            Some(e) => {
                let inside = (e.proportion - t).abs() <= e.error_margin + 1e-12;
                nw_hits += usize::from(inside);
                (format!("{:.2}", e.proportion * 100.0), format!("{:.2}", e.error_margin * 100.0))
            }
            None => ("-".into(), "-".into()),
        };
        table.add_row(vec![
            format!("L{l}"),
            format!("{:.3}", t * 100.0),
            nw_p,
            nw_m,
            format!("{:.3}", da_est.proportion * 100.0),
            format!("{:.3}", da_est.error_margin * 100.0),
            if da_inside { "yes".into() } else { "NO".into() },
        ]);
    }
    println!("{}", table.render());
    println!("data-aware brackets the exhaustive rate on {da_hits}/{compared} layers;");
    println!("the network-wise per-layer readings manage it on {nw_hits} (and are often");
    println!("absent or degenerate) — the paper's argument for stratifying by layer+bit.");
}
