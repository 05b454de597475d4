//! The paper's motivating analysis, delivered: the layer × bit criticality
//! map and the "most critical bit" ranking, from a data-unaware SFI
//! campaign on the 20-layer ResNet topology.
//!
//! Run with: `cargo run --release -p sfi-bench --bin bitmap [-- --scale smoke|full]`

use sfi_bench::{resnet20_setup, Scale};
use sfi_core::bits::{bit_ranking, layer_bit_matrix};
use sfi_core::checkpoint::CampaignRun;
use sfi_core::execute::Campaign;
use sfi_core::plan::plan_data_unaware;
use sfi_core::report::group_digits;
use sfi_faultsim::campaign::CampaignConfig;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_stats::confidence::Confidence;

/// One character per cell: criticality decile of the estimate.
fn cell(proportion: f64) -> char {
    match (proportion * 100.0) as u32 {
        0 => '.',
        1..=4 => '+',
        5..=19 => 'x',
        20..=49 => 'X',
        _ => '#',
    }
}

fn main() {
    let setup = resnet20_setup(Scale::from_args());
    let (model, data, spec) = (&setup.model, &setup.data, &setup.spec);
    let golden = GoldenReference::build(model, data).expect("golden reference builds");
    let space = FaultSpace::stuck_at(model);
    let plan = plan_data_unaware(&space, spec);
    eprintln!(
        "data-unaware campaign: {} faults over {} strata...",
        group_digits(plan.total_sample()),
        plan.strata().len()
    );
    let outcome = Campaign::new(model, data, &golden, &plan, 17, &CampaignConfig::default())
        .run()
        .and_then(CampaignRun::into_outcome)
        .expect("campaign executes");

    println!("layer x bit criticality map ('.' 0%, '+' <5%, 'x' <20%, 'X' <50%, '#' >=50%)");
    println!();
    println!("        bit 31 (sign) ................................ bit 0 (mantissa LSB)");
    let matrix = layer_bit_matrix(&outcome, Confidence::C99);
    for (layer, row) in matrix.iter().enumerate() {
        let cells: String =
            (0..row.len()).rev().map(|bit| row[bit].map_or('?', |e| cell(e.proportion))).collect();
        println!("L{layer:<2}  {cells}");
    }

    println!("\nmost critical bit positions (pooled across layers):");
    println!("bit  critical %   ± margin   n");
    for v in bit_ranking(&outcome, Confidence::C99).iter().take(8) {
        println!(
            "{:3}  {:10.3}  {:9.3}  {}",
            v.bit,
            v.estimate.proportion * 100.0,
            v.estimate.error_margin * 100.0,
            group_digits(v.estimate.sample)
        );
    }
    println!("\nexpected shape (the paper's premise): criticality concentrates in the");
    println!("exponent MSB (bit 30) and decays by orders of magnitude below it — the");
    println!("profile a network-wise SFI is statistically unable to resolve.");
}
