//! Extension experiment: the detailed Masked / Benign / SDC / DUE
//! breakdown per layer (the paper's Critical class is SDC plus the DUEs
//! whose top-1 changed), from an exhaustive campaign over a reduced
//! ResNet.
//!
//! Run with: `cargo run --release -p sfi-bench --bin taxonomy [-- --scale smoke|full]`

use sfi_bench::{resnet_setup, Scale};
use sfi_core::report::{group_digits, percent, TextTable};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_faultsim::taxonomy::run_campaign_detailed;

fn main() {
    let setup = resnet_setup(Scale::from_args());
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).expect("golden reference builds");
    let space = FaultSpace::stuck_at(model);

    println!(
        "detailed fault taxonomy, exhaustive per layer ({} faults total)\n",
        group_digits(space.total())
    );
    let mut table = TextTable::new(vec![
        "layer".into(),
        "faults".into(),
        "masked %".into(),
        "benign %".into(),
        "SDC %".into(),
        "DUE %".into(),
        "critical %".into(),
    ]);
    let (mut totals, mut critical) = ((0u64, 0u64, 0u64, 0u64), 0u64);
    for layer in 0..space.layers() {
        let sub = space.layer_subpopulation(layer).expect("layer in range");
        let faults: Vec<_> = sub.iter().collect();
        eprintln!("layer {layer}: {} faults...", group_digits(sub.size()));
        let res =
            run_campaign_detailed(model, data, &golden, &faults, true).expect("campaign executes");
        let (masked, benign, sdc, due) = res.tally();
        totals.0 += masked;
        totals.1 += benign;
        totals.2 += sdc;
        totals.3 += due;
        critical += res.critical();
        let n = faults.len() as f64;
        table.add_row(vec![
            format!("L{layer}"),
            group_digits(sub.size()),
            percent(masked as f64 / n, 2),
            percent(benign as f64 / n, 2),
            percent(sdc as f64 / n, 3),
            percent(due as f64 / n, 3),
            percent(res.critical() as f64 / n, 3),
        ]);
    }
    let n = (totals.0 + totals.1 + totals.2 + totals.3) as f64;
    table.add_row(vec![
        "Total".into(),
        group_digits(n as u64),
        percent(totals.0 as f64 / n, 2),
        percent(totals.1 as f64 / n, 2),
        percent(totals.2 as f64 / n, 3),
        percent(totals.3 as f64 / n, 3),
        percent(critical as f64 / n, 3),
    ]);
    println!("{}", table.render());
    println!("reading: exactly half of all stuck-at faults are masked (one polarity");
    println!("always matches the stored bit); DUE concentrates where exponent-MSB");
    println!("faults overflow activations to Inf/NaN; SDC is the silent remainder.");
}
