//! Quickstart: plan, execute, and read a layer-wise statistical fault
//! injection on a reduced-width ResNet-20.
//!
//! Run with: `cargo run --release --example quickstart`

use sfi::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reduced-width ResNet-20 (same 20-layer topology as the paper's
    // case study, scaled so the demo finishes in seconds) and a seeded
    // synthetic evaluation set.
    let model = ResNetConfig::resnet20_micro().build_seeded(42)?;
    let data = SynthCifarConfig::new().with_size(16).with_samples(8).generate();
    let golden = GoldenReference::build(&model, &data)?;
    println!("model: {} ({} weights)", model.name(), model.store().total_weights());
    println!("accuracy vs synthetic labels: {}", evaluate(&model, &data)?);

    // Plan: one Eq.-1 sample per weight layer, 99% confidence. The demo
    // uses e = 5% so the whole campaign is ~10k injections; the paper's
    // setting is e = 1%.
    let space = FaultSpace::stuck_at(&model);
    let spec = SampleSpec { error_margin: 0.05, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    println!(
        "\nlayer-wise plan: {} faults out of {} ({:.2}% of the population)",
        plan.total_sample(),
        plan.total_population(),
        plan.injected_percent()
    );

    // Execute: every sampled fault is injected, inference re-runs from the
    // faulted layer (incremental re-execution), and the fault is classified
    // Critical when any image's top-1 prediction changes.
    let outcome = Campaign::new(&model, &data, &golden, &plan, 7, &CampaignConfig::default())
        .run()?
        .into_outcome()?;
    println!(
        "executed {} injections / {} inferences in {:.2?}\n",
        outcome.injections(),
        outcome.inferences(),
        outcome.elapsed()
    );

    println!("per-layer critical-fault rate (± margin, 99% confidence):");
    for l in 0..space.layers() {
        if let Some(est) = outcome.layer_estimate(l, Confidence::C99) {
            println!(
                "  layer {l:2}: {:6.2}% ± {:5.2}%  (n = {})",
                est.proportion * 100.0,
                est.error_margin * 100.0,
                est.sample
            );
        }
    }
    let net = outcome.network_estimate(Confidence::C99)?;
    println!(
        "\nnetwork: {:.2}% ± {:.2}% critical",
        net.proportion * 100.0,
        net.error_margin * 100.0
    );
    Ok(())
}
