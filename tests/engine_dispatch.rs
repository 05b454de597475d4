//! Engine-dispatch coverage: every execution engine must actually fire,
//! and dispatch must be a function of the compiled plan alone.
//!
//! A cost-model dispatch once silently disabled an engine on a full-scale
//! bench — nothing asserted that an engine the configuration *enables* is
//! ever *selected*. These tests pin the dispatch outcome per
//! representative fault tier through the
//! `engine_dense`/`engine_delta`/`engine_batched` campaign counters, so a
//! cost-model constant change can never zero an engine unnoticed again.
//! Weight faults pick dense or batched by the plan's static suffix-flop
//! rule, so two independently built golden references dispatch every
//! fault alike at any worker count. A companion matrix test pins that
//! every joint combination of the `--no-batched`/`--no-delta`/
//! `--no-early-exit` CLI flags parses, falls back to a valid engine, and
//! classifies identically.

#[path = "common/fixtures.rs"]
mod fixtures;

use fixtures::{
    activation_space, campaign_world, micro_resnet, random_accumulated_faults,
    random_transient_faults,
};
use sfi::cli::parse;
use sfi::faultsim::campaign::{run_campaign, CampaignResult};
use sfi::prelude::*;
use sfi_faultsim::fault::{FaultModel, FaultSite};
use sfi_faultsim::multi::CampaignFault;
use sfi_nn::resnet::ResNetConfig;
use sfi_nn::BATCHED_MAX_SUFFIX_FLOPS;

fn cli_args(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// Bit-flip weight faults over the first weights of `layer` — never masked,
/// so every one of them must be charged to exactly one engine.
fn weight_faults(layer: usize, bit: u8, n: usize) -> Vec<Fault> {
    (0..n)
        .map(|w| Fault { site: FaultSite { layer, weight: w, bit }, model: FaultModel::BitFlip })
        .collect()
}

/// Every evaluated fault is charged to exactly one engine: the three
/// counters plus the masked and execution-failure counts sum to the
/// injection count.
fn assert_engine_accounting(res: &CampaignResult, ctx: &str) {
    assert_eq!(
        res.engine_dense
            + res.engine_delta
            + res.engine_batched
            + res.masked()
            + res.exec_failures(),
        res.injections,
        "{ctx}: engine counters must partition the injections"
    );
}

/// Representative fault tiers each select the engine that owns them at
/// least once under the default (everything-enabled) configuration:
/// weight faults on batched-owned layers take the batched eval-image
/// engine, transient activation faults take the sparse-delta engine, and
/// accumulated k=2 instances take the dense early-exit engine.
#[test]
fn every_engine_fires_on_the_tier_it_owns() {
    let model = micro_resnet(3);
    let (data, golden) = campaign_world(&model, 16, 8);
    let golden = golden.with_lowering(&model).unwrap();
    let cfg = CampaignConfig::default();

    // Weight tier: every fault on a batched-owned layer routes batched,
    // every other one dense, whatever its bit.
    let layers = model.weight_layers();
    let deep = layers.len() - 1;
    let owned = |l: usize| {
        model.node_of_param(layers[l].param).is_some_and(|n| golden.plan().batched_profitable(n))
    };
    assert!(
        (0..layers.len()).any(owned),
        "the static cost model disabled the batched engine on every layer"
    );
    let mut faults: Vec<CampaignFault> = Vec::new();
    let mut on_owned = 0u64;
    for layer in [0, deep / 2, deep] {
        for bit in [12, 30] {
            let batch = weight_faults(layer, bit, 2);
            if owned(layer) {
                on_owned += batch.len() as u64;
            }
            faults.extend(batch.into_iter().map(CampaignFault::Weight));
        }
    }
    let weights = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
    assert_engine_accounting(&weights, "weight tier");
    assert_eq!(
        weights.engine_batched, on_owned,
        "exactly the faults on batched-owned layers take the batched engine \
         (dense={} delta={} batched={})",
        weights.engine_dense, weights.engine_delta, weights.engine_batched
    );
    assert_eq!(weights.engine_delta, 0, "weight faults never take the delta engine");

    // Transient activation tier: the one-element cone is delta's home
    // ground and routes there unconditionally.
    let acts = activation_space(&model, &data);
    let transient: Vec<CampaignFault> =
        random_transient_faults(&acts, 11, 8).into_iter().map(CampaignFault::Activation).collect();
    let transients = run_campaign(&model, &data, &golden, &transient, &cfg).unwrap();
    assert_engine_accounting(&transients, "transient tier");
    assert!(
        transients.engine_delta > 0,
        "no transient fault took the delta engine (dense={} delta={} batched={})",
        transients.engine_dense,
        transients.engine_delta,
        transients.engine_batched
    );

    // Accumulated k=2 tier: multi-site instances always run the dense
    // per-image path.
    let space = FaultSpace::stuck_at(&model);
    let accumulated: Vec<CampaignFault> = random_accumulated_faults(&space, &acts, 7, 2, 4)
        .into_iter()
        .map(CampaignFault::Accumulated)
        .collect();
    let acc = run_campaign(&model, &data, &golden, &accumulated, &cfg).unwrap();
    assert_engine_accounting(&acc, "accumulated tier");
    assert!(
        acc.engine_dense > 0,
        "no accumulated instance took the dense engine (dense={} delta={} batched={})",
        acc.engine_dense,
        acc.engine_delta,
        acc.engine_batched
    );
    assert_eq!(acc.engine_batched, 0, "accumulated instances never batch");
}

/// Every joint combination of `--no-batched`, `--no-delta` and
/// `--no-early-exit` parses through the real CLI, maps to a campaign
/// configuration that falls back to a valid engine, and produces
/// classifications identical to the all-engines-off reference.
#[test]
fn cli_engine_flag_matrix_composes() {
    let model = micro_resnet(5);
    let (data, golden) = campaign_world(&model, 16, 4);
    let golden = golden.with_lowering(&model).unwrap();
    let deep = model.weight_layers().len() - 1;
    let mut faults = weight_faults(0, 30, 3);
    faults.extend(weight_faults(deep, 12, 3));
    faults.extend(weight_faults(deep / 2, 22, 3));

    let reference = run_campaign(
        &model,
        &data,
        &golden,
        &faults,
        &CampaignConfig {
            convergence: false,
            delta: false,
            batched: false,
            ..CampaignConfig::default()
        },
    )
    .unwrap();

    for no_batched in [false, true] {
        for no_delta in [false, true] {
            for no_early_exit in [false, true] {
                let mut line = String::from("run");
                if no_batched {
                    line.push_str(" --no-batched");
                }
                if no_delta {
                    line.push_str(" --no-delta");
                }
                if no_early_exit {
                    line.push_str(" --no-early-exit");
                }
                let opts = parse(&cli_args(&line))
                    .unwrap_or_else(|e| panic!("`sfi {line}` must parse: {e:?}"));
                assert_eq!(opts.batched, !no_batched, "`sfi {line}`");
                assert_eq!(opts.delta, !no_delta, "`sfi {line}`");
                assert_eq!(opts.early_exit, !no_early_exit, "`sfi {line}`");
                // The exact flag→config mapping the `run` subcommand uses.
                let cfg = CampaignConfig {
                    convergence: opts.early_exit,
                    delta: opts.delta,
                    batched: opts.batched,
                    ..CampaignConfig::default()
                };
                let res = run_campaign(&model, &data, &golden, &faults, &cfg)
                    .unwrap_or_else(|e| panic!("`sfi {line}` must fall back cleanly: {e:?}"));
                assert_eq!(res.classes, reference.classes, "`sfi {line}` changed classifications");
                assert_eq!(
                    res.inferences, reference.inferences,
                    "`sfi {line}` changed inference counts"
                );
                assert_engine_accounting(&res, &format!("`sfi {line}`"));
                if no_batched {
                    assert_eq!(res.engine_batched, 0, "`sfi {line}` still batched");
                }
                if no_delta {
                    assert_eq!(res.engine_delta, 0, "`sfi {line}` still ran delta");
                }
            }
        }
    }
}

/// The batched-vs-dense choice is the static suffix-flop rule on every
/// node, and dispatch is a function of the compiled plan: two golden
/// references built independently for one model and one evaluation set
/// route every weight fault to the same engine at workers 1, 4 and 8, with
/// identical classes and inference counts, and no weight fault ever takes
/// the delta engine. At width 8 the rule splits the network: the shallow
/// layers' suffixes exceed `BATCHED_MAX_SUFFIX_FLOPS` and run dense, the
/// deep ones run batched.
#[test]
fn weight_dispatch_is_a_function_of_the_plan() {
    let micro = micro_resnet(3);
    let (_, golden) = campaign_world(&micro, 16, 2);
    let plan = golden.plan();
    for d in 0..plan.len() {
        assert_eq!(
            plan.batched_profitable(d),
            plan.suffix_flops(d) <= BATCHED_MAX_SUFFIX_FLOPS,
            "micro_resnet node {d}"
        );
    }
    assert!(!plan.batched_profitable(plan.len()), "no suffix starts past the output");

    let model = ResNetConfig::resnet20_micro().with_width(8).build_seeded(3).unwrap();
    let data = fixtures::synth_images(16, 4);
    let build = || GoldenReference::build(&model, &data).unwrap().with_lowering(&model).unwrap();
    let goldens = [build(), build()];
    let layers = model.weight_layers();
    let mut faults = Vec::new();
    for layer in 0..layers.len() {
        for bit in [3, 22, 23, 30, 31] {
            faults.extend(weight_faults(layer, bit, 1));
        }
    }
    let mut runs = Vec::new();
    for golden in &goldens {
        for workers in [1usize, 4, 8] {
            let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
            let res = run_campaign(&model, &data, golden, &faults, &cfg).unwrap();
            assert_engine_accounting(&res, &format!("workers={workers}"));
            assert_eq!(res.engine_delta, 0, "weight faults never take the delta engine");
            runs.push(res);
        }
    }
    let first = &runs[0];
    assert!(
        first.engine_dense > 0 && first.engine_batched > 0,
        "the width-8 network must exercise both engines (dense={} batched={})",
        first.engine_dense,
        first.engine_batched
    );
    for (i, res) in runs.iter().enumerate().skip(1) {
        let ctx = format!("golden {} workers {}", i / 3, [1, 4, 8][i % 3]);
        assert_eq!(res.classes, first.classes, "{ctx}: classes");
        assert_eq!(res.inferences, first.inferences, "{ctx}: inferences");
        assert_eq!(res.engine_dense, first.engine_dense, "{ctx}: engine_dense");
        assert_eq!(res.engine_batched, first.engine_batched, "{ctx}: engine_batched");
    }
}

/// The E-wide width does not depend on the golden lowering cache. On
/// `resnet20_micro` with 8 images, a golden reference built without
/// `with_lowering` (what `sfi run --no-lowering-cache` builds) still runs
/// the faults on batched-owned layers all 8 images wide, and classifies
/// every fault exactly as the reference with the cache does: same engine
/// counts, classes and inference counts.
#[test]
fn batched_width_does_not_need_the_lowering_cache() {
    let model = micro_resnet(3);
    let (data, plain) = campaign_world(&model, 16, 8);
    assert!(!plain.has_lowering());
    let lowered = plain.clone().with_lowering(&model).unwrap();
    let mut faults = Vec::new();
    for layer in 0..model.weight_layers().len() {
        for bit in [22, 30] {
            faults.extend(weight_faults(layer, bit, 2));
        }
    }
    let cfg = CampaignConfig::default();
    let without = run_campaign(&model, &data, &plain, &faults, &cfg).unwrap();
    let with = run_campaign(&model, &data, &lowered, &faults, &cfg).unwrap();
    assert_engine_accounting(&without, "without the lowering cache");
    assert!(
        without.engine_batched > 0,
        "no fault ran E wide without the lowering cache (dense={} batched={})",
        without.engine_dense,
        without.engine_batched
    );
    assert_eq!(without.engine_batched, with.engine_batched, "engine_batched");
    assert_eq!(without.engine_dense, with.engine_dense, "engine_dense");
    assert_eq!(without.classes, with.classes, "classes");
    assert_eq!(without.inferences, with.inferences, "inferences");
}
