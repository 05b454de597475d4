//! Property-based tests of fault enumeration, injection, and campaigns.

use proptest::prelude::*;

use sfi_dataset::SynthCifarConfig;
use sfi_faultsim::campaign::{run_campaign, CampaignConfig};
use sfi_faultsim::fault::{Fault, FaultModel, FaultSite};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::injector::{inject, revert};
use sfi_faultsim::population::FaultSpace;
use sfi_nn::resnet::ResNetConfig;
use sfi_nn::Model;

fn tiny_model(seed: u64) -> Model {
    ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(seed)
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Subpopulation index decoding is a bijection: distinct indices give
    /// distinct faults, all within bounds.
    #[test]
    fn population_decoding_bijective(
        weights in proptest::collection::vec(1u64..30, 1..6),
    ) {
        let space = FaultSpace::from_layer_weights(weights.clone());
        let sub = space.network_subpopulation();
        let mut seen = std::collections::HashSet::new();
        for idx in 0..sub.size() {
            let f = sub.fault_at(idx).unwrap();
            prop_assert!(seen.insert(f), "duplicate fault at index {idx}");
            prop_assert!((f.site.layer) < weights.len());
            prop_assert!((f.site.weight as u64) < weights[f.site.layer]);
            prop_assert!(f.site.bit < 32);
        }
        prop_assert_eq!(seen.len() as u64, sub.size());
    }

    /// Layer and bit subpopulations partition the network population.
    #[test]
    fn subpopulations_partition(weights in proptest::collection::vec(1u64..20, 1..5)) {
        let space = FaultSpace::from_layer_weights(weights.clone());
        let total: u64 = (0..weights.len())
            .map(|l| space.layer_subpopulation(l).unwrap().size())
            .sum();
        prop_assert_eq!(total, space.total());
        for l in 0..weights.len() {
            let by_bits: u64 = (0..32)
                .map(|b| space.bit_subpopulation(l, b).unwrap().size())
                .sum();
            prop_assert_eq!(by_bits, space.layer_subpopulation(l).unwrap().size());
        }
    }

    /// Inject + revert is the identity on the parameter store, for every
    /// fault model and any site.
    #[test]
    fn inject_revert_identity(
        layer in 0usize..8,
        weight_seed in 0usize..1_000,
        bit in 0u8..32,
        model_pick in 0usize..3,
    ) {
        let mut m = tiny_model(9);
        let layers = m.weight_layers();
        let len = layers[layer].len;
        let fault = Fault {
            site: FaultSite { layer, weight: weight_seed % len, bit },
            model: [FaultModel::StuckAt0, FaultModel::StuckAt1, FaultModel::BitFlip][model_pick],
        };
        let before = m.store().clone();
        let inj = inject(&mut m, &fault).unwrap();
        revert(&mut m, &inj);
        prop_assert_eq!(m.store(), &before);
    }

    /// Applying a stuck-at twice equals applying it once (idempotence),
    /// while a double bit-flip is the identity.
    #[test]
    fn fault_model_algebra(w in -2.0f32..2.0, bit in 0u8..32) {
        for model in [FaultModel::StuckAt0, FaultModel::StuckAt1] {
            let once = model.apply(w, bit);
            prop_assert_eq!(model.apply(once, bit).to_bits(), once.to_bits());
        }
        let flip = FaultModel::BitFlip;
        prop_assert_eq!(flip.apply(flip.apply(w, bit), bit).to_bits(), w.to_bits());
    }

    /// For any pair of stuck-at polarities at the same site, exactly one is
    /// masked (the stored bit already matches one of them).
    #[test]
    fn one_polarity_is_always_masked(w in -2.0f32..2.0, bit in 0u8..32) {
        let sa0 = FaultModel::StuckAt0.is_effective(w, bit);
        let sa1 = FaultModel::StuckAt1.is_effective(w, bit);
        prop_assert!(sa0 != sa1, "exactly one stuck-at polarity can differ from the stored bit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The golden-convergence early exit is invisible in the results: for
    /// random fault plans — salted with exponent-MSB stuck-at-1 faults
    /// that drive activations to NaN/Inf — classifications and inference
    /// counts match the no-exit run at every worker count.
    #[test]
    fn convergence_exit_is_invisible_in_results(
        picks in proptest::collection::vec((0usize..8, 0usize..1_000, 0u8..32, 0usize..3), 1..10),
        seed in 0u64..5,
    ) {
        let model = tiny_model(seed);
        let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let layers = model.weight_layers();
        let mut faults: Vec<Fault> = picks
            .iter()
            .map(|&(layer, weight_seed, bit, model_pick)| Fault {
                site: FaultSite { layer, weight: weight_seed % layers[layer].len, bit },
                model: [FaultModel::StuckAt0, FaultModel::StuckAt1, FaultModel::BitFlip]
                    [model_pick],
            })
            .collect();
        // Guarantee non-finite activations in every plan: stuck-at-1 on the
        // exponent MSB multiplies a small weight by ~2^128 and overflows.
        faults.push(Fault {
            site: FaultSite { layer: 0, weight: 0, bit: 30 },
            model: FaultModel::StuckAt1,
        });
        faults.push(Fault {
            site: FaultSite { layer: layers.len() - 1, weight: 1, bit: 30 },
            model: FaultModel::StuckAt1,
        });
        for workers in [1usize, 4, 8] {
            let plain_cfg = CampaignConfig { workers, convergence: false, ..Default::default() };
            let exit_cfg = CampaignConfig { workers, convergence: true, ..Default::default() };
            let plain = run_campaign(&model, &data, &golden, &faults, &plain_cfg).unwrap();
            let exit = run_campaign(&model, &data, &golden, &faults, &exit_cfg).unwrap();
            prop_assert_eq!(&plain.classes, &exit.classes, "workers = {}", workers);
            prop_assert_eq!(plain.inferences, exit.inferences, "workers = {}", workers);
        }
    }
}

/// Campaign determinism across worker counts, on a random fault subset.
#[test]
fn campaign_worker_count_invariance() {
    let model = tiny_model(2);
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let sub = space.network_subpopulation();
    let faults: Vec<Fault> =
        (0..sub.size()).step_by(997).map(|i| sub.fault_at(i).unwrap()).collect();
    let mut reference = None;
    for workers in [1usize, 2, 3, 8] {
        let cfg = CampaignConfig { workers, ..Default::default() };
        let res = run_campaign(&model, &data, &golden, &faults, &cfg).unwrap();
        match &reference {
            None => reference = Some(res.classes),
            Some(r) => assert_eq!(r, &res.classes, "workers = {workers}"),
        }
    }
}
