//! Property-based tests of model graphs and incremental re-execution.

use proptest::prelude::*;

use sfi_nn::resnet::ResNetConfig;
use sfi_nn::{ForwardOptions, Model};
use sfi_tensor::Tensor;

fn tiny_model(seed: u64) -> Model {
    ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(seed)
        .expect("valid config")
}

fn image(seed: u64) -> Tensor {
    Tensor::from_fn([1, 3, 8, 8], |i| {
        let x = (i as u64).wrapping_mul(seed.wrapping_add(1)).wrapping_mul(2654435761);
        ((x % 1000) as f32 / 500.0) - 1.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental re-execution from ANY weight layer equals a full forward
    /// pass after corrupting a weight in that layer. This is the soundness
    /// property the campaign runner relies on.
    #[test]
    fn forward_suffix_equals_forward(
        layer in 0usize..8,
        weight_pick in 0usize..10_000,
        delta in -8.0f32..8.0,
        img_seed in 0u64..50,
    ) {
        let mut m = tiny_model(4);
        let input = image(img_seed);
        let cache = m.forward_cached(&input).unwrap();
        let info = m.weight_layers()[layer].clone();
        let node = m.node_of_param(info.param).unwrap();
        let idx = weight_pick % info.len;
        m.store_mut().get_mut(info.param).unwrap().tensor.as_mut_slice()[idx] += delta;
        let incremental = m
            .forward_suffix(Some(node), &cache, &[], &mut ForwardOptions::default())
            .unwrap();
        let full = m.forward(&input).unwrap();
        prop_assert!(
            incremental.max_abs_diff(&full).unwrap() <= 1e-4,
            "layer {layer} node {node}"
        );
    }

    /// Inference is deterministic and batch-consistent: evaluating an image
    /// alone or inside a batch yields the same logits.
    #[test]
    fn batch_consistency(img_seed in 0u64..50) {
        let m = tiny_model(4);
        let single = image(img_seed);
        let other = image(img_seed + 1);
        let mut batch_data = single.as_slice().to_vec();
        batch_data.extend_from_slice(other.as_slice());
        let batch = Tensor::from_vec([2, 3, 8, 8], batch_data).unwrap();
        let single_out = m.forward(&single).unwrap();
        let batch_out = m.forward(&batch).unwrap();
        for c in 0..10 {
            let a = single_out.get([0, c]).unwrap();
            let b = batch_out.get([0, c]).unwrap();
            prop_assert!((a - b).abs() < 1e-4, "class {c}: {a} vs {b}");
        }
    }

    /// Model cloning yields an independent parameter store: mutating the
    /// clone never affects the original's outputs.
    #[test]
    fn clone_isolation(layer in 0usize..8, img_seed in 0u64..20) {
        let m = tiny_model(4);
        let input = image(img_seed);
        let golden = m.forward(&input).unwrap();
        let mut clone = m.clone();
        let info = clone.weight_layers()[layer].clone();
        for v in clone.store_mut().get_mut(info.param).unwrap().tensor.as_mut_slice() {
            *v = 99.0;
        }
        let after = m.forward(&input).unwrap();
        prop_assert_eq!(golden, after);
    }

    /// Different seeds produce different weights (no RNG aliasing), same
    /// seeds identical ones.
    #[test]
    fn seeding_behaviour(seed in 0u64..1_000) {
        let a = tiny_model(seed);
        let b = tiny_model(seed);
        prop_assert_eq!(a.store(), b.store());
        let c = tiny_model(seed + 1);
        prop_assert!(a.store() != c.store());
    }
}

/// Width scaling preserves the 20-layer structure across a range of widths.
#[test]
fn resnet20_structure_stable_across_widths() {
    for width in [2usize, 4, 8, 16] {
        let m = ResNetConfig::resnet20().with_width(width).build().unwrap();
        let layers = m.weight_layers();
        assert_eq!(layers.len(), 20, "width {width}");
        assert_eq!(layers[0].len, 3 * width * 9);
        assert_eq!(layers[19].len, 4 * width * 10);
        // Stage structure: 6 convs at w, then transitions.
        for (l, layer) in layers.iter().enumerate().take(7).skip(1) {
            assert_eq!(layer.len, width * width * 9, "width {width} layer {l}");
        }
    }
}
