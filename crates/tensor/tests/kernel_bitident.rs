//! Property-based bit-identity suite for the fast kernel paths.
//!
//! The blocked GEMM and the cached-lowering / arena-backed convolution
//! paths are pure reorderings of *independent* output elements: every
//! output element accumulates its `k` products in the same increasing-`ki`
//! order on every path, so results must be **bit-identical** to the naive
//! kernels — including NaN payloads and signed infinities, which the
//! fault-injection campaigns rely on for stable classifications.
//!
//! (`conv2d_direct` is deliberately absent from the im2col tests: it skips
//! out-of-bounds taps instead of multiplying explicit padding zeros, which
//! is only value-identical — not bit-identical — once NaN/Inf weights meet
//! padded borders. The im2col family is the campaign path and must agree
//! with itself exactly. Depthwise convolutions never lower and skip
//! padded taps on every path, so there `conv2d_direct` is a bitwise
//! oracle too.)

#[path = "../../../tests/common/fixtures.rs"]
mod fixtures;

use fixtures::{assert_bits_equal, cycled, fault_like_f32};
use proptest::collection::vec;
use proptest::prelude::*;

use sfi_tensor::ops::{
    batch_norm, bn_channel_scale_shift, conv2d, conv2d_batched_from_lowered,
    conv2d_channel_batched, conv2d_channel_in_place, conv2d_depthwise_fixed, conv2d_direct,
    conv2d_kernel, conv2d_path_with, conv2d_reads_in_place, conv2d_rows_with, conv2d_small_plane,
    conv2d_with, depthwise_path_with, gemm, gemm_blocked, gemm_col, gemm_micro, gemm_micro_packed,
    gemm_row, gemm_row_lanes, im2col_lower_batched, relu, relu6, BatchNormParams, Conv2dCfg,
    ConvEpilogue, ConvPath, ConvRows, FusedActivation, GemmKernel, PackedConvWeight, PackedLhs,
    Padding, COL_LANES, MICRO_MR, MICRO_NR, MICRO_NR1,
};
use sfi_tensor::{ScratchArena, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked GEMM is bit-identical to the naive triple loop for shapes
    /// on either side of the dispatch's naive/microkernel floor,
    /// accumulating on top of a nonzero C.
    #[test]
    fn blocked_gemm_is_bit_identical(
        m in 1usize..5,
        k in 1usize..160,
        n in 1usize..300,
        seed_a in vec(fault_like_f32(), 1..8),
        seed_c in -1.0f32..1.0f32,
        nan_mode in any::<bool>(),
    ) {
        // One NaN payload family per case (literal NaNs or infinities,
        // never both): tiling at `nw != n` widths shifts which columns sit
        // in the autovectorised loop's scalar tail, and a chain holding
        // two distinct payloads resolves the survivor by x86 operand
        // order there (see the bit-identity notes on `gemm`).
        let seed_a: Vec<f32> = seed_a
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_infinite()) {
                (true, _, true) => f32::NAN,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        // Cycle the drawn values through the full operands; keeps the
        // strategy small while every position can host a special value.
        let a: Vec<f32> = cycled(&seed_a, m * k, 1, 0).iter().map(|v| v * 0.5).collect();
        let b: Vec<f32> =
            cycled(&seed_a, k * n, 7, 3).iter().map(|v| v * 0.25 + 0.01).collect();
        let mut c_naive = vec![seed_c; m * n];
        let mut c_blocked = c_naive.clone();
        gemm(m, k, n, &a, &b, &mut c_naive);
        gemm_blocked(m, k, n, &a, &b, &mut c_blocked);
        assert_bits_equal(&c_naive, &c_blocked);
    }

    /// The register-tiled microkernels — the full `MR x NR` tile kernel
    /// behind the dispatched GEMM and the single-row lane kernel behind
    /// the early-exit probes — are bit-identical to the naive triple loop
    /// on shapes straddling every tile boundary (ragged `m % MR`,
    /// `n % NR`, `n % NR1` tails and the `KC`/`NC` block edges via the
    /// offset below), including empty/degenerate dims and fault-like
    /// NaN/±Inf payloads, accumulating on top of a nonzero C through a
    /// dirty reused scratch buffer.
    #[test]
    fn micro_kernels_are_bit_identical(
        m in 0usize..3 * MICRO_MR + 3,
        k_off in 0usize..40,
        n_off in 0usize..40,
        big_k in any::<bool>(),
        big_n in any::<bool>(),
        seed_a in vec(fault_like_f32(), 1..8),
        seed_c in -1.0f32..1.0f32,
        nan_mode in any::<bool>(),
    ) {
        // One NaN payload family per case, as in the blocked test above.
        let seed_a: Vec<f32> = seed_a
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_infinite()) {
                (true, _, true) => f32::NAN,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        // `big_*` pushes k past the KC=256 block depth and n past the
        // NC=256 panel width so multi-block accumulation is exercised;
        // the offsets walk the ragged remainders.
        let k = if big_k { 240 + k_off } else { k_off };
        let n = if big_n { 240 + n_off } else { n_off };
        let a: Vec<f32> = cycled(&seed_a, m * k, 1, 0).iter().map(|v| v * 0.5).collect();
        let b: Vec<f32> =
            cycled(&seed_a, k * n, 7, 3).iter().map(|v| v * 0.25 + 0.01).collect();
        let mut c_naive = vec![seed_c; m * n];
        let mut c_micro = c_naive.clone();
        gemm(m, k, n, &a, &b, &mut c_naive);
        let mut scratch = vec![f32::NAN; 11]; // dirty, undersized scratch
        gemm_micro(m, k, n, &a, &b, &mut c_micro, &mut scratch);
        assert_bits_equal(&c_naive, &c_micro);
        // Single-row kernels against the same operands' first A row.
        if m >= 1 {
            let a_row = &a[..k];
            let mut r_naive = vec![seed_c; n];
            let mut r_lanes = r_naive.clone();
            let mut r_row = r_naive.clone();
            gemm(1, k, n, a_row, &b, &mut r_naive);
            gemm_row_lanes(k, n, a_row, &b, &mut r_lanes);
            assert_bits_equal(&r_naive, &r_lanes);
            gemm_row(k, n, a_row, &b, &mut r_row);
            assert_bits_equal(&r_naive, &r_row);
        }
        // Boundary sanity on the exported tile constants: the draws above
        // must actually straddle full tiles and ragged remainders.
        prop_assert!(3 * MICRO_MR + 2 > MICRO_MR && 40 > MICRO_NR && 280 > MICRO_NR1);
    }

    /// The pre-packed GEMM (A packed once into a [`PackedLhs`], read in
    /// place by `gemm_micro_packed`) is bit-identical to the naive triple
    /// loop, accumulating on top of a nonzero C through a dirty undersized
    /// scratch, on shapes straddling the MR/NR tiles and the KC/NC blocks
    /// — `deep_k` spans three KC = 256 blocks of A — with one fault-like
    /// NaN payload family per case, as in the tests above.
    #[test]
    fn packed_gemm_is_bit_identical(
        m in 0usize..3 * MICRO_MR + 3,
        k_pick in 0u8..3,
        k_off in 0usize..40,
        n_off in 0usize..40,
        big_n in any::<bool>(),
        seed_a in vec(fault_like_f32(), 1..8),
        seed_c in -1.0f32..1.0f32,
        nan_mode in any::<bool>(),
    ) {
        let seed_a: Vec<f32> = seed_a
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_infinite()) {
                (true, _, true) => f32::NAN,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        let k = match k_pick {
            0 => k_off,
            1 => 240 + k_off,
            _ => 2 * 256 + 10 + k_off,
        };
        let n = if big_n { 240 + n_off } else { n_off };
        let a: Vec<f32> = cycled(&seed_a, m * k, 1, 0).iter().map(|v| v * 0.5).collect();
        let b: Vec<f32> =
            cycled(&seed_a, k * n, 7, 3).iter().map(|v| v * 0.25 + 0.01).collect();
        let mut c_naive = vec![seed_c; m * n];
        let mut c_packed = c_naive.clone();
        gemm(m, k, n, &a, &b, &mut c_naive);
        let packed = PackedLhs::pack(m, k, &a);
        let mut scratch = vec![f32::NAN; 11];
        gemm_micro_packed(n, &packed, &b, &mut c_packed, &mut scratch);
        assert_bits_equal(&c_naive, &c_packed);
        // Reusing the panels (and the now-sized scratch) changes nothing.
        let mut again = vec![seed_c; m * n];
        gemm_micro_packed(n, &packed, &b, &mut again, &mut scratch);
        assert_bits_equal(&c_naive, &again);
    }

    /// All im2col-family convolution paths — naive GEMM, blocked GEMM,
    /// arena-backed, and precomputed lowering of the whole batch and of its
    /// first image alone (with and without arena) — produce bit-identical
    /// outputs, with fault-like specials in both the input and the weights.
    #[test]
    fn conv_paths_are_bit_identical(
        batch in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..5,
        size in 3usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        values in vec(fault_like_f32(), 4..12),
        with_bias in any::<bool>(),
    ) {
        let input_len = batch * c_in * size * size;
        let weight_len = c_out * c_in * kernel * kernel;
        let input =
            Tensor::from_vec([batch, c_in, size, size], cycled(&values, input_len, 1, 0)).unwrap();
        let weight =
            Tensor::from_vec([c_out, c_in, kernel, kernel], cycled(&values, weight_len, 5, 1))
                .unwrap();
        let bias_t = Tensor::from_vec([c_out], cycled(&values, c_out, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        let cfg = Conv2dCfg {
            stride,
            padding: Padding::Explicit(pad),
            groups: 1,
        };

        let naive = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        let blocked = conv2d(&input, &weight, bias, cfg).unwrap();
        assert_bits_equal(naive.as_slice(), blocked.as_slice());

        let mut arena = ScratchArena::new();
        // Two rounds so the second consumes recycled (dirty) buffers.
        for _ in 0..2 {
            let with_arena = conv2d_with(&input, &weight, bias, cfg, None, None, &mut arena).unwrap();
            assert_bits_equal(naive.as_slice(), with_arena.as_slice());
        }

        let first = Tensor::from_vec(
            [1, c_in, size, size],
            input.as_slice()[..c_in * size * size].to_vec(),
        )
        .unwrap();
        for x in [&input, &first] {
            let want = &naive.as_slice()[..naive.len() / batch * x.shape().n()];
            let lowered = im2col_lower_batched(x, &weight, cfg, None).unwrap();
            let from_lowered =
                conv2d_batched_from_lowered(&lowered, &weight, bias, None, None, None).unwrap();
            assert_bits_equal(want, from_lowered.as_slice());
            let from_lowered_arena =
                conv2d_batched_from_lowered(&lowered, &weight, bias, None, None, Some(&mut arena))
                    .unwrap();
            assert_bits_equal(want, from_lowered_arena.as_slice());
        }
    }

    /// The batched (image-interleaved) convolution — plain, fused with the
    /// folded conv+bn(+ReLU/ReLU6) epilogue, and the single-channel probe
    /// row — is bit-identical to the one-image lowered path followed by the
    /// unfused `batch_norm`/`relu` chain, and the one-image path fused with
    /// the epilogue equals that chain too, with fault-like specials in both
    /// operands and through dirty arena buffers.
    #[test]
    fn batched_conv_paths_are_bit_identical(
        batch in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        size in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        values in vec(fault_like_f32(), 4..12),
        with_bias in any::<bool>(),
        act_pick in 0u8..3,
        channel_pick in 0usize..8,
        nan_mode in any::<bool>(),
    ) {
        // One NaN payload family per case, as in a real single-fault
        // campaign: either literal NaNs (propagating `f32::NAN`'s payload)
        // or infinities (whose `0 * Inf` / `Inf - Inf` collisions are
        // uniformly the `0xFFC00000` indefinite) — never both. Mixing the
        // two in one accumulation chain leaves the surviving payload to
        // x86 operand order, which the per-image (`n = spatial`) and
        // batched (`n = images * spatial`) calls of the *same* kernel can
        // resolve differently at the autovectorised loop's tail (see the
        // bit-identity notes on `gemm`).
        let values: Vec<f32> = values
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_infinite()) {
                (true, _, true) => f32::NAN,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        let input_len = batch * c_in * size * size;
        let weight_len = c_out * c_in * kernel * kernel;
        let input =
            Tensor::from_vec([batch, c_in, size, size], cycled(&values, input_len, 1, 0)).unwrap();
        let weight =
            Tensor::from_vec([c_out, c_in, kernel, kernel], cycled(&values, weight_len, 5, 1))
                .unwrap();
        // Bias and batch-norm coefficients stay finite: a NaN coefficient
        // meeting an already-NaN conv sum is a two-distinct-NaN-payload
        // collision, whose surviving payload is operand-order-dependent on
        // x86 — and the bias/affine adds compile separately per path, so
        // no shared-kernel trick (see `gemm`'s `#[inline(never)]` note)
        // can pin them. With finite coefficients every elementwise op
        // propagates the sum's payload deterministically. NaN/±Inf stay
        // fully exercised through the input and weight operands.
        let finite = |t: f32| if t.is_finite() { t } else { 0.75 };
        let fin_cycled =
            |len: usize, stride: usize, off: usize| -> Vec<f32> {
                cycled(&values, len, stride, off).into_iter().map(finite).collect()
            };
        let bias_t = Tensor::from_vec([c_out], fin_cycled(c_out, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        let cfg = Conv2dCfg {
            stride,
            padding: Padding::Explicit(pad),
            groups: 1,
        };
        let gamma = Tensor::from_vec([c_out], fin_cycled(c_out, 2, 1)).unwrap();
        let beta = Tensor::from_vec([c_out], fin_cycled(c_out, 4, 2)).unwrap();
        let mean = Tensor::from_vec([c_out], fin_cycled(c_out, 6, 0)).unwrap();
        let var =
            Tensor::from_fn([c_out], |i| (i as f32).mul_add(0.13, 0.5));
        let params = BatchNormParams {
            gamma: &gamma,
            beta: &beta,
            mean: &mean,
            var: &var,
            eps: 1e-5,
        };
        let act = match act_pick {
            0 => FusedActivation::None,
            1 => FusedActivation::Relu,
            _ => FusedActivation::Relu6,
        };

        // Per-image unfused reference: one-image lowered conv, then
        // batch_norm, then the activation — the exact legacy forward chain. (The reference
        // must stay in the im2col family: 1x1-channel draws would send
        // `conv2d_kernel` down the direct depthwise loop, which skips
        // padded taps and is only value-identical under NaN/Inf weights.)
        let in_data = input.as_slice();
        let img_len = c_in * size * size;
        let mut unfused_rows = Vec::new();
        let mut plain_rows = Vec::new();
        let mut per_image_channel = Vec::new();
        let (scale, shift) = (0..c_out).map(|c| bn_channel_scale_shift(&params, c)).unzip::<f32, f32, Vec<_>, Vec<_>>();
        let ep = ConvEpilogue { bn: Some((&scale, &shift)), act };
        let channel = channel_pick % c_out;
        for n in 0..batch {
            let img = Tensor::from_vec(
                [1, c_in, size, size],
                in_data[n * img_len..][..img_len].to_vec(),
            )
            .unwrap();
            let lowered_img = im2col_lower_batched(&img, &weight, cfg, None).unwrap();
            let plain =
                conv2d_batched_from_lowered(&lowered_img, &weight, bias, None, None, None).unwrap();
            let bn = batch_norm(&plain, &params).unwrap();
            let activated = match act {
                FusedActivation::None => bn,
                FusedActivation::Relu => relu(&bn),
                FusedActivation::Relu6 => relu6(&bn),
            };
            let fused_img =
                conv2d_batched_from_lowered(&lowered_img, &weight, bias, Some(&ep), None, None)
                    .unwrap();
            assert_bits_equal(activated.as_slice(), fused_img.as_slice());
            unfused_rows.extend_from_slice(activated.as_slice());
            plain_rows.extend_from_slice(plain.as_slice());
            per_image_channel.extend(
                conv2d_channel_batched(&lowered_img, &weight, bias, channel, None).unwrap(),
            );
        }

        let mut arena = ScratchArena::new();
        // Two rounds so the second consumes recycled (dirty) buffers; also
        // alternate the arena-less path.
        for round in 0..2 {
            let arena_opt = (round == 1).then_some(&mut arena);
            let blowered = match arena_opt {
                Some(a) => im2col_lower_batched(&input, &weight, cfg, Some(a)).unwrap(),
                None => im2col_lower_batched(&input, &weight, cfg, None).unwrap(),
            };
            let plain =
                conv2d_batched_from_lowered(&blowered, &weight, bias, None, None, None).unwrap();
            assert_bits_equal(&plain_rows, plain.as_slice());
            let fused = conv2d_batched_from_lowered(
                &blowered,
                &weight,
                bias,
                Some(&ep),
                None,
                Some(&mut arena),
            )
            .unwrap();
            assert_bits_equal(&unfused_rows, fused.as_slice());
            let probe =
                conv2d_channel_batched(&blowered, &weight, bias, channel, Some(&mut arena))
                    .unwrap();
            assert_bits_equal(&per_image_channel, &probe);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The depthwise plane kernel behind `conv2d` and `conv2d_with` is
    /// bit-identical to the scalar per-output loop (`GemmKernel::Naive`)
    /// and to `conv2d_direct`: strides 1-3, kernels 1/2/3/5, `Same` and
    /// explicit pads up to the kernel size (with taps that land nowhere),
    /// planes from 1x1 to 12x12, batches of 1-3, with and without bias, through a NaN-dirtied arena buffer smaller or larger
    /// than the output, with fault-like specials in input and weights.
    #[test]
    fn depthwise_plane_kernel_is_bit_identical(
        batch in 1usize..4,
        channels in 1usize..5,
        h in 1usize..13,
        w in 1usize..13,
        kernel_pick in 0usize..4,
        stride in 1usize..4,
        pad_pick in 0usize..7,
        values in vec(fault_like_f32(), 4..12),
        with_bias in any::<bool>(),
        dirty_oversized in any::<bool>(),
        nan_mode in any::<bool>(),
    ) {
        // One NaN payload family per case, as in the tests above, and
        // strictly so: in the literal-NaN family the overflowing
        // `3.4e38` is replaced too, since its products overflow to
        // infinities whose collisions make the other family's indefinite
        // NaN. Across two payload families only value semantics hold (see
        // the bit-identity notes on `gemm`), and the plane kernel's
        // vectorised adds may keep the other payload than the scalar loop.
        let values: Vec<f32> = values
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_finite()) {
                (true, false, false) => f32::NAN,
                (true, false, true) if v.abs() > 1.0e30 => 1.5,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        let kernel = [1, 2, 3, 5][kernel_pick];
        // `pad_pick` 0 is `Same`; otherwise an explicit pad in 0..=kernel.
        let padding = match pad_pick {
            0 => Padding::Same,
            p => Padding::Explicit((p - 1).min(kernel)),
        };
        let pad = match padding {
            Padding::Same => (kernel - 1) / 2,
            Padding::Explicit(p) => p,
        };
        // A kernel larger than the padded plane is rejected by validation
        // on every path alike; grow such planes to the smallest valid one.
        let (h, w) = (h.max(kernel.saturating_sub(2 * pad)), w.max(kernel.saturating_sub(2 * pad)));
        let cfg = Conv2dCfg { stride, padding, groups: channels };
        let input = Tensor::from_vec(
            [batch, channels, h, w],
            cycled(&values, batch * channels * h * w, 1, 0),
        )
        .unwrap();
        let weight = Tensor::from_vec(
            [channels, 1, kernel, kernel],
            cycled(&values, channels * kernel * kernel, 5, 1),
        )
        .unwrap();
        let bias_t = Tensor::from_vec([channels], cycled(&values, channels, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);

        let scalar = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        let direct = conv2d_direct(&input, &weight, bias, cfg).unwrap();
        assert_bits_equal(scalar.as_slice(), direct.as_slice());
        let rows = conv2d(&input, &weight, bias, cfg).unwrap();
        assert_bits_equal(scalar.as_slice(), rows.as_slice());

        let mut arena = ScratchArena::new();
        let out_len = scalar.len();
        let dirty_len = if dirty_oversized { 2 * out_len + 7 } else { out_len.div_ceil(2) };
        arena.recycle(vec![f32::NAN; dirty_len]);
        // Two rounds; the second also consumes the first round's output,
        // dirtied, so the plane kernel must not rely on fresh memory.
        for _ in 0..2 {
            let with_arena = conv2d_with(&input, &weight, bias, cfg, None, None, &mut arena).unwrap();
            assert_bits_equal(scalar.as_slice(), with_arena.as_slice());
            let mut spent = with_arena.into_vec();
            spent.fill(f32::NAN);
            arena.recycle(spent);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A depthwise conv with a fused epilogue — through `conv2d_with`
    /// (whichever kernel the shape rule picks), the plane kernel forced,
    /// and the fixed-size kernel forced where it can run — is bit-identical
    /// to the scalar loop followed by the unfused `batch_norm` and
    /// `relu`/`relu6`: planes on both sides of the fixed-size rule (4x4,
    /// 8x8, 16x16, odd and non-square sides), strides 1 and 2, kernels 1, 3
    /// and 5 with pads 0..=k, bias on and off, epilogues None, BN,
    /// BN+ReLU and BN+ReLU6, one NaN family per case with ±Inf and -0
    /// operands, through dirty, undersized arena buffers.
    #[test]
    fn depthwise_epilogue_is_bit_identical(
        batch in 1usize..3,
        channels in 1usize..6,
        side_pick in 0usize..7,
        square in any::<bool>(),
        kernel_pick in 0usize..4,
        stride in 1usize..3,
        pad_pick in 0usize..6,
        values in vec(fault_like_f32(), 4..12),
        neg_zero_at in 0usize..12,
        with_bias in any::<bool>(),
        ep_pick in 0u8..4,
        nan_mode in any::<bool>(),
        on_rule in any::<bool>(),
    ) {
        let mut values = one_nan_family(&values, nan_mode);
        let at = neg_zero_at % values.len();
        values[at] = -0.0;
        // Half the cases sit on the fixed-size rule's shapes (stride 1, a
        // 3x3 kernel with one pixel of padding, 4x4 or 8x8 planes), the
        // rest anywhere.
        let kernel = if on_rule { 3 } else { [3, 1, 3, 5][kernel_pick] };
        let pad = if on_rule { 1 } else { pad_pick.min(kernel) };
        let stride = if on_rule { 1 } else { stride };
        let side = [4, 8, 16, 3, 5, 7, 9][if on_rule { side_pick % 2 } else { side_pick }];
        let square = square || on_rule;
        let (h, w) = (side, if square { side } else { side + 1 });
        let (h, w) = (h.max(kernel.saturating_sub(2 * pad)), w.max(kernel.saturating_sub(2 * pad)));
        let cfg = Conv2dCfg { stride, padding: Padding::Explicit(pad), groups: channels };
        let input = Tensor::from_vec(
            [batch, channels, h, w],
            cycled(&values, batch * channels * h * w, 1, 0),
        )
        .unwrap();
        let weight = Tensor::from_vec(
            [channels, 1, kernel, kernel],
            cycled(&values, channels * kernel * kernel, 5, 1),
        )
        .unwrap();
        let bias_t = Tensor::from_vec([channels], cycled(&values, channels, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        // Finite batch-norm coefficients, as in the batched test above.
        let finite = |len: usize, stride: usize, off: usize| -> Vec<f32> {
            cycled(&values, len, stride, off)
                .into_iter()
                .map(|t| if t.is_finite() { t } else { 0.75 })
                .collect()
        };
        let gamma = Tensor::from_vec([channels], finite(channels, 2, 1)).unwrap();
        let beta = Tensor::from_vec([channels], finite(channels, 4, 2)).unwrap();
        let mean = Tensor::from_vec([channels], finite(channels, 6, 0)).unwrap();
        let var = Tensor::from_fn([channels], |i| (i as f32).mul_add(0.13, 0.5));
        let params = BatchNormParams { gamma: &gamma, beta: &beta, mean: &mean, var: &var, eps: 1e-5 };
        let (scale, shift): (Vec<f32>, Vec<f32>) =
            (0..channels).map(|c| bn_channel_scale_shift(&params, c)).unzip();

        let scalar = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        let (want, ep) = match ep_pick {
            0 => (scalar, None),
            pick => {
                let bn = batch_norm(&scalar, &params).unwrap();
                let (want, act) = match pick {
                    1 => (bn, FusedActivation::None),
                    2 => (relu(&bn), FusedActivation::Relu),
                    _ => (relu6(&bn), FusedActivation::Relu6),
                };
                (want, Some(ConvEpilogue { bn: Some((&scale, &shift)), act }))
            }
        };
        let fixed = stride == 1 && kernel == 3 && pad == 1 && square && matches!(side, 4 | 8);
        prop_assert_eq!(conv2d_depthwise_fixed(&input, &weight, cfg), fixed);

        let mut arena = ScratchArena::new();
        arena.recycle(vec![f32::NAN; want.len().div_ceil(2)]);
        arena.recycle(vec![f32::NAN; 3]);
        // Two rounds; the second consumes the first round's outputs, dirtied.
        for _ in 0..2 {
            let mut outs =
                vec![conv2d_with(&input, &weight, bias, cfg, ep.as_ref(), None, &mut arena).unwrap()];
            for forced in [false, true].into_iter().filter(|&f| fixed || !f) {
                outs.push(
                    depthwise_path_with(&input, &weight, bias, cfg, forced, ep.as_ref(), &mut arena)
                        .unwrap(),
                );
            }
            for out in outs {
                assert_bits_equal(want.as_slice(), out.as_slice());
                let mut spent = out.into_vec();
                spent.fill(f32::NAN);
                arena.recycle(spent);
            }
        }
        prop_assert_eq!(
            depthwise_path_with(&input, &weight, bias, cfg, true, None, &mut arena).is_ok(),
            fixed
        );
    }
}

/// The fixed-size depthwise rule on MobileNetV2's ten depthwise shapes at
/// CIFAR resolution `(channels, plane side, stride)`: the stride-1 4x4 and
/// 8x8 planes take the fixed-size kernel; the 16x16 and 32x32 planes and
/// every strided conv keep the plane kernel, and so do other kernel sizes,
/// pads and non-square planes.
#[test]
fn depthwise_rule_covers_the_measured_shapes() {
    let rule = |channels: usize, (h, w): (usize, usize), kernel: usize, cfg: Conv2dCfg| {
        let input = Tensor::zeros([1, channels, h, w]);
        let weight = Tensor::zeros([channels, 1, kernel, kernel]);
        conv2d_depthwise_fixed(&input, &weight, cfg.with_groups(channels))
    };
    for (channels, side, stride, fixed) in [
        (32, 32, 1, false),
        (96, 32, 1, false),
        (144, 32, 1, false),
        (144, 32, 2, false),
        (192, 16, 1, false),
        (192, 16, 2, false),
        (384, 8, 1, true),
        (576, 8, 1, true),
        (576, 8, 2, false),
        (960, 4, 1, true),
    ] {
        let picked = rule(channels, (side, side), 3, Conv2dCfg::same(stride));
        assert_eq!(picked, fixed, "{channels}@{side}x{side} s{stride}");
    }
    assert!(!rule(8, (4, 4), 1, Conv2dCfg::same(1)), "1x1 kernel");
    assert!(!rule(8, (8, 8), 5, Conv2dCfg::same(1)), "5x5 kernel");
    assert!(!rule(8, (8, 8), 3, Conv2dCfg::valid(1)), "unpadded");
    assert!(!rule(8, (8, 4), 3, Conv2dCfg::same(1)), "non-square plane");
    assert!(!rule(8, (2, 2), 3, Conv2dCfg::same(1)), "2x2 plane");
    let grouped = Conv2dCfg::same(1).with_groups(2);
    let (input, weight) = (Tensor::zeros([1, 8, 4, 4]), Tensor::zeros([8, 4, 3, 3]));
    assert!(!conv2d_depthwise_fixed(&input, &weight, grouped), "grouped, not depthwise");
}

/// Maps the fault-like values of one proptest case onto a single NaN
/// payload family: literal NaNs (`nan_mode`) or infinities, never both
/// (see the bit-identity notes on `gemm`). Strictly so, as in the
/// depthwise test above: in the literal-NaN family the overflowing
/// `3.4e38` is replaced too, since its products overflow to infinities
/// whose collisions make the other family's indefinite NaN.
fn one_nan_family(values: &[f32], nan_mode: bool) -> Vec<f32> {
    values
        .iter()
        .map(|&v| match (nan_mode, v.is_nan(), v.is_finite()) {
            (true, false, false) => f32::NAN,
            (true, false, true) if v.abs() > 1.0e30 => 1.5,
            (false, true, _) => f32::INFINITY,
            _ => v,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The matrix-vector tier behind `linear` (`gemm_col`, and the
    /// dispatched `gemm_blocked` at `n == 1`) is bit-identical to the naive
    /// `gemm(m, k, 1, ..)` on ragged `m % COL_LANES` and empty shapes,
    /// accumulating on top of a nonzero C, with one NaN family per case.
    #[test]
    fn col_gemm_is_bit_identical(
        m in 0usize..3 * COL_LANES + 3,
        k in 0usize..300,
        seed_a in vec(fault_like_f32(), 1..8),
        seed_c in -1.0f32..1.0f32,
        nan_mode in any::<bool>(),
    ) {
        let seed_a = one_nan_family(&seed_a, nan_mode);
        let a: Vec<f32> = cycled(&seed_a, m * k, 1, 0).iter().map(|v| v * 0.5).collect();
        let x: Vec<f32> = cycled(&seed_a, k, 7, 3).iter().map(|v| v * 0.25 + 0.01).collect();
        let mut c_naive = vec![seed_c; m];
        let mut c_col = c_naive.clone();
        let mut c_dispatch = c_naive.clone();
        gemm(m, k, 1, &a, &x, &mut c_naive);
        gemm_col(m, k, &a, &x, &mut c_col);
        assert_bits_equal(&c_naive, &c_col);
        gemm_blocked(m, k, 1, &a, &x, &mut c_dispatch);
        assert_bits_equal(&c_naive, &c_dispatch);
    }

    /// The in-place (indirect) convolution is bit-identical to the naive
    /// im2col kernel: ragged `c_out % MR`, kernels 1/3/5 with explicit pads
    /// 0..=kernel, output widths with and without `w_out % NR == 0` (so the
    /// rule sends cases both ways; 1x1 kernels always take im2col), `k` across several KC = 256 blocks,
    /// batches of 1-3, bias on and off, with and without golden weight
    /// panels, through NaN-dirtied undersized arena buffers, with one NaN
    /// family per case. Where the in-place kernel can run at all it is
    /// also forced (`conv2d_path_with`), and so is the im2col path, and
    /// where the rule picks it every channel of the in-place probe
    /// (`conv2d_channel_in_place`) matches the full conv's channel.
    #[test]
    fn in_place_conv_is_bit_identical(
        batch in 1usize..4,
        c_in in 2usize..24,
        c_out in 2usize..14,
        kernel_pick in 0usize..3,
        pad_pick in 0usize..6,
        w_pick in 0usize..4,
        h_in in 1usize..9,
        values in vec(fault_like_f32(), 4..12),
        with_bias in any::<bool>(),
        with_panels in any::<bool>(),
        nan_mode in any::<bool>(),
    ) {
        let values = one_nan_family(&values, nan_mode);
        let kernel = [1, 3, 5][kernel_pick];
        let pad = pad_pick.min(kernel);
        let w_out = [8, 16, 12, 9][w_pick];
        // w_out = w_in + 2 * pad - kernel + 1, and w_in >= 2 for every draw.
        let w_in = w_out + kernel - 1 - 2 * pad;
        let h_in = h_in.max(kernel.saturating_sub(2 * pad));
        let cfg = Conv2dCfg { stride: 1, padding: Padding::Explicit(pad), groups: 1 };
        let input = Tensor::from_vec(
            [batch, c_in, h_in, w_in],
            cycled(&values, batch * c_in * h_in * w_in, 1, 0),
        )
        .unwrap();
        let weight_len = c_out * c_in * kernel * kernel;
        let weight =
            Tensor::from_vec([c_out, c_in, kernel, kernel], cycled(&values, weight_len, 5, 1))
                .unwrap();
        let bias_t = Tensor::from_vec([c_out], cycled(&values, c_out, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        let panels = PackedConvWeight::pack(&weight, 1).unwrap();
        let panel = with_panels.then_some(&panels);

        let naive = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        prop_assert_eq!(naive.shape().w(), w_out);
        let blocked = conv2d(&input, &weight, bias, cfg).unwrap();
        assert_bits_equal(naive.as_slice(), blocked.as_slice());

        let mut arena = ScratchArena::new();
        arena.recycle(vec![f32::NAN; naive.len().div_ceil(3)]);
        arena.recycle(vec![f32::NAN; 5]);
        let spatial = naive.shape().h() * w_out;
        let fits = kernel > 1 && w_out.is_multiple_of(MICRO_NR);
        // Two rounds; the second consumes the first round's outputs, dirtied.
        for _ in 0..2 {
            let mut outs = vec![conv2d_with(&input, &weight, bias, cfg, None, panel, &mut arena).unwrap()];
            let forced = [ConvPath::Im2col, ConvPath::InPlace]
                .into_iter()
                .filter(|&path| fits || path == ConvPath::Im2col);
            for path in forced {
                outs.push(
                    conv2d_path_with(&input, &weight, bias, cfg, path, None, None, panel, &mut arena)
                        .unwrap(),
                );
            }
            for out in outs {
                assert_bits_equal(naive.as_slice(), out.as_slice());
                let mut spent = out.into_vec();
                spent.fill(f32::NAN);
                arena.recycle(spent);
            }
        }

        if conv2d_reads_in_place(&input, &weight, cfg) {
            prop_assert!(fits);
            for channel in 0..c_out {
                let row =
                    conv2d_channel_in_place(&input, &weight, bias, cfg, channel, Some(&mut arena))
                        .unwrap();
                for n in 0..batch {
                    let want = &naive.as_slice()[(n * c_out + channel) * spatial..][..spatial];
                    assert_bits_equal(want, &row[n * spatial..][..spatial]);
                }
                arena.recycle(row);
            }
        } else {
            prop_assert!(
                conv2d_channel_in_place(&input, &weight, bias, cfg, 0, None).is_err(),
                "the probe must refuse a conv the rule keeps on the im2col path"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A banded conv (`conv2d_rows_with`, and `conv2d_path_with` over a
    /// band with the in-place, the im2col and, where it fits, the
    /// small-plane path forced) computes the
    /// band's rows bit-identically to the naive conv followed by the
    /// unfused `batch_norm`/`relu` chain and copies every other row from
    /// the base tensor bit for bit: bands empty, of one middle row, of the
    /// first and of the last row, interior and full; strides 1 and 2,
    /// kernels 1, 3 and 5 with pads 0..=k, one to three groups (depthwise
    /// convs included, which compute every row), bias on and off, with
    /// and without golden weight panels, epilogues None, BN and BN+ReLU,
    /// one NaN family per case with ±Inf and -0 operands, through dirty
    /// arena buffers. Half the cases take shapes the in-place kernel runs.
    #[test]
    fn banded_conv_is_bit_identical(
        batch in 1usize..3,
        groups in 1usize..4,
        cpg_in in 1usize..4,
        cpg_out in 1usize..6,
        kernel_pick in 0usize..3,
        pad_pick in 0usize..6,
        stride in 1usize..3,
        w_pick in 0usize..3,
        h_in in 1usize..11,
        values in vec(fault_like_f32(), 4..12),
        neg_zero_at in 0usize..12,
        with_bias in any::<bool>(),
        with_panels in any::<bool>(),
        nan_mode in any::<bool>(),
        in_place_shape in any::<bool>(),
    ) {
        let mut values = one_nan_family(&values, nan_mode);
        let at = neg_zero_at % values.len();
        values[at] = -0.0;
        let kernel = if in_place_shape { [3, 5, 3][kernel_pick] } else { [1, 3, 5][kernel_pick] };
        let pad = pad_pick.min(kernel);
        // In-place shapes: one group of at least two input channels (a
        // one-channel conv dispatches as depthwise).
        let (stride, groups) = if in_place_shape { (1, 1) } else { (stride, groups) };
        let cpg_in = cpg_in + usize::from(in_place_shape);
        // In-place shapes: output rows of 8 or 16 lanes.
        let w_in = if in_place_shape {
            [8, 16, 8][w_pick] + kernel - 1 - 2 * pad
        } else {
            [3, 6, 9][w_pick].max(kernel.saturating_sub(2 * pad))
        };
        let h_in = h_in.max(kernel.saturating_sub(2 * pad));
        let (c_in, c_out) = (groups * cpg_in, groups * cpg_out);
        let cfg = Conv2dCfg { stride, padding: Padding::Explicit(pad), groups };
        let input = Tensor::from_vec(
            [batch, c_in, h_in, w_in],
            cycled(&values, batch * c_in * h_in * w_in, 1, 0),
        )
        .unwrap();
        let weight_len = c_out * cpg_in * kernel * kernel;
        let weight =
            Tensor::from_vec([c_out, cpg_in, kernel, kernel], cycled(&values, weight_len, 5, 1))
                .unwrap();
        let bias_t = Tensor::from_vec([c_out], cycled(&values, c_out, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        let depthwise = groups == c_in && c_out == c_in && cpg_in == 1;
        let panels = PackedConvWeight::pack(&weight, groups).unwrap();
        let panel = (with_panels && !depthwise).then_some(&panels);
        // Finite batch-norm coefficients, as in the depthwise test above.
        let finite = |len: usize, stride: usize, off: usize| -> Vec<f32> {
            cycled(&values, len, stride, off)
                .into_iter()
                .map(|t| if t.is_finite() { t } else { 0.75 })
                .collect()
        };
        let gamma = Tensor::from_vec([c_out], finite(c_out, 2, 1)).unwrap();
        let beta = Tensor::from_vec([c_out], finite(c_out, 4, 2)).unwrap();
        let mean = Tensor::from_vec([c_out], finite(c_out, 6, 0)).unwrap();
        let var = Tensor::from_fn([c_out], |i| (i as f32).mul_add(0.13, 0.5));
        let params = BatchNormParams { gamma: &gamma, beta: &beta, mean: &mean, var: &var, eps: 1e-5 };
        let (scale, shift): (Vec<f32>, Vec<f32>) =
            (0..c_out).map(|c| bn_channel_scale_shift(&params, c)).unzip();

        let naive = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        let (h_out, w_out) = (naive.shape().h(), naive.shape().w());
        let fits = !depthwise && stride == 1 && groups == 1 && kernel > 1
            && w_out.is_multiple_of(MICRO_NR);
        prop_assert!(fits || !in_place_shape);
        let fits_small = !depthwise && groups == 1 && (kernel, pad) == (3, 1) && h_in == w_in
            && [h_in, h_out].iter().all(|s| matches!(s, 4 | 8 | 16));
        let bn = batch_norm(&naive, &params).unwrap();
        let chains = [
            (naive.clone(), None),
            (bn.clone(), Some(ConvEpilogue { bn: Some((&scale, &shift)), act: FusedActivation::None })),
            (relu(&bn), Some(ConvEpilogue { bn: Some((&scale, &shift)), act: FusedActivation::Relu })),
        ];
        // A base whose every element is a NaN payload of its own index.
        let base = Tensor::from_fn(naive.shape(), |i| f32::from_bits(0x7fc0_0000 | i as u32));
        let mid = h_out / 2;
        let bands = [0..0, mid..mid + 1, 0..1, h_out - 1..h_out, 1..h_out.max(2) - 1, 0..h_out];

        let mut arena = ScratchArena::new();
        arena.recycle(vec![f32::NAN; naive.len().div_ceil(3)]);
        arena.recycle(vec![f32::NAN; 5]);
        let spatial = h_out * w_out;
        // Two rounds; the second consumes the first round's outputs, dirtied.
        for _ in 0..2 {
            for rows in &bands {
                let band = ConvRows { rows: rows.clone(), base: &base };
                for (want, ep) in &chains {
                    let mut outs = vec![conv2d_rows_with(
                        &input, &weight, bias, cfg, &band, ep.as_ref(), panel, &mut arena,
                    )
                    .unwrap()];
                    let forced = [
                        (ConvPath::Im2col, !depthwise),
                        (ConvPath::InPlace, fits),
                        (ConvPath::SmallPlane, fits_small),
                    ];
                    for (path, _) in forced.into_iter().filter(|&(_, ok)| ok) {
                        outs.push(
                            conv2d_path_with(
                                &input, &weight, bias, cfg, path, Some(&band), ep.as_ref(),
                                panel, &mut arena,
                            )
                            .unwrap(),
                        );
                    }
                    for out in outs {
                        for (p, plane) in out.as_slice().chunks_exact(spatial).enumerate() {
                            for (y, row) in plane.chunks_exact(w_out).enumerate() {
                                let src = if rows.contains(&y) { want } else { &base };
                                assert_bits_equal(&src.as_slice()[(p * h_out + y) * w_out..][..w_out], row);
                            }
                        }
                        let mut spent = out.into_vec();
                        spent.fill(f32::NAN);
                        arena.recycle(spent);
                    }
                }
            }
        }
        let wide = ConvRows { rows: 0..h_out + 1, base: &base };
        prop_assert!(conv2d_rows_with(&input, &weight, bias, cfg, &wide, None, panel, &mut arena).is_err());
        let short = Tensor::zeros([batch, c_out, h_out, w_out + 1]);
        let wrong = ConvRows { rows: 0..1, base: &short };
        prop_assert!(conv2d_rows_with(&input, &weight, bias, cfg, &wrong, None, panel, &mut arena).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The direct small-plane kernel — through `conv2d` and `conv2d_with`
    /// (the rule picks it), forced through `conv2d_path_with`, and banded
    /// through `conv2d_rows_with` — is bit-identical to the naive im2col
    /// conv followed by the unfused `batch_norm`/`relu` chain: 4x4, 8x8 and
    /// 16x16 output planes at stride 1 and 4x4 and 8x8 at stride 2, with
    /// channel counts inside the rule, batches of 1-4,
    /// bias on and off, epilogues None, BN and BN+ReLU, one NaN family per
    /// case with ±Inf and -0 operands and a non-finite weight on a border
    /// tap (which meets the padding zeros), bands empty, of one middle row,
    /// first, last, interior and full (rows outside the band copied from
    /// the base), through NaN-dirtied arena buffers.
    #[test]
    fn small_plane_conv_is_bit_identical(
        batch in 1usize..5,
        stride in 1usize..3,
        side_pick in 0usize..3,
        c_in in 1usize..12,
        c_out in 1usize..12,
        values in vec(fault_like_f32(), 4..12),
        neg_zero_at in 0usize..12,
        border_tap in 0usize..8,
        border_at in 0usize..64,
        with_bias in any::<bool>(),
        nan_mode in any::<bool>(),
    ) {
        let mut values = one_nan_family(&values, nan_mode);
        let at = neg_zero_at % values.len();
        values[at] = -0.0;
        // The micro tier takes an `m x 9 c_in x side²` GEMM from 16 Ki
        // multiplies, so the rule admits `c_out * c_in` up to 113, 28 and 7
        // on output planes of side 4, 8 and 16 (inputs at most 16x16).
        let (side, max_product) = [(4, 113), (8, 28), (16, 7)][side_pick % (4 - stride)];
        let in_side = stride * side;
        let c_in = c_in.min(max_product);
        let c_out = c_out.min(max_product / c_in).max(1);
        // One input and one output channel make a depthwise conv.
        let c_out = if c_in == 1 && c_out == 1 { 2 } else { c_out };
        let cfg = Conv2dCfg::same(stride);
        let input = Tensor::from_vec(
            [batch, c_in, in_side, in_side],
            cycled(&values, batch * c_in * in_side * in_side, 1, 0),
        )
        .unwrap();
        let mut w = cycled(&values, c_out * c_in * 9, 5, 1);
        // A non-finite weight on a border tap (a tap of the top row or the
        // left column reads a padding zero at some output pixel at either
        // stride): `0 * ±Inf` and `0 * NaN` must come out of both paths
        // alike.
        let tap = [0, 1, 2, 3, 6][border_tap % 5];
        w[(border_at % (c_out * c_in)) * 9 + tap] = if nan_mode { f32::NAN } else { f32::INFINITY };
        let weight = Tensor::from_vec([c_out, c_in, 3, 3], w).unwrap();
        prop_assert!(conv2d_small_plane(&input, &weight, cfg), "{c_in}->{c_out}@{in_side} s{stride}");
        prop_assert!(!conv2d_reads_in_place(&input, &weight, cfg));
        let bias_t = Tensor::from_vec([c_out], cycled(&values, c_out, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        // Finite batch-norm coefficients, as in the depthwise test above.
        let finite = |len: usize, stride: usize, off: usize| -> Vec<f32> {
            cycled(&values, len, stride, off)
                .into_iter()
                .map(|t| if t.is_finite() { t } else { 0.75 })
                .collect()
        };
        let gamma = Tensor::from_vec([c_out], finite(c_out, 2, 1)).unwrap();
        let beta = Tensor::from_vec([c_out], finite(c_out, 4, 2)).unwrap();
        let mean = Tensor::from_vec([c_out], finite(c_out, 6, 0)).unwrap();
        let var = Tensor::from_fn([c_out], |i| (i as f32).mul_add(0.13, 0.5));
        let params = BatchNormParams { gamma: &gamma, beta: &beta, mean: &mean, var: &var, eps: 1e-5 };
        let (scale, shift): (Vec<f32>, Vec<f32>) =
            (0..c_out).map(|c| bn_channel_scale_shift(&params, c)).unzip();

        let naive = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        assert_bits_equal(naive.as_slice(), conv2d(&input, &weight, bias, cfg).unwrap().as_slice());
        let bn = batch_norm(&naive, &params).unwrap();
        let chains = [
            (naive.clone(), None),
            (bn.clone(), Some(ConvEpilogue { bn: Some((&scale, &shift)), act: FusedActivation::None })),
            (relu(&bn), Some(ConvEpilogue { bn: Some((&scale, &shift)), act: FusedActivation::Relu })),
        ];
        let base = Tensor::from_fn(naive.shape(), |i| f32::from_bits(0x7fc0_0000 | i as u32));
        let mid = side / 2;
        let bands = [0..0, mid..mid + 1, 0..1, side - 1..side, 1..side - 1, 0..side];

        let mut arena = ScratchArena::new();
        arena.recycle(vec![f32::NAN; naive.len().div_ceil(3)]);
        arena.recycle(vec![f32::NAN; 5]);
        let plane = side * side;
        // Two rounds; the second consumes the first round's outputs, dirtied.
        for _ in 0..2 {
            for (want, ep) in &chains {
                let ep = ep.as_ref();
                let mut outs = vec![
                    conv2d_with(&input, &weight, bias, cfg, ep, None, &mut arena).unwrap(),
                    conv2d_path_with(
                        &input, &weight, bias, cfg, ConvPath::SmallPlane, None, ep, None,
                        &mut arena,
                    )
                    .unwrap(),
                ];
                for out in outs.drain(..) {
                    assert_bits_equal(want.as_slice(), out.as_slice());
                    let mut spent = out.into_vec();
                    spent.fill(f32::NAN);
                    arena.recycle(spent);
                }
                for rows in &bands {
                    let band = ConvRows { rows: rows.clone(), base: &base };
                    let out =
                        conv2d_rows_with(&input, &weight, bias, cfg, &band, ep, None, &mut arena)
                            .unwrap();
                    for (p, y_plane) in out.as_slice().chunks_exact(plane).enumerate() {
                        for (y, row) in y_plane.chunks_exact(side).enumerate() {
                            let src = if rows.contains(&y) { want } else { &base };
                            assert_bits_equal(&src.as_slice()[(p * side + y) * side..][..side], row);
                        }
                    }
                    let mut spent = out.into_vec();
                    spent.fill(f32::NAN);
                    arena.recycle(spent);
                }
            }
        }
    }
}

/// Every remainder of the small-plane kernel's output-channel blocks (3
/// channels on 4x4 planes, 2 on larger ones) on each of its five
/// instances — 4x4, 8x8 and 16x16 output planes at stride 1, 4x4 and 8x8
/// at stride 2 — at `c_out` 1 to 7 and batches 1 and 4, forced through
/// `conv2d_path_with`: bit-identical to the naive im2col conv followed by
/// the unfused `batch_norm`/`relu` chain, with epilogues None, BN and
/// BN+ReLU, a NaN or +Inf weight on a border tap of the last output
/// channel (the remainder block's), and arena buffers dirtied with a NaN
/// payload no result carries.
#[test]
fn small_plane_block_remainders_are_bit_identical() {
    let dirty = f32::from_bits(0x7fc0_0bad);
    let c_in = 2;
    for (side, stride) in [(4, 1), (8, 1), (16, 1), (4, 2), (8, 2)] {
        let (in_side, cfg) = (stride * side, Conv2dCfg::same(stride));
        for (c_out, batch, special) in (1..=7)
            .flat_map(|c| [1, 4].map(|b| (c, b)))
            .flat_map(|(c, b)| [f32::NAN, f32::INFINITY].map(|v| (c, b, v)))
        {
            let shape = [batch, c_in, in_side, in_side];
            let input = Tensor::from_fn(shape, |i| ((i * 7 + 3) % 23) as f32 * 0.125 - 1.25);
            let mut w: Vec<f32> =
                (0..c_out * c_in * 9).map(|i| ((i * 5 + 1) % 17) as f32 * 0.0625 - 0.5).collect();
            // The top-left tap of the last output channel's last input
            // channel: it reads a padding zero at output (0, 0) at either
            // stride, so `0 * NaN` and `0 * Inf` meet there.
            w[(c_out * c_in - 1) * 9] = special;
            let weight = Tensor::from_vec([c_out, c_in, 3, 3], w).unwrap();
            let bias = Tensor::from_fn([c_out], |i| i as f32 * 0.375 - 0.75);
            let gamma = Tensor::from_fn([c_out], |i| 1.0 - i as f32 * 0.125);
            let beta = Tensor::from_fn([c_out], |i| i as f32 * 0.25 - 0.5);
            let mean = Tensor::from_fn([c_out], |i| i as f32 * -0.0625);
            let var = Tensor::from_fn([c_out], |i| (i as f32).mul_add(0.13, 0.5));
            let params =
                BatchNormParams { gamma: &gamma, beta: &beta, mean: &mean, var: &var, eps: 1e-5 };
            let (scale, shift): (Vec<f32>, Vec<f32>) =
                (0..c_out).map(|c| bn_channel_scale_shift(&params, c)).unzip();
            let naive =
                conv2d_kernel(&input, &weight, Some(&bias), cfg, GemmKernel::Naive).unwrap();
            let bn = batch_norm(&naive, &params).unwrap();
            let bn_ep = ConvEpilogue { bn: Some((&scale, &shift)), act: FusedActivation::None };
            let relu_ep = ConvEpilogue { act: FusedActivation::Relu, ..bn_ep };
            let chains =
                [(naive.clone(), None), (bn.clone(), Some(bn_ep)), (relu(&bn), Some(relu_ep))];

            // Two dirty buffers, so the output and the shifted copies both
            // start dirty; each spent output is dirtied and returned.
            let mut arena = ScratchArena::new();
            arena.recycle(vec![dirty; 8192]);
            arena.recycle(vec![dirty; 8192]);
            for (want, ep) in chains.iter().chain(&chains) {
                let out = conv2d_path_with(
                    &input,
                    &weight,
                    Some(&bias),
                    cfg,
                    ConvPath::SmallPlane,
                    None,
                    ep.as_ref(),
                    None,
                    &mut arena,
                )
                .unwrap();
                let case = format!("{c_in}->{c_out}@{in_side} s{stride} x{batch} {special} {ep:?}");
                for (i, (x, y)) in want.as_slice().iter().zip(out.as_slice()).enumerate() {
                    let (x, y) = (x.to_bits(), y.to_bits());
                    assert_eq!(x, y, "{case}: element {i}: {x:#010x} vs {y:#010x}");
                }
                let mut spent = out.into_vec();
                spent.fill(dirty);
                arena.recycle(spent);
            }
        }
    }
}

/// The small-plane rule on the shapes it was measured on: every conv of
/// the reduced ResNet-20 (`resnet20_micro`, width 2 at 16x16) — its stem,
/// the 2->2 at 16x16, 4->4 at 8x8 and 8->8 at 4x4 stage convs and the two
/// stride-2 convs — takes the direct kernel; full-width ResNet-20's 3x3
/// convs (on the micro tier, or on planes above 16x16), the MobileNetV2
/// stem, grouped, 1x1, unpadded, 5x5, non-square and depthwise convs, and
/// strided convs onto 2x2 planes do not.
#[test]
fn small_plane_rule_covers_the_measured_shapes() {
    let rule =
        |(c_in, c_out, kernel, (h, w), cfg): (usize, usize, usize, (usize, usize), Conv2dCfg)| {
            let input = Tensor::zeros([1, c_in, h, w]);
            let weight = Tensor::zeros([c_out, c_in / cfg.groups, kernel, kernel]);
            conv2d_small_plane(&input, &weight, cfg)
        };
    let s1 = Conv2dCfg::same(1);
    for shape in [
        (3, 2, 3, (16, 16), s1),
        (2, 2, 3, (16, 16), s1),
        (4, 4, 3, (8, 8), s1),
        (8, 8, 3, (4, 4), s1),
        (2, 4, 3, (16, 16), Conv2dCfg::same(2)),
        (4, 8, 3, (8, 8), Conv2dCfg::same(2)),
    ] {
        assert!(rule(shape), "{shape:?} must take the small-plane kernel");
    }
    for shape in [
        (3, 16, 3, (32, 32), s1),
        (16, 16, 3, (32, 32), s1),
        (32, 32, 3, (16, 16), s1),
        (64, 64, 3, (8, 8), s1),
        (3, 32, 3, (32, 32), s1),
        (3, 3, 3, (16, 16), s1),
        (16, 32, 3, (32, 32), Conv2dCfg::same(2)),
        (32, 64, 3, (16, 16), Conv2dCfg::same(2)),
        (4, 8, 3, (4, 4), Conv2dCfg::same(2)),
        (4, 4, 3, (8, 8), s1.with_groups(2)),
        (8, 8, 1, (4, 4), s1),
        (8, 8, 3, (4, 4), Conv2dCfg::valid(1)),
        (8, 8, 5, (4, 4), s1),
        (4, 4, 3, (8, 4), s1),
        (4, 4, 3, (4, 8), s1),
        (8, 8, 3, (4, 4), s1.with_groups(8)),
    ] {
        assert!(!rule(shape), "{shape:?} must keep its GEMM or depthwise kernel");
    }
}

/// The in-place rule on the shapes it was measured on: ResNet-20's and
/// MobileNetV2's stride-1 3x3 convs read in place; every 1x1 conv
/// (projections and expansions, padded or not), strided and grouped
/// convs, output rows that split the 8-lane tiles, and GEMMs below the
/// micro tier do not.
#[test]
fn in_place_rule_covers_the_measured_shapes() {
    let rule = |(c_in, c_out, kernel, side, cfg): (usize, usize, usize, usize, Conv2dCfg)| {
        let input = Tensor::zeros([1, c_in, side, side]);
        let weight = Tensor::zeros([c_out, c_in / cfg.groups, kernel, kernel]);
        conv2d_reads_in_place(&input, &weight, cfg)
    };
    let s1 = Conv2dCfg::same(1);
    for shape in [
        (3, 16, 3, 32, s1),
        (16, 16, 3, 32, s1),
        (32, 32, 3, 16, s1),
        (64, 64, 3, 8, s1),
        (3, 32, 3, 32, s1),
    ] {
        assert!(rule(shape), "{shape:?} must read in place");
    }
    for shape in [
        (144, 32, 1, 8, Conv2dCfg::valid(1)),
        (960, 160, 1, 4, Conv2dCfg::valid(1)),
        (64, 16, 1, 8, s1),
        (32, 192, 1, 32, s1),
        (320, 1280, 1, 4, s1),
        (16, 32, 3, 32, Conv2dCfg::same(2)),
        (16, 16, 3, 32, s1.with_groups(2)),
        (32, 32, 3, 4, s1),
        (2, 2, 3, 8, s1),
        (64, 64, 1, 1, Conv2dCfg::valid(1)),
    ] {
        assert!(!rule(shape), "{shape:?} must stay on the im2col path");
    }
}

/// MobileNetV2's pointwise (1x1) convolutions at CIFAR resolution —
/// `(c_in, c_out, plane side)` — spanning the early 32x32 expansions to the
/// 4x4 head, including k > 256 (several packed K blocks).
const MBV2_POINTWISE: [(usize, usize, usize); 6] =
    [(16, 96, 32), (96, 24, 32), (32, 192, 16), (576, 96, 8), (960, 160, 4), (320, 1280, 4)];

/// Every conv entry point that takes golden weight panels — per image
/// (`conv2d_with`), over one image's cached lowering and batched, with and
/// without the fused epilogue (`conv2d_batched_from_lowered`) — is
/// bit-identical with and without the panels and to the naive kernel, on MobileNetV2's pointwise shapes, for
/// finite operands and each fault-like special family (a NaN weight, an
/// infinite input), through dirty arena buffers.
#[test]
fn packed_conv_paths_are_bit_identical_on_mobilenet_pointwise_shapes() {
    let cfg = Conv2dCfg::same(1);
    for &(c_in, c_out, side) in &MBV2_POINTWISE {
        for special in [None, Some(f32::NAN), Some(f32::INFINITY)] {
            let ctx = format!("{c_in}->{c_out}@{side} special={special:?}");
            let fill = |len: usize, salt: usize| -> Vec<f32> {
                (0..len).map(|i| ((i * 37 + salt * 11) % 101) as f32 * 0.02 - 1.0).collect()
            };
            let mut input_data = fill(2 * c_in * side * side, 1);
            let mut weight_data = fill(c_out * c_in, 2);
            match special {
                Some(v) if v.is_nan() => weight_data[c_in + 3] = v,
                Some(v) => input_data[side + 1] = v,
                None => {}
            }
            let input = Tensor::from_vec([2, c_in, side, side], input_data).unwrap();
            let weight = Tensor::from_vec([c_out, c_in, 1, 1], weight_data).unwrap();
            let bias = Tensor::from_vec([c_out], fill(c_out, 3)).unwrap();
            let packed = PackedConvWeight::pack(&weight, 1).unwrap();
            assert_eq!(packed.memory_bytes(), c_out * c_in * 4, "{ctx}");
            let naive =
                conv2d_kernel(&input, &weight, Some(&bias), cfg, GemmKernel::Naive).unwrap();

            let mut arena = ScratchArena::new();
            for round in 0..2 {
                for panel in [None, Some(&packed)] {
                    let per_image =
                        conv2d_with(&input, &weight, Some(&bias), cfg, None, panel, &mut arena)
                            .unwrap();
                    assert_bits_equal(naive.as_slice(), per_image.as_slice());
                    arena.recycle(per_image.into_vec());
                }
                let image_len = c_in * side * side;
                let first =
                    Tensor::from_vec([1, c_in, side, side], input.as_slice()[..image_len].to_vec())
                        .unwrap();
                let lowered = im2col_lower_batched(&first, &weight, cfg, None).unwrap();
                let arena_opt = (round == 1).then_some(&mut arena);
                let from_lowered = conv2d_batched_from_lowered(
                    &lowered,
                    &weight,
                    Some(&bias),
                    None,
                    Some(&packed),
                    arena_opt,
                )
                .unwrap();
                let want = &naive.as_slice()[..naive.len() / 2];
                assert_bits_equal(want, from_lowered.as_slice());
            }

            let blowered = im2col_lower_batched(&input, &weight, cfg, Some(&mut arena)).unwrap();
            let (scale, shift): (Vec<f32>, Vec<f32>) =
                (0..c_out).map(|c| (1.0 + c as f32 * 0.01, c as f32 * -0.02)).unzip();
            let ep = ConvEpilogue { bn: Some((&scale, &shift)), act: FusedActivation::Relu6 };
            for epilogue in [None, Some(&ep)] {
                let plain = conv2d_batched_from_lowered(
                    &blowered,
                    &weight,
                    Some(&bias),
                    epilogue,
                    None,
                    Some(&mut arena),
                )
                .unwrap();
                let paneled = conv2d_batched_from_lowered(
                    &blowered,
                    &weight,
                    Some(&bias),
                    epilogue,
                    Some(&packed),
                    Some(&mut arena),
                )
                .unwrap();
                assert_bits_equal(plain.as_slice(), paneled.as_slice());
                if epilogue.is_none() {
                    assert_bits_equal(naive.as_slice(), paneled.as_slice());
                }
            }
        }
    }
}

/// Panels packed for another weight shape or group count are rejected,
/// never silently multiplied.
#[test]
fn packed_conv_rejects_mismatched_panels() {
    let input = Tensor::zeros([1, 8, 4, 4]);
    let weight = Tensor::zeros([16, 8, 1, 1]);
    let other = PackedConvWeight::pack(&Tensor::zeros([16, 4, 1, 1]), 1).unwrap();
    let grouped = PackedConvWeight::pack(&weight, 2).unwrap();
    let mut arena = ScratchArena::new();
    let cfg = Conv2dCfg::same(1);
    assert!(conv2d_with(&input, &weight, None, cfg, None, Some(&other), &mut arena).is_err());
    assert!(conv2d_with(&input, &weight, None, cfg, None, Some(&grouped), &mut arena).is_err());
    let lowered = im2col_lower_batched(&input, &weight, cfg, None).unwrap();
    let mismatched = conv2d_batched_from_lowered(&lowered, &weight, None, None, Some(&other), None);
    assert!(mismatched.is_err());
    assert!(PackedConvWeight::pack(&weight, 3).is_err());
}
