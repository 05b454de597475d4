//! `kernels`: the inference fast-path benches. `gemm_kernels` compares the
//! naive triple loop (the reference), the self-dispatching kernel, and the
//! register-tiled microkernel on ResNet-20- and MobileNetV2-shaped im2col
//! matrices; `depthwise_kernels` compares the scalar per-output depthwise
//! loop (`GemmKernel::Naive`) with the plane kernel behind `conv2d` at
//! MobileNetV2's ten depthwise shapes; `campaign_fast_path` measures
//! the end-to-end bit-level campaign with the pre-optimisation path
//! (naive kernels, no lowering panels) against the per-image fast path
//! (dispatched GEMM, the workers' golden-input lowering panels, scratch
//! arenas) and the compiled-plan batched path (all eval images in one
//! suffix pass), asserting the classifications stay byte-identical. Under `cargo bench`
//! the comparison is written to `BENCH_kernels.json` at the workspace
//! root, including the microkernel speedup per shape, the pre-packed
//! (golden panel) GEMM against per-call packing at MobileNetV2's
//! small-`n` head shapes, both paths of the in-place rule (`indirect`:
//! the stride-1 conv read in place against im2col plus the packed GEMM)
//! at ResNet-20 and MobileNetV2 stride-1 3x3 conv shapes, the direct
//! small-plane kernel against the path it replaced (`small_plane`: im2col
//! for one image, the interleaved im2col panel for four) on every reduced
//! ResNet-20 conv, the depthwise speedup per shape (and, on the shapes the fixed-size rule
//! picks, the fixed-size kernel against the plane kernel), a per-op-kind
//! breakdown of one MobileNetV2 forward pass through the arena kernels a
//! campaign runs (with and without golden weight panels, and with the
//! plan's fusion groups run as one conv each), the end-to-end
//! trajectory against the recorded fast-path baseline, and a host
//! fingerprint.
//! With `--smoke` the binary runs a seconds-scale regression guard
//! instead and exits non-zero if the dispatched GEMM is slower than the
//! naive one at any shape, the microkernel is not the selected tier on
//! the shapes it owns, the panel GEMM is slower than per-call packing at
//! any panel shape, the path the in-place rule picks is more than 10%
//! slower than the other at any stride-1 conv shape, the small-plane
//! kernel is more than 10% slower than the path it replaced at any reduced
//! ResNet-20 conv (or the rule stops admitting one), the depthwise plane
//! kernel is slower than the scalar loop at any shape, the fixed-size
//! depthwise kernel is more than 10% slower than the plane kernel at any
//! shape the rule gives it, or the batched campaign diverges from the
//! per-image one (used by CI).

use std::time::{Duration, Instant};

use criterion::{BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sfi_bench::{host_fingerprint, resnet20_setup, Scale};
use sfi_dataset::SynthCifarConfig;
use sfi_faultsim::campaign::{run_campaign, CampaignConfig};
use sfi_faultsim::fault::Fault;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::mobilenet::MobileNetV2Config;
use sfi_nn::{CompiledPlan, GoldenPanels, KernelPolicy, Model, NodeOp};
use sfi_stats::sampling::sample_without_replacement;
use sfi_tensor::ops::{
    self, gemm, gemm_blocked_with, gemm_micro, gemm_micro_packed, gemm_selected_kernel,
    BatchNormParams, Conv2dCfg, ConvPath, GemmKernel, PackedConvWeight, PackedLhs,
};
use sfi_tensor::{ScratchArena, Tensor};

/// PR 9's recorded end-to-end per-image fast path on the full-scale
/// bit-level campaign (`fast_cached_mean_s` in that PR's
/// BENCH_kernels.json) — the baseline the microkernel layer is measured
/// against. Absolute seconds, same workload and (per the recorded host
/// fingerprint) same machine class.
const PR9_FAST_CACHED_MEAN_S: f64 = 0.595611;

/// Convolution GEMM shapes at CIFAR resolution: `m` = output channels,
/// `k` = `c_in * k_h * k_w`, `n` = output pixels per image.
///
/// The `resnet20` family covers one shape per stage plus a tall-`n`
/// stress shape that crosses the microkernel's `NC` column-block
/// boundaries, plus two mid-width L2-resident shapes covering the class
/// where a row-blocked kernel once regressed to 0.74x and the dispatch
/// must stay on the naive loop. The `mbv2-pw` family is MobileNetV2's
/// 1x1 pointwise convolutions (expansion and projection, early 32x32
/// stages through the final 1280-channel head at 4x4). MobileNetV2's
/// depthwise convolutions never reach a GEMM (`conv2d` sends them to the
/// depthwise kernel); they are benched in [`DEPTHWISE_SHAPES`].
const SHAPES: [(&str, usize, usize, usize); 10] = [
    ("resnet20", 16, 144, 1024),
    ("resnet20", 16, 144, 256),
    ("resnet20", 32, 288, 256),
    ("resnet20", 32, 288, 512),
    ("resnet20", 64, 576, 64),
    ("resnet20", 64, 576, 1024),
    ("mbv2-pw", 96, 16, 1024),
    ("mbv2-pw", 24, 96, 1024),
    ("mbv2-pw", 192, 32, 256),
    ("mbv2-pw", 1280, 320, 16),
];

/// MobileNetV2's pointwise GEMMs with small output planes (`m` = output
/// channels, `k` = input channels, `n` = 4x4 or 8x8 pixels), where packing
/// the weight matrix costs about as much as the multiply: the head conv
/// (1280x320 at 4x4), the last stage's expansion (960x160 at 4x4) and the
/// 8x8 stage's expansion (576x96 at 8x8). Golden weight panels pack these
/// once per campaign instead of once per call.
const PANEL_SHAPES: [(usize, usize, usize); 3] = [(1280, 320, 16), (960, 160, 16), (576, 96, 64)];

/// Minimum wall times of one `m x k x n` GEMM with per-call packing
/// (`gemm_micro`) and over a pre-packed A (`gemm_micro_packed`), measured
/// in `rounds` interleaved rounds of `iters` runs each. Both reuse their
/// scratch, as the arena-backed conv path does.
fn panel_gemm_min_secs(
    (m, k, n): (usize, usize, usize),
    rounds: usize,
    iters: usize,
) -> (f64, f64) {
    let a = filled(m * k, 1);
    let b_mat = filled(k * n, 2);
    let packed = PackedLhs::pack(m, k, &a);
    let (mut per_call, mut panel) = (f64::INFINITY, f64::INFINITY);
    let (mut scratch, mut b_scratch) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        per_call = per_call.min(min_secs(
            || {
                let mut out = vec![0.0f32; m * n];
                gemm_micro(m, k, n, &a, &b_mat, &mut out, &mut scratch);
            },
            iters,
        ));
        panel = panel.min(min_secs(
            || {
                let mut out = vec![0.0f32; m * n];
                gemm_micro_packed(n, &packed, &b_mat, &mut out, &mut b_scratch);
            },
            iters,
        ));
    }
    (per_call, panel)
}

/// Stride-1 3x3 convolutions the in-place rule
/// (`ops::conv2d_reads_in_place`) reads in place: `(family, c_in, c_out,
/// kernel, plane side)` — ResNet-20's stem and one conv per stage, and
/// MobileNetV2's stem (its only stride-1 3x3 GEMM conv). 1x1 convs cannot
/// run in place.
const INDIRECT_SHAPES: [(&str, usize, usize, usize, usize); 5] = [
    ("resnet20", 3, 16, 3, 32),
    ("resnet20", 16, 16, 3, 32),
    ("resnet20", 32, 32, 3, 16),
    ("resnet20", 64, 64, 3, 8),
    ("mbv2-stem", 3, 32, 3, 32),
];

/// Minimum wall times of one stride-1 conv over golden weight panels on
/// the im2col path and on the in-place path (`ops::conv2d_path_with`),
/// measured in `rounds` interleaved rounds of `iters` runs each, both
/// drawing from and recycling into one arena as the campaign's suffix
/// evaluator does. Returns `(im2col, in_place)`.
fn indirect_min_secs(
    (c_in, c_out, kernel, side): (usize, usize, usize, usize),
    rounds: usize,
    iters: usize,
) -> (f64, f64) {
    let input = Tensor::from_vec([1, c_in, side, side], filled(c_in * side * side, 5)).unwrap();
    let weight =
        Tensor::from_vec([c_out, c_in, kernel, kernel], filled(c_out * c_in * kernel * kernel, 6))
            .unwrap();
    let panels = PackedConvWeight::pack(&weight, 1).unwrap();
    let cfg = Conv2dCfg::same(1);
    let mut arena = ScratchArena::new();
    let mut time = |path: ConvPath| {
        min_secs(
            || {
                let out = ops::conv2d_path_with(
                    &input,
                    &weight,
                    None,
                    cfg,
                    path,
                    None,
                    None,
                    Some(&panels),
                    &mut arena,
                )
                .unwrap();
                arena.recycle(out.into_vec());
            },
            iters,
        )
    };
    let (mut im2col, mut in_place) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        im2col = im2col.min(time(ConvPath::Im2col));
        in_place = in_place.min(time(ConvPath::InPlace));
    }
    (im2col, in_place)
}

/// Whether the in-place rule picks the in-place path for an
/// [`INDIRECT_SHAPES`] entry.
fn indirect_rule_picks((c_in, c_out, kernel, side): (usize, usize, usize, usize)) -> bool {
    let input = Tensor::zeros([1, c_in, side, side]);
    let weight = Tensor::zeros([c_out, c_in, kernel, kernel]);
    ops::conv2d_reads_in_place(&input, &weight, Conv2dCfg::same(1))
}

/// The reduced ResNet-20's (`resnet20_micro`, width 2 at 16x16) convs,
/// every one of which the small-plane rule (`ops::conv2d_small_plane`)
/// sends to the direct kernel: `(c_in, c_out, input plane side, stride)` —
/// the stem, the 2->2, 4->4 and 8->8 stage convs and the two stride-2
/// convs between stages.
const SMALL_PLANE_SHAPES: [(usize, usize, usize, usize); 6] =
    [(3, 2, 16, 1), (2, 2, 16, 1), (2, 4, 16, 2), (4, 4, 8, 1), (4, 8, 8, 2), (8, 8, 4, 1)];

/// Minimum wall times of one [`SMALL_PLANE_SHAPES`] conv over `images`
/// images through the path the direct kernel replaced and through the
/// direct kernel (`ops::conv2d_with`), measured in `rounds` interleaved
/// rounds of `iters` runs each from one arena. The replaced path is the
/// im2col GEMM (`ConvPath::Im2col`) for one image and, for several, the
/// one GEMM over their interleaved im2col panel
/// (`ops::im2col_lower_batched` then `ops::conv2d_batched_from_lowered`)
/// the multi-image suffix pass ran before. Returns `(old, direct)`.
fn small_plane_min_secs(
    (c_in, c_out, side, stride): (usize, usize, usize, usize),
    images: usize,
    rounds: usize,
    iters: usize,
) -> (f64, f64) {
    let len = images * c_in * side * side;
    let input = Tensor::from_vec([images, c_in, side, side], filled(len, 5)).unwrap();
    let weight = Tensor::from_vec([c_out, c_in, 3, 3], filled(c_out * c_in * 9, 6)).unwrap();
    let cfg = Conv2dCfg::same(stride);
    let mut arena = ScratchArena::new();
    let old = |arena: &mut ScratchArena| {
        let out = if images == 1 {
            ops::conv2d_path_with(
                &input,
                &weight,
                None,
                cfg,
                ConvPath::Im2col,
                None,
                None,
                None,
                arena,
            )
            .unwrap()
        } else {
            let low = ops::im2col_lower_batched(&input, &weight, cfg, Some(arena)).unwrap();
            let out =
                ops::conv2d_batched_from_lowered(&low, &weight, None, None, None, Some(arena))
                    .unwrap();
            arena.recycle(low.into_cols());
            out
        };
        arena.recycle(out.into_vec());
    };
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        best[0] = best[0].min(min_secs(|| old(&mut arena), iters));
        best[1] = best[1].min(min_secs(
            || {
                let out =
                    ops::conv2d_with(&input, &weight, None, cfg, None, None, &mut arena).unwrap();
                arena.recycle(out.into_vec());
            },
            iters,
        ));
    }
    (best[0], best[1])
}

/// Whether the small-plane rule admits a [`SMALL_PLANE_SHAPES`] entry.
fn small_plane_rule_picks((c_in, c_out, side, stride): (usize, usize, usize, usize)) -> bool {
    let input = Tensor::zeros([1, c_in, side, side]);
    let weight = Tensor::zeros([c_out, c_in, 3, 3]);
    ops::conv2d_small_plane(&input, &weight, Conv2dCfg::same(stride))
}

/// MobileNetV2's ten distinct 3x3 depthwise convolutions at CIFAR
/// resolution (width 1.0, 32x32 input): `(channels, input plane side,
/// stride)`, from the first 32-channel stage to the 960-channel 4x4 tail.
const DEPTHWISE_SHAPES: [(usize, usize, usize); 10] = [
    (32, 32, 1),
    (96, 32, 1),
    (144, 32, 1),
    (144, 32, 2),
    (192, 16, 1),
    (192, 16, 2),
    (384, 8, 1),
    (576, 8, 1),
    (576, 8, 2),
    (960, 4, 1),
];

/// One image and a 3x3 weight for a depthwise shape, with its config.
fn depthwise_operands(channels: usize, side: usize, stride: usize) -> (Tensor, Tensor, Conv2dCfg) {
    let input =
        Tensor::from_vec([1, channels, side, side], filled(channels * side * side, 3)).unwrap();
    let weight = Tensor::from_vec([channels, 1, 3, 3], filled(channels * 9, 4)).unwrap();
    (input, weight, Conv2dCfg::same(stride).with_groups(channels))
}

/// Minimum wall time of one depthwise convolution with `kernel`:
/// `GemmKernel::Naive` is the scalar per-output loop, `Blocked` the plane
/// kernel (`conv2d`). Both allocate their output the same way.
fn depthwise_min_secs(
    (input, weight, cfg): &(Tensor, Tensor, Conv2dCfg),
    kernel: GemmKernel,
    iters: usize,
) -> f64 {
    min_secs(
        || {
            ops::conv2d_kernel(input, weight, None, *cfg, kernel).unwrap();
        },
        iters,
    )
}

/// Minimum wall times of one depthwise convolution through the plane
/// kernel and through the fixed-size kernel (`ops::depthwise_path_with`),
/// each from a warmed arena, in `rounds` interleaved rounds of `iters`
/// calls.
fn depthwise_fixed_min_secs(
    (input, weight, cfg): &(Tensor, Tensor, Conv2dCfg),
    rounds: usize,
    iters: usize,
) -> (f64, f64) {
    let mut arena = ScratchArena::new();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for (fixed, best) in [false, true].into_iter().zip(&mut best) {
            let secs = min_secs(
                || {
                    let out = ops::depthwise_path_with(
                        input, weight, None, *cfg, fixed, None, &mut arena,
                    )
                    .unwrap();
                    arena.recycle(out.into_vec());
                },
                iters,
            );
            *best = best.min(secs);
        }
    }
    (best[0], best[1])
}

/// Op kinds of the per-op forward breakdown, in report order.
const OP_KINDS: [&str; 6] = ["depthwise", "conv_gemm", "batch_norm", "relu6", "add", "other"];

/// The kernels a by-node forward walk runs: per-call weight packing, the
/// plan's golden weight panels, or golden panels with every fusion group
/// run as one conv with its epilogue — the dense suffix's schedule.
#[derive(Clone, Copy)]
enum Walk<'a> {
    Arena,
    Panels(&'a CompiledPlan),
    Fused(&'a CompiledPlan),
}

/// One forward pass of `model`, node by node, through the arena-backed
/// `ops` kernels the campaign's suffix evaluator (`Model::eval_node`)
/// runs: `conv2d_with` — over the golden weight panels, and with each
/// fusion group's epilogue, as `walk` says — `batch_norm_with`,
/// `relu6_with` and `add_with`, drawing buffers from `arena` and recycling
/// every activation into it at the end. Returns each node's [`OP_KINDS`]
/// index and seconds (the input node and fused-away nodes read 0), and
/// the logits.
fn forward_by_node(
    model: &Model,
    input: &Tensor,
    walk: Walk<'_>,
    arena: &mut ScratchArena,
) -> (Vec<(usize, f64)>, Tensor) {
    let param = |p| &model.store().get(p).expect("model parameter").tensor;
    let mut vals: Vec<Tensor> = vec![input.clone()];
    let mut times = vec![(OP_KINDS.len() - 1, 0.0)];
    let (panels, fused) = match walk {
        Walk::Arena => (None, None),
        Walk::Panels(plan) => (Some(plan.panels()), None),
        Walk::Fused(plan) => (Some(plan.panels()), Some(plan)),
    };
    for (id, node) in model.nodes().iter().enumerate().skip(1) {
        if vals.len() > id {
            // Fused into an earlier group.
            times.push((OP_KINDS.len() - 1, 0.0));
            continue;
        }
        let x = |i: usize| &vals[node.inputs[i]];
        let group = fused.and_then(|plan| plan.fused_at(id));
        let start = Instant::now();
        let (kind, out) = match &node.op {
            NodeOp::Conv { weight, bias, cfg } => {
                let (w, b) = (param(*weight), bias.map(param));
                let kind = if ops::conv2d_uses_lowering(x(0), w, *cfg) { 1 } else { 0 };
                let panel = panels.and_then(|p: &GoldenPanels| p.get(id));
                let ep = group.as_ref().map(|(_, ep)| ep);
                (kind, ops::conv2d_with(x(0), w, b, *cfg, ep, panel, arena).unwrap())
            }
            NodeOp::BatchNorm { gamma, beta, mean, var, eps } => {
                let params = BatchNormParams {
                    gamma: param(*gamma),
                    beta: param(*beta),
                    mean: param(*mean),
                    var: param(*var),
                    eps: *eps,
                };
                (2, ops::batch_norm_with(x(0), &params, arena).unwrap())
            }
            NodeOp::Relu6 => (3, ops::relu6_with(x(0), arena)),
            NodeOp::Add => (4, ops::add_with(x(0), x(1), arena).unwrap()),
            NodeOp::GlobalAvgPool => (5, ops::global_avg_pool(x(0)).unwrap()),
            NodeOp::Linear { weight, bias } => {
                (5, ops::linear(x(0), param(*weight), bias.map(param)).unwrap())
            }
            op => panic!("no MobileNetV2 node is a {op:?}"),
        };
        times.push((kind, start.elapsed().as_secs_f64()));
        if let Some((out_node, _)) = group {
            vals.extend((id..out_node).map(|_| Tensor::zeros([1])));
        }
        vals.push(out);
    }
    let logits = vals.pop().expect("the model has nodes");
    for t in vals.drain(1..) {
        arena.recycle(t.into_vec());
    }
    (times, logits)
}

/// The `mbv2_forward_by_op` table: one MobileNetV2 (width 1.0, 32x32)
/// forward pass per op kind through the campaign's arena kernels, with
/// per-call weight packing ("arena"), with golden weight panels
/// ("panels"), and with golden panels and every conv+BN(+ReLU6) and
/// depthwise+BN+ReLU6 group fused into one conv ("fused", the dense
/// suffix's schedule: its batch-norm and ReLU6 rows read 0 and their work
/// is charged to the group's conv row), as JSON, plus `Model::forward`'s
/// own minimum for comparison with the per-node sums. Each node's time is
/// its minimum over interleaved rounds of the three walks (each with its
/// own warmed arena); every walk must return `Model::forward`'s logits bit
/// for bit.
fn mbv2_forward_by_op_json() -> String {
    const ROUNDS: usize = 7;
    let model = MobileNetV2Config::cifar().build_seeded(42).expect("valid config");
    let data = SynthCifarConfig::new().with_samples(1).generate();
    let input = data.image(0);
    let forward = model.forward(input).unwrap();
    let plan = CompiledPlan::compile(&model, &model.forward_cached(input).unwrap()).unwrap();
    let mut sides = [
        (Walk::Arena, ScratchArena::new(), Vec::new()),
        (Walk::Panels(&plan), ScratchArena::new(), Vec::new()),
        (Walk::Fused(&plan), ScratchArena::new(), Vec::new()),
    ];
    for _ in 0..ROUNDS {
        for (walk, arena, best) in &mut sides {
            let (times, logits) = forward_by_node(&model, input, *walk, arena);
            assert!(logits.bits_equal(&forward), "a by-node walk changed the logits");
            if best.is_empty() {
                *best = times;
            } else {
                for (b, (_, secs)) in best.iter_mut().zip(times) {
                    b.1 = b.1.min(secs);
                }
            }
        }
    }
    let forward_s = min_secs(
        || {
            model.forward(input).unwrap();
        },
        ROUNDS,
    );
    let [arena, panels, fused] = sides.map(|(_, _, best)| {
        let mut by_kind = [0.0; OP_KINDS.len()];
        for (kind, secs) in best {
            by_kind[kind] += secs;
        }
        by_kind
    });
    let total = |side: &[f64]| side.iter().sum::<f64>();
    let (total_arena, total_panels, total_fused) = (total(&arena), total(&panels), total(&fused));
    let rows: Vec<String> = OP_KINDS
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            format!(
                "      {{\"op\": \"{kind}\", \"arena_ms\": {:.3}, \"arena_share\": {:.3}, \
                 \"panels_ms\": {:.3}, \"panels_share\": {:.3}, \"fused_ms\": {:.3}, \
                 \"fused_share\": {:.3}}}",
                arena[i] * 1e3,
                arena[i] / total_arena,
                panels[i] * 1e3,
                panels[i] / total_panels,
                fused[i] * 1e3,
                fused[i] / total_fused
            )
        })
        .collect();
    format!(
        "{{\n    \"workload\": \"MobileNetV2 (width 1.0, 32x32), one image, through the arena \
         kernels of the campaign's suffix evaluator; per-node minimum of {ROUNDS} interleaved \
         passes, summed per op kind; arena = per-call weight packing, panels = golden weight \
         panels ({} convs, {:.2} MB), fused = golden panels with {} conv/depthwise + BN \
         (+ ReLU6) groups fused into one conv each\",\n    \"model_forward_min_ms\": {:.3},\n    \
         \"arena_total_ms\": {:.3},\n    \"panels_total_ms\": {:.3},\n    \
         \"fused_total_ms\": {:.3},\n    \"ops\": [\n{}\n    ]\n  }}",
        plan.panels().count(),
        plan.panels().memory_bytes() as f64 / 1e6,
        plan.fused_groups(),
        forward_s * 1e3,
        total_arena * 1e3,
        total_panels * 1e3,
        total_fused * 1e3,
        rows.join(",\n")
    )
}

/// Deterministic operand fill; no special values — throughput only, the
/// bit-identity suite covers NaN/Inf.
fn filled(len: usize, seed: u64) -> Vec<f32> {
    (0..len).map(|i| ((i as u64 * 2_654_435_761 + seed * 97) % 1000) as f32 / 500.0 - 1.0).collect()
}

/// Minimum wall time of `f` over `iters` runs (one warm-up run first).
/// The smoke gate compares minima, not means: on a single-core CI host a
/// scheduler preemption inflates a mean arbitrarily, while the minimum of
/// fifteen runs is a stable estimate of the kernel's actual cost.
fn min_secs<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Mean wall time of `f` over `iters` runs (one warm-up run first).
fn mean_secs<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    f();
    let mut total = 0.0;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        total += start.elapsed().as_secs_f64();
    }
    total / iters as f64
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for &(family, m, k, n) in &SHAPES {
        let a = filled(m * k, 1);
        let b_mat = filled(k * n, 2);
        let shape = format!("{family}/{m}x{k}x{n}");
        g.bench_function(BenchmarkId::new("naive", &shape), |b| {
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm(m, k, n, &a, &b_mat, &mut out);
                out
            })
        });
        g.bench_function(BenchmarkId::new("dispatch", &shape), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm_blocked_with(m, k, n, &a, &b_mat, &mut out, &mut scratch);
                out
            })
        });
        g.bench_function(BenchmarkId::new("micro", &shape), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm_micro(m, k, n, &a, &b_mat, &mut out, &mut scratch);
                out
            })
        });
    }
    g.finish();
}

fn bench_depthwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("depthwise_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &(channels, side, stride) in &DEPTHWISE_SHAPES {
        let (input, weight, cfg) = depthwise_operands(channels, side, stride);
        let shape = format!("{channels}@{side}s{stride}");
        for (name, kernel) in [("scalar", GemmKernel::Naive), ("plane", GemmKernel::Blocked)] {
            g.bench_function(BenchmarkId::new(name, &shape), |b| {
                b.iter(|| ops::conv2d_kernel(&input, &weight, None, cfg, kernel).unwrap())
            });
        }
    }
    g.finish();
}

/// The straggler-heavy bit-level workload from the scheduler bench: every
/// bit position of layer `layer`, `per_bit` faults each.
fn bit_level_faults(space: &FaultSpace, layer: usize, per_bit: u64) -> Vec<Fault> {
    let mut faults = Vec::new();
    for bit in (0..32).rev() {
        let sub = space.bit_subpopulation(layer, bit).unwrap();
        let mut rng = StdRng::seed_from_u64(900 + bit as u64);
        let n = per_bit.min(sub.size());
        let indices = sample_without_replacement(sub.size(), n, &mut rng).unwrap();
        faults.extend(sub.faults_at(&indices).unwrap());
    }
    faults
}

/// The pre-optimisation configuration: naive GEMM, no lowering panels (the
/// arena is tied to the kernel policy, so this also skips buffer reuse).
fn naive_cfg() -> CampaignConfig {
    CampaignConfig { kernel: KernelPolicy::Naive, batched: false, ..CampaignConfig::default() }
}

/// The per-image fast path as it existed before the compiled-plan batched
/// engine: blocked GEMM, lowering panels, scratch arenas — but one
/// forward pass per eval image.
fn fast_cfg() -> CampaignConfig {
    CampaignConfig { batched: false, ..CampaignConfig::default() }
}

/// The compiled-plan batched path (the default configuration): all eval
/// images of a faulty suffix evaluated in one pass.
fn batched_cfg() -> CampaignConfig {
    CampaignConfig::default()
}

fn bench_campaign_fast_path(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Default);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults = bit_level_faults(&space, 7, 8);

    // The fast paths are only fast paths if they are invisible in the
    // results: same classes, same inference counts, at every tier.
    let baseline = run_campaign(model, data, &golden, &faults, &naive_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &fast_cfg()).unwrap();
    let batched = run_campaign(model, data, &golden, &faults, &batched_cfg()).unwrap();
    assert_eq!(baseline.classes, fast.classes, "fast path changed classifications");
    assert_eq!(baseline.inferences, fast.inferences, "fast path changed inference counts");
    assert_eq!(baseline.classes, batched.classes, "batched path changed classifications");
    assert_eq!(baseline.inferences, batched.inferences, "batched path changed inference counts");

    let mut g = c.benchmark_group("campaign_fast_path");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("naive_uncached", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &naive_cfg()).unwrap())
    });
    g.bench_function("fast_cached", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &fast_cfg()).unwrap())
    });
    g.bench_function("batched_plan", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &batched_cfg()).unwrap())
    });
    g.finish();
}

/// Measures the three GEMM kernels per shape plus the end-to-end campaign
/// on the naive, per-image fast, and compiled-plan batched paths, and
/// writes `BENCH_kernels.json` at the workspace root.
///
/// The campaign runs at `Scale::Full` — the real 20-layer ResNet-20 at
/// CIFAR resolution — because that is the workload the fast path is for;
/// the criterion group above sticks to `Scale::Default` so interactive
/// runs stay quick.
fn emit_bench_json() {
    const GEMM_ITERS: usize = 20;
    const CAMPAIGN_ITERS: usize = 5;
    const PER_BIT: u64 = 1;

    let setup = resnet20_setup(Scale::Full);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    // The paper's statistical plan samples every (layer, bit) stratum of
    // the network; one fault per stratum keeps the bench to seconds while
    // preserving the real cost mix (early wide layers dominate).
    let faults: Vec<Fault> =
        (0..space.layers()).flat_map(|l| bit_level_faults(&space, l, PER_BIT)).collect();

    let mut gemm_entries = Vec::new();
    let mut packed_buf = Vec::new();
    // The acceptance shapes: the two largest ResNet-20 im2col GEMMs, where
    // the microkernel must deliver >= 1.4x over naive.
    let mut largest_micro_speedups = Vec::new();
    // Kernel rows use minima, the same discipline as the smoke gate: on a
    // single-core host a scheduler preemption inflates a mean arbitrarily
    // (one contaminated run read micro at 0.95x where the dispatch — the
    // same kernel — read 1.81x), while the minimum of twenty runs is a
    // stable estimate of the kernel's actual cost. The four kernels are
    // measured in *interleaved rounds* (min across rounds) rather than
    // one block each: the host's clock drifts in multi-second epochs, and
    // back-to-back blocks let an epoch land on a single kernel — one run
    // read naive 26% faster than the two runs around it, flipping a
    // speedup row. The dispatch is measured the way the conv hot path
    // calls it — `gemm_blocked_with` and a reused scratch buffer
    // (arena-backed in production); the allocating `gemm_blocked` wrapper
    // charges a fresh ~150 KiB packing allocation to every call, a
    // measurable tax at the smallest shapes that no real caller pays.
    const GEMM_ROUNDS: usize = 3;
    for &(family, m, k, n) in &SHAPES {
        let a = filled(m * k, 1);
        let b_mat = filled(k * n, 2);
        let (mut naive, mut blocked, mut micro) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..GEMM_ROUNDS {
            naive = naive.min(min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm(m, k, n, &a, &b_mat, &mut out);
                },
                GEMM_ITERS,
            ));
            blocked = blocked.min(min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_blocked_with(m, k, n, &a, &b_mat, &mut out, &mut packed_buf);
                },
                GEMM_ITERS,
            ));
            micro = micro.min(min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_micro(m, k, n, &a, &b_mat, &mut out, &mut packed_buf);
                },
                GEMM_ITERS,
            ));
        }
        let micro_speedup = naive / micro;
        if family == "resnet20" && ((m, k, n) == (64, 576, 1024) || (m, k, n) == (32, 288, 512)) {
            largest_micro_speedups.push(micro_speedup);
        }
        gemm_entries.push(format!(
            "    {{\"family\": \"{family}\", \"shape\": \"{m}x{k}x{n}\", \
             \"selected\": \"{}\", \"naive_min_s\": {naive:.9}, \
             \"dispatch_min_s\": {blocked:.9}, \"micro_min_s\": {micro:.9}, \
             \"dispatch_speedup\": {:.3}, \"micro_speedup\": {micro_speedup:.3}}}",
            gemm_selected_kernel(m, k, n),
            naive / blocked
        ));
    }
    let micro_meets_1_4x =
        largest_micro_speedups.len() == 2 && largest_micro_speedups.iter().all(|&s| s >= 1.4);
    let panel_entries: Vec<String> = PANEL_SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let (per_call, panel) = panel_gemm_min_secs((m, k, n), GEMM_ROUNDS, GEMM_ITERS);
            format!(
                "    {{\"shape\": \"{m}x{k}x{n}\", \"per_call_packing_min_s\": \
                 {per_call:.9}, \"panel_min_s\": {panel:.9}, \"speedup\": {:.3}}}",
                per_call / panel
            )
        })
        .collect();

    // Depthwise rows: the same interleaved-rounds minimum discipline.
    // `dispatch_min_s` is `conv2d` (the kernel the fixed-size rule picks);
    // on the rule's shapes both fast kernels are timed on their own too.
    let mut depthwise_entries = Vec::new();
    for &(channels, side, stride) in &DEPTHWISE_SHAPES {
        let operands = depthwise_operands(channels, side, stride);
        let (mut scalar, mut dispatch) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..GEMM_ROUNDS {
            scalar = scalar.min(depthwise_min_secs(&operands, GemmKernel::Naive, GEMM_ITERS));
            dispatch = dispatch.min(depthwise_min_secs(&operands, GemmKernel::Blocked, GEMM_ITERS));
        }
        let (input, weight, cfg) = &operands;
        let fixed = if ops::conv2d_depthwise_fixed(input, weight, *cfg) {
            let (plane, fixed) = depthwise_fixed_min_secs(&operands, GEMM_ROUNDS, GEMM_ITERS);
            format!(
                ", \"plane_min_s\": {plane:.9}, \"fixed_min_s\": {fixed:.9}, \
                 \"fixed_vs_plane_speedup\": {:.3}",
                plane / fixed
            )
        } else {
            String::new()
        };
        depthwise_entries.push(format!(
            "    {{\"channels\": {channels}, \"plane\": \"{side}x{side}\", \"stride\": {stride}, \
             \"rule\": \"{}\", \"scalar_min_s\": {scalar:.9}, \"dispatch_min_s\": {dispatch:.9}, \
             \"speedup\": {:.3}{fixed}}}",
            if fixed.is_empty() { "plane" } else { "fixed" },
            scalar / dispatch
        ));
    }
    // In-place rows: both paths of the rule per stride-1 conv shape.
    let indirect_entries: Vec<String> = INDIRECT_SHAPES
        .iter()
        .map(|&(family, c_in, c_out, kernel, side)| {
            let shape = (c_in, c_out, kernel, side);
            let (im2col, in_place) = indirect_min_secs(shape, GEMM_ROUNDS, GEMM_ITERS);
            let rule = if indirect_rule_picks(shape) { "in_place" } else { "im2col" };
            format!(
                "    {{\"family\": \"{family}\", \"conv\": \"{c_in}->{c_out} {kernel}x{kernel} \
                 @{side}x{side}\", \"rule\": \"{rule}\", \"im2col_min_s\": {im2col:.9}, \
                 \"in_place_min_s\": {in_place:.9}, \"in_place_speedup\": {:.3}}}",
                im2col / in_place
            )
        })
        .collect();
    // Small-plane rows: the replaced path against the direct kernel, one
    // image and four images wide (the micro workload's eval set).
    let mut small_plane_entries = Vec::new();
    for &shape in &SMALL_PLANE_SHAPES {
        let (c_in, c_out, side, stride) = shape;
        for images in [1, 4] {
            let (old, direct) = small_plane_min_secs(shape, images, GEMM_ROUNDS, GEMM_ITERS);
            small_plane_entries.push(format!(
                "    {{\"family\": \"resnet20-micro\", \"conv\": \"{c_in}->{c_out} 3x3 s{stride} \
                 @{side}x{side}\", \"images\": {images}, \"rule\": \"{}\", \"old_path\": \"{}\", \
                 \"old_min_s\": {old:.9}, \"direct_min_s\": {direct:.9}, \"speedup\": {:.3}}}",
                if small_plane_rule_picks(shape) { "small_plane" } else { "gemm" },
                if images == 1 { "im2col" } else { "interleaved_panel" },
                old / direct
            ));
        }
    }
    let by_op = mbv2_forward_by_op_json();

    let baseline = run_campaign(model, data, &golden, &faults, &naive_cfg()).unwrap();
    let fast = run_campaign(model, data, &golden, &faults, &fast_cfg()).unwrap();
    let batched = run_campaign(model, data, &golden, &faults, &batched_cfg()).unwrap();
    let identical = baseline.classes == fast.classes && baseline.classes == batched.classes;
    // Worker-count invisibility at full scale: the acceptance contract is
    // byte-identical classifications at 1, 4, and 8 workers on the default
    // (batched) configuration.
    let identical_across_workers = [1usize, 4, 8].iter().all(|&workers| {
        let cfg = CampaignConfig { workers, ..batched_cfg() };
        run_campaign(model, data, &golden, &faults, &cfg).unwrap().classes == baseline.classes
    });
    let naive_s = mean_secs(
        || {
            run_campaign(model, data, &golden, &faults, &naive_cfg()).unwrap();
        },
        CAMPAIGN_ITERS,
    );
    let fast_s = mean_secs(
        || {
            run_campaign(model, data, &golden, &faults, &fast_cfg()).unwrap();
        },
        CAMPAIGN_ITERS,
    );
    let batched_s = mean_secs(
        || {
            run_campaign(model, data, &golden, &faults, &batched_cfg()).unwrap();
        },
        CAMPAIGN_ITERS,
    );
    let speedup = naive_s / fast_s;
    let batched_vs_fast = fast_s / batched_s;
    let batched_total = naive_s / batched_s;
    // End-to-end trajectory vs the PR 9 recorded baseline: the default
    // path (batched plan) and the per-image fast path, each against the
    // fast_cached number PR 9 shipped.
    let e2e_vs_pr9 = PR9_FAST_CACHED_MEAN_S / batched_s;
    let fast_vs_pr9 = PR9_FAST_CACHED_MEAN_S / fast_s;

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"host\": {},\n  \"workload\": \"ResNet-20 (CIFAR \
         scale), bit-level plan over all 20 layers x 32 bits, {} faults, {} eval images\",\n  \
         \"gemm_iters_per_point\": {GEMM_ITERS},\n  \"campaign_iters_per_point\": \
         {CAMPAIGN_ITERS},\n  \"gemm\": [\n{}\n  ],\n  \"micro_meets_1_4x_on_two_largest\": \
         {micro_meets_1_4x},\n  \"panel_gemm\": [\n{}\n  ],\n  \"indirect\": [\n{}\n  ],\n  \
         \"small_plane\": [\n{}\n  ],\n  \"depthwise\": [\n{}\n  ],\n  \
         \"mbv2_forward_by_op\": {by_op},\n  \
         \"campaign\": {{\n    \"naive_uncached_mean_s\": {naive_s:.6},\n    \
         \"fast_cached_mean_s\": {fast_s:.6},\n    \"batched_plan_mean_s\": {batched_s:.6},\n    \
         \"speedup\": {speedup:.3},\n    \"batched_vs_fast_speedup\": {batched_vs_fast:.3},\n    \
         \"batched_total_speedup\": {batched_total:.3},\n    \"pr9_fast_cached_mean_s\": \
         {PR9_FAST_CACHED_MEAN_S:.6},\n    \"e2e_vs_pr9_speedup\": {e2e_vs_pr9:.3},\n    \
         \"fast_vs_pr9_speedup\": {fast_vs_pr9:.3},\n    \"meets_1_3x_vs_pr9\": {},\n    \
         \"classes_identical\": {identical},\n    \"classes_identical_workers_1_4_8\": \
         {identical_across_workers},\n    \"meets_1_5x_target\": {},\n    \
         \"batched_meets_2_0x_target\": {},\n    \"batched_meets_2_5x_target\": {}\n  }}\n}}\n",
        host_fingerprint(),
        faults.len(),
        data.len(),
        gemm_entries.join(",\n"),
        panel_entries.join(",\n"),
        indirect_entries.join(",\n"),
        small_plane_entries.join(",\n"),
        depthwise_entries.join(",\n"),
        e2e_vs_pr9 >= 1.3,
        speedup >= 1.5,
        batched_total >= 2.0,
        batched_vs_fast >= 2.5
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("wrote {path}");
}

/// CI regression guard: a few iterations of each kernel at every shape,
/// failing the process if the dispatched GEMM is slower than the naive one
/// at *any* shape (10% tolerance for machine noise) — the dispatch
/// heuristic must never pick a losing kernel — the panel GEMM is slower
/// than per-call packing at any [`PANEL_SHAPES`] shape, the path the
/// in-place rule picks is more than 10% slower than the other at any
/// [`INDIRECT_SHAPES`] conv, the small-plane kernel is more than 10%
/// slower than the path it replaced at any [`SMALL_PLANE_SHAPES`] conv one
/// or four images wide, the depthwise plane kernel is slower than
/// the scalar loop at any depthwise shape, or the fixed-size depthwise
/// kernel is more than 10% slower than the plane kernel at any shape the
/// rule gives it, plus a
/// smoke-scale campaign asserting the compiled-plan batched path
/// classifies identically to the per-image fast path and recording its
/// speedup.
fn smoke() -> i32 {
    // 15 iterations (after the warm-up run inside `mean_secs`) keeps the
    // guard under a second while averaging out the page-fault noise a
    // freshly compiled binary shows on its first few calls.
    const ITERS: usize = 15;
    let mut status = 0;
    let mut scratch = Vec::new();
    for &(family, m, k, n) in &SHAPES {
        let a = filled(m * k, 1);
        let b_mat = filled(k * n, 2);
        let measure_naive = || {
            min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm(m, k, n, &a, &b_mat, &mut out);
                },
                ITERS,
            )
        };
        // Dispatch measured as the conv hot path calls it: reused scratch,
        // not the allocating `gemm_blocked` wrapper.
        let measure_dispatch = |scratch: &mut Vec<f32>| {
            min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_blocked_with(m, k, n, &a, &b_mat, &mut out, scratch);
                },
                ITERS,
            )
        };
        let mut naive = measure_naive();
        let mut blocked = measure_dispatch(&mut scratch);
        // One re-measure before failing: minima are stable, but a CI host
        // can still hand an entire 15-iteration window to another process.
        if blocked > naive * 1.10 {
            naive = measure_naive();
            blocked = measure_dispatch(&mut scratch);
        }
        let selected = gemm_selected_kernel(m, k, n);
        println!(
            "smoke gemm {family}/{m}x{k}x{n} [{selected}]: naive {:.1}us dispatched {:.1}us \
             (speedup {:.2}x)",
            naive * 1e6,
            blocked * 1e6,
            naive / blocked
        );
        if blocked > naive * 1.10 {
            eprintln!(
                "FAIL: dispatched GEMM slower than naive at {family}/{m}x{k}x{n}: \
                 {blocked:.6}s vs {naive:.6}s"
            );
            status = 1;
        }
        // Selection gate: the register-tiled microkernel owns every
        // multi-row im2col shape in the bench set (all are far above the
        // packing amortization floor) — a threshold regression that
        // silently drops them back to the naive tier must fail CI, not
        // just lose throughput.
        if m >= 2 && selected != "micro" {
            eprintln!(
                "FAIL: microkernel not selected at {family}/{m}x{k}x{n} (got \"{selected}\")"
            );
            status = 1;
        }
    }

    // Panel gate: at the small-`n` shapes golden weight panels exist for,
    // the pre-packed GEMM must not be slower than packing per call
    // (minimum of three rounds, one re-measure).
    for &shape in &PANEL_SHAPES {
        let (m, k, n) = shape;
        let (mut per_call, mut panel) = panel_gemm_min_secs(shape, 3, ITERS);
        if panel > per_call {
            (per_call, panel) = panel_gemm_min_secs(shape, 3, ITERS);
        }
        println!(
            "smoke panel gemm {m}x{k}x{n}: per-call packing {:.1}us panel {:.1}us \
             (speedup {:.2}x)",
            per_call * 1e6,
            panel * 1e6,
            per_call / panel
        );
        if panel > per_call {
            eprintln!(
                "FAIL: panel GEMM slower than per-call packing at {m}x{k}x{n}: \
                 {panel:.6}s vs {per_call:.6}s"
            );
            status = 1;
        }
    }

    // In-place gate: at every stride-1 conv shape the path the rule picks
    // must not be more than 10% slower than the other path (minimum of
    // three rounds, one re-measure).
    for &(family, c_in, c_out, kernel, side) in &INDIRECT_SHAPES {
        let shape = (c_in, c_out, kernel, side);
        let picks_in_place = indirect_rule_picks(shape);
        let loses = |(im2col, in_place): (f64, f64)| {
            if picks_in_place {
                in_place > im2col * 1.10
            } else {
                im2col > in_place * 1.10
            }
        };
        let mut times = indirect_min_secs(shape, 3, ITERS);
        if loses(times) {
            times = indirect_min_secs(shape, 3, ITERS);
        }
        let (im2col, in_place) = times;
        let rule = if picks_in_place { "in-place" } else { "im2col" };
        println!(
            "smoke in-place {family}/{c_in}->{c_out} {kernel}x{kernel}@{side} [{rule}]: \
             im2col {:.1}us in-place {:.1}us (speedup {:.2}x)",
            im2col * 1e6,
            in_place * 1e6,
            im2col / in_place
        );
        if loses(times) {
            eprintln!(
                "FAIL: the in-place rule picks the slower path ({rule}) at \
                 {family}/{c_in}->{c_out} {kernel}x{kernel}@{side}: im2col {im2col:.6}s vs \
                 in-place {in_place:.6}s"
            );
            status = 1;
        }
    }

    // Small-plane gate: the rule must admit every reduced ResNet-20 conv,
    // and on each the direct kernel must not be more than 10% slower than
    // the path it replaced, one image or four images wide (minimum of
    // three rounds, one re-measure).
    for &shape in &SMALL_PLANE_SHAPES {
        let (c_in, c_out, side, stride) = shape;
        let conv = format!("{c_in}->{c_out} 3x3 s{stride}@{side}");
        if !small_plane_rule_picks(shape) {
            eprintln!("FAIL: the small-plane rule no longer admits {conv}");
            status = 1;
        }
        for images in [1, 4] {
            let (mut old, mut direct) = small_plane_min_secs(shape, images, 3, ITERS);
            if direct > old * 1.10 {
                (old, direct) = small_plane_min_secs(shape, images, 3, ITERS);
            }
            println!(
                "smoke small-plane {conv} x{images}: replaced path {:.1}us direct {:.1}us \
                 (speedup {:.2}x)",
                old * 1e6,
                direct * 1e6,
                old / direct
            );
            if direct > old * 1.10 {
                eprintln!(
                    "FAIL: the small-plane kernel is slower than the path it replaced at \
                     {conv} x{images}: {direct:.6}s vs {old:.6}s"
                );
                status = 1;
            }
        }
    }

    // Depthwise gate: the plane kernel must not lose to the scalar loop at
    // any MobileNetV2 depthwise shape (10% tolerance, one re-measure).
    for &(channels, side, stride) in &DEPTHWISE_SHAPES {
        let operands = depthwise_operands(channels, side, stride);
        let measure = || {
            (
                depthwise_min_secs(&operands, GemmKernel::Naive, ITERS),
                depthwise_min_secs(&operands, GemmKernel::Blocked, ITERS),
            )
        };
        let (mut scalar, mut plane) = measure();
        if plane > scalar * 1.10 {
            (scalar, plane) = measure();
        }
        println!(
            "smoke depthwise {channels}@{side}x{side} s{stride}: scalar {:.1}us plane {:.1}us \
             (speedup {:.2}x)",
            scalar * 1e6,
            plane * 1e6,
            scalar / plane
        );
        if plane > scalar * 1.10 {
            eprintln!(
                "FAIL: depthwise plane kernel slower than the scalar loop at \
                 {channels}@{side}x{side} s{stride}: {plane:.6}s vs {scalar:.6}s"
            );
            status = 1;
        }
    }

    // Fixed-size depthwise gate: on every shape the rule hands the
    // fixed-size kernel, it must not be more than 10% slower than the
    // plane kernel it replaces (min of rounds, one re-measure).
    for &(channels, side, stride) in &DEPTHWISE_SHAPES {
        let operands = depthwise_operands(channels, side, stride);
        let (input, weight, cfg) = &operands;
        if !ops::conv2d_depthwise_fixed(input, weight, *cfg) {
            continue;
        }
        let (mut plane, mut fixed) = depthwise_fixed_min_secs(&operands, 3, ITERS);
        if fixed > plane * 1.10 {
            (plane, fixed) = depthwise_fixed_min_secs(&operands, 3, ITERS);
        }
        println!(
            "smoke depthwise fixed-size {channels}@{side}x{side} s{stride}: plane {:.1}us \
             fixed {:.1}us (speedup {:.2}x)",
            plane * 1e6,
            fixed * 1e6,
            plane / fixed
        );
        if fixed > plane * 1.10 {
            eprintln!(
                "FAIL: fixed-size depthwise kernel slower than the plane kernel at \
                 {channels}@{side}x{side} s{stride}: {fixed:.6}s vs {plane:.6}s"
            );
            status = 1;
        }
    }

    // Batched-campaign gate: the compiled-plan batched forward must be
    // invisible in the results (classes and inference counts) and its
    // speedup over the per-image fast path is recorded for the CI log.
    let setup = resnet20_setup(Scale::Smoke);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults = bit_level_faults(&space, 1, 4);
    let fast = run_campaign(model, data, &golden, &faults, &fast_cfg()).unwrap();
    let batched = run_campaign(model, data, &golden, &faults, &batched_cfg()).unwrap();
    let fast_s = mean_secs(
        || {
            run_campaign(model, data, &golden, &faults, &fast_cfg()).unwrap();
        },
        ITERS,
    );
    let batched_s = mean_secs(
        || {
            run_campaign(model, data, &golden, &faults, &batched_cfg()).unwrap();
        },
        ITERS,
    );
    println!(
        "smoke campaign: per-image {:.1}ms batched {:.1}ms (speedup {:.2}x)",
        fast_s * 1e3,
        batched_s * 1e3,
        fast_s / batched_s
    );
    if fast.classes != batched.classes {
        eprintln!("FAIL: batched campaign classifications diverged from the per-image fast path");
        status = 1;
    }
    if fast.inferences != batched.inferences {
        eprintln!("FAIL: batched campaign inference counts diverged from the per-image fast path");
        status = 1;
    }

    // Dispatch-coverage gate: the plan's static suffix-flop rule must leave
    // the batched engine reachable (some layer's suffix is
    // batched-profitable), and faults on the deepest such layer must
    // actually route batched. A counter stuck at zero here is an engine
    // silently disabled by a cost-model constant.
    let weight_layers = model.weight_layers();
    let owned: Vec<usize> = (0..weight_layers.len())
        .filter(|&l| {
            model
                .node_of_param(weight_layers[l].param)
                .is_some_and(|n| golden.plan().batched_profitable(n))
        })
        .collect();
    match owned.last() {
        None => {
            eprintln!(
                "FAIL: the static cost model owns no layer for the batched engine \
                 (batched dispatch is dead at this scale)"
            );
            status = 1;
        }
        Some(&layer) => {
            let probe = bit_level_faults(&space, layer, 2);
            let r = run_campaign(model, data, &golden, &probe, &batched_cfg()).unwrap();
            println!(
                "smoke dispatch: {} of {} layers batched-owned; layer {layer} probe engines \
                 dense {} delta {} batched {}",
                owned.len(),
                weight_layers.len(),
                r.engine_dense,
                r.engine_delta,
                r.engine_batched
            );
            if r.engine_batched == 0 {
                eprintln!(
                    "FAIL: layer {layer} is batched-owned but no fault routed through the \
                     batched engine"
                );
                status = 1;
            }
        }
    }
    status
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let mut c = Criterion::default();
    bench_gemm(&mut c);
    bench_depthwise(&mut c);
    bench_campaign_fast_path(&mut c);
    // Machine-readable comparison (full bench runs only, so `cargo test`
    // smoke runs stay read-only).
    if std::env::args().any(|a| a == "--bench") {
        emit_bench_json();
    }
}
