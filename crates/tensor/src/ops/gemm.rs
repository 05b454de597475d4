/// Row-major matrix multiply: `c[m][n] += a[m][k] * b[k][n]`.
///
/// `c` must be zero-initialised (or hold a partial accumulation the caller
/// wants to extend). The loop order is `m, k, n` so the innermost loop
/// streams both `b` and `c` rows sequentially, which the compiler
/// auto-vectorises; this is the reference kernel of the `im2col`
/// convolution path and the baseline [`gemm_blocked`] must match
/// bit-for-bit.
///
/// # Panics
///
/// Panics when the slice lengths do not match `m*k` / `k*n` / `m*n` —
/// in release builds too, since a silent mis-multiply would corrupt fault
/// classifications.
///
/// `#[inline(never)]` is load-bearing for bit identity, not a perf tweak
/// (the loops dwarf one call). When an f32 add meets **two NaN operands
/// with different payloads**, x86 returns the *first* operand's payload —
/// and LLVM freely commutes `fadd` operands, so separately inlined copies
/// of this loop can disagree on which NaN survives an
/// accumulator-meets-term collision. One shared compiled copy pins one
/// operand order per code path; the same attribute guards the kernels
/// below.
///
/// One asymmetry survives even inside the single copy: the autovectorised
/// loop body and its scalar tail may commute the add differently, and
/// which columns land in the tail depends on `n`. This only matters when
/// a single accumulation chain holds **two distinct NaN payloads**
/// (observed: a `0.0 * -Inf` indefinite `0xFFC00000` meeting a propagated
/// `0x7FC00000` input NaN, flipping between the per-image `n = spatial`
/// and batched `n = images * spatial` calls at opt-level 2). Single-fault
/// campaigns cannot produce that state — one fault value yields one
/// payload family (a NaN fault propagates its own quietened payload and
/// creates no infinities; an Inf or overflow fault produces NaNs only via
/// `0 * Inf` / `Inf - Inf`, which are uniformly the `0xFFC00000`
/// indefinite) — so batched and per-image execution agree bit-for-bit
/// there, which is what the `kernel_bitident` and `plan_equivalence`
/// suites pin. Chains mixing two payload families (only reachable with
/// faults in *both* operands of one GEMM) keep value semantics but may
/// legitimately differ in which NaN payload survives.
#[inline(never)]
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: lhs length");
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    assert_eq!(c.len(), m * n, "gemm: out length");
    for mi in 0..m {
        let a_row = &a[mi * k..(mi + 1) * k];
        let c_row = &mut c[mi * n..(mi + 1) * n];
        // No zero-skipping here: `0.0 * NaN` must stay NaN so that faults
        // which drive activations to NaN/Inf propagate exactly as IEEE-754
        // arithmetic dictates.
        for (ki, &a_v) in a_row.iter().enumerate() {
            let b_row = &b[ki * n..(ki + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_v * b_v;
            }
        }
    }
}

/// Self-dispatching [`gemm`], bit-identical to the naive kernel.
///
/// Routes through the register-tiled microkernel layer
/// ([`gemm_micro`](super::gemm_micro) for `m >= 2`,
/// [`gemm_row_lanes`](super::gemm_row_lanes) for single-row problems) with
/// the naive loop retained for problems too small to amortize packing —
/// see [`gemm_selected_kernel`](super::gemm_selected_kernel) for the
/// policy and the `kernels` bench smoke gate for the
/// no-tier-slower-than-naive guarantee. Every tier accumulates each output
/// element's `k` partial products one at a time in increasing-`ki` order,
/// so the choice is invisible in the result bits (NaN/±Inf payloads
/// included; see the `kernel_bitident` proptests).
///
/// # Panics
///
/// Same length checks as [`gemm`].
pub fn gemm_blocked(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut packed = Vec::new();
    gemm_blocked_with(m, k, n, a, b, c, &mut packed);
}

/// [`gemm_blocked`] with a caller-provided panel buffer, for hot loops that
/// reuse the packing scratch across calls (the arena-backed conv path).
///
/// `packed` is resized as needed and holds unspecified contents on return.
///
/// # Panics
///
/// Same length checks as [`gemm`].
pub fn gemm_blocked_with(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    packed: &mut Vec<f32>,
) {
    super::microkernel::gemm_dispatch(m, k, n, a, b, c, packed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_matrix() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // 2x2 identity
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let mut c = vec![0.0; 6];
        gemm(2, 2, 3, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = vec![1.0];
        let b = vec![2.0];
        let mut c = vec![10.0];
        gemm(1, 1, 1, &a, &b, &mut c);
        assert_eq!(c, vec![12.0]);
    }

    #[test]
    fn rectangular_shapes() {
        // 1x3 * 3x2
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut c = vec![0.0; 2];
        gemm(1, 3, 2, &a, &b, &mut c);
        assert_eq!(c, vec![1.0 + 3.0, 2.0 + 3.0]);
    }

    #[test]
    #[should_panic(expected = "gemm: lhs length")]
    fn length_checks_hold_in_release() {
        let a = vec![0.0; 3];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
    }

    /// Deterministic pseudo-random fill touching negatives and varied
    /// magnitudes.
    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 1000) as f32 * 0.013 - 6.5
            })
            .collect()
    }

    #[test]
    fn blocked_takes_micro_path_above_floor_bitwise() {
        // Large enough that the dispatch leaves the naive tier (above the
        // microkernel's multiply floor) — gemm_blocked must tile and still
        // match bitwise.
        let (m, k, n) = (3usize, 520usize, 520usize);
        assert_eq!(crate::ops::gemm_selected_kernel(m, k, n), "micro");
        let a = fill(m * k, 4);
        let b = fill(k * n, 5);
        let mut c0 = fill(m * n, 6);
        let mut c1 = c0.clone();
        gemm(m, k, n, &a, &b, &mut c0);
        gemm_blocked(m, k, n, &a, &b, &mut c1);
        let same = c0.iter().zip(&c1).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "({m},{k},{n}) diverged");
    }
}
