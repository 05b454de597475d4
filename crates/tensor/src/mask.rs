//! Dirty-region masks for sparse delta propagation.
//!
//! A fault campaign represents a faulty activation as *golden + delta*: the
//! full tensor is materialized, but a [`DirtyMask`] records which parts may
//! differ bitwise from the golden activation. Delta-specialized kernels then
//! recompute only the dirty cone and leave every clean element as a plain
//! copy of golden — which is exact, because every clean element's dense
//! recomputation would read only bit-golden inputs and therefore reproduce
//! the golden bits.
//!
//! The mask is hierarchical in the sense the delta engine consumes it:
//! per *plane* (one `(image, channel)` feature map), then per spatial block
//! of [`DIRTY_BLOCK`] × [`DIRTY_BLOCK`] pixels. Rank-2 tensors (`[N, C]`
//! after global pooling, logits) degrade to one 1×1 block per plane.

use crate::{Shape, Tensor, TensorError};

/// Edge length, in pixels, of one spatial dirty block.
///
/// Four is a compromise between mask resolution (a single faulted pixel
/// dirties at most 4 neighbouring blocks after one 3×3 conv) and mask
/// overhead (a 32×32 feature map costs 64 bits per plane).
pub const DIRTY_BLOCK: usize = 4;

/// A per-plane, per-spatial-block dirty-region mask over one activation
/// tensor.
///
/// "Dirty" means *may differ bitwise from the golden activation*; clean
/// blocks are guaranteed bit-golden. The mask is deliberately conservative:
/// marking a clean block dirty costs only recomputation, while the reverse
/// would be unsound.
///
/// # Example
///
/// ```
/// use sfi_tensor::{DirtyMask, Shape};
///
/// let mut mask = DirtyMask::for_shape(Shape::new(&[1, 2, 8, 8])).unwrap();
/// assert!(mask.is_empty());
/// mask.mark_pixel(1, 3, 7);
/// assert!(mask.block_is_dirty(1, 0, 1));
/// assert_eq!(mask.dirty_blocks(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyMask {
    /// Number of `(image, channel)` planes (`N * C`).
    planes: usize,
    /// Spatial height in pixels (1 for rank-2 tensors).
    h: usize,
    /// Spatial width in pixels (1 for rank-2 tensors).
    w: usize,
    /// Blocks per column (`ceil(h / DIRTY_BLOCK)`).
    bh: usize,
    /// Blocks per row (`ceil(w / DIRTY_BLOCK)`).
    bw: usize,
    /// One bit per `(plane, block_y, block_x)`, packed little-endian.
    words: Vec<u64>,
    /// Cached population count of `words`.
    dirty: usize,
}

impl DirtyMask {
    /// An all-clean mask over `planes` feature maps of `h × w` pixels.
    pub fn clean(planes: usize, h: usize, w: usize) -> Self {
        let bh = h.div_ceil(DIRTY_BLOCK).max(1);
        let bw = w.div_ceil(DIRTY_BLOCK).max(1);
        let bits = planes * bh * bw;
        Self { planes, h, w, bh, bw, words: vec![0; bits.div_ceil(64)], dirty: 0 }
    }

    /// An all-clean mask matching `shape`: rank-4 `[N, C, H, W]` tensors get
    /// `N * C` planes of `H × W`; rank-2 `[N, C]` tensors get `N * C` planes
    /// of 1 × 1.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for other ranks.
    pub fn for_shape(shape: Shape) -> Result<Self, TensorError> {
        match shape.rank() {
            4 => Ok(Self::clean(shape.n() * shape.c(), shape.h(), shape.w())),
            2 => Ok(Self::clean(shape.dims()[0] * shape.dims()[1], 1, 1)),
            r => Err(TensorError::RankMismatch { op: "dirty_mask", expected: 4, actual: r }),
        }
    }

    /// A mask with exactly one dirty block: the block containing the flat
    /// `element` index of a tensor of `shape` — the seed of a transient
    /// activation fault's sparse cone.
    ///
    /// For rank-4 `[N, C, H, W]` tensors the element decomposes as
    /// `((n * C + c) * H + y) * W + x`; rank-2 tensors mark the element's
    /// own 1×1 plane.
    ///
    /// # Errors
    ///
    /// Same rank conditions as [`DirtyMask::for_shape`];
    /// [`TensorError::LengthMismatch`] when `element` is out of range.
    pub fn single_site(shape: Shape, element: usize) -> Result<Self, TensorError> {
        let mut mask = Self::for_shape(shape)?;
        let plane_len = mask.h * mask.w;
        let total = mask.planes * plane_len;
        if element >= total {
            return Err(TensorError::LengthMismatch { shape, len: element });
        }
        let plane = element / plane_len;
        let within = element % plane_len;
        mask.mark_pixel(plane, within / mask.w, within % mask.w);
        Ok(mask)
    }

    /// Number of `(image, channel)` planes.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Spatial height in pixels.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Spatial width in pixels.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Blocks per column.
    pub fn blocks_h(&self) -> usize {
        self.bh
    }

    /// Blocks per row.
    pub fn blocks_w(&self) -> usize {
        self.bw
    }

    /// Whether no block is dirty — the delta is empty and the tensor is
    /// provably bit-golden.
    pub fn is_empty(&self) -> bool {
        self.dirty == 0
    }

    /// Number of dirty blocks.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty
    }

    /// Total number of blocks (`planes * blocks_h * blocks_w`).
    pub fn total_blocks(&self) -> usize {
        self.planes * self.bh * self.bw
    }

    /// Dirty fraction in `[0, 1]`; 0 for an empty (zero-plane) mask.
    pub fn dirty_fraction(&self) -> f64 {
        let total = self.total_blocks();
        if total == 0 {
            0.0
        } else {
            self.dirty as f64 / total as f64
        }
    }

    fn bit(&self, plane: usize, by: usize, bx: usize) -> usize {
        debug_assert!(plane < self.planes && by < self.bh && bx < self.bw);
        (plane * self.bh + by) * self.bw + bx
    }

    /// Whether block `(by, bx)` of `plane` is dirty.
    pub fn block_is_dirty(&self, plane: usize, by: usize, bx: usize) -> bool {
        let bit = self.bit(plane, by, bx);
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Marks block `(by, bx)` of `plane` dirty; idempotent.
    pub fn mark_block(&mut self, plane: usize, by: usize, bx: usize) {
        let bit = self.bit(plane, by, bx);
        let word = &mut self.words[bit / 64];
        let m = 1u64 << (bit % 64);
        if *word & m == 0 {
            *word |= m;
            self.dirty += 1;
        }
    }

    /// Marks the block containing pixel `(y, x)` of `plane` dirty.
    pub fn mark_pixel(&mut self, plane: usize, y: usize, x: usize) {
        self.mark_block(plane, y / DIRTY_BLOCK, x / DIRTY_BLOCK);
    }

    /// Whether any block of `plane` is dirty.
    pub fn plane_is_dirty(&self, plane: usize) -> bool {
        (0..self.bh).any(|by| (0..self.bw).any(|bx| self.block_is_dirty(plane, by, bx)))
    }

    /// Whether any block in the (clipped) rectangle
    /// `[by0, by1) × [bx0, bx1)` of `plane` is dirty.
    pub fn any_in(&self, plane: usize, by0: usize, by1: usize, bx0: usize, bx1: usize) -> bool {
        let by1 = by1.min(self.bh);
        let bx1 = bx1.min(self.bw);
        (by0..by1).any(|by| (bx0..bx1).any(|bx| self.block_is_dirty(plane, by, bx)))
    }

    /// The pixel rows spanned by the dirty blocks of every plane: from the
    /// first dirty block row's first pixel row to the last one's last,
    /// clipped to the plane. Empty for a clean mask.
    pub fn dirty_rows(&self) -> std::ops::Range<usize> {
        let dirty_row = |by: usize| {
            (0..self.planes).any(|p| (0..self.bw).any(|bx| self.block_is_dirty(p, by, bx)))
        };
        let Some(first) = (0..self.bh).find(|&by| dirty_row(by)) else { return 0..0 };
        let last = (first..self.bh).rev().find(|&by| dirty_row(by)).expect("first is dirty");
        first * DIRTY_BLOCK..((last + 1) * DIRTY_BLOCK).min(self.h)
    }

    /// Pixel bounds `(y0, y1, x0, x1)` of block `(by, bx)`, clipped to the
    /// plane.
    pub fn block_pixels(&self, by: usize, bx: usize) -> (usize, usize, usize, usize) {
        let y0 = by * DIRTY_BLOCK;
        let x0 = bx * DIRTY_BLOCK;
        (y0, (y0 + DIRTY_BLOCK).min(self.h), x0, (x0 + DIRTY_BLOCK).min(self.w))
    }

    /// Unions `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics when the geometries differ — callers union masks of the same
    /// activation shape only (residual joins).
    pub fn union_with(&mut self, other: &DirtyMask) {
        assert_eq!(
            (self.planes, self.bh, self.bw),
            (other.planes, other.bh, other.bw),
            "dirty-mask union over mismatched geometries"
        );
        self.dirty = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
            self.dirty += w.count_ones() as usize;
        }
    }

    /// Whether this mask's geometry matches `tensor`'s shape under the
    /// [`DirtyMask::for_shape`] convention.
    pub fn matches(&self, tensor: &Tensor) -> bool {
        let shape = tensor.shape();
        match shape.rank() {
            4 => self.planes == shape.n() * shape.c() && self.h == shape.h() && self.w == shape.w(),
            2 => self.planes == shape.dims()[0] * shape.dims()[1] && self.h == 1 && self.w == 1,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_mask_is_empty() {
        let m = DirtyMask::clean(4, 8, 8);
        assert!(m.is_empty());
        assert_eq!(m.dirty_blocks(), 0);
        assert_eq!(m.total_blocks(), 4 * 2 * 2);
        assert_eq!(m.dirty_fraction(), 0.0);
    }

    #[test]
    fn for_shape_rank4_and_rank2() {
        let m4 = DirtyMask::for_shape(Shape::new(&[2, 3, 9, 5])).unwrap();
        assert_eq!(m4.planes(), 6);
        assert_eq!((m4.blocks_h(), m4.blocks_w()), (3, 2));
        let m2 = DirtyMask::for_shape(Shape::new(&[2, 10])).unwrap();
        assert_eq!(m2.planes(), 20);
        assert_eq!((m2.blocks_h(), m2.blocks_w()), (1, 1));
        assert!(DirtyMask::for_shape(Shape::new(&[3])).is_err());
    }

    #[test]
    fn mark_and_query_blocks() {
        let mut m = DirtyMask::clean(2, 8, 8);
        m.mark_pixel(1, 7, 0);
        assert!(m.block_is_dirty(1, 1, 0));
        assert!(!m.block_is_dirty(0, 1, 0));
        assert!(m.plane_is_dirty(1));
        assert!(!m.plane_is_dirty(0));
        m.mark_pixel(1, 7, 1); // same block: idempotent
        assert_eq!(m.dirty_blocks(), 1);
    }

    #[test]
    fn any_in_clips_ranges() {
        let mut m = DirtyMask::clean(1, 8, 8);
        m.mark_block(0, 1, 1);
        assert!(m.any_in(0, 0, 99, 0, 99));
        assert!(m.any_in(0, 1, 2, 1, 2));
        assert!(!m.any_in(0, 0, 1, 0, 2));
        assert!(!m.any_in(0, 2, 1, 0, 2), "empty range is clean");
    }

    #[test]
    fn block_pixels_clip_to_plane() {
        let m = DirtyMask::clean(1, 6, 9);
        assert_eq!(m.block_pixels(0, 0), (0, 4, 0, 4));
        assert_eq!(m.block_pixels(1, 2), (4, 6, 8, 9));
    }

    #[test]
    fn dirty_rows_span_the_dirty_block_rows_of_every_plane() {
        let mut m = DirtyMask::clean(3, 10, 9);
        assert_eq!(m.dirty_rows(), 0..0);
        m.mark_pixel(2, 5, 8);
        assert_eq!(m.dirty_rows(), 4..8);
        m.mark_pixel(0, 9, 0);
        assert_eq!(m.dirty_rows(), 4..10, "clipped to the plane's 10 rows");
        m.mark_pixel(1, 0, 3);
        assert_eq!(m.dirty_rows(), 0..10);
    }

    #[test]
    fn union_accumulates() {
        let mut a = DirtyMask::clean(1, 8, 8);
        let mut b = DirtyMask::clean(1, 8, 8);
        a.mark_block(0, 0, 0);
        b.mark_block(0, 0, 0);
        b.mark_block(0, 1, 1);
        a.union_with(&b);
        assert_eq!(a.dirty_blocks(), 2);
        assert!(a.block_is_dirty(0, 1, 1));
    }

    #[test]
    #[should_panic(expected = "mismatched geometries")]
    fn union_rejects_mismatched_geometry() {
        let mut a = DirtyMask::clean(1, 8, 8);
        a.union_with(&DirtyMask::clean(2, 8, 8));
    }

    #[test]
    fn single_site_marks_one_block_rank4() {
        // Element ((0*2 + 1)*8 + 5)*8 + 6 → plane 1, pixel (5, 6) → block (1, 1).
        let m = DirtyMask::single_site(Shape::new(&[1, 2, 8, 8]), (8 + 5) * 8 + 6).unwrap();
        assert_eq!(m.dirty_blocks(), 1);
        assert!(m.block_is_dirty(1, 1, 1));
        assert!(!m.plane_is_dirty(0));
    }

    #[test]
    fn single_site_marks_one_plane_rank2() {
        let m = DirtyMask::single_site(Shape::new(&[2, 10]), 13).unwrap();
        assert_eq!(m.dirty_blocks(), 1);
        assert!(m.block_is_dirty(13, 0, 0));
    }

    #[test]
    fn single_site_rejects_out_of_range() {
        assert!(DirtyMask::single_site(Shape::new(&[1, 1, 4, 4]), 16).is_err());
        assert!(DirtyMask::single_site(Shape::new(&[1, 1, 4, 4]), 15).is_ok());
    }

    #[test]
    fn matches_follows_for_shape_convention() {
        let t4 = Tensor::zeros([2, 3, 8, 8]);
        let m = DirtyMask::for_shape(t4.shape()).unwrap();
        assert!(m.matches(&t4));
        assert!(!m.matches(&Tensor::zeros([2, 3, 8, 4])));
        let t2 = Tensor::zeros([4, 10]);
        assert!(DirtyMask::for_shape(t2.shape()).unwrap().matches(&t2));
    }
}
