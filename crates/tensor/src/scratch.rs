//! Reusable `f32` scratch buffers for allocation-free inner loops.
//!
//! Fault campaigns evaluate thousands of faults per worker, and every
//! incremental re-execution historically allocated fresh im2col columns,
//! GEMM outputs, and intermediate activation tensors — only to free them a
//! few microseconds later. [`ScratchArena`] is a per-worker free list that
//! recycles those buffers across faults: `take` hands out a buffer (reusing
//! the best-fitting retired one), `recycle` returns it. The arena is
//! deliberately *not* thread-safe; each campaign worker owns one.

/// A free list of `f32` buffers with byte accounting.
///
/// # Example
///
/// ```
/// use sfi_tensor::ScratchArena;
///
/// let mut arena = ScratchArena::new();
/// let buf = arena.take_zeroed(128);
/// assert!(buf.iter().all(|&v| v == 0.0));
/// arena.recycle(buf);
/// // The next take of a fitting size reuses the retired allocation.
/// let again = arena.take(64);
/// assert!(again.capacity() >= 128);
/// assert!(arena.peak_bytes() >= 128 * 4);
/// ```
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Vec<Vec<f32>>,
    /// Bytes currently loaned out through `take`.
    loaned_bytes: usize,
    /// Bytes parked on the free list.
    free_bytes: usize,
    /// High-water mark of `loaned_bytes + free_bytes`.
    peak_bytes: usize,
    /// Non-empty `take` requests served over the arena's lifetime.
    takes: u64,
    /// `take` requests served from a recycled buffer (no allocation).
    reuses: u64,
}

/// Cumulative usage counters of one [`ScratchArena`], for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Non-empty buffer requests served.
    pub takes: u64,
    /// Requests served from a recycled buffer (no allocation).
    pub reuses: u64,
    /// High-water mark of bytes owned by or loaned from the arena.
    pub peak_bytes: u64,
}

/// Maximum number of parked buffers; beyond this, [`ScratchArena::recycle`]
/// keeps only the largest.
///
/// The weight-fault suffixes and the transient delta engine return each
/// activation once its last reader has run, so their working set stays
/// well under the cap. Traced benchmark runs (seed 1, 2-core host) read
/// `faultsim.arena_reuse_ratio` 0.9992 on MobileNetV2 (arena peak
/// 2.45 MB), 0.9999 on the data-aware ResNet-20 (1.43 MB), 1.0 on the
/// batched micro ResNet-20 (0.37 MB) and 0.9998 on the transient
/// ResNet-20 (1.38 MB). The cap stays because callers also
/// recycle buffers they never took — the outputs of ops that allocate their
/// own, such as pooling and linear layers — so an uncapped free list, and
/// the best-fit scan over it, would grow across a campaign's thousands of
/// faults.
const MAX_FREE: usize = 32;

fn bytes_of(capacity: usize) -> usize {
    capacity * std::mem::size_of::<f32>()
}

impl ScratchArena {
    /// An empty arena holding no buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a buffer of exactly `len` elements with **unspecified
    /// contents** — the caller must overwrite every element before reading.
    ///
    /// Reuses the smallest free buffer whose capacity fits, or allocates.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            // Don't burn a parked buffer on a zero-length request (e.g. a
            // GEMM packing scratch that may never be used).
            return Vec::new();
        }
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|j| buf.capacity() < self.free[j].capacity())
            {
                best = Some(i);
            }
        }
        self.takes += 1;
        let mut v = match best {
            Some(i) => {
                self.reuses += 1;
                let v = self.free.swap_remove(i);
                self.free_bytes = self.free_bytes.saturating_sub(bytes_of(v.capacity()));
                v
            }
            None => Vec::with_capacity(len),
        };
        // `resize` only writes the grown tail; recycled prefixes keep stale
        // values, which is the documented contract.
        v.resize(len, 0.0);
        self.loaned_bytes += bytes_of(v.capacity());
        self.peak_bytes = self.peak_bytes.max(self.loaned_bytes + self.free_bytes);
        v
    }

    /// Borrows a buffer of `len` zeros — for GEMM accumulators and other
    /// consumers that read before (or while) writing.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take(len);
        v.fill(0.0);
        v
    }

    /// Returns a buffer to the free list for later reuse.
    ///
    /// The list is capped at `MAX_FREE` buffers, keeping the largest ones:
    /// once full, the buffer is simply dropped unless it beats the smallest
    /// parked buffer (which is dropped in its place).
    pub fn recycle(&mut self, buf: Vec<f32>) {
        let b = bytes_of(buf.capacity());
        self.loaned_bytes = self.loaned_bytes.saturating_sub(b);
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() >= MAX_FREE {
            let (i, min_cap) = self
                .free
                .iter()
                .enumerate()
                .map(|(i, v)| (i, v.capacity()))
                .min_by_key(|&(_, cap)| cap)
                .expect("free list is nonempty at the cap");
            if buf.capacity() <= min_cap {
                return;
            }
            let dropped = std::mem::replace(&mut self.free[i], buf);
            self.free_bytes = (self.free_bytes + b).saturating_sub(bytes_of(dropped.capacity()));
        } else {
            self.free_bytes += b;
            self.free.push(buf);
        }
        self.peak_bytes = self.peak_bytes.max(self.loaned_bytes + self.free_bytes);
    }

    /// High-water mark of bytes owned by or loaned from this arena.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of buffers currently parked on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Cumulative usage counters (monotone over the arena's lifetime).
    pub fn stats(&self) -> ArenaStats {
        ArenaStats { takes: self.takes, reuses: self.reuses, peak_bytes: self.peak_bytes as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_requested_length() {
        let mut arena = ScratchArena::new();
        assert_eq!(arena.take(10).len(), 10);
        assert_eq!(arena.take(0).len(), 0);
    }

    #[test]
    fn recycle_then_take_reuses_allocation() {
        let mut arena = ScratchArena::new();
        let buf = arena.take(100);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        arena.recycle(buf);
        assert_eq!(arena.free_buffers(), 1);
        let again = arena.take(40);
        assert_eq!(again.len(), 40);
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr, "must reuse the retired buffer");
        assert_eq!(arena.free_buffers(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut arena = ScratchArena::new();
        let big = arena.take(1000);
        let small = arena.take(50);
        let (big_cap, small_cap) = (big.capacity(), small.capacity());
        arena.recycle(big);
        arena.recycle(small);
        let got = arena.take(30);
        assert_eq!(got.capacity(), small_cap.min(big_cap));
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut arena = ScratchArena::new();
        let mut buf = arena.take(8);
        buf.fill(7.5);
        arena.recycle(buf);
        let clean = arena.take_zeroed(8);
        assert!(clean.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn free_list_is_capped_keeping_largest() {
        let mut arena = ScratchArena::new();
        // Fill the list with buffers of increasing size.
        let bufs: Vec<_> = (0..MAX_FREE).map(|i| arena.take(8 + i)).collect();
        for b in bufs {
            arena.recycle(b);
        }
        assert_eq!(arena.free_buffers(), MAX_FREE);
        // A tiny buffer at the cap is dropped outright.
        arena.recycle(Vec::with_capacity(1));
        assert_eq!(arena.free_buffers(), MAX_FREE);
        assert!(arena.take(1).capacity() >= 8, "tiny buffer must not be parked");
        // A large buffer evicts the smallest parked one.
        let huge = Vec::with_capacity(10_000);
        arena.recycle(huge);
        assert_eq!(arena.free_buffers(), MAX_FREE);
        assert_eq!(arena.take(10_000).capacity(), 10_000);
    }

    #[test]
    fn zero_length_take_and_recycle_leave_list_alone() {
        let mut arena = ScratchArena::new();
        let parked = arena.take(64);
        arena.recycle(parked);
        assert_eq!(arena.free_buffers(), 1);
        let empty = arena.take(0);
        assert_eq!(empty.capacity(), 0);
        assert_eq!(arena.free_buffers(), 1, "take(0) must not steal a parked buffer");
        arena.recycle(empty);
        assert_eq!(arena.free_buffers(), 1, "capacity-0 buffers are not parked");
    }

    #[test]
    fn stats_count_takes_and_reuses() {
        let mut arena = ScratchArena::new();
        let a = arena.take(64);
        arena.recycle(a);
        let _ = arena.take(32); // served from the recycled buffer
        let _ = arena.take(0); // zero-length: not counted
        let stats = arena.stats();
        assert_eq!(stats.takes, 2);
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.peak_bytes, arena.peak_bytes() as u64);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut arena = ScratchArena::new();
        let a = arena.take(100);
        let b = arena.take(200);
        let peak = arena.peak_bytes();
        assert!(peak >= (a.capacity() + b.capacity()) * 4);
        arena.recycle(a);
        arena.recycle(b);
        // Recycling never lowers the peak.
        assert!(arena.peak_bytes() >= peak);
        // Reusing a parked buffer does not raise it either.
        let _ = arena.take(100);
        assert_eq!(arena.peak_bytes(), peak.max(arena.peak_bytes()));
    }
}
