//! Allocation accounting used by the §IX-B memory experiments.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Monotonic counters describing a pool's behaviour.
///
/// `bytes_from_system` never decreases — the paper's allocators never
/// return memory to the OS — so it equals the peak footprint attributable
/// to the pool. `bytes_in_use` tracks live chunks; the difference is the
/// recycling reserve.
#[derive(Debug, Default)]
pub struct PoolStats {
    bytes_from_system: AtomicUsize,
    bytes_in_use: AtomicUsize,
    peak_bytes_in_use: AtomicUsize,
    bytes_leased: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl PoolStats {
    /// A zeroed counter set.
    pub const fn new() -> Self {
        PoolStats {
            bytes_from_system: AtomicUsize::new(0),
            bytes_in_use: AtomicUsize::new(0),
            peak_bytes_in_use: AtomicUsize::new(0),
            bytes_leased: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Records a pool hit (chunk recycled) of `bytes`.
    pub fn record_hit(&self, bytes: usize) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.grow_in_use(bytes);
    }

    /// Records a pool miss (chunk fetched from the system) of `bytes`.
    pub fn record_miss(&self, bytes: usize) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes_from_system.fetch_add(bytes, Ordering::Relaxed);
        self.grow_in_use(bytes);
    }

    /// Records a chunk of `bytes` going back on the pool. Saturates at
    /// zero, so a donated (never-leased) buffer cannot drive the
    /// counter negative — but while other leases are live it *does*
    /// make `bytes_in_use` under-count by the donated class size, so
    /// accounting-exact callers must only return buffers whose lease
    /// was recorded here (manual `BufferPool::put` donations trade a
    /// little accuracy for convenience).
    pub fn record_free(&self, bytes: usize) {
        let _ = self
            .bytes_in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    fn grow_in_use(&self, bytes: usize) {
        self.bytes_leased.fetch_add(bytes, Ordering::Relaxed);
        let now = self.bytes_in_use.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes_in_use.fetch_max(now, Ordering::Relaxed);
    }

    /// Total bytes ever obtained from the system allocator (== footprint,
    /// since nothing is ever given back).
    pub fn bytes_from_system(&self) -> usize {
        self.bytes_from_system.load(Ordering::Relaxed)
    }

    /// Bytes currently handed out to callers.
    pub fn bytes_in_use(&self) -> usize {
        self.bytes_in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of [`PoolStats::bytes_in_use`].
    pub fn peak_bytes_in_use(&self) -> usize {
        self.peak_bytes_in_use.load(Ordering::Relaxed)
    }

    /// Cumulative bytes handed out over the pool's lifetime (hits and
    /// misses alike) — the **allocation churn** the pool absorbs. The
    /// per-round delta of this counter is what the benches quote as
    /// "bytes moved per round"; with a warm pool the same churn costs
    /// zero system allocation.
    pub fn bytes_leased(&self) -> usize {
        self.bytes_leased.load(Ordering::Relaxed)
    }

    /// Number of requests served by recycling.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that had to touch the system allocator.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_a_simple_lifecycle() {
        let s = PoolStats::new();
        s.record_miss(64);
        assert_eq!(s.bytes_from_system(), 64);
        assert_eq!(s.bytes_in_use(), 64);
        s.record_free(64);
        assert_eq!(s.bytes_in_use(), 0);
        s.record_hit(64);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        // footprint did not grow on the hit
        assert_eq!(s.bytes_from_system(), 64);
        assert_eq!(s.peak_bytes_in_use(), 64);
    }

    #[test]
    fn peak_tracks_high_water() {
        let s = PoolStats::new();
        s.record_miss(10);
        s.record_miss(30); // high water: 40
        s.record_free(30);
        s.record_hit(10); // back to 20, peak unchanged
        assert_eq!(s.peak_bytes_in_use(), 40);
        assert_eq!(s.bytes_in_use(), 20);
    }

    #[test]
    fn free_saturates_at_zero() {
        let s = PoolStats::new();
        s.record_free(100);
        assert_eq!(s.bytes_in_use(), 0);
    }
}
