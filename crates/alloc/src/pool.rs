//! Typed lock-free recycling pools for tensor buffers.
//!
//! A [`BufferPool<T>`] keeps 32 power-of-two *capacity* classes of
//! `Vec<T>` buffers in crossbeam [`SegQueue`]s (the same Michael–Scott
//! non-blocking queue family the paper cites). Getting a buffer pops
//! from the class queue or allocates; returning a buffer pushes it
//! back. Nothing is ever freed, so steady-state traffic does no
//! allocation at all. The training engine reaches these pools through
//! [`PoolSet`](crate::PoolSet), which fronts one shared `f32` chunk
//! pool for both real and complex tensor buffers and hands out RAII
//! leases instead of requiring explicit `put` calls.

use crate::class::{class_of, size_of_class, CLASS_COUNT};
use crate::stats::PoolStats;
use crossbeam_queue::SegQueue;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One row of a per-size-class occupancy report
/// ([`BufferPool::class_report`]): which classes a workload actually
/// touches, how well each recycles, and how many chunks sit parked.
#[derive(Clone, Copy, Debug)]
pub struct ClassReport {
    /// Class index (chunk capacity is `2^class` elements).
    pub class: usize,
    /// Elements per chunk in this class.
    pub chunk_len: usize,
    /// Chunks currently parked (leased out ones are not counted).
    pub parked: usize,
    /// Leases of this class served by recycling.
    pub hits: usize,
    /// Leases of this class that touched the system allocator.
    pub misses: usize,
}

impl ClassReport {
    /// Fraction of this class's leases served by recycling.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A lock-free pool of `Vec<T>` buffers in power-of-two capacity classes.
pub struct BufferPool<T> {
    classes: Vec<SegQueue<Vec<T>>>,
    stats: PoolStats,
    class_hits: Vec<AtomicUsize>,
    class_misses: Vec<AtomicUsize>,
}

impl<T: Copy + Default> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            classes: (0..CLASS_COUNT).map(|_| SegQueue::new()).collect(),
            stats: PoolStats::new(),
            class_hits: (0..CLASS_COUNT).map(|_| AtomicUsize::new(0)).collect(),
            class_misses: (0..CLASS_COUNT).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Fetches a zero-filled buffer of exactly `len` elements whose
    /// capacity is `len` rounded up to a power of two.
    pub fn get(&self, len: usize) -> Vec<T> {
        let class = class_of(len);
        let bytes = size_of_class(class) * std::mem::size_of::<T>();
        match self.classes[class].pop() {
            Some(mut buf) => {
                self.stats.record_hit(bytes);
                self.class_hits[class].fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf.resize(len, T::default());
                buf
            }
            None => {
                self.stats.record_miss(bytes);
                self.class_misses[class].fetch_add(1, Ordering::Relaxed);
                let mut buf = Vec::with_capacity(size_of_class(class));
                buf.resize(len, T::default());
                buf
            }
        }
    }

    /// Like [`BufferPool::get`] but returns the buffer **empty**
    /// (length 0, class capacity reserved): for callers that overwrite
    /// the full length anyway — pooled tensor clones — skipping the
    /// zero-fill halves the memory traffic. Accounted exactly like
    /// [`BufferPool::get`].
    pub fn get_empty(&self, len: usize) -> Vec<T> {
        let class = class_of(len);
        let bytes = size_of_class(class) * std::mem::size_of::<T>();
        match self.classes[class].pop() {
            Some(mut buf) => {
                self.stats.record_hit(bytes);
                self.class_hits[class].fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => {
                self.stats.record_miss(bytes);
                self.class_misses[class].fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(size_of_class(class))
            }
        }
    }

    /// Per-class occupancy and hit-rate rows, skipping classes the
    /// workload never touched.
    pub fn class_report(&self) -> Vec<ClassReport> {
        (0..CLASS_COUNT)
            .filter_map(|class| {
                let hits = self.class_hits[class].load(Ordering::Relaxed);
                let misses = self.class_misses[class].load(Ordering::Relaxed);
                let parked = self.classes[class].len();
                if hits + misses + parked == 0 {
                    return None;
                }
                Some(ClassReport {
                    class,
                    chunk_len: size_of_class(class),
                    parked,
                    hits,
                    misses,
                })
            })
            .collect()
    }

    /// Returns a buffer to its class pool. Buffers whose capacity is not
    /// a power of two (i.e. not born from this pool) are classed by the
    /// largest power of two they can hold, so nothing is wasted.
    pub fn put(&self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        // Class the buffer by guaranteed capacity: the largest class c
        // with size_of_class(c) <= capacity.
        let class = (usize::BITS - 1 - buf.capacity().leading_zeros()) as usize;
        let class = class.min(CLASS_COUNT - 1);
        self.stats
            .record_free(size_of_class(class) * std::mem::size_of::<T>());
        self.classes[class].push(buf);
    }

    /// Number of buffers currently parked in class `i`.
    pub fn parked_in_class(&self, class: usize) -> usize {
        self.classes[class].len()
    }

    /// Allocation counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }
}

impl<T: Copy + Default> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn buffers_are_recycled_within_class() {
        let pool = BufferPool::<f32>::new();
        let a = pool.get(100); // class 7 (128)
        assert_eq!(a.len(), 100);
        assert!(a.capacity() >= 128);
        pool.put(a);
        let _b = pool.get(120); // also class 7 -> must hit
        assert_eq!(pool.stats().hits(), 1);
        assert_eq!(pool.stats().misses(), 1);
    }

    #[test]
    fn recycled_buffers_are_zeroed() {
        let pool = BufferPool::<f32>::new();
        let mut buf = pool.get(64);
        buf.fill(7.0);
        pool.put(buf);
        let buf2 = pool.get(64);
        assert!(buf2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn footprint_never_decreases_but_plateaus() {
        let pool = BufferPool::<f32>::new();
        let mut footprints = vec![];
        for _round in 0..5 {
            // a training-like loop: allocate a working set, release it
            let bufs: Vec<_> = (1..6).map(|s| pool.get(s * s * s)).collect();
            for buf in bufs {
                pool.put(buf);
            }
            footprints.push(pool.stats().bytes_from_system());
        }
        // monotone...
        assert!(footprints.windows(2).all(|w| w[0] <= w[1]));
        // ...and flat after the first round ("memory usage peaks after a
        // few rounds", §VII-C)
        assert_eq!(footprints[1], footprints[4]);
    }

    #[test]
    fn different_classes_do_not_mix() {
        let pool = BufferPool::<f32>::new();
        pool.put(Vec::with_capacity(16)); // class 4
        let b = pool.get(1000); // class 10 -> miss
        assert_eq!(pool.stats().misses(), 1);
        assert_eq!(pool.stats().hits(), 0);
        drop(b);
        assert_eq!(pool.parked_in_class(4), 1);
    }

    #[test]
    fn class_report_tracks_only_touched_classes() {
        let pool = BufferPool::<f32>::new();
        let a = pool.get(100); // class 7: miss
        pool.put(a);
        let b = pool.get(120); // class 7: hit
        let c = pool.get(1000); // class 10: miss
        pool.put(b);
        pool.put(c);

        let report = pool.class_report();
        assert_eq!(report.len(), 2);
        let c7 = report.iter().find(|r| r.class == 7).unwrap();
        assert_eq!(c7.chunk_len, 128);
        assert_eq!((c7.hits, c7.misses, c7.parked), (1, 1, 1));
        assert!((c7.hit_rate() - 0.5).abs() < 1e-12);
        let c10 = report.iter().find(|r| r.class == 10).unwrap();
        assert_eq!((c10.hits, c10.misses, c10.parked), (0, 1, 1));
    }

    #[test]
    fn concurrent_get_put_is_safe_and_loses_nothing() {
        let pool = Arc::new(BufferPool::<f32>::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let s = 1 + (t + i) % 7;
                        let buf = pool.get(s * s * s);
                        pool.put(buf);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.stats().bytes_in_use(), 0);
        assert_eq!(pool.stats().hits() + pool.stats().misses(), 800);
    }
}
