//! Pooled tensor storage: buffers leased from a recycler and pushed
//! back on drop.
//!
//! ZNN's training loop allocates and frees large image and spectrum
//! buffers constantly — one padded image, one half-spectrum and one
//! product spectrum per FFT convolution, every round. The paper (§VII-C)
//! avoids the `malloc` cost with pooled power-of-two allocators that
//! never return memory to the OS. This module is the tensor-side half of
//! that design: a [`Tensor3`](crate::Tensor3) can carry, next to its
//! `Vec<T>` buffer, a handle to the [`BufferSource`] the buffer was
//! leased from. When the tensor is dropped the buffer is **recycled**
//! into the source instead of freed — an RAII lease, invisible to every
//! consumer of the tensor API.
//!
//! The actual pools live in `znn-alloc` (`BufferPool` / `PoolSet`),
//! which implements [`BufferSource`]; this crate only defines the
//! contract so the dependency arrow keeps pointing from the allocator
//! to the tensor substrate.
//!
//! Pooled-ness **propagates through clones**: cloning a leased tensor
//! leases a fresh buffer from the same source, so chains like
//! `spectrum.clone()`-then-multiply (the frequency-domain convolution
//! kernel) stay allocation-free in the steady state. Conversions that
//! take the raw `Vec` out ([`Tensor3::into_vec`](crate::Tensor3::into_vec))
//! detach the buffer from its source; the caller owns it outright.

use std::mem::ManuallyDrop;
use std::sync::Arc;

/// A recycler of `Vec<T>` buffers — the contract between tensors and
/// the pooled allocators of `znn-alloc`.
///
/// Implementations must hand out **zero-filled** buffers of exactly the
/// requested length (capacity may be larger, e.g. rounded up to a
/// power-of-two size class) and accept any buffer back, including ones
/// they did not lease.
pub trait BufferSource<T>: Send + Sync {
    /// A zero-filled buffer of exactly `len` elements.
    fn lease(&self, len: usize) -> Vec<T>;
    /// An **empty** buffer (length 0) with capacity for at least `len`
    /// elements — for callers that overwrite the full length anyway
    /// (pooled clones), skipping the zero-fill of [`BufferSource::lease`]
    /// halves the memory traffic. The default falls back to
    /// lease-then-clear; pool implementations override it to skip the
    /// fill entirely.
    fn lease_empty(&self, len: usize) -> Vec<T> {
        let mut v = self.lease(len);
        v.clear();
        v
    }
    /// Takes a buffer back for future leases.
    fn recycle(&self, buf: Vec<T>);
}

/// A tensor buffer plus the optional [`BufferSource`] it was leased
/// from. Dropping pooled storage recycles the buffer; dropping plain
/// storage frees it like any `Vec`.
pub(crate) struct Storage<T> {
    /// `ManuallyDrop` so [`Drop`] can move the `Vec` out and hand it to
    /// the recycler by value.
    data: ManuallyDrop<Vec<T>>,
    home: Option<Arc<dyn BufferSource<T>>>,
}

impl<T> Storage<T> {
    /// Plain (unpooled) storage over an owned buffer.
    pub fn raw(data: Vec<T>) -> Self {
        Storage {
            data: ManuallyDrop::new(data),
            home: None,
        }
    }

    /// Storage leased from `home`: the buffer returns there on drop.
    pub fn leased(home: Arc<dyn BufferSource<T>>, len: usize) -> Self {
        Storage {
            data: ManuallyDrop::new(home.lease(len)),
            home: Some(home),
        }
    }

    /// The source this buffer returns to on drop, if any.
    pub fn home(&self) -> Option<&Arc<dyn BufferSource<T>>> {
        self.home.as_ref()
    }

    /// Consumes the storage, returning the raw buffer. The buffer
    /// leaves its source's custody — it will be freed normally.
    pub fn into_vec(mut self) -> Vec<T> {
        self.home = None;
        // SAFETY: `self` is forgotten right after, so `Drop` never runs
        // and the Vec is moved out exactly once.
        let v = unsafe { ManuallyDrop::take(&mut self.data) };
        std::mem::forget(self);
        v
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl<T> Drop for Storage<T> {
    fn drop(&mut self) {
        // SAFETY: `data` is taken exactly once; nothing reads it after.
        let v = unsafe { ManuallyDrop::take(&mut self.data) };
        if let Some(home) = self.home.take() {
            home.recycle(v);
        }
        // else: v drops here, freeing the buffer as usual
    }
}

impl<T: Clone> Clone for Storage<T> {
    /// Pooled storage clones to pooled storage **from the same
    /// source** (a fresh lease, overwritten with this buffer's
    /// contents), so no clone in a steady-state loop grows the
    /// process footprint. Plain storage clones to plain storage.
    fn clone(&self) -> Self {
        match &self.home {
            Some(home) => {
                // empty lease + extend: single write pass, no zero-fill
                let mut v = home.lease_empty(self.data.len());
                v.extend_from_slice(&self.data);
                Storage {
                    data: ManuallyDrop::new(v),
                    home: Some(Arc::clone(home)),
                }
            }
            None => Storage::raw((*self.data).clone()),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage")
            .field("data", &self.as_slice())
            .field("pooled", &self.home.is_some())
            .finish()
    }
}

impl<T: PartialEq> PartialEq for Storage<T> {
    /// Equality compares contents only — where a buffer returns on drop
    /// is an allocation detail, not part of the tensor's value.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A counting recycler: leases fresh zeroed buffers, stashes
    /// recycled ones.
    #[derive(Default)]
    struct Stash {
        leases: AtomicUsize,
        returned: Mutex<Vec<Vec<f32>>>,
    }

    impl BufferSource<f32> for Stash {
        fn lease(&self, len: usize) -> Vec<f32> {
            self.leases.fetch_add(1, Ordering::SeqCst);
            self.returned
                .lock()
                .unwrap()
                .pop()
                .map(|mut v| {
                    v.clear();
                    v.resize(len, 0.0);
                    v
                })
                .unwrap_or_else(|| vec![0.0; len])
        }
        fn recycle(&self, buf: Vec<f32>) {
            self.returned.lock().unwrap().push(buf);
        }
    }

    #[test]
    fn drop_recycles_leased_storage() {
        let stash = Arc::new(Stash::default());
        let s = Storage::leased(stash.clone() as Arc<dyn BufferSource<f32>>, 8);
        assert_eq!(s.len(), 8);
        assert!(s.as_slice().iter().all(|&v| v == 0.0));
        drop(s);
        assert_eq!(stash.returned.lock().unwrap().len(), 1);
    }

    #[test]
    fn drop_frees_raw_storage_without_recycling() {
        let stash = Arc::new(Stash::default());
        drop(Storage::raw(vec![1.0f32; 4]));
        assert_eq!(stash.returned.lock().unwrap().len(), 0);
    }

    #[test]
    fn clone_of_pooled_storage_stays_pooled_and_equal() {
        let stash = Arc::new(Stash::default());
        let mut a = Storage::leased(stash.clone() as Arc<dyn BufferSource<f32>>, 4);
        a.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(b.home().is_some());
        assert_eq!(stash.leases.load(Ordering::SeqCst), 2);
        drop(a);
        drop(b);
        assert_eq!(stash.returned.lock().unwrap().len(), 2);
    }

    #[test]
    fn into_vec_detaches_from_the_source() {
        let stash = Arc::new(Stash::default());
        let s = Storage::leased(stash.clone() as Arc<dyn BufferSource<f32>>, 4);
        let v = s.into_vec();
        assert_eq!(v.len(), 4);
        drop(v);
        assert_eq!(stash.returned.lock().unwrap().len(), 0);
    }

    #[test]
    fn recycled_buffers_serve_later_leases() {
        let stash = Arc::new(Stash::default());
        let home = stash.clone() as Arc<dyn BufferSource<f32>>;
        drop(Storage::leased(Arc::clone(&home), 16));
        let s = Storage::leased(home, 10);
        // the stashed 16-element buffer was reused (capacity kept)
        assert_eq!(s.len(), 10);
        assert_eq!(stash.returned.lock().unwrap().len(), 0);
    }
}
