//! Pooled power-of-two memory allocators (ZNN paper §VII-C).
//!
//! ZNN avoids the cost of general-purpose `malloc` on its hot path with
//! two custom allocators — one for large 3D images, one for the small
//! objects of auxiliary data structures. Each keeps **32 global pools of
//! memory chunks**, pool *i* holding chunks of exactly 2^*i* bytes,
//! backed by non-blocking queues. Requests round up to the next power of
//! two; frees push the chunk back onto its pool; **memory is never
//! returned to the operating system**, so the process footprint peaks
//! after a few training rounds and stays flat (at a worst-case ≈2×
//! overhead).
//!
//! This crate reproduces that design at two levels:
//!
//! * [`PoolSet`] — **what the training engine uses.** One shared,
//!   lock-free chunk pool wearing two `znn_tensor::BufferSource` faces
//!   (real and complex), so every hot-path `Tensor3`/`Spectrum` buffer
//!   — padded images, half-spectra, product spectra, FFT scratch,
//!   cropped outputs, dropout masks — is *leased* and returns to the
//!   pool when the tensor drops (an RAII lease; see
//!   `znn_tensor::storage`). `TrainConfig::pools` routes the process-
//!   wide [`PoolSet::global`] through `FftEngine`, `znn-core` and the
//!   `znn-ops` convolvers, making steady-state training rounds
//!   allocation-free.
//! * [`BufferPool`] — the typed, lock-free (crossbeam
//!   [`SegQueue`](crossbeam_queue::SegQueue)) recycling pool the
//!   `PoolSet` is built from, also usable directly with explicit
//!   `get`/`put` of `Vec` buffers.
//!
//! Both report [`PoolStats`] — hits, misses, resident and churn bytes —
//! so the §IX-B memory experiments (and `RoundStats` / `BENCH_fft.json`
//! telemetry) can account for working-set size and allocation traffic.

#![warn(missing_docs)]

mod class;
mod pool;
mod set;
mod stats;

pub use class::{class_of, size_of_class, CLASS_COUNT};
pub use pool::{BufferPool, ClassReport};
pub use set::{lease_cimage, lease_image, PoolSet};
pub use stats::PoolStats;
