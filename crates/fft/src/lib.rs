//! 3D FFT and frequency-domain convolution machinery (ZNN paper §IV).
//!
//! ZNN chooses per layer between direct and FFT convolution. The FFT
//! path wins for ConvNets earlier than for single convolutions because
//! the transform of an image at a node is **shared** by every edge at
//! that node, and transforms computed in the forward pass are
//! **memoized** for the backward and update passes (Table II). This
//! crate provides the pieces that make that sharing expressible.
//!
//! # Real-to-complex transforms and the half-spectrum layout
//!
//! Every image entering a transform here is *real*, so its DFT is
//! Hermitian: `X[−f] = conj(X[f])`. The engine exploits this the same
//! way FFTW/MKL r2c plans do:
//!
//! * **Storage.** A spectrum is a [`znn_tensor::Spectrum`]: the bins
//!   `0..=⌊m/2⌋` along the *packed axis* (`⌊m/2⌋+1` complex values per
//!   line) plus the logical full shape. The packed axis is the last
//!   non-unit axis — `z` for volumes, `y` for flat `m_z == 1` images —
//!   so 2D workloads get the same halving as 3D ones. The dropped bins
//!   are implied by symmetry. This halves the size of every memoized
//!   spectrum — the paper's main RAM consumer (§IV).
//! * **Compute.** The packed stage turns each even-length real line of
//!   `m` samples into `m/2` complex samples
//!   (`z[t] = x[2t] + i·x[2t+1]`), runs a half-length complex FFT, and
//!   unpacks with one twiddle pass — ~2× fewer FLOPs on that stage. The
//!   remaining stages are ordinary c2c line transforms over the
//!   already-halved tensor, so they also do half the work of the c2c
//!   pipeline.
//! * **Pruned stages.** A padded forward transform and a cropped
//!   inverse run only the lines that matter: the forward skips the
//!   lines of the padded volume that are known to be zero, and the
//!   inverse skips the lines whose results the crop would discard. One
//!   r2c routine and one c2r routine serve both the full-box
//!   (`rfft3`/`irfft3`) and the padded/cropped forms.
//! * **Padding discipline.** Transform shapes come from
//!   [`good_shape`]: 5-smooth per axis, and *even* on the packed axis
//!   ([`good_size_even`]) so the packed stage always applies and the
//!   half-spectrum is tight. Odd packed extents still work (a
//!   full-length fallback per line, truncated to the stored bins) —
//!   they are just slower, and `good_shape` avoids them. Unit axes are
//!   never inflated: an extent of 1 stays 1 (identity transform).
//! * **Frequency-domain algebra.** Sums and pointwise products of
//!   real-image spectra are still spectra of real images (Hermitian
//!   symmetry is closed under both), so convergent-edge accumulation,
//!   [`spectra::flip_spectrum`], and [`spectra::corr_spectrum`] all
//!   operate directly on half-spectra at half cost.
//!
//! # Kernels and threading
//!
//! The 1D line transforms come from the vendored `rustfft` shim, which
//! routes **every 5-smooth length** (`2^a·3^b·5^c` — everything
//! [`good_shape`] produces) through **iterative mixed-radix Stockham
//! autosort kernels**: a stage planner factors the length into
//! hardcoded radix-4/3/5 butterflies plus one trailing radix-2 stage
//! for odd `log2` 2-parts, with per-stage twiddle tables and no
//! bit/digit-reversal pass. Only lengths with prime factors larger
//! than 5 — which `good_shape` never emits — take the recursive
//! mixed-radix fallback, whose naive-DFT base case stays cold. A 48³
//! transform (48 = 2⁴·3) and a 64³ transform are therefore both all
//! Stockham; [`FftEngine::with_recursive_kernels`] pins the old
//! fallback behaviour as the benchmark baseline.
//!
//! On top of the kernels, [`FftEngine`] splits every batched line loop
//! — the contiguous packed stage, the strided `x`/`y` stages, and the
//! r2c pack / c2r unpack — into up to [`FftEngine::threads`] chunks at
//! line granularity, queued on a **persistent fork-join pool** (the
//! vendored `rayon` shim): the engine's own shared pool
//! ([`FftEngine::with_pool`]) or the process-global one. No OS thread
//! is spawned per transform. Chunks run on pool workers, on the
//! calling thread (which executes pending chunks while waiting on the
//! scope), and on threads *donated* by an outer task scheduler —
//! `znn-core` pairs a donor-only pool with its `znn-sched` executor so
//! task- and line-parallelism share one thread budget. Scratch lives
//! in per-engine slots sized to the fan-out, chunk boundaries are a
//! pure function of the worker count, and each line's arithmetic is
//! chunk-independent, so threaded transforms are bit-for-bit equal to
//! single-threaded ones for every pool and worker count; see the
//! [threading model](FftEngine#threading-model) for ownership details.
//!
//! The staged API (`forward_padded` → pointwise multiply-accumulate in
//! `znn_tensor::ops` (`mul_s`, `mul_add_assign_s`, `add_assign_s`) →
//! `inverse_real`) lets callers accumulate convergent convolutions
//! **in the frequency domain** and pay one inverse transform per node
//! rather than one per edge — exactly the `f' + f + f'·f` term
//! structure of Table II. Full c2c transforms ([`FftEngine::fft3`] /
//! [`FftEngine::ifft3`], plus `*_c2c` staged variants) are retained as
//! the parity baseline for tests and benchmarks.
//!
//! The paper used MKL/fftw; the planned-1D-transform decomposition here
//! replaces them (same asymptotics, different constant; the kernels are
//! described in `docs/ARCHITECTURE.md` §2).

#![warn(missing_docs)]

mod conv;
mod engine;
mod size;
pub mod spectra;

pub use conv::{fft_conv_full, fft_conv_valid, fft_xcorr_valid};
pub use engine::FftEngine;
pub use size::{good_shape, good_size, good_size_even, pow2_shape, pow2_size};
