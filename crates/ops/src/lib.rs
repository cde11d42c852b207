//! The image filtering operations of the ZNN computation graph and
//! their Jacobians (paper §II–III).
//!
//! Each edge of a ZNN computation graph applies one of four operations
//! to a 3D image; this crate implements all four, their backward
//! (Jacobian-transpose) forms, and the parameter-gradient computations:
//!
//! | forward (§II) | backward (§III-A) | update (§III-B) |
//! |---|---|---|
//! | [`conv`] — valid, optionally sparse (skip-kernel) convolution | full convolution with the reflected kernel | [`conv::kernel_gradient`] |
//! | [`pool`] — max-pooling over `p³` blocks | scatter to block argmax | — |
//! | [`filter`] — sliding-window max-filtering | scatter-accumulate to window argmax | — |
//! | [`transfer`] — bias + pointwise nonlinearity | multiply by the derivative | bias gradient = sum of backward image |
//!
//! Convolution comes in two interchangeable implementations — direct
//! loops here and FFT-based in [`znn_fft`] — selected per layer by the
//! `znn-plan` cost model that `znn-core` plans with (§IV). Max-filtering likewise has two
//! implementations: a monotonic-deque O(n) variant (default) and the
//! paper's heap-based O(n log k) variant, kept for the ablation bench.
//!
//! Loss functions ([`loss`]) close the training loop (§III, step 3).

#![warn(missing_docs)]

pub mod conv;
pub mod convolver;
pub mod filter;
pub mod loss;
pub mod pool;
pub mod transfer;

pub use convolver::{ConvMethod, Convolver};
pub use loss::Loss;
pub use transfer::Transfer;
