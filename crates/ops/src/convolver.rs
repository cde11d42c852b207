//! A method-agnostic convolution front end.
//!
//! The training engine picks direct or FFT convolution **per layer**
//! from the `znn-plan` cost model (§IV); this trait-object-free façade
//! runs either method behind one interface. The FFT path here is the
//! *unshared* one-shot form — the engine uses the staged `znn-fft` API
//! directly when it can share and memoize transforms; the
//! [`Convolver`] is what tests and benches call.

use crate::conv;
use std::sync::Arc;
use znn_fft::FftEngine;
use znn_tensor::{Image, Vec3};

/// Convolution algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConvMethod {
    /// Direct spatial loops (O(n′³·k³)).
    #[default]
    Direct,
    /// FFT-based (O(n³ log n)), one-shot (no transform sharing).
    Fft,
}

/// A convolution executor bound to a method and an FFT engine.
///
/// The convolver inherits its engine's §VII-C buffer pools: when the
/// engine was built with `FftEngine::with_buffer_pools`, the FFT path
/// pools through the engine itself and the direct path leases its
/// output buffers from the same `PoolSet` — one memory budget for both
/// methods, as inside the training engine.
#[derive(Clone)]
pub struct Convolver {
    method: ConvMethod,
    engine: Arc<FftEngine>,
}

impl Convolver {
    /// Builds a convolver; the engine is shared so FFT plans are reused
    /// (and, when the engine is pooled, so is the buffer footprint).
    pub fn new(method: ConvMethod, engine: Arc<FftEngine>) -> Self {
        Convolver { method, engine }
    }

    /// A zero-filled output buffer, leased when the engine pools.
    fn lease(&self, shape: Vec3) -> Image {
        znn_alloc::lease_image(self.engine.buffer_pools(), shape)
    }

    /// Shorthand for a direct convolver (no FFT engine needed, but one is
    /// kept so the method can be switched cheaply).
    pub fn direct() -> Self {
        Convolver::new(ConvMethod::Direct, Arc::new(FftEngine::new()))
    }

    /// The method this convolver uses.
    pub fn method(&self) -> ConvMethod {
        self.method
    }

    /// The shared FFT engine.
    pub fn engine(&self) -> &Arc<FftEngine> {
        &self.engine
    }

    /// Valid sparse true convolution (forward pass).
    pub fn conv_valid(&self, img: &Image, ker: &Image, sparsity: Vec3) -> Image {
        match self.method {
            ConvMethod::Direct => {
                let out_shape = conv::valid_shape(img.shape(), ker.shape(), sparsity)
                    .expect("geometry must be valid");
                let mut out = self.lease(out_shape);
                conv::conv_valid_into(img, ker, sparsity, &mut out);
                out
            }
            ConvMethod::Fft => {
                if sparsity == Vec3::one() {
                    znn_fft::fft_conv_valid(&self.engine, img, ker)
                } else {
                    let dilated = znn_tensor::pad::dilate(ker, sparsity);
                    znn_fft::fft_conv_valid(&self.engine, img, &dilated)
                }
            }
        }
    }

    /// Full sparse convolution with the reflected kernel (backward pass).
    pub fn input_gradient(&self, grad: &Image, ker: &Image, sparsity: Vec3) -> Image {
        match self.method {
            ConvMethod::Direct => conv::input_gradient(grad, ker, sparsity),
            ConvMethod::Fft => {
                let flipped = znn_tensor::pad::flip(ker);
                if sparsity == Vec3::one() {
                    znn_fft::fft_conv_full(&self.engine, grad, &flipped)
                } else {
                    let dilated = znn_tensor::pad::dilate(&flipped, sparsity);
                    znn_fft::fft_conv_full(&self.engine, grad, &dilated)
                }
            }
        }
    }

    /// Kernel gradient (update pass).
    pub fn kernel_gradient(&self, x: &Image, g: &Image, k: Vec3, sparsity: Vec3) -> Image {
        match self.method {
            ConvMethod::Direct => conv::kernel_gradient(x, g, k, sparsity),
            ConvMethod::Fft => {
                // §III-B: the kernel gradient is the valid convolution of
                // the reflected forward image with the backward image; at
                // sparsity s it lands on the dilated-kernel lattice, so
                // sample every s-th voxel to recover the kernel's shape.
                let flipped = znn_tensor::pad::flip(x);
                let grad_dilated = znn_fft::fft_conv_valid(&self.engine, &flipped, g);
                debug_assert_eq!(grad_dilated.shape(), k.dilated(sparsity));
                if sparsity == Vec3::one() {
                    grad_dilated
                } else {
                    znn_tensor::pad::gather_strided(&grad_dilated, Vec3::zero(), sparsity, k)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_tensor::ops::random;

    fn both() -> (Convolver, Convolver) {
        let engine = Arc::new(FftEngine::new());
        (
            Convolver::new(ConvMethod::Direct, Arc::clone(&engine)),
            Convolver::new(ConvMethod::Fft, engine),
        )
    }

    #[test]
    fn methods_agree_on_dense_forward() {
        let (d, f) = both();
        for (n, k) in [
            (Vec3::cube(8), Vec3::cube(3)),
            (Vec3::flat(12, 12), Vec3::flat(5, 5)),
            (Vec3::new(6, 7, 8), Vec3::new(2, 3, 4)),
        ] {
            let img = random(n, 71);
            let ker = random(k, 72);
            let a = d.conv_valid(&img, &ker, Vec3::one());
            let b = f.conv_valid(&img, &ker, Vec3::one());
            assert!(a.max_abs_diff(&b) < 1e-3, "n={n} k={k}: {}", a.max_abs_diff(&b));
        }
    }

    #[test]
    fn methods_agree_on_sparse_forward() {
        let (d, f) = both();
        let img = random(Vec3::cube(12), 73);
        let ker = random(Vec3::cube(3), 74);
        let s = Vec3::cube(2);
        let a = d.conv_valid(&img, &ker, s);
        let b = f.conv_valid(&img, &ker, s);
        assert!(a.max_abs_diff(&b) < 1e-3);
    }

    #[test]
    fn methods_agree_on_input_gradient() {
        let (d, f) = both();
        let n = Vec3::cube(8);
        let k = Vec3::cube(3);
        let g = random(conv::valid_shape(n, k, Vec3::one()).unwrap(), 75);
        let ker = random(k, 76);
        let a = d.input_gradient(&g, &ker, Vec3::one());
        let b = f.input_gradient(&g, &ker, Vec3::one());
        assert_eq!(a.shape(), n);
        assert!(a.max_abs_diff(&b) < 1e-3);
    }

    #[test]
    fn methods_agree_on_kernel_gradient_dense_and_sparse() {
        let (d, f) = both();
        for s in [Vec3::one(), Vec3::cube(2)] {
            let n = Vec3::cube(9);
            let k = Vec3::cube(3);
            let img = random(n, 77);
            let g = random(conv::valid_shape(n, k, s).unwrap(), 78);
            let a = d.kernel_gradient(&img, &g, k, s);
            let b = f.kernel_gradient(&img, &g, k, s);
            assert_eq!(a.shape(), k);
            assert!(a.max_abs_diff(&b) < 1e-3, "s={s}: {}", a.max_abs_diff(&b));
        }
    }
}
