//! One-shot FFT convolutions built on the staged engine API.
//!
//! These are the self-contained forms used by tests, benches and
//! callers that don't manage transform sharing themselves. The training
//! engine in `znn-core` uses the staged API directly so image transforms
//! can be shared across edges and memoized across passes.

use crate::engine::FftEngine;
use crate::size::good_shape;
use znn_tensor::{ops, pad, Image, Vec3};

/// *Valid* true convolution of `img` (shape `n`) with `ker` (shape `k`):
/// output shape `n - k + 1`, kernel reflected per the convolution
/// definition. Panics if the kernel does not fit.
pub fn fft_conv_valid(engine: &FftEngine, img: &Image, ker: &Image) -> Image {
    let n = img.shape();
    let k = ker.shape();
    let out_shape = n
        .valid_conv(k)
        .unwrap_or_else(|| panic!("kernel {k} larger than image {n}"));
    // Linear convolution needs m >= n + k - 1 samples per axis to avoid
    // wrap-around; the full result has exactly n + k - 1 samples and the
    // valid region starts at k - 1.
    let m = good_shape(n.full_conv(k));
    let a = engine.forward_padded(img, m);
    let b = engine.forward_padded(ker, m);
    let prod = ops::mul_s(&a, &b);
    engine.inverse_real(prod, k - Vec3::one(), out_shape)
}

/// *Full* true convolution: output shape `n + k - 1` (§III-A, the
/// backward-pass convolution).
pub fn fft_conv_full(engine: &FftEngine, img: &Image, ker: &Image) -> Image {
    let n = img.shape();
    let k = ker.shape();
    let out_shape = n.full_conv(k);
    let m = good_shape(out_shape);
    let a = engine.forward_padded(img, m);
    let b = engine.forward_padded(ker, m);
    let prod = ops::mul_s(&a, &b);
    engine.inverse_real(prod, Vec3::zero(), out_shape)
}

/// *Valid* cross-correlation (no kernel reflection): the primitive behind
/// the kernel-gradient computation. Computed as a valid convolution with
/// the reflected kernel.
pub fn fft_xcorr_valid(engine: &FftEngine, img: &Image, ker: &Image) -> Image {
    fft_conv_valid(engine, img, &pad::flip(ker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_tensor::Tensor3;

    /// Brute-force valid true convolution for validation.
    fn conv_valid_naive(img: &Image, ker: &Image) -> Image {
        let n = img.shape();
        let k = ker.shape();
        let out = n.valid_conv(k).unwrap();
        Tensor3::from_fn(out, |o| {
            let mut acc = 0.0f64;
            for kk in k.iter() {
                // true convolution: kernel index is reflected
                let at = Vec3::new(
                    o[0] + k[0] - 1 - kk[0],
                    o[1] + k[1] - 1 - kk[1],
                    o[2] + k[2] - 1 - kk[2],
                );
                acc += img.at(at) as f64 * ker.at(kk) as f64;
            }
            acc as f32
        })
    }

    fn conv_full_naive(img: &Image, ker: &Image) -> Image {
        // full conv = valid conv of the zero-padded image
        let k = ker.shape();
        let padded = pad::pad(
            img,
            img.shape() + (k - Vec3::one()) * 2,
            k - Vec3::one(),
        );
        conv_valid_naive(&padded, ker)
    }

    #[test]
    fn valid_matches_naive() {
        let engine = FftEngine::new();
        for (n, k) in [
            (Vec3::cube(6), Vec3::cube(3)),
            (Vec3::new(5, 7, 4), Vec3::new(2, 3, 1)),
            (Vec3::flat(9, 9), Vec3::flat(4, 4)),
            (Vec3::cube(3), Vec3::cube(3)),
        ] {
            let img = ops::random(n, 1);
            let ker = ops::random(k, 2);
            let got = fft_conv_valid(&engine, &img, &ker);
            let want = conv_valid_naive(&img, &ker);
            assert!(
                got.max_abs_diff(&want) < 1e-4,
                "n={n} k={k}: diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn full_matches_naive() {
        let engine = FftEngine::new();
        for (n, k) in [
            (Vec3::cube(4), Vec3::cube(3)),
            (Vec3::new(2, 5, 3), Vec3::new(2, 1, 3)),
            (Vec3::flat(6, 4), Vec3::flat(3, 2)),
        ] {
            let img = ops::random(n, 3);
            let ker = ops::random(k, 4);
            let got = fft_conv_full(&engine, &img, &ker);
            let want = conv_full_naive(&img, &ker);
            assert!(
                got.max_abs_diff(&want) < 1e-4,
                "n={n} k={k}: diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn delta_kernel_is_identity_for_correlation() {
        // cross-correlating with a centered delta shifts predictably; a
        // 1x1x1 delta of weight 1 is the identity for both conventions
        let engine = FftEngine::new();
        let img = ops::random(Vec3::cube(5), 7);
        let delta = Tensor3::filled(Vec3::one(), 1.0f32);
        let conv = fft_conv_valid(&engine, &img, &delta);
        assert!(conv.max_abs_diff(&img) < 1e-5);
        let xc = fft_xcorr_valid(&engine, &img, &delta);
        assert!(xc.max_abs_diff(&img) < 1e-5);
    }

    #[test]
    fn convolution_is_commutative_in_mass() {
        // sum(conv_full(a, b)) == sum(a) * sum(b)
        let engine = FftEngine::new();
        let a = ops::random(Vec3::cube(4), 5);
        let b = ops::random(Vec3::cube(2), 6);
        let c = fft_conv_full(&engine, &a, &b);
        assert!((c.sum() - a.sum() * b.sum()).abs() < 1e-3);
    }

    #[test]
    fn full_conv_is_symmetric_in_arguments() {
        let engine = FftEngine::new();
        let a = ops::random(Vec3::new(4, 3, 2), 8);
        let b = ops::random(Vec3::new(2, 2, 2), 9);
        let ab = fft_conv_full(&engine, &a, &b);
        let ba = fft_conv_full(&engine, &b, &a);
        assert!(ab.max_abs_diff(&ba) < 1e-4);
    }
}
