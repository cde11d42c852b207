//! Parity pins for the box-pruned r2c/c2r stages.
//!
//! `forward_padded(img, m)` transforms only the lines of the padded
//! volume that can be nonzero, and `inverse_real(spec, at, shape)` only
//! the lines that reach the cropped box. The contract:
//!
//! 1. `forward_padded` equals `rfft3` of the explicitly zero-padded
//!    image in every bin (`==`: a skipped all-zero line leaves `+0.0`
//!    where the full transform may compute `-0.0`, nothing else);
//! 2. `inverse_real` is bit-identical to cropping `irfft3`;
//! 3. both are bit-identical at 1, 2 and 4 workers on a shared pool;
//! 4. a pooled engine running them leaks no bytes.
//!
//! Shapes are 5-smooth with an even packed axis — the shapes
//! `good_shape` produces — over volumes, flat images and 1D rows, with
//! dense and sparse-dilated (kernel-like) inputs.

use proptest::prelude::*;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_fft::FftEngine;
use znn_tensor::{ops, pad, Image, Spectrum, Vec3};

/// 5-smooth extents.
const SMOOTH: &[usize] = &[1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20];
/// 5-smooth even extents (for the packed axis).
const SMOOTH_EVEN: &[usize] = &[2, 4, 6, 8, 10, 12, 16, 18, 20, 24];

/// A tiny deterministic generator, so one proptest seed spans a whole
/// case (shapes, box, input).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick(&mut self, xs: &[usize]) -> usize {
        xs[self.below(xs.len())]
    }

    /// A shape no larger than `m` on any axis.
    fn within(&mut self, m: Vec3) -> Vec3 {
        Vec3::new(
            1 + self.below(m[0]),
            1 + self.below(m[1]),
            1 + self.below(m[2]),
        )
    }
}

/// A transform shape of the given kind: 0 volume, 1 flat, 2 row.
fn transform_shape(rng: &mut Rng, kind: usize) -> Vec3 {
    match kind {
        0 => Vec3::new(rng.pick(SMOOTH), rng.pick(SMOOTH), rng.pick(SMOOTH_EVEN)),
        1 => Vec3::new(rng.pick(SMOOTH), rng.pick(SMOOTH_EVEN), 1),
        _ => Vec3::new(rng.pick(SMOOTH_EVEN), 1, 1),
    }
}

/// An input fitting `m`: dense, or a random kernel dilated by a random
/// sparsity (most of its voxels are zero, like a sparse-trained edge).
fn input(rng: &mut Rng, m: Vec3, seed: u64) -> Image {
    let n = rng.within(m);
    if rng.below(2) == 0 {
        return ops::random(n, seed);
    }
    let mut s = Vec3::one();
    let mut k = Vec3::one();
    for a in 0..3 {
        s[a] = 1 + rng.below(3);
        // the largest kernel extent whose dilation by s[a] fits n[a]
        k[a] = 1 + rng.below((n[a] - 1) / s[a] + 1);
    }
    pad::dilate(&ops::random(k, seed), s)
}

fn bins_equal(a: &Spectrum, b: &Spectrum) -> bool {
    a.full_shape() == b.full_shape() && a.half().as_slice() == b.half().as_slice()
}

fn bins_identical(a: &Spectrum, b: &Spectrum) -> bool {
    a.full_shape() == b.full_shape()
        && a.half()
            .as_slice()
            .iter()
            .zip(b.half().as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn bits_identical(a: &Image, b: &Image) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_stages_match_the_full_box(kind in 0usize..3, seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let m = transform_shape(&mut rng, kind);
        let img = input(&mut rng, m, seed);
        let shape = rng.within(m);
        let at = Vec3::new(
            rng.below(m[0] - shape[0] + 1),
            rng.below(m[1] - shape[1] + 1),
            rng.below(m[2] - shape[2] + 1),
        );
        let engine = FftEngine::with_threads(1);

        let fwd = engine.forward_padded(&img, m);
        let full = engine.rfft3(&pad::pad(&img, m, Vec3::zero()));
        prop_assert!(bins_equal(&fwd, &full), "forward_padded != rfft3(pad) for {} in {m}", img.shape());

        // invert a dense spectrum, so every line carries signal
        let spec = engine.rfft3(&ops::random(m, seed ^ 0x5EED));
        let got = engine.inverse_real(spec.clone(), at, shape);
        let want = pad::crop(&engine.irfft3(spec.clone()), at, shape);
        prop_assert!(bits_identical(&got, &want), "inverse_real != crop(irfft3) for {shape} at {at} in {m}");

        // same bits at every fan-out on one shared pool; the split
        // threshold is dropped so even these small shapes really fork
        let pool = Arc::new(rayon::ThreadPool::with_workers(2));
        for workers in [1usize, 2, 4] {
            let e = FftEngine::with_pool(workers, Arc::clone(&pool)).par_threshold(1);
            prop_assert!(bins_identical(&e.forward_padded(&img, m), &fwd), "forward drift at {workers} workers");
            prop_assert!(bits_identical(&e.inverse_real(spec.clone(), at, shape), &got), "inverse drift at {workers} workers");
        }

        // a pooled engine returns every lease
        let pools = PoolSet::new();
        let pooled = FftEngine::with_threads(2).par_threshold(1).with_buffer_pools(Arc::clone(&pools));
        let f = pooled.forward_padded(&img, m);
        prop_assert!(bins_identical(&f, &fwd), "pooled forward drift");
        let c = pooled.inverse_real(f, at, shape);
        drop(c);
        drop(pooled);
        prop_assert_eq!(pools.stats().bytes_in_use(), 0);
    }
}

#[test]
fn kernel_sized_inputs_at_the_plan_pads_match_the_full_box() {
    // the transforms a 3D FFT edge runs every round: a 5³ kernel (and
    // its 9³ dilation) padded to the image transform, and the 9³
    // kernel-gradient crop of an inverse
    let engine = FftEngine::with_threads(1);
    let w = ops::random(Vec3::cube(5), 3);
    for pad_to in [20, 32, 36] {
        let m = Vec3::cube(pad_to);
        for k in [w.clone(), pad::dilate(&w, Vec3::cube(2))] {
            let full = engine.rfft3(&pad::pad(&k, m, Vec3::zero()));
            assert!(
                bins_equal(&engine.forward_padded(&k, m), &full),
                "{} in {m}",
                k.shape()
            );
        }
        let spec = engine.rfft3(&ops::random(m, 4));
        let at = Vec3::cube(pad_to - 9);
        let want = pad::crop(&engine.irfft3(spec.clone()), at, Vec3::cube(9));
        assert!(bits_identical(
            &engine.inverse_real(spec, at, Vec3::cube(9)),
            &want
        ));
    }
}

#[test]
fn stage_line_counts_follow_the_box() {
    // a 5³ kernel in a 20³ transform: 25 packed lines, the 5 x-slabs of
    // the 11 y-lines per z-bin, then all 20·11 x-lines
    let m = Vec3::cube(20);
    assert_eq!(
        FftEngine::forward_stage_lines(Vec3::cube(5), m),
        [25, 55, 220]
    );
    assert_eq!(FftEngine::forward_stage_lines(m, m), [400, 220, 220]);
    // the 9³ kernel-gradient crop: all x-lines, 9 x-slabs of y-lines,
    // the 81 lines of the box
    assert_eq!(
        FftEngine::inverse_stage_lines(m, Vec3::cube(9)),
        [220, 99, 81]
    );
    assert_eq!(FftEngine::inverse_stage_lines(m, m), [220, 220, 400]);
    // images with a unit z pack along y and skip the unit z stage;
    // images with a unit x skip the unit x stage
    let (n, m) = (Vec3::new(3, 3, 1), Vec3::new(8, 8, 1));
    assert_eq!(FftEngine::forward_stage_lines(n, m), [3, 0, 5]);
    assert_eq!(
        FftEngine::forward_stage_lines(Vec3::flat(3, 3), Vec3::flat(8, 8)),
        [3, 5, 0]
    );
}
