//! Parity and robustness tests for the forward-only dense evaluator.
//!
//! The ground truth is the sequential [`ReferenceNet`] sliding a
//! max-pooling net over every output position (the Fig. 2 left-hand
//! side); [`DenseNet`] over the equivalent max-filtering graph must
//! compute the same dense output in one pass, whole or blocked, on
//! either convolution backend, and must return every pooled lease when
//! a blocked evaluation is cancelled.

use std::ops::ControlFlow;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_baseline::ReferenceNet;
use znn_core::{DenseConfig, DenseNet};
use znn_graph::{Graph, NetBuilder};
use znn_ops::{ConvMethod, Transfer};
use znn_tensor::{ops, pad, Tensor3, Vec3};

/// A tiny max-pooling recognition net: C3 T P2 C3 T, field of view 9².
fn pooling_net() -> Graph {
    NetBuilder::new("pool", 1)
        .conv(3, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_pool(Vec3::flat(2, 2))
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .unwrap()
        .0
}

/// The same net with max-filtering + skip kernels (Fig 2, right).
fn filtering_net() -> Graph {
    NetBuilder::new("filter", 1)
        .conv(3, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_filter(Vec3::flat(2, 2))
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .unwrap()
        .0
}

fn dense_cfg(method: ConvMethod) -> DenseConfig {
    DenseConfig {
        method: Some(method),
        ..DenseConfig::default()
    }
}

/// Dense net with the sliding reference's parameters carried over.
fn dense_from_reference(slider: &ReferenceNet, method: ConvMethod) -> DenseNet {
    DenseNet::with_params(filtering_net(), slider.params().clone(), dense_cfg(method)).unwrap()
}

#[test]
fn dense_matches_sliding_reference() {
    let mut slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 7).unwrap();
    let fov = slider.input_shape();
    let image = ops::random(Vec3::flat(20, 20), 42);
    let n = image.shape();
    let dense_shape = Vec3::flat(n[1] - fov[1] + 1, n[2] - fov[2] + 1);

    let mut slow = Tensor3::<f32>::zeros(dense_shape);
    for y in 0..dense_shape[1] {
        for z in 0..dense_shape[2] {
            let window = pad::crop(&image, Vec3::new(0, y, z), fov);
            let out = slider.forward(&[window]).remove(0);
            slow.set((0, y, z), out.at((0, 0, 0)));
        }
    }

    // both forced methods, and the default config: no method, no
    // planner, so the net prices each geometry on a host planner
    for method in [Some(ConvMethod::Direct), Some(ConvMethod::Fft), None] {
        let cfg = DenseConfig {
            method,
            ..DenseConfig::default()
        };
        let dense = DenseNet::with_params(filtering_net(), slider.params().clone(), cfg).unwrap();
        assert_eq!(dense.output_shape_for(n), Some(dense_shape));
        assert_eq!(dense.input_shape_for(dense_shape).unwrap(), n);
        let fast = dense.forward(&image);
        let diff = slow.max_abs_diff(&fast);
        assert!(
            diff < 1e-4,
            "Fig 2 equivalence must hold under {method:?}: max diff {diff:.2e}"
        );
    }
}

#[test]
fn blocked_matches_whole_bitwise_under_direct() {
    let slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 11).unwrap();
    let dense = dense_from_reference(&slider, ConvMethod::Direct);
    let image = ops::random(Vec3::flat(23, 26), 5);
    let whole = dense.forward(&image);

    // block shapes that divide, straddle, and exceed the output volume
    for block in [
        Vec3::flat(5, 6),
        Vec3::flat(7, 7),
        Vec3::flat(1, 18),
        Vec3::flat(64, 64),
    ] {
        let mut seen = 0usize;
        let blocked = dense
            .forward_blocked(&image, block, &mut |ev| {
                assert!(ev.index < ev.total);
                seen += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(seen, {
            let o = whole.shape();
            o[0].div_ceil(block[0]) * o[1].div_ceil(block[1]) * o[2].div_ceil(block[2])
        });
        assert_eq!(whole.shape(), blocked.shape());
        assert_eq!(
            whole.max_abs_diff(&blocked),
            0.0,
            "direct blocked evaluation must be bitwise identical (block {block})"
        );
    }
}

#[test]
fn blocked_fft_matches_whole_within_tolerance() {
    let slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 13).unwrap();
    let dense = dense_from_reference(&slider, ConvMethod::Fft);
    let image = ops::random(Vec3::flat(21, 24), 9);
    let whole = dense.forward(&image);
    let blocked = dense
        .forward_blocked(&image, Vec3::flat(6, 5), &mut |_| ControlFlow::Continue(()))
        .unwrap();
    let diff = whole.max_abs_diff(&blocked);
    assert!(diff < 1e-4, "FFT blocked vs whole: max diff {diff:.2e}");
}

#[test]
fn cancellation_returns_every_pooled_lease() {
    let pools = PoolSet::new();
    let cfg = DenseConfig {
        method: Some(ConvMethod::Direct),
        pools: Some(Arc::clone(&pools)),
        ..DenseConfig::default()
    };
    let dense = DenseNet::new(filtering_net(), 3, cfg).unwrap();
    let image = ops::random(Vec3::flat(24, 24), 1);

    let err = dense
        .forward_blocked(&image, Vec3::flat(4, 4), &mut |ev| {
            if ev.index == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap_err();
    assert_eq!(err.blocks_done, 2);
    assert!(err.blocks_total > 2);
    assert_eq!(
        pools.stats().bytes_in_use(),
        0,
        "cancelled evaluation must return every pooled lease"
    );
}

#[test]
fn spectra_memoize_once_and_params_mut_invalidates() {
    let dense = DenseNet::new(filtering_net(), 21, dense_cfg(ConvMethod::Fft)).unwrap();
    let shape = Vec3::flat(20, 20);
    assert_eq!(dense.memoized_spectra(), 0);
    dense.warmup(shape);
    let warm = dense.memoized_spectra();
    assert!(warm > 0, "warmup must populate the kernel-spectrum cache");
    assert!(dense.memoized_spectrum_bytes() > 0);

    let image = ops::random(shape, 2);
    let before = dense.forward(&image);
    assert_eq!(
        dense.memoized_spectra(),
        warm,
        "the cache is read-only after warmup"
    );

    // retuning parameters must drop the stale spectra
    let mut dense = dense;
    for k in dense.params_mut().kernels.iter_mut().flatten() {
        for v in k.as_mut_slice() {
            *v += 0.25;
        }
    }
    assert_eq!(dense.memoized_spectra(), 0);
    let after = dense.forward(&image);
    assert!(
        before.max_abs_diff(&after) > 1e-6,
        "new parameters must change the output"
    );
}

#[test]
fn multi_threaded_sharing_is_consistent() {
    let slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 17).unwrap();
    let dense = Arc::new(dense_from_reference(&slider, ConvMethod::Fft));
    let image = ops::random(Vec3::flat(20, 22), 33);
    dense.warmup(image.shape());
    let expect = dense.forward(&image);

    let mut handles = Vec::new();
    for _ in 0..4 {
        let dense = Arc::clone(&dense);
        let image = image.clone();
        handles.push(std::thread::spawn(move || dense.forward(&image)));
    }
    for h in handles {
        let got = h.join().unwrap();
        assert_eq!(
            expect.max_abs_diff(&got),
            0.0,
            "concurrent callers share one cache and agree bitwise"
        );
    }
}
