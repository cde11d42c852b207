//! The Fig 2 equivalence: a sliding-window max-pooling ConvNet equals a
//! max-filtering ConvNet with sparse (skip-kernel) convolutions — but
//! the latter computes the dense output in one pass instead of one
//! network evaluation per window position.
//!
//! This example builds both networks with *identical weights*, computes
//! the dense output both ways through the shared [`znn::core::DenseNet`]
//! library path (the same evaluator `znn-serve` workers run), verifies
//! they agree voxel for voxel, and times them.
//!
//! ```sh
//! cargo run --release --example sliding_window
//! ```

use std::ops::ControlFlow;
use std::time::Instant;
use znn::baseline::ReferenceNet;
use znn::core::{DenseConfig, DenseNet};
use znn::graph::NetBuilder;
use znn::ops::Transfer;
use znn::tensor::{ops, pad, Tensor3, Vec3};

/// A tiny max-pooling recognition net: C3 T P2 C3 T.
fn pooling_net() -> znn::graph::Graph {
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
fn filtering_net() -> znn::graph::Graph {
    NetBuilder::new("filter", 1)
        .conv(3, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_filter(Vec3::flat(2, 2)) // sparsifies the following convs
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .unwrap()
        .0
}

fn main() {
    // field of view of the pooling net, computed by the shape
    // machinery: the smallest window that yields one prediction
    let fov = znn::graph::shapes::required_input_shape(&pooling_net(), Vec3::flat(1, 1)).unwrap();
    println!("pooling net field of view: {fov}");

    // dense output over an image: one prediction per valid window
    let image = ops::random(Vec3::flat(24, 24), 42);
    let n = image.shape();
    let dense_shape = Vec3::flat(n[1] - fov[1] + 1, n[2] - fov[2] + 1);

    // --- slow path: literally slide the pooling net over every window
    let mut slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 7).unwrap();
    let t0 = Instant::now();
    let mut slow = Tensor3::<f32>::zeros(dense_shape);
    for y in 0..dense_shape[1] {
        for z in 0..dense_shape[2] {
            let window = pad::crop(&image, Vec3::new(0, y, z), fov);
            let out = slider.forward(&[window]).remove(0);
            slow.set((0, y, z), out.at((0, 0, 0)));
        }
    }
    let t_slow = t0.elapsed();

    // --- fast path: the max-filtering net computes all windows at once,
    // through the library dense evaluator the serving stack shares.
    // Same trainable parameters: the two graphs have identical edge
    // structure, so the ParamSet carries over directly.
    let dense = DenseNet::with_params(
        filtering_net(),
        slider.params().clone(),
        DenseConfig::default(),
    )
    .unwrap();
    assert_eq!(
        dense.output_shape_for(n),
        Some(dense_shape),
        "filter net consumes the whole image"
    );
    dense.warmup(n); // populate conv-choice + kernel-spectrum caches
    let t0 = Instant::now();
    let fast = dense.forward(&image);
    let t_fast = t0.elapsed();

    let diff = slow.max_abs_diff(&fast);
    println!(
        "dense output {dense_shape}: sliding {} windows took {t_slow:?}, \
         one sparse pass took {t_fast:?} ({:.1}x)",
        dense_shape.len(),
        t_slow.as_secs_f64() / t_fast.as_secs_f64().max(1e-12),
    );
    println!("max |sliding - sparse| = {diff:.2e}");
    assert!(diff < 1e-4, "the Fig 2 equivalence must hold");
    println!("equivalence verified: max-filter + skip kernels == sliding window");

    // --- blocked evaluation: the same dense output tiled into blocks,
    // with a cancellation checkpoint between blocks — this is how a
    // server abandons an expired request mid-volume.
    let blocked = dense
        .forward_blocked(&image, Vec3::flat(6, 6), &mut |ev| {
            println!(
                "  block {}/{} at {} ({})",
                ev.index + 1,
                ev.total,
                ev.origin,
                ev.shape
            );
            ControlFlow::Continue(())
        })
        .unwrap();
    assert!(blocked.max_abs_diff(&fast) < 1e-5, "blocked == whole");
    println!("blocked evaluation matches the whole-volume pass");
}
