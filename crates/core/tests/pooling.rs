//! End-to-end pins for the §VII-C pooled-allocator integration: the
//! training engine leases every hot-path buffer from the configured
//! `PoolSet`, without changing a single computed bit, and the resident
//! pool footprint plateaus after the first few rounds ("memory usage
//! peaks after a few training rounds and stays flat").

use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::builder::comparison_net;
use znn_ops::ConvMethod;
use znn_tensor::{ops, Vec3};

fn cfg(pools: Option<Arc<PoolSet>>) -> TrainConfig {
    TrainConfig {
        workers: 1,
        plan: Some(PlanPolicy::Force(ConvMethod::Fft)),
        memoize_fft: true,
        pools,
        ..Default::default()
    }
}

/// Builds the small FFT-heavy net both tests train.
fn net() -> (Znn, znn_tensor::Image, znn_tensor::Image) {
    let out_shape = Vec3::cube(2);
    let (g, _) = comparison_net(2, Vec3::cube(3), Vec3::cube(2), true);
    let znn = Znn::new(g, out_shape, cfg(Some(PoolSet::new()))).unwrap();
    let x = ops::random(znn.input_shape(), 1);
    let t = ops::random(out_shape, 2).map(|v| 0.5 + 0.4 * v);
    (znn, x, t)
}

#[test]
fn pooled_training_matches_unpooled_bit_for_bit() {
    // the fidelity contract end-to-end: pooling buffers through the
    // recycling allocator must not move a single bit of any round's
    // loss (pool leases are zeroed like fresh buffers; execution order
    // is deterministic at one worker)
    let out_shape = Vec3::cube(2);
    let (g1, _) = comparison_net(2, Vec3::cube(3), Vec3::cube(2), true);
    let (g2, _) = comparison_net(2, Vec3::cube(3), Vec3::cube(2), true);
    let pooled = Znn::new(g1, out_shape, cfg(Some(PoolSet::new()))).unwrap();
    let raw = Znn::new(g2, out_shape, cfg(None)).unwrap();
    let x = ops::random(pooled.input_shape(), 1);
    let t = ops::random(out_shape, 2).map(|v| 0.5 + 0.4 * v);
    for round in 0..4 {
        let la = pooled.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        let lb = raw.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        assert_eq!(
            la.to_bits(),
            lb.to_bits(),
            "round {round}: pooled loss {la} != unpooled loss {lb}"
        );
    }
}

#[test]
fn resident_footprint_plateaus_after_early_rounds() {
    // the paper's flat-footprint property, pinned: resident pool bytes
    // are monotone (nothing is ever returned to the OS) and stop
    // growing after round ~3 — from then on every lease is a recycle
    let (znn, x, t) = net();
    let mut resident = Vec::new();
    let mut misses = Vec::new();
    for _ in 0..10 {
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        let s = znn.stats();
        resident.push(s.alloc_resident_bytes);
        misses.push(s.alloc_misses);
    }
    // monotone...
    assert!(
        resident.windows(2).all(|w| w[0] <= w[1]),
        "resident bytes decreased: {resident:?}"
    );
    // ...and flat after the warmup rounds (round indices 0-based: the
    // footprint seen after round 4 is final)
    assert_eq!(
        resident[3],
        *resident.last().unwrap(),
        "footprint kept growing after warmup: {resident:?}"
    );
    // no system allocation in the steady state either: the pool serves
    // every lease by recycling
    assert_eq!(
        misses[3],
        *misses.last().unwrap(),
        "pool missed after warmup: {misses:?}"
    );
    // pooled training really went through the pool, and mostly hits
    let s = znn.stats();
    assert!(s.alloc_hits > 0, "no pool traffic recorded");
    assert!(
        s.alloc_hit_rate() > 0.8,
        "steady-state hit rate too low: {}",
        s.alloc_hit_rate()
    );
}

#[test]
fn flushed_engine_returns_all_pooled_bytes() {
    // after updates flush and all round tensors drop with the engine,
    // nothing may still be counted against the pool
    let pools = PoolSet::new();
    let out_shape = Vec3::cube(2);
    let (g, _) = comparison_net(2, Vec3::cube(3), Vec3::cube(2), false);
    let znn = Znn::new(g, out_shape, cfg(Some(Arc::clone(&pools)))).unwrap();
    let x = ops::random(znn.input_shape(), 3);
    let t = ops::random(out_shape, 4).map(|v| 0.5 + 0.4 * v);
    for _ in 0..3 {
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    }
    znn.flush_updates();
    drop(znn);
    assert_eq!(
        pools.stats().bytes_in_use(),
        0,
        "pooled bytes leaked out of custody after engine drop"
    );
}

#[test]
fn stats_expose_queue_depth_and_alloc_fields() {
    let (znn, x, t) = net();
    znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    let s = znn.stats();
    // between rounds the queue holds at most the deferred
    // lowest-priority update tasks (one per trainable edge) — the
    // depth field sees exactly that backlog
    assert!(
        (s.queue_depth as usize) <= znn.graph().edge_count(),
        "unexpected backlog: {}",
        s.queue_depth
    );
    assert!(s.alloc_leased_bytes > 0, "no churn recorded");
    assert!(s.alloc_resident_bytes > 0, "no footprint recorded");
    // resident never exceeds what was leased
    assert!(s.alloc_resident_bytes <= s.alloc_leased_bytes);
}
