//! End-to-end engine benches: one training round of a small paper-style
//! network under each convolution policy and queue policy.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::builder::scalability_net_3d;
use znn_ops::ConvMethod;
use znn_sched::QueuePolicy;
use znn_tensor::{ops, Vec3};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_round");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let out = Vec3::cube(4);
    for (name, method, memoize) in [
        ("direct", ConvMethod::Direct, false),
        ("fft", ConvMethod::Fft, false),
        ("fft_memoized", ConvMethod::Fft, true),
    ] {
        let (g, _) = scalability_net_3d(4);
        let cfg = TrainConfig {
            workers: 2,
            plan: Some(PlanPolicy::Force(method)),
            memoize_fft: memoize,
            ..Default::default()
        };
        let znn = Znn::new(g, out, cfg).unwrap();
        let x = ops::random(znn.input_shape(), 1);
        let t = ops::random(out, 2);
        // one warm round outside measurement
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        group.bench_function(name, |b| {
            b.iter(|| black_box(znn.train_step(black_box(std::slice::from_ref(&x)), black_box(std::slice::from_ref(&t)))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("queue_policy_round");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for policy in [QueuePolicy::Priority, QueuePolicy::Fifo, QueuePolicy::Lifo] {
        let (g, _) = scalability_net_3d(4);
        let cfg = TrainConfig {
            workers: 2,
            queue: policy,
            plan: Some(PlanPolicy::Force(ConvMethod::Direct)),
            ..Default::default()
        };
        let znn = Znn::new(g, out, cfg).unwrap();
        let x = ops::random(znn.input_shape(), 1);
        let t = ops::random(out, 2);
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        group.bench_function(format!("{policy:?}"), |b| {
            b.iter(|| black_box(znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
