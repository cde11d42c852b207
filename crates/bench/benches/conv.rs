//! Direct vs FFT convolution across kernel sizes — the microbenchmark
//! behind the §IV per-layer method choice and the Fig 8/9 crossovers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use znn_fft::FftEngine;
use znn_ops::{ConvMethod, Convolver};
use znn_tensor::{ops, Vec3};

fn bench_conv(c: &mut Criterion) {
    let engine = Arc::new(FftEngine::new());
    let mut group = c.benchmark_group("conv_valid");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    for k in [3usize, 5, 7] {
        let n = Vec3::cube(16);
        let img = ops::random(n, 1);
        let ker = ops::random(Vec3::cube(k), 2);
        for method in [ConvMethod::Direct, ConvMethod::Fft] {
            let conv = Convolver::new(method, Arc::clone(&engine));
            // warm the plan cache outside the measurement
            let _ = conv.conv_valid(&img, &ker, Vec3::one());
            group.bench_function(format!("{method:?}/k{k}"), |b| {
                b.iter(|| black_box(conv.conv_valid(black_box(&img), black_box(&ker), Vec3::one())))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("kernel_gradient");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let n = Vec3::cube(16);
    let k = Vec3::cube(5);
    let img = ops::random(n, 3);
    let g = ops::random(n.valid_conv(k).unwrap(), 4);
    for method in [ConvMethod::Direct, ConvMethod::Fft] {
        let conv = Convolver::new(method, Arc::clone(&engine));
        let _ = conv.kernel_gradient(&img, &g, k, Vec3::one());
        group.bench_function(format!("{method:?}"), |b| {
            b.iter(|| black_box(conv.kernel_gradient(&img, &g, k, Vec3::one())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conv);
criterion_main!(benches);
