//! Fig 9 — ZNN vs the layerwise baseline, 3D networks; kernels 3³, 5³,
//! 7³ and growing output patches, seconds per update.
//!
//! The paper's claim: in 3D the FFT-vs-direct crossover comes at much
//! smaller kernels than in 2D — ZNN is competitive at 5³ and wins at
//! 7³, the kernel sizes used in connectomics practice.

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
    let width = 3usize;
    let kernels = [3usize, 5, 7];
    let outputs = [1usize, 2, 4];
    println!("# Fig 9 — 3D ConvNets, seconds/update (width {width}, sparse training)\n");
    for &k in &kernels {
        println!("## kernel {k}x{k}x{k}");
        header(&["output", "ZNN (FFT) s/update", "layerwise direct s/update", "ratio direct/fft"]);
        for &o in &outputs {
            let out_shape = Vec3::cube(o);
            let kernel = Vec3::cube(k);
            let pool = Vec3::cube(2);

            let (g_sparse, _) = comparison_net(width, kernel, pool, true);
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
                format!("{o}^3"),
                fmt(t_znn),
                fmt(t_base),
                format!("{:.2}", t_base / t_znn),
            ]);
        }
        println!();
    }
    println!("shape check: the direct/fft ratio grows with kernel size and");
    println!("crosses 1 at smaller k than in the 2D sweep (Fig 8) — the");
    println!("paper's central CPU-vs-GPU observation.");
}
