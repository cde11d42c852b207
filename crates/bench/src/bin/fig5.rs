//! Fig 5 — speedup vs number of worker threads, 2D (top row) and 3D
//! (bottom row), one column per Table V machine, one line per network
//! width.
//!
//! The four paper machines are reproduced by the discrete-event
//! simulator executing the real task graph under the real priority
//! policy (the `znn-sim` crate docs say what it models and what it
//! abstracts away). Pass
//! `--host` to also measure true wall-clock speedup on this machine's
//! threads with the real engine (only meaningful on multi-core hosts).

use znn_graph::builder::{scalability_net_2d, scalability_net_3d};
use znn_sim::costs::task_costs;
use znn_sim::{simulate, Machine, SimConfig};
use znn_tensor::Vec3;
use znn_theory::flops::ConvAlgorithm;

fn thread_grid(max: usize) -> Vec<usize> {
    let mut v = vec![1, 2, 4];
    let mut t = 8;
    while t < max {
        v.push(t);
        t += max.div_ceil(16).max(4);
    }
    v.push(max);
    v.dedup();
    v
}

fn main() {
    let host = std::env::args().any(|a| a == "--host");
    // paper widths 5..120; trimmed grid keeps runtime sane
    let widths = [5usize, 10, 20, 40, 80, 120];

    for (dim, algo, out_shape) in [
        ("2D", ConvAlgorithm::Fft, Vec3::flat(48, 48)),
        ("3D", ConvAlgorithm::Direct, Vec3::cube(12)),
    ] {
        println!("# Fig 5 — {dim} networks ({algo:?} convolution)\n");
        for machine in Machine::table_v() {
            println!("## {}", machine.name);
            for &w in &widths {
                let (g, _) = if dim == "2D" {
                    scalability_net_2d(w)
                } else {
                    scalability_net_3d(w)
                };
                let (tg, costs) = task_costs(&g, out_shape, algo, true).unwrap();
                let series: Vec<String> = thread_grid(machine.hw_threads)
                    .into_iter()
                    .map(|workers| {
                        let r = simulate(
                            &tg,
                            &costs,
                            &machine,
                            &SimConfig {
                                workers,
                                rounds: 2,
                                ..Default::default()
                            },
                        );
                        format!("{workers}:{:.1}", r.speedup)
                    })
                    .collect();
                println!("width {w:>3}: {}", series.join("  "));
            }
            println!();
        }
    }

    if host {
        host_measurement();
    } else {
        println!("(run with --host to measure real threads on this machine)");
    }
}

/// Real-thread measurement with the actual engine — the counterpart of
/// the paper's hardware runs. On a single-core host this necessarily
/// prints ~1x for every worker count.
fn host_measurement() {
    use znn_core::{PlanPolicy, TrainConfig, Znn};
    use znn_ops::ConvMethod;
    use znn_tensor::ops;
    println!("\n# Host measurement (real engine, real threads)\n");
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let out = Vec3::cube(4);
    for &w in &[4usize, 8] {
        let (g, _) = scalability_net_3d(w);
        let mut serial_time = None;
        let mut line = format!("width {w:>2}: ");
        for workers in [1usize, 2, 4, max].into_iter().filter(|&x| x <= max) {
            let cfg = TrainConfig {
                workers,
                plan: Some(PlanPolicy::Force(ConvMethod::Direct)),
                ..TrainConfig::test_default(workers)
            };
            let znn = Znn::new(g.clone(), out, cfg).unwrap();
            let x = ops::random(znn.input_shape(), 1);
            let t = ops::random(out, 2);
            let dt = znn_bench::time_per_round(2, 5, || {
                znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
            });
            let base = *serial_time.get_or_insert(dt);
            line.push_str(&format!("{workers}:{:.2}  ", base / dt));
        }
        println!("{line}");
    }
}
