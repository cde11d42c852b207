//! Watch the cost-model planner (`znn-plan`) choose direct vs FFT
//! convolution, pad shapes, and the FFT fan-out per conv edge — then
//! verify the planned engine agrees numerically with both forced
//! paths.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use std::sync::Arc;
use znn::core::{PlanPolicy, TrainConfig, Znn};
use znn::graph::NetBuilder;
use znn::ops::{ConvMethod, Transfer};
use znn::plan::{PlanConfig, Planner};
use znn::tensor::{ops, Vec3};

fn main() {
    // small kernels early (direct should win), large kernels late (FFT
    // should win) — a geometry mix that makes the planner earn its keep
    let (graph, _) = NetBuilder::new("tuned", 1)
        .conv(4, Vec3::cube(2))
        .transfer(Transfer::Relu)
        .conv(4, Vec3::cube(7))
        .transfer(Transfer::Relu)
        .conv(1, Vec3::cube(2))
        .build()
        .unwrap();

    let out_shape = Vec3::cube(3);
    // what every unforced run does: price the theory FLOP model
    // through a detected machine model instead of timing each layer
    let planner = Arc::new(Planner::new(PlanConfig::host()));
    println!(
        "machine prior: {} ({} cores, {:.1} GFLOP/s, {:.1} GB/s)",
        planner.config().machine.name,
        planner.config().machine.cores,
        planner.config().machine.gflops,
        planner.config().machine.bandwidth_gbs,
    );
    let planned = Znn::new(
        graph.clone(),
        out_shape,
        TrainConfig {
            plan: Some(PlanPolicy::Auto(Arc::clone(&planner))),
            ..Default::default()
        },
    )
    .unwrap();

    let plan = planned.net_plan().expect("Auto always resolves a plan");
    println!(
        "plan: fft_threads = {}, predicted round = {:.0}µs",
        plan.fft_threads, plan.predicted_round_us
    );
    println!("per conv geometry:");
    let mut seen: Vec<Vec3> = Vec::new();
    for (i, e) in graph.edges().iter().enumerate() {
        if let znn::graph::EdgeOp::Conv { kernel, .. } = e.op {
            if seen.contains(&kernel) {
                continue;
            }
            seen.push(kernel);
            let ep = plan.edges[i].unwrap();
            println!(
                "  kernel {kernel}: {:?} (pad {}, {:.1}µs predicted)",
                ep.method, ep.pad, ep.predicted_us
            );
        }
    }

    // the planned engine and both forced paths agree numerically
    let x = ops::random(planned.input_shape(), 5);
    let y_planned = planned.forward(std::slice::from_ref(&x)).remove(0);
    for method in [ConvMethod::Direct, ConvMethod::Fft] {
        let forced = Znn::new(
            graph.clone(),
            out_shape,
            TrainConfig {
                plan: Some(PlanPolicy::Force(method)),
                ..Default::default()
            },
        )
        .unwrap();
        let y = forced.forward(std::slice::from_ref(&x)).remove(0);
        let d = y.max_abs_diff(&y_planned);
        println!("Force({method:?}) max deviation from planned output: {d:.2e}");
        assert!(d < 1e-3);
    }
    println!("all convolution paths agree.");
}
