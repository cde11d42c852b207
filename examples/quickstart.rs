//! Quickstart: build a small 3D ConvNet, train it with the
//! task-parallel ZNN engine, and run inference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use znn::core::{BlobsDataset, Dataset, TrainConfig, Znn};
use znn::graph::NetBuilder;
use znn::ops::{Loss, Transfer};
use znn::tensor::Vec3;

fn main() {
    // 1. Describe the network: a computation graph whose nodes are 3D
    //    images and whose edges are convolutions / transfers / filters.
    //    `conv` layers are fully connected (f x f' kernels).
    let (graph, info) = NetBuilder::new("quickstart", 1)
        .conv(8, Vec3::cube(3))
        .transfer(Transfer::Relu)
        .max_filter(Vec3::cube(2)) // bumps conv sparsity, keeps resolution
        .conv(8, Vec3::cube(3))
        .transfer(Transfer::Relu)
        .conv(1, Vec3::cube(3))
        .transfer(Transfer::Logistic)
        .build()
        .expect("valid architecture");
    println!(
        "network: {} nodes, {} edges, {} trainable parameters, {} layers",
        graph.node_count(),
        graph.edge_count(),
        graph.parameter_count(),
        info.layers.len(),
    );

    // 2. Configure the engine. The cost-model planner picks direct vs FFT
    //    convolution per layer; updates are scheduled lazily and forced
    //    by the next round exactly as in the paper.
    let output_shape = Vec3::cube(8);
    let cfg = TrainConfig {
        learning_rate: 0.01,
        loss: Loss::Mse,
        ..Default::default()
    };
    let znn = Znn::new(graph, output_shape, cfg).expect("shapes check out");
    println!(
        "input patch {} -> output patch {output_shape}",
        znn.input_shape()
    );

    // 3. Train on procedural boundary-detection volumes.
    let mut data = BlobsDataset {
        input_shape: znn.input_shape(),
        output_shape,
        blobs: 3,
        noise: 0.05,
        seed: 7,
    };
    for round in 0..20u64 {
        let (inputs, targets) = data.sample(round);
        let loss = znn.train_step(&inputs, &targets);
        if round % 5 == 0 {
            println!("round {round:>3}: loss {loss:.4}");
        }
    }

    // 4. Inference: pending updates are forced automatically.
    let (inputs, _) = data.sample(999);
    let prediction = znn.forward(&inputs).remove(0);
    println!(
        "inference done: output {} with mean activation {:.3}",
        prediction.shape(),
        prediction.sum() / prediction.len() as f32
    );

    // 5. Scheduler introspection: how the FORCE protocol resolved.
    let stats = znn.stats();
    println!(
        "scheduler: {} tasks executed; updates found-done/inline/delegated = {}/{}/{}",
        stats.tasks_executed,
        stats.force_already_done,
        stats.force_ran_inline,
        stats.force_delegated,
    );
}
