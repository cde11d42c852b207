//! The benchmark's networks and workload table.

use znn_graph::{Graph, NetBuilder};
use znn_ops::Transfer;
use znn_tensor::Vec3;

/// How a workload drives the engine in its timed window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Trainer::run_recoverable` with durable checkpoints, as
    /// `znn-train --checkpoint-dir` drives it.
    TrainRecoverable,
    /// Plain `Trainer::run`.
    Train,
    /// Dense inference behind `znn-serve`, open-loop arrivals.
    Serve,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    /// Builds the network graph.
    pub build: fn() -> Graph,
    /// Output patch of one training round.
    pub train_out: Vec3,
    /// Input volume of one serving request.
    pub request: Vec3,
    /// Rounds per driver call; under `run_recoverable` each call ends
    /// with a durable checkpoint, so this is the checkpoint interval.
    pub ckpt_every: u64,
}

/// The paper's §VIII 3D regime: `C5³ T M2³ C5³ T C5³ T C5³ T`, width 8.
/// The max-filter keeps the net shift invariant, so the same graph
/// trains sparsely and serves densely.
pub fn net3d() -> Graph {
    let k = Vec3::cube(5);
    NetBuilder::new("bench-3d", 1)
        .conv(8, k)
        .transfer(Transfer::Relu)
        .max_filter(Vec3::cube(2))
        .conv(8, k)
        .transfer(Transfer::Relu)
        .conv(8, k)
        .transfer(Transfer::Relu)
        .conv(1, k)
        .transfer(Transfer::Logistic)
        .build()
        .expect("3D bench net is valid")
        .0
}

/// A wide 2D net of width 16: `C3² T M2² C3² T M2² C3² T C3² T C3² T`,
/// 800 conv edges of small kernels. Hidden transfers are tanh: each node
/// sums 16 edges whose kernels are scaled for one edge, so under ReLU
/// the activations grow every layer and the logistic output starts at
/// about 1e-30.
pub fn net2d() -> Graph {
    let k = Vec3::flat(3, 3);
    let m = Vec3::flat(2, 2);
    NetBuilder::new("bench-2d", 1)
        .conv(16, k)
        .transfer(Transfer::Tanh)
        .max_filter(m)
        .conv(16, k)
        .transfer(Transfer::Tanh)
        .max_filter(m)
        .conv(16, k)
        .transfer(Transfer::Tanh)
        .conv(16, k)
        .transfer(Transfer::Tanh)
        .conv(1, k)
        .transfer(Transfer::Logistic)
        .build()
        .expect("2D bench net is valid")
        .0
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train3d_fft",
        mode: Mode::TrainRecoverable,
        build: net3d,
        train_out: Vec3::cube(4),
        request: Vec3::cube(33),
        ckpt_every: 25,
    },
    Workload {
        name: "train2d_direct",
        mode: Mode::Train,
        build: net2d,
        train_out: Vec3::flat(48, 48),
        request: Vec3::flat(81, 81),
        ckpt_every: 25,
    },
    Workload {
        name: "serve3d_dense",
        mode: Mode::Serve,
        build: net3d,
        train_out: Vec3::cube(4),
        request: Vec3::cube(40),
        ckpt_every: 25,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
