//! Differential tests: the task-parallel engine must agree with the
//! independent sequential reference implementation on every
//! configuration axis — convolution method, FFT memoization, frequency
//! accumulation, worker count, and graph shape.

use znn_baseline::ReferenceNet;
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::builder::{comparison_net, scalability_net_3d};
use znn_graph::{Graph, NetBuilder};
use znn_ops::{ConvMethod, Loss, Transfer};
use znn_tensor::{ops, Image, Tensor3, Vec3};

fn cfg(workers: usize, method: ConvMethod, memoize: bool) -> TrainConfig {
    TrainConfig {
        workers,
        plan: Some(PlanPolicy::Force(method)),
        memoize_fft: memoize,
        learning_rate: 0.02,
        ..TrainConfig::test_default(workers)
    }
}

fn check_agreement(graph: Graph, out_shape: Vec3, config: TrainConfig, rounds: usize, tol: f32) {
    let seed = config.seed;
    let znn = Znn::new(graph.clone(), out_shape, config.clone()).unwrap();
    let mut reference = ReferenceNet::new(graph, out_shape, seed).unwrap();
    let x = ops::random(znn.input_shape(), 77);
    let t = ops::random(out_shape, 78).map(|v| 0.4 * v);

    // identical starting parameters by construction (same seed)
    assert!(znn.params().max_abs_diff(reference.params()) == 0.0);

    for round in 0..rounds {
        let l_znn = znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        let l_ref = reference.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t), Loss::Mse, 0.02);
        assert!(
            (l_znn - l_ref).abs() < tol as f64 * (1.0 + l_ref.abs()),
            "round {round}: loss {l_znn} vs {l_ref}"
        );
    }
    let d = znn.params().max_abs_diff(reference.params());
    assert!(d < tol, "parameter divergence {d}");

    // and inference agrees after training
    let y_znn = znn.forward(std::slice::from_ref(&x));
    let y_ref = reference.forward(&[x]);
    let dy = y_znn[0].max_abs_diff(&y_ref[0]);
    assert!(dy < tol, "output divergence {dy}");
}

fn small_graph() -> (Graph, Vec3) {
    let (g, _) = NetBuilder::new("diff", 1)
        .conv(3, Vec3::cube(2))
        .transfer(Transfer::Tanh)
        .conv(2, Vec3::cube(2))
        .transfer(Transfer::Logistic)
        .conv(1, Vec3::cube(2))
        .transfer(Transfer::Linear)
        .build()
        .unwrap();
    (g, Vec3::cube(2))
}

#[test]
fn direct_single_worker_matches_reference() {
    let (g, out) = small_graph();
    check_agreement(g, out, cfg(1, ConvMethod::Direct, false), 4, 1e-3);
}

#[test]
fn direct_multi_worker_matches_reference() {
    let (g, out) = small_graph();
    check_agreement(g, out, cfg(4, ConvMethod::Direct, false), 4, 1e-3);
}

#[test]
fn fft_without_memoization_matches_reference() {
    let (g, out) = small_graph();
    check_agreement(g, out, cfg(2, ConvMethod::Fft, false), 3, 2e-3);
}

#[test]
fn fft_with_memoization_matches_reference() {
    let (g, out) = small_graph();
    check_agreement(g, out, cfg(2, ConvMethod::Fft, true), 3, 2e-3);
}

#[test]
fn pooling_and_filtering_nets_match_reference() {
    for sparse in [false, true] {
        let (g, _) = comparison_net(2, Vec3::flat(3, 3), Vec3::flat(2, 2), sparse);
        check_agreement(
            g,
            Vec3::flat(2, 2),
            cfg(3, ConvMethod::Direct, false),
            2,
            2e-3,
        );
    }
}

#[test]
fn sparse_fft_training_matches_reference() {
    // skip kernels through the FFT path (dilated kernels + lattice
    // gather in the gradients)
    let (g, _) = comparison_net(2, Vec3::flat(3, 3), Vec3::flat(2, 2), true);
    check_agreement(
        g,
        Vec3::flat(2, 2),
        cfg(2, ConvMethod::Fft, true),
        2,
        5e-3,
    );
}

#[test]
fn paper_3d_architecture_matches_reference() {
    let (g, _) = scalability_net_3d(2);
    check_agreement(
        g,
        Vec3::cube(2),
        cfg(4, ConvMethod::Direct, false),
        2,
        2e-3,
    );
}

#[test]
fn unplanned_config_plans_itself_and_stays_correct() {
    // `plan: None` resolves an Auto plan on a host planner: whatever
    // mix of methods and pads it prices, training must still agree
    // with the sequential reference
    let (g, out) = small_graph();
    let config = TrainConfig {
        plan: None,
        ..cfg(2, ConvMethod::Direct, true)
    };
    check_agreement(g, out, config, 2, 2e-3);
}

#[test]
fn multi_output_networks_train() {
    // a diamond: input feeds two conv stacks with separate outputs
    let mut g = Graph::new();
    let i = g.add_node("in");
    let a = g.add_node("a");
    let b = g.add_node("b");
    let conv = znn_graph::EdgeOp::Conv {
        kernel: Vec3::cube(2),
        sparsity: Vec3::one(),
    };
    g.add_edge(i, a, conv);
    g.add_edge(i, b, conv);
    let out = Vec3::cube(3);
    let znn = Znn::new(g.clone(), out, cfg(2, ConvMethod::Direct, false)).unwrap();
    let mut reference = ReferenceNet::new(g, out, cfg(1, ConvMethod::Direct, false).seed).unwrap();
    let x = ops::random(znn.input_shape(), 5);
    let t1: Image = Tensor3::zeros(out);
    let t2: Image = Tensor3::filled(out, 0.5);
    let l = znn.train_step(std::slice::from_ref(&x), &[t1.clone(), t2.clone()]);
    let lr = reference.train_step(&[x], &[t1, t2], Loss::Mse, 0.02);
    assert!((l - lr).abs() < 1e-3 * (1.0 + lr.abs()), "{l} vs {lr}");
}

#[test]
fn r2c_fft_gradients_match_direct_method() {
    // the r2c half-spectrum pipeline (memoized forward/backward/update
    // spectra, frequency-domain accumulation, flip/corr identities)
    // must produce the same parameter updates as the direct spatial
    // method on the same engine — the gradient-parity gate for the
    // half-spectrum switch
    let (g, out) = small_graph();
    let fft = Znn::new(g.clone(), out, cfg(2, ConvMethod::Fft, true)).unwrap();
    let direct = Znn::new(g, out, cfg(2, ConvMethod::Direct, false)).unwrap();
    assert!(fft.params().max_abs_diff(&direct.params()) == 0.0);
    let x = ops::random(fft.input_shape(), 91);
    let t = ops::random(out, 92).map(|v| 0.4 * v);
    for round in 0..3 {
        let lf = fft.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        let ld = direct.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        assert!(
            (lf - ld).abs() < 1e-3 * (1.0 + ld.abs()),
            "round {round}: loss {lf} vs {ld}"
        );
    }
    // after three rounds every kernel has been updated from FFT-path
    // gradients three times; divergence bounds the per-round gradient
    // disagreement. The bound leaves headroom over the typical ~1e-3
    // drift: at 2 workers the wait-free node sums accumulate
    // contributions in arrival order, so the f32 rounding of the
    // FFT-vs-direct comparison varies run to run (observed up to
    // ~2.2e-3 under full test-suite load) — a genuinely wrong gradient
    // diverges by orders of magnitude more after three updates.
    let d = fft.params().max_abs_diff(&direct.params());
    assert!(d < 5e-3, "parameter divergence {d} between r2c and direct");
}
