//! Differential property tests on randomly generated computation
//! graphs: for any valid DAG the paper's constraints allow, the
//! task-parallel engine must agree with the sequential reference.

use proptest::prelude::*;
use znn_baseline::ReferenceNet;
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::{EdgeOp, Graph};
use znn_ops::{ConvMethod, Loss, Transfer};
use znn_tensor::{ops, Vec3};

/// A random layered DAG honouring §II's constraints: convergent edges
/// are convolutions; non-conv edges are non-convergent; layers may be
/// skipped by conv edges (multi-scale style).
#[derive(Debug, Clone)]
struct RandomNet {
    graph: Graph,
    out_shape: Vec3,
}

fn random_net() -> impl Strategy<Value = RandomNet> {
    (
        2usize..4,                       // layer count
        proptest::collection::vec(1usize..3, 2..4), // widths per layer
        any::<u64>(),                    // wiring seed
        prop_oneof![Just(true), Just(false)], // flat (2D) or cubic
    )
        .prop_map(|(layers, widths, seed, flat)| {
            let mut g = Graph::new();
            let dims = |k: usize| if flat { Vec3::flat(k, k) } else { Vec3::cube(k) };
            let mut prev: Vec<_> = (0..widths[0])
                .map(|i| g.add_node(format!("l0/{i}")))
                .collect();
            let mut rng = seed;
            let mut next_u = || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) as usize
            };
            for (l, &width) in widths.iter().enumerate().take(layers).skip(1) {
                let cur: Vec<_> = (0..width)
                    .map(|i| g.add_node(format!("l{l}/{i}")))
                    .collect();
                // each new node gets 1..=2 conv in-edges from the
                // previous layer, ensuring convergence is conv-only
                for &to in &cur {
                    let fan = 1 + next_u() % 2;
                    for _ in 0..fan.min(prev.len()) {
                        let from = prev[next_u() % prev.len()];
                        g.add_edge(
                            from,
                            to,
                            EdgeOp::Conv {
                                kernel: dims(1 + next_u() % 2 + 1),
                                sparsity: Vec3::one(),
                            },
                        );
                    }
                }
                // sometimes add a transfer tail to one node
                if next_u() % 2 == 0 {
                    let owner = cur[next_u() % cur.len()];
                    let t = g.add_node(format!("l{l}/t"));
                    let f = match next_u() % 3 {
                        0 => Transfer::Relu,
                        1 => Transfer::Tanh,
                        _ => Transfer::Logistic,
                    };
                    g.add_edge(owner, t, EdgeOp::Transfer { function: f });
                    prev = vec![t];
                    continue;
                }
                prev = cur;
            }
            RandomNet {
                graph: g,
                out_shape: if flat { Vec3::flat(2, 2) } else { Vec3::cube(2) },
            }
        })
        .prop_filter("valid and shapeable", |net| {
            net.graph.validate().is_ok()
                && znn_graph::shapes::required_input_shape(&net.graph, net.out_shape).is_ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_matches_reference_on_random_graphs(net in random_net(), seed in any::<u64>()) {
        // NB: convergence at output nodes of differing shapes can fail
        // shape inference; the filter above rejects those.
        let cfg = TrainConfig {
            learning_rate: 0.01,
            ..TrainConfig::test_default(2)
        };
        let znn = match Znn::new(net.graph.clone(), net.out_shape, cfg) {
            Ok(z) => z,
            Err(_) => return Ok(()), // convergence shape mismatch: skip
        };
        let mut reference = ReferenceNet::new(net.graph.clone(), net.out_shape, 0x5EED).unwrap();
        let inputs: Vec<_> = net
            .graph
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, _)| ops::random(znn.input_shape(), seed ^ (0xA0 + i as u64)))
            .collect();
        let outputs = net.graph.outputs();
        // output nodes with shallower fields of view produce larger
        // patches than `out_shape`; size each target from inference
        let inferred =
            znn_graph::shapes::infer_shapes(&net.graph, znn.input_shape()).unwrap();
        let targets: Vec<_> = outputs
            .iter()
            .enumerate()
            .map(|(i, o)| ops::random(inferred[o], seed ^ (i as u64 + 1)))
            .collect();

        let l1 = znn.train_step(&inputs, &targets);
        let l2 = reference.train_step(&inputs, &targets, Loss::Mse, 0.01);
        prop_assert!(
            (l1 - l2).abs() < 1e-3 * (1.0 + l2.abs()),
            "loss {l1} vs {l2}"
        );
        let d = znn.params().max_abs_diff(reference.params());
        prop_assert!(d < 1e-3, "param divergence {d}");
    }

    #[test]
    fn fft_engine_matches_direct_engine_on_random_graphs(net in random_net(), seed in any::<u64>()) {
        let direct = match Znn::new(
            net.graph.clone(),
            net.out_shape,
            TrainConfig::test_default(2),
        ) {
            Ok(z) => z,
            Err(_) => return Ok(()),
        };
        let fft = Znn::new(
            net.graph.clone(),
            net.out_shape,
            TrainConfig {
                plan: Some(PlanPolicy::Force(ConvMethod::Fft)),
                memoize_fft: true,
                ..TrainConfig::test_default(2)
            },
        )
        .unwrap();
        let inputs: Vec<_> = net
            .graph
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, _)| ops::random(direct.input_shape(), seed ^ (0xB0 + i as u64)))
            .collect();
        let a = direct.forward(&inputs);
        let b = fft.forward(&inputs);
        for (ya, yb) in a.iter().zip(&b) {
            prop_assert!(ya.max_abs_diff(yb) < 2e-3, "{}", ya.max_abs_diff(yb));
        }
    }
}
