//! Integration tests of the training engine: learning behaviour,
//! extensions (dropout, momentum, weight decay), and scheduler/FORCE
//! instrumentation.

use znn_core::{BlobsDataset, Dataset, PlanPolicy, TrainConfig, Znn};
use znn_graph::NetBuilder;
use znn_ops::{ConvMethod, Loss, Transfer};
use znn_tensor::{ops, Tensor3, Vec3};

fn boundary_net() -> znn_graph::Graph {
    NetBuilder::new("it", 1)
        .conv(4, Vec3::cube(3))
        .transfer(Transfer::Relu)
        .conv(1, Vec3::cube(3))
        .transfer(Transfer::Logistic)
        .build()
        .unwrap()
        .0
}

#[test]
fn learns_a_teacher_network() {
    // teacher-student: the target is produced by a network of the same
    // architecture (different seed), so it is representable and the
    // loss must fall substantially if gradients are correct end to end
    let out = Vec3::cube(4);
    let cfg = TrainConfig {
        learning_rate: 0.5,
        loss: Loss::Mse,
        workers: 2,
        ..TrainConfig::test_default(2)
    };
    let znn = Znn::new(boundary_net(), out, cfg).unwrap();
    let mut teacher = znn_baseline::ReferenceNet::new(boundary_net(), out, 99).unwrap();
    let x = ops::random(znn.input_shape(), 3);
    let target = teacher.forward(std::slice::from_ref(&x)).remove(0);
    let mut losses = Vec::new();
    for _ in 0..300 {
        losses.push(znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&target)));
    }
    let early = losses[0];
    let late: f64 = losses[290..].iter().sum::<f64>() / 10.0;
    assert!(
        late < 0.5 * early,
        "no learning signal: early {early} late {late}"
    );
}

#[test]
fn trains_on_procedural_boundary_volumes() {
    // smoke test of the BlobsDataset path end to end (full-task
    // learnability is exercised by the boundary_detection example)
    let out = Vec3::cube(4);
    let znn = Znn::new(boundary_net(), out, TrainConfig::test_default(2)).unwrap();
    let mut data = BlobsDataset {
        input_shape: znn.input_shape(),
        output_shape: out,
        blobs: 2,
        noise: 0.02,
        seed: 3,
    };
    for round in 0..3 {
        let (ins, outs) = data.sample(round);
        let loss = znn.train_step(&ins, &outs);
        assert!(loss.is_finite() && loss >= 0.0);
    }
}

#[test]
fn momentum_and_weight_decay_change_the_trajectory_but_still_learn() {
    let out = Vec3::cube(2);
    let base = TrainConfig {
        learning_rate: 0.05,
        ..TrainConfig::test_default(2)
    };
    let with_momentum = TrainConfig {
        momentum: 0.9,
        weight_decay: 1e-4,
        ..base.clone()
    };
    let plain = Znn::new(boundary_net(), out, base).unwrap();
    let fancy = Znn::new(boundary_net(), out, with_momentum).unwrap();
    let x = ops::random(plain.input_shape(), 21);
    let t = Tensor3::filled(out, 0.5f32);
    let mut l_plain = f64::INFINITY;
    let mut l_fancy = f64::INFINITY;
    let l0_plain = plain.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    let l0_fancy = fancy.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    for _ in 0..25 {
        l_plain = plain.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        l_fancy = fancy.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    }
    assert!(l_plain < l0_plain, "plain SGD failed to learn");
    assert!(l_fancy < l0_fancy, "momentum SGD failed to learn");
    // the trajectories must actually differ
    let d = plain.params().max_abs_diff(&fancy.params());
    assert!(d > 1e-6, "momentum/decay had no effect");
}

#[test]
fn dropout_masks_forward_and_is_disabled_at_inference() {
    let out = Vec3::cube(2);
    let cfg = TrainConfig {
        dropout: Some(0.5),
        learning_rate: 0.0, // isolate dropout effects from learning
        ..TrainConfig::test_default(1)
    };
    let znn = Znn::new(boundary_net(), out, cfg).unwrap();
    let x = ops::random(znn.input_shape(), 31);
    let t = Tensor3::filled(out, 0.5f32);
    // training losses vary round to round because masks differ
    let l1 = znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    let l2 = znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    assert!(
        (l1 - l2).abs() > 1e-9,
        "dropout masks did not vary across rounds"
    );
    // inference is deterministic and mask-free
    let y1 = znn.forward(std::slice::from_ref(&x));
    let y2 = znn.forward(std::slice::from_ref(&x));
    assert_eq!(y1[0], y2[0]);
}

#[test]
fn force_statistics_account_for_every_update() {
    let out = Vec3::cube(2);
    let znn = Znn::new(boundary_net(), out, TrainConfig::test_default(2)).unwrap();
    let x = ops::random(znn.input_shape(), 41);
    let t = Tensor3::filled(out, 0.5f32);
    let rounds = 10u64;
    for _ in 0..rounds {
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    }
    znn.flush_updates();
    let stats = znn.stats();
    let trainable = znn
        .graph()
        .edges()
        .iter()
        .filter(|e| e.op.is_trainable())
        .count() as u64;
    // every (edge, round) pair forces exactly once, plus the final flush
    let total_forces =
        stats.force_already_done + stats.force_ran_inline + stats.force_delegated;
    assert_eq!(total_forces, trainable * (rounds + 1));
    assert!(stats.tasks_executed > 0);
}

#[test]
fn heap_of_lists_sees_few_distinct_priorities() {
    // wide layer -> many tasks share priorities; K must stay far below
    // the task count (the §VII-A argument for the heap of lists)
    let (g, _) = NetBuilder::new("k", 1)
        .conv(8, Vec3::cube(2))
        .transfer(Transfer::Relu)
        .conv(1, Vec3::cube(2))
        .build()
        .unwrap();
    let znn = Znn::new(g, Vec3::cube(2), TrainConfig::test_default(1)).unwrap();
    let x = ops::random(znn.input_shape(), 51);
    let t = Tensor3::filled(Vec3::cube(2), 0.1f32);
    znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    znn.train_step(&[x], &[t]);
    let stats = znn.stats();
    assert!(stats.peak_distinct_priorities > 0);
    assert!(
        stats.peak_distinct_priorities < 24,
        "K should be bounded by node count, got {}",
        stats.peak_distinct_priorities
    );
}

#[test]
fn memoized_spectra_are_bounded_and_cleared() {
    let out = Vec3::cube(2);
    let cfg = TrainConfig {
        plan: Some(PlanPolicy::Force(ConvMethod::Fft)),
        memoize_fft: true,
        ..TrainConfig::test_default(2)
    };
    let znn = Znn::new(boundary_net(), out, cfg).unwrap();
    let x = ops::random(znn.input_shape(), 61);
    let t = Tensor3::filled(out, 0.5f32);
    for _ in 0..3 {
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    }
    // caches hold at most a handful of spectra per node (one shape per
    // pass direction here)
    let spectra = znn.memoized_spectra();
    let nodes = znn.graph().node_count();
    assert!(
        spectra <= 2 * nodes,
        "spectra cache grew unboundedly: {spectra} for {nodes} nodes"
    );
}

#[test]
fn different_seeds_give_different_networks() {
    let out = Vec3::cube(2);
    let a = Znn::new(
        boundary_net(),
        out,
        TrainConfig {
            seed: 1,
            ..TrainConfig::test_default(1)
        },
    )
    .unwrap();
    let b = Znn::new(
        boundary_net(),
        out,
        TrainConfig {
            seed: 2,
            ..TrainConfig::test_default(1)
        },
    )
    .unwrap();
    assert!(a.params().max_abs_diff(&b.params()) > 1e-4);
}

#[test]
fn forward_only_engine_never_deadlocks() {
    // repeated inference without training exercises the latch re-arming
    let out = Vec3::cube(2);
    let znn = Znn::new(boundary_net(), out, TrainConfig::test_default(3)).unwrap();
    for seed in 0..5 {
        let x = ops::random(znn.input_shape(), seed);
        let y = znn.forward(&[x]);
        assert_eq!(y[0].shape(), out);
    }
}

#[test]
fn work_stealing_scheduler_trains_identically() {
    // §X: the work-stealing alternative must compute the same numbers
    // (it only schedules differently)
    let out = Vec3::cube(2);
    let queue = Znn::new(boundary_net(), out, TrainConfig::test_default(2)).unwrap();
    let steal = Znn::new(
        boundary_net(),
        out,
        TrainConfig {
            work_stealing: true,
            ..TrainConfig::test_default(2)
        },
    )
    .unwrap();
    let x = ops::random(queue.input_shape(), 71);
    let t = Tensor3::filled(out, 0.5f32);
    for round in 0..5 {
        let a = queue.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        let b = steal.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()), "round {round}: {a} vs {b}");
    }
    assert!(queue.params().max_abs_diff(&steal.params()) < 1e-3);
}

#[test]
fn fft_thread_budget_routes_from_config_without_changing_results() {
    // the fft_threads knob must only change *where* line chunks run,
    // never a bit of the result: with a single scheduler worker the
    // task order is fixed, so losses must match exactly across budgets
    let out = Vec3::cube(6);
    let run = |fft_threads: Option<usize>| -> Vec<f64> {
        let cfg = TrainConfig {
            workers: 1,
            plan: Some(PlanPolicy::Force(ConvMethod::Fft)),
            memoize_fft: true,
            fft_threads,
            learning_rate: 0.05,
            ..Default::default()
        };
        let znn = Znn::new(boundary_net(), out, cfg).unwrap();
        let x = ops::random(znn.input_shape(), 17);
        let t = Tensor3::<f32>::zeros(out);
        (0..4)
            .map(|_| znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t)))
            .collect()
    };
    let serial = run(Some(1));
    let shared = run(None); // share the scheduler's (single) worker
    let wide = run(Some(4));
    assert_eq!(serial, shared, "shared-budget drifted from serial");
    assert_eq!(serial, wide, "4-way fan-out drifted from serial");
    assert!(serial[0].is_finite());
}

#[test]
fn params_right_after_a_round_include_every_running_update() {
    // train_step returns with this round's updates queued at the lowest
    // priority, and a worker may already be executing one when params()
    // runs: the snapshot must wait for it, so it equals the snapshot
    // taken once the engine is fully quiescent
    let net = NetBuilder::new("wide", 1)
        .conv(8, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .conv(8, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Logistic)
        .build()
        .unwrap()
        .0;
    let out = Vec3::flat(12, 12);
    let cfg = TrainConfig {
        learning_rate: 0.01,
        ..TrainConfig::test_default(2)
    };
    let znn = Znn::new(net, out, cfg).unwrap();
    let x = ops::random(znn.input_shape(), 5);
    let target = ops::random(out, 6);
    for round in 0..200 {
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&target));
        let early = znn.params();
        znn.wait_quiescent();
        let settled = znn.params();
        assert!(
            early == settled,
            "round {round}: params() missed a running update (max change {})",
            early.max_abs_diff(&settled)
        );
    }
}
