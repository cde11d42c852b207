//! Deterministic tests for the server's robustness boundaries:
//! exact-watermark shedding, mid-volume deadline expiry with zero
//! leaked pool bytes, panicking-request isolation, the degradation
//! ladder, shutdown semantics, and a property test over batch
//! assembly with mixed request shapes.
//!
//! All deterministic tests run a `workers: 0` server and drive it
//! with [`Server::run_pending`], which uses the same batch-assembly
//! path as the worker threads — orderings are exact, never timing-
//! dependent.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use znn_alloc::PoolSet;
use znn_core::{DenseConfig, DenseNet};
use znn_fault::{FaultKind, FaultPlan};
use znn_graph::{Graph, NetBuilder};
use znn_ops::{ConvMethod, Transfer};
use znn_serve::{Rejected, ServeConfig, Server};
use znn_tensor::{ops, Vec3};

/// A small dense (max-filtering) recognition net, fov 1×8×8.
fn filtering_net() -> Graph {
    NetBuilder::new("filter", 1)
        .conv(2, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_filter(Vec3::flat(2, 2))
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .unwrap()
        .0
}

fn dense_net(pools: Arc<PoolSet>) -> Arc<DenseNet> {
    let cfg = DenseConfig {
        method: Some(ConvMethod::Direct),
        pools: Some(pools),
        ..DenseConfig::default()
    };
    Arc::new(DenseNet::new(filtering_net(), 7, cfg).unwrap())
}

#[test]
fn shedding_starts_exactly_at_the_watermark() {
    let net = dense_net(PoolSet::new());
    let server = Server::start(
        net,
        ServeConfig {
            workers: 0,
            queue_capacity: 4,
            admission_watermark: 3,
            ..ServeConfig::default()
        },
    );
    let shape = Vec3::flat(12, 12);
    let mut tickets = Vec::new();
    for _ in 0..3 {
        tickets.push(server.submit(ops::random(shape, 1), None).unwrap());
    }
    // depth == watermark: the next submit is shed, typed
    let err = server.submit(ops::random(shape, 2), None).unwrap_err();
    assert_eq!(
        err,
        Rejected::Overloaded {
            queue_depth: 3,
            watermark: 3
        }
    );
    assert_eq!(server.queue_depth(), 3);
    assert_eq!(server.run_pending(), 3);
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    // queue drained: admission is open again
    let t = server.submit(ops::random(shape, 3), None).unwrap();
    assert_eq!(server.run_pending(), 1);
    assert!(t.wait().is_ok());

    let stats = server.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.shed_overload, 1);
    assert!(stats.shed_rate() > 0.19 && stats.shed_rate() < 0.21);
}

#[test]
fn deadline_expires_mid_volume_and_returns_every_lease() {
    let pools = PoolSet::new();
    let faults = Arc::new(FaultPlan::new().arm(FaultKind::SlowTask, 1)); // stall request 1 after block 0
    let net = dense_net(Arc::clone(&pools));
    let server = Server::start(
        Arc::clone(&net),
        ServeConfig {
            workers: 0,
            block: Vec3::flat(3, 3), // many output blocks per volume
            faults: Some(faults),
            slow_task: Duration::from_millis(60),
            ..ServeConfig::default()
        },
    );
    let ticket = server
        .submit(
            ops::random(Vec3::flat(20, 20), 1),
            Some(Duration::from_millis(30)),
        )
        .unwrap();
    assert_eq!(server.run_pending(), 1);
    match ticket.wait().unwrap_err() {
        Rejected::DeadlineExceeded {
            blocks_done,
            blocks_total,
        } => {
            assert!(blocks_done >= 1, "block 0 completes before the stall");
            assert!(blocks_done < blocks_total, "expired mid-volume");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.deadline_missed, 1);
    assert_eq!(stats.completed, 0);
    // the cancelled evaluation returned every pooled lease
    assert_eq!(pools.stats().bytes_in_use(), 0);

    // the server keeps serving after the miss
    let t = server.submit(ops::random(Vec3::flat(12, 12), 2), None).unwrap();
    server.run_pending();
    assert!(t.wait().is_ok());
}

#[test]
fn panicking_request_poisons_only_its_own_response() {
    let pools = PoolSet::new();
    let faults = Arc::new(FaultPlan::new().arm(FaultKind::TaskPanic, 2)); // request 2 panics mid-batch
    let net = dense_net(Arc::clone(&pools));
    let server = Server::start(
        Arc::clone(&net),
        ServeConfig {
            workers: 0,
            max_batch: 4, // all three requests land in one batch
            faults: Some(faults),
            ..ServeConfig::default()
        },
    );
    let shape = Vec3::flat(14, 14);
    let expect_shape = net.output_shape_for(shape).unwrap();
    let tickets: Vec<_> = (0..3)
        .map(|i| server.submit(ops::random(shape, i), None).unwrap())
        .collect();
    assert_eq!(server.run_pending(), 3);

    let mut results = tickets.into_iter().map(|t| t.wait());
    let first = results.next().unwrap().unwrap();
    assert_eq!(first.shape(), expect_shape);
    match results.next().unwrap().unwrap_err() {
        Rejected::Panicked { message } => {
            assert!(message.contains("fault-injection"), "got: {message}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let third = results.next().unwrap().unwrap();
    assert_eq!(third.shape(), expect_shape);

    let stats = server.stats();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 2);
    // the unwound request leaked nothing (the completed responses are
    // leases too — return them before counting)
    drop(first);
    drop(third);
    assert_eq!(pools.stats().bytes_in_use(), 0);
}

#[test]
fn reject_lease_fault_is_shed_typed_not_unwound() {
    let faults = Arc::new(FaultPlan::new().arm(FaultKind::RejectLease, 1));
    let net = dense_net(PoolSet::new());
    let server = Server::start(
        net,
        ServeConfig {
            workers: 0,
            faults: Some(faults),
            ..ServeConfig::default()
        },
    );
    let shape = Vec3::flat(12, 12);
    assert_eq!(
        server.submit(ops::random(shape, 1), None).unwrap_err(),
        Rejected::LeaseRefused
    );
    // only request 1 was armed; request 2 sails through
    let t = server.submit(ops::random(shape, 2), None).unwrap();
    server.run_pending();
    assert!(t.wait().is_ok());
    assert_eq!(server.stats().lease_refused, 1);
}

#[test]
fn degradation_halves_batches_before_shedding() {
    let net = dense_net(PoolSet::new());
    let whole = {
        let img = ops::random(Vec3::flat(16, 16), 9);
        (img.clone(), net.forward(&img))
    };
    let server = Server::start(
        Arc::clone(&net),
        ServeConfig {
            workers: 0,
            queue_capacity: 8,
            max_batch: 4,
            block: Vec3::flat(8, 8),
            degrade_watermark: Some(2),
            ..ServeConfig::default()
        },
    );
    let mut tickets = Vec::new();
    for i in 0..6 {
        tickets.push(server.submit(ops::random(Vec3::flat(16, 16), 10 + i), None).unwrap());
    }
    let degraded_submit = server.submit(whole.0.clone(), None).unwrap();
    assert_eq!(server.run_pending(), 7);
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    // degraded blocks still compute the exact same dense function
    assert_eq!(degraded_submit.wait().unwrap().max_abs_diff(&whole.1), 0.0);
    let stats = server.stats();
    assert!(
        stats.degraded_batches >= 1,
        "queue depth 6 >= watermark 2 must degrade: {stats:?}"
    );
    assert_eq!(stats.shed_overload, 0, "degradation happens before shedding");
}

#[test]
fn shutdown_fails_pending_requests_typed() {
    let net = dense_net(PoolSet::new());
    let server = Server::start(
        net,
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
    );
    let shape = Vec3::flat(12, 12);
    let t1 = server.submit(ops::random(shape, 1), None).unwrap();
    let t2 = server.submit(ops::random(shape, 2), None).unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.shutdown_rejected, 2);
    assert_eq!(t1.wait().unwrap_err(), Rejected::ShuttingDown);
    assert_eq!(t2.wait().unwrap_err(), Rejected::ShuttingDown);
}

#[test]
fn threaded_server_survives_mixed_faults_with_zero_leak() {
    // a real worker pool under a recurring fault mix: every 3rd
    // request stalls, every 5th panics — the server answers everything
    // and leaks nothing
    let pools = PoolSet::new();
    let faults = Arc::new(
        FaultPlan::new()
            .every_n(FaultKind::SlowTask, 3, 3)
            .every_n(FaultKind::TaskPanic, 5, 5),
    );
    let net = dense_net(Arc::clone(&pools));
    net.warmup(Vec3::flat(16, 16));
    let server = Server::start(
        Arc::clone(&net),
        ServeConfig {
            workers: 2,
            queue_capacity: 32,
            faults: Some(faults),
            slow_task: Duration::from_millis(2),
            block: Vec3::flat(6, 6),
            ..ServeConfig::default()
        },
    );
    let mut completed = 0;
    let mut panicked = 0;
    for i in 0..20 {
        let t = server
            .submit(ops::random(Vec3::flat(16, 16), i), None)
            .unwrap();
        match t.wait() {
            Ok(_) => completed += 1,
            Err(Rejected::Panicked { .. }) => panicked += 1,
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert_eq!(panicked, 4, "requests 5, 10, 15, 20 panic");
    assert_eq!(completed, 16);
    let stats = server.shutdown();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.panicked, 4);
    drop(net);
    assert_eq!(pools.stats().bytes_in_use(), 0, "zero pooled bytes leaked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch assembly over mixed request shapes: every admitted
    /// request is answered with the correct dense output shape, and
    /// undersized volumes are refused typed at admission — nothing is
    /// ever lost or misrouted, for any batch/capacity configuration.
    #[test]
    fn batch_assembly_answers_every_mixed_shape_request(
        shapes in proptest::collection::vec((1usize..28, 1usize..28), 1..12),
        max_batch in 1usize..6,
        seed in any::<u64>(),
    ) {
        let net = dense_net(PoolSet::new());
        let fov = net.fov();
        let server = Server::start(
            Arc::clone(&net),
            ServeConfig {
                workers: 0,
                queue_capacity: 16,
                max_batch,
                block: Vec3::flat(5, 7),
                ..ServeConfig::default()
            },
        );
        let mut expected = Vec::new();
        for (i, &(y, x)) in shapes.iter().enumerate() {
            let shape = Vec3::flat(y, x);
            let img = ops::random(shape, seed.wrapping_add(i as u64));
            match server.submit(img, None) {
                Ok(t) => expected.push((t, net.output_shape_for(shape))),
                Err(Rejected::Invalid { shape: s, fov: f }) => {
                    prop_assert_eq!(s, shape);
                    prop_assert_eq!(f, fov);
                    prop_assert!(net.output_shape_for(shape).is_none());
                }
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
        server.run_pending();
        let stats = server.stats();
        prop_assert_eq!(stats.completed as usize, expected.len());
        for (t, want) in expected {
            let out = t.wait().unwrap();
            prop_assert_eq!(Some(out.shape()), want);
        }
    }
}
