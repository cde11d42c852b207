//! Planner ↔ engine integration: `Force` must be exactly `Fixed` of
//! the forced plan, an unplanned config must resolve an `Auto` plan,
//! `Auto` must stay competitive with every fixed strategy, and
//! calibration must feed back into the live engine.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::builder::scalability_net_3d;
use znn_graph::{EdgeOp, Graph, NetBuilder};
use znn_ops::{ConvMethod, Transfer};
use znn_plan::{Machine, NetPlan, PlanConfig, Planner};
use znn_tensor::{ops, Vec3};

fn small_graph() -> (Graph, Vec3) {
    let (g, _) = NetBuilder::new("plan-it", 1)
        .conv(3, Vec3::cube(3))
        .transfer(Transfer::Tanh)
        .conv(2, Vec3::cube(2))
        .transfer(Transfer::Logistic)
        .conv(1, Vec3::cube(2))
        .transfer(Transfer::Linear)
        .build()
        .unwrap();
    (g, Vec3::cube(4))
}

fn cfg(workers: usize, plan: Option<PlanPolicy>) -> TrainConfig {
    TrainConfig {
        workers,
        plan,
        memoize_fft: true,
        learning_rate: 0.02,
        ..TrainConfig::test_default(workers)
    }
}

/// Every test here holds this lock, so the wall-clock comparison in
/// `auto_is_competitive_with_every_fixed_strategy` never shares the
/// CPU with another test's training rounds or host probe.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `rounds` training steps and returns the losses.
fn losses(graph: &Graph, out: Vec3, config: TrainConfig, rounds: usize) -> Vec<f64> {
    let znn = Znn::new(graph.clone(), out, config).unwrap();
    let x = ops::random(znn.input_shape(), 91);
    let t = ops::random(out, 92).map(|v| 0.3 * v);
    (0..rounds)
        .map(|_| znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t)))
        .collect()
}

/// `Force(method)` must resolve to exactly `NetPlan::force(method,
/// budget, false)` and replay a `Fixed` run of that plan to the bit.
fn check_force_is_fixed_force(method: ConvMethod) {
    // one worker: scheduling (and thus float accumulation order) is
    // deterministic, so the comparison is exact, not approximate; the
    // FFT budget is then 1 as well
    let (g, out) = small_graph();
    let plan = Arc::new(NetPlan::force(&g, out, method, 1, false).unwrap());
    let forced = Znn::new(g.clone(), out, cfg(1, Some(PlanPolicy::Force(method)))).unwrap();
    assert_eq!(forced.net_plan().map(|p| &**p), Some(&*plan));
    let a = losses(&g, out, cfg(1, Some(PlanPolicy::Fixed(plan))), 4);
    let b = losses(&g, out, cfg(1, Some(PlanPolicy::Force(method))), 4);
    assert_eq!(a, b, "Force({method:?}) must replay its fixed plan exactly");
}

#[test]
fn fixed_direct_plan_matches_force_direct_bitwise() {
    let _serial = serial();
    check_force_is_fixed_force(ConvMethod::Direct);
}

#[test]
fn fixed_fft_plan_matches_force_fft_bitwise() {
    let _serial = serial();
    // force(pow2 = false) pads with good_shape on every FFT edge
    check_force_is_fixed_force(ConvMethod::Fft);
}

#[test]
fn auto_matches_its_own_frozen_plan_bitwise() {
    let _serial = serial();
    // Auto's only live degree of freedom is the fan-out, which is
    // pinned bit-identical — so Auto must reproduce the run of its own
    // plan executed as Fixed
    let (g, out) = small_graph();
    let planner = Arc::new(Planner::new(PlanConfig::for_machine(Machine::xeon_e5_8core())));
    let frozen = Arc::new(planner.plan(&g, out, 1, 1).unwrap());
    let a = losses(&g, out, cfg(1, Some(PlanPolicy::Auto(Arc::clone(&planner)))), 6);
    let b = losses(&g, out, cfg(1, Some(PlanPolicy::Fixed(frozen))), 6);
    assert_eq!(a, b, "live calibration must never change a computed bit");
    // and the calibrator really saw the rounds
    assert_eq!(planner.calibration().rounds.len(), 6);
}

#[test]
fn engine_exposes_plan_and_applies_fan_out() {
    let _serial = serial();
    let (g, _) = scalability_net_3d(2);
    let out = Vec3::cube(4);
    let planner = Arc::new(Planner::new(PlanConfig::for_machine(Machine::xeon_e5_18core())));
    let config = cfg(2, Some(PlanPolicy::Auto(Arc::clone(&planner))));
    let znn = Znn::new(g, out, config).unwrap();
    let plan = znn.net_plan().expect("Auto must resolve a plan").clone();
    assert_eq!(znn.fft_threads(), plan.fft_threads.min(2));
    let x = ops::random(znn.input_shape(), 7);
    let t = ops::random(out, 8).map(|v| 0.3 * v);
    znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    let stats = znn.stats();
    assert!(stats.round_us > 0, "round wall time must be recorded");
    // fan-out stays within the construction-time budget forever
    assert!(znn.fft_threads() <= 2);
}

#[test]
fn no_plan_resolves_an_auto_plan() {
    let _serial = serial();
    let (g, out) = small_graph();
    let budget = 2;
    let znn = Znn::new(g.clone(), out, cfg(budget, None)).unwrap();
    let plan = znn.net_plan().expect("every engine is planned");
    for (i, e) in g.edges().iter().enumerate() {
        let is_conv = matches!(e.op, EdgeOp::Conv { .. });
        assert_eq!(plan.edges[i].is_some(), is_conv, "edge {i}: one EdgePlan per conv edge");
    }
    assert!(znn.fft_threads() <= budget);
}

#[test]
fn auto_is_competitive_with_every_fixed_strategy() {
    let _serial = serial();
    // the ISSUE's ≤15% gap bound is asserted with real timings in the
    // release-mode plan_report bench; here (debug, possibly one core)
    // we keep the same relative bound but add absolute slack so
    // scheduler noise on tiny rounds cannot flake the suite
    let (g, _) = scalability_net_3d(2);
    let out = Vec3::cube(6);
    let workers = 2;
    let x = ops::random(
        znn_graph::shapes::required_input_shape(&g, out).unwrap(),
        55,
    );
    let t = ops::random(out, 56).map(|v| 0.3 * v);
    let median_us = |config: TrainConfig| -> f64 {
        let znn = Znn::new(g.clone(), out, config).unwrap();
        // warmup round (memoization, pool fills), then median of 5
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
                t0.elapsed().as_micros() as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[2]
    };

    let planner = Arc::new(Planner::new(PlanConfig::host()));
    let auto = median_us(cfg(workers, Some(PlanPolicy::Auto(planner))));
    let best_fixed = [
        (ConvMethod::Direct, 1),
        (ConvMethod::Fft, 1),
        (ConvMethod::Fft, workers),
    ]
    .into_iter()
    .map(|(m, fan)| {
        let plan = Arc::new(NetPlan::force(&g, out, m, fan, false).unwrap());
        median_us(cfg(workers, Some(PlanPolicy::Fixed(plan))))
    })
    .fold(f64::INFINITY, f64::min);
    assert!(
        auto <= best_fixed * 1.15 + 25_000.0,
        "Auto {auto:.0}µs vs best fixed {best_fixed:.0}µs"
    );
}
