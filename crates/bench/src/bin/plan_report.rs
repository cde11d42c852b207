//! Planner report — the `znn-plan` cost-model planner vs the grid of
//! fixed strategies it replaces, on the paper's benchmark geometries.
//!
//! For each net the `Auto` plan is resolved against the detected
//! machine prior, trained long enough for online calibration to engage,
//! and timed; every fixed strategy (direct / FFT × smooth / pow2 pads ×
//! fan-out) is built as a `NetPlan::force` plan, priced through the
//! *same* model, and timed identically. The headline number per net is
//! the gap `auto_measured / best_fixed_measured`.
//!
//! Emits `BENCH_plan.json`: machine prior, per-edge chosen plan,
//! predicted vs measured round times before and after calibration, the
//! calibration trajectory, and a per-net verdict. The verdict is the
//! ISSUE's acceptance bound — `Auto` within 15% of the best fixed
//! strategy (an absolute sub-3ms slack absorbs scheduler noise on tiny
//! rounds; on a shared single-core host that noise rivals whole
//! rounds). **The bin exits non-zero if any verdict fails**, so a
//! regressed planner cannot silently refresh the committed JSON.
//!
//! `--smoke` shrinks nets and round counts for CI.

use std::sync::Arc;
use std::time::Instant;
use znn_bench::{obj, write_report, Json};
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::builder::{comparison_net, scalability_net_2d, scalability_net_3d};
use znn_graph::{EdgeOp, Graph};
use znn_ops::ConvMethod;
use znn_plan::{NetPlan, PlanConfig, Planner};
use znn_tensor::{ops, Vec3};

/// Auto must be within 15% of the best fixed strategy…
const GAP_BOUND: f64 = 1.15;
/// …or within this absolute slack of it (scheduler noise floor, µs).
const ABS_SLACK_US: f64 = 3_000.0;

struct NetCase {
    name: &'static str,
    graph: Graph,
    out: Vec3,
}

fn nets(smoke: bool) -> Vec<NetCase> {
    let (fig8, _) = comparison_net(2, Vec3::flat(5, 5), Vec3::flat(2, 2), true);
    let (fig9, _) = comparison_net(2, Vec3::cube(5), Vec3::cube(2), true);
    // anisotropic EM-stack geometry: thin z, wide xy, mixed kernel
    let (aniso, _) = comparison_net(2, Vec3::new(2, 5, 5), Vec3::new(1, 2, 2), true);
    let (flat2d, _) = scalability_net_2d(2);
    let (vol3d, _) = scalability_net_3d(2);
    if smoke {
        vec![
            NetCase { name: "fig9_3d", graph: fig9, out: Vec3::cube(2) },
            NetCase { name: "flat_2d", graph: flat2d, out: Vec3::flat(4, 4) },
        ]
    } else {
        vec![
            NetCase { name: "fig8_2d", graph: fig8, out: Vec3::flat(16, 16) },
            NetCase { name: "fig9_3d", graph: fig9, out: Vec3::cube(4) },
            NetCase { name: "aniso", graph: aniso, out: Vec3::new(2, 8, 8) },
            NetCase { name: "flat_2d", graph: flat2d, out: Vec3::flat(8, 8) },
            NetCase { name: "vol_3d", graph: vol3d, out: Vec3::cube(4) },
        ]
    }
}

/// Median wall time per round of `rounds` training steps after
/// `warmup` unmeasured ones.
fn median_round_us(znn: &Znn, out: Vec3, warmup: usize, rounds: usize, seed: u64) -> f64 {
    let x = ops::random(znn.input_shape(), seed);
    let t = ops::random(out, seed + 1).map(|v| 0.3 * v);
    for _ in 0..warmup {
        znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    }
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
            t0.elapsed().as_micros() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn config(workers: usize, plan: PlanPolicy) -> TrainConfig {
    TrainConfig {
        workers,
        plan: Some(plan),
        ..Default::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let (warmup, rounds) = if smoke { (1, 3) } else { (2, 7) };

    let machine = znn_plan::Machine::detect();
    println!(
        "# plan report — Auto vs the fixed-strategy grid ({} workers)\n",
        workers
    );
    println!(
        "machine prior: {} ({} cores, {:.2} GFLOP/s, {:.2} GB/s)\n",
        machine.name, machine.cores, machine.gflops, machine.bandwidth_gbs
    );

    let mut report = obj! {
        "smoke": smoke,
        "workers": workers,
        "machine": obj! {
            "name": machine.name,
            "cores": machine.cores,
            "gflops": machine.gflops,
            "bandwidth_gbs": machine.bandwidth_gbs,
        },
    };

    let mut all_pass = true;
    let mut net_records = Vec::new();
    for case in nets(smoke) {
        println!("## {}", case.name);
        // one planner per net: its calibration history belongs to this
        // net's trajectory, and detect() already ran above
        let planner = Arc::new(Planner::new(PlanConfig::for_machine(machine.clone())));
        let znn = Znn::new(
            case.graph.clone(),
            case.out,
            config(workers, PlanPolicy::Auto(Arc::clone(&planner))),
        )
        .expect("net sizes");
        let plan = Arc::clone(znn.net_plan().expect("Auto resolves a plan"));
        let prior_us = plan.predicted_round_us;

        // the fixed grid: direct once (pads/fan-out are FFT knobs), FFT
        // across pad shape × deduped fan-outs. Priced and measured
        // *before* the Auto run so every predicted column uses the
        // pristine prior scale — comparable to `prior_us`, and the
        // argmin property is visible in the JSON.
        let mut fans = vec![1usize, workers.div_ceil(2), workers];
        fans.dedup();
        let mut grid: Vec<(ConvMethod, usize, bool)> = vec![(ConvMethod::Direct, 1, false)];
        for &fan in &fans {
            grid.push((ConvMethod::Fft, fan, false));
            grid.push((ConvMethod::Fft, fan, true));
        }
        let (mut fixed, mut best) = (Vec::new(), f64::INFINITY);
        for (method, fan, pow2) in grid {
            let forced =
                Arc::new(NetPlan::force(&case.graph, case.out, method, fan, pow2).unwrap());
            let predicted_us = planner
                .price(&case.graph, case.out, workers, &forced)
                .unwrap();
            let fz = Znn::new(
                case.graph.clone(),
                case.out,
                config(workers, PlanPolicy::Fixed(Arc::clone(&forced))),
            )
            .expect("net sizes");
            let measured_us = median_round_us(&fz, case.out, warmup, rounds, 11);
            let label = format!(
                "{}_t{}{}",
                match method {
                    ConvMethod::Direct => "direct",
                    ConvMethod::Fft => "fft",
                },
                fan,
                if pow2 { "_pow2" } else { "" }
            );
            println!("  fixed {label:>14}: predicted {predicted_us:>8.0}µs, measured {measured_us:>8.0}µs");
            best = best.min(measured_us);
            fixed.push(obj! {
                "strategy": label, "method": format!("{method:?}"), "fft_threads": fan,
                "pow2": pow2, "predicted_us": predicted_us, "measured_us": measured_us,
            });
        }
        // enough rounds that calibration (default: after 3) engages
        let auto_rounds = rounds.max(planner.config().calibrate_after as usize + rounds);
        let auto_us = median_round_us(&znn, case.out, warmup, auto_rounds, 11);
        let cal = planner.calibration();
        let calibrated_us = cal
            .rounds
            .last()
            .map(|r| r.predicted_us)
            .unwrap_or(prior_us);

        let gap = auto_us / best;
        let pass = gap <= GAP_BOUND || auto_us - best <= ABS_SLACK_US;
        all_pass &= pass;
        println!(
            "  auto: predicted {prior_us:.0}µs prior / {calibrated_us:.0}µs calibrated, \
             measured {auto_us:.0}µs"
        );
        println!(
            "  gap vs best fixed ({best:.0}µs): {gap:.3} -> {}\n",
            if pass { "pass" } else { "FAIL" }
        );

        // the per-edge chosen plan, deduped by conv geometry
        let mut layers: Vec<Json> = Vec::new();
        for (i, e) in case.graph.edges().iter().enumerate() {
            if let EdgeOp::Conv { kernel, .. } = e.op {
                let ep = plan.edges[i].unwrap();
                let layer = obj! {
                    "kernel": kernel.to_string(),
                    "method": format!("{:?}", ep.method),
                    "pad": ep.pad.to_string(),
                    "predicted_us": ep.predicted_us,
                };
                if !layers.contains(&layer) {
                    layers.push(layer);
                }
            }
        }
        let calibration: Vec<_> = cal
            .rounds
            .iter()
            .map(|r| {
                obj! {
                    "round": r.round, "predicted_us": r.predicted_us,
                    "measured_us": r.measured_us, "scale": r.scale,
                }
            })
            .collect();
        net_records.push(obj! {
            "net": case.name,
            "fft_threads": plan.fft_threads,
            "layers": layers,
            "predicted_round_us_prior": prior_us,
            "predicted_round_us_calibrated": calibrated_us,
            "auto_measured_us": auto_us,
            "calibration": calibration,
            "replans": cal.replans,
            "fixed": fixed,
            "best_fixed_us": best,
            "gap": gap,
            "verdict": if pass { "pass" } else { "fail" },
        });
    }
    report.insert("nets", net_records);
    report.insert("gap_bound", GAP_BOUND);
    report.insert("all_pass", all_pass);
    write_report("BENCH_plan.json", &report);
    if !all_pass {
        eprintln!("verdict failed: Auto exceeded the {GAP_BOUND}x gap bound on some net");
        std::process::exit(1);
    }
}
