//! §X — scheduling-policy ablation: the paper's priority scheduler vs
//! FIFO, LIFO and work stealing.
//!
//! Simulated makespans come from the discrete-event scheduler running
//! the real task graph on the Table V machines; the host rows run the
//! real engine under each queue policy on this machine's threads.
//! `--smoke` shrinks the networks and rounds so CI can keep this bin
//! building and running without paying for the full ablation.
//!
//! Emits `BENCH_sched.json` — simulated makespans per policy per
//! network plus the host rows — so the scheduling trajectory is
//! tracked across PRs like every other bench bin.

use znn_bench::{fmt, header, obj, row, time_per_round, write_report};
use znn_core::{PlanPolicy, TrainConfig, Znn};
use znn_graph::builder::{scalability_net_2d, scalability_net_3d};
use znn_ops::ConvMethod;
use znn_sched::QueuePolicy;
use znn_sim::costs::task_costs;
use znn_sim::{simulate, Machine, SimConfig};
use znn_tensor::{ops, Vec3};
use znn_theory::flops::ConvAlgorithm;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let width = if smoke { 4 } else { 20 };
    let sim_rounds = if smoke { 1 } else { 2 };
    println!("# §X — scheduling ablation (simulated makespan, lower is better)\n");
    let machine = Machine::xeon_e5_18core();
    header(&["network", "priority", "fifo", "lifo", "binary-heap"]);
    let mut recs = Vec::new();
    for (name, key, tgc) in [
        (format!("2D width {width}"), "net2d", {
            let (g, _) = scalability_net_2d(width);
            task_costs(&g, Vec3::flat(48, 48), ConvAlgorithm::Fft, true).unwrap()
        }),
        (format!("3D width {width}"), "net3d", {
            let (g, _) = scalability_net_3d(width);
            task_costs(&g, Vec3::cube(12), ConvAlgorithm::Direct, false).unwrap()
        }),
    ] {
        let (tg, costs) = tgc;
        let run = |policy| {
            simulate(
                &tg,
                &costs,
                &machine,
                &SimConfig {
                    workers: 18,
                    policy,
                    rounds: sim_rounds,
                    ..Default::default()
                },
            )
            .makespan
        };
        let (pri, fifo, lifo, heap) = (
            run(QueuePolicy::Priority),
            run(QueuePolicy::Fifo),
            run(QueuePolicy::Lifo),
            run(QueuePolicy::BinaryHeap),
        );
        row(&[name.clone(), fmt(pri), fmt(fifo), fmt(lifo), fmt(heap)]);
        recs.push(obj! {
            "net": key, "width": width, "priority_s": pri,
            "fifo_s": fifo, "lifo_s": lifo, "binary_heap_s": heap,
        });
    }
    let mut report = obj! {
        "smoke": smoke,
        "sim_machine": machine.name,
        "sim_workers": 18,
        "simulated": recs,
    };
    println!("\n(binary-heap shares the priority *order* — same makespan — but");
    println!("pays O(log N) per queue op instead of O(log K); see the `queue`");
    println!("criterion bench for the data-structure cost.)\n");

    println!("# host rows: real engine under each policy (s/update)\n");
    header(&["policy", "s/update"]);
    let (g, _) = scalability_net_3d(if smoke { 2 } else { 4 });
    let policies: &[QueuePolicy] = if smoke {
        &[QueuePolicy::Priority]
    } else {
        &[QueuePolicy::Priority, QueuePolicy::Fifo, QueuePolicy::Lifo]
    };
    let (warm, reps) = if smoke { (0, 1) } else { (1, 4) };
    let mut recs = Vec::new();
    for &policy in policies {
        let cfg = TrainConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue: policy,
            plan: Some(PlanPolicy::Force(ConvMethod::Direct)),
            ..Default::default()
        };
        let znn = Znn::new(g.clone(), Vec3::cube(4), cfg).unwrap();
        let x = ops::random(znn.input_shape(), 1);
        let t = ops::random(Vec3::cube(4), 2);
        let dt = time_per_round(warm, reps, || {
            znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        });
        row(&[format!("{policy:?}"), fmt(dt)]);
        recs.push(obj! {"policy": format!("{policy:?}"), "s_per_update": dt});
    }
    report.insert("host", recs);
    write_report("BENCH_sched.json", &report);
}
