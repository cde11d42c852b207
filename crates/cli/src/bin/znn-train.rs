//! `znn-train` — train a network described by a spec file on synthetic
//! volumes, from the command line.
//!
//! ```sh
//! znn-train --spec net.znn --out 8 --rounds 50 --lr 0.01 \
//!           [--workers N] [--fft-threads N] [--fft|--direct] \
//!           [--no-memoize] [--no-pool] [--stealing] [--pool-report] \
//!           [--checkpoint-dir D] [--checkpoint-every N] [--resume]
//! ```
//!
//! `--fft-threads` caps intra-transform FFT parallelism; by default
//! transforms share the scheduler's worker budget (idle workers donate
//! themselves to FFT line chunks).
//!
//! Training is always planned. By default the `znn-plan` cost-model
//! planner picks, per conv edge, direct vs FFT, the pad shape, and the
//! FFT fan-out by pricing the theory FLOP model through a detected
//! machine model, then calibrates that model online from measured
//! round times (re-plans move only the bit-safe fan-out). `--fft` /
//! `--direct` force one method on every conv edge instead. The chosen
//! plan and the calibration summary are printed on every run.
//!
//! `--no-pool` disables the §VII-C pooled allocator (hot-path buffers
//! fall back to plain `Vec`s); by default every image/spectrum buffer
//! leases from the process-wide recycling pool, whose hit rate and
//! resident footprint are reported when training ends. `--pool-report`
//! additionally dumps per-size-class occupancy and hit rates at exit.
//!
//! `--checkpoint-dir` enables durable checkpoints (atomic write +
//! CRC-checked, every `--checkpoint-every` rounds, default 25) and runs
//! training under the recoverable driver: divergence and non-finite
//! sentinels roll back to the last good state and retry with
//! learning-rate backoff. `--resume` restarts from the newest valid
//! snapshot in the directory, bit-identically.
//!
//! With no `--spec`, a built-in demo spec is used.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use znn_cli::parse_spec;
use znn_core::{
    BlobsDataset, CheckpointConfig, LrSchedule, PlanPolicy, TrainConfig, TrainOutcome, Trainer,
    Znn,
};
use znn_ops::{ConvMethod, Loss};
use znn_plan::{PlanConfig, Planner};
use znn_tensor::Vec3;

const DEMO_SPEC: &str = "
# built-in demo: small 3D boundary detector
input width=1
conv width=4 kernel=3,3,3
transfer fn=relu
conv width=4 kernel=3,3,3
transfer fn=relu
conv width=1 kernel=3,3,3
transfer fn=logistic
";

struct Args {
    spec: Option<String>,
    out: usize,
    rounds: u64,
    lr: f32,
    workers: Option<usize>,
    fft_threads: Option<usize>,
    /// Method forced by `--fft` / `--direct`; `None` plans per edge.
    method: Option<ConvMethod>,
    memoize: bool,
    stealing: bool,
    pool: bool,
    pool_report: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: znn-train [--spec FILE] [--out N] [--rounds N] [--lr F]\n\
         \t[--workers N] [--fft-threads N] [--fft|--direct]\n\
         \t[--no-memoize] [--no-pool] [--stealing] [--pool-report]\n\
         \t[--checkpoint-dir D] [--checkpoint-every N] [--resume]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: None,
        out: 6,
        rounds: 30,
        lr: 0.01,
        workers: None,
        fft_threads: None,
        method: None,
        memoize: true,
        stealing: false,
        pool: true,
        pool_report: false,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--spec" => args.spec = Some(val()),
            "--out" => args.out = val().parse().unwrap_or_else(|_| usage()),
            "--rounds" => args.rounds = val().parse().unwrap_or_else(|_| usage()),
            "--lr" => args.lr = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = Some(val().parse().unwrap_or_else(|_| usage())),
            "--fft-threads" => {
                args.fft_threads = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--fft" => args.method = Some(ConvMethod::Fft),
            "--direct" => args.method = Some(ConvMethod::Direct),
            "--no-memoize" => args.memoize = false,
            "--no-pool" => args.pool = false,
            "--stealing" => args.stealing = true,
            "--pool-report" => args.pool_report = true,
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(val())),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--resume" => args.resume = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.checkpoint_dir.is_none() && (args.checkpoint_every.is_some() || args.resume) {
        eprintln!("--checkpoint-every / --resume require --checkpoint-dir");
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let text = match &args.spec {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => DEMO_SPEC.to_string(),
    };
    let graph = match parse_spec(&text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "network: {} nodes, {} edges, {} parameters",
        graph.node_count(),
        graph.edge_count(),
        graph.parameter_count()
    );

    let checkpoint = args.checkpoint_dir.clone().map(|dir| {
        let mut cc = CheckpointConfig::new(dir);
        if let Some(every) = args.checkpoint_every {
            cc.every = every;
        }
        cc
    });
    let (plan, planner) = match args.method {
        Some(m) => (PlanPolicy::Force(m), None),
        None => {
            // the planner must price the memoization the engine uses
            let p = Arc::new(Planner::new(PlanConfig {
                memoize_fft: args.memoize,
                ..PlanConfig::host()
            }));
            let m = &p.config().machine;
            println!(
                "planner: machine prior {} ({} cores, {:.1} GFLOP/s, {:.1} GB/s)",
                m.name, m.cores, m.gflops, m.bandwidth_gbs
            );
            (PlanPolicy::Auto(Arc::clone(&p)), Some(p))
        }
    };
    let cfg = TrainConfig {
        workers: args.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }),
        fft_threads: args.fft_threads,
        plan: Some(plan),
        learning_rate: args.lr,
        memoize_fft: args.memoize,
        work_stealing: args.stealing,
        loss: Loss::Mse,
        pools: args.pool.then(znn_alloc::PoolSet::global),
        checkpoint,
        ..Default::default()
    };
    let out_shape = Vec3::cube(args.out);
    let znn = match Znn::new(graph, out_shape, cfg) {
        Ok(z) => z,
        Err(e) => {
            eprintln!("cannot size network: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("input {} -> output {out_shape}", znn.input_shape());
    let plan = znn.net_plan().expect("every engine is planned");
    let (direct, fft) = plan.edges.iter().flatten().fold((0, 0), |(d, f), ep| {
        match ep.method {
            ConvMethod::Direct => (d + 1, f),
            ConvMethod::Fft => (d, f + 1),
        }
    });
    println!(
        "plan: {direct} direct / {fft} FFT conv edges, fft_threads {}, \
         predicted round {:.0}µs",
        plan.fft_threads, plan.predicted_round_us
    );

    let data = BlobsDataset {
        input_shape: znn.input_shape(),
        output_shape: out_shape,
        blobs: 3,
        noise: 0.05,
        seed: 42,
    };
    let mut trainer = Trainer::new(&znn, data).with_schedule(LrSchedule::Constant);
    if args.resume {
        match trainer.resume() {
            Ok(Some(round)) => println!("resumed from checkpoint at round {round}"),
            Ok(None) => println!("no valid checkpoint found; starting fresh"),
            Err(e) => {
                eprintln!("cannot resume: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report_every = (args.rounds / 6).max(1);
    let report = |p: znn_core::Progress| {
        println!(
            "rounds {:>4}+: mean loss {:.4} (lr x{:.2})",
            p.round, p.mean_loss, p.lr_factor
        );
    };
    if args.checkpoint_dir.is_some() {
        match trainer.run_recoverable(args.rounds, report_every, report) {
            Ok(TrainOutcome::Completed { final_loss }) => {
                println!("training completed, final loss {final_loss:.4}");
            }
            Ok(TrainOutcome::Interrupted { at_round }) => {
                println!("training interrupted at round {at_round}");
            }
            Err(e) => {
                eprintln!("training failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        trainer.run(args.rounds, report_every, report);
    }
    let stats = znn.stats();
    println!(
        "done: {} tasks executed; FORCE done/inline/delegated = {}/{}/{}",
        stats.tasks_executed,
        stats.force_already_done,
        stats.force_ran_inline,
        stats.force_delegated
    );
    if args.pool {
        println!(
            "alloc: {:.1}% pool hit rate, {} B resident (flat after warmup), {} B churn absorbed",
            stats.alloc_hit_rate() * 100.0,
            stats.alloc_resident_bytes,
            stats.alloc_leased_bytes
        );
    }
    match &planner {
        None => println!("planner calibration: none (method forced)"),
        Some(planner) => {
            let cal = planner.calibration();
            if let Some(last) = cal.rounds.last() {
                println!(
                    "planner calibration: scale {:.2} after {} rounds ({} re-plans), \
                     last round predicted {:.0}µs / measured {:.0}µs",
                    cal.scale,
                    cal.rounds.len(),
                    cal.replans,
                    last.predicted_us,
                    last.measured_us
                );
            }
        }
    }
    if args.pool_report {
        if args.pool {
            print_pool_report(&znn_alloc::PoolSet::global());
        } else {
            println!("pool report: pooling disabled (--no-pool), nothing to report");
        }
    }
    ExitCode::SUCCESS
}

/// Dumps per-size-class occupancy/hit-rate rows of the shared chunk
/// pool (`--pool-report`).
fn print_pool_report(pools: &znn_alloc::PoolSet) {
    println!("pool report (per size class, f32 units):");
    println!("  class  chunk_len     parked       hits     misses  hit-rate");
    for row in pools.class_report() {
        println!(
            "  {:>5}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7.1}%",
            row.class,
            row.chunk_len,
            row.parked,
            row.hits,
            row.misses,
            row.hit_rate() * 100.0
        );
    }
}
