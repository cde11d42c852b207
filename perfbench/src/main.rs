//! The repository benchmark. One process runs one workload:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train3d_fft --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` records spans around the calls into each layer and
//! prints the per-layer metrics, writing the spans as Chrome
//! trace-event JSON under `.bench_out/`. The last line of standard
//! output is the result object; see `perfbench/README.md`.

mod host;
mod layers;
mod nets;
mod serve;
mod stats;
mod trace;
mod train;

use nets::{Mode, Workload};
use stats::{median, quantile, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use znn_tensor::{ops, Vec3};

/// End-to-end metrics (untraced run), in `BENCHMARK.json` order. They
/// are CPU-time based: see README.md for why wall time is reported
/// per layer instead.
const END_TO_END: &[&str] = &["setup_s", "op_cpu_s", "vox_per_cpu_s", "peak_rss_mb"];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order.
const PER_LAYER: &[&str] = &[
    "setup_wall_s",
    "op_p50_s",
    "op_p90_s",
    "vox_per_s",
    "graph.build_s",
    "plan.setup_s",
    "plan.direct_edges",
    "plan.fft_edges",
    "plan.fft_threads",
    "plan.replans",
    "plan.pred_over_meas",
    "core.forward_s",
    "core.update_s",
    "core.backward_s",
    "core.ckpt_write_s",
    "core.ckpt_restore_s",
    "core.ckpt_bytes",
    "fft.fwd_s",
    "fft.inv_s",
    "tensor.spectrum_mac_s",
    "fft.transforms_per_round",
    "fft.share_est",
    "ops.direct_conv_s",
    "ops.kernel_grad_s",
    "ops.direct_gflops",
    "sched.tasks_per_round",
    "sched.tasks_per_round_p10",
    "sched.tasks_per_round_p90",
    "sched.force_inline_per_round",
    "sched.force_delegated_per_round",
    "sched.speedup_nproc",
    "theory.brent_bound",
    "alloc.hit_rate",
    "alloc.misses_timed",
    "alloc.resident_mb",
    "alloc.churn_mb_per_round",
    "dense.forward_s",
    "dense.memo_spectra",
    "dense.memo_mb",
    "dense.direct_edges",
    "dense.fft_edges",
    "serve.queue_wait_p95_s",
    "serve.shed",
    "serve.deadline_missed",
    "serve.degraded_batches",
    "gen.lag_p95_s",
    "fail_frac",
    "trace.overhead_frac",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Training rounds of warm-up before the pools are checked for misses.
const WARM_ROUNDS: u64 = 12;

/// Arrival rate of `serve3d_dense`, requests per second: below the
/// latency knee of the parent commit on the 2-core reference host
/// (capacity about 20/s; at 10/s the p90 already flipped between runs,
/// see README.md). A constant, so a slower commit queues instead of
/// being offered less work.
const SERVE_RATE: f64 = 6.0;

/// Per-request latency budget; a request that misses it fails.
const SERVE_BUDGET: Duration = Duration::from_secs(2);

/// Seconds of the probes the traced run adds: a short serving run on
/// training workloads, a short training run on the serving workload.
const PROBE_SECONDS: f64 = 3.0;

/// Directory (inside the checkout) for checkpoints, plan fingerprints,
/// reports and traces.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: znn-perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: train3d_fft, train2d_direct, serve3d_dense";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(nets::find(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad value {val:?} for {flag}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Every correctness check passed.
    correct: bool,
    /// Per-edge methods and pads of the timed path, hashed.
    plan_fingerprint: String,
    host: host::Host,
    working_set_bytes: f64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let tr = Tracer::new(args.trace);
    let mut out = match args.workload.mode {
        Mode::Serve => run_serve(&args, &tr),
        Mode::Train | Mode::TrainRecoverable => run_train(&args, &tr, &out_dir),
    };
    out.metrics.set("peak_rss_mb", host::peak_rss_mb(), "MiB");
    if args.trace {
        let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.set("fail_frac", fail_frac, "ratio");
    }

    let w = args.workload.name;
    let plan_flag = check_plan(&out_dir, w, &out.plan_fingerprint);
    println!(
        "{{\"host\": {}, \"workload\": \"{w}\", \"seed\": {}, \"plan\": \"{}\", \"plan_matches_first_run\": {plan_flag}}}",
        out.host.to_json(out.working_set_bytes),
        args.seed,
        out.plan_fingerprint
    );
    if !plan_flag {
        eprintln!("WARNING: plan fingerprint differs from the first run's in {OUT_DIR}");
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{w}-{}.json", args.seed));
        match tr.write_chrome(&path) {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("cannot write trace {}: {e}", path.display()),
        }
        eprintln!(
            "  {:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total s", "self s"
        );
        for (name, (n, total, own)) in tr.self_times() {
            eprintln!("  {name:<28} {n:>7} {total:>12.6} {own:>12.6}");
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = out.metrics.select(names);
    eprint!("{}", metrics.table());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// CPU and wall time of each set-up in a run.
#[derive(Default)]
struct Setups {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl Setups {
    fn start(&self) -> (f64, Instant) {
        (host::cpu_s(), Instant::now())
    }

    fn stop(&mut self, (cpu, wall): (f64, Instant)) {
        self.cpu.push(host::cpu_s() - cpu);
        self.wall.push(wall.elapsed().as_secs_f64());
    }

    /// `setup_s` (CPU seconds) and `setup_wall_s`, medians.
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.set("setup_s", median(&self.cpu), "s");
        m.set("setup_wall_s", median(&self.wall), "s");
        m
    }
}

/// Stores the first run's plan fingerprint for this workload and
/// compares later runs with it; `false` flags a differing plan.
fn check_plan(dir: &Path, workload: &str, fingerprint: &str) -> bool {
    let path = dir.join(format!("plan-{workload}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(first) => first.trim() == fingerprint,
        Err(_) => {
            let _ = std::fs::write(&path, fingerprint);
            true
        }
    }
}

/// FNV-1a over the per-edge methods and pads plus the fan-out.
fn fingerprint(edges: &[(znn_ops::ConvMethod, Vec3)], fft_threads: usize) -> String {
    let (direct, fft) = train::method_counts(edges.iter().map(|e| e.0));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (m, pad) in edges {
        eat(u64::from(*m == znn_ops::ConvMethod::Fft));
        for d in pad.0 {
            eat(d as u64);
        }
    }
    eat(fft_threads as u64);
    format!("direct={direct} fft={fft} fft_threads={fft_threads} hash={h:016x}")
}

/// The seeded forward probe of the training correctness check.
fn probe_input(shape: Vec3, seed: u64) -> znn_tensor::Image {
    ops::random(shape, seed ^ 0x5EED_F00D)
}

/// Builds, warms and times a training workload.
fn run_train(a: &Args, tr: &Tracer, out_dir: &Path) -> Outcome {
    let w = a.workload;
    let nproc = host::nproc();
    let graph = (w.build)();
    let data = train::Pregen::new(w, &graph, a.seed);
    let input =
        znn_graph::shapes::required_input_shape(&graph, w.train_out).expect("workload nets size");
    let probe = probe_input(input, a.seed);
    let ckpt_dir = (w.mode == Mode::TrainRecoverable)
        .then(|| out_dir.join(format!("ckpt-{}-{}", w.name, std::process::id())));

    let mut setups = Setups::default();
    let mut setup = || {
        let clock = setups.start();
        let span = tr.open("setup", None);
        let engine = train::Engine::build(w, nproc, None, ckpt_dir.as_deref(), tr, span);
        let warm = tr.span("core.warm_up", span, || {
            train::Session::new(&engine, data.clone(), w.mode).warm_up(WARM_ROUNDS)
        });
        tr.close(span);
        setups.stop(clock);
        (engine, warm)
    };
    let reps = if a.trace { 1 } else { SETUP_REPS };
    for _ in 1..reps {
        drop(setup());
    }
    let (engine, warm) = setup();
    let warmed = warm.is_ok();
    let mut sess = train::Session::new(&engine, data.clone(), w.mode);

    let before = engine.check_forward(&probe, w.train_out);
    let win = sess.window(a.seconds, w.ckpt_every, tr);
    let after = engine.check_forward(&probe, w.train_out);
    eprintln!("forward vs reference: relative diff {before:e} before, {after:e} after the window");
    let checks_failed =
        u64::from(before > train::FORWARD_TOL) + u64::from(after > train::FORWARD_TOL);

    let p50 = median(&win.rounds);
    let mut m = setups.metrics();
    m.set("op_p50_s", p50, "s");
    m.set("op_p90_s", quantile(&win.rounds, 0.9), "s");
    let vox = (win.healthy() * w.train_out.len()) as f64;
    m.set("vox_per_s", vox / win.window_s, "1/s");
    m.set("op_cpu_s", median(&win.cpu_rounds), "s");
    m.set("vox_per_cpu_s", vox / win.window_cpu_s, "1/s");
    eprintln!(
        "{} rounds ({} traced) in {:.2} s ({:.2} CPU s); round p50 {p50:.4} s, CPU p50 {:.4} s; \
         live fft_threads {}, replans {}",
        win.healthy(),
        win.traced_rounds.len(),
        win.window_s,
        win.window_cpu_s,
        median(&win.cpu_rounds),
        engine.znn.fft_threads(),
        engine.planner.calibration().replans
    );

    let mut attempted = win.attempted + 2;
    let mut failed = win.failed + checks_failed;
    if a.trace {
        let traced = median(&win.traced_rounds);
        m.set("trace.overhead_frac", traced / p50 - 1.0, "ratio");
        m.extend(layers::alloc(
            &engine.pools,
            win.alloc_hits,
            win.alloc_misses,
            win.alloc_leased_bytes,
            win.healthy(),
        ));
        m.extend(train_layers(w, &engine, &mut sess, &data, &win, &probe, tr));
        let dense = serve::Dense::build(
            w,
            Some(engine.znn.params()),
            Some(engine.planner.config()),
            tr,
            None,
        );
        let (sm, att, fail) = serve_probe(w, &dense, a.seed, None, tr);
        m.extend(sm);
        attempted += att;
        failed += fail;
    }
    let plan = engine.plan();
    let edges: Vec<_> = plan
        .edges
        .iter()
        .flatten()
        .map(|e| (e.method, e.pad))
        .collect();
    Outcome {
        metrics: m,
        attempted,
        failed,
        correct: warmed && failed == 0,
        plan_fingerprint: fingerprint(&edges, plan.fft_threads),
        host: host::Host::new(&engine.planner.config().machine),
        working_set_bytes: engine.pools.resident_bytes() as f64,
    }
}

/// Per-layer metrics that come from a training engine after its timed
/// window: the plan, the forward/update/backward split, checkpoints,
/// FFT and direct-conv probes, scheduler counts and the 1-worker
/// speed-up.
fn train_layers(
    w: &Workload,
    engine: &train::Engine,
    sess: &mut train::Session,
    data: &train::Pregen,
    win: &train::Window,
    probe: &znn_tensor::Image,
    tr: &Tracer,
) -> Metrics {
    let nproc = host::nproc();
    let p50 = median(&win.rounds);
    let mut m = Metrics::default();
    m.set("graph.build_s", tr.median("graph.build"), "s");
    m.set("plan.setup_s", tr.median("plan.setup"), "s");
    let (direct, fft) = engine.method_counts();
    let plan = engine.plan();
    m.set("plan.direct_edges", direct as f64, "count");
    m.set("plan.fft_edges", fft as f64, "count");
    m.set("plan.fft_threads", plan.fft_threads as f64, "count");
    let cal = engine.planner.calibration();
    m.set("plan.replans", cal.replans as f64, "count");
    let recent = &cal.rounds[cal.rounds.len().saturating_sub(win.attempted as usize)..];
    let ratios: Vec<f64> = recent
        .iter()
        .map(|r| r.predicted_us / r.measured_us)
        .collect();
    m.set("plan.pred_over_meas", median(&ratios), "ratio");

    sess.split_rounds(8, probe, tr);
    let fwd = tr.median("core.forward");
    let upd = tr.median("core.update");
    m.set("core.forward_s", fwd, "s");
    m.set("core.update_s", upd, "s");
    // derived, not traced: round p50 minus the traced forward and update
    m.set("core.backward_s", p50 - fwd - upd, "s");

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    m.set("sched.tasks_per_round", median(&win.tasks), "count");
    m.set(
        "sched.tasks_per_round_p10",
        quantile(&win.tasks, 0.1),
        "count",
    );
    m.set(
        "sched.tasks_per_round_p90",
        quantile(&win.tasks, 0.9),
        "count",
    );
    m.set(
        "sched.force_inline_per_round",
        mean(&win.force_inline),
        "count",
    );
    m.set(
        "sched.force_delegated_per_round",
        mean(&win.force_delegated),
        "count",
    );

    let ckpt_dir = Path::new(OUT_DIR).join(format!("probe-ckpt-{}-{}", w.name, std::process::id()));
    m.extend(layers::checkpoint(&engine.znn, &ckpt_dir, tr));
    let input = engine.znn.input_shape();
    let round_cpu = median(&win.cpu_rounds);
    m.extend(layers::fft(&engine.graph, input, plan, round_cpu, tr));
    m.extend(layers::direct(&engine.graph, input, plan, tr));
    m.set(
        "theory.brent_bound",
        layers::brent_bound(&engine.graph, input, fft > 0, nproc),
        "ratio",
    );

    // the same net on one worker, priced with the same machine probe
    let one = train::Engine::build(w, 1, Some(engine.planner.config()), None, tr, None);
    let mut one_sess = train::Session::new(&one, data.clone(), Mode::Train);
    let _ = one_sess.warm_up(4);
    let rounds = ((2.0 / (p50 * nproc as f64)).ceil() as u64).clamp(5, 30);
    m.set(
        "sched.speedup_nproc",
        one_sess.round_p50(rounds) / p50,
        "ratio",
    );
    m
}

/// Dense forward probes plus the serving metrics: of the workload's
/// own window when `main` is given, else of a short open-loop run of
/// `dense` at half its measured capacity. Returns the metrics and the
/// probe's attempted and failed requests.
fn serve_probe(
    w: &Workload,
    dense: &serve::Dense,
    seed: u64,
    main: Option<(&serve::Served, &znn_serve::ServeStats)>,
    tr: &Tracer,
) -> (Metrics, u64, u64) {
    let mut m = Metrics::default();
    let img = ops::random(w.request, seed ^ 0xD15E);
    let mut service = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let out = dense
            .net
            .forward_blocked(&img, Vec3::cube(16), &mut |_| {
                std::ops::ControlFlow::Continue(())
            })
            .expect("no cancellation requested");
        std::hint::black_box(out);
        let end = Instant::now();
        tr.record("dense.forward", start, end, None, None);
        service.push((end - start).as_secs_f64());
    }
    let service = median(&service);
    m.set("dense.forward_s", service, "s");
    m.set(
        "dense.memo_spectra",
        dense.net.memoized_spectra() as f64,
        "count",
    );
    m.set(
        "dense.memo_mb",
        dense.net.memoized_spectrum_bytes() as f64 / 1048576.0,
        "MiB",
    );
    let (direct, fft) = train::method_counts(dense.choices(w.request).into_iter().map(|c| c.0));
    m.set("dense.direct_edges", direct as f64, "count");
    m.set("dense.fft_edges", fft as f64, "count");

    let owned;
    let (served, stats, attempted, failed) = match main {
        Some((served, stats)) => (served, stats, 0, 0),
        None => {
            let requests = dense.requests(w.request, seed);
            let server = dense.server();
            let rate = 0.5 * host::nproc() as f64 / service;
            let served =
                serve::open_loop(&server, &requests, rate, PROBE_SECONDS, SERVE_BUDGET, tr);
            owned = (served, server.shutdown());
            (&owned.0, &owned.1, owned.0.attempted, owned.0.failed)
        }
    };
    let waits: Vec<f64> = served.in_server.iter().map(|t| t - service).collect();
    m.set("serve.queue_wait_p95_s", quantile(&waits, 0.95), "s");
    m.set("serve.shed", stats.shed_overload as f64, "count");
    m.set(
        "serve.deadline_missed",
        stats.deadline_missed as f64,
        "count",
    );
    m.set(
        "serve.degraded_batches",
        stats.degraded_batches as f64,
        "count",
    );
    m.set("gen.lag_p95_s", quantile(&served.lag, 0.95), "s");
    (m, attempted, failed)
}

/// Builds, warms and times the serving workload.
fn run_serve(a: &Args, tr: &Tracer) -> Outcome {
    let w = a.workload;
    let mut setups = Setups::default();
    let mut setup = || {
        let clock = setups.start();
        let span = tr.open("setup", None);
        let dense = serve::Dense::build(w, None, None, tr, span);
        tr.close(span);
        setups.stop(clock);
        dense
    };
    let reps = if a.trace { 1 } else { SETUP_REPS };
    for _ in 1..reps {
        drop(setup());
    }
    let dense = setup();
    let requests = dense.requests(w.request, a.seed);

    let server = dense.server();
    let s0 = dense.pools.stats();
    let (h0, m0, l0) = (s0.hits(), s0.misses(), s0.bytes_leased());
    let cpu0 = host::cpu_s();
    let served = serve::open_loop(&server, &requests, SERVE_RATE, a.seconds, SERVE_BUDGET, tr);
    let window_cpu = host::cpu_s() - cpu0;
    let s1 = dense.pools.stats();
    let (h1, m1, l1) = (s1.hits(), s1.misses(), s1.bytes_leased());
    let stats = server.shutdown();
    eprintln!(
        "{} requests at {SERVE_RATE}/s in {:.2} s: {} completed, {} failed; {}",
        served.attempted,
        served.window_s,
        served.completed,
        served.failed,
        stats.report().replace('\n', "; ")
    );

    let mut m = setups.metrics();
    m.set("op_p50_s", median(&served.lat), "s");
    m.set("op_p90_s", quantile(&served.lat, 0.9), "s");
    let vox = served.out_voxels as f64;
    m.set("vox_per_s", vox / served.window_s, "1/s");
    m.set("op_cpu_s", window_cpu / served.completed.max(1) as f64, "s");
    m.set("vox_per_cpu_s", vox / window_cpu, "1/s");
    let mut attempted = served.attempted;
    let mut failed = served.failed;
    let mut warmed = true;

    let choices = dense.choices(w.request);
    let working_set = dense.pools.resident_bytes() as f64;
    if a.trace {
        m.set(
            "trace.overhead_frac",
            median(&served.traced_lat) / median(&served.lat) - 1.0,
            "ratio",
        );
        m.extend(layers::alloc(
            &dense.pools,
            (h1 - h0) as u64,
            (m1 - m0) as u64,
            (l1 - l0) as u64,
            served.completed as usize,
        ));
        let (sm, ..) = serve_probe(w, &dense, a.seed, Some((&served, &stats)), tr);
        m.extend(sm);
        // the training side of the same net, so every layer is reported
        let nproc = host::nproc();
        let engine = train::Engine::build(w, nproc, Some(dense.planner.config()), None, tr, None);
        let data = train::Pregen::new(w, &engine.graph, a.seed);
        let probe = probe_input(engine.znn.input_shape(), a.seed);
        let mut sess = train::Session::new(&engine, data.clone(), Mode::Train);
        warmed = sess.warm_up(WARM_ROUNDS).is_ok();
        let win = sess.window(PROBE_SECONDS, 10, tr);
        m.extend(train_layers(w, &engine, &mut sess, &data, &win, &probe, tr));
        let diff = engine.check_forward(&probe, w.train_out);
        attempted += win.attempted + 1;
        failed += win.failed + u64::from(diff > train::FORWARD_TOL);
    }
    Outcome {
        metrics: m,
        attempted,
        failed,
        correct: warmed && failed == 0,
        plan_fingerprint: fingerprint(&choices, 1),
        host: host::Host::new(&dense.planner.config().machine),
        working_set_bytes: working_set,
    }
}
