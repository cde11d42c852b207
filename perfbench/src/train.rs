//! Training sessions: engine set-up, the timed window of rounds, and the
//! correctness check against the sequential reference.

use crate::nets::{Mode, Workload};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use znn_alloc::PoolSet;
use znn_baseline::ReferenceNet;
use znn_core::{CheckpointConfig, Dataset, PlanPolicy, RandomDataset, TrainConfig, Trainer, Znn};
use znn_graph::{shapes, Graph};
use znn_ops::ConvMethod;
use znn_plan::{NetPlan, PlanConfig, Planner};
use znn_tensor::{Image, Vec3};

/// Largest allowed difference between engine and reference outputs,
/// relative to the reference's largest magnitude. The engine runs FFT
/// convolutions where the plan says so and the reference runs direct
/// ones; they differ in the last bits of f32 sums (observed below 1e-5
/// relative), far under this bound.
pub const FORWARD_TOL: f32 = 1e-3;

/// SGD step. The engine's default (0.01) drives these nets within a
/// few hundred rounds to dead ReLUs or saturated logistic outputs: the
/// forward check then compares constants, and round time came to
/// depend on the seed (likely subnormal gradients, which cost far more
/// per operation on x86). This step keeps outputs in their initial
/// range for the whole window; the work per round does not depend on
/// it.
const LEARNING_RATE: f32 = 1e-4;

/// Distinct training samples generated from the seed before timing.
const SAMPLES: u64 = 16;

/// Samples generated before timing and handed out round-robin, so no
/// input generation happens inside a timed round.
#[derive(Clone)]
pub struct Pregen(Arc<Vec<(Vec<Image>, Vec<Image>)>>);

impl Pregen {
    pub fn new(w: &Workload, graph: &Graph, seed: u64) -> Self {
        let input_shape =
            shapes::required_input_shape(graph, w.train_out).expect("workload nets size");
        // random binary targets keep the loss near its plateau, so the
        // divergence sentinel of `run_recoverable` compares like with
        // like (learnable targets let one hard sample read as
        // divergence against a converged median)
        let mut random = RandomDataset {
            input_shape,
            output_shape: w.train_out,
            inputs: 1,
            outputs: 1,
            seed,
        };
        Pregen(Arc::new((0..SAMPLES).map(|r| random.sample(r)).collect()))
    }
}

impl Dataset for Pregen {
    fn sample(&mut self, round: u64) -> (Vec<Image>, Vec<Image>) {
        self.0[(round % self.0.len() as u64) as usize].clone()
    }
}

/// A constructed engine and the planner and pools it was built with.
pub struct Engine {
    pub graph: Graph,
    pub znn: Znn,
    pub planner: Arc<Planner>,
    pub pools: Arc<PoolSet>,
    ckpt_dir: Option<PathBuf>,
}

impl Engine {
    /// Builds graph, plan and engine, with spans `graph.build`,
    /// `plan.setup` (`PlanConfig::host()` plus `Planner::plan`) and
    /// `core.new`. `machine` reuses an earlier probe instead of probing
    /// the host again.
    pub fn build(
        w: &Workload,
        workers: usize,
        machine: Option<&PlanConfig>,
        ckpt_dir: Option<&Path>,
        tr: &Tracer,
        parent: Option<SpanId>,
    ) -> Engine {
        let graph = tr.span("graph.build", parent, || (w.build)());
        let planner = tr.span("plan.setup", parent, || {
            let cfg = machine.cloned().unwrap_or_else(PlanConfig::host);
            let p = Arc::new(Planner::new(cfg));
            p.plan(&graph, w.train_out, workers, workers)
                .expect("workload nets size");
            p
        });
        let checkpoint = ckpt_dir.map(|d| {
            // a fresh directory per engine, so earlier snapshots are not
            // pruned or read back by this one
            let _ = std::fs::remove_dir_all(d);
            CheckpointConfig {
                dir: d.to_path_buf(),
                // one durable snapshot at the end of every driver call,
                // which the window makes every `ckpt_every` rounds
                every: 0,
                keep: 2,
            }
        });
        let pools = PoolSet::new();
        let cfg = TrainConfig {
            workers,
            learning_rate: LEARNING_RATE,
            plan: Some(PlanPolicy::Auto(Arc::clone(&planner))),
            pools: Some(Arc::clone(&pools)),
            checkpoint,
            ..TrainConfig::default()
        };
        let znn = tr
            .span("core.new", parent, || {
                Znn::new(graph.clone(), w.train_out, cfg)
            })
            .expect("workload nets size");
        Engine {
            graph,
            znn,
            planner,
            pools,
            ckpt_dir: ckpt_dir.map(Path::to_path_buf),
        }
    }

    pub fn plan(&self) -> &Arc<NetPlan> {
        self.znn.net_plan().expect("every engine is planned")
    }

    /// (direct, FFT) conv edge counts of the plan.
    pub fn method_counts(&self) -> (usize, usize) {
        method_counts(self.plan().edges.iter().flatten().map(|e| e.method))
    }

    /// The engine's forward output on `probe` against the sequential
    /// direct-convolution reference with the same parameters; returns
    /// the relative difference ([`rel_diff`]).
    ///
    /// The parameters are read after the forward pass: each forward
    /// task FORCEs its edge's pending update before using the kernel
    /// (Algorithm 1), so when `forward` returns no update is running and
    /// `params()` holds exactly the parameters the pass used. Read
    /// before it, `params()` can copy a kernel whose update is still
    /// running (see the benchmark's README); that snapshot is kept only
    /// to report, on standard error, how often it happens.
    pub fn check_forward(&self, probe: &Image, out: Vec3) -> f32 {
        let early = self.znn.params();
        let a = self.znn.forward(std::slice::from_ref(probe));
        let settled = self.znn.params();
        let stale = early.max_abs_diff(&settled);
        if stale > 0.0 {
            eprintln!("params() before forward missed a running update (max change {stale:e})");
        }
        let mut reference =
            ReferenceNet::new(self.graph.clone(), out, 0).expect("workload nets size");
        *reference.params_mut() = settled;
        let b = reference.forward(std::slice::from_ref(probe));
        rel_diff(&a[0], &b[0])
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(d) = &self.ckpt_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

pub fn method_counts(methods: impl Iterator<Item = ConvMethod>) -> (usize, usize) {
    methods.fold((0, 0), |(d, f), m| match m {
        ConvMethod::Direct => (d + 1, f),
        ConvMethod::Fft => (d, f + 1),
    })
}

/// Largest elementwise |got − want| over the largest |want|; infinite
/// on a shape mismatch or a non-finite value.
pub fn rel_diff(got: &Image, want: &Image) -> f32 {
    if got.shape() != want.shape() {
        return f32::INFINITY;
    }
    let (mut diff, mut scale) = (0.0f32, f32::MIN_POSITIVE);
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        let d = (x - y).abs();
        if !d.is_finite() {
            return f32::INFINITY;
        }
        diff = diff.max(d);
        scale = scale.max(y.abs());
    }
    diff / scale
}

/// Per-round record of the timed window.
#[derive(Default)]
pub struct Window {
    /// Seconds per round, untraced rounds only.
    pub rounds: Vec<f64>,
    /// Seconds per round, traced rounds only.
    pub traced_rounds: Vec<f64>,
    /// Process CPU seconds per round, untraced rounds only.
    pub cpu_rounds: Vec<f64>,
    /// Process CPU seconds of the whole window.
    pub window_cpu_s: f64,
    /// Tasks, inline FORCEs and delegated FORCEs per traced round.
    pub tasks: Vec<f64>,
    pub force_inline: Vec<f64>,
    pub force_delegated: Vec<f64>,
    /// Wall time of the whole window, checkpoint writes included.
    pub window_s: f64,
    /// Rounds attempted: healthy rounds plus rolled-back retries.
    pub attempted: u64,
    /// Rolled-back, poisoned or errored rounds and non-finite losses.
    pub failed: u64,
    pub alloc_hits: u64,
    pub alloc_misses: u64,
    pub alloc_leased_bytes: u64,
}

impl Window {
    pub fn healthy(&self) -> usize {
        self.rounds.len() + self.traced_rounds.len()
    }
}

/// A trainer over an [`Engine`] driven the workload's way.
pub struct Session<'a> {
    engine: &'a Engine,
    trainer: Trainer<'a, Pregen>,
    mode: Mode,
}

impl<'a> Session<'a> {
    pub fn new(engine: &'a Engine, data: Pregen, mode: Mode) -> Self {
        Session {
            engine,
            trainer: Trainer::new(&engine.znn, data),
            mode,
        }
    }

    /// Runs `rounds` rounds in one driver call; `on_round` sees each
    /// healthy round's loss right after the round. With
    /// `run_recoverable` the call ends with a durable checkpoint.
    fn drive(&mut self, rounds: u64, mut on_round: impl FnMut(f64)) -> Result<(), String> {
        let report = |p: znn_core::Progress| on_round(p.mean_loss);
        if self.mode == Mode::TrainRecoverable {
            self.trainer
                .run_recoverable(rounds, 1, report)
                .map(|_| ())
                .map_err(|e| e.to_string())
        } else {
            self.trainer.run(rounds, 1, report);
            Ok(())
        }
    }

    /// Trains `min` rounds, which covers the planner's calibration and
    /// its fan-out re-plan, then on until two rounds pass without a pool
    /// miss (every buffer class is resident), at most 40 rounds.
    pub fn warm_up(&mut self, min: u64) -> Result<(), String> {
        self.drive(min, |_| {})?;
        for _ in 0..(40u64.saturating_sub(min) / 2) {
            let misses = self.engine.pools.stats().misses();
            self.drive(2, |_| {})?;
            if self.engine.pools.stats().misses() == misses {
                break;
            }
        }
        Ok(())
    }

    /// The timed window: driver calls of `chunk` rounds until `seconds`
    /// have passed. With `tr` on, every other call is traced, so traced
    /// and untraced rounds interleave and share the machine's drift.
    pub fn window(&mut self, seconds: f64, chunk: u64, tr: &Tracer) -> Window {
        let engine: &'a Engine = self.engine;
        let znn = &engine.znn;
        let mut w = Window::default();
        let s0 = znn.stats();
        let obs0 = self.engine.planner.calibration().rounds.len() as u64;
        let healthy0 = self.trainer.rounds_done();
        let start = Instant::now();
        let cpu_start = crate::host::cpu_s();
        let mut call = 0u64;
        while start.elapsed() < Duration::from_secs_f64(seconds) {
            let traced = tr.on() && call % 2 == 1;
            call += 1;
            let chunk_span = if traced {
                tr.open("train.chunk", None)
            } else {
                None
            };
            let mut prev = Instant::now();
            let mut prev_cpu = crate::host::cpu_s();
            let mut last = znn.stats();
            let mut losses = Vec::new();
            let mut times = Vec::new();
            let mut cpu = Vec::new();
            let res = self.drive(chunk, |loss| {
                let now = Instant::now();
                let now_cpu = crate::host::cpu_s();
                times.push((now - prev).as_secs_f64());
                cpu.push(now_cpu - prev_cpu);
                losses.push(loss);
                if traced {
                    tr.record("train.round", prev, now, chunk_span, None);
                    let s = znn.stats();
                    w.tasks
                        .push((s.tasks_executed - last.tasks_executed) as f64);
                    w.force_inline
                        .push((s.force_ran_inline - last.force_ran_inline) as f64);
                    w.force_delegated
                        .push((s.force_delegated - last.force_delegated) as f64);
                    last = s;
                }
                prev = Instant::now();
                prev_cpu = crate::host::cpu_s();
            });
            tr.close(chunk_span);
            w.failed += losses.iter().filter(|l| !l.is_finite()).count() as u64;
            if traced {
                w.traced_rounds.extend(times);
            } else {
                w.rounds.extend(times);
                w.cpu_rounds.extend(cpu);
            }
            if let Err(e) = res {
                eprintln!("training driver failed: {e}");
                w.failed += 1;
                break;
            }
        }
        w.window_s = start.elapsed().as_secs_f64();
        w.window_cpu_s = crate::host::cpu_s() - cpu_start;
        let s1 = znn.stats();
        let obs1 = self.engine.planner.calibration().rounds.len() as u64;
        let healthy = self.trainer.rounds_done() - healthy0;
        // every round that reached the end of its backward pass fed the
        // calibrator once; the surplus over healthy rounds was rolled
        // back, and poisoned rounds show up as task panics
        let panics = s1.task_panics - s0.task_panics;
        let rolled_back = (obs1 - obs0).saturating_sub(healthy);
        w.attempted = healthy + rolled_back + panics;
        w.failed += rolled_back + panics;
        w.alloc_hits = s1.alloc_hits - s0.alloc_hits;
        w.alloc_misses = s1.alloc_misses - s0.alloc_misses;
        w.alloc_leased_bytes = s1.alloc_leased_bytes - s0.alloc_leased_bytes;
        w
    }

    /// Splits rounds into their update and forward parts from outside:
    /// after a training round, `flush_updates` (span `core.update`)
    /// runs the deferred updates, then `Znn::forward` (span
    /// `core.forward`) runs the next forward pass alone.
    pub fn split_rounds(&mut self, n: u64, probe: &Image, tr: &Tracer) {
        for _ in 0..n {
            let _ = self.drive(1, |_| {});
            tr.span("core.update", None, || self.engine.znn.flush_updates());
            tr.span("core.forward", None, || {
                self.engine.znn.forward(std::slice::from_ref(probe))
            });
        }
    }

    /// Median seconds per round over `n` untraced rounds.
    pub fn round_p50(&mut self, n: u64) -> f64 {
        let mut times = Vec::new();
        let mut prev = Instant::now();
        let _ = self.drive(n, |_| {
            let now = Instant::now();
            times.push((now - prev).as_secs_f64());
            prev = now;
        });
        median(&times)
    }
}
