//! The planner: prices the cost model through a [`Machine`], picks a
//! per-edge execution plan plus an `fft_threads` fan-out, and
//! calibrates the machine model online from measured round times.

use crate::cost;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use znn_fft::{good_shape, pow2_shape};
use znn_graph::{shapes, EdgeOp, Graph, NodeId};
use znn_ops::ConvMethod;
use znn_sim::Machine;
use znn_tensor::{Spectrum, Vec3};

/// Fan-out below this many padded voxels never splits a transform
/// (mirrors the FFT engine's parallelism threshold), so the planner
/// charges no spawn overhead for it.
const FANOUT_MIN_ELEMS: usize = 1 << 15;

/// Rough wall-clock cost of scheduling one engine task (enqueue +
/// dequeue + latch traffic). Not scaled by calibration: it is queueing
/// overhead, not FLOPs.
const SCHED_OVERHEAD_US: f64 = 2.0;

/// Backward + update work relative to the forward pass along the
/// critical path (the backward sweep mirrors the forward one and the
/// update adds roughly half again).
const ROUND_CRIT_FACTOR: f64 = 2.5;

/// Planner configuration: the machine prior plus calibration knobs.
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// The machine model costs are priced through — the *uncalibrated
    /// prior*. Use [`Machine::detect`] for the current host or a
    /// Table V model for simulation studies.
    pub machine: Machine,
    /// Measured rounds observed before online calibration starts
    /// updating the scale (the first rounds pay warmup: plan caches,
    /// pool growth).
    pub calibrate_after: u64,
    /// Relative predicted-vs-measured drift that triggers a re-plan of
    /// the fan-out (`0.25` = 25%). Re-plans are bit-safe: they only
    /// change `fft_threads`, which is pinned bitwise-identical across
    /// all values.
    pub drift_threshold: f64,
    /// EWMA weight of the newest calibration observation.
    pub ewma: f64,
    /// Wall-clock cost of spawning one extra fork-join chunk when a
    /// transform fans out. Not scaled by calibration, which is what
    /// makes the fan-out argmin move as the scale converges.
    pub spawn_overhead_us: f64,
    /// Whether the engine memoizes FFTs across passes (Table II);
    /// must match `TrainConfig::memoize_fft` for honest pricing.
    pub memoize_fft: bool,
}

impl PlanConfig {
    /// A config priced through the given machine model, default
    /// calibration knobs.
    pub fn for_machine(machine: Machine) -> Self {
        PlanConfig {
            machine,
            calibrate_after: 3,
            drift_threshold: 0.25,
            ewma: 0.4,
            spawn_overhead_us: 15.0,
            memoize_fft: true,
        }
    }

    /// A config priced through a microprobed model of the current host
    /// ([`Machine::detect`]).
    pub fn host() -> Self {
        Self::for_machine(Machine::detect())
    }
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self::host()
    }
}

/// The chosen execution strategy for one convolution edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgePlan {
    /// Direct or FFT convolution.
    pub method: ConvMethod,
    /// The padded transform shape FFT edges plan at. Chosen per *node*
    /// (all out-edges of a node share it), so frequency-domain
    /// accumulation stays eligible.
    pub pad: Vec3,
    /// Predicted per-round time of this edge at plan time, µs.
    pub predicted_us: f64,
}

/// A complete execution plan for one network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetPlan {
    /// Per-edge plans, indexed like `graph.edges()`; `None` for
    /// non-convolution edges.
    pub edges: Vec<Option<EdgePlan>>,
    /// The chosen intra-transform fan-out (≤ the budget given to
    /// [`Planner::plan`]).
    pub fft_threads: usize,
    /// Predicted round time at plan time (calibrated scale), µs.
    pub predicted_round_us: f64,
    /// Predicted round time at calibration scale 1.0, µs — the
    /// reference the online calibrator compares measurements against.
    pub raw_round_us: f64,
}

impl NetPlan {
    /// A fixed single-method plan: every conv edge uses `method`, pads
    /// are `good_shape` (or `pow2_shape` with `pow2`), and the fan-out
    /// is pinned to `fft_threads`. This is the "best fixed strategy"
    /// grid the planner is benchmarked against, and the `Fixed`
    /// escape hatch for reproducing a previously reported plan.
    pub fn force(
        graph: &Graph,
        output_shape: Vec3,
        method: ConvMethod,
        fft_threads: usize,
        pow2: bool,
    ) -> Result<NetPlan, shapes::ShapeError> {
        let input_shape = shapes::required_input_shape(graph, output_shape)?;
        let shape_of = shapes::infer_shapes(graph, input_shape)?;
        let edges = graph
            .edges()
            .iter()
            .map(|e| match e.op {
                EdgeOp::Conv { .. } => {
                    let n = shape_of[&e.from];
                    let pad = if pow2 { pow2_shape(n) } else { good_shape(n) };
                    Some(EdgePlan {
                        method,
                        pad,
                        predicted_us: 0.0,
                    })
                }
                _ => None,
            })
            .collect();
        Ok(NetPlan {
            edges,
            fft_threads: fft_threads.max(1),
            predicted_round_us: 0.0,
            raw_round_us: 0.0,
        })
    }
}

/// One calibration observation: a measured round against its
/// prediction, and the scale after folding it in.
#[derive(Clone, Copy, Debug)]
pub struct RoundObs {
    /// 1-based observed round number (in observation order).
    pub round: u64,
    /// Predicted round time when the round ran (current scale), µs.
    pub predicted_us: f64,
    /// Measured round time, µs.
    pub measured_us: f64,
    /// Calibration scale after this observation.
    pub scale: f64,
}

/// Snapshot of the calibration state for reporting.
#[derive(Clone, Debug)]
pub struct CalibrationReport {
    /// Current machine-speed scale (measured speed / prior speed).
    pub scale: f64,
    /// Currently chosen fan-out.
    pub fft_threads: usize,
    /// Fan-out re-plans triggered by drift.
    pub replans: u64,
    /// All observations, in order.
    pub rounds: Vec<RoundObs>,
}

/// One point of the fan-out cost curve: predicted round time at a
/// candidate `fft_threads`, split into a FLOP-derived part (divided by
/// the calibration scale) and a wall-clock overhead part (not).
#[derive(Clone, Copy, Debug)]
struct FanPoint {
    threads: usize,
    raw_us: f64,
    overhead_us: f64,
}

impl FanPoint {
    fn predicted(&self, scale: f64) -> f64 {
        self.raw_us / scale + self.overhead_us
    }
}

#[derive(Debug, Default)]
struct CalState {
    /// Multiplier on the machine prior's speed; 1.0 = prior is exact,
    /// >1 = host is faster than the prior.
    scale: f64,
    rounds: u64,
    replans: u64,
    fft_threads: usize,
    curve: Vec<FanPoint>,
    history: Vec<RoundObs>,
}

/// The execution planner.
///
/// [`Planner::plan`] chooses, per conv edge, direct vs FFT convolution
/// and the padded transform shape, plus one global `fft_threads`
/// fan-out, by pricing the [`cost`] FLOP model through the configured
/// [`Machine`]. The round-time prediction is the Brent bound
/// `T₁/P + T∞` — total work spread over the workers plus the critical
/// path — with transform terms on the critical path sped up by the
/// candidate fan-out and charged its spawn overhead.
///
/// [`Planner::observe`] feeds measured round times back: after a
/// warmup of `calibrate_after` rounds the machine-speed scale is
/// EWMA-updated, and when the prediction drifts past
/// `drift_threshold` the fan-out is re-chosen under the new scale.
/// Re-plans only ever change the fan-out — transforms are pinned
/// bit-identical across `fft_threads`, so a live re-plan cannot change
/// a computed bit — while methods and pads stay frozen at plan time
/// (direct and FFT results differ in low-order bits).
pub struct Planner {
    cfg: PlanConfig,
    state: Mutex<CalState>,
}

impl fmt::Debug for Planner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock();
        f.debug_struct("Planner")
            .field("machine", &self.cfg.machine.name)
            .field("scale", &s.scale)
            .field("fft_threads", &s.fft_threads)
            .field("replans", &s.replans)
            .finish()
    }
}

impl Planner {
    /// A planner with the given configuration and no observations.
    pub fn new(cfg: PlanConfig) -> Self {
        Planner {
            cfg,
            state: Mutex::new(CalState {
                scale: 1.0,
                fft_threads: 1,
                ..Default::default()
            }),
        }
    }

    /// The configuration the planner was built with.
    pub fn config(&self) -> &PlanConfig {
        &self.cfg
    }

    /// Computes a plan for `graph` trained at `output_shape` with
    /// `workers` scheduler threads and at most `budget` intra-transform
    /// fan-out. Deterministic: the same inputs, machine model and
    /// calibration scale always produce the identical plan.
    pub fn plan(
        &self,
        graph: &Graph,
        output_shape: Vec3,
        workers: usize,
        budget: usize,
    ) -> Result<NetPlan, shapes::ShapeError> {
        let input_shape = shapes::required_input_shape(graph, output_shape)?;
        let shape_of = shapes::infer_shapes(graph, input_shape)?;
        let workers = workers.max(1);
        let budget = budget.max(1);
        let scale = self.state.lock().scale;

        // pads are keyed per *node*: every out-edge of a node transforms
        // the same image, and the engine's frequency-domain summation
        // requires all contributions at a node to share the transform
        // shape — a per-edge pad would silently forfeit it
        let mut node_pad: HashMap<NodeId, Vec3> = HashMap::new();
        for i in 0..graph.node_count() {
            let n = shape_of[&NodeId(i)];
            let smooth = good_shape(n);
            let pow2 = pow2_shape(n);
            let pad = if cost::fft3_flops(pow2) < cost::fft3_flops(smooth) {
                pow2
            } else {
                smooth
            };
            node_pad.insert(NodeId(i), pad);
        }

        // per-edge method choice: the per-edge argmin of the priced
        // cost model
        let d_out = |n: NodeId| graph.node(n).out_edges.len().max(1);
        let d_in = |n: NodeId| graph.node(n).in_edges.len().max(1);
        let mut edges: Vec<Option<EdgePlan>> = Vec::with_capacity(graph.edge_count());
        for e in graph.edges() {
            let nu = shape_of[&e.from];
            match e.op {
                EdgeOp::Conv { kernel, sparsity } => {
                    let pad = node_pad[&e.from];
                    let direct_us = self.us(cost::direct_round_flops(nu, kernel, sparsity));
                    let (tf, pw) =
                        cost::fft_round_split(pad, d_out(e.from), d_in(e.to), self.cfg.memoize_fft);
                    let fft_us = self.us(tf) + self.us_pw(pw);
                    let (method, us) = if direct_us <= fft_us {
                        (ConvMethod::Direct, direct_us)
                    } else {
                        (ConvMethod::Fft, fft_us)
                    };
                    edges.push(Some(EdgePlan {
                        method,
                        pad,
                        predicted_us: us / scale,
                    }));
                }
                _ => edges.push(None),
            }
        }

        // fan-out sweep: Brent bound T₁/P + T∞ at every power-of-two
        // candidate up to the budget
        let priced = self.price_edges(graph, &shape_of, &edges);
        let mut curve: Vec<FanPoint> = Vec::new();
        let mut t = 1usize;
        loop {
            curve.push(self.fan_point(&priced, workers, t));
            if t >= budget {
                break;
            }
            t = (t * 2).min(budget);
        }
        let best = curve
            .iter()
            .copied()
            .min_by(|a, b| a.predicted(scale).total_cmp(&b.predicted(scale)))
            .expect("curve is never empty");

        let mut st = self.state.lock();
        st.fft_threads = best.threads;
        st.curve = curve;
        drop(st);

        Ok(NetPlan {
            edges,
            fft_threads: best.threads,
            predicted_round_us: best.predicted(scale),
            raw_round_us: best.raw_us + best.overhead_us,
        })
    }

    /// Prices an arbitrary plan (typically a [`NetPlan::force`] fixed
    /// strategy) through this planner's model at the current
    /// calibration scale: the predicted round time in µs. This is the
    /// "what would that strategy cost" query behind the
    /// planner-vs-best-fixed gap report, and it satisfies the argmin
    /// property by construction — no plan prices below the one
    /// [`Planner::plan`] picks.
    pub fn price(
        &self,
        graph: &Graph,
        output_shape: Vec3,
        workers: usize,
        plan: &NetPlan,
    ) -> Result<f64, shapes::ShapeError> {
        let input_shape = shapes::required_input_shape(graph, output_shape)?;
        let shape_of = shapes::infer_shapes(graph, input_shape)?;
        let priced = self.price_edges(graph, &shape_of, &plan.edges);
        let fp = self.fan_point(&priced, workers.max(1), plan.fft_threads.max(1));
        Ok(fp.predicted(self.state.lock().scale))
    }

    /// Work totals of a concrete per-edge plan: (transform, other)
    /// split per edge so fan-out candidates can speed up transform
    /// terms only, plus the critical path and overhead populations.
    fn price_edges(
        &self,
        graph: &Graph,
        shape_of: &HashMap<NodeId, Vec3>,
        edges: &[Option<EdgePlan>],
    ) -> PricedNet {
        let d_out = |n: NodeId| graph.node(n).out_edges.len().max(1);
        let d_in = |n: NodeId| graph.node(n).in_edges.len().max(1);
        let mut edge_split: Vec<(f64, f64)> = Vec::with_capacity(graph.edge_count());
        let mut n_big_transforms = 0.0;
        for (i, e) in graph.edges().iter().enumerate() {
            let nu = shape_of[&e.from];
            let nv = shape_of[&e.to];
            match e.op {
                EdgeOp::Conv { kernel, sparsity } => {
                    let ep = edges[i].expect("conv edge must be planned");
                    match ep.method {
                        ConvMethod::Direct => edge_split.push((
                            0.0,
                            self.us(cost::direct_round_flops(nu, kernel, sparsity)),
                        )),
                        ConvMethod::Fft => {
                            let (tf, pw) = cost::fft_round_split(
                                ep.pad,
                                d_out(e.from),
                                d_in(e.to),
                                self.cfg.memoize_fft,
                            );
                            edge_split.push((self.us(tf), self.us_pw(pw)));
                            if ep.pad.len() >= FANOUT_MIN_ELEMS {
                                // ≈ transforms per FFT edge per round
                                n_big_transforms += 6.0;
                            }
                        }
                    }
                }
                EdgeOp::Transfer { .. } => edge_split.push((
                    0.0,
                    self.us_pw(cost::other_round_flops(
                        nu.len() as f64,
                        nv.len() as f64,
                        None,
                    )),
                )),
                EdgeOp::MaxPool { window } | EdgeOp::MaxFilter { window, .. } => edge_split.push((
                    0.0,
                    self.us_pw(cost::other_round_flops(
                        nu.len() as f64,
                        nv.len() as f64,
                        Some(window),
                    )),
                )),
            }
        }
        let crit = critical_path(graph, &edge_split);
        PricedNet {
            work_us: edge_split.iter().map(|(t, o)| t + o).sum(),
            crit,
            n_big_transforms,
            n_tasks: (3 * graph.edge_count()) as f64,
        }
    }

    /// One fan-out candidate priced with the Brent bound `T₁/P + T∞`:
    /// total work spread over the machine's `workers`-thread
    /// throughput, the critical path with its transform terms sped up
    /// by the candidate fan-out, and wall-clock overhead (task
    /// scheduling + chunk spawns) that calibration deliberately does
    /// not scale.
    fn fan_point(&self, priced: &PricedNet, workers: usize, t: usize) -> FanPoint {
        let throughput = self.cfg.machine.total_throughput(workers).max(1e-9);
        let fan_speed = self.cfg.machine.total_throughput(t).max(1.0);
        let raw_us = priced.work_us / throughput
            + ROUND_CRIT_FACTOR * (priced.crit.transform_us / fan_speed + priced.crit.other_us);
        let overhead_us = SCHED_OVERHEAD_US * priced.n_tasks
            + self.cfg.spawn_overhead_us * (t - 1) as f64 * priced.n_big_transforms;
        FanPoint {
            threads: t,
            raw_us,
            overhead_us,
        }
    }

    /// Direct/FFT choice for a single *serving* (forward-only)
    /// geometry, as `DenseNet` prices each new request shape. Returns
    /// the method and the pad FFT would use.
    pub fn choose_forward(&self, n: Vec3, k: Vec3, sparsity: Vec3) -> (ConvMethod, Vec3) {
        let pad = self.pad_for(n);
        let kd = k.dilated(sparsity);
        let direct = match n.valid_conv(kd) {
            Some(out) => self.us(2.0 * out.len() as f64 * k.len() as f64),
            None => f64::INFINITY,
        };
        // forward only: shared image FFT amortizes across a dense
        // layer's edges (assume it is shared at least once), kernel
        // spectra are memoized across requests (free in steady state),
        // plus the pointwise product and the per-edge inverse
        let t3 = self.us(cost::fft3_flops(pad));
        let fft = t3 / 2.0 + self.us_pw(cost::pointwise_flops(pad)) + t3;
        if direct <= fft {
            (ConvMethod::Direct, pad)
        } else {
            (ConvMethod::Fft, pad)
        }
    }

    /// The pad this planner assigns to images of shape `n`: the
    /// cheaper of the 5-smooth and power-of-two pads under the
    /// radix-aware transform model. Always a valid engine transform
    /// shape (even or unit packed axis).
    pub fn pad_for(&self, n: Vec3) -> Vec3 {
        let smooth = good_shape(n);
        let pow2 = pow2_shape(n);
        let pad = if cost::fft3_flops(pow2) < cost::fft3_flops(smooth) {
            pow2
        } else {
            smooth
        };
        debug_assert!(Spectrum::packed_axis_is_even(pad));
        pad
    }

    /// Feeds one measured round time back. Returns `Some(fft_threads)`
    /// when drift triggered a re-plan and the engine should move to a
    /// new fan-out (bit-safe); `None` otherwise.
    pub fn observe(&self, measured_us: f64) -> Option<usize> {
        if !measured_us.is_finite() || measured_us <= 0.0 {
            return None;
        }
        let mut st = self.state.lock();
        st.rounds += 1;
        let round = st.rounds;
        let current = st
            .curve
            .iter()
            .find(|p| p.threads == st.fft_threads)
            .copied();
        let predicted = current.map(|p| p.predicted(st.scale)).unwrap_or(0.0);
        if round > self.cfg.calibrate_after {
            if let Some(p) = current {
                // instantaneous scale that would make the FLOP-derived
                // part of the prediction match this measurement
                let flop_measured = (measured_us - p.overhead_us).max(measured_us * 0.1);
                let inst = p.raw_us / flop_measured;
                st.scale = st.scale * (1.0 - self.cfg.ewma) + inst * self.cfg.ewma;
            }
        }
        let scale = st.scale;
        st.history.push(RoundObs {
            round,
            predicted_us: predicted,
            measured_us,
            scale,
        });
        // drift check: re-pick the fan-out under the calibrated scale
        if round > self.cfg.calibrate_after && predicted > 0.0 {
            let drift = (predicted / measured_us - 1.0).abs();
            if drift > self.cfg.drift_threshold {
                let best = st
                    .curve
                    .iter()
                    .copied()
                    .min_by(|a, b| a.predicted(scale).total_cmp(&b.predicted(scale)));
                if let Some(b) = best {
                    if b.threads != st.fft_threads {
                        st.fft_threads = b.threads;
                        st.replans += 1;
                        return Some(b.threads);
                    }
                }
            }
        }
        None
    }

    /// Snapshot of the calibration trajectory.
    pub fn calibration(&self) -> CalibrationReport {
        let st = self.state.lock();
        CalibrationReport {
            scale: st.scale,
            fft_threads: st.fft_threads,
            replans: st.replans,
            rounds: st.history.clone(),
        }
    }

    /// µs of `flops` on one worker of the prior machine at scale 1.
    fn us(&self, flops: f64) -> f64 {
        flops / (self.cfg.machine.gflops * 1e3)
    }

    /// µs of bandwidth-bound `flops` (pointwise sweeps) on one worker.
    fn us_pw(&self, flops: f64) -> f64 {
        flops / (self.cfg.machine.gflops * cost::PW_EFF * 1e3)
    }
}

/// Per-edge forward cost split along the critical path.
struct CritPath {
    transform_us: f64,
    other_us: f64,
}

/// Priced work totals of a concrete plan, ready for the fan-out sweep.
struct PricedNet {
    /// Total per-round work across all edges, µs at one prior thread.
    work_us: f64,
    /// The T∞ term, transform and other parts kept separate.
    crit: CritPath,
    /// Transforms per round large enough to fan out (spawn-overhead
    /// population).
    n_big_transforms: f64,
    /// Scheduled tasks per round (scheduling-overhead population).
    n_tasks: f64,
}

/// Longest path through the DAG, accumulating per-edge forward-pass
/// costs (one third of the round split, since `edge_split` holds full
/// rounds) — Kahn topological order, O(V+E).
fn critical_path(graph: &Graph, edge_split: &[(f64, f64)]) -> CritPath {
    let n = graph.node_count();
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.node(NodeId(i)).in_edges.len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    // (transform_us, other_us) of the heaviest chain ending at node i
    let mut best: Vec<(f64, f64)> = vec![(0.0, 0.0); n];
    while let Some(i) = ready.pop() {
        for &e in &graph.node(NodeId(i)).out_edges {
            let to = graph.edge(e).to.0;
            let (tf, ot) = edge_split[e.0];
            // forward share of the full-round edge cost
            let cand = (best[i].0 + tf / 3.0, best[i].1 + ot / 3.0);
            if cand.0 + cand.1 > best[to].0 + best[to].1 {
                best[to] = cand;
            }
            indeg[to] -= 1;
            if indeg[to] == 0 {
                ready.push(to);
            }
        }
    }
    let (transform_us, other_us) = best
        .iter()
        .copied()
        .max_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)))
        .unwrap_or((0.0, 0.0));
    CritPath {
        transform_us,
        other_us,
    }
}
