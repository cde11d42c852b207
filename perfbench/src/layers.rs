//! Per-layer probes for the traced run: each public call is timed in
//! its own span at the workload's geometry, and the metric is the
//! median span.

use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use znn_alloc::PoolSet;
use znn_core::{latest_valid, Checkpoint, Znn};
use znn_fft::FftEngine;
use znn_graph::{shapes, EdgeOp, Graph, NodeId};
use znn_ops::{conv, ConvMethod};
use znn_plan::NetPlan;
use znn_tensor::{ops, Spectrum, Vec3};

/// Calls per probe: enough for a stable median of short calls while a
/// probe stays well under a second.
const REPS: usize = 7;

/// Times `REPS` calls of `f`, each in a span named `name`; returns the
/// median seconds per call.
fn probe<R>(tr: &Tracer, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            let end = Instant::now();
            tr.record(name, start, end, None, None);
            (end - start).as_secs_f64()
        })
        .collect();
    median(&times)
}

/// One conv edge's geometry: input image shape, transform pad, kernel
/// and sparsity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Geometry {
    n: [usize; 3],
    pad: [usize; 3],
    k: [usize; 3],
    s: [usize; 3],
}

/// Distinct conv geometries of a plan with their edge counts, split
/// into FFT and direct edges.
fn geometries(graph: &Graph, input: Vec3, plan: &NetPlan) -> [BTreeMap<Geometry, usize>; 2] {
    let shape = shapes::infer_shapes(graph, input).expect("plan input fits the net");
    let mut out = [BTreeMap::new(), BTreeMap::new()];
    for (e, ep) in graph.edges().iter().zip(&plan.edges) {
        if let (EdgeOp::Conv { kernel, sparsity }, Some(ep)) = (e.op, ep) {
            let g = Geometry {
                n: shape[&e.from].0,
                pad: ep.pad.0,
                k: kernel.0,
                s: sparsity.0,
            };
            let side = usize::from(ep.method == ConvMethod::Direct);
            *out[side].entry(g).or_default() += 1;
        }
    }
    out
}

/// Transforms and spectrum multiply-accumulates per round, counted
/// from the plan the way Table II counts the memoized FFT algorithm:
/// one forward transform per node feeding FFT edges and per node fed by
/// them (image, then gradient), one per FFT kernel; one inverse per
/// such node and per FFT kernel gradient; three MACs per FFT edge.
fn fft_counts(graph: &Graph, plan: &NetPlan) -> (f64, f64, f64) {
    let fft = |i: usize| matches!(plan.edges[i], Some(ep) if ep.method == ConvMethod::Fft);
    let edges = (0..graph.edge_count()).filter(|&i| fft(i)).count() as f64;
    let nodes = (0..graph.node_count())
        .map(|i| {
            let n = graph.node(NodeId(i));
            usize::from(n.out_edges.iter().any(|e| fft(e.0)))
                + usize::from(n.in_edges.iter().any(|e| fft(e.0)))
        })
        .sum::<usize>() as f64;
    (nodes + edges, nodes + edges, 3.0 * edges)
}

/// FFT and spectrum-MAC probes at the plan's pads (FFT edges; the
/// direct edges' pads when the plan has none), weighted by edge count.
/// `fft.share_est` is the planned per-round transform and MAC time
/// over the median CPU time of a round.
pub fn fft(graph: &Graph, input: Vec3, plan: &NetPlan, round_cpu: f64, tr: &Tracer) -> Metrics {
    let [fft_geo, direct_geo] = geometries(graph, input, plan);
    let geo = if fft_geo.is_empty() {
        direct_geo
    } else {
        fft_geo
    };
    let engine = FftEngine::with_threads(1).with_buffer_pools(PoolSet::new());
    let (mut fwd, mut inv, mut mac, mut weight) = (0.0, 0.0, 0.0, 0.0);
    for (i, (g, &count)) in geo.iter().enumerate() {
        let (n, pad) = (Vec3(g.n), Vec3(g.pad));
        let img = ops::random(n, i as u64);
        let spec = engine.forward_padded(&img, pad);
        let mut acc = Spectrum::zeros(pad);
        let c = count as f64;
        fwd += c * probe(tr, "fft.fwd", || engine.forward_padded(&img, pad));
        inv += c * probe(tr, "fft.inv", || {
            engine.inverse_real(spec.clone(), Vec3::zero(), n)
        });
        mac += c * probe(tr, "tensor.spectrum_mac", || {
            ops::mul_add_assign_s(&mut acc, &spec, &spec)
        });
        weight += c;
    }
    let (n_fwd, n_inv, n_mac) = fft_counts(graph, plan);
    let (fwd, inv, mac) = (fwd / weight, inv / weight, mac / weight);
    let mut m = Metrics::default();
    m.set("fft.fwd_s", fwd, "s");
    m.set("fft.inv_s", inv, "s");
    m.set("tensor.spectrum_mac_s", mac, "s");
    m.set("fft.transforms_per_round", n_fwd + n_inv, "count");
    let planned = n_fwd * fwd + n_inv * inv + n_mac * mac;
    m.set("fft.share_est", planned / round_cpu, "ratio");
    m
}

/// Direct convolution and its kernel gradient at the net's most common
/// conv geometry.
pub fn direct(graph: &Graph, input: Vec3, plan: &NetPlan, tr: &Tracer) -> Metrics {
    let [fft_geo, direct_geo] = geometries(graph, input, plan);
    let mut all = fft_geo;
    for (g, c) in direct_geo {
        *all.entry(g).or_default() += c;
    }
    let (&g, _) = all
        .iter()
        .max_by_key(|&(_, &c)| c)
        .expect("bench nets have conv edges");
    let (n, k, s) = (Vec3(g.n), Vec3(g.k), Vec3(g.s));
    let img = ops::random(n, 1);
    let ker = ops::random(k, 2);
    let out = conv::valid_shape(n, k, s).expect("edge geometry is valid");
    let grad = ops::random(out, 3);
    let conv_s = probe(tr, "ops.direct_conv", || conv::conv_valid(&img, &ker, s));
    let grad_s = probe(tr, "ops.kernel_grad", || {
        conv::kernel_gradient(&img, &grad, k, s)
    });
    let mut m = Metrics::default();
    m.set("ops.direct_conv_s", conv_s, "s");
    m.set("ops.kernel_grad_s", grad_s, "s");
    let flops = 2.0 * out.len() as f64 * k.len() as f64;
    m.set("ops.direct_gflops", flops / conv_s / 1e9, "GFLOP/s");
    m
}

/// Durable checkpoint write and restore of the engine's current state.
pub fn checkpoint(znn: &Znn, dir: &Path, tr: &Tracer) -> Metrics {
    let _ = std::fs::remove_dir_all(dir);
    let ckpt = Checkpoint {
        round: znn.round(),
        params: znn.params(),
        velocities: znn.optimizer_state(),
    };
    let mut bytes = 0.0;
    let write_s = probe(tr, "core.ckpt_write", || {
        let path = ckpt
            .write_atomic(dir, 2)
            .expect("checkpoint write succeeds");
        bytes = std::fs::metadata(path).map_or(f64::NAN, |m| m.len() as f64);
    });
    let restore_s = probe(tr, "core.ckpt_restore", || {
        latest_valid(dir)
            .expect("checkpoint directory is readable")
            .expect("a valid checkpoint was just written")
    });
    let _ = std::fs::remove_dir_all(dir);
    let mut m = Metrics::default();
    m.set("core.ckpt_write_s", write_s, "s");
    m.set("core.ckpt_restore_s", restore_s, "s");
    m.set("core.ckpt_bytes", bytes, "bytes");
    m
}

/// Pool statistics over a window of `ops` operations.
pub fn alloc(pools: &Arc<PoolSet>, hits: u64, misses: u64, leased: u64, ops: usize) -> Metrics {
    let mut m = Metrics::default();
    let total = (hits + misses).max(1);
    m.set("alloc.hit_rate", hits as f64 / total as f64, "ratio");
    m.set("alloc.misses_timed", misses as f64, "count");
    m.set(
        "alloc.resident_mb",
        pools.resident_bytes() as f64 / 1048576.0,
        "MiB",
    );
    m.set(
        "alloc.churn_mb_per_round",
        leased as f64 / 1048576.0 / ops.max(1) as f64,
        "MiB",
    );
    m
}

/// `znn_theory::brent::achievable_speedup` at `p` workers for the
/// analytic model of `graph`: one layer per group of edges into the
/// same builder layer, each image and kernel replaced by the cube of
/// equal volume (the model is isotropic).
pub fn brent_bound(graph: &Graph, input: Vec3, fft: bool, p: usize) -> f64 {
    use znn_theory::{achievable_speedup, ConvAlgorithm, LayerModel, NetworkModel};
    let shape = shapes::infer_shapes(graph, input).expect("plan input fits the net");
    let side = |v: Vec3| (v.len() as f64).cbrt();
    let layer_of = |n: NodeId| {
        let name = &graph.node(n).name;
        name.rsplit_once('/')
            .map_or(name.clone(), |(l, _)| l.to_string())
    };
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, e) in graph.edges().iter().enumerate() {
        let l = layer_of(e.to);
        match groups.last_mut() {
            Some((name, ids)) if *name == l => ids.push(i),
            _ => groups.push((l, vec![i])),
        }
    }
    let layers = groups
        .iter()
        .map(|(_, ids)| {
            let e = graph.edge(znn_graph::EdgeId(ids[0]));
            let distinct = |f: &dyn Fn(usize) -> NodeId| {
                let mut v: Vec<usize> = ids.iter().map(|&i| f(i).0).collect();
                v.sort_unstable();
                v.dedup();
                v.len() as f64
            };
            let f_in = distinct(&|i| graph.edges()[i].from);
            let f_out = distinct(&|i| graph.edges()[i].to);
            let n = side(shape[&e.from]);
            match e.op {
                EdgeOp::Conv { kernel, sparsity } => LayerModel::Conv {
                    n,
                    k: side(kernel.dilated(sparsity)),
                    f_in,
                    f_out,
                },
                EdgeOp::Transfer { .. } => LayerModel::Transfer { n, f: f_out },
                EdgeOp::MaxFilter { window, .. } => LayerModel::MaxFilter {
                    n,
                    f: f_out,
                    k: side(window),
                },
                EdgeOp::MaxPool { .. } => LayerModel::MaxPool { n, f: f_out },
            }
        })
        .collect();
    let algo = if fft {
        ConvAlgorithm::FftMemoized
    } else {
        ConvAlgorithm::Direct
    };
    achievable_speedup(&NetworkModel { layers }, algo, p as f64)
}
