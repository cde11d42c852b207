//! Serving sessions: a warmed `DenseNet` behind `znn-serve`, driven by an
//! open-loop generator, every response checked against the sequential
//! reference.

use crate::nets::Workload;
use crate::trace::{SpanId, Tracer};
use crate::train::{rel_diff, FORWARD_TOL};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use znn_alloc::PoolSet;
use znn_baseline::ReferenceNet;
use znn_core::{DenseConfig, DenseNet};
use znn_graph::init::ParamSet;
use znn_graph::{shapes, EdgeOp};
use znn_ops::ConvMethod;
use znn_plan::{PlanConfig, Planner};
use znn_serve::{Rejected, ServeConfig, Server, Ticket};
use znn_tensor::{ops, Image, Vec3};

/// Parameter seed of the served net (the weights a deployment would
/// load); the workload seed only drives the request volumes.
const PARAM_SEED: u64 = 42;

/// Distinct request volumes generated from the seed before timing.
const VOLUMES: u64 = 4;

/// A warmed dense evaluator and what it was built with.
pub struct Dense {
    pub net: Arc<DenseNet>,
    pub planner: Arc<Planner>,
    pub pools: Arc<PoolSet>,
}

impl Dense {
    /// Builds graph, planner and `DenseNet` and warms it at the
    /// request shape (spans `graph.build`, `plan.setup`, `dense.new`,
    /// `dense.warmup`). `params` overrides the seeded weights.
    pub fn build(
        w: &Workload,
        params: Option<ParamSet>,
        machine: Option<&PlanConfig>,
        tr: &Tracer,
        parent: Option<SpanId>,
    ) -> Dense {
        let graph = tr.span("graph.build", parent, || (w.build)());
        let planner = tr.span("plan.setup", parent, || {
            let cfg = machine.cloned().unwrap_or_else(PlanConfig::host);
            let p = Arc::new(Planner::new(cfg));
            let n = crate::host::nproc();
            p.plan(&graph, w.train_out, n, n)
                .expect("workload nets size");
            p
        });
        let pools = PoolSet::new();
        let cfg = DenseConfig {
            pools: Some(Arc::clone(&pools)),
            planner: Some(Arc::clone(&planner)),
            ..DenseConfig::default()
        };
        let net = tr
            .span("dense.new", parent, || {
                let params = params.unwrap_or_else(|| ParamSet::init(&graph, PARAM_SEED));
                DenseNet::with_params(graph, params, cfg)
            })
            .expect("workload nets size");
        tr.span("dense.warmup", parent, || net.warmup(w.request));
        Dense {
            net: Arc::new(net),
            planner,
            pools,
        }
    }

    /// Per conv edge, the method and pad the serving path uses at the
    /// request shape (the planner's pricing, as `DenseNet` asks it).
    pub fn choices(&self, request: Vec3) -> Vec<(ConvMethod, Vec3)> {
        let graph = self.net.graph();
        let shape = shapes::infer_shapes(graph, request).expect("request fits the net");
        graph
            .edges()
            .iter()
            .filter_map(|e| match e.op {
                EdgeOp::Conv { kernel, sparsity } => Some(self.planner.choose_forward(
                    shape[&e.from],
                    kernel,
                    sparsity,
                )),
                _ => None,
            })
            .collect()
    }

    /// Request volumes from `seed` with their reference outputs from
    /// the sequential direct-convolution net on the same weights.
    pub fn requests(&self, request: Vec3, seed: u64) -> Vec<Arc<(Image, Image)>> {
        let out = self
            .net
            .output_shape_for(request)
            .expect("request fits the net");
        let mut reference =
            ReferenceNet::new(self.net.graph().clone(), out, 0).expect("request fits the net");
        *reference.params_mut() = self.net.params().clone();
        (0..VOLUMES)
            .map(|i| {
                let input = ops::random(request, seed.wrapping_mul(0x9E37_79B9).wrapping_add(i));
                let want = reference.forward(std::slice::from_ref(&input)).remove(0);
                Arc::new((input, want))
            })
            .collect()
    }

    pub fn server(&self) -> Server {
        Server::start(
            Arc::clone(&self.net),
            ServeConfig {
                workers: crate::host::nproc(),
                queue_capacity: 16,
                degrade_watermark: Some(8),
                ..ServeConfig::default()
            },
        )
    }
}

/// Outcome of an open-loop run.
#[derive(Default)]
pub struct Served {
    /// Latency from each request's due time, seconds; a failed request
    /// counts at no less than its deadline budget.
    pub lat: Vec<f64>,
    pub traced_lat: Vec<f64>,
    /// Submit instant minus due time.
    pub lag: Vec<f64>,
    /// Response instant minus submit return (queue wait plus service).
    pub in_server: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    pub out_voxels: u64,
    pub window_s: f64,
}

/// Sends requests at `rate` per second for `seconds`, cycling through
/// `requests`; every response is compared with its reference. With
/// `tr` on, alternate blocks of ten requests are traced.
pub fn open_loop(
    server: &Server,
    requests: &[Arc<(Image, Image)>],
    rate: f64,
    seconds: f64,
    budget: Duration,
    tr: &Tracer,
) -> Served {
    type Sent = (
        u64,
        Instant,
        Instant,
        Instant,
        Result<Ticket, Rejected>,
        usize,
    );
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(5);
    let total = (seconds * rate).ceil().max(1.0) as u64;
    let mut served = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Served::default();
            for (i, due, sent0, sent1, ticket, idx) in rx {
                out.attempted += 1;
                out.lag.push((sent0 - due).as_secs_f64());
                let traced = tr.on() && (i / 10) % 2 == 1;
                let (ok, done) = match ticket {
                    Ok(t) => {
                        let (res, done) = t.wait_timed();
                        let ok =
                            res.is_ok_and(|img| rel_diff(&img, &requests[idx].1) <= FORWARD_TOL);
                        out.in_server.push((done - sent1).as_secs_f64());
                        (ok, done)
                    }
                    Err(_) => (false, sent1),
                };
                let mut lat = (done - due).as_secs_f64();
                if ok {
                    out.completed += 1;
                    out.out_voxels += requests[idx].1.as_slice().len() as u64;
                } else {
                    out.failed += 1;
                    lat = lat.max(budget.as_secs_f64());
                }
                if traced {
                    let req = tr.record("serve.request", due, done, None, Some(i));
                    tr.record("gen.submit", sent0, sent1, req, Some(i));
                    if done > sent1 {
                        tr.record("serve.in_server", sent1, done, req, Some(i));
                    }
                    out.traced_lat.push(lat);
                } else {
                    out.lat.push(lat);
                }
            }
            out
        });
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let idx = (i % requests.len() as u64) as usize;
            let sent0 = Instant::now();
            let ticket = server.submit(requests[idx].0.clone(), Some(budget));
            let sent1 = Instant::now();
            tx.send((i, due, sent0, sent1, ticket, idx))
                .expect("collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    served.window_s = start.elapsed().as_secs_f64();
    served
}
