//! Forward-only **dense-output** inference over a computation graph.
//!
//! Training wants gradients; serving wants *throughput on `&self`*.
//! [`DenseNet`] is the inference twin of [`crate::Znn`]: it evaluates a
//! (typically max-filtering) graph forward-only, with
//!
//! * **shared immutable state** — one net is safely shared by any
//!   number of worker threads (`&self` evaluation, interior caches
//!   behind locks that are read-only after warmup);
//! * **memoized kernel spectra** — FFT-convolved edges transform each
//!   kernel once per transform geometry and every subsequent volume
//!   reuses the cached half-spectrum (§IV memoization, here across
//!   *requests* instead of across *passes*);
//! * **blocked evaluation with cooperative cancellation** —
//!   [`DenseNet::forward_blocked`] tiles the output volume and calls a
//!   checkpoint closure between blocks, so a server can abandon an
//!   expired request mid-volume and every pooled lease is returned by
//!   RAII on the early exit.
//!
//! This is the library home of the `examples/sliding_window.rs` fast
//! path: the paper's Fig. 2 equivalence (a max-pooling net slid over
//! every output position computes the same function as the max-filtering
//! net run once) means a `DenseNet` over the filtering graph *is* the
//! dense sliding-window output, produced in one pass.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;
use znn_alloc::{lease_image, PoolSet};
use znn_fft::{good_shape, FftEngine};
use znn_graph::init::ParamSet;
use znn_graph::{shapes, EdgeOp, Graph, GraphError};
use znn_ops::filter::{max_filter, FilterImpl};
use znn_ops::pool::max_pool;
use znn_ops::{conv, ConvMethod};
use znn_plan::{PlanConfig, Planner};
use znn_tensor::{ops, pad, Image, Spectrum, Vec3};

/// The forced-method transform shape for an image of shape `n`:
/// `good_shape`, checked against the fast-path invariant (an odd
/// packed axis would double spectrum memory and forfeit the
/// half-length packed stage, [`Spectrum::packed_axis_is_even`]).
fn transform_shape(n: Vec3) -> Vec3 {
    let m = good_shape(n);
    assert!(
        Spectrum::packed_axis_is_even(m),
        "good_shape({n}) = {m} has an odd packed-axis extent; the r2c fast path \
         and tight half-spectrum require it to be even (or unit)"
    );
    m
}

/// Configuration for a [`DenseNet`].
#[derive(Clone)]
pub struct DenseConfig {
    /// Forces one convolution method on every conv edge, with FFT
    /// edges padded to `good_shape`. `None` (the default) prices each
    /// distinct geometry with the planner instead.
    pub method: Option<ConvMethod>,
    /// Pooled allocator for outputs, windows and FFT scratch; `None`
    /// falls back to plain allocation.
    pub pools: Option<Arc<PoolSet>>,
    /// Fan-out cap for intra-transform FFT line parallelism; `1`
    /// keeps every transform on the calling thread (the right choice
    /// when many server workers evaluate concurrently).
    pub fft_threads: usize,
    /// Memoize kernel half-spectra per (edge, transform shape). On by
    /// default — this is the read-only-after-warmup cache servers
    /// share across requests.
    pub memoize_spectra: bool,
    /// The cost model that prices each new geometry when no `method`
    /// is forced ([`Planner::choose_forward`]): deterministic choices,
    /// no timing runs on the serving path, and FFT pads from the
    /// planner's radix-aware pad model ([`Planner::pad_for`]). `None`
    /// (the default) makes the net build one from `PlanConfig::host()`.
    /// Unused when a method is forced.
    pub planner: Option<Arc<Planner>>,
}

impl Default for DenseConfig {
    fn default() -> Self {
        DenseConfig {
            method: None,
            pools: Some(PoolSet::global()),
            fft_threads: 1,
            memoize_spectra: true,
            planner: None,
        }
    }
}

/// Why a [`DenseNet`] could not be constructed.
#[derive(Debug)]
pub enum DenseError {
    /// The graph failed structural validation.
    Graph(GraphError),
    /// The graph admits no valid input shape.
    Shape(shapes::ShapeError),
}

impl fmt::Display for DenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenseError::Graph(e) => write!(f, "invalid graph: {e}"),
            DenseError::Shape(e) => write!(f, "invalid shapes: {e}"),
        }
    }
}

impl std::error::Error for DenseError {}

impl From<GraphError> for DenseError {
    fn from(e: GraphError) -> Self {
        DenseError::Graph(e)
    }
}

impl From<shapes::ShapeError> for DenseError {
    fn from(e: shapes::ShapeError) -> Self {
        DenseError::Shape(e)
    }
}

/// A blocked evaluation stopped early because its checkpoint closure
/// returned [`ControlFlow::Break`]. All pooled leases held for the
/// cancelled evaluation have already been returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// Output blocks fully computed before the cancellation.
    pub blocks_done: usize,
    /// Total output blocks the evaluation would have computed.
    pub blocks_total: usize,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dense evaluation cancelled after {}/{} blocks",
            self.blocks_done, self.blocks_total
        )
    }
}

impl std::error::Error for Cancelled {}

/// Progress report passed to the [`DenseNet::forward_blocked`]
/// checkpoint before each output block is computed.
#[derive(Debug, Clone, Copy)]
pub struct BlockEvent {
    /// Zero-based index of the block about to be computed.
    pub index: usize,
    /// Total number of blocks in this evaluation.
    pub total: usize,
    /// Origin of the block in output coordinates.
    pub origin: Vec3,
    /// Shape of the block (edge blocks may be smaller).
    pub shape: Vec3,
}

/// A conv geometry: (input shape, kernel shape, sparsity).
type Geometry = (Vec3, Vec3, Vec3);

/// A thread-safe forward-only evaluator producing dense outputs.
///
/// Construction validates the graph; evaluation is `&self` and may be
/// called concurrently from any number of threads. Interior caches
/// (per-geometry convolution choices, memoized kernel spectra) are filled
/// on first use — call [`DenseNet::warmup`] once to make them
/// read-only before sharing the net across server workers.
pub struct DenseNet {
    graph: Graph,
    params: ParamSet,
    fov: Vec3,
    cfg: DenseConfig,
    fft: Arc<FftEngine>,
    /// Memoized kernel half-spectra keyed by (edge index, transform
    /// shape) — the cross-request §IV cache.
    kernel_spectra: Mutex<HashMap<(usize, Vec3), Arc<Spectrum>>>,
    /// Method and transform pad per distinct conv geometry.
    choices: Mutex<HashMap<Geometry, (ConvMethod, Vec3)>>,
}

impl DenseNet {
    /// Builds a dense evaluator over `graph` with deterministic
    /// parameter initialization from `seed`.
    pub fn new(graph: Graph, seed: u64, cfg: DenseConfig) -> Result<Self, DenseError> {
        let params = ParamSet::init(&graph, seed);
        Self::with_params(graph, params, cfg)
    }

    /// Builds a dense evaluator over `graph` using the given
    /// parameters (e.g. carried over from a trained [`crate::Znn`]).
    pub fn with_params(graph: Graph, params: ParamSet, mut cfg: DenseConfig) -> Result<Self, DenseError> {
        graph.validate()?;
        if cfg.method.is_none() && cfg.planner.is_none() {
            cfg.planner = Some(Arc::new(Planner::new(PlanConfig::host())));
        }
        // the minimal input establishes that the graph admits *some*
        // dense evaluation; concrete shapes are re-derived per call
        let fov = shapes::required_input_shape(&graph, Vec3::one())?;
        let mut fft = FftEngine::with_threads(cfg.fft_threads.max(1));
        if let Some(p) = &cfg.pools {
            fft = fft.with_buffer_pools(Arc::clone(p));
        }
        Ok(DenseNet {
            graph,
            params,
            fov,
            cfg,
            fft: Arc::new(fft),
            kernel_spectra: Mutex::new(HashMap::new()),
            choices: Mutex::new(HashMap::new()),
        })
    }

    /// The graph this net evaluates.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Immutable access to the parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the parameters. Invalidates the memoized
    /// kernel spectra (they are derived from the kernels being
    /// replaced).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        self.kernel_spectra.get_mut().clear();
        &mut self.params
    }

    /// The pooled allocator this net leases from, if any (servers use
    /// it to report resident bytes alongside serving stats).
    pub fn pools(&self) -> Option<&Arc<PoolSet>> {
        self.cfg.pools.as_ref()
    }

    /// The field of view: the input shape that produces a single
    /// output voxel. For the shift-invariant graphs dense inference
    /// targets, an input of shape `n` produces output
    /// `n − fov + 1`.
    pub fn fov(&self) -> Vec3 {
        self.fov
    }

    /// Input shape required to produce `output_shape` dense outputs.
    pub fn input_shape_for(&self, output_shape: Vec3) -> Result<Vec3, shapes::ShapeError> {
        shapes::required_input_shape(&self.graph, output_shape)
    }

    /// Dense output shape for an input of shape `input`, or `None` if
    /// the input is smaller than the field of view.
    pub fn output_shape_for(&self, input: Vec3) -> Option<Vec3> {
        input.valid_conv(self.fov)
    }

    /// Number of kernel half-spectra currently memoized.
    pub fn memoized_spectra(&self) -> usize {
        self.kernel_spectra.lock().len()
    }

    /// Bytes of kernel half-spectra currently memoized — the
    /// read-only-after-warmup cache shared across requests.
    pub fn memoized_spectrum_bytes(&self) -> usize {
        self.kernel_spectra
            .lock()
            .values()
            .map(|s| s.stored_bins() * std::mem::size_of::<[f32; 2]>())
            .sum()
    }

    /// Runs one throwaway evaluation at `input_shape` so every interior
    /// cache (convolution choices, kernel spectra, FFT plans, pool
    /// classes) is populated. After warmup, evaluation at this shape
    /// takes no interior locks beyond cheap cache reads and allocates
    /// only from the pools.
    pub fn warmup(&self, input_shape: Vec3) {
        let inputs: Vec<Image> = self
            .graph
            .inputs()
            .iter()
            .map(|_| lease_image(self.cfg.pools.as_ref(), input_shape))
            .collect();
        let _ = self.forward_multi(&inputs);
    }

    /// Dense forward pass for a single-input, single-output graph.
    ///
    /// The output has shape [`DenseNet::output_shape_for`]`(input.shape())`.
    pub fn forward(&self, input: &Image) -> Image {
        assert_eq!(self.graph.inputs().len(), 1, "forward wants a single-input graph");
        assert_eq!(self.graph.outputs().len(), 1, "forward wants a single-output graph");
        self.forward_multi(std::slice::from_ref(input))
            .pop()
            .expect("single output")
    }

    /// Dense forward pass; returns the output node images in
    /// [`Graph::outputs`] order. Thread-safe: concurrent callers share
    /// the memoized kernel spectra and the FFT plan cache.
    pub fn forward_multi(&self, inputs: &[Image]) -> Vec<Image> {
        let input_nodes = self.graph.inputs();
        assert_eq!(
            inputs.len(),
            input_nodes.len(),
            "expected {} input images",
            input_nodes.len()
        );
        let order = self.graph.topo_order().expect("validated graph");
        let mut sums: Vec<Option<Image>> = vec![None; self.graph.node_count()];
        for (n, img) in input_nodes.iter().zip(inputs) {
            sums[n.0] = Some(img.clone());
        }
        let outputs = self.graph.outputs();
        let mut outs: HashMap<usize, Image> = HashMap::new();
        for n in order {
            let img = sums[n.0].take().expect("topological order fills sums");
            // the node's forward spectrum is computed once and shared
            // by every FFT-convolved edge leaving it (§IV)
            let mut node_spec: Option<(Vec3, Arc<Spectrum>)> = None;
            for &eid in &self.graph.node(n).out_edges {
                let out = self.edge_forward(eid.0, &img, &mut node_spec);
                let to = self.graph.edge(eid).to;
                match &mut sums[to.0] {
                    None => sums[to.0] = Some(out),
                    Some(acc) => ops::add_assign(acc, &out),
                }
            }
            if outputs.contains(&n) {
                outs.insert(n.0, img);
            }
        }
        outputs
            .iter()
            .map(|o| outs.remove(&o.0).expect("outputs filled by forward"))
            .collect()
    }

    /// Blocked dense forward pass with cooperative cancellation, for a
    /// single-input, single-output **shift-invariant** graph (no
    /// `MaxPool` edges — convert pooling nets to max-filtering nets
    /// first; the two compute the same dense function, Fig. 2).
    ///
    /// The output volume is tiled into blocks of at most `block`;
    /// before each block, `checkpoint` is called with the block's
    /// coordinates and may return [`ControlFlow::Break`] to abandon
    /// the evaluation (a server checks the request deadline here).
    /// On cancellation every pooled lease has already been returned
    /// by RAII and the partial output is discarded.
    pub fn forward_blocked(
        &self,
        input: &Image,
        block: Vec3,
        checkpoint: &mut dyn FnMut(&BlockEvent) -> ControlFlow<()>,
    ) -> Result<Image, Cancelled> {
        assert_eq!(self.graph.inputs().len(), 1, "forward_blocked wants a single-input graph");
        assert_eq!(self.graph.outputs().len(), 1, "forward_blocked wants a single-output graph");
        assert!(
            !self
                .graph
                .edges()
                .iter()
                .any(|e| matches!(e.op, EdgeOp::MaxPool { .. })),
            "forward_blocked requires a shift-invariant (max-filtering) graph; \
             found a MaxPool edge — build the equivalent max-filter net instead"
        );
        assert!(Vec3::one().le(block), "block shape must be at least 1×1×1");
        let out_shape = self
            .output_shape_for(input.shape())
            .unwrap_or_else(|| {
                panic!(
                    "input {} smaller than field of view {}",
                    input.shape(),
                    self.fov
                )
            });
        let counts = Vec3([
            out_shape.0[0].div_ceil(block.0[0]),
            out_shape.0[1].div_ceil(block.0[1]),
            out_shape.0[2].div_ceil(block.0[2]),
        ]);
        let total = counts.len();
        let mut out = lease_image(self.cfg.pools.as_ref(), out_shape);
        let mut done = 0usize;
        let halo = self.fov - Vec3::one();
        for bz in 0..counts.0[0] {
            for by in 0..counts.0[1] {
                for bx in 0..counts.0[2] {
                    let origin = Vec3([
                        bz * block.0[0],
                        by * block.0[1],
                        bx * block.0[2],
                    ]);
                    // NB: explicit call — `.min(..)` on a by-value Vec3
                    // resolves to the derived lexicographic `Ord::min`,
                    // not the elementwise inherent method
                    let shape = Vec3::min(&(out_shape - origin), block);
                    let ev = BlockEvent {
                        index: done,
                        total,
                        origin,
                        shape,
                    };
                    if let ControlFlow::Break(()) = checkpoint(&ev) {
                        // `out` and all temporaries drop here: pooled
                        // bytes are recycled before the caller sees Err
                        return Err(Cancelled {
                            blocks_done: done,
                            blocks_total: total,
                        });
                    }
                    // shift invariance: the block's input window is the
                    // block plus the field-of-view halo
                    let mut win = lease_image(self.cfg.pools.as_ref(), shape + halo);
                    pad::crop_into(input, origin, &mut win);
                    let block_out = self.forward(&win);
                    debug_assert_eq!(block_out.shape(), shape);
                    pad::pad_into(&block_out, &mut out, origin);
                    done += 1;
                }
            }
        }
        Ok(out)
    }

    /// The method and transform pad for one conv geometry: the forced
    /// method with `good_shape` pads, else the planner's priced choice.
    fn choice(&self, n: Vec3, k: Vec3, sparsity: Vec3) -> (ConvMethod, Vec3) {
        if let Some(m) = self.cfg.method {
            return (m, transform_shape(n));
        }
        let planner = self
            .cfg
            .planner
            .as_ref()
            .expect("with_params builds a planner when no method is forced");
        *self
            .choices
            .lock()
            .entry((n, k, sparsity))
            .or_insert_with(|| planner.choose_forward(n, k, sparsity))
    }

    fn kernel_spectrum(&self, eid: usize, w: &Image, sparsity: Vec3, m: Vec3) -> Arc<Spectrum> {
        let compute = || {
            // sparse kernels are dilated onto the skip lattice before
            // the transform, exactly as in training
            if sparsity == Vec3::one() {
                self.fft.forward_padded(w, m)
            } else {
                self.fft.forward_padded(&pad::dilate(w, sparsity), m)
            }
        };
        if !self.cfg.memoize_spectra {
            return Arc::new(compute());
        }
        if let Some(s) = self.kernel_spectra.lock().get(&(eid, m)) {
            return Arc::clone(s);
        }
        let spec = Arc::new(compute());
        Arc::clone(
            self.kernel_spectra
                .lock()
                .entry((eid, m))
                .or_insert(spec),
        )
    }

    fn edge_forward(
        &self,
        eid: usize,
        input: &Image,
        node_spec: &mut Option<(Vec3, Arc<Spectrum>)>,
    ) -> Image {
        let e = &self.graph.edges()[eid];
        match e.op {
            EdgeOp::Conv { kernel, sparsity } => {
                let w = self.params.kernels[eid].as_ref().expect("conv kernel");
                match self.choice(input.shape(), kernel, sparsity) {
                    (ConvMethod::Direct, _) => {
                        let out_shape = conv::valid_shape(input.shape(), w.shape(), sparsity)
                            .expect("validated geometry");
                        let mut out = lease_image(self.cfg.pools.as_ref(), out_shape);
                        conv::conv_valid_into(input, w, sparsity, &mut out);
                        out
                    }
                    (ConvMethod::Fft, m) => {
                        let x_spec = match node_spec {
                            Some((cached_m, s)) if *cached_m == m => Arc::clone(s),
                            _ => {
                                let s = Arc::new(self.fft.forward_padded(input, m));
                                *node_spec = Some((m, Arc::clone(&s)));
                                s
                            }
                        };
                        let w_spec = self.kernel_spectrum(eid, w, sparsity, m);
                        let prod = ops::mul_s(&x_spec, &w_spec);
                        let kd = kernel.dilated(sparsity);
                        let out_shape = input
                            .shape()
                            .valid_conv(kd)
                            .expect("validated geometry");
                        self.fft.inverse_real(prod, kd - Vec3::one(), out_shape)
                    }
                }
            }
            EdgeOp::MaxPool { window } => max_pool(input, window).output,
            EdgeOp::MaxFilter { window, sparsity } => {
                max_filter(input, window, sparsity, FilterImpl::Deque).output
            }
            EdgeOp::Transfer { function } => {
                let b = self.params.biases[eid].expect("transfer bias");
                function.forward(input, b)
            }
        }
    }
}
