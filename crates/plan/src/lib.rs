//! `znn-plan` — the cost-model-driven execution planner that closes
//! the loop between `znn-theory` (FLOP counts, Brent bounds),
//! `znn-sim` (machine models) and the running engine.
//!
//! The paper's §IV observation is that the direct-vs-FFT crossover is
//! input-size *and* machine dependent, so any static choice is wrong
//! somewhere. Rather than timing both paths per geometry, this crate
//! *prices* every candidate strategy, including the pad shapes and the
//! `fft_threads` fan-out a timing run cannot see:
//!
//! 1. [`cost`] counts per-edge FLOPs from the paper's Tables I–II,
//!    refined to be pad- and radix-aware (a 5-smooth pad's mixed-radix
//!    stages price differently from a power-of-two pad's radix-4
//!    ladder);
//! 2. a [`znn_sim::Machine`] — a Table V model or the microprobed
//!    host from [`Machine::detect`] — turns FLOPs into µs, and the
//!    Brent bound `T₁/P + T∞` turns edge costs into a round-time
//!    prediction per candidate fan-out;
//! 3. the [`Planner`] picks the argmin: per-edge method, per-node pad,
//!    one global `fft_threads`;
//! 4. measured round times stream back through [`Planner::observe`],
//!    which calibrates the machine model online (EWMA on the
//!    measured/predicted ratio) and re-plans the fan-out when the
//!    prediction drifts — safely, because transforms are pinned
//!    bit-identical across every `fft_threads` value, while method and
//!    pad (which do change low-order bits) stay frozen at plan time.
//!
//! The engine takes every conv edge's method and pad from a
//! [`NetPlan`], resolved through `TrainConfig::plan`
//! (`PlanPolicy::Auto`, `Fixed` or `Force` in `znn-core`), and
//! `DenseNet` prices each serving geometry through
//! [`Planner::choose_forward`] unless a method is forced.
//!
//! ```
//! use znn_plan::{PlanConfig, Planner};
//! use znn_sim::Machine;
//! use znn_graph::builder::scalability_net_3d;
//! use znn_tensor::Vec3;
//!
//! let (graph, _) = scalability_net_3d(2);
//! let planner = Planner::new(PlanConfig::for_machine(Machine::xeon_e5_18core()));
//! let plan = planner.plan(&graph, Vec3::cube(8), 18, 18).unwrap();
//! assert_eq!(plan.edges.len(), graph.edge_count());
//! assert!(plan.fft_threads >= 1);
//! ```

#![warn(missing_docs)]

pub mod cost;
mod planner;

pub use planner::{CalibrationReport, EdgePlan, NetPlan, PlanConfig, Planner, RoundObs};
pub use znn_sim::Machine;
