//! Discrete-event simulation of the ZNN scheduler on the paper's
//! machines (§VIII, Table V, Figs 5–7).
//!
//! The scalability experiments of the paper ran on four physical
//! machines, up to a 61-core Xeon Phi. This crate substitutes those
//! machines with a simulator that is faithful where it matters:
//!
//! * it schedules the **actual task dependency graph** produced by
//!   [`znn_graph::TaskGraph`] for the actual benchmark architectures,
//! * under the **actual queue policy** implementations from
//!   `znn-sched` (priority / FIFO / LIFO),
//! * with per-task costs from the paper's own complexity model
//!   (`znn-theory`), amortizing shared FFTs exactly as the engine
//!   shares them,
//! * on machine models with core counts and SMT throughput curves
//!   matching Table V.
//!
//! What it abstracts away: cache effects, memory bandwidth, and
//! scheduler critical sections (an optional fixed per-task overhead
//! stands in for the latter). The *shape* claims of Figs 5–7 — linear
//! scaling to the core count, slower gains from hyperthreads, width
//! thresholds for saturation — are properties of the task graph and the
//! policy, which the simulator executes faithfully.

#![warn(missing_docs)]

pub mod costs;
pub mod machine;
mod sim;

pub use machine::Machine;
pub use sim::{simulate, SimConfig, SimResult};
