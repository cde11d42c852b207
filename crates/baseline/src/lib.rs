//! Baseline ConvNet engines (paper §IX).
//!
//! The paper benchmarks ZNN against GPU frameworks (Caffe, Theano,
//! cuDNN) whose defining execution model is **layer-at-a-time SIMD data
//! parallelism with direct convolution**: "the current GPU
//! implementations employ SIMD parallelism to perform computation on
//! one whole layer at a time". This crate provides that comparator —
//! plus the sequential special case used as the independent reference
//! implementation for differential testing of the task-parallel engine:
//!
//! * [`ReferenceNet`] — a deliberately simple, sequential,
//!   direct-convolution trainer over any computation graph. Shares no
//!   code with `znn-core`'s execution machinery, which is what makes
//!   agreement between the two engines meaningful evidence of
//!   correctness.
//! * [`LayerwiseNet`] — the same semantics with each layer's edges
//!   evaluated in parallel (rayon) and a **barrier between layers**,
//!   standing in for the GPU baselines of Figs 8–9.

#![warn(missing_docs)]

mod layerwise;
mod reference;

pub use layerwise::LayerwiseNet;
pub use reference::ReferenceNet;
