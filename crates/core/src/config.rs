//! Engine configuration.

use std::path::PathBuf;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_fault::FaultPlan;
use znn_ops::{ConvMethod, Loss};
use znn_sched::QueuePolicy;

/// Where and how often training snapshots its state to disk.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory snapshots are written into (created if missing).
    pub dir: PathBuf,
    /// Write a snapshot every this many completed rounds (and always
    /// one at the end of a run). `0` disables periodic snapshots but
    /// keeps the final one.
    pub every: u64,
    /// Newest snapshots retained on disk; older ones are pruned after
    /// each write. `0` keeps all.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Snapshots into `dir` every 25 rounds, keeping the newest 3.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: 25,
            keep: 3,
        }
    }
}

/// Thresholds for the health sentinels and the rollback loop
/// (`Trainer::run_recoverable`).
#[derive(Clone, Debug)]
pub struct HealthPolicy {
    /// Healthy-loss window the divergence detector compares against: a
    /// round is divergent when its loss exceeds `divergence_factor ×`
    /// the rolling median of the last `divergence_window` healthy
    /// losses. `0` disables divergence detection (non-finite values
    /// still trip the sentinels).
    pub divergence_window: usize,
    /// Multiple of the rolling median loss that counts as divergence.
    pub divergence_factor: f64,
    /// Consecutive failed rounds tolerated before training aborts with
    /// a diagnostic.
    pub max_retries: u32,
    /// Learning-rate multiplier applied on each rollback (compounds
    /// across consecutive failures, resets after a healthy round).
    pub lr_backoff: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            divergence_window: 16,
            divergence_factor: 10.0,
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

/// How the engine obtains its execution plan: the method and pad of
/// every conv edge, and the FFT fan-out ([`TrainConfig::plan`]).
/// Every run is planned; `plan: None` means [`PlanPolicy::Auto`] with
/// a planner the engine builds itself from the host machine model.
#[derive(Clone, Debug)]
pub enum PlanPolicy {
    /// Plan at construction by pricing the `znn-theory` FLOP model
    /// through the planner's `znn-sim` machine model, then calibrate
    /// that model online from measured round times and re-plan the
    /// `fft_threads` fan-out when predictions drift (bit-safe: the
    /// fan-out is pinned bitwise-identical across all values). Share
    /// the [`znn_plan::Planner`] to read its calibration trajectory.
    Auto(Arc<znn_plan::Planner>),
    /// Execute a fixed, externally supplied plan — reproducing a
    /// previously reported plan, or pinning one strategy for A/B
    /// comparison. No calibration, no re-planning.
    ///
    /// Pads must be valid engine transform shapes: at least the
    /// from-node shape on every axis, even (or unit) packed axis, and
    /// shared by all out-edges of a node (use
    /// [`znn_plan::NetPlan::force`] or a planner-produced plan; the
    /// engine panics at construction on an invalid pad).
    Fixed(Arc<znn_plan::NetPlan>),
    /// One method on every conv edge, `good_shape` pads, fan-out equal
    /// to the FFT thread budget: shorthand for `Fixed` of
    /// [`znn_plan::NetPlan::force`]`(graph, out, method, budget, false)`.
    Force(ConvMethod),
}

/// Training-engine configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Worker threads (the paper's "predetermined number of workers").
    pub workers: usize,
    /// Global queue policy (§VI-A default, §X alternatives).
    pub queue: QueuePolicy,
    /// Use the §X work-stealing scheduler instead of the global
    /// priority queue (priorities are then ignored).
    pub work_stealing: bool,
    /// Worker cap for intra-transform FFT line parallelism. `None`
    /// (the default) shares the scheduler's thread budget: transforms
    /// may fan out across up to [`TrainConfig::workers`] chunks, which
    /// run on the task's own thread and on idle scheduler workers
    /// donating to the engine's fork-join pool — never on extra OS
    /// threads. `Some(1)` forces transforms serial; `Some(n)` caps the
    /// fan-out at `n` chunks. Transforms are bit-for-bit identical for
    /// every value.
    pub fft_threads: Option<usize>,
    /// SGD learning rate η.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables; classic heavy-ball).
    pub momentum: f32,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f32,
    /// Where the execution plan comes from. `None` (the default) is
    /// [`PlanPolicy::Auto`] with a planner built from
    /// `PlanConfig::host()` at this config's `memoize_fft`.
    pub plan: Option<PlanPolicy>,
    /// Memoize FFTs of images and kernels across passes (Table II).
    pub memoize_fft: bool,
    /// Loss function.
    pub loss: Loss,
    /// Dropout probability on hidden transfer edges (§XI extension);
    /// `None` disables. Inverted dropout: outputs scale by `1/(1-p)` at
    /// train time, inference needs no correction.
    pub dropout: Option<f32>,
    /// Seed for parameter init and dropout masks.
    pub seed: u64,
    /// The §VII-C recycling pools every hot-path buffer is leased from:
    /// images, half-spectra, FFT scratch, dropout masks, direct-conv
    /// outputs. The default is the process-wide [`PoolSet::global`], so
    /// all engines in a process share one flat footprint and
    /// steady-state rounds allocate nothing; `None` falls back to plain
    /// `Vec` allocation (the pre-pool behaviour, kept for ablation and
    /// the CLI's `--no-pool`). Pooling never changes a computed bit.
    pub pools: Option<Arc<PoolSet>>,
    /// Durable-checkpoint settings; `None` (the default) trains
    /// without touching disk.
    pub checkpoint: Option<CheckpointConfig>,
    /// Health-sentinel thresholds for divergence detection and
    /// rollback.
    pub health: HealthPolicy,
    /// Deterministic fault-injection plan (tests and the `fault_soak`
    /// bench). `None` — the default and the production setting — costs
    /// one pointer check per potential fault site.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue: QueuePolicy::Priority,
            work_stealing: false,
            fft_threads: None,
            learning_rate: 0.01,
            momentum: 0.0,
            weight_decay: 0.0,
            plan: None,
            memoize_fft: true,
            loss: Loss::Mse,
            dropout: None,
            seed: 0x5EED,
            pools: Some(PoolSet::global()),
            checkpoint: None,
            health: HealthPolicy::default(),
            faults: None,
        }
    }
}

impl TrainConfig {
    /// A deterministic, single-purpose config for tests: direct conv,
    /// no momentum/decay/dropout.
    pub fn test_default(workers: usize) -> Self {
        TrainConfig {
            workers,
            plan: Some(PlanPolicy::Force(ConvMethod::Direct)),
            memoize_fft: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TrainConfig::default();
        assert!(c.workers >= 1);
        assert!(c.plan.is_none(), "the engine builds its own Auto planner");
        assert!(c.memoize_fft);
        assert!(c.dropout.is_none());
        // FFT line parallelism shares the scheduler's budget by default
        assert!(c.fft_threads.is_none());
        // fault tolerance machinery is fully off by default
        assert!(c.checkpoint.is_none());
        assert!(c.faults.is_none());
        assert!(c.health.max_retries >= 1);
        // hot-path buffers lease from the process-wide pool by default
        assert!(c
            .pools
            .as_ref()
            .is_some_and(|p| Arc::ptr_eq(p, &PoolSet::global())));
    }

    #[test]
    fn test_default_pins_determinism_knobs() {
        let c = TrainConfig::test_default(2);
        assert_eq!(c.workers, 2);
        assert!(matches!(c.plan, Some(PlanPolicy::Force(ConvMethod::Direct))));
        assert!(!c.memoize_fft);
    }
}
