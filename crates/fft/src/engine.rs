//! The 3D FFT engine and its plan cache.

use parking_lot::Mutex;
use rustfft::{Fft, FftPlanner};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_tensor::lines::{Axis, LineSpec};
use znn_tensor::{ops, BufferSource, CImage, Complex32, Image, Spectrum, Vec3};

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Dir {
    Fwd,
    Inv,
}

#[derive(Default)]
struct ScratchBuffers {
    /// `Fft::process_with_scratch` scratch.
    plan: Vec<Complex32>,
    /// Gathered strided line (x/y axes) or packed r2c/c2r line.
    line: Vec<Complex32>,
    /// Recycling pool the buffers are leased from on growth and return
    /// to on drop ([`FftEngine::with_buffer_pools`]); `None` grows and
    /// frees plainly. Fallback scratch (more concurrent borrowers than
    /// slots) is always `None`, so transient buffers never strand pool
    /// accounting.
    home: Option<Arc<dyn BufferSource<Complex32>>>,
}

impl Drop for ScratchBuffers {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            for buf in [std::mem::take(&mut self.plan), std::mem::take(&mut self.line)] {
                if buf.capacity() > 0 {
                    home.recycle(buf);
                }
            }
        }
    }
}

/// Engine-owned scratch, one slot per potential concurrent line
/// worker: FFT in-place scratch, a line gather buffer, and the packed
/// line buffer of the r2c/c2r stages. Transforms are hot (one per
/// image per pass) — allocating these per call was measurable.
///
/// Slots replace the per-OS-thread TLS of the spawn-per-call era: with
/// a shared persistent pool, any worker (pool thread, scope owner, or
/// donated scheduler thread) may execute any engine's line chunk, so
/// scratch must belong to the *engine*, not the thread. A worker
/// `try_lock`s the first free slot for the duration of one chunk;
/// slots are never shared concurrently, two engines on one pool never
/// touch each other's buffers, and — because every buffer is fully
/// overwritten before it is read — slot assignment cannot affect a
/// single output bit.
struct ScratchPool {
    slots: Vec<Mutex<ScratchBuffers>>,
}

impl ScratchPool {
    /// One slot per worker the engine may fan out to, plus one for the
    /// calling thread.
    fn new(workers: usize) -> Self {
        ScratchPool {
            slots: (0..workers + 1)
                .map(|_| Mutex::new(ScratchBuffers::default()))
                .collect(),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut ScratchBuffers) -> R) -> R {
        for s in &self.slots {
            if let Some(mut g) = s.try_lock() {
                return f(&mut g);
            }
        }
        // more concurrent borrowers than slots (many external threads
        // sharing one engine): fall back to a fresh buffer
        f(&mut ScratchBuffers::default())
    }
}

/// Grows (never shrinks below the request) `buf` to `n` elements and
/// returns the prefix. With a `home`, growth swaps in a fresh pool
/// lease and recycles the outgrown buffer — scratch contents are never
/// carried across calls (every caller fully overwrites the prefix
/// before reading it), so the swap is invisible.
fn borrow_buf<'a>(
    buf: &'a mut Vec<Complex32>,
    n: usize,
    home: Option<&Arc<dyn BufferSource<Complex32>>>,
) -> &'a mut [Complex32] {
    if buf.len() < n {
        match home {
            Some(h) => {
                let old = std::mem::replace(buf, h.lease(n));
                if old.capacity() > 0 {
                    h.recycle(old);
                }
            }
            None => buf.resize(n, Complex32::default()),
        }
    }
    &mut buf[..n]
}

/// A raw tensor base pointer that may cross thread boundaries.
///
/// Used by every parallel line loop: the lines along a strided axis
/// interleave in memory, and the r2c stage scatters its lines into a
/// sub-box of the half-spectrum, so the buffer cannot be split into
/// contiguous `&mut` chunks per worker. Soundness rests on the line
/// decomposition instead: each line touches a set of elements
/// (`start(i) + k·stride`, or one contiguous run) that is disjoint
/// from every other line's, and each worker is handed a disjoint range
/// of line indices.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. A method (rather than field access) so
    /// closures capture the `Send` wrapper, not the bare pointer —
    /// edition-2021 closures capture individual fields otherwise.
    fn get(self) -> *mut T {
        self.0
    }

    /// The `len` elements starting `offset` elements past the base.
    ///
    /// # Safety
    ///
    /// The run must lie inside the buffer the pointer was taken from,
    /// and no other live reference may overlap it.
    unsafe fn run<'a>(self, offset: usize, len: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

/// Default minimum complex elements in a batched line transform before
/// it is split across pool workers. Below this, fork-join queueing
/// overhead outweighs the work; a 24³ stage stays serial, a 32³ stage
/// splits. Override with [`FftEngine::par_threshold`].
const PAR_MIN_ELEMS: usize = 16 * 1024;

/// Lines gathered per `process_with_scratch` call in the strided-axis
/// and r2c/c2r line loops. Matches the 8-line struct-of-arrays batch
/// the Stockham SIMD kernels consume, so a full group takes the
/// vectorized path; per-line results are bitwise identical either way,
/// making group boundaries (and worker-chunk interaction) unobservable.
const LINE_BATCH: usize = 8;

/// Plan cache: one planned 1D transform per (line length, direction).
type PlanMap = HashMap<(usize, Dir), Arc<dyn Fft<f32>>>;
/// r2c twiddle cache: one table per (packed-axis extent, direction).
type TwiddleMap = HashMap<(usize, Dir), Arc<Vec<Complex32>>>;

/// A 3D FFT for real-valued images, built from cached 1D `rustfft`
/// plans.
///
/// The engine is cheap to share (`Arc<FftEngine>`) and thread-safe: the
/// plan cache is behind a mutex that is only touched on cache misses;
/// the transforms themselves run lock-free on caller-owned buffers plus
/// per-thread scratch.
///
/// Two transform families are exposed:
///
/// * **r2c / c2r** ([`FftEngine::rfft3`], [`FftEngine::irfft3`] and the
///   staged [`FftEngine::forward_padded`] / [`FftEngine::inverse_real`])
///   — the production path. Real input makes the spectrum Hermitian, so
///   only `⌊m/2⌋+1` bins along the packed axis are stored
///   ([`Spectrum`]); the packed stage turns each even-length real line
///   into a half-length complex line (even/odd trick), so that stage
///   also costs half the FLOPs. The packed axis is the last non-unit
///   axis — `z` for volumes, `y` for flat (`m_z == 1`) images — whose
///   lines are always contiguous.
/// * **c2c** ([`FftEngine::fft3`], [`FftEngine::ifft3`]) — full complex
///   transforms, kept for parity tests and as the r2c baseline.
///
/// # Threading model
///
/// Transforms are decomposed per axis into batches of independent 1D
/// lines, and every batched line loop — the in-place contiguous `z`
/// pass, the `x`/`y` gather–transform–scatter passes, and the r2c pack /
/// c2r unpack passes — splits the lines it runs into contiguous index ranges
/// across up to [`FftEngine::threads`] chunks, queued on a
/// **persistent pool** (`rayon::scope`): the engine's own pool when
/// built with [`FftEngine::with_pool`], else the process-global one.
/// No OS thread is spawned per transform; chunks run on pool workers,
/// on the calling thread (which executes pending chunks while it
/// waits), and on any threads *donated* to the pool by an outer task
/// scheduler.
///
/// Within each worker's range, lines are gathered in groups of 8 and
/// handed to the planned kernel in one call, which lets the Stockham
/// engine run its batched AVX2 lines (struct-of-arrays across the
/// group — see `znn-simd` and `docs/ARCHITECTURE.md` §7); batched and
/// per-line results are bitwise identical, so the grouping is purely a
/// speed lever.
///
/// The split is at line granularity, chunk boundaries are a pure
/// function of the worker count, scratch is slotted per concurrent
/// worker (`ScratchPool`) and fully overwritten before use, and each
/// line's arithmetic is identical regardless of which thread runs it —
/// so transforms are **bit-for-bit deterministic** and equal to the
/// single-threaded result for every worker count and pool. Batches
/// smaller than a threshold (~16k complex elements, see
/// [`FftEngine::par_threshold`]) stay serial —
/// `FftEngine::with_threads(1)` forces everything serial.
///
/// [`FftEngine::new`] sizes the fan-out to `available_parallelism`;
/// pass an explicit count with [`FftEngine::with_threads`], or a count
/// plus a shared pool with [`FftEngine::with_pool`] when composing
/// with an outer task-parallel scheduler so both draw on one thread
/// budget.
///
/// # Memory model
///
/// With [`FftEngine::with_buffer_pools`] every buffer the engine
/// allocates — half-spectra, real outputs, per-slot scratch — is
/// leased from a `znn_alloc::PoolSet` and recycled when the produced
/// tensor drops; a consumed spectrum's buffer goes back to whichever
/// pool (if any) it was leased from. No padded copy of a transform
/// input is ever made. A steady-state transform loop then
/// performs zero allocation; see the crate-level docs of `znn-alloc`
/// and the §VII-C discussion in `docs/ARCHITECTURE.md`.
///
/// # Example
///
/// ```
/// use znn_fft::FftEngine;
/// use znn_tensor::{ops, Vec3};
///
/// let engine = FftEngine::with_threads(1);
/// // 48 = 2^4·3 is 5-smooth: every line transform takes the
/// // iterative Stockham path
/// let img = ops::random(Vec3::cube(48), 7);
/// let spec = engine.rfft3(&img);
/// // the half-spectrum stores 25 of 48 packed-axis bins per line
/// assert_eq!(spec.half().shape(), Vec3::new(48, 48, 25));
/// // the inverse consumes its spectrum and round-trips
/// let back = engine.irfft3(spec);
/// assert!(back.max_abs_diff(&img) < 1e-5);
/// ```
pub struct FftEngine {
    planner: Mutex<FftPlanner<f32>>,
    plans: Mutex<PlanMap>,
    /// Memoized unpack/repack twiddles `e^{∓2πik/n}`, `k ∈ 0..⌊n/2⌋+1`,
    /// for the r2c/c2r packed stages, keyed by `(n, direction)`.
    rtwiddles: Mutex<TwiddleMap>,
    /// Worker cap for batched line transforms (≥ 1). Atomic so a
    /// planner can re-tune the fan-out of a live engine
    /// ([`FftEngine::set_threads`]); every value computes bit-identical
    /// transforms, so a concurrent change is always safe.
    threads: AtomicUsize,
    /// The pool line chunks are queued on; `None` targets the
    /// process-global pool.
    pool: Option<Arc<rayon::ThreadPool>>,
    /// When true, scopes spawn one OS thread per chunk instead of
    /// using the pool — the `--spawn-compare` benchmark baseline.
    spawn_per_call: bool,
    /// When true, every 1D line plan comes from
    /// `FftPlanner::plan_fft_recursive` instead of the iterative
    /// Stockham kernels — the `fft_traffic` benchmark baseline that
    /// keeps the recursive-vs-iterative gap measurable at the 3D
    /// transform level.
    recursive_kernels: bool,
    /// When true, every 1D line plan comes from
    /// `FftPlanner::plan_fft_scalar` — the Stockham kernels with the
    /// batched SIMD lines pinned off. Differential-test and
    /// `fft_traffic` baseline for the SIMD path; output is bitwise
    /// identical to the default engine.
    scalar_kernels: bool,
    /// Minimum complex elements in a batch before it is split.
    par_min_elems: usize,
    /// Slotted per-worker scratch (see [`ScratchPool`]).
    scratch: ScratchPool,
    /// Recycling pools every transform buffer is leased from when set
    /// ([`FftEngine::with_buffer_pools`]): half-spectra, real outputs,
    /// per-slot scratch. `None` allocates plainly.
    pools: Option<Arc<PoolSet>>,
}

impl FftEngine {
    /// A new engine with an empty plan cache, parallelizing line
    /// transforms over up to `available_parallelism` workers.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A new engine that splits batched line transforms over at most
    /// `threads` workers of the process-global pool.
    /// `with_threads(1)` disables intra-transform parallelism
    /// entirely.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        FftEngine {
            planner: Mutex::new(FftPlanner::new()),
            plans: Mutex::new(HashMap::new()),
            rtwiddles: Mutex::new(HashMap::new()),
            threads: AtomicUsize::new(threads),
            pool: None,
            spawn_per_call: false,
            recursive_kernels: false,
            scalar_kernels: false,
            par_min_elems: PAR_MIN_ELEMS,
            scratch: ScratchPool::new(threads),
            pools: None,
        }
    }

    /// A new engine whose line chunks are queued on `pool` — share one
    /// pool (and so one thread budget) between several engines and an
    /// outer task scheduler whose workers donate to it. Results are
    /// bit-for-bit identical to every other configuration with any
    /// `threads` ≥ 2 fan-out, and to `with_threads(1)` serially.
    pub fn with_pool(threads: usize, pool: Arc<rayon::ThreadPool>) -> Self {
        let mut engine = Self::with_threads(threads);
        engine.pool = Some(pool);
        engine
    }

    /// A new engine that spawns one short-lived OS thread per line
    /// chunk, bypassing the persistent pool. **Benchmark baseline
    /// only** (`fft_traffic --spawn-compare`): it reproduces the
    /// pre-pool shim behaviour so the spawn overhead stays measurable.
    pub fn with_spawn_per_call(threads: usize) -> Self {
        let mut engine = Self::with_threads(threads);
        engine.spawn_per_call = true;
        engine
    }

    /// A new single-threaded engine whose 1D line plans all come from
    /// the *recursive mixed-radix* fallback, bypassing the iterative
    /// Stockham kernels. **Benchmark baseline only** (`fft_traffic`):
    /// it reproduces the pre-mixed-radix behaviour for 5-smooth
    /// non-power-of-two lengths (48, 60, 120…) so the kernel win stays
    /// measurable at the 3D r2c transform level, not just per 1D line.
    pub fn with_recursive_kernels() -> Self {
        let mut engine = Self::with_threads(1);
        engine.recursive_kernels = true;
        engine
    }

    /// A new single-threaded engine whose 1D line plans pin the
    /// Stockham kernels to their scalar per-line path, bypassing the
    /// batched SIMD lines. **Differential-test and benchmark baseline
    /// only** (`fft_traffic` records the SIMD-vs-scalar delta with
    /// it): results are bitwise identical to the default engine — the
    /// vector butterflies perform the same IEEE ops in the same order
    /// — so this switch can only ever change speed.
    pub fn with_scalar_kernels() -> Self {
        let mut engine = Self::with_threads(1);
        engine.scalar_kernels = true;
        engine
    }

    /// Overrides the minimum batch size (complex elements) before a
    /// line loop is split across workers. The default (~16k) keeps
    /// small transforms serial; benchmarks lower it to expose pure
    /// fork-join overhead.
    pub fn par_threshold(mut self, elems: usize) -> Self {
        self.par_min_elems = elems.max(1);
        self
    }

    /// Routes every buffer this engine allocates — half-spectra, real
    /// outputs, per-slot scratch — through
    /// `pools` (the paper's §VII-C recycling allocator). Leased buffers
    /// return to the pool when the produced tensors drop, so a
    /// steady-state transform loop performs **zero** allocation after
    /// its first pass, and transforms stay **bit-for-bit identical** to
    /// the unpooled engine (pool leases are zero-filled exactly like
    /// fresh buffers, and slot/chunk assignment never affects values).
    ///
    /// A spectrum consumed by [`FftEngine::irfft3`] or
    /// [`FftEngine::inverse_real`] keeps its own custody: its buffer
    /// returns to the pool that leased it, or is freed if it was never
    /// leased, so a foreign spectrum never enters this pool's
    /// accounting.
    ///
    /// ```
    /// use znn_alloc::PoolSet;
    /// use znn_fft::FftEngine;
    /// use znn_tensor::{ops, Vec3};
    ///
    /// let pools = PoolSet::new();
    /// let engine = FftEngine::with_threads(1).with_buffer_pools(pools.clone());
    /// let img = ops::random(Vec3::cube(8), 1);
    /// let warm = engine.irfft3(engine.rfft3(&img)); // first pass allocates
    /// drop(warm);
    /// let misses = pools.stats().misses();
    /// let again = engine.irfft3(engine.rfft3(&img)); // ...then only recycles
    /// assert_eq!(pools.stats().misses(), misses);
    /// assert!(again.max_abs_diff(&img) < 1e-5);
    /// ```
    pub fn with_buffer_pools(mut self, pools: Arc<PoolSet>) -> Self {
        for slot in &self.scratch.slots {
            slot.lock().home = Some(Arc::clone(pools.complex_home()));
        }
        self.pools = Some(pools);
        self
    }

    /// The recycling pools this engine leases buffers from, if any.
    pub fn buffer_pools(&self) -> Option<&Arc<PoolSet>> {
        self.pools.as_ref()
    }

    /// A zero-filled complex tensor, leased when pools are attached.
    fn lease_cimage(&self, shape: Vec3) -> CImage {
        znn_alloc::lease_cimage(self.pools.as_ref(), shape)
    }

    /// A zero-filled real tensor, leased when pools are attached.
    fn lease_image(&self, shape: Vec3) -> Image {
        znn_alloc::lease_image(self.pools.as_ref(), shape)
    }

    /// The worker cap for batched line transforms.
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Re-tunes the worker cap of a live engine (clamped to ≥ 1).
    ///
    /// Safe at any time, including while transforms are in flight:
    /// the fan-out only partitions line batches, and every partition
    /// computes bit-identical results (each line is transformed by
    /// the same serial kernel regardless of which chunk owns it).
    /// Scratch is slotted per concurrent borrower with a graceful
    /// fallback, so raising the cap above the construction-time value
    /// costs at most a fresh scratch allocation per extra chunk.
    ///
    /// This is the knob the `znn-plan` calibrator turns when measured
    /// round times drift from the model's predictions.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// Workers to split a batch of `lines` lines of `line_len` complex
    /// elements across: 1 for small batches (fork overhead dominates),
    /// never more than the line count.
    fn workers_for(&self, lines: usize, line_len: usize) -> usize {
        let threads = self.threads.load(Ordering::Relaxed);
        if threads <= 1 || lines * line_len < self.par_min_elems {
            1
        } else {
            threads.min(lines)
        }
    }

    /// Runs `f` inside the fork-join scope this engine is configured
    /// for: its shared pool, the process-global pool, or (benchmark
    /// baseline only) a spawn-per-call scope.
    fn in_scope<'scope, R>(&self, f: impl FnOnce(&rayon::Scope<'scope>) -> R) -> R {
        if self.spawn_per_call {
            rayon::scope_spawn_per_call(f)
        } else {
            match &self.pool {
                Some(p) => p.scope(f),
                None => rayon::scope(f),
            }
        }
    }

    fn plan(&self, len: usize, dir: Dir) -> Arc<dyn Fft<f32>> {
        // single lock pass: concurrent misses for the same key build the
        // plan once — the loser of the entry race never plans at all
        let mut plans = self.plans.lock();
        match plans.entry((len, dir)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let mut planner = self.planner.lock();
                let fdir = match dir {
                    Dir::Fwd => rustfft::FftDirection::Forward,
                    Dir::Inv => rustfft::FftDirection::Inverse,
                };
                let plan = if self.recursive_kernels {
                    planner.plan_fft_recursive(len, fdir)
                } else if self.scalar_kernels {
                    planner.plan_fft_scalar(len, fdir)
                } else {
                    planner.plan_fft(len, fdir)
                };
                Arc::clone(e.insert(plan))
            }
        }
    }

    /// Half-spectrum twiddles `e^{sign·2πik/n}` for `k ∈ 0..⌊n/2⌋+1`.
    fn rtwiddle(&self, n: usize, dir: Dir) -> Arc<Vec<Complex32>> {
        let mut cache = self.rtwiddles.lock();
        match cache.entry((n, dir)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let sign = match dir {
                    Dir::Fwd => -1.0f64,
                    Dir::Inv => 1.0f64,
                };
                let tw: Vec<Complex32> = (0..n / 2 + 1)
                    .map(|k| {
                        let ang = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                        Complex32::new(ang.cos() as f32, ang.sin() as f32)
                    })
                    .collect();
                Arc::clone(e.insert(Arc::new(tw)))
            }
        }
    }

    /// Number of distinct 1D plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().len()
    }

    /// Transforms the lines `lines` (numbered as in [`LineSpec`]) of `t`
    /// along `axis` in place; every other line is left untouched. A
    /// length-1 axis is the identity and costs nothing.
    fn transform_lines(&self, t: &mut CImage, axis: Axis, dir: Dir, lines: Range<usize>) {
        let spec = LineSpec::new(t.shape(), axis);
        if spec.len == 1 {
            return; // a length-1 DFT is the identity
        }
        debug_assert!(lines.end <= spec.count);
        let plan = self.plan(spec.len, dir);
        let base = SendPtr(t.as_mut_slice().as_mut_ptr());
        self.par_lines(lines, spec.len, &|lo, hi| {
            self.scratch.with(|s| {
                let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                if axis == Axis::Z {
                    // contiguous lines: the whole range transforms in
                    // place in one call.
                    // SAFETY: lines [lo, hi) are the elements
                    // [lo·len, hi·len) of `t`, and this worker's range
                    // is disjoint from every other worker's.
                    let run = unsafe { base.run(lo * spec.len, (hi - lo) * spec.len) };
                    plan.process_with_scratch(run, scratch);
                    return;
                }
                // strided lines interleave: gather them in groups of
                // LINE_BATCH so a full group runs the Stockham kernels'
                // batched SIMD path in one call, then scatter them back
                let ptr = base.get();
                let buf = borrow_buf(&mut s.line, LINE_BATCH * spec.len, s.home.as_ref());
                let mut i = lo;
                while i < hi {
                    let g = LINE_BATCH.min(hi - i);
                    let group = &mut buf[..g * spec.len];
                    // SAFETY: line i touches exactly the elements
                    // start(i) + k·stride, k < len — pairwise disjoint
                    // across lines, all in bounds by LineSpec's
                    // construction — and this worker's line range
                    // [lo, hi) is disjoint from every other worker's.
                    for (j, line) in group.chunks_exact_mut(spec.len).enumerate() {
                        let mut p = spec.start(i + j);
                        for b in line.iter_mut() {
                            unsafe { *b = *ptr.add(p) };
                            p += spec.stride;
                        }
                    }
                    plan.process_with_scratch(group, scratch);
                    for (j, line) in group.chunks_exact(spec.len).enumerate() {
                        let mut p = spec.start(i + j);
                        for b in line.iter() {
                            unsafe { *ptr.add(p) = *b };
                            p += spec.stride;
                        }
                    }
                    i += g;
                }
            });
        });
    }

    /// Transforms every line of `t` along `axis` in place.
    fn transform_axis(&self, t: &mut CImage, axis: Axis, dir: Dir) {
        let count = t.len() / t.shape()[axis as usize];
        self.transform_lines(t, axis, dir, 0..count);
    }

    /// In-place forward 3D FFT (unnormalized, like fftw/MKL).
    pub fn fft3(&self, t: &mut CImage) {
        for axis in Axis::ALL {
            self.transform_axis(t, axis, Dir::Fwd);
        }
    }

    /// In-place inverse 3D FFT, normalized so `ifft3(fft3(x)) == x`.
    pub fn ifft3(&self, t: &mut CImage) {
        for axis in Axis::ALL {
            self.transform_axis(t, axis, Dir::Inv);
        }
        ops::scale_c(t, 1.0 / t.len() as f32);
    }

    /// Forward real-to-complex 3D FFT of `img` (unnormalized): the
    /// half-spectrum holding bins `0..=⌊m/2⌋` of the full DFT along the
    /// packed axis ([`Spectrum::packed_axis`] — `z` for volumes, `y` for
    /// flat `m_z == 1` images).
    ///
    /// The packed stage exploits Hermitian symmetry: an even-length real
    /// line of `n` samples is packed as `n/2` complex samples
    /// (`z[t] = x[2t] + i·x[2t+1]`), transformed at half length, and
    /// unpacked into `n/2+1` bins — half the FLOPs and half the spectrum
    /// memory of the c2c path. Odd extents fall back to a full-length
    /// transform per line, truncated to the stored bins (`good_shape`
    /// keeps the packed axis even, so this path is cold). The remaining
    /// axes are c2c transforms over the (already halved) packed tensor.
    ///
    /// This is the full-box case of [`FftEngine::forward_padded`]: both
    /// run the same routine. Lines are split across the engine's
    /// workers; see the [threading model](FftEngine#threading-model).
    pub fn rfft3(&self, img: &Image) -> Spectrum {
        self.r2c(img, img.shape())
    }

    /// Inverse of [`FftEngine::rfft3`], normalized so
    /// `irfft3(rfft3(x)) == x`. Consumes the spectrum: the two c2c
    /// stages run in place on its buffer, and the c2r stage writes the
    /// real lines into a freshly leased output image; the spectrum's
    /// buffer is recycled when the call returns.
    ///
    /// This is the full-box case of [`FftEngine::inverse_real`]: both
    /// run the same routine.
    pub fn irfft3(&self, spec: Spectrum) -> Image {
        let m = spec.full_shape();
        self.c2r(spec, Vec3::zero(), m)
    }

    /// The forward transform of the staged convolution API: zero-pads a
    /// real image to `shape` (placing it at the origin) and takes its
    /// r2c transform.
    ///
    /// No padded copy is made, and only the lines that can be nonzero
    /// are transformed (see [`FftEngine::forward_stage_lines`]): the
    /// packed stage runs the image's own lines, zero-extended on the
    /// fly; the middle stage runs only the lines inside the image's
    /// extent along the last axis; the last stage runs in full. The
    /// skipped lines keep the zeros of the leased spectrum. Every bin
    /// equals (`==`) the bin of `rfft3` on the explicitly padded image;
    /// only the sign of an exact zero may differ.
    ///
    /// This is the per-node transform that convergent edges share (§IV);
    /// each memoized result is a [`Spectrum`] occupying roughly half the
    /// memory of the full complex transform.
    pub fn forward_padded(&self, img: &Image, shape: Vec3) -> Spectrum {
        assert!(
            img.shape().le(shape),
            "image {} does not fit transform shape {shape}",
            img.shape()
        );
        self.r2c(img, shape)
    }

    /// c2c variant of [`FftEngine::forward_padded`], kept as the parity
    /// baseline (tests and benches).
    pub fn forward_padded_c2c(&self, img: &Image, shape: Vec3) -> CImage {
        assert!(
            img.shape().le(shape),
            "image {} does not fit transform shape {shape}",
            img.shape()
        );
        let mut c = if img.shape() == shape {
            ops::to_complex(img)
        } else {
            ops::to_complex(&znn_tensor::pad::pad(img, shape, Vec3::zero()))
        };
        self.fft3(&mut c);
        c
    }

    /// The inverse stage: transforms a frequency-domain accumulator back
    /// and extracts the real box of `shape` at `at` — the crop that turns
    /// circular convolution into valid/full linear convolution.
    ///
    /// Only the lines that reach the box are transformed (see
    /// [`FftEngine::inverse_stage_lines`]): the first stage runs in
    /// full, the second only on the box's slab of the last axis, and
    /// the c2r stage only on the box's own lines, each writing its
    /// slice of the packed axis straight into the leased output. The
    /// result is bit-identical to cropping [`FftEngine::irfft3`].
    pub fn inverse_real(&self, spec: Spectrum, at: Vec3, shape: Vec3) -> Image {
        assert!(
            (at + shape).le(spec.full_shape()),
            "box {shape} at {at} does not fit transform shape {}",
            spec.full_shape()
        );
        self.c2r(spec, at, shape)
    }

    /// c2c variant of [`FftEngine::inverse_real`], kept as the parity
    /// baseline.
    pub fn inverse_real_c2c(&self, mut spec: CImage, at: Vec3, shape: Vec3) -> Image {
        self.ifft3(&mut spec);
        let real = ops::to_real(&spec);
        if at == Vec3::zero() && shape == real.shape() {
            real
        } else {
            znn_tensor::pad::crop(&real, at, shape)
        }
    }

    /// Lines transformed by each stage of [`FftEngine::forward_padded`]
    /// of an `n`-sized image into transform shape `m`, in stage order
    /// `[packed, middle, last]`; a unit-length stage transforms none.
    /// `forward_stage_lines(m, m)` is the full-box count of
    /// [`FftEngine::rfft3`].
    pub fn forward_stage_lines(n: Vec3, m: Vec3) -> [usize; 3] {
        let st = Stages::new(m);
        let slab = st.slab(0..n[st.last as usize]);
        [
            if m[st.pa] == 1 { 0 } else { n.len() / n[st.pa] },
            st.count(st.mid, slab.len()),
            st.count(st.last, st.all(st.last).len()),
        ]
    }

    /// Lines transformed by each stage of [`FftEngine::inverse_real`]
    /// of a transform of shape `m` cropped to a `shape`-sized box, in
    /// stage order `[first, second, c2r]`; a unit-length stage
    /// transforms none. `inverse_stage_lines(m, m)` is the full-box
    /// count of [`FftEngine::irfft3`].
    pub fn inverse_stage_lines(m: Vec3, shape: Vec3) -> [usize; 3] {
        let st = Stages::new(m);
        let slab = st.slab(0..shape[st.last as usize]);
        [
            st.count(st.last, st.all(st.last).len()),
            st.count(st.mid, slab.len()),
            if m[st.pa] == 1 { 0 } else { shape.len() / shape[st.pa] },
        ]
    }

    /// The one r2c routine: the half-spectrum of `img` zero-extended to
    /// `m`, transforming only the lines that can be nonzero.
    fn r2c(&self, img: &Image, m: Vec3) -> Spectrum {
        let n = img.shape();
        let st = Stages::new(m);
        let len = m[st.pa];
        let h = len / 2 + 1;
        let src_len = n[st.pa];
        let src = img.as_slice();
        let mut half = self.lease_cimage(Spectrum::half_shape(m));
        // source line i (the image's lines along the packed axis, last
        // axis outermost) is half-spectrum line (i / n_mid)·m_mid +
        // i % n_mid; every other half line stays at the lease's zeros
        let (n_mid, m_mid) = (n[st.mid as usize], m[st.mid as usize]);
        let line_of = |i: usize| &src[i * src_len..(i + 1) * src_len];
        let dst = SendPtr(half.as_mut_slice().as_mut_ptr());
        // SAFETY: distinct source lines map to distinct, in-bounds half
        // lines, and each worker owns a disjoint range of source lines.
        let bins_of = |i: usize| unsafe { dst.run(((i / n_mid) * m_mid + i % n_mid) * h, h) };
        let count = src.len() / src_len;
        if len == 1 {
            // the all-unit shape: a 1-point DFT is the identity
            for i in 0..count {
                bins_of(i)[0] = Complex32::new(line_of(i)[0], 0.0);
            }
        } else if len.is_multiple_of(2) {
            let hn = len / 2;
            let plan = (hn > 1).then(|| self.plan(hn, Dir::Fwd));
            let tw = self.rtwiddle(len, Dir::Fwd);
            self.par_lines(0..count, len, &|lo, hi| {
                // pack LINE_BATCH lines per transform call so a full
                // group runs the Stockham batched SIMD path
                self.scratch.with(|s| {
                    let scratch = borrow_buf(
                        &mut s.plan,
                        plan.as_ref().map_or(0, |p| p.get_inplace_scratch_len()),
                        s.home.as_ref(),
                    );
                    let buf = borrow_buf(&mut s.line, LINE_BATCH * hn, s.home.as_ref());
                    let mut i = lo;
                    while i < hi {
                        let g = LINE_BATCH.min(hi - i);
                        let group = &mut buf[..g * hn];
                        for (j, line) in group.chunks_exact_mut(hn).enumerate() {
                            // the samples past the image are the padding
                            line.fill(Complex32::default());
                            for (b, pair) in line.iter_mut().zip(line_of(i + j).chunks(2)) {
                                *b = Complex32::new(pair[0], pair.get(1).copied().unwrap_or(0.0));
                            }
                        }
                        if let Some(p) = &plan {
                            p.process_with_scratch(group, scratch);
                        }
                        for (j, line) in group.chunks_exact(hn).enumerate() {
                            for (k, d) in bins_of(i + j).iter_mut().enumerate() {
                                let zk = line[k % hn];
                                let zc = line[(hn - k) % hn].conj();
                                let ze = (zk + zc) * 0.5;
                                let zo = (zk - zc) * Complex32::new(0.0, -0.5);
                                *d = ze + tw[k] * zo;
                            }
                        }
                        i += g;
                    }
                });
            });
        } else {
            let plan = self.plan(len, Dir::Fwd);
            self.par_lines(0..count, len, &|lo, hi| {
                self.scratch.with(|s| {
                    let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                    let buf = borrow_buf(&mut s.line, len, s.home.as_ref());
                    for i in lo..hi {
                        buf.fill(Complex32::default());
                        for (b, v) in buf.iter_mut().zip(line_of(i)) {
                            *b = Complex32::new(*v, 0.0);
                        }
                        plan.process_with_scratch(buf, scratch);
                        bins_of(i).copy_from_slice(&buf[..h]);
                    }
                });
            });
        }
        // the c2c stages, in the reverse of the inverse's order: the
        // middle stage only where the last axis lies inside the image
        self.transform_lines(&mut half, st.mid, Dir::Fwd, st.slab(0..n[st.last as usize]));
        self.transform_lines(&mut half, st.last, Dir::Fwd, st.all(st.last));
        Spectrum::new(half, m)
    }

    /// The one c2r routine: the real box of `shape` at `at` of the
    /// inverse of `spec`, transforming only the lines that reach it.
    fn c2r(&self, spec: Spectrum, at: Vec3, shape: Vec3) -> Image {
        let m = spec.full_shape();
        let st = Stages::new(m);
        let mut half = spec.into_half();
        self.transform_lines(&mut half, st.last, Dir::Inv, st.all(st.last));
        let (a_last, s_last) = (at[st.last as usize], shape[st.last as usize]);
        self.transform_lines(&mut half, st.mid, Dir::Inv, st.slab(a_last..a_last + s_last));
        let len = m[st.pa];
        let h = len / 2 + 1;
        // the c2c inverse stages are unnormalized, each contributing
        // its extent; the packed stage contributes len/2 (even), len
        // (odd) or 1 (unit)
        let zfac = if len == 1 {
            1
        } else if len.is_multiple_of(2) {
            len / 2
        } else {
            len
        };
        let scale = 1.0 / ((m.len() / len) * zfac) as f32;
        // output line j (last axis outermost) reads half line
        // (at_last + j / s_mid)·m_mid + at_mid + j % s_mid and keeps
        // the packed-axis samples [at_pa, at_pa + s_pa)
        let (a_mid, s_mid, m_mid) = (at[st.mid as usize], shape[st.mid as usize], m[st.mid as usize]);
        let (a, out_len) = (at[st.pa], shape[st.pa]);
        let bins = half.as_slice();
        let bins_of = |j: usize| {
            let l = (a_last + j / s_mid) * m_mid + a_mid + j % s_mid;
            &bins[l * h..(l + 1) * h]
        };
        let mut out = self.lease_image(shape);
        let count = shape.len() / out_len;
        let dst = SendPtr(out.as_mut_slice().as_mut_ptr());
        // SAFETY: output line j is the run [j·out_len, (j+1)·out_len)
        // of `out`, and each worker owns a disjoint range of lines.
        let out_of = |j: usize| unsafe { dst.run(j * out_len, out_len) };
        if len == 1 {
            for j in 0..count {
                out_of(j)[0] = bins_of(j)[0].re * scale;
            }
        } else if len.is_multiple_of(2) {
            let hn = len / 2;
            let plan = (hn > 1).then(|| self.plan(hn, Dir::Inv));
            let tw = self.rtwiddle(len, Dir::Inv);
            self.par_lines(0..count, len, &|lo, hi| {
                // repack LINE_BATCH lines per transform call so a full
                // group runs the Stockham batched SIMD path
                self.scratch.with(|s| {
                    let scratch = borrow_buf(
                        &mut s.plan,
                        plan.as_ref().map_or(0, |p| p.get_inplace_scratch_len()),
                        s.home.as_ref(),
                    );
                    let buf = borrow_buf(&mut s.line, LINE_BATCH * hn, s.home.as_ref());
                    let mut j = lo;
                    while j < hi {
                        let g = LINE_BATCH.min(hi - j);
                        let group = &mut buf[..g * hn];
                        for (r, line) in group.chunks_exact_mut(hn).enumerate() {
                            let x = bins_of(j + r);
                            for (k, b) in line.iter_mut().enumerate() {
                                let xk = x[k];
                                let xc = x[hn - k].conj();
                                let ze = (xk + xc) * 0.5;
                                let zo = (xk - xc) * 0.5 * tw[k];
                                // z[k] = ze + i·zo repacks even/odd interleaving
                                *b = Complex32::new(ze.re - zo.im, ze.im + zo.re);
                            }
                        }
                        if let Some(p) = &plan {
                            p.process_with_scratch(group, scratch);
                        }
                        for (r, line) in group.chunks_exact(hn).enumerate() {
                            // real sample t is line[t/2].re (even t) or .im (odd t)
                            for (t, d) in (a..).zip(out_of(j + r).iter_mut()) {
                                let z = line[t / 2];
                                *d = if t % 2 == 0 { z.re } else { z.im } * scale;
                            }
                        }
                        j += g;
                    }
                });
            });
        } else {
            let plan = self.plan(len, Dir::Inv);
            self.par_lines(0..count, len, &|lo, hi| {
                self.scratch.with(|s| {
                    let scratch = borrow_buf(&mut s.plan, plan.get_inplace_scratch_len(), s.home.as_ref());
                    let buf = borrow_buf(&mut s.line, len, s.home.as_ref());
                    for j in lo..hi {
                        let x = bins_of(j);
                        buf[..h].copy_from_slice(x);
                        // Hermitian reconstruction of the dropped bins
                        for k in 1..h {
                            buf[len - k] = x[k].conj();
                        }
                        plan.process_with_scratch(buf, scratch);
                        for (d, b) in out_of(j).iter_mut().zip(&buf[a..]) {
                            *d = b.re * scale;
                        }
                    }
                });
            });
        }
        out
    }

    /// Runs `work(lo, hi)` over the line range `lines` of `line_len`
    /// elements each: serially for one worker, else split into
    /// per-worker contiguous sub-ranges on the engine's pool. The
    /// sub-range boundaries depend only on the worker count and the
    /// range, and each line's arithmetic is independent of its
    /// sub-range, so the result is identical for every worker count.
    fn par_lines(&self, lines: Range<usize>, line_len: usize, work: &(impl Fn(usize, usize) + Sync)) {
        let workers = self.workers_for(lines.len(), line_len);
        if workers <= 1 {
            work(lines.start, lines.end);
            return;
        }
        let per = lines.len().div_ceil(workers);
        self.in_scope(|sc| {
            for lo in lines.clone().step_by(per) {
                let hi = (lo + per).min(lines.end);
                sc.spawn(move |_| work(lo, hi));
            }
        });
    }
}

/// The stage layout of a real transform of full shape `m`.
///
/// The r2c forward runs the packed stage along `pa`, then c2c stages
/// along `mid` and `last`; the c2r inverse runs them in the reverse
/// order. `last` is the lower-numbered of the two non-packed axes, so
/// it is the outermost index of the `mid` lines: a slab of `last`
/// coordinates is a contiguous range of `mid` line indices. (A unit
/// `mid` stage is skipped, so this only matters for volumes, where
/// `mid = y` and `last = x`.)
struct Stages {
    pa: usize,
    mid: Axis,
    last: Axis,
    /// Shape of the half-spectrum the c2c stages run on.
    half: Vec3,
}

impl Stages {
    fn new(m: Vec3) -> Self {
        let pa = Spectrum::packed_axis(m);
        let (last, mid) = match pa {
            0 => (Axis::Y, Axis::Z),
            1 => (Axis::X, Axis::Z),
            _ => (Axis::X, Axis::Y),
        };
        Stages {
            pa,
            mid,
            last,
            half: Spectrum::half_shape(m),
        }
    }

    /// Every line along `axis`.
    fn all(&self, axis: Axis) -> Range<usize> {
        0..self.half.len() / self.half[axis as usize]
    }

    /// The `mid` lines whose `last` coordinate lies in `coords`.
    fn slab(&self, coords: Range<usize>) -> Range<usize> {
        let per = self.half.len() / (self.half[self.mid as usize] * self.half[self.last as usize]);
        coords.start * per..coords.end * per
    }

    /// `lines` lines along `axis`, or none when the axis is unit (its
    /// stage is the identity and is skipped).
    fn count(&self, axis: Axis, lines: usize) -> usize {
        if self.half[axis as usize] == 1 {
            0
        } else {
            lines
        }
    }
}

impl Default for FftEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference DFT along one axis for validation.
    fn dft_axis_naive(t: &CImage, axis: Axis, inverse: bool) -> CImage {
        let shape = t.shape();
        let n = shape[axis as usize];
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = t.clone();
        let spec = LineSpec::new(shape, axis);
        let mut line = vec![Complex32::default(); n];
        for i in 0..spec.count {
            spec.read_line(t, i, &mut line);
            let mut res = vec![Complex32::default(); n];
            for (k, r) in res.iter_mut().enumerate() {
                for (j, &v) in line.iter().enumerate() {
                    let ang = sign * 2.0 * std::f32::consts::PI * (k * j) as f32 / n as f32;
                    *r += v * Complex32::new(ang.cos(), ang.sin());
                }
            }
            spec.write_line(&mut out, i, &res);
        }
        out
    }

    fn dft3_naive(t: &CImage) -> CImage {
        let mut out = t.clone();
        for axis in Axis::ALL {
            out = dft_axis_naive(&out, axis, false);
        }
        out
    }

    fn max_cdiff(a: &CImage, b: &CImage) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f32::max)
    }

    /// The half-spectrum a c2c transform implies: packed-axis bins
    /// `0..=⌊m/2⌋`.
    fn truncate_to_half(full: &CImage) -> CImage {
        let m = full.shape();
        let hs = Spectrum::half_shape(m);
        znn_tensor::Tensor3::from_fn(hs, |f| full.at(f))
    }

    #[test]
    fn fft3_matches_naive_dft_on_odd_shapes() {
        for shape in [Vec3::new(4, 3, 5), Vec3::new(1, 8, 2), Vec3::cube(6)] {
            let img = ops::random(shape, 11);
            let mut c = ops::to_complex(&img);
            let engine = FftEngine::new();
            engine.fft3(&mut c);
            let reference = dft3_naive(&ops::to_complex(&img));
            assert!(
                max_cdiff(&c, &reference) < 1e-3,
                "mismatch on {shape}: {}",
                max_cdiff(&c, &reference)
            );
        }
    }

    #[test]
    fn inverse_round_trips() {
        let engine = FftEngine::new();
        for shape in [Vec3::new(8, 4, 6), Vec3::new(1, 16, 16), Vec3::cube(5)] {
            let img = ops::random(shape, 3);
            let mut c = ops::to_complex(&img);
            engine.fft3(&mut c);
            engine.ifft3(&mut c);
            let back = ops::to_real(&c);
            assert!(back.max_abs_diff(&img) < 1e-5, "round trip failed {shape}");
        }
    }

    #[test]
    fn dc_bin_is_total_mass() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::cube(4), 9);
        let mut c = ops::to_complex(&img);
        engine.fft3(&mut c);
        let dc = c.at((0, 0, 0));
        assert!((dc.re - img.sum()).abs() < 1e-4);
        assert!(dc.im.abs() < 1e-4);
    }

    #[test]
    fn plans_are_cached_per_length_and_direction() {
        let engine = FftEngine::new();
        let mut a = ops::to_complex(&ops::random(Vec3::cube(8), 1));
        engine.fft3(&mut a);
        // one length (8) appears for all three axes -> 1 forward plan
        assert_eq!(engine.cached_plans(), 1);
        engine.ifft3(&mut a);
        assert_eq!(engine.cached_plans(), 2);
        let mut b = ops::to_complex(&ops::random(Vec3::new(4, 8, 16), 1));
        engine.fft3(&mut b);
        assert_eq!(engine.cached_plans(), 4); // +4 fwd, 8 already cached
    }

    #[test]
    fn unit_axes_are_identity() {
        // 2D images (leading axis 1) must transform exactly like 2D FFTs
        let engine = FftEngine::new();
        let img = ops::random(Vec3::flat(4, 4), 5);
        let mut c = ops::to_complex(&img);
        engine.fft3(&mut c);
        let reference = dft3_naive(&ops::to_complex(&img));
        assert!(max_cdiff(&c, &reference) < 1e-3);
    }

    #[test]
    fn rfft3_matches_c2c_on_even_odd_and_unit_axes() {
        // parity with both the c2c engine and (through it) the naive
        // DFT, on even/odd packed extents, volumes, flat 2D (packed
        // along y) and 1D rows (packed along x)
        let engine = FftEngine::new();
        for shape in [
            Vec3::cube(8),                // even z
            Vec3::new(4, 6, 10),          // even z, mixed extents
            Vec3::new(4, 3, 5),           // odd z
            Vec3::new(3, 4, 7),           // odd prime z
            Vec3::new(5, 5, 1),           // flat, odd y (fallback)
            Vec3::new(5, 6, 1),           // flat, even y (packed)
            Vec3::new(1, 8, 6),           // unit x
            Vec3::new(1, 1, 2),           // minimal even line
            Vec3::flat(6, 9),             // flat 2D, odd y
            Vec3::new(6, 1, 1),           // 1D row, packed along x
            Vec3::one(),                  // single voxel
        ] {
            let img = ops::random(shape, 21);
            let got = engine.rfft3(&img);
            assert_eq!(got.full_shape(), shape);
            assert_eq!(got.half().shape(), Spectrum::half_shape(shape));
            let mut full = ops::to_complex(&img);
            engine.fft3(&mut full);
            let want = truncate_to_half(&full);
            assert!(
                max_cdiff(got.half(), &want) < 1e-3,
                "r2c mismatch on {shape}: {}",
                max_cdiff(got.half(), &want)
            );
        }
    }

    #[test]
    fn irfft3_round_trips_rfft3() {
        let engine = FftEngine::new();
        for shape in [
            Vec3::cube(8),
            Vec3::new(4, 6, 10),
            Vec3::new(4, 3, 5),
            Vec3::new(5, 5, 1),
            Vec3::new(5, 6, 1),
            Vec3::new(1, 16, 16),
            Vec3::new(2, 2, 2),
            Vec3::cube(5),
            Vec3::new(6, 1, 1),
            Vec3::one(),
        ] {
            let img = ops::random(shape, 31);
            let back = engine.irfft3(engine.rfft3(&img));
            assert!(
                back.max_abs_diff(&img) < 1e-5,
                "r2c round trip failed {shape}: {}",
                back.max_abs_diff(&img)
            );
        }
    }

    #[test]
    fn rfft3_dc_bin_is_total_mass() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::new(4, 6, 8), 41);
        let spec = engine.rfft3(&img);
        let dc = spec.half().at((0, 0, 0));
        assert!((dc.re - img.sum()).abs() < 1e-4);
        assert!(dc.im.abs() < 1e-4);
    }

    #[test]
    fn forward_padded_matches_c2c_truncation() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::cube(3), 2);
        for shape in [Vec3::cube(8), Vec3::new(6, 4, 10), Vec3::new(9, 5, 3)] {
            let a = engine.forward_padded(&img, shape);
            let b = engine.forward_padded_c2c(&img, shape);
            assert!(max_cdiff(a.half(), &truncate_to_half(&b)) < 1e-3, "{shape}");
        }
    }

    #[test]
    fn forward_padded_equals_manual_pad_then_rfft3() {
        let engine = FftEngine::new();
        let img = ops::random(Vec3::cube(3), 2);
        let shape = Vec3::cube(8);
        let a = engine.forward_padded(&img, shape);
        let b = engine.rfft3(&znn_tensor::pad::pad(&img, shape, Vec3::zero()));
        assert!(max_cdiff(a.half(), b.half()) == 0.0);
    }

    #[test]
    fn inverse_real_crops_like_c2c() {
        let engine = FftEngine::new();
        let m = Vec3::cube(8);
        let img = ops::random(m, 55);
        let spec = engine.rfft3(&img);
        let c2c = engine.forward_padded_c2c(&img, m);
        let at = Vec3::new(2, 1, 0);
        let shape = Vec3::new(4, 5, 6);
        let a = engine.inverse_real(spec, at, shape);
        let b = engine.inverse_real_c2c(c2c, at, shape);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn set_threads_retunes_live_engine_bitwise_safely() {
        // a planner re-tuning the fan-out mid-run must never change a
        // computed bit — transform at 1, re-tune to 4, transform again
        let engine = FftEngine::with_threads(1);
        let img = ops::random(Vec3::cube(24), 9);
        let before = engine.rfft3(&img);
        engine.set_threads(4);
        assert_eq!(engine.threads(), 4);
        let after = engine.rfft3(&img);
        assert!(max_cdiff(before.half(), after.half()) == 0.0);
        engine.set_threads(0); // clamps to 1
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn multi_threaded_transforms_match_single_threaded_bitwise() {
        // the tentpole determinism contract: line chunking across
        // workers must not change a single bit of any transform — 32³ is
        // above the parallel threshold, so the 4-thread engine really
        // splits (scoped workers run even on a 1-core host)
        let serial = FftEngine::with_threads(1);
        let parallel = FftEngine::with_threads(4);
        assert_eq!(serial.threads(), 1);
        assert_eq!(parallel.threads(), 4);
        for shape in [Vec3::cube(32), Vec3::new(16, 32, 64), Vec3::new(128, 130, 1)] {
            let img = ops::random(shape, 91);
            let s_spec = serial.rfft3(&img);
            let p_spec = parallel.rfft3(&img);
            assert!(
                max_cdiff(s_spec.half(), p_spec.half()) == 0.0,
                "forward drift on {shape}"
            );
            let s_back = serial.irfft3(s_spec);
            let p_back = parallel.irfft3(p_spec);
            assert!(
                s_back.max_abs_diff(&p_back) == 0.0,
                "inverse drift on {shape}"
            );
            // and the c2c pipeline
            let mut s_c = ops::to_complex(&img);
            let mut p_c = ops::to_complex(&img);
            serial.fft3(&mut s_c);
            parallel.fft3(&mut p_c);
            assert!(max_cdiff(&s_c, &p_c) == 0.0, "c2c drift on {shape}");
        }
    }

    #[test]
    fn recursive_kernel_engine_matches_the_iterative_one() {
        // the fft_traffic baseline: forcing every line plan onto the
        // recursive fallback must change speed, never values beyond
        // rounding — on 5-smooth non-2^k shapes where the two engines
        // genuinely plan different kernels
        let iter = FftEngine::with_threads(1);
        let rec = FftEngine::with_recursive_kernels();
        for shape in [Vec3::cube(12), Vec3::new(24, 30, 20), Vec3::cube(15)] {
            let img = ops::random(shape, 67);
            let a = iter.rfft3(&img);
            let b = rec.rfft3(&img);
            assert!(
                max_cdiff(a.half(), b.half()) < 1e-3,
                "kernel families disagree on {shape}"
            );
            let back = rec.irfft3(b);
            assert!(back.max_abs_diff(&img) < 1e-5, "recursive round trip {shape}");
        }
    }

    #[test]
    fn flat_images_pack_along_y() {
        // the mz == 1 fast path: an even y extent gets a true half
        // spectrum (y bins 0..=my/2) and round-trips
        let engine = FftEngine::new();
        let shape = Vec3::new(7, 10, 1);
        let img = ops::random(shape, 77);
        let spec = engine.rfft3(&img);
        assert_eq!(spec.half().shape(), Vec3::new(7, 6, 1));
        assert!(spec.stored_bins() < shape.len());
        let back = engine.irfft3(spec);
        assert!(back.max_abs_diff(&img) < 1e-5);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = std::sync::Arc::new(FftEngine::new());
        let handles: Vec<_> = (0..4)
            .map(|seed| {
                let engine = std::sync::Arc::clone(&engine);
                std::thread::spawn(move || {
                    let img = ops::random(Vec3::cube(8), seed);
                    let back = engine.irfft3(engine.rfft3(&img));
                    assert!(back.max_abs_diff(&img) < 1e-5);
                    let mut c = ops::to_complex(&img);
                    engine.fft3(&mut c);
                    engine.ifft3(&mut c);
                    assert!(ops::to_real(&c).max_abs_diff(&img) < 1e-5);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_plan_misses_build_one_plan() {
        // the entry()-based plan cache must hand every racing thread
        // the same plan and count it once
        let engine = std::sync::Arc::new(FftEngine::new());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let img = ops::random(Vec3::cube(12), 7);
                    let _ = engine.rfft3(&img);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // lengths planned: 6 (packed z), 12 (y/x) forward -> exactly 2
        assert_eq!(engine.cached_plans(), 2);
    }
}
