//! Transform traffic — time and bytes moved per 3D transform: the r2c
//! half-spectrum pipeline vs the full c2c baseline, and the parallel
//! line-transform scaling at 1 / half / all worker threads.
//!
//! The r2c path stores `⌊m/2⌋+1` of `m` packed-axis bins and runs the
//! packed stage at half length, so both the bytes written per forward
//! transform and the transform time should approach half the c2c
//! figures as shapes grow. The "spectrum bytes" column is what every
//! *memoized* spectrum costs for the lifetime of a training round —
//! the paper's main RAM consumer (§IV). The threads table exercises the
//! chunked per-line parallelism of `znn-fft` (the per-axis line loops
//! are embarrassingly parallel across lines).
//!
//! Emits `BENCH_fft.json` with every number so the perf trajectory is
//! tracked across PRs. `--smoke` runs one small size (CI keeps the
//! bench bins from rotting without paying for the full sweep).
//!
//! Extra sections ride along (all always recorded, so CI can
//! assert their JSON fields):
//!
//! * `"smooth_kernels"` — 3D r2c forward transforms at 5-smooth
//!   non-power-of-two sizes (24³–120³) on the standard engine (whose
//!   line plans are iterative mixed-radix Stockham kernels) vs
//!   `FftEngine::with_recursive_kernels()` (the recursive fallback
//!   they replaced). Before the radix-3/5 stages, 48³ was the slowest
//!   point of the whole sweep; this section keeps that win pinned.
//! * `"padding"` — padded-voxel counts of the 5-smooth `good_shape`
//!   policy vs the 2^k-only `pow2_shape` baseline for a sweep of raw
//!   extents, quoting the savings that justify preferring 5-smooth
//!   candidates.
//! * `"alloc"` — §VII-C pooled-allocator traffic for the per-round
//!   buffer pattern of one FFT convolution: churn bytes moved and
//!   allocations avoided per round, lifetime pool hit rate, and the
//!   resident footprint (which freezes after the first rounds while
//!   churn keeps flowing — the paper's flat-memory property).
//! * `"pruned"` — the box-pruned r2c/c2r stages on the transforms an
//!   FFT conv edge runs each round: kernel-sized (5³, 9³ dilated) and
//!   image-sized inputs padded to 20³/32³/36³, and the 9³
//!   kernel-gradient crop of an inverse. Each record holds the
//!   full-box and pruned µs and the lines each stage transforms.
//! * `"simd"` — the detected ISA and the SIMD microkernel speedups:
//!   each batched Stockham butterfly radix and each pointwise op timed
//!   dispatched vs pinned-scalar, plus the end-to-end 64³ r2c forward
//!   delta (`FftEngine` default vs `with_scalar_kernels()`). On hosts
//!   without AVX2 both paths run the same code and the speedups read
//!   ~1×; the fields are still recorded.
//!
//! `--spawn-compare` adds the pool-reuse vs spawn-per-call sweep: the
//! same 2-way-split r2c transform timed on the persistent worker pool
//! and on the old spawn-an-OS-thread-per-chunk scope, at 8³–64³ (the
//! split threshold is lowered so even 8³ actually forks). The pool
//! must win at ≤32³, where thread spawn latency rivals the transform
//! itself; both series land in `BENCH_fft.json` under
//! `"spawn_compare"` so the trend is tracked.

use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_bench::{fmt, header, obj, row, time_per_round, write_report, Json};
use znn_fft::{good_shape, pow2_shape, spectra, FftEngine};
use znn_tensor::{ops, Spectrum, Vec3};

/// The shared `(warmup, reps)` budget per cube size — one protocol for
/// every section of `BENCH_fft.json`, so committed numbers from
/// different sections of the same run are comparable. Mid-range sizes
/// get 5 reps rather than 3: their numbers are the ones the acceptance
/// criteria and ROADMAP quote, and at 3 reps run-to-run variance was
/// large enough (>2x observed at 60³) to mask real changes.
fn reps_for(n: usize) -> (usize, usize) {
    if n >= 100 {
        (1, 3)
    } else if n >= 48 {
        (1, 5)
    } else {
        (2, 8)
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spawn_compare = std::env::args().any(|a| a == "--spawn-compare");
    let sizes: &[usize] = if smoke {
        &[16]
    } else {
        &[16, 24, 32, 48, 60, 64, 120]
    };
    let host = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize, host.div_ceil(2), host];
    thread_counts.dedup();

    println!("# transform traffic — r2c half-spectrum vs c2c full spectrum\n");
    let engine = FftEngine::with_threads(1);
    header(&[
        "shape",
        "r2c spectrum bytes",
        "c2c spectrum bytes",
        "bytes ratio",
        "r2c fwd s",
        "c2c fwd s",
        "speedup",
    ]);
    let mut report = obj! {"host_threads": host, "smoke": smoke};
    let mut records = Vec::new();
    for &n in sizes {
        let m = Vec3::cube(n);
        let img = ops::random(m, 1);
        let spec = engine.rfft3(&img);
        let r2c_bytes = spec.stored_bytes();
        let c2c_bytes = spec.full_bytes();
        let (warm, reps) = reps_for(n);
        let t_r2c = time_per_round(warm, reps, || {
            std::hint::black_box(engine.rfft3(&img));
        });
        let t_c2c = time_per_round(warm, reps, || {
            std::hint::black_box(engine.forward_padded_c2c(&img, m));
        });
        row(&[
            format!("{n}³"),
            r2c_bytes.to_string(),
            c2c_bytes.to_string(),
            format!("{:.3}", r2c_bytes as f64 / c2c_bytes as f64),
            fmt(t_r2c),
            fmt(t_c2c),
            format!("{:.2}x", t_c2c / t_r2c),
        ]);
        // threads sweep on the r2c pipeline (forward + inverse)
        println!("\n  {n}³ r2c transforms/sec by worker threads:");
        header(&["threads", "fwd s", "fwd tps", "inv s", "inv tps"]);
        let mut sweep = Vec::new();
        for &threads in &thread_counts {
            let te = FftEngine::with_threads(threads);
            let fwd_s = time_per_round(warm, reps, || {
                std::hint::black_box(te.rfft3(&img));
            });
            // irfft3 consumes its spectrum, so the clone has to sit in
            // the timed loop — measure it separately and subtract, or
            // the inverse cost would include an allocation+memcpy the
            // in-place c2r path specifically avoids
            let base = te.rfft3(&img);
            let t_clone = time_per_round(warm, reps, || {
                std::hint::black_box(base.clone());
            });
            let inv_s = (time_per_round(warm, reps, || {
                std::hint::black_box(te.irfft3(base.clone()));
            }) - t_clone)
                .max(f64::EPSILON);
            row(&[
                threads.to_string(),
                fmt(fwd_s),
                format!("{:.2}", 1.0 / fwd_s),
                fmt(inv_s),
                format!("{:.2}", 1.0 / inv_s),
            ]);
            sweep.push(obj! {
                "threads": threads, "fwd_s": fwd_s, "fwd_tps": 1.0 / fwd_s,
                "inv_s": inv_s, "inv_tps": 1.0 / inv_s,
            });
        }
        println!();
        records.push(obj! {
            "n": n, "r2c_bytes": r2c_bytes, "c2c_bytes": c2c_bytes,
            "r2c_fwd_s": t_r2c, "c2c_fwd_s": t_c2c, "threads": sweep,
        });
    }
    report.insert("sizes", records);

    // 5-smooth kernel comparison: the iterative mixed-radix Stockham
    // path vs the recursive fallback it replaced, at the 3D r2c level.
    // These sizes (2^a·3^b·5^c, not powers of two) were all fallback
    // before the radix-3/5 stages; 48³ was the slowest point in the
    // sweep.
    let smooth_sizes: &[usize] = if smoke { &[12] } else { &[24, 48, 60, 120] };
    let iter_engine = FftEngine::with_threads(1);
    let rec_engine = FftEngine::with_recursive_kernels();
    println!("\n# 5-smooth kernels — iterative Stockham vs recursive fallback (1 thread)\n");
    header(&["shape", "iterative s", "recursive s", "iterative speedup"]);
    let mut recs = Vec::new();
    for &n in smooth_sizes {
        let img = ops::random(Vec3::cube(n), 3);
        let (warm, reps) = reps_for(n);
        let iter_s = time_per_round(warm, reps, || {
            std::hint::black_box(iter_engine.rfft3(&img));
        });
        let rec_s = time_per_round(warm, reps, || {
            std::hint::black_box(rec_engine.rfft3(&img));
        });
        row(&[
            format!("{n}³"),
            fmt(iter_s),
            fmt(rec_s),
            format!("{:.2}x", rec_s / iter_s),
        ]);
        recs.push(obj! {
            "n": n, "iter_fwd_s": iter_s, "recursive_fwd_s": rec_s,
            "iter_speedup": rec_s / iter_s,
        });
    }
    report.insert("smooth_kernels", recs);

    // Padding policy: 5-smooth good_shape vs the 2^k-only baseline —
    // padded voxels are transformed, multiplied, and (memoized) held
    // in RAM for a whole round, so the savings compound.
    let raw_sizes: &[usize] = if smoke {
        &[33, 65]
    } else {
        &[17, 33, 47, 65, 100, 129, 200]
    };
    println!("\n# padding — 5-smooth good_shape vs 2^k-only baseline\n");
    header(&["raw", "good_shape", "voxels", "pow2 shape", "voxels", "saved"]);
    let mut recs = Vec::new();
    for &n in raw_sizes {
        let raw = Vec3::cube(n);
        let smooth = good_shape(raw);
        let pow2 = pow2_shape(raw);
        let sv = smooth.len();
        let pv = pow2.len();
        row(&[
            format!("{n}³"),
            smooth.to_string(),
            sv.to_string(),
            pow2.to_string(),
            pv.to_string(),
            format!("{:.2}x", pv as f64 / sv as f64),
        ]);
        recs.push(obj! {
            "n": n, "smooth_voxels": sv, "pow2_voxels": pv, "savings": pv as f64 / sv as f64,
        });
    }
    report.insert("padding", recs);

    // Allocator traffic (§VII-C): the same per-round FFT-convolution
    // buffer pattern — two padded forward transforms, a derived flip
    // spectrum, a spectrum product, one cropped inverse — run on a
    // pooled engine. Round 0 is the cold footprint; from round ~2 the
    // pool serves every lease by recycling, so churn bytes keep moving
    // while misses and resident bytes freeze. Always recorded, so CI
    // can assert the fields.
    {
        let n = if smoke { 16 } else { 48 };
        let alloc_rounds = 6usize;
        let pools = PoolSet::new();
        let engine = FftEngine::with_threads(1).with_buffer_pools(Arc::clone(&pools));
        let vol = Vec3::cube(n);
        let k = Vec3::cube(3);
        let m = good_shape(vol);
        let x = ops::random(vol, 5);
        let w = ops::random(k, 6);
        println!("\n# alloc — pooled-allocator traffic per FFT-conv round at {n}³\n");
        header(&[
            "round",
            "churn bytes",
            "allocs avoided",
            "misses",
            "resident bytes",
        ]);
        let mut recs = Vec::new();
        let mut last = (0usize, 0usize, 0usize);
        let mut steady = (0usize, 0usize); // (churn, hits) of the last round
        for round in 0..alloc_rounds {
            let xs = engine.forward_padded(&x, m);
            let ws = engine.forward_padded(&w, m);
            let flip = spectra::flip_spectrum(&ws, k);
            let prod = znn_tensor::ops::mul_s(&xs, &flip);
            let out = engine.inverse_real(
                prod,
                k - Vec3::one(),
                vol.valid_conv(k).expect("kernel fits"),
            );
            std::hint::black_box(&out);
            drop((xs, ws, flip, out));
            let s = pools.stats();
            let churn = s.bytes_leased() - last.0;
            let hits = s.hits() - last.1;
            let misses = s.misses() - last.2;
            last = (s.bytes_leased(), s.hits(), s.misses());
            steady = (churn, hits);
            row(&[
                round.to_string(),
                churn.to_string(),
                hits.to_string(),
                misses.to_string(),
                s.bytes_from_system().to_string(),
            ]);
            recs.push(obj! {
                "round": round, "churn_bytes": churn, "allocs_avoided": hits,
                "misses": misses, "resident_bytes": s.bytes_from_system(),
            });
        }
        report.insert(
            "alloc",
            obj! {
                "n": n,
                "rounds": recs,
                "churn_bytes_round": steady.0,
                "allocs_avoided_round": steady.1,
                "hit_rate": pools.hit_rate(),
                "resident_bytes": pools.resident_bytes(),
            },
        );
        println!(
            "\nshape check: resident bytes freeze after the first rounds while\n\
             churn keeps flowing — steady-state rounds recycle {} bytes with a\n\
             {:.1}% lifetime hit rate and zero new allocation.",
            steady.0,
            pools.hit_rate() * 100.0
        );
    }

    // Box-pruned stages: the transforms an FFT conv edge runs every
    // round, timed full-box (rfft3 of the explicitly padded input,
    // crop of irfft3) vs pruned (forward_padded / inverse_real), with
    // the lines each stage transforms. Kernel-sized inputs (5³, and
    // 9³ once dilated) and image-sized inputs are padded to the plan's
    // pads; the 9³ crop is a kernel gradient taken from its inverse.
    {
        let pads: &[usize] = if smoke { &[20] } else { &[20, 32, 36] };
        let engine = FftEngine::with_threads(1);
        let w = ops::random(Vec3::cube(5), 13);
        let w_dilated = znn_tensor::pad::dilate(&w, Vec3::cube(2));
        println!("\n# pruned — full-box vs box-pruned r2c/c2r stages (1 thread)\n");
        header(&["case", "full µs", "pruned µs", "speedup", "full lines", "pruned lines"]);
        let mut recs = Vec::new();
        let mut push = |case: &str, n: Vec3, m: Vec3, full_s: f64, pruned_s: f64, full: [usize; 3], pruned: [usize; 3]| {
            let (full_us, pruned_us) = (full_s * 1e6, pruned_s * 1e6);
            row(&[
                format!("{case} {n} in {m}"),
                format!("{full_us:.1}"),
                format!("{pruned_us:.1}"),
                format!("{:.2}x", full_us / pruned_us),
                format!("{full:?}"),
                format!("{pruned:?}"),
            ]);
            recs.push(obj! {
                "case": case, "n": n[0], "m": m[0], "full_us": full_us, "pruned_us": pruned_us,
                "speedup": full_us / pruned_us, "full_lines": full.to_vec(), "pruned_lines": pruned.to_vec(),
            });
        };
        for &p in pads {
            let m = Vec3::cube(p);
            let image = ops::random(Vec3::cube(p - 3), 14);
            for (case, x) in [("kernel_fwd", &w), ("dilated_kernel_fwd", &w_dilated), ("image_fwd", &image)] {
                let padded = znn_tensor::pad::pad(x, m, Vec3::zero());
                let full_s = time_per_round(3, 20, || {
                    std::hint::black_box(engine.rfft3(&padded));
                });
                let pruned_s = time_per_round(3, 20, || {
                    std::hint::black_box(engine.forward_padded(x, m));
                });
                push(
                    case,
                    x.shape(),
                    m,
                    full_s,
                    pruned_s,
                    FftEngine::forward_stage_lines(m, m),
                    FftEngine::forward_stage_lines(x.shape(), m),
                );
            }
            // both inverses consume a spectrum clone: time the clone
            // alone and take it off both
            let crop = Vec3::cube(9);
            let spec = engine.rfft3(&ops::random(m, 15));
            let clone_s = time_per_round(3, 20, || {
                std::hint::black_box(spec.clone());
            });
            let full_s = time_per_round(3, 20, || {
                let real = engine.irfft3(spec.clone());
                std::hint::black_box(znn_tensor::pad::crop(&real, Vec3::zero(), crop));
            }) - clone_s;
            let pruned_s = time_per_round(3, 20, || {
                std::hint::black_box(engine.inverse_real(spec.clone(), Vec3::zero(), crop));
            }) - clone_s;
            push(
                "kernel_grad_inv",
                crop,
                m,
                full_s.max(f64::EPSILON),
                pruned_s.max(f64::EPSILON),
                FftEngine::inverse_stage_lines(m, m),
                FftEngine::inverse_stage_lines(m, crop),
            );
        }
        report.insert("pruned", recs);
    }

    if spawn_compare {
        // Pool-reuse vs spawn-per-call: identical 2-way-split r2c
        // transforms, chunks queued on the persistent pool vs one
        // fresh OS thread per chunk (the pre-pool shim). The split
        // threshold drops to 1 element so every size really forks —
        // at 8³ the transform is microseconds and thread spawn
        // dominates; the gap should close as n³ grows.
        let cmp_sizes: &[usize] = if smoke { &[8, 16] } else { &[8, 16, 24, 32, 48, 64] };
        let pooled = FftEngine::with_threads(2).par_threshold(1);
        let spawny = FftEngine::with_spawn_per_call(2).par_threshold(1);
        println!("\n# spawn-compare — persistent pool vs spawn-per-call (2-way split)\n");
        header(&["shape", "pool s", "pool tps", "spawn s", "spawn tps", "pool speedup"]);
        let (mut recs, mut losses) = (Vec::new(), Vec::new());
        for &n in cmp_sizes {
            let img = ops::random(Vec3::cube(n), 7);
            let (warm, reps) = reps_for(n);
            let pool_s = time_per_round(warm, reps, || {
                std::hint::black_box(pooled.rfft3(&img));
            });
            let spawn_s = time_per_round(warm, reps, || {
                std::hint::black_box(spawny.rfft3(&img));
            });
            row(&[
                format!("{n}³"),
                fmt(pool_s),
                format!("{:.2}", 1.0 / pool_s),
                fmt(spawn_s),
                format!("{:.2}", 1.0 / spawn_s),
                format!("{:.2}x", spawn_s / pool_s),
            ]);
            recs.push(obj! {
                "n": n, "pool_fwd_s": pool_s, "pool_tps": 1.0 / pool_s,
                "spawn_fwd_s": spawn_s, "spawn_tps": 1.0 / spawn_s,
            });
            if n <= 32 && pool_s > spawn_s {
                losses.push(n);
            }
        }
        if losses.is_empty() {
            println!("\ntrend ok: the pool wins at every size ≤ 32³");
        } else {
            println!("\nWARNING: spawn-per-call beat the pool at {losses:?} — regression?");
        }
        report.insert("spawn_compare", recs);
    }

    // SIMD microkernels: the dispatched vector kernels vs two
    // baselines — true scalar arithmetic (`scalar_s`, the speedup
    // denominator) and the auto-vectorized portable twins
    // (`autovec_s`, the code `ZNN_FORCE_SCALAR` runs) — per butterfly
    // radix family and per pointwise op, then the end-to-end 64³ r2c
    // forward delta. Always recorded so CI can assert the fields; the
    // per-kernel pins are this PR's acceptance numbers.
    {
        use rustfft::{num_complex::Complex, Fft, FftDirection, FftPlanner};

        fn time_plan(plan: &Arc<dyn Fft<f32>>, base: &[Complex<f32>]) -> f64 {
            let mut buf = base.to_vec();
            let mut scratch = vec![Complex::new(0.0f32, 0.0); plan.get_inplace_scratch_len()];
            // best of 4 short rounds, same rationale as the pointwise
            // duel: the min is the only stable estimator on a
            // steal-prone single-vCPU host
            (0..4)
                .map(|_| {
                    time_per_round(1, 2, || {
                        buf.copy_from_slice(base);
                        plan.process_with_scratch(std::hint::black_box(&mut buf), &mut scratch);
                        std::hint::black_box(&buf);
                    })
                })
                .fold(f64::INFINITY, f64::min)
        }

        fn push_kernel(
            name: &str,
            scalar_s: f64,
            autovec_s: f64,
            simd_s: f64,
            recs: &mut Vec<Json>,
        ) {
            row(&[
                name.to_string(),
                fmt(scalar_s),
                fmt(autovec_s),
                fmt(simd_s),
                format!("{:.2}x", scalar_s / simd_s),
                format!("{:.2}x", autovec_s / simd_s),
            ]);
            recs.push(obj! {
                "kernel": name, "scalar_s": scalar_s, "autovec_s": autovec_s, "simd_s": simd_s,
                "speedup": scalar_s / simd_s, "autovec_speedup": autovec_s / simd_s,
            });
        }

        println!(
            "\n# simd — microkernels ({}) vs scalar arithmetic and the\n\
             # auto-vectorized portable twins (the `ZNN_FORCE_SCALAR` path)\n",
            znn_simd::isa_name()
        );
        header(&[
            "kernel",
            "scalar s",
            "autovec s",
            "simd s",
            "vs scalar",
            "vs autovec",
        ]);
        let mut recs = Vec::new();

        // one length per radix family, batched to ~64k elements per
        // call exactly like the 3D engine drives the line plans
        let mut planner = FftPlanner::new();
        for (label, n) in [
            ("radix4_n64", 64usize),
            ("radix3_n27", 27),
            ("radix5_n125", 125),
            ("trailing2_n128", 128),
        ] {
            let lines = (64 * 1024 / n).max(8);
            let base: Vec<Complex<f32>> = (0..lines * n)
                .map(|i| {
                    Complex::new(
                        ops::splitmix_f32(8, i as u64),
                        ops::splitmix_f32(9, i as u64),
                    )
                })
                .collect();
            let simd_plan = planner.plan_fft(n, FftDirection::Forward);
            let scalar_plan = planner.plan_fft_scalar(n, FftDirection::Forward);
            // the scalar butterflies are genuinely one-lane (their
            // dataflow defeats the auto-vectorizer), so the scalar and
            // autovec baselines coincide for the radix rows
            let t_scalar = time_plan(&scalar_plan, &base);
            let t_simd = time_plan(&simd_plan, &base);
            push_kernel(label, t_scalar, t_scalar, t_simd, &mut recs);
        }

        // The pointwise layer, measured compute-bound: an L1-resident
        // working set (1024 complexes = 8 KiB per stream) with K
        // in-place applications per timed round, so the numbers isolate
        // the kernel's ALU throughput rather than DRAM bandwidth (a
        // spectrum-sized streaming sweep reads ~1x for every kernel —
        // both sides sit at the same memory wall). The multiplier is
        // unit-magnitude (e^{iθ}), so repeated in-place products
        // neither decay into denormals nor overflow; the MAC/FMA
        // accumulants grow only linearly in K.
        const PW_N: usize = 1024;
        const PW_K: usize = 256;
        let unit: Vec<Complex<f32>> = (0..PW_N)
            .map(|i| {
                let theta = std::f32::consts::PI * ops::splitmix_f32(10, i as u64);
                Complex::new(theta.cos(), theta.sin())
            })
            .collect();
        let seed_c: Vec<Complex<f32>> = (0..PW_N)
            .map(|i| {
                Complex::new(
                    ops::splitmix_f32(11, i as u64),
                    ops::splitmix_f32(12, i as u64),
                )
            })
            .collect();
        let seed_f: Vec<f32> = seed_c.iter().map(|z| z.re).collect();

        // True one-lane scalar baselines for the `scalar s` column.
        // The portable twins in `znn_simd::scalar` are straight-line
        // loops that LLVM auto-vectorizes to SSE2 at opt-level 3 —
        // that compiled form is what `ZNN_FORCE_SCALAR` actually runs
        // and is recorded in the `autovec` column. To measure scalar
        // *arithmetic* (one lane per instruction — the baseline the
        // paper's SIMD-width argument is stated against), the same
        // per-element operations are walked in an odd-stride order the
        // vectorizer cannot fuse; the stride is a unit mod the
        // power-of-two length, so each pass still touches every
        // element exactly once in the same L1-resident working set.
        fn strict_cmul(dst: &mut [Complex<f32>], src: &[Complex<f32>]) {
            let mask = dst.len() - 1;
            let mut j = 0usize;
            for _ in 0..dst.len() {
                dst[j] *= src[j];
                j = (j + 17) & mask;
            }
        }
        fn strict_conj_mac(acc: &mut [Complex<f32>], x: &[Complex<f32>], g: &[Complex<f32>]) {
            let mask = acc.len() - 1;
            let mut j = 0usize;
            for _ in 0..acc.len() {
                acc[j] += x[j] * g[j].conj();
                j = (j + 17) & mask;
            }
        }
        fn strict_fma(dst: &mut [f32], w: f32, src: &[f32]) {
            let mask = dst.len() - 1;
            let mut j = 0usize;
            for _ in 0..dst.len() {
                dst[j] = w.mul_add(src[j], dst[j]);
                j = (j + 17) & mask;
            }
        }

        #[derive(Clone, Copy)]
        enum Path {
            Simd,
            Autovec,
            Strict,
        }

        // Interleaved best-of-N duel: on a shared/1-core host a single
        // mean swings several-fold run to run; the min over many short
        // alternating trials is the only stable estimator for sub-µs
        // kernels. Returns per-application seconds as
        // `[simd, autovec, strict]`.
        fn duel(mut run: impl FnMut(Path)) -> [f64; 3] {
            let mut best = [f64::INFINITY; 3];
            for _ in 0..9 {
                for (slot, path) in
                    [Path::Simd, Path::Autovec, Path::Strict].into_iter().enumerate()
                {
                    best[slot] = best[slot].min(time_per_round(1, 2, || run(path)));
                }
            }
            best.map(|b| b / PW_K as f64)
        }

        let mut dst_c = seed_c.clone();
        let [simd_s, autovec_s, scalar_s] = duel(|path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut dst_c);
                match path {
                    Path::Simd => znn_simd::mul_assign_c(d, &unit),
                    Path::Autovec => znn_simd::scalar::mul_assign_c(d, &unit),
                    Path::Strict => strict_cmul(d, &unit),
                }
            }
        });
        push_kernel("pointwise_cmul", scalar_s, autovec_s, simd_s, &mut recs);

        let mut dst_c = seed_c.clone();
        let [simd_s, autovec_s, scalar_s] = duel(|path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut dst_c);
                match path {
                    Path::Simd => znn_simd::conj_mul_add_assign_c(d, &seed_c, &unit),
                    Path::Autovec => {
                        znn_simd::scalar::conj_mul_add_assign_c(d, &seed_c, &unit)
                    }
                    Path::Strict => strict_conj_mac(d, &seed_c, &unit),
                }
            }
        });
        push_kernel("pointwise_conj_mac", scalar_s, autovec_s, simd_s, &mut recs);

        let mut dst_f = seed_f.clone();
        let [simd_s, autovec_s, scalar_s] = duel(|path| {
            for _ in 0..PW_K {
                let d = std::hint::black_box(&mut dst_f);
                match path {
                    Path::Simd => znn_simd::fma_acc_f(d, 1.0e-3, &seed_f),
                    Path::Autovec => znn_simd::scalar::fma_acc_f(d, 1.0e-3, &seed_f),
                    Path::Strict => strict_fma(d, 1.0e-3, &seed_f),
                }
            }
        });
        push_kernel("conv_fma_row", scalar_s, autovec_s, simd_s, &mut recs);


        // end to end: the whole 64³ r2c forward pipeline, default
        // engine vs pinned-scalar kernels on one thread
        let img = ops::random(Vec3::cube(64), 12);
        let simd_engine = FftEngine::with_threads(1);
        let scalar_engine = FftEngine::with_scalar_kernels();
        let (warm, reps) = reps_for(64);
        let simd_fwd = time_per_round(warm, reps, || {
            std::hint::black_box(simd_engine.rfft3(&img));
        });
        let scalar_fwd = time_per_round(warm, reps, || {
            std::hint::black_box(scalar_engine.rfft3(&img));
        });
        // the scalar-kernel engine runs the one-lane butterflies, so
        // scalar and autovec coincide here as in the radix rows
        row(&[
            "e2e_rfft3_64".to_string(),
            fmt(scalar_fwd),
            fmt(scalar_fwd),
            fmt(simd_fwd),
            format!("{:.2}x", scalar_fwd / simd_fwd),
            format!("{:.2}x", scalar_fwd / simd_fwd),
        ]);
        report.insert(
            "simd",
            obj! {
                "isa": znn_simd::isa_name(),
                "forced_scalar": znn_simd::forced_scalar(),
                "kernels": recs,
                "e2e_64": obj! {
                    "scalar_fwd_s": scalar_fwd,
                    "simd_fwd_s": simd_fwd,
                    "speedup": scalar_fwd / simd_fwd,
                },
            },
        );
    }

    println!("shape check: bytes ratio tends to 1/2 (exactly (⌊n/2⌋+1)/n");
    println!("per packed line) and the r2c transform speedup approaches ~2x");
    println!("on large shapes; with >1 host cores the threaded rows scale");
    println!("transforms/sec with the worker count.");
    // the same half-spectrum bound, stated for one memoized volume
    let m = Vec3::cube(64);
    let half = Spectrum::half_shape(m);
    println!(
        "\nexample: a memoized 64³ spectrum stores {} of {} bins ({} of {} bytes).",
        half.len(),
        m.len(),
        Spectrum::zeros(m).stored_bytes(),
        Spectrum::zeros(m).full_bytes(),
    );

    write_report("BENCH_fft.json", &report);
}
