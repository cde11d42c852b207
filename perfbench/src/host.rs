//! Host fingerprint printed with every result, and the process's peak
//! resident set.

use crate::stats::{esc, num};
use znn_sim::Machine;

pub struct Host {
    pub nproc: usize,
    pub gflops: f64,
    pub bandwidth_gbs: f64,
    pub isa: &'static str,
    pub force_scalar: bool,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
}

impl Host {
    /// Fingerprint from the machine model the planner probed, so the
    /// figures are the ones the plan was priced with.
    pub fn new(machine: &Machine) -> Self {
        let (l2_bytes, l3_bytes) = cache_sizes();
        Host {
            nproc: nproc(),
            gflops: machine.gflops,
            bandwidth_gbs: machine.bandwidth_gbs,
            isa: znn_simd::isa_name(),
            force_scalar: znn_simd::forced_scalar(),
            l2_bytes,
            l3_bytes,
        }
    }

    /// JSON object; `working_set_bytes` is the workload's resident
    /// pool footprint, reported relative to L2 and L3.
    pub fn to_json(&self, working_set_bytes: f64) -> String {
        let rel = |c: u64| {
            if c == 0 {
                f64::NAN
            } else {
                working_set_bytes / c as f64
            }
        };
        format!(
            "{{\"nproc\": {}, \"gflops\": {}, \"bandwidth_gbs\": {}, \"isa\": \"{}\", \
             \"force_scalar\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \
             \"working_set_bytes\": {}, \"working_set_over_l2\": {}, \"working_set_over_l3\": {}}}",
            self.nproc,
            num(self.gflops),
            num(self.bandwidth_gbs),
            esc(self.isa),
            self.force_scalar,
            self.l2_bytes,
            self.l3_bytes,
            num(working_set_bytes),
            num(rel(self.l2_bytes)),
            num(rel(self.l3_bytes)),
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-core L2 and shared L3 sizes in bytes from CPUID's deterministic
/// cache parameters (leaf 4 on Intel, 0x8000_001D on AMD); zero where
/// the CPU does not report them.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (u64, u64) {
    use std::arch::x86_64::__cpuid_count;
    let vendor = __cpuid_count(0, 0);
    let leaf = if vendor.ebx == u32::from_le_bytes(*b"Auth") {
        0x8000_001D
    } else {
        4
    };
    let (mut l2, mut l3) = (0, 0);
    for sub in 0..16 {
        // sub-leaves past the last cache report cache type 0
        let r = __cpuid_count(leaf, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        let size = ways * parts * line * sets;
        match level {
            2 => l2 = size,
            3 => l3 = size,
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (u64, u64) {
    (0, 0)
}

/// CPU seconds this process has used so far, all threads, user plus
/// system. Time the hypervisor gives the VM's virtual CPUs to other
/// guests (steal) is not charged here, unlike wall time.
pub fn cpu_s() -> f64 {
    rusage().0
}

/// Peak resident set of this process in MiB (`getrusage` high-water
/// mark).
pub fn peak_rss_mb() -> f64 {
    rusage().1
}

/// `getrusage(RUSAGE_SELF)`: (CPU seconds, peak RSS in MiB).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two timevals, then fourteen longs), and the
    // pointer is valid for writes for the duration of the call.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc != 0 {
        return (f64::NAN, f64::NAN);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (secs(&r.utime) + secs(&r.stime), r.maxrss as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage() -> (f64, f64) {
    (f64::NAN, f64::NAN)
}
