//! Shared plumbing for the benchmark harness binaries that regenerate
//! every table and figure of the paper (the README's "Benchmarks"
//! section lists the bins and the `BENCH_*.json` records they write;
//! every record goes through [`report`]).

#![warn(missing_docs)]

pub mod report;

pub use report::{write_report, Json};

use std::time::Instant;

/// Times `f` over `reps` repetitions after `warmup` unrecorded runs;
/// returns seconds per repetition — the paper's measurement protocol
/// ("5 warm-up rounds and then averaging the time required for the next
/// 50 rounds"), scaled down for CI-sized runs.
pub fn time_per_round(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Formats a float compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive() {
        let t = time_per_round(0, 3, || {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(t > 0.0);
    }

    #[test]
    fn fmt_picks_reasonable_forms() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(123456.5).contains('e'));
        assert!(!fmt(3.25).contains('e'));
    }
}
