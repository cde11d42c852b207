//! Order statistics and the benchmark's JSON output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics); `0.0` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Keeps only the named metrics (every one of which must exist).
    pub fn select(&self, names: &[&str]) -> Metrics {
        let mut out = Metrics::default();
        for &n in names {
            let &(v, u) = self
                .0
                .get(n)
                .unwrap_or_else(|| panic!("metric {n} was not measured"));
            out.set(n, v, u);
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, (v, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            );
        }
        s.push('}');
        s
    }

    /// Human-readable table for standard error.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, (v, unit)) in &self.0 {
            let _ = writeln!(s, "  {name:<32} {v:>14.6} {unit}");
        }
        s
    }
}

/// A JSON number: every digit Rust prints, and `null` for values JSON
/// cannot hold.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_is_well_formed() {
        let mut m = Metrics::default();
        m.set("b", 1.5, "s");
        m.set("a", f64::NAN, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": null, \"unit\": \"count\"}, \"b\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        assert_eq!(esc("a\"b\n"), "a\\\"b\\n");
    }
}
