//! The one JSON writer behind every `BENCH_*.json` record.
//!
//! Bins build a [`Json`] value — usually with [`obj!`](crate::obj) —
//! and hand it to [`write_report`]. Only this module knows the format:
//!
//! * two-space indentation and one space after each `:`;
//! * a container whose children are all scalars renders on one line,
//!   `{"k": v, "k2": v2}`, so one `grep` finds a whole record;
//! * strings escape `"`, `\` and control characters;
//! * integers print as integers, finite floats in the shortest form
//!   that reads back to the same `f64`, and non-finite floats as
//!   `null` — JSON has no NaN or infinity.

use std::fmt::Write as _;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (wide enough for every `u64` and `i64`).
    Int(i128),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] from `"key": value` pairs, in order; each
/// value goes through `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($k:literal : $v:expr),* $(,)?) => {
        $crate::report::Json::Obj(vec![$(($k.to_string(), $crate::report::Json::from($v))),*])
    };
}

impl Json {
    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn insert(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("insert({key:?}) on a non-object JSON value"),
        }
    }

    /// The value as JSON text, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_container(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => write_container(
                out,
                depth,
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_container<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let inline = items
        .clone()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let pad = "  ".repeat(depth);
    let (first, sep, last) = if inline {
        (String::new(), ", ".to_string(), String::new())
    } else {
        (format!("\n{pad}  "), format!(",\n{pad}  "), format!("\n{pad}"))
    };
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i == 0 { &first } else { &sep });
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    out.push_str(&last);
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `report` to `path` and says so on stdout. A failed write
/// exits the process with status 1: CI greps these files, and a
/// swallowed error would let those checks pass against a stale
/// committed copy.
pub fn write_report(path: &str, report: &Json) {
    match std::fs::write(path, report.render()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("\ncould not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

macro_rules! from_scalar {
    ($($t:ty => |$x:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Self {
                $json
            }
        }
    )*};
}

from_scalar! {
    bool => |b| Json::Bool(b),
    i32 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i.into()),
    usize => |i| Json::Int(i as i128),
    f64 => |x| Json::Num(x),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_sample_renders_exactly() {
        let report = obj! {
            "smoke": true,
            "n": 3,
            "empty_arr": Vec::<Json>::new(),
            "empty_obj": obj! {},
            "records": vec![
                obj! {"kind": "a", "s": 0.5, "lines": vec![1, 2]},
                obj! {"kind": "b", "s": 1e-7, "none": Json::Null},
            ],
            "pool": obj! {"leaked": 0, "flat": false},
        };
        assert_eq!(
            report.render(),
            r#"{
  "smoke": true,
  "n": 3,
  "empty_arr": [],
  "empty_obj": {},
  "records": [
    {
      "kind": "a",
      "s": 0.5,
      "lines": [1, 2]
    },
    {"kind": "b", "s": 1e-7, "none": null}
  ],
  "pool": {"leaked": 0, "flat": false}
}
"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("q\"b\\n\nc\u{1}");
        assert_eq!(s.render(), "\"q\\\"b\\\\n\\nc\\u0001\"\n");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let v = Json::from(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0]);
        assert_eq!(v.render(), "[null, null, null, 2.0]\n");
    }
}
