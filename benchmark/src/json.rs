//! JSON writer for the result files. The reader is the repo's own
//! (`mesorasi::bench::diff::parse_json`), so `compare` parses exactly what
//! this module writes.

pub use mesorasi::bench::diff::{parse_json, Json};

/// An object from `(key, value)` pairs, in the given order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number. Counts up to 2^53 are exact.
pub fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// A count as a number (exact below 2^53, far above any count here).
pub fn count(v: u64) -> Json {
    Json::Num(v as f64)
}

/// A string.
pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Serializes on one line.
pub fn compact(v: &Json) -> String {
    let mut out = String::new();
    write(v, None, 0, &mut out);
    out
}

/// Serializes with two-space indentation, for files people read.
pub fn pretty(v: &Json) -> String {
    let mut out = String::new();
    write(v, Some(2), 0, &mut out);
    out.push('\n');
    out
}

fn newline(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write(v: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `{}` prints the shortest digits that parse back to the same f64,
        // so measured values keep all their digits. JSON has no NaN/inf.
        Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent, depth + 1, out);
                write(item, indent, depth + 1, out);
            }
            if !items.is_empty() {
                newline(indent, depth, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent, depth + 1, out);
                write_str(k, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write(val, indent, depth + 1, out);
            }
            if !fields.is_empty() {
                newline(indent, depth, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_repo_reader() {
        let doc = obj([
            ("name", string("scene \"32k\"\n\ttab\\")),
            ("value", num(12.403_912_345_678_9)),
            ("count", count(1_600)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![num(1.5), num(-2e-9), Json::Arr(vec![])])),
            ("nested", obj([("unit", string("ms"))])),
            ("empty", obj::<String>([])),
        ]);
        for text in [compact(&doc), pretty(&doc)] {
            assert_eq!(parse_json(&text).expect("parses"), doc, "{text}");
        }
        assert!(!compact(&doc).contains('\n'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(compact(&num(f64::NAN)), "null");
        assert_eq!(compact(&num(f64::INFINITY)), "null");
    }
}
