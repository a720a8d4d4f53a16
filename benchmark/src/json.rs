//! Just enough JSON for the benchmark's outputs (no registry crates are
//! available): a value tree that renders itself, and a reader for the one
//! flat object the server child prints.

use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Rendered with every digit Rust's shortest round-trip form keeps;
    /// non-finite values render as `null`.
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Reads a flat JSON object whose values are plain strings or integers,
/// e.g. `{"pid": 12, "http": "127.0.0.1:4000"}`, into a string map. Nested
/// values and escapes are not supported (the server child never emits
/// them); anything else is `None`.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, String>> {
    let inner = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    for pair in inner.split(',').filter(|p| !p.trim().is_empty()) {
        let (k, v) = pair.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        let v = v.trim();
        let v = match v.strip_prefix('"') {
            Some(rest) => rest.strip_suffix('"')?,
            None => v,
        };
        if k.contains(['"', '\\']) || v.contains(['"', '\\', '{', '[']) {
            return None;
        }
        out.insert(k.to_owned(), v.to_owned());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_all_digits() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "op_p50_ms",
                    Json::obj([("value", Json::Num(1.203456789)), ("unit", Json::str("ms"))]),
                )]),
            ),
            ("note", Json::str("a \"quoted\"\nline")),
            ("gone", Json::Num(f64::NAN)),
            ("list", Json::Arr(vec![Json::Null, Json::Int(-2)])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"correct\": true, \"attempted\": 1000, \"metrics\": {\"op_p50_ms\": \
             {\"value\": 1.203456789, \"unit\": \"ms\"}}, \"note\": \"a \\\"quoted\\\"\\nline\", \
             \"gone\": null, \"list\": [null, -2]}"
        );
    }

    #[test]
    fn flat_object_round_trip() {
        let line = Json::obj([
            ("pid", Json::Int(4711)),
            ("http", Json::str("127.0.0.1:40001")),
        ])
        .to_string();
        let map = parse_flat_object(&line).unwrap();
        assert_eq!(map["pid"], "4711");
        assert_eq!(map["http"], "127.0.0.1:40001");
        assert!(parse_flat_object("not json").is_none());
        assert!(parse_flat_object("{\"a\": {\"b\": 1}}").is_none());
    }
}
