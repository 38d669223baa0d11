//! The JSON writer behind `cargo xtask check --json`: a [`Value`] tree
//! built by the analyzer, printed as the stable `rhpl-check-v1` document.
//! xtask writes JSON; it reads none. std-only, like the hand-rolled Rust
//! lexer next door.

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object (sorted keys).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Serializes the value to JSON text, pretty-printed with 2-space
    /// indents. Integers in the f64 exact range print without a fractional
    /// part, so the `--json` diagnostics schema stays stable byte-for-byte
    /// across runs.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, indent: usize) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Writes one JSON string literal, escaping quotes, backslashes and
/// control characters.
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
    fn write_round_trips() {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let diag = obj(vec![
            ("file", Value::Str("a/b.rs".into())),
            ("line", Value::Num(7.0)),
            ("msg", Value::Str("x \"y\"\nz\\\t\u{1}".into())),
            ("waived", Value::Bool(false)),
        ]);
        let doc = obj(vec![
            ("diags", Value::Arr(vec![diag])),
            ("n", Value::Num(-1.5)),
            ("ok", Value::Bool(true)),
            ("empty", Value::Arr(vec![])),
            ("eo", obj(vec![])),
        ]);
        let expected = r#"{
  "diags": [
    {
      "file": "a/b.rs",
      "line": 7,
      "msg": "x \"y\"\nz\\\t\u0001",
      "waived": false
    }
  ],
  "empty": [],
  "eo": {},
  "n": -1.5,
  "ok": true
}"#;
        assert_eq!(doc.write(), expected);
    }
}
