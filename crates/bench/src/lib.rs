//! # hpl-bench
//!
//! The benchmark harness of the rhpl workspace: one binary per figure of
//! the paper (see DESIGN.md's experiment index). Each binary prints a
//! human-readable table; pass `--json` to also emit the series as JSON on
//! stdout for post-processing. Per-kernel rates are measured by the
//! separate `benchmark/` crate.

use std::fmt::Display;
use std::str::FromStr;

use hpl_comm::config::ConfigError;

/// Tiny argv helper: returns true if `flag` is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Tiny argv helper: value following `key`, parsed; `None` when the flag
/// is absent. A flag whose value is missing or does not parse exits 2 with
/// the `rhpl` command line's wording (`invalid --n="abc": expected ...`)
/// instead of silently running the default.
pub fn arg_value<T: FromStr>(key: &'static str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, key).unwrap_or_else(|e| {
        eprintln!("configuration error: {e}");
        std::process::exit(2)
    })
}

/// [`arg_value`] over `args`, with the exit left to the caller.
fn parse_flag<T: FromStr>(args: &[String], key: &'static str) -> Result<Option<T>, ConfigError> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let raw = args.get(i + 1);
    let value = raw.and_then(|v| v.parse().ok());
    value.map(Some).ok_or_else(|| ConfigError {
        var: key,
        value: raw.cloned().unwrap_or_default(),
        expected: std::any::type_name::<T>(),
    })
}

/// Prints a named JSON document when `--json` was passed.
pub fn emit_json<T: serde::Serialize>(name: &str, value: &T) {
    if has_flag("--json") {
        println!(
            "JSON {name} {}",
            serde_json::to_string(value).expect("serializable bench output")
        );
    }
}

/// Renders one formatted table row (right-aligned cells).
pub fn row<D: Display>(cells: &[D], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_values_parse_or_name_the_flag() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        assert_eq!(
            parse_flag::<usize>(&args("x --n 64"), "--n").unwrap(),
            Some(64)
        );
        assert_eq!(parse_flag::<usize>(&args("x --nb 8"), "--n").unwrap(), None);
        for (line, value) in [("x --n abc", "abc"), ("x --n -1", "-1"), ("x --n", "")] {
            let e = parse_flag::<usize>(&args(line), "--n").unwrap_err();
            assert_eq!((e.var, e.value.as_str()), ("--n", value), "{line}");
        }
        let e = parse_flag::<usize>(&args("x --n abc"), "--n").unwrap_err();
        assert_eq!(e.to_string(), r#"invalid --n="abc": expected usize"#);
    }

    #[test]
    fn row_formats_right_aligned() {
        let r = row(&["a", "bb"], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
