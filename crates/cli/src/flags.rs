//! The `rhpl` command line's valued flags, checked where they enter. A
//! value that is missing, does not parse, or is out of range is a
//! [`ConfigError`] naming the flag and the value — the same typed error,
//! and the same exit code 2, as a bad `RHPL_*` variable — never a silent
//! default and never a panic deep inside a rank.

use std::str::FromStr;

use hpl_blas::ElementSel;
use hpl_comm::config::ConfigError;
use rhpl_core::HplConfig;

use crate::dat::JobSpec;

/// The value after flag `key`: `Ok(None)` when the flag is absent, and an
/// error quoting the flag, its value and `expected` when the value is
/// missing, does not parse as `T`, or fails `ok`.
pub fn flag<T: FromStr>(
    args: &[String],
    key: &'static str,
    expected: &'static str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<T>, ConfigError> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let raw = args.get(i + 1);
    match raw.and_then(|v| v.parse::<T>().ok()) {
        Some(v) if ok(&v) => Ok(Some(v)),
        _ => Err(ConfigError {
            var: key,
            value: raw.cloned().unwrap_or_default(),
            expected,
        }),
    }
}

/// A string-valued flag: any value is accepted, only a missing one is not.
pub fn text(args: &[String], key: &'static str) -> Result<Option<String>, ConfigError> {
    flag(args, key, "a value", any)
}

/// Accepts every value that parses.
pub fn any<T>(_: &T) -> bool {
    true
}

fn positive(v: &usize) -> bool {
    *v > 0
}

/// In `[0, 1]`, which NaN is not.
fn in_unit(f: &f64) -> bool {
    (0.0..=1.0).contains(f)
}

/// The valued flags every mode (`rhpl`, `rhpl launch` and its `_rank`
/// children) reads, checked, with their defaults applied.
#[derive(Debug)]
pub struct Flags {
    /// `--split-frac`: the split-update fraction, in `[0, 1]` (default 0.5;
    /// 0 selects plain look-ahead).
    pub split_frac: f64,
    /// `--threads`: FACT threads per rank, at least 1 (default 1).
    pub threads: usize,
    /// `--seed`: the matrix generator seed (default 42).
    pub seed: u64,
    /// `--ckpt-every`: checkpoint period in panel iterations (default 0,
    /// off).
    pub ckpt_every: usize,
    /// `--ckpt-dir`: where checkpoints go on disk.
    pub ckpt_dir: Option<String>,
    /// `--fault-seed`: the fault plan seed; present means a fault run.
    pub fault_seed: Option<u64>,
    /// `--comm-timeout`: per-receive timeout in whole seconds.
    pub comm_timeout: Option<u64>,
    /// `--element`: the pipeline element type (default f64).
    pub element: ElementSel,
    /// `--trace-json`: where to write the phase trace.
    pub trace_json: Option<String>,
}

impl Flags {
    /// Reads and checks every shared valued flag of `args`.
    pub fn parse(args: &[String]) -> Result<Self, ConfigError> {
        let u64_ = "an unsigned 64-bit integer";
        let split_frac = flag(args, "--split-frac", "a fraction in [0, 1]", in_unit)?;
        let threads = flag(args, "--threads", "a whole number of at least 1", positive)?;
        let seed = flag(args, "--seed", u64_, any)?;
        let ckpt_every = flag(args, "--ckpt-every", "a whole number", any)?;
        Ok(Self {
            split_frac: split_frac.unwrap_or(0.5),
            threads: threads.unwrap_or(1),
            seed: seed.unwrap_or(42),
            ckpt_every: ckpt_every.unwrap_or(0),
            ckpt_dir: text(args, "--ckpt-dir")?,
            fault_seed: flag(args, "--fault-seed", u64_, any)?,
            comm_timeout: flag(args, "--comm-timeout", "a whole number of seconds", any)?,
            element: flag(args, "--element", "one of f64, f32", any)?.unwrap_or_default(),
            trace_json: text(args, "--trace-json")?,
        })
    }

    /// The sweep `spec` describes, under these flags.
    pub fn expand(&self, spec: &JobSpec) -> Vec<(HplConfig, usize)> {
        crate::runner::expand(spec, self.seed, self.split_frac, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn defaults_when_absent() {
        let f = Flags::parse(&args("HPL.dat --mxp")).unwrap();
        assert_eq!((f.split_frac, f.threads, f.seed), (0.5, 1, 42));
        assert_eq!(
            (f.ckpt_every, f.fault_seed, f.comm_timeout),
            (0, None, None)
        );
        assert_eq!(f.element, ElementSel::F64);
    }

    #[test]
    fn values_parse() {
        let f = Flags::parse(&args(
            "x --split-frac 0 --threads 3 --seed 7 --fault-seed 9 --trace-json t.json \
             --element f32",
        ))
        .unwrap();
        assert_eq!(f.element, ElementSel::F32);
        assert_eq!((f.split_frac, f.threads, f.seed), (0.0, 3, 7));
        assert_eq!(f.fault_seed, Some(9));
        assert_eq!(f.trace_json.as_deref(), Some("t.json"));
    }

    #[test]
    fn garbage_names_flag_and_value() {
        for (line, key, value) in [
            ("--seed -1", "--seed", "-1"),
            (
                "--seed 18446744073709551616",
                "--seed",
                "18446744073709551616",
            ),
            ("--threads 0", "--threads", "0"),
            ("--threads two", "--threads", "two"),
            ("--split-frac nan", "--split-frac", "nan"),
            ("--split-frac 1.5", "--split-frac", "1.5"),
            ("--split-frac -0.1", "--split-frac", "-0.1"),
            ("--ckpt-every x", "--ckpt-every", "x"),
            ("--comm-timeout 1s", "--comm-timeout", "1s"),
            ("--element f16", "--element", "f16"),
            ("--trace-json", "--trace-json", ""),
        ] {
            let e = Flags::parse(&args(line)).unwrap_err();
            assert_eq!((e.var, e.value.as_str()), (key, value), "{line}");
        }
    }
}
