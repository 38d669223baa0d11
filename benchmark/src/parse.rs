//! Parser for `rhpl`'s standard output — the classic HPL `T/V` result row
//! and residual line, which are the program's external contract.
//!
//! The `Time` column prints two decimals, too coarse for a 0.2 s run, so it
//! is never read: the HPL clock is derived from the `Gflops` column and the
//! HPL flop count. `Gflops` is accepted both as rhpl prints it
//! (`1.2928e1`) and in the classic HPL form (`1.2928e+01`).

/// What one `rhpl` invocation reported about its (single) combination.
#[derive(Clone, Debug, PartialEq)]
pub struct Score {
    /// Problem size from the `T/V` row.
    pub n: usize,
    /// The `Gflops` column.
    pub gflops: f64,
    /// Whether the residual line ends in `PASSED`.
    pub passed: bool,
    /// The `HPL-MxP:` block, present on `--mxp` runs.
    pub mxp: Option<MxpScore>,
}

/// The mixed-precision extras of an `--mxp` run.
#[derive(Clone, Debug, PartialEq)]
pub struct MxpScore {
    /// GFLOPS over the f32 factorization alone.
    pub fact_gflops: f64,
    /// Refinement sweeps to double accuracy.
    pub sweeps: u64,
}

/// HPL's operation count for an `n x n` solve.
pub fn hpl_flops(n: usize) -> f64 {
    let n = n as f64;
    2.0 / 3.0 * n * n * n + 1.5 * n * n
}

impl Score {
    /// Seconds on the HPL clock, derived from the score.
    pub fn clock_s(&self) -> f64 {
        hpl_flops(self.n) / (self.gflops * 1e9)
    }
}

/// Parses `rhpl` stdout. A missing or malformed result row, or a missing
/// residual line, is an error; a `FAILED` residual is a parsed score with
/// `passed == false`.
pub fn parse_stdout(text: &str) -> Result<Score, String> {
    let mut row: Option<(usize, f64)> = None;
    let mut passed: Option<bool> = None;
    let mut fact_gflops = None;
    let mut sweeps = None;
    for line in text.lines() {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with('W') && cols.len() == 7 {
            let n = cols[1].parse::<usize>();
            let gflops = cols[6].parse::<f64>();
            match (n, gflops) {
                (Ok(n), Ok(g)) if g.is_finite() && g > 0.0 && n > 0 => row = Some((n, g)),
                _ => return Err(format!("malformed T/V row: {line:?}")),
            }
        } else if line.starts_with("||Ax-b||_oo/(eps*") {
            passed = match cols.last() {
                Some(&"PASSED") => Some(true),
                Some(&"FAILED") => Some(false),
                _ => return Err(format!("malformed residual line: {line:?}")),
            };
        } else if let Some(rest) = line.strip_prefix("HPL-MxP:") {
            let rest: Vec<&str> = rest.split_whitespace().collect();
            if rest.get(1) == Some(&"factorization") && rest.last() == Some(&"GFLOPS") {
                fact_gflops = rest.get(rest.len() - 2).and_then(|v| v.parse::<f64>().ok());
            } else if rest.get(1) == Some(&"refinement") {
                sweeps = rest.first().and_then(|v| v.parse::<u64>().ok());
            }
        }
    }
    let (n, gflops) = row.ok_or("no T/V result row in rhpl output")?;
    let passed = passed.ok_or("no residual line in rhpl output")?;
    let mxp = match (fact_gflops, sweeps) {
        (Some(fact_gflops), Some(sweeps)) => Some(MxpScore {
            fact_gflops,
            sweeps,
        }),
        _ => None,
    };
    Ok(Score {
        n,
        gflops,
        passed,
        mxp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const F64_OUT: &str = include_str!("../fixtures/rhpl_f64.txt");
    const MXP_OUT: &str = include_str!("../fixtures/rhpl_mxp.txt");

    #[test]
    fn parses_captured_f64_output() {
        let s = parse_stdout(F64_OUT).expect("fixture parses");
        assert_eq!(s.n, 3072);
        assert!(s.passed);
        assert!(s.mxp.is_none());
        assert!(s.gflops > 1.0 && s.gflops < 1000.0);
        // The derived clock agrees with the two-decimal Time column.
        let row = F64_OUT.lines().find(|l| l.starts_with('W')).unwrap();
        let time: f64 = row.split_whitespace().nth(5).unwrap().parse().unwrap();
        assert!(
            (s.clock_s() - time).abs() <= 0.006,
            "{} vs {time}",
            s.clock_s()
        );
    }

    #[test]
    fn parses_captured_mxp_output() {
        let s = parse_stdout(MXP_OUT).expect("fixture parses");
        let mxp = s.mxp.expect("mxp block");
        assert_eq!(mxp.sweeps, 2);
        assert!(mxp.fact_gflops > s.gflops);
        assert!(s.passed);
    }

    #[test]
    fn accepts_classic_hpl_exponent_form() {
        let ours = parse_stdout(F64_OUT).unwrap();
        let row = F64_OUT.lines().find(|l| l.starts_with('W')).unwrap();
        let g = row.split_whitespace().last().unwrap();
        let (mant, exp) = g.split_once('e').unwrap();
        let classic = format!("{mant}e+{:02}", exp.parse::<i32>().unwrap());
        assert_ne!(classic, g);
        let theirs = parse_stdout(&F64_OUT.replace(g, &classic)).unwrap();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn failed_residual_is_a_score_not_an_error() {
        let s = parse_stdout(&F64_OUT.replace("PASSED", "FAILED")).unwrap();
        assert!(!s.passed);
    }

    #[test]
    fn missing_lines_are_errors() {
        let no_row: String = F64_OUT
            .lines()
            .filter(|l| !l.starts_with('W'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse_stdout(&no_row).unwrap_err().contains("T/V"));
        let no_resid: String = F64_OUT
            .lines()
            .filter(|l| !l.starts_with("||Ax-b||"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse_stdout(&no_resid).unwrap_err().contains("residual"));
        assert!(parse_stdout("").is_err());
        assert!(parse_stdout(&F64_OUT.replace("PASSED", "maybe")).is_err());
    }

    #[test]
    fn flop_count_is_the_hpl_formula() {
        assert_eq!(hpl_flops(3), 2.0 / 3.0 * 27.0 + 13.5);
    }
}
