//! Classic HPL output formatting: the banner, the `T/V  N  NB  P  Q  Time
//! Gflops` table and the residual line, byte-layout-compatible with what
//! `xhpl`/rocHPL print.

use crate::runner::RunRecord;

/// The run banner.
pub fn banner(ranks: usize) -> String {
    let mut s = String::new();
    s.push_str(&"=".repeat(80));
    s.push('\n');
    s.push_str("rhpl — High-Performance Linpack for Accelerated Architectures (Rust)\n");
    s.push_str("A reproduction of rocHPL (Chalmers et al., SC 2023) on a thread-backed\n");
    s.push_str("message-passing substrate.\n");
    s.push_str(&format!("Running on {ranks} rank(s)\n"));
    // The tier `simd` resolved to on this host; results are keyed by the
    // kernel's name alone, which is all their bits depend on.
    let kernel = hpl_blas::kernels::active().describe();
    s.push_str(&format!("DGEMM kernel: {kernel}\n"));
    s.push_str(&"=".repeat(80));
    s.push('\n');
    s
}

/// The result-table header. Its `T/V` line is classic HPL's byte for byte:
/// result scrapers skip everything before it (hpcbench's
/// `STDOUT_IGNORE_PRIOR`), so it is part of the external contract.
pub fn table_header() -> String {
    format!(
        "{}\n{:<8}{:>12}{:>6}{:>6}{:>6}{:>19}{:>23}\n{}\n",
        "=".repeat(80),
        "T/V",
        "N",
        "NB",
        "P",
        "Q",
        "Time",
        "Gflops",
        "-".repeat(80)
    )
}

/// `v` the way C's `%.4e` prints it — signed, at least two exponent digits
/// (`1.0559e+01`) — which is what classic HPL prints and what result
/// scrapers match (hpcbench: `[\d.]+e[+-][\d]+`). Rust's `{:.4e}` prints
/// `1.0559e1`.
fn sci(v: f64) -> String {
    let s = format!("{v:.4e}");
    let (mantissa, exp) = s.split_once('e').expect("`{:e}` always prints an exponent");
    let exp: i32 = exp.parse().expect("`{:e}` prints a decimal exponent");
    let sign = if exp < 0 { '-' } else { '+' };
    format!("{mantissa}e{sign}{:02}", exp.abs())
}

/// One result row plus its residual line. An `--mxp` record additionally
/// gets the HPL-MxP summary block: the rate of the clock up to the first
/// sweep (generation, f32 factorization, initial solve), the sweep count,
/// and the mixed-precision score — the second benchmark's classic
/// output riding under the first's table row.
pub fn format_record(r: &RunRecord) -> String {
    let mut s = format!(
        "{:<8}{:>12}{:>6}{:>6}{:>6}{:>19.2}{:>23}\n",
        r.tv,
        r.cfg.n,
        r.cfg.nb,
        r.cfg.p,
        r.cfg.q,
        r.time,
        sci(r.gflops)
    );
    s.push_str(&format!(
        "||Ax-b||_oo/(eps*(||A||_oo*||x||_oo+||b||_oo)*N)= {:>18.7} ...... {}\n",
        r.residual,
        if r.passed { "PASSED" } else { "FAILED" }
    ));
    if let Some(m) = &r.mxp {
        let first = m.history.first().copied().unwrap_or(0.0);
        let last = m.history.last().copied().unwrap_or(0.0);
        s.push_str(&format!(
            "HPL-MxP: {} factorization {:>10.2} sec {:>14} GFLOPS\n",
            r.element,
            m.fact_seconds,
            sci(m.fact_gflops)
        ));
        s.push_str(&format!(
            "HPL-MxP: {} refinement sweep(s), scaled residual {} -> {}\n",
            m.sweeps,
            sci(first),
            sci(last)
        ));
        s.push_str(&format!(
            "HPL-MxP: mixed-precision performance {:>10.2} sec {:>14} GFLOPS\n",
            r.time,
            sci(r.gflops)
        ));
    }
    s
}

/// The closing summary.
pub fn footer(total: usize, failed: usize) -> String {
    format!(
        "{}\nFinished {:>6} tests with the following results:\n\
         {:>12} tests completed and passed residual checks,\n\
         {:>12} tests completed and failed residual checks.\n{}\nEnd of Tests.\n{}\n",
        "=".repeat(80),
        total,
        total - failed,
        failed,
        "-".repeat(80),
        "=".repeat(80)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhpl_core::HplConfig;

    fn record() -> RunRecord {
        RunRecord {
            cfg: HplConfig::new(768, 32, 2, 2),
            tv: "WC112R16".into(),
            time: 1.23,
            gflops: 2.5,
            residual: 0.0051561,
            passed: true,
            retries: 0,
            recoveries: 0,
            element: "f64",
            x_hash: 0,
            mxp: None,
            traces: Vec::new(),
        }
    }

    #[test]
    fn record_line_layout() {
        let s = format_record(&record());
        let first = s.lines().next().unwrap();
        assert!(first.starts_with("WC112R16"));
        assert!(first.contains("768"));
        assert!(first.contains("32"));
        assert!(s.contains("PASSED"));
        assert!(s.contains("||Ax-b||_oo"));
    }

    #[test]
    fn exponents_print_as_classic_hpl_does() {
        assert_eq!(sci(10.559), "1.0559e+01");
        assert_eq!(sci(2.5), "2.5000e+00");
        assert_eq!(sci(0.004), "4.0000e-03");
        assert_eq!(sci(1.96e112), "1.9600e+112");
        assert_eq!(sci(0.0), "0.0000e+00");
        let row = format_record(&record());
        assert!(row.lines().next().unwrap().ends_with(" 2.5000e+00"));
    }

    #[test]
    fn header_is_classic_hpl_byte_for_byte() {
        let h = table_header();
        assert_eq!(
            h.lines().nth(1).unwrap(),
            "T/V                N    NB     P     Q               Time                 Gflops"
        );
        // A netlib HPL 2.3 row, reproduced from its fields.
        let mut r = record();
        (r.tv, r.cfg.n, r.cfg.nb, r.time, r.gflops) =
            ("WR11C2R4".into(), 29184, 192, 34.13, 485.59);
        assert_eq!(
            format_record(&r).lines().next().unwrap(),
            "WR11C2R4       29184   192     2     2              34.13             4.8559e+02"
        );
    }

    #[test]
    fn header_columns_align_with_rows() {
        let h = table_header();
        let header_line = h.lines().nth(1).unwrap();
        let row = format_record(&record());
        let row_line = row.lines().next().unwrap();
        // N column right edges line up.
        let hn = header_line.find(" N").map(|i| i + 2).unwrap();
        assert_eq!(&row_line[hn - 3..hn], "768");
    }

    #[test]
    fn mxp_record_appends_summary_block() {
        let mut r = record();
        r.element = "f32";
        r.mxp = Some(crate::runner::MxpStats {
            sweeps: 3,
            fact_seconds: 0.62,
            fact_gflops: 5.0,
            history: vec![120.0, 1.5, 0.02, 0.004],
        });
        let s = format_record(&r);
        assert!(s.contains("HPL-MxP: f32 factorization"));
        assert!(s.contains("3 refinement sweep(s)"));
        assert!(s.contains("mixed-precision performance"));
        // The classic residual line stays — both benchmarks' output.
        assert!(s.contains("||Ax-b||_oo"));
        // A plain record prints no MxP block.
        assert!(!format_record(&record()).contains("HPL-MxP"));
    }

    #[test]
    fn footer_counts() {
        let f = footer(5, 1);
        assert!(f.contains("5 tests"));
        assert!(f.contains("4 tests completed and passed"));
        assert!(f.contains("1 tests completed and failed"));
    }
}
