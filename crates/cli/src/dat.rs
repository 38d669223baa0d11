//! Parser for the classic `HPL.dat` input file (the Netlib format rocHPL
//! inherits). Each parameter line carries its value(s) in the leading
//! whitespace-separated tokens; the rest of the line is a comment.
//!
//! The subset parsed here is everything this implementation can act on:
//! problem sizes, block sizes, process mapping and grids, the residual
//! threshold, panel-factorization recipe (PFACT/NBMIN/NDIV/RFACT),
//! broadcast algorithm, look-ahead depth and the swap algorithm. The
//! remaining classic knobs (L1/U storage form, equilibration, alignment)
//! are accepted and ignored, like several are in rocHPL itself.

use hpl_comm::{BcastAlgo, GridOrder};
use rhpl_core::{FactVariant, RowSwapAlgo};

/// Everything an `HPL.dat` job sweep describes.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Problem sizes to run.
    pub ns: Vec<usize>,
    /// Block sizes to run.
    pub nbs: Vec<usize>,
    /// Rank-to-grid mapping.
    pub order: GridOrder,
    /// Process grids `(P, Q)` to run.
    pub grids: Vec<(usize, usize)>,
    /// Residual acceptance threshold (classic: 16.0).
    pub threshold: f64,
    /// Panel factorization variants (PFACTs).
    pub pfacts: Vec<FactVariant>,
    /// Recursion stop widths (NBMINs).
    pub nbmins: Vec<usize>,
    /// Recursion subdivisions (NDIVs).
    pub ndivs: Vec<usize>,
    /// Recursive variants (RFACTs) — accepted for sweep accounting; the
    /// recursion itself is right-looking as in the paper's configuration.
    pub rfacts: Vec<FactVariant>,
    /// Broadcast algorithms.
    pub bcasts: Vec<BcastAlgo>,
    /// Look-ahead depths (0 = off, 1 = on).
    pub depths: Vec<usize>,
    /// Row-swap algorithm.
    pub swap: RowSwapAlgo,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            ns: vec![1024],
            nbs: vec![64],
            order: GridOrder::RowMajor,
            grids: vec![(2, 2)],
            threshold: 16.0,
            pfacts: vec![FactVariant::Right],
            nbmins: vec![16],
            ndivs: vec![2],
            rfacts: vec![FactVariant::Right],
            bcasts: vec![BcastAlgo::OneRingM],
            depths: vec![1],
            swap: RowSwapAlgo::Ring,
        }
    }
}

/// A parse failure with the offending (1-based) line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HPL.dat line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Lines<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().collect(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.pos,
            message: message.into(),
        }
    }

    fn next_line(&mut self) -> Result<&'a str, ParseError> {
        let l = self.lines.get(self.pos).copied().ok_or(ParseError {
            line: self.pos + 1,
            message: "unexpected end of file".into(),
        })?;
        self.pos += 1;
        Ok(l)
    }

    /// First `count` whitespace-separated tokens of the next line, parsed.
    fn values<T: std::str::FromStr>(
        &mut self,
        count: usize,
        what: &str,
    ) -> Result<Vec<T>, ParseError> {
        let line = self.next_line()?;
        let toks: Vec<&str> = line.split_whitespace().take(count).collect();
        if toks.len() < count {
            return Err(self.err(format!(
                "expected {count} value(s) for {what}, found {}",
                toks.len()
            )));
        }
        toks.iter()
            .map(|t| {
                t.parse()
                    .map_err(|_| self.err(format!("bad {what} value: {t:?}")))
            })
            .collect()
    }

    fn value<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        Ok(self.values(1, what)?.pop().expect("one value"))
    }

    /// A "# of X" count line followed by a values line.
    fn counted<T: std::str::FromStr>(&mut self, what: &str) -> Result<Vec<T>, ParseError> {
        let count: usize = self.value(&format!("number of {what}"))?;
        if count == 0 || count > 64 {
            return Err(self.err(format!("number of {what} must be in 1..=64, got {count}")));
        }
        self.values(count, what)
    }

    /// Rejects, at the line just read, the first of `vals` that is `bad`;
    /// `rule` says what a good one is.
    fn reject_if(
        &self,
        vals: &[usize],
        bad: impl Fn(usize) -> bool,
        rule: &str,
    ) -> Result<(), ParseError> {
        match vals.iter().find(|&&v| bad(v)) {
            Some(v) => Err(self.err(format!("{rule}, got {v}"))),
            None => Ok(()),
        }
    }
}

fn fact_variant(code: u32, line: usize) -> Result<FactVariant, ParseError> {
    match code {
        0 => Ok(FactVariant::Left),
        1 => Ok(FactVariant::Crout),
        2 => Ok(FactVariant::Right),
        _ => Err(ParseError {
            line,
            message: format!("FACT code must be 0..=2, got {code}"),
        }),
    }
}

fn bcast_algo(code: u32, line: usize) -> Result<BcastAlgo, ParseError> {
    match code {
        0 => Ok(BcastAlgo::OneRing),
        1 => Ok(BcastAlgo::OneRingM),
        2 => Ok(BcastAlgo::TwoRing),
        3 => Ok(BcastAlgo::TwoRingM),
        4 => Ok(BcastAlgo::Long),
        5 => Ok(BcastAlgo::LongM),
        _ => Err(ParseError {
            line,
            message: format!("BCAST code must be 0..=5, got {code}"),
        }),
    }
}

/// Parses the classic `HPL.dat` format.
pub fn parse(text: &str) -> Result<JobSpec, ParseError> {
    let mut l = Lines::new(text);
    // Two header comment lines, output file name, device out.
    l.next_line()?;
    l.next_line()?;
    l.next_line()?;
    l.next_line()?;
    let ns: Vec<usize> = l.counted("problem sizes (Ns)")?;
    l.reject_if(&ns, |n| n == 0, "N must be positive")?;
    let nbs: Vec<usize> = l.counted("block sizes (NBs)")?;
    l.reject_if(&nbs, |nb| nb == 0, "NB must be positive")?;
    let pmap: u32 = l.value("PMAP process mapping")?;
    let order = match pmap {
        0 => GridOrder::RowMajor,
        1 => GridOrder::ColumnMajor,
        _ => return Err(l.err(format!("PMAP must be 0 or 1, got {pmap}"))),
    };
    let ngrids: usize = l.value("number of process grids")?;
    if ngrids == 0 || ngrids > 64 {
        return Err(l.err(format!(
            "number of process grids must be in 1..=64, got {ngrids}"
        )));
    }
    let ps: Vec<usize> = l.values(ngrids, "Ps")?;
    l.reject_if(&ps, |p| p == 0, "P must be positive")?;
    let qs: Vec<usize> = l.values(ngrids, "Qs")?;
    l.reject_if(&qs, |q| q == 0, "Q must be positive")?;
    let threshold: f64 = l.value("threshold")?;
    if !threshold.is_finite() {
        return Err(l.err(format!("threshold must be finite, got {threshold}")));
    }
    let pfact_line = l.pos + 2;
    let pfacts = l
        .counted::<u32>("panel facts (PFACTs)")?
        .into_iter()
        .map(|c| fact_variant(c, pfact_line))
        .collect::<Result<Vec<_>, _>>()?;
    let nbmins: Vec<usize> = l.counted("recursive stopping criteria (NBMINs)")?;
    l.reject_if(&nbmins, |nbmin| nbmin == 0, "NBMIN must be positive")?;
    let ndivs: Vec<usize> = l.counted("panels in recursion (NDIVs)")?;
    l.reject_if(&ndivs, |ndiv| ndiv < 2, "NDIV must be at least 2")?;
    let rfact_line = l.pos + 2;
    let rfacts = l
        .counted::<u32>("recursive panel facts (RFACTs)")?
        .into_iter()
        .map(|c| fact_variant(c, rfact_line))
        .collect::<Result<Vec<_>, _>>()?;
    let bcast_line = l.pos + 2;
    let bcasts = l
        .counted::<u32>("broadcasts (BCASTs)")?
        .into_iter()
        .map(|c| bcast_algo(c, bcast_line))
        .collect::<Result<Vec<_>, _>>()?;
    let depths: Vec<usize> = l.counted("lookahead depths (DEPTHs)")?;
    l.reject_if(&depths, |d| d > 1, "lookahead depth must be 0 or 1")?;
    let swap_code: u32 = l.value("SWAP algorithm")?;
    let swap_threshold: Option<usize> = l.value("swapping threshold").ok();
    let swap = match swap_code {
        0 => RowSwapAlgo::BinaryExchange,
        1 => RowSwapAlgo::Ring,
        2 => RowSwapAlgo::Mix {
            threshold: swap_threshold.unwrap_or(64),
        },
        _ => return Err(l.err(format!("SWAP must be 0..=2, got {swap_code}"))),
    };
    // Remaining classic lines (L1/U forms, equilibration, alignment) are
    // accepted and ignored if present.
    Ok(JobSpec {
        ns,
        nbs,
        order,
        grids: ps.into_iter().zip(qs).collect(),
        threshold,
        pfacts,
        nbmins,
        ndivs,
        rfacts,
        bcasts,
        depths,
        swap,
    })
}

/// A canonical sample `HPL.dat` (used by `rhpl --sample` and the tests).
pub const SAMPLE: &str = "\
HPLinpack benchmark input file
rhpl (Rust reproduction of rocHPL)
HPL.out      output file name (if any)
6            device out (6=stdout,7=stderr,file)
1            # of problems sizes (Ns)
768          Ns
1            # of NBs
32           NBs
1            PMAP process mapping (0=Row-,1=Column-major)
1            # of process grids (P x Q)
2            Ps
2            Qs
16.0         threshold
1            # of panel fact
2            PFACTs (0=left, 1=Crout, 2=Right)
1            # of recursive stopping criterium
16           NBMINs (>= 1)
1            # of panels in recursion
2            NDIVs
1            # of recursive panel fact.
2            RFACTs (0=left, 1=Crout, 2=Right)
1            # of broadcast
1            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)
1            # of lookahead depth
1            DEPTHs (>=0)
1            SWAP (0=bin-exch,1=long,2=mix)
64           swapping threshold
0            L1 in (0=transposed,1=no-transposed) form
0            U  in (0=transposed,1=no-transposed) form
1            Equilibration (0=no,1=yes)
8            memory alignment in double (> 0)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_parses() {
        let j = parse(SAMPLE).expect("sample must parse");
        assert_eq!(j.ns, vec![768]);
        assert_eq!(j.nbs, vec![32]);
        assert_eq!(j.order, GridOrder::ColumnMajor);
        assert_eq!(j.grids, vec![(2, 2)]);
        assert_eq!(j.threshold, 16.0);
        assert_eq!(j.pfacts, vec![FactVariant::Right]);
        assert_eq!(j.nbmins, vec![16]);
        assert_eq!(j.ndivs, vec![2]);
        assert_eq!(j.bcasts, vec![BcastAlgo::OneRingM]);
        assert_eq!(j.depths, vec![1]);
        assert_eq!(j.swap, RowSwapAlgo::Ring);
    }

    #[test]
    fn multiple_values_per_knob() {
        let text = SAMPLE
            .replace(
                "1            # of problems sizes (Ns)\n768          Ns",
                "2            # of problems sizes (Ns)\n512 1024     Ns",
            )
            .replace(
                "1            # of broadcast\n1            BCASTs",
                "3            # of broadcast\n0 4 5        BCASTs",
            );
        let j = parse(&text).unwrap();
        assert_eq!(j.ns, vec![512, 1024]);
        assert_eq!(
            j.bcasts,
            vec![BcastAlgo::OneRing, BcastAlgo::Long, BcastAlgo::LongM]
        );
    }

    #[test]
    fn multiple_grids() {
        let text = SAMPLE.replace(
            "1            # of process grids (P x Q)\n2            Ps\n2            Qs",
            "2            # of process grids (P x Q)\n2 4          Ps\n2 2          Qs",
        );
        let j = parse(&text).unwrap();
        assert_eq!(j.grids, vec![(2, 2), (4, 2)]);
    }

    #[test]
    fn truncated_file_reports_line() {
        let short: String = SAMPLE.lines().take(6).collect::<Vec<_>>().join("\n");
        let e = parse(&short).unwrap_err();
        assert!(e.message.contains("unexpected end of file"), "{e}");
    }

    #[test]
    fn bad_bcast_code_rejected() {
        // HPL.dat defines broadcast codes 0..=5 only.
        for code in [6, 7, 9] {
            let text = SAMPLE.replace(
                "1            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)",
                &format!("{code}            BCASTs"),
            );
            let line = 1 + text.lines().position(|l| l.contains("BCASTs")).unwrap();
            let e = parse(&text).unwrap_err();
            assert_eq!(
                e,
                ParseError {
                    line,
                    message: format!("BCAST code must be 0..=5, got {code}"),
                }
            );
        }
    }

    #[test]
    fn bad_numeric_value_reports_token() {
        let text = SAMPLE.replace("768          Ns", "abc          Ns");
        let e = parse(&text).unwrap_err();
        assert!(e.message.contains("abc"), "{e}");
    }

    #[test]
    fn zero_count_rejected() {
        let text = SAMPLE.replace(
            "1            # of problems sizes (Ns)",
            "0            # of problems sizes (Ns)",
        );
        assert!(parse(&text).is_err());
    }

    /// Every knob the core would reject is a line-numbered parse error.
    #[test]
    fn invalid_knobs_are_typed_rejects() {
        for (line, value, what) in [
            (6, "0", "N must be positive"),
            (8, "0", "NB must be positive"),
            (11, "0", "P must be positive"),
            (12, "0", "Q must be positive"),
            (13, "nan", "threshold must be finite"),
            (13, "inf", "threshold must be finite"),
            (17, "0", "NBMIN must be positive"),
            (19, "1", "NDIV must be at least 2"),
            (19, "0", "NDIV must be at least 2"),
            (25, "2", "lookahead depth must be 0 or 1"),
        ] {
            let mut lines: Vec<String> = SAMPLE.lines().map(str::to_owned).collect();
            lines[line - 1] = format!("{value}            edited");
            let e = parse(&lines.join("\n")).unwrap_err();
            assert_eq!(e.line, line, "{value}: {e}");
            assert!(e.message.contains(what), "{value}: {e}");
        }
    }

    /// Each token of [`SAMPLE`] replaced by each of a set of hostile values,
    /// and [`SAMPLE`] cut after every line: the parser either rejects the
    /// text or yields a sweep whose every configuration the core accepts.
    /// Nothing panics.
    #[test]
    fn hostile_inputs_parse_to_valid_configs_or_errors() {
        let lines: Vec<&str> = SAMPLE.lines().collect();
        let mut cases: Vec<String> = (0..lines.len()).map(|k| lines[..k].join("\n")).collect();
        for (li, line) in lines.iter().enumerate() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            for ti in 0..toks.len() {
                for rep in ["0", "1", "-1", "18446744073709551616", "nan", "abc", ""] {
                    let mut t = toks.clone();
                    t[ti] = rep;
                    let mut l = lines.clone();
                    let edited = t.join(" ");
                    l[li] = &edited;
                    cases.push(l.join("\n"));
                }
            }
        }
        for text in &cases {
            let checked = std::panic::catch_unwind(|| {
                if let Ok(spec) = parse(text) {
                    for (cfg, _depth) in crate::runner::expand(&spec, 42, 0.5, 1) {
                        cfg.validate();
                    }
                }
            });
            assert!(checked.is_ok(), "panicked on:\n{text}");
        }
    }

    #[test]
    fn pmap_row_major() {
        let text = SAMPLE.replace(
            "1            PMAP process mapping (0=Row-,1=Column-major)",
            "0            PMAP process mapping (0=Row-,1=Column-major)",
        );
        assert_eq!(parse(&text).unwrap().order, GridOrder::RowMajor);
    }

    #[test]
    fn swap_bin_exchange() {
        let text = SAMPLE.replace(
            "1            SWAP (0=bin-exch,1=long,2=mix)",
            "0            SWAP",
        );
        assert_eq!(parse(&text).unwrap().swap, RowSwapAlgo::BinaryExchange);
    }

    #[test]
    fn swap_mix_reads_threshold() {
        let text = SAMPLE
            .replace(
                "1            SWAP (0=bin-exch,1=long,2=mix)",
                "2            SWAP",
            )
            .replace(
                "64           swapping threshold",
                "128          swapping threshold",
            );
        assert_eq!(
            parse(&text).unwrap().swap,
            RowSwapAlgo::Mix { threshold: 128 }
        );
    }
}
