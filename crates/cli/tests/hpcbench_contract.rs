//! The external contract of `rhpl`'s stdout: result scrapers written for
//! classic HPL must work on it unchanged. hpcbench's `HPLExtractor`
//! (BlueBrain/hpcbench, `benchmark/hpl.py`; both revisions in SNIPPETS.md
//! carry the same two expressions) skips stdout up to the classic `T/V`
//! header line (`STDOUT_IGNORE_PRIOR`, matched after `strip()`), then pulls
//! the score out with a `flops` regex and the residual with a `precision`
//! regex. All three are run here, verbatim, against what the real binary
//! prints for the classic and the `--mxp` benchmark.
//!
//! The workspace has no regex crate, so [`Regex`] is a backtracking matcher
//! for the subset those two expressions use: literals and `\`-escapes,
//! `\d \w \s \S`, `.`, `[...]` classes, `+`/`*`, capture groups, a leading
//! `^`, and Python's `search` semantics.

use std::process::Command;

/// hpcbench's `STDOUT_IGNORE_PRIOR`: nothing before this line is read.
const IGNORE_PRIOR: &str =
    "T/V                N    NB     P     Q               Time                 Gflops";
/// hpcbench's `flops` expression.
const FLOPS: &str =
    r"^[\w]+[\s]+([\d]+)[\s]+([\d]+)[\s]+([\d]+)[\s]+([\d]+)[\s]+([\d.]+)[\s]+([\d.]+e[+-][\d]+)";
/// The literal hpcbench `re.escape`s in front of [`PRECISION_TAIL`].
const PRECISION_FORMULA: &str = "||Ax-b||_oo/(eps*(||A||_oo*||x||_oo+||b||_oo)*N)";
/// The rest of hpcbench's `precision` expression.
const PRECISION_TAIL: &str = r"=\s*(\S*)\s.*\s([A-Z]*)";

/// One character test.
enum Set {
    Any,
    Lit(char),
    Digit,
    Word,
    Space,
    NonSpace,
    Range(char, char),
    OneOf(Vec<Set>),
}

impl Set {
    fn has(&self, c: char) -> bool {
        match self {
            Set::Any => true,
            Set::Lit(l) => c == *l,
            Set::Digit => c.is_ascii_digit(),
            Set::Word => c.is_alphanumeric() || c == '_',
            Set::Space => c.is_whitespace(),
            Set::NonSpace => !c.is_whitespace(),
            Set::Range(a, b) => (*a..=*b).contains(&c),
            Set::OneOf(sets) => sets.iter().any(|s| s.has(c)),
        }
    }
}

enum Node {
    /// `min` or more characters of the set, greedy.
    Chars {
        set: Set,
        min: usize,
        many: bool,
    },
    Open,
    Close,
}

struct Regex {
    anchored: bool,
    nodes: Vec<Node>,
}

impl Regex {
    fn new(pattern: &str) -> Self {
        let mut chars = pattern.chars().peekable();
        let anchored = chars.next_if_eq(&'^').is_some();
        let mut nodes = Vec::new();
        let escape = |c: char| match c {
            'd' => Set::Digit,
            'w' => Set::Word,
            's' => Set::Space,
            'S' => Set::NonSpace,
            other => Set::Lit(other),
        };
        while let Some(c) = chars.next() {
            let set = match c {
                '(' => {
                    nodes.push(Node::Open);
                    continue;
                }
                ')' => {
                    nodes.push(Node::Close);
                    continue;
                }
                '.' => Set::Any,
                '\\' => escape(chars.next().expect("dangling escape")),
                '[' => {
                    let mut members = Vec::new();
                    loop {
                        let m = match chars.next().expect("unterminated class") {
                            ']' => break,
                            '\\' => escape(chars.next().expect("dangling escape")),
                            a if chars.peek() == Some(&'-') => {
                                chars.next();
                                match chars.next_if(|&b| b != ']') {
                                    Some(b) => Set::Range(a, b),
                                    None => {
                                        // `[+-]`: a trailing `-` is a literal.
                                        members.push(Set::Lit(a));
                                        Set::Lit('-')
                                    }
                                }
                            }
                            a => Set::Lit(a),
                        };
                        members.push(m);
                    }
                    Set::OneOf(members)
                }
                lit => Set::Lit(lit),
            };
            let (min, many) = match chars.peek() {
                Some('+') => (1, true),
                Some('*') => (0, true),
                _ => (1, false),
            };
            if many {
                chars.next();
            }
            nodes.push(Node::Chars { set, min, many });
        }
        Self { anchored, nodes }
    }

    /// `re.escape(literal) + tail`.
    fn literal_then(literal: &str, tail: &str) -> Self {
        let escaped: String = literal
            .chars()
            .flat_map(|c| {
                if c.is_alphanumeric() {
                    vec![c]
                } else {
                    vec!['\\', c]
                }
            })
            .collect();
        Self::new(&(escaped + tail))
    }

    /// Python's `regex.search(text)`: the capture groups of the leftmost
    /// match.
    fn search(&self, text: &str) -> Option<Vec<String>> {
        let text: Vec<char> = text.chars().collect();
        let starts = if self.anchored { 0 } else { text.len() };
        (0..=starts).find_map(|at| {
            let mut spans = Vec::new();
            self.step(0, &text, at, &mut spans).then(|| {
                spans
                    .chunks(2)
                    .map(|s| text[s[0]..s[1]].iter().collect())
                    .collect()
            })
        })
    }

    /// Matches `nodes[ni..]` at `text[at..]`, recording group boundaries.
    fn step(&self, ni: usize, text: &[char], at: usize, spans: &mut Vec<usize>) -> bool {
        let Some(node) = self.nodes.get(ni) else {
            return true;
        };
        match node {
            Node::Open | Node::Close => {
                spans.push(at);
                if self.step(ni + 1, text, at, spans) {
                    return true;
                }
                spans.pop();
                false
            }
            Node::Chars { set, min, many } => {
                let avail = text[at..].iter().take_while(|&&c| set.has(c)).count();
                let max = if *many { avail } else { avail.min(1) };
                (*min..=max)
                    .rev()
                    .any(|take| self.step(ni + 1, text, at + take, spans))
            }
        }
    }
}

/// Runs `rhpl` on a small 2x2 sweep (the sample input at N=160) and returns
/// its stdout.
fn rhpl_stdout(extra: &[&str]) -> String {
    let rhpl = env!("CARGO_BIN_EXE_rhpl");
    let sample = Command::new(rhpl)
        .arg("--sample")
        .output()
        .expect("spawn rhpl --sample");
    let dat = String::from_utf8(sample.stdout)
        .expect("utf-8")
        .replacen("768", "160", 1);
    let path = std::env::temp_dir().join(format!(
        "rhpl-hpcbench-{}-{}.dat",
        std::process::id(),
        extra.len()
    ));
    std::fs::write(&path, dat).expect("write HPL.dat");
    let out = Command::new(rhpl)
        .arg(&path)
        .args(extra)
        .output()
        .expect("spawn rhpl");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8")
}

/// What hpcbench's `extract` does: skip lines until one strips to
/// [`IGNORE_PRIOR`], then strip each following line and try both
/// expressions. Returns `(flops captures, precision captures)` per result.
fn extract(stdout: &str) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
    let flops = Regex::new(FLOPS);
    let precision = Regex::literal_then(PRECISION_FORMULA, PRECISION_TAIL);
    let (mut f, mut p) = (Vec::new(), Vec::new());
    let mut lines = stdout.lines();
    for line in lines.by_ref() {
        if line.trim() == IGNORE_PRIOR {
            break;
        }
    }
    for line in lines.map(str::trim) {
        f.extend(flops.search(line));
        p.extend(precision.search(line));
    }
    (f, p)
}

fn check(stdout: &str) {
    let (flops, precision) = extract(stdout);
    assert!(!flops.is_empty(), "no flops line matched in:\n{stdout}");
    assert_eq!(
        flops.len(),
        precision.len(),
        "one precision line per result in:\n{stdout}"
    );
    for (f, p) in flops.iter().zip(&precision) {
        // size_n, size_nb, size_p, size_q, time, flops — as hpcbench casts them.
        assert_eq!(f[0].parse::<u64>(), Ok(160), "{f:?}");
        assert_eq!(f[1].parse::<u64>(), Ok(32), "{f:?}");
        assert_eq!((f[2].as_str(), f[3].as_str()), ("2", "2"), "{f:?}");
        assert!(f[4].parse::<f64>().is_ok(), "{f:?}");
        let gflops: f64 = f[5].parse().expect("flops group is a float");
        assert!(gflops > 0.0, "{f:?}");
        let exp = f[5].split_once('e').expect("matched `e[+-]\\d+`").1;
        assert!(exp.len() >= 3, "signed two-digit exponent, got {}", f[5]);
        assert!(p[0].parse::<f64>().expect("precision group is a float") < 16.0);
        assert_eq!(p[1], "PASSED", "{p:?}");
    }
}

#[test]
fn the_matcher_agrees_with_python_on_classic_hpl_output() {
    // Lines from a netlib HPL 2.3 run, and what `re` captures from them.
    let row = "WR11C2R4       29184   192     2     2              34.13             4.8559e+02";
    let caps = Regex::new(FLOPS).search(row).expect("classic row matches");
    assert_eq!(caps, ["29184", "192", "2", "2", "34.13", "4.8559e+02"]);
    let res = "||Ax-b||_oo/(eps*(||A||_oo*||x||_oo+||b||_oo)*N)=   1.61e-03 ...... PASSED";
    let precision = Regex::literal_then(PRECISION_FORMULA, PRECISION_TAIL);
    assert_eq!(
        precision.search(res).expect("matches"),
        ["1.61e-03", "PASSED"]
    );
    // Nothing before the header is read.
    let out = format!("{row}\n{IGNORE_PRIOR}\n");
    assert_eq!(extract(&out), (vec![], vec![]));
    let out = format!("{IGNORE_PRIOR}\n{row}\n{res}\n");
    assert_eq!(extract(&out).0.len(), 1);
    // Rust's bare `{:e}` exponent is what the contract rules out.
    assert!(Regex::new(FLOPS)
        .search(&row.replace("e+02", "e2"))
        .is_none());
    assert!(Regex::new(FLOPS).search(&format!("  {row}")).is_none(), "^");
}

#[test]
fn hpcbench_extracts_the_classic_benchmark() {
    check(&rhpl_stdout(&[]));
}

#[test]
fn hpcbench_extracts_the_mxp_benchmark() {
    let stdout = rhpl_stdout(&["--mxp"]);
    check(&stdout);
    // The HPL-MxP lines carry the same exponent form.
    for line in stdout.lines().filter(|l| l.ends_with("GFLOPS")) {
        let rate = line.split_whitespace().rev().nth(1).expect("rate column");
        let exp = rate.split_once('e').expect("scientific").1;
        assert!(exp.starts_with(['+', '-']) && exp.len() >= 3, "{line}");
    }
}
