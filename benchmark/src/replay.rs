//! The traced side of a workload: reading `rhpl --trace-json`, counting
//! messages with the crates' own `CommStats`, and the layer replay whose
//! spans are recorded here, in the harness, around the calls into each
//! layer.

use std::fmt::Write as _;
use std::time::Instant;

use hpl_comm::{FabricOpts, Grid, GridOrder, Universe, WireElem};
use hpl_threads::Pool;
use rhpl_core::config::Schedule;
use rhpl_core::fact::{panel_factor, FactInput};
use rhpl_core::panel::{host_view, lbcast, pack_panel, panel_from_host, panel_to_host, PanelGeom};
use rhpl_core::swap::{row_swap, ColRange, SwapPlan};
use rhpl_core::update::{gemm_update, solve_u, store_u};
use rhpl_core::{back_substitute, factorize, HplConfig, LocalMatrix, MatGen, RowSwapAlgo};

use crate::workload::{fact_opts, Workload, BCAST};

/// What `rhpl --trace-json` says about its run.
pub struct TracedRun {
    /// HPL clock of the traced run, seconds.
    pub clock_s: f64,
    /// Critical-path nanoseconds per phase, by `phase_totals` key.
    pub phase_ns: Vec<(String, f64)>,
    /// Payload bytes the trace attributes to spans (`elems * 8` whatever
    /// the element type; the busiest rank).
    pub traced_bytes: f64,
}

impl TracedRun {
    /// Nanoseconds of one phase (`fact`, `update`, ...).
    pub fn phase(&self, name: &str) -> f64 {
        let key = format!("{name}_ns");
        self.phase_ns
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Share of the clock spent in `name`.
    pub fn share(&self, name: &str) -> f64 {
        self.phase(name) / (self.clock_s * 1e9)
    }

    /// Phase sum over the clock. `fact_comm` and `fault` are nested inside
    /// other phases' spans (see `hpl_trace::report::PhaseTotals::total_ns`)
    /// and are not added.
    pub fn coverage(&self) -> f64 {
        self.phase_ns
            .iter()
            .filter(|(k, _)| k != "fact_comm_ns" && k != "fault_ns")
            .map(|&(_, v)| v)
            .sum::<f64>()
            / (self.clock_s * 1e9)
    }
}

/// What follows `"key" :` in `text`, whitespace around the colon skipped.
fn json_value<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let rest = text[text.find(&quoted)? + quoted.len()..].trim_start();
    Some(rest.strip_prefix(':')?.trim_start())
}

/// The number that is the value of `key` in `text`.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let rest = json_value(text, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first run's clock and `phase_totals` from an
/// `rhpl-bench-v1` file, however the writer spaces it.
pub fn parse_trace_json(text: &str) -> Result<TracedRun, String> {
    let clock_s = json_number(text, "wall_seconds").ok_or("trace file has no wall_seconds")?;
    let body = json_value(text, "phase_totals")
        .and_then(|v| v.strip_prefix('{'))
        .ok_or("trace file has no phase_totals")?;
    let body = &body[..body.find('}').ok_or("phase_totals does not close")?];
    let mut phase_ns = Vec::new();
    let mut traced_bytes = 0.0;
    for pair in body.split(',') {
        let (key, value) = pair.split_once(':').ok_or("malformed phase_totals")?;
        let key = key.trim().trim_matches('"');
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("phase_totals.{key} is not a number"))?;
        if key == "bytes" {
            traced_bytes = value;
        } else {
            phase_ns.push((key.to_string(), value));
        }
    }
    // `<= 0.0` alone would let a NaN clock through.
    if clock_s.is_nan() || clock_s <= 0.0 || phase_ns.is_empty() {
        return Err("trace file carries no timings".into());
    }
    Ok(TracedRun {
        clock_s,
        phase_ns,
        traced_bytes,
    })
}

/// The configuration `rhpl` builds from `w`'s HPL.dat and flags.
fn hpl_config(w: &Workload, seed: u64) -> HplConfig {
    let mut cfg = HplConfig::new(w.n, w.nb, w.p, w.q);
    cfg.seed = seed;
    cfg.order = GridOrder::ColumnMajor;
    cfg.bcast = BCAST;
    cfg.swap = RowSwapAlgo::Ring;
    cfg.fact = fact_opts(w.threads);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg
}

/// Messages and computed payload bytes of one factorization + solve of
/// `w`, summed over ranks and over the world, row and column communicators
/// (`CommStats` counts; bytes are elements sent times the element size).
pub fn comm_counts(w: &Workload, seed: u64) -> Result<(u64, u64), String> {
    fn run<E: WireElem>(w: &Workload, seed: u64) -> Result<(u64, u64), String> {
        let cfg = hpl_config(w, seed);
        let gen = MatGen::new(seed, w.n);
        let ranks = w.p * w.q;
        let per_rank = Universe::run_with_transport(ranks, w.transport, FabricOpts::default(), {
            |comm| -> Result<(u64, u64), String> {
                let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
                let out = factorize::<E>(&grid, &cfg, &|i, j| gen.entry(i, j))
                    .map_err(|e| e.to_string())?;
                back_substitute(&out.a, &grid, cfg.nb).map_err(|e| e.to_string())?;
                let mut total = (0, 0);
                for c in [grid.world(), grid.row(), grid.col()] {
                    let (msgs, elems) = c.stats().snapshot();
                    total.0 += msgs;
                    total.1 += elems * std::mem::size_of::<E>() as u64;
                }
                Ok(total)
            }
        });
        per_rank
            .into_iter()
            .try_fold((0, 0), |acc, r| r.map(|(m, b)| (acc.0 + m, acc.1 + b)))
    }
    if w.mxp {
        run::<f32>(w, seed)
    } else {
        run::<f64>(w, seed)
    }
}

/// One harness span: a call into a layer, or the iteration around them.
pub struct SpanRec {
    /// Layer-qualified name (`core.panel_factor`, `blas.dgemm`, ...).
    pub name: &'static str,
    /// Workload the span belongs to — the identifier its spans share.
    pub workload: &'static str,
    /// Rank that recorded it.
    pub rank: usize,
    /// Index of the enclosing span among this rank's spans of the replay.
    pub parent: Option<usize>,
    /// Nanoseconds since the replay's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the replay's epoch.
    pub end_ns: u64,
}

/// One rank's span stack during a replay.
struct Recorder {
    epoch: Instant,
    workload: &'static str,
    rank: usize,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(SpanRec {
            name,
            workload: self.workload,
            rank: self.rank,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time per span name (duration minus the part covered by child
/// spans), seconds, over one rank's spans.
pub fn self_times(spans: &[SpanRec]) -> Vec<(&'static str, f64)> {
    let mut own: Vec<f64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
    }
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some(slot) => slot.1 += t,
            None => by_name.push((s.name, t)),
        }
    }
    by_name
}

/// The layer replay of one workload.
pub struct Replay {
    /// Every rank's spans, rank by rank.
    pub spans: Vec<Vec<SpanRec>>,
    /// Iterations replayed.
    pub sampled: usize,
    /// Iterations of the real run.
    pub iterations: usize,
}

impl Replay {
    /// Replayed time scaled to the whole run, seconds: matrix generation
    /// (inside the HPL clock) once, plus the sampled iterations, each
    /// standing for `iterations / sampled` of them; the slowest rank counts.
    pub fn scaled_total_s(&self) -> f64 {
        let scale = self.iterations as f64 / self.sampled as f64;
        let total = |rank: &[SpanRec], name: &str| {
            rank.iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                .sum::<f64>()
        };
        self.spans
            .iter()
            .map(|rank| total(rank, "core.generate") + scale * total(rank, "iteration"))
            .fold(0.0, f64::max)
    }
}

/// Replays up to eight evenly spaced iterations of `w` at their real
/// shapes (N, NB, grid, FACT threads, element, transport): `panel_factor`,
/// the panel broadcast, `row_swap`, `dtrsm` and `dgemm`, each inside a
/// harness span. The matrix is the seeded one, not the partially factored
/// one a real run would hold at iteration k: shapes and data motion are
/// real, values are not.
pub fn replay(w: &'static Workload, seed: u64) -> Result<Replay, String> {
    fn run<E: WireElem>(w: &'static Workload, seed: u64) -> Result<Replay, String> {
        let iterations = w.iterations();
        let sampled = iterations.min(8);
        let epoch = Instant::now();
        let ranks = w.p * w.q;
        let per_rank = Universe::run_with_transport(ranks, w.transport, FabricOpts::default(), {
            |comm| -> Result<Vec<SpanRec>, String> {
                let rank = comm.rank();
                let grid = Grid::new(comm, w.p, w.q, GridOrder::ColumnMajor);
                let pool = Pool::new(w.threads);
                let mut rec = Recorder {
                    epoch,
                    workload: w.name,
                    rank,
                    spans: Vec::new(),
                    open: Vec::new(),
                };
                let mut a = rec.span("core.generate", |_| {
                    LocalMatrix::<E>::generate(w.n, w.nb, &grid, seed)
                });
                for i in 0..sampled {
                    // Midpoints of `sampled` equal slices of the iteration
                    // range: an unbiased sample of a cost that shrinks with k.
                    let it = (2 * i + 1) * iterations / (2 * sampled);
                    rec.span("iteration", |rec| {
                        iteration(rec, w, &grid, &pool, &mut a, it)
                    })?;
                }
                Ok(rec.spans)
            }
        });
        Ok(Replay {
            spans: per_rank.into_iter().collect::<Result<_, _>>()?,
            sampled,
            iterations,
        })
    }
    if w.mxp {
        run::<f32>(w, seed)
    } else {
        run::<f64>(w, seed)
    }
}

/// One replayed iteration: the simple schedule's sequence of layer calls.
fn iteration<E: WireElem>(
    rec: &mut Recorder,
    w: &Workload,
    grid: &Grid,
    pool: &Pool,
    a: &mut LocalMatrix<E>,
    it: usize,
) -> Result<(), String> {
    let k0 = it * w.nb;
    let jb = w.nb.min(w.n - k0);
    let geom = PanelGeom::new(a, grid, k0, jb);
    let packed = if geom.in_panel_col {
        let mut host = panel_to_host(a, &geom);
        let inp = FactInput {
            col_comm: grid.col(),
            rows: a.rows,
            k0,
            jb,
            lb: geom.lb,
            is_curr: geom.in_curr_row,
            pool,
            opts: fact_opts(w.threads),
        };
        let out = rec
            .span("core.panel_factor", |_| {
                panel_factor(&inp, &mut host_view(&mut host, &geom))
            })
            .map_err(|e| e.to_string())?;
        panel_from_host(a, &geom, &host, &out.top);
        Some(pack_panel(&geom, &out.top, &out.ipiv, &host))
    } else {
        None
    };
    let panel = rec
        .span("comm.panel_bcast", |_| {
            lbcast(grid.row(), BCAST, &geom, packed)
        })
        .map_err(|e| e.to_string())?;
    let range = ColRange {
        start: a.cols.local_lower_bound(k0 + jb),
        end: a.nloc,
    };
    if range.width() == 0 {
        return Ok(());
    }
    let plan = SwapPlan::build(k0, jb, &panel.ipiv);
    let rows = a.rows;
    let mut av = a.view_mut();
    let mut u = rec
        .span("core.row_swap", |_| {
            row_swap(
                grid.col(),
                rows,
                &plan,
                geom.prow,
                &mut av,
                range,
                RowSwapAlgo::Ring,
            )
        })
        .map_err(|e| e.to_string())?;
    rec.span("blas.dtrsm", |_| solve_u(&panel, &mut u));
    if geom.in_curr_row {
        store_u(&geom, &u, &mut av, range);
    }
    rec.span("blas.dgemm", |_| {
        gemm_update(&geom, &panel, &u, &mut av, range)
    });
    Ok(())
}

/// Writes every recorded span as one JSON document.
pub fn write_spans(path: &std::path::Path, replays: &[Replay]) -> std::io::Result<()> {
    let mut out = String::from("{\"schema\": \"rhpl-benchmark-spans-v1\", \"spans\": [");
    let mut first = true;
    for s in replays.iter().flat_map(|r| r.spans.iter().flatten()) {
        if !first {
            out.push(',');
        }
        first = false;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"workload\": \"{}\", \"rank\": {}, \"name\": \"{}\", \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.workload, s.rank, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"{"schema":"rhpl-bench-v1","aggregate_gflops":6.0,"runs":[{"tv":"W","n":1536,
        "wall_seconds":0.4,"gflops":6.01,"phase_totals":{"fact_ns":40000000,"fact_comm_ns":25000000,
        "bcast_ns":0,"row_swap_ns":120000000,"scatter_ns":8000000,"update_ns":140000000,
        "transfer_ns":2000000,"fault_ns":0,"ckpt_ns":0,"restore_ns":0,"bytes":2392816},
        "iterations":[{"iter":0,"phases":{"fact_ns":1}}]}]}"#;

    #[test]
    fn trace_json_yields_clock_shares_and_coverage() {
        let t = parse_trace_json(TRACE).expect("parses");
        assert_eq!(t.clock_s, 0.4);
        assert_eq!(t.traced_bytes, 2392816.0);
        assert_eq!(t.share("update"), 0.35);
        assert_eq!(t.share("fact_comm"), 0.0625);
        // fact + row_swap + scatter + update + transfer; fact_comm is nested.
        assert!((t.coverage() - 0.775).abs() < 1e-12);
        assert!(parse_trace_json("{}").is_err());
        assert!(parse_trace_json(&TRACE.replace("40000000", "\"x\"")).is_err());
    }

    /// A file `rhpl --trace-json` wrote (N=96 NB=16 2x1), and the same
    /// file re-spaced the way a pretty-printer would.
    #[test]
    fn real_trace_file_parses_however_it_is_spaced() {
        let compact = include_str!("../fixtures/rhpl_trace.json");
        let spaced = compact
            .replace(':', " : ")
            .replace('{', "{\n  ")
            .replace(',', ",\n  ");
        for text in [compact, spaced.as_str()] {
            let t = parse_trace_json(text).expect("parses");
            assert_eq!(t.clock_s, 0.001290419);
            assert_eq!(t.traced_bytes, 10000.0);
            assert_eq!(t.phase("fact"), 633017.0);
            assert_eq!(t.phase("update"), 74768.0);
            assert_eq!(t.phase_ns.len(), 10);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |name, parent, start_ns, end_ns| SpanRec {
            name,
            workload: "w",
            rank: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span("iteration", None, 0, 1_000_000_000),
            span("blas.dgemm", Some(0), 100_000_000, 700_000_000),
            span("blas.dtrsm", Some(0), 700_000_000, 800_000_000),
            span("iteration", None, 1_000_000_000, 1_500_000_000),
        ];
        let own = self_times(&spans);
        let get = |n: &str| own.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!((get("iteration") - 0.8).abs() < 1e-9);
        assert!((get("blas.dgemm") - 0.6).abs() < 1e-9);
        assert!((get("blas.dtrsm") - 0.1).abs() < 1e-9);
    }

    #[test]
    fn replay_records_nested_spans_on_a_small_two_rank_problem() {
        static SMALL: Workload = Workload {
            name: "small_2x1",
            n: 96,
            nb: 16,
            p: 2,
            q: 1,
            threads: 1,
            mxp: false,
            transport: hpl_comm::TransportSel::Inproc,
            why: "",
        };
        let r = replay(&SMALL, 7).expect("replays");
        assert_eq!((r.sampled, r.iterations), (6, 6));
        assert_eq!(r.spans.len(), 2);
        for rank in &r.spans {
            assert_eq!(rank.iter().filter(|s| s.name == "iteration").count(), 6);
            assert!(rank
                .iter()
                .any(|s| s.name == "blas.dgemm" && s.parent.is_some()));
            assert!(rank.iter().all(|s| s.end_ns >= s.start_ns));
        }
        assert!(r.scaled_total_s() > 0.0);
        let (msgs, bytes) = comm_counts(&SMALL, 7).expect("runs");
        assert!(msgs > 0 && bytes > 0);
        assert_eq!(comm_counts(&SMALL, 7).unwrap(), (msgs, bytes));
    }
}
