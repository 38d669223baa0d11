//! The `rhpl` binary against the library: one pinned `HPL.dat` (two
//! schedules) run through the real binary with `--trace-json`, classic and
//! `--mxp`, must report the structure the input describes, pass its
//! residual check, and give the phase sequence (`seq_hash`) and the answer
//! (`x_hash`) of the same problem run in-process. The in-process
//! configuration is written out field by field, not read through the CLI's
//! `dat`, `flags` or `runner` modules, so a CLI slip that maps a flag or a
//! dat line to the wrong field makes the two sides disagree — including
//! the FACT thread count and the row-swap algorithm, which move neither
//! hash and are compared as the run record echoes them.

mod common;

use std::process::Command;

use common::{json_field, runs};
use hpl_comm::{BcastAlgo, GridOrder, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, FactOpts, FactVariant, HplConfig, RowSwapAlgo};

/// The pinned input: deterministic, small, two schedules (reference and
/// split-update) so the check covers the overlap path. Depth count and
/// values are the only lines differing from `--sample`.
const BENCH_DAT: &str = "\
HPLinpack benchmark input file (xtask bench pinned configuration)
rhpl regression gate
HPL.out      output file name (if any)
6            device out (6=stdout,7=stderr,file)
1            # of problems sizes (Ns)
192          Ns
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
2            # of lookahead depth
0 1          DEPTHs (>=0)
1            SWAP (0=bin-exch,1=long,2=mix)
64           swapping threshold
0            L1 in (0=transposed,1=no-transposed) form
0            U  in (0=transposed,1=no-transposed) form
1            Equilibration (0=no,1=yes)
8            memory alignment in double (> 0)
";

/// The flags the binary runs with, beside `--trace-json` and `--mxp`.
const FLAGS: [&str; 6] = ["--seed", "42", "--split-frac", "0.5", "--threads", "2"];

/// What each run of [`BENCH_DAT`] must report, by depth: its `T/V` code
/// and its schedule.
const RUNS: [(&str, &str); 2] = [("WC012R16", "simple"), ("WC112R16", "split-update:0.5")];

/// `(seq_hash, x_hash)` of the four runs (classic depths 0 and 1, then
/// `--mxp` depths 0 and 1) under the `simd` kernel on x86_64, where every
/// SIMD tier gives the same bits. `seq_hash` does not depend on the kernel
/// and is pinned on every host; `x_hash` does (FMA and scalar round
/// differently) and is pinned only there.
const PINNED: [(&str, &str); 4] = [
    ("0xd41c073273fc2ddc", "0x4874723f6a282c20"),
    ("0x653502879bcf64c4", "0x4874723f6a282c20"),
    ("0xd41c073273fc2ddc", "0x041b3033a6ff21b0"),
    ("0x653502879bcf64c4", "0x041b3033a6ff21b0"),
];

/// [`BENCH_DAT`] at `depth` under [`FLAGS`], traced, set field by field.
fn library_cfg(depth: usize) -> HplConfig {
    let mut cfg = HplConfig::new(192, 32, 2, 2);
    cfg.seed = 42;
    cfg.order = GridOrder::ColumnMajor;
    cfg.fact = FactOpts {
        variant: FactVariant::Right,
        nbmin: 16,
        ndiv: 2,
        threads: 2,
    };
    cfg.bcast = BcastAlgo::OneRingM;
    cfg.swap = RowSwapAlgo::Ring;
    cfg.schedule = if depth == 0 {
        Schedule::Simple
    } else {
        Schedule::SplitUpdate { frac: 0.5 }
    };
    cfg.trace = hpl_trace::TraceOpts::on();
    cfg
}

/// `(seq_hash, x_hash)` of [`library_cfg`]`(depth)` run in-process, in the
/// binary's hex format.
fn library_hashes(depth: usize, mxp: bool) -> (String, String) {
    let cfg = library_cfg(depth);
    let (traces, x_hash): (Vec<_>, Vec<_>) = Universe::run(cfg.ranks(), |comm| {
        if mxp {
            let r = hpl_mxp::solve_mxp(comm, &cfg).expect("nonsingular");
            (r.trace.expect("tracing was enabled"), r.x_hash)
        } else {
            let r = run_hpl(comm, &cfg).expect("nonsingular");
            (r.trace.expect("tracing was enabled"), r.x_hash)
        }
    })
    .into_iter()
    .unzip();
    let seq_hash = hpl_trace::report::seq_hash(&traces);
    (format!("{seq_hash:#018x}"), format!("{:#018x}", x_hash[0]))
}

/// Runs the binary on [`BENCH_DAT`] and returns its `BENCH_hpl.json`.
fn binary_json(mxp: bool) -> String {
    let tag = format!("rhpl-bin-vs-lib-{}-{mxp}", std::process::id());
    let dat = std::env::temp_dir().join(format!("{tag}.dat"));
    let json = std::env::temp_dir().join(format!("{tag}.json"));
    std::fs::write(&dat, BENCH_DAT).expect("write dat");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rhpl"));
    cmd.arg(&dat).args(FLAGS).arg("--trace-json").arg(&json);
    if mxp {
        cmd.arg("--mxp");
    }
    let out = cmd.output().expect("spawn rhpl");
    assert_eq!(
        out.status.code(),
        Some(0),
        "mxp={mxp}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json).expect("read BENCH_hpl.json");
    let _ = std::fs::remove_file(&dat);
    let _ = std::fs::remove_file(&json);
    doc
}

#[test]
fn binary_reports_the_library_run_of_its_input() {
    for (m, mxp) in [false, true].into_iter().enumerate() {
        let doc = binary_json(mxp);
        assert_eq!(json_field(&doc, "schema"), "rhpl-bench-v1");
        let runs = runs(&doc);
        assert_eq!(runs.len(), RUNS.len(), "mxp={mxp}: run count");
        for (depth, (run, (tv, schedule))) in runs.into_iter().zip(RUNS).enumerate() {
            let id = format!("mxp={mxp} {tv}");
            assert_eq!(json_field(run, "tv"), tv, "{id}");
            assert_eq!(json_field(run, "schedule"), schedule, "{id}");
            let mode = if mxp { "mxp" } else { "hpl" };
            assert_eq!(json_field(run, "mode"), mode, "{id}");
            assert_eq!(run.matches("\"phases\":").count(), 6, "{id}: iterations");
            assert_eq!(json_field(run, "passed"), "true", "{id}: residual check");
            let cfg = library_cfg(depth);
            let threads = cfg.fact.threads.to_string();
            assert_eq!(json_field(run, "threads"), threads, "{id}: --threads");
            assert_eq!(json_field(run, "swap"), cfg.swap.name(), "{id}: SWAP");

            let hashes = (json_field(run, "seq_hash"), json_field(run, "x_hash"));
            let (seq, x) = library_hashes(depth, mxp);
            assert_eq!(
                hashes,
                (seq.as_str(), x.as_str()),
                "{id}: binary vs library"
            );
            let (pin_seq, pin_x) = PINNED[2 * m + depth];
            assert_eq!(hashes.0, pin_seq, "{id}: phase sequence drifted");
            if json_field(run, "kernel") == "simd" && cfg!(target_arch = "x86_64") {
                assert_eq!(hashes.1, pin_x, "{id}: answer drifted");
            }
        }
    }
}
