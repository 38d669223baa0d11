//! Cross-transport determinism of the HPL-MxP pipeline: `rhpl --mxp` must
//! produce a bitwise-identical phase-trace `seq_hash` (and residual) over
//! inproc, shm and tcp — the transport moves bytes, it never changes them
//! or the schedule. Each case spawns the real binary with `--trace-json`
//! and compares fields of the emitted `BENCH_hpl.json`.

mod common;

use std::process::Command;

use common::{json_field, runs};

/// Writes the built-in sample HPL.dat to a temp path and returns it (the
/// sample is the parser's own reference input, so it always parses).
fn sample_dat() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rhpl-mxp-det-{}.dat", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_rhpl"))
        .arg("--sample")
        .output()
        .expect("spawn rhpl --sample");
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).expect("write sample dat");
    path
}

/// Runs `rhpl <sample> --mxp --trace-json` over `transport` and returns
/// the (seq_hash, residual, sweeps) triple of the single sample run.
fn run_mxp(dat: &std::path::Path, transport: &str) -> (String, String, String) {
    let json_path = std::env::temp_dir().join(format!(
        "rhpl-mxp-det-{}-{transport}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_rhpl"))
        .arg(dat)
        .args(["--mxp", "--trace-json"])
        .arg(&json_path)
        .env("RHPL_TRANSPORT", transport)
        // Pin the kernel: scalar-vs-simd hosts must not change what this
        // test compares (any one kernel is deterministic across transports).
        .env("RHPL_KERNEL", "scalar")
        .output()
        .expect("spawn rhpl");
    assert_eq!(
        out.status.code(),
        Some(0),
        "transport {transport}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json_path).expect("read BENCH_hpl.json");
    let _ = std::fs::remove_file(&json_path);
    let [run] = runs(&doc)[..] else {
        panic!("transport {transport}: the sample is one run, got {doc}");
    };
    assert_eq!(json_field(run, "mode"), "mxp", "transport {transport}");
    assert_eq!(json_field(run, "element"), "f32", "transport {transport}");
    assert_eq!(
        json_field(run, "passed"),
        "true",
        "transport {transport} --mxp must pass the residual gate"
    );
    (
        json_field(run, "seq_hash").to_owned(),
        json_field(run, "residual").to_owned(),
        json_field(run, "sweeps").to_owned(),
    )
}

#[test]
fn mxp_seq_hash_is_bitwise_identical_across_transports() {
    let dat = sample_dat();
    let (inproc_hash, inproc_res, inproc_sweeps) = run_mxp(&dat, "inproc");
    assert!(
        inproc_hash.starts_with("0x"),
        "seq_hash must be hex, got {inproc_hash}"
    );
    for transport in ["shm", "tcp"] {
        let (hash, res, sweeps) = run_mxp(&dat, transport);
        assert_eq!(
            hash, inproc_hash,
            "{transport} seq_hash must be bitwise equal to inproc"
        );
        assert_eq!(
            res, inproc_res,
            "{transport} residual must be bitwise equal to inproc"
        );
        assert_eq!(
            sweeps, inproc_sweeps,
            "{transport} must converge in the same sweep count as inproc"
        );
    }
    let _ = std::fs::remove_file(&dat);
}
