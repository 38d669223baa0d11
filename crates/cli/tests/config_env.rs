//! End-to-end checks that garbage in the environment knobs
//! (`RHPL_TRANSPORT`, `RHPL_KERNEL`, `RHPL_TRACE_SLOW_PHASE` / `_NS`) and in
//! the valued command-line flags is rejected by the `rhpl` binary *up
//! front* with the typed configuration message and exit code 2 — not deep
//! inside a universe as a panic, and not silently ignored. Each case spawns
//! the real binary so the whole path (env or flag → check → stderr → exit
//! code) is exercised.

use std::process::Command;

fn rhpl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rhpl"))
}

/// Runs `rhpl --sample` (the cheapest subcommand) with one env var set and
/// returns (exit code, stderr).
fn run_with_env(var: &str, value: &str) -> (i32, String) {
    let out = rhpl()
        .arg("--sample")
        .env(var, value)
        .output()
        .expect("spawn rhpl");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_transport_is_a_typed_config_error() {
    let (code, stderr) = run_with_env("RHPL_TRANSPORT", "carrier-pigeon");
    assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
    assert!(stderr.contains("RHPL_TRANSPORT"), "stderr: {stderr}");
    assert!(stderr.contains("carrier-pigeon"), "stderr: {stderr}");
    assert!(
        stderr.contains("inproc") || stderr.contains("tcp"),
        "the error should name the accepted values, stderr: {stderr}"
    );
}

#[test]
fn bad_kernel_is_a_typed_config_error() {
    for bad in ["AVX512", "auto"] {
        let (code, stderr) = run_with_env("RHPL_KERNEL", bad);
        assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
        assert!(stderr.contains("RHPL_KERNEL"), "stderr: {stderr}");
        assert!(
            stderr.contains(bad),
            "the offending value must be echoed back, stderr: {stderr}"
        );
        assert!(
            stderr.contains("one of scalar, simd"),
            "the error should name the accepted values, stderr: {stderr}"
        );
    }
}

#[test]
fn bad_trace_slow_values_are_typed_config_errors() {
    for (var, value) in [
        ("RHPL_TRACE_SLOW_PHASE", "updte"),
        ("RHPL_TRACE_SLOW_NS", "10ms"),
    ] {
        let out = rhpl()
            .arg("--sample")
            .env("RHPL_TRACE_SLOW_PHASE", "update")
            .env("RHPL_TRACE_SLOW_NS", "10000000")
            .env(var, value)
            .output()
            .expect("spawn rhpl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(
            stderr.contains(var) && stderr.contains(value),
            "the variable and its value must be named, stderr: {stderr}"
        );
    }
}

#[test]
fn valid_env_values_are_accepted() {
    for (var, value) in [
        ("RHPL_TRANSPORT", "inproc"),
        ("RHPL_TRANSPORT", "shm"),
        ("RHPL_TRANSPORT", "tcp"),
        ("RHPL_KERNEL", "scalar"),
        ("RHPL_KERNEL", "simd"),
    ] {
        let (code, stderr) = run_with_env(var, value);
        assert_eq!(code, 0, "{var}={value} must be accepted, stderr: {stderr}");
    }
}

/// Runs `rhpl` with `args` and returns (exit code, stdout, stderr).
fn run_with_args(args: &[&str]) -> (i32, String, String) {
    let out = rhpl().args(args).output().expect("spawn rhpl");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A flag value that does not parse, or that the core would reject, is a
/// configuration error naming the flag and the value (exit 2) — not a
/// silent default (`--seed -1` once ran seed 42) and not a panic inside a
/// rank (`--threads 0`, `--split-frac 1.5`). The flags are checked before
/// the input file is read, so none is needed here.
#[test]
fn bad_flag_values_are_typed_config_errors() {
    for (flag, value) in [
        ("--seed", "-1"),
        ("--seed", "forty-two"),
        ("--threads", "0"),
        ("--threads", "-2"),
        ("--split-frac", "1.5"),
        ("--split-frac", "nan"),
        ("--ckpt-every", "often"),
        ("--fault-seed", "x"),
        ("--comm-timeout", "-5"),
    ] {
        let (code, _, stderr) = run_with_args(&[flag, value]);
        assert_eq!(code, 2, "{flag} {value}: stderr: {stderr}");
        assert!(stderr.contains("configuration error"), "stderr: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "the flag and its value must be named, stderr: {stderr}"
        );
    }
}

/// `--element` is the one way to pick the working precision. A value it does
/// not know is rejected like every other valued flag (exit 2), before the
/// input file is read, and the message names the accepted values.
#[test]
fn bad_element_flag_is_a_usage_error() {
    let (code, _, stderr) = run_with_args(&["--element", "f16"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("configuration error"), "stderr: {stderr}");
    assert!(
        stderr.contains("--element") && stderr.contains("f16"),
        "the flag and its value must be named, stderr: {stderr}"
    );
    assert!(
        stderr.contains("f64") && stderr.contains("f32"),
        "the error should name the accepted values, stderr: {stderr}"
    );
}

/// The supervisor checks every flag it forwards before it spawns a rank:
/// a bad value ends `rhpl launch` with exit 2 and no `LAUNCH` or `RANKPID`
/// line.
#[test]
fn launch_rejects_bad_flag_values_before_spawning() {
    for args in [
        ["launch", "--ranks", "1", "--threads", "0"],
        ["launch", "--ranks", "1", "--split-frac", "nan"],
        ["launch", "--ranks", "1", "--seed", "-1"],
    ] {
        let (code, stdout, stderr) = run_with_args(&args);
        assert_eq!(code, 2, "{args:?}: stderr: {stderr}");
        assert!(stderr.contains("configuration error"), "stderr: {stderr}");
        assert!(
            !stdout.contains("LAUNCH") && !stdout.contains("RANKPID"),
            "{args:?} spawned ranks: {stdout}"
        );
    }
}

/// `rhpl launch` validates its own arguments with the same discipline:
/// unknown transports are usage errors (exit 1), a malformed rank count is
/// a configuration error naming the flag (exit 2), neither is a panic — and
/// a bad fabric env still beats them to exit 2.
#[test]
fn launch_rejects_bad_arguments_cleanly() {
    let out = rhpl()
        .args(["launch", "--ranks", "4", "--transport", "telepathy"])
        .output()
        .expect("spawn rhpl");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("telepathy"), "stderr: {stderr}");

    let (code, _, stderr) = run_with_args(&["launch", "--ranks", "zero"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.contains("--ranks") && stderr.contains("zero"),
        "stderr: {stderr}"
    );

    // Env validation still runs first: a launch invocation inherits the
    // same typed config gate as every other mode.
    let out = rhpl()
        .args(["launch", "--ranks", "4"])
        .env("RHPL_TRANSPORT", "carrier-pigeon")
        .output()
        .expect("spawn rhpl");
    assert_eq!(out.status.code(), Some(2));
}
