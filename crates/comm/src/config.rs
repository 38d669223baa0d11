//! Checked environment/config parsing for the fabric boundary.
//!
//! Every knob the runtime reads from the environment (`RHPL_TRANSPORT`,
//! `RHPL_KERNEL`, `RHPL_TRACE_SLOW_PHASE` / `_NS`) is checked through this
//! module, so an invalid value surfaces as a typed [`ConfigError`]
//! carrying the offending text and what was expected —
//! never a silent fallback to a default that would make a benchmark
//! unattributable, and never a bare parse panic.
//!
//! The CLI calls [`validate_env`] before doing any work and turns an error
//! into a clean exit; library entry points that cannot return an error
//! (transport, kernel and slow-phase resolution) fail fast with the same
//! message.

use crate::transport::TransportSel;
use hpl_blas::KernelSel;

pub use hpl_trace::ConfigError;

/// Parses a `RHPL_TRANSPORT` value (`inproc` | `shm` | `tcp`).
pub fn parse_transport(value: &str) -> Result<TransportSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_TRANSPORT",
        value: value.to_owned(),
        expected: "one of inproc, shm, tcp",
    })
}

/// Parses a `RHPL_KERNEL` value (`scalar` | `simd`).
pub fn parse_kernel(value: &str) -> Result<KernelSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_KERNEL",
        value: value.to_owned(),
        expected: "one of scalar, simd",
    })
}

/// `RHPL_TRANSPORT` from the environment; unset means
/// [`TransportSel::Inproc`].
pub fn env_transport() -> Result<TransportSel, ConfigError> {
    match std::env::var("RHPL_TRANSPORT") {
        Ok(v) => parse_transport(&v),
        Err(_) => Ok(TransportSel::Inproc),
    }
}

/// `RHPL_KERNEL` from the environment; unset means [`KernelSel::Simd`].
pub fn env_kernel() -> Result<KernelSel, ConfigError> {
    match std::env::var("RHPL_KERNEL") {
        Ok(v) => parse_kernel(&v),
        Err(_) => Ok(KernelSel::default()),
    }
}

/// Validates every runtime environment knob at once — the CLI's pre-flight
/// check, so a typo'd variable fails the run before any process spawns.
pub fn validate_env() -> Result<(), ConfigError> {
    env_transport()?;
    env_kernel()?;
    hpl_trace::slow_from_env()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_values_parse_and_bad_ones_are_typed() {
        assert_eq!(parse_kernel("scalar"), Ok(KernelSel::Scalar));
        assert_eq!(parse_kernel("simd"), Ok(KernelSel::Simd));
        for bad in ["avx512", "auto"] {
            let err = parse_kernel(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_KERNEL");
            assert_eq!(err.value, bad);
            let shown = err.to_string();
            assert!(shown.contains(bad), "names the value: {shown}");
            assert!(shown.contains("one of scalar, simd"));
        }
    }

    #[test]
    fn transport_values_parse_and_bad_ones_are_typed() {
        assert_eq!(parse_transport("tcp"), Ok(TransportSel::Tcp));
        assert_eq!(parse_transport("SHM"), Ok(TransportSel::Shm));
        assert_eq!(parse_transport("inproc"), Ok(TransportSel::Inproc));
        let err = parse_transport("mpi").unwrap_err();
        assert_eq!(err.var, "RHPL_TRANSPORT");
        assert_eq!(err.value, "mpi");
        assert!(err.to_string().contains("inproc, shm, tcp"));
    }
}
