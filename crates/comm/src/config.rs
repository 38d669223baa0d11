//! Checked environment/config parsing for the fabric boundary.
//!
//! Every knob the runtime reads from the environment (`RHPL_TRANSPORT`,
//! `RHPL_KERNEL`, `RHPL_ELEMENT`, `RHPL_COMM_TIMEOUT`) parses through this
//! module, so an invalid value surfaces as a typed [`ConfigError`]
//! carrying the offending text and what was expected —
//! never a silent fallback to a default that would make a benchmark
//! unattributable, and never a bare parse panic.
//!
//! The CLI calls [`validate_env`] before doing any work and turns an error
//! into a clean exit; library entry points that cannot return an error
//! (transport, timeout and kernel resolution) fail fast with the same
//! message.

use crate::transport::TransportSel;
use hpl_blas::{ElementSel, KernelSel};

/// An environment/config value that does not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable (or flag) that held the bad value.
    pub var: &'static str,
    /// The offending value, verbatim.
    pub value: String,
    /// What would have been accepted.
    pub expected: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// Parses a `RHPL_TRANSPORT` value (`inproc` | `shm` | `tcp`).
pub fn parse_transport(value: &str) -> Result<TransportSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_TRANSPORT",
        value: value.to_owned(),
        expected: "one of inproc, shm, tcp",
    })
}

/// Parses a `RHPL_KERNEL` value (`auto` | `scalar` | `simd`).
pub fn parse_kernel(value: &str) -> Result<KernelSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_KERNEL",
        value: value.to_owned(),
        expected: "one of auto, scalar, simd",
    })
}

/// Parses a `RHPL_COMM_TIMEOUT` value (whole seconds; the fabric clamps
/// it to at least 1 s).
pub fn parse_comm_timeout(value: &str) -> Result<u64, ConfigError> {
    value.parse().map_err(|_| ConfigError {
        var: "RHPL_COMM_TIMEOUT",
        value: value.to_owned(),
        expected: "a whole number of seconds",
    })
}

/// Parses a `RHPL_ELEMENT` value (`f64` | `f32`).
pub fn parse_element(value: &str) -> Result<ElementSel, ConfigError> {
    value.parse().map_err(|()| ConfigError {
        var: "RHPL_ELEMENT",
        value: value.to_owned(),
        expected: "one of f64, f32",
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

/// `RHPL_KERNEL` from the environment; unset means [`KernelSel::Auto`].
pub fn env_kernel() -> Result<KernelSel, ConfigError> {
    match std::env::var("RHPL_KERNEL") {
        Ok(v) => parse_kernel(&v),
        Err(_) => Ok(KernelSel::Auto),
    }
}

/// `RHPL_ELEMENT` from the environment; unset means [`ElementSel::F64`].
pub fn env_element() -> Result<ElementSel, ConfigError> {
    match std::env::var("RHPL_ELEMENT") {
        Ok(v) => parse_element(&v),
        Err(_) => Ok(ElementSel::F64),
    }
}

/// `RHPL_COMM_TIMEOUT` from the environment; unset means the built-in
/// default receive timeout.
pub fn env_comm_timeout() -> Result<Option<u64>, ConfigError> {
    match std::env::var("RHPL_COMM_TIMEOUT") {
        Ok(v) => parse_comm_timeout(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Validates every runtime environment knob at once — the CLI's pre-flight
/// check, so a typo'd variable fails the run before any process spawns.
pub fn validate_env() -> Result<(), ConfigError> {
    env_transport()?;
    env_kernel()?;
    env_element()?;
    env_comm_timeout()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_timeout_rejects_negative_fractional_and_garbage() {
        assert_eq!(parse_comm_timeout("120"), Ok(120));
        assert_eq!(parse_comm_timeout("0"), Ok(0));
        for bad in ["-3", "abc", "", "4.5", "1s"] {
            let err = parse_comm_timeout(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_COMM_TIMEOUT");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("seconds"));
        }
    }

    #[test]
    fn kernel_values_parse_and_bad_ones_are_typed() {
        assert_eq!(parse_kernel("auto"), Ok(KernelSel::Auto));
        assert_eq!(parse_kernel("scalar"), Ok(KernelSel::Scalar));
        assert_eq!(parse_kernel("simd"), Ok(KernelSel::Simd));
        let err = parse_kernel("avx512").unwrap_err();
        assert_eq!(err.var, "RHPL_KERNEL");
        assert_eq!(err.value, "avx512");
        let shown = err.to_string();
        assert!(shown.contains("avx512"), "names the value: {shown}");
        assert!(shown.contains("auto, scalar, simd"));
    }

    #[test]
    fn element_values_parse_and_bad_ones_are_typed() {
        assert_eq!(parse_element("f64"), Ok(ElementSel::F64));
        assert_eq!(parse_element("f32"), Ok(ElementSel::F32));
        for bad in ["f16", "double", "single", ""] {
            let err = parse_element(bad).unwrap_err();
            assert_eq!(err.var, "RHPL_ELEMENT");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("f64, f32"));
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
