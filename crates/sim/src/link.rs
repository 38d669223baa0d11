//! Interconnect models: latency + bandwidth links and the cost of the
//! collective algorithms HPL runs over them.

use serde::Serialize;

/// A simple alpha-beta link: `time(bytes) = latency + bytes / bandwidth`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LinkModel {
    /// Per-message latency (seconds).
    pub latency: f64,
    /// Sustained bandwidth (bytes/s).
    pub bandwidth: f64,
}

impl LinkModel {
    /// Frontier node: Infinity Fabric between GCDs (50 GB/s per direction,
    /// ~1.3 us software latency).
    pub fn infinity_fabric() -> Self {
        Self {
            latency: 1.3e-6,
            bandwidth: 50.0e9,
        }
    }

    /// Host <-> GCD link (~36 GB/s effective, per the MI250X host
    /// interface).
    pub fn host_link() -> Self {
        Self {
            latency: 4.0e-6,
            bandwidth: 36.0e9,
        }
    }

    /// HPE Slingshot NIC: 200 Gb/s = 25 GB/s per MI250X, shared by its two
    /// GCDs.
    pub fn slingshot_per_gcd() -> Self {
        Self {
            latency: 1.7e-6,
            bandwidth: 12.5e9,
        }
    }

    /// Message time.
    pub fn time(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.latency + bytes / self.bandwidth
    }
}

/// Critical-path cost models of the collectives, parameterized by the link.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CollectiveModel {
    /// The link used between participating ranks.
    pub link: LinkModel,
}

impl CollectiveModel {
    /// Per-iteration critical-path cost of a *pipelined* modified ring
    /// broadcast: across HPL iterations the forwarding of earlier panels
    /// overlaps later factorizations, and the root's sends are DMA-driven,
    /// so steady-state the chain only waits for the next panel owner's
    /// single-hop receive — exactly why rocHPL defaults to the modified
    /// ring.
    pub fn bcast_ring_pipelined(&self, p: usize, bytes: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.link.time(bytes)
    }

    /// Binomial-tree broadcast/reduce: `ceil(log2 p)` message steps.
    pub fn binomial(&self, p: usize, bytes: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * self.link.time(bytes)
    }

    /// Allreduce (reduce + bcast, both binomial) of `bytes`.
    pub fn allreduce(&self, p: usize, bytes: f64) -> f64 {
        2.0 * self.binomial(p, bytes)
    }

    /// Scatterv of `p - 1` chunks of `chunk_bytes` from one root
    /// (serialized sends on the root's link).
    pub fn scatterv(&self, p: usize, chunk_bytes: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p - 1) as f64 * self.link.time(chunk_bytes)
    }

    /// Ring allgatherv of a total of `bytes` distributed over `p` ranks:
    /// `p - 1` steps of `bytes / p` each.
    pub fn allgatherv(&self, p: usize, bytes: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        (pf - 1.0) * self.link.time(bytes / pf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_time_is_affine() {
        let l = LinkModel {
            latency: 1e-6,
            bandwidth: 1e9,
        };
        assert_eq!(l.time(0.0), 0.0);
        assert!((l.time(1e9) - (1.0 + 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn collectives_are_free_on_one_rank() {
        let c = CollectiveModel {
            link: LinkModel::infinity_fabric(),
        };
        for f in [
            CollectiveModel::bcast_ring_pipelined,
            CollectiveModel::binomial,
            CollectiveModel::scatterv,
            CollectiveModel::allgatherv,
        ] {
            assert_eq!(f(&c, 1, 1e6), 0.0);
        }
    }
}
