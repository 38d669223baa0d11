//! The benchmark's workloads: what each feeds `rhpl` and why it exists.

use hpl_comm::{BcastAlgo, TransportSel};
use rhpl_core::FactOpts;

/// One input set: an `HPL.dat` plus the flags and the one environment
/// variable the run gets.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Problem size.
    pub n: usize,
    /// Blocking factor.
    pub nb: usize,
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// `--threads` (FACT threads per rank).
    pub threads: usize,
    /// `--mxp`: f32 factorization plus f64 refinement.
    pub mxp: bool,
    /// `RHPL_TRANSPORT`; in-process mailboxes unless `tcp`.
    pub transport: TransportSel,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
}

impl Workload {
    /// Busy threads the workload needs to run unshared.
    pub fn busy_threads(&self) -> usize {
        (self.p * self.q).max(self.threads)
    }

    /// Panel iterations of the factorization.
    pub fn iterations(&self) -> usize {
        self.n.div_ceil(self.nb)
    }
}

const fn workload(
    name: &'static str,
    n: usize,
    nb: usize,
    p: usize,
    why: &'static str,
) -> Workload {
    Workload {
        name,
        n,
        nb,
        p,
        q: 1,
        threads: 1,
        mxp: false,
        transport: TransportSel::Inproc,
        why,
    }
}

/// The five workloads, in report order.
pub const WORKLOADS: [Workload; 5] = [
    workload(
        "compute_1x1",
        3072,
        128,
        1,
        "plain single-thread baseline: UPDATE/DGEMM is the largest phase and no byte crosses a \
         wire, so a blas or P=1 fast-path gain shows here and a comm change must not",
    ),
    Workload {
        threads: 2,
        ..workload(
            "fact_tail_t2",
            1536,
            512,
            1,
            "large NB/N is the paper's latency-bound tail: FACT is the largest phase and runs on \
             the two-thread pool, both threads on one processor, so FACT and pool-overhead work \
             shows here",
        )
    },
    workload(
        "comm_2x1_inproc",
        1536,
        32,
        2,
        "48 iterations x 32 pivot collectives plus row-swap exchange over the SPSC mailbox: \
         mailbox and collective work shows here and not on the 1x1 workloads",
    ),
    Workload {
        transport: TransportSel::Tcp,
        ..workload(
            "comm_2x1_tcp",
            1536,
            32,
            2,
            "same schedule and bytes as comm_2x1_inproc through the frame codec and loopback \
             sockets: a gain for one transport that costs the other shows",
        )
    },
    Workload {
        mxp: true,
        ..workload(
            "mxp_1x1",
            3072,
            128,
            1,
            "the f32 monomorphization of compute_1x1's code plus f64 refinement: paired with \
             compute_1x1 it isolates precision",
        )
    },
];

/// `comm_2x1_inproc`'s problem on a 1x1 grid: the one-rank base of
/// `core.strong_scaling_eff_2r`. Not a workload of the benchmark.
pub const SCALING_BASE_1X1: Workload = workload("scaling_base_1x1", 1536, 32, 1, "");

/// The panel broadcast [`hpl_dat`] asks for (`1rM`), as the typed value the
/// in-process replay passes to the crates.
pub const BCAST: BcastAlgo = BcastAlgo::OneRingM;

/// The factorization recipe [`hpl_dat`] asks for (right-looking, NDIV 2,
/// NBMIN 16 — `FactOpts`' defaults) on `threads` threads.
pub fn fact_opts(threads: usize) -> FactOpts {
    FactOpts {
        threads,
        ..FactOpts::default()
    }
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The classic `HPL.dat` for `w`: the recipe of `rhpl --sample` (right-looking
/// recursive FACT, NBMIN 16, NDIV 2, 1ringM broadcast, depth-1 look-ahead,
/// long swap) at the workload's size and grid.
pub fn hpl_dat(w: &Workload) -> String {
    format!(
        "HPLinpack benchmark input file\n\
         rhpl-benchmark workload {name}\n\
         HPL.out      output file name (if any)\n\
         6            device out (6=stdout,7=stderr,file)\n\
         1            # of problems sizes (Ns)\n\
         {n}          Ns\n\
         1            # of NBs\n\
         {nb}         NBs\n\
         1            PMAP process mapping (0=Row-,1=Column-major)\n\
         1            # of process grids (P x Q)\n\
         {p}          Ps\n\
         {q}          Qs\n\
         16.0         threshold\n\
         1            # of panel fact\n\
         2            PFACTs (0=left, 1=Crout, 2=Right)\n\
         1            # of recursive stopping criterium\n\
         16           NBMINs (>= 1)\n\
         1            # of panels in recursion\n\
         2            NDIVs\n\
         1            # of recursive panel fact.\n\
         2            RFACTs (0=left, 1=Crout, 2=Right)\n\
         1            # of broadcast\n\
         1            BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM,6=binomial)\n\
         1            # of lookahead depth\n\
         1            DEPTHs (>=0)\n\
         1            SWAP (0=bin-exch,1=long,2=mix)\n\
         64           swapping threshold\n\
         0            L1 in (0=transposed,1=no-transposed) form\n\
         0            U  in (0=transposed,1=no-transposed) form\n\
         1            Equilibration (0=no,1=yes)\n\
         8            memory alignment in double (> 0)\n",
        name = w.name,
        n = w.n,
        nb = w.nb,
        p = w.p,
        q = w.q,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_workload_fits_two_cores() {
        for w in &WORKLOADS {
            assert!(w.busy_threads() <= 2, "{}", w.name);
        }
    }

    #[test]
    fn dat_carries_the_workload_shape() {
        let dat = hpl_dat(&WORKLOADS[2]);
        let lines: Vec<&str> = dat.lines().collect();
        assert_eq!(lines.len(), 31);
        assert!(lines[5].starts_with("1536 "));
        assert!(lines[7].starts_with("32 "));
        assert!(lines[10].starts_with("2 "));
        assert!(lines[11].starts_with("1 "));
    }
}
