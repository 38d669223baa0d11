//! CPU core time-sharing bindings (paper §III.B).
//!
//! rocHPL launches one MPI rank per GCD and binds each rank to a root core.
//! With a node-local `P x Q` process grid on `C` cores, only the `P` ranks of
//! one process *column* factor a panel at any given iteration, so the
//! remaining `C̄ = C - P*Q` cores are pooled, partitioned into `P`
//! non-overlapping groups (one per process *row*), and every rank in a row
//! binds its FACT threads to its root core plus its row's group. Each FACT
//! phase then uses `P * T = P + C̄` cores with `T = 1 + C̄ / P` threads per
//! participating rank, regardless of which column currently owns the panel.
//!
//! This module reimplements the arithmetic of rocHPL's launch wrapper script.
//! The driver does not bind threads; the table binary `core_binding_table`,
//! the example `examples/fact_tiling_map.rs` and the integration test
//! `tests/tests/model_vs_functional.rs` use it to show and check the
//! paper's layouts.

/// Error from [`time_shared_bindings`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindError {
    /// `p * q == 0`.
    EmptyGrid,
    /// Fewer cores than ranks: every rank needs a distinct root core.
    TooFewCores {
        /// Number of node-local ranks (`p * q`).
        ranks: usize,
        /// Number of physical cores available.
        cores: usize,
    },
}

impl core::fmt::Display for BindError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BindError::EmptyGrid => write!(f, "process grid must be non-empty"),
            BindError::TooFewCores { ranks, cores } => {
                write!(
                    f,
                    "{ranks} ranks need {ranks} root cores but only {cores} available"
                )
            }
        }
    }
}

impl std::error::Error for BindError {}

/// Thread-to-core binding for one node-local rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreBinding {
    /// Node-local rank (column-major over the local grid, as in HPL).
    pub rank: usize,
    /// Process row `0..p`.
    pub row: usize,
    /// Process column `0..q`.
    pub col: usize,
    /// The core this rank's main thread is pinned to.
    pub root_core: usize,
    /// Pool cores this rank additionally binds during FACT (its process
    /// row's partition of the shared pool).
    pub extra_cores: Vec<usize>,
}

impl CoreBinding {
    /// Number of OpenMP-style threads this rank uses in the FACT phase
    /// (`T = 1 + |extra|`).
    pub fn threads(&self) -> usize {
        1 + self.extra_cores.len()
    }
}

/// Computes time-shared bindings for a node-local `p x q` grid on `cores`
/// physical cores. Ranks are column-major: `rank = col * p + row`.
///
/// Root cores are spread evenly so each rank's root lands at the start of
/// its share of the socket (on Frontier: the first core of the CCD nearest
/// its GCD). The remaining cores are partitioned into `p` groups assigned to
/// process rows; when `C̄` is not divisible by `p` the first rows get one
/// extra core.
pub fn time_shared_bindings(
    p: usize,
    q: usize,
    cores: usize,
) -> Result<Vec<CoreBinding>, BindError> {
    if p == 0 || q == 0 {
        return Err(BindError::EmptyGrid);
    }
    let ranks = p * q;
    if cores < ranks {
        return Err(BindError::TooFewCores { ranks, cores });
    }
    // Spread root cores: rank r owns the contiguous chunk
    // [r*cores/ranks, (r+1)*cores/ranks) and its root is the chunk start.
    let root_of = |r: usize| r * cores / ranks;
    let roots: Vec<usize> = (0..ranks).map(root_of).collect();
    // Pool = all non-root cores, ascending.
    let mut is_root = vec![false; cores];
    for &r in &roots {
        is_root[r] = true;
    }
    let pool: Vec<usize> = (0..cores).filter(|&c| !is_root[c]).collect();
    // Partition the pool into p row groups; earlier rows absorb remainders.
    let base = pool.len() / p;
    let rem = pool.len() % p;
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(p);
    let mut off = 0;
    for row in 0..p {
        let len = base + usize::from(row < rem);
        groups.push(pool[off..off + len].to_vec());
        off += len;
    }
    let mut out = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let row = rank % p;
        let col = rank / p;
        out.push(CoreBinding {
            rank,
            row,
            col,
            root_core: roots[rank],
            extra_cores: groups[row].clone(),
        });
    }
    Ok(out)
}

/// Total cores active during one FACT phase (the ranks of a single process
/// column plus their row groups): `p + C̄` when the pool divides evenly.
pub fn fact_cores(bindings: &[CoreBinding], p: usize, col: usize) -> usize {
    bindings
        .iter()
        .filter(|b| b.col == col && b.row < p)
        .map(|b| b.threads())
        .sum()
}

/// Largest number of ranks whose binding set contains any single core.
/// Within one process *column* this is always 1 (groups are disjoint and
/// root cores are unique); across columns the row group is shared — that is
/// the "time sharing", safe because only one column factors at a time.
pub fn max_core_sharing(bindings: &[CoreBinding], cores: usize) -> usize {
    let mut counts = vec![0usize; cores];
    for b in bindings {
        counts[b.root_core] += 1;
        for &c in &b.extra_cores {
            counts[c] += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Frontier node: 64 cores, 8 GCDs -> 8 ranks.
    const C: usize = 64;

    fn check_invariants(p: usize, q: usize, cores: usize) -> Vec<CoreBinding> {
        let b = time_shared_bindings(p, q, cores).unwrap();
        assert_eq!(b.len(), p * q);
        // Distinct root cores.
        let roots: HashSet<usize> = b.iter().map(|x| x.root_core).collect();
        assert_eq!(roots.len(), p * q, "{p}x{q}: root cores must be distinct");
        // Row groups disjoint from each other and from roots.
        let mut seen = roots.clone();
        for row in 0..p {
            let g = &b.iter().find(|x| x.row == row).unwrap().extra_cores;
            for &c in g {
                assert!(seen.insert(c), "{p}x{q}: core {c} assigned twice");
            }
        }
        // Same row => identical group; and every core is used.
        for x in &b {
            let first = b.iter().find(|y| y.row == x.row).unwrap();
            assert_eq!(x.extra_cores, first.extra_cores);
        }
        let total_assigned: usize = p * q
            + b.iter()
                .filter(|x| x.col == 0)
                .map(|x| x.extra_cores.len())
                .sum::<usize>();
        assert_eq!(total_assigned, cores, "{p}x{q}: all cores must be covered");
        b
    }

    #[test]
    fn paper_example_2x4_on_frontier() {
        // §III.B: 2x4 grid, C̄ = 56, groups of 28, every FACT phase uses
        // P + C̄ = 58 cores.
        let b = check_invariants(2, 4, C);
        for x in &b {
            assert_eq!(x.threads(), 1 + 56 / 2);
        }
        for col in 0..4 {
            assert_eq!(fact_cores(&b, 2, col), 2 + 56);
        }
    }

    #[test]
    fn px1_reduces_to_simple_partition() {
        // 8x1 grid: every rank always factors; T = C / P = 8, no sharing.
        let b = check_invariants(8, 1, C);
        for x in &b {
            assert_eq!(x.threads(), C / 8);
        }
        assert_eq!(max_core_sharing(&b, C), 1);
    }

    #[test]
    fn onexq_maximizes_sharing() {
        // 1x8 grid: one rank factors at a time; T = 1 + (64 - 8) = 57.
        let b = check_invariants(1, 8, C);
        for x in &b {
            assert_eq!(x.threads(), 57);
        }
        // All 8 ranks share the single row group.
        assert_eq!(max_core_sharing(&b, C), 8);
        assert_eq!(fact_cores(&b, 1, 3), 57);
    }

    #[test]
    fn grid_4x2() {
        let b = check_invariants(4, 2, C);
        // C̄ = 56, groups of 14, T = 15, FACT cores = 4 + 56 = 60.
        for x in &b {
            assert_eq!(x.threads(), 15);
        }
        assert_eq!(fact_cores(&b, 4, 0), 60);
        assert_eq!(max_core_sharing(&b, C), 2);
    }

    #[test]
    fn uneven_pool_distributes_remainder() {
        // 3 rows on 10 cores, 1 col: pool = 7, groups 3/2/2.
        let b = check_invariants(3, 1, 10);
        let sizes: Vec<usize> = (0..3)
            .map(|row| b.iter().find(|x| x.row == row).unwrap().extra_cores.len())
            .collect();
        assert_eq!(sizes, vec![3, 2, 2]);
    }

    #[test]
    fn errors() {
        assert_eq!(time_shared_bindings(0, 4, 8), Err(BindError::EmptyGrid));
        assert_eq!(
            time_shared_bindings(2, 4, 4),
            Err(BindError::TooFewCores { ranks: 8, cores: 4 })
        );
    }

    #[test]
    fn exact_fit_leaves_empty_pool() {
        let b = check_invariants(2, 2, 4);
        for x in &b {
            assert_eq!(x.threads(), 1);
        }
    }

    #[test]
    fn roots_spread_across_ccd_boundaries() {
        // 8 ranks on 64 cores: roots at 0, 8, 16, ... (one per CCD).
        let b = time_shared_bindings(4, 2, 64).unwrap();
        let roots: Vec<usize> = b.iter().map(|x| x.root_core).collect();
        assert_eq!(roots, vec![0, 8, 16, 24, 32, 40, 48, 56]);
    }
}
