//! HPL's solution verification: the scaled residual
//! `r = ||A x - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * N)`
//! must be below 16.0 for the run to pass, computed against a *freshly
//! regenerated* copy of the original system (the factorization destroyed
//! the one in place).

use hpl_comm::{Grid, Op};

use crate::error::HplError;
use crate::local::{LocalMatrix, System};
use crate::solve::distributed_matvec;

/// Verification report.
#[derive(Clone, Copy, Debug)]
pub struct Residuals {
    /// `||A x - b||_inf`.
    pub err_inf: f64,
    /// `||A||_inf` of the original matrix.
    pub a_inf: f64,
    /// `||x||_inf`.
    pub x_inf: f64,
    /// `||b||_inf`.
    pub b_inf: f64,
    /// The HPL scaled residual.
    pub scaled: f64,
}

impl Residuals {
    /// HPL's pass threshold.
    pub const THRESHOLD: f64 = 16.0;

    /// Whether the run passes HPL's check.
    pub fn passed(&self) -> bool {
        self.scaled < Self::THRESHOLD
    }
}

/// Computes the scaled residual for solution `x`. Regenerates the original
/// system from `(seed, n, nb)` so it can be called after the in-place
/// factorization. Collective over the grid.
pub fn verify(
    grid: &Grid,
    n: usize,
    nb: usize,
    seed: u64,
    x: &[f64],
) -> Result<Residuals, HplError> {
    verify_system(grid, n, nb, System::Seeded(seed), x, f64::EPSILON)
}

/// [`verify`] for a caller-supplied system (see
/// [`crate::driver::run_hpl_with`]): `fill` must be the same pure function
/// the solve used. Collective over the grid.
pub fn verify_with(
    grid: &Grid,
    n: usize,
    nb: usize,
    fill: &(dyn Fn(usize, usize) -> f64 + Sync),
    x: &[f64],
) -> Result<Residuals, HplError> {
    verify_system(grid, n, nb, System::Fill(fill), x, f64::EPSILON)
}

/// The verifier proper: regenerates `system` and scales the residual by
/// `eps` — a pure `f32` factorization is judged against `f32` accuracy
/// ([`hpl_blas::Element::UNIT_ROUNDOFF`]), while mixed-precision
/// refinement must recover `f64::EPSILON`-scaled accuracy to pass.
/// Collective over the grid.
pub fn verify_system(
    grid: &Grid,
    n: usize,
    nb: usize,
    system: System<'_>,
    x: &[f64],
    eps: f64,
) -> Result<Residuals, HplError> {
    assert_eq!(x.len(), n);
    // Regenerate this rank's original slice, and b (global column n),
    // which every rank can generate whole.
    let a: LocalMatrix<f64> = system.local(n, nb, grid);
    let ax = distributed_matvec(&a, grid, x)?;
    let mut err_inf = 0.0f64;
    let mut b_inf = 0.0f64;
    for (&axi, bi) in ax.iter().zip(system.rhs(n)) {
        err_inf = err_inf.max((axi - bi).abs());
        b_inf = b_inf.max(bi.abs());
    }
    let x_inf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    // ||A||_inf: max global row sum — local row sums over local columns
    // (excluding b), reduced across the row comm, maxed across the column.
    let av = a.view();
    let mut row_sums = vec![0.0f64; a.mloc];
    for lj in 0..a.nloc {
        if a.cols.to_global(lj) >= n {
            continue;
        }
        for (s, &v) in row_sums.iter_mut().zip(av.col(lj)) {
            *s += v.abs();
        }
    }
    hpl_comm::allreduce(grid.row(), Op::Sum, &mut row_sums)?;
    let mut local_max = [row_sums.into_iter().fold(0.0f64, f64::max)];
    hpl_comm::allreduce(grid.col(), Op::Max, &mut local_max)?;
    let a_inf = local_max[0];

    let scaled = err_inf / (eps * (a_inf * x_inf + b_inf) * n as f64);
    Ok(Residuals {
        err_inf,
        a_inf,
        x_inf,
        b_inf,
        scaled,
    })
}
