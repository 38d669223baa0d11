//! Property test of the row-swap phase against LAPACK's definition of it.
//!
//! The oracle applies LAPACK's `dlaswp` definition inline on a gathered
//! global copy: `k0+k <-> ipiv[k]`, one swap at a time. `row_swap` collapses the swaps
//! into a net plan, packs rows through the column-walk kernels and (for
//! `P > 1`) three collectives; whatever it does inside, the `U` block it
//! returns, the matrix it leaves behind and the traffic it generates must
//! equal what the definition (and the row-walk implementation it replaced)
//! gives — for pivots that repeat, stay inside the diagonal block or do not
//! move at all, sections that do not start at column 0 and widths of 0, 1
//! and not a multiple of the SIMD width, on process columns of 1, 2 and 3
//! ranks, in both pipeline elements. At `P = 1` the phase is one walk that
//! swaps `U` into its own rows: `row_swap_comm` alone must leave the
//! definition's matrix — `U` in rows `k0..k0+jb`, every other row as the
//! definition has it — with no `U` block assembled, and the `apply_moves`
//! after it must write nothing and record no `Scatter` span. At `P > 1`
//! the diagonal rows keep their content (the update stores the solved `U`
//! there afterwards).

use hpl_comm::{Grid, GridOrder, Universe, WireElem};
use proptest::prelude::*;
use rhpl_core::swap::{apply_moves, row_swap, row_swap_comm, ColRange, RsData, SwapPlan};
use rhpl_core::{LocalMatrix, RowSwapAlgo, System};

/// Distinct, exactly representable in `f32` (indices stay below 200).
fn entry(i: usize, j: usize) -> f64 {
    (i * 256 + j) as f64
}

struct Case {
    n: usize,
    nb: usize,
    p: usize,
    k0: usize,
    ipiv: Vec<usize>,
    range: ColRange,
    algo: RowSwapAlgo,
}

impl Case {
    fn jb(&self) -> usize {
        self.ipiv.len()
    }

    /// The sequential definition on a global copy: `(U, post-swap matrix)`,
    /// `U` `jb`-row and the matrix `n`-row column-major, over the section's
    /// columns only. The matrix holds `U` in rows `k0..k0+jb`.
    fn oracle(&self) -> (Vec<f64>, Vec<f64>) {
        let (n, jb, w) = (self.n, self.jb(), self.range.width());
        let mut g: Vec<f64> = (0..w)
            .flat_map(|j| (0..n).map(move |i| (i, j)))
            .map(|(i, j)| entry(i, self.range.start + j))
            .collect();
        for col in g.chunks_exact_mut(n.max(1)).take(w) {
            for (k, &piv) in self.ipiv.iter().enumerate() {
                col.swap(self.k0 + k, piv);
            }
        }
        let u = (0..w)
            .flat_map(|j| (0..jb).map(move |k| (k, j)))
            .map(|(k, j)| g[j * n + self.k0 + k])
            .collect();
        (u, g)
    }

    /// The matrix a communicated swap (`P > 1`) leaves: the definition's,
    /// with the diagonal rows as they were before it.
    fn diag_unswapped(&self, mut g: Vec<f64>) -> Vec<f64> {
        for j in 0..self.range.width() {
            for k in 0..self.jb() {
                g[j * self.n + self.k0 + k] = entry(self.k0 + k, self.range.start + j);
            }
        }
        g
    }

    /// `CommStats` of each rank, by the structure of the phase: a gatherv
    /// and a scatterv through the diagonal row when anything moves (counted
    /// by payload length), then the `P - 1` steps of the ring allgatherv of
    /// the `U` sources (whose typed send counts one element a message).
    fn traffic(&self, plan: &SwapPlan) -> Vec<(u64, u64)> {
        let (p, w) = (self.p, self.range.width() as u64);
        if p == 1 {
            return vec![(0, 0)];
        }
        let owner = |g: usize| (g / self.nb) % p;
        let root = owner(self.k0);
        let count = |rows: &mut dyn Iterator<Item = usize>| {
            let mut c = vec![0u64; p];
            rows.for_each(|g| c[owner(g)] += 1);
            c
        };
        let src = count(&mut plan.moves.iter().map(|m| m.1));
        let dst = count(&mut plan.moves.iter().map(|m| m.0));
        (0..p)
            .map(|r| {
                let (mut msgs, mut elems) = (0, 0);
                if !plan.moves.is_empty() {
                    if r == root {
                        msgs += p as u64 - 1;
                        elems += (0..p).filter(|&d| d != root).map(|d| dst[d]).sum::<u64>() * w;
                    } else {
                        msgs += 1;
                        elems += src[r] * w;
                    }
                }
                (msgs + p as u64 - 1, elems + p as u64 - 1)
            })
            .collect()
    }
}

/// One rank's view after the phase: `U`, its local section entries as
/// `(global row, section column, value)`, and what it sent.
struct RankOut {
    u: Vec<f64>,
    local: Vec<(usize, usize, f64)>,
    sent: (u64, u64),
}

fn section<E: WireElem>(a: &LocalMatrix<E>, range: ColRange) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for lj in range.start..range.end {
        for li in 0..a.mloc {
            out.push((
                a.rows.to_global(li),
                lj - range.start,
                a.get(li, lj).to_f64(),
            ));
        }
    }
    out
}

fn run<E: WireElem>(case: &Case) {
    let plan = SwapPlan::build(case.k0, case.jb(), &case.ipiv);
    let (want_u, want_a) = case.oracle();
    let want_a = if case.p == 1 {
        want_a
    } else {
        case.diag_unswapped(want_a)
    };
    let range = case.range;
    let outs = Universe::run(case.p, |comm| {
        let grid = Grid::new(comm, case.p, 1, GridOrder::ColumnMajor);
        let fresh = || System::Fill(&entry).local::<E>(case.n, case.nb, &grid);
        let prow = (case.k0 / case.nb) % case.p;
        hpl_trace::install(hpl_trace::TraceOpts::on());

        // The whole phase at once.
        let mut a = fresh();
        let rows = a.rows;
        let before = grid.col().stats().snapshot();
        let u = row_swap(
            grid.col(),
            rows,
            &plan,
            prow,
            &mut a.view_mut(),
            range,
            case.algo,
        )
        .expect("fault-free fabric");
        let after = grid.col().stats().snapshot();
        assert_eq!((u.rows(), u.cols()), (case.jb(), range.width()));

        // The split-update deferral, in a workspace that held a wider
        // section first: communicate, scatter later. At `P = 1` the first
        // half is the whole swap and the scatter must write nothing.
        let mut b = fresh();
        let mut rs = RsData::for_sections(0, 0, case.p);
        let whole = ColRange {
            start: 0,
            end: b.nloc,
        };
        for r in [whole, range] {
            b = fresh();
            let unswapped = section(&b, r);
            row_swap_comm(
                grid.col(),
                rows,
                &plan,
                prow,
                &mut b.view_mut(),
                r,
                case.algo,
                &mut rs,
            )
            .expect("fault-free fabric");
            let swapped = section(&b, r);
            if case.p > 1 {
                assert_eq!(swapped, unswapped, "comm half must not write");
            }
            apply_moves(&mut b.view_mut(), r, &rs);
            if case.p == 1 {
                assert_eq!(section(&b, r), swapped, "P = 1 scatter wrote");
            }
        }
        // One `Scatter` span per `apply_moves` after a communicated swap,
        // none after a one-walk swap.
        let trace = hpl_trace::take().expect("tracing was installed");
        let scatters = (trace.spans.iter())
            .filter(|s| s.phase == hpl_trace::Phase::Scatter)
            .count();
        assert_eq!(scatters, if case.p > 1 { 3 } else { 0 }, "Scatter spans");
        if case.p > 1 {
            assert_eq!(rs.u, u, "deferred U differs from the one-shot phase");
        } else {
            assert_eq!(rs.u.as_slice().len(), 0, "P = 1 assembled a U block");
        }
        assert_eq!(
            b.as_slice(),
            a.as_slice(),
            "deferred scatter differs from the one-shot phase"
        );
        // Columns outside the section are untouched.
        let untouched = fresh();
        for lj in (0..a.nloc).filter(|lj| !(range.start..range.end).contains(lj)) {
            for li in 0..a.mloc {
                assert_eq!(a.get(li, lj), untouched.get(li, lj));
            }
        }
        RankOut {
            u: u.as_slice().iter().map(|v| v.to_f64()).collect(),
            local: section(&a, range),
            sent: (after.0 - before.0, after.1 - before.1),
        }
    });
    for (rank, out) in outs.iter().enumerate() {
        assert_eq!(out.u, want_u, "U on rank {rank}");
        for &(i, j, v) in &out.local {
            assert_eq!(v, want_a[j * case.n + i], "A({i}, {j}) on rank {rank}");
        }
    }
    if case.algo == RowSwapAlgo::Ring {
        let sent: Vec<_> = outs.iter().map(|o| o.sent).collect();
        assert_eq!(sent, case.traffic(&plan), "(messages, elements) per rank");
    }
}

/// The `P = 1` kernel alone, from a workspace sized as the driver sizes
/// it: after `row_swap_comm`, rows `k0..k0+jb` of every swept column hold
/// the definition's `U` rows, every other row of the section equals the
/// definition, the columns outside it are untouched, and no `U` block was
/// assembled.
fn in_place_p1<E: WireElem>(case: &Case) {
    assert_eq!(case.p, 1);
    let plan = SwapPlan::build(case.k0, case.jb(), &case.ipiv);
    let (want_u, want_a) = case.oracle();
    let (n, jb, range) = (case.n, case.jb(), case.range);
    Universe::run(1, |comm| {
        let grid = Grid::new(comm, 1, 1, GridOrder::ColumnMajor);
        let mut a = System::Fill(&entry).local::<E>(n, case.nb, &grid);
        let mut rs = RsData::for_sections(jb, range.width(), 1);
        let rows = a.rows;
        row_swap_comm(
            grid.col(),
            rows,
            &plan,
            0,
            &mut a.view_mut(),
            range,
            case.algo,
            &mut rs,
        )
        .expect("a one-rank column sends nothing");
        assert_eq!(rs.u.as_slice().len(), 0, "P = 1 assembled a U block");
        for lj in 0..a.nloc {
            let j = lj.wrapping_sub(range.start);
            for i in 0..n {
                let got = a.get(i, lj).to_f64();
                if !(range.start..range.end).contains(&lj) {
                    assert_eq!(got, entry(i, lj), "A({i}, {lj}) outside the section");
                } else if (case.k0..case.k0 + jb).contains(&i) {
                    let k = i - case.k0;
                    assert_eq!(got, want_u[j * jb + k], "U({k}, {j}) in place");
                } else {
                    assert_eq!(got, want_a[j * n + i], "A({i}, {lj})");
                }
            }
        }
    });
}

/// Pivots for panel `k0..k0+jb` of `n` rows: each step draws one of
/// identity, a row inside the diagonal block, the previous step's pivot
/// again, or any trailing row.
fn pivots(n: usize, k0: usize, jb: usize, mut seed: u64) -> Vec<usize> {
    let mut next = |m: usize| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as usize % m
    };
    let mut ipiv: Vec<usize> = Vec::with_capacity(jb);
    for k in 0..jb {
        let row = k0 + k;
        let piv = match (next(4), ipiv.last()) {
            (0, _) => row,
            (1, _) => row + next(k0 + jb - row),
            (2, Some(&prev)) if prev >= row => prev,
            _ => row + next(n - row),
        };
        ipiv.push(piv);
    }
    ipiv
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, max_shrink_iters: 0 })]

    #[test]
    fn row_swap_is_sequential_dlaswp(
        p in 1usize..=3,
        nb in 1usize..=9,
        nblocks in 1usize..=7,
        ragged in 0usize..9,
        kblk in 0usize..7,
        width_kind in 0usize..4,
        c0 in 0usize..70,
        span in 0usize..70,
        algo_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let n = nblocks * nb + ragged % nb;
        let k0 = (kblk % n.div_ceil(nb)) * nb;
        let jb = nb.min(n - k0);
        // The section: any sub-range of the n + 1 local columns (Q = 1).
        let start = c0 % (n + 1);
        let width = match width_kind {
            0 => 0,
            1 => 1,
            _ => span % (n + 2 - start),
        };
        let case = Case {
            n,
            nb,
            p,
            k0,
            ipiv: pivots(n, k0, jb, seed),
            range: ColRange { start, end: start + width },
            algo: [
                RowSwapAlgo::Ring,
                RowSwapAlgo::BinaryExchange,
                RowSwapAlgo::Mix { threshold: 8 },
            ][algo_idx],
        };
        run::<f64>(&case);
        run::<f32>(&case);
    }

    #[test]
    fn p1_swap_writes_u_into_its_own_rows(
        nb in 1usize..=9,
        nblocks in 1usize..=7,
        ragged in 0usize..9,
        kblk in 0usize..7,
        c0 in 0usize..70,
        span in 0usize..70,
        seed in 0u64..u64::MAX,
    ) {
        let n = nblocks * nb + ragged % nb;
        let k0 = (kblk % n.div_ceil(nb)) * nb;
        let jb = nb.min(n - k0);
        let start = c0 % (n + 1);
        let case = Case {
            n,
            nb,
            p: 1,
            k0,
            ipiv: pivots(n, k0, jb, seed),
            range: ColRange { start, end: start + span % (n + 2 - start) },
            algo: RowSwapAlgo::Ring,
        };
        in_place_p1::<f64>(&case);
        in_place_p1::<f32>(&case);
    }
}

/// The benchmark's first-iteration shape in miniature: every pivot distant,
/// so nearly every diagonal row moves out and nearly every `U` row comes
/// from below.
#[test]
fn all_pivots_distant() {
    let (n, nb) = (96, 16);
    for p in 1..=3 {
        let case = Case {
            n,
            nb,
            p,
            k0: 16,
            ipiv: (0..nb).map(|k| n - 1 - 3 * k).collect(),
            range: ColRange { start: 32, end: 97 },
            algo: RowSwapAlgo::Ring,
        };
        run::<f64>(&case);
        run::<f32>(&case);
    }
}
