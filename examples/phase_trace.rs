//! Fig 2 narration: runs one HPL iteration on a 2x2 grid and reports, per
//! phase, who computed and who communicated — using the substrate's
//! per-rank traffic counters to show the communication pattern of each of
//! the four phases (FACT, LBCAST, RS, UPDATE).
//!
//! ```text
//! cargo run -p hpl-examples --bin phase_trace
//! ```

use hpl_comm::{Grid, GridOrder, Universe};
use rhpl_core::dist::Axis;
use rhpl_core::fact::{panel_factor, FactInput};
use rhpl_core::panel::{lbcast, pack_panel_in_place, PanelGeom};
use rhpl_core::swap::{row_swap, ColRange, SwapPlan};
use rhpl_core::update::full_update;
use rhpl_core::{HplConfig, LocalMatrix};

fn main() {
    let cfg = HplConfig::new(64, 16, 2, 2);
    println!(
        "one HPL iteration on a 2x2 grid, N={}, NB={} (paper Fig 2)\n",
        cfg.n, cfg.nb
    );
    let logs = Universe::run(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, GridOrder::ColumnMajor);
        let mut a = LocalMatrix::<f64>::generate(cfg.n, cfg.nb, &grid, cfg.seed);
        let pool = hpl_threads::Pool::new(1);
        let mut log = Vec::new();
        let me = (grid.myrow(), grid.mycol());
        let snap = |c: &hpl_comm::Communicator| c.stats().snapshot();

        // Phase a: FACT — only the panel-owning process column works,
        // factoring its panel rows in place in the local matrix.
        let g = PanelGeom::new(&a, &grid, 0, cfg.nb);
        let before = snap(grid.col());
        let packed = if g.in_panel_col {
            let rows: Axis = a.rows;
            let out = {
                let inp = FactInput {
                    col_comm: grid.col(),
                    rows,
                    k0: 0,
                    jb: g.jb,
                    lb: g.lb,
                    is_curr: g.in_curr_row,
                    pool: &pool,
                    opts: cfg.fact,
                };
                let mut av = a.view_mut();
                let mut panel = av.submatrix_mut(g.lb, g.lj0, g.mp, g.jb);
                panel_factor(&inp, &mut panel).expect("nonsingular")
            };
            let mut buf = Vec::with_capacity(g.bcast_len());
            pack_panel_in_place(&a, &g, &out.top, &out.ipiv, &mut buf);
            Some(buf)
        } else {
            None
        };
        let after = snap(grid.col());
        log.push(format!(
            "FACT   rank {me:?}: {} ({} column-collective messages sent)",
            if g.in_panel_col {
                "factored local panel rows"
            } else {
                "idle (not in panel column)"
            },
            after.0 - before.0
        ));

        // Phase b: LBCAST — panel column broadcasts along process rows.
        let before = snap(grid.row());
        let panel = lbcast(grid.row(), cfg.bcast, &g, packed).expect("panel broadcast");
        let after = snap(grid.row());
        log.push(format!(
            "LBCAST rank {me:?}: {} row messages sent, ipiv = {:?}",
            after.0 - before.0,
            panel.ipiv
        ));

        // Phase c: RS — scatterv + allgatherv within each process column.
        let plan = SwapPlan::build(0, cfg.nb, &panel.ipiv);
        let range = ColRange {
            start: a.cols.local_lower_bound(cfg.nb),
            end: a.nloc,
        };
        let before = snap(grid.col());
        let rows: Axis = a.rows;
        let mut av = a.view_mut();
        let u =
            row_swap(grid.col(), rows, &plan, g.prow, &mut av, range, cfg.swap).expect("row swap");
        let after = snap(grid.col());
        log.push(format!(
            "RS     rank {me:?}: {} moves, U is {}x{}, {} column messages sent",
            plan.moves.len(),
            u.rows(),
            u.cols(),
            after.0 - before.0
        ));

        // Phase d: UPDATE — pure local computation, no messages.
        let before = snap(grid.world());
        let mut av = a.view_mut();
        full_update(&g, &panel, u, &mut av, range);
        let after = snap(grid.world());
        log.push(format!(
            "UPDATE rank {me:?}: DTRSM + DGEMM on {} local columns, {} messages (none expected)",
            range.width(),
            after.0 - before.0
        ));
        log
    });
    for (rank, log) in logs.iter().enumerate() {
        println!("rank {rank}:");
        for line in log {
            println!("  {line}");
        }
    }
}
