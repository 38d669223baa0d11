//! Per-layer measurements taken by linking the crates and timing calls
//! into their public functions — the once-per-run part of the chain
//! (`host.*` .. `faults.*`). Every rate is a best-of over a time slice.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hpl_blas::mat::Matrix;
use hpl_blas::{argmax_abs, axpy_sub, dgemm, dtrsm, Diag, Element, Side, Trans, Uplo};
use hpl_comm::{
    allreduce_maxloc, Communicator, FabricOpts, Grid, GridOrder, MaxLoc, Tag, TransportSel,
    Universe,
};
use hpl_threads::Pool;
use rhpl_core::dist::Axis;
use rhpl_core::fact::{panel_factor, FactInput};
use rhpl_core::panel::{pack_panel, panel_to_host, unpack_panel, PanelGeom};
use rhpl_core::swap::{row_swap, ColRange, SwapPlan};
use rhpl_core::update::full_update;
use rhpl_core::{back_substitute, verify, LocalMatrix, MatGen, RowSwapAlgo};

use crate::host::{best_of, peak_gflops, timed, StreamArrays};
use crate::metrics::Values;
use crate::workload::fact_opts;

/// Deterministic, well-scaled matrix entries for the kernel timings.
fn test_matrix<E: Element>(rows: usize, cols: usize, salt: usize) -> Matrix<E> {
    Matrix::from_fn(rows, cols, |i, j| {
        E::from_f64(((i * 13 + j * 7 + salt) % 17) as f64 * 0.1 - 0.8)
    })
}

/// GEMM rate at an UPDATE shape: `C(m x n) -= A(m x k) * B(k x n)`.
fn gemm_gflops<E: Element>(m: usize, n: usize, k: usize, slice_s: f64) -> f64 {
    let a = test_matrix::<E>(m, k, 0);
    let b = test_matrix::<E>(k, n, 3);
    let mut c = Matrix::<E>::zeros(m, n);
    let t = best_of(slice_s, || {
        let mut cv = c.view_mut();
        timed(|| {
            dgemm(
                Trans::No,
                Trans::No,
                -E::ONE,
                a.view(),
                b.view(),
                E::ONE,
                &mut cv,
            )
        })
    });
    2.0 * (m * n * k) as f64 / t / 1e9
}

/// `host.*` and `blas.*`: the roofline denominators and the kernels held
/// against them, in one process.
pub fn host_and_blas(values: &mut Values, nproc: usize, llc_bytes: u64, slice_s: f64) {
    let (peak64, peak32) = peak_gflops(slice_s);
    values.set("host.peak_gflops_f64", peak64);
    values.set("host.peak_gflops_f32", peak32);
    values.set("host.nproc", nproc as f64);

    // First-iteration trailing-update shapes of the workloads: local rows
    // below the diagonal block x local trailing columns (with the b column).
    let nb128 = gemm_gflops::<f64>(3072 - 128, 3073 - 128, 128, slice_s);
    values.set("blas.dgemm_nb128_gflops", nb128);
    values.set(
        "blas.dgemm_nb32_gflops",
        gemm_gflops::<f64>((1536 - 32) / 2, 1537 - 32, 32, slice_s),
    );
    values.set(
        "blas.dgemm_nb512_gflops",
        gemm_gflops::<f64>(1536 - 512, 1537 - 512, 512, slice_s),
    );
    values.set(
        "blas.sgemm_nb128_gflops",
        gemm_gflops::<f32>(3072 - 128, 3073 - 128, 128, slice_s),
    );
    values.set("blas.dgemm_frac_of_peak", nb128 / peak64);

    let (nb, w) = (128, 3073 - 128);
    let mut t = test_matrix::<f64>(nb, nb, 1);
    for i in 0..nb {
        t.set(i, i, 1.0);
    }
    let u0 = test_matrix::<f64>(nb, w, 5);
    let secs = best_of(slice_s, || {
        let mut u = u0.clone();
        let mut uv = u.view_mut();
        timed(|| {
            dtrsm(
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::Unit,
                1.0,
                t.view(),
                &mut uv,
            )
        })
    });
    values.set("blas.dtrsm_nb128_gflops", (nb * nb * w) as f64 / secs / 1e9);

    let mut arrays = StreamArrays::new(llc_bytes);
    println!(
        "  bandwidth arrays: 3 x {} MiB against a last-level cache of {} MiB{}",
        arrays.array_bytes() >> 20,
        llc_bytes >> 20,
        if arrays.array_bytes() >= 4 * llc_bytes {
            ""
        } else {
            " — capped BELOW 4x the cache: read host.stream_triad_GBps as an upper bound"
        }
    );
    values.set("host.stream_triad_GBps", arrays.triad_gbps(slice_s));
    let bytes = arrays.array_bytes() as f64;
    let alpha = black_box(1e-3);
    let secs = best_of(slice_s, || {
        timed(|| axpy_sub(alpha, &arrays.b, &mut arrays.a))
    });
    values.set("blas.l1_axpy_GBps", 3.0 * bytes / secs / 1e9);
    let secs = best_of(slice_s, || timed(|| argmax_abs(&arrays.a)));
    values.set("blas.l1_argmax_GBps", bytes / secs / 1e9);
}

/// `threads.*`: what an empty two-thread region and a barrier cost.
pub fn threads(values: &mut Values, slice_s: f64) {
    const ROUNDS: usize = 1000;
    let pool = Pool::new(2);
    let region = best_of(slice_s, || {
        timed(|| {
            for _ in 0..ROUNDS {
                pool.run(2, |ctx| {
                    black_box(ctx.thread_id());
                });
            }
        })
    }) / ROUNDS as f64;
    values.set("threads.region_ns_t2", region * 1e9);
    // Timed inside the region, between barriers, by thread 0 alone: the
    // region's own cost is never in the interval, so nothing is subtracted.
    let barriers = best_of(slice_s, || {
        let loop_ns = AtomicU64::new(0);
        pool.run(2, |ctx| {
            ctx.barrier();
            let t = Instant::now();
            for _ in 0..ROUNDS {
                ctx.barrier();
            }
            if ctx.thread_id() == 0 {
                loop_ns.store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });
        loop_ns.into_inner() as f64 * 1e-9
    });
    values.set("threads.barrier_ns_t2", barriers / ROUNDS as f64 * 1e9);
}

/// One-way time of a `elems`-f64 message between two ranks of `sel`,
/// seconds: rank 0 bounces messages off rank 1 for `slice_s` seconds (the
/// first element tells rank 1 whether another follows).
fn pingpong_one_way_s(sel: TransportSel, elems: usize, slice_s: f64) -> f64 {
    let tag = Tag::user(7);
    let results = Universe::run_with_transport(2, sel, FabricOpts::default(), |comm| {
        let mut buf = vec![1.0f64; elems];
        if comm.rank() == 1 {
            loop {
                comm.recv_into(0, tag, &mut buf);
                comm.send_slice(0, tag, &buf);
                if buf[0] == 0.0 {
                    return 0.0;
                }
            }
        }
        let mut best = f64::INFINITY;
        let t0 = Instant::now();
        let mut trips = 0;
        while trips < 20 || t0.elapsed().as_secs_f64() < slice_s {
            best = best.min(timed(|| {
                comm.send_slice(1, tag, &buf);
                comm.recv_into(1, tag, &mut buf);
            }));
            trips += 1;
        }
        buf[0] = 0.0;
        comm.send_slice(1, tag, &buf);
        comm.recv_into(1, tag, &mut buf);
        best / 2.0
    });
    results[0]
}

/// One `allreduce_maxloc` that hands every rank of `comm` rank 0's `go`:
/// how timed loops on several ranks agree to stop on the same round.
fn rank0_says_go(comm: &Communicator, go: bool) -> bool {
    let me = comm.rank();
    let mine = MaxLoc {
        value: if go && me == 0 { 1.0 } else { 0.0 },
        loc: me as u64,
    };
    allreduce_maxloc(comm, mine)
        .expect("fault-free fabric")
        .value
        != 0.0
}

/// Time of one two-rank `allreduce_maxloc` on `sel`, seconds (mean over
/// the slice; the measured collective doubles as the keep-going vote).
fn allreduce_maxloc_s(sel: TransportSel, slice_s: f64) -> f64 {
    let results = Universe::run_with_transport(2, sel, FabricOpts::default(), |comm| {
        let t0 = Instant::now();
        let mut rounds = 0u32;
        loop {
            let go = rounds < 50 || t0.elapsed().as_secs_f64() < slice_s;
            rounds += 1;
            if !rank0_says_go(&comm, go) {
                return t0.elapsed().as_secs_f64() / f64::from(rounds);
            }
        }
    });
    results[0]
}

/// `comm.pingpong_*` and `comm.allreduce_maxloc_*`: each link's latency
/// (8 B), bandwidth (1 MiB) and the pivot collective on it.
pub fn comm(values: &mut Values, slice_s: f64) {
    for sel in [TransportSel::Inproc, TransportSel::Tcp, TransportSel::Shm] {
        let lat = pingpong_one_way_s(sel, 1, slice_s);
        values.set(&format!("comm.pingpong_lat_us_{sel}"), lat * 1e6);
        let big = pingpong_one_way_s(sel, (1 << 20) / 8, slice_s);
        values.set(
            &format!("comm.pingpong_GBps_{sel}"),
            f64::from(1 << 20) / big / 1e9,
        );
        if sel != TransportSel::Shm {
            values.set(
                &format!("comm.allreduce_maxloc_us_p2_{sel}"),
                allreduce_maxloc_s(sel, slice_s) * 1e6,
            );
        }
    }
}

/// FACT rate of an `m x nb` panel on `threads` threads (the Fig 5 axis):
/// LU flops `m nb^2 - nb^3/3` over the best `panel_factor` call.
fn fact_gflops(m: usize, nb: usize, threads: usize, slice_s: f64) -> f64 {
    let secs = Universe::run(1, |comm| {
        let pool = Pool::new(threads);
        let gen = MatGen::new(3, m);
        let pristine = Matrix::<f64>::from_fn(m, nb, |i, j| gen.entry(i, j));
        let inp = FactInput {
            col_comm: &comm,
            rows: Axis {
                n: m,
                nb,
                iproc: 0,
                nprocs: 1,
            },
            k0: 0,
            jb: nb,
            lb: 0,
            is_curr: true,
            pool: &pool,
            opts: fact_opts(threads),
        };
        best_of(slice_s, || {
            let mut panel = pristine.clone();
            let mut pv = panel.view_mut();
            timed(|| panel_factor(&inp, &mut pv).expect("random panel is nonsingular"))
        })
    })[0];
    let (m, nb) = (m as f64, nb as f64);
    (m * nb * nb - nb * nb * nb / 3.0) / secs / 1e9
}

/// Pseudo-random pivots for panel `k0..k0+jb` of an `n`-row matrix: step
/// `k` picks a row in `k0+k..n`, the same on every rank.
fn synthetic_pivots(n: usize, k0: usize, jb: usize) -> Vec<usize> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ (k0 as u64);
    (0..jb)
        .map(|k| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            k0 + k + (s >> 33) as usize % (n - k0 - k)
        })
        .collect()
}

/// Time of one first-iteration `row_swap` over a `p x 1` process column,
/// seconds: the slowest rank of the best batch.
fn rowswap_s(n: usize, nb: usize, p: usize, slice_s: f64) -> f64 {
    const BATCH: u32 = 8;
    let plan = SwapPlan::build(0, nb, &synthetic_pivots(n, 0, nb));
    let per_rank = Universe::run(p, |comm| {
        let grid = Grid::new(comm, p, 1, GridOrder::ColumnMajor);
        let mut a = LocalMatrix::<f64>::generate(n, nb, &grid, 11);
        let rows = a.rows;
        let range = ColRange {
            start: a.cols.local_lower_bound(nb),
            end: a.nloc,
        };
        let t0 = Instant::now();
        let mut batches = Vec::new();
        loop {
            let go = batches.len() < 2 || t0.elapsed().as_secs_f64() < slice_s;
            if !rank0_says_go(grid.col(), go) {
                return batches;
            }
            batches.push(timed(|| {
                for _ in 0..BATCH {
                    let mut av = a.view_mut();
                    row_swap(
                        grid.col(),
                        rows,
                        &plan,
                        0,
                        &mut av,
                        range,
                        RowSwapAlgo::Ring,
                    )
                    .expect("fault-free fabric");
                }
            }));
        }
    });
    let batches = per_rank[0].len();
    (0..batches)
        .map(|b| per_rank.iter().map(|r| r[b]).fold(0.0, f64::max))
        .fold(f64::INFINITY, f64::min)
        / f64::from(BATCH)
}

/// `core.*` (the once-per-run part): FACT vs panel height and threads,
/// UPDATE, row swaps, and the phases outside the iteration loop.
pub fn core(values: &mut Values, slice_s: f64) {
    for (m, nb) in [(3072usize, 128usize), (1536, 512)] {
        for threads in [1usize, 2] {
            values.set(
                &format!("core.fact_gflops_m{m}_nb{nb}_t{threads}"),
                fact_gflops(m, nb, threads, slice_s),
            );
        }
    }
    let fact = |t: usize| {
        values
            .get(&format!("core.fact_gflops_m1536_nb512_t{t}"))
            .expect("just set")
    };
    let speedup = fact(2) / fact(1);
    values.set("core.fact_t2_speedup", speedup);

    values.set("core.rowswap_us_p1", rowswap_s(3072, 128, 1, slice_s) * 1e6);
    values.set("core.rowswap_us_p2", rowswap_s(1536, 32, 2, slice_s) * 1e6);

    let (n, nb, seed) = (3072usize, 128usize, 42u64);
    let [generate, update, backsolve, verify_s] = Universe::run(1, |comm| {
        let grid = Grid::new(comm, 1, 1, GridOrder::ColumnMajor);
        let generate = best_of(slice_s, || {
            timed(|| LocalMatrix::<f64>::generate(n, nb, &grid, seed))
        });

        // One real first iteration's panel, then `full_update` on the
        // trailing matrix; the panel is unpacked afresh per sample because
        // a real iteration packs L2 once.
        let mut a = LocalMatrix::<f64>::generate(n, nb, &grid, seed);
        let geom = PanelGeom::new(&a, &grid, 0, nb);
        let mut host = panel_to_host(&a, &geom);
        let pool = Pool::new(1);
        let inp = FactInput {
            col_comm: grid.col(),
            rows: a.rows,
            k0: 0,
            jb: nb,
            lb: 0,
            is_curr: true,
            pool: &pool,
            opts: fact_opts(1),
        };
        let out = {
            let mut hv = rhpl_core::panel::host_view(&mut host, &geom);
            panel_factor(&inp, &mut hv).expect("random panel is nonsingular")
        };
        let packed = pack_panel(&geom, &out.top, &out.ipiv, &host);
        let range = ColRange {
            start: a.cols.local_lower_bound(nb),
            end: a.nloc,
        };
        let u = Matrix::<f64>::from_fn(nb, range.width(), |i, j| a.get(i, range.start + j));
        let update = best_of(slice_s, || {
            let panel = unpack_panel(&geom, &packed);
            let u = u.clone();
            let mut av = a.view_mut();
            timed(|| full_update(&geom, &panel, u, &mut av, range))
        });

        // A well-conditioned upper triangle for the back-substitution.
        let mut tri = LocalMatrix::<f64>::generate(n, nb, &grid, seed);
        for i in 0..n {
            tri.set(i, i, n as f64);
        }
        let backsolve = best_of(slice_s, || {
            timed(|| back_substitute(&tri, &grid, nb).expect("fault-free fabric"))
        });
        let x = vec![1.0; n];
        let verify_s = best_of(slice_s, || {
            timed(|| verify(&grid, n, nb, seed, &x).expect("fault-free fabric"))
        });
        [generate, update, backsolve, verify_s]
    })[0];
    values.set("core.generate_s_n3072", generate);
    values.set("core.backsolve_s_n3072", backsolve);
    values.set("core.verify_s_n3072", verify_s);
    let w = (n + 1 - nb) as f64;
    let update_flops = (nb * nb) as f64 * w + 2.0 * (n - nb) as f64 * w * nb as f64;
    let update_gflops = update_flops / update / 1e9;
    values.set("core.update_gflops_nb128", update_gflops);
    values.set(
        "core.update_frac_of_dgemm",
        update_gflops
            / values
                .get("blas.dgemm_nb128_gflops")
                .expect("blas measured first"),
    );
}

/// `trace.span_ns_*`, `ckpt.*`, `sim.*`, `faults.*`: the guards. No
/// workload exercises them; they must not move.
pub fn guards(values: &mut Values, scratch: &std::path::Path, slice_s: f64) {
    const SPANS: usize = 100_000;
    let spans = || {
        for _ in 0..SPANS {
            drop(black_box(hpl_trace::span(hpl_trace::Phase::Update)));
        }
    };
    let disabled = best_of(slice_s, || timed(spans));
    values.set("trace.span_ns_disabled", disabled / SPANS as f64 * 1e9);
    let enabled = best_of(slice_s, || {
        hpl_trace::install(hpl_trace::TraceOpts::on());
        let t = timed(spans);
        hpl_trace::take();
        t
    });
    values.set("trace.span_ns_enabled", enabled / SPANS as f64 * 1e9);

    let n = 2048usize;
    let snap = hpl_ckpt::Snapshot {
        id: hpl_ckpt::ConfigId {
            n: n as u64,
            nb: 128,
            p: 1,
            q: 1,
            seed: 42,
            schedule: 2,
            frac_bits: 0.5f64.to_bits(),
        },
        rank: 0,
        next_iter: 8,
        mloc: n as u64,
        nloc: n as u64 + 1,
        data: (0..n * (n + 1)).map(|i| (i % 1009) as f64 * 1e-3).collect(),
        pivots: (0..1024).collect(),
        cursors: Vec::new(),
    };
    let bytes = hpl_ckpt::encode(&snap);
    let mb = bytes.len() as f64 / 1e6;
    values.set("ckpt.bytes", bytes.len() as f64);
    let secs = best_of(slice_s, || timed(|| hpl_ckpt::encode(&snap)));
    values.set("ckpt.encode_MBps", mb / secs);
    let secs = best_of(slice_s, || {
        timed(|| hpl_ckpt::decode(&bytes).expect("own encoding decodes"))
    });
    values.set("ckpt.decode_MBps", mb / secs);
    let dir = scratch.join("ckpt");
    let mut generation = 0;
    let secs = best_of(slice_s, || {
        let store = hpl_ckpt::CkptStore::disk_fresh(&dir, 1).expect("scratch is writable");
        let payload = bytes.clone();
        generation += 1;
        timed(|| {
            store
                .deposit(generation, 0, payload)
                .expect("scratch is writable")
        })
    });
    values.set("ckpt.deposit_disk_ms", secs * 1e3);
    let _ = std::fs::remove_dir_all(&dir);

    let sim = hpl_sim::Simulator::new(
        hpl_sim::NodeModel::frontier(),
        hpl_sim::RunParams::paper_single_node(),
    );
    let secs = best_of(slice_s, || {
        timed(|| hpl_sim::simulate_des(&sim, hpl_sim::Pipeline::SplitUpdate))
    });
    values.set("sim.des_single_node_ms", secs * 1e3);

    const SENDS: usize = 1_000_000;
    let unarmed = None;
    let secs = best_of(slice_s, || {
        timed(|| {
            for _ in 0..SENDS {
                black_box(hpl_faults::on_send(black_box(&unarmed)));
            }
        })
    });
    values.set("faults.guard_ns_disabled", secs / SENDS as f64 * 1e9);
}
