//! Launching a "job": one rank per OS thread, all connected by a world
//! [`Communicator`] — over shared mailboxes (the in-process oracle) or a
//! real byte-moving transport resolved from `RHPL_TRANSPORT`.
//!
//! Under `RHPL_TRANSPORT=tcp|shm` every rank thread owns a *remote* fabric
//! endpoint wired to its peers through frames, exactly the architecture
//! `rhpl launch` runs with one OS process per rank — so the whole test
//! suite exercises the transport stack without process management, and
//! determinism across all three paths is a plain `cargo test` matter.

use std::any::Any;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpl_faults::{FaultPlan, Injector, RankDeath};

use crate::comm::Communicator;
use crate::fabric::{Fabric, FabricOpts, RecoveryCounters};
use crate::transport::shm::ShmTransport;
use crate::transport::tcp::TcpBootstrap;
use crate::transport::{record_run_link_stats, LinkStat, Transport, TransportSel};

type Payload = Box<dyn Any + Send>;

/// Entry point of the message-passing substrate, the analogue of
/// `mpirun -np N`.
pub struct Universe;

/// Outcome of a fault-injected job (see [`Universe::run_with_faults`]).
pub struct FaultedRun<T> {
    /// Per-rank results; `None` for ranks that died (injected death or a
    /// panic on their thread).
    pub results: Vec<Option<T>>,
    /// The armed injector — its event logs record exactly which faults
    /// fired, for determinism assertions.
    pub injector: Arc<Injector>,
    /// `(rank, phase)` of the first recorded rank death, if any.
    pub poison: Option<(usize, String)>,
    /// Per-world-rank count of timed-out receive polls that were retried
    /// with backoff (see [`crate::fabric::RetryPolicy`]).
    pub retries: Vec<u64>,
    /// Per-world-rank count of ABFT retransmits applied after a checksum
    /// mismatch (see [`crate::abft::panel_bcast_checked`]).
    pub abft_repairs: Vec<u64>,
}

/// The transport a plain [`Universe::run`] resolves to in this process
/// (from `RHPL_TRANSPORT`, read once; invalid values fail fast with the
/// typed config message — the CLI pre-validates and reports cleanly).
pub fn env_transport_sel() -> TransportSel {
    static SEL: std::sync::OnceLock<TransportSel> = std::sync::OnceLock::new();
    *SEL.get_or_init(|| {
        crate::config::env_transport().unwrap_or_else(|e| {
            // xtask-allow: no-panic, error-taxonomy — config fail-fast
            panic!("{e}")
        })
    })
}

/// Name of the transport env-constructed universes resolve to — recorded
/// in run reports next to the kernel name.
pub fn active_transport_name() -> &'static str {
    env_transport_sel().name()
}

impl Universe {
    /// Runs `f` on `nranks` concurrent ranks (one OS thread each) and
    /// returns their results ordered by rank. `f` may borrow from the
    /// caller's stack; the call returns when every rank has finished.
    ///
    /// A panic on any rank poisons the fabric — peers blocked on the dead
    /// rank unwind promptly with its identity instead of hanging — and the
    /// root-cause panic is re-raised on the caller after every rank has
    /// finished or panicked.
    pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        Self::run_with_transport(nranks, env_transport_sel(), FabricOpts::default(), f)
    }

    /// Like [`Universe::run`] but with explicit fabric options, so tests can
    /// pin a ring capacity (or timeout) per run.
    pub fn run_with_opts<T, F>(nranks: usize, opts: FabricOpts, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        Self::run_with_transport(nranks, env_transport_sel(), opts, f)
    }

    /// Runs `f` with an explicit transport selection, ignoring the
    /// environment — the determinism matrix pins all three backends side by
    /// side in one process this way.
    pub fn run_with_transport<T, F>(
        nranks: usize,
        sel: TransportSel,
        opts: FabricOpts,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        let (results, panics, poison) = match sel {
            TransportSel::Inproc => {
                let fabric = Fabric::new_with_opts(nranks, opts);
                let (results, panics) = Self::run_on(&fabric, f);
                (results, panics, fabric.poison_info())
            }
            sel => {
                let run = Self::transport_run(nranks, sel, opts, f);
                (run.results, run.panics, run.poison)
            }
        };
        if panics.iter().any(Option::is_some) {
            std::panic::resume_unwind(root_cause(panics, poison));
        }
        results
            .into_iter()
            .map(|r| r.expect("rank produced a result"))
            .collect()
    }

    /// Runs `f` on `nranks` ranks with `plan` armed on the fabric and the
    /// calling convention of a fault soak: rank deaths (injected or panics)
    /// are absorbed into `None` results instead of re-raised, and the armed
    /// injector comes back for event-log inspection.
    pub fn run_with_faults<T, F>(nranks: usize, plan: FaultPlan, f: F) -> FaultedRun<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        let injector = Injector::new(plan, nranks);
        Self::run_with_injector(nranks, injector, f)
    }

    /// Like [`Universe::run_with_faults`] but reusing an already-armed
    /// injector, so consecutive jobs share one set of fault cursors. This is
    /// the supervisor's restart primitive: a one-shot death that fired on
    /// attempt 1 does not fire again on attempt 2 (the replacement rank is
    /// healthy), while `sticky` faults keep firing on every attempt.
    pub fn run_with_injector<T, F>(nranks: usize, injector: Arc<Injector>, f: F) -> FaultedRun<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        match env_transport_sel() {
            TransportSel::Inproc => {
                let fabric = Fabric::new_with_faults(nranks, Some(Arc::clone(&injector)));
                let (results, _panics) = Self::run_on(&fabric, f);
                FaultedRun {
                    results,
                    injector,
                    poison: fabric.poison_info(),
                    retries: fabric.counters().retries_snapshot(),
                    abft_repairs: fabric.counters().abft_repairs_snapshot(),
                }
            }
            sel => {
                let opts = FabricOpts {
                    faults: Some(Arc::clone(&injector)),
                    ..FabricOpts::default()
                };
                let run = Self::transport_run(nranks, sel, opts, f);
                FaultedRun {
                    results: run.results,
                    injector,
                    poison: run.poison,
                    retries: run.retries,
                    abft_repairs: run.abft_repairs,
                }
            }
        }
    }

    /// Shared launcher: spawns the rank threads on `fabric`, catches each
    /// rank's panic (poisoning the job with the rank's identity so peers
    /// unwind), and returns per-rank results and panic payloads.
    fn run_on<T, F>(fabric: &Arc<Fabric>, f: F) -> (Vec<Option<T>>, Vec<Option<Payload>>)
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        let nranks = fabric.size();
        assert!(nranks >= 1, "need at least one rank");
        let mut results: Vec<Option<T>> = Vec::with_capacity(nranks);
        results.resize_with(nranks, || None);
        let mut panics: Vec<Option<Payload>> = Vec::with_capacity(nranks);
        panics.resize_with(nranks, || None);
        std::thread::scope(|s| {
            for (rank, (slot, panic_slot)) in results.iter_mut().zip(panics.iter_mut()).enumerate()
            {
                let comm = Communicator::new(Arc::clone(fabric), rank);
                let fabric = Arc::clone(fabric);
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn_scoped(s, move || {
                        hpl_faults::set_world_rank(rank);
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm))) {
                            Ok(v) => *slot = Some(v),
                            Err(payload) => {
                                fabric.poison(rank, &death_phase(&payload));
                                *panic_slot = Some(payload);
                            }
                        }
                    })
                    .expect("spawn rank thread");
            }
        });
        (results, panics)
    }

    /// The thread-mode transport harness: every rank thread owns a *remote*
    /// fabric endpoint (world-sized mailbox vector, only its own slot
    /// receiving) wired to its peers through real frames — the same
    /// architecture as one-process-per-rank, minus process management.
    /// Recovery counters are shared across endpoints so run reports
    /// aggregate like the oracle's single ledger.
    fn transport_run<T, F>(
        nranks: usize,
        sel: TransportSel,
        opts: FabricOpts,
        f: F,
    ) -> TransportRun<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        assert!(nranks >= 1, "need at least one rank");
        let counters = Arc::new(RecoveryCounters::new(nranks));
        let mut shm_dir = None;
        let (rank_boots, addrs): (Vec<RankBoot>, Arc<Vec<SocketAddr>>) = match sel {
            TransportSel::Tcp => {
                let boots: Vec<TcpBootstrap> = (0..nranks)
                    .map(|_| TcpBootstrap::bind().expect("bind tcp rendezvous listener"))
                    .collect();
                let addrs = Arc::new(boots.iter().map(TcpBootstrap::addr).collect::<Vec<_>>());
                (boots.into_iter().map(RankBoot::Tcp).collect(), addrs)
            }
            TransportSel::Shm => {
                let dir = fresh_shm_dir();
                std::fs::create_dir_all(&dir).expect("create shm transport dir");
                shm_dir = Some(dir.clone());
                (
                    (0..nranks).map(|_| RankBoot::Shm(dir.clone())).collect(),
                    Arc::new(Vec::new()),
                )
            }
            TransportSel::Inproc => unreachable!("inproc handled by run_on"),
        };
        let mut results: Vec<Option<T>> = Vec::with_capacity(nranks);
        results.resize_with(nranks, || None);
        let mut panics: Vec<Option<Payload>> = Vec::with_capacity(nranks);
        panics.resize_with(nranks, || None);
        let mut fabrics: Vec<Option<Arc<Fabric>>> = Vec::with_capacity(nranks);
        fabrics.resize_with(nranks, || None);
        std::thread::scope(|s| {
            let slots = results
                .iter_mut()
                .zip(panics.iter_mut())
                .zip(fabrics.iter_mut());
            for (rank, (((slot, panic_slot), fabric_slot), boot)) in
                slots.zip(rank_boots).enumerate()
            {
                let opts = opts.clone();
                let counters = Arc::clone(&counters);
                let addrs = Arc::clone(&addrs);
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn_scoped(s, move || {
                        hpl_faults::set_world_rank(rank);
                        let fabric = Fabric::remote_shared(nranks, rank, opts, counters);
                        let transport: Arc<dyn Transport> = match boot {
                            RankBoot::Tcp(b) => b
                                .connect(rank, &addrs, fabric.frame_sink())
                                .expect("wire tcp mesh"),
                            RankBoot::Shm(dir) => {
                                ShmTransport::start(&dir, rank, nranks, fabric.frame_sink())
                                    .expect("start shm transport")
                            }
                        };
                        fabric.attach_transport(transport);
                        *fabric_slot = Some(Arc::clone(&fabric));
                        let comm = Communicator::new(Arc::clone(&fabric), rank);
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm))) {
                            Ok(v) => *slot = Some(v),
                            Err(payload) => {
                                // Poison broadcasts Death frames to peers
                                // before the links close.
                                fabric.poison(rank, &death_phase(&payload));
                                *panic_slot = Some(payload);
                            }
                        }
                        fabric.shutdown_transport();
                    })
                    .expect("spawn rank thread");
            }
        });
        let poison = fabrics
            .iter()
            .flatten()
            .find_map(|fabric| fabric.poison_info());
        let links: Vec<LinkStat> = fabrics
            .iter()
            .flatten()
            .flat_map(|fabric| fabric.link_stats())
            .collect();
        record_run_link_stats(links);
        if let Some(dir) = shm_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        TransportRun {
            results,
            panics,
            poison,
            retries: counters.retries_snapshot(),
            abft_repairs: counters.abft_repairs_snapshot(),
        }
    }
}

/// Per-rank rendezvous resource moved into that rank's thread.
enum RankBoot {
    Tcp(TcpBootstrap),
    Shm(PathBuf),
}

struct TransportRun<T> {
    results: Vec<Option<T>>,
    panics: Vec<Option<Payload>>,
    poison: Option<(usize, String)>,
    retries: Vec<u64>,
    abft_repairs: Vec<u64>,
}

/// A unique directory per transport run (pid + counter) so concurrent
/// tests in one process never share frame logs.
fn fresh_shm_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rhpl-shm-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The phase to record for a rank whose thread panicked: an injected
/// [`RankDeath`] names where it died; any other panic is a plain crash.
fn death_phase(payload: &Payload) -> String {
    payload
        .downcast_ref::<RankDeath>()
        .map(|d| d.phase.clone())
        .unwrap_or_else(|| "panic".to_string())
}

/// Picks the panic to re-raise: the recorded root cause (the first rank that
/// poisoned the job) when it panicked, else the lowest-rank panic. Survivor
/// ranks that panicked *because* the job was poisoned carry derived
/// "rank N failed" messages — re-raising those would mask the real failure.
fn root_cause(mut panics: Vec<Option<Payload>>, poison: Option<(usize, String)>) -> Payload {
    if let Some((rank, _)) = poison {
        if let Some(p) = panics.get_mut(rank).and_then(Option::take) {
            return p;
        }
    }
    panics
        .into_iter()
        .flatten()
        .next()
        .expect("caller checked a panic exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Tag;
    use hpl_faults::{FaultKind, FaultSpec, Site};

    #[test]
    fn results_ordered_by_rank() {
        let out = Universe::run(5, |c| c.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn single_rank_works() {
        let out = Universe::run(1, |c| {
            assert_eq!(c.size(), 1);
            "ok"
        });
        assert_eq!(out, vec!["ok"]);
    }

    #[test]
    fn closures_can_borrow_environment() {
        let data = [10usize, 20, 30];
        let out = Universe::run(3, |c| data[c.rank()]);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        Universe::run(2, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn root_cause_panic_wins_over_derived_failures() {
        // Rank 1 crashes while rank 0 blocks on it; rank 0's derived
        // "rank 1 failed" panic must not mask the original "boom".
        Universe::run(2, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
            let _: u32 = c.recv(1, Tag::user(0));
        });
    }

    #[test]
    fn faulted_run_absorbs_injected_death() {
        let plan = FaultPlan::new(0).with(FaultSpec {
            kind: FaultKind::Death,
            rank: 1,
            site: Site::Send,
            nth: 0,
            sticky: false,
        });
        let run = Universe::run_with_faults(2, plan, |c| {
            if c.rank() == 1 {
                c.send(0, Tag::user(1), 7u32); // dies here
                unreachable!("rank 1 must die at its first send");
            }
            c.try_recv::<u32>(1, Tag::user(1))
        });
        assert!(run.results[1].is_none(), "dead rank yields no result");
        let (rank, _phase) = run.poison.expect("job records the death");
        assert_eq!(rank, 1);
        // The survivor's receive failed with the dead rank's identity.
        match &run.results[0] {
            Some(Err(crate::error::CommError::RankFailed { rank: 1, .. })) => {}
            other => panic!("expected RankFailed from rank 1, got {other:?}"),
        }
        // The injected event is on the log.
        let ev = run.injector.events(1);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].to_string(), "send#0:death");
    }

    #[test]
    fn faulted_run_without_matching_fault_is_clean() {
        let plan = FaultPlan::new(3); // empty plan
        let run = Universe::run_with_faults(3, plan, |c| c.rank());
        assert_eq!(
            run.results.into_iter().collect::<Option<Vec<_>>>(),
            Some(vec![0, 1, 2])
        );
        assert!(run.poison.is_none());
        assert!(run.injector.all_events().iter().all(Vec::is_empty));
    }

    #[test]
    fn explicit_transport_roundtrip_matches_inproc() {
        // The same exchange under all three transports, pinned explicitly
        // (ignores RHPL_TRANSPORT) — the smallest cross-backend oracle.
        let run = |sel| {
            Universe::run_with_transport(3, sel, FabricOpts::default(), |c| {
                let r = c.rank();
                let n = c.size();
                let got = c.sendrecv(
                    (r + 1) % n,
                    (r + n - 1) % n,
                    Tag::user(3),
                    &[r as f64 * 1.5],
                );
                got[0].to_bits()
            })
        };
        let inproc = run(TransportSel::Inproc);
        assert_eq!(inproc, run(TransportSel::Tcp));
        assert_eq!(inproc, run(TransportSel::Shm));
    }

    #[test]
    fn transport_death_poisons_survivors() {
        let plan = FaultPlan::new(0).with(FaultSpec {
            kind: FaultKind::Death,
            rank: 1,
            site: Site::Send,
            nth: 0,
            sticky: false,
        });
        // Pin tcp regardless of the environment by driving the harness via
        // run_with_transport + an armed injector on the opts.
        let injector = Injector::new(plan, 2);
        let opts = FabricOpts {
            faults: Some(Arc::clone(&injector)),
            ..FabricOpts::default()
        };
        let run = Universe::transport_run(2, TransportSel::Tcp, opts, |c| {
            if c.rank() == 1 {
                c.try_send(0, Tag::user(1), 7u32)
            } else {
                c.try_recv::<u32>(1, Tag::user(1)).map(|_| ())
            }
        });
        let (rank, _phase) = run.poison.expect("death crossed the wire");
        assert_eq!(rank, 1);
        match &run.results[0] {
            Some(Err(crate::error::CommError::RankFailed { rank: 1, .. })) => {}
            other => panic!("survivor must see RankFailed from rank 1, got {other:?}"),
        }
    }
}
