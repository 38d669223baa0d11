//! # hpl-trace
//!
//! The observability layer of the rhpl workspace: per-rank, per-iteration
//! phase tracing with near-zero overhead when disabled.
//!
//! The paper's core evidence is its per-iteration timing breakdown (Fig 7:
//! FACT, panel broadcast, row swap, UPDATE per iteration, exposing the
//! compute-bound → latency-bound transition). This crate provides the
//! measurement substrate that every overlap optimization is judged by:
//!
//! * A **thread-local tracer** per rank (ranks are OS threads in the
//!   `hpl-comm` substrate): [`install`] on the rank thread, [`take`] the
//!   recorded [`Trace`] at the end of the run.
//! * **Spans**: `{iter, phase, start_ns, dur_ns, bytes, hidden}` records
//!   collected into a fixed-capacity ring buffer (oldest spans are dropped,
//!   counted in [`Trace::dropped`]). Instrumented code opens a [`span`]
//!   guard; the guard records on drop. Communication layers attribute
//!   payload volume to the innermost open span via [`add_bytes`].
//! * **Overlap tagging**: the driver marks the schedule slots whose work a
//!   GPU timeline would hide (look-ahead FACT/LBCAST, split-update RS2
//!   prefetch) with [`set_hidden`]; the [`report`] module turns that into
//!   the overlap-efficiency metric (hidden comm time / total comm time).
//!
//! When no tracer is installed every entry point is a thread-local flag
//! check (single branch, no allocation) — the disabled path is cheap enough
//! to leave the instrumentation compiled into release builds
//! unconditionally (`tests/trace_determinism.rs` caps its cost).
//!
//! The crate reads no environment variable: what a span records is the
//! code's own time. Tier-1 pins only the exact `seq_hash` and caps the
//! guard costs; perf verdicts come from `benchmark/`.

pub mod report;

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// A pipeline phase, the unit of the Fig 7 breakdown.
///
/// The names mirror the paper's per-iteration stack: FACT (CPU panel
/// factorization), its embedded pivot collectives (`FactComm`), LBCAST,
/// the row-swap collectives (`RowSwap`), the local scatter of swapped-in
/// rows (`Scatter`, a GPU kernel in rocHPL), the trailing UPDATE
/// (DTRSM + DGEMM), and the explicit host<->device panel copies
/// (`Transfer`). `Fault`, `Ckpt` and `Restore` come after the original
/// seven so those discriminants — and therefore the [`report::seq_hash`]
/// of any fault-free, checkpoint-free run — are unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Phase {
    /// Panel factorization (wall time on the rank thread, pivot collectives
    /// included; subtract [`Phase::FactComm`] for pure compute).
    Fact,
    /// Pivot-search collectives inside FACT (recorded as one aggregate span
    /// per factorization, measured on whichever thread performs them).
    FactComm,
    /// Panel broadcast along the process row (LBCAST).
    Bcast,
    /// Row-swap communication: gatherv/scatterv move routing plus the
    /// `U`-assembly allgather.
    RowSwap,
    /// Scattering previously communicated rows into the local matrix.
    Scatter,
    /// Trailing update: DTRSM on `U`, `U` store, and the rank-NB DGEMM.
    Update,
    /// Explicit host<->device panel copies and LBCAST packing.
    Transfer,
    /// An injected fault firing (hpl-faults): the sleep/backoff the
    /// injection adds, recorded nested inside whatever phase it hit.
    Fault,
    /// Encoding and depositing a checkpoint snapshot (hpl-ckpt).
    Ckpt,
    /// Restoring factorization state from a checkpoint at the start of a
    /// resumed run.
    Restore,
}

impl Phase {
    /// Stable snake-case name (the JSON schema key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fact => "fact",
            Phase::FactComm => "fact_comm",
            Phase::Bcast => "bcast",
            Phase::RowSwap => "row_swap",
            Phase::Scatter => "scatter",
            Phase::Update => "update",
            Phase::Transfer => "transfer",
            Phase::Fault => "fault",
            Phase::Ckpt => "ckpt",
            Phase::Restore => "restore",
        }
    }

    /// Whether the phase is communication (the numerator/denominator domain
    /// of the overlap-efficiency metric).
    pub fn is_comm(self) -> bool {
        matches!(self, Phase::FactComm | Phase::Bcast | Phase::RowSwap)
    }
}

/// One recorded phase interval on one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Span {
    /// Iteration the span belongs to (set by the driver via [`set_iter`]).
    pub iter: u32,
    /// Phase of the pipeline.
    pub phase: Phase,
    /// Start, nanoseconds since [`install`] on this thread.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload volume attributed via [`add_bytes`] while the span was the
    /// innermost open span (f64 slice traffic through the comm fabric).
    pub bytes: u64,
    /// The schedule placed this work in a slot hidden by overlap (look-ahead
    /// FACT/LBCAST, split-update RS2 prefetch).
    pub hidden: bool,
}

/// Tracing options carried by the benchmark configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOpts {
    /// Master switch; when false the tracer is never installed.
    pub enabled: bool,
    /// Ring-buffer capacity in spans per rank.
    pub capacity: usize,
}

impl Default for TraceOpts {
    fn default() -> Self {
        Self {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

impl TraceOpts {
    /// Enabled with the default ring capacity.
    pub fn on() -> Self {
        Self {
            enabled: true,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

/// Default ring-buffer capacity (spans per rank). At ~10 spans per
/// iteration this covers runs of several thousand iterations.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The completed trace of one rank: spans in chronological order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Recorded spans, oldest first.
    pub spans: Vec<Span>,
    /// Spans evicted because the ring buffer was full.
    pub dropped: u64,
}

struct Tracer {
    epoch: Instant,
    /// Ring buffer: `buf` holds at most `capacity` spans; `head` is the
    /// logical start once the buffer has wrapped.
    buf: Vec<Span>,
    head: usize,
    capacity: usize,
    dropped: u64,
    iter: u32,
    hidden: bool,
    /// Nesting depth of open span guards (bytes attribute to the innermost).
    depth: u32,
    /// Pending byte counts per open-guard depth (index = depth - 1).
    open_bytes: [u64; MAX_NEST],
}

const MAX_NEST: usize = 4;

impl Tracer {
    fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            buf: Vec::with_capacity(capacity.min(1024)),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
            iter: 0,
            hidden: false,
            depth: 0,
            open_bytes: [0; MAX_NEST],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) {
        if self.buf.len() < self.capacity {
            self.buf.push(span);
        } else {
            // Overwrite the oldest span (ring semantics).
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn into_trace(self) -> Trace {
        let mut spans = self.buf;
        spans.rotate_left(self.head);
        Trace {
            spans,
            dropped: self.dropped,
        }
    }
}

thread_local! {
    /// Fast-path flag, checked before touching the tracer cell.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    /// Stack of phases with an open [`SpanGuard`], maintained even when
    /// tracing is disabled so fault diagnostics can name the phase a rank
    /// died in (see [`current_phase`]).
    static OPEN_PHASES: RefCell<Vec<Phase>> = const { RefCell::new(Vec::new()) };
}

/// The innermost phase with an open span guard on this thread. Unlike the
/// rest of the tracer this works without [`install`]: the phase stack costs
/// one thread-local vec push/pop per guard, kept inside the disabled-guard
/// nanosecond budget asserted by the overhead gate.
pub fn current_phase() -> Option<Phase> {
    OPEN_PHASES.with(|s| s.borrow().last().copied())
}

/// Installs a tracer on the current thread (the rank thread). Replaces any
/// previous tracer; its spans are discarded.
pub fn install(opts: TraceOpts) {
    if !opts.enabled {
        return;
    }
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(opts.capacity)));
    ENABLED.with(|e| e.set(true));
}

/// Uninstalls the current thread's tracer and returns its trace, if one was
/// installed.
pub fn take() -> Option<Trace> {
    ENABLED.with(|e| e.set(false));
    TRACER
        .with(|t| t.borrow_mut().take())
        .map(Tracer::into_trace)
}

/// Whether a tracer is installed on this thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Sets the iteration index attributed to subsequently recorded spans.
#[inline]
pub fn set_iter(iter: usize) {
    if !enabled() {
        return;
    }
    with(|tr| tr.iter = iter as u32);
}

/// Marks subsequently recorded spans as (not) schedule-hidden. The driver
/// brackets the look-ahead FACT/LBCAST and RS2-prefetch slots with this.
#[inline]
pub fn set_hidden(hidden: bool) {
    if !enabled() {
        return;
    }
    with(|tr| tr.hidden = hidden);
}

/// Attributes `bytes` of communication payload to the innermost open span
/// on this thread (no-op when tracing is disabled or no span is open).
#[inline]
pub fn add_bytes(bytes: u64) {
    if !enabled() {
        return;
    }
    with(|tr| {
        if tr.depth > 0 {
            let d = (tr.depth as usize - 1).min(MAX_NEST - 1);
            tr.open_bytes[d] += bytes;
        }
    });
}

/// Records a completed interval explicitly (used for aggregate measurements
/// like the FACT pivot collectives, whose time is accumulated off-thread).
pub fn record(phase: Phase, start_ns: u64, dur_ns: u64, bytes: u64) {
    if !enabled() {
        return;
    }
    with(|tr| {
        let span = Span {
            iter: tr.iter,
            phase,
            start_ns,
            dur_ns,
            bytes,
            hidden: tr.hidden,
        };
        tr.push(span);
    });
}

/// Nanoseconds since [`install`] on this thread (0 when disabled). Pairs
/// with [`record`].
pub fn now_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    with(|tr| tr.now_ns())
}

/// Minor page faults this process has taken so far
/// (`getrusage(RUSAGE_SELF)`'s `ru_minflt`): process-wide, so the count
/// covers every rank and pool thread of an in-process run, not this thread
/// alone. A run record takes the difference over its clock. Linux on
/// x86-64 and aarch64 only; elsewhere, or if the call fails, 0.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn minor_faults() -> u64 {
    use std::ffi::{c_int, c_long};
    /// `struct rusage` on LP64 Linux: two `timeval`s, then fourteen
    /// `long`s, of which `ru_minflt` is the fifth.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        counts: [c_long; 14],
    }
    const RUSAGE_SELF: c_int = 0;
    // SAFETY: this is the C declaration of `getrusage` from
    // `<sys/resource.h>`, which the C library every Linux target links
    // provides.
    unsafe extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    let mut ru = Rusage {
        times: [0; 4],
        counts: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout
    // `getrusage` fills on LP64 Linux.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return 0;
    }
    ru.counts[4] as u64
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
/// Minor page faults this process has taken so far: not counted on this
/// target, so 0.
pub fn minor_faults() -> u64 {
    0
}

fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut().expect("ENABLED implies an installed tracer");
        f(tr)
    })
}

/// An open phase interval; records itself on drop. Obtain via [`span`].
/// When tracing is disabled the guard is inert (one branch on drop).
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    phase: Phase,
    /// `None` when tracing was disabled at open time.
    start: Option<(Instant, u64)>,
}

/// Opens a span of `phase`; the returned guard records the interval when it
/// drops. Spans may nest up to a small fixed depth ([`add_bytes`] goes to
/// the innermost); the instrumented phases are non-nesting by construction.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    OPEN_PHASES.with(|s| s.borrow_mut().push(phase));
    if !enabled() {
        return SpanGuard { phase, start: None };
    }
    let start_ns = with(|tr| {
        tr.depth += 1;
        if (tr.depth as usize) <= MAX_NEST {
            tr.open_bytes[tr.depth as usize - 1] = 0;
        }
        tr.now_ns()
    });
    SpanGuard {
        phase,
        start: Some((Instant::now(), start_ns)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        OPEN_PHASES.with(|s| {
            s.borrow_mut().pop();
        });
        let Some((t0, start_ns)) = self.start else {
            return;
        };
        if !enabled() {
            // The tracer was taken while this span was open; nowhere to
            // record.
            return;
        }
        let phase = self.phase;
        let dur_ns = t0.elapsed().as_nanos() as u64;
        with(|tr| {
            let d = (tr.depth as usize).min(MAX_NEST);
            let bytes = if tr.depth > 0 {
                tr.open_bytes[d - 1]
            } else {
                0
            };
            tr.depth = tr.depth.saturating_sub(1);
            let span = Span {
                iter: tr.iter,
                phase,
                start_ns,
                dur_ns,
                bytes,
                hidden: tr.hidden,
            };
            tr.push(span);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(f: impl FnOnce()) -> Trace {
        install(TraceOpts {
            enabled: true,
            capacity: 64,
        });
        f();
        take().expect("tracer was installed")
    }

    #[test]
    fn disabled_guards_record_nothing() {
        assert!(take().is_none());
        {
            let _g = span(Phase::Update);
            add_bytes(100);
        }
        assert!(!enabled());
        assert!(take().is_none());
    }

    #[test]
    fn spans_carry_iter_phase_bytes() {
        let t = traced(|| {
            set_iter(3);
            {
                let _g = span(Phase::RowSwap);
                add_bytes(800);
                add_bytes(200);
            }
            set_iter(4);
            let _g = span(Phase::Update);
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].iter, 3);
        assert_eq!(t.spans[0].phase, Phase::RowSwap);
        assert_eq!(t.spans[0].bytes, 1000);
        assert!(!t.spans[0].hidden);
        assert_eq!(t.spans[1].iter, 4);
        assert_eq!(t.spans[1].phase, Phase::Update);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn hidden_flag_brackets() {
        let t = traced(|| {
            let _a = span(Phase::Bcast);
            drop(_a);
            set_hidden(true);
            let _b = span(Phase::Bcast);
            drop(_b);
            set_hidden(false);
            let _c = span(Phase::Bcast);
        });
        assert_eq!(
            t.spans.iter().map(|s| s.hidden).collect::<Vec<_>>(),
            vec![false, true, false]
        );
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        install(TraceOpts {
            enabled: true,
            capacity: 4,
        });
        for i in 0..10 {
            set_iter(i);
            let _g = span(Phase::Fact);
        }
        let t = take().unwrap();
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(
            t.spans.iter().map(|s| s.iter).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn explicit_record_and_clock() {
        let t = traced(|| {
            set_iter(1);
            let s = now_ns();
            record(Phase::FactComm, s, 12345, 64);
        });
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].dur_ns, 12345);
        assert_eq!(t.spans[0].bytes, 64);
    }

    #[test]
    fn nested_spans_attribute_bytes_to_innermost() {
        let t = traced(|| {
            let _outer = span(Phase::Fact);
            add_bytes(1);
            {
                let _inner = span(Phase::FactComm);
                add_bytes(10);
            }
            add_bytes(2);
        });
        let inner = t.spans.iter().find(|s| s.phase == Phase::FactComm).unwrap();
        let outer = t.spans.iter().find(|s| s.phase == Phase::Fact).unwrap();
        assert_eq!(inner.bytes, 10);
        assert_eq!(outer.bytes, 3);
        // Spans are recorded at close: inner closes first.
        assert_eq!(t.spans[0].phase, Phase::FactComm);
    }

    #[test]
    fn start_times_are_monotonic() {
        let t = traced(|| {
            for _ in 0..5 {
                let _g = span(Phase::Update);
            }
        });
        for w in t.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn disabled_path_is_cheap() {
        // The "near-zero overhead when disabled" contract: 1M disabled
        // guard open/close cycles must stay far under a millisecond each —
        // we allow 200ns per call, two orders of magnitude above the
        // expected cost, to keep the test robust on loaded CI hosts.
        assert!(!enabled());
        let n = 1_000_000u32;
        let t0 = Instant::now();
        for _ in 0..n {
            let _g = span(Phase::Update);
        }
        let per_call = t0.elapsed().as_nanos() / u128::from(n);
        assert!(
            per_call < 200,
            "disabled span guard costs {per_call} ns/call"
        );
    }
}
