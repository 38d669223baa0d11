//! # hpl-faults
//!
//! Seeded, fully deterministic fault injection for the rhpl stack.
//!
//! The paper's headline runs live in the latency-bound regime where a single
//! stalled rank, lost broadcast message, or corrupted payload turns a
//! multi-PFLOPS run into a silent hang or a wrong answer. This crate is the
//! substrate for proving the reproduction degrades gracefully instead: a
//! [`FaultPlan`] describes *which* faults fire *where*, an [`Injector`] armed
//! on the comm fabric and the worker pool decides, at each choke point,
//! whether the next event is perturbed.
//!
//! Design constraints, mirroring the `hpl-trace` byte-attribution hook at
//! the same choke points:
//!
//! * **Zero-cost when disabled.** Every hook takes `&Option<Arc<Injector>>`;
//!   the unarmed path is a single `Option` discriminant check (asserted to
//!   stay in the same ~ns budget as a disabled trace-span guard by
//!   `tests/trace_determinism.rs`).
//! * **Deterministic.** Events are matched by `(world rank, site, n-th
//!   event)` counters. Each rank performs its communication from one thread
//!   at a time (the rank thread, or pool thread 0 during FACT while the rank
//!   thread is parked), so per-rank program order — and therefore the event
//!   index a fault fires on — is identical across runs of the same seed.
//!   Worker-region events are matched by worker thread id, which is equally
//!   stable.
//! * **Observable.** Every injected fault is appended to a per-rank event
//!   log ([`Injector::events`]) so tests can assert byte-identical injected
//!   sequences across runs.
//!
//! The interpretation of each [`FaultKind`] (delay, drop-with-retransmit,
//! bit-flip, stall, death, slow worker) is owned by the hooked layer:
//! `hpl-comm` translates [`SendAction`]/[`RecvAction`] into sleeps, payload
//! corruption, retransmits or a [`RankDeath`] unwind; `hpl-threads` sleeps a
//! targeted worker at region entry.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Hold a message for `micros` before delivering it (network jitter).
    Delay {
        /// Added latency in microseconds.
        micros: u64,
    },
    /// Lose a message in transit; the sender retransmits after a backoff
    /// (models a reliable transport's retry, visible only as latency).
    Drop,
    /// Flip one bit of an `f64` payload in transit (silent corruption; the
    /// ABFT-checksummed broadcast path must catch it).
    BitFlip {
        /// Bit index within the payload word, `0..64`.
        bit: u32,
    },
    /// The receiving rank goes unresponsive for `millis` before posting its
    /// receive (OS jitter, page fault storm, ...).
    Stall {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The rank dies at the matched event: unwinds with a [`RankDeath`]
    /// payload, poisoning the fabric so peers fail promptly.
    Death,
    /// One worker thread of the rank's pool sleeps `millis` at region entry
    /// (a slow core; work-stealing/static schedules must absorb it).
    SlowWorker {
        /// Sleep per region entry in milliseconds.
        millis: u64,
    },
}

impl FaultKind {
    /// Stable lowercase name (spec-string syntax, logs).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Delay { .. } => "delay",
            FaultKind::Drop => "drop",
            FaultKind::BitFlip { .. } => "bitflip",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Death => "death",
            FaultKind::SlowWorker { .. } => "slowworker",
        }
    }

    /// The site this kind fires at when the spec string does not name one.
    pub fn default_site(self) -> Site {
        match self {
            FaultKind::Delay { .. }
            | FaultKind::Drop
            | FaultKind::BitFlip { .. }
            | FaultKind::Death => Site::Send,
            FaultKind::Stall { .. } => Site::Recv,
            FaultKind::SlowWorker { .. } => Site::Region,
        }
    }

    /// Whether this kind may fire at `site` (e.g. a bit-flip only makes
    /// sense where a payload exists).
    pub fn valid_at(self, site: Site) -> bool {
        match site {
            Site::Send => matches!(
                self,
                FaultKind::Delay { .. }
                    | FaultKind::Drop
                    | FaultKind::BitFlip { .. }
                    | FaultKind::Death
            ),
            Site::Recv => matches!(self, FaultKind::Stall { .. } | FaultKind::Death),
            Site::Region => matches!(self, FaultKind::SlowWorker { .. }),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Delay { micros } => write!(f, "delay:{micros}"),
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::BitFlip { bit } => write!(f, "bitflip:{bit}"),
            FaultKind::Stall { millis } => write!(f, "stall:{millis}"),
            FaultKind::Death => write!(f, "death"),
            FaultKind::SlowWorker { millis } => write!(f, "slowworker:{millis}"),
        }
    }
}

/// Where in the stack a fault is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// `Fabric::try_send_counted` — the one choke point every outgoing
    /// payload crosses.
    Send,
    /// `Fabric::try_recv` — before the receive is posted.
    Recv,
    /// `hpl-threads::Pool` region entry on a worker thread.
    Region,
}

impl Site {
    /// Stable lowercase name (spec-string syntax, logs).
    pub fn name(self) -> &'static str {
        match self {
            Site::Send => "send",
            Site::Recv => "recv",
            Site::Region => "region",
        }
    }

    fn index(self) -> usize {
        match self {
            Site::Send => 0,
            Site::Recv => 1,
            Site::Region => 2,
        }
    }
}

/// One fault to inject: `kind` fires on world rank `rank` at `site`.
///
/// For [`Site::Send`] and [`Site::Recv`], `nth` is the 0-based index of the
/// matched event in that rank's program order (its `nth`-th send/recv). For
/// [`Site::Region`] it is the worker thread id inside the rank's pool. A
/// `sticky` spec fires on every matching event from `nth` on; a one-shot
/// spec fires exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens.
    pub kind: FaultKind,
    /// World rank the fault fires on.
    pub rank: usize,
    /// Choke point the fault fires at.
    pub site: Site,
    /// Event index (send/recv ordinal, or worker thread id for regions).
    pub nth: u64,
    /// Fire on every matching event from `nth` on instead of exactly once.
    pub sticky: bool,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}:{}:{}{}",
            self.kind,
            self.rank,
            self.site.name(),
            self.nth,
            if self.sticky { ":sticky" } else { "" }
        )
    }
}

/// A seeded set of [`FaultSpec`]s — the full description of one scenario.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scenario seed; recorded for reproducibility and used by
    /// [`FaultPlan::from_seed`] to derive the specs themselves.
    pub seed: u64,
    /// The faults to inject.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: Vec::new(),
        }
    }

    /// Builder-style: adds one spec.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Parses spec strings of the form
    /// `kind[:param]@rank[:site][:nth][:sticky]`, e.g. `delay:200@0:send:5`,
    /// `bitflip:12@1:send:4:sticky`, `death@1`, `slowworker:20@1:region:2`.
    /// Omitted fields default to the kind's natural site, event 0, one-shot.
    pub fn parse(seed: u64, specs: &[String]) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for s in specs {
            plan.specs.push(parse_spec(s)?);
        }
        Ok(plan)
    }

    /// Derives a one-spec scenario deterministically from `seed` for a job
    /// of `nranks` ranks (property tests sweep seeds through this).
    pub fn from_seed(seed: u64, nranks: usize) -> Self {
        let mut s = SplitMix64(seed);
        let rank = (s.next() % nranks.max(1) as u64) as usize;
        let nth = s.next() % 12;
        let sticky = s.next().is_multiple_of(4);
        let kind = match s.next() % 6 {
            0 => FaultKind::Delay {
                micros: 50 + s.next() % 450,
            },
            1 => FaultKind::Drop,
            2 => FaultKind::BitFlip {
                bit: (s.next() % 64) as u32,
            },
            3 => FaultKind::Stall {
                millis: 1 + s.next() % 20,
            },
            4 => FaultKind::Death,
            _ => FaultKind::SlowWorker {
                millis: 1 + s.next() % 8,
            },
        };
        let site = kind.default_site();
        // Worker thread ids are small; keep the region target in range for
        // typical pools.
        let nth = if site == Site::Region { nth % 4 } else { nth };
        FaultPlan::new(seed).with(FaultSpec {
            kind,
            rank,
            site,
            nth,
            sticky,
        })
    }
}

fn parse_spec(s: &str) -> Result<FaultSpec, String> {
    let (kind_part, target_part) = match s.split_once('@') {
        Some((k, t)) => (k, Some(t)),
        None => (s, None),
    };
    let (name, param) = match kind_part.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (kind_part, None),
    };
    let num = |p: Option<&str>, what: &str| -> Result<u64, String> {
        p.ok_or_else(|| format!("fault spec `{s}`: {what} requires a numeric parameter"))?
            .parse()
            .map_err(|_| format!("fault spec `{s}`: bad {what} parameter"))
    };
    let kind = match name {
        "delay" => FaultKind::Delay {
            micros: num(param, "delay")?,
        },
        "drop" => FaultKind::Drop,
        "bitflip" => FaultKind::BitFlip {
            bit: (num(param, "bitflip")? % 64) as u32,
        },
        "stall" => FaultKind::Stall {
            millis: num(param, "stall")?,
        },
        "death" => FaultKind::Death,
        "slowworker" => FaultKind::SlowWorker {
            millis: num(param, "slowworker")?,
        },
        other => return Err(format!("fault spec `{s}`: unknown kind `{other}`")),
    };
    let mut spec = FaultSpec {
        kind,
        rank: 0,
        site: kind.default_site(),
        nth: 0,
        sticky: false,
    };
    if let Some(t) = target_part {
        let mut fields = t.split(':');
        spec.rank = fields
            .next()
            .filter(|f| !f.is_empty())
            .ok_or_else(|| format!("fault spec `{s}`: missing rank after `@`"))?
            .parse()
            .map_err(|_| format!("fault spec `{s}`: bad rank"))?;
        let mut rest: Vec<&str> = fields.collect();
        if rest.last() == Some(&"sticky") {
            spec.sticky = true;
            rest.pop();
        }
        let mut rest = rest.into_iter();
        if let Some(site) = rest.next() {
            spec.site = match site {
                "send" => Site::Send,
                "recv" => Site::Recv,
                "region" => Site::Region,
                other => return Err(format!("fault spec `{s}`: unknown site `{other}`")),
            };
        }
        if let Some(nth) = rest.next() {
            spec.nth = nth
                .parse()
                .map_err(|_| format!("fault spec `{s}`: bad event index"))?;
        }
        if rest.next().is_some() {
            return Err(format!("fault spec `{s}`: trailing fields"));
        }
    }
    if !spec.kind.valid_at(spec.site) {
        return Err(format!(
            "fault spec `{s}`: `{}` cannot fire at site `{}`",
            spec.kind.name(),
            spec.site.name()
        ));
    }
    Ok(spec)
}

/// What `Fabric::try_send_counted` must do with the outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendAction {
    /// No fault: deliver normally.
    Deliver,
    /// Sleep `micros`, then deliver.
    Delay {
        /// Added latency in microseconds.
        micros: u64,
    },
    /// Treat the message as lost once, back off, retransmit, deliver.
    DropRetransmit,
    /// Flip `bit` of one payload word, then deliver.
    Corrupt {
        /// Bit index within the corrupted `f64` word.
        bit: u32,
    },
    /// The sending rank dies here (unwind with [`RankDeath`]).
    Death,
}

/// What `Fabric::try_recv` must do before posting the receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvAction {
    /// No fault: receive normally.
    Proceed,
    /// Sleep `millis`, then receive.
    Stall {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The receiving rank dies here (unwind with [`RankDeath`]).
    Death,
}

/// Panic payload carried by an injected rank death. `hpl-comm` catches it at
/// the rank boundary, poisons the fabric with the identity, and re-raises.
#[derive(Clone, Debug)]
pub struct RankDeath {
    /// World rank that died.
    pub rank: usize,
    /// Human-readable description of where it died (site and, when tracing
    /// knows it, the LU pipeline phase).
    pub phase: String,
}

/// One injected fault occurrence, appended to the firing rank's event log.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Site the fault fired at.
    pub site: Site,
    /// Event ordinal within `(rank, site)` program order (worker thread id
    /// for region events).
    pub seq: u64,
    /// `FaultKind` rendering of what was injected.
    pub action: String,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}:{}", self.site.name(), self.seq, self.action)
    }
}

thread_local! {
    /// World rank of the current thread, set by the job launcher (and by the
    /// pool when faults are armed) so injection counters key on world ranks
    /// even inside split sub-communicators.
    static WORLD_RANK: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Tags the current thread with its world rank (see [`world_rank`]).
pub fn set_world_rank(rank: usize) {
    WORLD_RANK.with(|c| c.set(rank));
}

/// The world rank the current thread acts for, if tagged.
pub fn world_rank() -> Option<usize> {
    let r = WORLD_RANK.with(Cell::get);
    (r != usize::MAX).then_some(r)
}

/// Armed fault state shared by every communicator of one job: per-rank,
/// per-site event counters; per-spec fired flags; per-rank event logs.
pub struct Injector {
    plan: FaultPlan,
    /// `counters[rank][site]` counts events in that rank's program order.
    counters: Vec<[AtomicU64; 3]>,
    /// One-shot state per spec (index-aligned with `plan.specs`).
    fired: Vec<AtomicBool>,
    /// Injected-event log per rank.
    events: Vec<Mutex<Vec<Event>>>,
}

impl Injector {
    /// Arms `plan` for a job of `nranks` ranks.
    pub fn new(plan: FaultPlan, nranks: usize) -> Arc<Self> {
        let fired = plan.specs.iter().map(|_| AtomicBool::new(false)).collect();
        Arc::new(Self {
            plan,
            counters: (0..nranks).map(|_| Default::default()).collect(),
            fired,
            events: (0..nranks).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of `rank`'s injected events, sorted for run-to-run
    /// comparison (send/recv events are already deterministic in program
    /// order; concurrent region events are ordered by the sort).
    pub fn events(&self, rank: usize) -> Vec<Event> {
        let mut v = self.events[rank].lock().clone();
        v.sort();
        v
    }

    /// [`Injector::events`] for every rank.
    pub fn all_events(&self) -> Vec<Vec<Event>> {
        (0..self.events.len()).map(|r| self.events(r)).collect()
    }

    /// How many times `rank`'s guard fired at `site` — i.e. the number of
    /// sends/recvs/regions that passed through the injection choke point.
    /// The overhead harness uses this to price the disabled-guard cost
    /// against real per-run traffic (world and split communicators alike).
    pub fn site_count(&self, rank: usize, site: Site) -> u64 {
        self.counters[rank][site.index()].load(Ordering::Relaxed)
    }

    /// Matches the `n`-th event of `(rank, site)` against the plan. Returns
    /// the kind to inject, if any, and logs it.
    fn fire(&self, rank: usize, site: Site, n: u64) -> Option<FaultKind> {
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if spec.rank != rank || spec.site != site {
                continue;
            }
            let hit = if spec.sticky {
                n >= spec.nth
            } else {
                n == spec.nth && !self.fired[i].swap(true, Ordering::Relaxed)
            };
            if hit {
                self.events[rank].lock().push(Event {
                    site,
                    seq: n,
                    action: spec.kind.to_string(),
                });
                return Some(spec.kind);
            }
        }
        None
    }

    fn count(&self, rank: usize, site: Site) -> u64 {
        self.counters[rank][site.index()].fetch_add(1, Ordering::Relaxed)
    }

    fn send_action(&self) -> SendAction {
        let Some(rank) = world_rank().filter(|&r| r < self.counters.len()) else {
            return SendAction::Deliver;
        };
        let n = self.count(rank, Site::Send);
        match self.fire(rank, Site::Send, n) {
            Some(FaultKind::Delay { micros }) => SendAction::Delay { micros },
            Some(FaultKind::Drop) => SendAction::DropRetransmit,
            Some(FaultKind::BitFlip { bit }) => SendAction::Corrupt { bit },
            Some(FaultKind::Death) => SendAction::Death,
            _ => SendAction::Deliver,
        }
    }

    fn recv_action(&self) -> RecvAction {
        let Some(rank) = world_rank().filter(|&r| r < self.counters.len()) else {
            return RecvAction::Proceed;
        };
        let n = self.count(rank, Site::Recv);
        match self.fire(rank, Site::Recv, n) {
            Some(FaultKind::Stall { millis }) => RecvAction::Stall { millis },
            Some(FaultKind::Death) => RecvAction::Death,
            _ => RecvAction::Proceed,
        }
    }

    /// Slow-worker hook: milliseconds worker `tid` must sleep at region
    /// entry, if a matching fault fires on this thread's rank.
    pub fn region_sleep(&self, tid: usize) -> Option<u64> {
        let rank = world_rank().filter(|&r| r < self.counters.len())?;
        match self.fire(rank, Site::Region, tid as u64) {
            Some(FaultKind::SlowWorker { millis }) => Some(millis),
            _ => None,
        }
    }
}

/// Send-side hook, called by `Fabric::try_send_counted` for every outgoing
/// message. The unarmed (`None`) path is one discriminant check.
#[inline]
pub fn on_send(inj: &Option<Arc<Injector>>) -> SendAction {
    match inj {
        None => SendAction::Deliver,
        Some(inj) => inj.send_action(),
    }
}

/// Recv-side hook, called by `Fabric::try_recv` before the receive is posted.
#[inline]
pub fn on_recv(inj: &Option<Arc<Injector>>) -> RecvAction {
    match inj {
        None => RecvAction::Proceed,
        Some(inj) => inj.recv_action(),
    }
}

/// SplitMix64: tiny deterministic PRNG for [`FaultPlan::from_seed`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> FaultSpec {
        parse_spec(s).unwrap()
    }

    #[test]
    fn spec_strings_round_trip() {
        for s in [
            "delay:200@0:send:5",
            "drop@2:send:1",
            "bitflip:12@1:send:4:sticky",
            "stall:20@3:recv:7",
            "death@1:send:6",
            "slowworker:20@1:region:2",
        ] {
            assert_eq!(spec(s).to_string(), s, "round trip of `{s}`");
        }
    }

    #[test]
    fn spec_defaults() {
        let d = spec("death@1");
        assert_eq!(d.site, Site::Send);
        assert_eq!((d.nth, d.sticky), (0, false));
        let st = spec("stall:5@0");
        assert_eq!(st.site, Site::Recv);
        let sw = spec("slowworker:3@0");
        assert_eq!(sw.site, Site::Region);
    }

    #[test]
    fn bad_specs_rejected() {
        for s in [
            "explode@0",
            "delay@0",
            "bitflip:3@0:recv",
            "slowworker:3@0:send",
            "delay:5@x",
            "delay:5@0:send:1:2:3",
        ] {
            assert!(parse_spec(s).is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn one_shot_fires_once_sticky_fires_forever() {
        let plan = FaultPlan::parse(0, &["delay:10@0:send:2".into()]).unwrap();
        let inj = Injector::new(plan, 2);
        set_world_rank(0);
        let acts: Vec<bool> = (0..6)
            .map(|_| inj.send_action() != SendAction::Deliver)
            .collect();
        assert_eq!(acts, [false, false, true, false, false, false]);

        let plan = FaultPlan::parse(0, &["drop@0:send:2:sticky".into()]).unwrap();
        let inj = Injector::new(plan, 1);
        let acts: Vec<bool> = (0..5)
            .map(|_| inj.send_action() != SendAction::Deliver)
            .collect();
        assert_eq!(acts, [false, false, true, true, true]);
    }

    #[test]
    fn counters_key_on_world_rank() {
        let plan = FaultPlan::parse(0, &["death@1:send:0".into()]).unwrap();
        let inj = Injector::new(plan, 2);
        set_world_rank(0);
        assert_eq!(inj.send_action(), SendAction::Deliver);
        set_world_rank(1);
        assert_eq!(inj.send_action(), SendAction::Death);
        set_world_rank(0);
    }

    #[test]
    fn untagged_threads_never_fault() {
        let plan = FaultPlan::parse(0, &["death@0:send:0:sticky".into()]).unwrap();
        let inj = Some(Injector::new(plan, 1));
        std::thread::spawn(move || {
            assert_eq!(on_send(&inj), SendAction::Deliver);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn events_log_injections() {
        let plan = FaultPlan::parse(7, &["stall:5@0:recv:1".into()]).unwrap();
        let inj = Injector::new(plan, 1);
        set_world_rank(0);
        let _ = inj.recv_action();
        let _ = inj.recv_action();
        let ev = inj.events(0);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].to_string(), "recv#1:stall:5");
    }

    #[test]
    fn from_seed_is_deterministic_and_valid() {
        for seed in 0..200 {
            let a = FaultPlan::from_seed(seed, 4);
            let b = FaultPlan::from_seed(seed, 4);
            assert_eq!(a, b);
            assert_eq!(a.specs.len(), 1);
            let s = a.specs[0];
            assert!(s.rank < 4);
            assert!(s.kind.valid_at(s.site), "seed {seed}: {s}");
        }
    }

    #[test]
    fn region_matches_thread_id() {
        let plan = FaultPlan::parse(0, &["slowworker:1@0:region:2".into()]).unwrap();
        let inj = Injector::new(plan, 1);
        set_world_rank(0);
        assert_eq!(inj.region_sleep(0), None);
        assert_eq!(inj.region_sleep(2), Some(1));
        assert_eq!(inj.region_sleep(2), None, "one-shot fires once");
    }
}
