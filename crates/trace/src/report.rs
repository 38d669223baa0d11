//! Turning raw per-rank span traces into the Fig 7-style artifacts of
//! `BENCH_hpl.json`: the per-iteration phase table (critical-path view),
//! phase totals, the overlap-efficiency metric, and a deterministic
//! phase-sequence hash the tests pin as golden values.

use crate::{Phase, Span, Trace};

/// Per-phase nanosecond totals (one row of the aggregate table).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct PhaseTotals {
    /// FACT wall time including its collectives.
    pub fact_ns: u64,
    /// Pivot collectives inside FACT.
    pub fact_comm_ns: u64,
    /// Panel broadcast.
    pub bcast_ns: u64,
    /// Row-swap communication.
    pub row_swap_ns: u64,
    /// Local scatter of swapped rows.
    pub scatter_ns: u64,
    /// Trailing update.
    pub update_ns: u64,
    /// Host<->device panel copies.
    pub transfer_ns: u64,
    /// Injected-fault sleeps/backoffs (hpl-faults; zero in fault-free runs).
    pub fault_ns: u64,
    /// Checkpoint encode + deposit time (hpl-ckpt; zero when disabled).
    pub ckpt_ns: u64,
    /// Checkpoint restore time at the start of a resumed run.
    pub restore_ns: u64,
    /// Payload bytes attributed to the spans.
    pub bytes: u64,
}

impl PhaseTotals {
    fn add(&mut self, s: &Span) {
        match s.phase {
            Phase::Fact => self.fact_ns += s.dur_ns,
            Phase::FactComm => self.fact_comm_ns += s.dur_ns,
            Phase::Bcast => self.bcast_ns += s.dur_ns,
            Phase::RowSwap => self.row_swap_ns += s.dur_ns,
            Phase::Scatter => self.scatter_ns += s.dur_ns,
            Phase::Update => self.update_ns += s.dur_ns,
            Phase::Transfer => self.transfer_ns += s.dur_ns,
            Phase::Fault => self.fault_ns += s.dur_ns,
            Phase::Ckpt => self.ckpt_ns += s.dur_ns,
            Phase::Restore => self.restore_ns += s.dur_ns,
        }
        self.bytes += s.bytes;
    }

    fn max_with(&mut self, o: &PhaseTotals) {
        self.fact_ns = self.fact_ns.max(o.fact_ns);
        self.fact_comm_ns = self.fact_comm_ns.max(o.fact_comm_ns);
        self.bcast_ns = self.bcast_ns.max(o.bcast_ns);
        self.row_swap_ns = self.row_swap_ns.max(o.row_swap_ns);
        self.scatter_ns = self.scatter_ns.max(o.scatter_ns);
        self.update_ns = self.update_ns.max(o.update_ns);
        self.transfer_ns = self.transfer_ns.max(o.transfer_ns);
        self.fault_ns = self.fault_ns.max(o.fault_ns);
        self.ckpt_ns = self.ckpt_ns.max(o.ckpt_ns);
        self.restore_ns = self.restore_ns.max(o.restore_ns);
        self.bytes = self.bytes.max(o.bytes);
    }

    /// Communication nanoseconds (pivot collectives + LBCAST + row swap).
    pub fn comm_ns(&self) -> u64 {
        self.fact_comm_ns + self.bcast_ns + self.row_swap_ns
    }

    /// Sum over every phase. `fact_comm` is excluded: it is an aggregate
    /// nested inside the `fact` window (the pivot collectives run on pool
    /// worker threads, so the driver re-exports their time as a separate
    /// span), and `fact_ns` already contains it. `fault_ns` is excluded for
    /// the same reason: injected sleeps happen inside whatever phase span
    /// was open when the fault fired, so that phase already carries them.
    /// `ckpt` and `restore` *are* added: they run at iteration boundaries,
    /// outside every other phase span.
    pub fn total_ns(&self) -> u64 {
        self.fact_ns
            + self.bcast_ns
            + self.row_swap_ns
            + self.scatter_ns
            + self.update_ns
            + self.transfer_ns
            + self.ckpt_ns
            + self.restore_ns
    }
}

/// One iteration's phase breakdown — the critical-path view: each phase is
/// summed per rank, then the maximum across ranks is taken (with
/// look-ahead, the FACT of panel `i+1` runs during iteration `i` on the
/// next panel's column, so no single rank's record holds every phase).
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct IterRow {
    /// Iteration index.
    pub iter: usize,
    /// Per-phase maxima across ranks.
    pub phases: PhaseTotals,
}

/// Builds the per-iteration table from per-rank traces. `iters` rows are
/// produced even if some iterations recorded no spans (e.g. after ring
/// eviction).
pub fn iteration_table(traces: &[Trace], iters: usize) -> Vec<IterRow> {
    let mut rows: Vec<IterRow> = (0..iters)
        .map(|iter| IterRow {
            iter,
            phases: PhaseTotals::default(),
        })
        .collect();
    for trace in traces {
        let mut per_iter: Vec<PhaseTotals> = vec![PhaseTotals::default(); iters];
        for s in &trace.spans {
            if let Some(p) = per_iter.get_mut(s.iter as usize) {
                p.add(s);
            }
        }
        for (row, p) in rows.iter_mut().zip(&per_iter) {
            row.phases.max_with(p);
        }
    }
    rows
}

/// Aggregate phase totals over the whole run: per-rank sums, maxima across
/// ranks (the critical-path aggregate).
pub fn phase_totals(traces: &[Trace]) -> PhaseTotals {
    let mut out = PhaseTotals::default();
    for trace in traces {
        let mut mine = PhaseTotals::default();
        for s in &trace.spans {
            mine.add(s);
        }
        out.max_with(&mine);
    }
    out
}

/// Overlap efficiency: hidden communication time over total communication
/// time, summed across ranks. "Hidden" spans are the ones the driver placed
/// in schedule slots a GPU timeline overlaps with UPDATE (look-ahead
/// FACT/LBCAST, split-update RS2 prefetch); a `Simple`-schedule run scores
/// 0, a perfectly overlapped split-update run approaches 1.
pub fn overlap_efficiency(traces: &[Trace]) -> f64 {
    let mut hidden = 0u64;
    let mut total = 0u64;
    for trace in traces {
        for s in &trace.spans {
            if s.phase.is_comm() {
                total += s.dur_ns;
                if s.hidden {
                    hidden += s.dur_ns;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hidden as f64 / total as f64
    }
}

/// Deterministic FNV-1a hash over the phase *sequence* — `(rank, iter,
/// phase, bytes, hidden)` for every span in order, durations excluded.
/// Same seed + config ⇒ identical hash on any machine; golden tables in
/// the tests pin it as the trace-determinism check.
pub fn seq_hash(traces: &[Trace]) -> u64 {
    seq_hash_from(traces, 0)
}

/// [`seq_hash`] restricted to spans of iterations `>= min_iter`, excluding
/// [`Phase::Restore`] spans (which exist only in resumed runs).
///
/// This is the recovery-determinism check: a run restored from the
/// checkpoint at iteration `k` must hash identically to an uninterrupted
/// run from the recovery point onward. Pass `min_iter = k` for the simple
/// schedule; pass `k + 1` for look-ahead schedules, whose resume prologue
/// re-records panel `k`'s factorization at iteration `k` (the uninterrupted
/// run recorded it one iteration earlier, inside iteration `k - 1`'s hidden
/// slot).
pub fn seq_hash_from(traces: &[Trace], min_iter: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for (rank, trace) in traces.iter().enumerate() {
        eat(&mut h, rank as u64);
        for s in &trace.spans {
            if (s.iter as usize) < min_iter || s.phase == Phase::Restore {
                continue;
            }
            for w in span_words(s) {
                eat(&mut h, w);
            }
        }
    }
    h
}

/// Deterministic FNV-1a digest of the *answer*: the solution vector's
/// `f64` bit patterns, then the pivot log. [`seq_hash`] pins the schedule's
/// shape (a classic and a mixed-precision run share one); this pins the
/// numerics, so a rewrite of how rows move or entries are generated that
/// changes a single bit of `x` or a single pivot choice is caught exactly.
pub fn x_hash(x: &[f64], pivots: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in x {
        eat(&mut h, v.to_bits());
    }
    for &p in pivots {
        eat(&mut h, p);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn eat(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn span_words(s: &Span) -> [u64; 4] {
    [
        u64::from(s.iter),
        s.phase as u64,
        s.bytes,
        u64::from(s.hidden),
    ]
}

/// One rank's contribution to [`seq_hash`] as a plain word stream — what a
/// launched rank process ships to rank 0 so the supervisor-side hash can be
/// assembled without the trace structs crossing the wire.
///
/// [`seq_hash_streams`] over the per-rank streams (in rank order) is
/// bitwise-identical to [`seq_hash`] over the corresponding traces.
pub fn seq_words(trace: &Trace) -> Vec<u64> {
    let mut words = Vec::with_capacity(trace.spans.len() * 4);
    for s in &trace.spans {
        if s.phase == Phase::Restore {
            continue;
        }
        words.extend_from_slice(&span_words(s));
    }
    words
}

/// Assembles [`seq_hash`] from per-rank [`seq_words`] streams, indexed by
/// rank. Bitwise-identical to hashing the original traces.
pub fn seq_hash_streams(streams: &[Vec<u64>]) -> u64 {
    let mut h = FNV_OFFSET;
    for (rank, words) in streams.iter().enumerate() {
        eat(&mut h, rank as u64);
        for &w in words {
            eat(&mut h, w);
        }
    }
    h
}

/// The serialized form of one rank's trace.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RankTrace {
    /// Rank id in the run's universe.
    pub rank: usize,
    /// Spans evicted by the ring buffer.
    pub dropped: u64,
    /// The recorded spans, oldest first.
    pub spans: Vec<Span>,
}

/// Converts per-rank traces into their serialized form.
pub fn rank_traces(traces: &[Trace]) -> Vec<RankTrace> {
    traces
        .iter()
        .enumerate()
        .map(|(rank, t)| RankTrace {
            rank,
            dropped: t.dropped,
            spans: t.spans.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(iter: u32, phase: Phase, dur_ns: u64, bytes: u64, hidden: bool) -> Span {
        Span {
            iter,
            phase,
            start_ns: 0,
            dur_ns,
            bytes,
            hidden,
        }
    }

    #[test]
    fn iteration_table_takes_max_across_ranks() {
        let r0 = Trace {
            spans: vec![
                span(0, Phase::Fact, 100, 0, false),
                span(0, Phase::Update, 50, 0, false),
            ],
            dropped: 0,
        };
        let r1 = Trace {
            spans: vec![
                span(0, Phase::Fact, 30, 0, false),
                span(0, Phase::Update, 80, 0, false),
            ],
            dropped: 0,
        };
        let rows = iteration_table(&[r0, r1], 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phases.fact_ns, 100);
        assert_eq!(rows[0].phases.update_ns, 80);
    }

    #[test]
    fn same_phase_spans_sum_within_a_rank() {
        let r = Trace {
            spans: vec![
                span(2, Phase::Update, 10, 0, false),
                span(2, Phase::Update, 15, 0, false),
            ],
            dropped: 0,
        };
        let rows = iteration_table(&[r], 3);
        assert_eq!(rows[2].phases.update_ns, 25);
        assert_eq!(rows[0].phases.update_ns, 0);
    }

    #[test]
    fn overlap_efficiency_counts_hidden_comm_only() {
        let r = Trace {
            spans: vec![
                span(0, Phase::Bcast, 100, 0, false),
                span(0, Phase::RowSwap, 100, 0, true),
                span(0, Phase::Update, 1000, 0, true), // not comm: ignored
                span(1, Phase::FactComm, 200, 0, true),
            ],
            dropped: 0,
        };
        let e = overlap_efficiency(&[r]);
        assert!((e - 0.75).abs() < 1e-12, "got {e}");
    }

    #[test]
    fn overlap_efficiency_empty_is_zero() {
        assert_eq!(overlap_efficiency(&[Trace::default()]), 0.0);
    }

    #[test]
    fn seq_hash_ignores_durations_but_not_structure() {
        let a = Trace {
            spans: vec![span(0, Phase::Fact, 100, 8, false)],
            dropped: 0,
        };
        let b = Trace {
            spans: vec![span(0, Phase::Fact, 999, 8, false)],
            dropped: 0,
        };
        assert_eq!(seq_hash(std::slice::from_ref(&a)), seq_hash(&[b]));
        let c = Trace {
            spans: vec![span(0, Phase::Update, 100, 8, false)],
            dropped: 0,
        };
        assert_ne!(seq_hash(std::slice::from_ref(&a)), seq_hash(&[c]));
        let d = Trace {
            spans: vec![span(0, Phase::Fact, 100, 16, false)],
            dropped: 0,
        };
        assert_ne!(seq_hash(&[a]), seq_hash(&[d]));
    }

    #[test]
    fn seq_hash_from_skips_early_iterations_and_restore_spans() {
        // An "uninterrupted" trace vs. one resumed at iteration 2: the
        // resumed trace diverges before iteration 2 (different early spans,
        // plus a Restore span) but matches from iteration 2 onward.
        let uninterrupted = Trace {
            spans: vec![
                span(0, Phase::Fact, 10, 1, false),
                span(1, Phase::Update, 10, 2, false),
                span(2, Phase::Ckpt, 10, 0, false),
                span(2, Phase::Fact, 10, 3, false),
                span(3, Phase::Update, 10, 4, true),
            ],
            dropped: 0,
        };
        let resumed = Trace {
            spans: vec![
                span(1, Phase::Restore, 10, 0, false),
                span(2, Phase::Restore, 10, 0, false),
                span(2, Phase::Ckpt, 10, 0, false),
                span(2, Phase::Fact, 10, 3, false),
                span(3, Phase::Update, 10, 4, true),
            ],
            dropped: 0,
        };
        assert_ne!(
            seq_hash(std::slice::from_ref(&uninterrupted)),
            seq_hash(std::slice::from_ref(&resumed))
        );
        assert_eq!(
            seq_hash_from(std::slice::from_ref(&uninterrupted), 2),
            seq_hash_from(std::slice::from_ref(&resumed), 2)
        );
        // Full-range seq_hash_from(_, 0) is the plain seq_hash.
        assert_eq!(
            seq_hash(std::slice::from_ref(&uninterrupted)),
            seq_hash_from(&[uninterrupted], 0)
        );
    }

    #[test]
    fn streamed_hash_matches_seq_hash_bitwise() {
        // The gather path: each rank ships seq_words, rank 0 assembles with
        // seq_hash_streams — must equal hashing the traces directly.
        let traces = vec![
            Trace {
                spans: vec![
                    span(0, Phase::Fact, 10, 1, false),
                    span(1, Phase::Restore, 10, 0, false), // skipped both ways
                    span(1, Phase::Update, 10, 2, true),
                ],
                dropped: 0,
            },
            Trace {
                spans: vec![span(0, Phase::Bcast, 5, 64, false)],
                dropped: 0,
            },
            Trace {
                spans: vec![],
                dropped: 0,
            },
        ];
        let streams: Vec<Vec<u64>> = traces.iter().map(seq_words).collect();
        assert_eq!(seq_hash_streams(&streams), seq_hash(&traces));
        // Rank order matters: swapping two streams changes the hash.
        let swapped = vec![streams[1].clone(), streams[0].clone(), streams[2].clone()];
        assert_ne!(seq_hash_streams(&swapped), seq_hash(&traces));
    }

    #[test]
    fn x_hash_sees_every_bit_of_the_answer() {
        let x = [1.0f64, -0.5, 3.25];
        let piv = [2u64, 1, 2];
        let h = x_hash(&x, &piv);
        assert_eq!(h, x_hash(&x, &piv));
        // One ulp in the solution, a sign of zero, or one pivot choice.
        let mut x1 = x;
        x1[1] = f64::from_bits(x1[1].to_bits() + 1);
        assert_ne!(x_hash(&x1, &piv), h);
        assert_ne!(x_hash(&[0.0], &[]), x_hash(&[-0.0], &[]));
        assert_ne!(x_hash(&x, &[2, 2, 2]), h);
    }

    #[test]
    fn totals_and_comm_accounting() {
        // fact includes its nested fact_comm (70 = 40 compute + 30 comm).
        let r = Trace {
            spans: vec![
                span(0, Phase::Fact, 70, 0, false),
                span(0, Phase::FactComm, 30, 64, false),
                span(0, Phase::Bcast, 20, 128, false),
                span(0, Phase::RowSwap, 40, 256, false),
                span(0, Phase::Update, 500, 0, false),
            ],
            dropped: 0,
        };
        let t = phase_totals(&[r]);
        assert_eq!(t.comm_ns(), 90);
        assert_eq!(t.total_ns(), 630, "fact_comm is nested in fact, not added");
        assert_eq!(t.bytes, 448);
    }

    #[test]
    fn serializes_to_json() {
        let r = rank_traces(&[Trace {
            spans: vec![span(1, Phase::Bcast, 5, 16, true)],
            dropped: 0,
        }]);
        let s = serde_json::to_string(&r).unwrap();
        assert!(s.contains("\"phase\":\"Bcast\""), "{s}");
        assert!(s.contains("\"hidden\":true"), "{s}");
    }
}
