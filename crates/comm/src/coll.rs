//! Collective operations built from point-to-point messages: binomial
//! broadcast, reductions (including the `maxloc` HPL's pivot search needs),
//! gather(v), scatterv and a ring allgatherv.
//!
//! Every collective is blocking and must be called by all ranks of the
//! communicator in the same order, exactly like MPI.
//!
//! Slice collectives are generic over the pipeline precision via
//! [`WireElem`] (`f64` for classic HPL, `f32` for the HPL-MxP
//! factorization); element types are inferred from the buffers at call
//! sites. The vector collectives write their result into a buffer the
//! caller keeps, and each received block is decoded straight into it.
//!
//! Every collective is fallible: recoverable misuse (count mismatches, a
//! missing root value) and substrate failures (receive timeout, a dead
//! rank's poisoned fabric, the caller's own injected death) come back as
//! [`CommError`] so the LU pipeline can unwind with the failure's identity.
//! Checks that remain `assert!`/`debug_assert!` are hard algorithm
//! invariants — they cannot fail without a bug in this module itself.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::fabric::Tag;
use crate::transport::wire::{Packet, Wire, WireElem};

/// Reduction operator for [`allreduce`] / [`reduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl Op {
    #[inline]
    fn apply<E: hpl_blas::Element>(self, a: E, b: E) -> E {
        match self {
            Op::Sum => a + b,
            Op::Max => a.max(b),
            Op::Min => a.min(b),
        }
    }
}

/// Relative rank helpers for root-anchored trees.
#[inline]
fn rel(rank: usize, root: usize, size: usize) -> usize {
    (rank + size - root) % size
}

#[inline]
fn unrel(vrank: usize, root: usize, size: usize) -> usize {
    (vrank + root) % size
}

/// This rank's place in the binomial tree rooted at `root`, the one tree
/// under every broadcast: its parent (`None` at the root) and its
/// children, as ranks of `comm`. The parent of virtual rank `me` is `me`
/// with its highest set bit cleared; its children are `me + 2^k` for `k`
/// above that bit.
fn binomial(comm: &Communicator, root: usize) -> (Option<usize>, impl Iterator<Item = usize>) {
    let size = comm.size();
    let me = rel(comm.rank(), root, size);
    let (parent, first) = if me == 0 {
        (None, 0)
    } else {
        let hb = usize::BITS - 1 - me.leading_zeros();
        (Some(unrel(me - (1usize << hb), root, size)), hb + 1)
    };
    let children = (first..usize::BITS)
        .map(move |k| me + (1usize << k))
        .take_while(move |&child| child < size)
        .map(move |child| unrel(child, root, size));
    (parent, children)
}

/// Sends the packet `pkt()` makes (only if there is a child) to each of
/// `children`: a copy of its bytes to all but the last, which gets the
/// packet itself. Each send counts one element, like a typed send.
fn fan_out(
    comm: &Communicator,
    mut children: impl Iterator<Item = usize>,
    pkt: impl FnOnce() -> Packet,
) -> Result<(), CommError> {
    let Some(mut next) = children.next() else {
        return Ok(());
    };
    let pkt = pkt();
    for child in children {
        comm.send_packet(next, Tag::BCAST, pkt.clone(), 1)?;
        next = child;
    }
    comm.send_packet(next, Tag::BCAST, pkt, 1)
}

/// Binomial-tree broadcast of any [`Wire`] value. On the root, `value`
/// must be `Some` (else [`CommError::MissingRoot`]); elsewhere it is
/// ignored. Every rank returns the broadcast value: the root encodes it
/// once, and every other rank forwards the bytes it received and decodes
/// them once.
pub fn bcast<T: Wire>(comm: &Communicator, root: usize, value: Option<T>) -> Result<T, CommError> {
    let (parent, children) = binomial(comm, root);
    let Some(src) = parent else {
        let v = value.ok_or(CommError::MissingRoot { what: "bcast" })?;
        fan_out(comm, children, || Packet::pack(&v))?;
        return Ok(v);
    };
    let pkt = comm.recv_packet(src, Tag::BCAST)?;
    let v = comm.decode(src, &pkt)?;
    fan_out(comm, children, || pkt)?;
    Ok(v)
}

/// [`bcast`] of the root's `buf` into every other rank's `buf` (of the
/// same length), each decoding straight into it.
fn bcast_into<E: WireElem>(
    comm: &Communicator,
    root: usize,
    buf: &mut [E],
) -> Result<(), CommError> {
    let (parent, children) = binomial(comm, root);
    let Some(src) = parent else {
        return fan_out(comm, children, || Packet::from_slice(buf));
    };
    let pkt = comm.recv_packet(src, Tag::BCAST)?;
    comm.decode_into(src, &pkt, buf, "bcast")?;
    fan_out(comm, children, || pkt)
}

/// Binomial-tree reduction of `buf` to `root`; the result overwrites `buf`
/// only on the root (other ranks' buffers hold partial sums on return and
/// should be treated as scratch).
pub fn reduce<E: WireElem>(
    comm: &Communicator,
    root: usize,
    op: Op,
    buf: &mut [E],
) -> Result<(), CommError> {
    let size = comm.size();
    let me = rel(comm.rank(), root, size);
    let mut mask = 1usize;
    while mask < size {
        if me & mask != 0 {
            // Send my partial to the partner below and exit.
            let partner = me - mask;
            comm.try_send_slice(unrel(partner, root, size), Tag::REDUCE, buf)?;
            return Ok(());
        }
        let partner = me + mask;
        if partner < size {
            let src = unrel(partner, root, size);
            let pkt = comm.recv_packet(src, Tag::REDUCE)?;
            let other = comm.elements::<E>(src, &pkt)?;
            if other.len() != buf.len() {
                return Err(CommError::CountMismatch {
                    what: "reduce",
                    expected: buf.len(),
                    got: other.len(),
                });
            }
            for (b, o) in buf.iter_mut().zip(other) {
                *b = op.apply(*b, o);
            }
        }
        mask <<= 1;
    }
    Ok(())
}

/// Allreduce: reduce to rank `0` then broadcast, overwriting `buf` on every
/// rank with the reduced result.
pub fn allreduce<E: WireElem>(comm: &Communicator, op: Op, buf: &mut [E]) -> Result<(), CommError> {
    reduce(comm, 0, op, buf)?;
    bcast_into(comm, 0, buf)
}

/// The `(value, location)` pair used by [`allreduce_maxloc`].
///
/// Ordering: larger `value` wins; on exactly equal values the smaller
/// `loc` wins (so results are deterministic, matching `MPI_MAXLOC`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaxLoc {
    /// The compared value (HPL passes `|candidate pivot|`).
    pub value: f64,
    /// Owner location (HPL passes the global row index).
    pub loc: u64,
}

impl MaxLoc {
    fn better(self, other: MaxLoc) -> MaxLoc {
        if other.value > self.value || (other.value == self.value && other.loc < self.loc) {
            other
        } else {
            self
        }
    }
}

/// Allreduce of a single `(value, loc)` pair under max-value ordering.
/// This is the collective behind every pivot-row selection in FACT.
pub fn allreduce_maxloc(comm: &Communicator, mine: MaxLoc) -> Result<MaxLoc, CommError> {
    allreduce_with(comm, mine, MaxLoc::better)
}

/// Generic allreduce with a user combiner: binomial reduce to rank 0 under
/// `combine`, then binomial broadcast of the result. `combine` must be
/// associative and is applied in a fixed deterministic order
/// (`combine(accumulator_of_lower_rank, value_of_higher_rank)`).
///
/// HPL's pivot selection (`HPL_pdmxswp`) is exactly this shape: the reduced
/// value carries the winning pivot row's *contents* along with its index,
/// so one collective both finds and distributes the pivot row.
pub fn allreduce_with<T, F>(comm: &Communicator, mine: T, combine: F) -> Result<T, CommError>
where
    T: Wire,
    F: Fn(T, T) -> T,
{
    let size = comm.size();
    let me = comm.rank();
    let mut acc = mine;
    let mut mask = 1usize;
    while mask < size {
        if me & mask != 0 {
            comm.send_packet(me - mask, Tag::REDUCE, Packet::pack(&acc), 1)?;
            break;
        }
        let partner = me + mask;
        if partner < size {
            let other: T = comm.try_recv(partner, Tag::REDUCE)?;
            acc = combine(acc, other);
        }
        mask <<= 1;
    }
    bcast(comm, 0, if me == 0 { Some(acc) } else { None })
}

/// Gathers variable-size chunks to `root`: there `out` becomes every
/// rank's chunk concatenated in rank order, each received chunk decoded
/// straight onto it; elsewhere `out` is left as it was.
pub fn gatherv<E: WireElem>(
    comm: &Communicator,
    root: usize,
    chunk: &[E],
    out: &mut Vec<E>,
) -> Result<(), CommError> {
    if comm.rank() != root {
        return comm.try_send_slice(root, Tag::GATHER, chunk);
    }
    out.clear();
    for src in 0..comm.size() {
        if src == root {
            out.extend_from_slice(chunk);
        } else {
            let pkt = comm.recv_packet(src, Tag::GATHER)?;
            out.extend(comm.elements::<E>(src, &pkt)?);
        }
    }
    Ok(())
}

/// Scatters variable-size chunks from `root`. The root passes
/// `Some((sendbuf, counts))` with `sendbuf.len() == counts.sum()`; every
/// rank's `out` becomes its chunk (of length `counts[rank]`), a received
/// one decoded straight into it.
pub fn scatterv<E: WireElem>(
    comm: &Communicator,
    root: usize,
    send: Option<(&[E], &[usize])>,
    out: &mut Vec<E>,
) -> Result<(), CommError> {
    out.clear();
    if comm.rank() != root {
        let pkt = comm.recv_packet(root, Tag::SCATTER)?;
        out.extend(comm.elements::<E>(root, &pkt)?);
        return Ok(());
    }
    let (buf, counts) = send.ok_or(CommError::MissingRoot { what: "scatterv" })?;
    if counts.len() != comm.size() {
        return Err(CommError::CountMismatch {
            what: "scatterv counts",
            expected: comm.size(),
            got: counts.len(),
        });
    }
    let total: usize = counts.iter().sum();
    if total != buf.len() {
        return Err(CommError::CountMismatch {
            what: "scatterv buffer",
            expected: total,
            got: buf.len(),
        });
    }
    let mut off = 0;
    for (dst, &cnt) in counts.iter().enumerate() {
        let piece = &buf[off..off + cnt];
        if dst == root {
            out.extend_from_slice(piece);
        } else {
            comm.try_send_slice(dst, Tag::SCATTER, piece)?;
        }
        off += cnt;
    }
    Ok(())
}

/// Prefix offsets of `counts` (shared by both allgatherv variants).
fn block_offsets(counts: &[usize]) -> Vec<usize> {
    counts
        .iter()
        .scan(0usize, |acc, &c| {
            let o = *acc;
            *acc += c;
            Some(o)
        })
        .collect()
}

/// Checks an allgatherv's `counts` and `chunk` against the communicator
/// and sizes `out` to hold every block.
fn allgatherv_layout<E: WireElem>(
    comm: &Communicator,
    chunk: &[E],
    counts: &[usize],
    out: &mut Vec<E>,
) -> Result<(), CommError> {
    let size = comm.size();
    if counts.len() != size {
        return Err(CommError::CountMismatch {
            what: "allgatherv counts",
            expected: size,
            got: counts.len(),
        });
    }
    let me = comm.rank();
    if chunk.len() != counts[me] {
        return Err(CommError::CountMismatch {
            what: "allgatherv chunk",
            expected: counts[me],
            got: chunk.len(),
        });
    }
    // Every block is written before it is read: only growth needs a value.
    let total = counts.iter().sum();
    out.truncate(total);
    out.resize(total, E::ZERO);
    Ok(())
}

/// Ring allgatherv: every rank contributes `chunk` (length `counts[rank]`)
/// and `out` becomes the concatenation over all ranks in rank order.
/// `size - 1` steps, each forwarding the block received in the previous
/// step — the bandwidth-optimal algorithm HPL uses to assemble the `U`
/// matrix in the row-swap phase.
pub fn allgatherv<E: WireElem>(
    comm: &Communicator,
    chunk: &[E],
    counts: &[usize],
    out: &mut Vec<E>,
) -> Result<(), CommError> {
    allgatherv_layout(comm, chunk, counts, out)?;
    let (size, me) = (comm.size(), comm.rank());
    let offsets = block_offsets(counts);
    let block = |b: usize| offsets[b]..offsets[b] + counts[b];
    out[block(me)].copy_from_slice(chunk);
    if size == 1 {
        return Ok(());
    }
    let right = (me + 1) % size;
    let left = (me + size - 1) % size;
    // At step s, send the block that originated at rank (me - s) mod size
    // (this rank's own, then each received packet's bytes as they came),
    // receive the block that originated at (me - s - 1) mod size.
    let mut pkt = Packet::from_slice(chunk);
    let mut recv_block = me;
    for _ in 1..size {
        comm.send_packet(right, Tag::ALLGATHER, pkt, 1)?;
        recv_block = (recv_block + size - 1) % size;
        pkt = comm.recv_packet(left, Tag::ALLGATHER)?;
        // A mismatch means a peer disagreed about `counts` — caller error
        // on its side.
        let got = &mut out[block(recv_block)];
        comm.decode_into(left, &pkt, got, "allgatherv received block")?;
    }
    Ok(())
}

/// Recursive-doubling ("binary exchange") allgatherv: `log2 p` rounds, in
/// round `s` each rank swaps everything it has accumulated with the
/// partner at distance `2^s`. Latency-optimal (`log p` vs the ring's
/// `p - 1` steps) at the cost of `log p`-fold send volume — HPL's
/// binary-exchange row-swap variant. Falls back to the ring when `p` is
/// not a power of two.
pub fn allgatherv_rd<E: WireElem>(
    comm: &Communicator,
    chunk: &[E],
    counts: &[usize],
    out: &mut Vec<E>,
) -> Result<(), CommError> {
    let size = comm.size();
    if !size.is_power_of_two() {
        return allgatherv(comm, chunk, counts, out);
    }
    allgatherv_layout(comm, chunk, counts, out)?;
    let me = comm.rank();
    // Blocks currently held, keyed by origin rank.
    let mut have: Vec<(usize, Vec<E>)> = vec![(me, chunk.to_vec())];
    let mut dist = 1usize;
    while dist < size {
        let partner = me ^ dist;
        comm.send_packet(partner, Tag::ALLGATHER, Packet::pack(&have), 1)?;
        let theirs: Vec<(usize, Vec<E>)> = comm.try_recv(partner, Tag::ALLGATHER)?;
        have.extend(theirs);
        dist <<= 1;
    }
    let offsets = block_offsets(counts);
    // INVARIANT: after log2(size) doubling rounds each origin rank's block
    // was merged exactly once — the hypercube exchange visits every rank.
    // Violations are bugs in the loop above, not runtime conditions.
    debug_assert_eq!(have.len(), size);
    for (origin, data) in have {
        if data.len() != counts[origin] {
            return Err(CommError::CountMismatch {
                what: "allgatherv_rd received block",
                expected: counts[origin],
                got: data.len(),
            });
        }
        out[offsets[origin]..offsets[origin] + counts[origin]].copy_from_slice(&data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn sizes() -> Vec<usize> {
        vec![1, 2, 3, 4, 5, 7, 8]
    }

    /// [`gatherv`] into a fresh buffer: `Some` on the root.
    fn gathered<E: WireElem>(comm: &Communicator, root: usize, chunk: &[E]) -> Option<Vec<E>> {
        let mut out = Vec::new();
        gatherv(comm, root, chunk, &mut out).unwrap();
        (comm.rank() == root).then_some(out)
    }

    /// [`scatterv`] into a fresh buffer.
    fn scattered<E: WireElem>(
        comm: &Communicator,
        root: usize,
        send: Option<(&[E], &[usize])>,
    ) -> Result<Vec<E>, CommError> {
        let mut out = Vec::new();
        scatterv(comm, root, send, &mut out).map(|()| out)
    }

    /// [`allgatherv`] into a fresh buffer.
    fn ring<E: WireElem>(
        comm: &Communicator,
        chunk: &[E],
        counts: &[usize],
    ) -> Result<Vec<E>, CommError> {
        let mut out = Vec::new();
        allgatherv(comm, chunk, counts, &mut out).map(|()| out)
    }

    /// [`allgatherv_rd`] into a fresh buffer.
    fn doubling<E: WireElem>(
        comm: &Communicator,
        chunk: &[E],
        counts: &[usize],
    ) -> Result<Vec<E>, CommError> {
        let mut out = Vec::new();
        allgatherv_rd(comm, chunk, counts, &mut out).map(|()| out)
    }

    #[test]
    fn bcast_all_roots_all_sizes() {
        for n in sizes() {
            for root in 0..n {
                let out = Universe::run(n, |comm| {
                    bcast(
                        &comm,
                        root,
                        (comm.rank() == root).then(|| vec![root as f64, 42.0]),
                    )
                    .unwrap()
                });
                for v in out {
                    assert_eq!(v, vec![root as f64, 42.0], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn bcast_missing_root_value_is_an_error() {
        let out = Universe::run(1, |comm| bcast::<f64>(&comm, 0, None));
        assert_eq!(out[0], Err(CommError::MissingRoot { what: "bcast" }));
    }

    #[test]
    fn allreduce_sum_max_min() {
        for n in sizes() {
            let out = Universe::run(n, |comm| {
                let r = comm.rank() as f64;
                let mut s = vec![r, -r, 1.0];
                allreduce(&comm, Op::Sum, &mut s).unwrap();
                let mut mx = vec![r];
                allreduce(&comm, Op::Max, &mut mx).unwrap();
                let mut mn = vec![r];
                allreduce(&comm, Op::Min, &mut mn).unwrap();
                (s, mx, mn)
            });
            let nf = n as f64;
            let tri = nf * (nf - 1.0) / 2.0;
            for (s, mx, mn) in out {
                assert_eq!(s, vec![tri, -tri, nf]);
                assert_eq!(mx, vec![nf - 1.0]);
                assert_eq!(mn, vec![0.0]);
            }
        }
    }

    #[test]
    fn reduce_length_mismatch_is_an_error() {
        let out = Universe::run(2, |comm| {
            // Rank 1 contributes a shorter buffer than rank 0 expects.
            let mut buf = vec![0.0; 2 + comm.rank()];
            reduce(&comm, 0, Op::Sum, &mut buf)
        });
        assert_eq!(out[1], Ok(()), "the sender cannot see the mismatch");
        assert_eq!(
            out[0],
            Err(CommError::CountMismatch {
                what: "reduce",
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn maxloc_picks_global_max() {
        for n in sizes() {
            let winner = n / 2;
            let out = Universe::run(n, |comm| {
                let r = comm.rank();
                let v = if r == winner { 1000.0 } else { r as f64 };
                allreduce_maxloc(
                    &comm,
                    MaxLoc {
                        value: v,
                        loc: (r * 7) as u64,
                    },
                )
                .unwrap()
            });
            for m in out {
                assert_eq!(
                    m,
                    MaxLoc {
                        value: 1000.0,
                        loc: (winner * 7) as u64
                    }
                );
            }
        }
    }

    #[test]
    fn maxloc_tie_breaks_low_loc() {
        let out = Universe::run(4, |comm| {
            allreduce_maxloc(
                &comm,
                MaxLoc {
                    value: 5.0,
                    loc: 100 - comm.rank() as u64,
                },
            )
            .unwrap()
        });
        for m in out {
            assert_eq!(m.loc, 97);
        }
    }

    #[test]
    fn gatherv_concatenates_in_rank_order() {
        for n in sizes() {
            for root in 0..n {
                let out = Universe::run(n, |comm| {
                    let r = comm.rank();
                    let chunk: Vec<f64> = (0..r + 1).map(|i| (r * 10 + i) as f64).collect();
                    gathered(&comm, root, &chunk)
                });
                let mut expect = Vec::new();
                for r in 0..n {
                    expect.extend((0..r + 1).map(|i| (r * 10 + i) as f64));
                }
                for (r, o) in out.into_iter().enumerate() {
                    if r == root {
                        assert_eq!(o.unwrap(), expect);
                    } else {
                        assert!(o.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn scatterv_distributes_chunks() {
        for n in sizes() {
            for root in 0..n {
                let out = Universe::run(n, |comm| {
                    let counts: Vec<usize> = (0..n).map(|r| r + 1).collect();
                    let total: usize = counts.iter().sum();
                    let buf: Vec<f64> = (0..total).map(|i| i as f64).collect();
                    scattered(
                        &comm,
                        root,
                        (comm.rank() == root).then_some((buf.as_slice(), counts.as_slice())),
                    )
                    .unwrap()
                });
                let mut off = 0;
                for (r, chunk) in out.into_iter().enumerate() {
                    let want: Vec<f64> = (off..off + r + 1).map(|i| i as f64).collect();
                    assert_eq!(chunk, want, "n={n} root={root} rank={r}");
                    off += r + 1;
                }
            }
        }
    }

    #[test]
    fn scatterv_misuse_is_an_error_not_a_panic() {
        // Root forgets its buffer.
        let out = Universe::run(1, |comm| scattered::<f64>(&comm, 0, None));
        assert_eq!(out[0], Err(CommError::MissingRoot { what: "scatterv" }));
        // Counts don't cover the communicator.
        let out = Universe::run(1, |comm| {
            scattered(&comm, 0, Some(([1.0].as_slice(), [1usize, 1].as_slice())))
        });
        assert!(matches!(
            out[0],
            Err(CommError::CountMismatch {
                what: "scatterv counts",
                ..
            })
        ));
        // Buffer shorter than the counts claim.
        let out = Universe::run(1, |comm| {
            scattered(&comm, 0, Some(([1.0].as_slice(), [2usize].as_slice())))
        });
        assert!(matches!(
            out[0],
            Err(CommError::CountMismatch {
                what: "scatterv buffer",
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn allgatherv_assembles_everywhere() {
        for n in sizes() {
            let out = Universe::run(n, |comm| {
                let r = comm.rank();
                let counts: Vec<usize> = (0..n).map(|k| (k % 3) + 1).collect();
                let chunk: Vec<f64> = (0..counts[r]).map(|i| (r * 100 + i) as f64).collect();
                ring(&comm, &chunk, &counts).unwrap()
            });
            let counts: Vec<usize> = (0..n).map(|k| (k % 3) + 1).collect();
            let mut expect = Vec::new();
            for r in 0..n {
                expect.extend((0..counts[r]).map(|i| (r * 100 + i) as f64));
            }
            for o in out {
                assert_eq!(o, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allgatherv_count_mismatch_is_an_error() {
        let out = Universe::run(1, |comm| ring(&comm, &[1.0], &[1, 1]));
        assert!(matches!(
            out[0],
            Err(CommError::CountMismatch {
                what: "allgatherv counts",
                ..
            })
        ));
        let out = Universe::run(1, |comm| ring(&comm, &[1.0, 2.0], &[1]));
        assert!(matches!(
            out[0],
            Err(CommError::CountMismatch {
                what: "allgatherv chunk",
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn recursive_doubling_matches_ring() {
        for n in sizes() {
            let out = Universe::run(n, |comm| {
                let r = comm.rank();
                let counts: Vec<usize> = (0..n).map(|k| (k % 4) + 1).collect();
                let chunk: Vec<f64> = (0..counts[r]).map(|i| (r * 100 + i) as f64).collect();
                let a = ring(&comm, &chunk, &counts).unwrap();
                let b = doubling(&comm, &chunk, &counts).unwrap();
                (a, b)
            });
            for (a, b) in out {
                assert_eq!(a, b, "n={n}");
            }
        }
    }

    #[test]
    fn recursive_doubling_uses_log_steps() {
        // On 8 ranks: 3 rounds = 3 messages per rank (vs 7 for the ring).
        let stats = Universe::run(8, |comm| {
            let counts = [4usize; 8];
            let chunk = vec![comm.rank() as f64; 4];
            let _ = doubling(&comm, &chunk, &counts).unwrap();
            comm.stats().snapshot().0
        });
        for s in stats {
            assert_eq!(s, 3, "log2(8) exchange rounds");
        }
    }

    #[test]
    fn allgatherv_with_empty_chunks() {
        let out = Universe::run(4, |comm| {
            let counts = [2, 0, 1, 0];
            let r = comm.rank();
            let chunk: Vec<f64> = (0..counts[r]).map(|i| (r * 10 + i) as f64).collect();
            ring(&comm, &chunk, &counts).unwrap()
        });
        for o in out {
            assert_eq!(o, vec![0.0, 1.0, 20.0]);
        }
    }

    #[test]
    fn allreduce_with_concatenating_combiner() {
        // Combiner that keeps the max first element and merges sets —
        // exercises non-commutative-safe deterministic ordering.
        for n in sizes() {
            let out = Universe::run(n, |comm| {
                let mine = (comm.rank() as f64, vec![comm.rank()]);
                allreduce_with(&comm, mine, |a, b| {
                    let mut ids = a.1;
                    ids.extend(b.1);
                    ids.sort_unstable();
                    (a.0.max(b.0), ids)
                })
                .unwrap()
            });
            for (mx, ids) in out {
                assert_eq!(mx, (n - 1) as f64);
                assert_eq!(ids, (0..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn collectives_serve_f32() {
        let out = Universe::run(4, |comm| {
            let r = comm.rank() as f32;
            let mut s = vec![r, 1.0f32];
            allreduce(&comm, Op::Sum, &mut s).unwrap();
            let g = ring(&comm, &[r], &[1, 1, 1, 1]).unwrap();
            let rd = doubling(&comm, &[r], &[1, 1, 1, 1]).unwrap();
            let gat = gathered(&comm, 0, &[r]);
            (s, g, rd, gat)
        });
        for (rank, (s, g, rd, gat)) in out.into_iter().enumerate() {
            assert_eq!(s, vec![6.0f32, 4.0]);
            assert_eq!(g, vec![0.0f32, 1.0, 2.0, 3.0]);
            assert_eq!(rd, g);
            if rank == 0 {
                assert_eq!(gat.unwrap(), g);
            } else {
                assert!(gat.is_none());
            }
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        // Different kinds of collectives issued consecutively must not
        // interfere, and the fabric must be quiescent at the end.
        let out = Universe::run(4, |comm| {
            let a = bcast(&comm, 0, (comm.rank() == 0).then_some(1.5f64)).unwrap();
            let mut b = vec![comm.rank() as f64];
            allreduce(&comm, Op::Sum, &mut b).unwrap();
            let c = bcast(&comm, 2, (comm.rank() == 2).then_some(7u8)).unwrap();
            let d = ring(&comm, &[comm.rank() as f64], &[1, 1, 1, 1]).unwrap();
            assert!(comm.stats().snapshot().0 > 0);
            (a, b[0], c, d)
        });
        for (a, b, c, d) in out {
            assert_eq!(a, 1.5);
            assert_eq!(b, 6.0);
            assert_eq!(c, 7);
            assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
        }
    }
}
