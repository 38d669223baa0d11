//! Panel broadcast (LBCAST) algorithm variants.
//!
//! HPL ships six broadcast topologies (`HPL_1RING`, `HPL_1RING_M`,
//! `HPL_2RING`, `HPL_2RING_M`, `HPL_BLONG`, `HPL_BLONG_M`) because the best
//! choice depends on the row size, the panel size, and how much forwarding
//! work the *next* panel's owner can afford. The "modified" (`_M`) variants
//! relieve the process immediately right of the root — the owner of the
//! next panel — from forwarding duty so it can enter its FACT phase sooner.
//!
//! All variants produce the same result (every rank of the row communicator
//! holds the root's buffer) but differ in message counts and per-rank
//! volume, which the structural tests assert and the `hpl-sim` performance
//! model consumes.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::fabric::Tag;
use crate::transport::wire::WireElem;

/// Which LBCAST algorithm to use; mirrors rocHPL's `--bcast` option.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BcastAlgo {
    /// Increasing one-ring: root → +1 → +2 → …
    OneRing,
    /// Modified one-ring: the next rank receives directly from the root and
    /// forwards nothing; the ring runs over the remaining ranks.
    #[default]
    OneRingM,
    /// Two increasing rings over the two halves of the row.
    TwoRing,
    /// Modified two-ring.
    TwoRingM,
    /// Bandwidth-reducing: scatter chunks then ring-allgather ("long").
    Long,
    /// Modified long: next rank served with the full panel directly, the
    /// long algorithm runs over the remaining ranks.
    LongM,
}

impl BcastAlgo {
    /// All variants, in HPL.dat code order (`0..=5`), for sweeps.
    pub const ALL: [BcastAlgo; 6] = [
        BcastAlgo::OneRing,
        BcastAlgo::OneRingM,
        BcastAlgo::TwoRing,
        BcastAlgo::TwoRingM,
        BcastAlgo::Long,
        BcastAlgo::LongM,
    ];

    /// Short ASCII name (matches HPL's naming).
    pub fn name(self) -> &'static str {
        match self {
            BcastAlgo::OneRing => "1ring",
            BcastAlgo::OneRingM => "1ringM",
            BcastAlgo::TwoRing => "2ring",
            BcastAlgo::TwoRingM => "2ringM",
            BcastAlgo::Long => "blong",
            BcastAlgo::LongM => "blongM",
        }
    }
}

#[inline]
fn vrank(rank: usize, root: usize, size: usize) -> usize {
    (rank + size - root) % size
}

#[inline]
fn actual(v: usize, root: usize, size: usize) -> usize {
    (v + root) % size
}

/// Broadcasts `buf` from `root` to every rank of `comm` using `algo`.
/// Fails with [`CommError`] when the substrate does (timeout, poisoned
/// fabric, the caller's own injected death).
pub fn panel_bcast<E: WireElem>(
    comm: &Communicator,
    algo: BcastAlgo,
    root: usize,
    buf: &mut [E],
) -> Result<(), CommError> {
    let size = comm.size();
    if size <= 1 || buf.is_empty() {
        return Ok(());
    }
    let _span = hpl_trace::span(hpl_trace::Phase::Bcast);
    match algo {
        BcastAlgo::OneRing => one_ring(comm, root, buf, false),
        BcastAlgo::OneRingM => one_ring(comm, root, buf, true),
        BcastAlgo::TwoRing => two_ring(comm, root, buf, false),
        BcastAlgo::TwoRingM => two_ring(comm, root, buf, true),
        BcastAlgo::Long => long(comm, root, buf, false),
        BcastAlgo::LongM => long(comm, root, buf, true),
    }
}

fn one_ring<E: WireElem>(
    comm: &Communicator,
    root: usize,
    buf: &mut [E],
    modified: bool,
) -> Result<(), CommError> {
    let size = comm.size();
    let me = vrank(comm.rank(), root, size);
    if modified && size > 2 {
        // Root sends to v1 (no forwarding duty) and to v2; ring v2 → v3 → …
        match me {
            0 => {
                comm.try_send_slice(actual(1, root, size), Tag::RING, buf)?;
                comm.try_send_slice(actual(2, root, size), Tag::RING, buf)?;
            }
            1 => comm.try_recv_into(actual(0, root, size), Tag::RING, buf)?,
            _ => {
                let prev = if me == 2 { 0 } else { me - 1 };
                comm.try_recv_into(actual(prev, root, size), Tag::RING, buf)?;
                if me + 1 < size {
                    comm.try_send_slice(actual(me + 1, root, size), Tag::RING, buf)?;
                }
            }
        }
    } else {
        // Plain increasing ring.
        if me == 0 {
            comm.try_send_slice(actual(1, root, size), Tag::RING, buf)?;
        } else {
            comm.try_recv_into(actual(me - 1, root, size), Tag::RING, buf)?;
            if me + 1 < size {
                comm.try_send_slice(actual(me + 1, root, size), Tag::RING, buf)?;
            }
        }
    }
    Ok(())
}

fn two_ring<E: WireElem>(
    comm: &Communicator,
    root: usize,
    buf: &mut [E],
    modified: bool,
) -> Result<(), CommError> {
    let size = comm.size();
    if size <= 3 {
        // Too small for two rings to differ from one.
        return one_ring(comm, root, buf, modified);
    }
    let me = vrank(comm.rank(), root, size);
    // Ranks 1..split go to ring A, split..size to ring B. In the modified
    // variant v1 is served directly and excluded from forwarding; ring A
    // then starts at v2.
    let first_a = if modified { 2 } else { 1 };
    let split = first_a + (size - first_a).div_ceil(2);
    if me == 0 {
        if modified {
            comm.try_send_slice(actual(1, root, size), Tag::RING, buf)?;
        }
        comm.try_send_slice(actual(first_a, root, size), Tag::RING, buf)?;
        comm.try_send_slice(actual(split, root, size), Tag::RING, buf)?;
    } else if modified && me == 1 {
        comm.try_recv_into(actual(0, root, size), Tag::RING, buf)?;
    } else {
        let (ring_start, ring_end) = if me < split {
            (first_a, split)
        } else {
            (split, size)
        };
        let prev = if me == ring_start { 0 } else { me - 1 };
        comm.try_recv_into(actual(prev, root, size), Tag::RING, buf)?;
        if me + 1 < ring_end {
            comm.try_send_slice(actual(me + 1, root, size), Tag::RING, buf)?;
        }
    }
    Ok(())
}

fn long<E: WireElem>(
    comm: &Communicator,
    root: usize,
    buf: &mut [E],
    modified: bool,
) -> Result<(), CommError> {
    let size = comm.size();
    let me_actual = comm.rank();
    if modified && size > 2 {
        // v1 gets the whole panel directly; the long algorithm runs over the
        // other ranks (root, v2, v3, …) as a contiguous virtual group.
        let me = vrank(me_actual, root, size);
        if me == 0 {
            comm.try_send_slice(actual(1, root, size), Tag::RING, buf)?;
        } else if me == 1 {
            return comm.try_recv_into(actual(0, root, size), Tag::RING, buf);
        }
        // Group = all ranks except v1, with group-virtual ids: root=0,
        // v2=1, v3=2, …
        let gsize = size - 1;
        let gid = if me == 0 { 0 } else { me - 1 };
        scatter_allgather(comm, buf, gsize, gid, |g| {
            // Map group id back to an actual rank.
            let v = if g == 0 { 0 } else { g + 1 };
            actual(v, root, size)
        })
    } else {
        let me = vrank(me_actual, root, size);
        scatter_allgather(comm, buf, size, me, |v| actual(v, root, size))
    }
}

/// The "long" body: virtual rank 0 scatters `gsize` chunks, then a ring
/// allgather over the group reassembles the panel everywhere.
fn scatter_allgather<E: WireElem>(
    comm: &Communicator,
    buf: &mut [E],
    gsize: usize,
    gid: usize,
    to_actual: impl Fn(usize) -> usize,
) -> Result<(), CommError> {
    if gsize <= 1 {
        return Ok(());
    }
    let n = buf.len();
    let base = n / gsize;
    let rem = n % gsize;
    let count = |g: usize| base + usize::from(g < rem);
    let offset = |g: usize| g * base + g.min(rem);
    // Scatter phase: group root sends chunk g to group rank g.
    if gid == 0 {
        for g in 1..gsize {
            if count(g) > 0 {
                comm.try_send_slice(
                    to_actual(g),
                    Tag::RING,
                    &buf[offset(g)..offset(g) + count(g)],
                )?;
            }
        }
    } else if count(gid) > 0 {
        let v: Vec<E> = E::vec_recv(comm, to_actual(0), Tag::RING)?;
        buf[offset(gid)..offset(gid) + count(gid)].copy_from_slice(&v);
    }
    // Ring allgather over the group.
    let right = to_actual((gid + 1) % gsize);
    let left = to_actual((gid + gsize - 1) % gsize);
    let mut block = gid;
    for _ in 0..gsize - 1 {
        let (o, c) = (offset(block), count(block));
        comm.try_send_slice(right, Tag::RING, &buf[o..o + c])?;
        let rb = (block + gsize - 1) % gsize;
        let (ro, rc) = (offset(rb), count(rb));
        let v: Vec<E> = E::vec_recv(comm, left, Tag::RING)?;
        if v.len() != rc {
            return Err(CommError::CountMismatch {
                what: "long bcast chunk",
                expected: rc,
                got: v.len(),
            });
        }
        buf[ro..ro + rc].copy_from_slice(&v);
        block = rb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn check(algo: BcastAlgo, size: usize, root: usize, len: usize) {
        let out = Universe::run(size, |comm| {
            let mut buf = if comm.rank() == root {
                (0..len).map(|i| (i * 3 + 1) as f64).collect::<Vec<f64>>()
            } else {
                vec![f64::NAN; len]
            };
            panel_bcast(&comm, algo, root, &mut buf).unwrap();
            buf
        });
        let expect: Vec<f64> = (0..len).map(|i| (i * 3 + 1) as f64).collect();
        for (r, b) in out.into_iter().enumerate() {
            assert_eq!(b, expect, "algo={algo:?} size={size} root={root} rank={r}");
        }
    }

    #[test]
    fn all_algorithms_broadcast_correctly() {
        for algo in BcastAlgo::ALL {
            for size in [1usize, 2, 3, 4, 5, 6, 8] {
                for root in [0, size / 2, size - 1] {
                    for len in [1usize, 7, 64, 130] {
                        check(algo, size, root, len);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_buffer_is_noop() {
        for algo in BcastAlgo::ALL {
            let out = Universe::run(3, |comm| {
                let mut buf: Vec<f64> = vec![];
                panel_bcast(&comm, algo, 1, &mut buf).unwrap();
                comm.stats().snapshot().0
            });
            assert!(out.iter().all(|&m| m == 0), "algo={algo:?}");
        }
    }

    /// Structural properties: per-rank message counts/volumes distinguish
    /// the algorithms (the paper's LBCAST choice trades latency for the
    /// next-owner's availability).
    #[test]
    fn ring_message_structure() {
        let size = 6;
        let len = 600;
        let count_sends = |algo: BcastAlgo| -> Vec<(u64, u64)> {
            Universe::run(size, |comm| {
                let mut buf = vec![1.0f64; len];
                panel_bcast(&comm, algo, 0, &mut buf).unwrap();
                comm.stats().snapshot()
            })
        };
        // 1ring: root sends one full panel; middle ranks forward one; last
        // rank sends nothing.
        let s = count_sends(BcastAlgo::OneRing);
        assert_eq!(s[0], (1, len as u64));
        for r in 1..size - 1 {
            assert_eq!(s[r], (1, len as u64));
        }
        assert_eq!(s[size - 1], (0, 0));
        // 1ringM: rank 1 (next owner) forwards nothing.
        let s = count_sends(BcastAlgo::OneRingM);
        assert_eq!(s[0].0, 2, "modified root sends twice");
        assert_eq!(s[1], (0, 0), "next owner must not forward");
        // blong: every rank sends ~gsize chunks but total volume per rank is
        // about 2x chunk * (gsize-1)/gsize * ... — strictly less than a full
        // forward-the-panel ring for large panels.
        let s = count_sends(BcastAlgo::Long);
        let max_vol = s.iter().map(|x| x.1).max().unwrap();
        assert!(
            max_vol < 2 * len as u64,
            "long variant should cap per-rank volume (got {max_vol})"
        );
    }

    #[test]
    fn next_owner_receives_before_tail_in_modified_ring() {
        // In 1ringM with 5 ranks the next owner (v1) receives directly from
        // the root: its receive involves exactly one hop. We verify by
        // checking stats: rank 1 sends nothing yet has the data.
        let out = Universe::run(5, |comm| {
            let mut buf = vec![0.0f64; 32];
            if comm.rank() == 2 {
                buf.iter_mut().enumerate().for_each(|(i, v)| *v = i as f64);
            }
            panel_bcast(&comm, BcastAlgo::OneRingM, 2, &mut buf).unwrap();
            (comm.stats().snapshot().0, buf[31])
        });
        // Rank 3 is v1 relative to root 2.
        assert_eq!(out[3].0, 0);
        assert_eq!(out[3].1, 31.0);
    }
}
