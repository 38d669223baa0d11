//! Checksummed ("ABFT-style") panel broadcast.
//!
//! A silent bit-flip in an LBCAST payload is the nastiest fault in the LU
//! pipeline: every downstream update amplifies it and the run completes
//! with a wrong residual. [`panel_bcast_checked`] wraps any
//! [`panel_bcast`](crate::ring::panel_bcast) topology in an end-to-end
//! checksum handshake with bounded retransmission:
//!
//! 1. The root sends each peer the panel's checksum (a small typed message,
//!    immune to the payload corruption path), then broadcasts the panel with
//!    the configured algorithm.
//! 2. Each peer verifies its received panel against the checksum and acks
//!    the root (`true`/`false`).
//! 3. For every nack the root backs off (the fabric's `backoff` — bounded
//!    exponential with deterministic jitter, recorded as a fault span) and
//!    retransmits the panel *directly* to the nacking peer — bypassing
//!    relays, so a corrupting forwarder cannot re-poison it.
//! 4. After [`MAX_ATTEMPTS`] deliveries the root sends a give-up marker
//!    (an empty payload) and both sides surface [`CommError::Corrupt`].
//!
//! A one-shot injected bit-flip therefore costs one round-trip and the run
//! still passes its residual; a sticky corruption fails cleanly with the
//! root/rank/attempt identity instead of a wrong answer.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::fabric::Tag;
use crate::ring::{panel_bcast, BcastAlgo};
use crate::transport::wire::WireElem;
use hpl_ckpt::Checksum;

/// Total panel deliveries the root attempts per peer (initial broadcast +
/// retransmits) before giving up.
pub const MAX_ATTEMPTS: u32 = 3;

/// The panel's [`hpl_ckpt::checksum()`] over its wire encoding (each
/// element's low `E::WIRE_BYTES` bytes, little-endian) — the sum that
/// closes transport frames and checkpoints, so any change confined to one
/// 8-byte word of the encoding, every single bit-flip included, is
/// detected.
fn panel_sum<E: WireElem>(buf: &[E]) -> u64 {
    let mut sum = Checksum::new();
    for v in buf {
        sum.update(&v.to_bits_u64().to_le_bytes()[..E::WIRE_BYTES]);
    }
    sum.finish()
}

/// [`panel_bcast`] with checksum verification and bounded retransmission
/// (see module docs). Drop-in: same topology, same result buffer contract.
/// Meant for fault-armed runs — fault-free runs keep the unchecked path and
/// its message structure.
pub fn panel_bcast_checked<E: WireElem>(
    comm: &Communicator,
    algo: BcastAlgo,
    root: usize,
    buf: &mut [E],
) -> Result<(), CommError> {
    let size = comm.size();
    if size <= 1 || buf.is_empty() {
        return Ok(());
    }
    if comm.rank() == root {
        let sum = panel_sum(buf);
        let others: Vec<usize> = (0..size).filter(|&r| r != root).collect();
        for &r in &others {
            comm.try_send(r, Tag::ABFT_SUM, sum)?;
        }
        panel_bcast(comm, algo, root, buf)?;
        let mut pending = others;
        let mut attempt = 1u32;
        loop {
            let mut nack = Vec::new();
            for &r in &pending {
                let ok: bool = comm.try_recv(r, Tag::ABFT_ACK)?;
                if !ok {
                    nack.push(r);
                }
            }
            if nack.is_empty() {
                return Ok(());
            }
            if attempt == MAX_ATTEMPTS {
                // Give-up marker: an empty payload (a real retransmit is
                // never empty — the empty-buffer case returned above).
                for &r in &nack {
                    comm.try_send(r, Tag::ABFT_CTRL, Vec::<E>::new())?;
                }
                return Err(CommError::Corrupt {
                    root,
                    rank: nack[0],
                    attempts: MAX_ATTEMPTS,
                });
            }
            {
                let _sp = hpl_trace::span(hpl_trace::Phase::Fault);
                std::thread::sleep(crate::fabric::backoff(root as u64, attempt));
            }
            for &r in &nack {
                comm.try_send_slice(r, Tag::ABFT_CTRL, buf)?;
            }
            pending = nack;
            attempt += 1;
        }
    } else {
        let sum: u64 = comm.try_recv(root, Tag::ABFT_SUM)?;
        panel_bcast(comm, algo, root, buf)?;
        let mut attempt = 1u32;
        loop {
            let ok = panel_sum(buf) == sum;
            comm.try_send(root, Tag::ABFT_ACK, ok)?;
            if ok {
                return Ok(());
            }
            let ctrl = comm.recv_packet(root, Tag::ABFT_CTRL)?;
            if comm.elements::<E>(root, &ctrl)?.len() == 0 {
                return Err(CommError::Corrupt {
                    root,
                    rank: comm.rank(),
                    attempts: attempt,
                });
            }
            comm.decode_into(root, &ctrl, buf, "abft retransmit")?;
            comm.note_abft_repair();
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use hpl_faults::FaultPlan;

    fn run_checked(
        nranks: usize,
        specs: &[&str],
        algo: BcastAlgo,
    ) -> crate::universe::FaultedRun<Result<Vec<f64>, CommError>> {
        let plan =
            FaultPlan::parse(1, &specs.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
        Universe::run_with_faults(nranks, plan, |comm| {
            let mut buf = if comm.rank() == 0 {
                (0..64).map(|i| i as f64).collect::<Vec<f64>>()
            } else {
                vec![0.0; 64]
            };
            panel_bcast_checked(&comm, algo, 0, &mut buf).map(|_| buf)
        })
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let buf: Vec<f64> = (0..100).map(|i| (i * 7) as f64).collect();
        let sum = panel_sum(&buf);
        assert_eq!(sum, hpl_ckpt::checksum(&wire_bytes(&buf)));
        for word in 0..buf.len() {
            for bit in 0..64 {
                let mut c = buf.clone();
                c[word] = f64::from_bits(c[word].to_bits() ^ (1u64 << bit));
                assert_ne!(panel_sum(&c), sum, "f64 word {word} bit {bit}");
            }
        }
        let buf: Vec<f32> = (0..200).map(|i| (i * 7) as f32).collect();
        let sum = panel_sum(&buf);
        assert_eq!(sum, hpl_ckpt::checksum(&wire_bytes(&buf)));
        for word in 0..buf.len() {
            for bit in 0..32 {
                let mut c = buf.clone();
                c[word] = f32::from_bits(c[word].to_bits() ^ (1u32 << bit));
                assert_ne!(panel_sum(&c), sum, "f32 word {word} bit {bit}");
            }
        }
    }

    /// The wire encoding of `buf`, element by element.
    fn wire_bytes<E: WireElem>(buf: &[E]) -> Vec<u8> {
        buf.iter()
            .flat_map(|v| v.to_bits_u64().to_le_bytes()[..E::WIRE_BYTES].to_vec())
            .collect()
    }

    #[test]
    fn clean_checked_bcast_matches_plain() {
        let out = run_checked(3, &[], BcastAlgo::OneRing).results;
        let expect: Vec<f64> = (0..64).map(|i| i as f64).collect();
        for r in out {
            assert_eq!(r.unwrap().unwrap(), expect);
        }
    }

    #[test]
    fn one_shot_bitflip_is_repaired_by_retransmit() {
        // Root (rank 0) sends: #0 = checksum, #1 = panel payload. Flip a bit
        // of the payload once; the nack/retransmit round must repair it.
        let run = run_checked(2, &["bitflip:17@0:send:1"], BcastAlgo::OneRing);
        let expect: Vec<f64> = (0..64).map(|i| i as f64).collect();
        for r in run.results {
            assert_eq!(r.unwrap().unwrap(), expect, "repaired after one round");
        }
        // The repair is accounted to the rank that applied the retransmit.
        assert_eq!(run.abft_repairs, vec![0, 1]);
    }

    #[test]
    fn sticky_corruption_fails_cleanly_after_bounded_retries() {
        // Every payload send from the root is corrupted (the checksum and
        // give-up messages are typed/empty and immune): retries exhaust.
        let out = run_checked(2, &["bitflip:5@0:send:1:sticky"], BcastAlgo::OneRing).results;
        for r in out {
            match r.unwrap() {
                Err(CommError::Corrupt {
                    root: 0, attempts, ..
                }) => {
                    assert_eq!(attempts, MAX_ATTEMPTS);
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupting_relay_is_bypassed_by_direct_retransmit() {
        // In a 3-rank one-ring, rank 1 forwards the panel to rank 2. Corrupt
        // rank 1's forward (its send #1; send #0 is its ack... the forward is
        // actually its first send): rank 2 nacks and the root's *direct*
        // retransmit repairs it even though rank 1 stays corrupting.
        let run = run_checked(3, &["bitflip:9@1:send:0:sticky"], BcastAlgo::OneRing);
        let expect: Vec<f64> = (0..64).map(|i| i as f64).collect();
        for r in run.results {
            assert_eq!(r.unwrap().unwrap(), expect);
        }
        // Only the victim of the corrupting relay needed a repair.
        assert_eq!(run.abft_repairs, vec![0, 0, 1]);
    }
}
