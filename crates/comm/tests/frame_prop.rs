//! Property tests for the transport frame codec — the exact bytes every
//! byte-moving backend (TCP sockets, shm frame logs) puts on the wire.
//!
//! Three families of properties:
//!
//! 1. **Round-trip**: any frame — every kind, full-range ids and tags,
//!    payloads from 0 bytes to well past the mailbox spill threshold —
//!    encodes and decodes back bitwise identical, with the checksum valid
//!    and the consumed length exactly the encoding's length. Back-to-back
//!    frames in one buffer reassemble in order, which is what the TCP
//!    reader's streaming loop depends on.
//!
//! 2. **Truncation**: every strict prefix of a valid encoding is rejected
//!    with `FrameError::Truncated` — never a panic, never a bogus frame,
//!    and the `need` field (when known) names the true total so a reader
//!    knows to wait for more bytes instead of spinning or hanging.
//!
//! 3. **Corruption**: flipping any single bit anywhere in a valid encoding
//!    makes the strict decoder reject the buffer with a typed error.
//!    Damage behind an intact header (payload, id fields, trailer) comes
//!    back from the tolerant decoder as `sum_ok == false` with the frame
//!    still delivered — that is the hook the fabric uses to surface wire
//!    corruption as `CommError::Corrupt` (and `HplError::CorruptPayload`
//!    at the core layer) instead of tearing the link down.
//!
//! 4. **Certain detection**: for every payload length from 0 to 300 bytes,
//!    exhaustively, every single-bit flip and every replacement of one
//!    8-byte word of the encoding is rejected by the strict decoder. The
//!    trailer's checksum detects any change confined to one word of the
//!    summed bytes with certainty, so these hold by construction, not by
//!    luck of the sampled cases.

use hpl_comm::transport::frame::{Frame, FrameError, FrameKind, HEADER_LEN, TRAILER_LEN};
use proptest::prelude::*;

fn kinds() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Data),
        Just(FrameKind::Death),
        Just(FrameKind::Goodbye),
    ]
}

/// Payload sizes biased to the interesting regimes: empty, small inline
/// messages, and panel-sized blobs well past the mailbox spill threshold.
fn payloads() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(0usize..1),
        Just(1usize..64),
        Just(4_000usize..6_000),
        Just(60_000usize..70_000),
    ]
    .prop_flat_map(|range| collection::vec(0u8..=255, range))
}

fn frames() -> impl Strategy<Value = Frame> {
    (
        kinds(),
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        0u64..=u64::MAX,
        0u32..=u32::MAX,
        payloads(),
    )
        .prop_map(|(kind, src, dst, tag, wire_id, payload)| Frame {
            kind,
            src,
            dst,
            tag,
            wire_id,
            payload,
        })
}

proptest! {
    /// encode → decode is the identity, the checksum validates, and the
    /// decoder consumes exactly the encoded length.
    #[test]
    fn round_trip_is_bitwise_identity(frame in frames()) {
        let buf = frame.encode();
        prop_assert_eq!(buf.len(), HEADER_LEN + frame.payload.len() + TRAILER_LEN);
        prop_assert_eq!(Frame::total_len(&buf), Ok(buf.len()));

        let (back, used) = Frame::decode(&buf).expect("a fresh encoding decodes");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(&back, &frame);

        let (tback, tused, sum_ok) =
            Frame::decode_tolerant(&buf).expect("framing is intact");
        prop_assert!(sum_ok, "a fresh encoding has a valid checksum");
        prop_assert_eq!(tused, buf.len());
        prop_assert_eq!(&tback, &frame);
    }

    /// Two frames laid back to back — the shape of a TCP read that spans a
    /// frame boundary — decode in order, each consuming its own bytes.
    #[test]
    fn concatenated_frames_reassemble_in_order(a in frames(), b in frames()) {
        let mut buf = a.encode();
        let split = buf.len();
        buf.extend_from_slice(&b.encode());

        let (first, used) = Frame::decode(&buf).expect("first frame decodes");
        prop_assert_eq!(used, split);
        prop_assert_eq!(&first, &a);
        let (second, used2) = Frame::decode(&buf[used..]).expect("second frame decodes");
        prop_assert_eq!(used + used2, buf.len());
        prop_assert_eq!(&second, &b);
    }

    /// Every strict prefix is rejected as `Truncated` — the reader waits
    /// for more bytes; it never panics, hangs, or invents a frame. Once
    /// the header is complete, `need` names the exact total to wait for.
    #[test]
    fn every_strict_prefix_is_truncated(frame in frames(), cut in 0.0..1.0) {
        let buf = frame.encode();
        let keep = ((buf.len() as f64) * cut) as usize; // < buf.len(): cut < 1
        let prefix = &buf[..keep];

        match Frame::decode(prefix) {
            Err(FrameError::Truncated { need, have }) => {
                prop_assert_eq!(have, keep);
                if keep < HEADER_LEN {
                    prop_assert_eq!(need, 0, "length unknowable before the header");
                } else {
                    prop_assert_eq!(need, buf.len());
                }
            }
            other => prop_assert!(false, "prefix of {} bytes gave {:?}", keep, other),
        }
        // The tolerant decoder is no more permissive about framing.
        prop_assert!(matches!(
            Frame::decode_tolerant(prefix),
            Err(FrameError::Truncated { .. })
        ));
    }

    /// Any single-bit flip anywhere in the encoding is caught by the
    /// strict decoder with a typed error — never a panic, never a silent
    /// wrong frame. (The trailer's checksum detects every single-bit flip
    /// of the summed bytes by construction; property 4 checks it
    /// exhaustively on small frames.)
    #[test]
    fn any_bit_flip_is_rejected_by_strict_decode(
        frame in frames(),
        pos in 0.0..1.0,
        bit in 0u8..8,
    ) {
        let mut buf = frame.encode();
        let at = ((buf.len() as f64) * pos) as usize;
        buf[at] ^= 1 << bit;

        match Frame::decode(&buf) {
            Err(
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::BadKind(_)
                | FrameError::TooLarge(_)
                | FrameError::Truncated { .. }
                | FrameError::Checksum { .. },
            ) => {}
            Ok(_) => prop_assert!(
                false,
                "bit {} of byte {} flipped yet the frame decoded strictly",
                bit, at
            ),
        }
    }

    /// Damage behind an intact header — id fields, payload, trailer — is
    /// *delivered* by the tolerant decoder with `sum_ok == false`: the
    /// receiver can hand the typed layer a frame marked corrupt (surfacing
    /// as a payload error on that one message) instead of killing the
    /// link. Byte 7 is the reserved header byte; 8.. covers everything
    /// after the validated magic/version/kind prefix except the length
    /// word at 28..32 (corrupting the length legitimately re-frames the
    /// buffer, so it is excluded here and covered by the bit-flip
    /// property above).
    #[test]
    fn post_header_damage_is_delivered_marked_corrupt(
        frame in frames(),
        pos in 0.0..1.0,
        bit in 0u8..8,
    ) {
        let mut buf = frame.encode();
        // Map pos onto [7, len) minus the payload-length word.
        let candidates: Vec<usize> = (7..buf.len())
            .filter(|&i| !(28..32).contains(&i))
            .collect();
        let at = candidates[((candidates.len() as f64) * pos) as usize];
        buf[at] ^= 1 << bit;

        let (got, used, sum_ok) = Frame::decode_tolerant(&buf)
            .expect("framing fields are untouched");
        prop_assert!(!sum_ok, "flip at byte {} went unnoticed", at);
        prop_assert_eq!(used, buf.len());
        // The payload length was untouched, so the payload round-trips at
        // the same size — corrupt in content at most, never resized.
        prop_assert_eq!(got.payload.len(), frame.payload.len());

        // And the strict decoder reports the same damage as a checksum
        // mismatch carrying both sums for the diagnostic.
        match Frame::decode(&buf) {
            Err(FrameError::Checksum { expected, got }) => {
                prop_assert!(expected != got);
            }
            other => prop_assert!(false, "strict decode gave {:?}", other),
        }
    }
}

/// A frame with `n` payload bytes of a fixed pattern.
fn patterned(n: usize) -> Frame {
    Frame {
        kind: FrameKind::Data,
        src: 1,
        dst: 0,
        tag: (3u64 << 48) | 0x1234,
        wire_id: 7,
        payload: (0..n).map(|i| (i * 37 + 11) as u8).collect(),
    }
}

/// Property 4a: every single-bit flip of every frame with a 0..=300-byte
/// payload is rejected by the strict decoder.
#[test]
fn every_bit_flip_of_every_small_frame_is_rejected() {
    for n in 0..=300 {
        let buf = patterned(n).encode();
        for at in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    Frame::decode(&bad).is_err(),
                    "payload {n}: bit {bit} of byte {at} flipped yet the frame decoded"
                );
            }
        }
    }
}

/// Property 4b: every replacement of one 8-byte word (at offsets 0, 8,
/// 16, ... of the encoding, the last one clipped to the end) by a
/// different value is rejected by the strict decoder.
#[test]
fn every_word_replacement_of_every_small_frame_is_rejected() {
    for n in 0..=300 {
        let buf = patterned(n).encode();
        for at in (0..buf.len()).step_by(8) {
            let end = (at + 8).min(buf.len());
            let old = &buf[at..end];
            let news: [Vec<u8>; 3] = [
                old.iter().map(|b| !b).collect(),
                vec![0; end - at],
                (0..end - at)
                    .map(|i| (at * 13 + i * 101 + 5) as u8)
                    .collect(),
            ];
            for new in news.iter().filter(|new| new.as_slice() != old) {
                let mut bad = buf.clone();
                bad[at..end].copy_from_slice(new);
                assert!(
                    Frame::decode(&bad).is_err(),
                    "payload {n}: word at {at} replaced by {new:02x?} yet the frame decoded"
                );
            }
        }
    }
}
