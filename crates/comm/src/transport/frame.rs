//! The versioned, checksummed frame codec shared by every remote transport.
//!
//! A frame is the unit both the TCP and shared-memory backends move between
//! rank processes: a fixed 32-byte little-endian header, a length-prefixed
//! payload, and a trailer holding the word-wide checksum of everything
//! before it ([`hpl_ckpt::checksum()`], the one checkpoint snapshots end
//! with, so corruption anywhere in the stack is caught by the same
//! arithmetic; every single-bit flip and every change confined to one
//! 8-byte word of header or payload is caught with certainty).
//!
//! ```text
//! offset  size  field
//!      0     4  magic  0x52485046 ("RHPF")
//!      4     2  version (currently 2)
//!      6     1  kind    (0 = Data, 1 = Death, 2 = Goodbye)
//!      7     1  reserved (must be 0)
//!      8     4  src     (sending world rank)
//!     12     4  dst     (receiving world rank)
//!     16     8  tag     (raw `Tag` value, context bits folded in)
//!     24     4  wire_id (payload schema id, see `wire`)
//!     28     4  payload_len
//!     32     n  payload
//!   32+n     8  checksum (hpl_ckpt::checksum of bytes [0, 32+n))
//! ```
//!
//! Version 1 had the same layout with a byte-serial FNV-1a trailer; its
//! frames are framing damage ([`FrameError::BadVersion`]).
//!
//! The payload is moved once per side: [`Frame::write_to`] writes header,
//! payload and trailer with vectored writes (the payload is never copied
//! into a frame buffer), and [`Frame::read_from`] reads the header into a
//! stack array and the payload straight into the `Vec` the frame owns,
//! summing both as they arrive; it is the one decoder, which
//! [`Frame::decode_tolerant`] and [`Frame::decode`] run over a buffer.
//! [`Frame::total_len`] sizes a frame from its header alone, and the
//! decoder separates *framing* damage (unrecoverable —
//! the link is torn down) from *payload* damage (recoverable — the frame is
//! delivered marked corrupt, and the typed receive surfaces
//! [`crate::error::CommError::Corrupt`] instead of hanging).

use std::io::{IoSlice, Read, Write};

use hpl_ckpt::Checksum;

/// Frame magic: "RHPF" little-endian.
pub const MAGIC: u32 = 0x5248_5046;

/// Codec version; bumped on any layout or checksum change.
pub const VERSION: u16 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;

/// Trailer (checksum) size in bytes.
pub const TRAILER_LEN: usize = 8;

/// Sanity bound on payloads (1 GiB): anything larger is framing damage,
/// not a plausible panel.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A mailbox-bound message (data plane or reserved-tag control plane).
    Data,
    /// A rank died: `tag` holds the dead world rank, the payload its phase.
    Death,
    /// Clean link shutdown; EOF after this is not a failure.
    Goodbye,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Death => 1,
            FrameKind::Goodbye => 2,
        }
    }

    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Death),
            2 => Some(FrameKind::Goodbye),
            _ => None,
        }
    }
}

/// A decoded (or to-be-encoded) frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sending world rank.
    pub src: u32,
    /// Receiving world rank.
    pub dst: u32,
    /// Raw tag value (context bits folded in by the communicator).
    pub tag: u64,
    /// Payload schema id (see [`crate::transport::wire`]).
    pub wire_id: u32,
    /// Encoded payload bytes.
    pub payload: Vec<u8>,
}

/// Why a byte sequence is not a valid frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet; `need` is the total the frame requires.
    Truncated {
        /// Bytes the complete frame occupies (0 when even the header is
        /// incomplete and the true length is unknown).
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The first four bytes are not the frame magic.
    BadMagic(u32),
    /// Unknown codec version.
    BadVersion(u16),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Payload length over [`MAX_PAYLOAD`] — framing damage.
    TooLarge(u32),
    /// The trailer does not match the frame bytes.
    Checksum {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum carried in the trailer.
        got: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLarge(n) => write!(f, "frame payload of {n} bytes over limit"),
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {expected:#x}, frame says {got:#x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

fn get_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

impl Frame {
    /// The fixed header describing this frame.
    fn header(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        h[4..6].copy_from_slice(&VERSION.to_le_bytes());
        h[6] = self.kind.to_u8();
        // h[7] is the reserved byte, always 0.
        h[8..12].copy_from_slice(&self.src.to_le_bytes());
        h[12..16].copy_from_slice(&self.dst.to_le_bytes());
        h[16..24].copy_from_slice(&self.tag.to_le_bytes());
        h[24..28].copy_from_slice(&self.wire_id.to_le_bytes());
        h[28..32].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        h
    }

    /// The checksum a frame with `header` and `payload` carries.
    fn sum(header: &[u8], payload: &[u8]) -> u64 {
        let mut sum = Checksum::new();
        sum.update(header);
        sum.update(payload);
        sum.finish()
    }

    /// Writes the frame (header + payload + checksum trailer) to `w` with
    /// vectored writes, so the payload goes from its own buffer to the
    /// writer without an intermediate copy. Returns the bytes written.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<usize> {
        let header = self.header();
        let trailer = Self::sum(&header, &self.payload).to_le_bytes();
        let mut parts = [
            IoSlice::new(&header),
            IoSlice::new(&self.payload),
            IoSlice::new(&trailer),
        ];
        let mut left = &mut parts[..];
        while !left.is_empty() {
            match w.write_vectored(left) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(HEADER_LEN + self.payload.len() + TRAILER_LEN)
    }

    /// Encodes the frame (header + payload + checksum trailer) into one
    /// buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + TRAILER_LEN);
        self.write_to(&mut out)
            .expect("writing into a Vec cannot fail");
        out
    }

    /// Total frame size implied by a (possibly partial) buffer: validates
    /// the fixed header fields and returns `HEADER_LEN + payload_len +
    /// TRAILER_LEN`. `Truncated { need: 0 }` means the header itself is
    /// still incomplete.
    pub fn total_len(buf: &[u8]) -> Result<usize, FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                need: 0,
                have: buf.len(),
            });
        }
        let magic = get_u32(buf, 0);
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = get_u16(buf, 4);
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        if FrameKind::from_u8(buf[6]).is_none() {
            return Err(FrameError::BadKind(buf[6]));
        }
        let payload_len = get_u32(buf, 28);
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(payload_len));
        }
        Ok(HEADER_LEN + payload_len as usize + TRAILER_LEN)
    }

    /// The frame a header validated by [`Frame::total_len`] describes,
    /// carrying `payload`.
    fn from_header(header: &[u8], payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::from_u8(header[6]).expect("validated by total_len"),
            src: get_u32(header, 8),
            dst: get_u32(header, 12),
            tag: get_u64(header, 16),
            wire_id: get_u32(header, 24),
            payload,
        }
    }

    /// Strict decode: any damage — framing or checksum — is an error.
    /// Returns the frame and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        let (frame, used, sum_ok) = Self::decode_tolerant(buf)?;
        if !sum_ok {
            // Recompute for the diagnostic (decode_tolerant discards it).
            return Err(FrameError::Checksum {
                expected: Self::sum(&buf[..HEADER_LEN], &frame.payload),
                got: get_u64(buf, used - TRAILER_LEN),
            });
        }
        Ok((frame, used))
    }

    /// Tolerant decode of the frame at the front of `buf`: framing damage
    /// (bad magic/version/kind, oversized or truncated) is still an error,
    /// but a checksum mismatch over an intact header comes back as
    /// `sum_ok == false` with the frame — the receiver can deliver it
    /// marked corrupt so the typed receive fails with a payload error
    /// instead of tearing down the link. Returns the frame, the bytes
    /// consumed and `sum_ok`. The frame is sized from its header and read
    /// by [`Frame::read_from`], the transports' own read path, only once
    /// `buf` holds all of it, so nothing larger than `buf` is allocated.
    pub fn decode_tolerant(buf: &[u8]) -> Result<(Frame, usize, bool), FrameError> {
        let total = Self::total_len(buf)?;
        let truncated = FrameError::Truncated {
            need: total,
            have: buf.len(),
        };
        let Some(mut whole) = buf.get(..total) else {
            return Err(truncated);
        };
        match Self::read_from(&mut whole) {
            Ok(read) => read.map(|(frame, sum_ok)| (frame, total, sum_ok)),
            // Unreachable: `whole` holds the `total` bytes the header asks for.
            Err(_) => Err(truncated),
        }
    }

    /// Reads one frame from a byte stream: the header into a stack array,
    /// then the payload straight into the `Vec` the frame owns, summed as
    /// it arrives. The outer error is the stream's (EOF, reset, or a frame
    /// not yet complete); the inner one is framing damage in the header.
    /// A checksum mismatch comes back as `sum_ok == false` with the frame,
    /// as from [`Frame::decode_tolerant`].
    pub fn read_from(r: &mut impl Read) -> std::io::Result<Result<(Frame, bool), FrameError>> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let total = match Self::total_len(&header) {
            Ok(n) => n,
            Err(e) => return Ok(Err(e)),
        };
        let mut payload = vec![0u8; total - HEADER_LEN - TRAILER_LEN];
        r.read_exact(&mut payload)?;
        let mut trailer = [0u8; TRAILER_LEN];
        r.read_exact(&mut trailer)?;
        let sum_ok = Self::sum(&header, &payload) == u64::from_le_bytes(trailer);
        Ok(Ok((Self::from_header(&header, payload), sum_ok)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 3,
            dst: 1,
            tag: (1u64 << 48) + 7,
            wire_id: 42,
            payload,
        }
    }

    #[test]
    fn round_trip_empty_and_bulk() {
        for payload in [
            vec![],
            vec![0xAB; 1],
            (0..=255u8).cycle().take(9000).collect(),
        ] {
            let f = sample(payload);
            let bytes = f.encode();
            let (back, used) = Frame::decode(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn truncated_header_and_body_are_rejected() {
        let bytes = sample(vec![1, 2, 3, 4]).encode();
        for cut in [0, 1, HEADER_LEN - 1] {
            assert_eq!(
                Frame::total_len(&bytes[..cut]),
                Err(FrameError::Truncated { need: 0, have: cut })
            );
        }
        for cut in [HEADER_LEN, bytes.len() - 1] {
            match Frame::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { need, have }) => {
                    assert_eq!(need, bytes.len());
                    assert_eq!(have, cut);
                }
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_version_kind_are_framing_errors() {
        let mut bytes = sample(vec![9]).encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = sample(vec![9]).encode();
        bytes[4] = 0x7F;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadVersion(_))
        ));
        let mut bytes = sample(vec![9]).encode();
        bytes[6] = 200;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadKind(200))
        ));
    }

    /// A frame from a `VERSION` 1 peer: the same header and payload closed
    /// by an FNV-1a trailer (pinned as that codec wrote it). It is framing
    /// damage, reported by version, whether decoded or read from a stream.
    #[test]
    fn version_1_frame_is_rejected_by_version() {
        let mut v1 = sample(vec![1, 2, 3]).encode();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let n = v1.len();
        v1[n - TRAILER_LEN..].copy_from_slice(&0x5420_4167_30DB_792Bu64.to_le_bytes());
        assert_eq!(Frame::decode(&v1), Err(FrameError::BadVersion(1)));
        assert_eq!(Frame::decode_tolerant(&v1), Err(FrameError::BadVersion(1)));
        let read = Frame::read_from(&mut &v1[..]).expect("the whole frame is there");
        assert_eq!(read, Err(FrameError::BadVersion(1)));
    }

    #[test]
    fn stream_read_matches_buffer_decode() {
        let frames = [
            sample(vec![]),
            sample(vec![7; 5]),
            sample((0..=255u8).collect()),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            let n = f.write_to(&mut stream).expect("Vec write");
            assert_eq!(n, HEADER_LEN + f.payload.len() + TRAILER_LEN);
        }
        let mut r = &stream[..];
        for f in &frames {
            let (back, sum_ok) = Frame::read_from(&mut r).expect("complete").expect("intact");
            assert!(sum_ok);
            assert_eq!(&back, f);
        }
        assert!(Frame::read_from(&mut r).is_err(), "EOF is a stream error");

        let mut bad = frames[1].encode();
        bad[HEADER_LEN + 2] ^= 0x10;
        let (back, sum_ok) = Frame::read_from(&mut &bad[..])
            .expect("complete")
            .expect("header intact");
        assert!(!sum_ok, "payload damage is delivered marked corrupt");
        assert_eq!(back.payload.len(), 5);
        assert!(
            Frame::read_from(&mut &bad[..bad.len() - 1]).is_err(),
            "short read"
        );
    }

    #[test]
    fn payload_corruption_fails_strict_but_survives_tolerant() {
        let f = sample(vec![5; 64]);
        let mut bytes = f.encode();
        bytes[HEADER_LEN + 10] ^= 0x40;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Checksum { .. })
        ));
        let (back, used, sum_ok) = Frame::decode_tolerant(&bytes).expect("header intact");
        assert!(!sum_ok);
        assert_eq!(used, bytes.len());
        assert_eq!(back.wire_id, f.wire_id);
    }

    #[test]
    fn oversized_payload_is_framing_damage() {
        let mut bytes = sample(vec![0; 8]).encode();
        bytes[28..32].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            Frame::total_len(&bytes),
            Err(FrameError::TooLarge(MAX_PAYLOAD + 1))
        );
    }
}
