//! Self-describing binary snapshot codec.
//!
//! Layout (all integers little-endian `u64` unless noted):
//!
//! ```text
//! magic   u32  = 0x52434B50 ("RCKP")
//! version u32  = 2
//! id      7 x u64  (n, nb, p, q, seed, schedule, frac_bits)
//! rank, next_iter, mloc, nloc   4 x u64
//! data    u64 count, then count x f64 (IEEE-754 bit patterns)
//! pivots  u64 count, then count x u64
//! cursors u64 count, then count x u64
//! trailer u64  crate::checksum over every preceding byte
//! ```
//!
//! Version 1 had the same layout with a byte-serial FNV-1a trailer; its
//! snapshots are rejected as [`CkptError::BadVersion`]. The trailer makes
//! a torn or bit-flipped snapshot detectable on restore; together with the
//! store's atomic-rename deposits it guarantees a crash mid-write never
//! yields a silently corrupt "last good" checkpoint.

use crate::words::{le_word, put_words};
use crate::{checksum, CkptError, ConfigId, Snapshot};

const MAGIC: u32 = 0x5243_4B50; // "RCKP"
const VERSION: u32 = 2;

/// Magic and version, the part of the stream read before the trailer.
const PREAMBLE: usize = 8;
const TRAILER: usize = 8;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes a snapshot to its checksummed wire form.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let words = 4 + 7 + snap.data.len() + snap.pivots.len() + snap.cursors.len() + 3;
    let mut out = Vec::with_capacity(PREAMBLE + words * 8 + TRAILER);
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, VERSION);
    for v in [
        snap.id.n,
        snap.id.nb,
        snap.id.p,
        snap.id.q,
        snap.id.seed,
        snap.id.schedule,
        snap.id.frac_bits,
        snap.rank,
        snap.next_iter,
        snap.mloc,
        snap.nloc,
    ] {
        put_u64(&mut out, v);
    }
    put_words(&mut out, snap.data.iter().map(|x| x.to_bits()));
    put_words(&mut out, snap.pivots.iter().copied());
    put_words(&mut out, snap.cursors.iter().copied());
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

/// Cursor over the byte stream; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated {
            need: usize::MAX,
            have: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(CkptError::Truncated {
                need: end,
                have: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(le_word(self.take(8)?))
    }

    /// Reads a count-prefixed `u64` vector. The count is bounded by the
    /// bytes remaining before anything is allocated for it.
    fn u64_vec(&mut self) -> Result<Vec<u64>, CkptError> {
        let count = self.u64()? as usize;
        let need = count.checked_mul(8).ok_or(CkptError::Truncated {
            need: usize::MAX,
            have: self.bytes.len(),
        })?;
        Ok(self.take(need)?.chunks_exact(8).map(le_word).collect())
    }
}

/// Deserializes and validates a snapshot: magic and version first (so a
/// generation written by another format version is reported as
/// [`CkptError::BadVersion`], not as damage), then the trailer over every
/// preceding byte, then the field lengths. Nothing is allocated before the
/// trailer has been checked.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
    if bytes.len() < PREAMBLE + TRAILER {
        return Err(CkptError::Truncated {
            need: PREAMBLE + TRAILER,
            have: bytes.len(),
        });
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if magic != MAGIC {
        return Err(CkptError::BadMagic(magic));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(CkptError::BadVersion(version));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let expected = le_word(trailer);
    let got = checksum(payload);
    if expected != got {
        return Err(CkptError::Checksum { expected, got });
    }

    let mut r = Reader {
        bytes: payload,
        pos: PREAMBLE,
    };
    let id = ConfigId {
        n: r.u64()?,
        nb: r.u64()?,
        p: r.u64()?,
        q: r.u64()?,
        seed: r.u64()?,
        schedule: r.u64()?,
        frac_bits: r.u64()?,
    };
    let rank = r.u64()?;
    let next_iter = r.u64()?;
    let mloc = r.u64()?;
    let nloc = r.u64()?;
    let data = r.u64_vec()?.into_iter().map(f64::from_bits).collect();
    let pivots = r.u64_vec()?;
    let cursors = r.u64_vec()?;
    if r.pos != payload.len() {
        return Err(CkptError::Truncated {
            need: r.pos,
            have: payload.len(),
        });
    }
    Ok(Snapshot {
        id,
        rank,
        next_iter,
        mloc,
        nloc,
        data,
        pivots,
        cursors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            id: ConfigId {
                n: 48,
                nb: 8,
                p: 1,
                q: 2,
                seed: 42,
                schedule: 2,
                frac_bits: 0.5f64.to_bits(),
            },
            rank: 1,
            next_iter: 4,
            mloc: 3,
            nloc: 2,
            data: vec![1.0, -2.5, 0.0, f64::MIN_POSITIVE, 1e300, -0.0],
            pivots: vec![5, 0, 17],
            cursors: vec![2, 9, 0],
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let snap = sample();
        let bytes = encode(&snap);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, snap);
        // -0.0 must survive as -0.0, not 0.0.
        assert_eq!(back.data[5].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample());
        for cut in [0, 7, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    /// A generation left on disk by a `VERSION` 1 build: the same layout
    /// closed by an FNV-1a trailer (pinned as that build wrote it for
    /// `sample()`). It is reported as a version the reader does not speak,
    /// not as damage.
    #[test]
    fn version_1_generation_is_reported_as_bad_version() {
        let mut v1 = encode(&sample());
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let n = v1.len();
        v1[n - TRAILER..].copy_from_slice(&0x4094_5079_CFB2_4664u64.to_le_bytes());
        assert_eq!(decode(&v1), Err(CkptError::BadVersion(1)));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(decode(&bytes).is_err());
    }
}
