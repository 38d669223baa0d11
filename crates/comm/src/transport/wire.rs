//! Payload serialization for remote transports.
//!
//! In-process ranks move payloads as `Box<dyn Any + Send>` — zero-copy,
//! type-checked at the receive. Across a process boundary the payload must
//! be bytes, so every type the communicator carries implements [`Wire`]:
//! a stable little-endian encoding plus a `WIRE_ID` schema tag carried in
//! the frame header. Decoding is *lazy*: the receiver thread deposits a
//! [`Packet`] into the ordinary mailbox, and the typed receive decodes it
//! on match — so the mailbox protocol (FIFO per `(src, tag)`, poison
//! precedence, spill lane) is identical across transports.
//!
//! A decode failure (schema mismatch or damaged bytes) surfaces as
//! [`crate::error::CommError::Corrupt`] at the receive — never a hang, and
//! never a torn-down link.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::fabric::Tag;

/// A type that can cross a process boundary.
///
/// The encoding must be deterministic and position-independent: the
/// transport determinism matrix (`tests/transport_determinism.rs`) pins
/// that a run's message *bytes* are a pure function of the message values.
pub trait Wire: Send + 'static {
    /// Stable schema id carried in the frame header; receivers reject a
    /// mismatched id as corruption rather than mis-decoding.
    const WIRE_ID: u32;

    /// Appends the encoding of `self` to `out`.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from exactly `bytes`; `None` on any damage.
    fn wire_decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

/// An encoded payload in flight: what the communicator boxes for a remote
/// send, and what a transport receiver deposits into the mailbox.
#[derive(Debug)]
pub struct Packet {
    /// Schema id of the encoded value.
    pub wire_id: u32,
    /// The encoded bytes.
    pub bytes: Vec<u8>,
    /// Set by the receiver when the frame failed its checksum: the typed
    /// receive reports corruption instead of attempting a decode.
    pub corrupt: bool,
}

impl Packet {
    /// Encodes `value` into a packet ready to frame.
    pub fn pack<T: Wire>(value: &T) -> Packet {
        let mut bytes = Vec::new();
        value.wire_encode(&mut bytes);
        Packet {
            wire_id: T::WIRE_ID,
            bytes,
            corrupt: false,
        }
    }

    /// Decodes the packet as a `T`; `None` on corruption, schema mismatch
    /// or damaged bytes.
    pub fn unpack<T: Wire>(&self) -> Option<T> {
        if self.corrupt || self.wire_id != T::WIRE_ID {
            return None;
        }
        T::wire_decode(&self.bytes)
    }
}

/// Membership a split's root sends each member: the new communicator's
/// world-rank roster (ordered by new rank) and the receiver's rank in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitInfo {
    /// World ranks of the new communicator, indexed by new rank.
    pub members: Vec<usize>,
    /// The receiver's rank in the new communicator.
    pub new_rank: usize,
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let s = bytes.get(at..end)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(s);
    Some(u64::from_le_bytes(a))
}

macro_rules! wire_uint {
    ($ty:ty, $id:expr) => {
        impl Wire for $ty {
            const WIRE_ID: u32 = $id;

            fn wire_encode(&self, out: &mut Vec<u8>) {
                put_u64(out, *self as u64);
            }

            fn wire_decode(bytes: &[u8]) -> Option<Self> {
                if bytes.len() != 8 {
                    return None;
                }
                let v = get_u64(bytes, 0)?;
                <$ty>::try_from(v).ok()
            }
        }
    };
}

wire_uint!(u8, 1);
wire_uint!(u32, 2);
wire_uint!(u64, 3);
wire_uint!(usize, 4);

impl Wire for bool {
    const WIRE_ID: u32 = 5;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        match bytes {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl Wire for f64 {
    const WIRE_ID: u32 = 6;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.to_bits());
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 8 {
            return None;
        }
        Some(f64::from_bits(get_u64(bytes, 0)?))
    }
}

/// Schema id of `Vec<f64>` — the bulk payload. The injected-corruption
/// parity logic in the fabric keys off this id to flip the same bit of the
/// same element an in-process bit-flip fault would.
pub const VEC_F64_WIRE_ID: u32 = 7;

impl Wire for Vec<f64> {
    const WIRE_ID: u32 = VEC_F64_WIRE_ID;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for v in self {
            put_u64(out, v.to_bits());
        }
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let n = get_u64(bytes, 0)? as usize;
        if bytes.len() != 8 + n.checked_mul(8)? {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            v.push(f64::from_bits(get_u64(bytes, 8 + i * 8)?));
        }
        Some(v)
    }
}

impl Wire for Vec<usize> {
    const WIRE_ID: u32 = 8;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for &v in self {
            put_u64(out, v as u64);
        }
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let n = get_u64(bytes, 0)? as usize;
        if bytes.len() != 8 + n.checked_mul(8)? {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            v.push(usize::try_from(get_u64(bytes, 8 + i * 8)?).ok()?);
        }
        Some(v)
    }
}

impl Wire for Vec<u64> {
    const WIRE_ID: u32 = 9;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for &v in self {
            put_u64(out, v);
        }
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let n = get_u64(bytes, 0)? as usize;
        if bytes.len() != 8 + n.checked_mul(8)? {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            v.push(get_u64(bytes, 8 + i * 8)?);
        }
        Some(v)
    }
}

impl Wire for (usize, usize) {
    const WIRE_ID: u32 = 10;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0 as u64);
        put_u64(out, self.1 as u64);
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 16 {
            return None;
        }
        Some((
            usize::try_from(get_u64(bytes, 0)?).ok()?,
            usize::try_from(get_u64(bytes, 8)?).ok()?,
        ))
    }
}

impl Wire for crate::coll::MaxLoc {
    const WIRE_ID: u32 = 11;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.value.to_bits());
        put_u64(out, self.loc);
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 16 {
            return None;
        }
        Some(crate::coll::MaxLoc {
            value: f64::from_bits(get_u64(bytes, 0)?),
            loc: get_u64(bytes, 8)?,
        })
    }
}

// The recursive-doubling allgather exchanges (origin, chunk) lists.
impl Wire for Vec<(usize, Vec<f64>)> {
    const WIRE_ID: u32 = 12;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for (origin, chunk) in self {
            put_u64(out, *origin as u64);
            put_u64(out, chunk.len() as u64);
            for v in chunk {
                put_u64(out, v.to_bits());
            }
        }
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let n = get_u64(bytes, 0)? as usize;
        let mut at = 8;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let origin = usize::try_from(get_u64(bytes, at)?).ok()?;
            let m = get_u64(bytes, at + 8)? as usize;
            at += 16;
            let mut chunk = Vec::with_capacity(m.min(1 << 24));
            for _ in 0..m {
                chunk.push(f64::from_bits(get_u64(bytes, at)?));
                at += 8;
            }
            v.push((origin, chunk));
        }
        if at != bytes.len() {
            return None;
        }
        Some(v)
    }
}

impl Wire for SplitInfo {
    const WIRE_ID: u32 = 13;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.new_rank as u64);
        self.members.wire_encode(out);
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let new_rank = usize::try_from(get_u64(bytes, 0)?).ok()?;
        let members = Vec::<usize>::wire_decode(bytes.get(8..)?)?;
        Some(SplitInfo { members, new_rank })
    }
}

impl Wire for f32 {
    const WIRE_ID: u32 = 15;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let a: [u8; 4] = bytes.try_into().ok()?;
        Some(f32::from_bits(u32::from_le_bytes(a)))
    }
}

/// Schema id of `Vec<f32>` — the bulk payload of an f32 factorization.
/// The injected-corruption parity logic keys off this id the same way it
/// does for [`VEC_F64_WIRE_ID`].
pub const VEC_F32_WIRE_ID: u32 = 16;

fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let s = bytes.get(at..end)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(s);
    Some(u32::from_le_bytes(a))
}

impl Wire for Vec<f32> {
    const WIRE_ID: u32 = VEC_F32_WIRE_ID;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for v in self {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let n = get_u64(bytes, 0)? as usize;
        if bytes.len() != 8 + n.checked_mul(4)? {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            v.push(f32::from_bits(get_u32(bytes, 8 + i * 4)?));
        }
        Some(v)
    }
}

// The f32 twin of the recursive-doubling (origin, chunk) list payload.
impl Wire for Vec<(usize, Vec<f32>)> {
    const WIRE_ID: u32 = 17;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for (origin, chunk) in self {
            put_u64(out, *origin as u64);
            put_u64(out, chunk.len() as u64);
            for v in chunk {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let n = get_u64(bytes, 0)? as usize;
        let mut at = 8;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let origin = usize::try_from(get_u64(bytes, at)?).ok()?;
            let m = get_u64(bytes, at + 8)? as usize;
            at += 16;
            let mut chunk = Vec::with_capacity(m.min(1 << 24));
            for _ in 0..m {
                chunk.push(f32::from_bits(get_u32(bytes, at)?));
                at += 4;
            }
            v.push((origin, chunk));
        }
        if at != bytes.len() {
            return None;
        }
        Some(v)
    }
}

/// A pipeline element precision that can cross a process boundary in every
/// payload shape the collectives and the factorization use: the scalar
/// itself (the `Wire` supertrait), bulk vectors, and the
/// recursive-doubling `(origin, chunk)` lists.
///
/// `Vec<Self>: Wire` cannot be written as a supertrait (trait where-clauses
/// are not implied bounds at use sites), so the vector payload surface is
/// expressed as hook methods: each precision's impl delegates to the typed
/// [`Communicator`] operations with the concrete payload type, and code
/// generic over `E: WireElem` needs no further bounds.
pub trait WireElem: hpl_blas::Element + Wire {
    /// Schema id of `Vec<Self>` — the bulk payload id the fabric's
    /// injected-corruption parity logic keys off.
    const VEC_WIRE_ID: u32;

    /// Fallible typed send of a `Vec<Self>` payload, counted as `elems`
    /// elements in traffic stats.
    fn vec_send(
        comm: &Communicator,
        dst: usize,
        tag: Tag,
        data: Vec<Self>,
        elems: u64,
    ) -> Result<(), CommError>;

    /// Fallible typed receive of a `Vec<Self>` payload.
    fn vec_recv(comm: &Communicator, src: usize, tag: Tag) -> Result<Vec<Self>, CommError>;

    /// Fallible typed send of a recursive-doubling `(origin, chunk)` list.
    fn pairs_send(
        comm: &Communicator,
        dst: usize,
        tag: Tag,
        data: Vec<(usize, Vec<Self>)>,
    ) -> Result<(), CommError>;

    /// Fallible typed receive of a recursive-doubling `(origin, chunk)`
    /// list.
    fn pairs_recv(
        comm: &Communicator,
        src: usize,
        tag: Tag,
    ) -> Result<Vec<(usize, Vec<Self>)>, CommError>;
}

macro_rules! wire_elem {
    ($ty:ty, $vec_id:expr) => {
        impl WireElem for $ty {
            const VEC_WIRE_ID: u32 = $vec_id;

            fn vec_send(
                comm: &Communicator,
                dst: usize,
                tag: Tag,
                data: Vec<$ty>,
                elems: u64,
            ) -> Result<(), CommError> {
                comm.try_send_counted(dst, tag, data, elems)
            }

            fn vec_recv(comm: &Communicator, src: usize, tag: Tag) -> Result<Vec<$ty>, CommError> {
                comm.try_recv(src, tag)
            }

            fn pairs_send(
                comm: &Communicator,
                dst: usize,
                tag: Tag,
                data: Vec<(usize, Vec<$ty>)>,
            ) -> Result<(), CommError> {
                comm.try_send(dst, tag, data)
            }

            fn pairs_recv(
                comm: &Communicator,
                src: usize,
                tag: Tag,
            ) -> Result<Vec<(usize, Vec<$ty>)>, CommError> {
                comm.try_recv(src, tag)
            }
        }
    };
}

wire_elem!(f64, VEC_F64_WIRE_ID);
wire_elem!(f32, VEC_F32_WIRE_ID);

// The generic-combiner allreduce test payload (max value + merged ids).
impl Wire for (f64, Vec<usize>) {
    const WIRE_ID: u32 = 14;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0.to_bits());
        self.1.wire_encode(out);
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let v = f64::from_bits(get_u64(bytes, 0)?);
        let ids = Vec::<usize>::wire_decode(bytes.get(8..)?)?;
        Some((v, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::MaxLoc;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let p = Packet::pack(&v);
        assert_eq!(p.unpack::<T>().as_ref(), Some(&v), "{v:?}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(7u32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(-0.0f64);
        round_trip(f64::NAN.to_bits() as f64 * 0.0 + 1.5); // plain value
    }

    #[test]
    fn vectors_and_composites_round_trip() {
        round_trip(Vec::<f64>::new());
        round_trip(vec![1.5f64, -2.25, f64::MIN_POSITIVE]);
        round_trip(vec![0usize, 3, 7]);
        round_trip(vec![9u64, u64::MAX]);
        round_trip((3usize, 9usize));
        round_trip(MaxLoc {
            value: 2.5,
            loc: 11,
        });
        round_trip(vec![(0usize, vec![1.0f64, 2.0]), (3, vec![])]);
        round_trip(SplitInfo {
            members: vec![2, 0, 1],
            new_rank: 1,
        });
        round_trip((4.5f64, vec![1usize, 2]));
    }

    #[test]
    fn nan_bits_survive_exactly() {
        let weird = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let p = Packet::pack(&vec![weird]);
        let back = p.unpack::<Vec<f64>>().unwrap();
        assert_eq!(back[0].to_bits(), weird.to_bits());
    }

    #[test]
    fn f32_payloads_round_trip() {
        round_trip(-0.0f32);
        round_trip(1.5f32);
        round_trip(Vec::<f32>::new());
        round_trip(vec![1.5f32, -2.25, f32::MIN_POSITIVE]);
        round_trip(vec![(0usize, vec![1.0f32, 2.0]), (3, vec![])]);
        // The f32 vector encoding is dense: 4 bytes per element.
        let p = Packet::pack(&vec![1.0f32, 2.0, 3.0]);
        assert_eq!(p.bytes.len(), 8 + 3 * 4);
        // NaN payloads survive bit-exactly.
        let weird = f32::from_bits(0x7FC0_BEEF);
        let p = Packet::pack(&vec![weird]);
        let back = p.unpack::<Vec<f32>>().unwrap();
        assert_eq!(back[0].to_bits(), weird.to_bits());
        // f32 and f64 vectors are distinct schemas.
        let p = Packet::pack(&vec![1.0f32]);
        assert!(p.unpack::<Vec<f64>>().is_none(), "schema mismatch");
    }

    #[test]
    fn schema_mismatch_and_damage_fail_closed() {
        let p = Packet::pack(&7u32);
        assert!(p.unpack::<u64>().is_none(), "wire id mismatch");
        let mut p = Packet::pack(&vec![1.0f64, 2.0]);
        p.bytes.truncate(12);
        assert!(p.unpack::<Vec<f64>>().is_none(), "truncated bytes");
        let mut p = Packet::pack(&vec![1.0f64]);
        p.corrupt = true;
        assert!(p.unpack::<Vec<f64>>().is_none(), "corrupt flag");
    }
}
