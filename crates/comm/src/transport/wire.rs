//! The one message form. Every payload, in process and across processes,
//! travels as a [`Packet`]: a schema id and the bytes of a stable
//! little-endian encoding. Every type the communicator carries implements
//! [`Wire`]; a send encodes before the fabric's choke point, the mailbox
//! moves the packet by value (or a transport frames it), and a receive
//! decodes it after checking the schema id — so fault injection, stats and
//! traced bytes see the same send on every transport.
//!
//! A decode failure (schema mismatch or damaged bytes) surfaces as
//! [`crate::error::CommError::Corrupt`] at the receive — never a hang, and
//! never a torn-down link.
//!
//! Bulk payloads (element vectors, the `(origin, chunk)` lists, and any
//! outside payload built on [`put_elems`] / [`take_elems`]) size their
//! buffer once and move their elements in one pass each way; a decoder
//! checks a run's count against the bytes present before allocating, and
//! [`Packet::elements`] decodes a vector straight into wherever its reader
//! puts it.

use std::mem::MaybeUninit;

use hpl_blas::Element;
use hpl_ckpt::words::{le_word, put_words};

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

/// A message: what a send encodes, what the mailbox holds and a transport
/// frames, and what a receive decodes.
#[derive(Clone, Debug)]
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
    /// Encodes `value` into a packet.
    pub fn pack<T: Wire>(value: &T) -> Packet {
        let mut bytes = Vec::new();
        value.wire_encode(&mut bytes);
        Packet {
            wire_id: T::WIRE_ID,
            bytes,
            corrupt: false,
        }
    }

    /// Encodes an element slice as the `Vec<E>` payload it would be sent
    /// as, without first copying it into a `Vec`.
    pub(crate) fn from_slice<E: WireElem>(data: &[E]) -> Packet {
        let mut bytes = Vec::new();
        put_elems(&mut bytes, data);
        Packet {
            wire_id: E::VEC_WIRE_ID,
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

    /// The elements of a `Vec<E>` packet, decoded as they are read — into
    /// a slice, onto a vector or into a reduction; `None` on corruption,
    /// schema mismatch or damaged bytes.
    pub(crate) fn elements<E: WireElem>(&self) -> Option<impl ExactSizeIterator<Item = E> + '_> {
        if self.corrupt || self.wire_id != E::VEC_WIRE_ID {
            return None;
        }
        let (run, rest) = elem_run::<E>(&self.bytes)?;
        rest.is_empty().then(|| decode_run(run))
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

/// Appends `src` as a count-prefixed run: a `u64` count, then each
/// element's little-endian bit pattern (`E::WIRE_BYTES` bytes), written in
/// one pass into `out`, which grows once.
pub fn put_elems<E: Element>(out: &mut Vec<u8>, src: &[E]) {
    let (w, len) = (E::WIRE_BYTES, src.len() * E::WIRE_BYTES);
    out.reserve(8 + len);
    put_u64(out, src.len() as u64);
    let start = out.len();
    // Written straight into the reserved capacity: no zero fill first.
    for (dst, &v) in out.spare_capacity_mut()[..len].chunks_exact_mut(w).zip(src) {
        dst.copy_from_slice(&v.to_bits_u64().to_le_bytes().map(MaybeUninit::new)[..w]);
    }
    // SAFETY: the loop initialized all `len` bytes after `start`, which
    // lie within the capacity reserved above.
    unsafe { out.set_len(start + len) };
}

/// Splits the count-prefixed run at the front of `bytes` into its encoded
/// elements and the bytes after it; `None` if the run is cut short.
fn elem_run<E: Element>(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let n = usize::try_from(get_u64(bytes, 0)?).ok()?;
    let len = n.checked_mul(E::WIRE_BYTES)?;
    let body = bytes.get(8..)?;
    (len <= body.len()).then(|| body.split_at(len))
}

/// The elements of an encoded run (`E::WIRE_BYTES` each), in order.
fn decode_run<E: Element>(run: &[u8]) -> impl ExactSizeIterator<Item = E> + '_ {
    run.chunks_exact(E::WIRE_BYTES)
        .map(|c| E::from_bits_u64(le_word(c)))
}

/// Reads the count-prefixed run [`put_elems`] wrote at the front of
/// `bytes`: the elements and the bytes after the run. `None` if the run is
/// cut short; the count is checked against the bytes present before
/// anything is allocated.
pub fn take_elems<E: Element>(bytes: &[u8]) -> Option<(Vec<E>, &[u8])> {
    let (run, rest) = elem_run::<E>(bytes)?;
    Some((decode_run(run).collect(), rest))
}

/// The words of a payload that is exactly one count-prefixed run of them.
fn word_run(bytes: &[u8]) -> Option<impl ExactSizeIterator<Item = u64> + '_> {
    let n = usize::try_from(get_u64(bytes, 0)?).ok()?;
    let body = bytes.get(8..)?;
    if body.len() != n.checked_mul(8)? {
        return None;
    }
    Some(
        body.as_chunks::<8>()
            .0
            .iter()
            .map(|w| u64::from_le_bytes(*w)),
    )
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

impl Wire for Vec<usize> {
    const WIRE_ID: u32 = 8;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_words(out, self.iter().map(|&v| v as u64));
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let words = word_run(bytes)?;
        let mut v = Vec::with_capacity(words.len());
        for w in words {
            v.push(usize::try_from(w).ok()?);
        }
        Some(v)
    }
}

impl Wire for Vec<u64> {
    const WIRE_ID: u32 = 9;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_words(out, self.iter().copied());
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        Some(word_run(bytes)?.collect())
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

/// Encodes a recursive-doubling `(origin, chunk)` list: a count, then per
/// entry the origin word and the chunk's run, into a buffer sized once.
fn put_pairs<E: Element>(out: &mut Vec<u8>, pairs: &[(usize, Vec<E>)]) {
    let len: usize = pairs
        .iter()
        .map(|(_, chunk)| 16 + chunk.len() * E::WIRE_BYTES)
        .sum();
    out.reserve(8 + len);
    put_u64(out, pairs.len() as u64);
    for (origin, chunk) in pairs {
        put_u64(out, *origin as u64);
        put_elems(out, chunk);
    }
}

fn take_pairs<E: Element>(bytes: &[u8]) -> Option<Vec<(usize, Vec<E>)>> {
    let n = usize::try_from(get_u64(bytes, 0)?).ok()?;
    // Every entry takes at least its two words.
    let mut v = Vec::with_capacity(n.min(bytes.len() / 16));
    let mut rest = bytes.get(8..)?;
    for _ in 0..n {
        let origin = usize::try_from(get_u64(rest, 0)?).ok()?;
        let (chunk, tail) = take_elems(rest.get(8..)?)?;
        v.push((origin, chunk));
        rest = tail;
    }
    rest.is_empty().then_some(v)
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

/// A pipeline element precision: it crosses a process boundary as a
/// scalar (the `Wire` supertrait), as a vector and inside the
/// recursive-doubling `(origin, chunk)` lists, under the schema ids named
/// here, so code generic over `E: WireElem` sends and receives all three.
pub trait WireElem: Element + Wire {
    /// Schema id of `Vec<Self>` — the bulk payload, which the fabric's
    /// bit-flip fault keys off.
    const VEC_WIRE_ID: u32;
    /// Schema id of a `Vec<(usize, Vec<Self>)>` list.
    const PAIRS_WIRE_ID: u32;
}

impl WireElem for f64 {
    const VEC_WIRE_ID: u32 = 7;
    const PAIRS_WIRE_ID: u32 = 12;
}

impl WireElem for f32 {
    const VEC_WIRE_ID: u32 = 16;
    const PAIRS_WIRE_ID: u32 = 17;
}

impl<E: WireElem> Wire for Vec<E> {
    const WIRE_ID: u32 = E::VEC_WIRE_ID;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_elems(out, self);
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        let (v, rest) = take_elems(bytes)?;
        rest.is_empty().then_some(v)
    }
}

// The recursive-doubling allgather exchanges (origin, chunk) lists.
impl<E: WireElem> Wire for Vec<(usize, Vec<E>)> {
    const WIRE_ID: u32 = E::PAIRS_WIRE_ID;

    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_pairs(out, self);
    }

    fn wire_decode(bytes: &[u8]) -> Option<Self> {
        take_pairs(bytes)
    }
}

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
    fn bulk_layout_is_a_count_then_little_endian_bit_patterns() {
        let v = vec![1.5f64, -0.0, f64::from_bits(0x7FF8_DEAD_BEEF_0001)];
        let mut want = 3u64.to_le_bytes().to_vec();
        for x in &v {
            want.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        assert_eq!(Packet::pack(&v).bytes, want);
        let w = vec![1.5f32, -0.0];
        let mut want = 2u64.to_le_bytes().to_vec();
        for x in &w {
            want.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        assert_eq!(Packet::pack(&w).bytes, want);
        let ids = vec![7usize, 0, usize::MAX];
        let mut want = 3u64.to_le_bytes().to_vec();
        for x in &ids {
            want.extend_from_slice(&(*x as u64).to_le_bytes());
        }
        assert_eq!(Packet::pack(&ids).bytes, want);
    }

    #[test]
    fn slice_packets_decode_straight_into_a_slice() {
        let v = vec![1.5f64, -2.25, f64::MIN_POSITIVE, -0.0];
        let p = Packet::from_slice(&v[..]);
        let q = Packet::pack(&v);
        assert_eq!((p.wire_id, &p.bytes), (q.wire_id, &q.bytes));
        let mut back = vec![0.0f64; v.len()];
        let elems = p.elements::<f64>().expect("intact");
        assert_eq!(elems.len(), v.len());
        for (d, x) in back.iter_mut().zip(elems) {
            *d = x;
        }
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let w = vec![3.5f32, -0.0, f32::MIN_POSITIVE];
        let p = Packet::from_slice(&w[..]);
        let back: Vec<f32> = p.elements().expect("intact").collect();
        assert_eq!(back, w);
        assert!(p.elements::<f64>().is_none(), "schema mismatch");
    }

    #[test]
    fn bulk_decoders_reject_damage_before_allocating() {
        let mut p = Packet::from_slice(&[1.0f64, 2.0][..]);
        p.bytes.push(0);
        assert!(p.elements::<f64>().is_none(), "trailing byte");
        p.bytes.truncate(20);
        assert!(p.elements::<f64>().is_none(), "cut short");
        // A count no buffer could hold is refused, not allocated for.
        let mut huge = u64::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 16]);
        assert!(take_elems::<f64>(&huge).is_none());
        assert!(Vec::<u64>::wire_decode(&huge).is_none());
        assert!(Vec::<(usize, Vec<f32>)>::wire_decode(&huge).is_none());
        let mut p = Packet::from_slice(&[1.0f64][..]);
        p.corrupt = true;
        assert!(p.elements::<f64>().is_none(), "corrupt flag");
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
