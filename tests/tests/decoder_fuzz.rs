//! Decoder fuzz: arbitrary bytes, every truncation and every bit flip of a
//! valid encoding, fed to the transport frame decoder
//! (`Frame::decode_tolerant`, which runs the transports' own stream reader
//! `Frame::read_from` over the buffer) and the checkpoint decoder
//! (`hpl_ckpt::decode`).
//!
//! Every input must end in a typed error or, for a frame whose damage lies
//! behind an intact header, a frame marked corrupt. None may panic, and
//! none may allocate more than its own length: a count or length read from
//! damaged bytes is never trusted with an allocation. The checkpoint
//! decoder allocates nothing at all unless the checksum passed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpl_ckpt::{decode, encode, ConfigId, Snapshot};
use hpl_comm::transport::frame::{Frame, FrameError, FrameKind, HEADER_LEN, MAGIC, VERSION};

thread_local! {
    /// Bytes requested from the allocator by this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the guarantees `System` does; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us, valid per its contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us, valid per its contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this allocator
        // and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes this thread allocated
/// while it ran.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let r = f();
    (r, ALLOCATED.with(Cell::get) - before)
}

/// A small deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn frames() -> Vec<Frame> {
    [0usize, 1, 7, 8, 33, 300, 5000]
        .into_iter()
        .map(|n| Frame {
            kind: FrameKind::Data,
            src: 2,
            dst: 5,
            tag: (9u64 << 48) | 77,
            wire_id: 7,
            payload: (0..n).map(|i| (i * 29 + 3) as u8).collect(),
        })
        .collect()
}

fn snapshots() -> Vec<Snapshot> {
    [(0u64, 0usize), (3, 2), (40, 12)]
        .into_iter()
        .map(|(mloc, nloc)| Snapshot {
            id: ConfigId {
                n: 64,
                nb: 8,
                p: 2,
                q: 2,
                seed: 42,
                schedule: 1,
                frac_bits: 0,
            },
            rank: 3,
            next_iter: 2,
            mloc,
            nloc: nloc as u64,
            data: (0..mloc as usize * nloc).map(|i| i as f64 - 0.5).collect(),
            pivots: (0..mloc).collect(),
            cursors: vec![1, 2, 3],
        })
        .collect()
}

/// What `decode_tolerant` may make of damaged bytes: a typed error or a
/// frame marked corrupt, never a frame that passed its checksum, and no
/// allocation beyond the input's length.
fn frame_rejects(buf: &[u8], what: &str) -> Result<(Frame, usize, bool), FrameError> {
    let (got, bytes) = allocated_by(|| Frame::decode_tolerant(buf));
    assert!(
        bytes <= buf.len(),
        "{what}: allocated {bytes} bytes for a {}-byte input",
        buf.len()
    );
    assert!(
        !matches!(got, Ok((_, _, true))),
        "{what}: damaged bytes passed the checksum"
    );
    got
}

/// What `hpl_ckpt::decode` must make of damaged bytes: a typed error, with
/// nothing allocated.
fn snapshot_rejects(buf: &[u8], what: &str) {
    let (got, bytes) = allocated_by(|| decode(buf));
    assert!(got.is_err(), "{what}: damaged bytes decoded");
    assert_eq!(bytes, 0, "{what}: allocated before the checksum passed");
}

#[test]
fn arbitrary_bytes_are_typed_errors_or_corrupt_frames() {
    let mut rng = Rng(0x5EED_F00D);
    for round in 0..4000 {
        let len = (rng.next() % 600) as usize;
        let mut buf = rng.bytes(len);
        // Half the inputs carry a valid frame (or snapshot) preamble, so
        // the decoders get past their magic and version checks.
        if round % 2 == 1 && len >= HEADER_LEN {
            buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
            buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
            buf[6] = (rng.next() % 3) as u8;
            if round % 4 == 1 {
                // A payload length that fits the input, so the body and
                // trailer are read.
                let n = (len - HEADER_LEN).saturating_sub(8) as u32;
                buf[28..32].copy_from_slice(&n.to_le_bytes());
            }
        }
        let _ = frame_rejects(&buf, &format!("arbitrary frame input {round}"));

        let mut buf = rng.bytes(len);
        if round % 2 == 1 && len >= 8 {
            buf[..8].copy_from_slice(&encode(&snapshots()[0])[..8]);
        }
        snapshot_rejects(&buf, &format!("arbitrary snapshot input {round}"));
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for f in frames() {
        let buf = f.encode();
        for cut in 0..buf.len() {
            let got = frame_rejects(&buf[..cut], &format!("frame cut at {cut}"));
            assert!(
                matches!(got, Err(FrameError::Truncated { .. })),
                "frame cut at {cut} of {}: {got:?}",
                buf.len()
            );
        }
    }
    for s in snapshots() {
        let buf = encode(&s);
        for cut in 0..buf.len() {
            snapshot_rejects(&buf[..cut], &format!("snapshot cut at {cut}"));
        }
    }
}

#[test]
fn every_bit_flip_is_a_typed_error_or_a_corrupt_frame() {
    for f in frames() {
        let buf = f.encode();
        for at in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[at] ^= 1 << bit;
                let what = format!("frame of {} bytes, bit {bit} of byte {at}", buf.len());
                let got = frame_rejects(&bad, &what);
                if at >= HEADER_LEN {
                    // Behind an intact header: delivered, marked corrupt.
                    let (frame, used, _) = got.expect(&what);
                    assert_eq!(used, buf.len(), "{what}");
                    assert_eq!(frame.payload.len(), f.payload.len(), "{what}");
                }
            }
        }
    }
    for s in snapshots() {
        let buf = encode(&s);
        for at in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[at] ^= 1 << bit;
                snapshot_rejects(&bad, &format!("snapshot bit {bit} of byte {at}"));
            }
        }
    }
}

#[test]
fn valid_encodings_decode_within_their_own_size() {
    for f in frames() {
        let buf = f.encode();
        let (got, bytes) = allocated_by(|| Frame::decode_tolerant(&buf));
        assert_eq!(got, Ok((f, buf.len(), true)));
        assert!(bytes <= buf.len());
    }
    for s in snapshots() {
        let buf = encode(&s);
        let (got, bytes) = allocated_by(|| decode(&buf));
        assert_eq!(got, Ok(s));
        assert!(bytes <= buf.len());
    }
}
