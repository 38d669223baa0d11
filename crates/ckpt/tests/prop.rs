//! Property coverage for the snapshot codec: arbitrary grid shapes and
//! mid-panel iteration counts round-trip bitwise, and corruption anywhere
//! in the stream is detected. For every snapshot with up to 300 bytes of
//! variable-length fields, exhaustively, every single-bit flip and every
//! replacement of one 8-byte word is rejected: the trailer's checksum
//! detects any change confined to one word with certainty.

use hpl_ckpt::{decode, encode, CkptStore, ConfigId, Snapshot};
use proptest::prelude::*;

/// Wide (but overflow-safe) `u64` source for seeds and raw f64 bit patterns.
const WIDE: std::ops::RangeInclusive<u64> = 0..=(1u64 << 62);

/// An arbitrary snapshot: grid shape, boundary iteration and payload sizes
/// all vary; data values include negatives, zeros and huge magnitudes.
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        (1u64..=512, 1u64..=64, 1u64..=4, 1u64..=4),
        (WIDE, 0u64..=2, 0u64..=64, 0u64..=15),
        (0usize..=40, 0usize..=12),
    )
        .prop_flat_map(|(shape, run, (mloc, nloc))| {
            let len = mloc * nloc;
            (
                Just(shape),
                Just(run),
                Just((mloc, nloc)),
                collection::vec(WIDE, len..=len),
                collection::vec(WIDE, 0..=96),
                collection::vec(WIDE, 0..=8),
            )
        })
        .prop_map(
            |(
                (n, nb, p, q),
                (seed, schedule, next_iter, rank),
                (mloc, nloc),
                bits,
                pivots,
                cursors,
            )| {
                Snapshot {
                    id: ConfigId {
                        n,
                        nb,
                        p,
                        q,
                        seed,
                        schedule,
                        frac_bits: if schedule == 2 { 0.5f64.to_bits() } else { 0 },
                    },
                    rank,
                    next_iter,
                    mloc: mloc as u64,
                    nloc: nloc as u64,
                    // Reinterpret raw bits so subnormals and signed zeros
                    // appear; NaN is unreachable in this bit range.
                    data: bits.into_iter().map(f64::from_bits).collect(),
                    pivots,
                    cursors,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_round_trips(snap in arb_snapshot()) {
        let bytes = encode(&snap);
        let back = decode(&bytes).expect("well-formed snapshot must decode");
        prop_assert_eq!(&back, &snap);
        // Bitwise: signed zeros and subnormals survive exactly.
        for (a, b) in back.data.iter().zip(snap.data.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corruption_is_detected(snap in arb_snapshot(), pos in 0usize..=(1 << 20), bit in 0u8..=7) {
        let mut bytes = encode(&snap);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        prop_assert!(decode(&bytes).is_err(), "flipped byte {} accepted", pos);
    }

    #[test]
    fn truncation_is_detected(snap in arb_snapshot(), cut in 0usize..=(1 << 20)) {
        let bytes = encode(&snap);
        let cut = cut % bytes.len();
        prop_assert!(decode(&bytes[..cut]).is_err(), "cut at {} accepted", cut);
    }

    #[test]
    fn store_round_trip_recovers_the_deposit(snap in arb_snapshot(), nranks in 1usize..=4) {
        let store = CkptStore::mem(nranks);
        let rank = (snap.rank as usize) % nranks;
        let gen = snap.next_iter;
        for r in 0..nranks {
            let mut s = snap.clone();
            s.rank = r as u64;
            store.deposit(gen, r, encode(&s)).expect("deposit");
        }
        prop_assert_eq!(store.latest_complete(), Some(gen));
        let back = decode(&store.load(gen, rank).expect("load")).expect("decode");
        prop_assert_eq!(back.rank, rank as u64);
        prop_assert_eq!(&back.data, &snap.data);
        prop_assert_eq!(&back.pivots, &snap.pivots);
    }
}

/// Snapshots whose variable-length fields hold `words` words in total
/// (0..=37 words: up to 296 bytes), spread over data, pivots and cursors.
fn small_snapshots() -> impl Iterator<Item = Snapshot> {
    (0u64..=37).map(|words| {
        let nd = words / 2;
        let np = (words - nd) / 2;
        let nc = words - nd - np;
        Snapshot {
            id: ConfigId {
                n: 96,
                nb: 8,
                p: 2,
                q: 1,
                seed: 7 + words,
                schedule: 1,
                frac_bits: 0,
            },
            rank: 1,
            next_iter: words,
            mloc: nd,
            nloc: 1,
            data: (0..nd).map(|i| i as f64 * -1.25).collect(),
            pivots: (0..np).map(|i| i * 3 + 1).collect(),
            cursors: (0..nc).map(|i| i << 40).collect(),
        }
    })
}

#[test]
#[cfg_attr(
    miri,
    ignore = "exhaustive loop over safe code: nothing for Miri to find"
)]
fn every_bit_flip_of_every_small_snapshot_is_rejected() {
    for snap in small_snapshots() {
        let bytes = encode(&snap);
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "{} bytes: bit {bit} of byte {at} flipped yet the snapshot decoded",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "exhaustive loop over safe code: nothing for Miri to find"
)]
fn every_word_replacement_of_every_small_snapshot_is_rejected() {
    for snap in small_snapshots() {
        let bytes = encode(&snap);
        for at in (0..bytes.len()).step_by(8) {
            let old = &bytes[at..at + 8];
            let news: [[u8; 8]; 3] = [
                (!u64::from_le_bytes(old.try_into().expect("8 bytes"))).to_le_bytes(),
                [0; 8],
                ((at as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes(),
            ];
            for new in news.iter().filter(|new| new.as_slice() != old) {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(new);
                assert!(
                    decode(&bad).is_err(),
                    "{} bytes: word at {at} replaced by {new:02x?} yet the snapshot decoded",
                    bytes.len()
                );
            }
        }
    }
}
