//! Mutation fuzzing of the other session message layouts
//! (`docs/WIRE_FORMAT.md` §6.1–§6.4 and §6.8–§6.10): `LocalMatrixMsg`,
//! `MaskedNumericMsg`, `PairwiseMatrixMsg`, `PairwiseChunkMsg`,
//! `EncryptedColumnMsg`, `ClusteringChoiceMsg` and `PublishedResultMsg`.
//! The alphanumeric layouts (§6.5–§6.7) have their own file,
//! `alphanumeric_messages.rs`.
//!
//! Valid messages are encoded, then truncated, bit-flipped, or given count
//! and dimension fields that lie. Whatever the bytes, decoding must not
//! panic, every payload it accepts must re-encode to the identical bytes,
//! and the elements it allocates must be bounded by the payload: at most
//! `len / size` of them, where `size` is the fewest bytes one element
//! takes on the wire.

mod mutate;

use proptest::prelude::*;

use ppc_core::pairwise::PairwiseBlock;
use ppc_core::protocol::messages::{
    ClusteringChoiceMsg, EncryptedColumnMsg, LocalMatrixMsg, MaskedNumericMsg, PairwiseChunkMsg,
    PairwiseMatrixMsg, PublishedResultMsg,
};
use ppc_crypto::{Seed, SplitMix64, StreamRng};

use mutate::{lie, name};

fn floats(rng: &mut SplitMix64, len: usize) -> Vec<f64> {
    (0..len).map(|_| f64::from_bits(rng.next_u64())).collect()
}

fn ints(rng: &mut SplitMix64, len: usize) -> Vec<i64> {
    (0..len).map(|_| rng.next_u64() as i64).collect()
}

/// The layouts under test.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Local,
    MaskedNumeric,
    PairwiseMatrix,
    PairwiseChunk,
    EncryptedColumn,
    ClusteringChoice,
    PublishedResult,
}

const LAYOUTS: [Layout; 7] = [
    Layout::Local,
    Layout::MaskedNumeric,
    Layout::PairwiseMatrix,
    Layout::PairwiseChunk,
    Layout::EncryptedColumn,
    Layout::ClusteringChoice,
    Layout::PublishedResult,
];

/// A random `rows × cols` block.
fn block(rng: &mut SplitMix64) -> PairwiseBlock<i64> {
    let (rows, cols) = (rng.next_below(4) as usize, rng.next_below(4) as usize);
    PairwiseBlock::new(rows, cols, ints(rng, rows * cols)).unwrap()
}

/// A valid payload of `layout` and the offsets of every `u32` count,
/// length or dimension field in it.
fn valid_payload(layout: Layout, rng: &mut SplitMix64) -> (Vec<u8>, Vec<usize>) {
    let attribute = name(rng);
    // Fields after the attribute start here.
    let h = 4 + attribute.len();
    match layout {
        Layout::Local => {
            let objects = rng.next_below(5) as u32;
            let len = (objects * objects.saturating_sub(1) / 2) as usize;
            let msg = LocalMatrixMsg {
                attribute,
                objects,
                condensed: floats(rng, len),
            };
            (msg.encode(), vec![0, h, h + 4])
        }
        Layout::MaskedNumeric => {
            let msg = MaskedNumericMsg {
                attribute,
                block: block(rng),
            };
            (msg.encode(), vec![0, h, h + 4, h + 8])
        }
        Layout::PairwiseMatrix => {
            let msg = PairwiseMatrixMsg {
                attribute,
                block: block(rng),
            };
            (msg.encode(), vec![0, h, h + 4, h + 8])
        }
        Layout::PairwiseChunk => {
            let (rows, cols) = (rng.next_below(4) as u32, rng.next_below(4) as u32);
            let start_row = rng.next_below(3) as u32;
            let msg = PairwiseChunkMsg {
                attribute,
                start_row,
                rows,
                total_rows: start_row + rows + rng.next_below(3) as u32,
                cols,
                values: ints(rng, (rows * cols) as usize),
            };
            (msg.encode(), vec![0, h, h + 4, h + 8, h + 12, h + 16])
        }
        Layout::EncryptedColumn => {
            let count = rng.next_below(4) as usize;
            let tags = (0..count)
                .map(|_| std::array::from_fn(|_| rng.next_below(256) as u8))
                .collect();
            let mut prefixes = vec![0, h];
            prefixes.extend((0..count).map(|i| h + 4 + 20 * i));
            (EncryptedColumnMsg { attribute, tags }.encode(), prefixes)
        }
        Layout::ClusteringChoice => {
            let count = rng.next_below(4) as usize;
            let weights = floats(rng, count);
            let at = 4 + 8 * weights.len();
            let msg = ClusteringChoiceMsg {
                weights,
                num_clusters: rng.next_below(9) as u32,
                linkage: attribute,
            };
            (msg.encode(), vec![0, at, at + 4])
        }
        Layout::PublishedResult => {
            let clusters: Vec<Vec<(u32, u32)>> = (0..rng.next_below(4))
                .map(|_| {
                    (0..rng.next_below(4))
                        .map(|_| (rng.next_below(4) as u32, rng.next_below(64) as u32))
                        .collect()
                })
                .collect();
            let mut prefixes = vec![0];
            let mut at = 4;
            for cluster in &clusters {
                prefixes.push(at);
                at += 4 + 8 * cluster.len();
            }
            let msg = PublishedResultMsg {
                clusters,
                average_within_cluster_squared_distance: f64::from_bits(rng.next_u64()),
            };
            (msg.encode(), prefixes)
        }
    }
}

/// Decodes `payload` as `layout`. If it is accepted, checks that it
/// re-encodes to the same bytes and returns `(elements, size)`: how many
/// elements the decode allocated, and the fewest bytes one takes on the
/// wire.
fn decode(layout: Layout, payload: &[u8]) -> Option<Vec<(usize, usize)>> {
    macro_rules! roundtrip {
        ($msg:ty) => {{
            let msg = <$msg>::decode(payload).ok()?;
            assert_eq!(msg.encode(), payload, "re-encoding changed the bytes");
            msg
        }};
    }
    Some(match layout {
        Layout::Local => {
            let msg = roundtrip!(LocalMatrixMsg);
            vec![(msg.condensed.capacity(), 8)]
        }
        Layout::MaskedNumeric => vec![(roundtrip!(MaskedNumericMsg).block.values().len(), 8)],
        Layout::PairwiseMatrix => vec![(roundtrip!(PairwiseMatrixMsg).block.values().len(), 8)],
        Layout::PairwiseChunk => vec![(roundtrip!(PairwiseChunkMsg).values.capacity(), 8)],
        Layout::EncryptedColumn => vec![(roundtrip!(EncryptedColumnMsg).tags.capacity(), 20)],
        Layout::ClusteringChoice => vec![(roundtrip!(ClusteringChoiceMsg).weights.capacity(), 8)],
        Layout::PublishedResult => {
            let msg = roundtrip!(PublishedResultMsg);
            let members = msg.clusters.iter().map(Vec::capacity).sum();
            vec![(msg.clusters.capacity(), 4), (members, 8)]
        }
    })
}

/// Runs [`decode`] and checks the allocation bound on what it accepts.
fn check(layout: Layout, payload: &[u8]) -> bool {
    match decode(layout, payload) {
        Some(allocations) => {
            for (elements, size) in allocations {
                assert!(
                    elements <= payload.len() / size,
                    "{layout:?}: {elements} elements of at least {size} bytes allocated for {} \
                     payload bytes",
                    payload.len()
                );
            }
            true
        }
        None => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid payloads decode, and every strict prefix of one is rejected.
    #[test]
    fn valid_payloads_roundtrip_and_truncations_are_rejected(
        master in any::<u64>(),
        layout in 0usize..7,
    ) {
        let layout = LAYOUTS[layout];
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let (payload, _) = valid_payload(layout, &mut rng);
        prop_assert!(check(layout, &payload), "{:?} rejected a valid payload", layout);
        for cut in 0..payload.len() {
            prop_assert!(!check(layout, &payload[..cut]), "{:?} accepted a {}-byte prefix", layout, cut);
        }
    }

    /// Flipping bits anywhere never panics, and what still decodes
    /// re-encodes to the flipped bytes.
    #[test]
    fn bit_flips_never_panic_or_misencode(
        master in any::<u64>(),
        layout in 0usize..7,
        flips in prop::collection::vec(any::<u32>(), 1..4),
    ) {
        let layout = LAYOUTS[layout];
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let (mut payload, _) = valid_payload(layout, &mut rng);
        for flip in flips {
            let bit = flip as usize % (payload.len() * 8);
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        check(layout, &payload);
    }

    /// A count, length or dimension field that lies — off by one, zero, or
    /// far more than the payload holds — never panics and never sizes a
    /// buffer.
    #[test]
    fn lying_fields_never_panic_or_overallocate(
        master in any::<u64>(),
        layout in 0usize..7,
        which in any::<u32>(),
    ) {
        let layout = LAYOUTS[layout];
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let (mut payload, fields) = valid_payload(layout, &mut rng);
        let at = fields[which as usize % fields.len()];
        let truth = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let claimed = lie(&mut rng, truth);
        payload[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        check(layout, &payload);
    }
}
