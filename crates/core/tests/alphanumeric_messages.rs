//! Mutation fuzzing of the alphanumeric protocol's message layouts
//! (`docs/WIRE_FORMAT.md` §6.5–§6.7): `MaskedStringsMsg`, `CcmBundleMsg`
//! and `CcmChunkMsg`, whose symbols and cells travel packed at
//! `b = ⌈log₂|A|⌉` bits.
//!
//! Valid messages over alphabets of 2, 4, 8 and 26 symbols (b = 1, 2, 3
//! and 5) are encoded, then truncated, bit-flipped, given a set padding
//! bit, or given count prefixes and length-vector elements that lie.
//! Whatever the bytes, decoding must not panic, every payload it accepts
//! must re-encode to the identical bytes, and what it allocates must be
//! bounded by the payload, whatever a prefix or a length claims: at most
//! `⌊8·len/b⌋` unpacked symbols, at most `len` bytes of packed CCM cells
//! (a bundle keeps its section packed), and `len/4` lengths.

mod mutate;

use proptest::prelude::*;

use ppc_core::protocol::alphanumeric::MaskedCcmBundle;
use ppc_core::protocol::messages::{CcmBundleMsg, CcmChunkMsg, MaskedStringsMsg};
use ppc_crypto::{Seed, SplitMix64, StreamRng};
use ppc_net::{packed_len, packed_width};

use mutate::{lie, name};

/// Alphabet sizes under test: widths 1, 2, 3 and 5 bits, the last one not
/// a power of two.
const ALPHABETS: [u32; 4] = [2, 4, 8, 26];

/// `len` symbols of `bits` bits. For a non-power-of-two alphabet some lie
/// outside it: the codec carries them, and only the receiving role
/// rejects them.
fn symbols(rng: &mut SplitMix64, len: usize, bits: u32) -> Vec<u32> {
    (0..len).map(|_| rng.next_below(1 << bits) as u32).collect()
}

fn lengths(rng: &mut SplitMix64, count: usize, max: u64) -> Vec<u32> {
    (0..count).map(|_| rng.next_below(max) as u32).collect()
}

/// The three layouts under test.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Strings,
    Bundle,
    Chunk,
}

const LAYOUTS: [Layout; 3] = [Layout::Strings, Layout::Bundle, Layout::Chunk];

/// A valid payload and where its parts lie.
struct Valid {
    payload: Vec<u8>,
    /// Offsets of every `u32` count prefix and length-vector element.
    prefixes: Vec<usize>,
    /// Values in the packed section that ends the payload.
    packed: usize,
}

/// Offsets of a `[u32]` vector's prefix and elements written at `at`.
fn vector_offsets(at: usize, len: usize) -> impl Iterator<Item = usize> {
    (0..=len).map(move |i| at + 4 * i)
}

/// A random bundle of `responder_count` rows over an alphabet of
/// `alphabet` symbols and the offsets of its two length vectors' prefixes
/// and elements, relative to the bundle's start.
fn bundle(
    rng: &mut SplitMix64,
    responder_count: usize,
    alphabet: u32,
) -> (MaskedCcmBundle, Vec<usize>) {
    let bits = packed_width(alphabet);
    let initiator_count = rng.next_below(4) as usize;
    let responder_lens = lengths(rng, responder_count, 5);
    let initiator_lens = lengths(rng, initiator_count, 5);
    let rows: u32 = responder_lens.iter().sum();
    let cols: u32 = initiator_lens.iter().sum();
    let cells = symbols(rng, (rows * cols) as usize, bits);
    let mut offsets: Vec<usize> = vector_offsets(0, responder_count).collect();
    offsets.extend(vector_offsets(4 + 4 * responder_count, initiator_count));
    let bundle = MaskedCcmBundle::new(responder_lens, initiator_lens, &cells, alphabet).unwrap();
    (bundle, offsets)
}

/// The cells a bundle holds, `Σ responder_lens · Σ initiator_lens`.
fn cells(bundle: &MaskedCcmBundle) -> usize {
    bundle.unpack_cells().len()
}

/// A valid payload of `layout` over an alphabet of `alphabet` symbols.
fn valid_payload(layout: Layout, alphabet: u32, rng: &mut SplitMix64) -> Valid {
    let bits = packed_width(alphabet);
    let attribute = name(rng);
    let header = 4 + attribute.len();
    match layout {
        Layout::Strings => {
            let count = rng.next_below(5) as usize;
            let lens = lengths(rng, count, 13);
            let strings: Vec<Vec<u32>> = lens
                .iter()
                .map(|&len| symbols(rng, len as usize, bits))
                .collect();
            let mut prefixes = vec![0];
            prefixes.extend(vector_offsets(header, count));
            let packed = lens.iter().sum::<u32>() as usize;
            let msg = MaskedStringsMsg { attribute, strings };
            Valid {
                payload: msg.encode(alphabet),
                prefixes,
                packed,
            }
        }
        Layout::Bundle => {
            let responder_count = rng.next_below(4) as usize;
            let (bundle, offsets) = bundle(rng, responder_count, alphabet);
            let mut prefixes = vec![0];
            prefixes.extend(offsets.iter().map(|at| header + at));
            let packed = cells(&bundle);
            let msg = CcmBundleMsg { attribute, bundle };
            Valid {
                payload: msg.encode(alphabet),
                prefixes,
                packed,
            }
        }
        Layout::Chunk => {
            let rows = rng.next_below(4) as usize;
            let (window, offsets) = bundle(rng, rows, alphabet);
            let start_row = rng.next_below(3) as u32;
            let total_rows = start_row + rows as u32 + rng.next_below(3) as u32;
            // start_row, total_rows, then the bundle.
            let mut prefixes = vec![0, header, header + 4];
            prefixes.extend(offsets.iter().map(|at| header + 8 + at));
            let packed = cells(&window);
            let msg = CcmChunkMsg {
                attribute,
                start_row,
                total_rows,
                window,
            };
            Valid {
                payload: msg.encode(alphabet),
                prefixes,
                packed,
            }
        }
    }
}

/// What an accepted decode allocated: unpacked symbols, packed cell
/// bytes, and lengths.
struct Allocated {
    values: usize,
    bytes: usize,
    lengths: usize,
}

/// Decodes `payload` as `layout` over an alphabet of `alphabet` symbols.
/// If it is accepted, checks that it re-encodes to the same bytes and
/// returns what the decode allocated.
fn decode(layout: Layout, alphabet: u32, payload: &[u8]) -> Option<Allocated> {
    match layout {
        Layout::Strings => {
            let msg = MaskedStringsMsg::decode(payload, alphabet).ok()?;
            assert_eq!(
                msg.encode(alphabet),
                payload,
                "re-encoding changed the bytes"
            );
            Some(Allocated {
                values: msg.strings.iter().map(Vec::capacity).sum(),
                bytes: 0,
                lengths: msg.strings.capacity(),
            })
        }
        Layout::Bundle => {
            let msg = CcmBundleMsg::decode(payload, alphabet).ok()?;
            assert_eq!(
                msg.encode(alphabet),
                payload,
                "re-encoding changed the bytes"
            );
            let bundle = msg.bundle;
            let lengths = bundle.responder_count() + bundle.initiator_count();
            Some(Allocated {
                values: 0,
                bytes: bundle.packed().len(),
                lengths,
            })
        }
        Layout::Chunk => {
            let msg = CcmChunkMsg::decode(payload, alphabet).ok()?;
            assert_eq!(
                msg.encode(alphabet),
                payload,
                "re-encoding changed the bytes"
            );
            let window = msg.window;
            let lengths = window.responder_count() + window.initiator_count();
            Some(Allocated {
                values: 0,
                bytes: window.packed().len(),
                lengths,
            })
        }
    }
}

/// Runs [`decode`] and checks the allocation bound on what it accepts.
fn check(layout: Layout, alphabet: u32, payload: &[u8]) -> bool {
    let bits = packed_width(alphabet) as usize;
    match decode(layout, alphabet, payload) {
        Some(allocated) => {
            assert!(
                allocated.values <= 8 * payload.len() / bits,
                "{layout:?}: {} values of {bits} bits allocated for {} payload bytes",
                allocated.values,
                payload.len()
            );
            assert!(
                allocated.bytes <= payload.len(),
                "{layout:?}: {} packed bytes kept for {} payload bytes",
                allocated.bytes,
                payload.len()
            );
            assert!(
                allocated.lengths <= payload.len() / 4,
                "{layout:?}: {} lengths allocated for {} payload bytes",
                allocated.lengths,
                payload.len()
            );
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
        layout in 0usize..3,
        alphabet in 0usize..4,
    ) {
        let (layout, alphabet) = (LAYOUTS[layout], ALPHABETS[alphabet]);
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let valid = valid_payload(layout, alphabet, &mut rng);
        let payload = valid.payload;
        prop_assert!(check(layout, alphabet, &payload), "{:?} rejected a valid payload", layout);
        for cut in 0..payload.len() {
            prop_assert!(
                !check(layout, alphabet, &payload[..cut]),
                "{:?} accepted a {}-byte prefix", layout, cut
            );
        }
    }

    /// Flipping bits anywhere never panics, and what still decodes, at the
    /// sender's width or any other, re-encodes to the flipped bytes.
    #[test]
    fn bit_flips_never_panic_or_misencode(
        master in any::<u64>(),
        layout in 0usize..3,
        alphabet in 0usize..4,
        flips in prop::collection::vec(any::<u32>(), 1..4),
    ) {
        let (layout, alphabet) = (LAYOUTS[layout], ALPHABETS[alphabet]);
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let mut payload = valid_payload(layout, alphabet, &mut rng).payload;
        for flip in flips {
            let bit = flip as usize % (payload.len() * 8);
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        for alphabet in ALPHABETS {
            check(layout, alphabet, &payload);
        }
    }

    /// Setting any padding bit of the packed section is rejected.
    #[test]
    fn set_padding_bits_are_rejected(
        master in any::<u64>(),
        layout in 0usize..3,
        alphabet in 0usize..4,
        pick in any::<u32>(),
    ) {
        let (layout, alphabet) = (LAYOUTS[layout], ALPHABETS[alphabet]);
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let Valid { mut payload, packed, .. } = valid_payload(layout, alphabet, &mut rng);
        let bits = packed_width(alphabet) as usize;
        let padding = 8 * packed_len(packed, bits as u32) - packed * bits;
        if padding == 0 {
            return Ok(());
        }
        // The padding is the high `padding` bits of the last byte.
        let bit = 8 - padding + pick as usize % padding;
        *payload.last_mut().unwrap() |= 1 << bit;
        prop_assert!(!check(layout, alphabet, &payload), "{:?} accepted padding bit {}", layout, bit);
    }

    /// A count prefix or length-vector element that lies — off by one,
    /// zero, or far more than the payload holds — never panics and never
    /// sizes a buffer.
    #[test]
    fn lying_prefixes_and_lengths_never_panic_or_overallocate(
        master in any::<u64>(),
        layout in 0usize..3,
        alphabet in 0usize..4,
        which in any::<u32>(),
    ) {
        let (layout, alphabet) = (LAYOUTS[layout], ALPHABETS[alphabet]);
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let Valid { mut payload, prefixes, .. } = valid_payload(layout, alphabet, &mut rng);
        let at = prefixes[which as usize % prefixes.len()];
        let truth = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let claimed = lie(&mut rng, truth);
        payload[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        check(layout, alphabet, &payload);
    }
}
