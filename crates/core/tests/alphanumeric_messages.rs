//! Mutation fuzzing of the alphanumeric protocol's message layouts
//! (`docs/WIRE_FORMAT.md` §6.5–§6.7): `MaskedStringsMsg`, `CcmBundleMsg`
//! and `CcmChunkMsg`.
//!
//! Valid messages are encoded, then truncated, bit-flipped, or given count
//! and length prefixes that lie. Whatever the bytes, decoding must not
//! panic, every payload it accepts must re-encode to the identical bytes,
//! and the symbol or cell buffers it allocates must fit in a quarter of the
//! payload, whatever a prefix claims.

use proptest::prelude::*;

use ppc_core::protocol::alphanumeric::MaskedCcmBundle;
use ppc_core::protocol::messages::{CcmBundleMsg, CcmChunkMsg, MaskedStringsMsg};
use ppc_crypto::{Seed, SplitMix64, StreamRng};

/// Values a lying prefix takes: off by one from the truth, zero, and
/// counts no payload could back.
fn lie(rng: &mut SplitMix64, truth: u32) -> u32 {
    match rng.next_below(6) {
        0 => truth.wrapping_add(1),
        1 => truth.wrapping_sub(1),
        2 => 0,
        3 => u32::MAX,
        4 => 0x4000_0000,
        _ => rng.next_u64() as u32,
    }
}

fn attribute(rng: &mut SplitMix64) -> String {
    let len = rng.next_below(6) as usize;
    (0..len)
        .map(|_| char::from(b'a' + rng.next_below(26) as u8))
        .collect()
}

fn symbols(rng: &mut SplitMix64, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.next_below(8) as u32).collect()
}

/// A random bundle and the payload offsets of its matrices' `u32` headers
/// (`responder_len`, `initiator_len`, cell count), relative to `ccm_count`.
fn bundle(rng: &mut SplitMix64, responder_count: usize) -> (MaskedCcmBundle, Vec<usize>) {
    let initiator_count = rng.next_below(4) as usize;
    let mut shapes = Vec::new();
    let mut cells = Vec::new();
    let mut prefixes = vec![0];
    let mut at = 4;
    for _ in 0..responder_count * initiator_count {
        let (rows, cols) = (rng.next_below(5) as u32, rng.next_below(5) as u32);
        shapes.push((rows, cols));
        cells.extend(symbols(rng, (rows * cols) as usize));
        prefixes.extend([at, at + 4, at + 8]);
        at += 12 + 4 * (rows * cols) as usize;
    }
    let bundle = MaskedCcmBundle::new(responder_count, initiator_count, shapes, cells).unwrap();
    (bundle, prefixes)
}

/// The three layouts under test.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Strings,
    Bundle,
    Chunk,
}

const LAYOUTS: [Layout; 3] = [Layout::Strings, Layout::Bundle, Layout::Chunk];

/// A valid payload of `layout` and the offsets of every count and length
/// prefix in it.
fn valid_payload(layout: Layout, rng: &mut SplitMix64) -> (Vec<u8>, Vec<usize>) {
    let attribute = attribute(rng);
    let header = 4 + attribute.len();
    match layout {
        Layout::Strings => {
            let count = rng.next_below(5) as usize;
            let strings: Vec<Vec<u32>> = (0..count)
                .map(|_| {
                    let len = rng.next_below(9) as usize;
                    symbols(rng, len)
                })
                .collect();
            let mut prefixes = vec![0, header];
            let mut at = header + 4;
            for s in &strings {
                prefixes.push(at);
                at += 4 + 4 * s.len();
            }
            let msg = MaskedStringsMsg { attribute, strings };
            (msg.encode(), prefixes)
        }
        Layout::Bundle => {
            let responder_count = rng.next_below(4) as usize;
            let (bundle, ccm_prefixes) = bundle(rng, responder_count);
            // responder_count, initiator_count, then the matrices.
            let mut prefixes = vec![0, header, header + 4];
            prefixes.extend(ccm_prefixes.iter().map(|p| header + 8 + p));
            let msg = CcmBundleMsg { attribute, bundle };
            (msg.encode(), prefixes)
        }
        Layout::Chunk => {
            let rows = rng.next_below(4) as usize;
            let (window, ccm_prefixes) = bundle(rng, rows);
            let start_row = rng.next_below(3) as u32;
            let total_rows = start_row + rows as u32 + rng.next_below(3) as u32;
            // start_row, rows, total_rows, initiator_count, then the
            // matrices.
            let mut prefixes = vec![0, header, header + 4, header + 8, header + 12];
            prefixes.extend(ccm_prefixes.iter().map(|p| header + 16 + p));
            let msg = CcmChunkMsg {
                attribute,
                start_row,
                total_rows,
                window,
            };
            (msg.encode(), prefixes)
        }
    }
}

/// Decodes `payload` as `layout`. If it is accepted, checks that it
/// re-encodes to the same bytes and returns the capacity, in elements, of
/// the symbol or cell buffers the decode allocated.
fn decode(layout: Layout, payload: &[u8]) -> Option<usize> {
    match layout {
        Layout::Strings => {
            let msg = MaskedStringsMsg::decode(payload).ok()?;
            assert_eq!(msg.encode(), payload, "re-encoding changed the bytes");
            Some(msg.strings.iter().map(Vec::capacity).sum())
        }
        Layout::Bundle => {
            let msg = CcmBundleMsg::decode(payload).ok()?;
            assert_eq!(msg.encode(), payload, "re-encoding changed the bytes");
            Some(msg.bundle.into_cells().capacity())
        }
        Layout::Chunk => {
            let msg = CcmChunkMsg::decode(payload).ok()?;
            assert_eq!(msg.encode(), payload, "re-encoding changed the bytes");
            Some(msg.window.into_cells().capacity())
        }
    }
}

/// Runs [`decode`] and checks the allocation bound on what it accepts.
fn check(layout: Layout, payload: &[u8]) -> bool {
    match decode(layout, payload) {
        Some(capacity) => {
            assert!(
                capacity <= payload.len() / 4,
                "{layout:?}: {capacity} elements allocated for {} payload bytes",
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
        layout in 0usize..3,
        flips in prop::collection::vec(any::<u32>(), 1..4),
    ) {
        let layout = LAYOUTS[layout];
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let (mut payload, _) = valid_payload(layout, &mut rng);
        if payload.is_empty() {
            return Ok(());
        }
        for flip in flips {
            let bit = flip as usize % (payload.len() * 8);
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        check(layout, &payload);
    }

    /// A count or length prefix that lies — off by one, zero, or far more
    /// than the payload holds — never panics and never sizes a buffer.
    #[test]
    fn lying_prefixes_never_panic_or_overallocate(
        master in any::<u64>(),
        layout in 0usize..3,
        which in any::<u32>(),
    ) {
        let layout = LAYOUTS[layout];
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let (mut payload, prefixes) = valid_payload(layout, &mut rng);
        let at = prefixes[which as usize % prefixes.len()];
        let truth = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let claimed = lie(&mut rng, truth);
        payload[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        check(layout, &payload);
    }
}
