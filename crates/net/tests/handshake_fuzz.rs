//! Fuzzing of the socket handshake (`docs/WIRE_FORMAT.md` §3): the hello
//! (`exchange_hello`) and the resume exchange (`exchange_resume`), driven
//! over `memory_duplex()` against the bytes a peer might send — valid
//! hellos, mutated hellos (a flipped bit, a cut, a lying party count, a
//! wrong magic, version or mode, trailing bytes) and arbitrary bytes.
//! Whatever the bytes:
//! * neither stage panics;
//! * the hello reads exactly the peer's hello and nothing after it, and
//!   keeps at most one party per five bytes it read, so what it allocates
//!   is bounded by its input;
//! * a valid hello, and a resume count, decode to exactly what the peer
//!   encoded.

use std::collections::BTreeSet;
use std::io::{Read, Write};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use ppc_net::socket::{exchange_hello, exchange_resume, HELLO_MAGIC, WIRE_VERSION};
use ppc_net::{memory_duplex, NetError, PartyId, SecurityMode};

/// Bytes of a hello before its parties: magic, version, mode, endpoint id
/// and the party count.
const HEADER: usize = 15;

const MODES: [SecurityMode; 3] = [
    SecurityMode::Plaintext,
    SecurityMode::SealedPsk,
    SecurityMode::Transparent,
];

fn parties_from(codes: &[u32]) -> BTreeSet<PartyId> {
    codes
        .iter()
        .map(|&code| {
            if code.is_multiple_of(5) {
                PartyId::ThirdParty
            } else {
                PartyId::DataHolder(code)
            }
        })
        .collect()
}

/// The hello an endpoint writes, taken off the wire: the endpoint's
/// `exchange_hello` writes it, then fails to read a reply nobody sent.
fn hello_bytes(endpoint: u64, parties: &BTreeSet<PartyId>, mode: SecurityMode) -> Vec<u8> {
    let (mut ours, mut wire) = memory_duplex();
    assert!(exchange_hello(&mut ours, endpoint, parties, mode).is_err());
    let mut bytes = vec![0u8; wire.pending()];
    wire.read_exact(&mut bytes).unwrap();
    bytes
}

/// Runs a transparent endpoint's `exchange_hello` against a peer that
/// sent `peer_bytes`. Returns the outcome and how many of the bytes it
/// read.
fn hello_against(peer_bytes: &[u8]) -> (Result<(u64, BTreeSet<PartyId>), NetError>, usize) {
    let (mut ours, mut peer) = memory_duplex();
    peer.write_all(peer_bytes).unwrap();
    let outcome = exchange_hello(&mut ours, 1, &BTreeSet::new(), SecurityMode::Transparent);
    (outcome, peer_bytes.len() - ours.pending())
}

/// The bounds every outcome keeps, whatever the input.
fn check_bounds(
    input: &[u8],
    outcome: &Result<(u64, BTreeSet<PartyId>), NetError>,
    read: usize,
) -> Result<(), TestCaseError> {
    prop_assert!(read <= input.len());
    if let Ok((_, parties)) = outcome {
        let announced = input[HEADER - 1] as usize;
        prop_assert_eq!(read, HEADER + 5 * announced, "reads exactly one hello");
        prop_assert!(parties.len() <= announced);
        prop_assert!(HEADER + 5 * parties.len() <= input.len());
        prop_assert_eq!(&input[..4], &HELLO_MAGIC[..]);
        prop_assert_eq!(input[4], WIRE_VERSION);
    }
    Ok(())
}

/// Applies mutation `kind` to a (possibly already mutated) non-empty
/// hello.
fn mutate(hello: &mut Vec<u8>, kind: u32, value: u32) {
    let at = value as usize % hello.len();
    let other = 1 + (value >> 8) as u8 % 255;
    let len = hello.len();
    match kind {
        // A flipped bit anywhere.
        0 => hello[at] ^= 1 << (value % 8),
        // Cut short.
        1 => hello.truncate(at),
        // The party count lies.
        2 if len >= HEADER => hello[HEADER - 1] = (value >> 8) as u8,
        // A wrong magic byte, version or mode.
        3 if len >= 4 => hello[at % 4] = hello[at % 4].wrapping_add(other),
        4 if len > 4 => hello[4] = hello[4].wrapping_add(other),
        5 if len > 5 => hello[5] = (value >> 8) as u8,
        // An unknown party tag.
        6 if len > HEADER => hello[HEADER] = 2 + (value >> 8) as u8 % 254,
        // Trailing bytes, which belong to the next stage.
        _ => hello.extend(std::iter::repeat_n(0xA5, 1 + value as usize % 9)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid hello decodes to exactly the endpoint id and party set
    /// announced, reading the hello and nothing after it.
    #[test]
    fn valid_hellos_decode_to_what_was_announced(
        endpoint in any::<u64>(),
        codes in prop::collection::vec(any::<u32>(), 0..40),
        mode in 0usize..3,
        trailing in prop::collection::vec(any::<u8>(), 0..20),
    ) {
        let parties = parties_from(&codes);
        let mut input = hello_bytes(endpoint, &parties, MODES[mode]);
        prop_assert_eq!(input.len(), HEADER + 5 * parties.len());
        input.extend_from_slice(&trailing);
        let (outcome, read) = hello_against(&input);
        check_bounds(&input, &outcome, read)?;
        prop_assert_eq!(outcome.unwrap(), (endpoint, parties));
        prop_assert_eq!(read, input.len() - trailing.len());
    }

    /// Mutated hellos never panic and stay within the bounds; a whole
    /// header with a wrong magic or version is always refused as such.
    #[test]
    fn mutated_hellos_never_panic_and_stay_in_bounds(
        endpoint in any::<u64>(),
        codes in prop::collection::vec(any::<u32>(), 0..12),
        mode in 0usize..3,
        kinds in prop::collection::vec(0u32..8, 1..4),
        values in prop::collection::vec(any::<u32>(), 1..4),
    ) {
        let mut input = hello_bytes(endpoint, &parties_from(&codes), MODES[mode]);
        for (i, &kind) in kinds.iter().enumerate() {
            if input.is_empty() {
                break;
            }
            mutate(&mut input, kind, values[i % values.len()]);
        }
        let (outcome, read) = hello_against(&input);
        check_bounds(&input, &outcome, read)?;
        if input.len() >= HEADER && (input[..4] != HELLO_MAGIC || input[4] != WIRE_VERSION) {
            prop_assert!(matches!(outcome, Err(NetError::Decode(_))));
        }
    }

    /// Arbitrary bytes, with and without a valid header in front (so the
    /// party parser sees them too), never panic and stay within the
    /// bounds.
    #[test]
    fn arbitrary_bytes_never_panic_and_stay_in_bounds(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        count in any::<u8>(),
        framed in any::<bool>(),
    ) {
        let mut input = Vec::new();
        if framed {
            input.extend_from_slice(&HELLO_MAGIC);
            input.push(WIRE_VERSION);
            input.push(SecurityMode::Plaintext.to_wire());
            input.extend_from_slice(&7u64.to_le_bytes());
            input.push(count);
        }
        input.extend_from_slice(&bytes);
        let (outcome, read) = hello_against(&input);
        check_bounds(&input, &outcome, read)?;
    }

    /// The resume exchange reads exactly the peer's eight-byte count:
    /// what one side announces the other decodes, and fewer bytes fail
    /// without a panic.
    #[test]
    fn resume_counts_roundtrip_and_short_reads_fail(
        count in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let (mut ours, mut peer) = memory_duplex();
        // The peer announces its count, then finds no reply yet.
        prop_assert!(exchange_resume(&mut peer, count).is_err());
        prop_assert_eq!(exchange_resume(&mut ours, 3).unwrap(), count);
        prop_assert_eq!(peer.pending(), 8, "ours announced its own count");

        let (mut ours, mut peer) = memory_duplex();
        peer.write_all(&bytes).unwrap();
        match exchange_resume(&mut ours, 3) {
            Ok(got) => {
                prop_assert!(bytes.len() >= 8);
                prop_assert_eq!(got, u64::from_le_bytes(bytes[..8].try_into().unwrap()));
                prop_assert_eq!(ours.pending(), bytes.len() - 8);
            }
            Err(e) => {
                prop_assert!(bytes.len() < 8);
                prop_assert!(matches!(e, NetError::Io(_)));
            }
        }
    }
}
