//! Fuzzing of the socket handshake (`docs/WIRE_FORMAT.md` §3): the hello
//! (`exchange_hello`) and the resume exchange (`exchange_resume`), driven
//! over `memory_duplex()` against the bytes a peer might send — valid
//! hellos, mutated hellos (a flipped bit, a cut, a lying party count, a
//! wrong magic, version or mode, the previous wire version, trailing
//! bytes) and arbitrary bytes.
//! Whatever the bytes:
//! * neither stage panics;
//! * the hello reads exactly the peer's hello and nothing after it, and
//!   keeps at most one party per five bytes it read; it buffers at most
//!   one hello (15 + 255 × 5 bytes);
//! * a valid hello, and a resume count, decode to exactly what the peer
//!   encoded.
//!
//! A router parses hellos with the same parser, incrementally, on its
//! reactor. Against a live router:
//! * valid hello-and-count byte strings, split at arbitrary points,
//!   attach: the router answers with its hello and count and then
//!   reflects the connection's own frame back to it;
//! * mutated and arbitrary ones — a bad magic, version or mode, an unknown
//!   party tag, a party count with too few bytes behind it, a truncated
//!   count, arbitrary bytes — are closed, and no other connection fails: a
//!   sealed transport attached throughout, and one that connects
//!   afterwards, get full service.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use ppc_crypto::Seed;
use ppc_net::secure::ChannelKeyring;
use ppc_net::socket::{exchange_hello, exchange_resume, HELLO_MAGIC, WIRE_VERSION};
use ppc_net::{
    encode_frame, memory_duplex, Backoff, Envelope, FrameDecoder, NetError, PartyId, SecurityMode,
    TcpRouter, TcpTransport, Transport, WaitTransport,
};

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
        // A peer one wire version behind: there is no negotiation down.
        7 if len > 4 => hello[4] = WIRE_VERSION - 1,
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
        kinds in prop::collection::vec(0u32..9, 1..4),
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

/// The party the live router's attached sealed transport hosts, and the
/// one a sealed transport connecting after each case hosts. Raw clients
/// announce neither.
const CANARY: PartyId = PartyId::DataHolder(0);
const LATE: PartyId = PartyId::DataHolder(1);

fn sealed(party: PartyId) -> TcpTransport {
    let mut t = TcpTransport::new([party]);
    t.set_security(ChannelKeyring::from_master(&Seed::from_u64(23)));
    t
}

/// Parties for a raw client: never the canaries'.
fn client_parties(codes: &[u32]) -> BTreeSet<PartyId> {
    codes
        .iter()
        .map(|&code| {
            if code.is_multiple_of(5) {
                PartyId::ThirdParty
            } else {
                PartyId::DataHolder(2 + code % 1000)
            }
        })
        .collect()
}

/// A router under test, with a sealed transport attached through it that
/// no case's bytes may disturb.
struct LiveRouter {
    router: TcpRouter,
    addr: SocketAddr,
    canary: TcpTransport,
}

impl LiveRouter {
    fn start() -> LiveRouter {
        let (router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let canary = sealed(CANARY);
        canary.connect(addr, &Backoff::default()).unwrap();
        LiveRouter {
            router,
            addr,
            canary,
        }
    }

    /// Dials the router and writes `input` cut at `cuts`, one write per
    /// piece with a pause between, so the router reads the pieces apart.
    /// Stops writing once the router has closed the connection.
    fn dial(&self, input: &[u8], cuts: &[u16]) -> TcpStream {
        let mut stream = TcpStream::connect(self.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut at: Vec<usize> = cuts
            .iter()
            .map(|&cut| cut as usize % (input.len() + 1))
            .collect();
        at.sort_unstable();
        let mut from = 0;
        for to in at.into_iter().chain([input.len()]) {
            if to > from {
                if stream.write_all(&input[from..to]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                from = to;
            }
        }
        stream
    }

    /// Whether the router still gives full service, and its attached
    /// transport still works: a sealed transport connects now and
    /// exchanges an envelope each way with the canary. Shuts everything
    /// down.
    fn serves(mut self) -> Result<(), TestCaseError> {
        let late = sealed(LATE);
        late.connect(self.addr, &Backoff::default()).unwrap();
        late.send(Envelope::new(LATE, CANARY, "late/hello", vec![1; 40]))
            .unwrap();
        late.flush().unwrap();
        let got = self
            .canary
            .receive_any_of(&[CANARY], Duration::from_secs(5))
            .unwrap();
        prop_assert_eq!(got.map(|e| e.topic), Some("late/hello".to_string()));
        self.canary
            .send(Envelope::new(CANARY, LATE, "canary/reply", vec![2; 40]))
            .unwrap();
        self.canary.flush().unwrap();
        let got = late
            .receive_any_of(&[LATE], Duration::from_secs(5))
            .unwrap();
        prop_assert_eq!(got.map(|e| e.topic), Some("canary/reply".to_string()));
        late.shutdown();
        self.canary.shutdown();
        self.router.shutdown();
        Ok(())
    }
}

/// Reads what the router sends until it closes the connection; `None` if
/// it kept the connection open for five seconds.
fn read_until_closed(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut got = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Some(got),
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return None
            }
            Err(_) => return Some(got),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A valid hello and resume count attach whatever pieces they arrive
    /// in: the router answers with its own hello and count, and once the
    /// count is applied it reflects the client's frame to itself, read in
    /// the same pieces.
    #[test]
    fn a_live_router_attaches_valid_handshakes_split_anywhere(
        endpoint in any::<u64>(),
        codes in prop::collection::vec(any::<u32>(), 1..12),
        mode in 0usize..3,
        cuts in prop::collection::vec(any::<u16>(), 0..5),
    ) {
        let live = LiveRouter::start();
        let parties = client_parties(&codes);
        let me = *parties.iter().next().unwrap();
        let mut input = hello_bytes(endpoint, &parties, MODES[mode]);
        input.extend_from_slice(&0u64.to_le_bytes());
        input.extend_from_slice(
            &encode_frame(&Envelope::new(me, me, "fuzz/reflect", vec![7; 9])).unwrap(),
        );
        let mut stream = live.dial(&input, &cuts);

        let mut greeting = [0u8; HEADER + 8];
        stream.read_exact(&mut greeting).unwrap();
        prop_assert_eq!(&greeting[..4], &HELLO_MAGIC[..]);
        prop_assert_eq!(greeting[HEADER - 1], 0, "a router announces no parties");
        prop_assert_eq!(&greeting[HEADER..], &0u64.to_le_bytes()[..]);
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 256];
        let reflected = loop {
            if let Some(frame) = decoder.next_frame().unwrap() {
                break frame;
            }
            let n = stream.read(&mut buf).unwrap();
            prop_assert!(n > 0, "the router hung up on a valid handshake");
            decoder.feed(&buf[..n]);
        };
        prop_assert_eq!(reflected.topic, "fuzz/reflect");
        drop(stream);
        live.serves()?;
    }

    /// Mutated and arbitrary handshakes are closed: at once when the
    /// router can tell the hello is bad, at the client's hangup when it
    /// is merely short. Nothing but the router's hello and count comes
    /// back, and no other connection notices.
    #[test]
    fn a_live_router_closes_mutated_and_arbitrary_handshakes(
        endpoint in any::<u64>(),
        codes in prop::collection::vec(any::<u32>(), 1..12),
        kind in 0u32..7,
        value in any::<u32>(),
        arbitrary in prop::collection::vec(any::<u8>(), 0..80),
        cuts in prop::collection::vec(any::<u16>(), 0..4),
    ) {
        let live = LiveRouter::start();
        let mut input = hello_bytes(endpoint, &client_parties(&codes), SecurityMode::Plaintext);
        let other = 1 + (value >> 8) as u8 % 255;
        // Whether the bytes are bad in a way the router sees without the
        // client hanging up.
        let refused = kind < 4;
        match kind {
            // A wrong magic byte, version or mode.
            0 => input[value as usize % 4] = input[value as usize % 4].wrapping_add(other),
            1 => input[4] = input[4].wrapping_add(other),
            2 => input[5] = 2 + (value >> 8) as u8 % 253,
            // An unknown party tag.
            3 => input[HEADER] = 2 + (value >> 8) as u8 % 254,
            // A party count with too few bytes behind it.
            4 => input.truncate(HEADER + value as usize % (input.len() - HEADER)),
            // A whole hello and a truncated count.
            5 => input.extend_from_slice(&[0u8; 8][..value as usize % 8]),
            // Arbitrary bytes, with or without a valid header in front.
            _ => {
                if value.is_multiple_of(2) {
                    input.truncate(HEADER);
                } else {
                    input.clear();
                }
                input.extend_from_slice(&arbitrary);
            }
        }
        let mut stream = live.dial(&input, &cuts);
        if !refused {
            // Best effort: the router may have closed it already.
            let _ = stream.shutdown(Shutdown::Write);
        }
        let got = read_until_closed(&mut stream);
        prop_assert!(got.is_some(), "the router kept a bad handshake open");
        if kind < 6 {
            let got = got.unwrap();
            prop_assert!(got.len() <= HEADER + 8, "the router sent {} bytes", got.len());
        }
        drop(stream);
        live.serves()?;
    }
}
