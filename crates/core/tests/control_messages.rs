//! Mutation fuzzing of the session control plane (`docs/WIRE_FORMAT.md`
//! §7): the `ctl/` messages `SessionAnnounce`, `SessionReady` and
//! `SessionDone`, decoded through `ControlMsg::decode`, and the two engine
//! bodies they carry, `PartySessionSpec` (the announce body) and
//! `TpOutcome` (the third party's done payload).
//!
//! Valid messages are encoded, then truncated, bit-flipped, or given count
//! and length fields that lie. Whatever the bytes, decoding must not
//! panic, and what it allocates must be bounded by the payload: every
//! vector or string it returns holds at most `len / size` elements, where
//! `size` is the fewest bytes one element takes on the wire, and a count
//! the payload cannot back is refused before anything is reserved for it.
//!
//! Every payload a sender writes re-encodes to the identical bytes. Three
//! decoders also accept a few non-canonical spellings, which they map onto
//! the canonical message, so for them the property is weaker: the
//! re-encoding of an accepted payload decodes to the same message and
//! re-encodes to itself.
//! * A party field (`SessionReady`, `SessionDone`) tagged as the third
//!   party ignores its index, which the sender writes as 0; the frame
//!   decoder treats routing fields the same way.
//! * `SessionDone` ignores the error text of a success.
//! * `PartySessionSpec` ignores an alphabet on a numeric or categorical
//!   attribute, and reads the linkage name case-insensitively.

mod mutate;

use proptest::prelude::*;

use ppc_cluster::Linkage;
use ppc_core::alphabet::Alphabet;
use ppc_core::fixed::FixedPointCodec;
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::messages::PublishedResultMsg;
use ppc_core::protocol::party_engine::{PartySessionSpec, TpOutcome};
use ppc_core::protocol::{NumericMode, ProtocolConfig};
use ppc_core::schema::{AttributeDescriptor, Schema};
use ppc_crypto::{RngAlgorithm, Seed, SplitMix64, StreamRng};
use ppc_net::{ControlMsg, PartyId, SessionAnnounce, SessionDone, SessionReady};

use mutate::{lie, name};

/// The layouts under test.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Announce,
    Ready,
    Done,
    Spec,
    Outcome,
}

const LAYOUTS: [Layout; 5] = [
    Layout::Announce,
    Layout::Ready,
    Layout::Done,
    Layout::Spec,
    Layout::Outcome,
];

fn bytes(rng: &mut SplitMix64, max: u64) -> Vec<u8> {
    (0..rng.next_below(max))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

fn party(rng: &mut SplitMix64) -> PartyId {
    match rng.next_below(3) {
        0 => PartyId::ThirdParty,
        _ => PartyId::DataHolder(rng.next_below(6) as u32),
    }
}

const LINKAGES: [Linkage; 4] = [
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Ward,
];

/// A random announce body and the offsets of its count and length
/// prefixes, following the §7.2 layout.
fn spec(rng: &mut SplitMix64) -> (PartySessionSpec, Vec<usize>) {
    let mut attributes = Vec::new();
    for i in 0..1 + rng.next_below(3) {
        let name = format!("{}{i}", name(rng));
        attributes.push(match rng.next_below(4) {
            0 => AttributeDescriptor::numeric(name),
            1 => AttributeDescriptor::categorical(name),
            2 => AttributeDescriptor::alphanumeric(name, Alphabet::dna()),
            _ => AttributeDescriptor::alphanumeric(
                name,
                Alphabet::new("äöü漢🦀".chars()).expect("distinct symbols"),
            ),
        });
    }
    let schema = Schema::new(attributes).unwrap();
    let mut request = ClusteringRequest::uniform(&schema, 1 + rng.next_below(4) as usize);
    request.linkage = LINKAGES[rng.next_below(4) as usize];
    let spec = PartySessionSpec {
        config: ProtocolConfig {
            rng_algorithm: [
                RngAlgorithm::ChaCha20,
                RngAlgorithm::Xoshiro256PlusPlus,
                RngAlgorithm::SplitMix64,
            ][rng.next_below(3) as usize],
            numeric_mode: [NumericMode::Batch, NumericMode::PerPair][rng.next_below(2) as usize],
            fixed_point: FixedPointCodec::new(1.0 + rng.next_below(1000) as f64).unwrap(),
        },
        request,
        chunk_rows: (rng.next_below(2) == 1).then(|| 1 + rng.next_below(64) as usize),
        site_sizes: (0..rng.next_below(4))
            .map(|site| (site as u32, rng.next_below(500)))
            .collect(),
        schema,
    };
    // attr_count, then per attribute: name, kind, alphabet flag, alphabet.
    let mut offsets = vec![0];
    let mut at = 4;
    for attr in spec.schema.attributes() {
        offsets.push(at);
        at += 4 + attr.name.len() + 2;
        if let Some(alphabet) = &attr.alphabet {
            offsets.push(at);
            let symbols: String = (0..alphabet.size())
                .map(|i| alphabet.char_at(i).unwrap())
                .collect();
            at += 4 + symbols.len();
        }
    }
    // rng, mode and scale; the weights; clusters; the linkage name.
    at += 10;
    offsets.push(at);
    at += 4 + 8 * spec.request.weights.len() + 4;
    offsets.push(at);
    let linkage = format!("{:?}", spec.request.linkage);
    // The chunk window; then the site count.
    at += 4 + linkage.len() + 8;
    offsets.push(at);
    (spec, offsets)
}

/// A random third-party outcome and the offsets of its count and length
/// prefixes.
fn outcome(rng: &mut SplitMix64) -> (TpOutcome, Vec<usize>) {
    let clusters: Vec<Vec<(u32, u32)>> = (0..rng.next_below(4))
        .map(|_| {
            (0..rng.next_below(4))
                .map(|_| (rng.next_below(4) as u32, rng.next_below(50) as u32))
                .collect()
        })
        .collect();
    // The result's byte-string prefix, its cluster count, then each
    // cluster's member count.
    let mut offsets = vec![0, 4];
    let mut at = 8;
    for cluster in &clusters {
        offsets.push(at);
        at += 4 + 8 * cluster.len();
    }
    // The scatter, the object count, then the condensed values.
    offsets.push(at + 8 + 4);
    let objects = rng.next_below(6) as u32;
    let condensed = (0..objects * objects.saturating_sub(1) / 2)
        .map(|_| f64::from_bits(rng.next_u64()))
        .collect();
    let outcome = TpOutcome {
        result: PublishedResultMsg {
            clusters,
            average_within_cluster_squared_distance: f64::from_bits(rng.next_u64()),
        },
        objects,
        condensed,
    };
    (outcome, offsets)
}

/// A valid payload of `layout` and the offsets of every `u32` count or
/// length field in it.
fn valid_payload(layout: Layout, rng: &mut SplitMix64) -> (Vec<u8>, Vec<usize>) {
    match layout {
        Layout::Announce => {
            let msg = SessionAnnounce {
                session: rng.next_u64(),
                sessions_total: rng.next_below(100) as u32,
                body: bytes(rng, 40),
            };
            (msg.encode(), vec![12])
        }
        Layout::Ready => {
            let msg = SessionReady {
                party: party(rng),
                rows: rng.next_u64(),
            };
            // The party's index is the one u32 field.
            (msg.encode(), vec![1])
        }
        Layout::Done => {
            let error = (rng.next_below(2) == 1).then(|| name(rng));
            let msg = SessionDone {
                session: rng.next_u64(),
                party: party(rng),
                payload: bytes(rng, 40),
                error,
            };
            let error_len = msg.error.as_ref().map_or(0, String::len);
            (msg.encode(), vec![14, 18 + error_len])
        }
        Layout::Spec => {
            let (spec, offsets) = spec(rng);
            (spec.encode(), offsets)
        }
        Layout::Outcome => {
            let (outcome, offsets) = outcome(rng);
            (outcome.encode(), offsets)
        }
    }
}

/// The control topic a `ctl/` layout travels on.
fn topic(layout: Layout) -> &'static str {
    match layout {
        Layout::Announce => "ctl/announce",
        Layout::Ready => "ctl/ready",
        Layout::Done => "ctl/done",
        Layout::Spec | Layout::Outcome => unreachable!("engine bodies have no topic"),
    }
}

/// Elements a decode returned, each with the fewest bytes it takes on
/// the wire.
type Allocated = Vec<(usize, usize)>;

/// Decodes `payload` as `layout`. If it is accepted, checks the
/// re-encoding property and returns what the decode allocated.
fn decode(layout: Layout, payload: &[u8]) -> Option<Allocated> {
    match layout {
        Layout::Announce | Layout::Ready | Layout::Done => {
            let msg = ControlMsg::decode(topic(layout), payload).ok()?;
            let encoded = msg.encode();
            match layout {
                Layout::Announce => assert_eq!(encoded, payload, "re-encoding changed the bytes"),
                _ => assert_eq!(
                    ControlMsg::decode(msg.topic(), &encoded).unwrap(),
                    msg,
                    "the canonical re-encoding decodes to another message"
                ),
            }
            Some(match msg {
                ControlMsg::Announce(m) => vec![(m.body.capacity(), 1)],
                ControlMsg::Ready(_) => vec![],
                ControlMsg::Done(m) => vec![
                    (m.payload.capacity(), 1),
                    (m.error.map_or(0, |e| e.capacity()), 1),
                ],
            })
        }
        Layout::Spec => {
            let spec = PartySessionSpec::decode(payload).ok()?;
            let encoded = spec.encode();
            let again = PartySessionSpec::decode(&encoded)
                .expect("the canonical re-encoding decodes")
                .encode();
            assert_eq!(
                again, encoded,
                "the canonical re-encoding is not a fixed point"
            );
            let mut allocated = vec![
                // Name length, kind and alphabet flag.
                (spec.schema.len(), 6),
                (spec.request.weights.len(), 8),
                (spec.site_sizes.capacity(), 12),
            ];
            for attr in spec.schema.attributes() {
                allocated.push((attr.name.capacity(), 1));
                allocated.push((attr.alphabet.as_ref().map_or(0, |a| a.size() as usize), 1));
            }
            Some(allocated)
        }
        Layout::Outcome => {
            let outcome = TpOutcome::decode(payload).ok()?;
            assert_eq!(outcome.encode(), payload, "re-encoding changed the bytes");
            let mut allocated = vec![
                (outcome.condensed.capacity(), 8),
                (outcome.result.clusters.capacity(), 4),
            ];
            for cluster in &outcome.result.clusters {
                allocated.push((cluster.capacity(), 8));
            }
            Some(allocated)
        }
    }
}

/// Runs [`decode`] and checks the allocation bound on what it accepts.
fn check(layout: Layout, payload: &[u8]) -> bool {
    match decode(layout, payload) {
        Some(allocated) => {
            for (elements, size) in allocated {
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

    /// Valid payloads decode to the identical bytes, and every strict
    /// prefix of one is rejected.
    #[test]
    fn valid_payloads_roundtrip_and_truncations_are_rejected(
        master in any::<u64>(),
        layout in 0usize..5,
    ) {
        let layout = LAYOUTS[layout];
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let (payload, _) = valid_payload(layout, &mut rng);
        let reencoded = match layout {
            Layout::Announce | Layout::Ready | Layout::Done => {
                ControlMsg::decode(topic(layout), &payload).map(|m| m.encode()).ok()
            }
            Layout::Spec => PartySessionSpec::decode(&payload).map(|s| s.encode()).ok(),
            Layout::Outcome => TpOutcome::decode(&payload).map(|o| o.encode()).ok(),
        };
        prop_assert_eq!(reencoded.as_deref(), Some(&payload[..]), "{:?}", layout);
        prop_assert!(check(layout, &payload));
        for cut in 0..payload.len() {
            prop_assert!(
                !check(layout, &payload[..cut]),
                "{:?} accepted a {}-byte prefix", layout, cut
            );
        }
    }

    /// Flipping bits anywhere never panics, and what still decodes keeps
    /// the re-encoding property and the allocation bound.
    #[test]
    fn bit_flips_never_panic_or_misencode(
        master in any::<u64>(),
        layout in 0usize..5,
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

    /// A count or length field that lies — off by one, zero, or far more
    /// than the payload holds — never panics and never sizes a buffer.
    #[test]
    fn lying_counts_and_lengths_never_panic_or_overallocate(
        master in any::<u64>(),
        layout in 0usize..5,
        which in any::<u32>(),
    ) {
        let layout = LAYOUTS[layout];
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let (mut payload, offsets) = valid_payload(layout, &mut rng);
        let at = offsets[which as usize % offsets.len()];
        let truth = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let claimed = lie(&mut rng, truth);
        payload[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        check(layout, &payload);
    }
}

/// The announce body's two element loops check their counts against the
/// payload before reserving anything: a count no payload could back is
/// refused by that check, not by the first element it fails to read.
#[test]
fn announce_body_counts_are_checked_before_reserving() {
    let mut rng = SplitMix64::from_seed(&Seed::from_u64(11));
    for _ in 0..32 {
        let (spec, offsets) = spec(&mut rng);
        let payload = spec.encode();
        // The attribute count leads; the site count is the last prefix.
        for at in [offsets[0], *offsets.last().unwrap()] {
            let mut lying = payload.clone();
            lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = PartySessionSpec::decode(&lying).unwrap_err().to_string();
            assert!(err.contains("declared count"), "{err}");
        }
    }
}

/// Each layout an unknown or foreign topic carries is refused: the `ctl/`
/// namespace is reserved.
#[test]
fn unknown_control_topics_are_refused() {
    let mut rng = SplitMix64::from_seed(&Seed::from_u64(12));
    let (payload, _) = valid_payload(Layout::Ready, &mut rng);
    for topic in ["ctl/", "ctl/unknown", "ctl/ready/", "s1/ctl/ready", ""] {
        assert!(ControlMsg::decode(topic, &payload).is_err(), "{topic}");
    }
}
