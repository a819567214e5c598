//! Property-based coverage for the topic grammar of `docs/WIRE_FORMAT.md`
//! §5: parse/format round-trips over the whole production space (including
//! `s{id}/` prefixes and the reserved `ctl/` namespace), rejection of
//! malformed topics, and the parser on arbitrary UTF-8: it never panics,
//! and every string it accepts displays back to itself.

use proptest::prelude::*;

use ppc_core::protocol::topic::{AlphaKind, NumericKind, Step, Topic};

const NUMERIC_KINDS: [NumericKind; 4] = [
    NumericKind::Masked,
    NumericKind::MaskedChunk,
    NumericKind::Pairwise,
    NumericKind::PairwiseChunk,
];

const ALPHA_KINDS: [AlphaKind; 3] = [AlphaKind::Masked, AlphaKind::Ccms, AlphaKind::CcmsChunk];

/// Builds a structured topic from flat generator outputs (the vendored
/// proptest has no enum/tuple strategies).
fn topic_from(selector: u8, attr: &str, a: u32, b: u32, id: u64, prefixed: bool) -> Topic {
    let step = match selector % 6 {
        0 => Step::ClusteringChoice,
        1 => Step::PublishedResult,
        2 => Step::Local {
            attribute: attr.to_string(),
            site: a,
        },
        3 => Step::Categorical {
            attribute: attr.to_string(),
        },
        4 => Step::Numeric {
            attribute: attr.to_string(),
            initiator: a,
            responder: b,
            kind: NUMERIC_KINDS[(selector / 6) as usize % NUMERIC_KINDS.len()],
        },
        _ => Step::Alphanumeric {
            attribute: attr.to_string(),
            initiator: a,
            responder: b,
            kind: ALPHA_KINDS[(selector / 6) as usize % ALPHA_KINDS.len()],
        },
    };
    Topic::Session {
        id: prefixed.then_some(id),
        step,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(format(topic)) == topic` over the whole production space,
    /// including attributes containing `/`.
    #[test]
    fn structured_topics_roundtrip_through_strings(
        selector in 0u8..=255,
        attr in "[a-z0-9/_-]{1,24}",
        a in 0u32..4_000_000_000,
        b in 0u32..99,
        id in 0u64..u64::MAX,
        prefix_coin in 0u8..=1,
    ) {
        let topic = topic_from(selector, &attr, a, b, id, prefix_coin == 1);
        let rendered = topic.to_string();
        let parsed = Topic::parse(&rendered)
            .unwrap_or_else(|e| panic!("'{rendered}' must parse: {e}"));
        prop_assert_eq!(&parsed, &topic);
        // And the rendering is canonical: format(parse(s)) == s.
        prop_assert_eq!(parsed.to_string(), rendered);
        // The allocation-free hot-path prefix extraction agrees with the
        // full parse on every well-formed topic.
        prop_assert_eq!(Topic::session_prefix_id(&rendered), parsed.session_id());
    }

    /// Control topics round-trip and are recognised as reserved.
    #[test]
    fn control_topics_roundtrip(name in "[a-z0-9/-]{1,16}") {
        // The grammar requires a non-empty name; the generator guarantees
        // it. (A name may itself contain '/'.)
        let topic = Topic::Control { name: name.clone() };
        let rendered = topic.to_string();
        prop_assert!(ppc_net::is_control_topic(&rendered));
        let parsed = Topic::parse(&rendered).unwrap();
        prop_assert_eq!(&parsed, &topic);
        prop_assert_eq!(parsed.session_id(), None);
    }

    /// Appending garbage to a fixed-arity step, mangling the kind, or
    /// de-canonicalising a decimal always breaks the parse.
    #[test]
    fn mutations_of_valid_topics_are_rejected(
        attr in "[a-z]{1,8}",
        a in 0u32..50,
        b in 50u32..99,
        id in 0u64..1_000_000,
    ) {
        let base = Topic::Session {
            id: Some(id),
            step: Step::Numeric {
                attribute: attr.to_string(),
                initiator: a,
                responder: b,
                kind: NumericKind::Pairwise,
            },
        }
        .to_string();
        // Unknown kind suffix.
        prop_assert!(Topic::parse(&format!("{base}x")).is_err());
        // Leading zero in the session id (non-canonical decimal).
        prop_assert!(Topic::parse(&format!("s0{id}/{attr}/{a}-{b}/pairwise")).is_err());
        // Missing pair separator.
        let broken = base.replace(&format!("{a}-{b}"), &format!("{a}_{b}"));
        prop_assert!(Topic::parse(&broken).is_err());
        // The bare clustering-choice step takes no arguments.
        prop_assert!(Topic::parse(&format!("clustering-choice/{attr}")).is_err());
        // An empty attribute never parses.
        prop_assert!(Topic::parse(&format!("s{id}/categorical/")).is_err());
    }
}

/// Grammar fragments the arbitrary-string property splices between
/// arbitrary characters, so the parser sees near-valid topics as well as
/// noise: keywords, separators, canonical and non-canonical decimals at
/// and past the `u32` / `u64` limits, and multi-byte characters.
const FRAGMENTS: [&str; 32] = [
    "s",
    "ctl/",
    "/",
    "-",
    "0",
    "1",
    "7",
    "42",
    "01",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "local/",
    "categorical/",
    "numeric/",
    "alphanumeric/",
    "masked",
    "masked-chunk",
    "pairwise",
    "pairwise-chunk",
    "ccms",
    "ccms-chunk",
    "clustering-choice",
    "published-result",
    "age",
    "é",
    "\u{0}",
    " ",
    "ß/",
    "\u{10FFFF}",
    "+1",
];

/// A string spliced from `picks`: each pick is a grammar fragment or, one
/// time in three, an arbitrary Unicode scalar value.
fn spliced(picks: &[u32]) -> String {
    picks
        .iter()
        .map(|&pick| {
            if pick.is_multiple_of(3) {
                char::from_u32((pick >> 2) % 0x11_0000)
                    .unwrap_or(char::REPLACEMENT_CHARACTER)
                    .to_string()
            } else {
                FRAGMENTS[(pick >> 2) as usize % FRAGMENTS.len()].to_string()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `Topic::parse` never panics on strings spliced from grammar
    /// fragments and arbitrary characters, and every one it accepts
    /// displays back to the same string (with the allocation-free prefix
    /// extraction agreeing on its session id).
    #[test]
    fn parse_never_panics_and_accepted_topics_display_back(
        picks in prop::collection::vec(any::<u32>(), 0..24),
    ) {
        let raw = spliced(&picks);
        if let Ok(topic) = Topic::parse(&raw) {
            prop_assert_eq!(topic.to_string(), raw.clone());
            prop_assert_eq!(Topic::session_prefix_id(&raw), topic.session_id());
        }
    }

    /// The same on strings of arbitrary Unicode scalar values alone.
    #[test]
    fn parse_never_panics_on_arbitrary_unicode(
        scalars in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        let raw: String = scalars
            .iter()
            .filter_map(|&v| char::from_u32(v % 0x11_0000))
            .collect();
        if let Ok(topic) = Topic::parse(&raw) {
            prop_assert_eq!(topic.to_string(), raw);
        }
    }
}

/// The parser agrees with the live engine traffic: every topic a real
/// multi-session run emits parses as a session topic with the right id.
#[test]
fn engine_traffic_obeys_the_grammar() {
    use ppc_core::alphabet::Alphabet;
    use ppc_core::matrix::{DataMatrix, HorizontalPartition};
    use ppc_core::protocol::driver::ClusteringRequest;
    use ppc_core::protocol::engine::SessionSpec;
    use ppc_core::protocol::party::TrustedSetup;
    use ppc_core::protocol::sharded::ShardedEngine;
    use ppc_core::protocol::ProtocolConfig;
    use ppc_core::record::Record;
    use ppc_core::schema::{AttributeDescriptor, Schema};
    use ppc_core::value::AttributeValue;
    use ppc_crypto::Seed;
    use ppc_net::{Instrumented, Network};

    let schema = Schema::new(vec![
        AttributeDescriptor::numeric("age"),
        AttributeDescriptor::categorical("blood"),
        AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
    ])
    .unwrap();
    let record = |age: f64, blood: &str, dna: &str| {
        Record::new(vec![
            AttributeValue::numeric(age),
            AttributeValue::categorical(blood),
            AttributeValue::alphanumeric(dna),
        ])
    };
    let partitions = vec![
        HorizontalPartition::new(
            0,
            DataMatrix::with_rows(
                schema.clone(),
                vec![record(1.0, "A", "ac"), record(2.0, "B", "gt")],
            )
            .unwrap(),
        ),
        HorizontalPartition::new(
            1,
            DataMatrix::with_rows(schema.clone(), vec![record(3.0, "A", "at")]).unwrap(),
        ),
    ];
    let setup = TrustedSetup::deterministic(partitions, &Seed::from_u64(9)).unwrap();
    let transport = Instrumented::new(Network::with_parties(2));
    let mut engine = ShardedEngine::new(vec![transport]).unwrap();
    for chunk in [None, Some(1)] {
        engine.add_session(SessionSpec {
            schema: schema.clone(),
            config: ProtocolConfig::default(),
            holders: setup.holders.clone(),
            keys: setup.third_party.clone(),
            request: ClusteringRequest::uniform(&schema, 2),
            chunk_rows: chunk,
        });
    }
    // Capture every topic by marking all links plaintext for the
    // instrumented eavesdropper.
    use ppc_net::{ChannelSecurity, PartyId};
    for a in [
        PartyId::DataHolder(0),
        PartyId::DataHolder(1),
        PartyId::ThirdParty,
    ] {
        for b in [
            PartyId::DataHolder(0),
            PartyId::DataHolder(1),
            PartyId::ThirdParty,
        ] {
            engine.transports()[0].set_channel_security(a, b, ChannelSecurity::Plaintext);
        }
    }
    engine.run().unwrap();
    let captured = engine.transports()[0].eavesdropped();
    assert!(!captured.is_empty());
    for envelope in captured {
        let parsed = Topic::parse(&envelope.topic)
            .unwrap_or_else(|e| panic!("live topic '{}' must parse: {e}", envelope.topic));
        match parsed {
            Topic::Session { id: Some(id), .. } => assert!(id < 2, "id {id} out of range"),
            Topic::Session { id: None, .. } => panic!(
                "the engine must prefix every topic, got '{}'",
                envelope.topic
            ),
            Topic::Control { .. } => panic!("engine emitted a control topic"),
        }
    }
}
