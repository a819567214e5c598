//! The third party checks the object counts a whole-bundle CCM message
//! declares (`docs/WIRE_FORMAT.md` §6.6) against the session before it
//! does any work for it.
//!
//! A bundle's matrix count is the product of the lengths of its two
//! length vectors, and both come from the peer. Empty strings cost no
//! cells, so a few megabytes of zero lengths can declare a bundle of 2²⁰
//! objects. The edit-distance kernel sizes its distance block by that
//! product, so the counts must be checked first: a rejected bundle must
//! leave the machine's compute counters at zero, which shows that neither
//! the offset derivation nor the kernel ran.

use ppc_core::alphabet::Alphabet;
use ppc_core::error::CoreError;
use ppc_core::protocol::alphanumeric::MaskedCcmBundle;
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::machines::{ComputeStats, SessionContext, ThirdPartyMachine};
use ppc_core::protocol::messages::CcmBundleMsg;
use ppc_core::protocol::party::TrustedSetup;
use ppc_core::protocol::ProtocolConfig;
use ppc_core::schema::{AttributeDescriptor, Schema};
use ppc_crypto::Seed;
use ppc_net::{Envelope, PartyId};

/// Objects at the initiator (site 0) and the responder (site 1).
const SITES: [(u32, usize); 2] = [(0, 8), (1, 3)];

fn third_party() -> ThirdPartyMachine {
    let schema = Schema::new(vec![AttributeDescriptor::alphanumeric(
        "dna",
        Alphabet::dna(),
    )])
    .unwrap();
    let request = ClusteringRequest::uniform(&schema, 2);
    let ctx = SessionContext::oracle(schema, ProtocolConfig::default(), request);
    let keys = TrustedSetup::derive_third_party(&[0, 1], &Seed::from_u64(5)).unwrap();
    ThirdPartyMachine::new(ctx, keys, &SITES).unwrap()
}

/// `DH_1 → TP`: a bundle of empty strings, `responders × initiators`.
fn empty_bundle(responders: usize, initiators: usize) -> Envelope {
    let msg = CcmBundleMsg {
        attribute: "dna".into(),
        bundle: MaskedCcmBundle::new(vec![0; responders], vec![0; initiators], &[], 4).unwrap(),
    };
    Envelope::new(
        PartyId::DataHolder(1),
        PartyId::ThirdParty,
        "alphanumeric/dna/0-1/ccms",
        msg.encode(4),
    )
}

#[test]
fn oversized_bundles_are_rejected_before_the_kernel_runs() {
    let (initiators, responders) = (SITES[0].1, SITES[1].1);
    for (declared_responders, declared_initiators) in [
        (1 << 20, initiators),
        (responders, 1 << 20),
        (1 << 20, 1 << 20),
        (responders + 1, initiators),
        (responders, initiators - 1),
    ] {
        let mut tp = third_party();
        let result = tp.step(Some(&empty_bundle(
            declared_responders,
            declared_initiators,
        )));
        match result {
            Err(CoreError::Protocol(message)) => assert!(
                message.contains(&format!("{declared_responders}×{declared_initiators}")),
                "{message}"
            ),
            other => panic!("a {declared_responders}×{declared_initiators} bundle gave {other:?}"),
        }
        assert_eq!(tp.compute_stats(), ComputeStats::default());
        assert_eq!(tp.peak_buffered_rows(), 0);
    }
    // The honest shape is accepted.
    let mut tp = third_party();
    tp.step(Some(&empty_bundle(responders, initiators)))
        .unwrap();
    assert_eq!(tp.peak_buffered_rows(), responders);
}
