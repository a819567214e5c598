//! Error type for the simulated transport.

use std::fmt;

use crate::party::PartyId;

/// Errors produced by the simulated network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A message was addressed to (or expected from) a party that was never
    /// registered with the network.
    UnknownParty(PartyId),
    /// Wire decoding failed (truncated or malformed payload).
    Decode(String),
    /// A party was registered twice.
    DuplicateParty(PartyId),
    /// An underlying byte stream failed.
    Io(String),
    /// A peer could not be reached after exhausting the reconnect backoff
    /// (or its link lost more frames than the replay window retains).
    PeerUnreachable {
        /// The party the undeliverable traffic was addressed to.
        party: PartyId,
        /// What the last recovery attempt failed with.
        detail: String,
    },
    /// A channel-security violation: a sealed frame failed authentication
    /// (tampered, truncated, replayed or reordered), a plaintext frame
    /// arrived on a secured channel, a control-plane MAC did not verify,
    /// or the handshake's security negotiation was refused. Distinguishable
    /// from transport loss — this is active interference, not a crash.
    AuthFailure {
        /// What failed to authenticate.
        detail: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownParty(p) => write!(f, "unknown party {p}"),
            NetError::Decode(msg) => write!(f, "wire decode error: {msg}"),
            NetError::DuplicateParty(p) => write!(f, "party {p} registered twice"),
            NetError::Io(msg) => write!(f, "stream i/o error: {msg}"),
            NetError::PeerUnreachable { party, detail } => {
                write!(f, "peer hosting {party} is unreachable: {detail}")
            }
            NetError::AuthFailure { detail } => {
                write!(f, "channel authentication failure: {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::PeerUnreachable {
            party: PartyId::DataHolder(2),
            detail: "connection refused".into(),
        };
        let s = e.to_string();
        assert!(s.contains("DH2"));
        assert!(s.contains("connection refused"));
        assert!(NetError::UnknownParty(PartyId::ThirdParty)
            .to_string()
            .contains("TP"));
    }
}
