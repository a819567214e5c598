//! # ppc-net — simulated multi-party transport for `ppclust`
//!
//! The paper's protocols are message-passing protocols between `k` data
//! holders and a third party. Its evaluation consists of *communication cost*
//! analyses (how many elements each site transfers) and a discussion of which
//! channels must be encrypted. This crate provides the substrate that turns
//! those analyses into measurable quantities:
//!
//! * [`party::PartyId`] — participant identities (`DH_0`, `DH_1`, …, `TP`).
//! * [`message::Envelope`] — a typed, length-accounted message.
//! * [`codec`] — a compact binary wire format so byte counts are meaningful.
//! * [`transport::Transport`] — the transport abstraction every higher layer
//!   programs against (send / try_receive / flush).
//! * [`transport::Network`] — an in-memory mailbox network.
//! * [`transport::Instrumented`] — per-link byte/message accounting,
//!   per-link security settings and an eavesdropper over any transport.
//! * [`sim::SimulatedWan`] — a virtual-clock latency/bandwidth/loss wrapper
//!   around any transport, for the cost experiments.
//! * [`framed`] — length-prefixed envelope frames over byte streams (the
//!   frame layout is specified in `docs/WIRE_FORMAT.md`).
//! * [`socket`] — real TCP and Unix-domain bindings over those frames:
//!   party-announcing handshake, condvar-waking [`socket::SocketTransport`]
//!   with lossless reconnects (per-link sequence numbers and a bounded
//!   replay window), connect/accept with [`socket::Backoff`], and a
//!   standalone store-and-forward frame router for loopback and
//!   hub-and-spoke deployments.
//! * [`secure`] — the channel-security tier: per-party-pair AEAD sealing
//!   (ChaCha20-Poly1305 from `ppc-crypto`) that
//!   [`socket::SocketTransport::set_security`] installs so frames travel
//!   encrypted and authenticated end-to-end, with nonces derived from the
//!   implicit per-link sequence numbers so the reconnect/replay machinery
//!   stays lossless.
//! * [`control`] — the session control plane: `SessionAnnounce` /
//!   `SessionReady` / `SessionDone` messages on the reserved `ctl/` topic,
//!   so a coordinating party opens sessions against remote peers without
//!   out-of-band configuration; [`control::ControlAuth`] MACs every
//!   control payload under a master-seed-derived key so a multi-tenant
//!   router cannot forge announcements or completions.
//! * [`eavesdrop::Eavesdropper`] — captures traffic on plaintext links,
//!   used by the privacy experiments to demonstrate the inference the paper
//!   warns about when channels are left unsecured.
//! * [`metrics::CommReport`] — the measured counterpart of the paper's
//!   `O(n²+n)` style cost claims.
//! * [`cost::CostModel`] — translates byte counts into estimated wall-clock
//!   transfer times for different network profiles (LAN / WAN).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod control;
pub mod cost;
pub mod delivery;
pub mod eavesdrop;
pub mod error;
pub mod framed;
pub mod message;
pub mod metrics;
pub mod party;
mod reactor;
pub mod secure;
pub mod sim;
pub mod socket;
pub mod transport;

pub use codec::{packed_len, packed_width, WireReader, WireWriter};
pub use control::{
    is_control_topic, ControlAuth, ControlMsg, SessionAnnounce, SessionDone, SessionReady,
    CTL_PREFIX, TOPIC_ANNOUNCE, TOPIC_DONE, TOPIC_READY,
};
pub use cost::CostModel;
pub use delivery::DeliveryMode;
pub use eavesdrop::Eavesdropper;
pub use error::NetError;
pub use framed::{
    encode_ack, encode_frame, memory_duplex, Frame, FrameDecoder, LinkFrame, MemoryDuplex,
};
pub use message::{ChannelSecurity, Envelope};
pub use metrics::{
    CommReport, DeliveryStats, LinkStats, SealingReport, SealingStats, WaitStats, WaitStatsReporter,
};
pub use party::PartyId;
pub use secure::{ChannelKeyring, ChannelOpener, ChannelSealer, SecurityMode, SEALED_TOPIC};
pub use sim::{SimulatedWan, WanProfile, WanStats};
pub use socket::{
    Backoff, SocketTransport, TcpAcceptor, TcpRouter, TcpTransport, TransportBackend,
};
#[cfg(unix)]
pub use socket::{UdsAcceptor, UdsRouter, UdsTransport};
pub use transport::{Instrumented, Network, Transport, WaitTransport};
