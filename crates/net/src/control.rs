//! The session control plane: `ctl/` messages.
//!
//! A multi-process deployment needs a way for the *coordinating* party to
//! open clustering sessions against remote peers without out-of-band
//! configuration. This module defines the three control messages that ride
//! the ordinary envelope transport on the reserved `ctl/` topic namespace
//! (see `docs/WIRE_FORMAT.md` §5 and §7):
//!
//! * [`SessionReady`] (`ctl/ready`) — a serving party announces which
//!   party it plays and how many objects it holds; the coordinator sends
//!   its own to every remote party as a greeting once it is connected,
//!   and a serving party that hears it before any announcement answers
//!   with its readiness again (a router drops frames for parties not yet
//!   connected, so whichever of the two is sent later gets through);
//! * [`SessionAnnounce`] (`ctl/announce`) — the coordinator opens one
//!   session: its id, how many sessions the run will have in total, and an
//!   opaque `body` holding the engine-level session parameters (schema,
//!   protocol config, clustering request, chunk window, site sizes —
//!   encoded by the engine crate, which this crate does not depend on);
//! * [`SessionDone`] (`ctl/done`) — a party reports one session finished
//!   (or failed), with an optional opaque outcome payload (the third party
//!   attaches its published result and final matrix for verification).
//!
//! The `ctl/` prefix is *reserved*: session topics are always either bare
//! legacy steps or `s{id}/`-prefixed steps, neither of which can start
//! with `ctl/`, so control traffic demultiplexes unambiguously from
//! protocol traffic sharing the same transport.

use ppc_crypto::{Seed, SipHash24};

use crate::codec::{WireReader, WireWriter};
use crate::error::NetError;
use crate::framed::{get_party, put_party};
use crate::party::PartyId;

/// The reserved control-plane topic namespace.
pub const CTL_PREFIX: &str = "ctl/";

/// Topic of [`SessionAnnounce`].
pub const TOPIC_ANNOUNCE: &str = "ctl/announce";

/// Topic of [`SessionReady`].
pub const TOPIC_READY: &str = "ctl/ready";

/// Topic of [`SessionDone`].
pub const TOPIC_DONE: &str = "ctl/done";

/// Whether `topic` belongs to the reserved control plane.
pub fn is_control_topic(topic: &str) -> bool {
    topic.starts_with(CTL_PREFIX)
}

/// `coordinator → party`: opens session `session` of `sessions_total`.
///
/// The `body` is opaque at this layer: the engine crate encodes the full
/// per-session parameters (schema, config, request, chunk window, site
/// sizes) into it, so the transport layer needs no knowledge of protocol
/// types. Wire layout: `session: u64, sessions_total: u32, body: bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionAnnounce {
    /// Global session id (also the `s{id}/` topic prefix index).
    pub session: u64,
    /// Total sessions this run will announce; serving parties exit after
    /// completing this many.
    pub sessions_total: u32,
    /// Engine-encoded session parameters.
    pub body: Vec<u8>,
}

impl SessionAnnounce {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(16 + self.body.len());
        w.put_u64(self.session)
            .put_u32(self.sessions_total)
            .put_bytes(&self.body);
        w.finish()
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = WireReader::new(payload);
        let session = r.get_u64()?;
        let sessions_total = r.get_u32()?;
        let body = r.get_bytes()?;
        r.expect_end()?;
        Ok(SessionAnnounce {
            session,
            sessions_total,
            body,
        })
    }
}

/// `party → coordinator`: announces which party this endpoint plays and
/// how many objects it holds (0 for the third party), sent before any
/// session starts. The coordinator gathers these to assemble the site-size
/// roster every machine needs at build time.
///
/// `coordinator → party`, the same message is the coordinator's
/// **greeting**: sent once to every expected remote party as soon as the
/// coordinator is connected, it means "I am reachable now". A serving party
/// that receives it before the first [`SessionAnnounce`] sends its own
/// readiness again at once, in case its first one reached a shared router
/// before the coordinator did and was dropped; at any other time, or from
/// any other party, a ready at a serving party is a protocol error.
///
/// Wire layout: `party: party, rows: u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReady {
    /// The party the sender plays.
    pub party: PartyId,
    /// Objects the sender holds (data holders) or 0 (third party).
    pub rows: u64,
}

impl SessionReady {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(13);
        put_party(&mut w, self.party);
        w.put_u64(self.rows);
        w.finish()
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = WireReader::new(payload);
        let party = get_party(&mut r)?;
        let rows = r.get_u64()?;
        r.expect_end()?;
        Ok(SessionReady { party, rows })
    }
}

/// `party → coordinator`: session `session` finished at this party.
///
/// `error` distinguishes success (`None`) from failure (the error text);
/// `payload` is an opaque engine-encoded outcome (empty for holders; the
/// third party ships its published result and final matrix so the
/// coordinator can verify or export them).
///
/// Wire layout: `session: u64, party: party, ok: u8, error: str,
/// payload: bytes` (`ok` is 1 on success, 0 on failure; `error` is empty
/// on success).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDone {
    /// The finished session.
    pub session: u64,
    /// The reporting party.
    pub party: PartyId,
    /// `None` on success, the failure text otherwise.
    pub error: Option<String>,
    /// Engine-encoded outcome (may be empty).
    pub payload: Vec<u8>,
}

impl SessionDone {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let error = self.error.as_deref().unwrap_or("");
        let mut w = WireWriter::with_capacity(22 + error.len() + self.payload.len());
        w.put_u64(self.session);
        put_party(&mut w, self.party);
        w.put_u8(u8::from(self.error.is_none()));
        w.put_str(error).put_bytes(&self.payload);
        w.finish()
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = WireReader::new(payload);
        let session = r.get_u64()?;
        let party = get_party(&mut r)?;
        let ok = r.get_u8()?;
        let error_text = r.get_str()?;
        let body = r.get_bytes()?;
        r.expect_end()?;
        let error = match ok {
            1 => None,
            0 => Some(error_text),
            other => {
                return Err(NetError::Decode(format!(
                    "SessionDone ok flag must be 0 or 1, got {other}"
                )))
            }
        };
        Ok(SessionDone {
            session,
            party,
            error,
            payload: body,
        })
    }
}

/// A decoded control-plane message (topic + payload dispatch).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// `ctl/announce`.
    Announce(SessionAnnounce),
    /// `ctl/ready`.
    Ready(SessionReady),
    /// `ctl/done`.
    Done(SessionDone),
}

impl ControlMsg {
    /// Decodes a control message from its topic and payload. Errors on
    /// unknown `ctl/` topics (the namespace is reserved: an unknown
    /// control topic means a version mismatch, not ignorable traffic).
    pub fn decode(topic: &str, payload: &[u8]) -> Result<Self, NetError> {
        match topic {
            TOPIC_ANNOUNCE => Ok(ControlMsg::Announce(SessionAnnounce::decode(payload)?)),
            TOPIC_READY => Ok(ControlMsg::Ready(SessionReady::decode(payload)?)),
            TOPIC_DONE => Ok(ControlMsg::Done(SessionDone::decode(payload)?)),
            other => Err(NetError::Decode(format!(
                "unknown control topic '{other}' (the ctl/ namespace is reserved)"
            ))),
        }
    }

    /// The topic this message travels on.
    pub fn topic(&self) -> &'static str {
        match self {
            ControlMsg::Announce(_) => TOPIC_ANNOUNCE,
            ControlMsg::Ready(_) => TOPIC_READY,
            ControlMsg::Done(_) => TOPIC_DONE,
        }
    }

    /// Serialises the message payload (pair with [`topic`](Self::topic)).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ControlMsg::Announce(m) => m.encode(),
            ControlMsg::Ready(m) => m.encode(),
            ControlMsg::Done(m) => m.encode(),
        }
    }
}

/// Control-plane message authentication, keyed from the federation master
/// seed.
///
/// Transport identity is not enough on a shared frame router: a
/// multi-tenant router (or any peer connected to it) could forge
/// `ctl/announce` or `ctl/done` envelopes and open bogus sessions or
/// fake completions. Every control payload therefore carries a MAC over
/// the topic, the routing pair and the message body, keyed from a seed
/// only the federation's parties hold. Channel sealing (`crate::secure`)
/// additionally encrypts the control plane in transit; the MAC keeps the
/// authenticity guarantee even on `--insecure` deployments.
///
/// Authenticated wire layout: `mac: u64 | body…` (the MAC prefixes the
/// ordinary control-message encoding; see `docs/WIRE_FORMAT.md` §7).
#[derive(Clone)]
pub struct ControlAuth {
    mac: SipHash24,
}

impl std::fmt::Debug for ControlAuth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The MAC key is secret material; expose nothing.
        f.debug_struct("ControlAuth").finish_non_exhaustive()
    }
}

impl ControlAuth {
    /// Derives the control MAC key from the federation master seed (its
    /// own derivation branch, independent of protocol and channel keys).
    pub fn from_master(master: &Seed) -> Self {
        let key = master.derive("ctl-mac");
        ControlAuth {
            mac: SipHash24::new(
                key.low_u64(),
                u64::from_le_bytes(key.0[8..16].try_into().expect("8 bytes")),
            ),
        }
    }

    fn tag(&self, topic: &str, from: PartyId, to: PartyId, body: &[u8]) -> u64 {
        let mut w = WireWriter::with_capacity(18 + topic.len() + body.len());
        w.put_str(topic);
        put_party(&mut w, from);
        put_party(&mut w, to);
        w.put_bytes(body);
        self.mac.hash(&w.finish())
    }

    /// Wraps an encoded control body with its MAC for sending `from → to`
    /// on `topic`.
    pub fn seal(&self, topic: &str, from: PartyId, to: PartyId, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + body.len());
        out.extend_from_slice(&self.tag(topic, from, to, body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// Verifies and strips the MAC of a received control payload,
    /// returning the body. Fails with [`NetError::AuthFailure`] on any
    /// mismatch — a forged or replayed-across-link control message.
    pub fn open(
        &self,
        topic: &str,
        from: PartyId,
        to: PartyId,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        if payload.len() < 8 {
            return Err(NetError::AuthFailure {
                detail: format!(
                    "control message on '{topic}' is {} bytes, shorter than its MAC",
                    payload.len()
                ),
            });
        }
        let (mac, body) = payload.split_at(8);
        let got = u64::from_le_bytes(mac.try_into().expect("8 bytes"));
        if got != self.tag(topic, from, to, body) {
            return Err(NetError::AuthFailure {
                detail: format!(
                    "control message on '{topic}' ({from} → {to}) failed its MAC: forged or \
                     corrupted control traffic"
                ),
            });
        }
        Ok(body.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_topics_are_recognised() {
        assert!(is_control_topic(TOPIC_ANNOUNCE));
        assert!(is_control_topic(TOPIC_READY));
        assert!(is_control_topic(TOPIC_DONE));
        assert!(is_control_topic("ctl/future-extension"));
        assert!(!is_control_topic("s3/clustering-choice"));
        assert!(!is_control_topic("local/age/0"));
        // Topic prefixes must not shadow: a session step can never start
        // with the reserved namespace.
        assert!(!is_control_topic("s1/ctl-ish"));
    }

    #[test]
    fn announce_roundtrip() {
        let msg = SessionAnnounce {
            session: 7,
            sessions_total: 12,
            body: vec![1, 2, 3, 4, 5],
        };
        let back = SessionAnnounce::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
        assert!(SessionAnnounce::decode(&msg.encode()[..5]).is_err());
    }

    #[test]
    fn ready_roundtrip() {
        for (party, rows) in [
            (PartyId::DataHolder(0), 100u64),
            (PartyId::DataHolder(4_000_000), 0),
            (PartyId::ThirdParty, 0),
        ] {
            let msg = SessionReady { party, rows };
            assert_eq!(SessionReady::decode(&msg.encode()).unwrap(), msg);
        }
        // Trailing bytes are rejected.
        let mut bytes = SessionReady {
            party: PartyId::ThirdParty,
            rows: 9,
        }
        .encode();
        bytes.push(0);
        assert!(SessionReady::decode(&bytes).is_err());
    }

    #[test]
    fn done_roundtrip_success_and_failure() {
        let ok = SessionDone {
            session: 3,
            party: PartyId::ThirdParty,
            error: None,
            payload: vec![9; 40],
        };
        assert_eq!(SessionDone::decode(&ok.encode()).unwrap(), ok);

        let failed = SessionDone {
            session: 4,
            party: PartyId::DataHolder(1),
            error: Some("stalled with unfinished sessions".into()),
            payload: Vec::new(),
        };
        assert_eq!(SessionDone::decode(&failed.encode()).unwrap(), failed);

        // A corrupt ok flag is rejected.
        let mut bytes = ok.encode();
        bytes[13] = 7;
        assert!(SessionDone::decode(&bytes).is_err());
    }

    #[test]
    fn control_auth_accepts_genuine_and_rejects_forged_messages() {
        let auth = ControlAuth::from_master(&Seed::from_u64(77));
        let (from, to) = (PartyId::DataHolder(1), PartyId::DataHolder(0));
        let body = SessionReady {
            party: from,
            rows: 31,
        }
        .encode();
        let sealed = auth.seal(TOPIC_READY, from, to, &body);
        assert_eq!(auth.open(TOPIC_READY, from, to, &sealed).unwrap(), body);

        // Bit flip in the body.
        let mut bad = sealed.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(
            auth.open(TOPIC_READY, from, to, &bad),
            Err(NetError::AuthFailure { .. })
        ));
        // Bit flip in the MAC itself.
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert!(auth.open(TOPIC_READY, from, to, &bad).is_err());
        // Replay on a different topic or routing pair.
        assert!(auth.open(TOPIC_DONE, from, to, &sealed).is_err());
        assert!(auth
            .open(TOPIC_READY, PartyId::DataHolder(2), to, &sealed)
            .is_err());
        // A MAC keyed from a different master seed.
        let rogue = ControlAuth::from_master(&Seed::from_u64(78));
        assert!(rogue.open(TOPIC_READY, from, to, &sealed).is_err());
        assert!(auth
            .open(
                TOPIC_READY,
                from,
                to,
                &rogue.seal(TOPIC_READY, from, to, &body)
            )
            .is_err());
        // Too short to even hold a MAC.
        assert!(auth.open(TOPIC_READY, from, to, &sealed[..5]).is_err());
    }

    #[test]
    fn control_msg_dispatches_by_topic() {
        let ready = ControlMsg::Ready(SessionReady {
            party: PartyId::DataHolder(2),
            rows: 31,
        });
        let decoded = ControlMsg::decode(ready.topic(), &ready.encode()).unwrap();
        assert_eq!(decoded, ready);
        assert!(ControlMsg::decode("ctl/unknown", &[]).is_err());
        assert!(ControlMsg::decode(TOPIC_READY, &[1, 2]).is_err());
    }
}
