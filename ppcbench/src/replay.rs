//! Replays of one job's captured envelopes through the wire layers the
//! socket path runs them through, timed from outside: frame encoding and
//! decoding (`ppc-net::framed`) and AEAD sealing and opening
//! (`ppc-net::secure`). Each replay checks it reproduces the envelopes.

use std::time::{Duration, Instant};

use ppc_net::{encode_frame, ChannelKeyring, ChannelOpener, ChannelSealer, Envelope, FrameDecoder};

/// Time spent in each wire layer for one pass over the envelopes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireReplay {
    /// `encode_frame`.
    pub encode: Duration,
    /// `FrameDecoder::feed` + `next_frame`.
    pub decode: Duration,
    /// `ChannelSealer::seal`, one record per envelope.
    pub seal: Duration,
    /// `ChannelOpener::open`.
    pub open: Duration,
}

/// Sender salt of the replay sealer; any value unique to it will do.
const REPLAY_SALT: u32 = 0x5EED_0001;

/// Encodes, decodes, seals and opens `envelopes` once, checking each
/// layer gives back exactly what went in.
pub fn replay_wire(envelopes: &[Envelope], keyring: &ChannelKeyring) -> Result<WireReplay, String> {
    let mut timing = WireReplay::default();

    let started = Instant::now();
    let frames = envelopes
        .iter()
        .map(encode_frame)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("encode_frame: {e}"))?;
    timing.encode = started.elapsed();

    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::with_capacity(frames.len());
    let started = Instant::now();
    for frame in &frames {
        decoder.feed(frame);
        decoded.push(decoder.next_frame().map_err(|e| format!("decode: {e}"))?);
    }
    timing.decode = started.elapsed();
    if decoded
        .iter()
        .zip(envelopes)
        .any(|(got, sent)| got.as_ref() != Some(sent))
    {
        return Err("frame decode did not reproduce the encoded envelopes".into());
    }

    let sealer = ChannelSealer::new(keyring.clone(), REPLAY_SALT);
    let started = Instant::now();
    let sealed: Vec<Envelope> = envelopes.iter().map(|e| sealer.seal(e)).collect();
    timing.seal = started.elapsed();

    let opener = ChannelOpener::new(keyring.clone());
    let mut opened = Vec::with_capacity(sealed.len());
    let started = Instant::now();
    for record in sealed {
        opened.push(opener.open(record).map_err(|e| format!("open: {e}"))?);
    }
    timing.open = started.elapsed();
    if opened
        .iter()
        .zip(envelopes)
        .any(|(got, sent)| got.as_slice() != std::slice::from_ref(sent))
    {
        return Err("open did not reproduce the sealed envelopes".into());
    }
    Ok(timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_net::PartyId;

    #[test]
    fn replays_reproduce_the_envelopes() {
        let envelopes: Vec<Envelope> = (0..5u8)
            .map(|i| {
                Envelope::new(
                    PartyId::DataHolder(u32::from(i % 2)),
                    PartyId::ThirdParty,
                    format!("s0/local/age/{i}"),
                    vec![i; 100 * usize::from(i)],
                )
            })
            .collect();
        let keyring = ChannelKeyring::from_psk(ppc_crypto::Seed::from_u64(7));
        let timing = replay_wire(&envelopes, &keyring).unwrap();
        assert!(timing.encode + timing.decode + timing.seal + timing.open > Duration::ZERO);
    }
}
