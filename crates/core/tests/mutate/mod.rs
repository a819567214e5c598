//! Mutations shared by the message fuzzers (`alphanumeric_messages.rs`
//! and `protocol_messages.rs`).

use ppc_crypto::{SplitMix64, StreamRng};

/// Values a lying count, length or dimension field takes: off by one from
/// the truth, zero, and counts no payload could back.
pub fn lie(rng: &mut SplitMix64, truth: u32) -> u32 {
    match rng.next_below(6) {
        0 => truth.wrapping_add(1),
        1 => truth.wrapping_sub(1),
        2 => 0,
        3 => u32::MAX,
        4 => 0x4000_0000,
        _ => rng.next_u64() as u32,
    }
}

/// A random name of up to five lowercase letters.
pub fn name(rng: &mut SplitMix64) -> String {
    let len = rng.next_below(6) as usize;
    (0..len)
        .map(|_| char::from(b'a' + rng.next_below(26) as u8))
        .collect()
}
