//! Finite alphabets for alphanumeric attributes.
//!
//! The alphanumeric comparison protocol requires the string alphabet to be
//! finite so that "addition of a random number and a character is another
//! alphabet character" (§4.2). An [`Alphabet`] maps characters to dense
//! symbol indices `0..size` and back.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// A finite, ordered character alphabet.
///
/// Alphabets are small (a handful to a few dozen symbols), so lookups use a
/// linear scan; this keeps the type trivially serializable and cheap to
/// clone into protocol sessions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alphabet {
    symbols: Vec<char>,
}

impl Alphabet {
    /// Builds an alphabet from a list of distinct characters.
    pub fn new(symbols: impl IntoIterator<Item = char>) -> Result<Self, CoreError> {
        let symbols: Vec<char> = symbols.into_iter().collect();
        if symbols.len() < 2 {
            return Err(CoreError::Protocol(
                "an alphabet needs at least two symbols".into(),
            ));
        }
        let mut seen = HashSet::with_capacity(symbols.len());
        if let Some(c) = symbols.iter().find(|&&c| !seen.insert(c)) {
            return Err(CoreError::Protocol(format!(
                "duplicate symbol '{c}' in alphabet"
            )));
        }
        Ok(Alphabet { symbols })
    }

    /// The DNA alphabet `{a, c, g, t}` from the paper's bird-flu motivation.
    pub fn dna() -> Self {
        Alphabet::new(['a', 'c', 'g', 't']).expect("static alphabet is valid")
    }

    /// The four-symbol demo alphabet `{a, b, c, d}` used in Figure 7.
    pub fn abcd() -> Self {
        Alphabet::new(['a', 'b', 'c', 'd']).expect("static alphabet is valid")
    }

    /// Lower-case Latin letters.
    pub fn lowercase() -> Self {
        Alphabet::new('a'..='z').expect("static alphabet is valid")
    }

    /// Lower-case Latin letters, digits and a space (useful for free-text
    /// identifiers in the record-linkage example).
    pub fn alphanumeric_lower() -> Self {
        let mut symbols: Vec<char> = ('a'..='z').collect();
        symbols.extend('0'..='9');
        symbols.push(' ');
        Alphabet::new(symbols).expect("static alphabet is valid")
    }

    /// Number of symbols.
    pub fn size(&self) -> u32 {
        self.symbols.len() as u32
    }

    /// Maps a character to its symbol index.
    pub fn index_of(&self, c: char) -> Result<u32, CoreError> {
        self.symbols
            .iter()
            .position(|&s| s == c)
            .map(|i| i as u32)
            .ok_or(CoreError::SymbolOutsideAlphabet { symbol: c })
    }

    /// Maps a symbol index back to its character.
    pub fn char_at(&self, index: u32) -> Option<char> {
        self.symbols.get(index as usize).copied()
    }

    /// Encodes a string into symbol indices.
    pub fn encode(&self, s: &str) -> Result<Vec<u32>, CoreError> {
        s.chars().map(|c| self.index_of(c)).collect()
    }

    /// Decodes symbol indices back into a string (indices must be in range).
    pub fn decode(&self, indices: &[u32]) -> Result<String, CoreError> {
        indices
            .iter()
            .map(|&i| {
                self.char_at(i).ok_or_else(|| {
                    CoreError::Protocol(format!("symbol index {i} outside alphabet"))
                })
            })
            .collect()
    }

    /// Checks that every character of `s` belongs to the alphabet.
    pub fn validate(&self, s: &str) -> Result<(), CoreError> {
        for c in s.chars() {
            self.index_of(c)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Alphabet::new(['a']).is_err());
        assert!(Alphabet::new(['a', 'a']).is_err());
        assert!(Alphabet::new(['a', 'b']).is_ok());
    }

    #[test]
    fn builtin_alphabets() {
        assert_eq!(Alphabet::dna().size(), 4);
        assert_eq!(Alphabet::abcd().size(), 4);
        assert_eq!(Alphabet::lowercase().size(), 26);
        assert_eq!(Alphabet::alphanumeric_lower().size(), 37);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dna = Alphabet::dna();
        let encoded = dna.encode("gattaca").unwrap();
        assert_eq!(encoded, vec![2, 0, 3, 3, 0, 1, 0]);
        assert_eq!(dna.decode(&encoded).unwrap(), "gattaca");
        assert!(dna.encode("gattacax").is_err());
        assert!(dna.decode(&[9]).is_err());
        assert!(dna.validate("acgt").is_ok());
        assert!(dna.validate("xyz").is_err());
    }

    #[test]
    fn index_lookup() {
        let ab = Alphabet::abcd();
        assert_eq!(ab.index_of('a').unwrap(), 0);
        assert_eq!(ab.index_of('d').unwrap(), 3);
        assert!(ab.index_of('z').is_err());
        assert_eq!(ab.char_at(2), Some('c'));
        assert_eq!(ab.char_at(9), None);
    }

    #[test]
    fn clone_roundtrip_preserves_lookups() {
        // serde_json is unavailable offline (the serde derives are no-op
        // stand-ins); assert that a structural copy preserves the lookup
        // tables a serialisation round-trip would have to reconstruct.
        let dna = Alphabet::dna();
        let back = dna.clone();
        assert_eq!(back, dna);
        assert_eq!(back.index_of('t').unwrap(), 3);
        assert_eq!(back.char_at(3), dna.char_at(3));
    }
}
