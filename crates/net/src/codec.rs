//! Compact binary wire format.
//!
//! The paper's communication-cost analysis counts transferred *elements*
//! (numbers, characters, matrix cells). To turn that into measured bytes we
//! serialize protocol messages with a small, deterministic, length-prefixed
//! binary codec rather than a self-describing format, so the measured sizes
//! track the element counts closely (8 bytes per masked numeric value,
//! ⌈log₂|A|⌉ bits per masked character or CCM cell, and so on).

use bytes::{Buf, BufMut};

use crate::error::NetError;

/// Values per step of the packed codec: eight `b`-bit values fill exactly
/// `b` bytes, so every group starts on a byte boundary.
const GROUP: usize = 8;

/// Bits a packed section ([`WireWriter::put_packed`]) spends on each value
/// drawn from `[0, symbols)`: ⌈log₂ symbols⌉, at least 1 and at most 32.
pub fn packed_width(symbols: u32) -> u32 {
    (u32::BITS - symbols.saturating_sub(1).leading_zeros()).max(1)
}

/// Bytes a packed section of `count` values at `bits` bits each occupies.
pub fn packed_len(count: usize, bits: u32) -> usize {
    (count as u128 * u128::from(bits)).div_ceil(8) as usize
}

/// Packs one group of eight values at `B` bits each into the first `B`
/// bytes of the result, least-significant bit first. With `B` a
/// compile-time constant every shift and word index folds away; for
/// `B ≤ 8` the group is one `u64`.
fn pack_group<const B: usize>(group: &[u32; GROUP]) -> [u8; 4 * GROUP] {
    let mask = (1u64 << B) - 1;
    let mut words = [0u64; GROUP / 2];
    for (i, &value) in group.iter().enumerate() {
        let value = u64::from(value) & mask;
        let (word, shift) = (i * B / 64, i * B % 64);
        words[word] |= value << shift;
        if shift + B > 64 {
            words[word + 1] |= value >> (64 - shift);
        }
    }
    let mut bytes = [0u8; 4 * GROUP];
    for (out, word) in bytes.chunks_exact_mut(8).zip(words) {
        out.copy_from_slice(&word.to_le_bytes());
    }
    bytes
}

/// Inverse of [`pack_group`]: unpacks eight `B`-bit values from the first
/// `B` bytes of `bytes`.
fn unpack_group<const B: usize>(bytes: &[u8; 4 * GROUP]) -> [u32; GROUP] {
    let mask = (1u64 << B) - 1;
    let mut words = [0u64; GROUP / 2];
    for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    std::array::from_fn(|i| {
        let (word, shift) = (i * B / 64, i * B % 64);
        let mut value = words[word] >> shift;
        if shift + B > 64 {
            value |= words[word + 1] << (64 - shift);
        }
        (value & mask) as u32
    })
}

/// Packs `values` at `B` bits each into `out`, which holds exactly
/// [`packed_len`]`(values.len(), B)` bytes.
fn pack<const B: usize>(values: &[u32], out: &mut [u8]) {
    let (body, tail) = out.split_at_mut(values.len() / GROUP * B);
    let groups = values.chunks_exact(GROUP);
    let rest = groups.remainder();
    for (group, out) in groups.zip(body.chunks_exact_mut(B)) {
        out.copy_from_slice(&pack_group::<B>(group.try_into().expect("full group"))[..B]);
    }
    if !rest.is_empty() {
        let mut group = [0u32; GROUP];
        group[..rest.len()].copy_from_slice(rest);
        tail.copy_from_slice(&pack_group::<B>(&group)[..tail.len()]);
    }
}

/// Unpacks `out.len()` values at `B` bits each from `bytes`, which holds
/// exactly [`packed_len`]`(out.len(), B)` bytes.
fn unpack<const B: usize>(bytes: &[u8], out: &mut [u32]) {
    let (body, tail) = bytes.split_at(out.len() / GROUP * B);
    let mut groups = out.chunks_exact_mut(GROUP);
    for (chunk, group) in body.chunks_exact(B).zip(&mut groups) {
        let mut staged = [0u8; 4 * GROUP];
        staged[..B].copy_from_slice(chunk);
        group.copy_from_slice(&unpack_group::<B>(&staged));
    }
    let rest = groups.into_remainder();
    if !tail.is_empty() {
        let mut staged = [0u8; 4 * GROUP];
        staged[..tail.len()].copy_from_slice(tail);
        rest.copy_from_slice(&unpack_group::<B>(&staged)[..rest.len()]);
    }
}

/// Calls `$f::<B>($args)` for the runtime width `$bits` in `1..=32`.
macro_rules! with_width {
    ($bits:expr, $f:ident $args:tt) => {
        with_width!(@arms $bits, $f, $args, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    };
    (@arms $bits:expr, $f:ident, $args:tt, $($b:literal)*) => {
        match $bits {
            $($b => $f::<$b> $args,)*
            bits => panic!("packed width {bits} is outside 1..=32"),
        }
    };
}

/// Incremental writer producing a wire payload.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Appends a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Appends a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Appends an `i64` (little endian, two's complement).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.put_i64_le(v);
        self
    }

    /// Appends an `f64` (IEEE-754 bits, little endian).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends a length-prefixed vector of `u64`.
    ///
    /// Slice writers reserve the whole run up front: protocol messages ship
    /// entire flat pairwise-block buffers through these methods, so one
    /// reservation covers what would otherwise be thousands of incremental
    /// grows.
    pub fn put_u64_slice(&mut self, v: &[u64]) -> &mut Self {
        self.buf.reserve(4 + v.len() * 8);
        self.buf.put_u32_le(v.len() as u32);
        for &x in v {
            self.buf.put_u64_le(x);
        }
        self
    }

    /// Appends a length-prefixed vector of `i64` (bulk-reserved).
    pub fn put_i64_slice(&mut self, v: &[i64]) -> &mut Self {
        self.buf.reserve(4 + v.len() * 8);
        self.buf.put_u32_le(v.len() as u32);
        for &x in v {
            self.buf.put_i64_le(x);
        }
        self
    }

    /// Appends a length-prefixed vector of `u32` (bulk-reserved).
    pub fn put_u32_slice(&mut self, v: &[u32]) -> &mut Self {
        self.buf.reserve(4 + v.len() * 4);
        self.buf.put_u32_le(v.len() as u32);
        for &x in v {
            self.buf.put_u32_le(x);
        }
        self
    }

    /// Appends `values` packed at `bits` bits each (`1 ≤ bits ≤ 32`),
    /// least-significant bit first and zero-padded to a whole byte, with
    /// no length prefix: the reader must know the count. Only the low
    /// `bits` bits of each value are written.
    ///
    /// # Panics
    ///
    /// If `bits` is outside `1..=32`.
    pub fn put_packed(&mut self, values: &[u32], bits: u32) -> &mut Self {
        let start = self.buf.len();
        self.buf.resize(start + packed_len(values.len(), bits), 0);
        let out = &mut self.buf[start..];
        with_width!(bits, pack(values, out));
        self
    }

    /// Appends a packed section that is already laid out the way
    /// [`put_packed`](Self::put_packed) writes one, byte for byte.
    pub fn put_packed_raw(&mut self, section: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(section);
        self
    }

    /// Appends a length-prefixed vector of `f64` (bulk-reserved).
    pub fn put_f64_slice(&mut self, v: &[f64]) -> &mut Self {
        self.buf.reserve(4 + v.len() * 8);
        self.buf.put_u32_le(v.len() as u32);
        for &x in v {
            self.buf.put_f64_le(x);
        }
        self
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalises the payload, handing the buffer over without copying.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reader over a wire payload.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        WireReader { buf: payload }
    }

    fn need(&self, n: usize) -> Result<(), NetError> {
        if self.buf.remaining() < n {
            Err(NetError::Decode(format!(
                "needed {n} bytes, only {} remaining",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, NetError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, NetError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, NetError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, NetError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, NetError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, NetError> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Reads a length-prefixed byte string as a slice of the payload,
    /// without copying.
    pub fn get_bytes_ref(&mut self) -> Result<&'a [u8], NetError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let (bytes, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, NetError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|e| NetError::Decode(format!("invalid utf-8: {e}")))
    }

    /// Reads a length-prefixed vector of `u64`.
    ///
    /// The vector getters decode straight off the payload slice in fixed
    /// 8-/4-byte chunks (one bounds check up front, no per-element cursor
    /// bookkeeping): protocol sessions move whole pairwise blocks through
    /// these calls, so they sit on the hot path.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, NetError> {
        let len = self.get_u32()? as usize;
        let bytes = len.saturating_mul(8);
        self.need(bytes)?;
        let out = self.buf[..bytes]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        self.buf.advance(bytes);
        Ok(out)
    }

    /// Reads a length-prefixed vector of `i64` (bulk-decoded).
    pub fn get_i64_vec(&mut self) -> Result<Vec<i64>, NetError> {
        let len = self.get_u32()? as usize;
        let bytes = len.saturating_mul(8);
        self.need(bytes)?;
        let out = self.buf[..bytes]
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        self.buf.advance(bytes);
        Ok(out)
    }

    /// Reads a length-prefixed vector of `u32` (bulk-decoded).
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, NetError> {
        let len = self.get_u32()? as usize;
        let bytes = len.saturating_mul(4);
        self.need(bytes)?;
        let out = self.buf[..bytes]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        self.buf.advance(bytes);
        Ok(out)
    }

    /// Reads `count` values packed at `bits` bits each, as
    /// [`WireWriter::put_packed`] writes them.
    ///
    /// Checks the section as [`get_packed_raw`](Self::get_packed_raw)
    /// does, before allocating; a successful read allocates exactly
    /// `count` values, so whatever `count` claims, the result holds at
    /// most `8 · remaining / bits` of them.
    ///
    /// # Panics
    ///
    /// If `bits` is outside `1..=32`.
    pub fn get_packed(&mut self, count: u64, bits: u32) -> Result<Vec<u32>, NetError> {
        let bytes = self.get_packed_raw(count, bits)?;
        let mut out = vec![0u32; count as usize];
        with_width!(bits, unpack(bytes, &mut out));
        Ok(out)
    }

    /// Reads the bytes of a section of `count` values packed at `bits`
    /// bits each, without unpacking them.
    ///
    /// Fails unless the payload holds the `count · bits` bits, and if a
    /// padding bit after the last value is set, so every accepted section
    /// re-encodes to the same bytes.
    pub fn get_packed_raw(&mut self, count: u64, bits: u32) -> Result<&'a [u8], NetError> {
        let needed = (u128::from(count) * u128::from(bits)).div_ceil(8);
        if needed > self.buf.remaining() as u128 {
            return Err(NetError::Decode(format!(
                "{count} values of {bits} bits need {needed} bytes, only {} remaining",
                self.buf.remaining()
            )));
        }
        let (bytes, rest) = self.buf.split_at(needed as usize);
        // The padding is the high bits of the last byte that no value
        // occupies.
        let used = (u128::from(count) * u128::from(bits) % 8) as u32;
        if used != 0 && bytes[bytes.len() - 1] >> used != 0 {
            return Err(NetError::Decode(
                "nonzero padding bits after a packed section".into(),
            ));
        }
        self.buf = rest;
        Ok(bytes)
    }

    /// Reads a length-prefixed vector of `f64` (bulk-decoded).
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, NetError> {
        let len = self.get_u32()? as usize;
        let bytes = len.saturating_mul(8);
        self.need(bytes)?;
        let out = self.buf[..bytes]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        self.buf.advance(bytes);
        Ok(out)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Asserts the whole payload has been consumed.
    pub fn expect_end(&self) -> Result<(), NetError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(NetError::Decode(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_collections() {
        let mut w = WireWriter::new();
        w.put_u8(7)
            .put_u32(42)
            .put_u64(u64::MAX)
            .put_i64(-123456789)
            .put_f64(3.5)
            .put_str("edit-distance")
            .put_u64_slice(&[1, 2, 3])
            .put_i64_slice(&[-1, 0, 1])
            .put_u32_slice(&[9, 8])
            .put_f64_slice(&[0.25, 0.5])
            .put_packed(&[3, 0, 1], 2);
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -123456789);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert_eq!(r.get_str().unwrap(), "edit-distance");
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_i64_vec().unwrap(), vec![-1, 0, 1]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![9, 8]);
        assert_eq!(r.get_f64_vec().unwrap(), vec![0.25, 0.5]);
        assert_eq!(r.get_packed(3, 2).unwrap(), vec![3, 0, 1]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let mut w = WireWriter::new();
        w.put_u64_slice(&[1, 2, 3, 4]);
        let payload = w.finish();
        let mut r = WireReader::new(&payload[..payload.len() - 3]);
        assert!(r.get_u64_vec().is_err());
        let mut r = WireReader::new(&[]);
        assert!(r.get_u8().is_err());
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn bogus_length_prefix_is_rejected() {
        // Claims 1000 u64s but provides none.
        let mut w = WireWriter::new();
        w.put_u32(1000);
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        assert!(r.get_u64_vec().is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xff, 0xfe, 0xfd]);
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.put_u8(1).put_u8(2);
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        r.get_u8().unwrap();
        assert!(r.expect_end().is_err());
    }

    /// Bit-at-a-time reference for the packed layout: value `i` occupies
    /// stream bits `[i·bits, (i+1)·bits)`, and stream bit `k` is bit
    /// `k % 8` of byte `k / 8`.
    fn pack_reference(values: &[u32], bits: u32) -> Vec<u8> {
        let mut out = vec![0u8; packed_len(values.len(), bits)];
        for (i, &value) in values.iter().enumerate() {
            for bit in 0..bits as usize {
                if value >> bit & 1 == 1 {
                    let at = i * bits as usize + bit;
                    out[at / 8] |= 1 << (at % 8);
                }
            }
        }
        out
    }

    #[test]
    fn packed_width_is_the_ceiling_log2_of_the_range() {
        for (symbols, bits) in [
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (26, 5),
            (256, 8),
            (257, 9),
            (1 << 31, 31),
            ((1 << 31) + 1, 32),
            (u32::MAX, 32),
        ] {
            assert_eq!(packed_width(symbols), bits, "{symbols} symbols");
        }
    }

    #[test]
    fn packed_sections_roundtrip_at_every_width_and_tail_length() {
        for bits in 1..=32u32 {
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            for len in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 61, 64] {
                let values: Vec<u32> = (0..len as u32)
                    .map(|i| i.wrapping_mul(0x9e37_79b9).rotate_left(i) & mask)
                    .collect();
                let mut w = WireWriter::new();
                w.put_u8(0xaa).put_packed(&values, bits).put_u8(0x55);
                let payload = w.finish();
                assert_eq!(payload.len(), 2 + packed_len(len, bits));
                assert_eq!(
                    &payload[1..payload.len() - 1],
                    &pack_reference(&values, bits)[..],
                    "{bits} bits, {len} values"
                );
                let mut r = WireReader::new(&payload);
                assert_eq!(r.get_u8().unwrap(), 0xaa);
                assert_eq!(r.get_packed(len as u64, bits).unwrap(), values);
                assert_eq!(r.get_u8().unwrap(), 0x55);
                assert!(r.expect_end().is_ok());
            }
        }
    }

    #[test]
    fn packed_writer_keeps_only_the_low_bits() {
        let mut w = WireWriter::new();
        w.put_packed(&[0b111, 0b1110], 2);
        assert_eq!(w.finish(), vec![0b1011]);
    }

    #[test]
    fn set_padding_bits_are_rejected() {
        // Three 3-bit values fill 9 bits of 16: bits 9..16 are padding.
        let mut w = WireWriter::new();
        w.put_packed(&[5, 2, 7], 3);
        let payload = w.finish();
        assert_eq!(
            WireReader::new(&payload).get_packed(3, 3).unwrap(),
            [5, 2, 7]
        );
        for bit in 9..16 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                WireReader::new(&flipped).get_packed(3, 3).is_err(),
                "bit {bit}"
            );
            assert!(
                WireReader::new(&flipped).get_packed_raw(3, 3).is_err(),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn raw_sections_pass_through_unchanged() {
        let mut w = WireWriter::new();
        w.put_packed(&[5, 2, 7, 1], 3);
        let section = w.finish();
        let mut w = WireWriter::new();
        w.put_u8(9).put_packed_raw(&section).put_u8(4);
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_packed_raw(4, 3).unwrap(), &section[..]);
        assert_eq!(r.get_u8().unwrap(), 4);
        assert!(r.expect_end().is_ok());
        // A section that fills its last byte has no padding to check.
        assert_eq!(
            WireReader::new(&[0xff; 3]).get_packed_raw(3, 8).unwrap(),
            &[0xff; 3]
        );
        assert!(WireReader::new(&[0xff; 3]).get_packed_raw(4, 8).is_err());
    }

    #[test]
    fn packed_reader_checks_the_count_against_the_payload_first() {
        // Five bytes back at most 40 one-bit values, or 13 of three bits.
        let payload = [0u8; 5];
        assert_eq!(
            WireReader::new(&payload).get_packed(40, 1).unwrap().len(),
            40
        );
        assert_eq!(
            WireReader::new(&payload).get_packed(13, 3).unwrap().len(),
            13
        );
        for (count, bits) in [(41, 1), (14, 3), (2, 32), (u64::MAX, 32), (u64::MAX, 1)] {
            assert!(
                WireReader::new(&payload).get_packed(count, bits).is_err(),
                "{count} × {bits} bits"
            );
        }
    }

    #[test]
    fn sizes_match_element_counts() {
        // The cost experiments rely on 8 bytes per masked numeric element
        // plus a 4-byte length prefix.
        let mut w = WireWriter::new();
        w.put_i64_slice(&vec![0i64; 100]);
        assert_eq!(w.len(), 4 + 100 * 8);
    }
}
