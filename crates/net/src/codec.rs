//! Compact binary wire format.
//!
//! The paper's communication-cost analysis counts transferred *elements*
//! (numbers, characters, matrix cells). To turn that into measured bytes we
//! serialize protocol messages with a small, deterministic, length-prefixed
//! binary codec rather than a self-describing format, so the measured sizes
//! track the element counts closely (8 bytes per masked numeric value, 1–4
//! bytes per masked character, and so on).

use bytes::{Buf, BufMut, BytesMut};

use crate::error::NetError;

/// Elements [`WireWriter::put_u32_slice`] converts per copy.
const U32_RUN: usize = 256;

/// Incremental writer producing a wire payload.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter {
            buf: BytesMut::new(),
        }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(capacity),
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
    ///
    /// The elements are staged 256 at a time in a stack buffer and
    /// appended with one copy per run, instead of one 4-byte append each:
    /// the staging loop is a plain byte-order conversion the compiler
    /// vectorizes. CCM bundles, the largest protocol messages, are written
    /// through here.
    pub fn put_u32_slice(&mut self, v: &[u32]) -> &mut Self {
        self.buf.reserve(4 + v.len() * 4);
        self.buf.put_u32_le(v.len() as u32);
        let mut staged = [0u8; 4 * U32_RUN];
        for run in v.chunks(U32_RUN) {
            let bytes = &mut staged[..4 * run.len()];
            for (out, &x) in bytes.chunks_exact_mut(4).zip(run) {
                out.copy_from_slice(&x.to_le_bytes());
            }
            self.buf.put_slice(bytes);
        }
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
        self.buf.into()
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
    /// bookkeeping): protocol sessions move whole pairwise blocks and CCM
    /// bundles through these calls, so they sit on the hot path.
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
        let mut out = Vec::new();
        self.append_u32_vec(&mut out)?;
        Ok(out)
    }

    /// Reads a length-prefixed vector of `u32` onto the end of `out` and
    /// returns its length, so a decoder can gather many vectors into one
    /// buffer.
    ///
    /// `out` grows only after the elements are known to be in the payload,
    /// and then by exactly their number: whatever a length prefix claims,
    /// this call adds at most a quarter of the remaining bytes to `out`'s
    /// capacity.
    pub fn append_u32_vec(&mut self, out: &mut Vec<u32>) -> Result<usize, NetError> {
        let len = self.get_u32()? as usize;
        let bytes = len.saturating_mul(4);
        self.need(bytes)?;
        out.reserve_exact(len);
        out.extend(
            self.buf[..bytes]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
        self.buf.advance(bytes);
        Ok(len)
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
            .put_f64_slice(&[0.25, 0.5]);
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

    #[test]
    fn u32_slices_roundtrip_across_staging_runs() {
        for len in [0, 1, U32_RUN - 1, U32_RUN, U32_RUN + 1, 3 * U32_RUN + 7] {
            let values: Vec<u32> = (0..len as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9))
                .collect();
            let mut w = WireWriter::new();
            w.put_u32_slice(&values);
            let payload = w.finish();
            let mut expected = (len as u32).to_le_bytes().to_vec();
            for x in &values {
                expected.extend_from_slice(&x.to_le_bytes());
            }
            assert_eq!(payload, expected);
            let mut r = WireReader::new(&payload);
            let mut out = vec![7];
            assert_eq!(r.append_u32_vec(&mut out).unwrap(), len);
            assert_eq!(out[0], 7);
            assert_eq!(&out[1..], &values[..]);
            assert!(r.expect_end().is_ok());
        }
    }

    #[test]
    fn appending_reader_grows_only_by_what_the_payload_holds() {
        // Claims a million u32s but carries three: the read fails and the
        // buffer has not grown.
        let mut w = WireWriter::new();
        w.put_u32(1_000_000).put_u32(1).put_u32(2).put_u32(3);
        let payload = w.finish();
        let mut out = Vec::new();
        assert!(WireReader::new(&payload).append_u32_vec(&mut out).is_err());
        assert_eq!(out.capacity(), 0);
        // An honest prefix grows the buffer by exactly its length.
        let mut w = WireWriter::new();
        w.put_u32_slice(&[4, 5, 6]);
        let payload = w.finish();
        assert_eq!(
            WireReader::new(&payload).append_u32_vec(&mut out).unwrap(),
            3
        );
        assert_eq!(out.capacity(), 3);
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
