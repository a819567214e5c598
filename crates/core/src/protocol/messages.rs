//! Wire formats of the protocol messages.
//!
//! Every inter-party transfer of an engine session is one of these typed
//! messages, serialised with the compact binary codec of `ppc-net` so the
//! measured byte counts reflect the element counts in the paper's
//! communication-cost analysis (8 bytes per masked numeric value,
//! ⌈log₂|A|⌉ bits per masked character or CCM cell, 16 bytes per
//! categorical ciphertext, 8 bytes per local-matrix entry).
//!
//! The alphanumeric messages pack their symbols and cells at
//! [`packed_width`]`(|A|)` bits, so their `encode` and `decode` take the
//! attribute's alphabet size `|A|`; the width itself is never sent. A
//! [`MaskedCcmBundle`] holds its cells in that packed layout already, so
//! its codecs copy the section: nothing is packed or unpacked.

use ppc_cluster::Linkage;
use ppc_net::{packed_len, packed_width, WireReader, WireWriter};

use crate::error::CoreError;
use crate::pairwise::PairwiseBlock;
use crate::protocol::alphanumeric::{bundle_cells, MaskedCcmBundle};

/// Guards count-prefixed decode loops against huge-allocation attacks: a
/// declared element count whose minimum encoding cannot fit in the
/// remaining payload is rejected *before* any `Vec::with_capacity` call.
/// (The codec's slice getters validate this internally; this covers the
/// element-by-element loops.)
pub(crate) fn check_count(
    count: usize,
    min_elem_bytes: usize,
    reader: &WireReader<'_>,
) -> Result<(), CoreError> {
    if count.saturating_mul(min_elem_bytes) > reader.remaining() {
        return Err(CoreError::Protocol(format!(
            "declared count {count} needs at least {} bytes, only {} remain",
            count.saturating_mul(min_elem_bytes),
            reader.remaining()
        )));
    }
    Ok(())
}

/// A data holder's local dissimilarity matrix for one attribute (Figure 12
/// output, shipped to the third party).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalMatrixMsg {
    /// Attribute name.
    pub attribute: String,
    /// Number of objects the matrix covers.
    pub objects: u32,
    /// Packed lower-triangular distances.
    pub condensed: Vec<f64>,
}

impl LocalMatrixMsg {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(16 + self.condensed.len() * 8);
        w.put_str(&self.attribute)
            .put_u32(self.objects)
            .put_f64_slice(&self.condensed);
        w.finish()
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attribute = r.get_str()?;
        let objects = r.get_u32()?;
        let condensed = r.get_f64_vec()?;
        r.expect_end()?;
        Ok(LocalMatrixMsg {
            attribute,
            objects,
            condensed,
        })
    }
}

/// Writes `attribute`, the `u32` header fields, then `values`: the
/// layouts of §6.2–§6.4.
fn encode_i64_cells(attribute: &str, header: &[u32], values: &[i64]) -> Vec<u8> {
    let mut w =
        WireWriter::with_capacity(8 + attribute.len() + 4 * header.len() + 8 * values.len());
    w.put_str(attribute);
    for &field in header {
        w.put_u32(field);
    }
    w.put_i64_slice(values);
    w.finish()
}

/// A whole `i64` block (§6.2): `DH_J → DH_K`, the masked numeric column
/// (batch mode, one row) or the masked copies (per-pair mode, `|DH_K|`
/// rows); and, as [`PairwiseMatrixMsg`] (§6.3, the same layout),
/// `DH_K → TP`, the pairwise comparison matrix.
///
/// The payload carries the [`PairwiseBlock`] buffer verbatim: the row-major
/// flat layout *is* the wire layout, so encoding and decoding move one
/// contiguous slice instead of re-chunking nested vectors. A whole block
/// of a pairwise stream is that stream's one window `[0, rows)` without
/// the window header: [`From`] turns it into that [`PairwiseChunkMsg`],
/// and [`PairwiseChunkMsg::encode_whole`] writes it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedNumericMsg {
    /// Attribute name.
    pub attribute: String,
    /// The cells: `rows × |DH_J|`, row-major.
    pub block: PairwiseBlock<i64>,
}

/// `DH_K → TP`: the pairwise comparison matrix `s` (`|DH_K| × |DH_J|`),
/// masked differences in the layout of [`MaskedNumericMsg`].
pub type PairwiseMatrixMsg = MaskedNumericMsg;

impl MaskedNumericMsg {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let shape = [self.block.rows() as u32, self.block.cols() as u32];
        encode_i64_cells(&self.attribute, &shape, self.block.values())
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attribute = r.get_str()?;
        let rows = r.get_u32()? as usize;
        let cols = r.get_u32()? as usize;
        let values = r.get_i64_vec()?;
        r.expect_end()?;
        let block = PairwiseBlock::new(rows, cols, values)?;
        Ok(MaskedNumericMsg { attribute, block })
    }
}

/// A row-windowed slice of a pairwise `i64` block: one window of a
/// stream.
///
/// Streams run on two links: `DH_J → DH_K` carries masked per-pair copies
/// and `DH_K → TP` carries pairwise comparison rows. When a chunk window
/// is configured each window travels in this layout (`masked-chunk` and
/// `pairwise-chunk` topics, §6.4); otherwise the stream's one window
/// travels whole ([`encode_whole`](Self::encode_whole)). The header
/// names the window so the receiver can fold rows into its condensed
/// accumulator as they arrive, and the `total_rows` field lets it detect
/// stream completion without a separate end-of-stream message. Chunks of
/// one stream must be delivered in row order (transports guarantee
/// per-link FIFO).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseChunkMsg {
    /// Attribute name.
    pub attribute: String,
    /// First responder row this chunk covers.
    pub start_row: u32,
    /// Rows carried by this chunk (explicit so zero-column streams still
    /// account progress).
    pub rows: u32,
    /// Total rows of the full stream (the responder's object count).
    pub total_rows: u32,
    /// Columns per row (the initiator's object count).
    pub cols: u32,
    /// `rows × cols` cells, row-major.
    pub values: Vec<i64>,
}

impl From<MaskedNumericMsg> for PairwiseChunkMsg {
    /// A whole block as its stream's one window `[0, rows)`.
    fn from(msg: MaskedNumericMsg) -> Self {
        let rows = msg.block.rows() as u32;
        PairwiseChunkMsg {
            attribute: msg.attribute,
            start_row: 0,
            rows,
            total_rows: rows,
            cols: msg.block.cols() as u32,
            values: msg.block.into_values(),
        }
    }
}

impl PairwiseChunkMsg {
    /// Rows carried by this chunk.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let header = [self.start_row, self.rows, self.total_rows, self.cols];
        encode_i64_cells(&self.attribute, &header, &self.values)
    }

    /// Serialises the stream's one window `[0, total_rows)` as a whole
    /// block (§6.2, §6.3): the window without its `start_row` and
    /// `total_rows`, the bytes of the [`MaskedNumericMsg`] of its rows.
    pub fn encode_whole(&self) -> Vec<u8> {
        encode_i64_cells(&self.attribute, &[self.rows, self.cols], &self.values)
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attribute = r.get_str()?;
        let start_row = r.get_u32()?;
        let rows = r.get_u32()?;
        let total_rows = r.get_u32()?;
        let cols = r.get_u32()?;
        let values = r.get_i64_vec()?;
        r.expect_end()?;
        if values.len() != rows as usize * cols as usize {
            return Err(CoreError::Protocol(format!(
                "pairwise chunk carries {} cells for a {rows}×{cols} window",
                values.len()
            )));
        }
        if start_row as usize + rows as usize > total_rows as usize {
            return Err(CoreError::Protocol(format!(
                "pairwise chunk rows {start_row}..{} exceed the declared total of {total_rows}",
                start_row as usize + rows as usize
            )));
        }
        Ok(PairwiseChunkMsg {
            attribute,
            start_row,
            rows,
            total_rows,
            cols,
            values,
        })
    }
}

/// Writes `attribute`, the `u32` header fields, then a bundle as
/// `responder_lens`, `initiator_lens` and every cell packed for an
/// alphabet of `alphabet_size` symbols: the layouts of §6.6 and §6.7. The
/// bundle already holds the packed section, so it is copied.
///
/// # Panics
///
/// If the bundle's cells are not that wide, that is, if it was built for
/// an alphabet of another width.
fn encode_ccms(
    attribute: &str,
    header: &[u32],
    bundle: &MaskedCcmBundle,
    alphabet_size: u32,
) -> Vec<u8> {
    assert_eq!(
        bundle.bits(),
        packed_width(alphabet_size),
        "a CCM bundle is encoded at the width it was built for"
    );
    let lens = 4 * (bundle.responder_count() + bundle.initiator_count());
    let capacity = 12 + attribute.len() + 4 * header.len() + lens + bundle.packed().len();
    let mut w = WireWriter::with_capacity(capacity);
    w.put_str(attribute);
    for &field in header {
        w.put_u32(field);
    }
    w.put_u32_slice(bundle.responder_lens())
        .put_u32_slice(bundle.initiator_lens())
        .put_packed_raw(bundle.packed());
    w.finish()
}

/// Reads the bundle [`encode_ccms`] writes: the two length vectors fix the
/// cell count, `Σ responder_lens · Σ initiator_lens`, and the packed
/// section is kept as it arrived.
fn get_bundle(r: &mut WireReader<'_>, bits: u32) -> Result<MaskedCcmBundle, CoreError> {
    let responder_lens = r.get_u32_vec()?;
    let initiator_lens = r.get_u32_vec()?;
    let count = bundle_cells(&responder_lens, &initiator_lens).ok_or_else(|| {
        CoreError::Protocol("CCM string lengths need more than 2^64 cells".into())
    })?;
    let packed = r.get_packed_raw(count, bits)?.to_vec();
    Ok(MaskedCcmBundle::from_packed(
        responder_lens,
        initiator_lens,
        bits,
        packed,
    ))
}

/// A responder-row window of the masked CCM bundle (`DH_K → TP`): on
/// `ccms-chunk` topics when a chunk window is configured (§6.7), otherwise
/// the stream's one window, whole ([`encode_whole`](Self::encode_whole)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcmChunkMsg {
    /// Attribute name.
    pub attribute: String,
    /// First responder row (responder string index) this chunk covers.
    pub start_row: u32,
    /// Total responder rows of the full stream.
    pub total_rows: u32,
    /// The window's matrices: its responder rows × the initiator's
    /// objects, row-major.
    pub window: MaskedCcmBundle,
}

impl From<CcmBundleMsg> for CcmChunkMsg {
    /// A whole bundle as its stream's one window `[0, responders)`.
    fn from(msg: CcmBundleMsg) -> Self {
        CcmChunkMsg {
            attribute: msg.attribute,
            start_row: 0,
            total_rows: msg.bundle.responder_count() as u32,
            window: msg.bundle,
        }
    }
}

impl CcmChunkMsg {
    /// Responder rows carried by this chunk.
    pub fn rows(&self) -> usize {
        self.window.responder_count()
    }

    /// Serialises the message for an alphabet of `alphabet_size` symbols,
    /// the alphabet its window was built for.
    pub fn encode(&self, alphabet_size: u32) -> Vec<u8> {
        let header = [self.start_row, self.total_rows];
        encode_ccms(&self.attribute, &header, &self.window, alphabet_size)
    }

    /// Serialises the stream's one window `[0, total_rows)` as a whole
    /// bundle (§6.6): the window without its `start_row` and `total_rows`,
    /// the bytes of the [`CcmBundleMsg`] of its rows.
    pub fn encode_whole(&self, alphabet_size: u32) -> Vec<u8> {
        encode_ccms(&self.attribute, &[], &self.window, alphabet_size)
    }

    /// Deserialises the message for an alphabet of `alphabet_size`
    /// symbols, keeping its cells packed.
    pub fn decode(payload: &[u8], alphabet_size: u32) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attribute = r.get_str()?;
        let start_row = r.get_u32()?;
        let total_rows = r.get_u32()?;
        let window = get_bundle(&mut r, packed_width(alphabet_size))?;
        r.expect_end()?;
        let end = u64::from(start_row) + window.responder_count() as u64;
        if end > u64::from(total_rows) {
            return Err(CoreError::Protocol(format!(
                "CCM chunk rows {start_row}..{end} exceed the declared total of {total_rows}"
            )));
        }
        Ok(CcmChunkMsg {
            attribute,
            start_row,
            total_rows,
            window,
        })
    }
}

/// `DH_J → DH_K`: masked alphanumeric strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedStringsMsg {
    /// Attribute name.
    pub attribute: String,
    /// Masked strings as symbol indices.
    pub strings: Vec<Vec<u32>>,
}

impl MaskedStringsMsg {
    /// Serialises the message, packing symbols for an alphabet of
    /// `alphabet_size` symbols.
    pub fn encode(&self, alphabet_size: u32) -> Vec<u8> {
        let bits = packed_width(alphabet_size);
        let lens: Vec<u32> = self.strings.iter().map(|s| s.len() as u32).collect();
        let symbols = self.strings.concat();
        let capacity = 8 + self.attribute.len() + 4 * lens.len() + packed_len(symbols.len(), bits);
        let mut w = WireWriter::with_capacity(capacity);
        w.put_str(&self.attribute)
            .put_u32_slice(&lens)
            .put_packed(&symbols, bits);
        w.finish()
    }

    /// Deserialises the message, unpacking symbols for an alphabet of
    /// `alphabet_size` symbols.
    pub fn decode(payload: &[u8], alphabet_size: u32) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attribute = r.get_str()?;
        let lens = r.get_u32_vec()?;
        let count = lens.iter().map(|&len| u64::from(len)).sum();
        let symbols = r.get_packed(count, packed_width(alphabet_size))?;
        r.expect_end()?;
        let mut rest = symbols.as_slice();
        let strings = lens
            .iter()
            .map(|&len| {
                let (string, tail) = rest.split_at(len as usize);
                rest = tail;
                string.to_vec()
            })
            .collect();
        Ok(MaskedStringsMsg { attribute, strings })
    }
}

/// `DH_K → TP`: the bundle of intermediary (masked) character comparison
/// matrices, whole: its stream's one window `[0, responders)` without the
/// window header ([`From`] turns it into that [`CcmChunkMsg`], and
/// [`CcmChunkMsg::encode_whole`] writes it back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcmBundleMsg {
    /// Attribute name.
    pub attribute: String,
    /// The bundle.
    pub bundle: MaskedCcmBundle,
}

impl CcmBundleMsg {
    /// Serialises the message for an alphabet of `alphabet_size` symbols,
    /// the alphabet its bundle was built for.
    pub fn encode(&self, alphabet_size: u32) -> Vec<u8> {
        encode_ccms(&self.attribute, &[], &self.bundle, alphabet_size)
    }

    /// Deserialises the message for an alphabet of `alphabet_size`
    /// symbols, keeping its cells packed.
    pub fn decode(payload: &[u8], alphabet_size: u32) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attribute = r.get_str()?;
        let bundle = get_bundle(&mut r, packed_width(alphabet_size))?;
        r.expect_end()?;
        Ok(CcmBundleMsg { attribute, bundle })
    }
}

/// `DH_i → TP`: a deterministic-encrypted categorical column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedColumnMsg {
    /// Attribute name.
    pub attribute: String,
    /// 16-byte deterministic tags, one per object.
    pub tags: Vec<[u8; 16]>,
}

impl EncryptedColumnMsg {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(8 + self.tags.len() * 16);
        w.put_str(&self.attribute).put_u32(self.tags.len() as u32);
        for tag in &self.tags {
            w.put_bytes(tag);
        }
        w.finish()
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attribute = r.get_str()?;
        let count = r.get_u32()? as usize;
        // Each tag is a 4-byte length prefix plus 16 bytes.
        check_count(count, 20, &r)?;
        let mut tags = Vec::with_capacity(count);
        for _ in 0..count {
            let raw = r.get_bytes()?;
            let tag: [u8; 16] = raw
                .try_into()
                .map_err(|_| CoreError::Protocol("categorical tag is not 16 bytes".into()))?;
            tags.push(tag);
        }
        r.expect_end()?;
        Ok(EncryptedColumnMsg { attribute, tags })
    }
}

/// `DH_i → TP`: the holder's attribute weight vector and clustering choice.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringChoiceMsg {
    /// Normalised attribute weights, schema order.
    pub weights: Vec<f64>,
    /// Requested number of clusters.
    pub num_clusters: u32,
    /// Requested linkage, by name (e.g. "average").
    pub linkage: String,
}

impl ClusteringChoiceMsg {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_f64_slice(&self.weights)
            .put_u32(self.num_clusters)
            .put_str(&self.linkage);
        w.finish()
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let weights = r.get_f64_vec()?;
        let num_clusters = r.get_u32()?;
        let linkage = r.get_str()?;
        r.expect_end()?;
        Ok(ClusteringChoiceMsg {
            weights,
            num_clusters,
            linkage,
        })
    }
}

/// Parses a linkage name sent in a [`ClusteringChoiceMsg`].
pub fn parse_linkage(name: &str) -> Result<Linkage, CoreError> {
    match name.to_ascii_lowercase().as_str() {
        "single" => Ok(Linkage::Single),
        "complete" => Ok(Linkage::Complete),
        "average" => Ok(Linkage::Average),
        "weighted" => Ok(Linkage::Weighted),
        "ward" => Ok(Linkage::Ward),
        "centroid" => Ok(Linkage::Centroid),
        "median" => Ok(Linkage::Median),
        other => Err(CoreError::Protocol(format!("unknown linkage '{other}'"))),
    }
}

/// `TP → DH_i`: the published clustering result (membership lists).
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedResultMsg {
    /// For every cluster, the site-qualified `(site, local_index)` pairs.
    pub clusters: Vec<Vec<(u32, u32)>>,
    /// Published quality parameter.
    pub average_within_cluster_squared_distance: f64,
}

impl PublishedResultMsg {
    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.clusters.len() as u32);
        for cluster in &self.clusters {
            w.put_u32(cluster.len() as u32);
            for &(site, local) in cluster {
                w.put_u32(site).put_u32(local);
            }
        }
        w.put_f64(self.average_within_cluster_squared_distance);
        w.finish()
    }

    /// Deserialises the message.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let cluster_count = r.get_u32()? as usize;
        check_count(cluster_count, 4, &r)?;
        let mut clusters = Vec::with_capacity(cluster_count);
        for _ in 0..cluster_count {
            let len = r.get_u32()? as usize;
            check_count(len, 8, &r)?;
            let mut members = Vec::with_capacity(len);
            for _ in 0..len {
                members.push((r.get_u32()?, r.get_u32()?));
            }
            clusters.push(members);
        }
        let scatter = r.get_f64()?;
        r.expect_end()?;
        Ok(PublishedResultMsg {
            clusters,
            average_within_cluster_squared_distance: scatter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::alphanumeric;

    #[test]
    fn local_matrix_roundtrip_and_size() {
        let msg = LocalMatrixMsg {
            attribute: "age".into(),
            objects: 4,
            condensed: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        let bytes = msg.encode();
        assert_eq!(LocalMatrixMsg::decode(&bytes).unwrap(), msg);
        // 4 (name len) + 3 + 4 (objects) + 4 (vec len) + 6·8 bytes.
        assert_eq!(bytes.len(), 4 + 3 + 4 + 4 + 48);
    }

    #[test]
    fn masked_numeric_roundtrip_and_validation() {
        let msg = MaskedNumericMsg {
            attribute: "age".into(),
            block: PairwiseBlock::new(2, 3, vec![1, -2, 3, 4, -5, 6]).unwrap(),
        };
        assert_eq!(MaskedNumericMsg::decode(&msg.encode()).unwrap(), msg);
        // Hand-craft a payload whose claimed shape disagrees with the buffer.
        let mut w = WireWriter::new();
        w.put_str("age")
            .put_u32(9)
            .put_u32(3)
            .put_i64_slice(&[1, -2, 3, 4, -5, 6]);
        assert!(MaskedNumericMsg::decode(&w.finish()).is_err());
    }

    #[test]
    fn pairwise_matrix_roundtrip_and_rows() {
        let msg = PairwiseMatrixMsg {
            attribute: "age".into(),
            block: PairwiseBlock::new(2, 2, vec![10, 20, 30, 40]).unwrap(),
        };
        let back = PairwiseMatrixMsg::decode(&msg.encode()).unwrap();
        assert_eq!(back.block.row(0), &[10, 20]);
        assert_eq!(back.block.row(1), &[30, 40]);
        // Hand-craft a payload whose claimed shape disagrees with the buffer.
        let mut w = WireWriter::new();
        w.put_str("age")
            .put_u32(2)
            .put_u32(3)
            .put_i64_slice(&[10, 20, 30, 40]);
        assert!(PairwiseMatrixMsg::decode(&w.finish()).is_err());
    }

    #[test]
    fn a_whole_message_is_its_streams_one_window() {
        let whole = PairwiseMatrixMsg {
            attribute: "age".into(),
            block: PairwiseBlock::new(2, 3, vec![1, -2, 3, 4, -5, 6]).unwrap(),
        };
        let window = PairwiseChunkMsg::from(whole.clone());
        let header = (
            window.start_row,
            window.rows,
            window.total_rows,
            window.cols,
        );
        assert_eq!(header, (0, 2, 2, 3));
        assert_eq!(window.encode_whole(), whole.encode());
        let whole = CcmBundleMsg {
            attribute: "dna".into(),
            bundle: MaskedCcmBundle::new(vec![2], vec![3, 1], &[0, 1, 2, 3, 0, 1, 2, 3], 4)
                .unwrap(),
        };
        let window = CcmChunkMsg::from(whole.clone());
        assert_eq!((window.start_row, window.total_rows), (0, 1));
        assert_eq!(window.encode_whole(4), whole.encode(4));
    }

    #[test]
    fn masked_strings_roundtrip() {
        let msg = MaskedStringsMsg {
            attribute: "dna".into(),
            strings: vec![vec![0, 1, 2, 3], vec![], vec![3, 3]],
        };
        let bytes = msg.encode(4);
        assert_eq!(MaskedStringsMsg::decode(&bytes, 4).unwrap(), msg);
        // 4 + 3 (attribute), 4 + 3·4 (lens), six 2-bit symbols in 2 bytes.
        assert_eq!(bytes.len(), 7 + 16 + 2);
        assert_eq!(&bytes[23..], &[0b1110_0100, 0b1111]);
    }

    #[test]
    fn ccm_bundle_roundtrip() {
        let msg = CcmBundleMsg {
            attribute: "dna".into(),
            bundle: MaskedCcmBundle::new(vec![2], vec![3, 1], &[0, 1, 2, 3, 0, 1, 2, 3], 4)
                .unwrap(),
        };
        let bytes = msg.encode(4);
        assert_eq!(CcmBundleMsg::decode(&bytes, 4).unwrap(), msg);
        // 4 + 3 (attribute), 4 + 4 and 4 + 2·4 (lens), 8 cells in 2 bytes.
        assert_eq!(bytes.len(), 7 + 8 + 12 + 2);
        assert_eq!(&bytes[27..], msg.bundle.packed());
        // The width follows the alphabet: 8 cells at 5 bits take 5 bytes.
        let wide = CcmBundleMsg {
            attribute: "dna".into(),
            bundle: MaskedCcmBundle::new(vec![2], vec![3, 1], &[0, 1, 2, 3, 0, 1, 2, 3], 26)
                .unwrap(),
        };
        let bytes = wide.encode(26);
        assert_eq!(bytes.len(), 7 + 8 + 12 + 5);
        assert_eq!(CcmBundleMsg::decode(&bytes, 26).unwrap(), wide);
    }

    #[test]
    fn ccm_cell_counts_must_match_each_shape() {
        // The lengths fix the cell count, Σ responder_lens · Σ
        // initiator_lens: here 2 · 1 cells, two bits each, in one byte.
        let mut w = WireWriter::new();
        w.put_str("dna")
            .put_u32_slice(&[1, 1])
            .put_u32_slice(&[1])
            .put_packed(&[2, 3], 2);
        let bytes = w.finish();
        let decoded = CcmBundleMsg::decode(&bytes, 4).unwrap();
        assert_eq!(decoded.bundle.unpack_cells(), [2, 3]);
        // A length that claims one more cell finds no byte for it...
        let mut longer = WireWriter::new();
        longer
            .put_str("dna")
            .put_u32_slice(&[1, 1])
            .put_u32_slice(&[3])
            .put_packed(&[2, 3], 2);
        assert!(CcmBundleMsg::decode(&longer.finish(), 4).is_err());
        // ...a length that claims fewer leaves a set padding bit...
        let mut shorter = WireWriter::new();
        shorter
            .put_str("dna")
            .put_u32_slice(&[1, 0])
            .put_u32_slice(&[1])
            .put_packed(&[2, 3], 2);
        assert!(CcmBundleMsg::decode(&shorter.finish(), 4).is_err());
        // ...and a cell section with a spare byte leaves trailing bytes.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CcmBundleMsg::decode(&trailing, 4).is_err());
    }

    #[test]
    fn off_domain_values_cross_the_wire_for_the_roles_to_reject() {
        // 26 symbols take 5 bits, which can also hold 26–31: the codec
        // carries them, and DH_K and the third party refuse them.
        let strings = MaskedStringsMsg {
            attribute: "name".into(),
            strings: vec![vec![3, 30], vec![25]],
        };
        let decoded = MaskedStringsMsg::decode(&strings.encode(26), 26).unwrap();
        assert_eq!(decoded, strings);
        assert!(alphanumeric::responder_build_bundle(&decoded.strings, &[vec![1]], 26).is_err());
        let bundle = CcmBundleMsg {
            attribute: "name".into(),
            bundle: MaskedCcmBundle::new(vec![1], vec![2], &[0, 31], 26).unwrap(),
        };
        let decoded = CcmBundleMsg::decode(&bundle.encode(26), 26).unwrap();
        assert_eq!(decoded, bundle);
        let offsets = [0, 0];
        assert!(alphanumeric::third_party_edit_distances_with_offsets(
            &decoded.bundle,
            26,
            &offsets
        )
        .is_err());
    }

    #[test]
    fn encrypted_column_roundtrip_and_bad_tag_length() {
        let msg = EncryptedColumnMsg {
            attribute: "blood".into(),
            tags: vec![[1u8; 16], [2u8; 16]],
        };
        assert_eq!(EncryptedColumnMsg::decode(&msg.encode()).unwrap(), msg);
        // Hand-craft a payload with a short tag.
        let mut w = WireWriter::new();
        w.put_str("blood").put_u32(1).put_bytes(&[0u8; 5]);
        assert!(EncryptedColumnMsg::decode(&w.finish()).is_err());
    }

    #[test]
    fn clustering_choice_and_result_roundtrip() {
        let choice = ClusteringChoiceMsg {
            weights: vec![0.5, 0.25, 0.25],
            num_clusters: 3,
            linkage: "average".into(),
        };
        assert_eq!(
            ClusteringChoiceMsg::decode(&choice.encode()).unwrap(),
            choice
        );
        let result = PublishedResultMsg {
            clusters: vec![vec![(0, 0), (1, 3)], vec![(2, 2)]],
            average_within_cluster_squared_distance: 0.125,
        };
        assert_eq!(
            PublishedResultMsg::decode(&result.encode()).unwrap(),
            result
        );
    }

    #[test]
    fn parse_linkage_accepts_all_names() {
        for l in Linkage::ALL {
            let name = format!("{l:?}").to_lowercase();
            assert_eq!(parse_linkage(&name).unwrap(), l);
        }
        assert!(parse_linkage("nonsense").is_err());
    }

    #[test]
    fn pairwise_chunk_roundtrip_and_validation() {
        let msg = PairwiseChunkMsg {
            attribute: "age".into(),
            start_row: 2,
            rows: 2,
            total_rows: 7,
            cols: 3,
            values: vec![1, -2, 3, 4, -5, 6],
        };
        assert_eq!(msg.rows(), 2);
        assert_eq!(PairwiseChunkMsg::decode(&msg.encode()).unwrap(), msg);
        // A zero-column stream still accounts its rows explicitly.
        let zero_cols = PairwiseChunkMsg {
            attribute: "age".into(),
            start_row: 0,
            rows: 4,
            total_rows: 4,
            cols: 0,
            values: vec![],
        };
        let back = PairwiseChunkMsg::decode(&zero_cols.encode()).unwrap();
        assert_eq!(back.rows(), 4);
        // Cell counts that disagree with the window shape are rejected.
        let ragged = PairwiseChunkMsg {
            attribute: "age".into(),
            start_row: 0,
            rows: 2,
            total_rows: 4,
            cols: 3,
            values: vec![1, 2, 3, 4],
        };
        assert!(PairwiseChunkMsg::decode(&ragged.encode()).is_err());
        // Rows overflowing the declared total are rejected.
        let overflow = PairwiseChunkMsg {
            attribute: "age".into(),
            start_row: 6,
            rows: 2,
            total_rows: 7,
            cols: 3,
            values: vec![0; 6],
        };
        assert!(PairwiseChunkMsg::decode(&overflow.encode()).is_err());
    }

    #[test]
    fn ccm_chunk_roundtrip_and_validation() {
        let msg = CcmChunkMsg {
            attribute: "dna".into(),
            start_row: 1,
            total_rows: 3,
            window: MaskedCcmBundle::new(vec![2], vec![2, 2], &[0, 1, 2, 3, 0, 1, 2, 3], 4)
                .unwrap(),
        };
        assert_eq!(msg.rows(), 1);
        let bytes = msg.encode(4);
        assert_eq!(CcmChunkMsg::decode(&bytes, 4).unwrap(), msg);
        // The window's row count is the length of `responder_lens`: a
        // total that leaves no room for it is rejected.
        let total_rows_at = 4 + 3 + 4;
        let mut overflow = bytes.clone();
        overflow[total_rows_at..total_rows_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(CcmChunkMsg::decode(&overflow, 4).is_err());
        let mut huge_start = bytes.clone();
        huge_start[total_rows_at - 4..total_rows_at].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(CcmChunkMsg::decode(&huge_start, 4).is_err());
    }

    #[test]
    fn truncated_messages_error() {
        let msg = MaskedStringsMsg {
            attribute: "dna".into(),
            strings: vec![vec![1, 2, 3]],
        };
        let bytes = msg.encode(4);
        for cut in 0..bytes.len() {
            assert!(MaskedStringsMsg::decode(&bytes[..cut], 4).is_err());
        }
        assert!(LocalMatrixMsg::decode(&[]).is_err());
    }
}
