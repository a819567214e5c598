//! ChaCha20-Poly1305 authenticated encryption (RFC 8439).
//!
//! The paper assumes the pairwise channels between data holders and the
//! third party "must be secured"; this module provides the sealing
//! primitive the socket tier uses to make that assumption real. Like the
//! rest of the crate it is implemented from scratch (the repository is a
//! self-contained reproduction with no registry access): the ChaCha20
//! keystream comes from the interleaved wide kernel shared with the
//! protocol stream generator ([`crate::prng::chacha`]), and Poly1305
//! accumulates in radix-2^44 (three 64-bit limbs, 128-bit products, lazy
//! carries) with a four-block stride over precomputed powers of `r`.
//! `seal`/`open` run keystream and MAC fused in one pass over 512-byte
//! runs. The scalar block function and the single-block Poly1305 path
//! are retained as test oracles; both paths and the composed AEAD are
//! checked against the RFC 8439 test vectors, plus scalar-vs-vectorized
//! equivalence property tests.
//!
//! The construction is the standard one:
//!
//! * the one-time Poly1305 key is the first 32 bytes of the ChaCha20
//!   keystream at counter 0;
//! * the plaintext is XORed with the keystream starting at counter 1;
//! * the tag authenticates `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖
//!   len(aad) ‖ len(ciphertext)` (lengths as little-endian `u64`).
//!
//! Nonces are the caller's responsibility: a (key, nonce) pair must never
//! seal two different messages. The socket tier derives nonces from a
//! per-connection salt plus the implicit per-link frame sequence number,
//! so retransmitted frames re-seal deterministically and fresh traffic
//! never reuses a nonce (see `ppc-net::secure`).

use crate::error::CryptoError;
use crate::prng::chacha::{chacha20_block, chacha20_blocks8, chacha20_xor8};
use crate::prng::Seed;

/// AEAD key length in bytes.
pub const KEY_LEN: usize = 32;

/// AEAD nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

/// One-shot Poly1305 MAC over a byte string (RFC 8439 §2.5).
///
/// The key is one-time: it must never authenticate two messages. Inside
/// the AEAD it is derived per nonce from the ChaCha20 keystream.
///
/// The arithmetic uses radix-2^44 limbs (three `u64`s, `u128` products):
/// a block is three wide multiplies per output limb instead of the five
/// of the classic 26-bit-limb layout, and the per-block reduction is lazy
/// — one partial carry pass plus the 2^130 ≡ 5 fold, leaving limbs a few
/// bits over 44/42 for the next round's products to absorb. The full
/// reduction happens once, in [`finalize`](Self::finalize).
#[derive(Debug, Clone)]
pub struct Poly1305 {
    /// Clamped `r`, radix-2^44 limbs.
    r: [u64; 3],
    /// `r1 * 20` and `r2 * 20`: the 2^132 ≡ 20 wraparound limbs,
    /// pre-scaled.
    r20: [u64; 2],
    /// `r²`, `r³`, `r⁴` for the four-block stride of
    /// [`blocks`](Self::blocks), precomputed once at keying time so
    /// streamed bulk updates never re-derive them.
    rp: [[u64; 3]; 3],
    /// The `* 20` pre-scalings matching `rp`.
    rp20: [[u64; 2]; 3],
    /// The pad `s` (added after the modular reduction).
    pad: [u64; 2],
    /// Accumulator, radix-2^44 limbs.
    h: [u64; 3],
    /// Partial block carried between [`update`](Self::update) calls, so
    /// incremental absorption is split-point independent.
    buf: [u8; 16],
    buffered: usize,
}

#[inline(always)]
fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Splits one 16-byte block into radix-2^44 limbs; `hibit` is `1 << 40`
/// (bit 128 of the padded message word) for full blocks and 0 for the
/// already-padded final partial block.
#[inline(always)]
fn limbs(m: &[u8; 16], hibit: u64) -> [u64; 3] {
    let lo = le64(&m[0..8]);
    let hi = le64(&m[8..16]);
    [
        lo & MASK44,
        ((lo >> 44) | (hi << 20)) & MASK44,
        (hi >> 24) | hibit,
    ]
}

/// The three unreduced `u128` column sums of `t * r mod 2^130 - 5`
/// (wraparound columns folded through the pre-scaled `r20` limbs).
#[inline(always)]
fn mul3(t: [u64; 3], r: &[u64; 3], r20: &[u64; 2]) -> [u128; 3] {
    let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
    [
        wide(t[0], r[0]) + wide(t[1], r20[1]) + wide(t[2], r20[0]),
        wide(t[0], r[1]) + wide(t[1], r[0]) + wide(t[2], r20[1]),
        wide(t[0], r[2]) + wide(t[1], r[1]) + wide(t[2], r[0]),
    ]
}

/// One lazy carry pass over unreduced column sums: limbs come out a few
/// bits over 44/42, which the next round's `u128` products absorb.
#[inline(always)]
fn carry3(d: [u128; 3]) -> [u64; 3] {
    let [d0, mut d1, mut d2] = d;
    let mut out = [0u64; 3];
    let mut c = d0 >> 44;
    out[0] = (d0 as u64) & MASK44;
    d1 += c;
    c = d1 >> 44;
    out[1] = (d1 as u64) & MASK44;
    d2 += c;
    c = d2 >> 42;
    out[2] = (d2 as u64) & MASK42;
    out[0] += (c as u64) * 5;
    let c = out[0] >> 44;
    out[0] &= MASK44;
    out[1] += c;
    out
}

/// One multiply-and-partially-reduce step: `h = (h + m) * r mod 2^130-5`
/// with a single lazy carry pass.
#[inline(always)]
fn mul_reduce(h: [u64; 3], m: [u64; 3], r: &[u64; 3], r20: &[u64; 2]) -> [u64; 3] {
    carry3(mul3([h[0] + m[0], h[1] + m[1], h[2] + m[2]], r, r20))
}

impl Poly1305 {
    /// Creates the MAC from a 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        // r is clamped per the RFC (mask 0x0ffffffc0ffffffc0ffffffc0fffffff).
        let lo = le64(&key[0..8]) & 0x0fff_fffc_0fff_ffff;
        let hi = le64(&key[8..16]) & 0x0fff_fffc_0fff_fffc;
        let r = [lo & MASK44, ((lo >> 44) | (hi << 20)) & MASK44, hi >> 24];
        let r20 = [r[1] * 20, r[2] * 20];
        let r2 = mul_reduce(r, [0; 3], &r, &r20);
        let r2_20 = [r2[1] * 20, r2[2] * 20];
        let r3 = mul_reduce(r2, [0; 3], &r, &r20);
        let r4 = mul_reduce(r2, [0; 3], &r2, &r2_20);
        Poly1305 {
            r,
            r20,
            rp: [r2, r3, r4],
            rp20: [r2_20, [r3[1] * 20, r3[2] * 20], [r4[1] * 20, r4[2] * 20]],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            h: [0; 3],
            buf: [0; 16],
            buffered: 0,
        }
    }

    /// Absorbs one 16-byte block; `hibit` is `1 << 40` for full blocks and
    /// 0 for the already-padded final partial block.
    fn block(&mut self, m: &[u8; 16], hibit: u64) {
        self.h = mul_reduce(self.h, limbs(m, hibit), &self.r, &self.r20);
    }

    /// Absorbs a run of full 16-byte blocks in one tight loop.
    ///
    /// This is the bulk path behind [`update`](Self::update): `r`, its
    /// powers and the accumulator all live in locals across iterations,
    /// each iteration paying only the lazy partial carry of [`carry3`].
    /// Long runs go four blocks per iteration via
    /// `h ← (h + m₁)·r⁴ + m₂·r³ + m₃·r² + m₄·r`: algebraically identical
    /// to four serial steps, but the four multiplies are independent and
    /// one carry pass is paid per 64 bytes, cutting the loop's serial
    /// latency chain to a quarter.
    fn blocks(&mut self, data: &[u8]) {
        debug_assert!(data.len().is_multiple_of(16));
        let (r, r20) = (self.r, self.r20);
        let mut h = self.h;
        let mut rest = data;
        if rest.len() >= 64 {
            let [r2, r3, r4] = self.rp;
            let [r2_20, r3_20, r4_20] = self.rp20;
            let mut quads = rest.chunks_exact(64);
            for quad in &mut quads {
                let m1 = limbs(quad[..16].try_into().expect("16-byte chunk"), 1 << 40);
                let m2 = limbs(quad[16..32].try_into().expect("16-byte chunk"), 1 << 40);
                let m3 = limbs(quad[32..48].try_into().expect("16-byte chunk"), 1 << 40);
                let m4 = limbs(quad[48..].try_into().expect("16-byte chunk"), 1 << 40);
                let a = mul3([h[0] + m1[0], h[1] + m1[1], h[2] + m1[2]], &r4, &r4_20);
                let b = mul3(m2, &r3, &r3_20);
                let c = mul3(m3, &r2, &r2_20);
                let d = mul3(m4, &r, &r20);
                h = carry3([
                    a[0] + b[0] + c[0] + d[0],
                    a[1] + b[1] + c[1] + d[1],
                    a[2] + b[2] + c[2] + d[2],
                ]);
            }
            rest = quads.remainder();
        }
        for m in rest.chunks_exact(16) {
            h = mul_reduce(
                h,
                limbs(m.try_into().expect("16-byte chunk"), 1 << 40),
                &r,
                &r20,
            );
        }
        self.h = h;
    }

    /// Absorbs `data`. Incremental and split-point independent: any
    /// sequence of `update` calls produces the same tag as one call over
    /// the concatenation (partial blocks are carried, not padded, until
    /// [`finalize`](Self::finalize)).
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = data.len().min(16 - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 16 {
                return;
            }
            let block = self.buf;
            self.block(&block, 1 << 40);
            self.buffered = 0;
        }
        let full = data.len() - data.len() % 16;
        self.blocks(&data[..full]);
        let rem = &data[full..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Finalises and returns the 16-byte tag (RFC padding: a trailing
    /// partial block is terminated with an explicit 0x01 byte and
    /// zero-padded).
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buffered > 0 {
            let mut last = [0u8; 16];
            last[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            last[self.buffered] = 1;
            self.block(&last, 0);
        }
        // Full carry propagation (the lazy per-block reduction leaves a
        // handful of excess bits in each limb).
        let [mut h0, mut h1, mut h2] = self.h;
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // Compute h - p (as h + 5 - 2^130) and select it if h >= p.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);

        // mask = all ones if h >= p (take g), all zeros otherwise (keep h).
        let mask = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);

        // Repack into 64-bit words and add the pad mod 2^128.
        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let (lo, carry) = lo.overflowing_add(self.pad[0]);
        let hi = hi.wrapping_add(self.pad[1]).wrapping_add(u64::from(carry));

        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }

    /// One-shot convenience: MAC of `data` under `key`.
    pub fn tag(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        let mut mac = Poly1305::new(key);
        mac.update(data);
        mac.finalize()
    }
}

/// Constant-time 16-byte tag comparison.
fn tags_equal(a: &[u8; 16], b: &[u8]) -> bool {
    if b.len() != 16 {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// ChaCha20-Poly1305 AEAD cipher keyed once, sealing many frames under
/// distinct nonces.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u32; 8],
}

impl std::fmt::Debug for ChaCha20Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key is secret material; expose nothing.
        f.debug_struct("ChaCha20Poly1305").finish_non_exhaustive()
    }
}

impl ChaCha20Poly1305 {
    /// Creates the cipher from a 32-byte key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut words = [0u32; 8];
        for (w, chunk) in words.iter_mut().zip(key.chunks_exact(4)) {
            *w = le32(chunk);
        }
        ChaCha20Poly1305 { key: words }
    }

    /// Creates the cipher keyed by a 256-bit [`Seed`] (the PSK derivation
    /// family hands link keys around as seeds).
    pub fn from_seed(seed: &Seed) -> Self {
        ChaCha20Poly1305::new(&seed.0)
    }

    fn nonce_words(nonce: &[u8; NONCE_LEN]) -> [u32; 3] {
        [le32(&nonce[0..4]), le32(&nonce[4..8]), le32(&nonce[8..12])]
    }

    /// XORs `chunk` (up to 64 bytes) with one serialized keystream block.
    #[inline(always)]
    fn xor_block(chunk: &mut [u8], words: &[u32; 16]) {
        let mut ks = [0u8; 64];
        for (dst, w) in ks.chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        for (byte, k) in chunk.iter_mut().zip(&ks) {
            *byte ^= k;
        }
    }

    /// XORs `data` in place with the keystream starting at block `counter`.
    ///
    /// Full 512-byte runs go through the 8-block interleaved kernel
    /// ([`chacha20_blocks8`]); the tail falls back to the scalar block
    /// function. Both produce the identical RFC 8439 keystream.
    #[cfg_attr(not(test), allow(dead_code))] // equivalence-test oracle for the fused append path
    fn xor_keystream(&self, nonce: &[u32; 3], mut counter: u32, data: &mut [u8]) {
        let mut wide = data.chunks_exact_mut(512);
        for run in &mut wide {
            let blocks = chacha20_blocks8(&self.key, counter, nonce);
            counter = counter.wrapping_add(8);
            for (chunk, words) in run.chunks_exact_mut(64).zip(&blocks) {
                Self::xor_block(chunk, words);
            }
        }
        for chunk in wide.into_remainder().chunks_mut(64) {
            let words = chacha20_block(&self.key, counter, nonce);
            counter = counter.wrapping_add(1);
            Self::xor_block(chunk, &words);
        }
    }

    /// Appends `src ^ keystream` to `out` while streaming the ciphertext
    /// side into `mac` — the single-pass core of [`seal`](Self::seal) and
    /// [`open`](Self::open). Each 512-byte run is encrypted, MAC'd and
    /// copied out while still L1-resident, so the message is never walked
    /// twice through memory (on 1 MiB frames the second walk of a
    /// two-pass encrypt-then-MAC comes from L3). `src_is_ct` says which
    /// side of the XOR is the ciphertext: `false` when sealing (the
    /// freshly produced output), `true` when opening (the input).
    /// Keystream schedule identical to [`xor_keystream`].
    fn xor_keystream_append_mac(
        &self,
        nonce: &[u32; 3],
        mut counter: u32,
        src: &[u8],
        out: &mut Vec<u8>,
        mac: &mut Poly1305,
        src_is_ct: bool,
    ) {
        out.reserve(src.len());
        let mut buf = [0u8; 512];
        let mut wide = src.chunks_exact(512);
        for run in &mut wide {
            let run: &[u8; 512] = run.try_into().expect("512-byte run");
            chacha20_xor8(&self.key, counter, nonce, run, &mut buf);
            counter = counter.wrapping_add(8);
            mac.update(if src_is_ct { run } else { &buf });
            out.extend_from_slice(&buf);
        }
        for chunk in wide.remainder().chunks(64) {
            let words = chacha20_block(&self.key, counter, nonce);
            counter = counter.wrapping_add(1);
            let dst = &mut buf[..chunk.len()];
            dst.copy_from_slice(chunk);
            Self::xor_block(dst, &words);
            mac.update(if src_is_ct { chunk } else { dst });
            out.extend_from_slice(dst);
        }
    }

    /// The one-time Poly1305 key for `nonce` (keystream block 0).
    fn poly_key(&self, nonce: &[u32; 3]) -> [u8; 32] {
        let words = chacha20_block(&self.key, 0, nonce);
        let mut key = [0u8; 32];
        for (chunk, w) in key.chunks_exact_mut(4).zip(&words[..8]) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        key
    }

    /// The MAC keyed for `nonce` with `aad` (zero-padded to a block
    /// boundary per RFC 8439 §2.8) already absorbed; the ciphertext is
    /// streamed in afterwards and [`finish_tag`](Self::finish_tag) closes
    /// the layout. No concatenated copy of the message is ever
    /// materialized.
    fn mac_for(&self, nonce: &[u32; 3], aad: &[u8]) -> Poly1305 {
        let zeros = [0u8; 16];
        let mut mac = Poly1305::new(&self.poly_key(nonce));
        mac.update(aad);
        mac.update(&zeros[..(16 - aad.len() % 16) % 16]);
        mac
    }

    /// Closes the RFC 8439 §2.8 MAC layout (ciphertext zero-padding, then
    /// the aad/ciphertext length block) and returns the tag.
    fn finish_tag(mut mac: Poly1305, aad_len: usize, ct_len: usize) -> [u8; 16] {
        let zeros = [0u8; 16];
        mac.update(&zeros[..(16 - ct_len % 16) % 16]);
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
        lens[8..].copy_from_slice(&(ct_len as u64).to_le_bytes());
        mac.update(&lens);
        mac.finalize()
    }

    /// Seals `plaintext`, returning `ciphertext ‖ tag`.
    ///
    /// `aad` is authenticated but not encrypted (the socket tier binds the
    /// routing metadata and the nonce schedule through it). Encryption and
    /// authentication run in one fused pass over the message.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_append(nonce, aad, plaintext, &mut out);
        out
    }

    /// Appending form of [`seal`](Self::seal): appends `ciphertext ‖ tag`
    /// to `out` after whatever it already holds, so a caller can write a
    /// record header first and seal straight behind it.
    pub fn seal_append(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let nonce = Self::nonce_words(nonce);
        let mut mac = self.mac_for(&nonce, aad);
        out.reserve(plaintext.len() + TAG_LEN);
        self.xor_keystream_append_mac(&nonce, 1, plaintext, out, &mut mac, false);
        let tag = Self::finish_tag(mac, aad.len(), plaintext.len());
        out.extend_from_slice(&tag);
    }

    /// Opens `sealed` (`ciphertext ‖ tag`), returning the plaintext only
    /// if the tag verifies. Any bit flip in the ciphertext, tag, aad or
    /// nonce fails.
    ///
    /// Decryption and authentication share one fused pass; the candidate
    /// plaintext is dropped unseen if the tag comparison fails, so
    /// unauthenticated plaintext is never released.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(sealed.len().saturating_sub(TAG_LEN));
        self.open_into(nonce, aad, sealed, &mut out)?;
        Ok(out)
    }

    /// Buffer-reusing form of [`open`](Self::open): appends the verified
    /// plaintext to `out` instead of allocating. On any failure `out` is
    /// truncated back to its pre-call length, so the caller never observes
    /// unauthenticated plaintext — not even in a recycled buffer.
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidCiphertext(format!(
                "sealed frame of {} bytes is shorter than the {TAG_LEN}-byte tag",
                sealed.len()
            )));
        }
        let start = out.len();
        let nonce = Self::nonce_words(nonce);
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut mac = self.mac_for(&nonce, aad);
        out.reserve(ciphertext.len());
        self.xor_keystream_append_mac(&nonce, 1, ciphertext, out, &mut mac, true);
        let expected = Self::finish_tag(mac, aad.len(), ciphertext.len());
        if !tags_equal(&expected, tag) {
            out.truncate(start);
            return Err(CryptoError::InvalidCiphertext(
                "authentication tag mismatch".into(),
            ));
        }
        Ok(())
    }

    /// Pre-vectorization scalar oracle for [`seal`](Self::seal): one
    /// 64-byte ChaCha20 block at a time, Poly1305 fed one 16-byte block
    /// at a time (single-block accumulation), encrypt-then-MAC in two
    /// passes. Bit-identical output to `seal`; kept callable (hidden) so
    /// benchmarks can report the scalar-vs-wide speedup measured on the
    /// running machine instead of a hard-coded historical number.
    #[doc(hidden)]
    pub fn seal_scalar(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let nonce = Self::nonce_words(nonce);
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let mut counter = 1u32;
        for chunk in out.chunks_mut(64) {
            let words = chacha20_block(&self.key, counter, &nonce);
            counter = counter.wrapping_add(1);
            Self::xor_block(chunk, &words);
        }
        let mut mac = self.mac_for(&nonce, aad);
        for chunk in out.chunks(16) {
            mac.update(chunk);
        }
        let tag = Self::finish_tag(mac, aad.len(), plaintext.len());
        out.extend_from_slice(&tag);
        out
    }

    /// Scalar oracle for [`open`](Self::open); see
    /// [`seal_scalar`](Self::seal_scalar).
    #[doc(hidden)]
    pub fn open_scalar(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidCiphertext(format!(
                "sealed frame of {} bytes is shorter than the {TAG_LEN}-byte tag",
                sealed.len()
            )));
        }
        let nonce_words = Self::nonce_words(nonce);
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut mac = self.mac_for(&nonce_words, aad);
        for chunk in ciphertext.chunks(16) {
            mac.update(chunk);
        }
        let expected = Self::finish_tag(mac, aad.len(), ciphertext.len());
        if !tags_equal(&expected, tag) {
            return Err(CryptoError::InvalidCiphertext(
                "authentication tag mismatch".into(),
            ));
        }
        let mut out = ciphertext.to_vec();
        let mut counter = 1u32;
        for chunk in out.chunks_mut(64) {
            let words = chacha20_block(&self.key, counter, &nonce_words);
            counter = counter.wrapping_add(1);
            Self::xor_block(chunk, &words);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The production keystream XOR (4-wide kernel over 256-byte runs
        /// plus scalar tail) must agree with a straight per-byte scalar
        /// reference at every length and starting counter.
        #[test]
        fn keystream_wide_path_equals_scalar_reference(
            key_bytes in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            counter in any::<u32>(),
            data in prop::collection::vec(any::<u8>(), 0..1500),
        ) {
            let cipher = ChaCha20Poly1305::new(&key_bytes);
            let nonce_words = ChaCha20Poly1305::nonce_words(&nonce);
            let mut wide = data.clone();
            cipher.xor_keystream(&nonce_words, counter, &mut wide);

            let mut scalar = data.clone();
            let mut ctr = counter;
            for chunk in scalar.chunks_mut(64) {
                let words = chacha20_block(&cipher.key, ctr, &nonce_words);
                ctr = ctr.wrapping_add(1);
                for (i, byte) in chunk.iter_mut().enumerate() {
                    *byte ^= (words[i / 4] >> (8 * (i % 4))) as u8;
                }
            }
            prop_assert_eq!(wide, scalar);
        }

        /// The hoisted multi-block Poly1305 loop must agree with the
        /// single-block path (forced by byte-at-a-time updates, which only
        /// ever complete blocks through the carry buffer) at random
        /// lengths and split points.
        #[test]
        fn poly1305_bulk_loop_equals_blockwise_path(
            key in any::<[u8; 32]>(),
            data in prop::collection::vec(any::<u8>(), 0..700),
            split in any::<u16>(),
        ) {
            let bulk = Poly1305::tag(&key, &data);

            let mut bytewise = Poly1305::new(&key);
            for byte in &data {
                bytewise.update(std::slice::from_ref(byte));
            }
            prop_assert_eq!(bytewise.finalize(), bulk);

            let mut split_mac = Poly1305::new(&key);
            let at = split as usize % (data.len() + 1);
            split_mac.update(&data[..at]);
            split_mac.update(&data[at..]);
            prop_assert_eq!(split_mac.finalize(), bulk);
        }

        /// Seal/open roundtrip across the wide and scalar keystream paths.
        #[test]
        fn seal_open_roundtrip_random_lengths(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in prop::collection::vec(any::<u8>(), 0..48),
            plaintext in prop::collection::vec(any::<u8>(), 0..2000),
        ) {
            let cipher = ChaCha20Poly1305::new(&key);
            let sealed = cipher.seal(&nonce, &aad, &plaintext);
            prop_assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
            // Sealing behind an existing prefix appends the same bytes.
            let mut appended = aad.clone();
            cipher.seal_append(&nonce, &aad, &plaintext, &mut appended);
            prop_assert_eq!(&appended[..aad.len()], &aad[..]);
            prop_assert_eq!(&appended[aad.len()..], &sealed[..]);
            let opened = cipher.open(&nonce, &aad, &sealed).unwrap();
            prop_assert_eq!(opened, plaintext);
        }

        /// The hidden scalar benchmark oracle must be bit-identical to the
        /// fused vectorized seal/open at every length.
        #[test]
        fn scalar_oracle_equals_fused_seal_open(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in prop::collection::vec(any::<u8>(), 0..48),
            plaintext in prop::collection::vec(any::<u8>(), 0..2000),
        ) {
            let cipher = ChaCha20Poly1305::new(&key);
            let fused = cipher.seal(&nonce, &aad, &plaintext);
            let scalar = cipher.seal_scalar(&nonce, &aad, &plaintext);
            prop_assert_eq!(&fused, &scalar);
            let opened = cipher.open_scalar(&nonce, &aad, &fused).unwrap();
            prop_assert_eq!(opened, plaintext);
            let mut tampered = scalar;
            let at = tampered.len() / 2;
            tampered[at] ^= 1;
            prop_assert!(cipher.open_scalar(&nonce, &aad, &tampered).is_err());
        }
    }

    /// RFC 8439 §2.5.2: Poly1305 tag of "Cryptographic Forum Research
    /// Group" under the reference one-time key.
    #[test]
    fn poly1305_rfc8439_vector() {
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let tag = Poly1305::tag(&key, b"Cryptographic Forum Research Group");
        let expected: [u8; 16] = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        assert_eq!(tag, expected);
    }

    #[test]
    fn poly1305_is_split_point_independent() {
        let key = [7u8; 32];
        let data: Vec<u8> = (0..100u8).collect();
        let whole = Poly1305::tag(&key, &data);
        // Any split — block-aligned or not, including byte-at-a-time —
        // must agree with the one-shot tag.
        for split in [1usize, 7, 16, 17, 48, 50, 99] {
            let mut mac = Poly1305::new(&key);
            mac.update(&data[..split]);
            mac.update(&data[split..]);
            assert_eq!(mac.finalize(), whole, "split at {split}");
        }
        let mut mac = Poly1305::new(&key);
        for byte in &data {
            mac.update(std::slice::from_ref(byte));
        }
        assert_eq!(mac.finalize(), whole);
    }

    /// RFC 8439 §2.8.2: the full AEAD vector (plaintext, aad, key, nonce,
    /// ciphertext and tag).
    #[test]
    fn chacha20poly1305_rfc8439_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce: [u8; 12] = [
            0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad: [u8; 12] = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext: &[u8] = b"Ladies and Gentlemen of the class of '99: \
If I could offer you only one tip for the future, sunscreen would be it.";
        let cipher = ChaCha20Poly1305::new(&key);
        let sealed = cipher.seal(&nonce, &aad, plaintext);
        let expected_ct: [u8; 114] = [
            0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb, 0x7b, 0x86, 0xaf, 0xbc, 0x53, 0xef,
            0x7e, 0xc2, 0xa4, 0xad, 0xed, 0x51, 0x29, 0x6e, 0x08, 0xfe, 0xa9, 0xe2, 0xb5, 0xa7,
            0x36, 0xee, 0x62, 0xd6, 0x3d, 0xbe, 0xa4, 0x5e, 0x8c, 0xa9, 0x67, 0x12, 0x82, 0xfa,
            0xfb, 0x69, 0xda, 0x92, 0x72, 0x8b, 0x1a, 0x71, 0xde, 0x0a, 0x9e, 0x06, 0x0b, 0x29,
            0x05, 0xd6, 0xa5, 0xb6, 0x7e, 0xcd, 0x3b, 0x36, 0x92, 0xdd, 0xbd, 0x7f, 0x2d, 0x77,
            0x8b, 0x8c, 0x98, 0x03, 0xae, 0xe3, 0x28, 0x09, 0x1b, 0x58, 0xfa, 0xb3, 0x24, 0xe4,
            0xfa, 0xd6, 0x75, 0x94, 0x55, 0x85, 0x80, 0x8b, 0x48, 0x31, 0xd7, 0xbc, 0x3f, 0xf4,
            0xde, 0xf0, 0x8e, 0x4b, 0x7a, 0x9d, 0xe5, 0x76, 0xd2, 0x65, 0x86, 0xce, 0xc6, 0x4b,
            0x61, 0x16,
        ];
        let expected_tag: [u8; 16] = [
            0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0, 0x60,
            0x06, 0x91,
        ];
        assert_eq!(&sealed[..114], &expected_ct[..]);
        assert_eq!(&sealed[114..], &expected_tag[..]);
        let opened = cipher.open(&nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tampering_is_detected_everywhere() {
        let cipher = ChaCha20Poly1305::from_seed(&Seed::from_u64(9));
        let nonce = [1u8; 12];
        let aad = b"DH0->TP";
        let sealed = cipher.seal(&nonce, aad, b"masked row payload");

        // Bit-flip anywhere in ciphertext or tag.
        for i in [0, 5, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(cipher.open(&nonce, aad, &bad).is_err(), "byte {i}");
        }
        // Truncation, including below the tag length.
        assert!(cipher
            .open(&nonce, aad, &sealed[..sealed.len() - 1])
            .is_err());
        assert!(cipher.open(&nonce, aad, &sealed[..7]).is_err());
        // Wrong aad and wrong nonce.
        assert!(cipher.open(&nonce, b"DH1->TP", &sealed).is_err());
        assert!(cipher.open(&[2u8; 12], aad, &sealed).is_err());
        // Wrong key.
        let other = ChaCha20Poly1305::from_seed(&Seed::from_u64(10));
        assert!(other.open(&nonce, aad, &sealed).is_err());
    }

    /// Throughput probe, not a correctness test: run explicitly with
    /// `cargo test --release -p ppc-crypto -- --ignored throughput_probe --nocapture`.
    #[test]
    #[ignore]
    fn throughput_probe() {
        let cipher = ChaCha20Poly1305::from_seed(&Seed::from_u64(1));
        let plaintext = vec![0xA5u8; 1 << 20];
        let mut nonce = [0u8; 12];
        let reps = 64u64;
        let started = std::time::Instant::now();
        for i in 0..reps {
            nonce[0..8].copy_from_slice(&i.to_le_bytes());
            let sealed = cipher.seal(&nonce, b"bench", &plaintext);
            let opened = cipher.open(&nonce, b"bench", &sealed).unwrap();
            assert_eq!(opened.len(), plaintext.len());
        }
        let secs = started.elapsed().as_secs_f64();
        println!("seal+open: {:.1} MB/s", reps as f64 / secs);

        // Same roundtrip at the coalesced-record size (64 KiB): frames this
        // small stay cache-resident, isolating compute from memory traffic.
        let small = vec![0xA5u8; 64 << 10];
        let small_reps = reps * 16;
        let started = std::time::Instant::now();
        for i in 0..small_reps {
            nonce[0..8].copy_from_slice(&i.to_le_bytes());
            let sealed = cipher.seal(&nonce, b"bench", &small);
            let opened = cipher.open(&nonce, b"bench", &sealed).unwrap();
            assert_eq!(opened.len(), small.len());
        }
        let secs = started.elapsed().as_secs_f64();
        println!(
            "seal+open 64KiB: {:.1} MB/s",
            small_reps as f64 / 16.0 / secs
        );

        let mut buf = plaintext.clone();
        let nw = ChaCha20Poly1305::nonce_words(&nonce);
        let started = std::time::Instant::now();
        for _ in 0..reps {
            cipher.xor_keystream(&nw, 1, &mut buf);
        }
        let secs = started.elapsed().as_secs_f64();
        println!("xor_keystream: {:.1} MB/s", reps as f64 / secs);

        let key = [7u8; 32];
        let started = std::time::Instant::now();
        for _ in 0..reps {
            let t = Poly1305::tag(&key, &plaintext);
            std::hint::black_box(t);
        }
        let secs = started.elapsed().as_secs_f64();
        println!("poly1305: {:.1} MB/s", reps as f64 / secs);
    }

    #[test]
    fn empty_plaintext_and_aad_roundtrip() {
        let cipher = ChaCha20Poly1305::from_seed(&Seed::from_u64(3));
        let nonce = [0u8; 12];
        let sealed = cipher.seal(&nonce, &[], &[]);
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(cipher.open(&nonce, &[], &sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn long_messages_cross_many_blocks() {
        let cipher = ChaCha20Poly1305::from_seed(&Seed::from_u64(5));
        let nonce = [9u8; 12];
        let plaintext: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let sealed = cipher.seal(&nonce, b"bulk", &plaintext);
        assert_eq!(cipher.open(&nonce, b"bulk", &sealed).unwrap(), plaintext);
        // Distinct nonces give unrelated ciphertexts.
        let sealed2 = cipher.seal(&[8u8; 12], b"bulk", &plaintext);
        assert_ne!(sealed[..32], sealed2[..32]);
    }
}
