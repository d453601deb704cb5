//! SHA-256 (FIPS 180-4) and the workspace digest type [`Hash256`].
//!
//! The compression function has two kernels with bit-identical output: a
//! portable scalar one, and one built on the x86-64 SHA extensions that is
//! used whenever the CPU reports them ([`kernel`] names the one in use).

use blockprov_wire::{Codec, Reader, WireError, Writer};
use std::fmt;
use std::sync::OnceLock;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression kernel: fold a whole number of 64-byte blocks into `state`.
type CompressBlocks = fn(&mut [u32; 8], &[u8]);

/// The kernel every hasher uses and its name, chosen on first use from what
/// the CPU reports.
fn dispatched() -> (CompressBlocks, &'static str) {
    static CHOSEN: OnceLock<(CompressBlocks, &'static str)> = OnceLock::new();
    *CHOSEN.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(compress_blocks) = sha_ni::detect() {
            return (compress_blocks, "sha-ni");
        }
        (compress_blocks_portable, "portable")
    })
}

/// Name of the compression kernel in use on this CPU: `"sha-ni"` (x86-64
/// SHA extensions) or `"portable"`. Digests do not depend on it.
pub fn kernel() -> &'static str {
    dispatched().1
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use blockprov_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
    compress_blocks: CompressBlocks,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(dispatched().0)
    }

    fn with_kernel(compress_blocks: CompressBlocks) -> Self {
        Self {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
            compress_blocks,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            (self.compress_blocks)(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        // Whole blocks are compressed where they lie, in one kernel call.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            (self.compress_blocks)(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Absorb `data` and return `self` (builder style).
    pub fn chain(mut self, data: &[u8]) -> Self {
        self.update(data);
        self
    }

    /// Finish and return the digest.
    pub fn finalize(mut self) -> Hash256 {
        // Padding: 0x80, zeros, 8-byte big-endian bit length — one block, or
        // two when the length does not fit behind the buffered bytes.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        (self.compress_blocks)(&mut self.state, &tail[..end]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }
}

/// The portable kernel, and the reference the hardware one is tested against.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The compression kernel on the x86-64 SHA extensions. The only `unsafe`
/// in the crate lives here.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use super::{CompressBlocks, K};
    use std::arch::x86_64::*;

    /// The kernel, if this CPU has every instruction set it is compiled for.
    pub(super) fn detect() -> Option<CompressBlocks> {
        let has_all = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        has_all.then_some(compress_blocks as CompressBlocks)
    }

    /// Reachable only as the value `detect` returns.
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // SAFETY: `detect` hands this function out only after
        // `is_x86_feature_detected!` reported `sha`, `ssse3` and `sse4.1`,
        // the features `compress_blocks_ni` is compiled with.
        unsafe { compress_blocks_ni(state, blocks) }
    }

    /// Unaligned 16-byte load of `bytes[..16]`.
    #[inline]
    fn load(bytes: &[u8]) -> __m128i {
        let bytes = &bytes[..16];
        // SAFETY: `bytes` is 16 readable bytes and `loadu` has no alignment
        // requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// Four rounds on schedule words `w` with round constants `k[..4]`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(abef: __m128i, cdgh: __m128i, w: __m128i, k: &[u32]) -> (__m128i, __m128i) {
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w, k);
        let cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        let abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        (abef, cdgh)
    }

    /// Schedule words `t..t+4` from the sixteen before them, oldest first:
    /// `W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2])`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule4(w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
        _mm_sha256msg2_epu32(partial, w4)
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // The instructions keep the state as two vectors, ABEF and CDGH.
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Message words are big-endian in the block.
        let be = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = _mm_shuffle_epi8(load(&block[0..]), be);
            let mut w1 = _mm_shuffle_epi8(load(&block[16..]), be);
            let mut w2 = _mm_shuffle_epi8(load(&block[32..]), be);
            let mut w3 = _mm_shuffle_epi8(load(&block[48..]), be);
            // Sixteen rounds a turn: each vector feeds four rounds, then is
            // replaced by the schedule words sixteen further on (unused, and
            // dropped by the compiler, in the last turn).
            for k in K.chunks_exact(16) {
                (abef, cdgh) = rounds4(abef, cdgh, w0, &k[0..]);
                w0 = schedule4(w0, w1, w2, w3);
                (abef, cdgh) = rounds4(abef, cdgh, w1, &k[4..]);
                w1 = schedule4(w1, w2, w3, w0);
                (abef, cdgh) = rounds4(abef, cdgh, w2, &k[8..]);
                w2 = schedule4(w2, w3, w0, w1);
                (abef, cdgh) = rounds4(abef, cdgh, w3, &k[12..]);
                w3 = schedule4(w3, w0, w1, w2);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|word| word as u32);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Hash256 {
    Sha256::new().chain(data).finalize()
}

/// One-shot SHA-256 on the portable kernel whatever the CPU reports: the
/// reference that tests compare [`sha256`] against.
#[doc(hidden)]
pub fn portable(data: &[u8]) -> Hash256 {
    Sha256::with_kernel(compress_blocks_portable)
        .chain(data)
        .finalize()
}

/// A 256-bit digest — the universal identifier type of the workspace.
///
/// Block hashes, transaction ids, Merkle roots, account ids and content
/// addresses are all `Hash256` values (usually behind a newtype).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the genesis parent pointer.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// View as bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex encoding.
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xF) as usize] as char);
        }
        s
    }

    /// Parse from a 64-character hex string.
    pub fn from_hex(s: &str) -> Option<Hash256> {
        let bytes = s.as_bytes();
        if bytes.len() != 64 {
            return None;
        }
        let nibble = |c: u8| -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        };
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = (nibble(bytes[2 * i])? << 4) | nibble(bytes[2 * i + 1])?;
        }
        Some(Hash256(out))
    }

    /// Short prefix for display (first 8 hex chars).
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Interpret the first 8 bytes as a big-endian integer — used for
    /// difficulty comparisons and deterministic sampling.
    pub fn leading_u64(&self) -> u64 {
        u64::from_be_bytes([
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5], self.0[6], self.0[7],
        ])
    }

    /// Number of leading zero bits, used as a PoW difficulty measure.
    pub fn leading_zero_bits(&self) -> u32 {
        let mut bits = 0;
        for b in self.0 {
            if b == 0 {
                bits += 8;
            } else {
                bits += b.leading_zeros();
                break;
            }
        }
        bits
    }

    /// XOR two digests (used for key derivation tweaks).
    pub fn xor(&self, other: &Hash256) -> Hash256 {
        let mut out = [0u8; 32];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = a ^ b;
        }
        Hash256(out)
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}…)", self.short())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(v: [u8; 32]) -> Self {
        Hash256(v)
    }
}

impl Codec for Hash256 {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.get_raw(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(raw);
        Ok(Hash256(out))
    }
}

/// Hash a sequence of labeled parts with unambiguous framing.
///
/// Every part is length-prefixed before hashing so `("ab","c")` and
/// `("a","bc")` produce different digests. Use this instead of manual
/// concatenation when deriving ids.
pub fn hash_parts(domain: &str, parts: &[&[u8]]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(&(domain.len() as u64).to_le_bytes());
    h.update(domain.as_bytes());
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vectors() {
        let cases = [
            (
                "",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                "abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                "The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(sha256(input.as_bytes()).to_hex(), expect, "input {input:?}");
        }
    }

    #[test]
    fn hardware_kernel_matches_portable_block_by_block_and_multi_block() {
        #[cfg(target_arch = "x86_64")]
        let hardware = sha_ni::detect();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware: Option<CompressBlocks> = None;
        let Some(hardware) = hardware else {
            // Written past the test harness's capture: a run that did not
            // exercise the hardware kernel must say so.
            use std::io::Write;
            writeln!(
                std::io::stderr(),
                "sha256: this CPU has no SHA extensions; hardware kernel NOT tested (kernel = {})",
                kernel()
            )
            .expect("stderr");
            return;
        };
        assert_eq!(kernel(), "sha-ni");

        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for blocks in 1..=9usize {
            let data: Vec<u8> = (0..blocks * 64).map(|_| next() as u8).collect();
            let start: [u32; 8] = std::array::from_fn(|_| next() as u32);

            let mut expect = start;
            compress_blocks_portable(&mut expect, &data);
            let mut multi = start;
            hardware(&mut multi, &data);
            assert_eq!(multi, expect, "{blocks} blocks in one call");
            let mut single = start;
            for block in data.chunks_exact(64) {
                hardware(&mut single, block);
            }
            assert_eq!(single, expect, "{blocks} blocks, one call each");
        }
        let mut untouched = H0;
        hardware(&mut untouched, &[]);
        assert_eq!(untouched, H0, "no blocks, no change");
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_splits() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must not panic
        // and must differ pairwise.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xA5u8; len];
            assert!(seen.insert(sha256(&data)), "collision at len {len}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let h = sha256(b"roundtrip");
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
        assert_eq!(Hash256::from_hex("zz"), None);
        assert_eq!(Hash256::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn leading_zero_bits_counts() {
        assert_eq!(Hash256::ZERO.leading_zero_bits(), 256);
        let mut one = [0u8; 32];
        one[0] = 0x01;
        assert_eq!(Hash256(one).leading_zero_bits(), 7);
        let mut top = [0u8; 32];
        top[0] = 0x80;
        assert_eq!(Hash256(top).leading_zero_bits(), 0);
    }

    #[test]
    fn hash_parts_framing_is_unambiguous() {
        let a = hash_parts("t", &[b"ab", b"c"]);
        let b = hash_parts("t", &[b"a", b"bc"]);
        assert_ne!(a, b);
        let c = hash_parts("u", &[b"ab", b"c"]);
        assert_ne!(a, c, "domain must separate");
    }

    #[test]
    fn codec_round_trip() {
        let h = sha256(b"wire");
        assert_eq!(Hash256::from_wire(&h.to_wire()).unwrap(), h);
    }
}
