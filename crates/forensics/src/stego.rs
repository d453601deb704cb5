//! Steganographic evidence preservation — the AlKhanafseh & Surakhi \[13\]
//! model.
//!
//! The surveyed design stores evidence with both confidentiality *and*
//! plausible concealment: "a cover file is created from the previous
//! block's data and encrypted to form a cipher file. Evidence is
//! preprocessed, divided into chunks, and encrypted. These encrypted chunks
//! are embedded into the cipher file to create a steganography file, which
//! is then stored in the blockchain through mining, ensuring integrity and
//! confidentiality."
//!
//! Reproduction:
//!
//! 1. the **cover** is expanded deterministically from the previous block's
//!    bytes (so every stego file is bound to its chain position);
//! 2. cover and evidence chunks are encrypted with an HMAC-DRBG keystream
//!    (a CTR-style stream cipher over our own primitives — the workspace's
//!    standing substitution for AES);
//! 3. encrypted chunks are **embedded** between cover segments whose
//!    lengths come from a keyed schedule, so chunk positions are not
//!    recoverable without the key;
//! 4. an encrypted header carries the layout and the evidence digest, so
//!    extraction verifies end-to-end integrity and a wrong key or a single
//!    flipped byte is detected.
//!
//! The produced [`StegoFile`] is an opaque byte blob ready to be carried in
//! a ledger transaction; its digest is what a chain-of-custody record
//! anchors.

use blockprov_crypto::sha256::{hash_parts, sha256, Hash256};
use blockprov_crypto::HmacDrbg;
use std::fmt;

/// Fixed evidence chunk size (bytes).
pub const CHUNK_LEN: usize = 64;
const MAGIC: [u8; 8] = *b"BPSTEGO1";
const HEADER_LEN: usize = 8 + 8 + 8 + 8 + 32; // magic, cover_len, n_chunks, evidence_len, digest

/// A sealed steganographic container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StegoFile {
    /// The opaque container bytes (header ‖ interleaved cover/chunks).
    pub bytes: Vec<u8>,
}

impl StegoFile {
    /// Digest anchored on chain by custody records.
    pub fn digest(&self) -> Hash256 {
        sha256(&self.bytes)
    }

    /// Container size.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the container is empty (never true for sealed files).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Errors from sealing/extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StegoError {
    /// Container too short or header magic mismatch — wrong key or not a
    /// stego file.
    WrongKeyOrCorrupt,
    /// Layout decoded but the evidence digest check failed — tampering.
    IntegrityFailure,
    /// Evidence may not be empty.
    EmptyEvidence,
}

impl fmt::Display for StegoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StegoError::WrongKeyOrCorrupt => write!(f, "wrong key or corrupted container"),
            StegoError::IntegrityFailure => write!(f, "evidence digest mismatch (tampered)"),
            StegoError::EmptyEvidence => write!(f, "evidence must be non-empty"),
        }
    }
}

impl std::error::Error for StegoError {}

/// The evidence vault: holds the symmetric key shared by the investigators
/// authorized to seal and open containers.
pub struct StegoVault {
    key: Hash256,
}

impl fmt::Debug for StegoVault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StegoVault").finish_non_exhaustive()
    }
}

/// XOR `data` with a domain-separated keystream.
fn xor_stream(key: &Hash256, label: &str, index: u64, data: &mut [u8]) {
    let seed = hash_parts(
        "blockprov-stego-stream",
        &[key.as_bytes(), label.as_bytes(), &index.to_le_bytes()],
    );
    let mut drbg = HmacDrbg::from_hash(&seed);
    let mut pad = vec![0u8; data.len()];
    drbg.fill_bytes(&mut pad);
    for (b, p) in data.iter_mut().zip(pad) {
        *b ^= p;
    }
}

impl StegoVault {
    /// Derive the vault key from a passphrase.
    pub fn new(passphrase: &[u8]) -> Self {
        Self { key: hash_parts("blockprov-stego-key", &[passphrase]) }
    }

    /// Segment-length schedule: how much cover precedes each embedded
    /// chunk. Keyed, so positions are unrecoverable without the key.
    fn schedule(&self, cover_len: usize, n_chunks: usize) -> Vec<usize> {
        let base = cover_len / (n_chunks + 1);
        let seed = hash_parts(
            "blockprov-stego-layout",
            &[
                self.key.as_bytes(),
                &(cover_len as u64).to_le_bytes(),
                &(n_chunks as u64).to_le_bytes(),
            ],
        );
        let mut drbg = HmacDrbg::from_hash(&seed);
        let mut remaining = cover_len;
        let mut lens = Vec::with_capacity(n_chunks);
        for i in 0..n_chunks {
            let max_here = remaining.saturating_sub((n_chunks - i - 1) * base / 2);
            let jitter = if base > 1 { drbg.gen_range(base as u64) as usize } else { 0 };
            let len = (base / 2 + jitter).min(max_here);
            lens.push(len);
            remaining -= len;
        }
        lens
    }

    /// Seal `evidence` into a stego container bound to `prev_block` bytes.
    pub fn seal(&self, evidence: &[u8], prev_block: &[u8]) -> Result<StegoFile, StegoError> {
        if evidence.is_empty() {
            return Err(StegoError::EmptyEvidence);
        }
        let digest = sha256(evidence);
        let n_chunks = evidence.len().div_ceil(CHUNK_LEN);

        // 1. Cover expanded from the previous block's data: at least 2 bytes
        //    of cover per evidence byte so chunks are sparse in the output.
        let cover_len = (evidence.len() * 2).max(n_chunks * CHUNK_LEN + 256);
        let mut cover = vec![0u8; cover_len];
        HmacDrbg::new(
            hash_parts("blockprov-stego-cover", &[prev_block]).as_bytes(),
        )
        .fill_bytes(&mut cover);

        // 2. Encrypt the cover into the cipher file.
        xor_stream(&self.key, "cover", 0, &mut cover);

        // 3. Chunk + encrypt the evidence (zero-padded final chunk).
        let mut chunks: Vec<[u8; CHUNK_LEN]> = Vec::with_capacity(n_chunks);
        for (i, chunk) in evidence.chunks(CHUNK_LEN).enumerate() {
            let mut buf = [0u8; CHUNK_LEN];
            buf[..chunk.len()].copy_from_slice(chunk);
            xor_stream(&self.key, "chunk", i as u64, &mut buf);
            chunks.push(buf);
        }

        // 4. Header (encrypted): layout + integrity digest.
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&(cover_len as u64).to_le_bytes());
        header.extend_from_slice(&(n_chunks as u64).to_le_bytes());
        header.extend_from_slice(&(evidence.len() as u64).to_le_bytes());
        header.extend_from_slice(digest.as_bytes());
        xor_stream(&self.key, "header", 0, &mut header);

        // 5. Interleave: header ‖ seg₀ ‖ chunk₀ ‖ seg₁ ‖ chunk₁ ‖ … ‖ rest.
        let lens = self.schedule(cover_len, n_chunks);
        let mut out = Vec::with_capacity(HEADER_LEN + cover_len + n_chunks * CHUNK_LEN);
        out.extend_from_slice(&header);
        let mut cursor = 0usize;
        for (i, seg_len) in lens.iter().enumerate() {
            out.extend_from_slice(&cover[cursor..cursor + seg_len]);
            cursor += seg_len;
            out.extend_from_slice(&chunks[i]);
        }
        out.extend_from_slice(&cover[cursor..]);
        // Trailing MAC over the whole container: cover corruption must be
        // as detectable as chunk corruption (the chain anchors the digest,
        // but extraction itself also fails closed).
        let mac = blockprov_crypto::hmac_sha256(self.key.as_bytes(), &out);
        out.extend_from_slice(mac.as_bytes());
        Ok(StegoFile { bytes: out })
    }

    /// Open a container, returning the original evidence. Fails closed on a
    /// wrong key, truncation, or any bit flip.
    pub fn extract(&self, file: &StegoFile) -> Result<Vec<u8>, StegoError> {
        if file.bytes.len() < HEADER_LEN + 32 {
            return Err(StegoError::WrongKeyOrCorrupt);
        }
        let (body, mac) = file.bytes.split_at(file.bytes.len() - 32);
        if blockprov_crypto::hmac_sha256(self.key.as_bytes(), body).as_bytes() != mac {
            return Err(StegoError::WrongKeyOrCorrupt);
        }
        let mut header = file.bytes[..HEADER_LEN].to_vec();
        xor_stream(&self.key, "header", 0, &mut header);
        if header[..8] != MAGIC {
            return Err(StegoError::WrongKeyOrCorrupt);
        }
        let read_u64 = |off: usize| {
            u64::from_le_bytes(header[off..off + 8].try_into().expect("fixed layout"))
        };
        let cover_len = read_u64(8) as usize;
        let n_chunks = read_u64(16) as usize;
        let evidence_len = read_u64(24) as usize;
        let mut digest = [0u8; 32];
        digest.copy_from_slice(&header[32..64]);

        if evidence_len == 0
            || n_chunks != evidence_len.div_ceil(CHUNK_LEN)
            || file.bytes.len() != HEADER_LEN + cover_len + n_chunks * CHUNK_LEN + 32
        {
            return Err(StegoError::WrongKeyOrCorrupt);
        }

        let lens = self.schedule(cover_len, n_chunks);
        let mut evidence = Vec::with_capacity(evidence_len);
        let mut cursor = HEADER_LEN;
        for (i, seg_len) in lens.iter().enumerate() {
            cursor += seg_len; // skip cover segment
            let mut chunk = [0u8; CHUNK_LEN];
            chunk.copy_from_slice(&file.bytes[cursor..cursor + CHUNK_LEN]);
            cursor += CHUNK_LEN;
            xor_stream(&self.key, "chunk", i as u64, &mut chunk);
            let take = CHUNK_LEN.min(evidence_len - evidence.len());
            evidence.extend_from_slice(&chunk[..take]);
        }
        if sha256(&evidence) != Hash256::from(digest) {
            return Err(StegoError::IntegrityFailure);
        }
        Ok(evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vault() -> StegoVault {
        StegoVault::new(b"case-7/investigator-key")
    }

    #[test]
    fn seal_extract_round_trip() {
        let v = vault();
        for len in [1usize, 63, 64, 65, 1000, 10_000] {
            let evidence: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let file = v.seal(&evidence, b"prev-block-bytes").unwrap();
            assert_eq!(v.extract(&file).unwrap(), evidence, "len={len}");
        }
    }

    #[test]
    fn empty_evidence_rejected() {
        assert_eq!(vault().seal(&[], b"prev").unwrap_err(), StegoError::EmptyEvidence);
    }

    #[test]
    fn wrong_key_fails_closed() {
        let file = vault().seal(b"the smoking gun", b"prev").unwrap();
        let wrong = StegoVault::new(b"not the key");
        assert_eq!(wrong.extract(&file).unwrap_err(), StegoError::WrongKeyOrCorrupt);
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let v = vault();
        let file = v.seal(&vec![0x5A; 500], b"prev").unwrap();
        // Flip a byte in several regions: header, early chunk area, tail.
        for pos in [3usize, HEADER_LEN + 10, file.bytes.len() / 2, file.bytes.len() - 1] {
            let mut tampered = file.clone();
            tampered.bytes[pos] ^= 0x01;
            assert!(
                v.extract(&tampered).is_err(),
                "flip at {pos} must not extract cleanly"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let v = vault();
        let mut file = v.seal(&vec![1u8; 300], b"prev").unwrap();
        file.bytes.truncate(file.bytes.len() - 1);
        assert_eq!(v.extract(&file).unwrap_err(), StegoError::WrongKeyOrCorrupt);
    }

    #[test]
    fn evidence_bytes_do_not_appear_in_container() {
        let v = vault();
        let evidence = b"CONFIDENTIAL-WITNESS-STATEMENT-0042".repeat(8);
        let file = v.seal(&evidence, b"prev").unwrap();
        let needle = &evidence[..24];
        let found = file.bytes.windows(needle.len()).any(|w| w == needle);
        assert!(!found, "plaintext must never appear in the container");
    }

    #[test]
    fn container_bound_to_previous_block() {
        let v = vault();
        let a = v.seal(b"same evidence", b"block-A").unwrap();
        let b = v.seal(b"same evidence", b"block-B").unwrap();
        assert_ne!(a.digest(), b.digest(), "cover derives from the previous block");
        // Both still extract to the same evidence.
        assert_eq!(v.extract(&a).unwrap(), b"same evidence");
        assert_eq!(v.extract(&b).unwrap(), b"same evidence");
    }

    #[test]
    fn sealing_is_deterministic() {
        let v = vault();
        let a = v.seal(b"det", b"prev").unwrap();
        let b = v.seal(b"det", b"prev").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn container_is_larger_than_evidence_by_cover_factor() {
        let v = vault();
        let evidence = vec![9u8; 4096];
        let file = v.seal(&evidence, b"prev").unwrap();
        // cover ≈ 2×, plus chunk padding and header.
        assert!(file.len() >= 3 * evidence.len());
        assert!(file.len() < 4 * evidence.len());
    }

    #[test]
    fn garbage_input_rejected() {
        let v = vault();
        assert!(v.extract(&StegoFile { bytes: vec![] }).is_err());
        assert!(v.extract(&StegoFile { bytes: vec![0u8; 1000] }).is_err());
    }
}
