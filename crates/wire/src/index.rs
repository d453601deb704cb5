//! Index-page codec for durable, disk-backed secondary indexes.
//!
//! The ledger spills its finalized transaction indexes into append-only
//! *index pages* (see `blockprov_ledger::index`). The on-disk page layout is
//! specified here, next to the rest of the wire format, and reuses the
//! [`crate::frame`] framing: each page is one `[u32 le len][payload]` frame
//! whose payload opens with an [`IndexPageHeader`] followed by the page's
//! entries. Entry encoding is the *caller's* business: at this layer a page
//! body is opaque bytes.
//!
//! The header carries everything a reader needs to skip a page without
//! decoding its entries: the height range the page covers, a
//! [`BloomFilter`] over the entries' keys and a 64-bit tag mask. Keys are
//! uniformly-distributed hashes, so min/max fences are useless — per-page
//! Blooms are the standard answer (≈10 bits/key keeps the false positive
//! rate around 1%).
//!
//! A page of another format version is refused, never reinterpreted:
//! [`read_page_from`] reports it as [`io::ErrorKind::Unsupported`], naming
//! both versions, so an opener can tell it from a torn tail.

use crate::frame::{read_frame_from, write_frame_to};
use crate::{Codec, Reader, WireError, Writer};
use std::io::{self, Read, Write};

/// Magic bytes opening every index page (`BPIX` = BlockProv IndeX).
pub const INDEX_MAGIC: [u8; 4] = *b"BPIX";

/// Current index page format version. Version 2 dropped the secondary
/// (author) Bloom filter from the header.
pub const INDEX_VERSION: u16 = 2;

/// Number of hash probes per Bloom insertion/query.
const BLOOM_PROBES: u64 = 6;

/// A split-and-merge Bloom filter sized at build time for its key count.
///
/// Callers hash their keys themselves and feed `(h1, h2)` pairs; the filter
/// derives its probe positions by double hashing (`h1 + i·h2`), so it is
/// agnostic to the key type. An empty filter (zero capacity) reports
/// `contains == false` for everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
}

impl BloomFilter {
    /// Filter sized for `keys` insertions at ~10 bits per key (rounded up
    /// to a power-of-two bit count, minimum 64 bits).
    pub fn with_capacity(keys: usize) -> Self {
        if keys == 0 {
            return Self { bits: Vec::new() };
        }
        let bits = (keys * 10).next_power_of_two().max(64);
        Self {
            bits: vec![0u8; bits / 8],
        }
    }

    /// Number of addressable bits.
    fn bit_len(&self) -> u64 {
        self.bits.len() as u64 * 8
    }

    /// Insert a key by its two independent 64-bit hashes.
    pub fn insert(&mut self, h1: u64, h2: u64) {
        let m = self.bit_len();
        if m == 0 {
            return;
        }
        // Odd stride: the bit count is a power of two, so an even h2 would
        // confine probes to a sublattice and inflate false positives.
        let stride = h2 | 1;
        for i in 0..BLOOM_PROBES {
            let bit = h1.wrapping_add(i.wrapping_mul(stride)) % m;
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    /// Whether the key *may* have been inserted (false positives possible,
    /// false negatives not).
    pub fn contains(&self, h1: u64, h2: u64) -> bool {
        let m = self.bit_len();
        if m == 0 {
            return false;
        }
        let stride = h2 | 1;
        (0..BLOOM_PROBES).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(stride)) % m;
            self.bits[(bit / 8) as usize] & (1 << (bit % 8)) != 0
        })
    }

    /// Encoded size in bytes (for storage accounting).
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }
}

impl Codec for BloomFilter {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.bits);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bits = r.get_bytes()?;
        if !bits.is_empty() && !bits.len().is_power_of_two() {
            return Err(WireError::Invalid("bloom filter length not a power of two"));
        }
        Ok(Self { bits })
    }
}

/// Header opening every index page.
///
/// `partition`/`sequence` pin the page's place in a partitioned, append-only
/// page sequence (readers reject pages filed under the wrong partition).
/// `first_height`/`last_height` bound the ledger heights the entries cover,
/// which is what makes page appends idempotent across crash/replay: a writer
/// re-deriving entries after a restart drops everything at or below the
/// partition's durable `last_height`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexPageHeader {
    /// Format version (readers reject versions they do not understand).
    pub version: u16,
    /// Partition this page belongs to.
    pub partition: u16,
    /// Zero-based position of this page within its partition.
    pub sequence: u32,
    /// Number of entries in the page body.
    pub entry_count: u32,
    /// Smallest ledger height contributing entries to this page.
    pub first_height: u64,
    /// Largest ledger height contributing entries to this page.
    pub last_height: u64,
    /// Bloom over the entries' primary keys.
    pub key_bloom: BloomFilter,
    /// Bitmask over the entries' small tags (`tag % 64`, e.g. tx kinds).
    pub tag_mask: u64,
}

impl Codec for IndexPageHeader {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&INDEX_MAGIC);
        w.put_u16(self.version);
        w.put_u16(self.partition);
        w.put_u32(self.sequence);
        w.put_u32(self.entry_count);
        w.put_u64(self.first_height);
        w.put_u64(self.last_height);
        self.key_bloom.encode(w);
        w.put_u64(self.tag_mask);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let magic = r.get_raw(4)?;
        if magic != INDEX_MAGIC {
            return Err(WireError::Invalid("bad index page magic"));
        }
        let version = r.get_u16()?;
        if version != INDEX_VERSION {
            return Err(WireError::Invalid("unsupported index page version"));
        }
        Ok(Self {
            version,
            partition: r.get_u16()?,
            sequence: r.get_u32()?,
            entry_count: r.get_u32()?,
            first_height: r.get_u64()?,
            last_height: r.get_u64()?,
            key_bloom: BloomFilter::decode(r)?,
            tag_mask: r.get_u64()?,
        })
    }
}

/// Write one index page — header plus pre-encoded entry bytes — as a single
/// frame. No flush; callers batch pages and flush once.
pub fn write_page_to<W: Write>(
    w: &mut W,
    header: &IndexPageHeader,
    entry_bytes: &[u8],
) -> io::Result<()> {
    let mut body = header.to_wire();
    body.extend_from_slice(entry_bytes);
    write_frame_to(w, &body)
}

/// The format version an encoded page declares, read without decoding the
/// rest; `None` when the bytes do not open with [`INDEX_MAGIC`].
fn index_page_version(payload: &[u8]) -> Option<u16> {
    let mut r = Reader::new(payload);
    (r.get_raw(4).ok()? == INDEX_MAGIC).then_some(())?;
    r.get_u16().ok()
}

/// Read the next index page, returning its header and the raw entry bytes.
///
/// `Ok(None)` on clean end-of-stream. A whole page of another format
/// version is an [`io::ErrorKind::Unsupported`] error naming both
/// versions; a torn trailing frame or an otherwise undecodable header is
/// an error of another kind (callers decide whether that means
/// tamper-failure or crash-recovery truncation).
pub fn read_page_from<R: Read>(r: &mut R) -> io::Result<Option<(IndexPageHeader, Vec<u8>)>> {
    let Some(body) = read_frame_from(r)? else {
        return Ok(None);
    };
    if let Some(version) = index_page_version(&body).filter(|&v| v != INDEX_VERSION) {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "index page format version {version}, this build reads only \
                 version {INDEX_VERSION}"
            ),
        ));
    }
    let mut reader = Reader::new(&body);
    let header = IndexPageHeader::decode(&mut reader)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let rest = reader.remaining();
    let entries = reader
        .get_raw(rest)
        .expect("remaining bytes are available")
        .to_vec();
    Ok(Some((header, entries)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(partition: u16, seq: u32) -> IndexPageHeader {
        let mut key_bloom = BloomFilter::with_capacity(8);
        key_bloom.insert(1, 2);
        IndexPageHeader {
            version: INDEX_VERSION,
            partition,
            sequence: seq,
            entry_count: 3,
            first_height: 10,
            last_height: 12,
            key_bloom,
            tag_mask: 0b1010,
        }
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = BloomFilter::with_capacity(64);
        let keys: Vec<(u64, u64)> = (0..64u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15), i ^ 0xABCDEF))
            .collect();
        for &(h1, h2) in &keys {
            b.insert(h1, h2);
        }
        for &(h1, h2) in &keys {
            assert!(b.contains(h1, h2));
        }
    }

    /// SplitMix64 finalizer: the tests' stand-in for the uniformly
    /// distributed crypto-hash key bytes real callers feed in.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn bloom_rejects_most_absent_keys() {
        let mut b = BloomFilter::with_capacity(128);
        for i in 0..128u64 {
            b.insert(mix(i), mix(i ^ 0xDEAD_BEEF));
        }
        let false_positives = (10_000..20_000u64)
            .filter(|&i| b.contains(mix(i), mix(i ^ 0xDEAD_BEEF)))
            .count();
        // ~10 bits/key, 6 probes: expect ≈0.1% — allow generous slack.
        assert!(
            false_positives < 300,
            "false positive rate too high: {false_positives}/10000"
        );
    }

    #[test]
    fn empty_bloom_contains_nothing() {
        let b = BloomFilter::with_capacity(0);
        assert!(!b.contains(1, 2));
        assert_eq!(b.byte_len(), 0);
    }

    #[test]
    fn header_round_trip() {
        let h = header(3, 7);
        let bytes = h.to_wire();
        assert_eq!(IndexPageHeader::from_wire(&bytes).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let mut bytes = header(0, 0).to_wire();
        bytes[0] = b'X';
        assert!(IndexPageHeader::from_wire(&bytes).is_err());

        let mut bytes = header(0, 0).to_wire();
        bytes[4] = 0xFF;
        assert!(IndexPageHeader::from_wire(&bytes).is_err());
    }

    #[test]
    fn page_round_trip_through_io() {
        let mut buf = Vec::new();
        write_page_to(&mut buf, &header(1, 0), b"entry-bytes").unwrap();
        write_page_to(&mut buf, &header(1, 1), b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (h0, e0) = read_page_from(&mut cursor).unwrap().unwrap();
        assert_eq!(h0.sequence, 0);
        assert_eq!(e0, b"entry-bytes");
        let (h1, e1) = read_page_from(&mut cursor).unwrap().unwrap();
        assert_eq!(h1.sequence, 1);
        assert!(e1.is_empty());
        assert!(read_page_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn torn_trailing_page_is_an_error() {
        let mut buf = Vec::new();
        write_page_to(&mut buf, &header(0, 0), b"whole").unwrap();
        buf.extend_from_slice(&(500u32).to_le_bytes());
        buf.extend_from_slice(b"torn");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_page_from(&mut cursor).unwrap().is_some());
        assert!(read_page_from(&mut cursor).is_err());
    }

    #[test]
    fn garbage_page_body_is_an_error_not_a_page() {
        let mut buf = Vec::new();
        crate::frame::write_frame_to(&mut buf, b"not an index page").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_page_from(&mut cursor).is_err());
    }
}
