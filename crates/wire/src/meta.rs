//! Chain-metadata codec: height-map pages and checkpoint snapshots.
//!
//! PR 2/3 spilled blocks and transaction indexes to disk; this module
//! specifies the on-disk layout for the *remaining* per-block chain
//! metadata — the canonical height→hash table and the checkpoint state
//! snapshot — so a node's resident state can stay O(finality window) over
//! unbounded history and a restart can fast-start from the snapshot instead
//! of re-absorbing all of history.
//!
//! Two record kinds:
//!
//! * **Height pages**: fixed-width entries (32-byte block hashes) covering a
//!   contiguous height range `[first_height, first_height + entry_count)`,
//!   framed with the shared [`crate::frame`] framing. Entry bytes are opaque
//!   at this layer (the ledger writes raw hashes), so a reader can
//!   binary-search a page directory without decoding bodies.
//! * **[`CheckpointSnapshot`]**: everything the chain needs to resume at a
//!   finality checkpoint — its height/hash, the per-author nonce floors
//!   of everything finalized at or below it, the transaction-index
//!   durability watermarks, and the height-map length at snapshot time
//!   (the self-consistency watermarks crash recovery checks against).
//!   Snapshot size grows with the number of distinct finalized authors
//!   (40 bytes each). A snapshot is stored in a *slot*
//!   ([`encode_snapshot_slot`]): a sequence number and a digest of the
//!   payload ahead of it, so a slot overwritten in place and torn by a
//!   crash is detected rather than trusted.

use crate::frame::{read_frame_from, write_frame_to};
use crate::{decode_seq, encode_seq, Codec, Reader, WireError, Writer};
use std::io::{self, Read, Write};

/// Magic bytes opening every height-map page (`BPHM` = BlockProv Height Map).
pub const HEIGHT_MAGIC: [u8; 4] = *b"BPHM";

/// Magic bytes opening every checkpoint snapshot (`BPCS`).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"BPCS";

/// Height-page format version (unchanged since PR 4).
pub const META_VERSION: u16 = 1;

/// Checkpoint-snapshot format version. Version 3 carries the per-author
/// nonce floors inline, where version 2 carried the durability watermarks
/// of a separate floor store. An older snapshot fails decode, which readers
/// treat as "no usable snapshot": the node replays from blocks once and
/// writes a fresh snapshot — self-healing, no migration path needed.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Width in bytes of one height-map entry (a block hash).
pub const HEIGHT_ENTRY_LEN: usize = 32;

/// Header opening every height-map page.
///
/// Pages cover *contiguous* height ranges in append order: page N+1's
/// `first_height` must equal page N's `first_height + entry_count`, so a
/// directory scan can verify gap-freeness without decoding entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeightPageHeader {
    /// Format version (readers reject versions they do not understand).
    pub version: u16,
    /// First height covered by this page.
    pub first_height: u64,
    /// Number of fixed-width entries in the page body.
    pub entry_count: u32,
}

impl Codec for HeightPageHeader {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&HEIGHT_MAGIC);
        w.put_u16(self.version);
        w.put_u64(self.first_height);
        w.put_u32(self.entry_count);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let magic = r.get_raw(4)?;
        if magic != HEIGHT_MAGIC {
            return Err(WireError::Invalid("bad height page magic"));
        }
        let version = r.get_u16()?;
        if version != META_VERSION {
            return Err(WireError::Invalid("unsupported height page version"));
        }
        Ok(Self {
            version,
            first_height: r.get_u64()?,
            entry_count: r.get_u32()?,
        })
    }
}

/// Write one height page — header plus fixed-width entry bytes — as a single
/// frame. No flush; callers batch pages and flush once.
pub fn write_height_page_to<W: Write>(
    w: &mut W,
    header: &HeightPageHeader,
    entry_bytes: &[u8],
) -> io::Result<()> {
    debug_assert_eq!(
        entry_bytes.len(),
        header.entry_count as usize * HEIGHT_ENTRY_LEN,
        "height page body must be entry_count fixed-width entries"
    );
    let mut body = header.to_wire();
    body.extend_from_slice(entry_bytes);
    write_frame_to(w, &body)
}

/// Read the next height page, returning its header and raw entry bytes.
///
/// `Ok(None)` on clean end-of-stream; a torn trailing frame, a bad header,
/// or a body whose length disagrees with `entry_count` is an error (callers
/// decide whether that means tamper-failure or crash-recovery truncation).
pub fn read_height_page_from<R: Read>(
    r: &mut R,
) -> io::Result<Option<(HeightPageHeader, Vec<u8>)>> {
    let Some(body) = read_frame_from(r)? else {
        return Ok(None);
    };
    let mut reader = Reader::new(&body);
    let header = HeightPageHeader::decode(&mut reader)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let rest = reader.remaining();
    if rest != header.entry_count as usize * HEIGHT_ENTRY_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "height page body {} bytes does not match {} fixed-width entries",
                rest, header.entry_count
            ),
        ));
    }
    let entries = reader
        .get_raw(rest)
        .expect("remaining bytes are available")
        .to_vec();
    Ok(Some((header, entries)))
}

/// A checkpoint state snapshot: the chain state a restart resumes from.
///
/// Written into a snapshot slot ([`encode_snapshot_slot`]) as finality
/// advances. The hash appears as a raw 32-byte value because the wire layer
/// sits below the ledger's newtypes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSnapshot {
    /// Format version.
    pub version: u16,
    /// Height of the checkpoint block.
    pub height: u64,
    /// Hash of the checkpoint block.
    pub hash: [u8; 32],
    /// Per-partition durable height watermarks of the transaction index at
    /// snapshot time (empty when no index is attached).
    pub index_watermarks: Vec<u64>,
    /// Height through which the transaction index was last fully synced —
    /// entries at or below this height are guaranteed durable, so crash
    /// recovery only re-derives `(index_durable_height, height]`.
    pub index_durable_height: u64,
    /// Nonce floors: `(author, next expected nonce)` for every author with
    /// a transaction finalized at or below `height`. Authors are raw
    /// 32-byte ids, like `hash`; order is not significant.
    pub nonce_floors: Vec<([u8; 32], u64)>,
    /// Durable height-map length (heights covered by flushed pages) at
    /// snapshot time; a shorter map on reopen marks a torn tail to heal.
    pub height_map_len: u64,
}

impl Codec for CheckpointSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&SNAPSHOT_MAGIC);
        w.put_u16(self.version);
        w.put_u64(self.height);
        self.hash.encode(w);
        encode_seq(&self.index_watermarks, w);
        w.put_u64(self.index_durable_height);
        encode_seq(&self.nonce_floors, w);
        w.put_u64(self.height_map_len);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let magic = r.get_raw(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(WireError::Invalid("bad snapshot magic"));
        }
        let version = r.get_u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(WireError::Invalid("unsupported snapshot version"));
        }
        Ok(Self {
            version,
            height: r.get_u64()?,
            hash: <[u8; 32]>::decode(r)?,
            index_watermarks: decode_seq(r)?,
            index_durable_height: r.get_u64()?,
            nonce_floors: decode_seq(r)?,
            height_map_len: r.get_u64()?,
        })
    }
}

/// Bytes ahead of a snapshot slot's payload: `u64` sequence number, `u32`
/// payload length and the 32-byte payload digest.
pub const SNAPSHOT_SLOT_HEADER_LEN: usize = 8 + 4 + 32;

/// The digest a snapshot slot checks its payload with. The wire layer sits
/// below the crypto crate, so callers pass it in (the ledger passes SHA-256).
pub type SlotDigest = fn(&[u8]) -> [u8; 32];

/// Encode one snapshot slot: `[u64 seq][u32 len][32 B digest(payload)]
/// [payload]`, where the payload is a [`CheckpointSnapshot::to_wire`].
///
/// A slot is overwritten in place, never truncated, so the file may carry
/// stale bytes past `len` from a longer earlier snapshot;
/// [`decode_snapshot_slot`] ignores them.
pub fn encode_snapshot_slot(seq: u64, payload: &[u8], digest: SlotDigest) -> Vec<u8> {
    let mut w = Writer::with_capacity(SNAPSHOT_SLOT_HEADER_LEN + payload.len());
    w.put_u64(seq);
    w.put_u32(payload.len() as u32);
    w.put_raw(&digest(payload));
    w.put_raw(payload);
    w.into_bytes()
}

/// Decode a snapshot slot's bytes into its sequence number and payload.
///
/// `None` — "not intact" — for a slot shorter than its header, a `len`
/// past the end of the bytes, or a payload whose digest does not match:
/// the signature of a write a crash tore. Never panics on any input.
pub fn decode_snapshot_slot(bytes: &[u8], digest: SlotDigest) -> Option<(u64, &[u8])> {
    let mut r = Reader::new(bytes);
    let seq = r.get_u64().ok()?;
    let len = r.get_u32().ok()? as usize;
    let stored = r.get_raw(32).ok()?;
    let payload = r.get_raw(len).ok()?;
    (digest(payload)[..] == *stored).then_some((seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(first: u64, count: u32) -> (HeightPageHeader, Vec<u8>) {
        let header = HeightPageHeader {
            version: META_VERSION,
            first_height: first,
            entry_count: count,
        };
        let mut bytes = Vec::new();
        for i in 0..count {
            bytes.extend_from_slice(&[(first as u8).wrapping_add(i as u8); HEIGHT_ENTRY_LEN]);
        }
        (header, bytes)
    }

    fn snapshot() -> CheckpointSnapshot {
        CheckpointSnapshot {
            version: SNAPSHOT_VERSION,
            height: 42,
            hash: [7u8; 32],
            index_watermarks: vec![40, 0, 41, 12],
            index_durable_height: 38,
            nonce_floors: vec![([1u8; 32], 17), ([2u8; 32], 1)],
            height_map_len: 40,
        }
    }

    #[test]
    fn height_page_round_trip_through_io() {
        let mut buf = Vec::new();
        let (h0, e0) = page(0, 3);
        let (h1, e1) = page(3, 2);
        write_height_page_to(&mut buf, &h0, &e0).unwrap();
        write_height_page_to(&mut buf, &h1, &e1).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (rh0, re0) = read_height_page_from(&mut cursor).unwrap().unwrap();
        assert_eq!(rh0, h0);
        assert_eq!(re0, e0);
        let (rh1, re1) = read_height_page_from(&mut cursor).unwrap().unwrap();
        assert_eq!(rh1, h1);
        assert_eq!(re1, e1);
        assert!(read_height_page_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn height_page_rejects_bad_magic_and_length_mismatch() {
        let (h, e) = page(0, 2);
        let mut buf = Vec::new();
        write_height_page_to(&mut buf, &h, &e).unwrap();
        buf[4] = b'X'; // magic sits after the 4-byte frame length
        assert!(read_height_page_from(&mut std::io::Cursor::new(buf)).is_err());

        // A body shorter than entry_count * 32 is corrupt, not a page.
        let mut body = h.to_wire();
        body.extend_from_slice(&e[..HEIGHT_ENTRY_LEN]); // one entry missing
        let mut buf = Vec::new();
        crate::frame::write_frame_to(&mut buf, &body).unwrap();
        assert!(read_height_page_from(&mut std::io::Cursor::new(buf)).is_err());
    }

    /// Test digest: four FNV-1a lanes with distinct offsets. Every lane's
    /// step is a bijection of its state, so any change to a single payload
    /// byte changes the digest, which the slot tests below rely on.
    fn digest(bytes: &[u8]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (lane, chunk) in out.chunks_exact_mut(8).enumerate() {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ lane as u64;
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            chunk.copy_from_slice(&h.to_le_bytes());
        }
        out
    }

    #[test]
    fn snapshot_round_trip() {
        let s = snapshot();
        assert_eq!(CheckpointSnapshot::from_wire(&s.to_wire()).unwrap(), s);

        let slot = encode_snapshot_slot(9, &s.to_wire(), digest);
        let (seq, payload) = decode_snapshot_slot(&slot, digest).unwrap();
        assert_eq!(seq, 9);
        assert_eq!(CheckpointSnapshot::from_wire(payload).unwrap(), s);
    }

    #[test]
    fn snapshot_rejects_bad_magic_version_and_torn_frames() {
        let mut bytes = snapshot().to_wire();
        bytes[0] = b'X';
        assert!(CheckpointSnapshot::from_wire(&bytes).is_err());

        let mut bytes = snapshot().to_wire();
        bytes[4] = 0xFF; // version low byte
        assert!(CheckpointSnapshot::from_wire(&bytes).is_err());

        // A version-2 snapshot (floor-store watermarks where the floors now
        // sit) is "no usable snapshot", whatever its tail happens to parse as.
        let mut w = Writer::new();
        w.put_raw(&SNAPSHOT_MAGIC);
        w.put_u16(2);
        w.put_u64(42);
        [7u8; 32].encode(&mut w);
        encode_seq(&[40u64, 41], &mut w); // index_watermarks
        w.put_u64(38); // index_durable_height
        encode_seq(&[39u64, 41], &mut w); // v2: floor-store partition watermarks
        w.put_u64(39); // v2: floor-store durable height
        w.put_u64(40); // height_map_len
        assert!(CheckpointSnapshot::from_wire(&w.into_bytes()).is_err());

        // Torn slot: a length promising more than is present.
        let mut slot = encode_snapshot_slot(1, &snapshot().to_wire(), digest);
        slot.truncate(slot.len() - 3);
        assert!(decode_snapshot_slot(&slot, digest).is_none());

        // An empty slot (a freshly created file) holds no snapshot.
        assert!(decode_snapshot_slot(&[], digest).is_none());
    }

    #[test]
    fn snapshot_slot_ignores_a_longer_stale_tail() {
        // A long snapshot written first, a short one later over the same
        // bytes: the file keeps the long one's tail past the new `len`.
        let long = CheckpointSnapshot {
            nonce_floors: (0..20u8).map(|a| ([a; 32], u64::from(a))).collect(),
            ..snapshot()
        };
        let mut file = encode_snapshot_slot(1, &long.to_wire(), digest);
        let short = encode_snapshot_slot(2, &snapshot().to_wire(), digest);
        assert!(short.len() < file.len());
        file[..short.len()].copy_from_slice(&short);
        let (seq, payload) = decode_snapshot_slot(&file, digest).unwrap();
        assert_eq!(seq, 2);
        assert_eq!(CheckpointSnapshot::from_wire(payload).unwrap(), snapshot());
    }

    #[test]
    fn snapshot_slot_truncations_and_bit_flips_are_not_intact() {
        let slot = encode_snapshot_slot(5, &snapshot().to_wire(), digest);
        for cut in 0..slot.len() {
            assert!(
                decode_snapshot_slot(&slot[..cut], digest).is_none(),
                "slot cut to {cut} bytes decoded"
            );
        }
        // One bit flipped in `len`, in the digest and in the payload.
        for (what, at) in [
            ("len", 8),
            ("digest", 12 + 17),
            ("payload", SNAPSHOT_SLOT_HEADER_LEN + 10),
        ] {
            for bit in 0..8 {
                let mut flipped = slot.clone();
                flipped[at] ^= 1 << bit;
                assert!(
                    decode_snapshot_slot(&flipped, digest).is_none(),
                    "bit {bit} of the {what} flipped and the slot decoded"
                );
            }
        }
    }
}
