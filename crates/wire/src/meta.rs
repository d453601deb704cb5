//! Chain-metadata codec: checkpoint snapshots and their slots.
//!
//! The on-disk layout of the per-block chain metadata that is neither a
//! block nor an index entry, so a node's resident state can stay
//! O(finality window) over unbounded history and a restart can fast-start
//! from the snapshot instead of re-absorbing all of history.
//!
//! * **The height array** has no codec: entry `h` is the raw 32-byte
//!   canonical hash at byte offset `h ×` [`HEIGHT_ENTRY_LEN`], with no
//!   header and no framing.
//! * **[`CheckpointSnapshot`]**: everything the chain needs to resume at a
//!   finality checkpoint — its height/hash, the per-author nonce floors
//!   of everything finalized at or below it, the transaction-index
//!   durability watermarks, and the height-array prefix it vouches for.
//!   Snapshot size grows with the number of distinct finalized authors
//!   (40 bytes each). A snapshot is stored in a *slot*
//!   ([`encode_snapshot_slot`]): a sequence number and a digest of the
//!   payload ahead of it, so a slot overwritten in place and torn by a
//!   crash is detected rather than trusted.

use crate::{decode_seq, encode_seq, Codec, Reader, WireError, Writer};

/// Magic bytes opening every checkpoint snapshot (`BPCS`).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"BPCS";

/// Checkpoint-snapshot format version, which is also the format version of
/// the whole metadata directory. Version 5 sits beside index pages of
/// version 2, which dropped the author dimension; version 4 vouches for a
/// prefix of the flat height array, where version 3 sat beside a paged
/// height map. Readers refuse any other version; there is no migration
/// path.
pub const SNAPSHOT_VERSION: u16 = 5;

/// Width in bytes of one height-array entry (a block hash).
pub const HEIGHT_ENTRY_LEN: usize = 32;

/// The format version an encoded snapshot declares, read without decoding
/// the rest; `None` when the bytes do not open with [`SNAPSHOT_MAGIC`].
pub fn snapshot_version(payload: &[u8]) -> Option<u16> {
    let mut r = Reader::new(payload);
    (r.get_raw(4).ok()? == SNAPSHOT_MAGIC).then_some(())?;
    r.get_u16().ok()
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
    /// Heights of the height array on disk at snapshot time: the prefix
    /// this snapshot vouches for. Open cuts the array back to it, so no
    /// byte written after the snapshot is served before it is re-derived.
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
        assert_eq!(snapshot_version(&bytes), None);

        let mut bytes = snapshot().to_wire();
        assert_eq!(snapshot_version(&bytes), Some(SNAPSHOT_VERSION));
        bytes[4] = 0xFF; // version low byte
        assert!(CheckpointSnapshot::from_wire(&bytes).is_err());
        assert_eq!(snapshot_version(&bytes), Some(0x00FF));

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
