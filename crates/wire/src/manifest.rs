//! Storage-manifest codec: the durable record of which files are live.
//!
//! LSM stores (RocksDB's MANIFEST, ethrex's `Store` seam) solve the
//! "which files does this directory actually own?" problem with a single
//! atomically-replaced file that lists every live file together with the
//! key range it covers. The ledger adopts the same shape: each storage
//! tier directory may hold a `MANIFEST` whose entries name the live files
//! (segments, index pages, height-map pages) with per-file *height
//! fences* and byte lengths, under a monotonically
//! increasing *epoch*. The tiers are append-only, so an epoch bump only
//! ever adds a file (a rollover) or records growth; a crash between
//! creating a file and committing the manifest that lists it loses
//! nothing, because only manifest-listed files are live and stray files
//! are garbage-collected on open.
//!
//! This module is the wire format only: the magic, the entry layout and
//! the whole-file codec. The commit protocol (temp + rename, epoch
//! succession, GC) lives in `blockprov_ledger::manifest`.

use crate::{decode_seq, encode_seq, Codec, Reader, WireError, Writer};

/// Magic bytes opening every manifest (`BPMF` = BlockProv ManiFest).
pub const MANIFEST_MAGIC: [u8; 4] = *b"BPMF";

/// Current manifest format version.
pub const MANIFEST_VERSION: u16 = 1;

/// Conventional file name for a tier directory's manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// What role a manifest-listed file plays in its tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManifestFileKind {
    /// A block segment (`seg-NNNNN.blk`); `items` counts blocks.
    Segment,
    /// A tx-index partition page file (`idx-NN.pages`); `items` counts
    /// durable pages.
    IndexPartition,
    /// The height-map file (`height.map`); `items` counts height entries.
    HeightMap,
}

impl Codec for ManifestFileKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            ManifestFileKind::Segment => 0,
            ManifestFileKind::IndexPartition => 1,
            ManifestFileKind::HeightMap => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ManifestFileKind::Segment),
            1 => Ok(ManifestFileKind::IndexPartition),
            2 => Ok(ManifestFileKind::HeightMap),
            value => Err(WireError::UnknownDiscriminant {
                type_name: "ManifestFileKind",
                value: value as u64,
            }),
        }
    }
}

/// A point of the sparse intra-file height index: every frame that starts
/// at a byte offset below `offset` holds a block at height ≤ `max_height`.
///
/// Emitted every [`crate::manifest`]-user-defined stride of frames, so a
/// reader that only wants heights above a floor can seek to the deepest
/// point whose `max_height` is at or below the floor and scan from there,
/// instead of reading the file from the top. `max_height` values are
/// monotone across a file's points (each is a running maximum), which is
/// what makes the seek a binary search even though block heights inside a
/// segment are not themselves monotone (fork rivals append out of order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparsePoint {
    /// Byte offset the guarantee covers (exclusive).
    pub offset: u64,
    /// Running maximum block height over all frames before `offset`.
    pub max_height: u64,
}

impl Codec for SparsePoint {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.offset);
        w.put_u64(self.max_height);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            offset: r.get_u64()?,
            max_height: r.get_u64()?,
        })
    }
}

/// One live file, as recorded in the manifest.
///
/// The height fence (`first_height..=last_height`) is what buys the
/// O(window) cold start: a reader that only needs heights above a
/// checkpoint skips every *sealed* file whose `last_height` sits at or
/// below it without opening the file. For files that straddle the fence
/// (the active segment, typically), the `sparse` height index narrows the
/// scan further to the file's tail. `len` is the file's exact byte
/// length at commit time — a listed file that is missing or shorter than
/// its fence says is loud corruption, never silently ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Role of the file in its tier.
    pub kind: ManifestFileKind,
    /// Tier-local file id (segment number, partition number; 0 for the
    /// single height map).
    pub id: u32,
    /// Smallest ledger height the file covers (0 when empty).
    pub first_height: u64,
    /// Largest ledger height the file covers (0 when empty).
    pub last_height: u64,
    /// Exact byte length of the file when this manifest was committed.
    pub len: u64,
    /// Item count at commit time; the unit depends on `kind` (blocks for
    /// segments, durable pages for paged indexes, entries for the height
    /// map).
    pub items: u64,
    /// Sparse intra-file height index (may be empty), offsets ascending.
    pub sparse: Vec<SparsePoint>,
}

impl Codec for ManifestEntry {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        w.put_u32(self.id);
        w.put_u64(self.first_height);
        w.put_u64(self.last_height);
        w.put_u64(self.len);
        w.put_u64(self.items);
        encode_seq(&self.sparse, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            kind: ManifestFileKind::decode(r)?,
            id: r.get_u32()?,
            first_height: r.get_u64()?,
            last_height: r.get_u64()?,
            len: r.get_u64()?,
            items: r.get_u64()?,
            sparse: decode_seq(r)?,
        })
    }
}

/// A whole manifest: the epoch plus every live file.
///
/// Epochs are monotonically increasing across commits; the file is only
/// ever replaced whole (temp + rename), never appended to, so a reader
/// either sees a complete epoch or — after a crash before the rename —
/// the previous one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Commit sequence number, bumped on every replace.
    pub epoch: u64,
    /// Every live file in the tier directory.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Entries of one kind, in listed (id) order.
    pub fn of_kind(&self, kind: ManifestFileKind) -> impl Iterator<Item = &ManifestEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }
}

impl Codec for Manifest {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&MANIFEST_MAGIC);
        w.put_u16(MANIFEST_VERSION);
        w.put_u64(self.epoch);
        encode_seq(&self.entries, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let magic = r.get_raw(4)?;
        if magic != MANIFEST_MAGIC {
            return Err(WireError::Invalid("bad manifest magic"));
        }
        let version = r.get_u16()?;
        if version != MANIFEST_VERSION {
            return Err(WireError::Invalid("unsupported manifest version"));
        }
        Ok(Self {
            epoch: r.get_u64()?,
            entries: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            epoch: 7,
            entries: vec![
                ManifestEntry {
                    kind: ManifestFileKind::Segment,
                    id: 0,
                    first_height: 0,
                    last_height: 99,
                    len: 4096,
                    items: 100,
                    sparse: vec![
                        SparsePoint {
                            offset: 2048,
                            max_height: 49,
                        },
                        SparsePoint {
                            offset: 4096,
                            max_height: 99,
                        },
                    ],
                },
                ManifestEntry {
                    kind: ManifestFileKind::Segment,
                    id: 1,
                    first_height: 100,
                    last_height: 120,
                    len: 812,
                    items: 21,
                    sparse: Vec::new(),
                },
                ManifestEntry {
                    kind: ManifestFileKind::IndexPartition,
                    id: 3,
                    first_height: 0,
                    last_height: 99,
                    len: 333,
                    items: 2,
                    sparse: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trip() {
        let m = sample();
        assert_eq!(Manifest::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn empty_manifest_round_trip() {
        let m = Manifest::default();
        assert_eq!(Manifest::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn of_kind_filters() {
        let m = sample();
        assert_eq!(m.of_kind(ManifestFileKind::Segment).count(), 2);
        assert_eq!(m.of_kind(ManifestFileKind::IndexPartition).count(), 1);
        assert_eq!(m.of_kind(ManifestFileKind::HeightMap).count(), 0);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let m = sample();
        let mut bytes = m.to_wire();
        bytes[0] = b'X';
        assert!(Manifest::from_wire(&bytes).is_err());

        let mut bytes = m.to_wire();
        bytes[4] = 0xFF; // version
        assert!(Manifest::from_wire(&bytes).is_err());

        let bytes = m.to_wire();
        assert!(Manifest::from_wire(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn rejects_unknown_kind_and_trailing_bytes() {
        let bytes = [9u8]; // discriminant 9 is unassigned
        assert!(ManifestFileKind::from_wire(&bytes).is_err());

        let mut bytes = sample().to_wire();
        bytes.push(0);
        assert!(matches!(
            Manifest::from_wire(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }
}
