//! Durable chain-metadata tier: the height→hash array and checkpoint
//! snapshots.
//!
//! Once a height finalizes, its canonical hash is appended here and pruned
//! from the chain's in-memory suffix, and a [`CheckpointSnapshot`] —
//! checkpoint height/hash, the per-author nonce floors and durability
//! watermarks — is written into one of two checksummed slot files, so a
//! restart fast-starts from the checkpoint instead of re-absorbing history.
//!
//! The height array (`heights.arr`) is one append-only file with no header
//! and no framing: entry `h` is the canonical hash at byte offset `h × 32`.
//! The newest 32k heights are also held in memory; an older lookup is one
//! 32-byte `pread`. Finalized heights never change, which is what makes a
//! flat array sufficient.
//!
//! Blocks are authoritative and everything here is *derived*. Open trusts
//! only the array prefix the newest intact snapshot vouches for
//! ([`CheckpointSnapshot::height_map_len`], covered by the slot's SHA-256)
//! and cuts the rest; the chain re-derives the heights past it by walking
//! parent pointers down from the checkpoint block and replaying the
//! suffix. A torn snapshot slot is ignored in favour of the other slot, and
//! with neither slot readable a full replay rebuilds and rewrites the
//! snapshot. Two things fail loudly: an intact slot of another format
//! version (a data dir from another build — there is no migration; delete
//! the directory to rebuild it from blocks), and a *valid* snapshot that
//! contradicts the block store (the directories belong to different
//! histories).

use crate::block::BlockHash;
use crate::readview::Published;
use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_wire::meta::{
    decode_snapshot_slot, encode_snapshot_slot, snapshot_version, CheckpointSnapshot,
    HEIGHT_ENTRY_LEN, SNAPSHOT_VERSION,
};
use blockprov_wire::Codec;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Tuning for the metadata tier.
#[derive(Debug, Clone, Copy)]
pub struct MetaConfig {
    /// Force a transaction-index sync (and record the durable height in the
    /// snapshot) at least every this many finalized heights, bounding the
    /// index suffix crash recovery has to re-derive.
    pub index_sync_interval: u64,
    /// Write the checkpoint snapshot at every Nth finality advance (1 =
    /// every advance). A crash can then lose up to N advances, so a restart
    /// re-absorbs at most `finality window + N` blocks — `window + 2N`
    /// when a power loss tore the newest snapshot slot and the open falls
    /// back to the other one — still O(1) over history. A write is one
    /// in-place `pwrite` of the encoded snapshot into a slot file; the
    /// default of 64 amortizes encoding the snapshot, which grows with the
    /// distinct authors in the floor map.
    /// Latency-insensitive audit nodes can set 1 for a checkpoint-exact
    /// snapshot at every advance. Clean shutdown (`Chain::sync_meta`)
    /// always writes a fresh snapshot regardless.
    pub snapshot_interval: u64,
}

impl Default for MetaConfig {
    fn default() -> Self {
        Self {
            index_sync_interval: 8192,
            snapshot_interval: 64,
        }
    }
}

/// Heights per resident chunk of the array.
const CHUNK: u64 = 1024;
/// Whole chunks held in memory: the newest `RESIDENT_CHUNKS × CHUNK`
/// heights (1 MiB of hashes) answer without a syscall, older ones with one
/// 32-byte `pread`.
const RESIDENT_CHUNKS: usize = 32;

/// The newest heights of the array, in memory: sealed chunks of [`CHUNK`]
/// hashes, shared with published views by `Arc`, then the open chunk. It
/// always covers everything not yet flushed.
#[derive(Debug, Clone, Default)]
struct Resident {
    /// First height held (a multiple of [`CHUNK`]).
    first: u64,
    sealed: VecDeque<Arc<[BlockHash]>>,
    open: Vec<BlockHash>,
}

impl Resident {
    /// One past the last height held: the map's length.
    fn end(&self) -> u64 {
        self.first + self.sealed.len() as u64 * CHUNK + self.open.len() as u64
    }

    fn get(&self, height: u64) -> Option<BlockHash> {
        let off = height.checked_sub(self.first)?;
        let (chunk, at) = ((off / CHUNK) as usize, (off % CHUNK) as usize);
        match self.sealed.get(chunk) {
            Some(sealed) => Some(sealed[at]),
            None if chunk == self.sealed.len() => self.open.get(at).copied(),
            None => None,
        }
    }

    fn push(&mut self, hash: BlockHash) {
        self.open.push(hash);
        if self.open.len() as u64 == CHUNK {
            self.sealed.push_back(std::mem::take(&mut self.open).into());
        }
    }

    /// Drop the oldest chunks past the bound — only ones wholly below
    /// `durable`, so an unflushed height is never dropped.
    fn evict(&mut self, durable: u64) {
        while self.sealed.len() > RESIDENT_CHUNKS && self.first + CHUNK <= durable {
            self.sealed.pop_front();
            self.first += CHUNK;
        }
    }
}

/// Reader-shared half of a [`HeightMap`]: the published immutable view and
/// the array file, which both sides `pread` and only the writer extends.
#[derive(Debug)]
struct HeightMapShared {
    state: Published<Resident>,
    file: File,
}

/// Canonical hash at `height`: from `resident` when it holds the height,
/// else one `pread` of the array (everything below `resident` is on disk).
fn lookup(file: &File, resident: &Resident, height: u64) -> io::Result<Option<BlockHash>> {
    if height >= resident.first {
        return Ok(resident.get(height));
    }
    let mut entry = [0u8; HEIGHT_ENTRY_LEN];
    file.read_exact_at(&mut entry, height * HEIGHT_ENTRY_LEN as u64)?;
    Ok(Some(BlockHash(Hash256(entry))))
}

/// A cloneable, `Send + Sync` read handle over the last published
/// [`HeightMap`] state.
#[derive(Debug, Clone)]
pub struct HeightReader {
    shared: Arc<HeightMapShared>,
}

impl HeightReader {
    /// Canonical hash at `height` in the published view, or `None` when the
    /// view does not cover it.
    pub fn hash_at(&self, height: u64) -> io::Result<Option<BlockHash>> {
        lookup(&self.shared.file, &self.shared.state.load(), height)
    }

    /// Heights covered by the published view (unflushed ones included).
    pub fn len(&self) -> u64 {
        self.shared.state.load().end()
    }

    /// True when the published view covers nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The durable, append-only canonical height→hash array.
///
/// Heights are strictly contiguous: entry `h` is the canonical block hash
/// at height `h`, and pushes must arrive in height order (idempotent pushes
/// of already-covered heights are dropped, so crash replay can blindly
/// re-push). Pushes land in memory; [`HeightMap::flush`] writes the
/// unflushed tail with one positional write, and only then counts it
/// durable.
#[derive(Debug)]
pub struct HeightMap {
    resident: Resident,
    /// Entries on disk; `durable..len()` are held only in `resident`.
    durable: u64,
    shared: Arc<HeightMapShared>,
}

impl HeightMap {
    /// Open (or create) the array at `path`, trusting its first `vouched`
    /// entries and cutting (then `fsync`ing) everything past them — a
    /// torn record, or whole records a crash left after the last snapshot.
    /// The chain re-derives the cut heights from blocks.
    pub fn open<P: AsRef<Path>>(path: P, vouched: u64) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let entry = HEIGHT_ENTRY_LEN as u64;
        let len = file.metadata()?.len();
        let durable = vouched.min(len / entry);
        if len != durable * entry {
            file.set_len(durable * entry)?;
            file.sync_all()?;
        }
        let first = durable.saturating_sub(RESIDENT_CHUNKS as u64 * CHUNK) / CHUNK * CHUNK;
        let mut bytes = vec![0u8; ((durable - first) * entry) as usize];
        file.read_exact_at(&mut bytes, first * entry)?;
        let mut resident = Resident {
            first,
            ..Resident::default()
        };
        for hash in bytes.chunks_exact(HEIGHT_ENTRY_LEN) {
            resident.push(BlockHash(Hash256(hash.try_into().expect("32-byte entry"))));
        }
        let shared = Arc::new(HeightMapShared {
            state: Published::new(resident.clone()),
            file,
        });
        Ok(Self {
            resident,
            durable,
            shared,
        })
    }

    /// Publish the current view for readers. Heights below the resident
    /// chunks are all flushed, so every entry a reader `pread`s is on disk.
    pub fn publish(&self) {
        self.shared.state.store(Arc::new(self.resident.clone()));
    }

    /// A read handle over the last published state.
    pub fn reader(&self) -> HeightReader {
        HeightReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Heights covered, unflushed ones included.
    pub fn len(&self) -> u64 {
        self.resident.end()
    }

    /// True when no heights are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heights written to the array file.
    pub fn durable_len(&self) -> u64 {
        self.durable
    }

    /// Append the canonical hash for `height`.
    ///
    /// Returns `Ok(false)` when the height is already covered with the
    /// same hash (idempotent crash replay). A re-push that *contradicts*
    /// the covered hash is an error: finalized heights never change, so a
    /// mismatch means this map belongs to a different history than the
    /// chain pushing into it. Errors on a gap too — the caller must push
    /// finalized heights in order.
    pub fn push(&mut self, height: u64, hash: BlockHash) -> io::Result<bool> {
        let next = self.len();
        if height < next {
            let existing = self.hash_at(height)?;
            if existing != Some(hash) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "height map disagrees with the chain at height {height} — \
                         the metadata directory belongs to a different history"
                    ),
                ));
            }
            return Ok(false);
        }
        if height > next {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("height map gap: pushing {height}, next expected {next}"),
            ));
        }
        self.resident.push(hash);
        Ok(true)
    }

    /// Write the unflushed tail to the array file in one positional write.
    /// The chain calls this once per group commit.
    pub fn flush(&mut self) -> io::Result<()> {
        let len = self.len();
        if self.durable == len {
            return Ok(());
        }
        let bytes: Vec<u8> = (self.durable..len)
            .flat_map(|h| *self.resident.get(h).expect("resident").0.as_bytes())
            .collect();
        self.shared
            .file
            .write_all_at(&bytes, self.durable * HEIGHT_ENTRY_LEN as u64)?;
        self.durable = len;
        self.resident.evict(len);
        Ok(())
    }

    /// Flush the unflushed tail and publish (checkpoint/shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.publish();
        Ok(())
    }

    /// Canonical hash at `height`, or `None` when not covered.
    pub fn hash_at(&self, height: u64) -> io::Result<Option<BlockHash>> {
        lookup(&self.shared.file, &self.resident, height)
    }
}

/// Name of the height-array file inside a metadata directory.
const HEIGHT_ARRAY_FILE: &str = "heights.arr";
/// Names of the two snapshot slot files inside a metadata directory.
const SNAPSHOT_SLOTS: [&str; 2] = ["snapshot.0", "snapshot.1"];

/// The digest snapshot slots are checked with.
fn slot_digest(bytes: &[u8]) -> [u8; 32] {
    sha256(bytes).0
}

/// The durable metadata tier a [`crate::chain::Chain`] attaches: the
/// height→hash array plus checkpoint snapshots written in place into two
/// alternating slot files, rooted in one directory alongside the segment
/// store and transaction index.
#[derive(Debug)]
pub struct MetaStore {
    config: MetaConfig,
    height_map: HeightMap,
    /// `snapshot.0` and `snapshot.1`, opened once and overwritten in place.
    slots: [File; 2],
    /// Slot and sequence number of the newest usable snapshot: the next
    /// write goes into the *other* slot, so a write torn by a crash can
    /// only ever cost the slot it was overwriting.
    newest: Option<(usize, u64)>,
}

impl MetaStore {
    /// Open (or create) a metadata tier rooted at `dir`.
    ///
    /// Fails when either slot holds an intact snapshot of another format
    /// version; the error names both versions.
    pub fn open<P: AsRef<Path>>(dir: P, config: MetaConfig) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let open_slot = |name: &str| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(dir.join(name))
        };
        let slots = [open_slot(SNAPSHOT_SLOTS[0])?, open_slot(SNAPSHOT_SLOTS[1])?];
        let newest = newest_slot(&slots)?;
        let vouched = newest
            .as_ref()
            .map_or(0, |(_, _, snap)| snap.height_map_len);
        let height_map = HeightMap::open(dir.join(HEIGHT_ARRAY_FILE), vouched)?;
        Ok(Self {
            config,
            height_map,
            slots,
            newest: newest.map(|(slot, seq, _)| (slot, seq)),
        })
    }

    /// The tier's configuration.
    pub fn config(&self) -> &MetaConfig {
        &self.config
    }

    /// The height→hash map (read access).
    pub fn height_map(&self) -> &HeightMap {
        &self.height_map
    }

    /// The height→hash map (append access).
    pub fn height_map_mut(&mut self) -> &mut HeightMap {
        &mut self.height_map
    }

    /// Read the current snapshot: the usable slot with the higher
    /// sequence number.
    ///
    /// `Ok(None)` when neither slot holds a usable snapshot — empty, torn
    /// or corrupt. Blocks are authoritative, so that just means a full
    /// replay (which rewrites the snapshot). I/O errors and an intact slot
    /// of another format version still surface.
    pub fn read_snapshot(&self) -> io::Result<Option<CheckpointSnapshot>> {
        Ok(newest_slot(&self.slots)?.map(|(_, _, snap)| snap))
    }

    /// Overwrite the slot that does not hold the newest usable snapshot,
    /// in place, with `seq` one past it.
    ///
    /// No fsync — like the block and index tiers, durability is against
    /// process crashes. A write a power loss tears fails its slot's digest
    /// on the next open, which then reads the other slot: the previous
    /// snapshot, which this write never touches.
    pub fn write_snapshot(&mut self, snapshot: &CheckpointSnapshot) -> io::Result<()> {
        let (slot, seq) = match self.newest {
            Some((slot, seq)) => (1 - slot, seq + 1),
            None => (0, 1),
        };
        let bytes = encode_snapshot_slot(seq, &snapshot.to_wire(), slot_digest);
        self.slots[slot].write_all_at(&bytes, 0)?;
        self.newest = Some((slot, seq));
        Ok(())
    }
}

/// The newest usable snapshot across both slots, with its slot index and
/// sequence number. A slot is usable when its digest checks out *and* its
/// payload decodes as a current-format snapshot; an intact slot of another
/// format version is an error.
fn newest_slot(slots: &[File; 2]) -> io::Result<Option<(usize, u64, CheckpointSnapshot)>> {
    let mut newest: Option<(usize, u64, CheckpointSnapshot)> = None;
    for (slot, file) in slots.iter().enumerate() {
        let mut bytes = vec![0u8; file.metadata()?.len() as usize];
        file.read_exact_at(&mut bytes, 0)?;
        let Some((seq, payload)) = decode_snapshot_slot(&bytes, slot_digest) else {
            continue;
        };
        if let Some(version) = snapshot_version(payload).filter(|&v| v != SNAPSHOT_VERSION) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} holds metadata format version {version}, this build reads only \
                     version {SNAPSHOT_VERSION}: delete the metadata directory to rebuild \
                     it from blocks",
                    SNAPSHOT_SLOTS[slot]
                ),
            ));
        }
        let Ok(snap) = CheckpointSnapshot::from_wire(payload) else {
            continue;
        };
        if newest.as_ref().is_none_or(|&(_, best, _)| seq > best) {
            newest = Some((slot, seq, snap));
        }
    }
    Ok(newest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_crypto::sha256::sha256;
    use std::io::Write;
    use std::path::PathBuf;

    fn hash(i: u64) -> BlockHash {
        BlockHash(sha256(format!("h-{i}").as_bytes()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blockprov-meta-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> MetaConfig {
        MetaConfig {
            index_sync_interval: 8,
            snapshot_interval: 1,
        }
    }

    #[test]
    fn height_map_push_lookup_and_reopen() {
        let dir = temp_dir("hm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(HEIGHT_ARRAY_FILE);
        // Past the resident bound, so the oldest heights answer by `pread`.
        let n = (RESIDENT_CHUNKS as u64 + 2) * CHUNK + 10;
        {
            let mut hm = HeightMap::open(&path, 0).unwrap();
            for h in 0..n - 4 {
                assert!(hm.push(h, hash(h)).unwrap());
            }
            hm.flush().unwrap();
            assert_eq!(hm.durable_len(), n - 4);
            assert!(hm.resident.first > 0, "old chunks evicted");
            for h in n - 4..n {
                assert!(hm.push(h, hash(h)).unwrap());
            }
            // Evicted and flushed-resident heights, then the unflushed tail.
            assert_eq!(hm.len(), n);
            for h in (0..n).step_by(97).chain(n - 5..n) {
                assert_eq!(hm.hash_at(h).unwrap(), Some(hash(h)), "height {h}");
            }
            assert_eq!(hm.hash_at(n).unwrap(), None);
            // Idempotent re-push of a covered height, durable or not.
            assert!(!hm.push(3, hash(3)).unwrap());
            assert!(!hm.push(n - 2, hash(n - 2)).unwrap());
            // A contradicting re-push is a different history, not a no-op.
            assert!(hm.push(3, hash(99)).is_err());
            // Gap is an error.
            assert!(hm.push(n + 2, hash(n + 2)).is_err());
            hm.sync().unwrap();
        }
        // Entry `h` is the raw hash at offset h × 32.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, n * HEIGHT_ENTRY_LEN as u64);
        assert_eq!(&bytes[7 * 32..8 * 32], hash(7).0.as_bytes());
        let hm = HeightMap::open(&path, n).unwrap();
        assert_eq!(hm.durable_len(), n);
        for h in 0..n {
            assert_eq!(hm.hash_at(h).unwrap(), Some(hash(h)), "height {h}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn height_map_torn_tail_self_heals() {
        let dir = temp_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(HEIGHT_ARRAY_FILE);
        {
            let mut hm = HeightMap::open(&path, 0).unwrap();
            for h in 0..8u64 {
                hm.push(h, hash(h)).unwrap();
            }
            hm.sync().unwrap();
        }
        let whole = std::fs::metadata(&path).unwrap().len();
        // A torn record plus whole records no snapshot vouches for.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xEE; 3 * HEIGHT_ENTRY_LEN + 13]).unwrap();
        // A vouched length past the file trusts only what is there.
        let mut hm = HeightMap::open(&path, 100).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole + 3 * 32);
        assert_eq!(hm.durable_len(), 11);
        // The vouched length cuts the whole garbage records as well.
        hm = HeightMap::open(&path, 8).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        assert_eq!(hm.durable_len(), 8);
        for h in 0..8 {
            assert_eq!(hm.hash_at(h).unwrap(), Some(hash(h)));
        }
        // The map keeps accepting pushes after healing.
        assert!(hm.push(8, hash(8)).unwrap());
        // With no snapshot nothing is vouched for: the array starts over.
        let hm = HeightMap::open(&path, 0).unwrap();
        assert!(hm.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_write_read_and_corruption_recovery() {
        let dir = temp_dir("snap");
        let mut store = MetaStore::open(&dir, small_config()).unwrap();
        assert!(store.read_snapshot().unwrap().is_none());
        let snap = CheckpointSnapshot {
            version: SNAPSHOT_VERSION,
            height: 7,
            hash: *hash(7).0.as_bytes(),
            index_watermarks: vec![5, 7],
            index_durable_height: 5,
            nonce_floors: vec![(*hash(100).0.as_bytes(), 3)],
            height_map_len: 6,
        };
        store.write_snapshot(&snap).unwrap();
        assert_eq!(store.read_snapshot().unwrap(), Some(snap.clone()));

        // Replacement is atomic and total.
        let mut newer = snap.clone();
        newer.height = 9;
        store.write_snapshot(&newer).unwrap();
        assert_eq!(store.read_snapshot().unwrap(), Some(newer));

        // A corrupt snapshot reads as absent, not as an error.
        for slot in SNAPSHOT_SLOTS {
            std::fs::write(dir.join(slot), b"\x10\x00\x00\x00garb").unwrap();
        }
        assert!(store.read_snapshot().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_writes_touch_no_directory_entry() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_dir("inplace");
        let mut store = MetaStore::open(&dir, small_config()).unwrap();
        let listing = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let inodes = || SNAPSHOT_SLOTS.map(|s| std::fs::metadata(dir.join(s)).unwrap().ino());
        let (names, inos) = (listing(), inodes());
        let mut snap = CheckpointSnapshot {
            version: SNAPSHOT_VERSION,
            height: 0,
            hash: *hash(0).0.as_bytes(),
            index_watermarks: vec![],
            index_durable_height: 0,
            nonce_floors: vec![],
            height_map_len: 0,
        };
        for h in 1..=100u64 {
            snap.height = h;
            snap.nonce_floors.push((*hash(h).0.as_bytes(), h));
            store.write_snapshot(&snap).unwrap();
        }
        // Every write landed in a slot file in place: no file was
        // created, renamed over or removed on the way.
        assert_eq!(listing(), names);
        assert_eq!(inodes(), inos);
        assert_eq!(store.read_snapshot().unwrap(), Some(snap));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn height_reader_sees_published_state_only() {
        let dir = temp_dir("pubr");
        std::fs::create_dir_all(&dir).unwrap();
        let mut hm = HeightMap::open(dir.join(HEIGHT_ARRAY_FILE), 0).unwrap();
        let reader = hm.reader();
        for h in 0..6u64 {
            hm.push(h, hash(h)).unwrap();
        }
        // Not yet published: the reader still sees the open-time state.
        assert_eq!(reader.len(), 0);
        hm.publish();
        assert_eq!(reader.len(), 6);
        for h in 0..6u64 {
            assert_eq!(reader.hash_at(h).unwrap(), Some(hash(h)));
        }
        assert_eq!(reader.hash_at(6).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
