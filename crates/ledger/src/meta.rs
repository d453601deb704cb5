//! Durable chain-metadata tier: the height→hash map and checkpoint
//! snapshots.
//!
//! PR 2 bounded resident *blocks* and PR 3 bounded resident *index*
//! entries; this module bounds the remaining per-block chain metadata. Once
//! a height finalizes, its canonical hash is appended here and pruned from
//! the chain's in-memory suffix, and a [`CheckpointSnapshot`] — checkpoint
//! height/hash, the per-author nonce floors and durability watermarks — is
//! written atomically so a restart fast-starts from the checkpoint instead
//! of re-absorbing all of history.
//!
//! The height map is append-only and never rewritten: every
//! [`HeightMap::sync`] (each clean shutdown included) cuts the staged tail
//! into one short page that stays in the middle of the file once more
//! heights land after it. Lookups binary-search the page directory, so a
//! short page costs one directory entry and nothing else.
//!
//! Crash safety mirrors [`crate::index::TxIndex`]: blocks are authoritative
//! and everything here is *derived*. A torn height-map tail is truncated on
//! reopen and re-derived by walking parent pointers down from the
//! checkpoint block; an unreadable snapshot is ignored (full replay
//! rebuilds and rewrites it). Only a *valid* snapshot that contradicts the
//! block store — a checkpoint hash the store does not hold — fails loudly,
//! because that means the store and metadata directories belong to
//! different histories.

use crate::block::BlockHash;
use crate::manifest::gc_strays;
use crate::readview::{Published, ShardedCache};
use blockprov_crypto::sha256::Hash256;
use blockprov_wire::frame::FRAME_OVERHEAD;
use blockprov_wire::meta::{
    read_height_page_from, read_snapshot_from, write_height_page_to, write_snapshot_to,
    CheckpointSnapshot, HeightPageHeader, HEIGHT_ENTRY_LEN, META_VERSION,
};
use blockprov_wire::Codec;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Tuning for the metadata tier.
#[derive(Debug, Clone, Copy)]
pub struct MetaConfig {
    /// Heights staged in memory before a height-map page is cut. Entries
    /// are fixed-width, so this is also the nominal page entry count
    /// (`sync` may cut a shorter final page at shutdown).
    pub page_heights: usize,
    /// Decoded height pages held in the LRU page cache.
    pub cached_pages: usize,
    /// Force a transaction-index sync (and record the durable height in the
    /// snapshot) at least every this many finalized heights, bounding the
    /// index suffix crash recovery has to re-derive.
    pub index_sync_interval: u64,
    /// Write the checkpoint snapshot at every Nth finality advance (1 =
    /// every advance). A crash can then lose up to N snapshots, so a
    /// restart re-absorbs at most `finality window + N` blocks — still
    /// O(1) over history. The default of 64 amortizes the per-advance
    /// write+rename (measured ~15x append-throughput cost at interval 1
    /// on the `ledger_scale` harness); latency-insensitive audit nodes
    /// can set 1 for a checkpoint-exact snapshot at every advance. Clean
    /// shutdown (`Chain::sync_meta`) always writes a fresh snapshot
    /// regardless.
    pub snapshot_interval: u64,
}

impl Default for MetaConfig {
    fn default() -> Self {
        Self {
            page_heights: 1024,
            cached_pages: 32,
            index_sync_interval: 8192,
            snapshot_interval: 64,
        }
    }
}

/// Where a height page's entry bytes live inside the map file.
#[derive(Debug, Clone, Copy)]
struct HeightPageMeta {
    /// Byte offset of the frame payload (header + entries).
    offset: u64,
    /// First height covered.
    first_height: u64,
    /// Entries in the page.
    entry_count: u32,
    /// Encoded header length (entries start at `offset + header_len`).
    header_len: u32,
}

/// Reader-shared half of a [`HeightMap`]: the published immutable view, one
/// `pread` handle on the map file (opened once — the file is only ever
/// appended to), and the sharded decoded-page cache both sides read
/// through.
#[derive(Debug)]
pub struct HeightMapShared {
    state: Published<HeightMapState>,
    file: File,
    /// Decoded page cache: page index → hashes.
    cache: ShardedCache<u32, Arc<Vec<BlockHash>>>,
}

/// One immutable published view of the height map: everything a reader
/// needs to answer `hash_at` without touching the writer.
#[derive(Debug)]
struct HeightMapState {
    pages: Vec<HeightPageMeta>,
    staged: Vec<BlockHash>,
    durable: u64,
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
        let state = self.shared.state.load();
        let len = state.durable + state.staged.len() as u64;
        if height >= len {
            return Ok(None);
        }
        if height >= state.durable {
            return Ok(Some(state.staged[(height - state.durable) as usize]));
        }
        let idx = state
            .pages
            .partition_point(|p| p.first_height + u64::from(p.entry_count) <= height);
        let page = state.pages[idx];
        let entries = read_page_hashes(&self.shared, idx as u32, page)?;
        Ok(Some(entries[(height - page.first_height) as usize]))
    }

    /// Heights covered by the published view (staged tail included).
    pub fn len(&self) -> u64 {
        let state = self.shared.state.load();
        state.durable + state.staged.len() as u64
    }

    /// True when the published view covers nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fetch one decoded height page through the shared cache, positional-read
/// (`pread`) on miss so concurrent readers never contend on a seek cursor.
fn read_page_hashes(
    shared: &HeightMapShared,
    idx: u32,
    page: HeightPageMeta,
) -> io::Result<Arc<Vec<BlockHash>>> {
    if let Some(hit) = shared.cache.get(&idx) {
        return Ok(hit);
    }
    let mut body = vec![0u8; page.entry_count as usize * HEIGHT_ENTRY_LEN];
    shared
        .file
        .read_exact_at(&mut body, page.offset + u64::from(page.header_len))?;
    let hashes: Vec<BlockHash> = body
        .chunks_exact(HEIGHT_ENTRY_LEN)
        .map(|c| BlockHash(Hash256(c.try_into().expect("32-byte chunk"))))
        .collect();
    let arc = Arc::new(hashes);
    shared.cache.insert(idx, Arc::clone(&arc));
    Ok(arc)
}

/// Shards in the decoded-page cache (see [`ShardedCache`]).
const PAGE_CACHE_SHARDS: usize = 8;

/// The durable, append-only canonical height→hash map.
///
/// Heights are strictly contiguous: entry `h` is the canonical block hash
/// at height `h`, and pushes must arrive in height order (idempotent pushes
/// of already-covered heights are dropped, so crash replay can blindly
/// re-push). Finality guarantees covered heights never change, which is
/// what makes an append-only layout sufficient.
pub struct HeightMap {
    path: PathBuf,
    writer: BufWriter<File>,
    pages: Vec<HeightPageMeta>,
    staged: Vec<BlockHash>,
    /// Heights durably paged (`staged` covers `durable..durable+staged.len()`).
    durable: u64,
    page_heights: usize,
    shared: Arc<HeightMapShared>,
    bytes: u64,
    /// Pages cut into the writer's buffer since the last flush, pinned by
    /// page index. Cuts do not flush individually — the chain flushes once
    /// per finality advance — so `durable` may briefly run ahead of the
    /// file, and the writer's own lookups answer these pages from memory.
    /// A crash in that window loses the buffered tail, which is the
    /// torn-tail shape reopen already heals from blocks.
    unflushed: Vec<(u32, Arc<Vec<BlockHash>>)>,
}

impl std::fmt::Debug for HeightMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeightMap")
            .field("path", &self.path)
            .field("heights", &self.len())
            .field("pages", &self.pages.len())
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl HeightMap {
    /// Open (or create) a height map at `path`, scanning existing pages.
    ///
    /// A torn or corrupt trailing page — the signature of a crash mid-flush
    /// — is truncated away: the map is derived from blocks, and the chain
    /// re-derives the lost suffix on replay. A page whose `first_height`
    /// breaks contiguity is treated the same way (everything from the bad
    /// page onward is dropped).
    pub fn open<P: AsRef<Path>>(path: P, config: &MetaConfig) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            File::create(&path)?;
        }
        let mut reader = BufReader::new(File::open(&path)?);
        let mut pages = Vec::new();
        let mut pos = 0u64;
        let mut covered = 0u64;
        let truncate_at = loop {
            match read_height_page_from(&mut reader) {
                Ok(None) => break None,
                Ok(Some((header, entry_bytes))) => {
                    if header.first_height != covered {
                        break Some(pos); // contiguity broken: drop the tail
                    }
                    let header_len = header.to_wire().len() as u32;
                    pages.push(HeightPageMeta {
                        offset: pos + FRAME_OVERHEAD,
                        first_height: header.first_height,
                        entry_count: header.entry_count,
                        header_len,
                    });
                    covered += u64::from(header.entry_count);
                    pos += blockprov_wire::frame::frame_len(
                        header_len as usize + entry_bytes.len(),
                    );
                }
                // Torn or corrupt tail: self-heal by truncation.
                Err(_) => break Some(pos),
            }
        };
        if let Some(at) = truncate_at {
            drop(reader);
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(at)?;
            f.sync_all()?;
        }
        let writer = BufWriter::new(OpenOptions::new().append(true).open(&path)?);
        let shared = Arc::new(HeightMapShared {
            state: Published::new(HeightMapState {
                pages: Vec::new(),
                staged: Vec::new(),
                durable: 0,
            }),
            file: File::open(&path)?,
            cache: ShardedCache::new(config.cached_pages, PAGE_CACHE_SHARDS),
        });
        let mut hm = Self {
            path,
            writer,
            pages,
            staged: Vec::new(),
            durable: covered,
            page_heights: config.page_heights.max(1),
            shared,
            bytes: pos,
            unflushed: Vec::new(),
        };
        hm.publish()?;
        Ok(hm)
    }

    /// Publish the current durable + staged view for readers. Flushes
    /// buffered page cuts first so every published page offset is backed by
    /// on-disk bytes.
    pub fn publish(&mut self) -> io::Result<()> {
        self.flush_pages()?;
        self.shared.state.store(Arc::new(HeightMapState {
            pages: self.pages.clone(),
            staged: self.staged.clone(),
            durable: self.durable,
        }));
        Ok(())
    }

    /// A read handle over the last published state.
    pub fn reader(&self) -> HeightReader {
        HeightReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Heights covered, staged tail included.
    pub fn len(&self) -> u64 {
        self.durable + self.staged.len() as u64
    }

    /// True when no heights are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heights covered by durably flushed pages.
    pub fn durable_len(&self) -> u64 {
        self.durable
    }

    /// Bytes in the map file.
    pub fn stored_bytes(&self) -> u64 {
        self.bytes
    }

    /// Durable pages in the map file.
    pub fn page_count(&self) -> usize {
        self.pages.len()
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
        self.staged.push(hash);
        if self.staged.len() >= self.page_heights {
            self.cut_page()?;
        }
        Ok(true)
    }

    /// Force the staged tail into a durable page and flush the writer
    /// (checkpoint/shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.staged.is_empty() {
            self.cut_page()?;
        }
        self.flush_pages()?;
        self.publish()
    }

    /// Flush buffered page cuts to the file. [`Self::push`] buffers cuts in
    /// the writer so a batch of finalized heights costs one flush, not one
    /// per page — callers flush once per finality advance.
    pub fn flush_pages(&mut self) -> io::Result<()> {
        if !self.unflushed.is_empty() {
            self.writer.flush()?;
            self.unflushed.clear();
        }
        Ok(())
    }

    fn cut_page(&mut self) -> io::Result<()> {
        let staged = std::mem::take(&mut self.staged);
        let header = HeightPageHeader {
            version: META_VERSION,
            first_height: self.durable,
            entry_count: staged.len() as u32,
        };
        let mut entry_bytes = Vec::with_capacity(staged.len() * HEIGHT_ENTRY_LEN);
        for h in &staged {
            entry_bytes.extend_from_slice(h.0.as_bytes());
        }
        write_height_page_to(&mut self.writer, &header, &entry_bytes)?;
        let header_len = header.to_wire().len() as u32;
        let frame = blockprov_wire::frame::frame_len(header_len as usize + entry_bytes.len());
        let page_index = self.pages.len() as u32;
        self.pages.push(HeightPageMeta {
            offset: self.bytes + FRAME_OVERHEAD,
            first_height: self.durable,
            entry_count: staged.len() as u32,
            header_len,
        });
        self.bytes += frame;
        self.durable += staged.len() as u64;
        // The freshly cut page is hot by construction.
        let staged = Arc::new(staged);
        self.shared.cache.insert(page_index, Arc::clone(&staged));
        self.unflushed.push((page_index, staged));
        Ok(())
    }

    /// Canonical hash at `height`, or `None` when not covered.
    pub fn hash_at(&self, height: u64) -> io::Result<Option<BlockHash>> {
        if height >= self.len() {
            return Ok(None);
        }
        if height >= self.durable {
            return Ok(Some(self.staged[(height - self.durable) as usize]));
        }
        // Pages cover contiguous sorted ranges: binary-search the directory.
        let idx = self
            .pages
            .partition_point(|p| p.first_height + u64::from(p.entry_count) <= height);
        let page = self.pages[idx];
        debug_assert!(height >= page.first_height);
        let entries = match self.unflushed.iter().find(|&&(i, _)| i == idx as u32) {
            Some((_, pinned)) => Arc::clone(pinned),
            None => read_page_hashes(&self.shared, idx as u32, page)?,
        };
        Ok(Some(entries[(height - page.first_height) as usize]))
    }
}

/// Name of the height-map file inside a metadata directory.
const HEIGHT_MAP_FILE: &str = "height.map";
/// Name of the snapshot file inside a metadata directory.
const SNAPSHOT_FILE: &str = "snapshot.ckpt";

/// The durable metadata tier a [`crate::chain::Chain`] attaches: the
/// height→hash map plus atomically-replaced checkpoint snapshots, rooted in
/// one directory alongside the segment store and transaction index.
pub struct MetaStore {
    dir: PathBuf,
    config: MetaConfig,
    height_map: HeightMap,
}

impl std::fmt::Debug for MetaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaStore")
            .field("dir", &self.dir)
            .field("height_map", &self.height_map)
            .finish_non_exhaustive()
    }
}

impl MetaStore {
    /// Open (or create) a metadata tier rooted at `dir`.
    pub fn open<P: AsRef<Path>>(dir: P, config: MetaConfig) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A stray snapshot temp file is a crashed write that never became
        // the snapshot; drop it so it cannot be mistaken for one later. Same
        // for a height-map rewrite temp an older build could leave behind.
        let _ = std::fs::remove_file(dir.join(format!("{SNAPSHOT_FILE}.tmp")));
        let _ = std::fs::remove_file(dir.join(format!("{HEIGHT_MAP_FILE}.tmp")));
        // Page files (and merge temps) of the nonce-floor store that used to
        // share this directory: the floors ride in the snapshot now, and a
        // directory from before that carries a snapshot that no longer
        // decodes, so the replay it takes re-derives them from blocks.
        gc_strays(&dir, &HashSet::new(), |name| {
            name.starts_with("floor-")
                && (name.ends_with(".pages") || name.ends_with(".pages.tmp"))
        })?;
        let height_map = HeightMap::open(dir.join(HEIGHT_MAP_FILE), &config)?;
        Ok(Self {
            dir,
            config,
            height_map,
        })
    }

    /// The tier's configuration.
    pub fn config(&self) -> &MetaConfig {
        &self.config
    }

    /// The metadata directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The height→hash map (read access).
    pub fn height_map(&self) -> &HeightMap {
        &self.height_map
    }

    /// The height→hash map (append access).
    pub fn height_map_mut(&mut self) -> &mut HeightMap {
        &mut self.height_map
    }

    /// A concurrent read handle over the height map's published state.
    pub fn height_reader(&self) -> HeightReader {
        self.height_map.reader()
    }

    /// Read the current snapshot.
    ///
    /// `Ok(None)` when no snapshot exists *or* the snapshot bytes are torn
    /// or corrupt — blocks are authoritative, so an unreadable snapshot
    /// just means a full replay (which rewrites it). I/O errors other than
    /// absence still surface.
    pub fn read_snapshot(&self) -> io::Result<Option<CheckpointSnapshot>> {
        let path = self.dir.join(SNAPSHOT_FILE);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut reader = BufReader::new(file);
        match read_snapshot_from(&mut reader) {
            Ok(snap) => Ok(snap),
            // Corrupt snapshot: derived data, recover by ignoring it.
            Err(_) => Ok(None),
        }
    }

    /// Atomically replace the snapshot: write a temp file, flush, rename.
    ///
    /// No fsync — like the block and index tiers, durability is against
    /// process crashes; the rename guarantees a reader sees either the old
    /// or the new snapshot, never a mix.
    pub fn write_snapshot(&mut self, snapshot: &CheckpointSnapshot) -> io::Result<()> {
        let path = self.dir.join(SNAPSHOT_FILE);
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        {
            let mut out = BufWriter::new(File::create(&tmp)?);
            write_snapshot_to(&mut out, snapshot)?;
            out.flush()?;
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_crypto::sha256::sha256;
    use blockprov_wire::meta::SNAPSHOT_VERSION;

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
            page_heights: 4,
            cached_pages: 2,
            index_sync_interval: 8,
            snapshot_interval: 1,
        }
    }

    #[test]
    fn height_map_push_lookup_and_reopen() {
        let dir = temp_dir("hm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("height.map");
        {
            let mut hm = HeightMap::open(&path, &small_config()).unwrap();
            for h in 0..10u64 {
                assert!(hm.push(h, hash(h)).unwrap());
            }
            assert_eq!(hm.len(), 10);
            assert!(hm.page_count() >= 2, "small pages must have been cut");
            for h in 0..10 {
                assert_eq!(hm.hash_at(h).unwrap(), Some(hash(h)));
            }
            assert_eq!(hm.hash_at(10).unwrap(), None);
            // Idempotent re-push of a covered height.
            assert!(!hm.push(3, hash(3)).unwrap());
            // A contradicting re-push is a different history, not a no-op.
            assert!(hm.push(3, hash(99)).is_err());
            // Gap is an error.
            assert!(hm.push(12, hash(12)).is_err());
            hm.sync().unwrap();
        }
        let hm = HeightMap::open(&path, &small_config()).unwrap();
        assert_eq!(hm.durable_len(), 10);
        for h in 0..10 {
            assert_eq!(hm.hash_at(h).unwrap(), Some(hash(h)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn height_map_torn_tail_self_heals() {
        let dir = temp_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("height.map");
        {
            let mut hm = HeightMap::open(&path, &small_config()).unwrap();
            for h in 0..8u64 {
                hm.push(h, hash(h)).unwrap();
            }
            hm.sync().unwrap();
        }
        let whole = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&(999u32).to_le_bytes()).unwrap();
            f.write_all(b"torn").unwrap();
        }
        let mut hm = HeightMap::open(&path, &small_config()).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        assert_eq!(hm.durable_len(), 8);
        for h in 0..8 {
            assert_eq!(hm.hash_at(h).unwrap(), Some(hash(h)));
        }
        // The map keeps accepting pushes after healing.
        assert!(hm.push(8, hash(8)).unwrap());
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
        std::fs::write(dir.join("snapshot.ckpt"), b"\x10\x00\x00\x00garb").unwrap();
        assert!(store.read_snapshot().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn height_reader_sees_published_state_only() {
        let dir = temp_dir("pubr");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("height.map");
        let mut hm = HeightMap::open(&path, &small_config()).unwrap();
        let reader = hm.reader();
        for h in 0..6u64 {
            hm.push(h, hash(h)).unwrap();
        }
        // Not yet published: the reader still sees the open-time state.
        assert_eq!(reader.len(), 0);
        hm.publish().unwrap();
        assert_eq!(reader.len(), 6);
        for h in 0..6u64 {
            assert_eq!(reader.hash_at(h).unwrap(), Some(hash(h)));
        }
        assert_eq!(reader.hash_at(6).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
