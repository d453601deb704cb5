//! Tiered block storage: manifest-listed append segments under an LRU hot
//! set, behind one [`BlockStore`] ([`TieredStore`]) and one reader type
//! ([`TieredReader`]).
//!
//! The paper's storage-overhead experiments (E3) assume provenance history
//! far larger than RAM. Blocks are framed into fixed-capacity append-only
//! segment files (`seg-00000.blk`, …), each opening with a
//! [`blockprov_wire::frame::SegmentHeader`] and indexed by an in-memory
//! offset table; point reads `pread` one shared handle per file. Writes
//! have one path: `put_staged` assigns each frame its location, and
//! `flush_staged` emits the group with one vectored write. Every read of a
//! segment file — full scan, open-time tail scan, lazy indexing, fenced
//! header scan — goes through one walker that checks the segment header
//! (magic, version, id) before the first frame.
//!
//! # Storage epochs
//!
//! Which segment files are *live* is decided by the directory's `MANIFEST`
//! (see [`crate::manifest`]), an atomically-replaced file listing every
//! live segment with its height fence, byte length and block count under a
//! monotonically increasing epoch. That buys two things:
//!
//! * **O(window) open.** Sealed segments are *verified* (present, exact
//!   length) but not scanned on open; their offset indexes are built lazily
//!   on first cold read, newest first, and the height fences let
//!   [`BlockStore::scan_headers_from`] skip them.
//! * **Crash-window GC.** Files the manifest does not list are dead by
//!   definition (a rollover that created its file but never committed) and
//!   are garbage-collected on open — never replayed as if they were
//!   history.
//!
//! Segment files are never rewritten: ids come only from the fresh store
//! (0) and from rollover (previous id + 1), so the live ids are always
//! contiguous and fork blocks stay on disk beside canonical ones. A
//! directory without a manifest (a store predating epochs) or with a
//! *corrupt* one is scanned in full with a loud gap check — a gap always
//! means lost data — and then committed under a fresh epoch; the corrupt
//! fallback deletes nothing.
//!
//! In front of the files sits a real LRU cache of decoded blocks (the hot
//! set), shared with every reader, giving bounded resident memory over
//! unbounded history: a block is on disk once the group flush returns,
//! pinned in memory until then, and the hot set never exceeds its
//! configured capacity.

use crate::block::{Block, BlockHash, BlockHeader};
use crate::manifest::{
    commit_manifest, gc_strays, read_manifest, ManifestEntry, ManifestFileKind, ManifestState,
};
use crate::readview::{Published, ShardedCache};
use crate::store::{BlockReader, BlockStore};
use blockprov_wire::frame::{frame_len, read_frame_from, SegmentHeader, FRAME_OVERHEAD};
use blockprov_wire::manifest::{Manifest, SparsePoint};
use blockprov_wire::{Codec, FrameBatch, Reader};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Where a block's frame lives in the segment sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLocation {
    /// Segment id (ids are contiguous from 0, in rollover order).
    pub segment: u32,
    /// Byte offset of the payload inside the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Tuning for [`TieredStore`].
#[derive(Debug, Clone, Copy)]
pub struct TieredConfig {
    /// Target segment capacity in bytes; a segment rolls over once its next
    /// frame would push it past this size (a single oversized block still
    /// fits — segments are a rollover hint, not a hard frame limit).
    pub segment_bytes: u64,
    /// Maximum decoded blocks held in the hot LRU set.
    pub hot_capacity: usize,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            hot_capacity: 1024,
        }
    }
}

fn segment_name(id: u32) -> String {
    format!("seg-{id:05}.blk")
}

fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(segment_name(id))
}

/// Bytes of the [`SegmentHeader`] opening every segment file.
const HEADER_LEN: u64 = SegmentHeader::ENCODED_LEN as u64;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Walk segment `id`'s frames: open the file, decode and check its
/// [`SegmentHeader`] (magic, version, id), seek to `start` (a frame
/// boundary; at or below [`HEADER_LEN`] means the first frame) and hand
/// `visit` each frame's `(offset of its length prefix, payload)`.
///
/// Any malformed byte — a bad header, a torn trailing frame — fails loudly
/// rather than being silently truncated: without per-frame checksums a
/// torn tail write is indistinguishable from tampering, and this is first
/// a tamper-evidence substrate.
fn walk_segment(
    dir: &Path,
    id: u32,
    start: u64,
    visit: &mut dyn FnMut(u64, &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut reader = BufReader::new(File::open(segment_path(dir, id))?);
    let mut header = [0u8; SegmentHeader::ENCODED_LEN];
    reader
        .read_exact(&mut header)
        .map_err(|_| invalid(format!("segment {id}: truncated header")))?;
    let header =
        SegmentHeader::from_wire(&header).map_err(|e| invalid(format!("segment {id}: {e}")))?;
    if header.segment_id != id {
        return Err(invalid(format!(
            "segment {id}: header says segment {}",
            header.segment_id
        )));
    }
    let mut offset = start.max(HEADER_LEN);
    if offset > HEADER_LEN {
        reader.seek(SeekFrom::Start(offset))?;
    }
    while let Some(body) = read_frame_from(&mut reader)? {
        visit(offset, &body)?;
        offset += frame_len(body.len());
    }
    Ok(())
}

/// Decode the block in the frame at `offset` of segment `id`.
fn decode_block(id: u32, offset: u64, body: &[u8]) -> io::Result<Block> {
    Block::from_wire(body)
        .map_err(|e| invalid(format!("corrupt block in segment {id} at {offset}: {e}")))
}

/// Frames between sparse height-index points: every `SPARSE_EVERY`-th
/// appended block records (current length, running max height) so height
/// scans can seek into a segment's tail instead of reading it from the
/// top. ~16 manifest bytes per 1024 blocks.
const SPARSE_EVERY: u64 = 1024;

/// Everything the store knows about one live segment without opening it:
/// the manifest entry, kept in sync for the active segment as it grows.
#[derive(Debug, Clone)]
struct SegmentInfo {
    id: u32,
    /// Smallest block height in the segment; `u64::MAX` while empty.
    first_height: u64,
    /// Largest block height in the segment; 0 while empty.
    last_height: u64,
    /// Byte length (header included).
    len: u64,
    /// Block count.
    blocks: u64,
    /// Sparse intra-segment height index, offsets ascending (see
    /// [`SparsePoint`]).
    sparse: Vec<SparsePoint>,
}

impl SegmentInfo {
    fn empty(id: u32) -> Self {
        Self {
            id,
            first_height: u64::MAX,
            last_height: 0,
            len: HEADER_LEN,
            blocks: 0,
            sparse: Vec::new(),
        }
    }

    /// Account one appended frame of `frame` bytes holding a block at
    /// `height`.
    fn note(&mut self, height: u64, frame: u64) {
        self.first_height = self.first_height.min(height);
        self.last_height = self.last_height.max(height);
        self.len += frame;
        self.blocks += 1;
        if self.blocks.is_multiple_of(SPARSE_EVERY) {
            // Every frame before `len` has height ≤ the running max, which
            // is exactly `last_height` (max-tracked).
            self.sparse.push(SparsePoint {
                offset: self.len,
                max_height: self.last_height,
            });
        }
    }

    /// Deepest byte offset known to have only heights ≤ `min_height`
    /// before it, i.e. where a scan for heights *above* `min_height` can
    /// begin. Falls back to 0 (scan from the top).
    fn seek_floor(&self, min_height: u64) -> u64 {
        // `max_height` is monotone across points, so binary search holds.
        let n = self.sparse.partition_point(|p| p.max_height <= min_height);
        if n == 0 {
            0
        } else {
            self.sparse[n - 1].offset
        }
    }

    /// Validate and index this segment's frames from `self.len` onward,
    /// folding them into `self`. From [`SegmentInfo::empty`] this is a full
    /// scan; from a manifest entry it covers only the bytes appended since
    /// that entry was committed (the trusted-prefix open path).
    fn index_frames(
        &mut self,
        dir: &Path,
        index: &mut HashMap<BlockHash, BlockLocation>,
    ) -> io::Result<()> {
        let id = self.id;
        walk_segment(dir, id, self.len, &mut |offset, body| {
            let block = decode_block(id, offset, body)?;
            let loc = BlockLocation {
                segment: id,
                offset: offset + FRAME_OVERHEAD,
                len: body.len() as u32,
            };
            index.insert(block.hash(), loc);
            self.note(block.header.height, frame_len(body.len()));
            Ok(())
        })
    }

    fn to_entry(&self) -> ManifestEntry {
        ManifestEntry {
            kind: ManifestFileKind::Segment,
            id: self.id,
            first_height: if self.blocks == 0 {
                0
            } else {
                self.first_height
            },
            last_height: self.last_height,
            len: self.len,
            items: self.blocks,
            sparse: self.sparse.clone(),
        }
    }

    fn from_entry(e: &ManifestEntry) -> Self {
        Self {
            id: e.id,
            first_height: if e.items == 0 {
                u64::MAX
            } else {
                e.first_height
            },
            last_height: e.last_height,
            len: e.len,
            blocks: e.items,
            sparse: e.sparse.clone(),
        }
    }
}

/// Offset-index shard count: bounds writer/reader contention on the hash →
/// location map without splintering it into per-segment maps.
const INDEX_SHARDS: usize = 8;

/// Hot-set shard count (see [`ShardedCache`]).
const HOT_SHARDS: usize = 8;

/// State shared between the owning [`TieredStore`] and every
/// [`TieredReader`]: the hot set with its hit/miss counters, the sharded
/// offset index, the lazy-indexing work list, and the published set of
/// per-segment read handles.
///
/// The file set is [`Published`] rather than locked and only ever grows: a
/// rollover publishes the new segment's handle before any location inside
/// it is indexed, so a reader that resolves a location always finds its
/// handle in the set it loads next.
#[derive(Debug)]
struct Shared {
    dir: PathBuf,
    /// Decoded blocks, LRU-bounded by `hot_capacity`.
    hot: ShardedCache<BlockHash, Arc<Block>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Global offset index: block hash → location, sharded by the same
    /// routing hash the tx index uses.
    index: Vec<RwLock<HashMap<BlockHash, BlockLocation>>>,
    /// Manifest-verified segments not yet merged into `index`, as
    /// `(id, blocks not yet indexed)`, ascending; lazy indexing pops from
    /// the back (newest first — lookups after a restart overwhelmingly
    /// target recent blocks). The active segment appears here too when the
    /// open trusted its manifest-committed prefix: only the delta past the
    /// committed length was indexed eagerly, so its pending count is the
    /// prefix block count. Scans run while holding this lock, serializing
    /// the one-time lazy indexing so no thread can miss a concurrently
    /// indexed block.
    unindexed: Mutex<Vec<(u32, u64)>>,
    /// Read handles for every live segment, id-ascending. `pread`-only, so
    /// any number of threads share one handle per segment without seeking.
    files: Published<Vec<(u32, Arc<File>)>>,
}

impl Shared {
    fn index_shard(&self, hash: &BlockHash) -> &RwLock<HashMap<BlockHash, BlockLocation>> {
        let n = crate::index::route_hash(hash.0.as_bytes()) % self.index.len() as u64;
        &self.index[n as usize]
    }

    fn index_get(&self, hash: &BlockHash) -> Option<BlockLocation> {
        self.index_shard(hash)
            .read()
            .expect("index shard poisoned")
            .get(hash)
            .copied()
    }

    fn index_insert(&self, hash: BlockHash, loc: BlockLocation) {
        self.index_shard(&hash)
            .write()
            .expect("index shard poisoned")
            .insert(hash, loc);
    }

    fn index_len(&self) -> usize {
        self.index
            .iter()
            .map(|s| s.read().expect("index shard poisoned").len())
            .sum()
    }

    /// Find a block's location, lazily indexing sealed segments (newest
    /// first) until the hash is found or everything is indexed.
    ///
    /// A segment that fails to index is skipped, not dropped: the search
    /// goes on into older segments, and the failed entry returns to the
    /// back of the work list (every id still pending is older), so `len()`
    /// keeps counting its blocks.
    fn lookup(&self, hash: &BlockHash) -> Option<BlockLocation> {
        if let Some(loc) = self.index_get(hash) {
            return Some(loc);
        }
        let mut pending = self.unindexed.lock().expect("unindexed poisoned");
        // Re-check under the lock: another thread may have just indexed the
        // segment holding this hash.
        if let Some(loc) = self.index_get(hash) {
            return Some(loc);
        }
        // Newest first, as popped.
        let mut failed = Vec::new();
        let mut found = None;
        while let Some((id, blocks)) = pending.pop() {
            let mut local = HashMap::new();
            if let Err(e) = SegmentInfo::empty(id).index_frames(&self.dir, &mut local) {
                // The file passed the open-time existence/length check, so
                // this is decode corruption discovered lazily. `get`
                // returns Option; be loud on stderr at least.
                eprintln!("ledger: lazy index of segment {id} failed: {e}");
                failed.push((id, blocks));
                continue;
            }
            found = local.get(hash).copied();
            for (h, loc) in local {
                self.index_insert(h, loc);
            }
            if found.is_some() {
                break;
            }
        }
        pending.extend(failed.into_iter().rev());
        found
    }

    /// Read a block at `loc` via `pread` on the published handle for its
    /// segment.
    fn read_at(&self, loc: BlockLocation) -> io::Result<Block> {
        let files = self.files.load();
        let at = files.partition_point(|&(id, _)| id < loc.segment);
        let Some((_, file)) = files.get(at).filter(|(id, _)| *id == loc.segment) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("segment {} has no published handle", loc.segment),
            ));
        };
        let mut body = vec![0u8; loc.len as usize];
        file.read_exact_at(&mut body, loc.offset)?;
        decode_block(loc.segment, loc.offset - FRAME_OVERHEAD, &body)
    }

    /// Hot set first; a miss resolves and reads the frame, then promotes
    /// the block.
    fn get(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        if let Some(hit) = self.hot.get(hash) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        let block = Arc::new(self.read_at(self.lookup(hash)?).ok()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.hot.insert(*hash, Arc::clone(&block));
        Some(block)
    }

    fn tier_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Concurrent read handle over a [`TieredStore`]: hot-set hits are
/// lock-per-shard, cold misses promote into the shared hot set exactly like
/// the writer path.
#[derive(Debug, Clone)]
pub struct TieredReader {
    shared: Arc<Shared>,
}

impl TieredReader {
    /// `(hot hits, cold misses)` counters, aggregated across the writer and
    /// every reader handle.
    pub fn tier_stats(&self) -> (u64, u64) {
        self.shared.tier_stats()
    }
}

impl BlockReader for TieredReader {
    fn get(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        self.shared.get(hash)
    }
}

/// The on-disk block store: append-only segments listed by a `MANIFEST`,
/// lazily built offset indexes and shared `pread` handles, under an LRU
/// hot set of decoded blocks.
///
/// Resident memory is bounded by `hot_capacity` (plus the blocks staged
/// since the last flush) regardless of history length; eviction never
/// loses data, and reads promote cold blocks back into the hot set.
pub struct TieredStore {
    config: TieredConfig,
    /// Live segments in id order (contiguous from 0); the last one is the
    /// active (append) segment.
    infos: Vec<SegmentInfo>,
    /// Hot set, index, lazy-scan list and published read handles, shared
    /// with every [`TieredReader`].
    shared: Arc<Shared>,
    /// Writer-side copy of the live read handles, id-ascending; published
    /// wholesale after every rollover.
    files: Vec<(u32, Arc<File>)>,
    /// Open append handle for the active segment.
    writer: File,
    /// Bytes of the active segment covered by the manifest on disk. Grows
    /// are re-committed every [`Self::commit_stride`] bytes so a reopen
    /// only ever re-scans a bounded delta.
    committed_len: u64,
    /// Total bytes across all live segment files (headers + frames).
    bytes: u64,
    /// Manifest epoch currently on disk.
    epoch: u64,
    /// Frames staged by `put_staged` but not yet written to the active
    /// segment file, emitted with one vectored write by `flush_staged`.
    /// Their locations are assigned at stage time (segment accounting
    /// already covers them) but only published to the shared index after
    /// the emit, so readers never see a location without its bytes.
    pending: FrameBatch,
    /// `(hash, location)` for each pending frame, in stage order.
    pending_locs: Vec<(BlockHash, BlockLocation)>,
    /// Decoded copies of the blocks staged since the last `flush_staged`,
    /// pinned so the writer's own `get` (reorgs touching same-batch forks)
    /// resolves them before the frames are readable from disk, even once
    /// the hot set evicted them, and so `demote` can tell them apart.
    pending_arcs: HashMap<BlockHash, Arc<Block>>,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("dir", &self.shared.dir)
            .field("segments", &self.infos.len())
            .field("epoch", &self.epoch)
            .field("bytes", &self.bytes)
            .field("hot_blocks", &self.shared.hot.len())
            .finish_non_exhaustive()
    }
}

impl TieredStore {
    /// Open (or create) a tiered store rooted at `dir`.
    ///
    /// With a valid `MANIFEST`, only the active segment's tail past its
    /// committed length is scanned; sealed segments are verified to exist
    /// at their recorded length and indexed lazily on first read, and
    /// unlisted segment files (crash leftovers of a rollover) are
    /// garbage-collected. Without a manifest the directory is scanned in
    /// full — loudly rejecting gaps, bad headers, torn frames and corrupt
    /// blocks — and a manifest is committed so the next open is cheap. A
    /// corrupt manifest falls back to the same full scan, gap check
    /// included, with a loud message, and deletes nothing.
    pub fn open<P: AsRef<Path>>(dir: P, config: TieredConfig) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        match read_manifest(&dir)? {
            ManifestState::Loaded(m) => Self::open_from_manifest(dir, config, m),
            ManifestState::Absent => Self::open_by_scan(dir, config),
            ManifestState::Corrupt(msg) => {
                eprintln!(
                    "ledger: segment MANIFEST in {} is corrupt ({msg}); \
                     falling back to a full directory scan",
                    dir.display()
                );
                Self::open_by_scan(dir, config)
            }
        }
    }

    /// Open against a valid manifest: GC strays, verify sealed files, scan
    /// only the active segment's uncommitted tail.
    fn open_from_manifest(dir: PathBuf, config: TieredConfig, m: Manifest) -> io::Result<Self> {
        let mut entries: Vec<ManifestEntry> =
            m.of_kind(ManifestFileKind::Segment).cloned().collect();
        entries.sort_by_key(|e| e.id);
        // Anything seg-owned the manifest does not list is a dead crash
        // leftover: a rollover that created its file but never
        // committed. Deleting it is the whole point of the manifest — the
        // alternative is replaying orphans as if they were history.
        let live: HashSet<String> = entries.iter().map(|e| segment_name(e.id)).collect();
        let removed = gc_strays(&dir, &live, |n| {
            n.starts_with("seg-") && n.ends_with(".blk")
        })?;
        if !removed.is_empty() {
            eprintln!(
                "ledger: removed {} stray segment file(s) not listed by MANIFEST epoch {}: {:?}",
                removed.len(),
                m.epoch,
                removed
            );
        }
        let Some(active) = entries.last() else {
            // A manifest with no segments: fresh active under the next
            // epoch.
            return Self::create_fresh(dir, config, m.epoch + 1);
        };
        let committed_len = active.len;
        let mut infos = Vec::with_capacity(entries.len());
        let mut unindexed = Vec::with_capacity(entries.len());
        let mut index = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            let name = segment_name(e.id);
            let file_len = std::fs::metadata(segment_path(&dir, e.id))
                .map_err(|_| {
                    invalid(format!(
                        "MANIFEST epoch {} lists {name} but the file is missing",
                        m.epoch
                    ))
                })?
                .len();
            // The active segment may have grown past its manifest entry
            // (the manifest is committed on rollover and every
            // `commit_stride` bytes of growth); a sealed one never does.
            let is_active = i + 1 == entries.len();
            if file_len < e.len || (!is_active && file_len != e.len) {
                return Err(invalid(format!(
                    "MANIFEST epoch {} lists {name} at {} bytes but the file has {file_len}",
                    m.epoch, e.len
                )));
            }
            // The committed prefix is trusted like a sealed segment —
            // indexed lazily — and only the delta past it is scanned
            // eagerly: that bounds open-time I/O by the commit stride, not
            // the segment size.
            if !is_active || e.items > 0 {
                unindexed.push((e.id, e.items));
            }
            let mut info = SegmentInfo::from_entry(e);
            if is_active && file_len > e.len {
                info.index_frames(&dir, &mut index)?;
            }
            infos.push(info);
        }
        let store = Self::assemble(dir, config, infos, index, unindexed)?;
        Ok(Self {
            epoch: m.epoch,
            committed_len,
            ..store
        })
    }

    /// Open by scanning every segment file, then commit a manifest so the
    /// next open is O(window). Segment ids are only ever assigned by the
    /// fresh store and by rollover, so a gap in the sequence is lost data
    /// and fails the open.
    fn open_by_scan(dir: PathBuf, config: TieredConfig) -> io::Result<Self> {
        let mut ids: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".blk"))
            {
                let id = num
                    .parse::<u32>()
                    .map_err(|_| invalid(format!("unparseable segment file name {name:?}")))?;
                ids.push(id);
            }
        }
        ids.sort_unstable();
        if let Some(&max) = ids.last() {
            if ids.len() as u64 != u64::from(max) + 1 {
                return Err(invalid(format!(
                    "segment sequence has gaps: found {} files up to seg-{max:05}",
                    ids.len()
                )));
            }
        }
        if ids.is_empty() {
            return Self::create_fresh(dir, config, 1);
        }
        let mut index = HashMap::new();
        let mut infos = Vec::with_capacity(ids.len());
        for id in ids {
            let mut info = SegmentInfo::empty(id);
            info.index_frames(&dir, &mut index)?;
            infos.push(info);
        }
        let mut store = Self::assemble(dir, config, infos, index, Vec::new())?;
        store.commit_epoch()?;
        Ok(store)
    }

    /// Fresh store: create segment 0 with its header and commit `epoch`.
    fn create_fresh(dir: PathBuf, config: TieredConfig, epoch: u64) -> io::Result<Self> {
        Self::create_segment_file(&dir, 0)?;
        let mut store = Self::assemble(
            dir,
            config,
            vec![SegmentInfo::empty(0)],
            HashMap::new(),
            Vec::new(),
        )?;
        // `commit_epoch` commits under the epoch after the current one.
        store.epoch = epoch - 1;
        store.commit_epoch()?;
        Ok(store)
    }

    /// Open one read handle per live segment and the active segment's
    /// append handle, and assemble a store at epoch 0 with nothing
    /// committed, distributing an eagerly built index across the shards.
    fn assemble(
        dir: PathBuf,
        config: TieredConfig,
        infos: Vec<SegmentInfo>,
        index: HashMap<BlockHash, BlockLocation>,
        unindexed: Vec<(u32, u64)>,
    ) -> io::Result<Self> {
        let mut files = Vec::with_capacity(infos.len());
        for info in &infos {
            files.push((info.id, Arc::new(File::open(segment_path(&dir, info.id))?)));
        }
        let active = infos.last().expect("at least one segment").id;
        let writer = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, active))?;
        let shared = Arc::new(Shared {
            dir,
            hot: ShardedCache::new(config.hot_capacity, HOT_SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            index: (0..INDEX_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            unindexed: Mutex::new(unindexed),
            files: Published::new(files.clone()),
        });
        for (h, loc) in index {
            shared.index_insert(h, loc);
        }
        Ok(Self {
            config,
            bytes: infos.iter().map(|i| i.len).sum(),
            infos,
            shared,
            files,
            writer,
            committed_len: 0,
            epoch: 0,
            pending: FrameBatch::new(),
            pending_locs: Vec::new(),
            pending_arcs: HashMap::new(),
        })
    }

    /// Create a segment file holding only its header. `File::create`
    /// truncates, so retrying over a stray from a crashed earlier attempt
    /// starts clean.
    fn create_segment_file(dir: &Path, id: u32) -> io::Result<()> {
        File::create(segment_path(dir, id))?.write_all(&SegmentHeader::new(id).to_wire())
    }

    /// Commit the current in-memory segment list under the next epoch.
    fn commit_epoch(&mut self) -> io::Result<()> {
        commit_manifest(
            &self.shared.dir,
            &Manifest {
                epoch: self.epoch + 1,
                entries: self.infos.iter().map(|i| i.to_entry()).collect(),
            },
        )?;
        self.epoch += 1;
        self.committed_len = self.infos.last().expect("active segment").len;
        Ok(())
    }

    /// Active-segment growth between manifest commits. Bounds the delta a
    /// reopen must re-scan; the manifest rewrite itself is tiny (one entry
    /// per live file), so committing every stride costs far less than the
    /// stride of appends it covers.
    fn commit_stride(&self) -> u64 {
        (self.config.segment_bytes / 8).max(64 * 1024)
    }

    /// A cloneable, `Send + Sync` read handle sharing the hot set, the
    /// index and the published file set.
    pub fn tiered_reader(&self) -> TieredReader {
        TieredReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// `(hot hits, cold misses)` counters for cache-efficiency experiments,
    /// aggregated across the writer and every reader handle.
    pub fn tier_stats(&self) -> (u64, u64) {
        self.shared.tier_stats()
    }

    /// Roll the writer over to a fresh segment.
    ///
    /// Ordering is crash-safe: create the new file, open its append
    /// handle, *commit the manifest listing it*, and only then switch the
    /// in-memory state. A crash (or commit failure) after the create
    /// leaves an unlisted empty file that GC removes on the next open.
    fn roll_segment(&mut self) -> io::Result<()> {
        let dir = &self.shared.dir;
        let new_id = self.infos.last().expect("active segment").id + 1;
        Self::create_segment_file(dir, new_id)?;
        let writer = OpenOptions::new()
            .append(true)
            .open(segment_path(dir, new_id))?;
        let file = Arc::new(File::open(segment_path(dir, new_id))?);
        let new_info = SegmentInfo::empty(new_id);
        let mut entries: Vec<ManifestEntry> = self.infos.iter().map(|i| i.to_entry()).collect();
        entries.push(new_info.to_entry());
        commit_manifest(
            dir,
            &Manifest {
                epoch: self.epoch + 1,
                entries,
            },
        )?;
        self.epoch += 1;
        self.infos.push(new_info);
        self.files.push((new_id, file));
        self.shared.files.store(Arc::new(self.files.clone()));
        self.writer = writer;
        self.bytes += HEADER_LEN;
        self.committed_len = HEADER_LEN;
        Ok(())
    }

    /// Stage one encoded block for the next `flush_staged`; returns the
    /// location its frame will occupy. Segment accounting (`len`, height
    /// fence, byte totals) advances immediately so rollover decisions and
    /// later stage offsets stay exact; only the file write is deferred.
    fn stage_frame(&mut self, body: Vec<u8>, height: u64) -> io::Result<BlockLocation> {
        let need = frame_len(body.len());
        let must_roll = {
            let active = self.infos.last().expect("active segment");
            active.len + need > self.config.segment_bytes && active.blocks > 0
        };
        if must_roll {
            // Staged frames belong to the segment they were measured
            // against: emit them before rolling so their recorded
            // locations land in the right file.
            self.emit_pending()?;
            self.roll_segment()?;
        }
        let active = self.infos.last_mut().expect("active segment");
        let loc = BlockLocation {
            segment: active.id,
            offset: active.len + FRAME_OVERHEAD,
            len: body.len() as u32,
        };
        self.pending.push(body)?;
        active.note(height, need);
        self.bytes += need;
        Ok(loc)
    }

    /// Write every staged frame into the active segment with one vectored
    /// write, then publish their index entries.
    fn emit_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.pending.write_to(&mut self.writer)?;
        // Index only after the write: a concurrent reader that finds a
        // location must find the frame's bytes on disk too.
        for (hash, loc) in self.pending_locs.drain(..) {
            self.shared.index_insert(hash, loc);
        }
        Ok(())
    }

    /// Number of live segment files (active one included).
    pub fn segment_count(&self) -> u32 {
        self.infos.len() as u32
    }

    /// Sealed segments whose offset indexes have not been built yet —
    /// nonzero right after a manifest-driven open, draining toward zero as
    /// cold reads touch history.
    pub fn unindexed_segments(&self) -> usize {
        self.shared
            .unindexed
            .lock()
            .expect("unindexed poisoned")
            .len()
    }

    /// Current manifest epoch (bumps on rollover and growth commits).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl BlockStore for TieredStore {
    fn put_staged(&mut self, block: Arc<Block>, hash: BlockHash) -> io::Result<Arc<Block>> {
        // Dedupe against the in-memory index and the pending set only:
        // forcing lazy segment scans here would turn the first
        // post-restart appends into a full history read. A duplicate
        // slipping past (same block, unindexed sealed segment) appends an
        // identical frame — benign for replay, and the chain layer never
        // re-stores a block it already holds.
        let arc = if self.shared.index_get(&hash).is_some() {
            block
        } else if let Some(arc) = self.pending_arcs.get(&hash) {
            Arc::clone(arc)
        } else {
            let loc = self.stage_frame(block.to_wire(), block.header.height)?;
            self.pending_locs.push((hash, loc));
            self.pending_arcs.insert(hash, Arc::clone(&block));
            block
        };
        // Hot insertion before the flush is safe: readers only look up
        // hashes a published chain snapshot names, and publication happens
        // after the group flush.
        self.shared.hot.insert(hash, Arc::clone(&arc));
        Ok(arc)
    }

    fn flush_staged(&mut self) -> io::Result<()> {
        self.emit_pending()?;
        // Unpinned here, not when a rollover emits mid-group, so `demote`
        // keeps every block of the group hot until the group has landed.
        self.pending_arcs.clear();
        // Re-commit the manifest once the active segment has outgrown the
        // last committed length by a stride.
        let active_len = self.infos.last().expect("active segment").len;
        if active_len.saturating_sub(self.committed_len) >= self.commit_stride() {
            self.commit_epoch()?;
        }
        Ok(())
    }

    fn get(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        // The shared path first (hot set, then indexed frames), then the
        // pending set: a staged block evicted from the hot set mid-batch
        // has no disk frame to read yet.
        self.shared
            .get(hash)
            .or_else(|| self.pending_arcs.get(hash).map(Arc::clone))
    }

    fn len(&self) -> usize {
        // Each unindexed entry carries its own pending-block count: the
        // active segment may be *partially* indexed (trusted committed
        // prefix pending, tail already scanned), so `infos` block totals
        // would double-count the tail.
        let pending: u64 = self
            .shared
            .unindexed
            .lock()
            .expect("unindexed poisoned")
            .iter()
            .map(|&(_, n)| n)
            .sum();
        self.shared.index_len() + pending as usize + self.pending_locs.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.bytes
    }

    fn resident_blocks(&self) -> usize {
        self.shared.hot.len()
    }

    fn demote(&mut self, hash: &BlockHash) {
        // A block of the group being committed stays hot: its batch just
        // wrote it, so it is the history readers ask for next, and it is
        // pinned in memory until the flush anyway. Any other block is on
        // disk and safe to drop from the hot set.
        if !self.pending_arcs.contains_key(hash) {
            self.shared.hot.remove(hash);
        }
    }

    fn scan(&self, visit: &mut dyn FnMut(Arc<Block>)) -> io::Result<()> {
        for info in &self.infos {
            walk_segment(&self.shared.dir, info.id, 0, &mut |offset, body| {
                visit(Arc::new(decode_block(info.id, offset, body)?));
                Ok(())
            })?;
        }
        Ok(())
    }

    /// The manifest payoff: a sealed segment whose height fence tops out at
    /// or below `min_height` cannot hold a header the caller wants, so it
    /// is skipped without being opened, and snapshot fast-start reads
    /// O(finality window) bytes instead of O(history). A segment that
    /// straddles the fence (the active one, typically) is entered through
    /// its sparse height index: seek to the deepest point whose running-max
    /// height sits at or below the floor and scan only the tail from
    /// there. Callers filter, so the over-visit is bounded by one sparse
    /// stride plus whatever sits above the floor. Only block headers are
    /// decoded, never the transaction lists.
    fn scan_headers_from(
        &self,
        min_height: u64,
        visit: &mut dyn FnMut(u64, BlockHash),
    ) -> io::Result<()> {
        for info in &self.infos {
            if info.blocks == 0 || info.last_height <= min_height {
                continue;
            }
            let start = info.seek_floor(min_height);
            walk_segment(&self.shared.dir, info.id, start, &mut |_, body| {
                let header = BlockHeader::decode(&mut Reader::new(body))
                    .map_err(|e| invalid(e.to_string()))?;
                visit(header.height, header.hash());
                Ok(())
            })?;
        }
        Ok(())
    }

    fn reader(&self) -> Arc<dyn BlockReader> {
        Arc::new(self.tiered_reader())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{manifest_path, read_manifest};
    use crate::tx::{AccountId, Transaction};

    fn block(i: u64, parent: BlockHash) -> Block {
        Block::assemble(
            i,
            parent,
            1000 * i,
            AccountId::from_name("p"),
            0,
            vec![Transaction::new(
                AccountId::from_name("a"),
                i,
                i,
                1,
                vec![i as u8; 64],
            )],
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blockprov-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(segment_bytes: u64) -> TieredConfig {
        TieredConfig {
            segment_bytes,
            ..TieredConfig::default()
        }
    }

    /// Stage one block under its header hash.
    fn stage(s: &mut TieredStore, b: &Block) {
        s.put_staged(Arc::new(b.clone()), b.hash()).unwrap();
    }

    /// Stage every block, then flush them as one group.
    fn put_all(s: &mut TieredStore, blocks: &[Block]) {
        for b in blocks {
            stage(s, b);
        }
        s.flush_staged().unwrap();
    }

    fn chain_blocks(n: u64) -> Vec<Block> {
        let mut out = Vec::new();
        let mut parent = BlockHash::ZERO;
        for i in 0..n {
            let b = block(i, parent);
            parent = b.hash();
            out.push(b);
        }
        out
    }

    #[test]
    fn segment_store_round_trip_and_reopen() {
        let dir = temp_dir("rt");
        let blocks = chain_blocks(10);
        {
            let mut s = TieredStore::open(&dir, cfg(512)).unwrap();
            for b in &blocks {
                s.put(b.clone()).unwrap();
            }
            assert_eq!(s.len(), 10);
            assert!(s.segment_count() > 1, "small capacity must roll segments");
            for b in &blocks {
                assert_eq!(*s.get(&b.hash()).unwrap(), *b);
            }
        }
        // Reopen: sealed segments are indexed lazily, but every block must
        // still be reachable and the count exact.
        let s = TieredStore::open(&dir, cfg(512)).unwrap();
        assert_eq!(s.len(), 10);
        for b in &blocks {
            assert_eq!(*s.get(&b.hash()).unwrap(), *b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_is_lazy_until_cold_reads_arrive() {
        let dir = temp_dir("lazy");
        let blocks = chain_blocks(10);
        {
            let mut s = TieredStore::open(&dir, cfg(512)).unwrap();
            put_all(&mut s, &blocks);
            assert!(s.segment_count() >= 3, "need several sealed segments");
        }
        let s = TieredStore::open(&dir, cfg(512)).unwrap();
        let sealed = s.segment_count() as usize - 1;
        assert_eq!(
            s.unindexed_segments(),
            sealed,
            "manifest open must not scan sealed segments"
        );
        // len() is exact even before any segment is scanned (manifest item
        // counts stand in for unindexed segments).
        assert_eq!(s.len(), 10);
        // A cold read of the oldest block forces indexing, newest first,
        // until found — and still returns the right block.
        assert_eq!(*s.get(&blocks[0].hash()).unwrap(), blocks[0]);
        assert_eq!(s.unindexed_segments(), 0);
        assert_eq!(s.len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_segment_files_garbage_collected_on_open() {
        let dir = temp_dir("gc");
        let blocks = chain_blocks(6);
        {
            let mut s = TieredStore::open(&dir, cfg(512)).unwrap();
            put_all(&mut s, &blocks);
        }
        // Crash leftover: an orphan segment beyond the manifest. It is not
        // listed, so it must go.
        std::fs::write(segment_path(&dir, 999), b"orphan").unwrap();
        let s = TieredStore::open(&dir, cfg(512)).unwrap();
        assert!(!segment_path(&dir, 999).exists(), "orphan segment GC'd");
        for b in &blocks {
            assert_eq!(*s.get(&b.hash()).unwrap(), *b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollover_commits_manifest_epochs() {
        let dir = temp_dir("epoch");
        let mut s = TieredStore::open(&dir, cfg(512)).unwrap();
        assert_eq!(s.epoch(), 1, "fresh store commits epoch 1");
        assert!(manifest_path(&dir).exists());
        put_all(&mut s, &chain_blocks(10));
        let rolled = s.segment_count() as u64 - 1;
        assert!(rolled > 0);
        assert_eq!(s.epoch(), 1 + rolled, "every rollover bumps the epoch");
        match read_manifest(&dir).unwrap() {
            ManifestState::Loaded(m) => {
                assert_eq!(m.epoch, s.epoch());
                assert_eq!(
                    m.of_kind(ManifestFileKind::Segment).count(),
                    s.segment_count() as usize
                );
            }
            other => panic!("expected live manifest, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn growth_commits_and_sparse_seek_bound_reopen_and_tail_scans() {
        let dir = temp_dir("growth");
        let blocks = chain_blocks(1200);
        {
            let mut s = TieredStore::open(&dir, cfg(1 << 20)).unwrap();
            put_all(&mut s, &blocks);
            assert_eq!(s.segment_count(), 1, "everything must fit one segment");
            assert!(
                s.epoch() > 1,
                "growth past the commit stride must re-commit the manifest"
            );
        }
        // The committed prefix is trusted on reopen: only the post-commit
        // delta is scanned eagerly, the prefix stays pending for lazy
        // indexing — and manifest item counts keep len() exact meanwhile.
        let mut s = TieredStore::open(&dir, cfg(1 << 20)).unwrap();
        assert_eq!(s.unindexed_segments(), 1, "committed prefix deferred");
        assert_eq!(s.len(), 1200);
        // Sparse height index: a tail scan above a high floor must enter
        // the segment mid-file (at a sparse point), not at the top.
        let mut seen = 0usize;
        s.scan_headers_from(1100, &mut |_, _| seen += 1).unwrap();
        assert!(seen >= 100, "headers above the floor missed ({seen})");
        assert!(seen < 1200, "sparse seek did not skip the head ({seen})");
        // Lazy indexing still resolves the deepest block, appends keep
        // working, and the count stays exact throughout.
        assert_eq!(*s.get(&blocks[0].hash()).unwrap(), blocks[0]);
        assert_eq!(s.unindexed_segments(), 0);
        let extra = block(1200, blocks.last().unwrap().hash());
        s.put(extra.clone()).unwrap();
        assert_eq!(*s.get(&extra.hash()).unwrap(), extra);
        assert_eq!(s.len(), 1201);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_headers_from_skips_sealed_segments_below_fence() {
        let dir = temp_dir("fence");
        let blocks = chain_blocks(12);
        let mut s = TieredStore::open(&dir, cfg(600)).unwrap();
        put_all(&mut s, &blocks);
        assert!(s.segment_count() >= 3, "need several sealed segments");
        let mut all = Vec::new();
        s.scan_headers_from(0, &mut |h, _| all.push(h)).unwrap();
        assert_eq!(all.len(), 12);
        // A floor near the tip: everything above it must be visited, and
        // whole sealed segments below it must be skipped (strictly fewer
        // headers than the full scan).
        let mut seen = Vec::new();
        s.scan_headers_from(9, &mut |h, _| seen.push(h)).unwrap();
        for h in 10..12u64 {
            assert!(seen.contains(&h), "height {h} above the floor missed");
        }
        assert!(
            seen.len() < all.len(),
            "sealed segments below the fence were not skipped"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_staged_matches_individual_puts_and_survives_reopen() {
        let dir_a = temp_dir("staged-a");
        let dir_b = temp_dir("staged-b");
        // Small segments so the staged stream rolls mid-batch.
        let blocks = chain_blocks(20);
        let mut a = TieredStore::open(&dir_a, cfg(600)).unwrap();
        let mut b = TieredStore::open(&dir_b, cfg(600)).unwrap();
        for blk in &blocks {
            a.put(blk.clone()).unwrap();
        }
        for blk in &blocks {
            stage(&mut b, blk);
            // Visible to the writer before the flush.
            assert_eq!(b.get(&blk.hash()).as_deref(), Some(blk));
        }
        assert_eq!(b.len(), 20, "staged blocks count");
        b.flush_staged().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.stored_bytes(), b.stored_bytes());
        assert_eq!(a.segment_count(), b.segment_count());
        for blk in &blocks {
            assert_eq!(b.get(&blk.hash()).as_deref(), Some(blk));
        }
        drop(b);
        // Reopen: the flushed frames scan back identically to per-put.
        let reopened = TieredStore::open(&dir_b, cfg(600)).unwrap();
        let mut seen = Vec::new();
        reopened.scan(&mut |blk| seen.push(blk.hash())).unwrap();
        let expect: Vec<BlockHash> = blocks.iter().map(Block::hash).collect();
        assert_eq!(seen, expect);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn put_staged_dedupes_and_interleaves_with_put() {
        let dir = temp_dir("staged-mix");
        let mut s = TieredStore::open(&dir, TieredConfig::default()).unwrap();
        let blocks = chain_blocks(3);
        stage(&mut s, &blocks[0]);
        // Duplicate stage: one frame only.
        stage(&mut s, &blocks[0]);
        // A plain `put` while frames are pending keeps disk order: the
        // staged frame is emitted first, then the new one, and a `put` of
        // an already-staged block flushes rather than re-appending.
        s.put(blocks[1].clone()).unwrap();
        s.put(blocks[0].clone()).unwrap();
        stage(&mut s, &blocks[2]);
        s.flush_staged().unwrap();
        s.flush_staged().unwrap(); // idempotent when nothing is staged
        assert_eq!(s.len(), 3);
        let mut seen = Vec::new();
        s.scan(&mut |b| seen.push(b.hash())).unwrap();
        assert_eq!(
            seen,
            vec![blocks[0].hash(), blocks[1].hash(), blocks[2].hash()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_put_staged_keeps_hot_set_bounded_and_readable() {
        let dir = temp_dir("tiered-staged");
        let blocks = chain_blocks(32);
        let mut s = TieredStore::open(
            &dir,
            TieredConfig {
                segment_bytes: 2048,
                hot_capacity: 8,
            },
        )
        .unwrap();
        for b in &blocks {
            stage(&mut s, b);
            assert!(s.resident_blocks() <= 8, "hot set must stay bounded");
        }
        // Mid-batch, every block resolves — hot, or pinned in the cold
        // tier's pending set even after demotion.
        s.demote(&blocks[30].hash());
        for b in &blocks {
            assert_eq!(*s.get(&b.hash()).unwrap(), *b);
        }
        s.flush_staged().unwrap();
        assert_eq!(s.len(), 32);
        for b in &blocks {
            assert_eq!(*s.get(&b.hash()).unwrap(), *b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_yields_blocks_in_append_order() {
        let dir = temp_dir("scan");
        let blocks = chain_blocks(12);
        let mut s = TieredStore::open(&dir, cfg(600)).unwrap();
        put_all(&mut s, &blocks);
        let mut seen = Vec::new();
        s.scan(&mut |b| seen.push(b.hash())).unwrap();
        let expect: Vec<BlockHash> = blocks.iter().map(Block::hash).collect();
        assert_eq!(seen, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_put_is_idempotent() {
        let dir = temp_dir("dup");
        let mut s = TieredStore::open(&dir, TieredConfig::default()).unwrap();
        let b = chain_blocks(1).pop().unwrap();
        s.put(b.clone()).unwrap();
        let bytes = s.stored_bytes();
        s.put(b).unwrap();
        assert_eq!(s.stored_bytes(), bytes);
        assert_eq!(s.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_store_bounds_residency_and_serves_cold_reads() {
        let dir = temp_dir("tiered");
        let blocks = chain_blocks(64);
        let mut s = TieredStore::open(
            &dir,
            TieredConfig {
                segment_bytes: 2048,
                hot_capacity: 8,
            },
        )
        .unwrap();
        for b in &blocks {
            s.put(b.clone()).unwrap();
            assert!(s.resident_blocks() <= 8, "hot set must stay bounded");
        }
        assert_eq!(s.len(), 64);
        // Every block — hot or long-evicted — is still readable.
        for b in &blocks {
            assert_eq!(*s.get(&b.hash()).unwrap(), *b);
        }
        let (hits, misses) = s.tier_stats();
        assert!(misses > 0, "old blocks must come from the cold tier");
        assert!(hits + misses >= 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_demote_evicts_from_hot_only() {
        let dir = temp_dir("demote");
        let blocks = chain_blocks(4);
        let mut s = TieredStore::open(&dir, TieredConfig::default()).unwrap();
        for b in &blocks {
            s.put(b.clone()).unwrap();
        }
        assert_eq!(s.resident_blocks(), 4);
        let h = blocks[0].hash();
        s.demote(&h);
        assert_eq!(s.resident_blocks(), 3);
        // Still durable and readable from cold.
        assert_eq!(*s.get(&h).unwrap(), blocks[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn demote_keeps_a_staged_block_hot_until_the_flush() {
        let dir = temp_dir("demote-staged");
        let blocks = chain_blocks(12);
        // Segments of a few frames, so the group rolls over mid-way and
        // the rollover emits the first frames before the flush.
        let mut s = TieredStore::open(&dir, cfg(600)).unwrap();
        put_all(&mut s, &blocks[..4]);
        for b in &blocks[4..] {
            stage(&mut s, b);
        }
        assert!(s.segment_count() >= 2, "the group must roll over");
        // A block flushed by an earlier group leaves the hot set; a block
        // of the group in progress stays, even one a rollover emitted.
        s.demote(&blocks[3].hash());
        s.demote(&blocks[4].hash());
        assert_eq!(s.resident_blocks(), 11);
        s.flush_staged().unwrap();
        let (hits, misses) = s.tier_stats();
        assert_eq!(*s.get(&blocks[4].hash()).unwrap(), blocks[4]);
        assert_eq!(s.tier_stats(), (hits + 1, misses), "staged block read hot");
        // Once the group has landed, the same hint demotes it.
        s.demote(&blocks[4].hash());
        assert_eq!(s.resident_blocks(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_listed_segment_missing_rejected_on_reopen() {
        let dir = temp_dir("gap");
        {
            let mut s = TieredStore::open(&dir, cfg(512)).unwrap();
            put_all(&mut s, &chain_blocks(10));
            assert!(s.segment_count() >= 3, "need several segments");
        }
        // Losing a manifest-listed segment must fail the open loudly —
        // silently indexing the survivors would hide lost history.
        std::fs::remove_file(segment_path(&dir, 1)).unwrap();
        let err = TieredStore::open(&dir, cfg(512)).unwrap_err();
        assert!(
            err.to_string().contains("missing"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_manifest_gapped_directory_rejected_on_open() {
        let dir = temp_dir("pre-gap");
        {
            let mut s = TieredStore::open(&dir, cfg(512)).unwrap();
            put_all(&mut s, &chain_blocks(10));
            assert!(s.segment_count() >= 3, "need several segments");
        }
        // A pre-manifest store (no MANIFEST) with a gap in its sequence is
        // lost data: the full-scan path keeps the original loud rejection.
        std::fs::remove_file(manifest_path(&dir)).unwrap();
        std::fs::remove_file(segment_path(&dir, 1)).unwrap();
        let err = TieredStore::open(&dir, cfg(512)).unwrap_err();
        assert!(err.to_string().contains("gap"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_trailing_frame_rejected_on_reopen() {
        let dir = temp_dir("torn");
        {
            let mut s = TieredStore::open(&dir, TieredConfig::default()).unwrap();
            put_all(&mut s, &chain_blocks(3));
        }
        // Simulate a torn tail write in the *active* segment: a length
        // prefix promising 200 bytes followed by only a handful. Blocks are
        // authoritative data, so the store must fail the open loudly
        // (unlike the derived TxIndex, which self-heals by truncation).
        {
            use std::io::Write;
            let mut f = OpenOptions::new()
                .append(true)
                .open(segment_path(&dir, 0))
                .unwrap();
            f.write_all(&(200u32).to_le_bytes()).unwrap();
            f.write_all(b"torn").unwrap();
        }
        let err = TieredStore::open(&dir, TieredConfig::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_sealed_segment_hides_neither_older_blocks_nor_its_count() {
        let dir = temp_dir("damaged-sealed");
        let blocks = chain_blocks(10);
        {
            let mut s = TieredStore::open(&dir, cfg(512)).unwrap();
            put_all(&mut s, &blocks);
            assert!(s.segment_count() >= 3, "segment 1 must be sealed");
        }
        // Same length, so the manifest check still passes on reopen.
        {
            let f = OpenOptions::new()
                .write(true)
                .open(segment_path(&dir, 1))
                .unwrap();
            f.write_all_at(b"XXXX", 0).unwrap();
        }
        let s = TieredStore::open(&dir, cfg(512)).unwrap();
        assert_eq!(s.len(), 10);
        // Indexing walks past the damaged segment 1 into segment 0.
        assert_eq!(*s.get(&blocks[0].hash()).unwrap(), blocks[0]);
        assert_eq!(s.len(), 10, "the damaged segment's blocks still count");
        assert_eq!(s.unindexed_segments(), 1, "only the damaged one pending");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_rejected_on_reopen() {
        let dir = temp_dir("corrupt");
        {
            let mut s = TieredStore::open(&dir, TieredConfig::default()).unwrap();
            s.put(chain_blocks(1).pop().unwrap()).unwrap();
        }
        {
            use std::io::Write;
            let mut f = OpenOptions::new()
                .append(true)
                .open(segment_path(&dir, 0))
                .unwrap();
            f.write_all(&[0xFF, 0xFF, 0x00, 0x00]).unwrap();
            f.write_all(&[0xAB; 16]).unwrap();
        }
        assert!(TieredStore::open(&dir, TieredConfig::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_reader_serves_during_writes() {
        let dir = temp_dir("tiered-rw");
        let blocks = chain_blocks(60);
        let mut s = TieredStore::open(
            &dir,
            TieredConfig {
                segment_bytes: 512,
                hot_capacity: 8,
            },
        )
        .unwrap();
        put_all(&mut s, &blocks[..30]);

        let reader = s.tiered_reader();
        let hashes: Vec<BlockHash> = blocks.iter().map(|b| b.hash()).collect();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let reader = reader.clone();
                let hashes = hashes.clone();
                let blocks = blocks.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let k = i % 30;
                        // The first 30 blocks are durable before the reader
                        // was handed out; they must always resolve intact.
                        let got = reader.get(&hashes[k]).expect("durable block vanished");
                        assert_eq!(*got, blocks[k]);
                        i += 1;
                    }
                })
            })
            .collect();

        // Writer keeps appending (rolling segments) while readers sweep.
        for b in &blocks[30..] {
            s.put(b.clone()).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().unwrap();
        }
        // The reader resolves the blocks appended after it was handed out.
        for b in &blocks[30..] {
            assert_eq!(*reader.get(&b.hash()).unwrap(), *b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
