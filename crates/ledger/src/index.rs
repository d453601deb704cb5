//! Disk-backed transaction index: the durable tier of the canonical-chain
//! query path.
//!
//! PR 2 bounded resident *blocks*; this module bounds resident *index*
//! memory. Once a block finalizes, the chain flushes its index entries here
//! and drops them from the mutable in-memory index, so the in-memory tier
//! covers only the non-finalized suffix while full-history queries
//! ([`crate::ChainView::tx_by_id`], [`crate::ChainView::txs_by_kind`] — the
//! provenance-audit access pattern the SoK paper centers) are served from
//! durable pages.
//!
//! Layout: entries are hash-partitioned by transaction id across `P`
//! append-only partition files (`idx-00.pages`, …), each a sequence of
//! [`blockprov_wire::index`] pages framed with the shared `wire::frame`
//! framing. Every page carries a Bloom filter over its transaction ids plus a
//! kind bitmask, so point lookups and kind scans skip pages without decoding
//! them; decoded pages are cached in the shared [`crate::cache::LruCache`].
//!
//! Partition files are append-only: a page, once written, is never
//! rewritten or merged, so readers pin nothing but the page directory they
//! loaded. The stated cost is page count: every [`TxIndex::sync`] (each
//! clean shutdown included) cuts the staged tail of each partition into one
//! short page, and lookups sweep those pages newest first behind their
//! Bloom filters.
//!
//! Crash safety: blocks are authoritative, the index is *derived*. A torn
//! trailing page (crash mid-flush) is truncated on reopen rather than
//! failing the open — contrast [`crate::segment::TieredStore`], which fails
//! loudly because block data cannot be rebuilt. Appends are idempotent per
//! partition: entries at or below a partition's durable `last_height` are
//! dropped, so a chain replay after a crash re-derives exactly the missing
//! suffix.
//!
//! A page of another format version fails [`TxIndex::open`] with both
//! versions named, instead of being truncated as a torn tail: silently
//! dropping a whole partition would hide the mismatch.

use crate::block::BlockHash;
use crate::readview::{Published, ShardedCache};
use crate::tx::TxId;
use blockprov_wire::index::{
    read_page_from, write_page_to, BloomFilter, IndexPageHeader, INDEX_VERSION,
};
use blockprov_wire::{Codec, Reader, WireError, Writer};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One spilled transaction: everything the canonical indexes knew about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Transaction id (primary key).
    pub id: TxId,
    /// Application kind tag.
    pub kind: u16,
    /// Containing canonical block.
    pub block: BlockHash,
    /// Height of the containing block.
    pub height: u64,
    /// Position of the transaction within the block.
    pub pos: u32,
}

impl Codec for IndexEntry {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        w.put_u16(self.kind);
        self.block.encode(w);
        w.put_u64(self.height);
        w.put_u32(self.pos);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            id: TxId::decode(r)?,
            kind: r.get_u16()?,
            block: BlockHash::decode(r)?,
            height: r.get_u64()?,
            pos: r.get_u32()?,
        })
    }
}

/// The 64-bit word of a 32-byte key used for partition routing. The key is
/// already a cryptographic hash, so its bytes are uniform.
pub(crate) fn route_hash(bytes: &[u8; 32]) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"))
}

/// Two independent 64-bit hashes for Bloom probing — deliberately drawn
/// from *different* key words than [`route_hash`]: every key in a partition
/// shares its routing residue, so reusing the routing word as a probe base
/// would cluster first probes into 1/partitions of the filter and inflate
/// false positives.
fn bloom_hashes(bytes: &[u8; 32]) -> (u64, u64) {
    let h1 = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let h2 = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    (h1, h2)
}

/// Tuning for [`TxIndex`].
#[derive(Debug, Clone, Copy)]
pub struct TxIndexConfig {
    /// Number of hash partitions (one append-only page file each). Fixed at
    /// creation; reopening derives the count from the existing files.
    pub partitions: u16,
    /// Entries staged in memory per partition before a page is cut. Staged
    /// entries are queryable immediately and re-derived from blocks after a
    /// crash, so this bounds only the *non-durable* window, not correctness.
    /// It does not bound the publish cost: readers share the staged tail's
    /// sealed chunks of 64 entries, so a publish copies only each
    /// partition's open chunk.
    pub page_entries: usize,
    /// Decoded pages held in the LRU page cache.
    pub cached_pages: usize,
}

impl Default for TxIndexConfig {
    fn default() -> Self {
        Self {
            partitions: 16,
            page_entries: 1024,
            cached_pages: 64,
        }
    }
}

/// Where a page's entry bytes live inside its partition file.
#[derive(Debug, Clone)]
struct PageMeta {
    /// Byte offset of the frame payload (header + entries).
    offset: u64,
    /// Frame payload length.
    len: u32,
    header: IndexPageHeader,
}

/// Entries per sealed chunk of a partition's staged tail. A publish copies
/// at most one open chunk per partition (64 × 80 B = 5 KiB), and a lookup
/// walks about `page_entries / STAGED_CHUNK` chunks of a partition.
const STAGED_CHUNK: usize = 64;

/// A partition's staged (not yet paged) tail in arrival order: sealed
/// chunks of [`STAGED_CHUNK`] entries, shared with published views by
/// `Arc`, then the open chunk.
///
/// The list of sealed chunks is `Arc`-shared too, so a clone (a publish)
/// bumps one count instead of one per chunk; a seal while a view holds the
/// list copies its pointers first, as [`Arc::make_mut`] does for the page
/// directory.
#[derive(Debug, Clone, Default)]
struct Staged {
    sealed: Arc<Vec<Arc<[IndexEntry]>>>,
    open: Vec<IndexEntry>,
}

impl Staged {
    fn len(&self) -> usize {
        self.sealed.len() * STAGED_CHUNK + self.open.len()
    }

    fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.open.is_empty()
    }

    fn push(&mut self, e: IndexEntry) {
        self.open.push(e);
        if self.open.len() == STAGED_CHUNK {
            Arc::make_mut(&mut self.sealed).push(Arc::from(self.open.as_slice()));
            self.open.clear();
        }
    }

    /// The chunks, oldest first.
    fn chunks(&self) -> impl DoubleEndedIterator<Item = &[IndexEntry]> {
        self.sealed
            .iter()
            .map(|chunk| &chunk[..])
            .chain(std::iter::once(self.open.as_slice()))
    }

    /// The newest entry matching `pred`: later arrivals win.
    fn newest(&self, pred: impl Fn(&IndexEntry) -> bool) -> Option<&IndexEntry> {
        self.chunks()
            .rev()
            .find_map(|chunk| chunk.iter().rev().find(|e| pred(e)))
    }

    /// Every entry, in arrival order, leaving the tail empty.
    fn take(&mut self) -> Vec<IndexEntry> {
        let mut all = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            all.extend_from_slice(chunk);
        }
        self.sealed = Arc::default();
        self.open.clear();
        all
    }
}

/// One partition's queryable state: durable pages plus the staged (not yet
/// paged) tail. The writer's [`Partition`] owns one, and a publish clones
/// it into a [`TxIndexState`].
///
/// The page directory and the staged tail's sealed chunks are `Arc`-shared
/// with published reader states: [`Arc::make_mut`] gives the writer
/// copy-on-write page appends that clone the directory at most once per
/// publish cycle, and a sealed chunk is never written again.
#[derive(Debug, Clone, Default)]
struct PartState {
    pages: Arc<Vec<PageMeta>>,
    staged: Staged,
}

/// One partition of the writer: its queryable state plus its file's
/// length and durable watermark.
#[derive(Debug)]
struct Partition {
    state: PartState,
    /// Bytes currently in the partition file.
    file_len: u64,
    /// Largest height durably paged (0 = nothing paged yet).
    last_height: u64,
}

fn partition_path(dir: &Path, p: u16) -> PathBuf {
    dir.join(format!("idx-{p:02}.pages"))
}

/// Page-cache shard count: enough locks that a handful of reader threads
/// rarely collide, few enough that per-shard LRU capacity stays useful.
const PAGE_CACHE_SHARDS: usize = 8;

/// State shared between the owning [`TxIndex`] and every
/// [`TxIndexReader`]: the published immutable view, one `pread` handle per
/// partition file (opened once — the files are only ever appended to), the
/// sharded decoded-page cache, and cache counters.
#[derive(Debug)]
pub struct TxIndexShared {
    state: Published<TxIndexState>,
    files: Vec<File>,
    /// Decoded page cache: (partition, sequence) → entries sorted by id.
    cache: ShardedCache<(u16, u32), Arc<Vec<IndexEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One published, immutable view of the whole index.
#[derive(Debug)]
struct TxIndexState {
    partitions: Vec<PartState>,
}

/// A cloneable, `Send + Sync` read handle over the last published index
/// state. Never blocks the writer and is never blocked by it beyond one
/// Arc clone; results are bounded by an explicit `max_height` ceiling so
/// callers can pin queries to a chain snapshot's finalized height.
#[derive(Debug, Clone)]
pub struct TxIndexReader {
    shared: Arc<TxIndexShared>,
}

/// Decode an index page payload (header + entries) from raw bytes.
fn decode_index_page(body: &[u8]) -> io::Result<Vec<IndexEntry>> {
    let mut reader = Reader::new(body);
    let header = IndexPageHeader::decode(&mut reader)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut entries = Vec::with_capacity(header.entry_count as usize);
    for _ in 0..header.entry_count {
        entries.push(
            IndexEntry::decode(&mut reader)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
        );
    }
    Ok(entries)
}

/// Fetch one decoded page through the shared cache, reading with `pread` on
/// miss — no seek, so concurrent readers share a file handle without a lock.
fn read_index_page(
    shared: &TxIndexShared,
    p: u16,
    seq: u32,
    meta: &PageMeta,
) -> io::Result<Arc<Vec<IndexEntry>>> {
    if let Some(hit) = shared.cache.get(&(p, seq)) {
        shared.hits.fetch_add(1, Ordering::Relaxed);
        return Ok(hit);
    }
    shared.misses.fetch_add(1, Ordering::Relaxed);
    let mut body = vec![0u8; meta.len as usize];
    shared.files[p as usize].read_exact_at(&mut body, meta.offset)?;
    let arc = Arc::new(decode_index_page(&body)?);
    shared.cache.insert((p, seq), Arc::clone(&arc));
    Ok(arc)
}

/// The partition a transaction id routes to among `partitions`.
fn route(id: &TxId, partitions: usize) -> usize {
    (route_hash(id.0.as_bytes()) % partitions as u64) as usize
}

/// Locate `id` at or below `max_height` in partition `p`: `(block,
/// position)`. The staged tail is strictly newer than any page, and pages
/// are swept newest first behind their Bloom filters, so the latest
/// occurrence wins, as later absorbs overwrite the chain's suffix index.
///
/// The one lookup body: [`TxIndexReader::lookup`] runs it on the published
/// state, [`TxIndex::lookup`] on the writer's.
fn lookup(
    shared: &TxIndexShared,
    p: usize,
    part: &PartState,
    id: &TxId,
    max_height: u64,
) -> io::Result<Option<(BlockHash, u32)>> {
    if let Some(e) = part
        .staged
        .newest(|e| e.id == *id && e.height <= max_height)
    {
        return Ok(Some((e.block, e.pos)));
    }
    let (h1, h2) = bloom_hashes(id.0.as_bytes());
    for seq in (0..part.pages.len() as u32).rev() {
        let meta = &part.pages[seq as usize];
        if meta.header.first_height > max_height || !meta.header.key_bloom.contains(h1, h2) {
            continue;
        }
        let entries = read_index_page(shared, p as u16, seq, meta)?;
        let start = entries.partition_point(|e| e.id < *id);
        let hit = entries[start..]
            .iter()
            .take_while(|e| e.id == *id)
            .filter(|e| e.height <= max_height)
            .max_by_key(|e| (e.height, e.pos));
        if let Some(e) = hit {
            return Ok(Some((e.block, e.pos)));
        }
    }
    Ok(None)
}

/// Entries with the given kind tag at or below `max_height` across every
/// partition, oldest first: canonical `(height, pos)` order. Pages whose
/// kind mask lacks the tag are skipped unread.
///
/// The one kind-sweep body, behind [`TxIndexReader::entries_by_kind`] and
/// [`TxIndex::entries_by_kind`].
fn entries_by_kind<'a>(
    shared: &TxIndexShared,
    parts: impl Iterator<Item = &'a PartState>,
    kind: u16,
    max_height: u64,
) -> io::Result<Vec<IndexEntry>> {
    let bit = 1u64 << (kind % 64);
    let matches = |e: &&IndexEntry| e.height <= max_height && e.kind == kind;
    let mut found: Vec<IndexEntry> = Vec::new();
    for (p, part) in parts.enumerate() {
        for seq in 0..part.pages.len() as u32 {
            let meta = &part.pages[seq as usize];
            if meta.header.first_height > max_height || meta.header.tag_mask & bit == 0 {
                continue;
            }
            let entries = read_index_page(shared, p as u16, seq, meta)?;
            found.extend(entries.iter().filter(matches));
        }
        for chunk in part.staged.chunks() {
            found.extend(chunk.iter().filter(matches));
        }
    }
    found.sort_unstable_by_key(|e| (e.height, e.pos));
    Ok(found)
}

impl TxIndexReader {
    /// Locate a finalized transaction by id at or below `max_height` in the
    /// published state: `(block, position)`. The latest occurrence wins.
    pub fn lookup(&self, id: &TxId, max_height: u64) -> io::Result<Option<(BlockHash, u32)>> {
        let state = self.shared.state.load();
        let p = route(id, state.partitions.len());
        lookup(&self.shared, p, &state.partitions[p], id, max_height)
    }

    /// Finalized entries with the given kind tag at or below `max_height`
    /// in the published state, across every partition, oldest first:
    /// canonical `(height, pos)` order.
    pub fn entries_by_kind(&self, kind: u16, max_height: u64) -> io::Result<Vec<IndexEntry>> {
        let state = self.shared.state.load();
        entries_by_kind(&self.shared, state.partitions.iter(), kind, max_height)
    }
}

/// The durable, crash-safe transaction index.
pub struct TxIndex {
    dir: PathBuf,
    config: TxIndexConfig,
    partitions: Vec<Partition>,
    writers: Vec<BufWriter<File>>,
    shared: Arc<TxIndexShared>,
    entries: u64,
    bytes: u64,
}

impl std::fmt::Debug for TxIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxIndex")
            .field("dir", &self.dir)
            .field("partitions", &self.partitions.len())
            .field("pages", &self.page_count())
            .field("entries", &self.entries)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl TxIndex {
    /// Open (or create) an index in `dir`.
    ///
    /// Reopening derives the partition count from the existing `idx-*.pages`
    /// files (the sequence must be gap-free) and rebuilds the page directory
    /// by scanning page headers. A torn trailing page — the signature of a
    /// crash mid-flush — is truncated away: index contents are derived from
    /// blocks, so the chain re-spills the lost suffix on replay.
    pub fn open<P: AsRef<Path>>(dir: P, config: TxIndexConfig) -> io::Result<Self> {
        assert!(
            config.partitions > 0,
            "TxIndex needs at least one partition"
        );
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut ids: Vec<u16> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("idx-")
                .and_then(|s| s.strip_suffix(".pages"))
            {
                let id = num.parse::<u16>().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unparseable index file name {name:?}"),
                    )
                })?;
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let partition_count = if ids.is_empty() {
            config.partitions
        } else {
            // Partition count is fixed by the on-disk layout: routing moves
            // if it changes, so a gap (or a different configured count) must
            // not silently re-shard.
            let max = *ids.last().expect("non-empty");
            if ids.len() as u32 != u32::from(max) + 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "index partition sequence has gaps: {} files up to idx-{max:02}",
                        ids.len()
                    ),
                ));
            }
            max + 1
        };
        let mut partitions = Vec::with_capacity(partition_count as usize);
        let mut writers = Vec::with_capacity(partition_count as usize);
        let mut files = Vec::with_capacity(partition_count as usize);
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for p in 0..partition_count {
            let path = partition_path(&dir, p);
            let part = if path.exists() {
                Self::scan_partition(&path, p)?
            } else {
                File::create(&path)?;
                Partition {
                    state: PartState::default(),
                    file_len: 0,
                    last_height: 0,
                }
            };
            entries += part
                .state
                .pages
                .iter()
                .map(|m| u64::from(m.header.entry_count))
                .sum::<u64>();
            bytes += part.file_len;
            writers.push(BufWriter::new(OpenOptions::new().append(true).open(&path)?));
            files.push(File::open(&path)?);
            partitions.push(part);
        }
        let shared = Arc::new(TxIndexShared {
            state: Published::new(TxIndexState {
                partitions: Vec::new(),
            }),
            files,
            cache: ShardedCache::new(config.cached_pages, PAGE_CACHE_SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        });
        let ix = Self {
            dir,
            partitions,
            writers,
            shared,
            entries,
            bytes,
            config,
        };
        ix.publish();
        Ok(ix)
    }

    /// Publish the current durable + staged view for readers, who pin it
    /// under a mutex held for one `Arc` copy.
    ///
    /// Costs one copy of each partition's open staged chunk (under 64
    /// entries) plus `Arc` bumps for the page directory and the sealed
    /// chunks — O(batch + chunk) per group commit, however large
    /// `page_entries` is. The caller gates it on readers existing.
    pub fn publish(&self) {
        let partitions = self.partitions.iter().map(|p| p.state.clone()).collect();
        self.shared
            .state
            .store(Arc::new(TxIndexState { partitions }));
    }

    /// A cloneable read handle over the last published state.
    pub fn reader(&self) -> TxIndexReader {
        TxIndexReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Scan one partition file's page headers, truncating a torn tail and
    /// refusing a page of another format version.
    fn scan_partition(path: &Path, p: u16) -> io::Result<Partition> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut pages = Vec::new();
        let mut pos = 0u64;
        let mut last_height = 0u64;
        let truncate_at = loop {
            match read_page_from(&mut reader) {
                Ok(None) => break None,
                Ok(Some((header, entry_bytes))) => {
                    if header.partition != p {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "index page filed under partition {p} claims partition {}",
                                header.partition
                            ),
                        ));
                    }
                    if header.sequence != pages.len() as u32 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "index partition {p}: page sequence {} at position {}",
                                header.sequence,
                                pages.len()
                            ),
                        ));
                    }
                    let len = (header.to_wire().len() + entry_bytes.len()) as u32;
                    last_height = last_height.max(header.last_height);
                    pages.push(PageMeta {
                        offset: pos + blockprov_wire::frame::FRAME_OVERHEAD,
                        len,
                        header,
                    });
                    pos += blockprov_wire::frame::frame_len(len as usize);
                }
                Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{} holds {e}: delete the index directory to rebuild it \
                             from blocks",
                            path.display()
                        ),
                    ));
                }
                // Torn or corrupt tail: the index is derived data, so
                // recover by truncation — the chain re-spills the suffix.
                Err(_) => break Some(pos),
            }
        };
        if let Some(at) = truncate_at {
            drop(reader);
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(at)?;
            f.sync_all()?;
        }
        Ok(Partition {
            state: PartState {
                pages: Arc::new(pages),
                staged: Staged::default(),
            },
            file_len: pos,
            last_height,
        })
    }

    /// Append spilled entries. Entries at or below a partition's durable
    /// `last_height` are dropped (idempotent replay); the rest are staged
    /// and cut into durable pages once a partition's staged tail reaches
    /// [`TxIndexConfig::page_entries`].
    ///
    /// Pages are cut only *between* batches, never mid-batch: a batch
    /// carries complete heights (the chain spills each finalized height
    /// exactly once), so no page can end in the middle of a height — which
    /// is what keeps the per-partition height watermark a sound idempotence
    /// guard. A page that split a height would mark the height durable
    /// while its remainder sat in the crash-lossy staged tail, and replay
    /// would then drop the lost entries forever.
    pub fn append(&mut self, entries: Vec<IndexEntry>) -> io::Result<u64> {
        let mut accepted = 0u64;
        for e in entries {
            let p = route(&e.id, self.partitions.len());
            let part = &mut self.partitions[p];
            if e.height <= part.last_height {
                continue; // already durable (crash-replay overlap)
            }
            part.state.staged.push(e);
            accepted += 1;
        }
        self.entries += accepted;
        for p in 0..self.partitions.len() {
            if self.partitions[p].state.staged.len() >= self.config.page_entries {
                self.cut_page(p)?;
            }
        }
        Ok(accepted)
    }

    /// Force every staged entry into durable pages (checkpoint/shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        for p in 0..self.partitions.len() {
            if !self.partitions[p].state.staged.is_empty() {
                self.cut_page(p)?;
            }
        }
        self.publish();
        Ok(())
    }

    /// Build a page header plus encoded entry bytes for `entries`, which
    /// must already be sorted by id (the binary-search invariant).
    fn build_page(
        partition: u16,
        sequence: u32,
        entries: &[IndexEntry],
    ) -> (IndexPageHeader, Vec<u8>) {
        let mut key_bloom = BloomFilter::with_capacity(entries.len());
        let mut tag_mask = 0u64;
        let mut first_height = u64::MAX;
        let mut last_height = 0u64;
        let mut entry_bytes = Writer::new();
        for e in entries {
            let (h1, h2) = bloom_hashes(e.id.0.as_bytes());
            key_bloom.insert(h1, h2);
            tag_mask |= 1 << (e.kind % 64);
            first_height = first_height.min(e.height);
            last_height = last_height.max(e.height);
            e.encode(&mut entry_bytes);
        }
        let header = IndexPageHeader {
            version: INDEX_VERSION,
            partition,
            sequence,
            entry_count: entries.len() as u32,
            first_height,
            last_height,
            key_bloom,
            tag_mask,
        };
        (header, entry_bytes.into_bytes())
    }

    /// Cut the staged tail of partition `p` into one durable page.
    fn cut_page(&mut self, p: usize) -> io::Result<()> {
        let part = &mut self.partitions[p];
        let mut staged = part.state.staged.take();
        // Pages are sorted by id so point lookups binary-search; canonical
        // order is recovered from (height, pos) at query time.
        staged.sort_by_key(|e| e.id);
        let (header, entry_bytes) =
            Self::build_page(p as u16, part.state.pages.len() as u32, &staged);
        let payload_len = (header.to_wire().len() + entry_bytes.len()) as u32;
        let writer = &mut self.writers[p];
        write_page_to(writer, &header, &entry_bytes)?;
        writer.flush()?;
        let meta = PageMeta {
            offset: part.file_len + blockprov_wire::frame::FRAME_OVERHEAD,
            len: payload_len,
            header,
        };
        part.file_len += blockprov_wire::frame::frame_len(payload_len as usize);
        part.last_height = part.last_height.max(meta.header.last_height);
        self.bytes += blockprov_wire::frame::frame_len(payload_len as usize);
        // The freshly cut page is hot by construction.
        self.shared
            .cache
            .insert((p as u16, meta.header.sequence), Arc::new(staged));
        Arc::make_mut(&mut part.state.pages).push(meta);
        Ok(())
    }

    /// Durable per-partition height watermarks (crash-recovery probes).
    pub fn partition_watermarks(&self) -> Vec<u64> {
        self.partitions.iter().map(|p| p.last_height).collect()
    }

    /// [`TxIndexReader::lookup`] on the writer's current state, published or
    /// not.
    pub fn lookup(&self, id: &TxId, max_height: u64) -> io::Result<Option<(BlockHash, u32)>> {
        let p = route(id, self.partitions.len());
        lookup(&self.shared, p, &self.partitions[p].state, id, max_height)
    }

    /// [`TxIndexReader::entries_by_kind`] on the writer's current state,
    /// published or not.
    pub fn entries_by_kind(&self, kind: u16, max_height: u64) -> io::Result<Vec<IndexEntry>> {
        let parts = self.partitions.iter().map(|p| &p.state);
        entries_by_kind(&self.shared, parts, kind, max_height)
    }

    /// Total entries held (durable pages + staged tail).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Entries staged in memory, not yet cut into a durable page.
    pub fn staged_entries(&self) -> usize {
        self.partitions.iter().map(|p| p.state.staged.len()).sum()
    }

    /// Total durable pages across all partitions.
    pub fn page_count(&self) -> usize {
        self.partitions.iter().map(|p| p.state.pages.len()).sum()
    }

    /// Number of hash partitions.
    pub fn partition_count(&self) -> u16 {
        self.partitions.len() as u16
    }

    /// Bytes across all partition files.
    pub fn stored_bytes(&self) -> u64 {
        self.bytes
    }

    /// `(page cache hits, misses)`, across the writer and every reader.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.shared.hits.load(Ordering::Relaxed),
            self.shared.misses.load(Ordering::Relaxed),
        )
    }
}

impl Drop for TxIndex {
    fn drop(&mut self) {
        // Best effort: staged entries are re-derivable, but flushing them
        // makes clean shutdown → reopen start warm.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_crypto::sha256::sha256;

    fn entry(i: u64, kind: u16) -> IndexEntry {
        IndexEntry {
            id: TxId(sha256(format!("tx-{i}").as_bytes())),
            kind,
            block: BlockHash(sha256(format!("blk-{i}").as_bytes())),
            height: i,
            pos: (i % 7) as u32,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blockprov-txindex-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Ids of `kind` in the writer's current state, oldest first.
    fn kind_ids(ix: &TxIndex, kind: u16) -> Vec<TxId> {
        let entries = ix.entries_by_kind(kind, u64::MAX).unwrap();
        entries.into_iter().map(|e| e.id).collect()
    }

    fn small_config() -> TxIndexConfig {
        TxIndexConfig {
            partitions: 4,
            page_entries: 8,
            cached_pages: 4,
        }
    }

    #[test]
    fn entry_codec_round_trip() {
        let e = entry(42, 7);
        assert_eq!(IndexEntry::from_wire(&e.to_wire()).unwrap(), e);
    }

    #[test]
    fn lookup_and_secondary_queries_across_pages() {
        let dir = temp_dir("basic");
        let mut ix = TxIndex::open(&dir, small_config()).unwrap();
        let entries: Vec<IndexEntry> = (1..=100).map(|i| entry(i, (i % 3) as u16)).collect();
        ix.append(entries.clone()).unwrap();
        assert_eq!(ix.entries(), 100);
        assert!(ix.page_count() > 0, "pages must have been cut");
        for e in &entries {
            assert_eq!(ix.lookup(&e.id, u64::MAX).unwrap(), Some((e.block, e.pos)));
        }
        assert_eq!(
            ix.lookup(&TxId(sha256(b"missing")), u64::MAX).unwrap(),
            None
        );
        // Canonical (height) order.
        let kind0: Vec<TxId> = entries
            .iter()
            .filter(|e| e.kind == 0)
            .map(|e| e.id)
            .collect();
        assert_eq!(kind_ids(&ix, 0), kind0);
        assert!(kind_ids(&ix, 9).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rebuilds_page_directory() {
        let dir = temp_dir("reopen");
        let entries: Vec<IndexEntry> = (1..=60).map(|i| entry(i, 1)).collect();
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append(entries.clone()).unwrap();
            ix.sync().unwrap();
        }
        let ix = TxIndex::open(&dir, small_config()).unwrap();
        assert_eq!(ix.entries(), 60);
        for e in &entries {
            assert_eq!(ix.lookup(&e.id, u64::MAX).unwrap(), Some((e.block, e.pos)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_tail_is_queryable_and_flushed_on_drop() {
        let dir = temp_dir("staged");
        let e = entry(5, 2);
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append(vec![e]).unwrap();
            assert_eq!(ix.staged_entries(), 1);
            assert_eq!(ix.page_count(), 0);
            // Visible before any page exists.
            assert_eq!(ix.lookup(&e.id, u64::MAX).unwrap(), Some((e.block, e.pos)));
            assert_eq!(kind_ids(&ix, e.kind), vec![e.id]);
        }
        // Drop synced the staged tail.
        let ix = TxIndex::open(&dir, small_config()).unwrap();
        assert_eq!(ix.lookup(&e.id, u64::MAX).unwrap(), Some((e.block, e.pos)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_is_idempotent_per_partition_height() {
        let dir = temp_dir("idem");
        let entries: Vec<IndexEntry> = (1..=40).map(|i| entry(i, 1)).collect();
        let mut ix = TxIndex::open(&dir, small_config()).unwrap();
        ix.append(entries.clone()).unwrap();
        ix.sync().unwrap();
        let bytes = ix.stored_bytes();
        let total = ix.entries();
        // A crash-replay re-derives the same entries; none may duplicate.
        let accepted = ix.append(entries.clone()).unwrap();
        ix.sync().unwrap();
        assert_eq!(accepted, 0);
        assert_eq!(ix.entries(), total);
        assert_eq!(ix.stored_bytes(), bytes);
        assert_eq!(kind_ids(&ix, 1).len(), 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_id_resolves_to_latest_height() {
        let dir = temp_dir("dup");
        let mut ix = TxIndex::open(&dir, small_config()).unwrap();
        let mut e1 = entry(1, 1);
        let mut e2 = entry(2, 1);
        e2.id = e1.id; // same tx id sealed twice
        e1.pos = 0;
        e2.pos = 3;
        ix.append(vec![e1, e2]).unwrap();
        ix.sync().unwrap();
        assert_eq!(
            ix.lookup(&e1.id, u64::MAX).unwrap(),
            Some((e2.block, e2.pos))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_replay_recovers_heights_that_straddle_a_page_cut() {
        // One partition, threshold 8. Batch A stages 5 entries (heights
        // 1..=5); batch B carries 6 entries all at height 6 and pushes the
        // tail over the threshold. The page cut must swallow the *whole*
        // tail — cutting mid-batch would persist a page claiming height 6
        // while half of height 6 sat in the crash-lossy staged buffer, and
        // the idempotence guard would then drop the lost half on every
        // future replay.
        let dir = temp_dir("split-height");
        let config = TxIndexConfig {
            partitions: 1,
            page_entries: 8,
            cached_pages: 4,
        };
        let batch_a: Vec<IndexEntry> = (1..=5).map(|i| entry(i, 1)).collect();
        let batch_b: Vec<IndexEntry> = (0..6)
            .map(|j| {
                let mut e = entry(100 + j, 1);
                e.height = 6;
                e.pos = j as u32;
                e
            })
            .collect();
        {
            let mut ix = TxIndex::open(&dir, config).unwrap();
            ix.append(batch_a.clone()).unwrap();
            ix.append(batch_b.clone()).unwrap();
            // Hard crash: Drop (which syncs the staged tail) never runs.
            std::mem::forget(ix);
        }
        // Restart + replay: the chain re-derives every entry.
        let mut ix = TxIndex::open(&dir, config).unwrap();
        ix.append(batch_a.clone()).unwrap();
        ix.append(batch_b.clone()).unwrap();
        ix.sync().unwrap();
        for e in batch_a.iter().chain(batch_b.iter()) {
            assert_eq!(
                ix.lookup(&e.id, u64::MAX).unwrap(),
                Some((e.block, e.pos)),
                "entry at height {} lost across crash-replay",
                e.height
            );
        }
        assert_eq!(
            kind_ids(&ix, 1).len(),
            11,
            "no duplicates and no losses after replay"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_page_truncated_on_reopen() {
        let dir = temp_dir("torn");
        let entries: Vec<IndexEntry> = (1..=40).map(|i| entry(i, 1)).collect();
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append(entries.clone()).unwrap();
            ix.sync().unwrap();
        }
        // Find a partition with at least one page and tear its tail.
        let victim = (0..4u16)
            .find(|&p| std::fs::metadata(partition_path(&dir, p)).unwrap().len() > 0)
            .expect("some partition has pages");
        let path = partition_path(&dir, victim);
        let whole = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&(10_000u32).to_le_bytes()).unwrap();
            f.write_all(b"torn page tail").unwrap();
        }
        // Reopen succeeds and self-heals: the torn tail is gone, every
        // durable entry still resolves.
        let ix = TxIndex::open(&dir, small_config()).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        for e in &entries {
            assert_eq!(ix.lookup(&e.id, u64::MAX).unwrap(), Some((e.block, e.pos)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_partition_file_fails_open() {
        let dir = temp_dir("gap");
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append((1..=10).map(|i| entry(i, 1)).collect()).unwrap();
            ix.sync().unwrap();
        }
        std::fs::remove_file(partition_path(&dir, 1)).unwrap();
        assert!(TxIndex::open(&dir, small_config()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_respects_publish_points_and_height_ceiling() {
        let dir = temp_dir("reader");
        let mut ix = TxIndex::open(&dir, small_config()).unwrap();
        let reader = ix.reader();
        let entries: Vec<IndexEntry> = (1..=40).map(|i| entry(i, 1)).collect();
        ix.append(entries.clone()).unwrap();
        // Pages were cut (and cached), but nothing republished yet: the
        // reader still answers from the open-time (empty) state.
        assert_eq!(reader.lookup(&entries[0].id, u64::MAX).unwrap(), None);
        ix.sync().unwrap();
        for e in &entries {
            assert_eq!(
                reader.lookup(&e.id, u64::MAX).unwrap(),
                Some((e.block, e.pos))
            );
        }
        // The height ceiling hides entries above it — the prefix-consistency
        // hook the chain snapshot relies on.
        assert_eq!(reader.lookup(&entries[39].id, 39).unwrap(), None);
        assert_eq!(reader.entries_by_kind(1, 25).unwrap().len(), 25);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One partition whose page holds four sealed staged chunks.
    fn chunked_config() -> TxIndexConfig {
        TxIndexConfig {
            partitions: 1,
            page_entries: 4 * STAGED_CHUNK,
            cached_pages: 4,
        }
    }

    #[test]
    fn publishes_around_a_chunk_seal_share_the_sealed_chunk() {
        let dir = temp_dir("chunk-share");
        let mut ix = TxIndex::open(&dir, chunked_config()).unwrap();
        let n = STAGED_CHUNK as u64;
        ix.append((1..=n - 1).map(|i| entry(i, 1)).collect())
            .unwrap();
        ix.publish();
        let before = ix.shared.state.load();
        assert!(before.partitions[0].staged.sealed.is_empty());
        // The next entry seals the first chunk.
        ix.append((n..=n + 1).map(|i| entry(i, 1)).collect())
            .unwrap();
        ix.publish();
        let sealed = ix.shared.state.load();
        ix.append((n + 2..=n + 9).map(|i| entry(i, 1)).collect())
            .unwrap();
        ix.publish();
        let after = ix.shared.state.load();
        let (s, a) = (&sealed.partitions[0].staged, &after.partitions[0].staged);
        assert_eq!((s.sealed.len(), s.open.len()), (1, 1));
        assert_eq!((a.sealed.len(), a.open.len()), (1, 9));
        assert!(Arc::ptr_eq(&s.sealed[0], &a.sealed[0]));
        // No seal since the last publish: the list itself is shared.
        assert!(Arc::ptr_eq(
            &a.sealed,
            &ix.partitions[0].state.staged.sealed
        ));
        assert!(Arc::ptr_eq(
            &a.sealed[0],
            &ix.partitions[0].state.staged.sealed[0]
        ));
        assert_eq!(ix.staged_entries(), STAGED_CHUNK + 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_lookup_takes_newest_duplicate_across_chunks() {
        let dir = temp_dir("chunk-dup");
        let mut ix = TxIndex::open(&dir, chunked_config()).unwrap();
        let reader = ix.reader();
        let n = STAGED_CHUNK as u64;
        // The same id in the first sealed chunk, the second sealed chunk
        // and the open chunk.
        let mut entries: Vec<IndexEntry> = (1..=2 * n + 2).map(|i| entry(i, 1)).collect();
        let (first, second, third) = (10, n + 10, 2 * n + 1);
        let id = entries[first as usize - 1].id;
        entries[second as usize - 1].id = id;
        entries[third as usize - 1].id = id;
        ix.append(entries.clone()).unwrap();
        ix.publish();
        assert_eq!(ix.partitions[0].state.staged.sealed.len(), 2);
        let at = |h: u64| {
            let e = &entries[h as usize - 1];
            Some((e.block, e.pos))
        };
        assert_eq!(ix.lookup(&id, u64::MAX).unwrap(), at(third));
        assert_eq!(ix.lookup(&id, second - 1).unwrap(), at(first));
        assert_eq!(reader.lookup(&id, u64::MAX).unwrap(), at(third));
        assert_eq!(reader.lookup(&id, third - 1).unwrap(), at(second));
        assert_eq!(reader.lookup(&id, second - 1).unwrap(), at(first));
        assert_eq!(reader.lookup(&id, first - 1).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_by_kind_keep_canonical_order_across_chunks() {
        let dir = temp_dir("chunk-kind");
        let mut ix = TxIndex::open(&dir, chunked_config()).unwrap();
        let reader = ix.reader();
        let entries: Vec<IndexEntry> = (1..=3 * STAGED_CHUNK as u64 + 5)
            .map(|i| entry(i, (i % 3) as u16))
            .collect();
        ix.append(entries.clone()).unwrap();
        ix.publish();
        assert_eq!(ix.partitions[0].state.staged.sealed.len(), 3);
        let ceiling = 2 * STAGED_CHUNK as u64 + 7;
        let expect: Vec<IndexEntry> = entries
            .iter()
            .filter(|e| e.kind == 1 && e.height <= ceiling)
            .copied()
            .collect();
        assert_eq!(reader.entries_by_kind(1, ceiling).unwrap(), expect);
        let all: Vec<TxId> = entries
            .iter()
            .filter(|e| e.kind == 1)
            .map(|e| e.id)
            .collect();
        assert_eq!(kind_ids(&ix, 1), all);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn page_cut_over_chunks_matches_one_flat_tail() {
        let dir = temp_dir("chunk-cut");
        let mut ix = TxIndex::open(&dir, chunked_config()).unwrap();
        let reader = ix.reader();
        let mut entries: Vec<IndexEntry> = (1..=300).map(|i| entry(i, 1)).collect();
        // A duplicate id in different chunks: the id sort must keep
        // arrival order, as it did over one flat tail.
        entries[250].id = entries[20].id;
        // Batches of 50 seal chunks across appends; the sixth crosses
        // `page_entries` and cuts the whole tail into one page.
        for batch in entries.chunks(50) {
            ix.append(batch.to_vec()).unwrap();
            ix.publish();
        }
        assert_eq!(ix.page_count(), 1);
        assert_eq!(ix.staged_entries(), 0);
        let mut flat = entries.clone();
        flat.sort_by_key(|e| e.id);
        let (header, entry_bytes) = TxIndex::build_page(0, 0, &flat);
        let mut expect = Vec::new();
        write_page_to(&mut expect, &header, &entry_bytes).unwrap();
        assert_eq!(std::fs::read(partition_path(&dir, 0)).unwrap(), expect);
        for e in &entries {
            if e.id == entries[20].id {
                continue;
            }
            assert_eq!(
                reader.lookup(&e.id, u64::MAX).unwrap(),
                Some((e.block, e.pos))
            );
        }
        let dup = &entries[250];
        assert_eq!(
            reader.lookup(&dup.id, u64::MAX).unwrap(),
            Some((dup.block, dup.pos))
        );
        assert_eq!(reader.entries_by_kind(1, u64::MAX).unwrap(), entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_a_page_of_another_version() {
        let dir = temp_dir("version");
        std::fs::create_dir_all(&dir).unwrap();
        let (mut header, entry_bytes) = TxIndex::build_page(0, 0, &[entry(1, 1)]);
        header.version = 1;
        let mut file = Vec::new();
        write_page_to(&mut file, &header, &entry_bytes).unwrap();
        let path = partition_path(&dir, 0);
        std::fs::write(&path, &file).unwrap();
        let err = TxIndex::open(&dir, small_config()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("version 1") && msg.contains("version 2"),
            "{msg}"
        );
        // Refused, not truncated away as a torn tail.
        assert_eq!(std::fs::read(&path).unwrap(), file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_derives_partition_count_from_files() {
        let dir = temp_dir("derive");
        {
            let mut ix = TxIndex::open(
                &dir,
                TxIndexConfig {
                    partitions: 4,
                    ..small_config()
                },
            )
            .unwrap();
            ix.append((1..=20).map(|i| entry(i, 1)).collect()).unwrap();
            ix.sync().unwrap();
        }
        // Config says 8, disk says 4: disk wins (routing is layout-bound).
        let ix = TxIndex::open(
            &dir,
            TxIndexConfig {
                partitions: 8,
                ..small_config()
            },
        )
        .unwrap();
        assert_eq!(ix.partition_count(), 4);
        assert_eq!(ix.entries(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
