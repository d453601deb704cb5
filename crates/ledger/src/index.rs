//! Disk-backed transaction index: the durable tier of the canonical-chain
//! query path.
//!
//! PR 2 bounded resident *blocks*; this module bounds resident *index*
//! memory. Once a block finalizes, the chain flushes its index entries here
//! and drops them from the mutable in-memory index, so the in-memory tier
//! covers only the non-finalized suffix while full-history queries
//! (`tx_by_id`, `txs_by_author`, `txs_by_kind` — the provenance-audit access
//! pattern the SoK paper centers) are served from durable pages.
//!
//! Layout: entries are hash-partitioned by transaction id across `P`
//! append-only partition files (`idx-00.pages`, …), each a sequence of
//! [`blockprov_wire::index`] pages framed with the shared `wire::frame`
//! framing. Every page carries Bloom filters over its primary keys and
//! authors plus a kind bitmask, so point lookups and secondary scans skip
//! pages without decoding them; decoded pages are cached in the shared
//! [`crate::cache::LruCache`].
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
//! failing the open — contrast [`crate::segment::SegmentStore`], which fails
//! loudly because block data cannot be rebuilt. Appends are idempotent per
//! partition: entries at or below a partition's durable `last_height` are
//! dropped, so a chain replay after a crash re-derives exactly the missing
//! suffix.

use crate::block::BlockHash;
use crate::readview::{Published, ShardedCache};
use crate::tx::{AccountId, TxId};
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
    /// Author account (secondary key).
    pub author: AccountId,
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
        self.author.encode(w);
        w.put_u16(self.kind);
        self.block.encode(w);
        w.put_u64(self.height);
        w.put_u32(self.pos);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            id: TxId::decode(r)?,
            author: AccountId::decode(r)?,
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

/// One partition: durable pages plus the staged (not yet paged) tail.
///
/// The page directory is `Arc`-shared with published reader states;
/// [`Arc::make_mut`] gives the writer copy-on-write appends that clone the
/// directory at most once per publish cycle.
#[derive(Debug)]
struct Partition {
    pages: Arc<Vec<PageMeta>>,
    staged: Vec<IndexEntry>,
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
    partitions: Vec<TxPartView>,
}

/// One partition inside a published state.
#[derive(Debug)]
struct TxPartView {
    pages: Arc<Vec<PageMeta>>,
    staged: Vec<IndexEntry>,
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

impl TxIndexReader {
    /// Locate a finalized transaction by id at or below `max_height`:
    /// `(block, position)`. Latest occurrence wins, as in
    /// [`TxIndex::lookup`].
    pub fn lookup(&self, id: &TxId, max_height: u64) -> io::Result<Option<(BlockHash, u32)>> {
        let state = self.shared.state.load();
        let p = (route_hash(id.0.as_bytes()) % state.partitions.len() as u64) as usize;
        let part = &state.partitions[p];
        if let Some(e) = part
            .staged
            .iter()
            .rev()
            .find(|e| e.id == *id && e.height <= max_height)
        {
            return Ok(Some((e.block, e.pos)));
        }
        let (h1, h2) = bloom_hashes(id.0.as_bytes());
        for seq in (0..part.pages.len() as u32).rev() {
            let meta = &part.pages[seq as usize];
            if meta.header.first_height > max_height || !meta.header.key_bloom.contains(h1, h2) {
                continue;
            }
            let entries = read_index_page(&self.shared, p as u16, seq, meta)?;
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

    /// Collect matching entries at or below `max_height` across every
    /// partition, canonical `(height, pos)` order.
    fn collect(
        &self,
        page_may_match: impl Fn(&IndexPageHeader) -> bool,
        entry_matches: impl Fn(&IndexEntry) -> bool,
        max_height: u64,
    ) -> io::Result<Vec<IndexEntry>> {
        let state = self.shared.state.load();
        let mut found: Vec<IndexEntry> = Vec::new();
        for (p, part) in state.partitions.iter().enumerate() {
            for seq in 0..part.pages.len() as u32 {
                let meta = &part.pages[seq as usize];
                if meta.header.first_height > max_height || !page_may_match(&meta.header) {
                    continue;
                }
                let entries = read_index_page(&self.shared, p as u16, seq, meta)?;
                found.extend(
                    entries
                        .iter()
                        .filter(|e| e.height <= max_height && entry_matches(e)),
                );
            }
            found.extend(
                part.staged
                    .iter()
                    .filter(|e| e.height <= max_height && entry_matches(e)),
            );
        }
        found.sort_unstable_by_key(|e| (e.height, e.pos));
        Ok(found)
    }

    /// Finalized entries by author at or below `max_height`, oldest first.
    pub fn entries_by_author(
        &self,
        author: &AccountId,
        max_height: u64,
    ) -> io::Result<Vec<IndexEntry>> {
        let (h1, h2) = bloom_hashes(author.0.as_bytes());
        self.collect(
            |header| header.secondary_bloom.contains(h1, h2),
            |e| e.author == *author,
            max_height,
        )
    }

    /// Finalized entries with the given kind tag at or below `max_height`,
    /// oldest first.
    pub fn entries_by_kind(&self, kind: u16, max_height: u64) -> io::Result<Vec<IndexEntry>> {
        let bit = 1u64 << (kind % 64);
        self.collect(
            |header| header.tag_mask & bit != 0,
            |e| e.kind == kind,
            max_height,
        )
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
        assert!(config.partitions > 0, "TxIndex needs at least one partition");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut ids: Vec<u16> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            // Older builds could rewrite a partition through a temp file;
            // one left behind by a crash is garbage beside intact pages.
            if name.ends_with(".pages.tmp") {
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if let Some(num) = name.strip_prefix("idx-").and_then(|s| s.strip_suffix(".pages")) {
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
                    pages: Arc::new(Vec::new()),
                    staged: Vec::new(),
                    file_len: 0,
                    last_height: 0,
                }
            };
            entries += part
                .pages
                .iter()
                .map(|m| u64::from(m.header.entry_count))
                .sum::<u64>();
            bytes += part.file_len;
            writers.push(BufWriter::new(
                OpenOptions::new().append(true).open(&path)?,
            ));
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
    /// Costs one clone of each partition's staged tail (bounded by
    /// `page_entries`) plus `Arc` bumps for the page directories; the
    /// caller gates it on readers existing.
    pub fn publish(&self) {
        let partitions = self
            .partitions
            .iter()
            .map(|part| TxPartView {
                pages: Arc::clone(&part.pages),
                staged: part.staged.clone(),
            })
            .collect();
        self.shared.state.store(Arc::new(TxIndexState { partitions }));
    }

    /// A cloneable read handle over the last published state.
    pub fn reader(&self) -> TxIndexReader {
        TxIndexReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Scan one partition file's page headers, truncating a torn tail.
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
            pages: Arc::new(pages),
            staged: Vec::new(),
            file_len: pos,
            last_height,
        })
    }

    /// Route a transaction id to its partition.
    fn route(&self, id: &TxId) -> u16 {
        (route_hash(id.0.as_bytes()) % self.partitions.len() as u64) as u16
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
            let p = self.route(&e.id) as usize;
            let part = &mut self.partitions[p];
            if e.height <= part.last_height {
                continue; // already durable (crash-replay overlap)
            }
            part.staged.push(e);
            accepted += 1;
        }
        self.entries += accepted;
        for p in 0..self.partitions.len() {
            if self.partitions[p].staged.len() >= self.config.page_entries {
                self.cut_page(p)?;
            }
        }
        Ok(accepted)
    }

    /// Force every staged entry into durable pages (checkpoint/shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        for p in 0..self.partitions.len() {
            if !self.partitions[p].staged.is_empty() {
                self.cut_page(p)?;
            }
        }
        self.publish();
        Ok(())
    }

    /// Build a page header plus encoded entry bytes for `entries`, which
    /// must already be sorted by id (the binary-search invariant).
    fn build_page(partition: u16, sequence: u32, entries: &[IndexEntry]) -> (IndexPageHeader, Vec<u8>) {
        let mut key_bloom = BloomFilter::with_capacity(entries.len());
        let mut authors: Vec<AccountId> = entries.iter().map(|e| e.author).collect();
        authors.sort_unstable();
        authors.dedup();
        let mut secondary_bloom = BloomFilter::with_capacity(authors.len());
        for a in &authors {
            let (h1, h2) = bloom_hashes(a.0.as_bytes());
            secondary_bloom.insert(h1, h2);
        }
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
            secondary_bloom,
            tag_mask,
        };
        (header, entry_bytes.into_bytes())
    }

    /// Cut the staged tail of partition `p` into one durable page.
    fn cut_page(&mut self, p: usize) -> io::Result<()> {
        let part = &mut self.partitions[p];
        let mut staged = std::mem::take(&mut part.staged);
        // Pages are sorted by id so point lookups binary-search; canonical
        // order is recovered from (height, pos) at query time.
        staged.sort_by_key(|e| e.id);
        let (header, entry_bytes) = Self::build_page(p as u16, part.pages.len() as u32, &staged);
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
        Arc::make_mut(&mut part.pages).push(meta);
        Ok(())
    }

    /// Durable per-partition height watermarks (crash-recovery probes).
    pub fn partition_watermarks(&self) -> Vec<u64> {
        self.partitions.iter().map(|p| p.last_height).collect()
    }

    /// Load (or fetch from cache) the decoded entries of one page.
    fn page_entries(&self, p: u16, seq: u32) -> io::Result<Arc<Vec<IndexEntry>>> {
        let meta = &self.partitions[p as usize].pages[seq as usize];
        read_index_page(&self.shared, p, seq, meta)
    }

    /// Locate a finalized transaction by id: `(block, position)`.
    ///
    /// When the same id was sealed into several finalized blocks, the
    /// latest canonical occurrence wins (matching the in-memory index,
    /// where later absorbs overwrite `tx_loc`).
    pub fn lookup(&self, id: &TxId) -> io::Result<Option<(BlockHash, u32)>> {
        let p = self.route(id);
        let part = &self.partitions[p as usize];
        // Staged tail first: strictly newer than any durable page.
        if let Some(e) = part.staged.iter().rev().find(|e| e.id == *id) {
            return Ok(Some((e.block, e.pos)));
        }
        let (h1, h2) = bloom_hashes(id.0.as_bytes());
        for seq in (0..part.pages.len() as u32).rev() {
            let meta = &part.pages[seq as usize];
            if !meta.header.key_bloom.contains(h1, h2) {
                continue;
            }
            let entries = self.page_entries(p, seq)?;
            let start = entries.partition_point(|e| e.id < *id);
            let hit = entries[start..]
                .iter()
                .take_while(|e| e.id == *id)
                .max_by_key(|e| (e.height, e.pos));
            if let Some(e) = hit {
                return Ok(Some((e.block, e.pos)));
            }
        }
        Ok(None)
    }

    /// Collect matching entries across every partition, canonical
    /// `(height, pos)` order.
    fn collect<F: Fn(&IndexEntry) -> bool, G: Fn(&IndexPageHeader) -> bool>(
        &self,
        page_may_match: G,
        entry_matches: F,
    ) -> io::Result<Vec<IndexEntry>> {
        let mut found: Vec<IndexEntry> = Vec::new();
        for p in 0..self.partitions.len() as u16 {
            let part = &self.partitions[p as usize];
            for seq in 0..part.pages.len() as u32 {
                if !page_may_match(&part.pages[seq as usize].header) {
                    continue;
                }
                let entries = self.page_entries(p, seq)?;
                found.extend(entries.iter().filter(|e| entry_matches(e)));
            }
            found.extend(part.staged.iter().filter(|e| entry_matches(e)));
        }
        found.sort_unstable_by_key(|e| (e.height, e.pos));
        Ok(found)
    }

    /// Finalized transaction ids by author, oldest first.
    pub fn txs_by_author(&self, author: &AccountId) -> io::Result<Vec<TxId>> {
        Ok(self
            .entries_by_author(author)?
            .into_iter()
            .map(|e| e.id)
            .collect())
    }

    /// Finalized entries by author, oldest first, with their locations.
    pub fn entries_by_author(&self, author: &AccountId) -> io::Result<Vec<IndexEntry>> {
        let (h1, h2) = bloom_hashes(author.0.as_bytes());
        self.collect(
            |header| header.secondary_bloom.contains(h1, h2),
            |e| e.author == *author,
        )
    }

    /// Finalized transaction ids with the given kind tag, oldest first.
    pub fn txs_by_kind(&self, kind: u16) -> io::Result<Vec<TxId>> {
        Ok(self
            .entries_by_kind(kind)?
            .into_iter()
            .map(|e| e.id)
            .collect())
    }

    /// Finalized entries with the given kind tag, oldest first, with their
    /// locations — full-history scans (e.g. provenance rehydration) use
    /// this to avoid a per-id point lookup after the pages were already
    /// decoded once.
    pub fn entries_by_kind(&self, kind: u16) -> io::Result<Vec<IndexEntry>> {
        let bit = 1u64 << (kind % 64);
        self.collect(|header| header.tag_mask & bit != 0, |e| e.kind == kind)
    }

    /// Total entries held (durable pages + staged tail).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Entries staged in memory, not yet cut into a durable page.
    pub fn staged_entries(&self) -> usize {
        self.partitions.iter().map(|p| p.staged.len()).sum()
    }

    /// Total durable pages across all partitions.
    pub fn page_count(&self) -> usize {
        self.partitions.iter().map(|p| p.pages.len()).sum()
    }

    /// Number of hash partitions.
    pub fn partition_count(&self) -> u16 {
        self.partitions.len() as u16
    }

    /// Bytes across all partition files.
    pub fn stored_bytes(&self) -> u64 {
        self.bytes
    }

    /// Largest height covered by any durable page (diagnostic; the
    /// idempotence guard is per-partition).
    pub fn flushed_height(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.last_height)
            .max()
            .unwrap_or(0)
    }

    /// `(page cache hits, misses)`, across the writer and every reader.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.shared.hits.load(Ordering::Relaxed),
            self.shared.misses.load(Ordering::Relaxed),
        )
    }

    /// The index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
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

    fn entry(i: u64, author: &str, kind: u16) -> IndexEntry {
        IndexEntry {
            id: TxId(sha256(format!("tx-{i}").as_bytes())),
            author: AccountId::from_name(author),
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

    fn small_config() -> TxIndexConfig {
        TxIndexConfig {
            partitions: 4,
            page_entries: 8,
            cached_pages: 4,
            ..TxIndexConfig::default()
        }
    }

    #[test]
    fn entry_codec_round_trip() {
        let e = entry(42, "alice", 7);
        assert_eq!(IndexEntry::from_wire(&e.to_wire()).unwrap(), e);
    }

    #[test]
    fn lookup_and_secondary_queries_across_pages() {
        let dir = temp_dir("basic");
        let mut ix = TxIndex::open(&dir, small_config()).unwrap();
        let entries: Vec<IndexEntry> = (1..=100)
            .map(|i| entry(i, if i % 2 == 0 { "alice" } else { "bob" }, (i % 3) as u16))
            .collect();
        ix.append(entries.clone()).unwrap();
        assert_eq!(ix.entries(), 100);
        assert!(ix.page_count() > 0, "pages must have been cut");
        for e in &entries {
            assert_eq!(ix.lookup(&e.id).unwrap(), Some((e.block, e.pos)));
        }
        assert_eq!(
            ix.lookup(&TxId(sha256(b"missing"))).unwrap(),
            None
        );
        let alice = ix.txs_by_author(&AccountId::from_name("alice")).unwrap();
        assert_eq!(alice.len(), 50);
        // Canonical (height) order.
        let expect: Vec<TxId> = entries
            .iter()
            .filter(|e| e.author == AccountId::from_name("alice"))
            .map(|e| e.id)
            .collect();
        assert_eq!(alice, expect);
        let kind0 = ix.txs_by_kind(0).unwrap();
        assert_eq!(kind0.len(), entries.iter().filter(|e| e.kind == 0).count());
        assert!(ix.txs_by_kind(9).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rebuilds_page_directory() {
        let dir = temp_dir("reopen");
        let entries: Vec<IndexEntry> = (1..=60).map(|i| entry(i, "a", 1)).collect();
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append(entries.clone()).unwrap();
            ix.sync().unwrap();
        }
        let ix = TxIndex::open(&dir, small_config()).unwrap();
        assert_eq!(ix.entries(), 60);
        for e in &entries {
            assert_eq!(ix.lookup(&e.id).unwrap(), Some((e.block, e.pos)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_tail_is_queryable_and_flushed_on_drop() {
        let dir = temp_dir("staged");
        let e = entry(5, "a", 2);
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append(vec![e]).unwrap();
            assert_eq!(ix.staged_entries(), 1);
            assert_eq!(ix.page_count(), 0);
            // Visible before any page exists.
            assert_eq!(ix.lookup(&e.id).unwrap(), Some((e.block, e.pos)));
            assert_eq!(ix.txs_by_author(&e.author).unwrap(), vec![e.id]);
        }
        // Drop synced the staged tail.
        let ix = TxIndex::open(&dir, small_config()).unwrap();
        assert_eq!(ix.lookup(&e.id).unwrap(), Some((e.block, e.pos)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_is_idempotent_per_partition_height() {
        let dir = temp_dir("idem");
        let entries: Vec<IndexEntry> = (1..=40).map(|i| entry(i, "a", 1)).collect();
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
        assert_eq!(
            ix.txs_by_author(&AccountId::from_name("a")).unwrap().len(),
            40
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_id_resolves_to_latest_height() {
        let dir = temp_dir("dup");
        let mut ix = TxIndex::open(&dir, small_config()).unwrap();
        let mut e1 = entry(1, "a", 1);
        let mut e2 = entry(2, "a", 1);
        e2.id = e1.id; // same tx id sealed twice
        e1.pos = 0;
        e2.pos = 3;
        ix.append(vec![e1, e2]).unwrap();
        ix.sync().unwrap();
        assert_eq!(ix.lookup(&e1.id).unwrap(), Some((e2.block, e2.pos)));
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
            ..TxIndexConfig::default()
        };
        let batch_a: Vec<IndexEntry> = (1..=5).map(|i| entry(i, "a", 1)).collect();
        let batch_b: Vec<IndexEntry> = (0..6)
            .map(|j| {
                let mut e = entry(100 + j, "a", 1);
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
                ix.lookup(&e.id).unwrap(),
                Some((e.block, e.pos)),
                "entry at height {} lost across crash-replay",
                e.height
            );
        }
        assert_eq!(
            ix.txs_by_author(&AccountId::from_name("a")).unwrap().len(),
            11,
            "no duplicates and no losses after replay"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_page_truncated_on_reopen() {
        let dir = temp_dir("torn");
        let entries: Vec<IndexEntry> = (1..=40).map(|i| entry(i, "a", 1)).collect();
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
            assert_eq!(ix.lookup(&e.id).unwrap(), Some((e.block, e.pos)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_partition_file_fails_open() {
        let dir = temp_dir("gap");
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append((1..=10).map(|i| entry(i, "a", 1)).collect())
                .unwrap();
            ix.sync().unwrap();
        }
        std::fs::remove_file(partition_path(&dir, 1)).unwrap();
        assert!(TxIndex::open(&dir, small_config()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_merge_temp_file_is_ignored_on_reopen() {
        let dir = temp_dir("merge-crash");
        let entries: Vec<IndexEntry> = (1..=40).map(|i| entry(i, "a", 1)).collect();
        {
            let mut ix = TxIndex::open(&dir, small_config()).unwrap();
            ix.append(entries.clone()).unwrap();
            ix.sync().unwrap();
        }
        // A temp file left by an older build (which could rewrite a
        // partition through one) sits next to the intact originals.
        std::fs::write(dir.join("idx-00.pages.tmp"), b"half-written rewrite").unwrap();
        let ix = TxIndex::open(&dir, small_config()).unwrap();
        assert!(!dir.join("idx-00.pages.tmp").exists(), "stray temp removed");
        for e in &entries {
            assert_eq!(ix.lookup(&e.id).unwrap(), Some((e.block, e.pos)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_respects_publish_points_and_height_ceiling() {
        let dir = temp_dir("reader");
        let mut ix = TxIndex::open(&dir, small_config()).unwrap();
        let reader = ix.reader();
        let entries: Vec<IndexEntry> = (1..=40).map(|i| entry(i, "a", 1)).collect();
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
        assert_eq!(
            reader
                .entries_by_author(&AccountId::from_name("a"), 10)
                .unwrap()
                .len(),
            10
        );
        assert_eq!(reader.entries_by_kind(1, 25).unwrap().len(), 25);
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
            ix.append((1..=20).map(|i| entry(i, "a", 1)).collect())
                .unwrap();
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
