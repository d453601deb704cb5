//! Crash-window acceptance: every durable tier reopens consistently from
//! the states a crash can actually leave behind.
//!
//! The windows simulated here:
//! * a crash on *either side* of `SegmentStore::compact`'s single MANIFEST
//!   commit — before it the packed segments are unlisted strays (GC'd, old
//!   data replays), after it the superseded segments are the strays;
//! * a crash between the MANIFEST temp write and its rename (stray
//!   `MANIFEST.tmp` beside a live MANIFEST);
//! * a stale MANIFEST beside newer orphan segments (must GC them, not
//!   replay them) and a corrupt MANIFEST (loud fallback to a full scan);
//! * a torn `HeightMap` tail and a lost staged metadata tail (the snapshot
//!   is ahead of the durable map — healed by walking parent pointers);
//! * a corrupt snapshot (ignored; blocks stay authoritative) versus a
//!   *valid* snapshot that contradicts the store (fails loudly);
//! * a metadata directory written before the nonce floors moved into the
//!   snapshot (version-2 snapshot beside `floor-NN.pages`: one full replay,
//!   the page files removed);
//! * a crash after an author's whole history finalized, with nonces
//!   enforced: the snapshot's floors are the only record of what that
//!   author may send next.

use blockprov_ledger::block::{Block, BlockHash};
use blockprov_ledger::chain::{Chain, ChainConfig, ValidationError};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, SegmentStore, TieredConfig, TieredStore};
use blockprov_ledger::store::BlockStore;
use blockprov_ledger::tx::{AccountId, Transaction};
use std::io::Write;
use std::path::{Path, PathBuf};

fn tx(author: &str, nonce: u64) -> Transaction {
    Transaction::new(
        AccountId::from_name(author),
        nonce,
        1_000 + nonce,
        1,
        vec![0xAB; 32],
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-crashwin-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn tiered(dir: &Path) -> Box<dyn BlockStore> {
    Box::new(
        TieredStore::open(
            dir,
            TieredConfig {
                segment: SegmentConfig { segment_bytes: 512 },
                hot_capacity: 8,
            },
        )
        .unwrap(),
    )
}

fn small_index(dir: &Path) -> TxIndex {
    TxIndex::open(
        dir,
        TxIndexConfig {
            partitions: 2,
            page_entries: 4,
            cached_pages: 4,
            ..TxIndexConfig::default()
        },
    )
    .unwrap()
}

fn small_meta(dir: &Path) -> MetaStore {
    MetaStore::open(
        dir,
        MetaConfig {
            page_heights: 4,
            cached_pages: 2,
            index_sync_interval: 8,
            // Snapshot every advance: these tests specifically exercise
            // the snapshot-ahead-of-durable-tail crash windows.
            snapshot_interval: 1,
        },
    )
    .unwrap()
}

/// Grow a finality chain with a stale fork beside every canonical block.
fn build_forky_segments(dir: &Path) -> (BlockHash, u64) {
    let config = ChainConfig {
        finality_depth: Some(2),
        ..ChainConfig::default()
    };
    let mut chain = Chain::with_store(tiered(dir), config);
    for i in 0..20u64 {
        let parent = chain.tip();
        let height = chain.height() + 1;
        let ts = chain.tip_header().timestamp_ms + 10;
        let canon = chain.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("a", i)]);
        chain.append(canon).unwrap();
        let rival = Block::assemble(
            height,
            parent,
            ts,
            AccountId::from_name("rival"),
            0,
            vec![tx("rival", i)],
        );
        chain.append(rival).unwrap();
    }
    (chain.tip(), chain.height())
}

/// File names present in `dir`.
fn names_in(dir: &Path) -> std::collections::BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn crash_around_compaction_manifest_commit_reopens_consistently() {
    let dir = temp_dir("compact-epoch");
    let (tip, height) = build_forky_segments(&dir);

    // `full` is the completed post-compaction state. A compaction's only
    // commit point is one atomic MANIFEST replace: everything before it is
    // unlisted packed segments, everything after it is unlisted superseded
    // segments. Reconstruct both sides of that window from the before/after
    // directory listings.
    let full = temp_dir("compact-epoch-full");
    copy_dir(&dir, &full);
    let full_stats = {
        let config = ChainConfig {
            finality_depth: Some(2),
            ..ChainConfig::default()
        };
        let mut chain = Chain::replay(tiered(&full), config).unwrap();
        chain.compact().unwrap()
    };
    assert!(full_stats.segments_rewritten >= 2, "need a multi-segment rewrite");
    let before = names_in(&dir);
    let after = names_in(&full);
    let packed: Vec<_> = after.difference(&before).cloned().collect();
    let superseded: Vec<_> = before.difference(&after).cloned().collect();
    assert!(!packed.is_empty(), "compaction writes packed segments at fresh ids");
    assert!(!superseded.is_empty(), "compaction unlinks the rewritten segments");

    // Window A: died after writing the packed segments, before the MANIFEST
    // commit. Old MANIFEST is live; the packed files are strays.
    let crash_a = temp_dir("compact-epoch-a");
    copy_dir(&dir, &crash_a);
    for name in &packed {
        std::fs::copy(full.join(name), crash_a.join(name)).unwrap();
    }
    {
        let config = ChainConfig {
            finality_depth: Some(2),
            ..ChainConfig::default()
        };
        let mut chain = Chain::replay(tiered(&crash_a), config).unwrap();
        for name in &packed {
            assert!(!crash_a.join(name).exists(), "stray packed segment {name} must be GC'd");
        }
        assert_eq!(chain.tip(), tip);
        assert_eq!(chain.height(), height);
        chain.verify_integrity().unwrap();
        assert!(chain.index_consistent());
        // Nothing was lost, so re-running the compaction still reclaims.
        let second = chain.compact().unwrap();
        assert!(second.blocks_dropped > 0, "stale forks still present pre-commit");
        chain.verify_integrity().unwrap();
    }

    // Window B: died after the MANIFEST commit, before unlinking the
    // superseded segments. New MANIFEST is live; the old files are strays.
    let crash_b = temp_dir("compact-epoch-b");
    copy_dir(&dir, &crash_b);
    copy_dir(&full, &crash_b); // new MANIFEST + packed files atop the old set
    {
        let config = ChainConfig {
            finality_depth: Some(2),
            ..ChainConfig::default()
        };
        let mut chain = Chain::replay(tiered(&crash_b), config).unwrap();
        for name in &superseded {
            assert!(!crash_b.join(name).exists(), "superseded segment {name} must be GC'd");
        }
        assert_eq!(chain.tip(), tip);
        assert_eq!(chain.height(), height);
        chain.verify_integrity().unwrap();
        assert!(chain.index_consistent());
        // The compaction DID commit: a second pass finds nothing to drop.
        let second = chain.compact().unwrap();
        assert_eq!(second.blocks_dropped, 0, "post-commit state is already compact");
    }

    for d in [&dir, &full, &crash_a, &crash_b] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn stray_manifest_tmp_removed_on_reopen() {
    let dir = temp_dir("manifest-tmp");
    let (tip, height) = build_forky_segments(&dir);
    // A crash between the MANIFEST temp write and its rename leaves a tmp
    // beside the still-live old MANIFEST.
    std::fs::write(dir.join("MANIFEST.tmp"), b"half-written manifest").unwrap();
    let config = ChainConfig {
        finality_depth: Some(2),
        ..ChainConfig::default()
    };
    let chain = Chain::replay(tiered(&dir), config).unwrap();
    assert!(!dir.join("MANIFEST.tmp").exists(), "stray tmp must be removed");
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), height);
    chain.verify_integrity().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_manifest_garbage_collects_orphan_segments() {
    let dir = temp_dir("manifest-stale");
    build_forky_segments(&dir);
    let stale = std::fs::read(dir.join("MANIFEST")).unwrap();
    let before = names_in(&dir);
    let stale_store = SegmentStore::open(&dir, SegmentConfig { segment_bytes: 512 }).unwrap();
    let stale_tip_hash = {
        let mut newest = None;
        let mut best = 0u64;
        stale_store.scan_headers(&mut |h, hash| {
            if h >= best {
                best = h;
                newest = Some(hash);
            }
        }).unwrap();
        newest.unwrap()
    };
    drop(stale_store);

    // Grow the chain past several rollovers, then put the stale MANIFEST
    // back: the newer segments become orphans no manifest ever listed.
    let (_, _) = {
        let config = ChainConfig {
            finality_depth: Some(2),
            ..ChainConfig::default()
        };
        let mut chain = Chain::replay(tiered(&dir), config).unwrap();
        for i in 20..40u64 {
            let ts = chain.tip_header().timestamp_ms + 10;
            let block = chain.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("a", i)]);
            chain.append(block).unwrap();
        }
        (chain.tip(), chain.height())
    };
    let after = names_in(&dir);
    let orphans: Vec<_> = after.difference(&before).cloned().collect();
    assert!(!orphans.is_empty(), "growth must have rolled new segments");
    std::fs::write(dir.join("MANIFEST"), &stale).unwrap();

    // Open must trust the manifest: orphans are GC'd, not replayed.
    let store = SegmentStore::open(&dir, SegmentConfig { segment_bytes: 512 }).unwrap();
    for name in &orphans {
        assert!(!dir.join(name).exists(), "orphan segment {name} must be GC'd");
    }
    assert!(
        store.get(&stale_tip_hash).is_some(),
        "blocks the stale manifest covers still resolve"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_manifest_falls_back_to_full_scan() {
    let dir = temp_dir("manifest-corrupt");
    let (tip, height) = build_forky_segments(&dir);
    std::fs::write(dir.join("MANIFEST"), b"\xDE\xAD\xBE\xEFnot a manifest").unwrap();
    // Fallback is a full directory scan: every block is recovered and a
    // fresh manifest is committed so the NEXT open is manifest-driven again.
    let config = ChainConfig {
        finality_depth: Some(2),
        ..ChainConfig::default()
    };
    let chain = Chain::replay(tiered(&dir), config).unwrap();
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), height);
    chain.verify_integrity().unwrap();
    drop(chain);
    let store = SegmentStore::open(&dir, SegmentConfig { segment_bytes: 512 }).unwrap();
    assert_eq!(store.epoch(), 1, "scan fallback recommits from epoch 1");
    assert_eq!(
        store.unindexed_segments(),
        store.segment_count() as usize,
        "manifest-driven reopen defers sealed segments and the active committed prefix"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Build a three-tier chain, returning (tip, height, expected alice nonce).
fn build_tiered_chain(dir: &Path, blocks: u64, sync: bool) -> (BlockHash, u64, u64) {
    let config = ChainConfig {
        finality_depth: Some(3),
        ..ChainConfig::default()
    };
    let mut chain = Chain::with_tiers(
        tiered(&dir.join("blocks")),
        Some(small_index(&dir.join("txindex"))),
        small_meta(&dir.join("meta")),
        config,
    );
    for i in 0..blocks {
        let ts = chain.tip_header().timestamp_ms + 10;
        let block = chain.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("alice", i)]);
        chain.append(block).unwrap();
    }
    let out = (chain.tip(), chain.height(), blocks);
    if sync {
        chain.sync_meta().unwrap();
    } else {
        // Hard crash: Drop never runs, staged height-map and index tails
        // are lost, only what was already flushed survives.
        std::mem::forget(chain);
    }
    out
}

fn reopen(dir: &Path) -> std::io::Result<Chain> {
    let config = ChainConfig {
        finality_depth: Some(3),
        ..ChainConfig::default()
    };
    Chain::replay_with_tiers(
        tiered(&dir.join("blocks")),
        Some(small_index(&dir.join("txindex"))),
        small_meta(&dir.join("meta")),
        config,
    )
}

#[test]
fn torn_height_map_tail_self_heals_on_reopen() {
    let dir = temp_dir("torn-heightmap");
    let (tip, height, nonce) = build_tiered_chain(&dir, 24, true);
    // Tear the height map's tail: garbage the chain never wrote.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("meta").join("height.map"))
            .unwrap();
        f.write_all(&(5_000u32).to_le_bytes()).unwrap();
        f.write_all(b"torn height page").unwrap();
    }
    let chain = reopen(&dir).unwrap();
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), height);
    assert_eq!(chain.next_nonce_for(&AccountId::from_name("alice")), nonce);
    chain.verify_integrity().unwrap();
    assert!(chain.index_consistent());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lost_staged_tails_heal_from_blocks_on_reopen() {
    // A hard crash loses the staged height-map tail and staged index
    // entries; the snapshot may reference heights the durable files no
    // longer cover. Reopen must walk parent pointers / re-derive entries
    // from blocks — and re-absorb nothing beyond that.
    let dir = temp_dir("lost-staged");
    let (tip, height, nonce) = build_tiered_chain(&dir, 23, false);
    let chain = reopen(&dir).unwrap();
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), height);
    assert_eq!(chain.next_nonce_for(&AccountId::from_name("alice")), nonce);
    for h in 0..=height {
        assert!(chain.hash_at(h).is_some(), "height {h} resolves after heal");
    }
    chain.verify_integrity().unwrap();
    assert!(chain.index_consistent(), "healed index serves every query");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_snapshot_falls_back_to_full_replay() {
    let dir = temp_dir("corrupt-snap");
    let (tip, height, _) = build_tiered_chain(&dir, 16, true);
    std::fs::write(dir.join("meta").join("snapshot.ckpt"), b"\x20\x00\x00\x00nonsense").unwrap();
    let chain = reopen(&dir).unwrap();
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), height);
    // Full replay re-absorbed everything (blocks are authoritative)…
    assert!(chain.appended_blocks() >= height - 1);
    assert!(chain.index_consistent());
    drop(chain);
    // …and rewrote the snapshot, so the NEXT open fast-starts again.
    let chain = reopen(&dir).unwrap();
    assert_eq!(chain.tip(), tip);
    assert!(chain.appended_blocks() <= 4, "snapshot restored: O(suffix) start");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Assemble a valid linear stream against a scratch in-memory chain, so it
/// can be fed to a tiered chain through `append_batch`.
fn linear_stream(config: &ChainConfig, range: std::ops::Range<u64>, base_ts: u64) -> Vec<Block> {
    let mut scratch = Chain::new(config.clone());
    let mut stream = Vec::new();
    for i in 0..range.end {
        let ts = scratch.tip_header().timestamp_ms.max(base_ts) + 10;
        let block = scratch.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("alice", i)]);
        scratch.append(block.clone()).unwrap();
        if i >= range.start {
            stream.push(block);
        }
    }
    stream
}

#[test]
fn group_flush_window_blocks_ahead_of_tiers_heals_on_reopen() {
    // The group-commit flush order is: block segments first, then the
    // TxIndex spill, height map and snapshot. A crash in
    // that window leaves the block store one batch AHEAD of every derived
    // tier. Reconstruct exactly that state by pairing a newer `blocks`
    // directory with the previous batch's tier directories.
    let config = ChainConfig {
        finality_depth: Some(3),
        ..ChainConfig::default()
    };
    let stream = linear_stream(&config, 0..32, 0);
    let dir = temp_dir("group-flush-window");

    // Consistent state after three full batches (24 blocks).
    {
        let mut chain = Chain::with_tiers(
            tiered(&dir.join("blocks")),
            Some(small_index(&dir.join("txindex"))),
            small_meta(&dir.join("meta")),
            config.clone(),
        );
        for batch in stream[..24].chunks(8) {
            chain.append_batch(batch.to_vec()).unwrap();
        }
        chain.sync_meta().unwrap();
    }
    let crash = temp_dir("group-flush-window-crash");
    copy_dir(&dir, &crash);

    // One more group-committed batch, fully synced.
    let (tip, height, nonce) = {
        let mut chain = reopen(&dir).unwrap();
        chain.append_batch(stream[24..].to_vec()).unwrap();
        chain.sync_meta().unwrap();
        (
            chain.tip(),
            chain.height(),
            chain.next_nonce_for(&AccountId::from_name("alice")),
        )
    };

    // Transplant only the newer block segments: blocks durable through
    // batch four, index/meta still at batch three.
    std::fs::remove_dir_all(crash.join("blocks")).unwrap();
    copy_dir(&dir.join("blocks"), &crash.join("blocks"));

    // Replay must heal exactly the missing tail from the blocks.
    let chain = reopen(&crash).unwrap();
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), height);
    assert_eq!(chain.next_nonce_for(&AccountId::from_name("alice")), nonce);
    for h in 0..=height {
        assert!(chain.hash_at(h).is_some(), "height {h} resolves after heal");
    }
    chain.verify_integrity().unwrap();
    assert!(chain.index_consistent(), "healed tiers serve every query");
    for d in [&dir, &crash] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn mid_batch_error_flushes_committed_prefix_before_returning() {
    // `append_batch` hit an invalid block mid-batch: the committed prefix
    // must be group-flushed BEFORE the error returns, so a hard crash right
    // after the error loses nothing the caller was told had committed.
    let config = ChainConfig {
        finality_depth: Some(3),
        ..ChainConfig::default()
    };
    let stream = linear_stream(&config, 0..10, 0);
    let dir = temp_dir("mid-batch-error");

    let mut batch = stream.clone();
    // Replace index 6 with an equal-parent sibling whose height skips ahead:
    // rejected as BadHeight (not an allowlisted skip), stopping the batch
    // with blocks 0..=5 staged and 7..9 never reached.
    let parent = &stream[5];
    batch[6] = Block::assemble(
        parent.header.height + 3,
        parent.hash(),
        parent.header.timestamp_ms + 10,
        AccountId::from_name("sealer"),
        0,
        vec![tx("alice", 6)],
    );

    let (prefix_tip, prefix_height) = {
        let mut chain = Chain::with_tiers(
            tiered(&dir.join("blocks")),
            Some(small_index(&dir.join("txindex"))),
            small_meta(&dir.join("meta")),
            config.clone(),
        );
        let err = chain.append_batch(batch).unwrap_err();
        assert_eq!(err.index, 6, "batch stops at the invalid block");
        assert_eq!(err.committed.len(), 6, "prefix/outcome mismatch");
        assert!(
            matches!(err.error, ValidationError::BadHeight { .. }),
            "unexpected error: {}",
            err.error
        );
        let out = (chain.tip(), chain.height());
        // Hard crash immediately after the error: Drop never runs. The
        // prefix flush already happened inside `append_batch`.
        std::mem::forget(chain);
        out
    };
    assert_eq!(prefix_tip, stream[5].hash());

    // Reopen: state is exactly the committed prefix — nothing staged after
    // block 5 survives, nothing before it is missing.
    let mut chain = reopen(&dir).unwrap();
    assert_eq!(chain.tip(), prefix_tip);
    assert_eq!(chain.height(), prefix_height);
    assert_eq!(chain.next_nonce_for(&AccountId::from_name("alice")), 6);
    chain.verify_integrity().unwrap();
    assert!(chain.index_consistent());

    // The corrected suffix lands cleanly on the healed prefix.
    chain.append_batch(stream[6..].to_vec()).unwrap();
    assert_eq!(chain.tip(), stream[9].hash());
    chain.verify_integrity().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_contradicting_the_store_fails_loudly() {
    let dir = temp_dir("mismatch");
    build_tiered_chain(&dir, 16, true);
    // A *valid* snapshot from a different history: pair this chain's
    // metadata directory with a fresh, empty block store.
    let err = match Chain::replay_with_tiers(
        tiered(&dir.join("other-blocks")),
        Some(small_index(&dir.join("other-txindex"))),
        small_meta(&dir.join("meta")),
        ChainConfig {
            finality_depth: Some(3),
            ..ChainConfig::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("snapshot/store mismatch must fail the open"),
    };
    assert!(
        err.to_string().contains("missing from the block store"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pre_v3_meta_directory_replays_once_and_sheds_its_floor_pages() {
    let config = ChainConfig {
        finality_depth: Some(3),
        ..ChainConfig::default()
    };
    let stream = linear_stream(&config, 0..24, 0);
    let mut oracle = Chain::new(config.clone());
    for block in &stream {
        oracle.append(block.clone()).unwrap();
    }
    let dir = temp_dir("pre-v3-meta");
    {
        let mut chain = Chain::with_tiers(
            tiered(&dir.join("blocks")),
            Some(small_index(&dir.join("txindex"))),
            small_meta(&dir.join("meta")),
            config,
        );
        chain.append_batch(stream).unwrap();
        chain.sync_meta().unwrap();
    }
    // Dress `meta/` the way the floor-store era left it: one page file per
    // partition, a half-finished merge, and a version-2 snapshot of the
    // same checkpoint (floor-store watermarks where the floors now sit).
    let meta = dir.join("meta");
    for p in 0..4 {
        std::fs::write(meta.join(format!("floor-{p:02}.pages")), b"").unwrap();
    }
    std::fs::write(meta.join("floor-01.pages.tmp"), b"half merge").unwrap();
    let fin = oracle.finalized_height();
    let mut w = blockprov_wire::Writer::new();
    w.put_raw(&blockprov_wire::meta::SNAPSHOT_MAGIC);
    w.put_u16(2);
    w.put_u64(fin);
    w.put_raw(oracle.hash_at(fin).unwrap().0.as_bytes());
    blockprov_wire::encode_seq(&[fin, fin], &mut w); // index_watermarks
    w.put_u64(fin); // index_durable_height
    blockprov_wire::encode_seq(&[fin; 4], &mut w); // v2: floor-store partition watermarks
    w.put_u64(fin); // v2: floor-store durable height
    w.put_u64(fin + 1); // height_map_len
    let mut blob = Vec::new();
    blockprov_wire::frame::write_frame_to(&mut blob, &w.into_bytes()).unwrap();
    std::fs::write(meta.join("snapshot.ckpt"), blob).unwrap();

    let alice = AccountId::from_name("alice");
    let chain = reopen(&dir).unwrap();
    assert!(
        names_in(&meta).iter().all(|n| !n.starts_with("floor-")),
        "floor pages left behind: {:?}",
        names_in(&meta)
    );
    assert!(
        chain.appended_blocks() >= oracle.height() - 1,
        "an undecodable snapshot means a full replay"
    );
    assert_eq!(chain.tip(), oracle.tip());
    for h in 0..=oracle.height() + 1 {
        assert_eq!(chain.hash_at(h), oracle.hash_at(h), "height {h}");
    }
    assert_eq!(chain.next_nonce_for(&alice), oracle.next_nonce_for(&alice));
    assert!(chain.index_consistent());
    drop(chain);
    // The replay wrote a current snapshot: the next open fast-starts.
    let chain = reopen(&dir).unwrap();
    assert!(chain.appended_blocks() <= 4, "snapshot rewritten: O(suffix) start");
    assert_eq!(chain.tip(), oracle.tip());
    assert_eq!(chain.next_nonce_for(&alice), oracle.next_nonce_for(&alice));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn nonce_enforcement_holds_through_finality_and_a_crash() {
    let config = ChainConfig {
        finality_depth: Some(3),
        enforce_nonces: true,
        ..ChainConfig::default()
    };
    // alice writes heights 1..=12, bob 13..=20: with depth 3 every alice
    // transaction has finalized out of the suffix (and out of the mutable
    // nonce map) by the time the chain stops.
    let build = |dir: &Path| {
        let mut chain = Chain::with_tiers(
            tiered(&dir.join("blocks")),
            Some(small_index(&dir.join("txindex"))),
            small_meta(&dir.join("meta")),
            config.clone(),
        );
        for i in 0..20u64 {
            let ts = chain.tip_header().timestamp_ms + 10;
            let t = if i < 12 { tx("alice", i) } else { tx("bob", i - 12) };
            let block = chain.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![t]);
            chain.append(block).unwrap();
        }
        chain
    };
    let live_dir = temp_dir("nonce-restart-live");
    let crash_dir = temp_dir("nonce-restart-crash");
    let mut live = build(&live_dir);
    assert_eq!(live.resident_metadata().next_nonce, 1, "only bob is in the suffix");
    // Hard crash: no Drop, no final sync — the last interval snapshot is
    // all the restart has.
    std::mem::forget(build(&crash_dir));
    let mut restarted = Chain::replay_with_tiers(
        tiered(&crash_dir.join("blocks")),
        Some(small_index(&crash_dir.join("txindex"))),
        small_meta(&crash_dir.join("meta")),
        config.clone(),
    )
    .unwrap();
    assert!(restarted.appended_blocks() <= 4, "fast start, not a replay");
    assert_eq!(restarted.tip(), live.tip());

    let alice = AccountId::from_name("alice");
    let ts = live.tip_header().timestamp_ms + 10;
    for (nonce, expect) in [
        (13, Err(ValidationError::BadNonce { author: alice, expected: 12, got: 13 })),
        (11, Err(ValidationError::BadNonce { author: alice, expected: 12, got: 11 })),
        (12, Ok(())),
    ] {
        let block = live.assemble_next(ts, AccountId::from_name("sealer"), 0, vec![tx("alice", nonce)]);
        assert_eq!(live.append(block.clone()).map(|_| ()), expect, "live, nonce {nonce}");
        assert_eq!(restarted.append(block).map(|_| ()), expect, "restarted, nonce {nonce}");
    }
    assert_eq!(restarted.tip(), live.tip());
    assert_eq!(restarted.next_nonce_for(&alice), 13);
    drop((live, restarted));
    for d in [&live_dir, &crash_dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
