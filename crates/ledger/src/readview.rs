//! Read-path concurrency primitives: a hand-rolled Arc-swap and a sharded
//! LRU cache.
//!
//! The detached read path (readers pin a published value under a mutex held
//! for one `Arc` copy, and never wait on a commit) needs exactly two building
//! blocks, and neither may come from a registry crate:
//!
//! * [`Published<T>`] — a single-slot publication cell. The writer replaces
//!   the current value wholesale ([`Published::store`]); readers take a
//!   reference-counted copy ([`Published::load`]) whose critical section is
//!   one `Arc` clone under an uncontended mutex. Readers therefore never
//!   block behind a writer's *build* of the next value — only behind the
//!   pointer swap itself, which is a few instructions. A reader that loaded
//!   the previous value keeps a fully consistent (merely stale) view for as
//!   long as it holds the `Arc`.
//! * [`ShardedCache<K, V>`] — N independently locked [`LruCache`] shards,
//!   keyed by the hash of the key. Concurrent readers populating a page
//!   cache contend only when they collide on a shard, instead of convoying
//!   on one cache-wide lock.
//!
//! Both types are deliberately tiny: correctness here is load-bearing for
//! every durable tier's reader.

use crate::cache::LruCache;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A value published wholesale by one writer and loaded wait-free-in-practice
/// by many readers.
///
/// The slot is a `Mutex<Arc<T>>` rather than an `AtomicPtr` two-slot scheme:
/// the mutex is held only for the duration of an `Arc` pointer copy (load) or
/// swap (store), so readers cannot observe a torn value and cannot be blocked
/// for longer than that copy by any writer — the writer constructs the next
/// `T` entirely *outside* the critical section.
#[derive(Debug)]
pub struct Published<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> Published<T> {
    /// Create a cell holding `initial`.
    pub fn new(initial: T) -> Self {
        Self {
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// Take a shared handle to the current value. O(1): one lock, one Arc
    /// clone, one unlock.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.lock().expect("publish slot poisoned"))
    }

    /// Replace the current value. Readers holding the previous `Arc` keep
    /// it alive and consistent; new loads see `next`.
    pub fn store(&self, next: Arc<T>) {
        *self.slot.lock().expect("publish slot poisoned") = next;
    }
}

/// An LRU cache split into independently locked shards.
///
/// Values are cloned out on hit, so `V` is expected to be a cheap handle
/// (`Arc<…>` in every use here). Total capacity is divided evenly across
/// shards, with a floor of one entry per shard so tiny configured capacities
/// still cache *something* on every shard.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Eq + Hash + Copy, V: Clone> ShardedCache<K, V> {
    /// Create a cache of `capacity` total entries across `shards` locks.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards).max(1)
        };
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Fetch a clone of the cached value, promoting it to most-recent.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned()
    }

    /// Insert (or replace) an entry.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value);
    }

    /// Remove one entry.
    pub fn remove(&self, key: &K) {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .remove(key);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    #[test]
    fn published_load_store_round_trip() {
        let p = Published::new(1u64);
        assert_eq!(*p.load(), 1);
        p.store(Arc::new(2));
        assert_eq!(*p.load(), 2);
        // An old handle stays valid after a store.
        let old = p.load();
        p.store(Arc::new(3));
        assert_eq!(*old, 2);
        assert_eq!(*p.load(), 3);
    }

    #[test]
    fn published_is_never_torn_under_concurrency() {
        // Publish (x, x) pairs; readers must never see mismatched halves.
        let p = Arc::new(Published::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let v = p.load();
                        assert_eq!(v.0, v.1, "torn publish observed");
                    }
                })
            })
            .collect();
        for i in 1..=10_000u64 {
            p.store(Arc::new((i, i)));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn sharded_cache_round_trip_and_capacity() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(16, 4);
        for i in 0..64 {
            c.insert(i, i * 10);
        }
        assert!(c.len() <= 16, "total capacity respected, got {}", c.len());
        // Recently inserted keys are retrievable.
        assert_eq!(c.get(&63), Some(630));
    }

    #[test]
    fn sharded_cache_zero_capacity_stores_nothing() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(0, 4);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn sharded_cache_concurrent_access() {
        let c: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(256, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        let k = t * 1000 + i;
                        c.insert(k, k);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, k);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(c.len() <= 256 + 8, "len {} near capacity", c.len());
    }
}
