//! A sharded LRU cache for distance answers.
//!
//! Keyed by `(epoch, backend, s, t)`; the value is the wire encoding of
//! the answer ([`UNREACHABLE`] for "no path"), so negative results are
//! cached too. Distances over one epoch's network never go stale —
//! a key's value is immutable, and the only mutations are eviction and
//! explicit purging. A hot index swap changes the epoch component, so
//! entries cached against the old index are structurally unreachable
//! from queries running on the new one (and vice versa: a connection
//! still pinned to the old epoch keeps hitting only old-epoch entries,
//! which remain correct for it).
//!
//! Sharding bounds contention: a key hashes to one of `shards` (a power
//! of two) independent mutex-protected LRU lists, so concurrent workers
//! only collide when they touch the same shard. Hit/miss/eviction
//! accounting is kept in shard-external atomics — reading the counters
//! never takes a lock. Shard locks recover from poisoning (a panicking
//! worker must not disable caching for everyone else).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spq_graph::types::Dist;

use crate::protocol::UNREACHABLE;
use crate::sync::lock_unpoisoned;

/// How far the epoch is shifted inside the 128-bit key: bits 0..32 are
/// the target, 32..64 the source, 64..72 the backend wire id, and the
/// remaining high bits the (truncated) epoch.
const EPOCH_SHIFT: u32 = 72;

/// Cache counters snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries removed by explicit purges (epoch retirement or backend
    /// quarantine).
    pub purged: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Total capacity across shards (0 = disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: u32 = u32::MAX;

/// Approximate resident bytes per cache entry, used by the server's
/// memory budget to reserve the cache's worst-case footprint up front:
/// a 32-byte [`Entry`] plus the `HashMap<u128, u32>` index's amortised
/// bucket (key + slot + load-factor headroom). Deliberately a static
/// estimate — the budget needs a bound at startup, not live telemetry.
pub const APPROX_ENTRY_BYTES: usize = 64;

struct Entry {
    key: u128,
    value: u64,
    prev: u32,
    next: u32,
}

/// One independent LRU list + index.
struct Shard {
    map: HashMap<u128, u32>,
    entries: Vec<Entry>,
    /// Most recently used entry.
    head: u32,
    /// Least recently used entry (the eviction victim).
    tail: u32,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity.min(1024)),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn detach(&mut self, i: u32) {
        let (prev, next) = {
            let e = &self.entries[i as usize];
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let e = &mut self.entries[i as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.entries[old_head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: u128) -> Option<u64> {
        let i = *self.map.get(&key)?;
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
        Some(self.entries[i as usize].value)
    }

    /// Inserts (or refreshes) a key; returns whether an entry was evicted.
    fn insert(&mut self, key: u128, value: u64) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.entries[i as usize].value = value;
            if self.head != i {
                self.detach(i);
                self.push_front(i);
            }
            return false;
        }
        if self.entries.len() < self.capacity {
            let i = self.entries.len() as u32;
            self.entries.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.push_front(i);
            return false;
        }
        // Full: recycle the least-recently-used slot.
        let victim = self.tail;
        self.detach(victim);
        let old_key = self.entries[victim as usize].key;
        self.map.remove(&old_key);
        {
            let e = &mut self.entries[victim as usize];
            e.key = key;
            e.value = value;
        }
        self.map.insert(key, victim);
        self.push_front(victim);
        true
    }

    /// Removes every entry whose key matches `pred`, preserving the
    /// recency order of the survivors. Returns how many were removed.
    fn purge(&mut self, pred: &dyn Fn(u128) -> bool) -> usize {
        // Walk MRU → LRU collecting survivors, then rebuild: arbitrary
        // mid-list removal would need a free-list the steady state
        // never wants, and purges are rare (reload / quarantine).
        let mut survivors = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            let e = &self.entries[cur as usize];
            if !pred(e.key) {
                survivors.push((e.key, e.value));
            }
            cur = e.next;
        }
        let removed = self.map.len() - survivors.len();
        self.map.clear();
        self.entries.clear();
        self.head = NIL;
        self.tail = NIL;
        // Reinsert LRU-first so push_front restores the original order.
        for (key, value) in survivors.into_iter().rev() {
            self.insert(key, value);
        }
        removed
    }
}

/// The sharded cache. Capacity 0 disables it (every lookup misses,
/// inserts are dropped) — counters still run so the STATS surface stays
/// uniform.
pub struct DistanceCache {
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
    /// Capacity > 0; a disabled cache answers without touching a shard.
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    purged: AtomicU64,
}

impl DistanceCache {
    /// Creates a cache of `capacity` total entries spread over `shards`
    /// (rounded up to a power of two, at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards).max(1)
        };
        DistanceCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            shard_mask: shards as u64 - 1,
            enabled: capacity > 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            purged: AtomicU64::new(0),
        }
    }

    fn key(epoch: u64, backend: u8, s: u32, t: u32) -> u128 {
        ((epoch as u128) << EPOCH_SHIFT)
            | ((backend as u128) << 64)
            | ((s as u128) << 32)
            | t as u128
    }

    fn key_epoch(key: u128) -> u64 {
        (key >> EPOCH_SHIFT) as u64
    }

    fn key_backend(key: u128) -> u8 {
        (key >> 64) as u8
    }

    fn shard_of(&self, key: u128) -> &Mutex<Shard> {
        // SplitMix64-style finaliser over the folded key: cheap, and
        // spreads sequential vertex ids across shards.
        let mut x = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        &self.shards[(x & self.shard_mask) as usize]
    }

    /// Looks up a cached answer. `Some(None)` means "cached as
    /// unreachable".
    #[allow(clippy::option_option)]
    pub fn get(&self, epoch: u64, backend: u8, s: u32, t: u32) -> Option<Option<Dist>> {
        if !self.enabled {
            // Nothing is ever resident: count the miss, skip the lock.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = Self::key(epoch, backend, s, t);
        let cached = lock_unpoisoned(self.shard_of(key)).get(key);
        match cached {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(if v == UNREACHABLE { None } else { Some(v) })
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches an answer (including "unreachable").
    pub fn insert(&self, epoch: u64, backend: u8, s: u32, t: u32, d: Option<Dist>) {
        if !self.enabled {
            return;
        }
        let key = Self::key(epoch, backend, s, t);
        let shard = self.shard_of(key);
        let mut guard = lock_unpoisoned(shard);
        let evicted = guard.insert(key, d.unwrap_or(UNREACHABLE));
        drop(guard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn purge(&self, pred: impl Fn(u128) -> bool) -> u64 {
        let mut removed = 0usize;
        for shard in &self.shards {
            removed += lock_unpoisoned(shard).purge(&pred);
        }
        self.purged.fetch_add(removed as u64, Ordering::Relaxed);
        removed as u64
    }

    /// Drops every entry not keyed to `current_epoch`, reclaiming the
    /// capacity held by retired epochs after a hot swap. Connections
    /// still pinned to an old epoch simply miss afterwards — correct,
    /// just cold.
    pub fn purge_stale_epochs(&self, current_epoch: u64) -> u64 {
        let tag = Self::key_epoch(Self::key(current_epoch, 0, 0, 0));
        self.purge(move |key| Self::key_epoch(key) != tag)
    }

    /// Drops every entry one backend wrote under one epoch — called on
    /// quarantine so answers cached before the defect was detected can
    /// never be served from the cache afterwards.
    pub fn purge_backend(&self, epoch: u64, backend: u8) -> u64 {
        let tag = Self::key_epoch(Self::key(epoch, 0, 0, 0));
        self.purge(move |key| Self::key_epoch(key) == tag && Self::key_backend(key) == backend)
    }

    /// Counter snapshot (entry count takes each shard lock briefly).
    pub fn stats(&self) -> CacheStats {
        let mut len = 0;
        let mut capacity = 0;
        for shard in &self.shards {
            let s = lock_unpoisoned(shard);
            len += s.map.len();
            capacity += s.capacity;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            purged: self.purged.load(Ordering::Relaxed),
            len,
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_negative_caching() {
        let cache = DistanceCache::new(64, 4);
        assert_eq!(cache.get(0, 1, 2, 3), None);
        cache.insert(0, 1, 2, 3, Some(42));
        cache.insert(0, 1, 3, 2, None);
        assert_eq!(cache.get(0, 1, 2, 3), Some(Some(42)));
        assert_eq!(cache.get(0, 1, 3, 2), Some(None), "negative result cached");
        assert_eq!(cache.get(0, 2, 2, 3), None, "backend is part of the key");
        assert_eq!(cache.get(1, 1, 2, 3), None, "epoch is part of the key");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 3, 2));
        assert!((s.hit_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard of capacity 2 makes the policy observable.
        let cache = DistanceCache::new(2, 1);
        cache.insert(0, 0, 1, 1, Some(1));
        cache.insert(0, 0, 2, 2, Some(2));
        assert_eq!(cache.get(0, 0, 1, 1), Some(Some(1))); // refresh key 1
        cache.insert(0, 0, 3, 3, Some(3)); // evicts key 2
        assert_eq!(cache.get(0, 0, 2, 2), None, "LRU entry evicted");
        assert_eq!(cache.get(0, 0, 1, 1), Some(Some(1)));
        assert_eq!(cache.get(0, 0, 3, 3), Some(Some(3)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = DistanceCache::new(2, 1);
        cache.insert(0, 0, 1, 1, Some(1));
        cache.insert(0, 0, 1, 1, Some(9));
        assert_eq!(cache.get(0, 0, 1, 1), Some(Some(9)));
        assert_eq!(cache.stats().len, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = DistanceCache::new(0, 4);
        cache.insert(0, 0, 1, 1, Some(1));
        assert_eq!(cache.get(0, 0, 1, 1), None);
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().capacity, 0);
    }

    #[test]
    fn purging_stale_epochs_keeps_only_the_current_one() {
        let cache = DistanceCache::new(64, 2);
        for k in 0..8u32 {
            cache.insert(1, 0, k, k, Some(k as Dist));
            cache.insert(2, 0, k, k, Some((k + 100) as Dist));
        }
        let removed = cache.purge_stale_epochs(2);
        assert_eq!(removed, 8, "all epoch-1 entries removed");
        for k in 0..8u32 {
            assert_eq!(cache.get(1, 0, k, k), None, "old epoch gone");
            assert_eq!(cache.get(2, 0, k, k), Some(Some((k + 100) as Dist)));
        }
        assert_eq!(cache.stats().purged, 8);
        assert_eq!(cache.stats().len, 8);
    }

    #[test]
    fn purging_a_backend_spares_the_others_and_recency() {
        let cache = DistanceCache::new(8, 1);
        cache.insert(0, 1, 1, 1, Some(1));
        cache.insert(0, 2, 2, 2, Some(2));
        cache.insert(0, 1, 3, 3, Some(3));
        cache.insert(0, 2, 4, 4, Some(4));
        assert_eq!(cache.purge_backend(0, 1), 2);
        assert_eq!(cache.get(0, 1, 1, 1), None);
        assert_eq!(cache.get(0, 1, 3, 3), None);
        assert_eq!(cache.get(0, 2, 2, 2), Some(Some(2)));
        assert_eq!(cache.get(0, 2, 4, 4), Some(Some(4)));
        let s = cache.stats();
        assert_eq!((s.purged, s.len), (2, 2));
        // Rebuilt shard still evicts its least-recently-used survivor
        // first once refilled: key 2 was refreshed before key 4 above.
        for k in 10..17u32 {
            cache.insert(0, 3, k, k, Some(k as Dist));
        }
        let s = cache.stats();
        assert_eq!(s.len, 8, "shard refilled to capacity");
        assert_eq!(cache.get(0, 2, 2, 2), None, "LRU survivor evicted first");
        assert_eq!(cache.get(0, 2, 4, 4), Some(Some(4)), "MRU survivor kept");
    }

    #[test]
    fn capacity_below_shard_count_still_caches() {
        // 2 requested entries over 8 shards: every shard must get at
        // least one slot (a zero-capacity shard would silently drop
        // whatever hashes into it), so the effective capacity rounds up.
        let cache = DistanceCache::new(2, 8);
        assert_eq!(cache.stats().capacity, 8);
        for k in 0..32u32 {
            cache.insert(0, 0, k, k, Some(k as Dist));
        }
        let s = cache.stats();
        assert_eq!(s.insertions, 32);
        assert!(s.len >= 1, "something must be resident");
        assert!(
            s.len <= s.capacity,
            "len {} > capacity {}",
            s.len,
            s.capacity
        );
        // Residency + evictions accounts for every insertion exactly.
        assert_eq!(s.evictions + s.len as u64, s.insertions);
    }

    #[test]
    fn concurrent_evictions_account_exactly() {
        // Tiny shards under concurrent write pressure: whatever
        // interleaving happens, every insertion either remains resident
        // or was evicted — the counters must balance to the entry.
        let cache = DistanceCache::new(8, 4);
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for round in 0..1_000u32 {
                        let k = worker * 1_000 + round;
                        cache.insert(0, 0, k, k, Some(k as Dist));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.insertions, 4_000);
        assert!(s.len <= s.capacity);
        assert_eq!(
            s.evictions + s.len as u64,
            s.insertions,
            "evictions {} + len {} != insertions {}",
            s.evictions,
            s.len,
            s.insertions
        );
        // Distinct keys only, so nothing was an in-place refresh and
        // the cache must be full after 4000 inserts into 8 slots.
        assert_eq!(s.len, s.capacity);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        // Values are derived from the key, so any torn or misfiled entry
        // is detectable by every thread.
        let cache = DistanceCache::new(256, 8);
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for round in 0..2_000u32 {
                        let k = (worker * 31 + round) % 97;
                        match cache.get(0, 0, k, k + 1) {
                            Some(v) => assert_eq!(v, Some(k as Dist * 3)),
                            None => cache.insert(0, 0, k, k + 1, Some(k as Dist * 3)),
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.hits > 0);
        assert_eq!(s.hits + s.misses, 8_000);
    }
}
