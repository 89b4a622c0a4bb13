//! Content-keyed, true-LRU cache of per-sample engine bindings.
//!
//! The plan-and-execute engine caches the derived [`Bindings`] of every
//! sample it has seen so repeated inference replays pure planned tensor
//! code. The cache is a slot vector stamped by a clock, the same discipline
//! as the search arena's index slots (`mesorasi_knn::SearchContext`):
//!
//! * **lookup** scans the slots for a matching [`PointCloud::content_hash`]
//!   and confirms it with [`PointCloud::content_eq`], so a hash collision
//!   can never return another sample's bindings; a hit only restamps its
//!   slot and allocates nothing;
//! * **eviction** overwrites exactly one slot, the least recently used, and
//!   reuses its cloud buffer. It is never a wholesale clear: a cache
//!   cleared at capacity drops the hot set together with the cold one, so
//!   traffic mixing repeated and fresh samples would see every repeated
//!   sample miss at once, once per capacity's worth of fresh samples. With
//!   one LRU eviction per insert, hot samples survive unbounded fresh
//!   traffic and the hit rate degrades smoothly.
//!
//! Eviction never affects results: a re-seen evicted sample is re-derived
//! through the same deterministic search/stencil code, bit-identically.

use mesorasi_nn::plan::Bindings;
use mesorasi_pointcloud::PointCloud;

/// Samples an engine caches, across all of its compiled shapes: every eval
/// set in the repo fits, and memory stays bounded under unbounded streams.
pub const SAMPLE_CACHE_CAP: usize = 1024;

/// Traffic counters of one sample cache (monotonic since engine build).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SampleCacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Capacity.
    pub capacity: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh derivation.
    pub misses: u64,
    /// Entries evicted (always exactly one per insert at capacity — never
    /// a wholesale clear).
    pub evictions: u64,
}

impl SampleCacheStats {
    /// Accumulates `other` (sessions sum their workers' engines).
    /// `entries`/`capacity` sum too: the aggregate is "total cached samples
    /// / total cache room".
    pub fn add(&mut self, other: &SampleCacheStats) {
        self.entries += other.entries;
        self.capacity += other.capacity;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// `hits / (hits + misses)`, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot {
    hash: u64,
    cloud: PointCloud,
    bindings: Bindings,
    last_use: u64,
}

/// The cache: at most `cap` slots, each stamped with the clock tick of its
/// last use.
pub(crate) struct SampleCache {
    cap: usize,
    slots: Vec<Slot>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for SampleCache {
    /// An engine's cache: [`SAMPLE_CACHE_CAP`] samples.
    fn default() -> SampleCache {
        SampleCache::new(SAMPLE_CACHE_CAP)
    }
}

impl SampleCache {
    /// An empty cache holding at most `cap` samples.
    pub(crate) fn new(cap: usize) -> SampleCache {
        SampleCache { cap, slots: Vec::new(), clock: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> SampleCacheStats {
        SampleCacheStats {
            entries: self.slots.len(),
            capacity: self.cap,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// The bindings cached for `cloud`, whose content hash the caller
    /// already computed. A hit marks the entry most recently used and
    /// allocates nothing.
    pub(crate) fn get(&mut self, hash: u64, cloud: &PointCloud) -> Option<&Bindings> {
        let Some(slot) =
            self.slots.iter_mut().find(|s| s.hash == hash && s.cloud.content_eq(cloud))
        else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.clock += 1;
        slot.last_use = self.clock;
        Some(&slot.bindings)
    }

    /// Caches a copy of `cloud` and of its freshly derived bindings, which
    /// the caller guarantees are not cached (it just missed). At capacity
    /// exactly one entry, the least recently used, is evicted, and its
    /// cloud buffer is reused for the newcomer.
    pub(crate) fn insert(&mut self, hash: u64, cloud: &PointCloud, bindings: &Bindings) {
        self.clock += 1;
        if self.slots.len() < self.cap {
            let (cloud, bindings) = (cloud.clone(), bindings.clone());
            self.slots.push(Slot { hash, cloud, bindings, last_use: self.clock });
            return;
        }
        let victim =
            self.slots.iter_mut().min_by_key(|s| s.last_use).expect("a full cache has slots");
        self.evictions += 1;
        victim.hash = hash;
        victim.cloud.copy_from(cloud);
        victim.bindings.clone_from(bindings);
        victim.last_use = self.clock;
    }

    /// Heap bytes retained by the cached clouds and the capacity of their
    /// bindings.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.cloud.storage_bytes() + s.bindings.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_pointcloud::Point3;

    fn cloud(seed: u32) -> PointCloud {
        PointCloud::from_points(vec![Point3::new(seed as f32, 0.0, 1.0)])
    }

    fn bindings() -> Bindings {
        Bindings { inputs: Vec::new(), indices: Vec::new(), stencils: Vec::new() }
    }

    #[test]
    fn hit_promotes_and_counts() {
        let mut cache = SampleCache::new(4);
        for s in 0..3 {
            let c = cloud(s);
            assert!(cache.get(c.content_hash(), &c).is_none());
            cache.insert(c.content_hash(), &c, &bindings());
        }
        let c0 = cloud(0);
        assert!(cache.get(c0.content_hash(), &c0).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 0));
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn eviction_is_lru_not_wholesale() {
        let mut cache = SampleCache::new(2);
        let (a, b, c) = (cloud(1), cloud(2), cloud(3));
        cache.insert(a.content_hash(), &a, &bindings());
        cache.insert(b.content_hash(), &b, &bindings());
        // Touch `a` so `b` is the LRU entry, then insert `c`.
        assert!(cache.get(a.content_hash(), &a).is_some());
        cache.insert(c.content_hash(), &c, &bindings());
        assert_eq!(cache.stats().entries, 2, "one eviction, not a clear");
        assert!(cache.get(a.content_hash(), &a).is_some(), "recently used survives");
        assert!(cache.get(b.content_hash(), &b).is_none(), "LRU entry evicted");
        assert!(cache.get(c.content_hash(), &c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn hot_entry_survives_unbounded_fresh_traffic() {
        // The cliff regression test at the data-structure level: a hot
        // sample touched between fresh inserts must never be evicted, no
        // matter how many distinct samples stream past.
        let mut cache = SampleCache::new(8);
        let hot = cloud(9999);
        cache.insert(hot.content_hash(), &hot, &bindings());
        let mut full_bytes = None;
        for s in 0..100 {
            let f = cloud(s);
            assert!(cache.get(f.content_hash(), &f).is_none());
            cache.insert(f.content_hash(), &f, &bindings());
            assert!(cache.get(hot.content_hash(), &hot).is_some(), "fresh insert #{s} evicted hot");
            // Once full, an eviction reuses the victim's cloud buffer.
            if cache.stats().entries == 8 {
                let bytes = cache.storage_bytes();
                assert_eq!(*full_bytes.get_or_insert(bytes), bytes, "fresh insert #{s} grew");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 100, "every hot touch hits");
        assert_eq!(stats.evictions, 100 - 7, "one eviction per insert past capacity");
        assert_eq!(stats.entries, 8);
    }

    #[test]
    fn hash_collisions_disambiguate_by_content() {
        // Force a collision by inserting under the same hash key manually.
        let mut cache = SampleCache::new(4);
        let (a, b) = (cloud(1), cloud(2));
        let fake_hash = 42u64;
        cache.insert(fake_hash, &a, &bindings());
        cache.insert(fake_hash, &b, &bindings());
        assert!(cache.get(fake_hash, &a).is_some());
        assert!(cache.get(fake_hash, &b).is_some());
        assert!(cache.get(fake_hash, &cloud(3)).is_none(), "content guard rejects");
    }

    #[test]
    fn stats_add_and_hit_rate() {
        let mut a = SampleCacheStats { entries: 1, capacity: 4, hits: 3, misses: 1, evictions: 0 };
        let b = SampleCacheStats { entries: 2, capacity: 4, hits: 1, misses: 3, evictions: 2 };
        a.add(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.capacity, 8);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(SampleCacheStats::default().hit_rate(), 0.0);
    }
}
