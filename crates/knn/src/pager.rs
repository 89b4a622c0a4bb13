//! Leaf-payload storage for the octree: resident or file-backed with a
//! byte-budgeted LRU pager.
//!
//! The octree ([`crate::octree`]) splits a cloud into contiguous
//! Morton-sorted leaf runs. Where those runs *live* is this module's
//! concern: [`ResidentStore`] keeps them in one flat in-memory buffer (the
//! fast path — the whole sorted cloud is a slice), while [`FileStore`]
//! spills them to a temporary file and pages at most `budget` bytes of
//! leaves back in through an LRU of resident slots — the out-of-core
//! scenario where a 2^20-point cloud answers queries under a memory budget
//! smaller than its own storage. Both implement [`NodeStore`], and both
//! return the *exact bytes* that were pushed at build time (payloads
//! round-trip through the file as raw little-endian `f32` bits), so paging
//! can never change a query result — only where the time and memory go.
//!
//! The LRU is modeled on the engine's sample cache: an intrusive
//! doubly-linked list over a slot vector, eviction from the tail, and slot
//! buffers reused across evict/readmit cycles so a warm query stream
//! allocates only when a leaf larger than any seen before pages in.
//! [`PagerStats`] counts hits/misses/evictions and is surfaced through
//! `EngineStats`.

use mesorasi_pointcloud::Point3;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes one point occupies in a leaf payload (three little-endian `f32`s).
pub const POINT_BYTES: usize = 12;

/// `u32` sentinel for "no slot / no link".
const NIL: u32 = u32::MAX;

/// Pager traffic and occupancy counters, surfaced through `EngineStats`.
///
/// A [`ResidentStore`] never pages, so it reports zero traffic; only
/// file-backed octree slots contribute hits/misses/evictions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PagerStats {
    /// Leaf accesses served by an already-resident slot.
    pub hits: u64,
    /// Leaf accesses that had to read the backing file.
    pub misses: u64,
    /// Leaves dropped from residency to make room.
    pub evictions: u64,
    /// Bytes of leaf payload currently resident.
    pub resident_bytes: usize,
    /// The LRU byte budget; `0` means unbudgeted (resident store).
    pub budget_bytes: usize,
}

impl PagerStats {
    /// Accumulates `other` into `self` (per-slot stats roll up to the
    /// engine like the sample-cache stats do).
    pub fn add(&mut self, other: &PagerStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_bytes += other.resident_bytes;
        self.budget_bytes += other.budget_bytes;
    }

    /// Fraction of leaf accesses served without touching the file
    /// (`0.0` when there was no traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Where octree leaf payloads live. Leaves are pushed in node order during
/// a (re)build and addressed by the `u32` id that order assigns; payloads
/// read back bit-identical to what was pushed, so the choice of store never
/// affects query results.
pub trait NodeStore: Send + std::fmt::Debug {
    /// Starts a rebuild: drops every stored leaf (reusing buffers) and
    /// prepares for `leaves` pushes (a capacity hint, not a bound).
    fn begin_rebuild(&mut self, leaves: usize);

    /// Appends one leaf payload, returning its id (`0, 1, 2, ...` in push
    /// order).
    fn push_leaf(&mut self, points: &[Point3]) -> u32;

    /// Ends a rebuild; the store answers [`NodeStore::leaf_points`] for
    /// every pushed id afterwards.
    fn finish_rebuild(&mut self);

    /// The payload of leaf `leaf`, bit-identical to what was pushed. Takes
    /// `&mut self` because a paged store may need to fault the leaf in
    /// (and touch its LRU state).
    fn leaf_points(&mut self, leaf: u32) -> &[Point3];

    /// Traffic and occupancy counters since construction.
    fn stats(&self) -> PagerStats;

    /// Heap bytes retained by the store (capacity, not length).
    fn storage_bytes(&self) -> usize;
}

/// The in-memory store: every leaf payload lives in one flat buffer in
/// push order (which, for the octree, is the Morton-sorted cloud itself).
#[derive(Debug, Default)]
pub struct ResidentStore {
    points: Vec<Point3>,
    /// `(start, len)` into `points`, per leaf.
    offsets: Vec<(u32, u32)>,
}

impl ResidentStore {
    /// The concatenated leaf payloads — for the octree, the Morton-sorted
    /// cloud as one slice. Shared access is what lets resident queries run
    /// in parallel (no LRU state to mutate).
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// The `start..start + len` range of leaf `leaf` within
    /// [`ResidentStore::points`].
    pub fn leaf_range(&self, leaf: u32) -> (usize, usize) {
        let (start, len) = self.offsets[leaf as usize];
        (start as usize, len as usize)
    }
}

impl NodeStore for ResidentStore {
    fn begin_rebuild(&mut self, leaves: usize) {
        self.points.clear();
        self.offsets.clear();
        self.offsets.reserve(leaves);
    }

    fn push_leaf(&mut self, points: &[Point3]) -> u32 {
        let id = self.offsets.len() as u32;
        self.offsets.push((self.points.len() as u32, points.len() as u32));
        self.points.extend_from_slice(points);
        id
    }

    fn finish_rebuild(&mut self) {}

    fn leaf_points(&mut self, leaf: u32) -> &[Point3] {
        let (start, len) = self.leaf_range(leaf);
        &self.points[start..start + len]
    }

    fn stats(&self) -> PagerStats {
        PagerStats { resident_bytes: self.points.len() * POINT_BYTES, ..PagerStats::default() }
    }

    fn storage_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Point3>()
            + self.offsets.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// One resident leaf in the [`FileStore`] LRU: its decoded payload plus
/// intrusive list links ([`NIL`]-terminated, front = most recent).
#[derive(Debug)]
struct LeafSlot {
    leaf: u32,
    points: Vec<Point3>,
    prev: u32,
    next: u32,
}

/// The file-backed store: leaf payloads live in an unlinked-on-drop
/// temporary file; at most `budget` bytes of them are resident at once,
/// managed by an LRU (the incoming leaf is always admitted, so a budget
/// smaller than one leaf degrades to single-leaf residency rather than
/// failing). See the module docs for the exactness argument.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    file: Option<File>,
    budget: usize,
    /// `(byte offset, point count)` into the file, per leaf.
    offsets: Vec<(u64, u32)>,
    write_pos: u64,
    slots: Vec<LeafSlot>,
    /// Leaf id → slot index, [`NIL`] when not resident.
    slot_of: Vec<u32>,
    /// Recycled slot indices (buffers kept warm for the next fault).
    free: Vec<u32>,
    head: u32,
    tail: u32,
    resident_bytes: usize,
    io_buf: Vec<u8>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl FileStore {
    /// A store paging under `budget` bytes of resident leaf payload. The
    /// backing file is created lazily on first rebuild and removed on drop.
    pub fn new(budget: usize) -> FileStore {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "mesorasi-pager-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        );
        FileStore {
            path: std::env::temp_dir().join(name),
            file: None,
            budget,
            offsets: Vec::new(),
            write_pos: 0,
            slots: Vec::new(),
            slot_of: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_bytes: 0,
            io_buf: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The LRU byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn unlink(&mut self, s: u32) {
        let (prev, next) = {
            let slot = &self.slots[s as usize];
            (slot.prev, slot.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, s: u32) {
        let old_head = self.head;
        {
            let slot = &mut self.slots[s as usize];
            slot.prev = NIL;
            slot.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    fn evict_tail(&mut self) {
        let s = self.tail;
        debug_assert!(s != NIL, "evict only while something is resident");
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        self.resident_bytes -= slot.points.len() * POINT_BYTES;
        self.slot_of[slot.leaf as usize] = NIL;
        slot.leaf = NIL;
        slot.points.clear();
        self.free.push(s);
        self.evictions += 1;
    }

    /// Decodes leaf bytes at `off` into slot `s`'s point buffer.
    fn fault_in(&mut self, off: u64, count: u32, s: u32) {
        let bytes = count as usize * POINT_BYTES;
        self.io_buf.resize(bytes, 0);
        let file = self.file.as_mut().expect("leaf reads follow a rebuild");
        file.seek(SeekFrom::Start(off)).expect("pager file seek");
        file.read_exact(&mut self.io_buf).expect("pager file read");
        let points = &mut self.slots[s as usize].points;
        points.clear();
        points.reserve(count as usize);
        for chunk in self.io_buf.chunks_exact(POINT_BYTES) {
            let f = |r: std::ops::Range<usize>| {
                f32::from_le_bytes(chunk[r].try_into().expect("4-byte lanes"))
            };
            points.push(Point3::new(f(0..4), f(4..8), f(8..12)));
        }
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl NodeStore for FileStore {
    fn begin_rebuild(&mut self, leaves: usize) {
        if self.file.is_none() {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&self.path)
                .expect("pager backing file creation");
            self.file = Some(file);
        }
        let file = self.file.as_mut().expect("created above");
        file.seek(SeekFrom::Start(0)).expect("pager file rewind");
        self.write_pos = 0;
        self.offsets.clear();
        self.offsets.reserve(leaves);
        // Drop residency, keeping every slot buffer for reuse.
        while self.tail != NIL {
            // A rebuild is not eviction pressure: don't count it.
            self.evict_tail();
            self.evictions -= 1;
        }
    }

    fn push_leaf(&mut self, points: &[Point3]) -> u32 {
        let id = self.offsets.len() as u32;
        self.offsets.push((self.write_pos, points.len() as u32));
        self.io_buf.clear();
        self.io_buf.reserve(points.len() * POINT_BYTES);
        for p in points {
            self.io_buf.extend_from_slice(&p.x.to_le_bytes());
            self.io_buf.extend_from_slice(&p.y.to_le_bytes());
            self.io_buf.extend_from_slice(&p.z.to_le_bytes());
        }
        let file = self.file.as_mut().expect("push_leaf follows begin_rebuild");
        file.write_all(&self.io_buf).expect("pager file write");
        self.write_pos += self.io_buf.len() as u64;
        id
    }

    fn finish_rebuild(&mut self) {
        self.file.as_mut().expect("finish follows begin").flush().expect("pager file flush");
        self.slot_of.clear();
        self.slot_of.resize(self.offsets.len(), NIL);
    }

    fn leaf_points(&mut self, leaf: u32) -> &[Point3] {
        let s = self.slot_of[leaf as usize];
        if s != NIL {
            self.hits += 1;
            if self.head != s {
                self.unlink(s);
                self.link_front(s);
            }
            return &self.slots[s as usize].points;
        }
        self.misses += 1;
        let (off, count) = self.offsets[leaf as usize];
        let bytes = count as usize * POINT_BYTES;
        // Evict from the cold end until the incoming leaf fits; a budget
        // smaller than the leaf empties the LRU and admits it anyway.
        while self.tail != NIL && self.resident_bytes + bytes > self.budget {
            self.evict_tail();
        }
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(LeafSlot { leaf: NIL, points: Vec::new(), prev: NIL, next: NIL });
                (self.slots.len() - 1) as u32
            }
        };
        self.fault_in(off, count, s);
        self.slots[s as usize].leaf = leaf;
        self.slot_of[leaf as usize] = s;
        self.resident_bytes += bytes;
        self.link_front(s);
        &self.slots[s as usize].points
    }

    fn stats(&self) -> PagerStats {
        PagerStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident_bytes: self.resident_bytes,
            budget_bytes: self.budget,
        }
    }

    fn storage_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<(u64, u32)>()
            + (self.slot_of.capacity() + self.free.capacity()) * std::mem::size_of::<u32>()
            + self.io_buf.capacity()
            + self.slots.capacity() * std::mem::size_of::<LeafSlot>()
            + self
                .slots
                .iter()
                .map(|s| s.points.capacity() * std::mem::size_of::<Point3>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(seed: u32, n: usize) -> Vec<Point3> {
        (0..n)
            .map(|i| {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                Point3::new(
                    (v & 0xff) as f32 * 0.01,
                    ((v >> 8) & 0xff) as f32 * 0.01,
                    ((v >> 16) & 0xff) as f32 * 0.01,
                )
            })
            .collect()
    }

    fn fill<S: NodeStore>(store: &mut S, leaves: &[Vec<Point3>]) {
        store.begin_rebuild(leaves.len());
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(store.push_leaf(leaf), i as u32);
        }
        store.finish_rebuild();
    }

    #[test]
    fn both_stores_round_trip_leaf_payloads_bit_exactly() {
        let leaves: Vec<Vec<Point3>> = (0..6).map(|s| pts(s, 5 + s as usize * 3)).collect();
        let mut resident = ResidentStore::default();
        let mut paged = FileStore::new(usize::MAX);
        fill(&mut resident, &leaves);
        fill(&mut paged, &leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(resident.leaf_points(i as u32), &leaf[..]);
            assert_eq!(paged.leaf_points(i as u32), &leaf[..]);
        }
    }

    #[test]
    fn tiny_budget_churns_but_stays_exact() {
        let leaves: Vec<Vec<Point3>> = (0..8).map(|s| pts(s, 16)).collect();
        // One 16-point leaf is 192 bytes; budget one leaf exactly.
        let mut store = FileStore::new(16 * POINT_BYTES);
        fill(&mut store, &leaves);
        for round in 0..3 {
            for (i, leaf) in leaves.iter().enumerate() {
                assert_eq!(store.leaf_points(i as u32), &leaf[..], "round {round} leaf {i}");
            }
        }
        let stats = store.stats();
        assert_eq!(stats.hits, 0, "a one-leaf budget can never re-hit a round-robin scan");
        assert_eq!(stats.misses, 24);
        assert!(stats.evictions >= 16, "every fault after the first must evict");
        assert!(stats.resident_bytes <= 16 * POINT_BYTES);
    }

    #[test]
    fn generous_budget_hits_after_first_round() {
        let leaves: Vec<Vec<Point3>> = (0..4).map(|s| pts(s, 8)).collect();
        let mut store = FileStore::new(usize::MAX);
        fill(&mut store, &leaves);
        for _ in 0..3 {
            for i in 0..4u32 {
                store.leaf_points(i);
            }
        }
        let stats = store.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 8);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_leaf() {
        let leaves: Vec<Vec<Point3>> = (0..3).map(|s| pts(s, 4)).collect();
        // Room for exactly two 4-point leaves.
        let mut store = FileStore::new(2 * 4 * POINT_BYTES);
        fill(&mut store, &leaves);
        store.leaf_points(0); // resident: {0}
        store.leaf_points(1); // resident: {1, 0}
        store.leaf_points(0); // touch 0 → resident: {0, 1}
        store.leaf_points(2); // evicts 1 (the LRU), not 0
        let miss_before = store.stats().misses;
        store.leaf_points(0);
        assert_eq!(store.stats().misses, miss_before, "0 must still be resident");
        store.leaf_points(1);
        assert_eq!(store.stats().misses, miss_before + 1, "1 was the eviction victim");
    }

    #[test]
    fn rebuild_drops_residency_and_reuses_buffers() {
        let a: Vec<Vec<Point3>> = (0..5).map(|s| pts(s, 10)).collect();
        let b: Vec<Vec<Point3>> = (10..15).map(|s| pts(s, 10)).collect();
        let mut store = FileStore::new(usize::MAX);
        fill(&mut store, &a);
        for i in 0..5u32 {
            store.leaf_points(i);
        }
        fill(&mut store, &b);
        // Warm rebuild of the same shape: re-faulting every leaf must not
        // grow storage (slot and io buffers reused).
        for i in 0..5u32 {
            assert_eq!(store.leaf_points(i), &b[i as usize][..]);
        }
        let bytes = store.storage_bytes();
        fill(&mut store, &a);
        for i in 0..5u32 {
            assert_eq!(store.leaf_points(i), &a[i as usize][..]);
        }
        assert_eq!(store.storage_bytes(), bytes, "warm same-shape rebuild must not allocate");
        // A rebuild is not eviction pressure.
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn backing_file_is_removed_on_drop() {
        let leaves = vec![pts(1, 4)];
        let mut store = FileStore::new(usize::MAX);
        fill(&mut store, &leaves);
        let path = store.path.clone();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists(), "pager must unlink its temp file");
    }

    #[test]
    fn stats_add_rolls_up() {
        let mut total = PagerStats::default();
        let a =
            PagerStats { hits: 3, misses: 1, evictions: 1, resident_bytes: 96, budget_bytes: 128 };
        total.add(&a);
        total.add(&a);
        assert_eq!(total.hits, 6);
        assert_eq!(total.resident_bytes, 192);
        assert_eq!(PagerStats::default().hit_rate(), 0.0);
    }
}
