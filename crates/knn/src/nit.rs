//! The Neighbor Index Table (NIT).
//!
//! The paper's delayed-aggregation executor materializes neighbor search
//! results as a table with one entry per centroid: the centroid's index and
//! the indices of its `K` neighbors (Fig. 8). In hardware, the NIT is
//! streamed through a double-buffered SRAM whose entries hold up to 64
//! neighbor indices of 12 bits each (§VI); the aggregation unit consumes one
//! entry per cycle. This type is shared between the functional executors and
//! the hardware simulator so that bank-conflict behaviour is computed on the
//! *real* index distributions.

/// Neighbor search results: `len()` centroids, each with exactly `k`
/// neighbor indices into the searched cloud.
///
/// # Example
///
/// ```
/// use mesorasi_knn::NeighborIndexTable;
///
/// let mut nit = NeighborIndexTable::new(3);
/// nit.push_entry(0, &[0, 1, 2]);
/// nit.push_entry(5, &[5, 4, 3]);
/// assert_eq!(nit.len(), 2);
/// assert_eq!(nit.neighbors(1), &[5, 4, 3]);
/// assert_eq!(nit.centroid(1), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborIndexTable {
    k: usize,
    centroids: Vec<usize>,
    neighbors: Vec<usize>,
}

impl Default for NeighborIndexTable {
    /// An empty `k = 1` table — the neutral state of a reusable buffer;
    /// every query path [`NeighborIndexTable::reset`]s `k` before writing.
    fn default() -> Self {
        NeighborIndexTable::new(1)
    }
}

impl NeighborIndexTable {
    /// Bits per stored neighbor index in the hardware encoding (§VI).
    pub const INDEX_BITS: usize = 12;
    /// Maximum neighbor count a single hardware NIT entry accommodates.
    pub const MAX_HW_NEIGHBORS: usize = 64;

    /// Creates an empty table with `k` neighbors per entry.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "neighbor count must be positive");
        NeighborIndexTable { k, centroids: Vec::new(), neighbors: Vec::new() }
    }

    /// Clears the table and switches it to `k` neighbors per entry, keeping
    /// the backing allocations — the reusable-buffer counterpart of
    /// [`NeighborIndexTable::new`] that the search arenas cycle through.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "neighbor count must be positive");
        self.k = k;
        self.centroids.clear();
        self.neighbors.clear();
    }

    /// Resets the table to `entries` zero-filled entries of `k` neighbors
    /// and exposes the `(centroids, neighbors)` storage for direct writes —
    /// the out-parameter query paths fill disjoint per-query slots, possibly
    /// from parallel workers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub(crate) fn fill_slots(&mut self, k: usize, entries: usize) -> (&mut [usize], &mut [usize]) {
        self.reset(k);
        self.centroids.resize(entries, 0);
        self.neighbors.resize(entries * k, 0);
        (&mut self.centroids, &mut self.neighbors)
    }

    /// Heap bytes retained by the table's backing storage (capacity, not
    /// length) — part of the search-arena statistics.
    pub fn storage_bytes(&self) -> usize {
        (self.centroids.capacity() + self.neighbors.capacity()) * std::mem::size_of::<usize>()
    }

    /// Appends one centroid's neighbor list.
    ///
    /// # Panics
    ///
    /// Panics if `neighbors.len() != self.k()`.
    pub fn push_entry(&mut self, centroid: usize, neighbors: &[usize]) {
        assert_eq!(neighbors.len(), self.k, "entry must have exactly k = {} neighbors", self.k);
        self.centroids.push(centroid);
        self.neighbors.extend_from_slice(neighbors);
    }

    /// Neighbors per entry.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries (centroids), `N_out`.
    #[inline]
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// True when the table has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// The centroid index of entry `i`.
    #[inline]
    pub fn centroid(&self, i: usize) -> usize {
        self.centroids[i]
    }

    /// The neighbor indices of entry `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.neighbors[i * self.k..(i + 1) * self.k]
    }

    /// All centroid indices.
    #[inline]
    pub fn centroids(&self) -> &[usize] {
        &self.centroids
    }

    /// The flattened `N_out × K` neighbor matrix, row-major.
    #[inline]
    pub fn neighbors_flat(&self) -> &[usize] {
        &self.neighbors
    }

    /// Iterates over `(centroid, neighbors)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        self.centroids.iter().copied().zip(self.neighbors.chunks_exact(self.k))
    }

    /// Size of the table in the hardware encoding, in bytes: one entry is
    /// `k` indices of [`Self::INDEX_BITS`] bits, rounded up to whole bytes
    /// (the paper's 64-neighbor entry is 98 bytes: 64 × 12 bits + 2 spare).
    pub fn hardware_bytes(&self) -> usize {
        let entry_bits = (self.k + 1) * Self::INDEX_BITS; // +1 for the centroid
        let entry_bytes = entry_bits.div_ceil(8);
        entry_bytes * self.len()
    }

    /// Largest index referenced (centroid or neighbor); `None` when empty.
    /// Executors validate this against the searched cloud's size.
    pub fn max_index(&self) -> Option<usize> {
        self.centroids.iter().chain(self.neighbors.iter()).copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = NeighborIndexTable::new(0);
    }

    #[test]
    #[should_panic(expected = "exactly k")]
    fn wrong_entry_len_panics() {
        let mut nit = NeighborIndexTable::new(4);
        nit.push_entry(0, &[1, 2, 3]);
    }

    #[test]
    fn entries_round_trip() {
        let mut nit = NeighborIndexTable::new(2);
        nit.push_entry(7, &[1, 2]);
        nit.push_entry(9, &[3, 4]);
        let collected: Vec<_> = nit.iter().collect();
        assert_eq!(collected, vec![(7, &[1usize, 2][..]), (9, &[3, 4][..])]);
        assert_eq!(nit.max_index(), Some(9));
    }

    #[test]
    fn hardware_bytes_matches_paper_entry_size() {
        // 64 neighbors + centroid = 65 × 12 bits = 780 bits = 97.5 → 98 bytes.
        let mut nit = NeighborIndexTable::new(64);
        nit.push_entry(0, &vec![0; 64]);
        assert_eq!(nit.hardware_bytes(), 98);
    }

    #[test]
    fn reset_switches_k_and_keeps_capacity() {
        let mut nit = NeighborIndexTable::new(2);
        nit.push_entry(0, &[1, 2]);
        nit.push_entry(1, &[3, 4]);
        let bytes = nit.storage_bytes();
        nit.reset(3);
        assert!(nit.is_empty());
        assert_eq!(nit.k(), 3);
        nit.push_entry(5, &[5, 6, 7]);
        assert_eq!(nit.neighbors(0), &[5, 6, 7]);
        assert!(nit.storage_bytes() >= bytes, "reset must not shrink storage");
    }

    #[test]
    fn fill_slots_exposes_writable_entries() {
        let mut nit = NeighborIndexTable::new(4);
        {
            let (cents, neighs) = nit.fill_slots(2, 3);
            assert_eq!((cents.len(), neighs.len()), (3, 6));
            cents.copy_from_slice(&[9, 8, 7]);
            neighs.copy_from_slice(&[0, 1, 2, 3, 4, 5]);
        }
        assert_eq!(nit.len(), 3);
        assert_eq!(nit.centroid(0), 9);
        assert_eq!(nit.neighbors(2), &[4, 5]);
    }

    #[test]
    fn empty_table() {
        let nit = NeighborIndexTable::new(8);
        assert!(nit.is_empty());
        assert_eq!(nit.len(), 0);
        assert_eq!(nit.max_index(), None);
        assert_eq!(nit.hardware_bytes(), 0);
    }
}
