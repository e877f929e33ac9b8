//! A sparse per-worker overlay over a frozen slot table.
//!
//! Sharded regions (DESIGN.md §4h) run every worker against the frozen
//! region-start state of the simulator's slot tables — the per-node LLC
//! tag arrays and the last-writer table — plus a private record of its
//! own stores. [`SlotOverlay`] is that record: an open-addressing map
//! from table slot to the value this worker last stored there, with
//! entries kept in first-store order. Reads check the overlay and fall
//! through to the base; the merge replays the entries onto the table.
//! Memory and merge work scale with the slots a worker stored, not with
//! the size of the table it overlays.

/// Map from table slot to this worker's stored value.
#[derive(Debug, Clone)]
pub(crate) struct SlotOverlay<T> {
    /// Open-addressing index, linear probing: `0` is an empty bucket,
    /// otherwise the position in `entries` plus one. Its length is zero
    /// or a power of two at least twice `entries.len()`.
    index: Vec<u32>,
    /// `(slot, value)` pairs in first-store order.
    entries: Vec<(u32, T)>,
}

/// Buckets allocated on the first store.
const MIN_BUCKETS: usize = 16;

impl<T: Copy> SlotOverlay<T> {
    /// An empty overlay; allocates nothing until the first store.
    pub(crate) fn new() -> Self {
        SlotOverlay {
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Fibonacci hashing: the top bits of `slot × 2^64/φ` pick the home
    /// bucket, so clustered slot numbers still spread.
    #[inline]
    fn home(&self, slot: u32) -> usize {
        let bits = self.index.len().trailing_zeros();
        ((u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> (64 - bits)) as usize
    }

    /// Bucket holding `slot`, or the empty bucket where it would go.
    /// The index must be non-empty.
    #[inline]
    fn bucket(&self, slot: u32) -> usize {
        let mask = self.index.len() - 1;
        let mut b = self.home(slot);
        loop {
            let pos = self.index[b];
            if pos == 0 || self.entries[pos as usize - 1].0 == slot {
                return b;
            }
            b = (b + 1) & mask;
        }
    }

    /// This worker's value for `slot`, if it stored one.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        if self.entries.is_empty() {
            return None;
        }
        match self.index[self.bucket(slot)] {
            0 => None,
            pos => Some(&self.entries[pos as usize - 1].1),
        }
    }

    /// Store `value` at `slot`: overwrites this worker's earlier value,
    /// otherwise appends a new entry.
    #[inline]
    pub(crate) fn insert(&mut self, slot: u32, value: T) {
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let b = self.bucket(slot);
        match self.index[b] {
            0 => {
                self.entries.push((slot, value));
                // Positions fit: `entries` never outgrows half the index,
                // and slot tables are indexed by `u32`.
                self.index[b] = self.entries.len() as u32;
            }
            pos => self.entries[pos as usize - 1].1 = value,
        }
    }

    /// Double the index and rehash every entry into it.
    #[cold]
    fn grow(&mut self) {
        let buckets = (self.index.len() * 2).max(MIN_BUCKETS);
        self.index = vec![0; buckets];
        for pos in 0..self.entries.len() {
            let b = self.bucket(self.entries[pos].0);
            self.index[b] = pos as u32 + 1;
        }
    }

    /// Write every stored value into `table` (the merge step).
    pub(crate) fn apply_to(&self, table: &mut [T]) {
        for &(slot, value) in &self.entries {
            table[slot as usize] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_overlay_reads_nothing_and_allocates_nothing() {
        let o: SlotOverlay<u64> = SlotOverlay::new();
        assert_eq!(o.get(0), None);
        assert_eq!(o.index.capacity(), 0);
    }

    #[test]
    fn overwrite_keeps_first_store_position() {
        let mut o = SlotOverlay::new();
        o.insert(9, 1u64);
        o.insert(3, 2);
        o.insert(9, 3);
        assert_eq!(o.entries, [(9, 3), (3, 2)]);
        assert_eq!(o.get(9), Some(&3));
    }

    #[test]
    fn apply_writes_only_stored_slots() {
        let mut o = SlotOverlay::new();
        o.insert(1, 7u64);
        o.insert(4, 8);
        let mut table = vec![0u64; 6];
        o.apply_to(&mut table);
        assert_eq!(table, vec![0, 7, 0, 0, 8, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a `BTreeMap` model: every read agrees, and the
        /// entries are exactly the model's pairs in first-store order.
        /// Up to 600 stores over a slot range that ranges from dense to
        /// sparse take the index through several doublings (16 → 2048
        /// buckets).
        #[test]
        fn overlay_matches_a_btreemap_model(
            ops in prop::collection::vec((0u32..4096, any::<u64>()), 1..600),
            span in 1u32..4096,
        ) {
            let mut o = SlotOverlay::new();
            let mut model = BTreeMap::new();
            let mut order = Vec::new();
            for &(raw, v) in &ops {
                let slot = raw % span;
                if model.insert(slot, v).is_none() {
                    order.push(slot);
                }
                o.insert(slot, v);
                prop_assert_eq!(o.get(slot), Some(&v));
                prop_assert_eq!(o.entries.len(), model.len());
            }
            for probe in 0..span.min(4096) {
                prop_assert_eq!(o.get(probe), model.get(&probe));
            }
            let expect: Vec<(u32, u64)> = order.iter().map(|s| (*s, model[s])).collect();
            prop_assert_eq!(o.entries, expect);
            prop_assert!(o.index.len() >= 2 * model.len());
        }
    }
}
