//! A direct-mapped last-level-cache model, one instance per NUMA node.
//!
//! Tags are line addresses. A direct-mapped array of the configured
//! capacity reproduces the effects the paper measures — working-set
//! capacity misses, and the cold-cache penalty after a thread migrates to
//! another node (whose LLC does not hold its lines) — at O(1) per touch.

use crate::overlay::SlotOverlay;

/// Per-node last-level cache.
#[derive(Debug, Clone)]
pub struct Llc {
    tags: Vec<u64>,
    mask: u64,
    /// Latency of a hit, in model cycles.
    pub hit_cycles: u64,
}

const EMPTY: u64 = u64::MAX;

impl Llc {
    /// Build an LLC holding `lines` cache lines (rounded up to a power of
    /// two), with the given hit latency.
    pub fn new(lines: u64, hit_cycles: u64) -> Self {
        let size = lines.max(1).next_power_of_two() as usize;
        Llc { tags: vec![EMPTY; size], mask: size as u64 - 1, hit_cycles }
    }

    /// Touch a line address; inserts on miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, line_addr: u64) -> bool {
        let slot = self.slot(line_addr);
        if self.tags[slot] == line_addr {
            true
        } else {
            self.tags[slot] = line_addr;
            false
        }
    }

    /// [`Llc::access`] against this frozen cache plus a worker's private
    /// `overlay` of tag stores (sharded regions): the overlay's tag wins
    /// where it has one, and a miss inserts into the overlay only.
    #[inline]
    pub(crate) fn access_overlaid(&self, overlay: &mut SlotOverlay<u64>, line_addr: u64) -> bool {
        let slot = self.slot(line_addr);
        // Lossless: `SlotOverlay` addresses `u32` slots, and
        // `Llc::overlayable` holds for every cache an overlay covers.
        let key = slot as u32;
        let tag = overlay.get(key).copied().unwrap_or(self.tags[slot]);
        if tag == line_addr {
            true
        } else {
            overlay.insert(key, line_addr);
            false
        }
    }

    /// Whether every slot of this cache fits a [`SlotOverlay`] key.
    pub(crate) fn overlayable(&self) -> bool {
        u32::try_from(self.tags.len()).is_ok()
    }

    /// Write a worker's tag stores into this cache (the sharded merge).
    pub(crate) fn apply(&mut self, overlay: &SlotOverlay<u64>) {
        overlay.apply_to(&mut self.tags);
    }

    #[inline]
    fn slot(&self, line_addr: u64) -> usize {
        (mix(line_addr) & self.mask) as usize
    }

    /// Whether `line_addr` is resident, without touching it.
    #[cfg(test)]
    pub(crate) fn holds(&self, line_addr: u64) -> bool {
        self.tags[self.slot(line_addr)] == line_addr
    }

    /// The raw tag array.
    #[cfg(test)]
    pub(crate) fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// Prefetch the host cache line holding `line_addr`'s tag slot.
    /// A pure latency hint: never reads or writes the tag, so it cannot
    /// affect hit/miss outcomes.
    #[inline]
    pub fn prefetch(&self, line_addr: u64) {
        crate::mix::prefetch(&self.tags[self.slot(line_addr)]);
    }

    /// Invalidate everything (used by cold-run experiments).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Number of line slots.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[inline]
fn mix(x: u64) -> u64 {
    crate::mix::xor_mul_shift(x, 31, 0x7fb5_d329_728e_a185, 27)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Llc::new(1024, 40);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = Llc::new(64, 40);
        c.access(7);
        c.flush();
        assert!(!c.access(7));
    }

    #[test]
    fn small_working_set_mostly_hits() {
        let mut c = Llc::new(4096, 40);
        for line in 0..256u64 {
            c.access(line);
        }
        let hits = (0..256u64).filter(|&l| c.access(l)).count();
        assert!(hits >= 240, "only {hits}/256 hits");
    }

    #[test]
    fn oversized_working_set_mostly_misses() {
        let mut c = Llc::new(64, 40);
        let mut misses = 0;
        for _ in 0..2 {
            for line in 0..8192u64 {
                if !c.access(line) {
                    misses += 1;
                }
            }
        }
        assert!(misses > 15_000, "only {misses} misses");
    }

    #[test]
    fn overlaid_access_matches_direct_access_and_leaves_base_frozen() {
        let mut direct = Llc::new(256, 40);
        let base = direct.clone();
        let mut overlay = SlotOverlay::new();
        let lines: Vec<u64> = (0..2000u64).map(|i| (i * 7919) % 700).collect();
        for &l in &lines {
            let hit = base.access_overlaid(&mut overlay, l);
            assert_eq!(hit, direct.access(l), "line {l}");
        }
        assert!(base.tags.iter().all(|&t| t == EMPTY));
        let mut merged = base.clone();
        merged.apply(&overlay);
        assert_eq!(merged.tags, direct.tags);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Llc::new(1000, 1).capacity_lines(), 1024);
    }
}
