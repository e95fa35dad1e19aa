//! The block translation lookaside buffer.
//!
//! "Given that storage access exhibits spatial locality, and extents
//! typically span more than one block, the translation unit maintains a
//! small cache of the last 8 extents used in translation" (paper §V-B).
//! Entries are whole *extents*, not single blocks, so one entry covers an
//! arbitrarily long sequential stream; eviction is FIFO ("evicting the
//! oldest entry").
//!
//! The PF can flush the BTLB "to preserve meta-data consistency" when the
//! hypervisor rewrites mappings (e.g. block deduplication); the device
//! model also flushes a single function's entries when its tree root is
//! replaced.
//!
//! Entries are indexed per function and kept sorted on the extent's start
//! vLBA, so a probe is a binary search plus a bounded stab scan instead of
//! a linear pass over every function's entries (the old representation
//! scanned the whole cache even at ablation capacities of hundreds of
//! entries). Function ids are dense small integers, so the per-function
//! buckets live in a flat `Vec` indexed directly by id — a probe touches
//! one predictable cache line to find its bucket instead of hashing.
//! FIFO order lives in a side queue of insertion stamps; `flush_func`
//! empties a function's bucket in place and leaves stale stamps behind as
//! tombstones that eviction skips.
//!
//! Two layers of statistics coexist:
//!
//! - `hits`/`misses` keep the historical *per-block* meaning: when the
//!   device serves a multi-block run from one probe it credits the extra
//!   blocks via [`Btlb::credit_hits`]/[`Btlb::credit_misses`], so hit-rate
//!   figures are comparable across the run-batching change.
//! - `probe_hits`/`probe_misses`/`blocks_covered` count actual cache
//!   probes and the blocks each probe's extent served, which is the honest
//!   accounting for the batched translation unit.

use std::collections::VecDeque;

use nesc_extent::{ExtentMapping, Plba, Vlba};

/// A cached translation plus its FIFO insertion stamp.
#[derive(Debug, Clone, Copy)]
struct IndexedEntry {
    extent: ExtentMapping,
    stamp: u64,
}

/// One function's entries, sorted by `(extent.logical, stamp)`.
#[derive(Debug, Clone, Default)]
struct FuncEntries {
    entries: Vec<IndexedEntry>,
    /// Longest extent ever held for this function — bounds the leftward
    /// stab scan during lookup (an extent can only cover `vlba` if it
    /// starts within `max_len` blocks before it).
    max_len: u64,
}

impl FuncEntries {
    /// Index of the first entry with `logical >= key` (ties: any).
    fn partition(&self, key: Vlba) -> usize {
        self.entries.partition_point(|e| e.extent.logical < key)
    }

    /// Oldest entry containing `vlba`, matching the insertion-order lookup
    /// of the historical linear scan.
    fn find(&self, vlba: Vlba) -> Option<&IndexedEntry> {
        let upper = self.entries.partition_point(|e| e.extent.logical <= vlba);
        let mut best: Option<&IndexedEntry> = None;
        for e in self.entries[..upper].iter().rev() {
            if vlba.distance_from(e.extent.logical) >= self.max_len {
                break; // nothing further left can reach vlba
            }
            if e.extent.contains(vlba) && best.is_none_or(|b| e.stamp < b.stamp) {
                best = Some(e);
            }
        }
        best
    }
}

/// Fixed-capacity, FIFO-evicting extent cache.
///
/// # Example
///
/// ```
/// use nesc_core::Btlb;
/// use nesc_extent::{ExtentMapping, Vlba, Plba};
///
/// let mut btlb = Btlb::new(2);
/// btlb.insert(0, ExtentMapping::new(Vlba(0), Plba(100), 8));
/// assert_eq!(btlb.lookup(0, Vlba(5)), Some(Plba(105)));
/// assert_eq!(btlb.lookup(1, Vlba(5)), None); // other functions never hit
/// ```
#[derive(Debug, Clone, Default)]
pub struct Btlb {
    /// Struct-of-arrays per-function buckets, indexed by dense function
    /// id; grown on first insert for a function.
    index: Vec<FuncEntries>,
    /// FIFO of `(func, stamp, logical)` in insertion order. Entries removed
    /// by `flush_func`/`flush_all` stay here as tombstones; eviction skips
    /// stamps that no longer exist in the index.
    fifo: VecDeque<(u16, u64, Vlba)>,
    capacity: usize,
    live: usize,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    probe_hits: u64,
    probe_misses: u64,
    blocks_covered: u64,
}

impl Btlb {
    /// Creates a BTLB with `capacity` entries. A capacity of zero is
    /// allowed (the BTLB-ablation configuration: every lookup misses).
    pub fn new(capacity: usize) -> Self {
        Btlb {
            capacity,
            ..Btlb::default()
        }
    }

    /// Looks up `vlba` for function `func`; returns the physical block on a
    /// hit and records hit/miss statistics for one block.
    pub fn lookup(&mut self, func: u16, vlba: Vlba) -> Option<Plba> {
        self.lookup_run(func, vlba, 1).map(|(plba, _)| plba)
    }

    /// Looks up `vlba` for function `func` and, on a hit, also reports how
    /// many blocks (capped at `max_blocks`) the cached extent covers from
    /// `vlba` on — the run the device may serve from this single probe.
    ///
    /// Statistics: exactly one probe and one legacy block (`hits` or
    /// `misses`) are recorded, as if a single-block [`Btlb::lookup`] had
    /// run. When the caller actually serves extra run blocks from the
    /// result it must say so through [`Btlb::credit_hits`] so legacy
    /// accounting stays per-block.
    pub fn lookup_run(&mut self, func: u16, vlba: Vlba, max_blocks: u64) -> Option<(Plba, u64)> {
        // find() checked containment, so translate() only fails if an
        // entry's extent is inconsistent with its index position — degrade
        // that to a miss (the walk path re-derives the truth).
        let hit = self
            .index
            .get(func as usize)
            .and_then(|fe| fe.find(vlba))
            .and_then(|e| {
                let plba = e.extent.translate(vlba);
                debug_assert!(plba.is_some(), "find() checked containment");
                Some((plba?, e.extent.covered_run(vlba, max_blocks.max(1))))
            });
        match hit {
            Some(found) => {
                self.hits += 1;
                self.probe_hits += 1;
                self.blocks_covered += 1;
                Some(found)
            }
            None => {
                self.misses += 1;
                self.probe_misses += 1;
                None
            }
        }
    }

    /// Whether some cached extent of `func` contains `vlba`, without
    /// touching any statistics. The device uses this to decide if a run's
    /// remaining blocks would still hit after the inserts of a composed
    /// (nested) translation chain.
    pub fn covers(&self, func: u16, vlba: Vlba) -> bool {
        self.covered_at(func, vlba).is_some()
    }

    /// Stat-free probe: the translation the (oldest) cached extent gives
    /// `vlba`, plus how many blocks that extent still covers from `vlba`
    /// on. This is what a [`Btlb::lookup_run`] would return, without
    /// counting — the device's run re-bounding check after a nested
    /// chain's inserts have settled.
    pub fn covered_at(&self, func: u16, vlba: Vlba) -> Option<(Plba, u64)> {
        let e = self.index.get(func as usize)?.find(vlba)?;
        let plba = e.extent.translate(vlba);
        debug_assert!(plba.is_some(), "find() checked containment");
        Some((plba?, e.extent.end_logical().distance_from(vlba)))
    }

    /// Inserts a freshly walked extent, evicting the oldest entry when
    /// full. Duplicate coverage is not inserted twice.
    pub fn insert(&mut self, func: u16, extent: ExtentMapping) {
        if self.capacity == 0 {
            return;
        }
        if self.index.len() <= func as usize {
            self.index
                .resize_with(func as usize + 1, FuncEntries::default);
        }
        let fe = &self.index[func as usize];
        let pos = fe.partition(extent.logical);
        // Duplicate check: equal extents share a start, so they sit in the
        // contiguous equal-logical range at `pos`.
        let dup = fe.entries[pos..]
            .iter()
            .take_while(|e| e.extent.logical == extent.logical)
            .any(|e| e.extent == extent);
        if dup {
            return;
        }
        if self.live == self.capacity {
            self.evict_oldest();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let fe = &mut self.index[func as usize];
        // Re-derive the slot: eviction may have shifted this bucket.
        let pos = fe.partition(extent.logical);
        let pos = pos
            + fe.entries[pos..]
                .iter()
                .take_while(|e| e.extent.logical == extent.logical)
                .count();
        fe.entries.insert(pos, IndexedEntry { extent, stamp });
        fe.max_len = fe.max_len.max(extent.len);
        self.fifo.push_back((func, stamp, extent.logical));
        self.live += 1;
    }

    /// Removes the oldest live entry (skipping tombstones left by flushes).
    fn evict_oldest(&mut self) {
        while let Some((func, stamp, logical)) = self.fifo.pop_front() {
            let Some(fe) = self.index.get_mut(func as usize) else {
                continue; // function flushed wholesale
            };
            let start = fe.partition(logical);
            let victim = fe.entries[start..]
                .iter()
                .take_while(|e| e.extent.logical == logical)
                .position(|e| e.stamp == stamp);
            if let Some(off) = victim {
                fe.entries.remove(start + off);
                self.live -= 1;
                return;
            }
            // Stale stamp (entry flushed); keep draining.
        }
        // The FIFO drained without finding a live victim — the live count
        // is out of sync with the index. The insert that asked for the
        // eviction still proceeds; the cache merely runs one entry over
        // its nominal capacity.
        debug_assert!(false, "evict_oldest called with live == capacity > 0");
    }

    /// Drops every entry (the PF-initiated global flush). Bucket storage
    /// is retained for reuse.
    pub fn flush_all(&mut self) {
        for fe in &mut self.index {
            fe.entries.clear();
            fe.max_len = 0;
        }
        self.fifo.clear();
        self.live = 0;
    }

    /// Drops one function's entries (tree-root replacement). One bucket
    /// emptied in place; the FIFO keeps tombstones that eviction skips
    /// lazily.
    pub fn flush_func(&mut self, func: u16) {
        if let Some(fe) = self.index.get_mut(func as usize) {
            self.live -= fe.entries.len();
            fe.entries.clear();
            fe.max_len = 0;
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Configured entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime per-block hit count (run blocks served from one probe are
    /// credited individually, matching the historical per-block lookup).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime per-block miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime probe count that hit (one per `lookup`/`lookup_run` call).
    pub fn probe_hits(&self) -> u64 {
        self.probe_hits
    }

    /// Lifetime probe count that missed.
    pub fn probe_misses(&self) -> u64 {
        self.probe_misses
    }

    /// Total blocks served by cached extents, including run blocks the
    /// device credited after a batched probe or walk.
    pub fn blocks_covered(&self) -> u64 {
        self.blocks_covered
    }

    /// Credits `n` extra blocks served from an earlier probe or walk — the
    /// blocks that, under per-block translation, would each have been a
    /// BTLB hit. Keeps `hits()`/`hit_rate()` per-block comparable.
    pub fn credit_hits(&mut self, n: u64) {
        self.hits += n;
        self.blocks_covered += n;
    }

    /// Credits `n` extra blocks of a batched *uncached* span (e.g. a hole
    /// run walked once) — blocks that per-block translation would each
    /// have counted as a miss.
    pub fn credit_misses(&mut self, n: u64) {
        self.misses += n;
    }

    /// Hit fraction over all per-block lookups (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ext(l: u64, p: u64, n: u64) -> ExtentMapping {
        ExtentMapping::new(Vlba(l), Plba(p), n)
    }

    #[test]
    fn fifo_eviction() {
        let mut b = Btlb::new(2);
        b.insert(0, ext(0, 100, 1));
        b.insert(0, ext(10, 200, 1));
        b.insert(0, ext(20, 300, 1)); // evicts the (0,100) entry
        assert_eq!(b.lookup(0, Vlba(0)), None);
        assert_eq!(b.lookup(0, Vlba(10)), Some(Plba(200)));
        assert_eq!(b.lookup(0, Vlba(20)), Some(Plba(300)));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn covered_at_reports_the_rest_of_the_extent_without_counting() {
        let mut b = Btlb::new(4);
        b.insert(1, ext(10, 500, 8));
        assert_eq!(b.covered_at(1, Vlba(10)), Some((Plba(500), 8)));
        assert_eq!(b.covered_at(1, Vlba(13)), Some((Plba(503), 5)));
        assert_eq!(b.covered_at(1, Vlba(17)), Some((Plba(507), 1)));
        assert_eq!(b.covered_at(1, Vlba(18)), None);
        assert_eq!(b.covered_at(0, Vlba(13)), None, "another function's tree");
        assert_eq!(b.covered_at(9, Vlba(13)), None, "a function never seen");
        assert!(b.covers(1, Vlba(12)));
        assert_eq!((b.hits(), b.misses()), (0, 0));
        // It agrees with the counting probe, uncapped.
        assert_eq!(
            b.lookup_run(1, Vlba(13), u64::MAX),
            b.covered_at(1, Vlba(13))
        );
    }

    #[test]
    fn fifo_eviction_order_across_functions_and_flushes() {
        // Regression for the indexed representation: FIFO age is global
        // across functions, and flush_func tombstones must not change
        // which entry is "oldest".
        let mut b = Btlb::new(3);
        b.insert(0, ext(0, 100, 1)); // age 0
        b.insert(1, ext(0, 200, 1)); // age 1
        b.insert(0, ext(10, 300, 1)); // age 2
        b.flush_func(1); // tombstone for age 1
        b.insert(2, ext(0, 400, 1)); // fills the freed slot, age 3
        b.insert(2, ext(10, 500, 1)); // full -> evicts age 0 (func 0, vlba 0)
        assert_eq!(b.lookup(0, Vlba(0)), None, "oldest entry must be evicted");
        assert_eq!(b.lookup(0, Vlba(10)), Some(Plba(300)));
        assert_eq!(b.lookup(2, Vlba(0)), Some(Plba(400)));
        assert_eq!(b.lookup(2, Vlba(10)), Some(Plba(500)));
        // Next eviction skips the flushed func-1 tombstone and takes age 2.
        b.insert(3, ext(0, 600, 1));
        assert_eq!(b.lookup(0, Vlba(10)), None);
        assert_eq!(b.lookup(3, Vlba(0)), Some(Plba(600)));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn per_function_isolation() {
        let mut b = Btlb::new(8);
        b.insert(3, ext(0, 500, 4));
        assert_eq!(b.lookup(3, Vlba(2)), Some(Plba(502)));
        assert_eq!(b.lookup(4, Vlba(2)), None);
        b.flush_func(3);
        assert_eq!(b.lookup(3, Vlba(2)), None);
        assert!(b.is_empty());
    }

    #[test]
    fn flush_all_clears() {
        let mut b = Btlb::new(8);
        b.insert(0, ext(0, 1, 1));
        b.insert(1, ext(0, 2, 1));
        b.flush_all();
        assert!(b.is_empty());
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut b = Btlb::new(0);
        b.insert(0, ext(0, 1, 100));
        assert_eq!(b.lookup(0, Vlba(0)), None);
        assert_eq!(b.hits(), 0);
        assert_eq!(b.misses(), 1);
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut b = Btlb::new(4);
        b.insert(0, ext(0, 1, 4));
        b.insert(0, ext(0, 1, 4));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut b = Btlb::new(4);
        assert_eq!(b.hit_rate(), 0.0);
        b.insert(0, ext(0, 10, 2));
        b.lookup(0, Vlba(0)); // hit
        b.lookup(0, Vlba(1)); // hit
        b.lookup(0, Vlba(2)); // miss
        assert_eq!(b.hits(), 2);
        assert_eq!(b.misses(), 1);
        assert!((b.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lookup_run_reports_coverage_and_counts_one_probe() {
        let mut b = Btlb::new(4);
        b.insert(0, ext(10, 100, 8));
        assert_eq!(b.lookup_run(0, Vlba(12), 64), Some((Plba(102), 6)));
        assert_eq!(b.lookup_run(0, Vlba(12), 4), Some((Plba(102), 4)));
        assert_eq!(b.lookup_run(0, Vlba(18), 64), None);
        assert_eq!(b.probe_hits(), 2);
        assert_eq!(b.probe_misses(), 1);
        assert_eq!(b.hits(), 2); // one legacy block per probe
        assert_eq!(b.misses(), 1);
        assert_eq!(b.blocks_covered(), 2);
        // The device serves 5 more blocks from the first probe's run.
        b.credit_hits(5);
        assert_eq!(b.hits(), 7);
        assert_eq!(b.blocks_covered(), 7);
        b.credit_misses(3);
        assert_eq!(b.misses(), 4);
    }

    #[test]
    fn covers_is_stat_free() {
        let mut b = Btlb::new(4);
        b.insert(0, ext(0, 10, 4));
        assert!(b.covers(0, Vlba(3)));
        assert!(!b.covers(0, Vlba(4)));
        assert!(!b.covers(1, Vlba(0)));
        assert_eq!(b.hits() + b.misses(), 0);
        assert_eq!(b.probe_hits() + b.probe_misses(), 0);
    }

    /// Reference model: the historical Vec-of-entries implementation, used
    /// to pin the indexed rewrite to the exact old semantics.
    #[derive(Default)]
    struct ModelBtlb {
        entries: Vec<(u16, ExtentMapping)>,
        capacity: usize,
        hits: u64,
        misses: u64,
    }

    impl ModelBtlb {
        fn new(capacity: usize) -> Self {
            ModelBtlb {
                capacity,
                ..ModelBtlb::default()
            }
        }
        fn lookup(&mut self, func: u16, vlba: Vlba) -> Option<Plba> {
            match self
                .entries
                .iter()
                .find(|(f, e)| *f == func && e.contains(vlba))
            {
                Some((_, e)) => {
                    self.hits += 1;
                    e.translate(vlba)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }
        fn insert(&mut self, func: u16, extent: ExtentMapping) {
            if self.capacity == 0 {
                return;
            }
            if self.entries.iter().any(|(f, e)| *f == func && *e == extent) {
                return;
            }
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((func, extent));
        }
        fn flush_func(&mut self, func: u16) {
            self.entries.retain(|(f, _)| *f != func);
        }
    }

    proptest! {
        /// Under arbitrary interleavings of inserts, lookups, and per-func
        /// flushes, the indexed BTLB reports the same lengths, the same
        /// legacy hit/miss counters, and hits only where the historical
        /// linear-scan implementation hit.
        #[test]
        fn prop_indexed_btlb_matches_linear_model(
            capacity in 0usize..6,
            ops in proptest::collection::vec(
                (0u8..8, 0u16..3, 0u64..120, 0u64..500, 1u64..16),
                1..120,
            ),
        ) {
            let mut b = Btlb::new(capacity);
            let mut m = ModelBtlb::new(capacity);
            for &(kind, f, l, p, n) in &ops {
                match kind {
                    0..=2 => {
                        let e = ext(l, p, n);
                        b.insert(f, e);
                        m.insert(f, e);
                    }
                    3 => {
                        b.flush_func(f);
                        m.flush_func(f);
                    }
                    _ => {
                        let got = b.lookup(f, Vlba(l));
                        let want = m.lookup(f, Vlba(l));
                        // Overlapping same-func extents are tie-broken by
                        // age in both; results must agree exactly.
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(b.len(), m.entries.len());
            }
            prop_assert_eq!(b.hits(), m.hits);
            prop_assert_eq!(b.misses(), m.misses);
        }
    }

    proptest! {
        /// The BTLB never returns a translation that differs from the
        /// extent it was given — a cache can go stale only by explicit
        /// invalidation bugs, never corrupt.
        #[test]
        fn prop_translations_faithful(
            inserts in proptest::collection::vec((0u16..4, 0u64..1000, 0u64..1000, 1u64..64), 1..40),
            probes in proptest::collection::vec((0u16..4, 0u64..1100), 1..60),
        ) {
            let mut b = Btlb::new(8);
            let mut reference: Vec<(u16, ExtentMapping)> = Vec::new();
            for &(f, l, p, n) in &inserts {
                let e = ext(l, p, n);
                b.insert(f, e);
                reference.push((f, e));
            }
            for &(f, v) in &probes {
                if let Some(plba) = b.lookup(f, Vlba(v)) {
                    // Some inserted extent for this function justifies it.
                    let justified = reference
                        .iter()
                        .any(|&(rf, re)| rf == f && re.translate(Vlba(v)) == Some(plba));
                    prop_assert!(justified, "unjustified hit {:?} for func {}", plba, f);
                }
            }
        }
    }
}
