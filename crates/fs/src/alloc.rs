//! Bitmap block allocator.
//!
//! Serves contiguous runs of physical blocks with a *goal* hint, like
//! ext4's multi-block allocator: a file appending near physical block `g`
//! asks for blocks at goal `g` and usually gets the adjacent run, which is
//! what keeps per-file extent counts low and NeSC's trees shallow.

use nesc_extent::Plba;

/// A run of contiguous physical blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First block of the run.
    pub start: Plba,
    /// Number of blocks.
    pub len: u64,
}

impl Run {
    /// A run covering the first `len` blocks of the device — the shape a
    /// mkfs metadata reservation takes. Minting the physical address here
    /// keeps callers out of the `Plba` constructor.
    pub fn prefix(len: u64) -> Run {
        Run {
            start: Plba(0),
            len,
        }
    }
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free blocks on the device.
    NoSpace {
        /// Blocks requested.
        requested: u64,
        /// Blocks currently free.
        free: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NoSpace { requested, free } => {
                write!(f, "out of space: requested {requested} blocks, {free} free")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Word-packed bitmap allocator over a fixed pool of blocks. Searches,
/// allocations and frees work a 64-bit word at a time: a free block is
/// found with `trailing_zeros`, and a run is set or cleared with one mask
/// per word it spans.
///
/// # Example
///
/// ```
/// use nesc_fs::BitmapAllocator;
/// let mut a = BitmapAllocator::new(1000);
/// let runs = a.allocate(10, None).unwrap();
/// assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), 10);
/// assert_eq!(a.free_blocks(), 990);
/// for r in runs { a.free(r); }
/// assert_eq!(a.free_blocks(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct BitmapAllocator {
    words: Vec<u64>,
    capacity: u64,
    free: u64,
    /// Where the next goal-less search starts (next-fit).
    cursor: u64,
}

impl BitmapAllocator {
    /// Creates an allocator over `capacity` blocks, all free. A zero
    /// capacity (a contract violation) is widened to one block.
    pub fn new(capacity: u64) -> Self {
        debug_assert!(capacity > 0, "allocator needs at least one block");
        let capacity = capacity.max(1);
        BitmapAllocator {
            words: vec![0u64; capacity.div_ceil(64) as usize],
            capacity,
            free: capacity,
            cursor: 0,
        }
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Currently free blocks.
    pub fn free_blocks(&self) -> u64 {
        self.free
    }

    fn is_set(&self, b: u64) -> bool {
        self.words[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    /// Marks a specific run as allocated (journal replay / format-time
    /// reservations). Out-of-range or already-set blocks (contract
    /// violations: reservations come from the journal we wrote) are
    /// skipped, keeping the free count consistent with the bitmap.
    pub fn reserve(&mut self, run: Run) {
        let end = run.start.0.saturating_add(run.len);
        for (w, mask) in word_masks(run.start.0, end.min(self.capacity)) {
            let word = &mut self.words[w];
            debug_assert!(
                *word & mask == 0,
                "double reservation of block {}",
                w as u64 * 64 + u64::from((*word & mask).trailing_zeros())
            );
            let newly = mask & !*word;
            *word |= mask;
            self.free = self.free.saturating_sub(u64::from(newly.count_ones()));
        }
        debug_assert!(end <= self.capacity, "reserve beyond capacity");
    }

    /// Allocates `count` blocks, preferring a contiguous run at `goal`.
    /// Returns one or more runs that together cover exactly `count` blocks;
    /// a single run whenever contiguous space exists.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoSpace`] (allocating nothing) if fewer than `count`
    /// blocks are free.
    ///
    /// A zero `count` (a contract violation: the write paths round byte
    /// ranges up to covering blocks) allocates nothing.
    pub fn allocate(&mut self, count: u64, goal: Option<Plba>) -> Result<Vec<Run>, AllocError> {
        debug_assert!(count > 0, "cannot allocate zero blocks");
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > self.free {
            return Err(AllocError::NoSpace {
                requested: count,
                free: self.free,
            });
        }
        let mut runs = Vec::new();
        let mut remaining = count;
        let mut search_from = goal
            .map(|g| g.0.min(self.capacity - 1))
            .unwrap_or(self.cursor);
        while remaining > 0 {
            let Some(run) = self.find_run(search_from, remaining) else {
                // The free count said there was space but the scan found
                // none — the bitmap and counter are out of sync. Roll the
                // partial allocation back and report exhaustion.
                debug_assert!(false, "free count guarantees space");
                for r in runs.drain(..) {
                    self.free(r);
                }
                return Err(AllocError::NoSpace {
                    requested: count,
                    free: self.free,
                });
            };
            let end = run.start.0 + run.len;
            for (w, mask) in word_masks(run.start.0, end) {
                self.words[w] |= mask;
            }
            self.free -= run.len;
            remaining -= run.len;
            search_from = end;
            self.cursor = end % self.capacity;
            runs.push(run);
        }
        Ok(runs)
    }

    /// Finds the longest free run starting at or (wrapping) after `from`,
    /// capped at `max_len`; prefers the *first* run found (next-fit). The
    /// run itself does not wrap: it ends at the first allocated block or
    /// at the end of the pool.
    fn find_run(&self, from: u64, max_len: u64) -> Option<Run> {
        let from = from % self.capacity;
        let start = self
            .first_clear(from, self.capacity)
            .or_else(|| self.first_clear(0, from))?;
        let cap = start.saturating_add(max_len).min(self.capacity);
        Some(Run {
            start: Plba(start),
            len: self.first_set(start, cap) - start,
        })
    }

    /// The first free block in `[lo, hi)`, if any.
    fn first_clear(&self, lo: u64, hi: u64) -> Option<u64> {
        if lo >= hi {
            return None;
        }
        let mut w = (lo / 64) as usize;
        let mut free = !self.words[w] & (!0 << (lo % 64));
        while free == 0 {
            w += 1;
            if w as u64 * 64 >= hi {
                return None;
            }
            free = !self.words[w];
        }
        // Bits past the capacity read free; `hi` cuts them off.
        Some(w as u64 * 64 + u64::from(free.trailing_zeros())).filter(|&b| b < hi)
    }

    /// The first allocated block in `[lo, hi)`, or `hi` if there is none.
    fn first_set(&self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return hi;
        }
        let mut w = (lo / 64) as usize;
        let mut used = self.words[w] & (!0 << (lo % 64));
        while used == 0 {
            w += 1;
            if w as u64 * 64 >= hi {
                return hi;
            }
            used = self.words[w];
        }
        (w as u64 * 64 + u64::from(used.trailing_zeros())).min(hi)
    }

    /// Frees a previously allocated run. Out-of-range or already-free
    /// blocks (contract violations: runs come from the extent maps we
    /// maintain) are skipped, keeping the free count consistent with the
    /// bitmap.
    pub fn free(&mut self, run: Run) {
        let end = run.start.0.saturating_add(run.len);
        for (w, mask) in word_masks(run.start.0, end.min(self.capacity)) {
            let word = &mut self.words[w];
            debug_assert!(
                !*word & mask == 0,
                "double free of block {}",
                w as u64 * 64 + u64::from((!*word & mask).trailing_zeros())
            );
            let freed = mask & *word;
            *word &= !mask;
            self.free = (self.free + u64::from(freed.count_ones())).min(self.capacity);
        }
        debug_assert!(end <= self.capacity, "free beyond capacity");
    }

    /// Whether a specific block is allocated.
    pub fn is_allocated(&self, b: Plba) -> bool {
        b.0 < self.capacity && self.is_set(b.0)
    }
}

/// The `(word index, bit mask)` pairs covering blocks `[lo, hi)`, one
/// per bitmap word the range touches.
fn word_masks(lo: u64, hi: u64) -> impl Iterator<Item = (usize, u64)> {
    let mut b = lo;
    std::iter::from_fn(move || {
        if b >= hi {
            return None;
        }
        let (w, off) = (b / 64, b % 64);
        let n = (hi - b).min(64 - off);
        b += n;
        Some((w as usize, (!0 >> (64 - n)) << off))
    })
}

/// The bit-at-a-time allocator the word-level one replaced, kept as the
/// model its differential tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{AllocError, Plba, Run};

    /// One bit per loop step: the same runs, cursor and free count.
    #[derive(Debug, Clone)]
    pub(crate) struct BitAllocator {
        bits: Vec<bool>,
        capacity: u64,
        free: u64,
        cursor: u64,
    }

    impl BitAllocator {
        pub(crate) fn new(capacity: u64) -> Self {
            let capacity = capacity.max(1);
            BitAllocator {
                bits: vec![false; capacity as usize],
                capacity,
                free: capacity,
                cursor: 0,
            }
        }

        pub(crate) fn free_blocks(&self) -> u64 {
            self.free
        }

        fn is_set(&self, b: u64) -> bool {
            self.bits[b as usize]
        }

        pub(crate) fn reserve(&mut self, run: Run) {
            for b in run.start.0..run.start.0 + run.len {
                if b < self.capacity && !self.is_set(b) {
                    self.bits[b as usize] = true;
                    self.free = self.free.saturating_sub(1);
                }
            }
        }

        pub(crate) fn allocate(
            &mut self,
            count: u64,
            goal: Option<Plba>,
        ) -> Result<Vec<Run>, AllocError> {
            if count == 0 {
                return Ok(Vec::new());
            }
            if count > self.free {
                return Err(AllocError::NoSpace {
                    requested: count,
                    free: self.free,
                });
            }
            let mut runs = Vec::new();
            let mut remaining = count;
            let mut search_from = goal
                .map(|g| g.0.min(self.capacity - 1))
                .unwrap_or(self.cursor);
            while remaining > 0 {
                let run = self
                    .find_run(search_from, remaining)
                    .expect("free count guarantees space");
                for b in run.start.0..run.start.0 + run.len {
                    self.bits[b as usize] = true;
                }
                self.free -= run.len;
                remaining -= run.len;
                search_from = run.start.0 + run.len;
                self.cursor = (run.start.0 + run.len) % self.capacity;
                runs.push(run);
            }
            Ok(runs)
        }

        fn find_run(&self, from: u64, max_len: u64) -> Option<Run> {
            let mut idx = from % self.capacity;
            for _ in 0..self.capacity {
                if !self.is_set(idx) {
                    let start = idx;
                    let mut len = 0;
                    while len < max_len && idx < self.capacity && !self.is_set(idx) {
                        len += 1;
                        idx += 1;
                    }
                    return Some(Run {
                        start: Plba(start),
                        len,
                    });
                }
                idx = (idx + 1) % self.capacity;
            }
            None
        }

        pub(crate) fn free(&mut self, run: Run) {
            for b in run.start.0..run.start.0 + run.len {
                if b < self.capacity && self.is_set(b) {
                    self.bits[b as usize] = false;
                    self.free = (self.free + 1).min(self.capacity);
                }
            }
        }

        pub(crate) fn is_allocated(&self, b: Plba) -> bool {
            b.0 < self.capacity && self.is_set(b.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocates_contiguously_when_possible() {
        let mut a = BitmapAllocator::new(100);
        let runs = a.allocate(50, None).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 50);
    }

    #[test]
    fn goal_hint_extends_file() {
        let mut a = BitmapAllocator::new(100);
        let first = a.allocate(10, None).unwrap()[0];
        let next = a
            .allocate(10, Some(Plba(first.start.0 + first.len)))
            .unwrap();
        assert_eq!(next[0].start, Plba(first.start.0 + first.len));
    }

    #[test]
    fn fragmentation_yields_multiple_runs() {
        let mut a = BitmapAllocator::new(30);
        let all = a.allocate(30, None).unwrap();
        assert_eq!(all.len(), 1);
        // Free two disjoint holes.
        a.free(Run {
            start: Plba(5),
            len: 3,
        });
        a.free(Run {
            start: Plba(20),
            len: 4,
        });
        let runs = a.allocate(7, Some(Plba(0))).unwrap();
        assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), 7);
        assert!(runs.len() >= 2);
    }

    #[test]
    fn no_space_reported() {
        let mut a = BitmapAllocator::new(10);
        a.allocate(10, None).unwrap();
        let err = a.allocate(1, None).unwrap_err();
        assert_eq!(
            err,
            AllocError::NoSpace {
                requested: 1,
                free: 0
            }
        );
        assert!(err.to_string().contains("out of space"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = BitmapAllocator::new(10);
        let r = a.allocate(2, None).unwrap()[0];
        a.free(r);
        a.free(r);
    }

    #[test]
    fn reserve_marks_blocks() {
        let mut a = BitmapAllocator::new(64);
        a.reserve(Run {
            start: Plba(0),
            len: 8,
        });
        assert!(a.is_allocated(Plba(0)));
        assert!(!a.is_allocated(Plba(8)));
        assert_eq!(a.free_blocks(), 56);
        // Next allocation avoids the reserved region.
        let r = a.allocate(8, Some(Plba(0))).unwrap();
        assert!(r[0].start.0 >= 8);
    }

    /// Capacities at and around word boundaries, plus a pool of many words
    /// that does not end on one.
    const CAPACITIES: [u64; 6] = [1, 63, 64, 65, 129, 1000];

    /// Drives the word-level allocator and the bit-at-a-time model through
    /// one sequence of `(op, a, b)` steps and requires the same runs, free
    /// count and bitmap after every step. `op` picks allocate (with a goal
    /// at 0, at the last block, past the end, random or none), a free of
    /// part of a held run (fragmenting the pool), or a reservation of a
    /// free stretch.
    fn differential(capacity: u64, ops: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
        let (mut ours, mut model) = (
            BitmapAllocator::new(capacity),
            reference::BitAllocator::new(capacity),
        );
        let mut held: Vec<Run> = Vec::new();
        for &(op, a, b) in ops {
            match op % 4 {
                0 | 1 => {
                    let count = 1 + a % capacity.min(80);
                    let goal = match b % 5 {
                        0 => None,
                        1 => Some(Plba(0)),
                        2 => Some(Plba(capacity - 1)),
                        3 => Some(Plba(capacity + b % 7)),
                        _ => Some(Plba(b % capacity)),
                    };
                    let got = ours.allocate(count, goal);
                    prop_assert_eq!(&got, &model.allocate(count, goal));
                    held.extend(got.unwrap_or_default());
                }
                2 if !held.is_empty() => {
                    // Free a sub-run, keeping what is left of it held.
                    let r = held.swap_remove((a % held.len() as u64) as usize);
                    let skip = b % r.len;
                    let len = 1 + (a / 7) % (r.len - skip);
                    let cut = Run {
                        start: Plba(r.start.0 + skip),
                        len,
                    };
                    ours.free(cut);
                    model.free(cut);
                    if skip > 0 {
                        held.push(Run {
                            start: r.start,
                            len: skip,
                        });
                    }
                    if skip + len < r.len {
                        let start = Plba(cut.start.0 + len);
                        held.push(Run {
                            start,
                            len: r.len - skip - len,
                        });
                    }
                }
                _ => {
                    // Reserve a free stretch starting at a random block.
                    let start = a % capacity;
                    let len = (start..capacity)
                        .take(1 + (b % 70) as usize)
                        .take_while(|&x| !model.is_allocated(Plba(x)))
                        .count() as u64;
                    if len > 0 {
                        let r = Run {
                            start: Plba(start),
                            len,
                        };
                        ours.reserve(r);
                        model.reserve(r);
                        held.push(r);
                    }
                }
            }
            prop_assert_eq!(ours.free_blocks(), model.free_blocks());
            for x in 0..capacity + 2 {
                prop_assert_eq!(
                    ours.is_allocated(Plba(x)),
                    model.is_allocated(Plba(x)),
                    "block {}",
                    x
                );
            }
        }
        Ok(())
    }

    #[test]
    fn a_search_wraps_to_the_pool_start_and_a_run_stops_at_its_end() {
        let mut a = BitmapAllocator::new(130);
        a.reserve(Run {
            start: Plba(2),
            len: 126,
        });
        // Free: 0, 1, 128, 129. The search from 129 finds 129, whose run
        // ends at the pool's end; the rest wraps to block 0.
        let runs = a.allocate(3, Some(Plba(129))).unwrap();
        assert_eq!(
            runs,
            vec![
                Run {
                    start: Plba(129),
                    len: 1
                },
                Run {
                    start: Plba(0),
                    len: 2
                }
            ]
        );
        assert_eq!(
            a.allocate(1, Some(Plba(500))).unwrap(),
            vec![Run {
                start: Plba(128),
                len: 1
            }]
        );
        assert_eq!(a.free_blocks(), 0);
    }

    /// Release builds skip out-of-range and repeated frees and
    /// reservations block by block, as the model does.
    #[test]
    #[cfg(not(debug_assertions))]
    fn contract_violations_are_skipped_like_the_model() {
        for capacity in CAPACITIES {
            let (mut ours, mut model) = (
                BitmapAllocator::new(capacity),
                reference::BitAllocator::new(capacity),
            );
            let half = Run {
                start: Plba(capacity / 2),
                len: capacity,
            };
            let all = Run {
                start: Plba(0),
                len: capacity + 70,
            };
            for step in [0, 1, 0, 1, 1, 0] {
                if step == 0 {
                    ours.reserve(half);
                    model.reserve(half);
                    ours.reserve(all);
                    model.reserve(all);
                } else {
                    ours.free(half);
                    model.free(half);
                    ours.free(all);
                    model.free(all);
                }
                assert_eq!(ours.free_blocks(), model.free_blocks());
                for x in 0..capacity + 2 {
                    assert_eq!(ours.is_allocated(Plba(x)), model.is_allocated(Plba(x)));
                }
            }
        }
    }

    proptest! {
        /// Allocate/free in random order: the free count is always
        /// consistent, no block is handed out twice, and everything freed
        /// becomes allocatable again.
        #[test]
        fn prop_alloc_free_consistent(ops in proptest::collection::vec((1u64..20, any::<bool>()), 1..100)) {
            let mut a = BitmapAllocator::new(512);
            let mut held: Vec<Run> = Vec::new();
            let mut owned = std::collections::HashSet::new();
            for &(count, free_one) in &ops {
                if free_one && !held.is_empty() {
                    let r = held.swap_remove(0);
                    for b in r.start.0..r.start.0 + r.len {
                        owned.remove(&b);
                    }
                    a.free(r);
                } else if let Ok(runs) = a.allocate(count, None) {
                    for r in runs {
                        for b in r.start.0..r.start.0 + r.len {
                            prop_assert!(owned.insert(b), "block {} handed out twice", b);
                        }
                        held.push(r);
                    }
                }
                let held_total: u64 = held.iter().map(|r| r.len).sum();
                prop_assert_eq!(a.free_blocks(), 512 - held_total);
            }
        }

        /// The word-level allocator hands out the same runs as the
        /// bit-at-a-time model and leaves the same bitmap and free count,
        /// for every capacity around a word boundary.
        #[test]
        fn prop_word_allocator_matches_the_bit_model(
            ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
        ) {
            for capacity in CAPACITIES {
                differential(capacity, &ops)?;
            }
        }
    }
}
