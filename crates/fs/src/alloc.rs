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

/// Word-packed bitmap allocator over a fixed pool of blocks.
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

    fn set(&mut self, b: u64) {
        self.words[(b / 64) as usize] |= 1 << (b % 64);
    }

    fn clear(&mut self, b: u64) {
        self.words[(b / 64) as usize] &= !(1 << (b % 64));
    }

    /// Marks a specific run as allocated (journal replay / format-time
    /// reservations). Out-of-range or already-set blocks (contract
    /// violations: reservations come from the journal we wrote) are
    /// skipped, keeping the free count consistent with the bitmap.
    pub fn reserve(&mut self, run: Run) {
        for b in run.start.0..run.start.0 + run.len {
            debug_assert!(b < self.capacity, "reserve beyond capacity");
            if b >= self.capacity {
                continue;
            }
            debug_assert!(!self.is_set(b), "double reservation of block {b}");
            if !self.is_set(b) {
                self.set(b);
                self.free = self.free.saturating_sub(1);
            }
        }
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
            for b in run.start.0..run.start.0 + run.len {
                self.set(b);
            }
            self.free -= run.len;
            remaining -= run.len;
            search_from = run.start.0 + run.len;
            self.cursor = (run.start.0 + run.len) % self.capacity;
            runs.push(run);
        }
        Ok(runs)
    }

    /// Finds the longest free run starting at or (wrapping) after `from`,
    /// capped at `max_len`; prefers the *first* run found (next-fit).
    fn find_run(&self, from: u64, max_len: u64) -> Option<Run> {
        let mut idx = from % self.capacity;
        let mut scanned = 0u64;
        while scanned < self.capacity {
            if !self.is_set(idx) {
                // Extend the run.
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
            scanned += 1;
            if idx == 0 {
                // Wrapped; continue scanning from the top.
            }
        }
        None
    }

    /// Frees a previously allocated run. Out-of-range or already-free
    /// blocks (contract violations: runs come from the extent maps we
    /// maintain) are skipped, keeping the free count consistent with the
    /// bitmap.
    pub fn free(&mut self, run: Run) {
        for b in run.start.0..run.start.0 + run.len {
            debug_assert!(b < self.capacity, "free beyond capacity");
            if b >= self.capacity {
                continue;
            }
            debug_assert!(self.is_set(b), "double free of block {b}");
            if self.is_set(b) {
                self.clear(b);
                self.free = (self.free + 1).min(self.capacity);
            }
        }
    }

    /// Whether a specific block is allocated.
    pub fn is_allocated(&self, b: Plba) -> bool {
        b.0 < self.capacity && self.is_set(b.0)
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
    }
}
