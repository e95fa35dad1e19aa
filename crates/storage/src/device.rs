//! The device's persistent contents.
//!
//! [`BlockStore`] holds real bytes at block granularity so that isolation
//! and hole-semantics tests can verify actual data movement, not just
//! timing. Like host memory, it is sparse: blocks read as zeros until first
//! written, matching a freshly-initialized device.
//!
//! This is the end of the address pipeline: every API takes [`Plba`] —
//! a *physical* block address that, by the provenance discipline (lint
//! rules T1–T3), can only have come from the allocator, the extent walk,
//! or the PF's identity translation. An untranslated guest vLBA cannot
//! reach the media because nothing here accepts one.

use std::collections::HashMap;
use std::fmt;

use nesc_extent::Plba;
use nesc_sim::IntHashBuilder;

use crate::request::BLOCK_SIZE;

/// Blocks per chunk: the store allocates, maps and copies data in aligned
/// groups of this many blocks (16 KiB). A run of `n` blocks touches at
/// most `⌈n / CHUNK_BLOCKS⌉ + 1` chunks, so it costs that many map probes
/// at most.
const CHUNK_BLOCKS: u64 = 16;

/// Bytes per chunk.
const CHUNK_BYTES: u64 = CHUNK_BLOCKS * BLOCK_SIZE;

/// A chunk's bytes, on a host cache-line boundary, so that a copy
/// between a chunk and a (likewise aligned) host-memory page moves whole
/// lines on both sides (DESIGN.md §15).
#[repr(C, align(64))]
struct ChunkBytes([u8; CHUNK_BYTES as usize]);

/// One aligned group of [`CHUNK_BLOCKS`] blocks: the bytes of all of them
/// in block order, and which of them have ever been written. Bytes of a
/// never-written block are zero.
struct Chunk {
    /// Bit `k` is set once block `k` of the chunk has been written.
    written: u16,
    bytes: Box<ChunkBytes>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            written: 0,
            bytes: Box::new(ChunkBytes([0; CHUNK_BYTES as usize])),
        }
    }

    /// Length of the stretch of blocks starting at `first` (and ending
    /// before `end`) whose written bits all equal block `first`'s, and
    /// whether that stretch is written.
    fn stretch(&self, first: usize, end: usize) -> (usize, bool) {
        let bits = u32::from(self.written) >> first;
        let set = bits & 1 == 1;
        // Bits above the chunk read as unwritten, so a written stretch
        // ends at the chunk's end at the latest.
        let same = if set { !bits } else { bits };
        ((same.trailing_zeros() as usize).min(end - first), set)
    }

    /// Marks blocks `first..end` of the chunk written; returns how many
    /// were not written before.
    fn mark(&mut self, first: usize, end: usize) -> usize {
        let mask = (((1u32 << (end - first)) - 1) << first) as u16;
        let fresh = (mask & !self.written).count_ones() as usize;
        self.written |= mask;
        fresh
    }
}

/// Sparse block-granular storage contents with a fixed capacity.
///
/// Data lives in aligned chunks of 16 blocks (16 KiB), allocated on
/// first write: a chunk holds its blocks' bytes contiguously plus a
/// written bitmap, so a block is still "never written" (reads as zeros,
/// [`block`](BlockStore::block) gives `None`) until a write covers it,
/// even inside an allocated chunk.
///
/// # Example
///
/// ```
/// use nesc_storage::{BlockStore, BLOCK_SIZE};
/// use nesc_extent::Plba;
/// let mut store = BlockStore::new(1024); // 1 MiB device
/// store.write_block(Plba(5), &vec![0xAA; BLOCK_SIZE as usize]).unwrap();
/// let data = store.read_block(Plba(5)).unwrap();
/// assert!(data.iter().all(|&b| b == 0xAA));
/// assert!(store.read_block(Plba(9999)).is_err()); // beyond capacity
/// ```
pub struct BlockStore {
    // One lookup per chunk a run touches; keyed by chunk index with a
    // cheap deterministic integer hasher for the same reason as host
    // memory's page map.
    chunks: HashMap<u64, Chunk, IntHashBuilder>,
    /// Blocks written at least once, across all chunks.
    resident: usize,
    capacity_blocks: u64,
    /// One past the last valid physical block; cached so range checks are
    /// typed comparisons instead of repeated re-derivations.
    end: Plba,
    /// Inclusive bounds of every block ever written (`None` while the
    /// store is pristine). Blocks are never deleted, so the bounds only
    /// widen — a constant-time conservative residency filter for the
    /// batched read path ([`maybe_written_in`](BlockStore::maybe_written_in)).
    written_bounds: Option<(Plba, Plba)>,
}

impl fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockStore")
            .field("capacity_blocks", &self.capacity_blocks)
            .field("resident_blocks", &self.resident)
            .finish()
    }
}

/// Error accessing the block store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The address is at or beyond the device capacity.
    OutOfRange {
        /// Offending block address.
        lba: Plba,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// A write buffer was not exactly one block long.
    BadLength {
        /// Provided length in bytes.
        len: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OutOfRange { lba, capacity } => {
                write!(f, "block {lba} out of range (capacity {capacity} blocks)")
            }
            StoreError::BadLength { len } => {
                write!(f, "write buffer is {len} bytes, expected {BLOCK_SIZE}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// The chunk holding `lba` and the block's index within it.
fn locate(lba: Plba) -> (u64, usize) {
    let byte = lba.byte_offset();
    (
        byte / CHUNK_BYTES,
        ((byte % CHUNK_BYTES) / BLOCK_SIZE) as usize,
    )
}

/// Byte range of blocks `first..end` within a chunk.
fn byte_span(first: usize, end: usize) -> std::ops::Range<usize> {
    let bs = BLOCK_SIZE as usize;
    first * bs..end * bs
}

impl BlockStore {
    /// Creates an empty store of `capacity_blocks` 1 KiB blocks. A zero
    /// capacity (a contract violation) is widened to one block.
    pub fn new(capacity_blocks: u64) -> Self {
        debug_assert!(capacity_blocks > 0, "device needs at least one block");
        BlockStore {
            chunks: HashMap::default(),
            resident: 0,
            capacity_blocks: capacity_blocks.max(1),
            // nesc-lint::allow(T2): the media edge *defines* the physical
            // space — device geometry is where pLBAs originate, not a
            // translation that could be skipped.
            end: Plba(capacity_blocks),
            written_bounds: None,
        }
    }

    /// Widens the written bounds to include `first..=last`.
    fn note_written(&mut self, first: Plba, last: Plba) {
        self.written_bounds = Some(match self.written_bounds {
            None => (first, last),
            Some((lo, hi)) => (lo.min(first), hi.max(last)),
        });
    }

    /// Device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_blocks * BLOCK_SIZE
    }

    /// How many blocks lie between `lba` (inclusive) and the end of the
    /// device — zero when `lba` is at or beyond capacity. Run-sizing
    /// callers clamp transfers with this instead of unwrapping addresses.
    pub fn blocks_until_end(&self, lba: Plba) -> u64 {
        if lba >= self.end {
            0
        } else {
            self.end.distance_from(lba)
        }
    }

    /// Reads one block; unwritten blocks read as zeros.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] if `lba` is beyond capacity.
    pub fn read_block(&self, lba: Plba) -> Result<Vec<u8>, StoreError> {
        let mut out = vec![0u8; BLOCK_SIZE as usize];
        self.read_range(lba, 1, &mut out)?;
        Ok(out)
    }

    /// Writes one block.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] if `lba` is beyond capacity;
    /// [`StoreError::BadLength`] if `data` is not exactly one block.
    pub fn write_block(&mut self, lba: Plba, data: &[u8]) -> Result<(), StoreError> {
        self.check(lba)?;
        if data.len() != BLOCK_SIZE as usize {
            return Err(StoreError::BadLength { len: data.len() });
        }
        self.write_range(lba, data)
    }

    /// Reads `blocks` consecutive blocks starting at `lba` into `out`,
    /// which must be exactly `blocks * BLOCK_SIZE` bytes. Unwritten blocks
    /// read as zeros.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] naming the first out-of-range block if the
    /// range crosses capacity (nothing is read); [`StoreError::BadLength`]
    /// if `out` has the wrong size.
    pub fn read_range(&self, lba: Plba, blocks: u64, out: &mut [u8]) -> Result<(), StoreError> {
        self.check_range(lba, blocks)?;
        if out.len() as u64 != blocks * BLOCK_SIZE {
            return Err(StoreError::BadLength { len: out.len() });
        }
        self.read_run(lba, blocks, |first, n, data| {
            let dst = &mut out[byte_span(first as usize, (first + n) as usize)];
            match data {
                Some(src) => dst.copy_from_slice(src),
                None => dst.fill(0),
            }
        })
    }

    /// Writes `data` (a whole number of blocks) at consecutive addresses
    /// starting at `lba`.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] naming the first out-of-range block if the
    /// range crosses capacity (nothing is written); [`StoreError::BadLength`]
    /// if `data` is empty or not block-aligned.
    pub fn write_range(&mut self, lba: Plba, data: &[u8]) -> Result<(), StoreError> {
        let bs = BLOCK_SIZE as usize;
        if data.is_empty() || !data.len().is_multiple_of(bs) {
            return Err(StoreError::BadLength { len: data.len() });
        }
        let blocks = (data.len() / bs) as u64;
        self.write_run(lba, blocks, |first, dst| {
            let at = first as usize * bs;
            dst.copy_from_slice(&data[at..at + dst.len()]);
        })
    }

    /// Reads `blocks` consecutive blocks starting at `lba` as spans: calls
    /// `f(first, n, data)` for each maximal stretch of blocks inside one
    /// chunk that are all written (`data` is their `n * BLOCK_SIZE`
    /// contiguous bytes) or all never written (`data` is `None`; they read
    /// as zeros), in address order. `first` counts blocks from `lba`.
    /// One map probe per chunk the run touches.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] naming the first out-of-range block if the
    /// range crosses capacity (`f` is not called).
    pub fn read_run(
        &self,
        lba: Plba,
        blocks: u64,
        mut f: impl FnMut(u64, u64, Option<&[u8]>),
    ) -> Result<(), StoreError> {
        self.check_range(lba, blocks)?;
        let (mut chunk, mut first) = locate(lba);
        let mut done = 0u64;
        while done < blocks {
            let end = (first as u64 + blocks - done).min(CHUNK_BLOCKS) as usize;
            match self.chunks.get(&chunk) {
                None => f(done, (end - first) as u64, None),
                Some(c) => {
                    let mut k = first;
                    while k < end {
                        let (n, written) = c.stretch(k, end);
                        let at = done + (k - first) as u64;
                        let data = written.then(|| &c.bytes.0[byte_span(k, k + n)]);
                        f(at, n as u64, data);
                        k += n;
                    }
                }
            }
            done += (end - first) as u64;
            chunk += 1;
            first = 0;
        }
        Ok(())
    }

    /// Writes `blocks` consecutive blocks starting at `lba` in place: marks
    /// them written and calls `f(first, dst)` with each chunk's contiguous
    /// destination bytes for them, in address order (`first` counts blocks
    /// from `lba`). The caller must fill every byte of every `dst`, as a
    /// [`write_range`](BlockStore::write_range) of the run would. One map
    /// probe per chunk the run touches.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] naming the first out-of-range block if the
    /// range crosses capacity (nothing is written, `f` is not called).
    pub fn write_run(
        &mut self,
        lba: Plba,
        blocks: u64,
        mut f: impl FnMut(u64, &mut [u8]),
    ) -> Result<(), StoreError> {
        self.check_range(lba, blocks)?;
        self.note_written(lba, lba.offset(blocks - 1));
        let (mut chunk, mut first) = locate(lba);
        let mut done = 0u64;
        while done < blocks {
            let end = (first as u64 + blocks - done).min(CHUNK_BLOCKS) as usize;
            let c = self.chunks.entry(chunk).or_insert_with(Chunk::new);
            self.resident += c.mark(first, end);
            f(done, &mut c.bytes.0[byte_span(first, end)]);
            done += (end - first) as u64;
            chunk += 1;
            first = 0;
        }
        Ok(())
    }

    /// Borrows one block's bytes, or `None` if the block has never been
    /// written (it reads as zeros) or lies beyond capacity.
    pub fn block(&self, lba: Plba) -> Option<&[u8]> {
        if lba >= self.end {
            return None;
        }
        let (chunk, k) = locate(lba);
        let c = self.chunks.get(&chunk)?;
        (c.written >> k & 1 == 1).then(|| &c.bytes.0[byte_span(k, k + 1)])
    }

    /// Mutably borrows one block, marking it written (it reads as zeros
    /// until the caller fills it) — an in-place destination for a
    /// one-block write.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] if `lba` is beyond capacity.
    pub fn block_mut(&mut self, lba: Plba) -> Result<&mut [u8], StoreError> {
        self.check(lba)?;
        self.note_written(lba, lba);
        let (chunk, k) = locate(lba);
        let c = self.chunks.entry(chunk).or_insert_with(Chunk::new);
        self.resident += c.mark(k, k + 1);
        Ok(&mut c.bytes.0[byte_span(k, k + 1)])
    }

    /// Whether a block has ever been written.
    pub fn is_written(&self, lba: Plba) -> bool {
        self.block(lba).is_some()
    }

    /// Conservative residency filter: `false` means *no* block in
    /// `[lba, lba + blocks)` has ever been written (the whole run reads as
    /// zeros); `true` means some block in the range *may* be resident.
    /// Constant time — it compares against the store's written bounds
    /// rather than probing, so the batched read path can replace a run's
    /// chunk probes with one sparse zero-fill on cold ranges.
    pub fn maybe_written_in(&self, lba: Plba, blocks: u64) -> bool {
        match self.written_bounds {
            None => false,
            Some((lo, hi)) => {
                lba <= hi
                    && match lba.checked_add_blocks(blocks) {
                        Some(end) => end > lo,
                        None => true,
                    }
            }
        }
    }

    /// Number of blocks that have been written at least once.
    pub fn resident_blocks(&self) -> usize {
        self.resident
    }

    /// Host bytes the store holds for its contents: one whole chunk per
    /// chunk any write touched, so at least the written bytes and at most
    /// `CHUNK_BLOCKS` times them.
    pub fn resident_bytes(&self) -> u64 {
        self.chunks.len() as u64 * CHUNK_BYTES
    }

    /// Validates that `blocks` consecutive blocks starting at `lba` lie
    /// within capacity (and that the range is non-empty), naming the first
    /// out-of-range block on failure — the atomic precondition the range
    /// operations and the device's run transfers check before touching data.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] naming the first out-of-range block.
    pub fn check_range(&self, lba: Plba, blocks: u64) -> Result<(), StoreError> {
        let in_range =
            blocks > 0 && matches!(lba.checked_add_blocks(blocks), Some(end) if end <= self.end);
        if in_range {
            Ok(())
        } else {
            Err(StoreError::OutOfRange {
                lba: lba.max(self.end),
                capacity: self.capacity_blocks,
            })
        }
    }

    fn check(&self, lba: Plba) -> Result<(), StoreError> {
        if lba >= self.end {
            Err(StoreError::OutOfRange {
                lba,
                capacity: self.capacity_blocks,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn unwritten_reads_zero() {
        let store = BlockStore::new(16);
        assert!(store.read_block(Plba(3)).unwrap().iter().all(|&b| b == 0));
        assert!(!store.is_written(Plba(3)));
    }

    #[test]
    fn write_then_read() {
        let mut store = BlockStore::new(16);
        let data = vec![7u8; BLOCK_SIZE as usize];
        store.write_block(Plba(0), &data).unwrap();
        assert_eq!(store.read_block(Plba(0)).unwrap(), data);
        assert_eq!(store.resident_blocks(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut store = BlockStore::new(4);
        assert_eq!(
            store.read_block(Plba(4)).unwrap_err(),
            StoreError::OutOfRange {
                lba: Plba(4),
                capacity: 4
            }
        );
        assert!(store
            .write_block(Plba(100), &vec![0; BLOCK_SIZE as usize])
            .is_err());
        assert_eq!(store.capacity_bytes(), 4 * BLOCK_SIZE);
        assert_eq!(store.blocks_until_end(Plba(1)), 3);
        assert_eq!(store.blocks_until_end(Plba(4)), 0);
        assert_eq!(store.blocks_until_end(Plba(100)), 0);
    }

    #[test]
    fn bad_length_rejected() {
        let mut store = BlockStore::new(4);
        let err = store.write_block(Plba(0), &[1, 2, 3]).unwrap_err();
        assert_eq!(err, StoreError::BadLength { len: 3 });
        assert!(err.to_string().contains("3 bytes"));
    }

    #[test]
    fn range_roundtrip_and_sparsity() {
        let mut store = BlockStore::new(16);
        let bs = BLOCK_SIZE as usize;
        let mut data = vec![0u8; 3 * bs];
        data[..bs].fill(1);
        data[2 * bs..].fill(3);
        store.write_range(Plba(4), &data).unwrap();
        let mut out = vec![0xFFu8; 5 * bs];
        // Blocks 3 and 7 were never written: they must read back as zeros.
        store.read_range(Plba(3), 5, &mut out).unwrap();
        assert!(out[..bs].iter().all(|&b| b == 0));
        assert!(out[bs..2 * bs].iter().all(|&b| b == 1));
        assert!(out[2 * bs..3 * bs].iter().all(|&b| b == 0));
        assert!(out[3 * bs..4 * bs].iter().all(|&b| b == 3));
        assert!(out[4 * bs..].iter().all(|&b| b == 0));
    }

    #[test]
    fn range_rejects_capacity_crossing_atomically() {
        let mut store = BlockStore::new(4);
        let bs = BLOCK_SIZE as usize;
        let err = store.write_range(Plba(2), &vec![9u8; 3 * bs]).unwrap_err();
        assert_eq!(
            err,
            StoreError::OutOfRange {
                lba: Plba(4),
                capacity: 4
            }
        );
        // Nothing was written, even though blocks 2 and 3 were in range.
        assert_eq!(store.resident_blocks(), 0);
        let mut out = vec![0u8; 3 * bs];
        assert!(store.read_range(Plba(2), 3, &mut out).is_err());
        assert!(store.read_range(Plba(2), 2, &mut out[..2 * bs]).is_ok());
        assert_eq!(
            store.write_range(Plba(0), &vec![0u8; bs + 1]).unwrap_err(),
            StoreError::BadLength { len: bs + 1 }
        );
    }

    #[test]
    fn overflowing_range_is_rejected_not_wrapped() {
        let store = BlockStore::new(4);
        assert!(store.check_range(Plba(u64::MAX - 1), 4).is_err());
        assert!(store.check_range(Plba(0), 0).is_err());
    }

    #[test]
    fn maybe_written_in_is_false_only_outside_the_written_bounds() {
        let mut store = BlockStore::new(4 * CHUNK_BLOCKS);
        assert!(!store.maybe_written_in(Plba(0), 4 * CHUNK_BLOCKS));
        let block = vec![1u8; BLOCK_SIZE as usize];
        store.write_block(Plba(20), &block).unwrap();
        store.write_block(Plba(40), &block).unwrap();
        assert!(!store.maybe_written_in(Plba(0), 20), "ends just before 20");
        assert!(store.maybe_written_in(Plba(0), 21));
        assert!(
            store.maybe_written_in(Plba(30), 2),
            "between bounds: may be"
        );
        assert!(store.maybe_written_in(Plba(40), 1));
        assert!(!store.maybe_written_in(Plba(41), 10));
        assert!(store.maybe_written_in(Plba(0), u64::MAX), "a wrapping end");
    }

    #[test]
    fn write_run_hands_out_one_destination_per_chunk() {
        let mut store = BlockStore::new(4 * CHUNK_BLOCKS);
        let bs = BLOCK_SIZE as usize;
        let lba = CHUNK_BLOCKS - 3;
        let mut calls = Vec::new();
        store
            .write_run(Plba(lba), CHUNK_BLOCKS + 5, |first, dst| {
                calls.push((first, dst.len() / bs));
                dst.fill(first as u8 + 1);
            })
            .unwrap();
        assert_eq!(
            calls,
            vec![(0, 3), (3, CHUNK_BLOCKS as usize), (3 + CHUNK_BLOCKS, 2)]
        );
        assert_eq!(store.resident_blocks() as u64, CHUNK_BLOCKS + 5);
        assert_eq!(store.block(Plba(lba)).unwrap()[0], 1);
        assert_eq!(store.block(Plba(CHUNK_BLOCKS)).unwrap()[0], 4);
        assert!(!store.is_written(Plba(lba - 1)));
        // A run that crosses capacity calls nothing and writes nothing.
        let mut called = false;
        let err = store.write_run(Plba(4 * CHUNK_BLOCKS - 1), 2, |_, _| called = true);
        assert!(err.is_err());
        assert!(!called);
        assert_eq!(store.resident_blocks() as u64, CHUNK_BLOCKS + 5);
    }

    #[test]
    fn written_blocks_are_lent_line_aligned() {
        let mut store = BlockStore::new(64 * CHUNK_BLOCKS);
        let block = vec![0x5Au8; BLOCK_SIZE as usize];
        // Enough chunks that malloc's 16-byte granularity would show, at
        // every block position within a chunk.
        for k in 0..64 {
            store
                .write_block(Plba(k * CHUNK_BLOCKS + k % CHUNK_BLOCKS), &block)
                .unwrap();
        }
        for k in 0..64 {
            let got = store
                .block(Plba(k * CHUNK_BLOCKS + k % CHUNK_BLOCKS))
                .unwrap();
            assert_eq!(got.as_ptr() as usize % 64, 0, "chunk {k}");
            assert_eq!(got, &block[..]);
        }
    }

    #[test]
    fn resident_bytes_round_writes_up_to_whole_chunks() {
        let bs = BLOCK_SIZE as usize;
        // Contiguous writes: the written bytes, rounded up to a chunk.
        let mut store = BlockStore::new(8 * CHUNK_BLOCKS);
        assert_eq!(store.resident_bytes(), 0);
        store.write_range(Plba(0), &vec![1u8; 37 * bs]).unwrap();
        assert_eq!(
            store.resident_bytes(),
            37u64.div_ceil(CHUNK_BLOCKS) * CHUNK_BYTES
        );
        store.write_range(Plba(37), &vec![2u8; 11 * bs]).unwrap();
        assert_eq!(
            store.resident_bytes(),
            48 * BLOCK_SIZE,
            "three chunks, full"
        );
        // One block per chunk: a whole chunk per written block.
        let mut store = BlockStore::new(8 * CHUNK_BLOCKS);
        for k in 0..8 {
            store.block_mut(Plba(k * CHUNK_BLOCKS + 3)).unwrap().fill(3);
        }
        let written = store.resident_blocks() as u64 * BLOCK_SIZE;
        assert_eq!(store.resident_bytes(), CHUNK_BLOCKS * written);
        // Rewriting a resident block adds nothing.
        store.write_block(Plba(3), &vec![4u8; bs]).unwrap();
        assert_eq!(store.resident_bytes(), 8 * CHUNK_BYTES);
    }

    /// Capacity of the model store: three chunks and part of a fourth, so
    /// the capacity edge falls inside a chunk.
    const MODEL_BLOCKS: u64 = 3 * CHUNK_BLOCKS + 5;

    /// Block `lba`'s bytes as written by a writer seeded with `seed`:
    /// distinct per block and per byte, so a misplaced copy shows.
    fn pattern(lba: u64, seed: u8) -> Vec<u8> {
        (0..BLOCK_SIZE)
            .map(|j| seed.wrapping_add((lba * 31 + j) as u8))
            .collect()
    }

    /// The model's bytes of `n` blocks from `lba`.
    fn model_bytes(model: &HashMap<u64, Vec<u8>>, lba: u64, n: u64) -> Vec<u8> {
        (lba..lba + n)
            .flat_map(|b| {
                model
                    .get(&b)
                    .cloned()
                    .unwrap_or_else(|| vec![0; BLOCK_SIZE as usize])
            })
            .collect()
    }

    proptest! {
        /// The chunked store behaves like a map of independent blocks:
        /// every operation agrees with a per-block reference model on the
        /// bytes, `is_written` and `resident_blocks`, including runs that
        /// cross chunk boundaries or the capacity edge; a run read hands
        /// back maximal spans inside one chunk each.
        #[test]
        fn prop_chunked_store_matches_a_block_map(
            ops in proptest::collection::vec(
                (0u8..5, 0..MODEL_BLOCKS + 3, 1..2 * CHUNK_BLOCKS + 4, any::<u8>()),
                1..60,
            )
        ) {
            let mut store = BlockStore::new(MODEL_BLOCKS);
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            let bs = BLOCK_SIZE as usize;
            // Each op: write_block, write_range, block_mut, read_range or
            // read_run, at block `l`, over `n` blocks, with byte seed `seed`.
            for (kind, l, n, seed) in ops {
                match kind {
                    0 => {
                        let r = store.write_block(Plba(l), &pattern(l, seed));
                        prop_assert_eq!(r.is_ok(), l < MODEL_BLOCKS);
                        if r.is_ok() {
                            model.insert(l, pattern(l, seed));
                        }
                    }
                    1 => {
                        let data: Vec<u8> = (l..l + n).flat_map(|b| pattern(b, seed)).collect();
                        let r = store.write_range(Plba(l), &data);
                        prop_assert_eq!(r.is_ok(), l + n <= MODEL_BLOCKS);
                        if r.is_ok() {
                            for b in l..l + n {
                                model.insert(b, pattern(b, seed));
                            }
                        }
                    }
                    2 => match store.block_mut(Plba(l)) {
                        Ok(dst) => {
                            prop_assert!(l < MODEL_BLOCKS);
                            prop_assert_eq!(&dst[..], &model_bytes(&model, l, 1)[..]);
                            dst.copy_from_slice(&pattern(l, seed));
                            model.insert(l, pattern(l, seed));
                        }
                        Err(_) => prop_assert!(l >= MODEL_BLOCKS),
                    },
                    3 => {
                        let mut out = vec![0xEEu8; n as usize * bs];
                        let r = store.read_range(Plba(l), n, &mut out);
                        prop_assert_eq!(r.is_ok(), l + n <= MODEL_BLOCKS);
                        if r.is_ok() {
                            prop_assert_eq!(out, model_bytes(&model, l, n));
                        }
                    }
                    _ => {
                        let mut spans = Vec::new();
                        let r = store.read_run(Plba(l), n, |first, len, data| {
                            spans.push((first, len, data.map(<[u8]>::to_vec)));
                        });
                        prop_assert_eq!(r.is_ok(), l + n <= MODEL_BLOCKS);
                        prop_assert!(r.is_ok() || spans.is_empty());
                        let mut next = 0;
                        let mut prev: Option<(u64, bool)> = None;
                        for (first, len, data) in spans {
                            let (lo, hi) = (l + first, l + first + len);
                            prop_assert_eq!(first, next, "spans tile the run in order");
                            prop_assert!(len > 0);
                            prop_assert_eq!(lo / CHUNK_BLOCKS, (hi - 1) / CHUNK_BLOCKS, "inside a chunk");
                            let written = data.is_some();
                            for b in lo..hi {
                                prop_assert_eq!(model.contains_key(&b), written, "block {}", b);
                            }
                            if let Some(bytes) = data {
                                prop_assert_eq!(bytes, model_bytes(&model, lo, len));
                            }
                            if let Some((chunk, was_written)) = prev {
                                prop_assert!(
                                    chunk != lo / CHUNK_BLOCKS || was_written != written,
                                    "spans are maximal within a chunk"
                                );
                            }
                            prev = Some(((hi - 1) / CHUNK_BLOCKS, written));
                            next = first + len;
                        }
                        prop_assert_eq!(next, if r.is_ok() { n } else { 0 });
                    }
                }
            }
            prop_assert_eq!(store.resident_blocks(), model.len());
            for l in 0..MODEL_BLOCKS + 2 {
                let written = model.contains_key(&l);
                prop_assert_eq!(store.is_written(Plba(l)), written);
                prop_assert_eq!(store.block(Plba(l)).map(<[u8]>::to_vec), model.get(&l).cloned());
                if l < MODEL_BLOCKS {
                    prop_assert_eq!(store.read_block(Plba(l)).unwrap(), model_bytes(&model, l, 1));
                }
            }
        }

    }

    proptest! {
        /// Blocks are independent: writing one never changes another.
        #[test]
        fn prop_blocks_independent(
            writes in proptest::collection::vec((0u64..64, any::<u8>()), 1..50)
        ) {
            let mut store = BlockStore::new(64);
            let mut reference: std::collections::HashMap<u64, u8> = Default::default();
            for &(lba, byte) in &writes {
                store.write_block(Plba(lba), &vec![byte; BLOCK_SIZE as usize]).unwrap();
                reference.insert(lba, byte);
            }
            for lba in 0..64 {
                let expect = reference.get(&lba).copied().unwrap_or(0);
                let got = store.read_block(Plba(lba)).unwrap();
                prop_assert!(got.iter().all(|&b| b == expect));
            }
        }
    }
}
