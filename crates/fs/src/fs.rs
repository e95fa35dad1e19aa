//! The filesystem proper.
//!
//! [`Filesystem`] combines the allocator, inode table, namespace and
//! journal into the ext4-flavoured substrate the hypervisor runs on. The
//! pieces NeSC interacts with are:
//!
//! * [`Filesystem::extent_tree`] — the fiemap-style query the hypervisor
//!   uses to build a VF's tree when exporting a file as a virtual disk;
//! * [`Filesystem::allocate_range`] — the allocation path the NeSC
//!   write-miss interrupt handler invokes before signalling `RewalkTree`;
//! * lazy allocation and hole semantics — reads of unwritten ranges return
//!   zeros, matching what the device's zero-fill DMA produces.

use std::collections::BTreeMap;
use std::fmt;

use nesc_extent::{ExtentMapping, ExtentTree, InsertError, Plba, Vlba};
use nesc_storage::BLOCK_SIZE;

use crate::alloc::{AllocError, BitmapAllocator, Run};
use crate::inode::Inode;
use crate::io::{BlockIo, IoError};
use crate::journal::{CommitInfo, Journal, JournalRecord};

/// An inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u32);

impl fmt::Display for Ino {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino{}", self.0)
    }
}

/// Filesystem operation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No file by that name.
    NotFound {
        /// The name looked up.
        name: String,
    },
    /// A file by that name already exists.
    Exists {
        /// The conflicting name.
        name: String,
    },
    /// The inode number is not live.
    BadInode {
        /// The offending inode number.
        ino: Ino,
    },
    /// The device is out of blocks (or quota).
    NoSpace {
        /// Blocks requested.
        requested: u64,
        /// Blocks free.
        free: u64,
    },
    /// The underlying device failed.
    Io(IoError),
    /// An extent insert collided with a live mapping — the extent map is
    /// inconsistent with the allocator.
    Mapping(InsertError),
    /// A block that must be mapped (its range was just allocated) is not.
    Unmapped {
        /// The inode whose map lost the range.
        ino: Ino,
        /// The unmapped file block.
        vlba: Vlba,
    },
}

impl From<InsertError> for FsError {
    fn from(e: InsertError) -> Self {
        FsError::Mapping(e)
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound { name } => write!(f, "no such file: {name}"),
            FsError::Exists { name } => write!(f, "file exists: {name}"),
            FsError::BadInode { ino } => write!(f, "stale inode: {ino}"),
            FsError::NoSpace { requested, free } => {
                write!(f, "no space: requested {requested} blocks, {free} free")
            }
            FsError::Io(e) => write!(f, "I/O error: {e}"),
            FsError::Mapping(e) => write!(f, "extent map inconsistency: {e}"),
            FsError::Unmapped { ino, vlba } => {
                write!(f, "allocated range lost from {ino} at {vlba}")
            }
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IoError> for FsError {
    fn from(e: IoError) -> Self {
        FsError::Io(e)
    }
}

impl From<AllocError> for FsError {
    fn from(e: AllocError) -> Self {
        let AllocError::NoSpace { requested, free } = e;
        FsError::NoSpace { requested, free }
    }
}

/// Cost accounting returned by mutating operations, consumed by the timing
/// model (journal bytes become journal-write time; allocated blocks become
/// allocator CPU time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Blocks newly allocated by this operation.
    pub allocated_blocks: u64,
    /// Journal bytes committed by this operation.
    pub journal_bytes: u64,
}

/// An extent-based filesystem over any [`BlockIo`] device.
///
/// # Example
///
/// ```
/// use nesc_fs::Filesystem;
/// use nesc_storage::BlockStore;
///
/// let mut store = BlockStore::new(4096); // 4 MiB device
/// let mut fs = Filesystem::format(store.capacity_blocks());
/// let ino = fs.create("disk.img").unwrap();
/// fs.write(&mut store, ino, 0, b"hello world").unwrap();
/// assert_eq!(fs.read(&mut store, ino, 0, 11).unwrap(), b"hello world");
/// assert_eq!(fs.size_bytes(ino).unwrap(), 11);
/// ```
#[derive(Debug)]
pub struct Filesystem {
    allocator: BitmapAllocator,
    inodes: BTreeMap<Ino, Inode>,
    names: BTreeMap<String, Ino>,
    journal: Journal,
    next_ino: u32,
    metadata_blocks: u64,
    /// Extra references to physical blocks shared by deduplication:
    /// `plba -> sharers beyond the first`. Absent means exclusively owned.
    shared: BTreeMap<Plba, u32>,
}

impl Filesystem {
    /// Formats a filesystem over `capacity_blocks` blocks, reserving a
    /// small metadata region at the front (superblock, inode table,
    /// journal area) like a real mkfs. A device too small for the nominal
    /// metadata region (a contract violation: systems are built with
    /// thousands of blocks) shrinks the region to leave at least one data
    /// block.
    pub fn format(capacity_blocks: u64) -> Self {
        let metadata_blocks = (capacity_blocks / 64)
            .clamp(16, 4096)
            .min(capacity_blocks.saturating_sub(1));
        debug_assert!(
            capacity_blocks > metadata_blocks,
            "device too small: {capacity_blocks} blocks"
        );
        let mut allocator = BitmapAllocator::new(capacity_blocks);
        allocator.reserve(Run::prefix(metadata_blocks));
        Filesystem {
            allocator,
            inodes: BTreeMap::new(),
            names: BTreeMap::new(),
            journal: Journal::new(),
            next_ino: 1,
            metadata_blocks,
            shared: BTreeMap::new(),
        }
    }

    /// Marks a physical block as having one more sharer (deduplication).
    pub(crate) fn share_block(&mut self, p: Plba) {
        *self.shared.entry(p).or_insert(0) += 1;
    }

    /// Whether a physical block is currently shared by multiple mappings.
    pub fn is_shared(&self, p: Plba) -> bool {
        self.shared.contains_key(&p)
    }

    /// Releases one reference to a physical block; frees it only when no
    /// sharer remains. Returns `true` if the block was actually freed.
    pub(crate) fn release_block(&mut self, p: Plba) -> bool {
        match self.shared.get_mut(&p) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    self.shared.remove(&p);
                }
                false
            }
            None => {
                self.allocator.free(Run { start: p, len: 1 });
                true
            }
        }
    }

    /// Releases every block of a run through the refcounting path.
    fn release_run(&mut self, run: Run) {
        for i in 0..run.len {
            self.release_block(run.start.offset(i));
        }
    }

    /// Mutable access to a file's extent tree (dedup remapping).
    pub(crate) fn extent_tree_mut(&mut self, ino: Ino) -> Result<&mut ExtentTree, FsError> {
        Ok(self.inode_mut(ino)?.extents_mut())
    }

    /// Blocks reserved for metadata at format time.
    pub fn metadata_blocks(&self) -> u64 {
        self.metadata_blocks
    }

    /// Free data blocks.
    pub fn free_blocks(&self) -> u64 {
        self.allocator.free_blocks()
    }

    /// The metadata journal (read-only; commits happen inside operations).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the name is taken.
    pub fn create(&mut self, name: &str) -> Result<Ino, FsError> {
        if self.names.contains_key(name) {
            return Err(FsError::Exists { name: name.into() });
        }
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        self.inodes.insert(ino, Inode::new());
        self.names.insert(name.into(), ino);
        self.journal.append(JournalRecord::Create {
            ino,
            name: name.into(),
        });
        self.journal.commit();
        Ok(ino)
    }

    /// Resolves a name.
    pub fn lookup(&self, name: &str) -> Option<Ino> {
        self.names.get(name).copied()
    }

    /// Names in the root directory, sorted.
    pub fn list(&self) -> Vec<&str> {
        self.names.keys().map(String::as_str).collect()
    }

    /// Removes a file and frees its blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the name does not exist.
    pub fn unlink(&mut self, name: &str) -> Result<(), FsError> {
        let ino = self
            .names
            .remove(name)
            .ok_or_else(|| FsError::NotFound { name: name.into() })?;
        let inode = self.inodes.remove(&ino).expect("name table is consistent");
        let runs: Vec<Run> = inode
            .extents()
            .iter()
            .map(|e| Run {
                start: e.physical,
                len: e.len,
            })
            .collect();
        for run in runs {
            self.release_run(run);
        }
        self.journal
            .append(JournalRecord::Unlink { name: name.into() });
        self.journal.commit();
        Ok(())
    }

    fn inode(&self, ino: Ino) -> Result<&Inode, FsError> {
        self.inodes.get(&ino).ok_or(FsError::BadInode { ino })
    }

    fn inode_mut(&mut self, ino: Ino) -> Result<&mut Inode, FsError> {
        self.inodes.get_mut(&ino).ok_or(FsError::BadInode { ino })
    }

    /// Logical size of a file in bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`] if the inode is not live.
    pub fn size_bytes(&self, ino: Ino) -> Result<u64, FsError> {
        Ok(self.inode(ino)?.size_bytes())
    }

    /// The file's extent tree — the fiemap query NeSC's VF-creation path
    /// uses.
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`] if the inode is not live.
    pub fn extent_tree(&self, ino: Ino) -> Result<&ExtentTree, FsError> {
        Ok(self.inode(ino)?.extents())
    }

    /// The file's mapping generation ([`Inode::mapping_generation`]): it
    /// moves whenever the file's extents may have changed, so a
    /// serialization taken at an equal generation still matches
    /// [`extent_tree`](Filesystem::extent_tree).
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`] if the inode is not live.
    pub fn mapping_generation(&self, ino: Ino) -> Result<u64, FsError> {
        Ok(self.inode(ino)?.mapping_generation())
    }

    /// Sets the logical size without allocating (POSIX `ftruncate` up:
    /// the tail is a hole). Shrinking punches away blocks past the end.
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`] if the inode is not live.
    pub fn truncate(&mut self, ino: Ino, new_size: u64) -> Result<MutationStats, FsError> {
        let old_size = self.inode(ino)?.size_bytes();
        if new_size < old_size {
            let first_dead = new_size.div_ceil(BLOCK_SIZE);
            let last_old = old_size.div_ceil(BLOCK_SIZE);
            if last_old > first_dead {
                self.punch_hole_blocks(ino, Vlba(first_dead), last_old - first_dead)?;
            }
        }
        self.inode_mut(ino)?.set_size_bytes(new_size);
        self.journal.append(JournalRecord::SetSize {
            ino,
            size: new_size,
        });
        let bytes = self.journal.commit().map(|c| c.bytes).unwrap_or(0);
        Ok(MutationStats {
            allocated_blocks: 0,
            journal_bytes: bytes,
        })
    }

    /// Ensures file blocks `[start, start+blocks)` are allocated — the
    /// operation the hypervisor performs when NeSC raises a write-miss
    /// interrupt (paper Fig. 5b), and also the core of `fallocate`.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if the device cannot back the range;
    /// [`FsError::BadInode`] if the inode is not live.
    pub fn allocate_range(
        &mut self,
        ino: Ino,
        start: Vlba,
        blocks: u64,
    ) -> Result<MutationStats, FsError> {
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::BadInode { ino })?;
        let mut allocated = 0u64;
        let mut v = start;
        let end = start.offset(blocks);
        while v < end {
            let extents = inode.extents();
            if let Some(e) = extents.lookup(v) {
                // Skip over the already-mapped stretch.
                v = e.end_logical().min(end);
                continue;
            }
            // The unmapped stretch runs to the next mapping or to `end`.
            let stretch_end = extents
                .next_start_after(v)
                .map_or(end, |next| next.min(end));
            let run_len = stretch_end.distance_from(v);
            // Goal: extend the file contiguously after its previous block.
            let goal = if v.0 > 0 {
                inode.block_at(Vlba(v.0 - 1)).map(|p| p.offset(1))
            } else {
                None
            };
            let runs = self.allocator.allocate(run_len, goal)?;
            let mut logical = v;
            for run in runs {
                let mapping = ExtentMapping::new(logical, run.start, run.len);
                inode.extents_mut().insert(mapping)?;
                self.journal
                    .append(JournalRecord::AddExtent { ino, mapping });
                logical = logical.offset(run.len);
                allocated += run.len;
            }
            v = stretch_end;
        }
        let bytes = self.journal.commit().map(|c| c.bytes).unwrap_or(0);
        Ok(MutationStats {
            allocated_blocks: allocated,
            journal_bytes: bytes,
        })
    }

    /// Unmaps and frees file blocks `[start, start+blocks)`.
    fn punch_hole_blocks(&mut self, ino: Ino, start: Vlba, blocks: u64) -> Result<(), FsError> {
        // Collect the physical runs being dropped before mutating the tree.
        let mut freed: Vec<Run> = Vec::new();
        {
            let tree = self.inode(ino)?.extents();
            let end = start.offset(blocks);
            for e in tree.iter() {
                let lo = e.logical.max(start);
                let hi = e.end_logical().min(end);
                if lo < hi {
                    // lo is clamped inside the extent, so translate only
                    // fails on a corrupt mapping — skip the run (leaking
                    // the blocks) rather than killing the truncate path.
                    let p = e.translate(lo);
                    debug_assert!(p.is_some(), "lo within extent");
                    if let Some(p) = p {
                        freed.push(Run {
                            start: p,
                            len: hi.distance_from(lo),
                        });
                    }
                }
            }
        }
        self.inode_mut(ino)?
            .extents_mut()
            .remove_range(start, blocks);
        for run in freed {
            self.release_run(run);
        }
        self.journal
            .append(JournalRecord::RemoveRange { ino, start, blocks });
        Ok(())
    }

    /// Punches a hole (frees blocks, keeps the size) and commits.
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`] if the inode is not live.
    pub fn punch_hole(
        &mut self,
        ino: Ino,
        start: Vlba,
        blocks: u64,
    ) -> Result<MutationStats, FsError> {
        self.punch_hole_blocks(ino, start, blocks)?;
        let bytes = self.journal.commit().map(|c| c.bytes).unwrap_or(0);
        Ok(MutationStats {
            allocated_blocks: 0,
            journal_bytes: bytes,
        })
    }

    /// Writes `data` at byte `offset`, allocating lazily and extending the
    /// size as needed. Returns accounting for the timing model.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if allocation fails, [`FsError::Io`] if the
    /// device fails, [`FsError::BadInode`] if the inode is not live.
    pub fn write(
        &mut self,
        io: &mut dyn BlockIo,
        ino: Ino,
        offset: u64,
        data: &[u8],
    ) -> Result<MutationStats, FsError> {
        if data.is_empty() {
            return Ok(MutationStats::default());
        }
        let first_block = offset / BLOCK_SIZE;
        let last_block = (offset + data.len() as u64 - 1) / BLOCK_SIZE;
        let mut stats =
            self.allocate_range(ino, Vlba(first_block), last_block - first_block + 1)?;
        // Move the bytes, block by block (read-modify-write at the edges).
        let mut cursor = 0usize;
        for b in first_block..=last_block {
            // Copy-on-write: never overwrite a deduplicated shared block in
            // place — break the sharing first.
            let mapped = self.inode(ino)?.block_at(Vlba(b)).ok_or({
                // allocate_range succeeded above, so an unmapped block
                // means the extent map lost the range.
                FsError::Unmapped { ino, vlba: Vlba(b) }
            })?;
            let plba = if self.is_shared(mapped) {
                self.cow_block(io, ino, Vlba(b), mapped)?
            } else {
                mapped
            };
            let block_off = if b == first_block {
                (offset % BLOCK_SIZE) as usize
            } else {
                0
            };
            let n = ((BLOCK_SIZE as usize) - block_off).min(data.len() - cursor);
            if n == BLOCK_SIZE as usize {
                io.write_block(plba, &data[cursor..cursor + n])?;
            } else {
                let mut block = io.read_block(plba)?;
                block[block_off..block_off + n].copy_from_slice(&data[cursor..cursor + n]);
                io.write_block(plba, &block)?;
            }
            cursor += n;
        }
        // Grow the size if we wrote past EOF.
        let end = offset + data.len() as u64;
        if end > self.inode(ino)?.size_bytes() {
            self.inode_mut(ino)?.set_size_bytes(end);
            self.journal
                .append(JournalRecord::SetSize { ino, size: end });
            stats.journal_bytes += self.journal.commit().map(|c| c.bytes).unwrap_or(0);
        }
        Ok(stats)
    }

    /// Breaks a shared mapping: allocates a private block, copies the
    /// shared content into it, remaps the file block, and drops one share
    /// reference.
    fn cow_block(
        &mut self,
        io: &mut dyn BlockIo,
        ino: Ino,
        v: Vlba,
        shared: Plba,
    ) -> Result<Plba, FsError> {
        let fresh = self.allocator.allocate(1, Some(shared))?[0].start;
        let data = io.read_block(shared)?;
        io.write_block(fresh, &data)?;
        {
            let tree = self.inode_mut(ino)?.extents_mut();
            tree.remove_range(v, 1);
            tree.insert(ExtentMapping::new(v, fresh, 1))?;
        }
        self.release_block(shared);
        self.journal.append(JournalRecord::RemoveRange {
            ino,
            start: v,
            blocks: 1,
        });
        self.journal.append(JournalRecord::AddExtent {
            ino,
            mapping: ExtentMapping::new(v, fresh, 1),
        });
        Ok(fresh)
    }

    /// Reads up to `len` bytes at byte `offset`; holes read as zeros and
    /// the result is truncated at EOF (short reads past the end).
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] if the device fails, [`FsError::BadInode`] if the
    /// inode is not live.
    pub fn read(
        &self,
        io: &mut dyn BlockIo,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, FsError> {
        let size = self.inode(ino)?.size_bytes();
        if offset >= size {
            return Ok(Vec::new());
        }
        let len = len.min((size - offset) as usize);
        let mut out = Vec::with_capacity(len);
        let mut cursor = offset;
        while out.len() < len {
            let b = cursor / BLOCK_SIZE;
            let block_off = (cursor % BLOCK_SIZE) as usize;
            let n = ((BLOCK_SIZE as usize) - block_off).min(len - out.len());
            match self.inode(ino)?.block_at(Vlba(b)) {
                Some(plba) => {
                    let block = io.read_block(plba)?;
                    out.extend_from_slice(&block[block_off..block_off + n]);
                }
                None => out.extend(std::iter::repeat_n(0u8, n)),
            }
            cursor += n as u64;
        }
        Ok(out)
    }

    /// Reconstructs filesystem metadata by replaying a journal — the crash
    /// recovery path. Data block contents are *not* replayed (metadata
    /// journaling only, ext4 `data=ordered` semantics).
    pub fn replay(capacity_blocks: u64, journal: &Journal) -> Self {
        let mut fs = Filesystem::format(capacity_blocks);
        for rec in journal.committed_records() {
            match rec {
                JournalRecord::Create { ino, name } => {
                    fs.inodes.insert(*ino, Inode::new());
                    fs.names.insert(name.clone(), *ino);
                    fs.next_ino = fs.next_ino.max(ino.0 + 1);
                }
                JournalRecord::Unlink { name } => {
                    if let Some(ino) = fs.names.remove(name) {
                        if let Some(inode) = fs.inodes.remove(&ino) {
                            for e in inode.extents().iter() {
                                fs.allocator.free(Run {
                                    start: e.physical,
                                    len: e.len,
                                });
                            }
                        }
                    }
                }
                JournalRecord::SetSize { ino, size } => {
                    if let Some(inode) = fs.inodes.get_mut(ino) {
                        inode.set_size_bytes(*size);
                    }
                }
                JournalRecord::AddExtent { ino, mapping } => {
                    if let Some(inode) = fs.inodes.get_mut(ino) {
                        fs.allocator.reserve(Run {
                            start: mapping.physical,
                            len: mapping.len,
                        });
                        inode
                            .extents_mut()
                            .insert(*mapping)
                            .expect("journal extents are consistent");
                    }
                }
                JournalRecord::RemoveRange { ino, start, blocks } => {
                    if let Some(inode) = fs.inodes.get_mut(ino) {
                        let mut freed: Vec<Run> = Vec::new();
                        let end = start.offset(*blocks);
                        for e in inode.extents().iter() {
                            let lo = e.logical.max(*start);
                            let hi = e.end_logical().min(end);
                            if lo < hi {
                                freed.push(Run {
                                    start: e.translate(lo).expect("in range"),
                                    len: hi.distance_from(lo),
                                });
                            }
                        }
                        inode.extents_mut().remove_range(*start, *blocks);
                        for r in freed {
                            fs.allocator.free(r);
                        }
                    }
                }
            }
        }
        fs
    }
}

/// Reference to a committed transaction's cost, re-exported for harnesses.
pub type Commit = CommitInfo;

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_storage::BlockStore;
    use proptest::prelude::*;

    fn setup() -> (BlockStore, Filesystem) {
        let store = BlockStore::new(8192);
        let fs = Filesystem::format(8192);
        (store, fs)
    }

    #[test]
    fn create_lookup_unlink() {
        let (_, mut fs) = setup();
        let ino = fs.create("a").unwrap();
        assert_eq!(fs.lookup("a"), Some(ino));
        assert_eq!(fs.list(), vec!["a"]);
        assert!(matches!(fs.create("a"), Err(FsError::Exists { .. })));
        fs.unlink("a").unwrap();
        assert_eq!(fs.lookup("a"), None);
        assert!(matches!(fs.unlink("a"), Err(FsError::NotFound { .. })));
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let (mut store, mut fs) = setup();
        let ino = fs.create("f").unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        fs.write(&mut store, ino, 777, &data).unwrap();
        assert_eq!(fs.read(&mut store, ino, 777, 5000).unwrap(), data);
        assert_eq!(fs.size_bytes(ino).unwrap(), 777 + 5000);
        // The leading gap is a hole of zeros.
        assert!(fs
            .read(&mut store, ino, 0, 777)
            .unwrap()
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn sparse_file_reads_zero_in_holes() {
        let (mut store, mut fs) = setup();
        let ino = fs.create("sparse").unwrap();
        fs.write(&mut store, ino, 100 * BLOCK_SIZE, b"tail")
            .unwrap();
        let hole = fs.read(&mut store, ino, 50 * BLOCK_SIZE, 1024).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
        // Only the tail block is allocated.
        assert_eq!(fs.extent_tree(ino).unwrap().mapped_blocks(), 1);
    }

    #[test]
    fn read_past_eof_is_short() {
        let (mut store, mut fs) = setup();
        let ino = fs.create("f").unwrap();
        fs.write(&mut store, ino, 0, b"abc").unwrap();
        assert_eq!(fs.read(&mut store, ino, 0, 100).unwrap(), b"abc");
        assert!(fs.read(&mut store, ino, 10, 100).unwrap().is_empty());
    }

    #[test]
    fn sequential_writes_stay_contiguous() {
        let (mut store, mut fs) = setup();
        let ino = fs.create("big").unwrap();
        for i in 0..64u64 {
            fs.write(
                &mut store,
                ino,
                i * BLOCK_SIZE,
                &vec![i as u8; BLOCK_SIZE as usize],
            )
            .unwrap();
        }
        // The goal-directed allocator keeps a sequentially-written file in
        // one extent — the property that keeps NeSC trees shallow.
        assert_eq!(fs.extent_tree(ino).unwrap().extent_count(), 1);
    }

    #[test]
    fn truncate_frees_blocks() {
        let (mut store, mut fs) = setup();
        let ino = fs.create("t").unwrap();
        fs.write(&mut store, ino, 0, &vec![1u8; 10 * BLOCK_SIZE as usize])
            .unwrap();
        let free_before = fs.free_blocks();
        fs.truncate(ino, BLOCK_SIZE).unwrap();
        assert_eq!(fs.free_blocks(), free_before + 9);
        assert_eq!(fs.size_bytes(ino).unwrap(), BLOCK_SIZE);
        // Growing truncate leaves a hole.
        fs.truncate(ino, 100 * BLOCK_SIZE).unwrap();
        assert_eq!(fs.extent_tree(ino).unwrap().mapped_blocks(), 1);
    }

    #[test]
    fn unlink_returns_space() {
        let (mut store, mut fs) = setup();
        let before = fs.free_blocks();
        let ino = fs.create("f").unwrap();
        fs.write(&mut store, ino, 0, &vec![1u8; 32 * BLOCK_SIZE as usize])
            .unwrap();
        assert_eq!(fs.free_blocks(), before - 32);
        fs.unlink("f").unwrap();
        assert_eq!(fs.free_blocks(), before);
    }

    #[test]
    fn allocate_range_is_idempotent() {
        let (_, mut fs) = setup();
        let ino = fs.create("f").unwrap();
        let s1 = fs.allocate_range(ino, Vlba(0), 16).unwrap();
        assert_eq!(s1.allocated_blocks, 16);
        let s2 = fs.allocate_range(ino, Vlba(0), 16).unwrap();
        assert_eq!(s2.allocated_blocks, 0);
        assert_eq!(s2.journal_bytes, 0);
        // Partial overlap allocates only the gap.
        let s3 = fs.allocate_range(ino, Vlba(8), 16).unwrap();
        assert_eq!(s3.allocated_blocks, 8);
    }

    #[test]
    fn allocate_range_fills_each_hole_between_existing_extents() {
        let (_, mut fs) = setup();
        let ino = fs.create("f").unwrap();
        fs.allocate_range(ino, Vlba(2), 3).unwrap();
        fs.allocate_range(ino, Vlba(8), 2).unwrap();
        let committed = fs.journal().committed_records().count();
        // Holes 0..2, 5..8 and 10..12: one extent record each.
        let s = fs.allocate_range(ino, Vlba(0), 12).unwrap();
        assert_eq!(s.allocated_blocks, 2 + 3 + 2);
        let added = fs.journal().committed_records().count() - committed;
        assert_eq!(added, 3);
        let tree = fs.extent_tree(ino).unwrap();
        assert_eq!(tree.mapped_blocks(), 12);
        assert!((0..12).all(|v| tree.lookup(Vlba(v)).is_some()));
        assert!(tree.lookup(Vlba(12)).is_none());
    }

    #[test]
    fn allocate_range_stops_a_hole_at_the_range_end() {
        let (_, mut fs) = setup();
        let ino = fs.create("f").unwrap();
        fs.allocate_range(ino, Vlba(20), 4).unwrap();
        // The hole at 10 runs to 20, but the range ends at 13.
        let s = fs.allocate_range(ino, Vlba(10), 3).unwrap();
        assert_eq!(s.allocated_blocks, 3);
        let tree = fs.extent_tree(ino).unwrap();
        assert_eq!(tree.mapped_blocks(), 7);
        assert!(tree.lookup(Vlba(12)).is_some());
        assert!((13..20).all(|v| tree.lookup(Vlba(v)).is_none()));
        // A range that starts inside a mapping allocates only past it.
        let s = fs.allocate_range(ino, Vlba(22), 4).unwrap();
        assert_eq!(s.allocated_blocks, 2);
        assert_eq!(fs.extent_tree(ino).unwrap().logical_end(), Vlba(26));
    }

    #[test]
    fn allocate_range_extends_a_file_from_its_previous_block() {
        let (_, mut fs) = setup();
        let (f, g) = (fs.create("f").unwrap(), fs.create("g").unwrap());
        fs.allocate_range(f, Vlba(0), 4).unwrap();
        fs.allocate_range(g, Vlba(0), 4).unwrap();
        let after_f = fs
            .extent_tree(f)
            .unwrap()
            .lookup(Vlba(3))
            .unwrap()
            .end_physical();
        assert_eq!(
            fs.extent_tree(g)
                .unwrap()
                .lookup(Vlba(0))
                .map(|e| e.physical),
            Some(after_f),
            "g took the blocks right after f"
        );
        fs.unlink("g").unwrap();
        // The goal is the block after vLBA 3's, free again: f grows in place.
        fs.allocate_range(f, Vlba(4), 4).unwrap();
        let tree = fs.extent_tree(f).unwrap();
        assert_eq!((tree.extent_count(), tree.mapped_blocks()), (1, 8));
    }

    #[test]
    fn no_space_is_surfaced() {
        let mut fs = Filesystem::format(32);
        let ino = fs.create("f").unwrap();
        let err = fs.allocate_range(ino, Vlba(0), 1000).unwrap_err();
        assert!(matches!(err, FsError::NoSpace { .. }));
        assert!(err.to_string().contains("no space"));
    }

    #[test]
    fn journal_replay_reconstructs_metadata() {
        let (mut store, mut fs) = setup();
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(&mut store, a, 0, &vec![1u8; 5 * BLOCK_SIZE as usize])
            .unwrap();
        fs.write(&mut store, b, 3 * BLOCK_SIZE, b"xyz").unwrap();
        fs.unlink("a").unwrap();
        fs.truncate(b, 2 * BLOCK_SIZE).unwrap();

        let recovered = Filesystem::replay(8192, fs.journal());
        assert_eq!(recovered.lookup("a"), None);
        let rb = recovered.lookup("b").unwrap();
        assert_eq!(rb, b);
        assert_eq!(recovered.size_bytes(rb).unwrap(), 2 * BLOCK_SIZE);
        assert_eq!(
            recovered.extent_tree(rb).unwrap(),
            fs.extent_tree(b).unwrap()
        );
        assert_eq!(recovered.free_blocks(), fs.free_blocks());
    }

    #[test]
    fn stale_inode_rejected() {
        let (mut store, mut fs) = setup();
        let ino = fs.create("f").unwrap();
        fs.unlink("f").unwrap();
        assert!(matches!(
            fs.read(&mut store, ino, 0, 4),
            Err(FsError::BadInode { .. })
        ));
    }

    /// Reference model of `allocate_range` that finds where an unmapped
    /// stretch ends by looking up each of its blocks in turn.
    fn allocate_range_per_block(
        fs: &mut Filesystem,
        ino: Ino,
        start: Vlba,
        blocks: u64,
    ) -> Result<MutationStats, FsError> {
        fs.inode(ino)?;
        let mut allocated = 0u64;
        let mut v = start;
        let end = start.offset(blocks);
        while v < end {
            if let Some(e) = fs.inode(ino)?.extents().lookup(v) {
                v = e.end_logical().min(end);
                continue;
            }
            let mut run_len = 0u64;
            let mut probe = v;
            while probe < end && fs.inode(ino)?.extents().lookup(probe).is_none() {
                run_len += 1;
                probe = probe.offset(1);
            }
            let goal = if v.0 > 0 {
                fs.inode(ino)?.block_at(Vlba(v.0 - 1)).map(|p| p.offset(1))
            } else {
                None
            };
            let mut logical = v;
            for run in fs.allocator.allocate(run_len, goal)? {
                let mapping = ExtentMapping::new(logical, run.start, run.len);
                fs.inode_mut(ino)?.extents_mut().insert(mapping)?;
                fs.journal.append(JournalRecord::AddExtent { ino, mapping });
                logical = logical.offset(run.len);
                allocated += run.len;
            }
            v = probe;
        }
        let bytes = fs.journal.commit().map(|c| c.bytes).unwrap_or(0);
        Ok(MutationStats {
            allocated_blocks: allocated,
            journal_bytes: bytes,
        })
    }

    proptest! {
        /// On a file fragmented by random allocations and punched holes,
        /// `allocate_range` leaves the same extents, journal records,
        /// free space and `MutationStats` (or error) as the per-block
        /// reference, call after call, out of space included.
        #[test]
        fn prop_allocate_range_matches_per_block(
            ops in proptest::collection::vec((any::<bool>(), 0u64..600, 1u64..200), 1..40),
        ) {
            let (mut fs, mut reference) = (Filesystem::format(600), Filesystem::format(600));
            let ino = fs.create("f").unwrap();
            prop_assert_eq!(reference.create("f").unwrap(), ino);
            for &(punch, start, blocks) in &ops {
                let (start, ours, theirs) = (Vlba(start), &mut fs, &mut reference);
                if punch {
                    prop_assert_eq!(ours.punch_hole(ino, start, blocks), theirs.punch_hole(ino, start, blocks));
                } else {
                    prop_assert_eq!(
                        ours.allocate_range(ino, start, blocks),
                        allocate_range_per_block(theirs, ino, start, blocks)
                    );
                }
                prop_assert_eq!(fs.extent_tree(ino).unwrap(), reference.extent_tree(ino).unwrap());
                prop_assert!(fs.journal().committed_records().eq(reference.journal().committed_records()));
                prop_assert_eq!(fs.journal().pending_records(), reference.journal().pending_records());
                prop_assert_eq!(fs.free_blocks(), reference.free_blocks());
            }
        }

        /// Random writes at random offsets: the filesystem agrees with an
        /// in-memory reference file byte-for-byte.
        #[test]
        fn prop_matches_reference_file(
            writes in proptest::collection::vec((0u64..100_000, 1usize..3000, any::<u8>()), 1..40)
        ) {
            let mut store = BlockStore::new(8192);
            let mut fs = Filesystem::format(8192);
            let ino = fs.create("ref").unwrap();
            let mut reference: Vec<u8> = Vec::new();
            for &(off, len, byte) in &writes {
                let data = vec![byte; len];
                fs.write(&mut store, ino, off, &data).unwrap();
                let end = off as usize + len;
                if reference.len() < end {
                    reference.resize(end, 0);
                }
                reference[off as usize..end].copy_from_slice(&data);
            }
            prop_assert_eq!(fs.size_bytes(ino).unwrap(), reference.len() as u64);
            let got = fs.read(&mut store, ino, 0, reference.len()).unwrap();
            prop_assert_eq!(got, reference);
        }
    }
}
