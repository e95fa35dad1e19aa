//! Inodes.
//!
//! An inode is a size plus an extent tree — the same pairing ext4 keeps,
//! and the part of the filesystem NeSC cares about: "each file is
//! associated with an extent tree (pointed to by the file's inode) that
//! maps file offsets to physical blocks" (paper §IV-B).
//!
//! Every mutable borrow of the extents bumps the inode's mapping
//! generation, so a holder of a serialized copy of the tree (the
//! hypervisor's device-visible trees) can tell whether the mapping has
//! changed since it serialized.

use nesc_extent::{ExtentTree, Plba, Vlba};

/// One file's metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Inode {
    size_bytes: u64,
    extents: ExtentTree,
    /// Bumped by every [`Inode::extents_mut`] borrow.
    generation: u64,
}

impl Inode {
    /// A fresh, empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logical file size in bytes (may exceed allocated space thanks to
    /// lazy allocation, and be smaller than `blocks * 1 KiB` for a final
    /// partial block).
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Sets the logical size (extension or truncation of the *size* only;
    /// block bookkeeping is the filesystem's job).
    pub fn set_size_bytes(&mut self, size: u64) {
        self.size_bytes = size;
    }

    /// The file's offset→block mapping.
    pub fn extents(&self) -> &ExtentTree {
        &self.extents
    }

    /// Mutable access for the filesystem's allocation paths: the one way
    /// to change the mapping, so it advances the
    /// [`mapping_generation`](Inode::mapping_generation) (whether or not
    /// the borrower then changes anything).
    pub fn extents_mut(&mut self) -> &mut ExtentTree {
        self.generation += 1;
        &mut self.extents
    }

    /// The mapping generation: equal values mean the extents have not
    /// been borrowed mutably in between, so the mapping is unchanged.
    pub fn mapping_generation(&self) -> u64 {
        self.generation
    }

    /// The physical block backing file block `v`, if allocated.
    pub fn block_at(&self, v: Vlba) -> Option<Plba> {
        self.extents.lookup(v).and_then(|e| e.translate(v))
    }

    /// Number of allocated (non-hole) blocks.
    pub fn allocated_blocks(&self) -> u64 {
        self.extents.mapped_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_extent::ExtentMapping;

    #[test]
    fn new_inode_is_empty() {
        let ino = Inode::new();
        assert_eq!(ino.size_bytes(), 0);
        assert_eq!(ino.allocated_blocks(), 0);
        assert_eq!(ino.block_at(Vlba(0)), None);
    }

    #[test]
    fn block_mapping_via_extents() {
        let mut ino = Inode::new();
        ino.extents_mut()
            .insert(ExtentMapping::new(Vlba(0), Plba(500), 4))
            .unwrap();
        ino.set_size_bytes(4096);
        assert_eq!(ino.block_at(Vlba(3)), Some(Plba(503)));
        assert_eq!(ino.block_at(Vlba(4)), None);
        assert_eq!(ino.allocated_blocks(), 4);
        assert_eq!(ino.size_bytes(), 4096);
    }

    #[test]
    fn mapping_generation_moves_with_every_mutable_borrow() {
        let mut ino = Inode::new();
        let g0 = ino.mapping_generation();
        ino.set_size_bytes(1 << 20);
        let _ = ino.extents().lookup(Vlba(0));
        assert_eq!(ino.mapping_generation(), g0, "size and reads keep it");
        ino.extents_mut().remove_range(Vlba(0), 1);
        assert_eq!(ino.mapping_generation(), g0 + 1);
    }
}
