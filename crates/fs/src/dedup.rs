//! Block deduplication.
//!
//! The paper leans on hypervisor-level sharing twice (§IV-D): memory
//! deduplication replaces the unified buffer cache, and the PF's BTLB
//! flush exists so "traditional storage optimizations (e.g., block
//! deduplication)" can rewrite mappings safely. This module implements the
//! storage side: scan a set of files, find blocks with identical content,
//! remap duplicates onto one physical copy, and free the rest.
//!
//! Shared physical blocks are reference-counted by the filesystem so
//! unlink/truncate of one sharer never frees a block another file still
//! maps. Deduplicated files must be treated as **read-only** by NeSC VFs
//! (the device has no copy-on-write; the paper's dedup discussion is about
//! read sharing) — the system layer enforces that by convention and the
//! security tests check the read paths.
//!
//! Deduplication is an *offline* optimization pass (as in real systems):
//! it is not journaled, so it must run at a consistent checkpoint; crash
//! recovery replays the journal into the pre-dedup state.

use std::collections::BTreeMap;

use nesc_extent::{ExtentMapping, Plba, Vlba};

use crate::fs::{Filesystem, FsError, Ino};
use crate::io::BlockIo;

/// Outcome of a deduplication pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupReport {
    /// Blocks examined.
    pub scanned_blocks: u64,
    /// Blocks remapped onto an existing identical copy.
    pub deduped_blocks: u64,
    /// Physical blocks returned to the allocator.
    pub freed_blocks: u64,
}

/// 64-bit FNV-1a over a block — fast, deterministic, collision-checked by
/// full comparison before any remap.
fn block_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Filesystem {
    /// Deduplicates the given files in place: after the pass, identical
    /// blocks across (and within) the files share one physical block.
    /// Returns what changed so the hypervisor can rebuild affected VF
    /// trees and flush the device's BTLB.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and stale inodes.
    pub fn dedup(&mut self, io: &mut dyn BlockIo, files: &[Ino]) -> Result<DedupReport, FsError> {
        let mut report = DedupReport::default();
        // hash -> (canonical plba, content)
        let mut seen: BTreeMap<u64, Vec<(Plba, Vec<u8>)>> = BTreeMap::new();
        for &ino in files {
            // Snapshot the mapping; we re-insert block by block.
            let extents: Vec<ExtentMapping> = self.extent_tree(ino)?.iter().copied().collect();
            for e in extents {
                for i in 0..e.len {
                    let v = e.logical.offset(i);
                    let p = e.physical.offset(i);
                    report.scanned_blocks += 1;
                    let data = io.read_block(p)?;
                    let h = block_hash(&data);
                    let bucket = seen.entry(h).or_default();
                    let existing = bucket
                        .iter()
                        .find(|(cp, content)| *cp != p && content == &data)
                        .map(|&(cp, _)| cp);
                    match existing {
                        Some(canonical) => {
                            self.remap_block(ino, v, canonical)?;
                            report.deduped_blocks += 1;
                            if self.release_block(p) {
                                report.freed_blocks += 1;
                            }
                        }
                        None => {
                            if !bucket.iter().any(|&(cp, _)| cp == p) {
                                bucket.push((p, data));
                            }
                        }
                    }
                }
            }
        }
        Ok(report)
    }

    /// Points file block `v` of `ino` at physical block `canonical`,
    /// bumping the share count.
    fn remap_block(&mut self, ino: Ino, v: Vlba, canonical: Plba) -> Result<(), FsError> {
        self.share_block(canonical);
        let tree = self.extent_tree_mut(ino)?;
        tree.remove_range(v, 1);
        tree.insert(ExtentMapping::new(v, canonical, 1))
            .expect("range was just removed");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_storage::{BlockStore, BLOCK_SIZE};

    fn setup() -> (BlockStore, Filesystem) {
        (BlockStore::new(4096), Filesystem::format(4096))
    }

    fn fill(fs: &mut Filesystem, store: &mut BlockStore, name: &str, pattern: &[u8]) -> Ino {
        let ino = fs.create(name).unwrap();
        fs.write(store, ino, 0, pattern).unwrap();
        ino
    }

    #[test]
    fn identical_files_collapse_to_one_copy() {
        let (mut store, mut fs) = setup();
        let content = vec![0xAB; 8 * BLOCK_SIZE as usize];
        let a = fill(&mut fs, &mut store, "a", &content);
        let b = fill(&mut fs, &mut store, "b", &content);
        let free_before = fs.free_blocks();
        let report = fs.dedup(&mut store, &[a, b]).unwrap();
        // 16 scanned; every block is identical, so one physical copy
        // remains (15 deduped: 7 within file a + 8 of file b).
        assert_eq!(report.scanned_blocks, 16);
        assert_eq!(report.deduped_blocks, 15);
        assert_eq!(fs.free_blocks(), free_before + report.freed_blocks);
        assert!(report.freed_blocks >= 14);
        // Content unchanged.
        assert_eq!(fs.read(&mut store, a, 0, content.len()).unwrap(), content);
        assert_eq!(fs.read(&mut store, b, 0, content.len()).unwrap(), content);
    }

    #[test]
    fn distinct_blocks_untouched() {
        let (mut store, mut fs) = setup();
        let mut content = vec![0u8; 4 * BLOCK_SIZE as usize];
        for (i, chunk) in content.chunks_mut(BLOCK_SIZE as usize).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        let a = fill(&mut fs, &mut store, "a", &content);
        let report = fs.dedup(&mut store, &[a]).unwrap();
        assert_eq!(report.deduped_blocks, 0);
        assert_eq!(report.freed_blocks, 0);
        assert_eq!(fs.read(&mut store, a, 0, content.len()).unwrap(), content);
    }

    #[test]
    fn unlink_of_one_sharer_preserves_the_other() {
        let (mut store, mut fs) = setup();
        let content = vec![0x5C; 4 * BLOCK_SIZE as usize];
        let a = fill(&mut fs, &mut store, "a", &content);
        let b = fill(&mut fs, &mut store, "b", &content);
        fs.dedup(&mut store, &[a, b]).unwrap();
        fs.unlink("a").unwrap();
        // b still reads correctly: the shared blocks were refcounted, not
        // freed.
        assert_eq!(fs.read(&mut store, b, 0, content.len()).unwrap(), content);
        // And unlinking b finally releases them.
        let free_mid = fs.free_blocks();
        fs.unlink("b").unwrap();
        assert!(fs.free_blocks() > free_mid);
    }

    #[test]
    fn a_block_is_shared_until_one_sharer_is_left() {
        let (mut store, mut fs) = setup();
        let content = vec![0x77; BLOCK_SIZE as usize];
        let a = fill(&mut fs, &mut store, "a", &content);
        let b = fill(&mut fs, &mut store, "b", &content);
        let b_before = fs.extent_tree(b).unwrap().lookup(Vlba(0)).unwrap().physical;
        assert!(!fs.is_shared(b_before));
        fs.dedup(&mut store, &[a, b]).unwrap();
        let block = |fs: &Filesystem, ino| {
            fs.extent_tree(ino)
                .unwrap()
                .lookup(Vlba(0))
                .map(|e| e.physical)
        };
        let p = block(&fs, a).unwrap();
        assert_eq!(block(&fs, b), Some(p), "both files map one copy");
        assert!(fs.is_shared(p));
        assert!(!fs.is_shared(b_before), "the freed duplicate is not shared");
        let free = fs.free_blocks();
        fs.unlink("a").unwrap();
        assert!(!fs.is_shared(p), "one sharer left");
        assert_eq!(fs.free_blocks(), free, "b still holds the block");
        assert_eq!(fs.read(&mut store, b, 0, content.len()).unwrap(), content);
        fs.unlink("b").unwrap();
        assert_eq!(fs.free_blocks(), free + 1);
    }

    #[test]
    fn truncate_of_sharer_is_safe() {
        let (mut store, mut fs) = setup();
        let content = vec![0x31; 4 * BLOCK_SIZE as usize];
        let a = fill(&mut fs, &mut store, "a", &content);
        let b = fill(&mut fs, &mut store, "b", &content);
        fs.dedup(&mut store, &[a, b]).unwrap();
        fs.truncate(a, 0).unwrap();
        assert_eq!(fs.read(&mut store, b, 0, content.len()).unwrap(), content);
    }

    #[test]
    fn hash_discriminates() {
        let a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        b[63] = 1;
        assert_ne!(block_hash(&a), block_hash(&b));
        assert_eq!(block_hash(&a), block_hash(&a.clone()));
    }

    #[test]
    fn dedup_report_is_deterministic() {
        let run = || {
            let (mut store, mut fs) = setup();
            let content = vec![0x42; 16 * BLOCK_SIZE as usize];
            let a = fill(&mut fs, &mut store, "a", &content);
            let b = fill(&mut fs, &mut store, "b", &content);
            fs.dedup(&mut store, &[a, b]).unwrap()
        };
        assert_eq!(run(), run());
    }
}
