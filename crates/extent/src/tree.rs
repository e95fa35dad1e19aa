//! The hypervisor-side (builder) extent tree.
//!
//! [`ExtentTree`] is the software representation the hypervisor maintains
//! per virtual function: an ordered set of non-overlapping
//! [`ExtentMapping`]s. Virtual blocks not covered by any extent are *holes*
//! — unallocated thanks to lazy allocation, reading as zeros per POSIX
//! (paper §IV-C).
//!
//! [`ExtentTree::serialize`] lowers the mapping into the device-visible
//! node format in host memory (bottom-up B-tree construction with the
//! layout's fanout) and returns the root pointer the hypervisor stores in
//! the VF's `ExtentTreeRoot` register. Like ext4, "the key benefit of
//! extent trees is that their depth is not fixed but rather depends on the
//! mapping itself": a file mapped by one extent serializes to a single leaf
//! node, while a fragmented file grows internal levels.

use nesc_pcie::{HostAddr, HostMemory};

use crate::layout::{self, NodeEntry, NodeKind, NodeView, FANOUT, NODE_SIZE};
use crate::types::{ExtentMapping, Vlba};

/// Error inserting an extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The new extent's logical range overlaps an existing mapping.
    Overlap {
        /// The mapping already present.
        existing: ExtentMapping,
        /// The mapping that was rejected.
        rejected: ExtentMapping,
    },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Overlap { existing, rejected } => {
                write!(f, "extent {rejected} overlaps existing {existing}")
            }
        }
    }
}

impl std::error::Error for InsertError {}

/// An ordered, non-overlapping set of extents mapping a virtual device (a
/// file) onto physical blocks.
///
/// # Example
///
/// ```
/// use nesc_extent::{ExtentTree, ExtentMapping, Vlba, Plba};
///
/// let mut tree = ExtentTree::new();
/// tree.insert(ExtentMapping::new(Vlba(0), Plba(1000), 8)).unwrap();
/// tree.insert(ExtentMapping::new(Vlba(8), Plba(1008), 8)).unwrap(); // merges
/// assert_eq!(tree.extent_count(), 1);
/// assert_eq!(tree.lookup(Vlba(12)).unwrap().translate(Vlba(12)), Some(Plba(1012)));
/// assert!(tree.lookup(Vlba(100)).is_none()); // a hole
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentTree {
    /// Sorted by `logical`, pairwise non-overlapping, adjacent-merged.
    extents: Vec<ExtentMapping>,
}

impl ExtentTree {
    /// Creates an empty tree (every block is a hole).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a tree from extents in any order.
    ///
    /// # Errors
    ///
    /// Returns the first [`InsertError::Overlap`] encountered.
    pub fn from_extents(
        extents: impl IntoIterator<Item = ExtentMapping>,
    ) -> Result<Self, InsertError> {
        let mut t = ExtentTree::new();
        for e in extents {
            t.insert(e)?;
        }
        Ok(t)
    }

    /// Number of extents after merging.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Total mapped blocks (excludes holes).
    pub fn mapped_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// One past the last mapped virtual block, or `Vlba(0)` if empty.
    pub fn logical_end(&self) -> Vlba {
        self.extents
            .last()
            .map(|e| e.end_logical())
            .unwrap_or(Vlba(0))
    }

    /// Iterates extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = &ExtentMapping> {
        self.extents.iter()
    }

    /// Inserts a mapping, merging with logically+physically adjacent
    /// neighbours (the same coalescing ext4 performs).
    ///
    /// # Errors
    ///
    /// [`InsertError::Overlap`] if the logical range is already mapped.
    pub fn insert(&mut self, ext: ExtentMapping) -> Result<(), InsertError> {
        let pos = self.partition_point(|e| e.logical < ext.logical);
        if let Some(prev) = pos.checked_sub(1).and_then(|i| self.extents.get(i)) {
            if prev.overlaps_logical(&ext) {
                return Err(InsertError::Overlap {
                    existing: *prev,
                    rejected: ext,
                });
            }
        }
        if let Some(next) = self.extents.get(pos) {
            if next.overlaps_logical(&ext) {
                return Err(InsertError::Overlap {
                    existing: *next,
                    rejected: ext,
                });
            }
        }
        self.extents.insert(pos, ext);
        // Merge with the next extent, then with the previous one.
        if pos + 1 < self.extents.len() && self.extents[pos].abuts(&self.extents[pos + 1]) {
            self.extents[pos].len += self.extents[pos + 1].len;
            self.extents.remove(pos + 1);
        }
        if pos > 0 && self.extents[pos - 1].abuts(&self.extents[pos]) {
            self.extents[pos - 1].len += self.extents[pos].len;
            self.extents.remove(pos);
        }
        Ok(())
    }

    /// The extent covering `v`, if mapped.
    pub fn lookup(&self, v: Vlba) -> Option<ExtentMapping> {
        let pos = self.partition_point(|e| e.logical <= v);
        pos.checked_sub(1)
            .map(|i| self.extents[i])
            .filter(|e| e.contains(v))
    }

    /// The first block of the first extent that starts after `v`, if any:
    /// for an unmapped `v`, where the hole at `v` ends.
    ///
    /// ```
    /// use nesc_extent::{ExtentMapping, ExtentTree, Plba, Vlba};
    ///
    /// let t: ExtentTree = [ExtentMapping::new(Vlba(8), Plba(0), 4)].into_iter().collect();
    /// assert_eq!(t.next_start_after(Vlba(2)), Some(Vlba(8))); // the hole 2..8
    /// assert_eq!(t.next_start_after(Vlba(8)), None);
    /// ```
    pub fn next_start_after(&self, v: Vlba) -> Option<Vlba> {
        let pos = self.partition_point(|e| e.logical <= v);
        self.extents.get(pos).map(|e| e.logical)
    }

    /// `partition_point` over the extents for a predicate that holds on a
    /// prefix of them, with the last extent checked first: a file grows
    /// by appending, and an append's search ends past the last extent
    /// without a binary search.
    fn partition_point(&self, pred: impl Fn(&ExtentMapping) -> bool) -> usize {
        match self.extents.last() {
            Some(last) if pred(last) => self.extents.len(),
            _ => self.extents.partition_point(pred),
        }
    }

    /// Unmaps `[start, start+len)`, splitting extents as needed (hole
    /// punching / truncation). Blocks already unmapped are ignored.
    pub fn remove_range(&mut self, start: Vlba, len: u64) {
        if len == 0 {
            return;
        }
        let end = start.offset(len);
        let mut out = Vec::with_capacity(self.extents.len() + 1);
        for e in self.extents.drain(..) {
            if e.end_logical() <= start || e.logical >= end {
                out.push(e);
                continue;
            }
            // Left remainder.
            if e.logical < start {
                out.push(ExtentMapping::new(
                    e.logical,
                    e.physical,
                    start.distance_from(e.logical),
                ));
            }
            // Right remainder.
            if e.end_logical() > end {
                let cut = end.distance_from(e.logical);
                out.push(ExtentMapping::new(
                    end,
                    e.physical.offset(cut),
                    e.end_logical().distance_from(end),
                ));
            }
        }
        self.extents = out;
    }

    /// Serializes the tree into host memory in the device-visible layout,
    /// returning the root node's address for the VF's `ExtentTreeRoot`
    /// register.
    ///
    /// An empty tree serializes to an empty leaf, so the device can still
    /// walk it (and correctly report every block as a hole).
    pub fn serialize(&self, mem: &mut HostMemory) -> HostAddr {
        // Leaf level.
        let mut level: Vec<(HostAddr, Vlba, Vlba)> = Vec::new(); // (addr, first, end)
        if self.extents.is_empty() {
            let addr = mem.alloc(NODE_SIZE as u64, 64);
            mem.write(addr, &layout::encode_leaf(&[]));
            return addr;
        }
        for chunk in self.extents.chunks(FANOUT) {
            let addr = mem.alloc(NODE_SIZE as u64, 64);
            mem.write(addr, &layout::encode_leaf(chunk));
            level.push((addr, chunk[0].logical, chunk[chunk.len() - 1].end_logical()));
        }
        // Internal levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<(HostAddr, Vlba, Vlba)> = Vec::new();
            for chunk in level.chunks(FANOUT) {
                let entries: Vec<NodeEntry> = chunk
                    .iter()
                    .map(|&(addr, first, end)| NodeEntry {
                        first_logical: first,
                        blocks: end.distance_from(first),
                        child: addr,
                    })
                    .collect();
                let addr = mem.alloc(NODE_SIZE as u64, 64);
                mem.write(addr, &layout::encode_internal(&entries));
                next.push((addr, chunk[0].1, chunk[chunk.len() - 1].2));
            }
            level = next;
        }
        level[0].0
    }

    /// Repairs a serialization of this tree that
    /// [`prune_covering`](crate::prune_covering) has cut: every NULL child
    /// pointer of the last internal level gets a freshly encoded leaf for
    /// the `FANOUT`-aligned chunk of extents it stands for, so the tree at
    /// `root` walks exactly as a new [`serialize`](Self::serialize) would.
    /// Only the internal levels are read, and one leaf is written per
    /// pruned slot. A tree with nothing pruned is already whole: `true`,
    /// nothing written.
    ///
    /// Returns `false` and writes nothing if the tree at `root` is not a
    /// serialization of this mapping cut only at its leaf pointers: a
    /// depth-1 tree, a node that does not decode or is not internal, a
    /// NULL above the last internal level, a leaf count that differs, or a
    /// pruned entry whose first block or end differs from its chunk's.
    /// Unpruned leaves are not read, so the caller must know by other
    /// means (the hypervisor's mapping generation) that the mapping is the
    /// one `root` was serialized from.
    pub fn relink_pruned(&self, mem: &mut HostMemory, root: HostAddr) -> bool {
        let depth = self.serialized_depth();
        if depth < 2 {
            return false;
        }
        let mut scratch = [0u8; NODE_SIZE];
        // Descend to the last internal level, left to right.
        let mut level = vec![root];
        for _ in 2..depth {
            let mut next = Vec::with_capacity(level.len() * FANOUT);
            for &addr in &level {
                let Some(node) = internal(mem, addr, &mut scratch) else {
                    return false;
                };
                if node.entries().any(|e| e.is_pruned()) {
                    return false;
                }
                next.extend(node.entries().map(|e| e.child));
            }
            level = next;
        }
        // Entry `k` of the last internal level (counted across its nodes)
        // points at the leaf holding chunk `k` of the extents.
        let chunks = self.extents.len().div_ceil(FANOUT);
        let mut pruned: Vec<(HostAddr, &[ExtentMapping])> = Vec::new();
        let mut k = 0;
        for &addr in &level {
            let Some(node) = internal(mem, addr, &mut scratch) else {
                return false;
            };
            for (i, e) in node.entries().enumerate() {
                if e.is_pruned() {
                    let Some(chunk) = self.extents.chunks(FANOUT).nth(k) else {
                        return false;
                    };
                    let end = chunk[chunk.len() - 1].end_logical();
                    if chunk[0].logical != e.first_logical || end != e.end_logical() {
                        return false;
                    }
                    pruned.push((addr + layout::child_ptr_offset(i) as u64, chunk));
                }
                k += 1;
            }
        }
        if k != chunks {
            return false;
        }
        for (slot, chunk) in pruned {
            let leaf = mem.alloc(NODE_SIZE as u64, 64);
            mem.write(leaf, &layout::encode_leaf(chunk));
            mem.write_u64(slot, leaf);
        }
        true
    }

    /// The depth (node reads per cold walk) this tree serializes to.
    pub fn serialized_depth(&self) -> u32 {
        let mut nodes = self.extents.len().max(1).div_ceil(FANOUT);
        let mut depth = 1;
        while nodes > 1 {
            nodes = nodes.div_ceil(FANOUT);
            depth += 1;
        }
        depth
    }
}

/// The internal node at `addr`, or `None` if it does not parse or is a
/// leaf.
fn internal<'a>(
    mem: &'a HostMemory,
    addr: HostAddr,
    scratch: &'a mut [u8; NODE_SIZE],
) -> Option<NodeView<'a>> {
    NodeView::read(mem, addr, scratch)
        .ok()
        .filter(|n| n.kind() == NodeKind::Internal)
}

impl FromIterator<ExtentMapping> for ExtentTree {
    /// Builds a tree, panicking on overlap; use [`ExtentTree::from_extents`]
    /// for fallible construction.
    fn from_iter<I: IntoIterator<Item = ExtentMapping>>(iter: I) -> Self {
        ExtentTree::from_extents(iter).expect("overlapping extents")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Plba;
    use proptest::prelude::*;

    #[test]
    fn insert_rejects_overlap() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(10), Plba(0), 10)).unwrap();
        let err = t
            .insert(ExtentMapping::new(Vlba(15), Plba(100), 1))
            .unwrap_err();
        assert!(matches!(err, InsertError::Overlap { .. }));
        assert!(err.to_string().contains("overlaps"));
        // Non-overlapping neighbours are fine.
        t.insert(ExtentMapping::new(Vlba(0), Plba(50), 10)).unwrap();
        t.insert(ExtentMapping::new(Vlba(20), Plba(60), 5)).unwrap();
    }

    #[test]
    fn merges_adjacent_extents() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(0), Plba(100), 4)).unwrap();
        t.insert(ExtentMapping::new(Vlba(8), Plba(108), 4)).unwrap();
        // Fill the gap with the physically-contiguous middle piece: all
        // three coalesce into one extent.
        t.insert(ExtentMapping::new(Vlba(4), Plba(104), 4)).unwrap();
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.mapped_blocks(), 12);
        assert_eq!(t.logical_end(), Vlba(12));
    }

    #[test]
    fn physically_discontiguous_do_not_merge() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(0), Plba(100), 4)).unwrap();
        t.insert(ExtentMapping::new(Vlba(4), Plba(500), 4)).unwrap();
        assert_eq!(t.extent_count(), 2);
    }

    #[test]
    fn lookup_hits_and_holes() {
        let t: ExtentTree = [
            ExtentMapping::new(Vlba(0), Plba(10), 2),
            ExtentMapping::new(Vlba(10), Plba(20), 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            t.lookup(Vlba(1)).unwrap().translate(Vlba(1)),
            Some(Plba(11))
        );
        assert!(t.lookup(Vlba(2)).is_none());
        assert!(t.lookup(Vlba(9)).is_none());
        assert_eq!(
            t.lookup(Vlba(11)).unwrap().translate(Vlba(11)),
            Some(Plba(21))
        );
        assert!(t.lookup(Vlba(12)).is_none());
    }

    #[test]
    fn next_start_after_ends_each_hole() {
        let t: ExtentTree = [
            ExtentMapping::new(Vlba(3), Plba(10), 2),
            ExtentMapping::new(Vlba(10), Plba(20), 2),
        ]
        .into_iter()
        .collect();
        for (v, want) in [
            (0, Some(3)),
            (2, Some(3)),
            (3, Some(10)),
            (5, Some(10)),
            (10, None),
            (99, None),
        ] {
            assert_eq!(t.next_start_after(Vlba(v)), want.map(Vlba), "vLBA {v}");
        }
    }

    #[test]
    fn from_extents_sorts_merges_and_reports_the_first_overlap() {
        let t = ExtentTree::from_extents([
            ExtentMapping::new(Vlba(10), Plba(110), 4),
            ExtentMapping::new(Vlba(0), Plba(100), 4),
            ExtentMapping::new(Vlba(4), Plba(104), 2),
        ])
        .unwrap();
        assert_eq!(t.extent_count(), 2, "vLBA 0..6 merges into one extent");
        assert_eq!(t.lookup(Vlba(5)).map(|e| e.len), Some(6));
        assert_eq!(t.next_start_after(Vlba(6)), Some(Vlba(10)));
        let existing = ExtentMapping::new(Vlba(0), Plba(100), 4);
        let rejected = ExtentMapping::new(Vlba(3), Plba(500), 2);
        let later = ExtentMapping::new(Vlba(2), Plba(900), 1);
        assert_eq!(
            ExtentTree::from_extents([existing, rejected, later]).unwrap_err(),
            InsertError::Overlap { existing, rejected }
        );
        assert_eq!(ExtentTree::new().next_start_after(Vlba(0)), None);
    }

    #[test]
    fn remove_range_splits() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(0), Plba(100), 10))
            .unwrap();
        t.remove_range(Vlba(3), 4);
        assert_eq!(t.extent_count(), 2);
        assert_eq!(
            t.lookup(Vlba(2)).unwrap().translate(Vlba(2)),
            Some(Plba(102))
        );
        assert!(t.lookup(Vlba(3)).is_none());
        assert!(t.lookup(Vlba(6)).is_none());
        assert_eq!(
            t.lookup(Vlba(7)).unwrap().translate(Vlba(7)),
            Some(Plba(107))
        );
        t.remove_range(Vlba(0), 100);
        assert_eq!(t.extent_count(), 0);
        t.remove_range(Vlba(0), 0); // no-op
    }

    #[test]
    fn depth_grows_with_fragmentation() {
        // FANOUT extents fit a single leaf; FANOUT+1 need a root.
        let single: ExtentTree = (0..FANOUT as u64)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 2), 1))
            .collect();
        assert_eq!(single.serialized_depth(), 1);
        let two: ExtentTree = (0..FANOUT as u64 + 1)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 2), 1))
            .collect();
        assert_eq!(two.serialized_depth(), 2);
        let three: ExtentTree = (0..(FANOUT * FANOUT) as u64 + 1)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 2), 1))
            .collect();
        assert_eq!(three.serialized_depth(), 3);
    }

    #[test]
    fn empty_tree_serializes() {
        let mut mem = HostMemory::new();
        let t = ExtentTree::new();
        let root = t.serialize(&mut mem);
        assert_ne!(root, 0);
        assert_eq!(t.serialized_depth(), 1);
    }

    /// A node's entries, as [`levels`] compares them.
    #[derive(Debug, PartialEq, Eq)]
    enum Flat {
        Internal(Vec<NodeEntry>),
        Leaf(Vec<ExtentMapping>),
    }

    /// Every node of the tree at `root`, level by level from the root,
    /// with child addresses zeroed so two serializations compare by
    /// content. Panics on a NULL child pointer.
    fn levels(mem: &HostMemory, root: HostAddr) -> Vec<Vec<Flat>> {
        let mut out = Vec::new();
        let mut level = vec![root];
        let mut scratch = [0u8; NODE_SIZE];
        while !level.is_empty() {
            let (mut nodes, mut next) = (Vec::new(), Vec::new());
            for &addr in &level {
                let node = NodeView::read(mem, addr, &mut scratch).expect("node parses");
                match node.kind() {
                    NodeKind::Internal => {
                        assert!(!node.entries().any(|e| e.is_pruned()), "a NULL survived");
                        next.extend(node.entries().map(|e| e.child));
                        let unlinked = node.entries().map(|e| NodeEntry { child: 0, ..e });
                        nodes.push(Flat::Internal(unlinked.collect()));
                    }
                    NodeKind::Leaf => {
                        let extents = (0..FANOUT).map_while(|i| node.extent(i));
                        nodes.push(Flat::Leaf(extents.collect()));
                    }
                }
            }
            out.push(nodes);
            level = next;
        }
        out
    }

    /// `n` one-block extents, each followed by a one-block hole and
    /// physically apart, so none merge.
    fn fragmented(n: u64) -> ExtentTree {
        (0..n)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 3 + 7), 1))
            .collect()
    }

    /// Extents laid out from `(gap, len)` pairs: each extent starts `gap`
    /// blocks after the previous one ends, and none are physically
    /// adjacent, so none merge.
    fn shaped(shape: &[(u64, u64)]) -> ExtentTree {
        let mut cursor = 0;
        shape
            .iter()
            .enumerate()
            .map(|(i, &(gap, len))| {
                let e = ExtentMapping::new(Vlba(cursor + gap), Plba(i as u64 * 16 + 7), len);
                cursor += gap + len;
                e
            })
            .collect()
    }

    /// Runs `f` on `mem` and requires it to leave the bytes of `[lo, hi)`
    /// unchanged, fault in no page and allocate nothing; returns `f`'s
    /// result.
    fn untouched<R>(
        mem: &mut HostMemory,
        (lo, hi): (HostAddr, HostAddr),
        f: impl FnOnce(&mut HostMemory) -> R,
    ) -> R {
        let bytes = mem.read_vec(lo, (hi - lo) as usize);
        let (pages, next) = (mem.resident_pages(), mem.alloc(1, 1));
        let r = f(mem);
        assert!(
            mem.read_vec(lo, (hi - lo) as usize) == bytes,
            "bytes changed"
        );
        assert_eq!(mem.resident_pages(), pages, "pages faulted in");
        assert_eq!(mem.alloc(1, 1), next + 1, "memory allocated");
        r
    }

    /// Serializes `t` into `mem`, returning the root and the address range
    /// the serialization occupies.
    fn serialize_bounded(t: &ExtentTree, mem: &mut HostMemory) -> (HostAddr, (HostAddr, HostAddr)) {
        let lo = mem.alloc(1, 1);
        let root = t.serialize(mem);
        (root, (lo, mem.alloc(1, 1)))
    }

    #[test]
    fn relink_restores_every_pruned_leaf() {
        let t = fragmented(500);
        let mut mem = HostMemory::new();
        let (root, span) = serialize_bounded(&t, &mut mem);
        let whole = levels(&mem, root);
        for v in [0, 400, 998] {
            assert!(crate::prune_covering(&mut mem, root, Vlba(v)));
        }
        // vLBA 2 lies under vLBA 0's leaf, whose slot is already cut.
        assert!(!crate::prune_covering(&mut mem, root, Vlba(2)));
        assert!(t.relink_pruned(&mut mem, root));
        assert_eq!(levels(&mem, root), whole);
        // A whole tree needs no repair and gets no writes.
        assert!(untouched(&mut mem, span, |m| t.relink_pruned(m, root)));
    }

    #[test]
    fn relink_refuses_what_it_cannot_repair() {
        // A single leaf has no pointer to repair.
        let leaf = fragmented(FANOUT as u64);
        let mut mem = HostMemory::new();
        let (root, span) = serialize_bounded(&leaf, &mut mem);
        assert!(!untouched(&mut mem, span, |m| leaf.relink_pruned(m, root)));
        // A NULL above the last internal level: the lost subtree holds
        // internal nodes, which a repair does not rebuild.
        let t = fragmented((FANOUT * FANOUT) as u64 + 1);
        assert_eq!(t.serialized_depth(), 3);
        let (root, span) = serialize_bounded(&t, &mut mem);
        mem.write_u64(root + layout::child_ptr_offset(0) as u64, 0);
        assert!(!untouched(&mut mem, span, |m| t.relink_pruned(m, root)));
    }

    /// The searches without the last-extent check: every one a
    /// `partition_point` over the whole `Vec`.
    #[derive(Default)]
    struct BinarySearched(Vec<ExtentMapping>);

    impl BinarySearched {
        fn insert(&mut self, ext: ExtentMapping) -> Result<(), InsertError> {
            let v = &mut self.0;
            let pos = v.partition_point(|e| e.logical < ext.logical);
            for i in [pos.checked_sub(1), Some(pos)].into_iter().flatten() {
                if let Some(&existing) = v.get(i).filter(|e| e.overlaps_logical(&ext)) {
                    return Err(InsertError::Overlap {
                        existing,
                        rejected: ext,
                    });
                }
            }
            v.insert(pos, ext);
            if pos + 1 < v.len() && v[pos].abuts(&v[pos + 1]) {
                v[pos].len += v[pos + 1].len;
                v.remove(pos + 1);
            }
            if pos > 0 && v[pos - 1].abuts(&v[pos]) {
                v[pos - 1].len += v[pos].len;
                v.remove(pos);
            }
            Ok(())
        }

        fn lookup(&self, v: Vlba) -> Option<ExtentMapping> {
            let pos = self.0.partition_point(|e| e.logical <= v);
            pos.checked_sub(1)
                .map(|i| self.0[i])
                .filter(|e| e.contains(v))
        }

        fn next_start_after(&self, v: Vlba) -> Option<Vlba> {
            let pos = self.0.partition_point(|e| e.logical <= v);
            self.0.get(pos).map(|e| e.logical)
        }
    }

    proptest! {
        /// lookup() agrees with a brute-force reference map built from the
        /// same random (disjoint) extents.
        #[test]
        fn prop_lookup_matches_reference(
            // Random disjoint extents via start offsets spaced by stride.
            seeds in proptest::collection::vec((0u64..50, 1u64..20, 0u64..100_000), 1..60)
        ) {
            let mut t = ExtentTree::new();
            let mut reference = std::collections::HashMap::new();
            let mut cursor = 0u64;
            for &(gap, len, phys) in &seeds {
                let logical = cursor + gap;
                cursor = logical + len;
                if t.insert(ExtentMapping::new(Vlba(logical), Plba(phys), len)).is_ok() {
                    for i in 0..len {
                        reference.insert(logical + i, phys + i);
                    }
                }
            }
            for v in 0..cursor + 10 {
                let got = t.lookup(Vlba(v)).and_then(|e| e.translate(Vlba(v)));
                prop_assert_eq!(got, reference.get(&v).map(|&p| Plba(p)));
            }
        }

        /// Checking the last extent first changes no answer: inserts
        /// (appends that merge, appends after a hole, appends that overlap
        /// the tail, inserts into earlier holes), lookups and hole ends,
        /// from an empty tree on and past the end, equal the
        /// binary-search-only model's.
        #[test]
        fn prop_tail_checked_searches_match_binary_search(
            ops in proptest::collection::vec((0u8..8, 0u64..6, 1u64..5), 0..80),
        ) {
            let (mut t, mut model) = (ExtentTree::new(), BinarySearched::default());
            let mut phys = 1_000;
            for &(kind, k, len) in &ops {
                let end = t.logical_end().0;
                let logical = match kind {
                    // Append at the end; physically contiguous, it merges.
                    0..=2 => end,
                    // Append after a hole.
                    3 | 4 => end + k + 1,
                    // Start inside the last extent: an overlap.
                    5 => end.saturating_sub(k + 1),
                    // Anywhere below the end: a hole fills or overlaps.
                    _ => k * 7 % end.max(1),
                };
                if kind > 0 {
                    phys += 3;
                }
                let ext = ExtentMapping::new(Vlba(logical), Plba(phys), len);
                phys += len;
                prop_assert_eq!(t.insert(ext), model.insert(ext));
                prop_assert!(t.iter().eq(model.0.iter()));
                for v in (0..t.logical_end().0 + 3).chain([u64::MAX / 2]) {
                    prop_assert_eq!(t.lookup(Vlba(v)), model.lookup(Vlba(v)));
                    prop_assert_eq!(t.next_start_after(Vlba(v)), model.next_start_after(Vlba(v)));
                }
            }
            prop_assert_eq!(t.lookup(Vlba(0)), model.lookup(Vlba(0)));
        }

        /// A repaired tree equals a fresh serialization node for node
        /// (child addresses aside), for random fragmented trees of depth
        /// 2 and 3 and random sets of prunes.
        #[test]
        fn prop_relink_equals_serialize(
            shape in proptest::collection::vec((1u64..4, 1u64..5), FANOUT + 1..1_000),
            victims in proptest::collection::vec(0u64..1_000_000, 1..12),
        ) {
            let t = shaped(&shape);
            prop_assert!((2..=3).contains(&t.serialized_depth()));
            let mut mem = HostMemory::new();
            let root = t.serialize(&mut mem);
            let end = t.logical_end().0;
            for &v in &victims {
                crate::prune_covering(&mut mem, root, Vlba(v % end));
            }
            prop_assert!(t.relink_pruned(&mut mem, root));
            let mut fresh = HostMemory::new();
            let fresh_root = t.serialize(&mut fresh);
            prop_assert_eq!(levels(&mem, root), levels(&fresh, fresh_root));
        }

        /// After an insert that shifts the chunk boundaries under a pruned
        /// slot, the old serialization no longer fits the mapping: the
        /// repair refuses and leaves memory byte-unchanged.
        #[test]
        fn prop_relink_refuses_a_changed_mapping(
            shape in proptest::collection::vec((1u64..4, 1u64..5), FANOUT + 1..1_000),
            victim in 0usize..1_000,
            at in 0usize..1_000,
        ) {
            let mut t = shaped(&shape);
            let mut mem = HostMemory::new();
            let (root, span) = serialize_bounded(&t, &mut mem);
            let victim = victim % t.extent_count();
            let pruned_at = t.iter().nth(victim).unwrap().logical;
            prop_assert!(crate::prune_covering(&mut mem, root, pruned_at));
            // A one-block extent in the hole just before the pruned
            // chunk's first extent or an earlier one (every gap is at
            // least one block): the chunk now starts one extent earlier.
            let chunk_first = victim / FANOUT * FANOUT;
            let before = t.iter().nth(at % (chunk_first + 1)).unwrap();
            let hole = Vlba(before.logical.0 - 1);
            t.insert(ExtentMapping::new(hole, Plba(u64::MAX / 2), 1)).unwrap();
            prop_assert!(!untouched(&mut mem, span, |m| t.relink_pruned(m, root)));
        }

        /// remove_range never leaves blocks mapped inside the removed range
        /// and never disturbs blocks outside it.
        #[test]
        fn prop_remove_range_exact(
            len in 1u64..200,
            cut_start in 0u64..220,
            cut_len in 0u64..100,
        ) {
            let mut t = ExtentTree::new();
            t.insert(ExtentMapping::new(Vlba(0), Plba(1000), len)).unwrap();
            t.remove_range(Vlba(cut_start), cut_len);
            for v in 0..len + 20 {
                let inside_cut = v >= cut_start && v < cut_start + cut_len;
                let originally = v < len;
                let got = t.lookup(Vlba(v)).and_then(|e| e.translate(Vlba(v)));
                if originally && !inside_cut {
                    prop_assert_eq!(got, Some(Plba(1000 + v)));
                } else {
                    prop_assert_eq!(got, None);
                }
            }
        }
    }
}
