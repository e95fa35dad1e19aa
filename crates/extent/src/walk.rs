//! The device-side block walk.
//!
//! This is the traversal NeSC's block-walk unit performs in hardware (paper
//! §V-B): starting from the VF's `ExtentTreeRoot` pointer, DMA one node per
//! level out of host memory, match the vLBA against the node's entries, and
//! recurse until an extent is matched (translation), no entry covers the
//! address (a file hole), or a NULL child pointer is found (the hypervisor
//! pruned the subtree under memory pressure and must be interrupted to
//! regenerate it).
//!
//! The function here is the *functional* walk; the controller model in
//! `nesc-core` charges one tree-node DMA per level reported in
//! [`WalkResult::levels`]. Like the hardware, it reads each node where it
//! lives ([`NodeView`]): the header is checked, one binary search over the
//! entries' first-logical keys picks the candidate, and only that entry is
//! decoded. A node is copied only when it straddles a host page boundary.

use nesc_pcie::{HostAddr, HostMemory};

use crate::layout::{self, LayoutError, NodeEntry, NodeKind, NodeView, NODE_SIZE};
use crate::types::{ExtentMapping, Vlba};

/// Outcome of walking a serialized extent tree for one vLBA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOutcome {
    /// The address is mapped; the whole covering extent is returned so a
    /// BTLB can cache it.
    Mapped(ExtentMapping),
    /// The address falls in a file hole: reads return zeros, writes require
    /// host allocation.
    Hole,
    /// The covering subtree was pruned (NULL node pointer); the device must
    /// interrupt the host to regenerate mappings.
    Pruned {
        /// Address of the internal node holding the NULL pointer.
        node: HostAddr,
        /// Index of the NULL entry within that node.
        entry: usize,
    },
    /// The node bytes did not decode — tree corruption, fatal.
    Corrupt(LayoutError),
}

/// Result of one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// What the walk found.
    pub outcome: WalkOutcome,
    /// Number of nodes read — the number of DMA round trips the hardware
    /// pays for this walk.
    pub levels: u32,
}

/// Result of one run-sized walk: the outcome for the probed vLBA plus how
/// many blocks (starting there) the outcome is known to apply to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkRun {
    /// Outcome and level count, exactly as [`walk`] would report them.
    pub result: WalkResult,
    /// Blocks the outcome applies to, starting at the probed vLBA and
    /// capped at the caller's `max_blocks` (always at least 1):
    ///
    /// - `Mapped`: the extent's remaining coverage — every block in the run
    ///   translates contiguously through the same extent.
    /// - `Hole`: the hole span bounded so every block in the run resolves
    ///   `Hole` along the *same* node path with the same `levels` (the span
    ///   is clipped to the covering entry's range at each internal level),
    ///   so batched callers charge identical per-block walk costs.
    /// - `Pruned` / `Corrupt`: 1 — the caller must stop at this block.
    pub run: u64,
}

/// Walks the serialized tree rooted at `root` for `vlba`.
///
/// # Example
///
/// ```
/// use nesc_extent::{ExtentTree, ExtentMapping, Vlba, Plba, walk, WalkOutcome};
/// use nesc_pcie::HostMemory;
///
/// let mut mem = HostMemory::new();
/// let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(777), 4)].into_iter().collect();
/// let root = tree.serialize(&mut mem);
///
/// let hit = walk(&mem, root, Vlba(2));
/// assert_eq!(hit.levels, 1); // single-leaf tree: one DMA
/// match hit.outcome {
///     WalkOutcome::Mapped(e) => assert_eq!(e.translate(Vlba(2)), Some(Plba(779))),
///     other => panic!("{other:?}"),
/// }
/// assert_eq!(walk(&mem, root, Vlba(9)).outcome, WalkOutcome::Hole);
/// ```
pub fn walk(mem: &HostMemory, root: HostAddr, vlba: Vlba) -> WalkResult {
    walk_run(mem, root, vlba, 1).result
}

/// Walks the tree once and reports how far the outcome extends, so a
/// translation unit can serve a whole extent run from a single descent
/// (paper §V-B: "extents typically span more than one block").
///
/// # Example
///
/// ```
/// use nesc_extent::{ExtentTree, ExtentMapping, Vlba, Plba, walk_run, WalkOutcome};
/// use nesc_pcie::HostMemory;
///
/// let mut mem = HostMemory::new();
/// let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(777), 8)].into_iter().collect();
/// let root = tree.serialize(&mut mem);
///
/// let r = walk_run(&mem, root, Vlba(2), 64);
/// assert!(matches!(r.result.outcome, WalkOutcome::Mapped(_)));
/// assert_eq!(r.run, 6); // blocks 2..8 of the extent
/// ```
pub fn walk_run(mem: &HostMemory, root: HostAddr, vlba: Vlba, max_blocks: u64) -> WalkRun {
    let max_blocks = max_blocks.max(1);
    let mut addr = root;
    let mut levels = 0u32;
    // Tightest end-of-coverage bound among the internal entries descended
    // through; a hole span must not cross it, or later blocks of the span
    // would walk a different path (different levels, different nodes).
    let mut path_bound = u64::MAX;
    let mut scratch = [0u8; NODE_SIZE];
    loop {
        levels += 1;
        let node = match NodeView::read(mem, addr, &mut scratch) {
            Ok(n) => n,
            Err(e) => {
                return WalkRun {
                    result: WalkResult {
                        outcome: WalkOutcome::Corrupt(e),
                        levels,
                    },
                    run: 1,
                }
            }
        };
        let pos = node.search(vlba);
        // A hole at `vlba` ends at the next entry's start, or at the
        // subtree's coverage bound if no entry follows.
        let bound = node
            .first_logical(pos)
            .map_or(path_bound, |next| next.0.min(path_bound));
        match node.kind() {
            NodeKind::Leaf => {
                let hit = pos
                    .checked_sub(1)
                    .and_then(|i| node.extent(i))
                    .filter(|e| e.contains(vlba));
                let (outcome, run) = match hit {
                    Some(e) => (WalkOutcome::Mapped(e), e.covered_run(vlba, max_blocks)),
                    None => (WalkOutcome::Hole, hole_run(vlba, bound, max_blocks)),
                };
                return WalkRun {
                    result: WalkResult { outcome, levels },
                    run,
                };
            }
            NodeKind::Internal => match covering_entry(&node, pos, vlba) {
                Some((i, e)) if e.is_pruned() => {
                    return WalkRun {
                        result: WalkResult {
                            outcome: WalkOutcome::Pruned {
                                node: addr,
                                entry: i,
                            },
                            levels,
                        },
                        run: 1,
                    }
                }
                Some((_, e)) => {
                    path_bound = path_bound.min(e.end_logical().0);
                    addr = e.child;
                }
                // Gap between entries: the hole resolves at this very node.
                None => {
                    return WalkRun {
                        result: WalkResult {
                            outcome: WalkOutcome::Hole,
                            levels,
                        },
                        run: hole_run(vlba, bound, max_blocks),
                    };
                }
            },
        }
    }
}

/// The entry of internal `node` whose range covers `vlba`, with its index,
/// given `pos = node.search(vlba)`.
fn covering_entry(node: &NodeView<'_>, pos: usize, vlba: Vlba) -> Option<(usize, NodeEntry)> {
    let i = pos.checked_sub(1)?;
    node.entry(i)
        .filter(|e| vlba < e.end_logical())
        .map(|e| (i, e))
}

/// Span of a hole starting at `vlba` that ends before `bound`, capped at
/// `max_blocks`; never zero (the probed block itself is a hole).
fn hole_run(vlba: Vlba, bound: u64, max_blocks: u64) -> u64 {
    bound.saturating_sub(vlba.0).clamp(1, max_blocks)
}

/// Prunes the subtree covering `vlba`: finds the deepest internal node on
/// the walk path and overwrites the covering entry's child pointer with
/// NULL, in place. Returns `true` if something was pruned; `false` if the
/// tree is a single leaf (nothing prunable), the address is a hole, or the
/// covering slot is already NULL (nothing changed).
///
/// This is the hypervisor-side "memory pressure" operation the paper
/// describes; the read/write paths then observe [`WalkOutcome::Pruned`].
pub fn prune_covering(mem: &mut HostMemory, root: HostAddr, vlba: Vlba) -> bool {
    // Walk down to the covering leaf, one read per node, remembering the
    // child pointer slot that led to the current node: when the walk
    // reaches a leaf, that slot is the deepest prunable one (which
    // minimizes the mappings lost).
    let mut slot = None;
    let mut addr = root;
    let mut scratch = [0u8; NODE_SIZE];
    loop {
        let Ok(node) = NodeView::read(mem, addr, &mut scratch) else {
            return false;
        };
        if node.kind() == NodeKind::Leaf {
            break;
        }
        match covering_entry(&node, node.search(vlba), vlba) {
            // A hole, or already pruned at this level: nothing changes.
            None => return false,
            Some((_, e)) if e.is_pruned() => return false,
            Some((i, e)) => {
                slot = Some(addr + layout::child_ptr_offset(i) as u64);
                addr = e.child;
            }
        }
    }
    // A root that is itself a leaf has no pointer to cut.
    let Some(slot) = slot else {
        return false;
    };
    mem.write_u64(slot, 0);
    true
}

#[cfg(test)]
pub(crate) mod reference {
    //! Reference model for the in-place readers: every node is copied out
    //! of host memory and all of its entries decoded before a binary
    //! search over the decoded list. The walk, the prune and the re-link
    //! below read nodes only this way; the tests require the in-place
    //! readers to agree with them.

    use super::*;
    use crate::layout::{ENTRY_SIZE, FANOUT, HEADER_SIZE};
    use crate::tree::ExtentTree;
    use crate::types::Plba;

    const MAGIC: u16 = 0x4E53;

    /// A fully decoded node.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Node {
        Internal(Vec<NodeEntry>),
        Leaf(Vec<ExtentMapping>),
    }

    pub fn decode(buf: &[u8; NODE_SIZE]) -> Result<Node, LayoutError> {
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != MAGIC {
            return Err(LayoutError::BadMagic { found: magic });
        }
        let kind = u16::from_le_bytes([buf[2], buf[3]]);
        let count = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if count as usize > FANOUT {
            return Err(LayoutError::BadCount { found: count });
        }
        let word = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let offs = (0..count as usize).map(|i| HEADER_SIZE + i * ENTRY_SIZE);
        match kind {
            1 => Ok(Node::Internal(
                offs.map(|off| NodeEntry {
                    first_logical: Vlba(word(off)),
                    blocks: word(off + 8),
                    child: word(off + 16),
                })
                .collect(),
            )),
            2 => Ok(Node::Leaf(
                offs.map(|off| ExtentMapping {
                    logical: Vlba(word(off)),
                    len: word(off + 8),
                    physical: Plba(word(off + 16)),
                })
                .collect(),
            )),
            other => Err(LayoutError::BadKind { found: other }),
        }
    }

    pub fn read_node(mem: &HostMemory, addr: HostAddr) -> Result<Node, LayoutError> {
        let mut buf = [0u8; NODE_SIZE];
        mem.read(addr, &mut buf);
        decode(&buf)
    }

    pub fn walk_run(mem: &HostMemory, root: HostAddr, vlba: Vlba, max_blocks: u64) -> WalkRun {
        let max_blocks = max_blocks.max(1);
        let (mut addr, mut levels, mut path_bound) = (root, 0u32, u64::MAX);
        let done = |outcome, levels, run| WalkRun {
            result: WalkResult { outcome, levels },
            run,
        };
        loop {
            levels += 1;
            match read_node(mem, addr) {
                Err(e) => return done(WalkOutcome::Corrupt(e), levels, 1),
                Ok(Node::Leaf(extents)) => {
                    let pos = extents.partition_point(|e| e.logical <= vlba);
                    let hit = pos
                        .checked_sub(1)
                        .map(|i| extents[i])
                        .filter(|e| e.contains(vlba));
                    return match hit {
                        Some(e) => done(
                            WalkOutcome::Mapped(e),
                            levels,
                            e.covered_run(vlba, max_blocks),
                        ),
                        None => {
                            let bound = extents
                                .get(pos)
                                .map_or(path_bound, |e| e.logical.0.min(path_bound));
                            done(WalkOutcome::Hole, levels, hole_run(vlba, bound, max_blocks))
                        }
                    };
                }
                Ok(Node::Internal(entries)) => {
                    let pos = entries.partition_point(|e| e.first_logical <= vlba);
                    let hit = pos
                        .checked_sub(1)
                        .map(|i| (i, entries[i]))
                        .filter(|(_, e)| vlba < e.end_logical());
                    match hit {
                        Some((i, e)) if e.is_pruned() => {
                            return done(
                                WalkOutcome::Pruned {
                                    node: addr,
                                    entry: i,
                                },
                                levels,
                                1,
                            )
                        }
                        Some((_, e)) => {
                            path_bound = path_bound.min(e.end_logical().0);
                            addr = e.child;
                        }
                        None => {
                            let bound = entries
                                .get(pos)
                                .map_or(path_bound, |e| e.first_logical.0.min(path_bound));
                            return done(
                                WalkOutcome::Hole,
                                levels,
                                hole_run(vlba, bound, max_blocks),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Reads the covering child once to see whether it is a leaf, and
    /// again on descending into it.
    pub fn prune_covering(mem: &mut HostMemory, root: HostAddr, vlba: Vlba) -> bool {
        let mut addr = root;
        loop {
            let Ok(Node::Internal(entries)) = read_node(mem, addr) else {
                return false;
            };
            let pos = entries.partition_point(|e| e.first_logical <= vlba);
            let hit = pos
                .checked_sub(1)
                .map(|i| (i, entries[i]))
                .filter(|(_, e)| vlba < e.end_logical());
            match hit {
                None => return false,
                Some((_, e)) if e.is_pruned() => return false,
                Some((i, e)) => {
                    if matches!(read_node(mem, e.child), Ok(Node::Leaf(_))) {
                        mem.write_u64(addr + layout::child_ptr_offset(i) as u64, 0);
                        return true;
                    }
                    addr = e.child;
                }
            }
        }
    }

    pub fn relink_pruned(tree: &ExtentTree, mem: &mut HostMemory, root: HostAddr) -> bool {
        let extents: Vec<ExtentMapping> = tree.iter().copied().collect();
        let depth = tree.serialized_depth();
        if depth < 2 {
            return false;
        }
        let mut level = vec![root];
        for _ in 2..depth {
            let mut next = Vec::new();
            for &addr in &level {
                let Ok(Node::Internal(entries)) = read_node(mem, addr) else {
                    return false;
                };
                if entries.iter().any(NodeEntry::is_pruned) {
                    return false;
                }
                next.extend(entries.iter().map(|e| e.child));
            }
            level = next;
        }
        let mut pruned: Vec<(HostAddr, &[ExtentMapping])> = Vec::new();
        let mut k = 0;
        for &addr in &level {
            let Ok(Node::Internal(entries)) = read_node(mem, addr) else {
                return false;
            };
            for (i, e) in entries.iter().enumerate() {
                if e.is_pruned() {
                    let Some(chunk) = extents.chunks(FANOUT).nth(k) else {
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
        if k != extents.len().div_ceil(FANOUT) {
            return false;
        }
        for (slot, chunk) in pruned {
            let leaf = mem.alloc(NODE_SIZE as u64, 64);
            mem.write(leaf, &layout::encode_leaf(chunk));
            mem.write_u64(slot, leaf);
        }
        true
    }

    /// The address of every node reachable from `root` through non-NULL
    /// child pointers of nodes that decode, root first.
    pub fn nodes(mem: &HostMemory, root: HostAddr) -> Vec<HostAddr> {
        let mut out = vec![root];
        let mut i = 0;
        while let Some(&addr) = out.get(i) {
            if let Ok(Node::Internal(entries)) = read_node(mem, addr) {
                out.extend(entries.iter().filter(|e| !e.is_pruned()).map(|e| e.child));
            }
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FANOUT;
    use crate::tree::ExtentTree;
    use crate::types::Plba;
    use crate::walk::reference;
    use proptest::prelude::*;

    fn fragmented_tree(n: u64) -> ExtentTree {
        // Every extent is 1 block with a 1-block hole after it, and a
        // non-contiguous physical address so nothing merges.
        (0..n)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 3 + 7), 1))
            .collect()
    }

    #[test]
    fn walk_matches_builder_lookup() {
        let tree = fragmented_tree(500);
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        for v in 0..1_010 {
            let expect = tree.lookup(Vlba(v)).and_then(|e| e.translate(Vlba(v)));
            let got = match walk(&mem, root, Vlba(v)).outcome {
                WalkOutcome::Mapped(e) => e.translate(Vlba(v)),
                WalkOutcome::Hole => None,
                other => panic!("unexpected outcome {other:?}"),
            };
            assert_eq!(got, expect, "at vLBA {v}");
        }
    }

    #[test]
    fn walk_levels_match_serialized_depth() {
        for n in [
            1u64,
            FANOUT as u64,
            FANOUT as u64 + 1,
            (FANOUT * FANOUT) as u64 + 1,
        ] {
            let tree = fragmented_tree(n);
            let mut mem = HostMemory::new();
            let root = tree.serialize(&mut mem);
            let r = walk(&mem, root, Vlba(0));
            assert_eq!(r.levels, tree.serialized_depth(), "n={n}");
            assert!(matches!(r.outcome, WalkOutcome::Mapped(_)));
        }
    }

    #[test]
    fn walk_empty_tree_is_hole() {
        let mut mem = HostMemory::new();
        let root = ExtentTree::new().serialize(&mut mem);
        let r = walk(&mem, root, Vlba(0));
        assert_eq!(r.outcome, WalkOutcome::Hole);
        assert_eq!(r.levels, 1);
    }

    #[test]
    fn walk_detects_corruption() {
        let mem = HostMemory::new();
        // Address 0x5000 holds zeros -> bad magic.
        let r = walk(&mem, 0x5000, Vlba(0));
        assert!(matches!(r.outcome, WalkOutcome::Corrupt(_)));
    }

    #[test]
    fn prune_then_walk_reports_pruned() {
        let tree = fragmented_tree(FANOUT as u64 * 3); // depth 2
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        let victim = Vlba(0);
        assert!(prune_covering(&mut mem, root, victim));
        match walk(&mem, root, victim).outcome {
            WalkOutcome::Pruned { node, entry } => {
                assert_eq!(node, root);
                assert_eq!(entry, 0);
            }
            other => panic!("expected pruned, got {other:?}"),
        }
        // Addresses under other subtrees still translate.
        let far = Vlba((FANOUT as u64 * 2) * 2);
        assert!(matches!(
            walk(&mem, root, far).outcome,
            WalkOutcome::Mapped(_)
        ));
        // Re-pruning the same range changes nothing and says so.
        assert!(!prune_covering(&mut mem, root, victim));
    }

    #[test]
    fn a_second_prune_of_the_same_vlba_reports_nothing() {
        let tree = fragmented_tree(FANOUT as u64 * 3);
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        let before = walk(&mem, root, Vlba(0)).outcome;
        assert!(prune_covering(&mut mem, root, Vlba(0)), "first prune cuts");
        let pruned = walk(&mem, root, Vlba(0)).outcome;
        assert_ne!(pruned, before);
        // Every vLBA under the slot the first prune cut, mapped or a hole
        // between its extents, now finds nothing to prune.
        for v in [0, 1, 2] {
            assert!(!prune_covering(&mut mem, root, Vlba(v)), "vLBA {v}");
        }
        assert_eq!(walk(&mem, root, Vlba(0)).outcome, pruned);
    }

    #[test]
    fn a_prune_cuts_the_deepest_slot_of_a_three_level_tree() {
        let tree = fragmented_tree((FANOUT * FANOUT) as u64 + 1);
        assert_eq!(tree.serialized_depth(), 3);
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        assert!(prune_covering(&mut mem, root, Vlba(0)));
        let r = walk(&mem, root, Vlba(0));
        assert_eq!(r.levels, 2, "the NULL sits in a level-2 node");
        assert!(matches!(r.outcome, WalkOutcome::Pruned { node, entry: 0 } if node != root));
        // Only the first leaf was cut: its neighbour under the same
        // level-2 node still translates.
        let next_leaf = Vlba(FANOUT as u64 * 2);
        let r = walk(&mem, root, next_leaf);
        assert!(matches!(r.outcome, WalkOutcome::Mapped(_)));
        assert_eq!(r.levels, 3);
    }

    #[test]
    fn a_gap_between_subtrees_is_a_hole_at_the_internal_node() {
        // Two full leaves: vLBA 0..39 and 1000..1039, every other block
        // mapped.
        let tree: ExtentTree = (0..FANOUT as u64)
            .chain(500..500 + FANOUT as u64)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 3 + 7), 1))
            .collect();
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        assert_eq!(tree.serialized_depth(), 2);
        // Between the subtrees the root alone answers, and the hole runs
        // to the second subtree's first block.
        let r = walk_run(&mem, root, Vlba(500), 10_000);
        assert_eq!(
            (r.result.outcome, r.result.levels, r.run),
            (WalkOutcome::Hole, 1, 500)
        );
        let r = walk_run(&mem, root, Vlba(39), 10_000);
        assert_eq!(
            (r.result.outcome, r.result.levels, r.run),
            (WalkOutcome::Hole, 1, 961)
        );
        // Inside the first subtree the leaf answers, bounded by its next key.
        let r = walk_run(&mem, root, Vlba(37), 10_000);
        assert_eq!(
            (r.result.outcome, r.result.levels, r.run),
            (WalkOutcome::Hole, 2, 1)
        );
        // A gap has no covering slot, so nothing is pruned.
        assert!(!prune_covering(&mut mem, root, Vlba(500)));
        assert!(matches!(
            walk(&mem, root, Vlba(1000)).outcome,
            WalkOutcome::Mapped(_)
        ));
    }

    #[test]
    fn prune_single_leaf_impossible() {
        let tree = fragmented_tree(3);
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        assert!(!prune_covering(&mut mem, root, Vlba(0)));
    }

    #[test]
    fn prune_hole_is_noop() {
        let tree = fragmented_tree(FANOUT as u64 + 5);
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        // vLBA beyond everything is a hole even at the root level.
        assert!(!prune_covering(&mut mem, root, Vlba(10_000_000)));
    }

    #[test]
    fn walk_run_reports_extent_coverage() {
        let tree: ExtentTree = [ExtentMapping::new(Vlba(10), Plba(100), 8)]
            .into_iter()
            .collect();
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        let r = walk_run(&mem, root, Vlba(12), 64);
        assert_eq!(r.run, 6);
        assert!(matches!(r.result.outcome, WalkOutcome::Mapped(_)));
        // Capped by the caller's budget.
        assert_eq!(walk_run(&mem, root, Vlba(12), 3).run, 3);
        // Run ending exactly on the extent boundary.
        assert_eq!(walk_run(&mem, root, Vlba(17), 64).run, 1);
    }

    #[test]
    fn walk_run_hole_spans_to_next_extent() {
        let tree: ExtentTree = [
            ExtentMapping::new(Vlba(0), Plba(100), 4),
            ExtentMapping::new(Vlba(10), Plba(200), 4),
        ]
        .into_iter()
        .collect();
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        let r = walk_run(&mem, root, Vlba(4), 64);
        assert_eq!(r.result.outcome, WalkOutcome::Hole);
        assert_eq!(r.run, 6); // blocks 4..10
                              // A hole past every extent is bounded only by the cap.
        assert_eq!(walk_run(&mem, root, Vlba(14), 64).run, 64);
    }

    #[test]
    fn walk_run_pruned_is_single_block() {
        let tree = fragmented_tree(FANOUT as u64 * 3);
        let mut mem = HostMemory::new();
        let root = tree.serialize(&mut mem);
        assert!(prune_covering(&mut mem, root, Vlba(0)));
        let r = walk_run(&mem, root, Vlba(0), 64);
        assert!(matches!(r.result.outcome, WalkOutcome::Pruned { .. }));
        assert_eq!(r.run, 1);
    }

    proptest! {
        /// Every block inside a reported run resolves to the same outcome
        /// class — and the same level count — as a fresh per-block walk,
        /// which is exactly the invariant the batched device path relies
        /// on to charge per-block costs arithmetically.
        #[test]
        fn prop_walk_run_blocks_agree_with_per_block_walks(
            n in 1u64..300,
            probes in proptest::collection::vec((0u64..2_000, 1u64..100), 1..30),
        ) {
            let tree = fragmented_tree(n);
            let mut mem = HostMemory::new();
            let root = tree.serialize(&mut mem);
            for &(v, max) in &probes {
                let r = walk_run(&mem, root, Vlba(v), max);
                prop_assert!(r.run >= 1 && r.run <= max.max(1));
                for k in 0..r.run {
                    let per_block = walk(&mem, root, Vlba(v + k));
                    prop_assert_eq!(per_block.levels, r.result.levels);
                    match (r.result.outcome, per_block.outcome) {
                        (WalkOutcome::Mapped(e), WalkOutcome::Mapped(e2)) => {
                            prop_assert_eq!(e, e2);
                        }
                        (WalkOutcome::Hole, WalkOutcome::Hole) => {}
                        (a, b) => return Err(TestCaseError::fail(
                            format!("run block {k}: {a:?} vs {b:?}"),
                        )),
                    }
                }
            }
        }
    }

    /// Extents laid out from `(gap, len)` pairs, each `gap` blocks after
    /// the previous one ends, physically far above every tree node (a leaf
    /// whose kind is corrupted to internal points its "children" there)
    /// and apart, so none merge.
    fn shaped(shape: &[(u64, u64)]) -> ExtentTree {
        let mut cursor = 0;
        shape
            .iter()
            .enumerate()
            .map(|(i, &(gap, len))| {
                let e =
                    ExtentMapping::new(Vlba(cursor + gap), Plba((1 << 40) + i as u64 * 16), len);
                cursor += gap + len;
                e
            })
            .collect()
    }

    /// Two host memories holding the same serialization of `t`, placed
    /// after `pad` bytes so nodes fall at different page offsets: the
    /// first for the in-place readers, the second for the reference.
    /// Returns them, the root and the start of the serialization.
    fn twins(t: &ExtentTree, pad: u64) -> (HostMemory, HostMemory, HostAddr, HostAddr) {
        let build = || {
            let mut mem = HostMemory::new();
            let lo = mem.alloc(pad, 1);
            let root = t.serialize(&mut mem);
            (mem, root, lo)
        };
        let ((a, root, lo), (b, _, _)) = (build(), build());
        (a, b, root, lo)
    }

    /// Everything from `lo` to the allocators' next free byte must be
    /// equal in both memories, and so must the allocators.
    fn same_bytes(
        a: &mut HostMemory,
        b: &mut HostMemory,
        lo: HostAddr,
    ) -> Result<(), TestCaseError> {
        let hi = a.alloc(1, 1);
        prop_assert_eq!(hi, b.alloc(1, 1));
        prop_assert!(a.read_vec(lo, (hi - lo) as usize) == b.read_vec(lo, (hi - lo) as usize));
        prop_assert_eq!(a.resident_pages(), b.resident_pages());
        Ok(())
    }

    /// Every probe walks to the same outcome, run and level count on both.
    fn same_walks(
        a: &HostMemory,
        b: &HostMemory,
        root: HostAddr,
        probes: &[(u64, u64)],
        end: u64,
    ) -> Result<(), TestCaseError> {
        for &(v, max) in probes {
            let v = Vlba(v % (end + 64));
            prop_assert_eq!(
                walk_run(a, root, v, max),
                reference::walk_run(b, root, v, max)
            );
        }
        Ok(())
    }

    /// Prunes `victims` on both, then re-links both: every return value,
    /// every byte written and every walk agrees along the way.
    fn same_prunes_and_relink(
        t: &ExtentTree,
        (a, b): (&mut HostMemory, &mut HostMemory),
        (root, lo): (HostAddr, HostAddr),
        victims: &[u64],
        probes: &[(u64, u64)],
    ) -> Result<(), TestCaseError> {
        let end = t.logical_end().0.max(1);
        for &v in victims {
            let v = Vlba(v % end);
            prop_assert_eq!(
                prune_covering(a, root, v),
                reference::prune_covering(b, root, v)
            );
        }
        same_bytes(a, b, lo)?;
        same_walks(a, b, root, probes, end)?;
        prop_assert_eq!(
            t.relink_pruned(a, root),
            reference::relink_pruned(t, b, root)
        );
        same_bytes(a, b, lo)?;
        same_walks(a, b, root, probes, end)
    }

    #[test]
    fn a_root_on_an_unmaterialized_page_is_corrupt_on_both() {
        let mut mem = HostMemory::new();
        let root = ExtentTree::new().serialize(&mut mem);
        for addr in [0x50_0000, 0x50_0000 + 4096 - 64, root + 4096] {
            let got = walk_run(&mem, addr, Vlba(3), 8);
            assert_eq!(got, reference::walk_run(&mem, addr, Vlba(3), 8));
            assert_eq!(
                got.result.outcome,
                WalkOutcome::Corrupt(LayoutError::BadMagic { found: 0 })
            );
            assert!(!prune_covering(&mut mem, addr, Vlba(3)));
        }
        assert_eq!(mem.resident_pages(), 1, "reads fault no page in");
    }

    #[test]
    fn a_root_across_a_page_boundary_walks_as_the_reference() {
        let t = fragmented_tree((FANOUT * FANOUT) as u64 + 1);
        let straddles = (0..64u64).map(|k| k * 64).find_map(|pad| {
            let (a, b, root, lo) = twins(&t, pad);
            (root % 4096 > 4096 - NODE_SIZE as u64).then_some((a, b, root, lo))
        });
        let (mut a, mut b, root, lo) = straddles.expect("some pad puts the root across a page");
        let probes: Vec<(u64, u64)> = (0..900).map(|v| (v, 1 + v % 70)).collect();
        same_prunes_and_relink(&t, (&mut a, &mut b), (root, lo), &[0, 1, 405, 799], &probes)
            .unwrap();
    }

    proptest! {
        /// The in-place readers agree with the decode-then-search
        /// reference on random trees of depth 1 to 3 at random page
        /// offsets: every walk (outcome, run and levels), every prune's
        /// answer and bytes, and the re-link after them.
        #[test]
        fn prop_in_place_readers_match_the_reference(
            shape in proptest::collection::vec((0u64..4, 1u64..5), 1..1_000),
            pad in 0u64..4096,
            victims in proptest::collection::vec(0u64..1_000_000, 0..12),
            probes in proptest::collection::vec((0u64..1_000_000, 1u64..100), 1..40),
        ) {
            let t = shaped(&shape);
            let (mut a, mut b, root, lo) = twins(&t, pad);
            same_walks(&a, &b, root, &probes, t.logical_end().0)?;
            same_prunes_and_relink(&t, (&mut a, &mut b), (root, lo), &victims, &probes)?;
        }

        /// The same agreement after one header field or key of one node is
        /// corrupted: a bad magic, kind or count, a key that breaks the
        /// node's order, or a child pointer into an unmaterialized page.
        #[test]
        fn prop_corrupt_nodes_read_as_the_reference(
            shape in proptest::collection::vec((0u64..4, 1u64..5), 1..1_000),
            pad in 0u64..4096,
            (which, field, value) in (0usize..10_000, 0u8..5, any::<u64>()),
            entry in 0usize..FANOUT,
            victims in proptest::collection::vec(0u64..1_000_000, 0..6),
            probes in proptest::collection::vec((0u64..1_000_000, 1u64..100), 1..40),
        ) {
            let t = shaped(&shape);
            let (mut a, mut b, root, lo) = twins(&t, pad);
            let nodes = reference::nodes(&b, root);
            let node = nodes[which % nodes.len()];
            let at = |off: usize| node + off as u64;
            let key = at(layout::HEADER_SIZE + entry * layout::ENTRY_SIZE);
            for mem in [&mut a, &mut b] {
                match field {
                    0 => mem.write(at(0), &(value as u16).to_le_bytes()),
                    1 => mem.write(at(2), &(value as u16 % 4).to_le_bytes()),
                    2 => mem.write_u32(at(4), value as u32 % (FANOUT as u32 + 3)),
                    3 => mem.write_u64(key, value % (t.logical_end().0 + 64)),
                    _ => mem.write_u64(key + 16, (1 << 41) + value % (1 << 30)),
                }
            }
            same_walks(&a, &b, root, &probes, t.logical_end().0)?;
            same_prunes_and_relink(&t, (&mut a, &mut b), (root, lo), &victims, &probes)?;
        }
    }

    proptest! {
        /// For any fragmentation level, the device walk and the builder
        /// lookup agree everywhere.
        #[test]
        fn prop_walk_equals_lookup(n in 1u64..2_000, probes in proptest::collection::vec(0u64..5_000, 1..50)) {
            let tree = fragmented_tree(n);
            let mut mem = HostMemory::new();
            let root = tree.serialize(&mut mem);
            for &v in &probes {
                let expect = tree.lookup(Vlba(v)).and_then(|e| e.translate(Vlba(v)));
                let got = match walk(&mem, root, Vlba(v)).outcome {
                    WalkOutcome::Mapped(e) => e.translate(Vlba(v)),
                    WalkOutcome::Hole => None,
                    other => return Err(TestCaseError::fail(format!("{other:?}"))),
                };
                prop_assert_eq!(got, expect);
            }
        }
    }
}
