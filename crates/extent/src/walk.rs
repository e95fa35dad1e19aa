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
//! [`WalkResult::levels`].

use nesc_pcie::{HostAddr, HostMemory};

use crate::layout::{self, LayoutError, Node, NODE_SIZE};
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

pub(crate) fn read_node(mem: &HostMemory, addr: HostAddr) -> Result<Node, LayoutError> {
    let mut buf = [0u8; NODE_SIZE];
    mem.read(addr, &mut buf);
    layout::decode(&buf)
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
    loop {
        levels += 1;
        let node = match read_node(mem, addr) {
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
        match node {
            Node::Leaf(extents) => {
                let pos = extents.partition_point(|e| e.logical <= vlba);
                let hit = pos
                    .checked_sub(1)
                    .map(|i| extents[i])
                    .filter(|e| e.contains(vlba));
                let (outcome, run) = match hit {
                    Some(e) => (WalkOutcome::Mapped(e), e.covered_run(vlba, max_blocks)),
                    None => {
                        // The hole runs to the next extent in this leaf, or
                        // to the subtree's coverage bound if none follows.
                        let bound = extents
                            .get(pos)
                            .map_or(path_bound, |e| e.logical.0.min(path_bound));
                        (WalkOutcome::Hole, hole_run(vlba, bound, max_blocks))
                    }
                };
                return WalkRun {
                    result: WalkResult { outcome, levels },
                    run,
                };
            }
            Node::Internal(entries) => {
                let pos = entries.partition_point(|e| e.first_logical <= vlba);
                let hit = pos
                    .checked_sub(1)
                    .map(|i| (i, entries[i]))
                    .filter(|(_, e)| vlba < e.end_logical());
                match hit {
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
                    None => {
                        // Gap between entries: every block up to the next
                        // entry's start resolves Hole at this very node.
                        let bound = entries
                            .get(pos)
                            .map_or(path_bound, |e| e.first_logical.0.min(path_bound));
                        return WalkRun {
                            result: WalkResult {
                                outcome: WalkOutcome::Hole,
                                levels,
                            },
                            run: hole_run(vlba, bound, max_blocks),
                        };
                    }
                }
            }
        }
    }
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
    let mut addr = root;
    loop {
        let node = match read_node(mem, addr) {
            Ok(n) => n,
            Err(_) => return false,
        };
        match node {
            Node::Leaf(_) => return false,
            Node::Internal(entries) => {
                let pos = entries.partition_point(|e| e.first_logical <= vlba);
                let hit = pos
                    .checked_sub(1)
                    .map(|i| (i, entries[i]))
                    .filter(|(_, e)| vlba < e.end_logical());
                match hit {
                    None => return false,
                    // Already pruned at this level: nothing changes.
                    Some((_, e)) if e.is_pruned() => return false,
                    Some((i, e)) => {
                        // If the child is a leaf, prune here; otherwise
                        // descend to prune as deep as possible (minimizes
                        // the mappings lost).
                        let child_is_leaf = matches!(read_node(mem, e.child), Ok(Node::Leaf(_)));
                        if child_is_leaf {
                            let off = addr + layout::child_ptr_offset(i) as u64;
                            mem.write_u64(off, 0);
                            return true;
                        }
                        addr = e.child;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FANOUT;
    use crate::tree::ExtentTree;
    use crate::types::Plba;
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
