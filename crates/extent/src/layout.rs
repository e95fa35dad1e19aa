//! Device-visible serialized node layout.
//!
//! The hypervisor writes tree nodes into host memory in this format and the
//! device's block-walk unit reads them back over DMA. The layout follows the
//! paper's Fig. 4:
//!
//! ```text
//! node (512 B) = header (16 B) + up to 20 entries (24 B each)
//! header       = magic u16 | kind u16 | entry_count u32 | reserved u64
//! node entry   = first_logical u64 | num_blocks u64 | child_ptr u64
//! extent entry = first_logical u64 | num_blocks u64 | first_physical u64
//! ```
//!
//! A `child_ptr` of zero is the NULL "pruned" marker: the subtree's
//! mappings were evicted under memory pressure and the device must
//! interrupt the host to regenerate them (paper §IV-B).

use nesc_pcie::{HostAddr, HostMemory};

use crate::types::{ExtentMapping, Plba, Vlba};

/// Serialized node size in bytes — one DMA read per level of the walk.
pub const NODE_SIZE: usize = 512;
/// Header size in bytes.
pub const HEADER_SIZE: usize = 16;
/// Entry size in bytes.
pub const ENTRY_SIZE: usize = 24;
/// Maximum entries per node.
pub const FANOUT: usize = (NODE_SIZE - HEADER_SIZE) / ENTRY_SIZE;

const MAGIC: u16 = 0x4E53; // "NS"

/// What a node's entries are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Entries are node pointers to children.
    Internal,
    /// Entries are extent pointers (tree leaves).
    Leaf,
}

impl NodeKind {
    fn code(self) -> u16 {
        match self {
            NodeKind::Internal => 1,
            NodeKind::Leaf => 2,
        }
    }
}

/// A node-pointer entry of an internal node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeEntry {
    /// First logical block the child subtree covers.
    pub first_logical: Vlba,
    /// Number of (possibly non-contiguous) logical blocks it covers.
    pub blocks: u64,
    /// Host-memory address of the child node; 0 = pruned (NULL).
    pub child: u64,
}

impl NodeEntry {
    /// Whether the subtree was pruned by the hypervisor.
    pub fn is_pruned(&self) -> bool {
        self.child == 0
    }

    /// One past the last logical block covered.
    pub fn end_logical(&self) -> Vlba {
        self.first_logical.offset(self.blocks)
    }
}

/// Decoding error for a serialized node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The magic bytes did not match — the pointer does not reference a
    /// serialized extent-tree node.
    BadMagic {
        /// Value found in the header.
        found: u16,
    },
    /// Unknown node kind code.
    BadKind {
        /// Value found in the header.
        found: u16,
    },
    /// Entry count exceeds the node's fanout.
    BadCount {
        /// Value found in the header.
        found: u32,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::BadMagic { found } => write!(f, "bad node magic {found:#06x}"),
            LayoutError::BadKind { found } => write!(f, "bad node kind {found}"),
            LayoutError::BadCount { found } => write!(f, "bad entry count {found}"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Encodes an internal node. More than [`FANOUT`] entries (a contract
/// violation: the builder splits nodes first) are truncated.
pub fn encode_internal(entries: &[NodeEntry]) -> [u8; NODE_SIZE] {
    debug_assert!(entries.len() <= FANOUT, "node overflow: {}", entries.len());
    let entries = &entries[..entries.len().min(FANOUT)];
    let mut buf = [0u8; NODE_SIZE];
    write_header(&mut buf, NodeKind::Internal, entries.len() as u32);
    for (i, e) in entries.iter().enumerate() {
        let off = HEADER_SIZE + i * ENTRY_SIZE;
        buf[off..off + 8].copy_from_slice(&e.first_logical.0.to_le_bytes());
        buf[off + 8..off + 16].copy_from_slice(&e.blocks.to_le_bytes());
        buf[off + 16..off + 24].copy_from_slice(&e.child.to_le_bytes());
    }
    buf
}

/// Encodes a leaf node. More than [`FANOUT`] extents (a contract
/// violation: the builder splits nodes first) are truncated.
pub fn encode_leaf(extents: &[ExtentMapping]) -> [u8; NODE_SIZE] {
    debug_assert!(extents.len() <= FANOUT, "node overflow: {}", extents.len());
    let extents = &extents[..extents.len().min(FANOUT)];
    let mut buf = [0u8; NODE_SIZE];
    write_header(&mut buf, NodeKind::Leaf, extents.len() as u32);
    for (i, e) in extents.iter().enumerate() {
        let off = HEADER_SIZE + i * ENTRY_SIZE;
        buf[off..off + 8].copy_from_slice(&e.logical.0.to_le_bytes());
        buf[off + 8..off + 16].copy_from_slice(&e.len.to_le_bytes());
        buf[off + 16..off + 24].copy_from_slice(&e.physical.0.to_le_bytes());
    }
    buf
}

fn write_header(buf: &mut [u8; NODE_SIZE], kind: NodeKind, count: u32) {
    buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    buf[2..4].copy_from_slice(&kind.code().to_le_bytes());
    buf[4..8].copy_from_slice(&count.to_le_bytes());
}

/// A serialized node read where it lives: the header is checked once, and
/// an entry is decoded only when asked for. The walk unit matches a vLBA
/// against a node's first-logical keys alone (one binary search), so a
/// level costs the header and about `log2(FANOUT)` key loads, not a copy
/// of the node.
///
/// # Example
///
/// ```
/// use nesc_extent::layout::{encode_leaf, NodeView};
/// use nesc_extent::{ExtentMapping, NodeKind, Plba, Vlba};
///
/// let buf = encode_leaf(&[
///     ExtentMapping::new(Vlba(0), Plba(100), 4),
///     ExtentMapping::new(Vlba(10), Plba(200), 2),
/// ]);
/// let node = NodeView::parse(&buf).unwrap();
/// assert_eq!(node.kind(), NodeKind::Leaf);
/// // vLBA 11 is at or past both keys: the candidate is entry 1.
/// assert_eq!(node.search(Vlba(11)), 2);
/// assert_eq!(node.extent(1).unwrap().translate(Vlba(11)), Some(Plba(201)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    kind: NodeKind,
    /// The live entries' raw bytes, `entry_count` of them.
    entries: &'a [[u8; ENTRY_SIZE]],
}

impl<'a> NodeView<'a> {
    /// Checks a node's header: magic first, then the entry count, then the
    /// kind.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if the header is malformed — the device
    /// treats this as a fatal tree-corruption condition.
    pub fn parse(buf: &'a [u8; NODE_SIZE]) -> Result<Self, LayoutError> {
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != MAGIC {
            return Err(LayoutError::BadMagic { found: magic });
        }
        let kind = u16::from_le_bytes([buf[2], buf[3]]);
        let count = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if count as usize > FANOUT {
            return Err(LayoutError::BadCount { found: count });
        }
        let kind = match kind {
            1 => NodeKind::Internal,
            2 => NodeKind::Leaf,
            other => return Err(LayoutError::BadKind { found: other }),
        };
        // FANOUT whole entries follow the header, and the count check
        // above keeps the live prefix inside them.
        let (all, _) = buf[HEADER_SIZE..].as_chunks::<ENTRY_SIZE>();
        let entries = all.get(..count as usize).unwrap_or(&[]);
        Ok(NodeView { kind, entries })
    }

    /// Parses the node at `addr` in `mem`, in place unless it straddles a
    /// page boundary, in which case it is first copied into `scratch`
    /// ([`HostMemory::read_in_place`]).
    ///
    /// # Errors
    ///
    /// As [`parse`](Self::parse).
    pub fn read(
        mem: &'a HostMemory,
        addr: HostAddr,
        scratch: &'a mut [u8; NODE_SIZE],
    ) -> Result<Self, LayoutError> {
        Self::parse(mem.read_in_place(addr, scratch))
    }

    /// What the node's entries are.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The number of leading entries whose first logical block is at most
    /// `vlba`: `partition_point` over the keys, so the covering candidate
    /// is the entry before it. Reads only the keys it probes.
    pub fn search(&self, vlba: Vlba) -> usize {
        self.entries.partition_point(|e| word(e, 0) <= vlba.0)
    }

    /// The first logical block of entry `i`, if the node has one.
    pub fn first_logical(&self, i: usize) -> Option<Vlba> {
        self.entries.get(i).map(|e| Vlba(word(e, 0)))
    }

    /// Entry `i` read as an internal node's child pointer entry.
    pub fn entry(&self, i: usize) -> Option<NodeEntry> {
        self.entries.get(i).map(|e| NodeEntry {
            first_logical: Vlba(word(e, 0)),
            blocks: word(e, 1),
            child: word(e, 2),
        })
    }

    /// Entry `i` read as a leaf's extent.
    pub fn extent(&self, i: usize) -> Option<ExtentMapping> {
        self.entries.get(i).map(|e| ExtentMapping {
            logical: Vlba(word(e, 0)),
            len: word(e, 1),
            physical: Plba(word(e, 2)),
        })
    }

    /// Every entry, in order, read as internal node entries.
    pub fn entries(&self) -> impl Iterator<Item = NodeEntry> + 'a {
        let view = *self;
        (0..view.entries.len()).filter_map(move |i| view.entry(i))
    }
}

/// Little-endian `u64` field `k` (0..3) of a raw entry.
fn word(e: &[u8; ENTRY_SIZE], k: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&e[8 * k..8 * k + 8]);
    u64::from_le_bytes(w)
}

/// Byte offset of the `child` pointer of internal entry `i` — used to
/// overwrite a pointer in place, with NULL when pruning and with a new
/// leaf when re-linking. An `i` beyond the node (a contract violation:
/// callers index entries they decoded) is clamped to the last entry.
pub fn child_ptr_offset(i: usize) -> usize {
    debug_assert!(i < FANOUT, "entry index out of range: {i}");
    HEADER_SIZE + i.min(FANOUT - 1) * ENTRY_SIZE + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every entry of `node`, read as a leaf's extents.
    fn leaf_extents(node: &NodeView<'_>) -> Vec<ExtentMapping> {
        (0..FANOUT).map_while(|i| node.extent(i)).collect()
    }

    #[test]
    fn fanout_is_twenty() {
        assert_eq!(FANOUT, 20);
    }

    #[test]
    fn leaf_roundtrip() {
        let extents = vec![
            ExtentMapping::new(Vlba(0), Plba(100), 4),
            ExtentMapping::new(Vlba(8), Plba(200), 2),
        ];
        let buf = encode_leaf(&extents);
        let node = NodeView::parse(&buf).unwrap();
        assert_eq!(node.kind(), NodeKind::Leaf);
        assert_eq!(leaf_extents(&node), extents);
        assert_eq!(node.first_logical(1), Some(Vlba(8)));
        assert_eq!(node.extent(2), None);
    }

    #[test]
    fn internal_roundtrip() {
        let entries = vec![
            NodeEntry {
                first_logical: Vlba(0),
                blocks: 100,
                child: 0x1000,
            },
            NodeEntry {
                first_logical: Vlba(100),
                blocks: 50,
                child: 0, // pruned
            },
        ];
        let buf = encode_internal(&entries);
        let node = NodeView::parse(&buf).unwrap();
        assert_eq!(node.kind(), NodeKind::Internal);
        let got: Vec<NodeEntry> = node.entries().collect();
        assert_eq!(got, entries);
        assert!(!got[0].is_pruned());
        assert!(got[1].is_pruned());
        assert_eq!(got[0].end_logical(), Vlba(100));
        assert_eq!(node.entry(1), Some(entries[1]));
        assert_eq!(node.entry(2), None);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; NODE_SIZE];
        assert_eq!(
            NodeView::parse(&buf).unwrap_err(),
            LayoutError::BadMagic { found: 0 }
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let mut buf = encode_leaf(&[]);
        buf[2] = 9;
        assert!(matches!(
            NodeView::parse(&buf).unwrap_err(),
            LayoutError::BadKind { found: 9 }
        ));
    }

    #[test]
    fn bad_count_rejected() {
        let mut buf = encode_leaf(&[]);
        buf[4] = (FANOUT + 1) as u8;
        assert!(matches!(
            NodeView::parse(&buf).unwrap_err(),
            LayoutError::BadCount { .. }
        ));
        // The count is checked before the kind.
        buf[2] = 9;
        assert!(matches!(
            NodeView::parse(&buf).unwrap_err(),
            LayoutError::BadCount { .. }
        ));
    }

    #[test]
    fn the_magic_is_checked_before_the_count_and_kind() {
        let mut buf = encode_leaf(&[]);
        buf[0] ^= 0xFF;
        buf[2] = 9;
        buf[4] = (FANOUT + 1) as u8;
        let found = u16::from_le_bytes([buf[0], buf[1]]);
        assert_eq!(
            NodeView::parse(&buf).unwrap_err(),
            LayoutError::BadMagic { found }
        );
    }

    #[test]
    fn a_full_node_parses_every_entry() {
        let entries: Vec<NodeEntry> = (0..FANOUT as u64)
            .map(|i| NodeEntry {
                first_logical: Vlba(i * 8),
                blocks: 8,
                child: 0x1000 + i * 0x200,
            })
            .collect();
        let buf = encode_internal(&entries);
        let node = NodeView::parse(&buf).unwrap();
        assert_eq!(node.entries().collect::<Vec<_>>(), entries);
        assert_eq!(node.entry(FANOUT - 1), entries.last().copied());
        assert_eq!(node.entry(FANOUT), None);
        // A count of exactly FANOUT is the largest that parses.
        let mut buf = buf;
        buf[4] = FANOUT as u8;
        assert!(NodeView::parse(&buf).is_ok());
    }

    #[test]
    fn layout_errors_name_the_value_found() {
        let shown = [
            LayoutError::BadMagic { found: 0xBEEF }.to_string(),
            LayoutError::BadKind { found: 7 }.to_string(),
            LayoutError::BadCount { found: 21 }.to_string(),
        ];
        assert_eq!(
            shown,
            [
                "bad node magic 0xbeef",
                "bad node kind 7",
                "bad entry count 21"
            ]
        );
    }

    #[test]
    fn an_empty_node_has_no_entries() {
        let buf = encode_leaf(&[]);
        let node = NodeView::parse(&buf).unwrap();
        assert_eq!(node.entries().count(), 0);
        assert_eq!(node.search(Vlba(5)), 0);
        assert_eq!(node.first_logical(0), None);
    }

    #[test]
    fn search_counts_keys_at_or_below() {
        let extents: Vec<ExtentMapping> = (0..FANOUT as u64)
            .map(|i| ExtentMapping::new(Vlba(i * 10), Plba(i), 1))
            .collect();
        let buf = encode_leaf(&extents);
        let node = NodeView::parse(&buf).unwrap();
        for (v, want) in [(0, 1), (9, 1), (10, 2), (190, FANOUT), (u64::MAX, FANOUT)] {
            assert_eq!(node.search(Vlba(v)), want, "vLBA {v}");
        }
    }

    #[test]
    fn a_node_across_a_page_boundary_reads_through_scratch() {
        let mut mem = HostMemory::new();
        let extents = [ExtentMapping::new(Vlba(3), Plba(9), 2)];
        let addr = 2 * 4096 - 64;
        mem.write(addr, &encode_leaf(&extents));
        let mut scratch = [0u8; NODE_SIZE];
        let node = NodeView::read(&mem, addr, &mut scratch).unwrap();
        assert_eq!(leaf_extents(&node), extents);
    }

    #[test]
    fn child_ptr_offset_matches_encoding() {
        let entries = vec![NodeEntry {
            first_logical: Vlba(1),
            blocks: 2,
            child: 0xABCD,
        }];
        let buf = encode_internal(&entries);
        let off = child_ptr_offset(0);
        let ptr = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        assert_eq!(ptr, 0xABCD);
    }

    proptest! {
        /// Any set of <= FANOUT extents round-trips exactly.
        #[test]
        fn prop_leaf_roundtrip(
            raw in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000, 1u64..10_000), 0..FANOUT)
        ) {
            let extents: Vec<ExtentMapping> = raw
                .iter()
                .map(|&(l, p, n)| ExtentMapping::new(Vlba(l), Plba(p), n))
                .collect();
            let buf = encode_leaf(&extents);
            let node = NodeView::parse(&buf).unwrap();
            prop_assert_eq!(node.kind(), NodeKind::Leaf);
            prop_assert_eq!(leaf_extents(&node), extents);
        }
    }
}
