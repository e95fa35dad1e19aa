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

/// Fixed-capacity inline list of decoded node entries. A node holds at
/// most [`FANOUT`] entries, so decoding never needs the heap — the walk
/// unit's hot loop reads nodes without touching the allocator. Derefs to a
/// slice of the live entries.
#[derive(Debug, Clone, Copy)]
pub struct NodeList<T> {
    items: [T; FANOUT],
    len: usize,
}

impl<T: Copy + Default> NodeList<T> {
    /// Builds a list of `len` entries, entry `i` produced by `f(i)`.
    /// A `len` beyond [`FANOUT`] (a contract violation: [`decode`] bounds
    /// the count first) is truncated.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        debug_assert!(len <= FANOUT, "node overflow: {len}");
        let len = len.min(FANOUT);
        let mut items = [T::default(); FANOUT];
        for (i, slot) in items[..len].iter_mut().enumerate() {
            *slot = f(i);
        }
        NodeList { items, len }
    }
}

impl<T> std::ops::Deref for NodeList<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: PartialEq> PartialEq for NodeList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.items[..self.len] == other.items[..other.len]
    }
}

impl<T: Eq> Eq for NodeList<T> {}

impl<T: PartialEq> PartialEq<[T]> for NodeList<T> {
    fn eq(&self, other: &[T]) -> bool {
        &self.items[..self.len] == other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for NodeList<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        &self.items[..self.len] == other.as_slice()
    }
}

/// A decoded node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// Internal node with child pointers.
    Internal(NodeList<NodeEntry>),
    /// Leaf node with extent pointers.
    Leaf(NodeList<ExtentMapping>),
}

impl Node {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Internal(v) => v.len(),
            Node::Leaf(v) => v.len(),
        }
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

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

/// Decodes a node buffer.
///
/// # Errors
///
/// Returns a [`LayoutError`] if the header is malformed — the device treats
/// this as a fatal tree-corruption condition.
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
    let read_u64 = |off: usize| {
        // The count check above bounds every entry offset inside the node.
        let mut w = [0u8; 8];
        w.copy_from_slice(&buf[off..off + 8]);
        u64::from_le_bytes(w)
    };
    match kind {
        1 => {
            let entries = NodeList::from_fn(count as usize, |i| {
                let off = HEADER_SIZE + i * ENTRY_SIZE;
                NodeEntry {
                    first_logical: Vlba(read_u64(off)),
                    blocks: read_u64(off + 8),
                    child: read_u64(off + 16),
                }
            });
            Ok(Node::Internal(entries))
        }
        2 => {
            let extents = NodeList::from_fn(count as usize, |i| {
                let off = HEADER_SIZE + i * ENTRY_SIZE;
                ExtentMapping {
                    logical: Vlba(read_u64(off)),
                    len: read_u64(off + 8),
                    physical: Plba(read_u64(off + 16)),
                }
            });
            Ok(Node::Leaf(extents))
        }
        other => Err(LayoutError::BadKind { found: other }),
    }
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
        match decode(&buf).unwrap() {
            Node::Leaf(got) => assert_eq!(got, extents),
            other => panic!("decoded wrong kind: {other:?}"),
        }
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
        match decode(&buf).unwrap() {
            Node::Internal(got) => {
                assert_eq!(got, entries);
                assert!(!got[0].is_pruned());
                assert!(got[1].is_pruned());
                assert_eq!(got[0].end_logical(), Vlba(100));
            }
            other => panic!("decoded wrong kind: {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; NODE_SIZE];
        assert_eq!(
            decode(&buf).unwrap_err(),
            LayoutError::BadMagic { found: 0 }
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let mut buf = encode_leaf(&[]);
        buf[2] = 9;
        assert!(matches!(
            decode(&buf).unwrap_err(),
            LayoutError::BadKind { found: 9 }
        ));
    }

    #[test]
    fn bad_count_rejected() {
        let mut buf = encode_leaf(&[]);
        buf[4] = (FANOUT + 1) as u8;
        assert!(matches!(
            decode(&buf).unwrap_err(),
            LayoutError::BadCount { .. }
        ));
    }

    #[test]
    fn node_empty_and_len() {
        let buf = encode_leaf(&[]);
        let node = decode(&buf).unwrap();
        assert!(node.is_empty());
        assert_eq!(node.len(), 0);
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
            match decode(&buf).unwrap() {
                Node::Leaf(got) => prop_assert_eq!(got, extents),
                other => return Err(TestCaseError::fail(format!("wrong kind: {other:?}"))),
            }
        }
    }
}
