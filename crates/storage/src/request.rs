//! Block-request vocabulary shared by all storage paths.

use std::fmt;

use nesc_extent::{BlockAddr, Plba, Vlba};

pub use nesc_extent::BLOCK_SIZE;

/// Direction of a block operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockOp {
    /// Transfer blocks from the device to host memory.
    Read,
    /// Transfer blocks from host memory to the device.
    Write,
}

impl BlockOp {
    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, BlockOp::Read)
    }
}

impl fmt::Display for BlockOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockOp::Read => write!(f, "read"),
            BlockOp::Write => write!(f, "write"),
        }
    }
}

/// Monotonic request identifier, unique within one simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// One block-granular storage request: operate on `block_count` blocks
/// starting at `lba`. The address-space parameter `A` records *which* space
/// the address lives in — a request submitted to a virtual function carries
/// [`Vlba`]s (the default), a request addressed to the physical function
/// carries [`Plba`]s — so an untranslated address can no longer cross a
/// layer boundary by decaying to `u64`.
///
/// # Example
///
/// ```
/// use nesc_storage::{BlockRequest, BlockOp, RequestId, BLOCK_SIZE};
/// use nesc_extent::Vlba;
/// let r = BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(10), 4);
/// assert_eq!(r.bytes(), 4 * BLOCK_SIZE);
/// assert_eq!(r.end_lba(), Vlba(14));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequest<A = Vlba> {
    /// Request identity (for completion matching).
    pub id: RequestId,
    /// Read or write.
    pub op: BlockOp,
    /// First logical block, in the address space of the target function.
    pub lba: A,
    /// Number of contiguous blocks.
    pub block_count: u64,
}

/// A request addressed to the physical function: its blocks are physical.
pub type PfBlockRequest = BlockRequest<Plba>;

impl<A: BlockAddr> BlockRequest<A> {
    /// Creates a request. A zero block count (a contract violation: the
    /// I/O paths round byte ranges up to covering blocks) is widened to
    /// one block.
    pub fn new(id: RequestId, op: BlockOp, lba: A, block_count: u64) -> Self {
        debug_assert!(block_count > 0, "requests must cover at least one block");
        BlockRequest {
            id,
            op,
            lba,
            block_count: block_count.max(1),
        }
    }

    /// Size of the request in bytes.
    pub fn bytes(&self) -> u64 {
        self.block_count * BLOCK_SIZE
    }

    /// One past the last block touched.
    pub fn end_lba(&self) -> A {
        self.lba.offset(self.block_count)
    }

    /// Splits the request into per-block sub-requests, the granularity at
    /// which NeSC translates addresses.
    pub fn split_blocks(&self) -> impl Iterator<Item = BlockRequest<A>> + '_ {
        let (id, op, lba) = (self.id, self.op, self.lba);
        (0..self.block_count).map(move |i| BlockRequest {
            id,
            op,
            lba: lba.offset(i),
            block_count: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_range_exactly() {
        let r = BlockRequest::new(RequestId(7), BlockOp::Write, Vlba(100), 5);
        let parts: Vec<_> = r.split_blocks().collect();
        assert_eq!(parts.len(), 5);
        assert_eq!(parts[0].lba, Vlba(100));
        assert_eq!(parts[4].lba, Vlba(104));
        assert!(parts.iter().all(|p| p.block_count == 1 && p.id == r.id));
    }

    #[test]
    fn physical_requests_carry_plbas() {
        let r = BlockRequest::new(RequestId(9), BlockOp::Read, Plba(40), 2);
        assert_eq!(r.end_lba(), Plba(42));
        assert_eq!(r.bytes(), 2 * BLOCK_SIZE);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        BlockRequest::new(RequestId(0), BlockOp::Read, Vlba(0), 0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(BlockOp::Read.to_string(), "read");
        assert_eq!(RequestId(3).to_string(), "req#3");
        assert!(BlockOp::Read.is_read());
        assert!(!BlockOp::Write.is_read());
    }
}
