//! The per-function DMA command ring.
//!
//! "In addition to the NeSC-specific control registers ..., each VF also
//! exposes a set of registers for controlling a DMA ring buffer, which is
//! the de facto standard for communicating with devices" (paper §V).
//!
//! A ring is an array of 64-byte descriptors in *host memory*. The guest
//! driver writes descriptors at its tail and rings the `RingTail`
//! doorbell; the device DMAs descriptors from its head up to the tail,
//! turning each into a block request. Completions come back as MSIs
//! carrying the descriptor's id (the device model's
//! [`NescOutput::Completion`][crate::NescOutput]).
//!
//! Descriptor layout (little-endian):
//!
//! ```text
//! [0]      op        1 = read, 2 = write
//! [8..16]  id        completion-correlation token
//! [16..24] lba       first virtual block
//! [24..28] count     blocks
//! [32..40] buffer    host address of the data buffer
//! ```

use nesc_extent::{validate_count, validate_slba, GuestFault, Untrusted, Vlba};
use nesc_pcie::{HostAddr, HostMemory};
use nesc_storage::{BlockOp, BlockRequest, RequestId};

/// Size of one ring descriptor.
pub const DESCRIPTOR_BYTES: u64 = 64;

/// One command descriptor.
///
/// Descriptors are DMAed out of guest-writable host memory, so the
/// address and count arrive quarantined in [`Untrusted`];
/// [`to_request`](RingDescriptor::to_request) is the bounds proof that
/// releases them. The buffer pointer stays a bare [`HostAddr`] — DMA
/// targets are policed by the memory model, not the block validators.
// nesc-lint: guest-input
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDescriptor {
    /// The operation.
    pub op: BlockOp,
    /// Completion-correlation id.
    pub id: RequestId,
    /// First virtual block. Ring descriptors come from the guest, so the
    /// address is by definition in the function's virtual space — and
    /// unproven until validated.
    pub lba: Untrusted<Vlba>,
    /// Block count.
    pub count: Untrusted<u32>,
    /// Host data buffer.
    pub buffer: HostAddr,
}

impl RingDescriptor {
    /// Builds a descriptor from trusted host-side values (drivers,
    /// tests, benches), quarantining them exactly as the DMA decode
    /// would.
    pub fn new(op: BlockOp, id: RequestId, lba: Vlba, count: u32, buffer: HostAddr) -> Self {
        RingDescriptor {
            op,
            id,
            lba: Untrusted::new(lba),
            count: Untrusted::new(count),
            buffer,
        }
    }

    /// Encodes to the 64-byte wire form.
    pub fn encode(&self) -> [u8; DESCRIPTOR_BYTES as usize] {
        let mut b = [0u8; DESCRIPTOR_BYTES as usize];
        b[0] = match self.op {
            BlockOp::Read => 1,
            BlockOp::Write => 2,
        };
        b[8..16].copy_from_slice(&self.id.0.to_le_bytes());
        b[16..24].copy_from_slice(&self.lba.into_unchecked().0.to_le_bytes());
        b[24..28].copy_from_slice(&self.count.into_unchecked().to_le_bytes());
        b[32..40].copy_from_slice(&self.buffer.to_le_bytes());
        b
    }

    /// Decodes the wire form; `None` on a malformed opcode or zero count.
    // nesc-lint: guest-input
    pub fn decode(b: &[u8; DESCRIPTOR_BYTES as usize]) -> Option<RingDescriptor> {
        let op = match b[0] {
            1 => BlockOp::Read,
            2 => BlockOp::Write,
            _ => return None,
        };
        let le32 = |off: usize| {
            b.get(off..off + 4)
                .and_then(|s| s.try_into().ok())
                .map(u32::from_le_bytes)
        };
        let le64 = |off: usize| {
            b.get(off..off + 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
        };
        let count = le32(24)?;
        if count == 0 {
            return None;
        }
        Some(RingDescriptor {
            op,
            id: Self::wire_id(b),
            lba: Untrusted::new(Vlba(le64(16)?)),
            count: Untrusted::new(count),
            buffer: le64(32)?,
        })
    }

    /// The id field of the wire form, readable whether or not the rest
    /// decodes: a malformed descriptor still completes under its id.
    fn wire_id(b: &[u8; DESCRIPTOR_BYTES as usize]) -> RequestId {
        let id = b.get(8..16).and_then(|s| s.try_into().ok());
        RequestId(id.map_or(0, u64::from_le_bytes))
    }

    /// The block request this descriptor describes, released through the
    /// overflow bounds proofs.
    ///
    /// The capacity bound here is only "does not wrap the 64-bit virtual
    /// space" — whether the range is inside the *function's* mapping is
    /// the translation walk's job, which fails closed with a miss
    /// interrupt, exactly like the paper's hardware.
    ///
    /// # Errors
    ///
    /// [`GuestFault::ZeroLength`] / [`GuestFault::SlbaOutOfRange`] on a
    /// zero count or an `lba + count` that overflows.
    pub fn to_request(&self) -> Result<BlockRequest, GuestFault> {
        let count = validate_count(self.count)?;
        let lba = validate_slba(self.lba, count, u64::MAX)?;
        Ok(BlockRequest::new(self.id, self.op, lba, count))
    }
}

/// Device-side ring state for one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingState {
    /// Host base address of the descriptor array.
    pub base: HostAddr,
    /// Number of descriptor slots (power of two).
    pub entries: u32,
    /// Device consumer index.
    pub head: u32,
}

impl RingState {
    /// Whether the ring registers describe a usable ring.
    pub fn is_configured(&self) -> bool {
        self.base != 0 && self.entries >= 2 && self.entries.is_power_of_two()
    }

    /// Consumes descriptors from `head` up to `tail`, decoding each from
    /// host memory into `out` (cleared first, so a caller can reuse it):
    /// one entry per slot consumed, in ring order. A slot that does not
    /// decode (an unknown opcode, a zero count) comes back as its id, so
    /// the device can complete it with an error instead of dropping it and
    /// leaving the driver waiting.
    pub fn consume(
        &mut self,
        mem: &HostMemory,
        tail: u32,
        out: &mut Vec<Result<RingDescriptor, RequestId>>,
    ) {
        out.clear();
        if !self.is_configured() {
            return;
        }
        let tail = tail % self.entries;
        while self.head != tail {
            let slot = self.head % self.entries;
            let mut buf = [0u8; DESCRIPTOR_BYTES as usize];
            mem.read(self.base + slot as u64 * DESCRIPTOR_BYTES, &mut buf);
            out.push(RingDescriptor::decode(&buf).ok_or_else(|| RingDescriptor::wire_id(&buf)));
            self.head = (self.head + 1) % self.entries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What one `consume` call leaves in its output buffer.
    fn consumed(
        ring: &mut RingState,
        mem: &HostMemory,
        tail: u32,
    ) -> Vec<Result<RingDescriptor, RequestId>> {
        let mut out = Vec::new();
        ring.consume(mem, tail, &mut out);
        out
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = RingDescriptor::new(BlockOp::Write, RequestId(0xDEAD), Vlba(42), 8, 0x1234_5678);
        assert_eq!(RingDescriptor::decode(&d.encode()), Some(d));
        assert_eq!(d.to_request().unwrap().block_count, 8);
    }

    #[test]
    fn malformed_descriptors_rejected() {
        let mut b = [0u8; DESCRIPTOR_BYTES as usize];
        assert_eq!(RingDescriptor::decode(&b), None, "opcode 0");
        b[0] = 1; // read, but count 0
        assert_eq!(RingDescriptor::decode(&b), None, "zero count");
        b[0] = 9;
        b[24] = 1;
        assert_eq!(RingDescriptor::decode(&b), None, "unknown opcode");
    }

    #[test]
    fn to_request_rejects_wrapping_ranges() {
        // A count that runs past u64::MAX can otherwise overflow the
        // walk's `vlba + blocks` arithmetic — a guest-triggerable debug
        // panic before the quarantine types landed.
        let d = RingDescriptor::new(BlockOp::Read, RequestId(1), Vlba(u64::MAX), 2, 0x8000);
        assert!(matches!(
            d.to_request(),
            Err(GuestFault::SlbaOutOfRange { .. })
        ));
    }

    #[test]
    fn ring_consume_wraps() {
        let mut mem = HostMemory::new();
        let base = mem.alloc(4 * DESCRIPTOR_BYTES, 64);
        let mut ring = RingState {
            base,
            entries: 4,
            head: 0,
        };
        assert!(ring.is_configured());
        let write_desc = |mem: &mut HostMemory, slot: u64, id: u64| {
            let d = RingDescriptor::new(BlockOp::Read, RequestId(id), Vlba(id), 1, 0x8000);
            mem.write(base + slot * DESCRIPTOR_BYTES, &d.encode());
        };
        // Fill slots 0..3, consume to tail=3.
        for s in 0..3 {
            write_desc(&mut mem, s, s + 1);
        }
        let ids = |got: Vec<Result<RingDescriptor, RequestId>>| {
            got.into_iter()
                .map(|d| d.map(|d| d.id.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(consumed(&mut ring, &mem, 3)), vec![Ok(1), Ok(2), Ok(3)]);
        // Wrap: slots 3, 0 → tail=1.
        write_desc(&mut mem, 3, 4);
        write_desc(&mut mem, 0, 5);
        assert_eq!(ids(consumed(&mut ring, &mem, 1)), vec![Ok(4), Ok(5)]);
        assert_eq!(ring.head, 1);
    }

    #[test]
    fn malformed_slots_come_back_with_their_id() {
        let mut mem = HostMemory::new();
        let base = mem.alloc(4 * DESCRIPTOR_BYTES, 64);
        let mut ring = RingState {
            base,
            entries: 4,
            head: 0,
        };
        let good = RingDescriptor::new(BlockOp::Read, RequestId(1), Vlba(0), 1, 0x8000);
        let mut bad = RingDescriptor::new(BlockOp::Read, RequestId(2), Vlba(0), 1, 0x8000).encode();
        bad[0] = 9;
        mem.write(base, &good.encode());
        mem.write(base + DESCRIPTOR_BYTES, &bad);
        assert_eq!(
            consumed(&mut ring, &mem, 2),
            vec![Ok(good), Err(RequestId(2))]
        );
        assert_eq!(ring.head, 2);
    }

    #[test]
    fn unconfigured_ring_consumes_nothing() {
        let mem = HostMemory::new();
        let mut ring = RingState::default();
        assert!(!ring.is_configured());
        // A reused buffer is cleared even when nothing is consumed.
        let mut out = vec![Err(RequestId(7))];
        ring.consume(&mem, 3, &mut out);
        assert!(out.is_empty());
        // Non-power-of-two entries are also rejected.
        let mut bad = RingState {
            base: 0x1000,
            entries: 3,
            head: 0,
        };
        assert!(consumed(&mut bad, &mem, 1).is_empty());
    }

    proptest! {
        #[test]
        fn prop_descriptor_roundtrip(
            id in any::<u64>(),
            lba in any::<u64>(),
            count in 1u32..u32::MAX,
            buffer in any::<u64>(),
            is_write in any::<bool>(),
        ) {
            let d = RingDescriptor::new(
                if is_write { BlockOp::Write } else { BlockOp::Read },
                RequestId(id),
                Vlba(lba),
                count,
                buffer,
            );
            prop_assert_eq!(RingDescriptor::decode(&d.encode()), Some(d));
        }
    }
}
