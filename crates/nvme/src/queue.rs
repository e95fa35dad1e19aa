//! Submission/completion rings in host memory.
//!
//! The rings hold *encoded bytes* in [`HostMemory`] — the same memory the
//! device DMAs — and the two sides keep only their own indices, exactly
//! like a real driver/controller pair:
//!
//! * the **driver** owns the SQ tail (writes entries, rings the doorbell)
//!   and the CQ head (consumes completions, watching the phase bit);
//! * the **controller** owns the SQ head (consumes commands) and the CQ
//!   tail + phase (produces completions).

use nesc_pcie::{HostAddr, HostMemory};

use crate::command::{CompletionEntry, SubmissionEntry, CQE_BYTES, SQE_BYTES};

/// Error returned when a ring has no free slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The ring's entry count.
    pub entries: u16,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue full ({} entries)", self.entries)
    }
}

impl std::error::Error for QueueFull {}

/// A submission ring.
///
/// # Example
///
/// ```
/// use nesc_nvme::{SubmissionQueue, SubmissionEntry, NvmeOpcode};
/// use nesc_extent::Vlba;
/// use nesc_pcie::HostMemory;
///
/// let mut mem = HostMemory::new();
/// let mut sq = SubmissionQueue::new(&mut mem, 4);
/// let sqe = SubmissionEntry::new(NvmeOpcode::Read, 7, 1, 0x9000, Vlba(0), 3);
/// sq.push(&mut mem, sqe).unwrap();
/// // Controller side:
/// assert_eq!(sq.pop(&mem), Some(sqe));
/// assert_eq!(sq.pop(&mem), None);
/// ```
#[derive(Debug)]
pub struct SubmissionQueue {
    base: HostAddr,
    entries: u16,
    /// Driver-owned producer index.
    tail: u16,
    /// Controller-owned consumer index.
    head: u16,
}

impl SubmissionQueue {
    /// Allocates a ring of `entries` slots in host memory.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two ≥ 2 (NVMe requires at
    /// least 2 entries; powers of two keep the arithmetic honest).
    pub fn new(mem: &mut HostMemory, entries: u16) -> Self {
        assert!(entries >= 2 && entries.is_power_of_two(), "ring size");
        let base = mem.alloc(entries as u64 * SQE_BYTES, 4096);
        SubmissionQueue {
            base,
            entries,
            tail: 0,
            head: 0,
        }
    }

    /// Ring capacity (one slot is kept empty to distinguish full from
    /// empty, per the spec).
    pub fn capacity(&self) -> u16 {
        self.entries - 1
    }

    /// Entries waiting to be consumed.
    pub fn len(&self) -> u16 {
        self.tail.wrapping_sub(self.head) % self.entries
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Driver: writes an entry at the tail and advances it. The caller
    /// still has to ring the controller's doorbell with [`tail`](Self::tail).
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the ring has no free slot.
    pub fn push(&mut self, mem: &mut HostMemory, sqe: SubmissionEntry) -> Result<u16, QueueFull> {
        if self.len() == self.capacity() {
            return Err(QueueFull {
                entries: self.entries,
            });
        }
        let slot = self.tail % self.entries;
        mem.write(self.base + slot as u64 * SQE_BYTES, &sqe.encode());
        self.tail = self.tail.wrapping_add(1) % self.entries;
        Ok(self.tail)
    }

    /// Controller: consumes the entry at the head, if any. Malformed
    /// entries (unknown opcode) are consumed and returned as `None` by
    /// [`pop_raw`](Self::pop_raw); this convenience skips them.
    pub fn pop(&mut self, mem: &HostMemory) -> Option<SubmissionEntry> {
        while !self.is_empty() {
            if let Some(sqe) = self.pop_raw(mem) {
                return Some(sqe);
            }
        }
        None
    }

    /// Controller: consumes one slot; `None` if it failed to decode.
    pub fn pop_raw(&mut self, mem: &HostMemory) -> Option<SubmissionEntry> {
        if self.is_empty() {
            return None;
        }
        let slot = self.head % self.entries;
        let mut buf = [0u8; SQE_BYTES as usize];
        mem.read(self.base + slot as u64 * SQE_BYTES, &mut buf);
        self.head = self.head.wrapping_add(1) % self.entries;
        SubmissionEntry::decode(&buf)
    }

    /// Current head (reported back in completions).
    pub fn head(&self) -> u16 {
        self.head
    }
}

/// A completion ring with phase-bit semantics.
#[derive(Debug)]
pub struct CompletionQueue {
    base: HostAddr,
    entries: u16,
    /// Controller-owned producer index.
    tail: u16,
    /// Controller's current phase tag.
    phase: bool,
    /// Driver-owned consumer index.
    head: u16,
    /// Driver's expected phase tag.
    driver_phase: bool,
}

impl CompletionQueue {
    /// Allocates a ring of `entries` slots in host memory.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two ≥ 2.
    pub fn new(mem: &mut HostMemory, entries: u16) -> Self {
        assert!(entries >= 2 && entries.is_power_of_two(), "ring size");
        let base = mem.alloc(entries as u64 * CQE_BYTES, 4096);
        CompletionQueue {
            base,
            entries,
            tail: 0,
            phase: true, // first pass posts with phase=1; ring starts zeroed
            head: 0,
            driver_phase: true,
        }
    }

    /// Controller: posts a completion at the tail, stamping the current
    /// phase, and advances (flipping phase on wrap). Completion queues
    /// cannot overflow in this model because the submission ring bounds
    /// outstanding commands.
    pub fn post(&mut self, mem: &mut HostMemory, mut cqe: CompletionEntry) {
        cqe.phase = self.phase;
        let slot = self.tail % self.entries;
        mem.write(self.base + slot as u64 * CQE_BYTES, &cqe.encode());
        self.tail = self.tail.wrapping_add(1) % self.entries;
        if self.tail == 0 {
            self.phase = !self.phase;
        }
    }

    /// Completions the controller has posted but the driver has not yet
    /// reaped.
    pub fn len(&self) -> u16 {
        self.tail.wrapping_sub(self.head) % self.entries
    }

    /// Whether no completions are waiting to be reaped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Driver: reaps the next completion if its phase tag matches the
    /// expected phase (i.e. the controller has produced it).
    pub fn reap(&mut self, mem: &HostMemory) -> Option<CompletionEntry> {
        let slot = self.head % self.entries;
        let mut buf = [0u8; CQE_BYTES as usize];
        mem.read(self.base + slot as u64 * CQE_BYTES, &mut buf);
        let cqe = CompletionEntry::decode(&buf)?;
        if cqe.phase != self.driver_phase {
            return None; // not produced yet
        }
        self.head = self.head.wrapping_add(1) % self.entries;
        if self.head == 0 {
            self.driver_phase = !self.driver_phase;
        }
        Some(cqe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{NvmeOpcode, NvmeStatus};
    use nesc_extent::{Untrusted, Vlba};

    fn sqe(cid: u16) -> SubmissionEntry {
        SubmissionEntry::new(NvmeOpcode::Write, cid, 1, 0x4000, Vlba(cid as u64), 0)
    }

    #[test]
    fn sq_fifo_and_full() {
        let mut mem = HostMemory::new();
        let mut sq = SubmissionQueue::new(&mut mem, 4);
        assert_eq!(sq.capacity(), 3);
        for i in 0..3 {
            sq.push(&mut mem, sqe(i)).unwrap();
        }
        assert_eq!(sq.push(&mut mem, sqe(9)), Err(QueueFull { entries: 4 }));
        for i in 0..3 {
            assert_eq!(sq.pop(&mem).unwrap().cid, Untrusted::new(i));
        }
        assert!(sq.pop(&mem).is_none());
        // Freed slots are reusable across the wrap.
        for i in 10..13 {
            sq.push(&mut mem, sqe(i)).unwrap();
        }
        assert_eq!(sq.len(), 3);
    }

    #[test]
    fn a_malformed_entry_is_consumed_as_none() {
        let mut mem = HostMemory::new();
        let mut sq = SubmissionQueue::new(&mut mem, 8);
        for i in 1..=3 {
            sq.push(&mut mem, sqe(i)).unwrap();
        }
        // Slot 1 gets an opcode no controller knows.
        mem.write(sq.base + SQE_BYTES, &[0xFF]);
        assert_eq!(sq.pop_raw(&mem).map(|e| e.cid), Some(Untrusted::new(1)));
        assert_eq!(sq.pop_raw(&mem), None);
        assert_eq!((sq.head(), sq.len()), (2, 1), "the bad slot was consumed");
        assert_eq!(sq.pop_raw(&mem).map(|e| e.cid), Some(Untrusted::new(3)));
        assert_eq!(sq.pop_raw(&mem), None, "empty");
        assert_eq!(sq.head(), 3);
        // `pop` steps over a bad entry to the next good one.
        sq.push(&mut mem, sqe(4)).unwrap();
        sq.push(&mut mem, sqe(5)).unwrap();
        mem.write(sq.base + 3 * SQE_BYTES, &[0xFF]);
        assert_eq!(sq.pop(&mem).map(|e| e.cid), Some(Untrusted::new(5)));
        assert!(sq.is_empty());
    }

    #[test]
    fn cq_phase_wraparound() {
        let mut mem = HostMemory::new();
        let mut cq = CompletionQueue::new(&mut mem, 4);
        // Two full passes over the ring: phase flips keep reaping correct.
        for round in 0..2 {
            for i in 0..4u16 {
                cq.post(
                    &mut mem,
                    CompletionEntry {
                        sq_head: 0,
                        cid: round * 10 + i,
                        status: NvmeStatus::Success,
                        phase: false, // overwritten by post()
                    },
                );
                let got = cq.reap(&mem).expect("posted entry is visible");
                assert_eq!(got.cid, round * 10 + i);
            }
        }
        // Nothing further to reap: the stale phase blocks re-reading.
        assert!(cq.reap(&mem).is_none());
    }

    #[test]
    fn reap_before_post_sees_nothing() {
        let mut mem = HostMemory::new();
        let mut cq = CompletionQueue::new(&mut mem, 8);
        assert!(cq.reap(&mem).is_none());
    }

    #[test]
    fn malformed_entries_are_skipped() {
        let mut mem = HostMemory::new();
        let mut sq = SubmissionQueue::new(&mut mem, 4);
        sq.push(&mut mem, sqe(1)).unwrap();
        // Corrupt the opcode of the pending entry.
        mem.write(sq.base, &[0xFFu8]);
        sq.push(&mut mem, sqe(2)).unwrap();
        // pop() skips the corrupt entry and yields the good one.
        assert_eq!(sq.pop(&mem).unwrap().cid, Untrusted::new(2));
    }

    #[test]
    #[should_panic(expected = "ring size")]
    fn tiny_ring_rejected() {
        let mut mem = HostMemory::new();
        SubmissionQueue::new(&mut mem, 1);
    }
}
