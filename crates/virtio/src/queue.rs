//! The split virtqueue.
//!
//! A faithful-but-typed model of the virtio 1.0 split ring: a fixed-size
//! descriptor table whose entries chain via `next`, an avail ring carrying
//! chain heads from driver to device, and a used ring carrying completions
//! back. Descriptors reference guest buffers by host address + length;
//! data itself stays in [`HostMemory`](nesc_pcie::HostMemory).

use std::collections::VecDeque;

use nesc_pcie::HostAddr;

/// One descriptor: a guest buffer and whether the *device* writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Guest-physical buffer address.
    pub addr: HostAddr,
    /// Buffer length in bytes.
    pub len: u32,
    /// True if the device writes this buffer (read data, status byte).
    pub device_writes: bool,
}

/// A descriptor chain as popped by the device side. A backend keeps one
/// and hands it to every [`Virtqueue::pop_avail`], which refills its
/// descriptor buffer in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Chain {
    /// Index of the head descriptor (token for `push_used`).
    pub head: u16,
    /// The chained descriptors in order.
    pub descriptors: Vec<Descriptor>,
}

impl Chain {
    /// Total bytes across device-writable descriptors.
    pub fn writable_bytes(&self) -> u64 {
        self.descriptors
            .iter()
            .filter(|d| d.device_writes)
            .map(|d| d.len as u64)
            .sum()
    }

    /// Total bytes across device-readable descriptors.
    pub fn readable_bytes(&self) -> u64 {
        self.descriptors
            .iter()
            .filter(|d| !d.device_writes)
            .map(|d| d.len as u64)
            .sum()
    }
}

/// One completion reaped from the used ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsedElem {
    /// Head descriptor index of the completed chain.
    pub head: u16,
    /// Bytes the device wrote into the chain's writable descriptors.
    pub written: u32,
}

/// Queue mechanics error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// Not enough free descriptors for the chain.
    Full {
        /// Descriptors requested.
        needed: usize,
        /// Descriptors free.
        free: usize,
    },
    /// A chain must contain at least one descriptor.
    EmptyChain,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Full { needed, free } => {
                write!(f, "virtqueue full: need {needed} descriptors, {free} free")
            }
            QueueError::EmptyChain => write!(f, "descriptor chains cannot be empty"),
        }
    }
}

impl std::error::Error for QueueError {}

#[derive(Debug, Clone, Copy)]
struct Slot {
    desc: Descriptor,
    next: Option<u16>,
}

/// A split virtqueue of fixed size.
///
/// # Example
///
/// ```
/// use nesc_virtio::{Chain, Virtqueue, queue::Descriptor};
///
/// let mut vq = Virtqueue::new(8);
/// let head = vq.add_chain(&[
///     Descriptor { addr: 0x1000, len: 16, device_writes: false },
///     Descriptor { addr: 0x2000, len: 4096, device_writes: true },
///     Descriptor { addr: 0x3000, len: 1, device_writes: true },
/// ]).unwrap();
/// // Device side, into a chain buffer it keeps:
/// let mut chain = Chain::default();
/// assert!(vq.pop_avail(&mut chain));
/// assert_eq!(chain.head, head);
/// assert_eq!(chain.writable_bytes(), 4097);
/// vq.push_used(chain.head, 4097);
/// // Driver side reaps the completion:
/// let used = vq.pop_used().unwrap();
/// assert_eq!((used.head, used.written), (head, 4097));
/// ```
#[derive(Debug)]
pub struct Virtqueue {
    slots: Vec<Option<Slot>>,
    free: Vec<u16>,
    avail: VecDeque<u16>,
    used: VecDeque<(u16, u32)>,
    kicks: u64,
    interrupts: u64,
}

impl Virtqueue {
    /// Creates a queue with `size` descriptors. A size that is zero or
    /// not a power of two (the virtio spec requires power-of-two rings)
    /// is a contract violation and rounds up to the next power of two.
    pub fn new(size: u16) -> Self {
        debug_assert!(size > 0 && size.is_power_of_two(), "ring size must be 2^n");
        let size = size.max(1).next_power_of_two();
        Virtqueue {
            slots: vec![None; size as usize],
            free: (0..size).rev().collect(),
            avail: VecDeque::new(),
            used: VecDeque::new(),
            kicks: 0,
            interrupts: 0,
        }
    }

    /// Ring size.
    pub fn size(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Free descriptor count.
    pub fn free_descriptors(&self) -> usize {
        self.free.len()
    }

    /// Driver side: allocates descriptors for `chain`, links them, and
    /// publishes the head on the avail ring. Returns the head index.
    ///
    /// # Errors
    ///
    /// [`QueueError::Full`] when descriptors are exhausted (the driver
    /// must wait for completions); [`QueueError::EmptyChain`] for empty
    /// input.
    pub fn add_chain(&mut self, chain: &[Descriptor]) -> Result<u16, QueueError> {
        if chain.is_empty() {
            return Err(QueueError::EmptyChain);
        }
        let full = QueueError::Full {
            needed: chain.len(),
            free: self.free.len(),
        };
        let Some(base) = self.free.len().checked_sub(chain.len()) else {
            return Err(full);
        };
        // The chain takes the free list's top entries in pop order, each
        // descriptor linked to the one taken after it.
        let mut taken = self.free[base..].iter().rev().copied().peekable();
        let Some(&head) = taken.peek() else {
            return Err(full);
        };
        for &desc in chain {
            let Some(idx) = taken.next() else { break };
            self.slots[idx as usize] = Some(Slot {
                desc,
                next: taken.peek().copied(),
            });
        }
        self.free.truncate(base);
        self.avail.push_back(head);
        Ok(head)
    }

    /// Driver side: notifies the device (counts a kick / doorbell; the
    /// vmexit cost is charged by the system model).
    pub fn kick(&mut self) {
        self.kicks += 1;
    }

    /// Number of kicks so far.
    pub fn kicks(&self) -> u64 {
        self.kicks
    }

    /// Device side: pops the next available chain into `chain`, reusing
    /// its descriptor buffer, and returns whether there was one. A
    /// published chain with a missing link (a protocol violation) reads as
    /// absent.
    pub fn pop_avail(&mut self, chain: &mut Chain) -> bool {
        let Some(head) = self.avail.pop_front() else {
            return false;
        };
        chain.head = head;
        chain.descriptors.clear();
        let mut cur = Some(head);
        while let Some(idx) = cur {
            let slot = self.slots.get(idx as usize).copied().flatten();
            debug_assert!(slot.is_some(), "published chain is intact");
            let Some(slot) = slot else { return false };
            chain.descriptors.push(slot.desc);
            cur = slot.next;
        }
        true
    }

    /// Device side: marks a chain as used (completed), writing back how
    /// many bytes the device produced, and frees its descriptors. A `head`
    /// that does not name a live chain (a protocol violation) frees
    /// whatever prefix of the chain still exists.
    pub fn push_used(&mut self, head: u16, written: u32) {
        // Free the chain's descriptors.
        let mut cur = Some(head);
        while let Some(idx) = cur {
            let slot = self.slots.get_mut(idx as usize).and_then(Option::take);
            debug_assert!(slot.is_some(), "push_used of unknown chain");
            let Some(slot) = slot else { break };
            self.free.push(idx);
            cur = slot.next;
        }
        self.used.push_back((head, written));
        self.interrupts += 1;
    }

    /// Completion interrupts delivered so far.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }

    /// Driver side: reaps one completion.
    pub fn pop_used(&mut self) -> Option<UsedElem> {
        self.used
            .pop_front()
            .map(|(head, written)| UsedElem { head, written })
    }

    /// Chains currently published and unconsumed.
    pub fn avail_len(&self) -> usize {
        self.avail.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pops the next chain into a fresh buffer.
    fn pop(vq: &mut Virtqueue) -> Option<Chain> {
        let mut chain = Chain::default();
        vq.pop_avail(&mut chain).then_some(chain)
    }

    fn d(addr: u64, len: u32, w: bool) -> Descriptor {
        Descriptor {
            addr,
            len,
            device_writes: w,
        }
    }

    #[test]
    fn chain_roundtrip_preserves_order() {
        let mut vq = Virtqueue::new(8);
        let head = vq
            .add_chain(&[d(1, 16, false), d(2, 512, true), d(3, 1, true)])
            .unwrap();
        let chain = pop(&mut vq).unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.descriptors.len(), 3);
        assert_eq!(chain.descriptors[0].addr, 1);
        assert_eq!(chain.descriptors[2].addr, 3);
        assert_eq!(chain.readable_bytes(), 16);
        assert_eq!(chain.writable_bytes(), 513);
    }

    #[test]
    fn a_kept_chain_buffer_is_refilled_by_each_pop() {
        let mut vq = Virtqueue::new(8);
        // A fresh ring hands out descriptors 0, 1, 2, ... in order.
        let a = vq
            .add_chain(&[d(1, 16, false), d(2, 512, true), d(3, 1, true)])
            .unwrap();
        let b = vq.add_chain(&[d(4, 16, false), d(5, 1, true)]).unwrap();
        assert_eq!((a, b), (0, 3));
        let mut chain = Chain::default();
        assert!(vq.pop_avail(&mut chain));
        assert_eq!(
            chain.descriptors,
            [d(1, 16, false), d(2, 512, true), d(3, 1, true)]
        );
        assert!(vq.pop_avail(&mut chain));
        assert_eq!(chain.head, b);
        assert_eq!(chain.descriptors, [d(4, 16, false), d(5, 1, true)]);
        assert!(!vq.pop_avail(&mut chain));
    }

    #[test]
    fn exhaustion_and_reuse() {
        let mut vq = Virtqueue::new(4);
        let h1 = vq.add_chain(&[d(1, 1, false), d(2, 1, false)]).unwrap();
        let _h2 = vq.add_chain(&[d(3, 1, false), d(4, 1, false)]).unwrap();
        assert_eq!(
            vq.add_chain(&[d(5, 1, false)]),
            Err(QueueError::Full { needed: 1, free: 0 })
        );
        let c1 = pop(&mut vq).unwrap();
        assert_eq!(c1.head, h1);
        vq.push_used(c1.head, 0);
        assert_eq!(
            vq.pop_used(),
            Some(UsedElem {
                head: h1,
                written: 0
            })
        );
        // Freed descriptors are reusable.
        assert_eq!(vq.free_descriptors(), 2);
        vq.add_chain(&[d(6, 1, false), d(7, 1, false)]).unwrap();
    }

    #[test]
    fn fifo_avail_order() {
        let mut vq = Virtqueue::new(8);
        let a = vq.add_chain(&[d(1, 1, false)]).unwrap();
        let b = vq.add_chain(&[d(2, 1, false)]).unwrap();
        assert_eq!(vq.avail_len(), 2);
        assert_eq!(pop(&mut vq).unwrap().head, a);
        assert_eq!(pop(&mut vq).unwrap().head, b);
        assert!(pop(&mut vq).is_none());
    }

    #[test]
    fn kicks_and_interrupts_counted() {
        let mut vq = Virtqueue::new(2);
        vq.kick();
        vq.kick();
        assert_eq!(vq.kicks(), 2);
        let h = vq.add_chain(&[d(1, 1, true)]).unwrap();
        let c = pop(&mut vq).unwrap();
        vq.push_used(c.head, 1);
        assert_eq!(vq.interrupts(), 1);
        assert_eq!(
            vq.pop_used(),
            Some(UsedElem {
                head: h,
                written: 1
            })
        );
    }

    #[test]
    fn empty_chain_rejected() {
        let mut vq = Virtqueue::new(2);
        assert_eq!(vq.add_chain(&[]), Err(QueueError::EmptyChain));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "2^n")]
    fn non_pow2_size_rejected() {
        Virtqueue::new(3);
    }

    proptest! {
        /// Any interleaving of add/pop/complete keeps descriptor accounting
        /// exact: free + live == size, and every chain round-trips intact.
        #[test]
        fn prop_descriptor_accounting(ops in proptest::collection::vec((1usize..4, any::<bool>()), 1..100)) {
            let mut vq = Virtqueue::new(16);
            let mut live: Vec<(u16, usize)> = Vec::new(); // (head, len)
            for &(chain_len, complete) in &ops {
                if complete {
                    if let Some(chain) = pop(&mut vq) {
                        let expect = live.iter().position(|&(h, _)| h == chain.head).unwrap();
                        let (_, len) = live.remove(expect);
                        prop_assert_eq!(chain.descriptors.len(), len);
                        vq.push_used(chain.head, 0);
                        vq.pop_used();
                    }
                } else {
                    let descs: Vec<Descriptor> =
                        (0..chain_len).map(|i| d(i as u64, 1, false)).collect();
                    if let Ok(head) = vq.add_chain(&descs) {
                        live.push((head, chain_len));
                    }
                }
                let live_descs: usize = live.iter().map(|&(_, l)| l).sum();
                prop_assert_eq!(vq.free_descriptors() + live_descs, 16);
            }
        }
    }
}
