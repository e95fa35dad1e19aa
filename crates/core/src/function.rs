//! Per-function state.
//!
//! The device "must maintain a separate context for each PCIe device (PF
//! and VFs)" (paper §V): its register window and its client request queue.
//! The one request parked on a translation miss is device state, not
//! per-function state: the multiplexer dispatches nothing while it waits,
//! so there is never a second.

use std::collections::VecDeque;

use nesc_pcie::HostAddr;
use nesc_sim::SimTime;
use nesc_storage::BlockRequest;

use crate::regs::FunctionRegisters;

/// Whether a function is the hypervisor-facing PF or a client VF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionKind {
    /// The physical function: full device, pLBA-addressed, bypasses
    /// translation through the out-of-band channel.
    Physical,
    /// A virtual function: vLBA-addressed, confined to its extent tree.
    Virtual,
}

/// A request waiting in a function's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRequest {
    /// The block request.
    pub req: BlockRequest,
    /// Host buffer the data moves to/from (contiguous, one scatter entry).
    pub buf: HostAddr,
    /// When it reached the device.
    pub arrived: SimTime,
}

/// Default QoS priority assigned to new functions.
pub const DEFAULT_PRIORITY: u8 = 1;
/// Number of priority classes supported (0..NUM_PRIORITIES).
pub const NUM_PRIORITIES: u8 = 4;

/// Everything the device keeps per function.
#[derive(Debug, Clone)]
pub struct FunctionContext {
    /// PF or VF.
    pub kind: FunctionKind,
    /// The function's register window.
    pub regs: FunctionRegisters,
    /// Client request queue, drained round-robin by the multiplexer.
    pub queue: VecDeque<PendingRequest>,
    /// Cleared when the hypervisor deletes the VF; dead slots reject I/O
    /// and can be reused for new VFs.
    pub alive: bool,
    /// QoS priority of the function (0 = highest). The multiplexer serves
    /// the lowest-numbered priority class with pending work, round-robin
    /// within it — the per-VF priority extension of paper §IV-D.
    pub priority: u8,
    /// Device-side consumer index of the function's command ring.
    pub ring_head: u32,
    /// For a *nested* VF (paper §IV-A's aside on nested virtualization):
    /// the parent VF whose address space this function's tree maps into.
    /// Translation composes: child tree first, then every ancestor's.
    pub parent: Option<crate::device::FuncId>,
}

impl FunctionContext {
    /// Creates a live function context.
    pub fn new(kind: FunctionKind, regs: FunctionRegisters) -> Self {
        FunctionContext {
            kind,
            regs,
            queue: VecDeque::new(),
            alive: true,
            priority: DEFAULT_PRIORITY,
            ring_head: 0,
            parent: None,
        }
    }

    /// Whether the multiplexer may dequeue from this function at `now`
    /// (a queued request only becomes visible once its doorbell write has
    /// arrived).
    pub fn dispatchable_at(&self, now: SimTime) -> bool {
        self.alive && self.queue.front().is_some_and(|p| p.arrived <= now)
    }

    /// Arrival time of the oldest queued request, if any (used by the
    /// multiplexer to sleep until the next doorbell).
    pub fn next_arrival(&self) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        self.queue.front().map(|p| p.arrived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_extent::Vlba;
    use nesc_storage::{BlockOp, RequestId};

    #[test]
    fn dispatchability_rules() {
        let mut f = FunctionContext::new(FunctionKind::Virtual, FunctionRegisters::default());
        let now = SimTime::from_nanos(100);
        assert!(!f.dispatchable_at(now), "empty queue");
        assert_eq!(f.next_arrival(), None);
        let pending = PendingRequest {
            req: BlockRequest::new(RequestId(1), BlockOp::Read, Vlba(0), 1),
            buf: 0x1000,
            arrived: SimTime::from_nanos(50),
        };
        f.queue.push_back(pending);
        assert!(f.dispatchable_at(now));
        assert!(
            !f.dispatchable_at(SimTime::from_nanos(10)),
            "requests are invisible before their doorbell arrives"
        );
        assert_eq!(f.next_arrival(), Some(SimTime::from_nanos(50)));
        f.alive = false;
        assert!(!f.dispatchable_at(now), "dead function must not dispatch");
    }
}
