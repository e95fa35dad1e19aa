#![warn(missing_docs)]

//! Paravirtualized (virtio-blk style) storage path.
//!
//! virtio is "the de facto standard for virtualizing storage in Linux
//! hypervisors" and the main software baseline NeSC is compared against
//! (paper §II, Fig. 1b): the guest's block driver places requests in a
//! shared ring, *kicks* the host (a vmexit), and the hypervisor's backend
//! thread walks its own filesystem and block layers to serve them.
//!
//! This crate models the data structures of that path:
//!
//! * [`Virtqueue`] — a split virtqueue: descriptor table with chaining, an
//!   avail ring (guest→host) and a used ring (host→guest), with free-slot
//!   accounting like the Linux driver's;
//! * [`BlkRequest`] / [`BlkStatus`] — the virtio-blk command set (IN, OUT,
//!   FLUSH) with the standard three-part descriptor chain: 16-byte header,
//!   data buffers, one status byte.
//!
//! The *timing* of kicks (vmexit), host-stack processing, and completion
//! injection is charged by the `nesc-hypervisor` crate; this crate owns
//! the functional queue mechanics so tests can verify request integrity
//! end to end.

pub mod blk;
pub mod queue;

pub use blk::{BlkChain, BlkRequest, BlkRequestType, BlkStatus};
pub use queue::{Chain, QueueError, UsedElem, Virtqueue};
