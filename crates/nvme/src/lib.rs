#![warn(missing_docs)]

//! NVMe-style queue pairs over NeSC.
//!
//! The paper argues (§III) that NVMe "defines an abstract concept of
//! address spaces through which applications and VMs can access subsets
//! of the target storage device", but "does not specify how address
//! spaces are defined, how they are maintained, and what they represent
//! — NeSC therefore complements the abstract NVMe address spaces and
//! enables the protocol to support protected, self-virtualizing storage
//! devices."
//!
//! This crate makes that composition concrete: an NVMe-flavoured command
//! interface where **each namespace is a NeSC virtual function** — i.e. a
//! file of the hypervisor's filesystem, isolated by the hardware-walked
//! extent tree. The queue mechanics are real: submission and completion
//! rings live in host memory as encoded bytes ([`SubmissionQueue`] /
//! [`CompletionQueue`], 64-byte SQEs, 16-byte CQEs with a phase bit), the
//! driver rings a doorbell, and the controller decodes commands, puts
//! them on the namespaces' VF command rings of one
//! [`System`](nesc_hypervisor::System) (whose hypervisor serves their
//! translation misses, thin namespaces included), and posts completions.
//!
//! The layout follows NVMe's structure (opcode/CID/NSID/PRP/SLBA/NLB
//! fields at their customary offsets) but is deliberately a *subset*: one
//! PRP data pointer (contiguous buffers), no SGLs, no interrupts
//! coalescing — enough to demonstrate the composition and test the
//! protocol invariants (phase-bit wraparound, queue-full behaviour,
//! per-namespace isolation).

pub mod command;
pub mod controller;
pub mod queue;

pub use command::{CompletionEntry, NvmeOpcode, NvmeStatus, SubmissionEntry};
pub use controller::{Namespace, NvmeController, NvmeError};
pub use queue::{CompletionQueue, QueueFull, SubmissionQueue};
