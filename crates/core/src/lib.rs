#![warn(missing_docs)]

//! # NeSC — the self-virtualizing nested storage controller
//!
//! This crate is the reproduction's model of the paper's contribution
//! (Gottesman & Etsion, *NeSC: Self-Virtualizing Nested Storage
//! Controller*, MICRO 2016): a PCIe storage controller that exposes itself
//! as one **physical function** (PF, the hypervisor's full-featured
//! controller) plus up to 64 **virtual functions** (VFs), each a plain
//! block device directly assigned to a guest VM and confined — *by
//! hardware* — to the file the hypervisor bound it to.
//!
//! The model follows the paper's microarchitecture (Figs. 6–8):
//!
//! * per-client **request queues**, drained **round-robin** by the virtual
//!   function multiplexer to prevent starvation;
//! * requests split into 1 KiB blocks, pushed through a shared **vLBA
//!   queue** into the **translation unit**;
//! * the translation unit consults an 8-entry **block translation
//!   lookaside buffer** ([`Btlb`]) and, on miss, the **block-walk unit**
//!   traverses the VF's extent tree in *host memory* with one DMA read per
//!   level, overlapping two walks to hide DMA latency;
//! * translated pLBAs queue for the **data-transfer unit**, which moves
//!   real bytes between the on-device [`BlockStore`][nesc_storage::BlockStore]
//!   and host memory through the prototype's DMA engine (≈800 MB/s reads,
//!   ≈1 GB/s writes) and the PCIe gen2 x8 link;
//! * reads of file *holes* zero-fill the destination buffer; writes to
//!   unallocated or pruned ranges set the VF's `MissAddress`/`MissSize`
//!   registers, **interrupt the hypervisor**, and stall that VF until the
//!   host allocates blocks and pokes `RewalkTree`;
//! * the PF bypasses translation entirely through the **out-of-band
//!   channel**, so stalled VF writes can never block hypervisor I/O.
//!
//! Both the *function* (real bytes, real trees, real isolation) and the
//! *timing* (queueing on shared units, DMA and media bandwidths) are
//! modeled; the benchmark crate regenerates the paper's figures from the
//! timing side while the test suites verify the security properties on the
//! functional side.
//!
//! ## Quick tour
//!
//! ```
//! use nesc_core::{NescConfig, NescDevice, FuncId};
//! use nesc_extent::{ExtentTree, ExtentMapping, Vlba, Plba};
//! use nesc_pcie::HostMemory;
//! use nesc_storage::{BlockRequest, BlockOp, RequestId};
//! use nesc_sim::SimTime;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! // Host memory shared between hypervisor and device.
//! let mem = Rc::new(RefCell::new(HostMemory::new()));
//! let mut dev = NescDevice::new(NescConfig::prototype(), Rc::clone(&mem));
//!
//! // The hypervisor maps a "file" (blocks 100..116 on the device) to a VF.
//! let tree: ExtentTree = [ExtentMapping::new(Vlba(0), Plba(100), 16)].into_iter().collect();
//! let root = tree.serialize(&mut mem.borrow_mut());
//! let vf = dev.create_vf(root, 16).unwrap();
//!
//! // A guest writes block 0 of its virtual disk.
//! let buf = mem.borrow_mut().alloc(1024, 8);
//! mem.borrow_mut().write(buf, &[7u8; 1024]);
//! let t = dev.ring_doorbell(SimTime::ZERO);
//! dev.submit(t, vf, BlockRequest::new(RequestId(1), BlockOp::Write, Vlba(0), 1), buf);
//!
//! let outs = dev.advance(SimTime::from_nanos(1_000_000));
//! assert!(outs.iter().any(|o| o.is_completion()));
//! // The bytes landed on *physical* block 100 — the VF never named it.
//! assert_eq!(dev.store().read_block(Plba(100)).unwrap(), vec![7u8; 1024]);
//! ```

pub mod btlb;
pub mod config;
pub mod device;
pub mod function;
pub mod regs;
pub mod ring;
pub mod stats;

pub use btlb::Btlb;
pub use config::NescConfig;
pub use device::{CompletionStatus, FuncId, IrqReason, NescDevice, NescOutput, VfError};
pub use function::{FunctionContext, FunctionKind};
pub use nesc_sim::DeviceStats;
pub use regs::FunctionRegisters;
pub use ring::{RingDescriptor, RingState};
pub use stats::FuncStats;
