#![warn(missing_docs)]

//! Workload generators for the NeSC evaluation (paper Table II).
//!
//! | paper benchmark | module | what it does |
//! |-----------------|--------|--------------|
//! | GNU dd          | [`dd`] | sequential read/write of a raw virtual device at a given block size, synchronous (latency, Fig. 9/11) or pipelined (bandwidth, Fig. 10) |
//! | Sysbench File I/O | [`fileio`] | a sequence of random file operations over the guest filesystem |
//! | Postmark        | [`postmark`] | mail-server simulation: create/delete/read/append transactions over many small files |
//! | MySQL + SysBench OLTP | [`oltp`] | a page-based relational store with a write-ahead log serving point/update transactions |
//!
//! All workloads implement the common [`Workload`] trait — deterministic
//! given a seed, run against a [`TenantIo`], reporting a common
//! [`WorkloadReport`] (operations, bytes, latency percentiles,
//! throughput).
//!
//! The [`scenario`] module scales the same vocabulary out to datacenter
//! tenancy: a declarative [`ScenarioSpec`] describing
//! hundreds-to-thousands of tenant VFs is compiled into one deterministic
//! open-loop arrival tape and replayed through a single system, yielding
//! per-tenant latency and fairness metrics.

pub mod dd;
pub mod fileio;
pub mod oltp;
pub mod postmark;
pub mod report;
pub mod scenario;
pub mod selfcheck;

pub use dd::{Dd, DdMode};
pub use fileio::{FileIo, FileTestMode};
pub use nesc_hypervisor::{ScenarioSpec, TenantClass, TenantIo, TenantSpec, Workload};
pub use oltp::Oltp;
pub use postmark::Postmark;
pub use report::WorkloadReport;
pub use scenario::{ScenarioError, ScenarioReport, TenantOutcome};
pub use selfcheck::MixedVfSelfCheck;
