//! The unified error type of the public I/O surface.

use std::fmt;

use nesc_core::CompletionStatus;

/// Why a [`System`](crate::System) I/O call failed.
///
/// Every fallible public I/O entry point (`try_read`, `try_write`, and the
/// guest-filesystem layer above them) reports this one enum instead of
/// leaking the device's raw [`CompletionStatus`]; the conversion is exact
/// for every non-`Ok` status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NescError {
    /// The hypervisor could not allocate backing space for a write
    /// (quota exhausted / device full) — the paper's write-failure
    /// interrupt surfacing to the guest.
    WriteFailed,
    /// The request addressed blocks beyond the virtual device size.
    OutOfRange,
    /// Device-level failure: corrupt extent tree, a detached disk, or a
    /// request to a dead function.
    Device,
    /// A guest-supplied value failed its bounds proof at the trust
    /// boundary (out-of-range LBA, wrapping length, bad doorbell, …). The
    /// inner fault says exactly which proof failed.
    Guest(nesc_extent::GuestFault),
}

impl NescError {
    /// Maps a device completion status to the public error; `Ok` maps to
    /// `None` (not an error).
    pub fn from_status(status: CompletionStatus) -> Option<NescError> {
        match status {
            CompletionStatus::Ok => None,
            CompletionStatus::WriteFailed => Some(NescError::WriteFailed),
            CompletionStatus::OutOfRange => Some(NescError::OutOfRange),
            CompletionStatus::DeviceError => Some(NescError::Device),
        }
    }
}

// The lower-layer error enums collapse into the three public categories
// here, at the hypervisor boundary, so `?` threads typed errors through
// the whole data path without the callers ever seeing crate internals.
// (The layering DAG keeps nvme out of this crate, so `NvmeError` has no
// impl — NVMe completions reach the guest as status codes, not errors.)

impl From<nesc_fs::FsError> for NescError {
    fn from(e: nesc_fs::FsError) -> Self {
        match e {
            nesc_fs::FsError::NoSpace { .. } => NescError::WriteFailed,
            _ => NescError::Device,
        }
    }
}

impl From<nesc_storage::StoreError> for NescError {
    fn from(e: nesc_storage::StoreError) -> Self {
        match e {
            nesc_storage::StoreError::OutOfRange { .. } => NescError::OutOfRange,
            _ => NescError::Device,
        }
    }
}

impl From<nesc_core::VfError> for NescError {
    fn from(_: nesc_core::VfError) -> Self {
        NescError::Device
    }
}

impl From<nesc_virtio::QueueError> for NescError {
    fn from(_: nesc_virtio::QueueError) -> Self {
        NescError::Device
    }
}

impl From<nesc_extent::GuestFault> for NescError {
    fn from(e: nesc_extent::GuestFault) -> Self {
        NescError::Guest(e)
    }
}

impl fmt::Display for NescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NescError::WriteFailed => {
                write!(f, "write failed: the hypervisor could not back the range")
            }
            NescError::OutOfRange => write!(f, "request beyond the virtual device size"),
            NescError::Device => write!(f, "device error"),
            NescError::Guest(fault) => write!(f, "guest input rejected: {fault}"),
        }
    }
}

impl std::error::Error for NescError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_is_total() {
        assert_eq!(NescError::from_status(CompletionStatus::Ok), None);
        assert_eq!(
            NescError::from_status(CompletionStatus::WriteFailed),
            Some(NescError::WriteFailed)
        );
        assert_eq!(
            NescError::from_status(CompletionStatus::OutOfRange),
            Some(NescError::OutOfRange)
        );
        assert_eq!(
            NescError::from_status(CompletionStatus::DeviceError),
            Some(NescError::Device)
        );
    }

    #[test]
    fn lower_layer_errors_collapse_into_the_public_categories() {
        use nesc_extent::{GuestFault, Plba};
        use nesc_fs::FsError;
        use nesc_storage::StoreError;
        let no_space = FsError::NoSpace {
            requested: 8,
            free: 2,
        };
        assert_eq!(NescError::from(no_space), NescError::WriteFailed);
        let exists = FsError::Exists {
            name: "a.img".to_string(),
        };
        assert_eq!(NescError::from(exists), NescError::Device);
        let beyond = StoreError::OutOfRange {
            lba: Plba(9),
            capacity: 4,
        };
        assert_eq!(NescError::from(beyond), NescError::OutOfRange);
        let short = StoreError::BadLength { len: 3 };
        assert_eq!(NescError::from(short), NescError::Device);
        assert_eq!(
            NescError::from(nesc_core::VfError::NotAVf),
            NescError::Device
        );
        let empty = nesc_virtio::QueueError::EmptyChain;
        assert_eq!(NescError::from(empty), NescError::Device);
        let fault = GuestFault::ZeroLength;
        assert_eq!(NescError::from(fault), NescError::Guest(fault));
        assert_eq!(
            NescError::Guest(fault).to_string(),
            format!("guest input rejected: {fault}")
        );
    }

    #[test]
    fn display_is_human_readable() {
        assert!(NescError::WriteFailed
            .to_string()
            .contains("back the range"));
        assert!(NescError::OutOfRange.to_string().contains("device size"));
    }
}
