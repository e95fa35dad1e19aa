//! Configuration space and the SR-IOV capability.
//!
//! Only the structure the reproduction needs is modeled: device identity,
//! BAR sizes for enumeration, and the SR-IOV capability that lets the
//! hypervisor enable a number of virtual functions. VF BARs are allocated as
//! one contiguous region (per the SR-IOV spec, the PF's capability holds a
//! single VF-BAR aperture that is sliced per VF).

use crate::addr::Bdf;

/// Description of one base address register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarDesc {
    /// Size of the region in bytes; must be a power of two per the spec.
    pub size: u64,
    /// Whether the region is prefetchable (unused by the model's logic, but
    /// part of the device identity).
    pub prefetchable: bool,
}

impl BarDesc {
    /// Creates a BAR description.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: u64, prefetchable: bool) -> Self {
        assert!(size.is_power_of_two(), "BAR size must be a power of two");
        BarDesc { size, prefetchable }
    }
}

/// The Single-Root I/O Virtualization capability of a physical function.
///
/// # Example
///
/// ```
/// use nesc_pcie::{SriovCapability, Bdf};
/// let mut cap = SriovCapability::new(64, 1, 1, 4096);
/// cap.enable(8).unwrap();
/// let pf = Bdf::new(3, 0, 0);
/// assert_eq!(cap.vf_bdf(pf, 0).to_string(), "03:00.1");
/// assert_eq!(cap.vf_bdf(pf, 7).to_string(), "03:01.0");
/// ```
#[derive(Debug, Clone)]
pub struct SriovCapability {
    total_vfs: u16,
    num_vfs: u16,
    first_vf_offset: u16,
    vf_stride: u16,
    vf_bar_size: u64,
}

/// Error enabling virtual functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SriovError {
    /// Requested more VFs than the device supports.
    TooManyVfs {
        /// Number requested.
        requested: u16,
        /// Device capability maximum.
        supported: u16,
    },
}

impl std::fmt::Display for SriovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SriovError::TooManyVfs {
                requested,
                supported,
            } => write!(
                f,
                "requested {requested} virtual functions but device supports {supported}"
            ),
        }
    }
}

impl std::error::Error for SriovError {}

impl SriovCapability {
    /// Creates a capability supporting up to `total_vfs` virtual functions.
    ///
    /// # Panics
    ///
    /// Panics if `total_vfs` or `vf_stride` is zero, or `vf_bar_size` is not
    /// a power of two.
    pub fn new(total_vfs: u16, first_vf_offset: u16, vf_stride: u16, vf_bar_size: u64) -> Self {
        assert!(total_vfs > 0, "device must support at least one VF");
        assert!(vf_stride > 0, "VF stride must be positive");
        assert!(
            vf_bar_size.is_power_of_two(),
            "VF BAR size must be a power of two"
        );
        SriovCapability {
            total_vfs,
            num_vfs: 0,
            first_vf_offset,
            vf_stride,
            vf_bar_size,
        }
    }

    /// Maximum virtual functions the hardware supports.
    pub fn total_vfs(&self) -> u16 {
        self.total_vfs
    }

    /// Currently enabled virtual functions.
    pub fn num_vfs(&self) -> u16 {
        self.num_vfs
    }

    /// Size of each VF's BAR slice.
    pub fn vf_bar_size(&self) -> u64 {
        self.vf_bar_size
    }

    /// Enables `n` virtual functions.
    ///
    /// # Errors
    ///
    /// Returns [`SriovError::TooManyVfs`] if `n` exceeds the capability.
    pub fn enable(&mut self, n: u16) -> Result<(), SriovError> {
        if n > self.total_vfs {
            return Err(SriovError::TooManyVfs {
                requested: n,
                supported: self.total_vfs,
            });
        }
        self.num_vfs = n;
        Ok(())
    }

    /// Disables all virtual functions.
    pub fn disable(&mut self) {
        self.num_vfs = 0;
    }

    /// The PCIe address of VF `index` for a PF at `pf`. An out-of-range
    /// index (a contract violation) is clamped to the last VF.
    pub fn vf_bdf(&self, pf: Bdf, index: u16) -> Bdf {
        debug_assert!(index < self.total_vfs, "VF index out of range");
        let index = index.min(self.total_vfs.saturating_sub(1));
        pf.offset_by(self.first_vf_offset + index * self.vf_stride)
    }
}

/// A function's configuration space, as visible to enumeration software.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    /// PCI vendor ID.
    pub vendor_id: u16,
    /// PCI device ID.
    pub device_id: u16,
    /// Class code (0x01 = mass storage).
    pub class_code: u8,
    /// Base address registers exposed by the function.
    pub bars: Vec<BarDesc>,
    /// SR-IOV capability, present on self-virtualizing physical functions.
    pub sriov: Option<SriovCapability>,
}

impl ConfigSpace {
    /// A NeSC physical function: one 128 KiB register BAR (the prototype
    /// uses a single SRAM array of 2 KiB of control registers per function,
    /// 64 VFs + PF — paper §V), SR-IOV with 64 VFs.
    pub fn nesc_pf() -> Self {
        ConfigSpace {
            vendor_id: 0x1D0F,
            device_id: 0x6E5C, // "NeSC"
            class_code: 0x01,
            bars: vec![BarDesc::new(128 * 1024, false)],
            sriov: Some(SriovCapability::new(64, 1, 1, 4096)),
        }
    }

    /// A conventional (non-self-virtualizing) storage controller.
    pub fn plain_storage() -> Self {
        ConfigSpace {
            vendor_id: 0x1D0F,
            device_id: 0x0D15,
            class_code: 0x01,
            bars: vec![BarDesc::new(16 * 1024, false)],
            sriov: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_within_capability() {
        let mut cap = SriovCapability::new(64, 1, 1, 4096);
        assert!(cap.enable(64).is_ok());
        assert_eq!(cap.num_vfs(), 64);
        cap.disable();
        assert_eq!(cap.num_vfs(), 0);
    }

    #[test]
    fn capability_reports_its_geometry_whatever_is_enabled() {
        let mut cap = SriovCapability::new(16, 1, 1, 8192);
        assert_eq!((cap.total_vfs(), cap.vf_bar_size()), (16, 8192));
        cap.enable(3).unwrap();
        assert!(cap.enable(17).is_err());
        assert_eq!(cap.num_vfs(), 3, "a refused enable keeps the old count");
        assert_eq!((cap.total_vfs(), cap.vf_bar_size()), (16, 8192));
    }

    #[test]
    fn enable_beyond_capability_fails() {
        let mut cap = SriovCapability::new(8, 1, 1, 4096);
        let err = cap.enable(9).unwrap_err();
        assert_eq!(
            err,
            SriovError::TooManyVfs {
                requested: 9,
                supported: 8
            }
        );
        assert!(err.to_string().contains("9"));
    }

    #[test]
    fn vf_bdfs_are_distinct() {
        let cap = SriovCapability::new(64, 1, 1, 4096);
        let pf = Bdf::new(3, 0, 0);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            assert!(seen.insert(cap.vf_bdf(pf, i)));
        }
        assert!(!seen.contains(&pf), "no VF aliases the PF");
    }

    #[test]
    fn stride_spreads_addresses() {
        let cap = SriovCapability::new(4, 4, 2, 4096);
        let pf = Bdf::new(0, 0, 0);
        assert_eq!(cap.vf_bdf(pf, 0).routing_id(), 4);
        assert_eq!(cap.vf_bdf(pf, 1).routing_id(), 6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bar_size_must_be_pow2() {
        BarDesc::new(3000, false);
    }

    #[test]
    fn canned_config_spaces() {
        let pf = ConfigSpace::nesc_pf();
        assert!(pf.sriov.is_some());
        assert_eq!(pf.class_code, 0x01);
        assert!(ConfigSpace::plain_storage().sriov.is_none());
    }
}
