//! Interconnect enumeration and MMIO routing.
//!
//! At boot, firmware scans the bus, sizes each function's BARs and assigns
//! them disjoint ranges of the host's logical address space (paper §V:
//! "BARs ... are mapped to the system's logical address space when the PCIe
//! interconnect is scanned"). The hypervisor can then map a VF's BAR
//! directly into a guest's address space.
//!
//! [`Interconnect`] reproduces exactly that: devices register their config
//! spaces, [`Interconnect::enumerate`] assigns addresses (including slicing
//! the SR-IOV VF aperture into per-VF BARs), and [`Interconnect::route`]
//! answers which function an MMIO address belongs to — the mechanism by
//! which a NeSC request is *unforgeably* attributed to the VF it was sent
//! to.

use crate::addr::Bdf;
use crate::config::ConfigSpace;

/// Result of routing an MMIO address: which function's BAR it hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmioRoute {
    /// The function that owns the address.
    pub bdf: Bdf,
    /// Which BAR of the function (VF BAR slices are BAR 0 of the VF).
    pub bar: usize,
    /// Byte offset within the BAR.
    pub offset: u64,
}

#[derive(Debug, Clone)]
struct Window {
    base: u64,
    size: u64,
    bdf: Bdf,
    bar: usize,
}

/// The PCIe interconnect: registered devices and (after enumeration) the
/// address windows of every physical and virtual function.
///
/// # Example
///
/// ```
/// use nesc_pcie::{Interconnect, ConfigSpace, Bdf};
///
/// let mut ic = Interconnect::new();
/// let pf = Bdf::new(3, 0, 0);
/// let mut cfg = ConfigSpace::nesc_pf();
/// cfg.sriov.as_mut().unwrap().enable(4).unwrap();
/// ic.attach(pf, cfg);
/// ic.enumerate();
///
/// // The PF and each enabled VF got a BAR window:
/// let pf_bar = ic.bar_base(pf, 0).unwrap();
/// let vf0 = ic.functions().iter().copied().find(|&b| b != pf).unwrap();
/// let vf0_bar = ic.bar_base(vf0, 0).unwrap();
/// assert_ne!(pf_bar, vf0_bar);
/// let hit = ic.route(vf0_bar + 16).unwrap();
/// assert_eq!(hit.bdf, vf0);
/// assert_eq!(hit.offset, 16);
/// ```
#[derive(Debug, Default)]
pub struct Interconnect {
    devices: Vec<(Bdf, ConfigSpace)>,
    windows: Vec<Window>,
    enumerated: bool,
}

/// Base of the MMIO aperture used for BAR assignment (a typical PC layout
/// puts 32-bit BARs just below 4 GiB).
const MMIO_BASE: u64 = 0xE000_0000;

impl Interconnect {
    /// Creates an empty interconnect.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a device function at the given address. Attaching after
    /// enumeration or at an occupied BDF (contract violations — hotplug
    /// is modeled at the VF layer, not here) is ignored.
    pub fn attach(&mut self, bdf: Bdf, config: ConfigSpace) {
        debug_assert!(!self.enumerated, "cannot attach after enumeration");
        let duplicate = self.devices.iter().any(|(b, _)| *b == bdf);
        debug_assert!(!duplicate, "duplicate BDF {bdf}");
        if self.enumerated || duplicate {
            return;
        }
        self.devices.push((bdf, config));
    }

    /// Scans the bus: assigns every PF BAR and every enabled VF BAR a
    /// disjoint, naturally-aligned window.
    pub fn enumerate(&mut self) {
        let mut cursor = MMIO_BASE;
        let mut alloc = |size: u64| {
            let base = (cursor + size - 1) & !(size - 1);
            cursor = base + size;
            base
        };
        self.windows.clear();
        for (bdf, cfg) in &self.devices {
            for (i, bar) in cfg.bars.iter().enumerate() {
                self.windows.push(Window {
                    base: alloc(bar.size),
                    size: bar.size,
                    bdf: *bdf,
                    bar: i,
                });
            }
            if let Some(sriov) = &cfg.sriov {
                // The VF aperture is one contiguous region sliced per VF.
                let n = sriov.num_vfs() as u64;
                if n > 0 {
                    let slice = sriov.vf_bar_size();
                    let aperture = alloc(slice * n.next_power_of_two());
                    for v in 0..n {
                        self.windows.push(Window {
                            base: aperture + v * slice,
                            size: slice,
                            bdf: sriov.vf_bdf(*bdf, v as u16),
                            bar: 0,
                        });
                    }
                }
            }
        }
        self.enumerated = true;
    }

    /// All functions visible after enumeration (PFs and enabled VFs).
    pub fn functions(&self) -> Vec<Bdf> {
        let mut v: Vec<Bdf> = self.windows.iter().map(|w| w.bdf).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The assigned base address of `bar` of function `bdf`, if enumerated.
    pub fn bar_base(&self, bdf: Bdf, bar: usize) -> Option<u64> {
        self.windows
            .iter()
            .find(|w| w.bdf == bdf && w.bar == bar)
            .map(|w| w.base)
    }

    /// Routes a host logical address to the function window containing it.
    pub fn route(&self, addr: u64) -> Option<MmioRoute> {
        self.windows
            .iter()
            .find(|w| addr >= w.base && addr < w.base + w.size)
            .map(|w| MmioRoute {
                bdf: w.bdf,
                bar: w.bar,
                offset: addr - w.base,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BarDesc;

    fn nesc_with_vfs(n: u16) -> Interconnect {
        let mut ic = Interconnect::new();
        let mut cfg = ConfigSpace::nesc_pf();
        cfg.sriov.as_mut().unwrap().enable(n).unwrap();
        ic.attach(Bdf::new(3, 0, 0), cfg);
        ic.enumerate();
        ic
    }

    #[test]
    fn enumeration_assigns_disjoint_windows() {
        let ic = nesc_with_vfs(64);
        let mut ranges: Vec<(u64, u64)> = ic
            .windows
            .iter()
            .map(|w| (w.base, w.base + w.size))
            .collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "windows overlap: {pair:?}");
        }
        assert_eq!(ic.functions().len(), 65); // PF + 64 VFs
    }

    #[test]
    fn routing_hits_the_right_function() {
        let ic = nesc_with_vfs(2);
        for f in ic.functions() {
            let base = ic.bar_base(f, 0).unwrap();
            let hit = ic.route(base + 100).unwrap();
            assert_eq!(hit.bdf, f);
            assert_eq!(hit.offset, 100);
        }
    }

    #[test]
    fn unmapped_address_routes_nowhere() {
        let ic = nesc_with_vfs(1);
        assert!(ic.route(0x1000).is_none());
        assert!(ic.route(u64::MAX).is_none());
    }

    #[test]
    fn multiple_devices_coexist() {
        let mut ic = Interconnect::new();
        ic.attach(Bdf::new(3, 0, 0), ConfigSpace::nesc_pf());
        ic.attach(Bdf::new(4, 0, 0), ConfigSpace::plain_storage());
        ic.enumerate();
        assert!(ic.bar_base(Bdf::new(3, 0, 0), 0).is_some());
        assert!(ic.bar_base(Bdf::new(4, 0, 0), 0).is_some());
    }

    #[test]
    fn bars_are_naturally_aligned() {
        let mut ic = Interconnect::new();
        let cfg = ConfigSpace {
            vendor_id: 1,
            device_id: 1,
            class_code: 1,
            bars: vec![BarDesc::new(1 << 20, true), BarDesc::new(4096, false)],
            sriov: None,
        };
        ic.attach(Bdf::new(1, 0, 0), cfg);
        ic.enumerate();
        let b0 = ic.bar_base(Bdf::new(1, 0, 0), 0).unwrap();
        let b1 = ic.bar_base(Bdf::new(1, 0, 0), 1).unwrap();
        assert_eq!(b0 % (1 << 20), 0);
        assert_eq!(b1 % 4096, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate BDF")]
    fn duplicate_attach_panics() {
        let mut ic = Interconnect::new();
        ic.attach(Bdf::new(1, 0, 0), ConfigSpace::plain_storage());
        ic.attach(Bdf::new(1, 0, 0), ConfigSpace::plain_storage());
    }
}
