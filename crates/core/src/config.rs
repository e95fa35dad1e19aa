//! Controller configuration.
//!
//! All timing knobs of the device model live here, with two presets:
//! [`NescConfig::prototype`] calibrated to the paper's VC707 prototype
//! (PCIe gen2 x8, DMA engine ceilings of ~800 MB/s read / ~1 GB/s write,
//! 8-entry BTLB, two overlapped block walks) and [`NescConfig::gen3`]
//! representing the commercial-device projection the paper argues for.

use nesc_pcie::LinkParams;
use nesc_sim::SimDuration;
use nesc_storage::{Media, RamMedia};

/// Static configuration of a [`NescDevice`][crate::NescDevice].
#[derive(Debug, Clone)]
pub struct NescConfig {
    /// PCIe link parameters.
    pub link: LinkParams,
    /// Storage medium timing model.
    pub media: Media,
    /// Device capacity in 1 KiB blocks (the VC707 has 1 GB of DDR3).
    pub capacity_blocks: u64,
    /// Maximum number of virtual functions (the prototype supports 64).
    pub max_vfs: u16,

    /// DMA-engine ceiling for device→host data movement (the academic
    /// prototype's engine peaks around 800 MB/s on reads).
    pub dma_read_bytes_per_sec: u64,
    /// DMA-engine ceiling for host→device data movement (~1 GB/s writes).
    pub dma_write_bytes_per_sec: u64,

    /// Multiplexer cost to dequeue one request from a client queue.
    pub mux_per_request: SimDuration,
    /// Pipeline cost to split out and enqueue one 1 KiB block.
    pub split_per_block: SimDuration,
    /// BTLB lookup time (hit path).
    pub btlb_lookup: SimDuration,
    /// Number of BTLB entries (the prototype caches the last 8 extents).
    pub btlb_entries: usize,
    /// Concurrent block walks the walk unit sustains (the prototype
    /// overlaps two translations to hide DMA latency).
    pub walk_overlap: usize,
    /// Size of one extent-tree node DMA (bytes) — one per walk level.
    pub tree_node_bytes: u64,
    /// Fixed cost to process one walked level beyond the DMA itself.
    pub walk_level_processing: SimDuration,
    /// Cost for the PF's out-of-band channel to accept one request.
    pub oob_per_request: SimDuration,
    /// Firmware cost to raise an interrupt (miss or completion MSI).
    pub interrupt_cost: SimDuration,
}

impl NescConfig {
    /// The paper's VC707 prototype.
    pub fn prototype() -> Self {
        NescConfig {
            link: LinkParams::gen2_x8(),
            media: Media::Ram(RamMedia::vc707_ddr3()),
            capacity_blocks: 1 << 20, // 1 GB at 1 KiB blocks
            max_vfs: 64,
            dma_read_bytes_per_sec: 800_000_000,
            dma_write_bytes_per_sec: 1_000_000_000,
            mux_per_request: SimDuration::from_nanos(100),
            split_per_block: SimDuration::from_nanos(20),
            btlb_lookup: SimDuration::from_nanos(10),
            btlb_entries: 8,
            walk_overlap: 2,
            tree_node_bytes: 512,
            walk_level_processing: SimDuration::from_nanos(50),
            oob_per_request: SimDuration::from_nanos(80),
            interrupt_cost: SimDuration::from_nanos(300),
        }
    }

    /// A commercial projection: PCIe gen3 x8 with a DMA engine that keeps
    /// up with the link — the configuration the paper's conclusion argues
    /// NeSC was designed for.
    pub fn gen3() -> Self {
        NescConfig {
            link: LinkParams::gen3_x8(),
            dma_read_bytes_per_sec: 6_000_000_000,
            dma_write_bytes_per_sec: 6_000_000_000,
            ..NescConfig::prototype()
        }
    }

    /// Validates internal consistency: rejects degenerate parameters
    /// (zero bandwidth, no VFs, no walk slots) at construction time, in
    /// every build. A zero would not fail later on its own: with no walk
    /// slots, for one, every walk would be charged 0 ns and a run would
    /// print timings instead of failing. The check runs once per device.
    ///
    /// # Panics
    ///
    /// Panics naming the first degenerate parameter.
    // nesc-lint::allow(P1): construction-time check of the device's
    // configuration, run once per device before any request; a
    // degenerate value must stop the run, not time it at 0 ns.
    pub fn validate(&self) {
        assert!(self.capacity_blocks > 0, "device needs capacity");
        assert!(self.max_vfs > 0, "device must support VFs");
        assert!(self.dma_read_bytes_per_sec > 0, "DMA read bandwidth");
        assert!(self.dma_write_bytes_per_sec > 0, "DMA write bandwidth");
        assert!(self.walk_overlap > 0, "walk unit needs at least one slot");
        assert!(self.tree_node_bytes > 0, "tree nodes have a size");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        NescConfig::prototype().validate();
        NescConfig::gen3().validate();
    }

    #[test]
    fn prototype_matches_paper_headline_numbers() {
        let c = NescConfig::prototype();
        assert_eq!(c.dma_read_bytes_per_sec, 800_000_000);
        assert_eq!(c.dma_write_bytes_per_sec, 1_000_000_000);
        assert_eq!(c.btlb_entries, 8);
        assert_eq!(c.walk_overlap, 2);
        assert_eq!(c.max_vfs, 64);
        assert_eq!(c.capacity_blocks * 1024, 1 << 30); // 1 GB
    }

    #[test]
    #[should_panic(expected = "walk unit")]
    fn degenerate_config_rejected() {
        let mut c = NescConfig::prototype();
        c.walk_overlap = 0;
        c.validate();
    }
}
