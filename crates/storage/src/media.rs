//! Media timing models.
//!
//! A media model answers one question: a transfer of `bytes` arriving at
//! `now` occupies the medium during which interval? Three models are
//! provided:
//!
//! * [`RamMedia`] — the prototype's DDR3: a fixed access latency plus a
//!   bandwidth-limited channel, optionally *throttled* to a lower target
//!   bandwidth exactly like the ramdisk throttling used for the paper's
//!   Fig. 2 device-speed sweep.
//! * [`FlashMedia`] — a multi-channel NAND model (page-granular latencies,
//!   channel striping) used by the extension studies.
//! * [`Media`] — an enum over the two so devices can hold either.

use nesc_sim::{ServiceUnit, SimDuration, SimTime};

use crate::request::BlockOp;

/// Service interval on the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaService {
    /// When the medium started the transfer.
    pub start: SimTime,
    /// When the data is on the medium (write) or in the device buffer (read).
    pub end: SimTime,
}

/// DRAM-backed medium (the VC707's 1 GB DDR3), optionally throttled.
///
/// # Example
///
/// ```
/// use nesc_storage::{RamMedia, BlockOp};
/// use nesc_sim::SimTime;
///
/// let mut ram = RamMedia::vc707_ddr3();
/// let svc = ram.access(SimTime::ZERO, BlockOp::Read, 0, 4096);
/// assert!(svc.end > svc.start);
///
/// // Fig. 2 style throttling to 500 MB/s:
/// ram.set_throttle(Some(500_000_000));
/// let slow = ram.access(svc.end, BlockOp::Read, 0, 4096);
/// assert!((slow.end - slow.start) > (svc.end - svc.start));
/// ```
#[derive(Debug, Clone)]
pub struct RamMedia {
    access_latency: SimDuration,
    peak_bytes_per_sec: u64,
    throttle_bytes_per_sec: Option<u64>,
    channel: ServiceUnit,
}

impl RamMedia {
    /// Creates a DRAM medium. A zero bandwidth (a contract violation) is
    /// treated as 1 B/s.
    pub fn new(access_latency: SimDuration, peak_bytes_per_sec: u64) -> Self {
        debug_assert!(peak_bytes_per_sec > 0, "bandwidth must be positive");
        RamMedia {
            access_latency,
            peak_bytes_per_sec: peak_bytes_per_sec.max(1),
            throttle_bytes_per_sec: None,
            channel: ServiceUnit::new(),
        }
    }

    /// The prototype's medium: DDR3-800 on the VC707 (~6.4 GB/s peak,
    /// ~60 ns access).
    pub fn vc707_ddr3() -> Self {
        RamMedia::new(SimDuration::from_nanos(60), 6_400_000_000)
    }

    /// Sets (or clears) a bandwidth throttle in bytes/second, emulating a
    /// device of that speed — the method behind the paper's Fig. 2. A zero
    /// throttle (a contract violation) is treated as 1 B/s.
    pub fn set_throttle(&mut self, bytes_per_sec: Option<u64>) {
        debug_assert!(
            bytes_per_sec.is_none_or(|b| b > 0),
            "throttle bandwidth must be positive"
        );
        self.throttle_bytes_per_sec = bytes_per_sec.map(|b| b.max(1));
    }

    /// The effective bandwidth after throttling.
    pub fn effective_bandwidth(&self) -> u64 {
        match self.throttle_bytes_per_sec {
            Some(t) => t.min(self.peak_bytes_per_sec),
            None => self.peak_bytes_per_sec,
        }
    }

    /// Serves a transfer of `bytes` at byte address `addr` (DRAM has no
    /// locality structure, so the address is ignored); reads and writes
    /// cost the same.
    pub fn access(&mut self, now: SimTime, _op: BlockOp, _addr: u64, bytes: u64) -> MediaService {
        let dur = self.access_latency + SimDuration::for_bytes(bytes, self.effective_bandwidth());
        let svc = self.channel.serve(now, dur);
        MediaService {
            start: svc.start,
            end: svc.end,
        }
    }

    /// Serves a run of equal-size transfers in arrival order: `times[j]` is
    /// the `j`-th arrival time on entry and its completion time on return.
    /// Identical to calling [`access`] per element (DRAM timing depends on
    /// neither op nor address, so the duration is computed once).
    ///
    /// [`access`]: RamMedia::access
    pub fn access_run(&mut self, _op: BlockOp, bytes_each: u64, times: &mut [SimTime]) {
        let dur =
            self.access_latency + SimDuration::for_bytes(bytes_each, self.effective_bandwidth());
        self.channel.serve_run(dur, times);
    }

    /// Cumulative busy time of the medium.
    pub fn busy_time(&self) -> SimDuration {
        self.channel.busy_time()
    }
}

/// Multi-channel NAND flash medium.
///
/// Transfers are striped over channels at page granularity; each page pays
/// the array read/program latency on its channel, plus transfer time on the
/// channel bus. This is intentionally first-order (no FTL, no GC): the
/// extension studies only need a medium with flash-like asymmetry and
/// internal parallelism.
#[derive(Debug, Clone)]
pub struct FlashMedia {
    page_bytes: u64,
    read_latency: SimDuration,
    program_latency: SimDuration,
    channel_bytes_per_sec: u64,
    channels: Vec<ServiceUnit>,
    /// Recently buffered page ids (controller page buffers): sub-page
    /// accesses to a buffered page skip the array latency. FIFO.
    page_buffer: std::collections::VecDeque<u64>,
    page_buffer_entries: usize,
}

impl FlashMedia {
    /// Creates a flash medium with `channels` independent channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero, `page_bytes` is zero, or the channel
    /// bandwidth is zero.
    pub fn new(
        channels: usize,
        page_bytes: u64,
        read_latency: SimDuration,
        program_latency: SimDuration,
        channel_bytes_per_sec: u64,
    ) -> Self {
        assert!(channels > 0, "flash needs at least one channel");
        assert!(page_bytes > 0, "page size must be positive");
        assert!(
            channel_bytes_per_sec > 0,
            "channel bandwidth must be positive"
        );
        FlashMedia {
            page_bytes,
            read_latency,
            program_latency,
            channel_bytes_per_sec,
            channels: vec![ServiceUnit::new(); channels],
            page_buffer: std::collections::VecDeque::new(),
            page_buffer_entries: 2 * channels,
        }
    }

    /// A multi-GB/s PCIe SSD in the spirit of the devices the paper cites
    /// (refs \[6\], \[7\]): 16 channels, 4 KiB pages, 25 µs read / 200 µs program,
    /// 800 MB/s per channel — roughly a 2 GB/s-class enterprise drive.
    pub fn pcie_ssd() -> Self {
        FlashMedia::new(
            16,
            4096,
            SimDuration::from_micros(25),
            SimDuration::from_micros(200),
            800_000_000,
        )
    }

    /// Cumulative busy time summed over all channels.
    pub fn busy_time(&self) -> SimDuration {
        self.channels.iter().map(|c| c.busy_time()).sum()
    }

    /// Serves a transfer of `bytes` at byte address `addr`, striping pages
    /// across channels by address; the returned interval ends when the
    /// *last* page completes. Sub-page accesses that hit the controller's
    /// page buffer skip the array latency (how real SSDs serve a run of
    /// 1 KiB blocks out of one 4 KiB page read).
    pub fn access(&mut self, now: SimTime, op: BlockOp, addr: u64, bytes: u64) -> MediaService {
        let array_latency = match op {
            BlockOp::Read => self.read_latency,
            BlockOp::Write => self.program_latency,
        };
        let first_page = addr / self.page_bytes;
        let last_page = (addr + bytes.max(1) - 1) / self.page_bytes;
        let mut first_start = SimTime::MAX;
        let mut last_end = SimTime::ZERO;
        for page in first_page..=last_page {
            let ch = (page % self.channels.len() as u64) as usize;
            let transfer = SimDuration::for_bytes(self.page_bytes, self.channel_bytes_per_sec);
            let buffered = self.page_buffer.contains(&page);
            let dur = if buffered {
                transfer
            } else {
                array_latency + transfer
            };
            if !buffered {
                if self.page_buffer.len() == self.page_buffer_entries {
                    self.page_buffer.pop_front();
                }
                self.page_buffer.push_back(page);
            }
            let svc = self.channels[ch].serve(now, dur);
            first_start = first_start.min(svc.start);
            last_end = last_end.max(svc.end);
        }
        MediaService {
            start: first_start,
            end: last_end,
        }
    }
}

/// Any supported medium.
#[derive(Debug, Clone)]
pub enum Media {
    /// DRAM (optionally throttled).
    Ram(RamMedia),
    /// Multi-channel NAND flash.
    Flash(FlashMedia),
}

impl Media {
    /// Serves a transfer of `bytes` at byte address `addr`.
    pub fn access(&mut self, now: SimTime, op: BlockOp, addr: u64, bytes: u64) -> MediaService {
        match self {
            Media::Ram(m) => m.access(now, op, addr, bytes),
            Media::Flash(m) => m.access(now, op, addr, bytes),
        }
    }

    /// Serves a run of equal-size transfers at consecutive addresses
    /// (`addr + j * addr_stride`): `times[j]` is the `j`-th arrival time on
    /// entry and its completion time on return. Exactly equivalent to one
    /// [`access`] per element in the same order — DRAM takes a batched fast
    /// path (its timing is address-independent), flash replays the per-page
    /// state machine element by element.
    ///
    /// [`access`]: Media::access
    pub fn access_run(
        &mut self,
        op: BlockOp,
        addr: u64,
        addr_stride: u64,
        bytes_each: u64,
        times: &mut [SimTime],
    ) {
        match self {
            Media::Ram(m) => m.access_run(op, bytes_each, times),
            Media::Flash(m) => {
                for (j, t) in times.iter_mut().enumerate() {
                    *t = m
                        .access(*t, op, addr + j as u64 * addr_stride, bytes_each)
                        .end;
                }
            }
        }
    }

    /// Sets the Fig. 2-style throttle; no-op on flash.
    pub fn set_throttle(&mut self, bytes_per_sec: Option<u64>) {
        if let Media::Ram(m) = self {
            m.set_throttle(bytes_per_sec);
        }
    }

    /// Cumulative busy time of the medium (summed over channels for
    /// flash) — the raw value behind the perfmon media-utilization probe.
    pub fn busy_time(&self) -> SimDuration {
        match self {
            Media::Ram(m) => m.busy_time(),
            Media::Flash(m) => m.busy_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_bandwidth_dominates_large_transfers() {
        let mut ram = RamMedia::new(SimDuration::from_nanos(60), 1_000_000_000);
        let svc = ram.access(SimTime::ZERO, BlockOp::Read, 0, 1_000_000);
        // ~1 ms of transfer + 60 ns latency.
        let dur = (svc.end - svc.start).as_nanos();
        assert!((1_000_000..1_001_000).contains(&dur), "dur {dur}");
    }

    #[test]
    fn throttle_caps_at_peak() {
        let mut ram = RamMedia::new(SimDuration::ZERO, 1_000_000_000);
        ram.set_throttle(Some(5_000_000_000)); // above peak: peak wins
        assert_eq!(ram.effective_bandwidth(), 1_000_000_000);
        ram.set_throttle(Some(100_000_000));
        assert_eq!(ram.effective_bandwidth(), 100_000_000);
        ram.set_throttle(None);
        assert_eq!(ram.effective_bandwidth(), 1_000_000_000);
    }

    #[test]
    fn ram_serializes_accesses() {
        let mut ram = RamMedia::new(SimDuration::from_nanos(100), 1_000_000_000);
        let a = ram.access(SimTime::ZERO, BlockOp::Write, 0, 1000);
        let b = ram.access(SimTime::ZERO, BlockOp::Write, 0, 1000);
        assert_eq!(b.start, a.end);
        assert_eq!(ram.busy_time().as_nanos(), 2 * 1100);
    }

    #[test]
    fn flash_write_slower_than_read() {
        let mut f1 = FlashMedia::pcie_ssd();
        let mut f2 = FlashMedia::pcie_ssd();
        let r = f1.access(SimTime::ZERO, BlockOp::Read, 1 << 20, 4096);
        let w = f2.access(SimTime::ZERO, BlockOp::Write, 1 << 20, 4096);
        assert!(w.end - w.start > r.end - r.start);
    }

    #[test]
    fn flash_stripes_across_channels() {
        let mut f = FlashMedia::new(
            4,
            4096,
            SimDuration::from_micros(60),
            SimDuration::from_micros(500),
            400_000_000,
        );
        // 4 pages across 4 channels complete in ~1 page time, not 4.
        let four_pages = f.access(SimTime::ZERO, BlockOp::Read, 0, 4 * 4096);
        let one_page_time =
            SimDuration::from_micros(60) + SimDuration::for_bytes(4096, 400_000_000);
        assert_eq!(four_pages.end - four_pages.start, one_page_time);
        // A sub-page re-read of a buffered page skips the array latency.
        let hit = f.access(four_pages.end, BlockOp::Read, 0, 1024);
        assert_eq!(
            hit.end - hit.start,
            SimDuration::for_bytes(4096, 400_000_000)
        );
    }

    #[test]
    fn flash_page_buffer_evicts_fifo() {
        // 1-channel flash with a 2-entry buffer: touching 3 distinct pages
        // evicts the first, so re-reading it pays the array latency again.
        let mut f = FlashMedia::new(
            1,
            4096,
            SimDuration::from_micros(50),
            SimDuration::from_micros(200),
            400_000_000,
        );
        let transfer = SimDuration::for_bytes(4096, 400_000_000);
        let full = SimDuration::from_micros(50) + transfer;
        let a = f.access(SimTime::ZERO, BlockOp::Read, 0, 1024);
        assert_eq!(a.end - a.start, full);
        let hit = f.access(a.end, BlockOp::Read, 512, 512);
        assert_eq!(hit.end - hit.start, transfer, "buffered page skips array");
        // Touch two more pages -> page 0 evicted.
        let b = f.access(hit.end, BlockOp::Read, 4096, 1024);
        let c = f.access(b.end, BlockOp::Read, 8192, 1024);
        let again = f.access(c.end, BlockOp::Read, 0, 1024);
        assert_eq!(again.end - again.start, full, "evicted page re-reads array");
    }

    #[test]
    fn media_enum_dispatch() {
        let mut m = Media::Ram(RamMedia::vc707_ddr3());
        let svc = m.access(SimTime::ZERO, BlockOp::Read, 0, 1024);
        assert!(svc.end > SimTime::ZERO);
        m.set_throttle(Some(1_000_000));
        let mut fl = Media::Flash(FlashMedia::pcie_ssd());
        fl.set_throttle(Some(1)); // no-op, must not panic
        let svc2 = fl.access(SimTime::ZERO, BlockOp::Write, 0, 1024);
        assert!(svc2.end > SimTime::ZERO);
    }
}
