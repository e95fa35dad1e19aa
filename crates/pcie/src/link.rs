//! Transaction-level PCIe link timing.
//!
//! Transfers are segmented into TLPs of at most `max_payload` bytes, each
//! carrying a fixed header, and serialized over the link's effective
//! bandwidth. Non-posted requests (DMA reads, MMIO reads) additionally pay a
//! round-trip latency; posted writes pay a one-way propagation delay.
//!
//! The NeSC prototype used PCIe **gen2 x8** (the Virtex-7 on the VC707 does
//! not support gen3), which caps it around 3.2 GB/s effective — the paper
//! notes its ~1 GB/s prototype is limited by the academic DMA engine rather
//! than the link. Both the link and DMA-engine ceilings are modeled.

use nesc_sim::{ServiceUnit, SimDuration, SimTime};

/// PCIe signalling generation; determines per-lane effective bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkGeneration {
    /// 2.5 GT/s, 8b/10b encoding → 250 MB/s per lane.
    Gen1,
    /// 5 GT/s, 8b/10b encoding → 500 MB/s per lane (the NeSC prototype).
    Gen2,
    /// 8 GT/s, 128b/130b encoding → ~985 MB/s per lane.
    Gen3,
}

impl LinkGeneration {
    /// Effective data bandwidth of one lane, in bytes per second.
    pub fn lane_bytes_per_sec(self) -> u64 {
        match self {
            LinkGeneration::Gen1 => 250_000_000,
            LinkGeneration::Gen2 => 500_000_000,
            LinkGeneration::Gen3 => 984_600_000,
        }
    }
}

/// Physical and protocol parameters of a link.
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// Signalling generation.
    pub generation: LinkGeneration,
    /// Number of lanes (x1/x4/x8/x16).
    pub lanes: u32,
    /// Maximum TLP payload in bytes (256 is the common configured value).
    pub max_payload: u64,
    /// TLP header + framing overhead in bytes (3-4 DW header + framing).
    pub tlp_header_bytes: u64,
    /// Fixed per-TLP processing time in the end-points.
    pub per_tlp_processing: SimDuration,
    /// One-way propagation + root-complex forwarding delay (posted writes).
    pub posted_latency: SimDuration,
    /// Request→completion round-trip latency for non-posted reads, on top of
    /// wire occupancy (root complex + host memory controller).
    pub read_round_trip: SimDuration,
}

impl LinkParams {
    /// The NeSC prototype's link: PCIe gen2 x8.
    pub fn gen2_x8() -> Self {
        LinkParams {
            generation: LinkGeneration::Gen2,
            lanes: 8,
            max_payload: 256,
            tlp_header_bytes: 26,
            per_tlp_processing: SimDuration::from_nanos(10),
            posted_latency: SimDuration::from_nanos(200),
            read_round_trip: SimDuration::from_nanos(600),
        }
    }

    /// A modern link: PCIe gen3 x8 (what a commercial NeSC would use).
    pub fn gen3_x8() -> Self {
        LinkParams {
            generation: LinkGeneration::Gen3,
            lanes: 8,
            max_payload: 256,
            tlp_header_bytes: 26,
            per_tlp_processing: SimDuration::from_nanos(8),
            posted_latency: SimDuration::from_nanos(150),
            read_round_trip: SimDuration::from_nanos(450),
        }
    }

    /// Effective link bandwidth in bytes per second.
    pub fn bandwidth(&self) -> u64 {
        self.generation.lane_bytes_per_sec() * self.lanes as u64
    }

    /// Number of TLPs needed for a payload of `bytes` (at least one, for
    /// zero-length control messages).
    pub fn tlp_count(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.max_payload).max(1)
    }

    /// Wire occupancy of a transfer of `bytes`: payload + headers at link
    /// bandwidth, plus per-TLP processing.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        let tlps = self.tlp_count(bytes);
        let wire_bytes = bytes + tlps * self.tlp_header_bytes;
        SimDuration::for_bytes(wire_bytes, self.bandwidth()) + self.per_tlp_processing * tlps
    }
}

/// Timing of one DMA transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTiming {
    /// When the link started carrying this transaction.
    pub start: SimTime,
    /// When the last TLP left the wire (link free again).
    pub wire_end: SimTime,
    /// When the initiator observes completion (includes latency).
    pub complete: SimTime,
}

impl DmaTiming {
    /// Total initiator-observed latency measured from `issued`.
    pub fn latency_since(&self, issued: SimTime) -> SimDuration {
        self.complete.saturating_since(issued)
    }
}

/// A full-duplex PCIe link modeled as two independent half-links (one per
/// direction), each a FIFO timeline.
///
/// Directions are named from the device's point of view: *upstream* carries
/// device→host traffic (DMA writes to host memory, read completions toward
/// the device share the downstream path of the host... see method docs),
/// *downstream* carries host→device traffic.
///
/// # Example
///
/// ```
/// use nesc_pcie::{PcieLink, LinkParams};
/// use nesc_sim::SimTime;
///
/// let mut link = PcieLink::new(LinkParams::gen2_x8());
/// // Device DMA-writes 4 KiB of results into host memory:
/// let t = link.dma_write(SimTime::ZERO, 4096);
/// assert!(t.complete > t.start);
/// // Effective gen2 x8 bandwidth is 4 GB/s, so 4 KiB ≈ 1.1 us of wire time
/// // with header overhead; sanity-check the order of magnitude:
/// assert!(t.wire_end.as_nanos() > 1_000 && t.wire_end.as_nanos() < 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct PcieLink {
    params: LinkParams,
    upstream: ServiceUnit,
    downstream: ServiceUnit,
}

impl PcieLink {
    /// Creates an idle link with the given parameters.
    pub fn new(params: LinkParams) -> Self {
        PcieLink {
            params,
            upstream: ServiceUnit::new(),
            downstream: ServiceUnit::new(),
        }
    }

    /// Link parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Device writes `bytes` into host memory (posted, upstream direction).
    pub fn dma_write(&mut self, now: SimTime, bytes: u64) -> DmaTiming {
        let dur = self.params.wire_time(bytes);
        let svc = self.upstream.serve(now, dur);
        DmaTiming {
            start: svc.start,
            wire_end: svc.end,
            complete: svc.end + self.params.posted_latency,
        }
    }

    /// Device reads `bytes` from host memory (non-posted): a small request
    /// TLP upstream, then completion TLPs with data downstream, plus the
    /// root-complex round trip.
    pub fn dma_read(&mut self, now: SimTime, bytes: u64) -> DmaTiming {
        // Request TLP occupies the upstream direction briefly.
        let req = self.upstream.serve(
            now,
            self.params.wire_time(0).min(SimDuration::from_nanos(100)),
        );
        // Completions with data occupy the downstream direction after the
        // request has reached the host and memory has responded.
        let data_ready = req.end + self.params.read_round_trip;
        let cpl = self
            .downstream
            .serve(data_ready, self.params.wire_time(bytes));
        DmaTiming {
            start: req.start,
            wire_end: cpl.end,
            complete: cpl.end,
        }
    }

    /// Serves a run of equal-size DMA writes in arrival order: `times[j]`
    /// is the `j`-th issue time on entry and the initiator-observed
    /// completion time on return. Identical to one [`dma_write`] per
    /// element (the wire time is computed once for the run).
    ///
    /// [`dma_write`]: PcieLink::dma_write
    pub fn dma_write_run(&mut self, bytes_each: u64, times: &mut [SimTime]) {
        let dur = self.params.wire_time(bytes_each);
        self.upstream.serve_run(dur, times);
        for t in times.iter_mut() {
            *t += self.params.posted_latency;
        }
    }

    /// Serves a run of equal-size DMA reads in arrival order: `times[j]` is
    /// the `j`-th issue time on entry and the completion-observed time on
    /// return. Identical to one [`dma_read`] per element: all request TLPs
    /// are serialized upstream, then all completions downstream — the same
    /// interleaving a per-element loop produces, because the downstream
    /// timeline never feeds back into the upstream one.
    ///
    /// [`dma_read`]: PcieLink::dma_read
    pub fn dma_read_run(&mut self, bytes_each: u64, times: &mut [SimTime]) {
        let req_dur = self.params.wire_time(0).min(SimDuration::from_nanos(100));
        self.upstream.serve_run(req_dur, times);
        for t in times.iter_mut() {
            *t += self.params.read_round_trip;
        }
        self.downstream
            .serve_run(self.params.wire_time(bytes_each), times);
    }

    /// Host CPU writes a small register on the device (posted MMIO write,
    /// e.g. ringing a doorbell). Returns when the write lands at the device.
    pub fn mmio_write(&mut self, now: SimTime) -> SimTime {
        let svc = self.downstream.serve(now, self.params.wire_time(4));
        svc.end + self.params.posted_latency
    }

    /// Host CPU reads a small device register (non-posted, stalls the CPU
    /// for a full round trip). Returns when the value is back at the CPU.
    pub fn mmio_read(&mut self, now: SimTime) -> SimTime {
        let req = self.downstream.serve(now, self.params.wire_time(0));
        let cpl = self.upstream.serve(
            req.end + self.params.read_round_trip,
            self.params.wire_time(4),
        );
        cpl.end
    }

    /// Time the upstream (device→host) direction has spent busy.
    pub fn upstream_busy(&self) -> SimDuration {
        self.upstream.busy_time()
    }

    /// Time the downstream (host→device) direction has spent busy.
    pub fn downstream_busy(&self) -> SimDuration {
        self.downstream.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_x8_bandwidth() {
        assert_eq!(LinkParams::gen2_x8().bandwidth(), 4_000_000_000);
    }

    #[test]
    fn tlp_segmentation() {
        let p = LinkParams::gen2_x8();
        assert_eq!(p.tlp_count(0), 1);
        assert_eq!(p.tlp_count(256), 1);
        assert_eq!(p.tlp_count(257), 2);
        assert_eq!(p.tlp_count(4096), 16);
    }

    #[test]
    fn wire_time_scales_with_size() {
        let p = LinkParams::gen2_x8();
        let t1 = p.wire_time(1024);
        let t4 = p.wire_time(4096);
        assert!(t4 > t1 * 3 && t4 < t1 * 5);
    }

    #[test]
    fn dma_read_slower_than_write() {
        let mut link = PcieLink::new(LinkParams::gen2_x8());
        let w = link.dma_write(SimTime::ZERO, 1024);
        let mut link2 = PcieLink::new(LinkParams::gen2_x8());
        let r = link2.dma_read(SimTime::ZERO, 1024);
        assert!(
            r.latency_since(SimTime::ZERO) > w.latency_since(SimTime::ZERO),
            "reads pay a round trip"
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut link = PcieLink::new(LinkParams::gen2_x8());
        // Saturate upstream with a big DMA write...
        let w = link.dma_write(SimTime::ZERO, 1 << 20);
        // ...an MMIO write (downstream) is not delayed behind it.
        let mmio_done = link.mmio_write(SimTime::ZERO);
        assert!(mmio_done < w.wire_end);
    }

    #[test]
    fn back_to_back_writes_serialize() {
        let mut link = PcieLink::new(LinkParams::gen2_x8());
        let a = link.dma_write(SimTime::ZERO, 4096);
        let b = link.dma_write(SimTime::ZERO, 4096);
        assert_eq!(b.start, a.wire_end);
    }

    #[test]
    fn gen3_faster_than_gen2() {
        let mut g2 = PcieLink::new(LinkParams::gen2_x8());
        let mut g3 = PcieLink::new(LinkParams::gen3_x8());
        let t2 = g2.dma_write(SimTime::ZERO, 1 << 20);
        let t3 = g3.dma_write(SimTime::ZERO, 1 << 20);
        assert!(t3.wire_end < t2.wire_end);
    }

    #[test]
    fn busy_accounting_tracks_both_directions() {
        let mut link = PcieLink::new(LinkParams::gen2_x8());
        assert_eq!(link.upstream_busy(), SimDuration::ZERO);
        assert_eq!(link.downstream_busy(), SimDuration::ZERO);
        link.dma_write(SimTime::ZERO, 4096); // upstream
        let up = link.upstream_busy();
        assert!(up > SimDuration::ZERO);
        link.dma_read(SimTime::ZERO, 4096); // request up, data down
        assert!(link.downstream_busy() > SimDuration::ZERO);
        assert!(link.upstream_busy() > up, "read request occupies upstream");
    }

    #[test]
    fn saturated_link_throughput_matches_bandwidth() {
        // 100 x 64 KiB back-to-back writes: effective throughput within a
        // few percent of the 4 GB/s gen2 x8 budget (headers cost ~10%).
        let mut link = PcieLink::new(LinkParams::gen2_x8());
        let mut end = SimTime::ZERO;
        for _ in 0..100 {
            end = link.dma_write(end, 64 * 1024).wire_end;
        }
        let mbps = (100u64 * 64 * 1024) as f64 / 1e6 / end.as_secs_f64();
        assert!(
            (3000.0..4000.0).contains(&mbps),
            "throughput {mbps:.0} MB/s"
        );
    }

    #[test]
    fn mmio_read_round_trip_exceeds_write() {
        let mut link = PcieLink::new(LinkParams::gen2_x8());
        let w = link.mmio_write(SimTime::ZERO);
        let mut link2 = PcieLink::new(LinkParams::gen2_x8());
        let r = link2.mmio_read(SimTime::ZERO);
        assert!(r > w);
    }
}
