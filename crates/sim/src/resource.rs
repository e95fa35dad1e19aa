//! Timeline resources.
//!
//! Rather than simulating every cycle of a shared unit, the models in this
//! workspace use *timeline resources*: an object that remembers when it next
//! becomes free and answers, for work arriving at time `t`, the interval
//! `[start, end)` during which the work actually occupies the unit. This is
//! exact for FIFO-served resources and is how the reproduction models PCIe
//! links, DMA engines, storage media bandwidth, and CPU software layers.
//!
//! Two flavors are provided:
//!
//! * [`Pipe`] — bandwidth-limited: occupancy is `bytes / bandwidth` plus an
//!   optional fixed per-transfer overhead (e.g. TLP header time).
//! * [`ServiceUnit`] — duration-limited: caller supplies the service time
//!   directly (e.g. "the block-walk unit is busy for 800 ns").
//!
//! Both track cumulative busy time so harnesses can report utilization.

use crate::time::{SimDuration, SimTime};

/// Interval during which a resource serves one piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Service {
    /// When the resource started on this work (>= arrival time).
    pub start: SimTime,
    /// When the work completes and the resource frees up.
    pub end: SimTime,
}

/// A FIFO, bandwidth-limited resource (a link, a DMA engine, a disk's media
/// channel).
///
/// # Example
///
/// ```
/// use nesc_sim::{Pipe, SimTime, SimDuration};
///
/// // 1 GB/s link with 100 ns per-transfer overhead.
/// let mut link = Pipe::new(1_000_000_000, SimDuration::from_nanos(100));
/// let s1 = link.transfer(SimTime::ZERO, 4096);
/// assert_eq!(s1.start, SimTime::ZERO);
/// assert_eq!(s1.end.as_nanos(), 100 + 4096);
/// // A transfer arriving while the link is busy waits its turn.
/// let s2 = link.transfer(SimTime::from_nanos(50), 4096);
/// assert_eq!(s2.start, s1.end);
/// ```
#[derive(Debug, Clone)]
pub struct Pipe {
    bytes_per_sec: u64,
    per_transfer: SimDuration,
    free_at: SimTime,
    busy: SimDuration,
    transfers: u64,
    bytes: u64,
}

impl Pipe {
    /// Creates a pipe with the given bandwidth and fixed per-transfer
    /// overhead.
    ///
    /// A zero bandwidth (a contract violation) is treated as 1 B/s.
    pub fn new(bytes_per_sec: u64, per_transfer: SimDuration) -> Self {
        debug_assert!(bytes_per_sec > 0, "pipe bandwidth must be positive");
        Pipe {
            bytes_per_sec: bytes_per_sec.max(1),
            per_transfer,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            transfers: 0,
            bytes: 0,
        }
    }

    /// Bandwidth in bytes per second.
    pub fn bandwidth(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Serves a transfer of `bytes` arriving at `now`; returns its service
    /// interval and advances the timeline.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Service {
        let start = now.max(self.free_at);
        let dur = self.per_transfer + SimDuration::for_bytes(bytes, self.bytes_per_sec);
        let end = start + dur;
        self.free_at = end;
        self.busy += dur;
        self.transfers += 1;
        self.bytes += bytes;
        Service { start, end }
    }

    /// Serves a run of equal-size transfers in arrival order: `times[j]` is
    /// the `j`-th arrival time on entry and its completion time on return.
    ///
    /// Exactly equivalent to calling [`transfer`] once per element (the
    /// per-transfer duration is just computed once instead of per call),
    /// which is what makes it safe on the simulated-timing-critical path.
    ///
    /// [`transfer`]: Pipe::transfer
    pub fn transfer_run(&mut self, bytes_each: u64, times: &mut [SimTime]) {
        let dur = self.per_transfer + SimDuration::for_bytes(bytes_each, self.bytes_per_sec);
        let n = times.len() as u64;
        let mut free = self.free_at;
        for t in times.iter_mut() {
            let start = (*t).max(free);
            free = start + dur;
            *t = free;
        }
        self.free_at = free;
        self.busy += dur * n;
        self.transfers += n;
        self.bytes += bytes_each * n;
    }

    /// When the pipe next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time spent transferring since construction or [`reset`].
    ///
    /// [`reset`]: Pipe::reset
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }

    /// Total transfers served.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Clears accumulated statistics (not the timeline).
    pub fn reset(&mut self) {
        self.busy = SimDuration::ZERO;
        self.transfers = 0;
        self.bytes = 0;
    }
}

/// A FIFO serial unit whose per-item service time is supplied by the caller
/// (a CPU software layer, the block-walk unit, an interrupt handler).
///
/// # Example
///
/// ```
/// use nesc_sim::{ServiceUnit, SimTime, SimDuration};
///
/// let mut cpu = ServiceUnit::new();
/// let a = cpu.serve(SimTime::ZERO, SimDuration::from_micros(3));
/// let b = cpu.serve(SimTime::from_nanos(500), SimDuration::from_micros(1));
/// assert_eq!(b.start, a.end); // second request queued behind the first
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceUnit {
    free_at: SimTime,
    busy: SimDuration,
    served: u64,
}

impl ServiceUnit {
    /// Creates an idle unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves one item arriving at `now` taking `dur`; returns its service
    /// interval and advances the timeline.
    pub fn serve(&mut self, now: SimTime, dur: SimDuration) -> Service {
        let start = now.max(self.free_at);
        let end = start + dur;
        self.free_at = end;
        self.busy += dur;
        self.served += 1;
        Service { start, end }
    }

    /// Serves a run of equal-duration items in arrival order: `times[j]` is
    /// the `j`-th arrival time on entry and its completion time on return.
    /// Arrival times need not be monotonic — each item still starts at
    /// `max(arrival, free_at)` exactly as [`serve`] would.
    ///
    /// [`serve`]: ServiceUnit::serve
    pub fn serve_run(&mut self, dur: SimDuration, times: &mut [SimTime]) {
        let mut free = self.free_at;
        for t in times.iter_mut() {
            let start = (*t).max(free);
            free = start + dur;
            *t = free;
        }
        self.free_at = free;
        self.busy += dur * times.len() as u64;
        self.served += times.len() as u64;
    }

    /// When the unit next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time spent serving.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of items served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pipe_back_to_back() {
        let mut p = Pipe::new(1_000_000_000, SimDuration::ZERO); // 1 GB/s
        let a = p.transfer(SimTime::ZERO, 1000);
        assert_eq!(a.end.as_nanos(), 1000);
        let b = p.transfer(SimTime::ZERO, 1000);
        assert_eq!(b.start.as_nanos(), 1000);
        assert_eq!(b.end.as_nanos(), 2000);
        assert_eq!(p.bytes_moved(), 2000);
        assert_eq!(p.transfers(), 2);
        assert_eq!(p.bandwidth(), 1_000_000_000);
    }

    #[test]
    fn pipe_idle_gap() {
        let mut p = Pipe::new(1_000_000_000, SimDuration::ZERO);
        p.transfer(SimTime::ZERO, 100);
        let late = p.transfer(SimTime::from_nanos(10_000), 100);
        assert_eq!(late.start.as_nanos(), 10_000);
        assert_eq!(p.busy_time().as_nanos(), 200);
    }

    #[test]
    fn pipe_overhead_applies_per_transfer() {
        let mut p = Pipe::new(1_000_000_000, SimDuration::from_nanos(500));
        let a = p.transfer(SimTime::ZERO, 0);
        assert_eq!(a.end.as_nanos(), 500);
        let b = p.transfer(SimTime::ZERO, 0);
        assert_eq!(b.end.as_nanos(), 1000);
    }

    #[test]
    fn pipe_reset_clears_stats_not_timeline() {
        let mut p = Pipe::new(1_000_000_000, SimDuration::ZERO);
        let first = p.transfer(SimTime::ZERO, 1000);
        p.reset();
        assert_eq!(p.bytes_moved(), 0);
        assert_eq!(p.transfers(), 0);
        assert_eq!(p.busy_time(), SimDuration::ZERO);
        // The timeline is preserved: new work still queues behind old.
        let second = p.transfer(SimTime::ZERO, 1000);
        assert_eq!(second.start, first.end);
        assert_eq!(p.free_at(), second.end);
    }

    #[test]
    fn service_unit_serializes() {
        let mut u = ServiceUnit::new();
        let a = u.serve(SimTime::ZERO, SimDuration::from_nanos(100));
        let b = u.serve(SimTime::from_nanos(10), SimDuration::from_nanos(100));
        assert_eq!(a.end, b.start);
        let wait = b.start.saturating_since(SimTime::from_nanos(10));
        assert_eq!(wait.as_nanos(), 90);
        assert_eq!(u.served(), 2);
        assert_eq!(u.free_at(), b.end);
    }

    proptest! {
        /// Service intervals never overlap and never start before arrival.
        #[test]
        fn prop_pipe_fifo_no_overlap(
            jobs in proptest::collection::vec((0u64..10_000, 1u64..100_000), 1..100)
        ) {
            let mut p = Pipe::new(500_000_000, SimDuration::from_nanos(50));
            let mut arrivals: Vec<u64> = jobs.iter().map(|&(t, _)| t).collect();
            arrivals.sort_unstable();
            let mut prev_end = SimTime::ZERO;
            for (&arr, &(_, bytes)) in arrivals.iter().zip(jobs.iter()) {
                let s = p.transfer(SimTime::from_nanos(arr), bytes);
                prop_assert!(s.start >= SimTime::from_nanos(arr));
                prop_assert!(s.start >= prev_end);
                prop_assert!(s.end > s.start);
                prev_end = s.end;
            }
        }

        /// `serve_run` is call-for-call identical to a `serve` loop, for any
        /// (even non-monotonic) arrival sequence and pre-existing timeline.
        #[test]
        fn prop_serve_run_matches_serve_loop(
            arrivals in proptest::collection::vec(0u64..100_000, 0..50),
            dur in 0u64..5_000,
            warmup in 0u64..10_000,
        ) {
            let mut a = ServiceUnit::new();
            let mut b = ServiceUnit::new();
            a.serve(SimTime::ZERO, SimDuration::from_nanos(warmup));
            b.serve(SimTime::ZERO, SimDuration::from_nanos(warmup));
            let mut times: Vec<SimTime> =
                arrivals.iter().map(|&t| SimTime::from_nanos(t)).collect();
            a.serve_run(SimDuration::from_nanos(dur), &mut times);
            for (&arr, &end) in arrivals.iter().zip(times.iter()) {
                let svc = b.serve(SimTime::from_nanos(arr), SimDuration::from_nanos(dur));
                prop_assert_eq!(svc.end, end);
            }
            prop_assert_eq!(a.free_at(), b.free_at());
            prop_assert_eq!(a.busy_time(), b.busy_time());
            prop_assert_eq!(a.served(), b.served());
        }

        /// `transfer_run` is call-for-call identical to a `transfer` loop.
        #[test]
        fn prop_transfer_run_matches_transfer_loop(
            arrivals in proptest::collection::vec(0u64..100_000, 0..50),
            bytes in 1u64..100_000,
        ) {
            let mut a = Pipe::new(500_000_000, SimDuration::from_nanos(50));
            let mut b = a.clone();
            let mut times: Vec<SimTime> =
                arrivals.iter().map(|&t| SimTime::from_nanos(t)).collect();
            a.transfer_run(bytes, &mut times);
            for (&arr, &end) in arrivals.iter().zip(times.iter()) {
                let svc = b.transfer(SimTime::from_nanos(arr), bytes);
                prop_assert_eq!(svc.end, end);
            }
            prop_assert_eq!(a.free_at(), b.free_at());
            prop_assert_eq!(a.busy_time(), b.busy_time());
            prop_assert_eq!(a.transfers(), b.transfers());
            prop_assert_eq!(a.bytes_moved(), b.bytes_moved());
        }

        /// Busy time equals the sum of individual service durations.
        #[test]
        fn prop_busy_time_additive(durs in proptest::collection::vec(1u64..10_000, 1..100)) {
            let mut u = ServiceUnit::new();
            let mut total = 0u64;
            for &d in &durs {
                u.serve(SimTime::ZERO, SimDuration::from_nanos(d));
                total += d;
            }
            prop_assert_eq!(u.busy_time().as_nanos(), total);
        }
    }
}
