//! One probe per request lifecycle.
//!
//! The hypervisor's I/O paths, the device (with the PCIe link it drives)
//! and the telemetry subsystem report each phase of a request's life
//! once, as one typed [`Obs`]ervation, and the [`Probe`] folds it three
//! ways: spans on the [`Tracer`], rows in the flight ring
//! ([`FlightHandle`]), and the *tally* — per-path [`PathTotals`], the
//! window list of [`Completion`]s, the functions queued on since the last
//! window close, the rewalk counts and the device's [`DeviceStats`].
//! Each variant's docs give its fold; DESIGN.md §7 tabulates them. The
//! tally is always on and sees the request lifecycle (`Issued`, `Queued`,
//! `Finished`, `Rewalk`) and the device's counted facts (`DeviceOpen`,
//! `DeviceDone`, `DeviceStalled`, `Walk`, `ZeroFill`); the span and ring
//! folds are on exactly when a channel is, and off, every other report is
//! one branch. The probe owns the state the layers used to thread by
//! hand: the requests in flight from `Issued` to `Finished` (the guest's
//! synchronous path keeps one, a front-end's batch many), each with its
//! root span, the open `device_wait` and device spans, and the request
//! id → parent span bindings.
//!
//! Positional payloads list identities, then quantities, then times.
//!
//! # Example
//!
//! ```
//! use nesc_sim::{FlightConfig, FlightHandle, Obs, Probe, SimTime, Tracer, Via};
//!
//! let probe = Probe::new(Tracer::enabled(), FlightHandle::enabled(FlightConfig::default()));
//! let t = SimTime::from_nanos;
//! probe.report(Obs::Queued(1, 7, 1, t(10)));
//! probe.report(Obs::DeviceOpen(1, 7, 2, t(10), t(40)));
//! probe.report(Obs::DeviceDone(Some((true, 2)), t(90)));
//! let spans = probe.tracer().take_spans();
//! assert_eq!((spans[0].name, spans[1].name), ("device", "queue"));
//! assert_eq!(probe.flight().with(|r| r.total()), Some(1));
//! assert_eq!(probe.device_stats().blocks_written, 2);
//! probe.report(Obs::Issued(Via::Virtio, 0, 8, 512, false, t(100)));
//! probe.report(Obs::Finished(8, false, t(130)));
//! assert_eq!(probe.totals(Via::Virtio).latency_ns.max(), 30);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::flight::{FlightEventKind, FlightHandle, FlightRecorder};
use crate::hash::IntHashBuilder;
use crate::perfmon::AnomalyEvent;
use crate::selfcheck::fnv1a;
use crate::stats::Histogram;
use crate::time::SimTime;
use crate::trace::{SpanId, Tracer};

/// The I/O path a request takes — the paper's four. It names the
/// hypervisor's spans and keys the tally's [`PathTotals`], and only the
/// direct path mirrors the request lifecycle into the flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// A guest's directly assigned NeSC VF.
    Direct,
    /// virtio-blk through the host backend.
    Virtio,
    /// Trap-and-emulate through the host backend.
    Emulated,
    /// The hypervisor's own raw PF access.
    Host,
}

/// `(blocks, block_bytes, start, end)`: one batched pass of a run of
/// blocks through a unit, from the first block's entry to the last one's
/// completion.
#[derive(Debug, Clone, Copy)]
pub struct Pass(pub u64, pub u64, pub SimTime, pub SimTime);

/// One lifecycle observation and its fold. `func` is a device function
/// index (0 = the PF), `id` a device request id; "the root" is the issued
/// request's root span and "the device span" the open `core:device` (or
/// `core:device_resume`) span. Ring rows are written
/// `Kind(time; func, a, b)`.
#[derive(Debug, Clone, Copy)]
pub enum Obs<'a> {
    /// `(path, disk, seq, bytes, write, at)`: a request was issued; `seq`
    /// is the first device id it mints. It joins the tally's in-flight
    /// list until its `Finished`. Opens the root `guest:request`
    /// (`hypervisor:request` on the host path) {disk, bytes, write}; a
    /// device request no report bound (a front-end's, whose id is its
    /// seq) opens its device span under this root.
    Issued(Via, u32, u64, u64, bool, SimTime),
    /// `(func, id, rang, landed)`: the submit stack finished and its
    /// doorbell write landed. Under the root: `guest:guest_submit` (host:
    /// `hypervisor:host_submit`) and `pcie:doorbell`, then
    /// `core:device_wait` opens with `id` bound to it. Ring, direct only:
    /// `RequestStart(issue; func, id, disk)`, `Doorbell(landed; func, id,
    /// rang)`.
    Rang(u32, u64, SimTime, SimTime),
    /// `(trapped, kicked, served)`: a paravirtual request's guest stack,
    /// kick or trap, and host backend. Under the root:
    /// `guest:guest_submit`, `virtio:kick` (emulation:
    /// `hypervisor:trap_emulate`), `hypervisor:host_backend`.
    Backend(SimTime, SimTime, SimTime),
    /// `(at)`: the backend starts waiting on the device; opens
    /// `core:device_wait` under the root.
    Awaiting(SimTime),
    /// `(id)`: the backend forwarded device request `id`; binds it to the
    /// open `device_wait`.
    Forwarded(u64),
    /// `(device_done, done)`: the device answered and the completion
    /// stack finished. Closes `device_wait` (unbinding its ids), then
    /// `guest:guest_complete` (host: `hypervisor:host_complete`) under
    /// the root. Ring, direct only: `RequestComplete(done; func, id,
    /// device_done)`.
    Answered(SimTime, SimTime),
    /// `(seq, failed, done)`: the in-flight request `seq` finished and
    /// leaves the list. The tally counts it against its path (requests,
    /// bytes, then errors if it failed, else `done` minus its issue time)
    /// and, while windowed, adds its [`Completion`] to the window list.
    /// Its root gets {failed} and closes. A seq not in flight counts
    /// nothing.
    Finished(u64, bool, SimTime),
    /// `(func, disk, irq_at, served)`: the miss handler served an
    /// interrupt. The tally counts it and records `served - irq_at` in the
    /// open window's rewalk histogram. Ring: `Rewalk(served; func, irq_at,
    /// disk)`.
    Rewalk(u32, u32, SimTime, SimTime),
    /// An SLO watchdog rule fired. Root span `telemetry:anomaly` over the
    /// breached stretch {rule, rule_text_hash, window, value, threshold};
    /// ring: `Anomaly(at; 0, rule, window)`.
    Anomaly(&'a AnomalyEvent),
    /// `(func, id, depth, at)`: a request entered its function's queue.
    /// While windowed, the tally lists `func` for the next window close.
    /// Ring: `QueueEnter(at; func, id, depth)`.
    Queued(u32, u64, u64, SimTime),
    /// `(func, id, blocks, arrived, at, start)`: the multiplexer popped
    /// the request at `at` and began dispatching it at `start`. Ring:
    /// `QueueExit(at; func, id, arrived)`, `SchedDispatch(start; func, id,
    /// blocks)`.
    Dispatched(u32, u64, u64, SimTime, SimTime, SimTime),
    /// `(func, id, blocks, arrived, start)`: the device began a request.
    /// The tally counts a PF request (`func` 0) as out-of-band. Opens the
    /// device span `core:device` at `arrived` under the span bound to `id`
    /// {func (VFs only), blocks}, with a `core:queue` child up to `start`
    /// if it waited.
    DeviceOpen(u32, u64, u64, SimTime, SimTime),
    /// `(func, id, blocks, at)`: the device resumed a request stalled on
    /// a miss. Opens the device span `core:device_resume` under the span
    /// bound to `id` {func, blocks}; no queue child.
    DeviceResume(u32, u64, u64, SimTime),
    /// `(moved, at)`: the device completed a request; `moved` is the
    /// `(write, blocks)` of an OK one, `None` for a failed one. The tally
    /// counts it completed, with its blocks read or written, or failed.
    /// Closes the device span, if one is open: a failed stalled request's
    /// closed at its stall, and a rejected submission never opened one.
    DeviceDone(Option<(bool, u64)>, SimTime),
    /// `(at)`: the request stalled on a miss interrupt. The tally counts
    /// the interrupt; the device span gets {stalled=1} and closes.
    DeviceStalled(SimTime),
    /// `(run, levels, start, end)`: one run translated. `core:translate`
    /// under the device span {run, levels}.
    Translate(u64, u64, SimTime, SimTime),
    /// `(levels, miss, start, end)`: one extent walk; `miss` is the BTLB
    /// miss behind it (nesting level, vLBA byte offset), `None` for a hole
    /// re-walk. The tally counts the walk and its levels. `extent:walk`
    /// under the device span {levels}; ring, misses only: `BtlbMiss(end;
    /// level, vlba, levels)`.
    Walk(u32, Option<(u32, u64)>, SimTime, SimTime),
    /// A media pass. `storage:media` under the device span {blocks};
    /// ring: `MediaService(end; func, start, blocks)`.
    MediaPass(Pass),
    /// A host-to-device DMA pass. `pcie:dma_read` under the device span
    /// {bytes, transfers}; ring: `LinkService(end; func, start, blocks)`.
    DmaRead(Pass),
    /// A device-to-host DMA pass. `pcie:dma_write` under the device span
    /// {bytes, transfers}; ring: `LinkService(end; func, start, blocks)`.
    DmaWrite(Pass),
    /// A hole read's zero-fill DMA. The tally counts its blocks.
    /// `pcie:dma_write` under the device span {bytes, transfers}; no ring
    /// row.
    ZeroFill(Pass),
    /// `(id, bytes, start, end)`: one coalesced command-descriptor fetch;
    /// `id` is the request id of the first slot fetched. `pcie:dma_read`
    /// {bytes} under the span bound to `id` (the guest path's
    /// `device_wait`), else under the root of the in-flight request whose
    /// seq it is (a front-end's).
    DescriptorFetch(u64, u64, SimTime, SimTime),
}

/// One finished request, as the window list holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Completion time in nanoseconds: the request belongs to the window
    /// ending at `W` iff `t_ns < W`.
    pub t_ns: u64,
    /// Request sequence id (the first device id it minted).
    pub seq: u64,
    /// Disk index (dense attach order).
    pub disk: u32,
    /// Request payload bytes.
    pub bytes: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// The request's root span (NONE when tracing is off).
    pub root: SpanId,
}

/// One I/O path's request totals.
#[derive(Debug, Clone, Default)]
pub struct PathTotals {
    /// Requests finished, failed ones included.
    pub requests: u64,
    /// Payload bytes of those requests.
    pub bytes: u64,
    /// Requests that finished with an error.
    pub errors: u64,
    /// End-to-end latency of the OK requests, in nanoseconds.
    pub latency_ns: Histogram,
}

/// Cumulative counters of one device, re-exported as
/// `nesc_core::DeviceStats`. The tally folds every field but the two BTLB
/// ones from the device's reports; the device fills those from its BTLB's
/// own per-block counters when it hands the counters out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Requests completed successfully.
    pub requests_completed: u64,
    /// Requests completed with an error status.
    pub requests_failed: u64,
    /// 1 KiB blocks read from the medium.
    pub blocks_read: u64,
    /// 1 KiB blocks written to the medium.
    pub blocks_written: u64,
    /// Hole reads served by zero-fill DMA (no media access).
    pub zero_fill_blocks: u64,
    /// Per-block BTLB lookups (every translated block consults the BTLB).
    pub btlb_lookups: u64,
    /// Per-block BTLB lookups satisfied from a cached extent.
    pub btlb_hits: u64,
    /// Block walks executed (BTLB misses that reached the walk unit).
    pub walks: u64,
    /// Total tree levels traversed across all walks (each level is one
    /// host-memory DMA).
    pub walk_levels: u64,
    /// Write-miss / pruned-mapping interrupts raised to the hypervisor.
    pub miss_interrupts: u64,
    /// Requests the PF pushed through the out-of-band channel.
    pub oob_requests: u64,
}

impl DeviceStats {
    /// Mean levels per walk (0 if no walk happened) — the depth the
    /// translation actually paid, used by the tree-depth ablation.
    pub fn mean_walk_depth(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.walk_levels as f64 / self.walks as f64
        }
    }
}

/// An issued request: its path, disk, sequence id, bytes, issue time and
/// root span (NONE while tracing is off).
type Issued = (Via, u32, u64, u64, SimTime, SpanId);

/// The tally, shared by every clone of a probe and kept across
/// [`Probe::rewired`].
#[derive(Debug, Default)]
struct Tally {
    /// The requests issued and not yet finished (the guest path's last).
    inflight: RefCell<Vec<Issued>>,
    /// Indexed by `Via as usize`.
    paths: RefCell<[PathTotals; 4]>,
    /// Whether finished requests join the window list.
    windowed: Cell<bool>,
    /// Completions not yet split off into a closed window.
    pending: RefCell<Vec<Completion>>,
    /// No completion in `pending` is earlier than this: a lower bound,
    /// exact after each split.
    earliest: Cell<u64>,
    /// Functions a request was queued on since the last window close, one
    /// entry per `Queued` report, while windowed.
    queued: RefCell<Vec<u32>>,
    /// The closing window's completions (capacity retained).
    window: RefCell<Vec<Completion>>,
    rewalks: Cell<u64>,
    /// Rewalk service latencies of the open window.
    rewalk_ns: RefCell<Histogram>,
    /// The device's counters (BTLB fields unused).
    device: Cell<DeviceStats>,
}

/// Span and ring state shared by every clone of an on probe.
#[derive(Debug, Default)]
struct Open {
    /// The last issued request's path, disk and issue time: the guest
    /// path's, whose `Rang`, `Backend` and `Answered` these folds read.
    issued: Cell<(Option<Via>, u32, SimTime)>,
    /// The function and device id its doorbell submitted.
    submitted: Cell<(u32, u64)>,
    /// The last issued request's root and open `device_wait` spans.
    root: Cell<SpanId>,
    wait: Cell<SpanId>,
    /// The device span of the request in the pipeline, and its function.
    device: Cell<SpanId>,
    func: Cell<u32>,
    /// Device request id → the span its device span opens under.
    parents: RefCell<HashMap<u64, SpanId, IntHashBuilder>>,
}

/// A cheaply cloned handle every reporting layer holds; clones share one
/// tracer, one flight ring, one set of open spans and one tally.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    tracer: Tracer,
    flight: FlightHandle,
    /// `None` exactly when both channels are off.
    open: Option<Rc<Open>>,
    tally: Rc<Tally>,
}

impl Probe {
    /// A probe folding into `tracer` and `flight`, with a fresh tally.
    pub fn new(tracer: Tracer, flight: FlightHandle) -> Self {
        Probe::default().rewired(tracer, flight)
    }

    /// A probe folding into `tracer` and `flight` that keeps this probe's
    /// tally — how the channels change mid-run without losing counts.
    pub fn rewired(&self, tracer: Tracer, flight: FlightHandle) -> Self {
        let open = (tracer.is_enabled() || flight.is_enabled()).then(Rc::default);
        Probe {
            tracer,
            flight,
            open,
            tally: Rc::clone(&self.tally),
        }
    }

    /// The span tracer the probe folds into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The flight recorder the probe folds into.
    pub fn flight(&self) -> &FlightHandle {
        &self.flight
    }

    /// Starts the window list afresh: from now on each finished request
    /// adds one [`Completion`] until [`close_window`](Self::close_window)
    /// splits it off. Also clears the open window's rewalk histogram.
    pub fn open_windows(&self) {
        self.tally.windowed.set(true);
        self.tally.pending.borrow_mut().clear();
        self.tally.queued.borrow_mut().clear();
        self.tally.rewalk_ns.borrow_mut().reset();
    }

    /// The request totals of one path.
    pub fn totals(&self, path: Via) -> PathTotals {
        let paths = self.tally.paths.borrow();
        paths.get(path as usize).cloned().unwrap_or_default()
    }

    /// Rewalks served so far.
    pub fn rewalks(&self) -> u64 {
        self.tally.rewalks.get()
    }

    /// The device counters folded so far; the BTLB fields read 0 (the
    /// device fills them).
    pub fn device_stats(&self) -> DeviceStats {
        self.tally.device.get()
    }

    /// Reports one observation. The variants the tally folds reach it
    /// whatever the channels; any other report is a single branch when
    /// the channels are off.
    #[inline(always)]
    pub fn report(&self, obs: Obs<'_>) {
        let open = self.open.as_deref();
        // Folds first: an `Issued` joins the in-flight list with the root
        // the span fold opened, a `Finished` leaves it after the fold
        // closed that root.
        if let Some(open) = open {
            self.fold(open, obs);
        }
        tally(&self.tally, open, obs);
    }

    /// Runs one batched unit pass over `times` (each block's entry time
    /// on entry, its completion time on return) and reports it as
    /// `obs(pass)`. An empty run reports nothing.
    #[inline(always)]
    pub fn pass(
        &self,
        obs: impl FnOnce(Pass) -> Obs<'static>,
        block_bytes: u64,
        times: &mut [SimTime],
        run: impl FnOnce(&mut [SimTime]),
    ) {
        let start = times.first().copied();
        run(times);
        if let (Some(start), Some(&end)) = (start, times.last()) {
            self.report(obs(Pass(times.len() as u64, block_bytes, start, end)));
        }
    }

    /// Closes the window ending at `end_ns`: splits off its completions
    /// (exactly those with `t_ns < end_ns`), hands them, the functions a
    /// request was queued on since the previous close (one entry per
    /// request) and the window's rewalk latencies to `read`, then folds
    /// the flight recorder's exemplars for `window` from the same
    /// completions, capturing each keeper's span tree from the tracer.
    /// When nothing pending is that early, the list is not scanned.
    pub fn close_window(
        &self,
        end_ns: u64,
        window: u64,
        read: impl FnOnce(&[Completion], &[u32], &Histogram),
    ) {
        let mut done = self.tally.window.borrow_mut();
        done.clear();
        if self.tally.earliest.get() < end_ns {
            let mut pending = self.tally.pending.borrow_mut();
            let (mut i, mut earliest) = (0, u64::MAX);
            while let Some(c) = pending.get(i) {
                if c.t_ns < end_ns {
                    done.push(pending.swap_remove(i));
                } else {
                    earliest = earliest.min(c.t_ns);
                    i += 1;
                }
            }
            self.tally.earliest.set(earliest);
        }
        let mut queued = self.tally.queued.borrow_mut();
        let mut rewalk_ns = self.tally.rewalk_ns.borrow_mut();
        read(&done, &queued, &rewalk_ns);
        queued.clear();
        rewalk_ns.reset();
        self.flight.with(|rec| {
            rec.close_window(window, &mut done, |root| self.tracer.subtree(root));
        });
    }

    /// Inlined into each reporting site, where the variant is known, so
    /// the state update and ring rows of a recorder-only run cost what a
    /// direct append would.
    #[inline(always)]
    fn fold(&self, open: &Open, obs: Obs<'_>) {
        match obs {
            Obs::Issued(via, disk, .., at) => open.issued.set((Some(via), disk, at)),
            Obs::Rang(func, id, _, _) => open.submitted.set((func, id)),
            Obs::DeviceOpen(func, ..) | Obs::DeviceResume(func, ..) => open.func.set(func),
            _ => {}
        }
        if let Some(rec) = self.flight.recorder() {
            ring(rec, open, obs);
        }
        if self.tracer.is_enabled() {
            self.spans(open, obs);
        }
    }

    #[cold]
    fn spans(&self, open: &Open, obs: Obs<'_>) {
        let t = &self.tracer;
        let (path, _, issue) = open.issued.get();
        let (root, dev) = (open.root.get(), open.device.get());
        let host = path == Some(Via::Host);
        match obs {
            Obs::Issued(_, disk, _, bytes, write, at) => {
                let layer = if host { "hypervisor" } else { "guest" };
                let attrs = [
                    ("disk", u64::from(disk)),
                    ("bytes", bytes),
                    ("write", u64::from(write)),
                ];
                let s = t.start(SpanId::NONE, layer, "request", at, attrs);
                open.root.set(s);
            }
            Obs::Rang(_, id, rang, landed) => {
                let layer = if host { "hypervisor" } else { "guest" };
                let name = if host { "host_submit" } else { "guest_submit" };
                t.span(root, layer, name, issue, rang, []);
                t.span(root, "pcie", "doorbell", rang, landed, []);
                let wait = t.start(root, "core", "device_wait", landed, []);
                open.wait.set(wait);
                open.parents.borrow_mut().insert(id, wait);
            }
            Obs::Backend(trapped, kicked, served) => {
                t.span(root, "guest", "guest_submit", issue, trapped, []);
                let virtio = path == Some(Via::Virtio);
                let layer = if virtio { "virtio" } else { "hypervisor" };
                let name = if virtio { "kick" } else { "trap_emulate" };
                t.span(root, layer, name, trapped, kicked, []);
                t.span(root, "hypervisor", "host_backend", kicked, served, []);
            }
            Obs::Awaiting(at) => open.wait.set(t.start(root, "core", "device_wait", at, [])),
            Obs::Forwarded(id) => {
                open.parents.borrow_mut().insert(id, open.wait.get());
            }
            Obs::Answered(device_done, done) => {
                let wait = open.wait.replace(SpanId::NONE);
                if wait.is_some() {
                    t.end(wait, device_done);
                    open.parents.borrow_mut().retain(|_, p| *p != wait);
                }
                let layer = if host { "hypervisor" } else { "guest" };
                let name = if host {
                    "host_complete"
                } else {
                    "guest_complete"
                };
                t.span(root, layer, name, device_done, done, []);
            }
            Obs::Finished(seq, failed, done) => {
                let root = self.tally.root_of(seq);
                t.attr(root, "failed", u64::from(failed));
                t.end(root, done);
            }
            Obs::Anomaly(a) => {
                let attrs = [
                    ("rule", a.rule_index as u64),
                    ("rule_text_hash", fnv1a(a.text.as_bytes())),
                    ("window", a.window),
                    ("value", a.value),
                    ("threshold", a.threshold),
                ];
                t.span(SpanId::NONE, "telemetry", "anomaly", a.start, a.at, attrs);
            }
            Obs::DeviceOpen(func, id, blocks, arrived, start) => {
                let parent = open.parent_of(id, &self.tally);
                let s = if func != 0 {
                    let attrs = [("func", u64::from(func)), ("blocks", blocks)];
                    t.start(parent, "core", "device", arrived, attrs)
                } else {
                    t.start(parent, "core", "device", arrived, [("blocks", blocks)])
                };
                if start > arrived {
                    t.span(s, "core", "queue", arrived, start, []);
                }
                open.device.set(s);
            }
            Obs::DeviceResume(func, id, blocks, at) => {
                let parent = open.parent_of(id, &self.tally);
                let attrs = [("func", u64::from(func)), ("blocks", blocks)];
                let s = t.start(parent, "core", "device_resume", at, attrs);
                open.device.set(s);
            }
            Obs::DeviceDone(_, at) => t.end(open.device.replace(SpanId::NONE), at),
            Obs::DeviceStalled(at) => {
                t.attr(dev, "stalled", 1);
                t.end(open.device.replace(SpanId::NONE), at);
            }
            Obs::Translate(run, levels, start, end) => {
                let attrs = [("run", run), ("levels", levels)];
                t.span(dev, "core", "translate", start, end, attrs);
            }
            Obs::Walk(levels, _, start, end) => {
                let attrs = [("levels", u64::from(levels))];
                t.span(dev, "extent", "walk", start, end, attrs);
            }
            Obs::MediaPass(Pass(blocks, _, start, end)) => {
                t.span(dev, "storage", "media", start, end, [("blocks", blocks)]);
            }
            Obs::DmaRead(p) | Obs::DmaWrite(p) | Obs::ZeroFill(p) => {
                let Pass(blocks, block_bytes, start, end) = p;
                let read = matches!(obs, Obs::DmaRead(_));
                let name = if read { "dma_read" } else { "dma_write" };
                let attrs = [("bytes", block_bytes * blocks), ("transfers", blocks)];
                t.span(dev, "pcie", name, start, end, attrs);
            }
            Obs::DescriptorFetch(id, bytes, start, end) => {
                let parent = open.parent_of(id, &self.tally);
                t.span(parent, "pcie", "dma_read", start, end, [("bytes", bytes)]);
            }
            Obs::Rewalk(..) | Obs::Queued(..) | Obs::Dispatched(..) => {}
        }
    }
}

impl Tally {
    /// The root span of in-flight request `seq` (NONE if none is).
    fn root_of(&self, seq: u64) -> SpanId {
        let issued = self.inflight.borrow().iter().rfind(|r| r.2 == seq).copied();
        issued.map_or(SpanId::NONE, |r| r.5)
    }

    /// Folds one device fact into the device counters.
    #[inline(always)]
    fn count(&self, fact: impl FnOnce(&mut DeviceStats)) {
        let mut d = self.device.get();
        fact(&mut d);
        self.device.set(d);
    }
}

impl Open {
    /// The span a device request's span opens under: the one its id is
    /// bound to, else the root of the in-flight request whose seq it is.
    fn parent_of(&self, id: u64, tally: &Tally) -> SpanId {
        let bound = self.parents.borrow().get(&id).copied();
        bound.unwrap_or_else(|| tally.root_of(id))
    }
}

/// The tally half of the fold: one push per issue and one `Cell` store
/// per counted device fact; while windowed, one push per queued request;
/// per finish, one swap-removal (the last entry on the guest path), one totals
/// update and, while windowed, one fixed-size push. Every other variant
/// matches nothing.
// nesc-lint: hot
#[inline(always)]
fn tally(t: &Tally, open: Option<&Open>, obs: Obs<'_>) {
    match obs {
        Obs::Issued(path, disk, seq, bytes, _, at) => {
            let root = open.map_or(SpanId::NONE, |o| o.root.get());
            let issued = (path, disk, seq, bytes, at, root);
            t.inflight.borrow_mut().push(issued);
        }
        Obs::Finished(seq, failed, done) => {
            let mut inflight = t.inflight.borrow_mut();
            let Some(i) = inflight.iter().rposition(|r| r.2 == seq) else {
                return;
            };
            let (path, disk, seq, bytes, issue, root) = inflight.swap_remove(i);
            drop(inflight);
            let latency_ns = done.saturating_since(issue).as_nanos();
            let mut paths = t.paths.borrow_mut();
            if let Some(p) = paths.get_mut(path as usize) {
                p.requests += 1;
                p.bytes += bytes;
                if failed {
                    p.errors += 1;
                } else {
                    p.latency_ns.record(latency_ns);
                }
            }
            if t.windowed.get() {
                t.earliest.set(t.earliest.get().min(done.as_nanos()));
                t.pending.borrow_mut().push(Completion {
                    t_ns: done.as_nanos(),
                    seq,
                    disk,
                    bytes,
                    latency_ns,
                    root,
                });
            }
        }
        Obs::Queued(func, ..) if t.windowed.get() => t.queued.borrow_mut().push(func),
        Obs::Rewalk(_, _, irq_at, served) => {
            t.rewalks.set(t.rewalks.get() + 1);
            let latency = served.saturating_since(irq_at).as_nanos();
            t.rewalk_ns.borrow_mut().record(latency);
        }
        Obs::DeviceOpen(0, ..) => t.count(|d| d.oob_requests += 1),
        Obs::DeviceDone(moved, _) => t.count(|d| match moved {
            Some((write, blocks)) => {
                d.requests_completed += 1;
                if write {
                    d.blocks_written += blocks;
                } else {
                    d.blocks_read += blocks;
                }
            }
            None => d.requests_failed += 1,
        }),
        Obs::DeviceStalled(_) => t.count(|d| d.miss_interrupts += 1),
        Obs::Walk(levels, ..) => t.count(|d| {
            d.walks += 1;
            d.walk_levels += u64::from(levels);
        }),
        Obs::ZeroFill(Pass(blocks, ..)) => t.count(|d| d.zero_fill_blocks += blocks),
        _ => {}
    }
}

/// The ring half of the fold: at most two fixed-size appends per
/// observation.
// nesc-lint: hot
#[inline(always)]
fn ring(rec: &FlightRecorder, open: &Open, obs: Obs<'_>) {
    use FlightEventKind as K;
    let ((path, disk, issue), f) = (open.issued.get(), open.func.get());
    let direct = path == Some(Via::Direct);
    match obs {
        Obs::Rang(func, id, rang, landed) if direct => {
            rec.append(issue, K::RequestStart, func, id, u64::from(disk));
            rec.append(landed, K::Doorbell, func, id, rang.as_nanos());
        }
        Obs::Answered(device_done, done) if direct => {
            let (func, id) = open.submitted.get();
            rec.append(done, K::RequestComplete, func, id, device_done.as_nanos());
        }
        Obs::Rewalk(func, disk, irq_at, served) => {
            rec.append(served, K::Rewalk, func, irq_at.as_nanos(), u64::from(disk));
        }
        Obs::Anomaly(a) => rec.append(a.at, K::Anomaly, 0, a.rule_index as u64, a.window),
        Obs::Queued(func, id, depth, at) => rec.append(at, K::QueueEnter, func, id, depth),
        Obs::Dispatched(func, id, blocks, arrived, at, start) => {
            rec.append(at, K::QueueExit, func, id, arrived.as_nanos());
            rec.append(start, K::SchedDispatch, func, id, blocks);
        }
        Obs::Walk(levels, Some((level, vlba)), _, end) => {
            rec.append(end, K::BtlbMiss, level, vlba, u64::from(levels));
        }
        Obs::MediaPass(Pass(blocks, _, start, end)) => {
            rec.append(end, K::MediaService, f, start.as_nanos(), blocks);
        }
        Obs::DmaRead(Pass(blocks, _, start, end)) | Obs::DmaWrite(Pass(blocks, _, start, end)) => {
            rec.append(end, K::LinkService, f, start.as_nanos(), blocks);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightConfig, FlightEvent};
    use crate::time::SimDuration;
    use crate::trace::Span;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn anomaly() -> AnomalyEvent {
        AnomalyEvent {
            rule: "slow".into(),
            rule_index: 1,
            text: "x above 5 for 2".into(),
            series: "x".into(),
            window: 9,
            at: t(1000),
            start: t(800),
            value: 7,
            threshold: 5,
            consecutive: 2,
        }
    }

    /// Every observation variant, in the order the layers report them: a
    /// direct request that stalls on a miss and resumes, a host request
    /// the device fails, a virtio request, an emulated write the device
    /// rejects at submission (so no device span is open when it answers)
    /// and a second `Finished` for it, which counts nothing; then a
    /// front-end's batch of two requests on a VF, in flight together and
    /// finished out of issue order, and a watchdog anomaly.
    fn script(a: &AnomalyEvent) -> Vec<Obs<'_>> {
        use Obs::*;
        vec![
            Issued(Via::Direct, 2, 5, 4096, true, t(100)),
            Rang(3, 5, t(110), t(120)),
            DescriptorFetch(5, 32, t(120), t(125)),
            Queued(3, 5, 1, t(125)),
            Dispatched(3, 5, 8, t(125), t(130), t(131)),
            DeviceOpen(3, 5, 8, t(125), t(140)),
            Walk(2, Some((3, 4096)), t(140), t(150)),
            Translate(8, 1, t(140), t(150)),
            Walk(2, None, t(150), t(155)),
            DmaRead(Pass(8, 512, t(155), t(170))),
            MediaPass(Pass(8, 512, t(170), t(190))),
            DeviceStalled(t(195)),
            Rewalk(3, 2, t(195), t(205)),
            DeviceResume(3, 5, 8, t(210)),
            DmaWrite(Pass(2, 512, t(210), t(220))),
            ZeroFill(Pass(1, 512, t(220), t(225))),
            DeviceDone(Some((true, 8)), t(230)),
            Answered(t(230), t(240)),
            Finished(5, false, t(240)),
            Issued(Via::Host, 0, 6, 512, false, t(300)),
            Rang(0, 6, t(310), t(320)),
            DeviceOpen(0, 6, 1, t(320), t(320)),
            DeviceDone(None, t(330)),
            Answered(t(330), t(335)),
            Finished(6, true, t(335)),
            Issued(Via::Virtio, 1, 7, 8192, false, t(400)),
            Backend(t(410), t(420), t(430)),
            Awaiting(t(430)),
            Forwarded(7),
            DeviceOpen(0, 7, 2, t(431), t(431)),
            DeviceDone(Some((false, 2)), t(440)),
            Answered(t(440), t(450)),
            Finished(7, false, t(450)),
            Issued(Via::Emulated, 1, 8, 512, true, t(500)),
            Backend(t(505), t(515), t(520)),
            DeviceDone(None, t(520)),
            Answered(t(520), t(530)),
            Finished(8, true, t(530)),
            Finished(8, false, t(535)),
            Issued(Via::Direct, 3, 9, 1024, true, t(600)),
            Issued(Via::Direct, 3, 10, 1024, false, t(600)),
            DeviceOpen(4, 9, 1, t(610), t(610)),
            DeviceDone(Some((true, 1)), t(620)),
            DeviceOpen(4, 10, 1, t(620), t(625)),
            DeviceDone(Some((false, 1)), t(640)),
            Finished(10, false, t(640)),
            Finished(9, false, t(620)),
            Anomaly(a),
        ]
    }

    type Attrs = &'static [(&'static str, u64)];

    /// The spans the script folds into before its anomaly, ids in
    /// creation order from 1: `(parent, layer, name, start, end, attrs)`.
    fn want_spans() -> Vec<(u64, &'static str, &'static str, u64, u64, Attrs)> {
        vec![
            (
                0,
                "guest",
                "request",
                100,
                240,
                &[("disk", 2), ("bytes", 4096), ("write", 1), ("failed", 0)],
            ),
            (1, "guest", "guest_submit", 100, 110, &[]),
            (1, "pcie", "doorbell", 110, 120, &[]),
            (1, "core", "device_wait", 120, 230, &[]),
            (4, "pcie", "dma_read", 120, 125, &[("bytes", 32)]),
            (
                4,
                "core",
                "device",
                125,
                195,
                &[("func", 3), ("blocks", 8), ("stalled", 1)],
            ),
            (6, "core", "queue", 125, 140, &[]),
            (6, "extent", "walk", 140, 150, &[("levels", 2)]),
            (
                6,
                "core",
                "translate",
                140,
                150,
                &[("run", 8), ("levels", 1)],
            ),
            (6, "extent", "walk", 150, 155, &[("levels", 2)]),
            (
                6,
                "pcie",
                "dma_read",
                155,
                170,
                &[("bytes", 4096), ("transfers", 8)],
            ),
            (6, "storage", "media", 170, 190, &[("blocks", 8)]),
            (
                4,
                "core",
                "device_resume",
                210,
                230,
                &[("func", 3), ("blocks", 8)],
            ),
            (
                13,
                "pcie",
                "dma_write",
                210,
                220,
                &[("bytes", 1024), ("transfers", 2)],
            ),
            (
                13,
                "pcie",
                "dma_write",
                220,
                225,
                &[("bytes", 512), ("transfers", 1)],
            ),
            (1, "guest", "guest_complete", 230, 240, &[]),
            (
                0,
                "hypervisor",
                "request",
                300,
                335,
                &[("disk", 0), ("bytes", 512), ("write", 0), ("failed", 1)],
            ),
            (17, "hypervisor", "host_submit", 300, 310, &[]),
            (17, "pcie", "doorbell", 310, 320, &[]),
            (17, "core", "device_wait", 320, 330, &[]),
            (20, "core", "device", 320, 330, &[("blocks", 1)]),
            (17, "hypervisor", "host_complete", 330, 335, &[]),
            (
                0,
                "guest",
                "request",
                400,
                450,
                &[("disk", 1), ("bytes", 8192), ("write", 0), ("failed", 0)],
            ),
            (23, "guest", "guest_submit", 400, 410, &[]),
            (23, "virtio", "kick", 410, 420, &[]),
            (23, "hypervisor", "host_backend", 420, 430, &[]),
            (23, "core", "device_wait", 430, 440, &[]),
            (27, "core", "device", 431, 440, &[("blocks", 2)]),
            (23, "guest", "guest_complete", 440, 450, &[]),
            (
                0,
                "guest",
                "request",
                500,
                530,
                &[("disk", 1), ("bytes", 512), ("write", 1), ("failed", 1)],
            ),
            (30, "guest", "guest_submit", 500, 505, &[]),
            (30, "hypervisor", "trap_emulate", 505, 515, &[]),
            (30, "hypervisor", "host_backend", 515, 520, &[]),
            (30, "guest", "guest_complete", 520, 530, &[]),
            (
                0,
                "guest",
                "request",
                600,
                620,
                &[("disk", 3), ("bytes", 1024), ("write", 1), ("failed", 0)],
            ),
            (
                0,
                "guest",
                "request",
                600,
                640,
                &[("disk", 3), ("bytes", 1024), ("write", 0), ("failed", 0)],
            ),
            (
                35,
                "core",
                "device",
                610,
                620,
                &[("func", 4), ("blocks", 1)],
            ),
            (
                36,
                "core",
                "device",
                620,
                640,
                &[("func", 4), ("blocks", 1)],
            ),
            (38, "core", "queue", 620, 625, &[]),
        ]
    }

    /// The ring rows the script folds into: `(t, kind, func, a, b)`.
    fn want_rows() -> Vec<(u64, FlightEventKind, u32, u64, u64)> {
        use FlightEventKind::*;
        vec![
            (100, RequestStart, 3, 5, 2),
            (120, Doorbell, 3, 5, 110),
            (125, QueueEnter, 3, 5, 1),
            (130, QueueExit, 3, 5, 125),
            (131, SchedDispatch, 3, 5, 8),
            (150, BtlbMiss, 3, 4096, 2),
            (170, LinkService, 3, 155, 8),
            (190, MediaService, 3, 170, 8),
            (205, Rewalk, 3, 195, 2),
            (220, LinkService, 3, 210, 2),
            (240, RequestComplete, 3, 5, 230),
            (1000, Anomaly, 0, 1, 9),
        ]
    }

    /// A completion as `(t, seq, disk, bytes, latency, root)`.
    type Done = (u64, u64, u32, u64, u64, u64);

    /// The window list the script leaves, by sequence id.
    const WANT_DONE: [Done; 6] = [
        (240, 5, 2, 4096, 140, 1),
        (335, 6, 0, 512, 35, 17),
        (450, 7, 1, 8192, 50, 23),
        (530, 8, 1, 512, 30, 30),
        (620, 9, 3, 1024, 20, 35),
        (640, 10, 3, 1024, 40, 36),
    ];

    /// The per-path totals the script leaves, in `Via` order:
    /// `(requests, bytes, errors, latencies, max latency)`.
    const WANT_TOTALS: [(u64, u64, u64, u64, u64); 4] = [
        (3, 6144, 0, 3, 140),
        (1, 8192, 0, 1, 50),
        (1, 512, 1, 0, 0),
        (1, 512, 1, 0, 0),
    ];

    /// The device counters the script leaves (BTLB fields unfolded).
    const WANT_DEVICE: DeviceStats = DeviceStats {
        requests_completed: 4,
        requests_failed: 2,
        blocks_read: 3,
        blocks_written: 9,
        zero_fill_blocks: 1,
        btlb_lookups: 0,
        btlb_hits: 0,
        walks: 2,
        walk_levels: 4,
        miss_interrupts: 1,
        oob_requests: 2,
    };

    struct Out {
        spans: Vec<Span>,
        rows: Vec<FlightEvent>,
        /// Exemplars as `(seq, disk, latency, root)`.
        notes: Vec<(u64, u32, u64, u64)>,
        /// The tally: the window's completions, the functions queued on,
        /// the per-path totals, the rewalk count with the window's
        /// largest rewalk latency, and the device counters.
        done: Vec<Done>,
        queued: Vec<u32>,
        totals: Vec<(u64, u64, u64, u64, u64)>,
        rewalks: (u64, u64),
        device: DeviceStats,
    }

    /// Runs the script with each channel on or off.
    fn run(tracing: bool, recording: bool) -> Out {
        let tracer = if tracing {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let flight = if recording {
            FlightHandle::enabled(FlightConfig::default().exemplar_k(8))
        } else {
            FlightHandle::disabled()
        };
        let probe = Probe::new(tracer, flight);
        probe.open_windows();
        let a = anomaly();
        for obs in script(&a) {
            probe.clone().report(obs);
        }
        let (mut done, mut queued, mut rewalk_max) = (Vec::new(), Vec::new(), 0);
        probe.close_window(10_000, 0, |window, funcs, rewalk_ns| {
            let row = |c: &Completion| (c.t_ns, c.seq, c.disk, c.bytes, c.latency_ns, c.root.0);
            done = window.iter().map(row).collect();
            queued = funcs.to_vec();
            rewalk_max = rewalk_ns.max();
        });
        done.sort();
        let paths = [Via::Direct, Via::Virtio, Via::Emulated, Via::Host].map(|v| probe.totals(v));
        let totals = paths.iter().map(|p| {
            let lat = &p.latency_ns;
            (p.requests, p.bytes, p.errors, lat.count(), lat.max())
        });
        let (totals, rewalks) = (totals.collect(), (probe.rewalks(), rewalk_max));
        let (rows, mut notes) = probe
            .flight()
            .with(|r| {
                let exemplars = r.exemplars();
                let notes = exemplars
                    .iter()
                    .map(|x| (x.seq, x.disk, x.latency_ns, x.root));
                (r.events().collect(), notes.collect::<Vec<_>>())
            })
            .unwrap_or_default();
        notes.sort();
        let open = probe.open.as_deref();
        assert!(
            open.is_none_or(|o| o.parents.borrow().is_empty()),
            "every binding is released when its wait closes"
        );
        assert!(
            probe.tally.inflight.borrow().is_empty(),
            "each request finished"
        );
        let spans = probe.tracer().take_spans();
        Out {
            spans,
            rows,
            notes,
            done,
            queued,
            totals,
            rewalks,
            device: probe.device_stats(),
        }
    }

    #[test]
    fn off_records_nothing() {
        let probe = Probe::default();
        assert!(probe.open.is_none());
        let out = run(false, false);
        assert!(out.spans.is_empty() && out.rows.is_empty() && out.notes.is_empty());
    }

    #[test]
    fn fold_table_under_every_setting() {
        let spans = |out: &Out| {
            let rows = out.spans.iter().map(|s| {
                let attrs: Vec<(&str, u64)> = s.attrs.to_vec();
                let (start, end) = (s.start.as_nanos(), s.end.as_nanos());
                (s.id.0, s.parent.0, s.layer, s.name, start, end, attrs)
            });
            rows.collect::<Vec<_>>()
        };
        let mut want: Vec<_> = want_spans()
            .into_iter()
            .enumerate()
            .map(|(i, (parent, layer, name, start, end, attrs))| {
                (
                    i as u64 + 1,
                    parent,
                    layer,
                    name,
                    start,
                    end,
                    attrs.to_vec(),
                )
            })
            .collect();
        let hash = fnv1a(anomaly().text.as_bytes());
        let attrs = [("rule", 1), ("rule_text_hash", hash), ("window", 9)];
        let attrs = [&attrs[..], &[("value", 7), ("threshold", 5)]].concat();
        want.push((40, 0, "telemetry", "anomaly", 800, 1000, attrs));
        let rows = |out: &Out| {
            let rows = out.rows.iter().map(|e| (e.t_ns, e.kind, e.func, e.a, e.b));
            rows.collect::<Vec<_>>()
        };
        // Without a tracer, completions and exemplars carry no root.
        let want_done = |traced: bool| {
            let root = |r| if traced { r } else { 0 };
            let done = WANT_DONE.map(|(t, s, d, b, l, r)| (t, s, d, b, l, root(r)));
            done.to_vec()
        };
        let notes = |traced| {
            let notes = want_done(traced).into_iter();
            notes
                .map(|(_, s, d, _, l, r)| (s, d, l, r))
                .collect::<Vec<_>>()
        };

        let settings = [(false, false), (true, false), (false, true), (true, true)];
        let [off, traced, recorded, both] = settings.map(|(t, r)| run(t, r));
        // The tally is the same under every setting, both channels off
        // included.
        for (out, (tracing, _)) in [&off, &traced, &recorded, &both].into_iter().zip(settings) {
            assert_eq!(out.done, want_done(tracing), "the window list");
            assert_eq!(out.queued, vec![3], "the one queued request's function");
            assert_eq!(out.totals, WANT_TOTALS.to_vec(), "the per-path totals");
            assert_eq!(out.rewalks, (1, 10), "one 10 ns rewalk");
            assert_eq!(out.device, WANT_DEVICE, "the device counters");
        }
        assert_eq!(spans(&traced), want, "tracing only: the span table");
        assert!(traced.rows.is_empty() && traced.notes.is_empty());
        assert_eq!(
            rows(&recorded),
            want_rows(),
            "recorder only: the ring table"
        );
        assert_eq!(recorded.notes, notes(false), "no tracer, no exemplar roots");
        assert!(recorded.spans.is_empty());
        // Each channel records the same whether or not the other is on.
        assert_eq!(spans(&both), want);
        assert_eq!(rows(&both), want_rows());
        assert_eq!(both.notes, notes(true));
    }

    /// Reports one whole 512-byte request on disk 0.
    fn request(probe: &Probe, path: Via, seq: u64, issue: u64, done: u64, failed: bool) {
        probe.report(Obs::Issued(path, 0, seq, 512, false, t(issue)));
        probe.report(Obs::Finished(seq, failed, t(done)));
    }

    /// Closes the window ending at `end_ns`: its completions' sequence ids,
    /// sorted, and its largest rewalk latency.
    fn close(probe: &Probe, end_ns: u64) -> (Vec<u64>, u64) {
        let mut out = (Vec::new(), 0);
        probe.close_window(end_ns, 0, |done, _, rewalk_ns| {
            out = (done.iter().map(|c| c.seq).collect(), rewalk_ns.max());
        });
        out.0.sort();
        out
    }

    #[test]
    fn totals_count_before_windows_open_but_list_nothing() {
        let probe = Probe::default();
        request(&probe, Via::Host, 1, 0, 10, false);
        assert_eq!(probe.totals(Via::Host).requests, 1);
        assert_eq!(close(&probe, 100), (vec![], 0), "not windowed, not listed");
        probe.open_windows();
        request(&probe, Via::Host, 2, 20, 30, false);
        assert_eq!(close(&probe, 100), (vec![2], 0));
        assert_eq!(probe.totals(Via::Host).requests, 2);
    }

    #[test]
    fn path_totals_accumulate_and_time_only_ok_requests() {
        let probe = Probe::default();
        let mut ok = Histogram::new();
        for seq in 0..50u64 {
            let (issue, latency) = (seq * 10_000, 100 + seq * seq * 37 % 5000);
            let failed = seq % 7 == 3;
            request(&probe, Via::Virtio, seq, issue, issue + latency, failed);
            if !failed {
                ok.record(latency);
            }
        }
        let v = probe.totals(Via::Virtio);
        assert_eq!((v.requests, v.bytes, v.errors), (50, 50 * 512, 7));
        let shape = |h: &Histogram| {
            let ps = [1.0, 50.0, 90.0, 99.0, 100.0].map(|p| h.percentile(p));
            (h.count(), h.min(), h.max(), h.mean(), ps)
        };
        assert_eq!(shape(&v.latency_ns), shape(&ok), "OK latencies only");
        for other in [Via::Direct, Via::Emulated, Via::Host] {
            let o = probe.totals(other);
            assert_eq!((o.requests, o.latency_ns.count()), (0, 0), "{other:?}");
        }
    }

    #[test]
    fn clones_and_rewired_probes_share_one_tally() {
        let probe = Probe::default();
        request(&probe.clone(), Via::Direct, 1, 0, 10, false);
        let traced = probe.rewired(Tracer::enabled(), FlightHandle::disabled());
        request(&traced, Via::Direct, 2, 10, 30, true);
        probe.report(Obs::Rewalk(0, 1, t(40), t(45)));
        for p in [&probe, &traced] {
            let d = p.totals(Via::Direct);
            assert_eq!((d.requests, d.errors, d.latency_ns.count()), (2, 1, 1));
            assert_eq!(p.rewalks(), 1);
        }
        // The window list is shared too.
        traced.open_windows();
        request(&probe, Via::Direct, 3, 50, 60, false);
        assert_eq!(close(&traced, 100), (vec![3], 0));
        let fresh = Probe::new(Tracer::enabled(), FlightHandle::disabled());
        assert_eq!(
            (fresh.totals(Via::Direct).requests, fresh.rewalks()),
            (0, 0)
        );
    }

    #[test]
    fn each_completion_closes_into_exactly_one_window() {
        let probe = Probe::default();
        probe.open_windows();
        // Seq 2 is issued after seq 1 but finishes first; seq 3 finishes
        // exactly at the first window's end.
        request(&probe, Via::Direct, 1, 0, 120, false);
        request(&probe, Via::Direct, 2, 10, 50, false);
        request(&probe, Via::Direct, 3, 60, 100, false);
        probe.report(Obs::Rewalk(0, 1, t(70), t(90)));
        assert_eq!(close(&probe, 100), (vec![2], 20));
        assert_eq!(close(&probe, 100), (vec![], 0), "nothing is split twice");
        probe.report(Obs::Rewalk(0, 1, t(150), t(155)));
        assert_eq!(close(&probe, 200), (vec![1, 3], 5));
        assert_eq!(probe.rewalks(), 2, "the rewalk count spans windows");
    }

    #[test]
    fn queued_functions_reach_only_the_next_close() {
        let probe = Probe::default();
        let queued = |probe: &Probe, end_ns| {
            let mut funcs = Vec::new();
            probe.close_window(end_ns, 0, |_, queued, _| funcs = queued.to_vec());
            funcs
        };
        probe.report(Obs::Queued(4, 1, 1, t(10)));
        assert_eq!(queued(&probe, 100), vec![], "not windowed, not listed");
        probe.open_windows();
        for (func, id) in [(2, 2), (5, 3), (2, 4)] {
            probe.report(Obs::Queued(func, id, 1, t(110)));
        }
        // One entry per report, handed to the first close of an idle
        // stretch and to none after it.
        assert_eq!(queued(&probe, 200), vec![2, 5, 2]);
        assert_eq!(queued(&probe, 300), vec![]);
    }

    #[test]
    fn a_close_that_skips_the_scan_splits_later_completions_alike() {
        let probe = Probe::default();
        probe.open_windows();
        request(&probe, Via::Direct, 1, 0, 450, false);
        // Nothing pending ends before 400: these closes skip the scan.
        for end in [100, 200, 300, 400] {
            assert_eq!(close(&probe, end), (vec![], 0), "window ending {end}");
        }
        // A completion earlier than the one pending lowers the bound.
        request(&probe, Via::Direct, 2, 400, 420, false);
        assert_eq!(close(&probe, 430), (vec![2], 0));
        assert_eq!(close(&probe, 500), (vec![1], 0));
        assert_eq!(close(&probe, 600), (vec![], 0));
    }

    #[test]
    fn open_windows_drops_the_unclosed_list_but_keeps_totals() {
        let probe = Probe::default();
        probe.open_windows();
        request(&probe, Via::Host, 1, 0, 10, false);
        probe.report(Obs::Rewalk(0, 1, t(0), t(7)));
        probe.open_windows();
        request(&probe, Via::Host, 2, 20, 30, false);
        assert_eq!(close(&probe, 100), (vec![2], 0));
        assert_eq!((probe.totals(Via::Host).requests, probe.rewalks()), (2, 1));
    }

    #[test]
    fn pass_reports_only_nonempty_runs() {
        let probe = Probe::new(Tracer::enabled(), FlightHandle::disabled());
        let mut times = [t(1), t(2)];
        probe.pass(Obs::MediaPass, 512, &mut times, |ts| {
            ts.iter_mut()
                .for_each(|x| *x += SimDuration::from_nanos(10));
        });
        probe.pass(Obs::MediaPass, 512, &mut [], |_| {});
        let spans = probe.tracer().take_spans();
        assert_eq!(spans.len(), 1, "an empty run reports nothing");
        assert_eq!((spans[0].start, spans[0].end), (t(1), t(12)));
        assert_eq!(spans[0].attr("blocks"), Some(2));
        // Off, the unit still runs, and a pass the tally counts reaches it.
        let off = Probe::default();
        let mut times = [t(1)];
        off.pass(Obs::MediaPass, 512, &mut times, |ts| ts[0] = t(9));
        assert_eq!(times, [t(9)]);
        off.pass(Obs::ZeroFill, 512, &mut [t(1), t(2), t(3)], |_| {});
        off.pass(Obs::ZeroFill, 512, &mut [], |_| {});
        assert_eq!(off.device_stats().zero_fill_blocks, 3);
    }

    #[test]
    fn mean_walk_depth_handles_empty() {
        assert_eq!(DeviceStats::default().mean_walk_depth(), 0.0);
        let s = DeviceStats {
            walks: 4,
            walk_levels: 10,
            ..Default::default()
        };
        assert!((s.mean_walk_depth() - 2.5).abs() < 1e-12);
    }
}
