//! One probe per request lifecycle.
//!
//! The hypervisor's I/O paths, the device (with the PCIe link it drives)
//! and the telemetry subsystem report each phase of a request's life
//! once, as one typed [`Obs`]ervation, and the [`Probe`] folds it two
//! ways: span rows in the span log, and the *tally* — per-path
//! [`PathTotals`], the window list of [`Completion`]s, the functions
//! queued on since the last window close, the rewalk counts and the
//! device's [`DeviceStats`]. The span log keeps its rows for the
//! [`Tracer`] when tracing is on and writes a copy of each into the
//! flight ring ([`FlightHandle`]) when the recorder is on, so the ring is
//! the last N span rows. Each variant's docs give its fold; DESIGN.md §7
//! tabulates them. The tally is always on and sees the request lifecycle
//! (`Issued`, `Queued`, `Finished`, `Rewalk`) and the device's counted
//! facts (`DeviceOpen`, `DeviceDone`, `DeviceStalled`, `Walk`,
//! `ZeroFill`); the span fold is on exactly when a channel is, and off,
//! every other report is one branch. The probe owns the state the layers
//! used to thread by hand: the requests in flight from `Issued` to
//! `Finished` (the guest's synchronous path keeps one, a front-end's
//! batch many), each with its root span, the open `device_wait` and
//! device spans, and the request id → parent span bindings.
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
//! assert_eq!((spans[0].name(), spans[1].name()), ("device", "queue"));
//! assert_eq!(probe.flight().with(|r| r.total()), Some(2), "the ring holds both rows");
//! assert_eq!(probe.device_stats().blocks_written, 2);
//! probe.report(Obs::Issued(Via::Virtio, 0, 8, 512, false, t(100)));
//! probe.report(Obs::Finished(8, false, t(130)));
//! assert_eq!(probe.totals(Via::Virtio).latency_ns.max(), 30);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::flight::FlightHandle;
use crate::hash::IntHashBuilder;
use crate::perfmon::AnomalyEvent;
use crate::selfcheck::fnv1a;
use crate::stats::Histogram;
use crate::time::SimTime;
use crate::trace::{AttrKey as A, SpanId, SpanKind as K, Tracer};

/// The I/O path a request takes — the paper's four. It names the
/// hypervisor's spans and keys the tally's [`PathTotals`].
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
/// `core:device_resume`) span. Every span also lands in the flight ring
/// when the recorder is on.
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
    /// `core:device_wait` opens with `id` bound to it.
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
    /// the root.
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
    /// open window's rewalk histogram. `hypervisor:rewalk` {func} from
    /// `irq_at` to `served`, under the span the stalled request's device
    /// span opened under (its `device_wait`).
    Rewalk(u32, u32, SimTime, SimTime),
    /// An SLO watchdog rule fired. Root span `telemetry:anomaly` over the
    /// breached stretch {rule, rule_text_hash, window, value, threshold}.
    Anomaly(&'a AnomalyEvent),
    /// `(func, id, depth, at)`: a request entered its function's queue.
    /// While windowed, the tally lists `func` for the next window close.
    /// No span: `core:queue` times the wait.
    Queued(u32, u64, u64, SimTime),
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
    /// under the device span {levels}.
    Walk(u32, Option<(u32, u64)>, SimTime, SimTime),
    /// A media pass. `storage:media` under the device span {blocks}.
    MediaPass(Pass),
    /// A host-to-device DMA pass. `pcie:dma_read` under the device span
    /// {bytes, transfers}.
    DmaRead(Pass),
    /// A device-to-host DMA pass. `pcie:dma_write` under the device span
    /// {bytes, transfers}.
    DmaWrite(Pass),
    /// A hole read's zero-fill DMA. The tally counts its blocks.
    /// `pcie:dma_write` under the device span {bytes, transfers}.
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

/// Span state shared by every clone of an on probe.
#[derive(Debug, Default)]
struct Open {
    /// The last issued request's path and issue time: the guest path's,
    /// whose `Rang`, `Backend` and `Answered` the span fold reads.
    issued: Cell<(Option<Via>, SimTime)>,
    /// The last issued request's root and open `device_wait` spans.
    root: Cell<SpanId>,
    wait: Cell<SpanId>,
    /// The device span of the request in the pipeline, and the span it
    /// opened under.
    device: Cell<(SpanId, SpanId)>,
    /// The span the last stalled request's device span opened under: its
    /// rewalk opens there.
    stalled: Cell<SpanId>,
    /// Device request id → the span its device span opens under.
    parents: RefCell<HashMap<u64, SpanId, IntHashBuilder>>,
}

/// A cheaply cloned handle every reporting layer holds; clones share one
/// span log, one flight ring, one set of open spans and one tally.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// The span log: it keeps rows while tracing and feeds the ring while
    /// the recorder is on.
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
    /// With tracing off and the recorder on, the span log keeps no rows
    /// of its own and its ids continue after this probe's.
    pub fn rewired(&self, tracer: Tracer, flight: FlightHandle) -> Self {
        let tracer = tracer.recording_into(flight.ring(), self.tracer.minted());
        let open = tracer.records().then(Rc::default);
        Probe {
            tracer,
            flight,
            open,
            tally: Rc::clone(&self.tally),
        }
    }

    /// The span log the probe folds into (reading as a disabled tracer
    /// while only the recorder is on).
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

    /// The span fold: opens, closes and annotates spans in the span log.
    #[cold]
    fn fold(&self, open: &Open, obs: Obs<'_>) {
        let t = &self.tracer;
        if let Obs::Issued(via, .., at) = obs {
            open.issued.set((Some(via), at));
        }
        let (path, issue) = open.issued.get();
        let (root, (dev, _)) = (open.root.get(), open.device.get());
        let host = path == Some(Via::Host);
        match obs {
            Obs::Issued(_, disk, _, bytes, write, at) => {
                let kind = if host {
                    K::HostRequest
                } else {
                    K::GuestRequest
                };
                let attrs = [
                    (A::Disk, u64::from(disk)),
                    (A::Bytes, bytes),
                    (A::Write, u64::from(write)),
                ];
                open.root.set(t.start(SpanId::NONE, kind, at, attrs));
            }
            Obs::Rang(_, id, rang, landed) => {
                let kind = if host { K::HostSubmit } else { K::GuestSubmit };
                t.span(root, kind, issue, rang, []);
                t.span(root, K::Doorbell, rang, landed, []);
                let wait = t.start(root, K::DeviceWait, landed, []);
                open.wait.set(wait);
                open.parents.borrow_mut().insert(id, wait);
            }
            Obs::Backend(trapped, kicked, served) => {
                t.span(root, K::GuestSubmit, issue, trapped, []);
                let virtio = path == Some(Via::Virtio);
                let kind = if virtio { K::Kick } else { K::TrapEmulate };
                t.span(root, kind, trapped, kicked, []);
                t.span(root, K::HostBackend, kicked, served, []);
            }
            Obs::Awaiting(at) => open.wait.set(t.start(root, K::DeviceWait, at, [])),
            Obs::Forwarded(id) => {
                open.parents.borrow_mut().insert(id, open.wait.get());
            }
            Obs::Answered(device_done, done) => {
                let wait = open.wait.replace(SpanId::NONE);
                if wait.is_some() {
                    t.end(wait, device_done);
                    open.parents.borrow_mut().retain(|_, p| *p != wait);
                }
                let kind = if host {
                    K::HostComplete
                } else {
                    K::GuestComplete
                };
                t.span(root, kind, device_done, done, []);
            }
            Obs::Finished(seq, failed, done) => {
                let root = self.tally.root_of(seq);
                t.attr(root, A::Failed, u64::from(failed));
                t.end(root, done);
            }
            Obs::Anomaly(a) => {
                let attrs = [
                    (A::Rule, a.rule_index as u64),
                    (A::RuleTextHash, fnv1a(a.text.as_bytes())),
                    (A::Window, a.window),
                    (A::Value, a.value),
                    (A::Threshold, a.threshold),
                ];
                t.span(SpanId::NONE, K::Anomaly, a.start, a.at, attrs);
            }
            Obs::DeviceOpen(func, id, blocks, arrived, start) => {
                let parent = open.parent_of(id, &self.tally);
                let s = if func != 0 {
                    let attrs = [(A::Func, u64::from(func)), (A::Blocks, blocks)];
                    t.start(parent, K::Device, arrived, attrs)
                } else {
                    t.start(parent, K::Device, arrived, [(A::Blocks, blocks)])
                };
                if start > arrived {
                    t.span(s, K::Queue, arrived, start, []);
                }
                open.device.set((s, parent));
            }
            Obs::DeviceResume(func, id, blocks, at) => {
                let parent = open.parent_of(id, &self.tally);
                let attrs = [(A::Func, u64::from(func)), (A::Blocks, blocks)];
                open.device
                    .set((t.start(parent, K::DeviceResume, at, attrs), parent));
            }
            Obs::DeviceDone(_, at) => t.end(open.device.take().0, at),
            Obs::DeviceStalled(at) => {
                let (dev, parent) = open.device.take();
                t.attr(dev, A::Stalled, 1);
                t.end(dev, at);
                open.stalled.set(parent);
            }
            Obs::Rewalk(func, _, irq_at, served) => {
                let attrs = [(A::Func, u64::from(func))];
                t.span(open.stalled.take(), K::Rewalk, irq_at, served, attrs);
            }
            Obs::Translate(run, levels, start, end) => {
                let attrs = [(A::Run, run), (A::Levels, levels)];
                t.span(dev, K::Translate, start, end, attrs);
            }
            Obs::Walk(levels, _, start, end) => {
                t.span(dev, K::Walk, start, end, [(A::Levels, u64::from(levels))]);
            }
            Obs::MediaPass(Pass(blocks, _, start, end)) => {
                t.span(dev, K::Media, start, end, [(A::Blocks, blocks)]);
            }
            Obs::DmaRead(p) | Obs::DmaWrite(p) | Obs::ZeroFill(p) => {
                let Pass(blocks, block_bytes, start, end) = p;
                let read = matches!(obs, Obs::DmaRead(_));
                let kind = if read { K::DmaRead } else { K::DmaWrite };
                let attrs = [(A::Bytes, block_bytes * blocks), (A::Transfers, blocks)];
                t.span(dev, kind, start, end, attrs);
            }
            Obs::DescriptorFetch(id, bytes, start, end) => {
                let parent = open.parent_of(id, &self.tally);
                t.span(parent, K::DmaRead, start, end, [(A::Bytes, bytes)]);
            }
            Obs::Queued(..) => {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightConfig;
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
            (4, "hypervisor", "rewalk", 195, 205, &[("func", 3)]),
            (
                4,
                "core",
                "device_resume",
                210,
                230,
                &[("func", 3), ("blocks", 8)],
            ),
            (
                14,
                "pcie",
                "dma_write",
                210,
                220,
                &[("bytes", 1024), ("transfers", 2)],
            ),
            (
                14,
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
            (18, "hypervisor", "host_submit", 300, 310, &[]),
            (18, "pcie", "doorbell", 310, 320, &[]),
            (18, "core", "device_wait", 320, 330, &[]),
            (21, "core", "device", 320, 330, &[("blocks", 1)]),
            (18, "hypervisor", "host_complete", 330, 335, &[]),
            (
                0,
                "guest",
                "request",
                400,
                450,
                &[("disk", 1), ("bytes", 8192), ("write", 0), ("failed", 0)],
            ),
            (24, "guest", "guest_submit", 400, 410, &[]),
            (24, "virtio", "kick", 410, 420, &[]),
            (24, "hypervisor", "host_backend", 420, 430, &[]),
            (24, "core", "device_wait", 430, 440, &[]),
            (28, "core", "device", 431, 440, &[("blocks", 2)]),
            (24, "guest", "guest_complete", 440, 450, &[]),
            (
                0,
                "guest",
                "request",
                500,
                530,
                &[("disk", 1), ("bytes", 512), ("write", 1), ("failed", 1)],
            ),
            (31, "guest", "guest_submit", 500, 505, &[]),
            (31, "hypervisor", "trap_emulate", 505, 515, &[]),
            (31, "hypervisor", "host_backend", 515, 520, &[]),
            (31, "guest", "guest_complete", 520, 530, &[]),
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
                36,
                "core",
                "device",
                610,
                620,
                &[("func", 4), ("blocks", 1)],
            ),
            (
                37,
                "core",
                "device",
                620,
                640,
                &[("func", 4), ("blocks", 1)],
            ),
            (39, "core", "queue", 620, 625, &[]),
        ]
    }

    /// A completion as `(t, seq, disk, bytes, latency, root)`.
    type Done = (u64, u64, u32, u64, u64, u64);

    /// The window list the script leaves, by sequence id.
    const WANT_DONE: [Done; 6] = [
        (240, 5, 2, 4096, 140, 1),
        (335, 6, 0, 512, 35, 18),
        (450, 7, 1, 8192, 50, 24),
        (530, 8, 1, 512, 30, 31),
        (620, 9, 3, 1024, 20, 36),
        (640, 10, 3, 1024, 40, 37),
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
        rows: Vec<Span>,
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
                (r.rows(), notes.collect::<Vec<_>>())
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
        assert_eq!(
            out.done,
            WANT_DONE.map(|(t, s, d, b, l, _)| (t, s, d, b, l, 0))
        );
    }

    #[test]
    fn fold_table_under_every_setting() {
        let table = |spans: &[Span]| {
            let rows = spans.iter().map(|s| {
                let attrs: Vec<(&str, u64)> =
                    s.attrs.iter().map(|(k, v)| (k.as_str(), v)).collect();
                let (start, end) = (s.start.as_nanos(), s.end.as_nanos());
                (s.id.0, s.parent.0, s.layer(), s.name(), start, end, attrs)
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
        want.push((41, 0, "telemetry", "anomaly", 800, 1000, attrs));
        // With both channels off, completions and exemplars carry no root.
        let want_done = |on: bool| {
            let root = |r| if on { r } else { 0 };
            let done = WANT_DONE.map(|(t, s, d, b, l, r)| (t, s, d, b, l, root(r)));
            done.to_vec()
        };
        let notes = |on| {
            let notes = want_done(on).into_iter();
            notes
                .map(|(_, s, d, _, l, r)| (s, d, l, r))
                .collect::<Vec<_>>()
        };

        let settings = [(false, false), (true, false), (false, true), (true, true)];
        let [off, traced, recorded, both] = settings.map(|(t, r)| run(t, r));
        // The tally is the same under every setting, both channels off
        // included.
        for (out, (tracing, recording)) in
            [&off, &traced, &recorded, &both].into_iter().zip(settings)
        {
            assert_eq!(out.done, want_done(tracing || recording), "the window list");
            assert_eq!(out.queued, vec![3], "the one queued request's function");
            assert_eq!(out.totals, WANT_TOTALS.to_vec(), "the per-path totals");
            assert_eq!(out.rewalks, (1, 10), "one 10 ns rewalk");
            assert_eq!(out.device, WANT_DEVICE, "the device counters");
        }
        assert_eq!(table(&traced.spans), want, "tracing only: the span table");
        assert!(traced.rows.is_empty() && traced.notes.is_empty());
        assert_eq!(table(&recorded.rows), want, "recorder only: the same rows");
        assert_eq!(recorded.notes, notes(true), "exemplars name their roots");
        assert!(recorded.spans.is_empty(), "no rows for the tracer");
        // Each channel records the same whether or not the other is on.
        assert_eq!(table(&both.spans), want);
        assert_eq!(both.rows, both.spans, "the ring holds the span log's rows");
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
        assert_eq!(spans[0].attr(A::Blocks), Some(2));
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
