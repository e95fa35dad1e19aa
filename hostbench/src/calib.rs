//! Host-speed calibration: a fixed, benchmark-owned reference job timed
//! every so often between rounds.
//!
//! The benchmark shares its machine, and the machine's speed drifts by
//! tens of percent over seconds (neighbours' cache and memory traffic,
//! not lost CPU time). The reference job has the simulator's kind of
//! work — ordered-map updates, hashing, and block copies over a working
//! set of a few MiB — so it slows down with the simulator. Dividing the
//! times measured between two calibrations by the reference time taken at
//! both ends cancels most of the drift; the quotient is scaled back to
//! time at the reference's nominal speed. The job lives here, not in the
//! simulator, so no change to the simulator can move it.
//!
//! Each calibration runs the job twice and times only the second pass,
//! so the timed pass finds its own data in cache whatever the simulator
//! left behind, and its time follows the host rather than the state of
//! the simulator. Calibrations are spaced [`CALIBRATE_EVERY`] apart, so
//! only the first round after one starts with a cache the job flushed.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host nanoseconds the warm reference job takes on the 2.1 GHz Xeon
/// host the benchmark was tuned on, when that host is quiet: the speed
/// calibrated figures are expressed at.
const NOMINAL_NS: f64 = 1.42e6;

/// Least measuring time between two calibrations.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// Collects host times into series and converts them to time at the
/// nominal host speed. Times recorded between two calibrations share the
/// factor taken from the reference runs at both ends.
pub struct Clock {
    reference: Reference,
    last: f64,
    since: Instant,
    pending: Vec<(usize, f64)>,
    /// Recorded times at nominal speed, by series.
    pub nominal: Vec<Vec<f64>>,
    /// The same times as measured, by series.
    pub raw: Vec<Vec<f64>>,
    /// Host nanoseconds of each timed reference run.
    pub reference_ns: Vec<f64>,
}

impl Clock {
    pub fn new(series: usize) -> Self {
        let mut reference = Reference::new();
        let last = reference.warm_time();
        Clock {
            reference,
            last,
            since: Instant::now(),
            pending: Vec::new(),
            nominal: vec![Vec::new(); series],
            raw: vec![Vec::new(); series],
            reference_ns: vec![last],
        }
    }

    /// Records a host time measured since the last calibration.
    pub fn record(&mut self, series: usize, value: f64) {
        self.raw[series].push(value);
        self.pending.push((series, value));
    }

    /// Calibrates if [`CALIBRATE_EVERY`] has passed since the last time.
    pub fn tick(&mut self) {
        if self.since.elapsed() >= CALIBRATE_EVERY {
            self.calibrate();
        }
    }

    /// Runs the reference job and converts every pending time.
    pub fn calibrate(&mut self) {
        let now = self.reference.warm_time();
        let factor = 2.0 * NOMINAL_NS / (self.last + now);
        self.last = now;
        self.reference_ns.push(now);
        for (series, value) in self.pending.drain(..) {
            self.nominal[series].push(value * factor);
        }
        self.since = Instant::now();
    }
}

/// The reference job's state, allocated once so every run of it does
/// the same work.
struct Reference {
    map: BTreeMap<u64, u64>,
    hash: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    blocks: Vec<u8>,
    scratch: Vec<u8>,
    state: u64,
}

impl Reference {
    fn new() -> Self {
        let mut r = Reference {
            map: BTreeMap::new(),
            hash: HashMap::default(),
            blocks: vec![0x5A; 4 << 20],
            scratch: vec![0; 32 << 10],
            state: 0x2545_F491_4F6C_DD1D,
        };
        for _ in 0..20_000 {
            let k = r.next() % 65_536;
            r.map.insert(k, k);
            r.hash.insert(k, k);
        }
        r
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Runs the job once untimed, to bring its data into cache, then
    /// again; returns the second run's host nanoseconds.
    fn warm_time(&mut self) -> f64 {
        self.run();
        let start = Instant::now();
        self.run();
        start.elapsed().as_nanos() as f64
    }

    fn run(&mut self) {
        for _ in 0..2_000 {
            let k = self.next() % 65_536;
            match self.map.remove(&k) {
                Some(v) => {
                    self.map.insert(k ^ 1, v.wrapping_add(1));
                }
                None => {
                    self.map.insert(k, k);
                }
            }
            *self.hash.entry(k).or_insert(0) += 1;
            let len = 1024 << (k % 5);
            let at = (self.next() as usize) % (self.blocks.len() - len);
            self.scratch[..len].copy_from_slice(&self.blocks[at..at + len]);
            let back = (self.next() as usize) % (self.blocks.len() - len);
            self.blocks[back..back + len].copy_from_slice(&self.scratch[..len]);
        }
        black_box(&self.scratch);
    }
}
