//! A host-speed reference, so that CPU-bound timings are stated at one
//! speed.
//!
//! The benchmark host shares its cores with other tenants, and their load
//! changes how fast this process runs by up to half, over spells of
//! seconds to minutes, without showing as steal time: CPU time grows with
//! wall time. On the baseline host, single Test5 routes of one design
//! spread 0.15–0.25 (interquartile distance over median) for this reason
//! alone, and medians of five consecutive routes no less, because a slow
//! spell outlasts them.
//!
//! A [`HostClock`] pins the calling thread to one CPU and starts a sampler
//! thread pinned to the same CPU. Every [`INTERVAL`] the sampler wakes,
//! preempts the work for about 2 ms and runs the [`Kernel`] once, timed,
//! so the host's speed is sampled on the work's own core throughout the
//! work. An [`Interval`] of work is timed by the CPU time of its thread,
//! which leaves out the sampler's turns, and [`HostSpeed::at_reference`]
//! scales it to the speed at which the kernel takes [`REFERENCE_S`],
//! using the kernel times sampled during it. A change to the program
//! moves the scaled time exactly as it moves the raw one, because the
//! kernel runs no code of the program; a change of host speed moves the
//! work and the kernel together and mostly cancels.
//!
//! What the baseline host showed, over 50 routes of ten designs with the
//! design's own mean taken out (spread of route CPU time over kernel
//! time; raw: 0.16):
//!
//! - the kernel's heap-and-map half alone slowed less than routes, by a
//!   factor that itself changed from run to run (log slope 1.6–2.9):
//!   spread 0.08–0.13;
//! - its random-increment half alone, over tables of 1 to 32 MB, slowed
//!   about as much as routes (slope 0.8–0.9), spread 0.08–0.10; chasing
//!   pointers through 64 MB did not slow at all;
//! - the two together tracked routes best (slope 0.8–0.9, correlation
//!   0.91): spread 0.04–0.06;
//! - timing the kernel only before and after each route, or sampling on
//!   the other core, did no better than the heap-and-map half: the two
//!   cores change speed independently, and a route's speed changes
//!   within it.

use crate::{median, metric, Metric};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed: a round value near its
/// median over the baseline runs (`host.kernel_ms` in `BASELINE.json`).
/// Scaled timings of two commits compare only under one value.
pub const REFERENCE_S: f64 = 0.0015;

/// Time between two kernel samples.
pub const INTERVAL: Duration = Duration::from_millis(100);

/// Kernel samples behind the speed of an interval too short to hold
/// this many: the ones nearest to its middle.
const MIN_SAMPLES: usize = 9;

/// Keys pushed through the heap and counted in the map per kernel run.
const KEYS: u64 = 7_500;

/// Distinct keys of the map.
const DISTINCT: u64 = 750;

/// Entries of the kernel's table: 4 MB, twice the per-core cache of the
/// baseline host.
const TABLE: usize = 1 << 20;

/// Random increments into the table per kernel run.
const INCREMENTS: u64 = 80_000;

/// The host-speed kernel. One run pushes fixed pseudo-random keys
/// through a binary heap and counts them in a hash map (the operations a
/// maze search and a coloring pass are made of), then adds to random
/// entries of a table larger than the core's cache (the scattered reads
/// and writes of a router's grid and ledger). It runs no code of the
/// program.
#[derive(Debug)]
pub struct Kernel {
    table: Vec<u32>,
    runs: u64,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel {
            table: vec![0; TABLE],
            runs: 0,
        }
    }
}

impl Kernel {
    /// One run; returns a checksum so the work cannot be optimized away.
    pub fn run(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut heap = BinaryHeap::new();
        for _ in 0..KEYS {
            heap.push(next() % 1_000_000);
        }
        let mut sum = 0u64;
        while let Some(v) = heap.pop() {
            sum = sum.wrapping_add(v);
        }
        let mut counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for _ in 0..KEYS {
            *counts.entry(next() % DISTINCT).or_default() += 1;
        }
        // Each run increments other entries, so the table is not left
        // cached from the run before.
        self.runs += 1;
        let mut y = self.runs.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        for _ in 0..INCREMENTS {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            let entry = &mut self.table[(y % TABLE as u64) as usize];
            *entry = entry.wrapping_add(1);
            sum = sum.wrapping_add(u64::from(*entry));
        }
        sum.wrapping_add(counts.len() as u64)
    }
}

/// A stretch of work on one thread: when it ran, and the CPU time the
/// thread used in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// When it started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
    /// The thread's CPU time between the two.
    pub cpu: Duration,
}

impl Interval {
    /// Its wall-clock length.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

/// Runs `f` on the calling thread and times it.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let (start, cpu) = (Instant::now(), thread_cpu());
    let out = f();
    let interval = Interval {
        cpu: thread_cpu().saturating_sub(cpu),
        end: Instant::now(),
        start,
    };
    (out, interval)
}

/// CPU time the calling thread has used.
fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and the
    // clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    Duration::new(
        u64::try_from(ts.sec).unwrap_or(0),
        u32::try_from(ts.nsec).unwrap_or(0),
    )
}

/// The CPU affinity of the calling thread.
mod affinity {
    /// Room for 1024 CPUs, as glibc's `cpu_set_t`.
    const BYTES: usize = 128;

    /// A CPU mask.
    pub type CpuSet = [u8; BYTES];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    /// The calling thread's mask, if the system gives it.
    pub fn get() -> Option<CpuSet> {
        let mut mask = [0u8; BYTES];
        // SAFETY: `mask` is `BYTES` writable bytes, the size passed; pid
        // 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, BYTES, mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's mask; whether the system accepted it.
    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is `BYTES` readable bytes, the size passed; pid
        // 0 names the calling thread.
        unsafe { sched_setaffinity(0, BYTES, mask.as_ptr()) == 0 }
    }

    /// The mask holding only the highest CPU of `mask`.
    pub fn last(mask: &CpuSet) -> Option<CpuSet> {
        let cpu = (0..BYTES * 8)
            .rev()
            .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = [0u8; BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        Some(one)
    }
}

/// `(midpoint in seconds since the clock started, kernel seconds)`.
type Sample = (f64, f64);

/// The calling thread pinned to one CPU, with a sampler thread pinned to
/// the same CPU timing a [`Kernel`] run every [`INTERVAL`].
///
/// Where the system does not let threads be pinned, both run unpinned
/// and the samples come from whichever core the sampler lands on.
#[derive(Debug)]
pub struct HostClock {
    origin: Instant,
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    /// The calling thread's mask before it was pinned.
    restore: Option<affinity::CpuSet>,
}

impl HostClock {
    /// Pins the calling thread to the highest CPU it may run on and
    /// starts the sampler there.
    #[must_use]
    pub fn start() -> HostClock {
        let restore = affinity::get();
        let pin = restore.as_ref().and_then(affinity::last);
        if let Some(pin) = &pin {
            affinity::set(pin);
        }
        let origin = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                if let Some(pin) = &pin {
                    affinity::set(pin);
                }
                let mut kernel = Kernel::default();
                // `stop` publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(INTERVAL);
                    let t = Instant::now();
                    black_box(kernel.run());
                    let end = Instant::now();
                    let mid = ((t - origin) + (end - origin)).as_secs_f64() / 2.0;
                    samples
                        .lock()
                        .expect("only this thread writes the samples")
                        .push((mid, (end - t).as_secs_f64()));
                }
            })
        };
        HostClock {
            origin,
            samples,
            stop,
            sampler: Some(sampler),
            restore,
        }
    }

    /// Stops the sampler, unpins the calling thread and returns the
    /// samples.
    ///
    /// # Panics
    ///
    /// The sampler thread panicked.
    #[must_use]
    pub fn finish(mut self) -> HostSpeed {
        self.halt().expect("the sampler thread runs to its stop");
        let samples = std::mem::take(
            &mut *self
                .samples
                .lock()
                .expect("the sampler has stopped without panicking"),
        );
        HostSpeed {
            origin: Some(self.origin),
            samples,
        }
    }

    fn halt(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        let joined = self.sampler.take().map_or(Ok(()), JoinHandle::join);
        if let Some(mask) = self.restore.take() {
            affinity::set(&mask);
        }
        joined
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        // An early return still stops the sampler; its panic, if any, is
        // reported by `finish` on every other path.
        let _ = self.halt();
    }
}

/// The kernel samples of one [`HostClock`]. The default holds none and
/// scales nothing: [`HostSpeed::at_reference`] then gives raw CPU time.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    origin: Option<Instant>,
    samples: Vec<Sample>,
}

impl HostSpeed {
    /// Kernel samples taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The median kernel time of the whole clock, in seconds (0 without
    /// samples).
    #[must_use]
    pub fn kernel_median(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The kernel time during `interval`: the median of the samples taken
    /// in it, or of the [`MIN_SAMPLES`] nearest to its middle when it
    /// holds fewer. [`REFERENCE_S`] without samples.
    fn kernel_during(&self, interval: &Interval) -> f64 {
        let Some(origin) = self.origin.filter(|_| !self.samples.is_empty()) else {
            return REFERENCE_S;
        };
        let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
        let (start, end) = (at(interval.start), at(interval.end));
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| (start..=end).contains(&s.0))
            .map(|s| s.1)
            .collect();
        if inside.len() >= MIN_SAMPLES {
            return median(&inside);
        }
        let mid = (start + end) / 2.0;
        let mut near = self.samples.clone();
        near.sort_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()));
        near.truncate(MIN_SAMPLES);
        median(&near.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// `interval`'s CPU time in seconds, at the reference speed.
    #[must_use]
    pub fn at_reference(&self, interval: &Interval) -> f64 {
        interval.cpu.as_secs_f64() * REFERENCE_S / self.kernel_during(interval)
    }

    /// Every interval's CPU time in seconds, at the reference speed.
    #[must_use]
    pub fn scale(&self, intervals: &[Interval]) -> Vec<f64> {
        intervals.iter().map(|i| self.at_reference(i)).collect()
    }

    /// The record-only metrics that show what the scaling did: the raw
    /// wall-clock median of the operations `ops`, and the median kernel
    /// time.
    #[must_use]
    pub fn metrics(&self, ops: &[Interval]) -> [Metric; 2] {
        let walls: Vec<f64> = ops.iter().map(|i| i.wall().as_secs_f64()).collect();
        [
            metric("op_wall_p50_ms", median(&walls) * 1e3, "ms"),
            metric("host.kernel_ms", self.kernel_median() * 1e3, "ms"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_the_same_work() {
        let (mut a, mut b) = (Kernel::default(), Kernel::default());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.run(), b.run());
    }

    fn at(origin: Instant, s: f64) -> Instant {
        origin + Duration::from_secs_f64(s)
    }

    #[test]
    fn scaling_uses_the_samples_taken_during_the_interval() {
        let origin = Instant::now();
        // The host runs at the reference speed for 2 s, then at half.
        let samples = (1..=40)
            .map(|i| {
                let t = f64::from(i) * 0.1;
                let slowdown = if t <= 2.0 { 1.0 } else { 2.0 };
                (t, slowdown * REFERENCE_S)
            })
            .collect();
        let speed = HostSpeed {
            origin: Some(origin),
            samples,
        };
        let interval = |from: f64, to: f64, cpu: f64| Interval {
            start: at(origin, from),
            end: at(origin, to),
            cpu: Duration::from_secs_f64(cpu),
        };
        // 1.5 s of CPU in the fast spell is 1.5 s at the reference...
        let fast = speed.at_reference(&interval(0.2, 1.8, 1.5));
        assert!((fast - 1.5).abs() < 1e-9, "{fast}");
        // ...and the same work in the slow spell, twice as long, too.
        let slow = speed.at_reference(&interval(2.2, 3.9, 3.0));
        assert!((slow - 1.5).abs() < 1e-9, "{slow}");
        // A short interval takes the samples nearest to its middle.
        let short = speed.at_reference(&interval(3.5, 3.52, 0.02));
        assert!((short - 0.01).abs() < 1e-9, "{short}");
    }

    #[test]
    fn without_samples_nothing_is_scaled() {
        let now = Instant::now();
        let interval = Interval {
            start: now,
            end: now,
            cpu: Duration::from_millis(7),
        };
        let raw = HostSpeed::default().at_reference(&interval);
        assert!((raw - 0.007).abs() < 1e-12);
    }

    #[test]
    fn the_clock_samples_and_times_cpu() {
        let clock = HostClock::start();
        let ((), spent) = time(|| {
            let until = Instant::now() + 3 * INTERVAL;
            while Instant::now() < until {
                black_box(Kernel::default().run());
            }
        });
        let speed = clock.finish();
        assert!(!speed.is_empty());
        assert!(speed.kernel_median() > 0.0);
        assert!(spent.cpu > Duration::ZERO && spent.cpu <= spent.wall());
        assert!(speed.at_reference(&spent) > 0.0);
    }
}
