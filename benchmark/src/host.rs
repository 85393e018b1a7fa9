//! The host side of the instrument: core pinning, the ALU probe, CPU
//! clocks, resident-set readings and the counting allocator.
//!
//! Everything here exists because of measured noise on the 2-vCPU shared VM
//! the benchmark was designed on (see `README.md`): identical code flips
//! between 1.00x and ~1.30x duration for seconds at a time, and a
//! cross-thread wake-up costs 2.3 us on one core but up to 38 us across two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The probe is two fixed loops timed as one: a register-only xorshift64
/// dependency chain (latency-bound: it slows when a neighbour on the
/// physical core competes for the ALUs) and in-place additions streamed over
/// an L2-resident buffer (throughput-bound: it slows when a neighbour
/// competes for load/store bandwidth, which the chain does not notice).
/// Measured on the design host, the chain alone left a regime in which it
/// ran at full speed while every workload ran 13 % slow; the two loops at
/// these lengths (one fifth chain, four fifths stream on the reference
/// core) track all five workloads to within 1-3 % across regimes.
const PROBE_CHAIN_ITERS: u64 = 140_000;
const PROBE_STREAM_WORDS: usize = 64 * 1024;
const PROBE_STREAM_PASSES: u64 = 107;

/// Duration of one probe on the reference core: 1.5 ns per chain iteration
/// and 7.85 us per pass over the 512 KiB buffer. A constant of the
/// instrument, never derived from the run, so that numbers from different
/// runs, commits and hosts share one scale.
pub const PROBE_REF_NS: f64 = 1_050_000.0;

static PROBE_BUFFER: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Pin the calling thread — and so every thread spawned after it, by the
/// benchmark or by the library — to the last CPU of the affinity mask.
/// Coordinator, workers and load generator then share one core: wake-ups
/// stay on-core and wall time of a saturated block is CPU time of that core.
pub fn pin_to_last_core() -> bool {
    anthill_poller::bind_to_core(anthill_poller::available_cores().saturating_sub(1))
}

/// One probe; returns its duration in nanoseconds.
#[inline(never)]
pub fn probe_ns() -> f64 {
    let mut buffer = PROBE_BUFFER
        .lock()
        .expect("the probe never panics while holding its buffer");
    if buffer.is_empty() {
        buffer.resize(PROBE_STREAM_WORDS, 1);
    }
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..PROBE_CHAIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    for pass in 0..PROBE_STREAM_PASSES {
        for word in buffer.iter_mut() {
            *word = word.wrapping_add(pass);
        }
        std::hint::black_box(&mut *buffer);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // every Linux target) that outlives the call; `clock` is one of the two
    // POSIX CPU-time clock ids above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Reset the kernel's peak-RSS watermark so `VmHWM` covers only what
/// follows (the measured phase, not set-up). Returns whether it took.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set since the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Allocation calls and bytes since process start.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn now() -> AllocSnapshot {
        AllocSnapshot {
            calls: ALLOC_CALLS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

// Statistics only: the counters publish no other data, so Relaxed suffices.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters, so a traced run can report
/// allocations per task for code it only sees from outside.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let spent = probe_ns();
        let (p1, t1) = (process_cpu_ns(), thread_cpu_ns());
        assert!(spent > 0.0);
        assert!(p1 > p0 && t1 > t0);
    }
}
