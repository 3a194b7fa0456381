//! Process and host readings (CPU time, memory high-water marks, steal),
//! the allocation-call counter, and the order statistics every metric is
//! built from. Linux `/proc` only; std only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, fixed
/// at 100 by the Linux user ABI).
const USER_HZ: u64 = 100;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// CPU time of the whole process, user + system, in nanoseconds. Counts
/// every thread, including threads that have already exited (the engine
/// spawns and joins its shard threads on every run).
pub fn process_cpu_ns() -> u64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are at offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks * (1_000_000_000 / USER_HZ)
}

/// CPU time of the calling thread in nanoseconds (scheduler accounting,
/// nanosecond resolution).
pub fn thread_cpu_ns() -> u64 {
    let s = read("/proc/thread-self/schedstat");
    s.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat run time")
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn status_bytes(field: &str) -> u64 {
    let status = read("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kb: u64 = line[field.len() + 1..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("status value");
    kb * 1024
}

/// Host-wide `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`.
pub fn host_steal_total() -> (u64, u64) {
    let stat = read("/proc/stat");
    let line = stat.lines().next().expect("/proc/stat cpu line");
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().expect("cpu field"))
        .collect();
    (v[7], v.iter().sum())
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_steal_total`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The benchmark binary's global allocator: the system allocator, plus
/// live and peak heap bytes, plus a count of allocation calls (`alloc`,
/// `alloc_zeroed`, `realloc`) while counting is switched on. The
/// workspace's `CountingAllocator` tracks bytes only; the ledger also
/// wants calls.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Relaxed throughout: statistics that publish no other data.
#[inline]
fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        grow(layout.size());
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        grow(layout.size());
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded under the caller's `GlobalAlloc::dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // Both blocks may be live while the contents move.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: forwarded under the caller's `GlobalAlloc::realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return its result with the number of allocation calls any
/// thread made meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, CALLS.load(Ordering::Relaxed))
}

/// Start a new heap high-water mark at the current live bytes; returns
/// them.
pub fn heap_peak_reset() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Heap high-water mark since the last [`heap_peak_reset`], in bytes.
pub fn heap_peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median (nearest-rank) of `values`.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Interquartile mean of `values`: the mean of the middle half, with
/// the lowest and the highest quarter dropped; 0 when empty.
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    mean(&v[q..v.len() - q])
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}
