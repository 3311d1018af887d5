//! Process-level measurements taken from outside the program: `/proc/self`
//! and a counting global allocator that is switched on only for traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while [`count_allocations`] is on; otherwise adds one
/// relaxed load to each call.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` and `layout` come from `System`; `new_size` is the
        // caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// (allocations, bytes requested) counted so far.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

fn status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU time of the whole process so far, in microseconds.
/// `/proc/self/stat` counts in clock ticks, which Linux fixes at 100 per
/// second for user space.
pub fn cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after it.
    let after = stat.rsplit_once(") ").map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

/// Voluntary + involuntary context switches summed over the live threads.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_us();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(
            cpu_us() >= before + 20_000,
            "60 ms of spinning is ≥ 2 ticks"
        );
        assert!(context_switches() > 0);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(2048));
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(s, "VmRSS"), None);
    }
}
