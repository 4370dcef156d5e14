//! Process-level measurements: CPU time and peak resident memory.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// User + system CPU time consumed so far by every thread of this
/// process (the in-process server and matrix workers included).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Return freed heap to the kernel and reset the kernel's peak-RSS mark
/// to the current RSS, so the next [`peak_rss_mb`] reading is the peak of
/// what ran since, not of heap an earlier pass left mapped. Returns false
/// when the kernel refuses the reset (the reading is then the process
/// peak).
pub fn reset_peak_rss() -> bool {
    // SAFETY: glibc's malloc_trim takes a padding size and only releases
    // free heap pages; no pointer or allocator invariant is involved.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}
