//! The handful of kernel interfaces the benchmark needs that the sampler
//! crates do not expose: page-cache eviction, process CPU time, the
//! process's physical read counter and its peak resident set.
//!
//! `posix_fadvise` and `getrusage` are declared here directly so the
//! benchmark depends on no binding crate.

use std::fs::File;
use std::os::unix::io::AsRawFd;
use std::path::Path;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` (Linux 64-bit layout: two timevals, then 14 longs).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const POSIX_FADV_DONTNEED: i32 = 4;

extern "C" {
    fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Flushes `path` to the device and drops its pages from the page cache,
/// so the next reads of it come from the device.
///
/// # Errors
/// Fails if the file cannot be opened or synced, or if the kernel
/// rejects the advice.
pub fn evict(path: &Path) -> Result<(), String> {
    // Dirty pages survive DONTNEED; write them back first.
    let f = flush(path)?;
    // SAFETY: the descriptor is open for the duration of the call; offset
    // 0 with length 0 means "to the end of the file".
    let rc = unsafe { posix_fadvise(f.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
    if rc != 0 {
        return Err(format!("posix_fadvise {}: error {rc}", path.display()));
    }
    Ok(())
}

/// Writes `path`'s dirty pages back to the device (they stay cached).
///
/// # Errors
/// Fails if the file cannot be opened or synced.
pub fn flush(path: &Path) -> Result<File, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    f.sync_all()
        .map_err(|e| format!("sync {}: {e}", path.display()))?;
    Ok(f)
}

/// Process-wide CPU time consumed so far, as `(user, sys)` seconds.
pub fn cpu_times() -> (f64, f64) {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable out-parameter of the declared layout.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return (0.0, 0.0);
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (secs(&ru.ru_utime), secs(&ru.ru_stime))
}

/// Bytes this process has caused to be fetched from storage
/// (`read_bytes` in `/proc/self/io`); 0 when procfs is unavailable.
pub fn read_bytes() -> u64 {
    ringstat::proc_io_now().0
}

fn status_kib(key: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Current resident set in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// Peak resident set in bytes since the last [`reset_peak_rss`].
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

/// Resets the peak-RSS watermark to the current RSS.
///
/// # Errors
/// Fails where `/proc/self/clear_refs` is not writable.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}
