//! Process CPU time, from `getrusage(2)`, peak memory, from the
//! process's own `/proc/self/status`, and pinning to one core, with
//! `sched_setaffinity(2)`.
//!
//! The C library is already linked by `std` on Linux, so the calls need
//! no extra crate. Peak memory does not come from `ru_maxrss`: Linux
//! carries that value across `execve`, so a process started by a large
//! parent (`cargo run`) would report the parent's footprint. `VmHWM` is
//! the high-water mark of this process image alone.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// Linux `struct rusage`: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// `ru_maxrss` and the thirteen other counters, unused here.
    rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

/// Linux `cpu_set_t`: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the highest-numbered core it may run on now. Returns that core, or
/// `None` if the affinity could not be read or set (the run then goes on
/// unpinned).
pub fn pin_to_one_core() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread; the call writes only inside it.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return None;
    }
    let core = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a live buffer of `size` bytes naming one core the
    // thread may already run on; the call only reads it.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(core)
}

/// User plus system CPU time of every thread of the process so far, in
/// microseconds.
pub fn cpu_us() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the Linux
    // layout (two `timeval`s of two `long`s, then fourteen `long`s), and
    // RUSAGE_SELF is a valid `who`; the call writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| t.tv_sec as f64 * 1e6 + t.tv_usec as f64;
    us(&ru.ru_utime) + us(&ru.ru_stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_us();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_us() > before);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }

    #[test]
    fn pinning_leaves_one_allowed_core() {
        // In a thread of its own, so the test harness's other threads
        // keep their cores.
        std::thread::spawn(|| {
            let core = pin_to_one_core().expect("affinity can be set");
            assert!(core < 1024);
            assert_eq!(host_cores(), 1);
        })
        .join()
        .expect("pinned thread panicked");
    }
}
