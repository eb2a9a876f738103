//! Process-level readings: CPU time and context switches from
//! `getrusage(RUSAGE_SELF)` (which, unlike `/proc/self/task`, keeps the
//! usage of threads that already exited), RSS and thread count from
//! `/proc/self/status`.

use std::path::Path;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;

/// One reading of the process's cumulative resource use.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time, microseconds.
    pub cpu_us: u64,
    /// Voluntary context switches (a thread blocked: hand-off or syscall).
    pub voluntary_ctxsw: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes requested.
    pub alloc_bytes: u64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Usage {
        let mut raw = RUsage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `raw` is a valid, writable `struct rusage` for this
        // platform and `getrusage` writes nothing beyond it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        let (allocs, alloc_bytes) = crate::alloc::totals();
        if rc != 0 {
            return Usage { allocs, alloc_bytes, ..Usage::default() };
        }
        let micros = |t: &Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
        Usage {
            cpu_us: micros(&raw.utime) + micros(&raw.stime),
            voluntary_ctxsw: raw.longs[NVCSW].max(0) as u64,
            allocs,
            alloc_bytes,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
            voluntary_ctxsw: self.voluntary_ctxsw.saturating_sub(earlier.voluntary_ctxsw),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
        }
    }
}

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Resident set size in KiB (0 when `/proc` is unreadable).
pub fn rss_kib() -> u64 {
    status_field("VmRSS:").unwrap_or(0)
}

/// Live threads in this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}
