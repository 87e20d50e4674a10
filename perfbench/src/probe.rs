//! Measurements taken from outside the program: per-thread CPU time
//! and resident memory from `/proc/self`, allocated file sizes, and a
//! timing wrapper around the program's public `Device` trait.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blsm_storage::device::{Device, DeviceStats};
use blsm_storage::{Result, SharedDevice, PAGE_SIZE};

counters! {
    /// CPU time, in nanoseconds, of the program's named threads.
    pub struct ThreadCpu { reactor, committer, merge, accept }
}

impl ThreadCpu {
    /// Reads every thread of this process from `/proc/self/task`.
    pub fn now() -> ThreadCpu {
        let mut cpu = ThreadCpu::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return cpu;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            let slot = match comm.trim_end() {
                c if c.starts_with("blsm-reactor-") => &mut cpu.reactor,
                "blsm-committer" => &mut cpu.committer,
                "blsm-merge" => &mut cpu.merge,
                "blsm-accept" => &mut cpu.accept,
                _ => continue,
            };
            // schedstat's first field is nanoseconds spent on a CPU.
            let ns = std::fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0);
            *slot += ns;
        }
        cpu
    }

    pub fn total(&self) -> u64 {
        self.reactor + self.committer + self.merge + self.accept
    }
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes of disk blocks allocated to every file under `dir`.
pub fn allocated_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for e in entries.flatten() {
        let Ok(meta) = e.metadata() else { continue };
        if meta.is_dir() {
            total += allocated_bytes(&e.path());
        } else {
            total += meta.blocks() * 512;
        }
    }
    total
}

counters! {
    /// Plain-value snapshot of a [`TimedDevice`]'s counters. `page_reads`
    /// counts reads of exactly one page: the point-read path (merge
    /// streams and scrub read many pages per call).
    pub struct IoCounts {
        page_reads, read_bytes, read_ns, write_bytes, write_ns, syncs,
    }
}

/// Switch shared by every [`TimedDevice`] of a run: while off, the
/// wrapper forwards each call untouched.
pub type TraceSwitch = Arc<AtomicBool>;

#[derive(Debug, Default)]
struct AtomicIo {
    // ordering: Relaxed — statistics only; snapshots tolerate skew.
    page_reads: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
    write_bytes: AtomicU64,
    write_ns: AtomicU64,
    syncs: AtomicU64,
}

/// A [`Device`] that counts and times every call it forwards.
pub struct TimedDevice {
    inner: SharedDevice,
    on: TraceSwitch,
    io: AtomicIo,
    /// Duration of every traced sync, microseconds.
    sync_us: Mutex<Vec<u32>>,
}

impl std::fmt::Debug for TimedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedDevice").finish_non_exhaustive()
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

impl TimedDevice {
    pub fn new(inner: SharedDevice, on: TraceSwitch) -> TimedDevice {
        TimedDevice {
            inner,
            on,
            io: AtomicIo::default(),
            sync_us: Mutex::new(Vec::new()),
        }
    }

    fn tracing(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn counts(&self) -> IoCounts {
        let r = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let io = &self.io;
        IoCounts {
            page_reads: r(&io.page_reads),
            read_bytes: r(&io.read_bytes),
            read_ns: r(&io.read_ns),
            write_bytes: r(&io.write_bytes),
            write_ns: r(&io.write_ns),
            syncs: r(&io.syncs),
        }
    }

    /// Sync durations recorded so far (microseconds).
    pub fn sync_samples(&self) -> Vec<u32> {
        self.sync_us.lock().map(|v| v.clone()).unwrap_or_default()
    }
}

impl Device for TimedDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if !self.tracing() {
            return self.inner.read_at(offset, buf);
        }
        let t = Instant::now();
        let out = self.inner.read_at(offset, buf);
        bump(&self.io.read_ns, elapsed_ns(t));
        bump(&self.io.page_reads, u64::from(buf.len() == PAGE_SIZE));
        bump(&self.io.read_bytes, buf.len() as u64);
        out
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        if !self.tracing() {
            return self.inner.write_at(offset, buf);
        }
        let t = Instant::now();
        let out = self.inner.write_at(offset, buf);
        bump(&self.io.write_ns, elapsed_ns(t));
        bump(&self.io.write_bytes, buf.len() as u64);
        out
    }

    fn sync(&self) -> Result<()> {
        if !self.tracing() {
            return self.inner.sync();
        }
        let t = Instant::now();
        let out = self.inner.sync();
        let ns = elapsed_ns(t);
        bump(&self.io.syncs, 1);
        if let Ok(mut v) = self.sync_us.lock() {
            v.push(u32::try_from(ns / 1000).unwrap_or(u32::MAX));
        }
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}
