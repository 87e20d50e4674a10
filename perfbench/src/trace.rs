//! Counter snapshots and the traced run's sampler.
//!
//! In a traced run the window is cut into slices; odd slices are
//! traced. At the edges of each traced slice the sampler snapshots the
//! engine counters (`TreeStatsSnapshot`), the buffer pools, the timing
//! device wrappers, the CPU time of the program's threads and the STATS
//! frame's admission counters. Inside it, every tick it samples each
//! shard's backpressure level and times direct calls on the
//! `ShardedReadView` (a `get` or a `scan`, see `SECONDARY_EVERY`): the
//! engine's own read time, without the wire. Even slices run untraced, so the load streams' throughput
//! in the two kinds of slice gives the tracing overhead.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use blsm::{BLsmConfig, BackpressureLevel, ShardedReadView};
use blsm_server::{Request, Response};

use crate::check::Ledger;
use crate::gen::{self, Rng};
use crate::probe::{IoCounts, ThreadCpu, TraceSwitch};
use crate::store::Running;
use crate::wire::{Conn, Window};

counters! {
    /// The engine counters the benchmark reads, summed over shards.
    pub struct Eng {
        gets, writes, disk_probes, bloom_skips, user_bytes_written,
        merge_bytes_consumed, merges01, merges12, forced_stalls,
        commit_groups, commit_group_writes, fsync_micros_total,
        pool_hits, pool_misses, pool_evictions,
        dev_bytes_written,
    }
}

counters! {
    /// The STATS frame's admission counters.
    pub struct Adm { admitted, delayed, rejected }
}

/// Engine, pool and device counters plus thread CPU, all read through
/// public interfaces.
pub fn engine_counters(run: &Running) -> (Eng, ThreadCpu) {
    let mut e = Eng::default();
    for s in run.view.shard_stats().into_iter().flatten() {
        e.add(&Eng {
            gets: s.gets,
            writes: s.writes,
            disk_probes: s.disk_probes,
            bloom_skips: s.bloom_skips,
            user_bytes_written: s.user_bytes_written,
            merge_bytes_consumed: s.merge_bytes_consumed,
            merges01: s.merges01,
            merges12: s.merges12,
            forced_stalls: s.forced_stalls,
            commit_groups: s.commit_groups,
            commit_group_writes: s.commit_group_writes,
            fsync_micros_total: s.fsync_micros_total,
            ..Eng::default()
        });
    }
    for p in &run.pools {
        let s = p.stats();
        e.pool_hits += s.hits;
        e.pool_misses += s.misses;
        e.pool_evictions += s.evictions;
    }
    for d in run.data.iter().chain(&run.wal) {
        e.dev_bytes_written += d.stats().bytes_written;
    }
    (e, ThreadCpu::now())
}

/// What the sampler measured over the traced slices.
#[derive(Debug, Default)]
pub struct Traced {
    pub eng: Eng,
    pub cpu: ThreadCpu,
    pub data: IoCounts,
    pub wal: IoCounts,
    pub adm: Adm,
    pub secs: f64,
    /// Direct engine call latencies, ns.
    pub get_ns: Vec<u64>,
    pub scan_ns: Vec<u64>,
    /// Backpressure samples: idle, paced, saturated; and the summed
    /// `C0` fill estimate.
    pub levels: [u64; 3],
    pub fill_sum: f64,
    /// Rows each direct scan touched, per shard, and shards per scan.
    pub scan_shards: u64,
    pub rows_per_shard: Vec<u64>,
    /// Direct answers the checker rejected.
    pub bad: u64,
    pub first_errors: Vec<String>,
}

/// Inputs of the sampler.
#[derive(Debug)]
pub struct Sampler<'a> {
    pub run: &'a Running,
    pub ledger: &'a Ledger,
    /// Direct gets and scans start at ids uniform in `0..probe_n`.
    pub probe_n: u64,
    /// Direct scans cover `scan_span` ids, up to `scan_limit` rows.
    pub scan_span: u64,
    pub scan_limit: u32,
    /// True when the workload's own reads are scans: then every tick
    /// times a scan and every tenth a get; otherwise the reverse.
    pub scans_first: bool,
    pub switch: TraceSwitch,
    /// Control connection carrying STATS frames only.
    pub ctl: Conn,
    pub rng: Rng,
}

/// Sampling period inside a traced slice.
const TICK: Duration = Duration::from_millis(5);
/// The read kind the workload does not issue itself is timed only every
/// this many ticks, so the sampler's own load is mostly of the workload's
/// kind.
const SECONDARY_EVERY: u64 = 10;

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Estimated `C0` fill fraction behind a backpressure level. Inside the
/// band the level carries the position exactly; below the low mark the
/// midpoint of `[0, low)` stands in, at the high mark the mark itself.
fn fill_estimate(level: BackpressureLevel) -> f64 {
    let c = BLsmConfig::default();
    match level {
        BackpressureLevel::Idle => c.low_water / 2.0,
        BackpressureLevel::Paced(_) => {
            c.low_water + level.fraction() * (c.high_water - c.low_water)
        }
        BackpressureLevel::Saturated => c.high_water,
    }
}

impl Sampler<'_> {
    fn admission(&mut self) -> Result<Adm, String> {
        match self.ctl.call(&Request::Stats).map_err(|e| e.to_string())? {
            Response::Stats(s) => Ok(Adm {
                admitted: s.admitted,
                delayed: s.delayed,
                rejected: s.rejected,
            }),
            other => Err(format!("STATS answered {other:?}")),
        }
    }

    fn io(&self) -> (IoCounts, IoCounts) {
        let sum = |devs: &[std::sync::Arc<crate::probe::TimedDevice>]| {
            let mut c = IoCounts::default();
            for d in devs {
                c.add(&d.counts());
            }
            c
        };
        (sum(&self.run.timed_data), sum(&self.run.timed_wal))
    }

    fn verdict(out: &mut Traced, r: Result<(), String>) {
        if let Err(e) = r {
            out.bad += 1;
            if out.first_errors.len() < 5 {
                out.first_errors.push(e);
            }
        }
    }

    fn tick(&mut self, n: u64, out: &mut Traced) -> Result<(), String> {
        let view: &ShardedReadView = &self.run.view;
        for i in 0..view.shard_count() {
            let level = view.backpressure(i).unwrap_or(BackpressureLevel::Idle);
            let slot = match level {
                BackpressureLevel::Idle => 0,
                BackpressureLevel::Paced(_) => 1,
                BackpressureLevel::Saturated => 2,
            };
            out.levels[slot] += 1;
            out.fill_sum += fill_estimate(level);
        }
        let secondary = n.is_multiple_of(SECONDARY_EVERY);
        if secondary || !self.scans_first {
            self.direct_get(out)?;
        }
        if secondary || self.scans_first {
            self.direct_scan(out)?;
        }
        Ok(())
    }

    fn direct_get(&mut self, out: &mut Traced) -> Result<(), String> {
        let view = &self.run.view;
        let id = self.rng.below(self.probe_n);
        let key = gen::key(id);
        let lower = self.ledger.acked(id);
        let t = Instant::now();
        let got = view.get(&key).map_err(|e| e.to_string())?;
        out.get_ns.push(t.elapsed().as_nanos() as u64);
        Self::verdict(out, self.ledger.check_get(id, lower, got.as_deref()));
        Ok(())
    }

    fn direct_scan(&mut self, out: &mut Traced) -> Result<(), String> {
        let view = &self.run.view;
        let start = self.rng.below(self.probe_n);
        let from = gen::key(start);
        let (to, end) = gen::scan_end(start, self.scan_span, self.probe_n);
        let limit = self.scan_limit as usize;
        let floor = self.ledger.acked_range(start, end);
        let t = Instant::now();
        let rows = view
            .scan_range(&from, &to, limit)
            .map_err(|e| e.to_string())?;
        out.scan_ns.push(t.elapsed().as_nanos() as u64);
        let rows: Vec<(Vec<u8>, Vec<u8>)> = rows
            .into_iter()
            .map(|r| (r.key.to_vec(), r.value.to_vec()))
            .collect();
        Self::verdict(out, self.ledger.check_scan(start, limit, &floor, &rows));
        if out.rows_per_shard.is_empty() {
            out.rows_per_shard = vec![0; view.shard_count()];
        }
        let first = view.shard_for(&from);
        let last = rows.last().map_or(first, |(k, _)| view.shard_for(k));
        out.scan_shards += (last - first + 1) as u64;
        for (k, _) in &rows {
            out.rows_per_shard[view.shard_for(k)] += 1;
        }
        Ok(())
    }

    /// Runs over the window, tracing the odd slices.
    pub fn run(mut self, win: &Window) -> Result<Traced, String> {
        let mut out = Traced::default();
        let mut n = 0u64;
        for s in (1..win.slices()).step_by(2) {
            let begin = win.t0 + win.slice * s;
            let end = (begin + win.slice).min(win.t1);
            sleep_until(begin);
            self.switch.store(true, Ordering::SeqCst);
            let adm0 = self.admission()?;
            let (d0, w0) = self.io();
            let (e0, c0) = engine_counters(self.run);
            let t0 = Instant::now();
            let mut next = t0;
            while Instant::now() < end {
                self.tick(n, &mut out)?;
                n += 1;
                next += TICK;
                sleep_until(next.min(end));
            }
            let (e1, c1) = engine_counters(self.run);
            let (d1, w1) = self.io();
            let adm1 = self.admission()?;
            out.secs += t0.elapsed().as_secs_f64();
            self.switch.store(false, Ordering::SeqCst);
            out.eng.add(&e1.since(&e0));
            out.cpu.add(&c1.since(&c0));
            out.data.add(&d1.since(&d0));
            out.wal.add(&w1.since(&w0));
            out.adm.add(&adm1.since(&adm0));
        }
        Ok(out)
    }
}
