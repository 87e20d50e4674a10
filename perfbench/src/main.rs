//! One benchmark for the bLSM serving stack.
//!
//! ```text
//! blsm-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! blsm-perfbench --even-bounds N
//! blsm-perfbench --load-space N
//! ```
//!
//! Builds the store on real files under `.bench_work/` in the current
//! directory, starts the TCP server in this process and drives it over
//! two connections from at most two load threads. Workloads:
//!
//! - `durable-ingest`: `Durability::Sync`, one shard, default engine
//!   config; two closed loops of pipelined blind puts.
//! - `read-uncached`: `Durability::Buffered`, one shard, data many
//!   times the buffer pool; a closed loop of point gets plus an
//!   open-loop writer of blind updates.
//! - `scan-sharded`: `Durability::Buffered`, four shards cut at the
//!   quartiles of the loaded keys, data cached; a closed loop of short
//!   scans plus an open-loop writer of new keys.
//!
//! Every answer is checked against what the generator sent (see
//! `check.rs`). The last line of standard output is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run (see `trace.rs`) with `--trace 1`. Lines before it are a
//! readable summary. See README.md for the metric definitions. The exit
//! code is 0 only when every answer checked out and no operation failed.

#[macro_use]
mod counters;
mod check;
mod gen;
mod hist;
mod probe;
mod store;
mod trace;
mod wire;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm::Durability;

use check::Ledger;
use gen::{Rng, PRELOAD_VERSION, RECORD_BYTES};
use probe::ThreadCpu;
use store::{Layout, Running};
use trace::{Eng, Sampler, Traced};
use wire::{Conn, ReadKind, Recorder, Window};

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Load runs this long before the measured window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// Slice length of the measured window (traced runs alternate slices).
const SLICE: Duration = Duration::from_millis(500);
/// Rows per scan, and the ids a scan's range covers: `[start, start +
/// SCAN_SPAN)` holds about twice `SCAN_LIMIT` keys, so the limit, not the
/// range, usually ends a scan.
const SCAN_LIMIT: u32 = 50;
const SCAN_SPAN: u64 = 200;

/// What the load threads do.
#[derive(Debug, Clone)]
enum Load {
    /// Two closed loops of pipelined puts, `depth` in flight each;
    /// connection `c` owns the ids congruent to `c` mod 2.
    Ingest { depth: usize },
    /// One closed loop of reads and one open-loop writer at `rate`
    /// writes/s of `write_ids` (in a seeded order), each once.
    ReadsAndWrites { read: Read, rate: f64 },
}

#[derive(Debug, Clone, Copy)]
enum Read {
    Get,
    Scan,
}

#[derive(Debug, Clone)]
struct Spec {
    name: &'static str,
    layout: Layout,
    /// Key ids are `0..key_space`.
    key_space: u64,
    /// Ids loaded before the server starts.
    preloaded: fn(u64) -> bool,
    /// Ids the open-loop writer writes (unused by `Ingest`).
    write_ids: fn(u64) -> bool,
    load: Load,
}

fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "durable-ingest" => Spec {
            name: "durable-ingest",
            layout: Layout {
                durability: Durability::Sync,
                mem_budget: 8 << 20,
                pool_pages: 4096,
                bounds: Vec::new(),
            },
            key_space: 400_000,
            preloaded: |id| id % 8 < 2,
            write_ids: |_| false,
            load: Load::Ingest { depth: 256 },
        },
        "read-uncached" => Spec {
            name: "read-uncached",
            layout: Layout {
                durability: Durability::Buffered,
                mem_budget: 1 << 20,
                pool_pages: 256,
                bounds: Vec::new(),
            },
            key_space: 120_000,
            preloaded: |_| true,
            write_ids: |_| true,
            load: Load::ReadsAndWrites {
                read: Read::Get,
                rate: 2000.0,
            },
        },
        "scan-sharded" => Spec {
            name: "scan-sharded",
            layout: Layout {
                durability: Durability::Buffered,
                mem_budget: 256 << 10,
                pool_pages: 2048,
                // Quartiles of the loaded (even) ids of 0..200_000.
                bounds: vec![50_000, 100_000, 150_000],
            },
            key_space: 200_000,
            preloaded: |id| id % 2 == 0,
            write_ids: |id| id % 2 == 1,
            load: Load::ReadsAndWrites {
                read: Read::Scan,
                rate: 1000.0,
            },
        },
        _ => return None,
    })
}

/// `--even-bounds N`: prints where `ShardedBLsm::even_bounds(N)`, the
/// layout `blsm-server --shards N` creates, cuts the key space, and the
/// shard each generated key lands in.
fn show_even_bounds(n: &str) -> Result<(), String> {
    let n: usize = n.parse().map_err(err)?;
    let bounds = blsm::ShardedBLsm::even_bounds(n);
    for (i, b) in bounds.iter().enumerate() {
        println!("cut {}: {:02x?}", i + 1, b.as_ref());
    }
    let mut per_shard = vec![0u64; n.max(1)];
    for id in (0..1_000_000).step_by(1000) {
        let key = gen::key(id);
        per_shard[bounds
            .iter()
            .take_while(|b| b.as_ref() <= key.as_slice())
            .count()] += 1;
    }
    println!("keys user000000000000..user000000999000 per shard: {per_shard:?}");
    Ok(())
}

/// `--load-space N`: loads records `0..N` in a seeded order through
/// `BLsmTree` with the default configuration, checkpoints, and prints
/// the blocks the store's files allocate against the live bytes.
fn show_load_space(n: &str) -> Result<(), String> {
    let n: u64 = n.parse().map_err(err)?;
    let base = PathBuf::from(".bench_work").join(format!("load-space-{}", std::process::id()));
    let layout = Layout {
        durability: Durability::Buffered,
        mem_budget: blsm::BLsmConfig::default().mem_budget,
        pool_pages: 4096,
        bounds: Vec::new(),
    };
    let order = gen::shuffled((0..n).collect(), &mut Rng::stream(1, 1));
    let loaded = store::load(&base, &layout, &order).map(|()| probe::allocated_bytes(&base));
    let _ = std::fs::remove_dir_all(&base);
    let loaded = loaded?;
    let live = n * RECORD_BYTES;
    println!(
        "{n} records ({:.1} MB live) loaded and checkpointed: files allocate {:.1} MiB ({:.2}x live)",
        live as f64 / 1e6,
        loaded as f64 / f64::from(1 << 20),
        ratio(loaded as f64, live as f64)
    );
    Ok(())
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Progress on standard error, stamped with seconds since start.
fn progress(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("[{t:7.2}s] {what}");
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Nearest-rank percentile of a few nanosecond samples, in microseconds.
fn pct_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1000.0
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
struct Outcome {
    setup_s: Vec<f64>,
    win_secs: f64,
    slices: u32,
    /// Closed-loop streams, and the open-loop writer if any.
    closed: Recorder,
    open: Option<Recorder>,
    /// Engine counters and thread CPU over the whole window.
    eng: Eng,
    cpu: ThreadCpu,
    traced: Option<Traced>,
    /// Largest resident set sampled during the window, MiB.
    peak_rss_mb: f64,
    sync_us: Vec<u64>,
    index_ram_bytes: u64,
    allocated_bytes: u64,
    live_bytes: u64,
    /// Checker verdicts outside the load streams (read-backs, scrubs).
    extra_bad: u64,
    notes: Vec<String>,
}

impl Outcome {
    fn bad(&mut self, what: String) {
        self.extra_bad += 1;
        if self.notes.len() < 5 {
            self.notes.push(what);
        }
    }

    fn scrub(&mut self, when: &str, report: &blsm::TreeScrubReport) {
        if !report.is_clean() {
            self.bad(format!("scrub {when}: {:?}", report.errors.first()));
        }
    }
}

/// Builds the store `repeats` times (timing each), keeping the last.
fn set_up(
    spec: &Spec,
    base: &Path,
    order: &[u64],
    repeats: usize,
    trace: Option<&probe::TraceSwitch>,
    out: &mut Outcome,
) -> Result<Running, String> {
    for r in 0..repeats {
        if base.exists() {
            std::fs::remove_dir_all(base).map_err(err)?;
        }
        let t = Instant::now();
        store::load(base, &spec.layout, order)?;
        let run = store::serve(base, &spec.layout, trace)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        if r + 1 == repeats {
            return Ok(run);
        }
        run.server.shutdown().map_err(err)?;
    }
    Err("no set-up ran".into())
}

fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let base = PathBuf::from(".bench_work").join(format!("{}-{}", spec.name, std::process::id()));
    let result = run_in(args, spec, &base);
    let _ = std::fs::remove_dir_all(&base);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    result
}

fn run_in(args: &Args, spec: &Spec, base: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ledger = Ledger::new(spec.key_space as usize);
    let ids = |keep: fn(u64) -> bool| {
        (0..spec.key_space)
            .filter(|&id| keep(id))
            .collect::<Vec<u64>>()
    };
    let preloaded = ids(spec.preloaded);
    for &id in &preloaded {
        ledger.preload(id);
    }
    let order = gen::shuffled(preloaded, &mut Rng::stream(args.seed, 1));
    let switch: probe::TraceSwitch = Arc::new(AtomicBool::new(false));
    let trace = args.trace.then_some(&switch);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    progress("loading");
    let run = set_up(spec, base, &order, repeats, trace, &mut out)?;
    progress("set up; scrubbing");
    let loaded = probe::allocated_bytes(base);
    out.notes.push(format!(
        "after load and checkpoint: store files allocate {:.1} MiB for {:.1} MiB of live records ({:.2}x)",
        loaded as f64 / f64::from(1 << 20),
        (order.len() as u64 * RECORD_BYTES) as f64 / f64::from(1 << 20),
        ratio(loaded as f64, (order.len() as u64 * RECORD_BYTES) as f64)
    ));
    let report = run.view.scrub();
    out.scrub("after load", &report);

    progress("running");
    let start = Instant::now();
    let t0 = start + WARMUP;
    let win = Window {
        t0,
        t1: t0 + Duration::from_secs_f64(args.seconds),
        slice: SLICE,
    };
    out.win_secs = win.seconds();
    out.slices = win.slices();
    let sampler = match trace {
        Some(on) => Some(Sampler {
            run: &run,
            ledger: &ledger,
            probe_n: spec.key_space,
            scan_span: SCAN_SPAN,
            scan_limit: SCAN_LIMIT,
            scans_first: matches!(
                spec.load,
                Load::ReadsAndWrites {
                    read: Read::Scan,
                    ..
                }
            ),
            switch: on.clone(),
            ctl: Conn::connect(run.addr).map_err(err)?,
            rng: Rng::stream(args.seed, 9),
        }),
        None => None,
    };
    let mut conns = Vec::new();
    let (closed, open, traced) = std::thread::scope(|s| -> Result<_, String> {
        let ledger = &ledger;
        let win = &win;
        let mut closed = Vec::new();
        let mut open = None;
        match &spec.load {
            Load::Ingest { depth } => {
                for c in 0..2u64 {
                    let owned: Vec<u64> = (0..spec.key_space).filter(|id| id % 2 == c).collect();
                    let mut conn = Conn::connect(run.addr).map_err(err)?;
                    let rng = Rng::stream(args.seed, 2 + c);
                    closed.push(s.spawn(move || {
                        let mut rec = Recorder::default();
                        wire::put_loop(
                            &mut conn,
                            ledger,
                            &owned,
                            rng,
                            *depth,
                            PRELOAD_VERSION + 1,
                            win,
                            &mut rec,
                        )
                        .map(|()| (conn, rec))
                    }));
                }
            }
            Load::ReadsAndWrites { read, rate } => {
                let kind = match read {
                    Read::Get => ReadKind::Get { n: spec.key_space },
                    Read::Scan => ReadKind::Scan {
                        n: spec.key_space,
                        span: SCAN_SPAN,
                        limit: SCAN_LIMIT,
                        route: run.view.clone(),
                    },
                };
                let mut conn = Conn::connect(run.addr).map_err(err)?;
                let rng = Rng::stream(args.seed, 4);
                closed.push(s.spawn(move || {
                    let mut rec = Recorder::default();
                    wire::read_loop(&mut conn, ledger, &kind, rng, win, &mut rec)
                        .map(|()| (conn, rec))
                }));
                let writes = gen::shuffled(ids(spec.write_ids), &mut Rng::stream(args.seed, 5));
                let needed = (rate * (WARMUP.as_secs_f64() + win.seconds())).ceil() as usize;
                if writes.len() < needed {
                    return Err(format!(
                        "{} write ids for {needed} scheduled writes",
                        writes.len()
                    ));
                }
                let mut conn = Conn::connect(run.addr).map_err(err)?;
                let rate = *rate;
                open = Some(s.spawn(move || {
                    let mut rec = Recorder::default();
                    wire::open_writer(
                        &mut conn,
                        ledger,
                        &writes,
                        PRELOAD_VERSION + 1,
                        rate,
                        start,
                        win,
                        &mut rec,
                    )
                    .map(|_| (conn, rec))
                }));
            }
        }
        let tracer = sampler.map(|smp| s.spawn(move || smp.run(win)));
        sleep_until(win.t0);
        let (e0, c0) = trace::engine_counters(&run);
        // Resident memory is sampled at every slice edge of the window:
        // the serving process, not the set-ups before it or the
        // read-backs after it.
        let mut edge = win.t0;
        out.peak_rss_mb = probe::rss_mb();
        while edge < win.t1 {
            edge = (edge + SLICE).min(win.t1);
            sleep_until(edge);
            out.peak_rss_mb = out.peak_rss_mb.max(probe::rss_mb());
        }
        let (e1, c1) = trace::engine_counters(&run);
        out.eng = e1.since(&e0);
        out.cpu = c1.since(&c0);
        let join = |h: std::thread::ScopedJoinHandle<'_, io::Result<(Conn, Recorder)>>| {
            h.join()
                .map_err(|_| "load thread panicked".to_string())?
                .map_err(|e| format!("load stream: {e}"))
        };
        let mut all = Recorder::default();
        for h in closed {
            let (conn, rec) = join(h)?;
            conns.push(conn);
            all.absorb(rec);
        }
        let open = match open {
            Some(h) => Some(join(h)?.1),
            None => None,
        };
        let traced = match tracer {
            Some(h) => Some(h.join().map_err(|_| "sampler panicked".to_string())??),
            None => None,
        };
        Ok((all, open, traced))
    })?;
    progress("window closed");
    out.closed = closed;
    out.open = open;
    out.traced = traced;
    out.sync_us = run
        .timed_data
        .iter()
        .chain(&run.timed_wal)
        .flat_map(|d| d.sync_samples())
        .map(|us| u64::from(us) * 1000)
        .collect();

    // Read back every key written in the run, plus a seeded sample of
    // the untouched preloaded ones, against its last acknowledged
    // version: over the wire now, and from the files after a reopen.
    let mut check_ids = Vec::new();
    if matches!(spec.load, Load::Ingest { .. }) {
        let mut rng = Rng::stream(args.seed, 7);
        check_ids = (0..spec.key_space)
            .filter(|&id| {
                ledger.sent(id) > PRELOAD_VERSION || (ledger.acked(id) != 0 && rng.below(10) == 0)
            })
            .collect();
        let mut rec = Recorder::default();
        let conn = conns.first_mut().ok_or("no connection left")?;
        wire::read_back(conn, &ledger, &check_ids, 64, &mut rec).map_err(err)?;
        if rec.bad > 0 {
            out.bad(format!(
                "read-back over the wire: {} bad, first {:?}",
                rec.bad,
                rec.first_errors.first()
            ));
        }
        out.notes
            .push(format!("read back {} keys over the wire", check_ids.len()));
    }
    progress("scrubbing");
    let report = run.view.scrub();
    out.scrub("at end", &report);
    drop(conns);
    progress("shutting down");
    let trees = run.server.shutdown().map_err(err)?;
    out.index_ram_bytes = trees.iter().map(|t| t.index_ram_bytes() as u64).sum();
    drop(trees);
    out.allocated_bytes = probe::allocated_bytes(base);
    out.live_bytes = ledger.live_ids().count() as u64 * RECORD_BYTES;
    if !check_ids.is_empty() {
        progress("reopening");
        let tree = store::open_tree(base, 0, &spec.layout, Durability::Buffered)?;
        let mut bad = 0u64;
        for &id in &check_ids {
            let v = tree.get(&gen::key(id)).map_err(err)?;
            if let Err(e) = ledger.check_get(id, ledger.acked(id), v.as_deref()) {
                bad += 1;
                if bad == 1 {
                    out.bad(format!("read-back after reopen: {e}"));
                }
            }
        }
        out.notes.push(format!(
            "read back {} keys after reopen: {bad} bad",
            check_ids.len()
        ));
    }
    progress("done");
    Ok(out)
}

/// One metric line of the result.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn end_to_end(o: &mut Outcome) -> Vec<Metric> {
    let closed_n = o.closed.completed() as f64;
    let open_n = o.open.as_ref().map_or(0, Recorder::completed) as f64;
    let writer = o.open.as_ref().unwrap_or(&o.closed);
    let lat = o.closed.latencies(0, 1);
    let wlat = writer.latencies(0, 1);
    // Rates and tails are medians over the window's slices, so a burst
    // of CPU stolen by a virtual machine's host moves a few slices, not the
    // figure.
    let slice_secs = SLICE.as_secs_f64();
    let rates: Vec<f64> = o
        .closed
        .slices
        .iter()
        .map(|h| h.len() as f64 / slice_secs)
        .collect();
    let tail = |r: &Recorder| {
        let p99: Vec<f64> = r.slices.iter().map(|h| h.percentile_us(0.99)).collect();
        median(&p99)
    };
    // Acknowledged writes in the window: the open-loop writer's, or every
    // closed-loop put when the closed loops write.
    let writes = if o.open.is_some() { open_n } else { closed_n };
    vec![
        m("throughput_ops_s", "ops/s", median(&rates)),
        m("op_p50_us", "us", lat.percentile_us(0.50)),
        m("op_p99_us", "us", tail(&o.closed)),
        m("write_mean_us", "us", wlat.mean_us()),
        m("write_p99_us", "us", tail(writer)),
        m(
            "cpu_us_per_op",
            "us",
            ratio(o.cpu.total() as f64 / 1000.0, closed_n + open_n),
        ),
        m(
            "write_amp",
            "B/B",
            ratio(o.eng.dev_bytes_written as f64, writes * RECORD_BYTES as f64),
        ),
        m(
            "space_amp",
            "B/B",
            ratio(o.allocated_bytes as f64, o.live_bytes as f64),
        ),
        m("setup_s", "s", median(&o.setup_s)),
        m("peak_rss_mb", "MiB", o.peak_rss_mb),
    ]
}

fn per_layer(o: &mut Outcome, t: &mut Traced, read_op: Option<Read>) -> Vec<Metric> {
    let closed_t = o.closed.completed_odd() as f64;
    let closed_u = o.closed.completed() as f64 - closed_t;
    let open_t = o.open.as_ref().map_or(0, Recorder::completed_odd) as f64;
    let ops = closed_t + open_t;
    let writes = if o.open.is_some() { open_t } else { closed_t };
    let direct_reads = (t.get_ns.len() + t.scan_ns.len()) as f64;
    let tcp_reads = if read_op.is_some() { closed_t } else { 0.0 };
    let user_bytes = writes * RECORD_BYTES as f64;
    let adm_total = (t.adm.admitted + t.adm.delayed + t.adm.rejected) as f64;
    let samples: f64 = t.levels.iter().sum::<u64>() as f64;
    let closed_p50 = o.closed.latencies(1, 2).percentile_us(0.5);
    let get_p50 = pct_us(&mut t.get_ns, 0.5);
    let scan_p50 = pct_us(&mut t.scan_ns, 0.5);
    let fsync_mean = ratio(t.eng.fsync_micros_total as f64, t.eng.commit_groups as f64);
    let direct_p50 = match read_op {
        Some(Read::Get) => get_p50,
        Some(Read::Scan) => scan_p50,
        // A durable put cannot go through a read view: the engine's own
        // part of it is the group-commit sync.
        None => fsync_mean,
    };
    let mut rows = t.rows_per_shard.clone();
    let mut scans = t.scan_ns.len() as f64;
    let mut scan_shards = t.scan_shards as f64;
    if matches!(read_op, Some(Read::Scan)) {
        scans += o.closed.completed() as f64;
        scan_shards += o.closed.scan_shards as f64;
        rows.resize(rows.len().max(o.closed.rows_per_shard.len()), 0);
        for (a, b) in rows.iter_mut().zip(&o.closed.rows_per_shard) {
            *a += b;
        }
    }
    let total_rows: u64 = rows.iter().sum();
    let max_rows = rows.iter().copied().max().unwrap_or(0);
    let mut late: Vec<u64> = o
        .open
        .as_ref()
        .map(|r| r.late_ns.clone())
        .unwrap_or_default();
    let untraced_slices = f64::from(o.slices.div_ceil(2));
    let traced_slices = f64::from(o.slices / 2);
    let rate_u = ratio(closed_u, untraced_slices);
    let rate_t = ratio(closed_t, traced_slices);
    let io_ops = ops.max(1.0);
    let whole = &o.eng;
    vec![
        m(
            "server.reactor_cpu_us_per_op",
            "us",
            ratio(t.cpu.reactor as f64 / 1000.0, ops),
        ),
        m(
            "server.committer_cpu_us_per_write",
            "us",
            ratio(t.cpu.committer as f64 / 1000.0, writes),
        ),
        m(
            "server.accept_cpu_us_per_s",
            "us/s",
            ratio(t.cpu.accept as f64 / 1000.0, t.secs),
        ),
        m(
            "server.admission_delayed_per_kwrite",
            "1/kwrite",
            ratio(t.adm.delayed as f64 * 1000.0, adm_total),
        ),
        m(
            "server.admission_rejected_per_kwrite",
            "1/kwrite",
            ratio(t.adm.rejected as f64 * 1000.0, adm_total),
        ),
        m("server.wire_overhead_us", "us", closed_p50 - direct_p50),
        m("core.get_us_p50", "us", get_p50),
        m(
            "core.probes_per_get",
            "count",
            ratio(t.eng.disk_probes as f64, t.eng.gets as f64),
        ),
        m("core.scan_us_p50", "us", scan_p50),
        m(
            "core.merge_cpu_share",
            "cpu/s",
            ratio(t.cpu.merge as f64 / 1e9, t.secs),
        ),
        m(
            "core.paced_share",
            "share",
            ratio(t.levels[1] as f64, samples),
        ),
        m(
            "core.saturated_share",
            "share",
            ratio(t.levels[2] as f64, samples),
        ),
        m("core.merges01", "count", whole.merges01 as f64),
        m("core.merges12", "count", whole.merges12 as f64),
        m(
            "core.merge_bytes_per_user_byte",
            "B/B",
            ratio(
                whole.merge_bytes_consumed as f64,
                whole.user_bytes_written as f64,
            ),
        ),
        m(
            "core.forced_stalls_per_kwrite",
            "1/kwrite",
            ratio(whole.forced_stalls as f64 * 1000.0, whole.writes as f64),
        ),
        m(
            "core.commit.writes_per_group",
            "count",
            ratio(t.eng.commit_group_writes as f64, t.eng.commit_groups as f64),
        ),
        m("core.commit.fsync_us_mean", "us", fsync_mean),
        m(
            "core.route.shards_per_scan",
            "count",
            ratio(scan_shards, scans),
        ),
        m(
            "core.route.max_shard_share",
            "share",
            ratio(max_rows as f64, total_rows as f64),
        ),
        m("memtable.c0_fill_mean", "share", ratio(t.fill_sum, samples)),
        m(
            "bloom.skips_per_get",
            "count",
            ratio(t.eng.bloom_skips as f64, t.eng.gets as f64),
        ),
        m(
            "sstable.index_ram_mb",
            "MiB",
            o.index_ram_bytes as f64 / f64::from(1 << 20),
        ),
        m(
            "storage.pool_hit_ratio",
            "share",
            ratio(
                t.eng.pool_hits as f64,
                (t.eng.pool_hits + t.eng.pool_misses) as f64,
            ),
        ),
        m(
            "storage.pool_evictions_per_op",
            "count",
            ratio(t.eng.pool_evictions as f64, io_ops),
        ),
        m(
            "storage.device_reads_per_get",
            "count",
            ratio(t.data.page_reads as f64, tcp_reads + direct_reads),
        ),
        m(
            "storage.device_read_us_per_op",
            "us",
            ratio(t.data.read_ns as f64 / 1000.0, io_ops),
        ),
        m(
            "storage.device_read_bytes_per_op",
            "B",
            ratio(t.data.read_bytes as f64, io_ops),
        ),
        m(
            "storage.data_bytes_per_user_byte",
            "B/B",
            ratio(t.data.write_bytes as f64, user_bytes),
        ),
        m(
            "storage.wal_bytes_per_user_byte",
            "B/B",
            ratio(t.wal.write_bytes as f64, user_bytes),
        ),
        m(
            "storage.syncs_per_kwrite",
            "1/kwrite",
            ratio((t.data.syncs + t.wal.syncs) as f64 * 1000.0, writes),
        ),
        m("storage.sync_us_p50", "us", pct_us(&mut o.sync_us, 0.5)),
        m(
            "storage.device_write_us_per_op",
            "us",
            ratio((t.data.write_ns + t.wal.write_ns) as f64 / 1000.0, io_ops),
        ),
        m(
            "bench.writer_late_max_ms",
            "ms",
            pct_us(&mut late, 1.0) / 1000.0,
        ),
        m(
            "bench.writer_late_p99_ms",
            "ms",
            pct_us(&mut late, 0.99) / 1000.0,
        ),
        m(
            "bench.trace_overhead_pct",
            "%",
            ratio(rate_u - rate_t, rate_u) * 100.0,
        ),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && (argv[1] == "--even-bounds" || argv[1] == "--load-space") {
        let shown = if argv[1] == "--even-bounds" {
            show_even_bounds(&argv[2])
        } else {
            show_load_space(&argv[2])
        };
        if let Err(e) = shown {
            eprintln!("blsm-perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("blsm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!(
            "blsm-perfbench: unknown workload {:?} (durable-ingest, read-uncached, scan-sharded)",
            args.workload
        );
        std::process::exit(2);
    };
    let mut o = match run(&args, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("blsm-perfbench: {}: {e}", spec.name);
            std::process::exit(1);
        }
    };
    let read_op = match spec.load {
        Load::Ingest { .. } => None,
        Load::ReadsAndWrites { read, .. } => Some(read),
    };
    let metrics = match o.traced.take() {
        Some(mut t) => {
            let ms = per_layer(&mut o, &mut t, read_op);
            o.extra_bad += t.bad;
            o.notes.extend(t.first_errors.clone());
            ms
        }
        None => end_to_end(&mut o),
    };
    let open = o.open.take().unwrap_or_default();
    let per_slice = o.closed.per_slice();
    let bad = o.closed.bad + open.bad + o.extra_bad;
    let attempted = o.closed.attempted + open.attempted;
    let failed = o.closed.failed + open.failed;

    println!(
        "workload {} seed {} window {:.1}s trace {}: {} closed-loop ops, {} open-loop writes, {} retries",
        spec.name,
        args.seed,
        o.win_secs,
        u8::from(args.trace),
        o.closed.completed(),
        open.completed(),
        o.closed.retries + open.retries
    );
    println!(
        "closed-loop ops per {} ms slice: {per_slice:?}",
        SLICE.as_millis()
    );
    println!(
        "merges in window: C0:C1 {}, C1':C2 {}; forced stalls {}; setup runs {:?} s",
        o.eng.merges01, o.eng.merges12, o.eng.forced_stalls, o.setup_s
    );
    if !open.late_ns.is_empty() {
        let mut late = open.late_ns.clone();
        println!(
            "open-loop writer behind schedule: max {:.3} ms, p99 {:.3} ms",
            pct_us(&mut late, 1.0) / 1000.0,
            pct_us(&mut late, 0.99) / 1000.0
        );
    }
    for n in o
        .notes
        .iter()
        .chain(&o.closed.first_errors)
        .chain(&open.first_errors)
    {
        println!("note: {n}");
    }
    println!("checker: {bad} bad answers, {failed} failed of {attempted} attempted");
    for x in &metrics {
        println!("  {:<40} {:>14.3} {}", x.name, x.value, x.unit);
    }
    println!("{}", json(bad == 0, attempted.max(1), failed, &metrics));
    // No operation of these workloads is expected to fail: a wrong answer
    // or a failed operation fails the run.
    if bad > 0 || failed > 0 {
        std::process::exit(1);
    }
}
