//! The load generators, built on the public protocol codec
//! (`encode_request`, `FrameDecoder`, `decode_response`).
//!
//! - [`put_loop`]: a closed loop that keeps `depth` blind puts in flight
//!   on one connection (`durable-ingest`).
//! - [`read_loop`]: a closed loop of point gets or short scans, one at
//!   a time (`read-uncached`, `scan-sharded`).
//! - [`open_writer`]: writes sent when due on a fixed schedule, without
//!   waiting for earlier acknowledgements; each is timed from when it
//!   was due, and the writer reports how late it ran.
//!
//! RETRY_LATER is the protocol's overload signal: the write is resent
//! after the server's hint, all attempts count as one operation, and
//! its latency spans them all. It fails only when its attempts run out.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use blsm::ShardedReadView;
use blsm_server::protocol::{decode_response, encode_request};
use blsm_server::{FrameDecoder, Request, Response};

use crate::check::Ledger;
use crate::gen::{self, Rng};
use crate::hist::Histogram;

/// Attempts one write may make before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 64;

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// One client connection speaking the wire protocol.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    out: Vec<u8>,
    next_id: u64,
    buf: Vec<u8>,
    timeout: Option<Duration>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::with_capacity(64 << 10),
            next_id: 1,
            buf: vec![0; 256 << 10],
            timeout: None,
        })
    }

    /// Encodes `req` into the send buffer; returns its request id.
    pub fn queue(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        encode_request(&mut self.out, id, req).map_err(io_err)?;
        Ok(id)
    }

    pub fn flush(&mut self) -> io::Result<()> {
        if !self.out.is_empty() {
            self.stream.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// The next response, waiting at most `timeout` (`None`: block).
    pub fn recv(&mut self, timeout: Option<Duration>) -> io::Result<Option<(u64, Response)>> {
        loop {
            if let Some(frame) = self.dec.next_frame().map_err(io_err)? {
                return decode_response(&frame).map(Some).map_err(io_err);
            }
            let timeout = timeout.map(|t| t.max(Duration::from_micros(20)));
            if timeout != self.timeout {
                self.stream.set_read_timeout(timeout)?;
                self.timeout = timeout;
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.dec.feed(&self.buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `req` and waits for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let id = self.queue(req)?;
        self.flush()?;
        loop {
            if let Some((rid, resp)) = self.recv(None)? {
                if rid == id {
                    return Ok(resp);
                }
            }
        }
    }
}

/// The measured window, cut into equal slices. In a traced run the odd
/// slices are traced and the even ones are not.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub t0: Instant,
    pub t1: Instant,
    pub slice: Duration,
}

impl Window {
    /// Slice index of `t`, or `None` outside the window.
    pub fn slice_of(&self, t: Instant) -> Option<u32> {
        if t < self.t0 || t >= self.t1 {
            return None;
        }
        Some((t.duration_since(self.t0).as_nanos() / self.slice.as_nanos()) as u32)
    }

    pub fn slices(&self) -> u32 {
        let n = self.t1.duration_since(self.t0).as_nanos();
        n.div_ceil(self.slice.as_nanos()) as u32
    }

    pub fn seconds(&self) -> f64 {
        self.t1.duration_since(self.t0).as_secs_f64()
    }
}

/// What one load stream saw.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latencies of the operations of the window, one histogram per
    /// slice: closed loops count by completion time, the open loop by
    /// due time.
    pub slices: Vec<Histogram>,
    /// Operations of the window that ended, completed or failed.
    pub attempted: u64,
    pub failed: u64,
    /// RETRY_LATER answers received (a retried write counts once in
    /// `attempted`).
    pub retries: u64,
    /// Answers the checker rejected, over the whole run.
    pub bad: u64,
    pub first_errors: Vec<String>,
    /// Open loop only: how far behind schedule each write in the window
    /// was sent, ns.
    pub late_ns: Vec<u64>,
    /// Scans only: shards each scan's span touched, summed; rows
    /// returned per shard.
    pub scan_shards: u64,
    pub rows_per_shard: Vec<u64>,
}

impl Recorder {
    /// Records an operation that completed, attributed to `slice`
    /// (`None`: outside the window).
    fn done(&mut self, slice: Option<u32>, latency: Duration) {
        if let Some(s) = slice {
            self.attempted += 1;
            let s = s as usize;
            if self.slices.len() <= s {
                self.slices.resize_with(s + 1, Histogram::default);
            }
            let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
            self.slices[s].record(ns);
        }
    }

    fn failed(&mut self, slice: Option<u32>, why: String) {
        if slice.is_some() {
            self.attempted += 1;
            self.failed += 1;
        }
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.first_errors.len() < 5 {
            self.first_errors.push(why);
        }
    }

    /// Operations completed in each slice.
    pub fn per_slice(&self) -> Vec<u64> {
        self.slices.iter().map(Histogram::len).collect()
    }

    /// Operations completed in the window.
    pub fn completed(&self) -> u64 {
        self.slices.iter().map(Histogram::len).sum()
    }

    /// Operations completed in the odd (traced) slices.
    pub fn completed_odd(&self) -> u64 {
        self.slices
            .iter()
            .skip(1)
            .step_by(2)
            .map(Histogram::len)
            .sum()
    }

    /// Latencies of every `step`-th slice from `first`.
    pub fn latencies(&self, first: usize, step: usize) -> Histogram {
        let mut h = Histogram::default();
        for s in self.slices.iter().skip(first).step_by(step) {
            h.merge(s);
        }
        h
    }

    /// Adds `r`'s counts to this recorder's.
    pub fn absorb(&mut self, r: Recorder) {
        if self.slices.len() < r.slices.len() {
            self.slices.resize_with(r.slices.len(), Histogram::default);
        }
        for (a, b) in self.slices.iter_mut().zip(&r.slices) {
            a.merge(b);
        }
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.retries += r.retries;
        self.bad += r.bad;
        self.first_errors.extend(r.first_errors);
        self.late_ns.extend(r.late_ns);
        self.scan_shards += r.scan_shards;
        if self.rows_per_shard.len() < r.rows_per_shard.len() {
            self.rows_per_shard.resize(r.rows_per_shard.len(), 0);
        }
        for (a, b) in self.rows_per_shard.iter_mut().zip(r.rows_per_shard) {
            *a += b;
        }
    }

    fn verdict(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.bad += 1;
            self.note(e);
        }
    }
}

/// A write in flight: key id, version, when it was due (or first sent)
/// and how many attempts it has made.
#[derive(Debug, Clone, Copy)]
struct WriteOp {
    id: u64,
    version: u64,
    due: Instant,
    attempts: u32,
}

/// Writes in flight plus writes waiting out a RETRY_LATER hint.
#[derive(Debug, Default)]
struct Inflight {
    by_req: HashMap<u64, WriteOp>,
    retry: Vec<(Instant, WriteOp)>,
}

impl Inflight {
    fn len(&self) -> usize {
        self.by_req.len() + self.retry.len()
    }

    fn send(&mut self, conn: &mut Conn, w: WriteOp) -> io::Result<()> {
        let req = Request::Put {
            key: gen::key(w.id),
            value: gen::value(w.id, w.version),
        };
        let rid = conn.queue(&req)?;
        self.by_req.insert(rid, w);
        Ok(())
    }

    /// Resends every write whose backoff has expired.
    fn resend_due(&mut self, conn: &mut Conn, now: Instant) -> io::Result<()> {
        let mut i = 0;
        while i < self.retry.len() {
            if self.retry[i].0 <= now {
                let (_, w) = self.retry.swap_remove(i);
                self.send(conn, w)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    fn next_retry(&self) -> Option<Instant> {
        self.retry.iter().map(|r| r.0).min()
    }

    /// Handles one response. Returns the write when it was acknowledged
    /// or failed for good (`Ok` / `Err`), `None` while it is retrying.
    fn answer(
        &mut self,
        rid: u64,
        resp: Response,
        now: Instant,
    ) -> io::Result<Option<Result<WriteOp, (WriteOp, String)>>> {
        let Some(mut w) = self.by_req.remove(&rid) else {
            return Err(io_err(format!("response to unknown request {rid}")));
        };
        Ok(match resp {
            Response::Ok => Some(Ok(w)),
            Response::RetryLater { backoff_ms } if w.attempts < MAX_ATTEMPTS => {
                w.attempts += 1;
                let wait = Duration::from_millis(u64::from(backoff_ms));
                self.retry.push((now + wait, w));
                None
            }
            Response::RetryLater { .. } => Some(Err((
                w,
                format!(
                    "put {}: still RETRY_LATER after {MAX_ATTEMPTS} attempts",
                    w.id
                ),
            ))),
            other => Some(Err((w, format!("put {}: answered {other:?}", w.id)))),
        })
    }
}

/// Closed loop of blind puts, `depth` in flight, over the key ids in
/// `owned`, drawn uniformly. A key is never written twice at once: a
/// drawn key whose previous write is still in flight waits for it.
/// Versions count up from `first_version`. Runs until `win.t1`, then
/// drains.
#[allow(clippy::too_many_arguments)]
pub fn put_loop(
    conn: &mut Conn,
    ledger: &Ledger,
    owned: &[u64],
    mut rng: Rng,
    depth: usize,
    first_version: u64,
    win: &Window,
    rec: &mut Recorder,
) -> io::Result<()> {
    let mut fl = Inflight::default();
    let mut busy: HashSet<u64> = HashSet::new();
    let mut waiting: Option<u64> = None;
    let mut version = first_version;
    loop {
        let now = Instant::now();
        let stop = now >= win.t1;
        if !stop {
            while fl.len() < depth {
                let id = waiting
                    .take()
                    .unwrap_or_else(|| owned[rng.below(owned.len() as u64) as usize]);
                if busy.contains(&id) {
                    waiting = Some(id);
                    break;
                }
                ledger.note_sent(id, version);
                let w = WriteOp {
                    id,
                    version,
                    due: now,
                    attempts: 1,
                };
                version += 1;
                busy.insert(id);
                fl.send(conn, w)?;
            }
        }
        fl.resend_due(conn, now)?;
        conn.flush()?;
        if fl.len() == 0 {
            if stop {
                return Ok(());
            }
            continue;
        }
        if fl.by_req.is_empty() {
            // Everything is waiting out a backoff.
            if let Some(at) = fl.next_retry() {
                std::thread::sleep(at.saturating_duration_since(now));
            }
            continue;
        }
        let timeout = fl.next_retry().map(|at| at.saturating_duration_since(now));
        let Some((rid, resp)) = conn.recv(timeout)? else {
            continue;
        };
        let end = Instant::now();
        match fl.answer(rid, resp, end)? {
            None => rec.retries += 1,
            Some(Ok(w)) => {
                ledger.note_acked(w.id, w.version);
                busy.remove(&w.id);
                rec.done(win.slice_of(end), end - w.due);
            }
            Some(Err((w, why))) => {
                busy.remove(&w.id);
                rec.failed(win.slice_of(end), why);
            }
        }
    }
}

/// Writes `order[i]` at `version` when it falls due, at `rate` writes
/// per second from `start`, regardless of outstanding acknowledgements.
/// Stops scheduling at `win.t1`, then drains. Returns writes sent.
#[allow(clippy::too_many_arguments)]
pub fn open_writer(
    conn: &mut Conn,
    ledger: &Ledger,
    order: &[u64],
    version: u64,
    rate: f64,
    start: Instant,
    win: &Window,
    rec: &mut Recorder,
) -> io::Result<usize> {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut fl = Inflight::default();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while next < order.len() && due(next) <= now && due(next) < win.t1 {
            let d = due(next);
            let id = order[next];
            ledger.note_sent(id, version);
            fl.send(
                conn,
                WriteOp {
                    id,
                    version,
                    due: d,
                    attempts: 1,
                },
            )?;
            if win.slice_of(d).is_some() {
                rec.late_ns
                    .push(u64::try_from((now - d).as_nanos()).unwrap_or(u64::MAX));
            }
            next += 1;
        }
        fl.resend_due(conn, now)?;
        conn.flush()?;
        let scheduling = next < order.len() && due(next) < win.t1;
        let wake = [scheduling.then(|| due(next)), fl.next_retry()]
            .into_iter()
            .flatten()
            .min();
        if fl.by_req.is_empty() {
            match wake {
                Some(at) => std::thread::sleep(at.saturating_duration_since(now)),
                None => return Ok(next),
            }
            continue;
        }
        let Some((rid, resp)) = conn.recv(wake.map(|at| at.saturating_duration_since(now)))? else {
            continue;
        };
        let end = Instant::now();
        match fl.answer(rid, resp, end)? {
            None => rec.retries += 1,
            Some(Ok(w)) => {
                ledger.note_acked(w.id, w.version);
                // Timed from when it was due, so a stall shows on every
                // write queued behind it.
                rec.done(win.slice_of(w.due), end - w.due);
            }
            Some(Err((w, why))) => rec.failed(win.slice_of(w.due), why),
        }
    }
}

/// What a [`read_loop`] issues.
#[derive(Debug, Clone)]
pub enum ReadKind {
    /// Point gets on ids uniform in `0..n`.
    Get { n: u64 },
    /// Scans of up to `limit` rows over `span` ids from start ids
    /// uniform in `0..n`; `route` attributes each row to its shard.
    Scan {
        n: u64,
        span: u64,
        limit: u32,
        route: ShardedReadView,
    },
}

/// Closed loop of one read at a time until `win.t1`; every answer is
/// checked.
pub fn read_loop(
    conn: &mut Conn,
    ledger: &Ledger,
    kind: &ReadKind,
    mut rng: Rng,
    win: &Window,
    rec: &mut Recorder,
) -> io::Result<()> {
    while Instant::now() < win.t1 {
        match kind {
            ReadKind::Get { n } => {
                let id = rng.below(*n);
                let req = Request::Get { key: gen::key(id) };
                let lower = ledger.acked(id);
                let sent = Instant::now();
                let resp = conn.call(&req)?;
                let end = Instant::now();
                let slice = win.slice_of(end);
                match resp {
                    Response::Value(v) => {
                        rec.verdict(ledger.check_get(id, lower, v.as_deref()));
                        rec.done(slice, end - sent);
                    }
                    other => rec.failed(slice, format!("get {id}: answered {other:?}")),
                }
            }
            ReadKind::Scan {
                n,
                span,
                limit,
                route,
            } => {
                let start = rng.below(*n);
                let (to, end_id) = gen::scan_end(start, *span, *n);
                let req = Request::Scan {
                    from: gen::key(start),
                    to: Some(to),
                    limit: *limit,
                };
                let floor = ledger.acked_range(start, end_id);
                let sent = Instant::now();
                let resp = conn.call(&req)?;
                let end = Instant::now();
                let slice = win.slice_of(end);
                match resp {
                    Response::Rows(rows) => {
                        rec.verdict(ledger.check_scan(start, *limit as usize, &floor, &rows));
                        if slice.is_some() {
                            attribute_rows(route, &gen::key(start), &rows, rec);
                        }
                        rec.done(slice, end - sent);
                    }
                    other => rec.failed(slice, format!("scan {start}: answered {other:?}")),
                }
            }
        }
    }
    Ok(())
}

fn attribute_rows(
    route: &ShardedReadView,
    from: &[u8],
    rows: &[(Vec<u8>, Vec<u8>)],
    rec: &mut Recorder,
) {
    if rec.rows_per_shard.is_empty() {
        rec.rows_per_shard = vec![0; route.shard_count()];
    }
    let first = route.shard_for(from);
    let last = rows.last().map_or(first, |(k, _)| route.shard_for(k));
    rec.scan_shards += (last - first + 1) as u64;
    for (k, _) in rows {
        rec.rows_per_shard[route.shard_for(k)] += 1;
    }
}

/// Reads every id in `ids` over `conn`, `depth` gets in flight, and
/// checks each against the ledger. Returns the number of bad answers.
pub fn read_back(
    conn: &mut Conn,
    ledger: &Ledger,
    ids: &[u64],
    depth: usize,
    rec: &mut Recorder,
) -> io::Result<u64> {
    let before = rec.bad;
    let mut inflight: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut next = 0;
    while next < ids.len() || !inflight.is_empty() {
        while next < ids.len() && inflight.len() < depth {
            let id = ids[next];
            let rid = conn.queue(&Request::Get { key: gen::key(id) })?;
            inflight.insert(rid, (id, ledger.acked(id)));
            next += 1;
        }
        conn.flush()?;
        if let Some((rid, resp)) = conn.recv(None)? {
            let Some((id, lower)) = inflight.remove(&rid) else {
                return Err(io_err(format!("response to unknown request {rid}")));
            };
            match resp {
                Response::Value(v) => rec.verdict(ledger.check_get(id, lower, v.as_deref())),
                other => rec.verdict(Err(format!("read-back {id}: answered {other:?}"))),
            }
        }
    }
    Ok(rec.bad - before)
}
