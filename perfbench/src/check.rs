//! The output checker.
//!
//! A [`Ledger`] records, per key id, the highest version the generator
//! has *sent* and the highest version the program has *acknowledged*.
//! Readers judge every answer against it:
//!
//! - a get returns a value for its own key whose version lies between
//!   the last version acknowledged before the get was sent and the last
//!   version sent before the response arrived; an acknowledged (or
//!   preloaded) key never reads as absent;
//! - scan rows are strictly ascending and lie in the scan's range; each
//!   holds a version between the one acknowledged before the scan was
//!   sent and the last one sent, and the span the rows cover holds every
//!   key acknowledged before the scan was sent.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::gen::{self, PRELOAD_VERSION};

/// Per-key sent/acknowledged versions.
#[derive(Debug)]
pub struct Ledger {
    // ordering: SeqCst throughout — writers publish `sent` before a
    // request leaves and `acked` after its response arrives; readers
    // sample them on the other side of their own request, and SeqCst
    // keeps those events totally ordered.
    sent: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
}

impl Ledger {
    /// A ledger over key ids `0..n`, none sent yet.
    pub fn new(n: usize) -> Ledger {
        let zeros = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Ledger {
            sent: zeros(),
            acked: zeros(),
        }
    }

    /// Number of key ids the ledger covers.
    pub fn len(&self) -> usize {
        self.sent.len()
    }

    /// Marks `id` as loaded before any run-time request.
    pub fn preload(&self, id: u64) {
        let i = id as usize;
        self.sent[i].store(PRELOAD_VERSION, Ordering::SeqCst);
        self.acked[i].store(PRELOAD_VERSION, Ordering::SeqCst);
    }

    /// Call before the request carrying `version` of `id` leaves.
    pub fn note_sent(&self, id: u64, version: u64) {
        self.sent[id as usize].fetch_max(version, Ordering::SeqCst);
    }

    /// Call once the acknowledgement of `version` of `id` arrived.
    pub fn note_acked(&self, id: u64, version: u64) {
        self.acked[id as usize].fetch_max(version, Ordering::SeqCst);
    }

    /// Highest version of `id` acknowledged so far (0: none).
    pub fn acked(&self, id: u64) -> u64 {
        self.acked[id as usize].load(Ordering::SeqCst)
    }

    /// [`Ledger::acked`] of every id in `[start, end)`; sample it just
    /// before sending a scan of that range.
    pub fn acked_range(&self, start: u64, end: u64) -> Vec<u64> {
        (start..end).map(|id| self.acked(id)).collect()
    }

    /// Highest version of `id` sent so far (0: never sent).
    pub fn sent(&self, id: u64) -> u64 {
        self.sent[id as usize].load(Ordering::SeqCst)
    }

    /// Ids that exist (acknowledged or preloaded), in id order.
    pub fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len() as u64).filter(|&id| self.acked(id) != 0)
    }

    /// Checks one value read for `id`. `lower` is [`Ledger::acked`]
    /// sampled before the read was sent; the upper bound is read now,
    /// after the response arrived.
    pub fn check_get(&self, id: u64, lower: u64, value: Option<&[u8]>) -> Result<(), String> {
        let upper = self.sent(id);
        let Some(v) = value else {
            return if lower == 0 {
                Ok(())
            } else {
                Err(format!(
                    "get {id}: absent, but version {lower} was acknowledged before the get"
                ))
            };
        };
        let (vid, version) = gen::decode_value(v).map_err(|e| format!("get {id}: {e}"))?;
        if vid != id {
            return Err(format!("get {id}: returned the value of key {vid}"));
        }
        if version < lower {
            return Err(format!(
                "get {id}: version {version} is older than acknowledged version {lower}"
            ));
        }
        if version > upper {
            return Err(format!(
                "get {id}: version {version} was never sent (last sent {upper})"
            ));
        }
        Ok(())
    }

    /// Checks the rows of a scan with row limit `limit` over the ids
    /// `[start, start + floor.len())`; `floor` is
    /// [`Ledger::acked_range`] of that range, sampled before the scan was
    /// sent.
    pub fn check_scan(
        &self,
        start: u64,
        limit: usize,
        floor: &[u64],
        rows: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), String> {
        let end = start + floor.len() as u64;
        if rows.len() > limit {
            return Err(format!(
                "scan {start}: {} rows for limit {limit}",
                rows.len()
            ));
        }
        let mut ids = Vec::with_capacity(rows.len());
        for (key, value) in rows {
            let id = gen::key_id(key)
                .filter(|&id| (id as usize) < self.len())
                .ok_or_else(|| format!("scan {start}: row key {key:?} was never generated"))?;
            if id < start || id >= end {
                return Err(format!(
                    "scan {start}: row {id} lies outside [{start}, {end})"
                ));
            }
            if ids.last().is_some_and(|&prev| id <= prev) {
                return Err(format!(
                    "scan {start}: row {id} out of order after {:?}",
                    ids.last()
                ));
            }
            let upper = self.sent(id);
            if upper == 0 {
                return Err(format!("scan {start}: row {id} was never sent"));
            }
            let (vid, version) =
                gen::decode_value(value).map_err(|e| format!("scan {start}: row {id}: {e}"))?;
            if vid != id {
                return Err(format!(
                    "scan {start}: row {id} holds the value of key {vid}"
                ));
            }
            let lower = floor[(id - start) as usize];
            if version < lower {
                return Err(format!(
                    "scan {start}: row {id} version {version} is older than acknowledged version {lower}"
                ));
            }
            if version > upper {
                return Err(format!(
                    "scan {start}: row {id} version {version} was never sent"
                ));
            }
            ids.push(id);
        }
        if floor.is_empty() {
            return Ok(());
        }
        // The returned span: up to the last row, or to the end of the
        // range when the scan came back short.
        let last = match ids.last() {
            Some(&last) if rows.len() == limit => last,
            _ => end - 1,
        };
        let mut next = ids.iter().peekable();
        for id in start..=last {
            if next.peek() == Some(&&id) {
                next.next();
            } else if floor[(id - start) as usize] != 0 {
                return Err(format!(
                    "scan {start}: key {id} acknowledged before the scan is missing"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{key, value};

    fn row(id: u64, version: u64) -> (Vec<u8>, Vec<u8>) {
        (key(id), value(id, version))
    }

    /// Ids 0..20: even ids preloaded, 5 written at version 2 and acked,
    /// 7 sent at version 2 but not acked.
    fn ledger() -> Ledger {
        let l = Ledger::new(20);
        for id in (0..20).step_by(2) {
            l.preload(id);
        }
        l.note_sent(5, 2);
        l.note_acked(5, 2);
        l.note_sent(7, 2);
        l
    }

    /// Checks `rows` as the answer to a scan of `[start, end)` sent now.
    fn scan(
        l: &Ledger,
        start: u64,
        end: u64,
        limit: usize,
        rows: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), String> {
        l.check_scan(start, limit, &l.acked_range(start, end), rows)
    }

    #[test]
    fn accepts_correct_answers() {
        let l = ledger();
        assert_eq!(l.check_get(4, l.acked(4), Some(&value(4, 1))), Ok(()));
        assert_eq!(l.check_get(5, l.acked(5), Some(&value(5, 2))), Ok(()));
        // Sent but unacknowledged: either answer is allowed.
        assert_eq!(l.check_get(7, l.acked(7), None), Ok(()));
        assert_eq!(l.check_get(7, l.acked(7), Some(&value(7, 2))), Ok(()));
        let rows = vec![row(4, 1), row(5, 2), row(6, 1), row(7, 2), row(8, 1)];
        assert_eq!(scan(&l, 3, 20, 5, &rows), Ok(()));
        // 7 is not acknowledged, so leaving it out is fine.
        let rows = vec![row(4, 1), row(5, 2), row(6, 1), row(8, 1)];
        assert_eq!(scan(&l, 4, 20, 4, &rows), Ok(()));
    }

    #[test]
    fn rejects_a_lost_acknowledged_write() {
        let l = ledger();
        assert!(l.check_get(5, l.acked(5), None).is_err());
        assert!(l.check_get(5, l.acked(5), Some(&value(5, 1))).is_err());
        assert!(l.check_get(2, l.acked(2), None).is_err(), "preloaded key");
    }

    #[test]
    fn rejects_a_scan_row_older_than_its_acknowledged_version() {
        let l = ledger();
        // 4 overwritten at version 2 and acknowledged: a scan sent now
        // must not return the shadowed version 1.
        l.note_sent(4, 2);
        l.note_acked(4, 2);
        let rows = vec![row(4, 1), row(5, 2), row(6, 1)];
        assert!(scan(&l, 4, 20, 3, &rows).is_err());
        let rows = vec![row(4, 2), row(5, 2), row(6, 1)];
        assert_eq!(scan(&l, 4, 20, 3, &rows), Ok(()));
    }

    #[test]
    fn a_scan_sent_before_an_overwrite_was_acknowledged_may_return_the_old_version() {
        let l = ledger();
        let floor = l.acked_range(4, 20);
        l.note_sent(4, 2);
        l.note_acked(4, 2);
        let rows = vec![row(4, 1), row(5, 2), row(6, 1)];
        assert_eq!(l.check_scan(4, 3, &floor, &rows), Ok(()));
    }

    #[test]
    fn rejects_a_value_of_another_key() {
        let l = ledger();
        assert!(l.check_get(4, l.acked(4), Some(&value(6, 1))).is_err());
        let rows = vec![row(4, 1), (key(5), value(6, 1)), row(6, 1)];
        assert!(scan(&l, 4, 20, 3, &rows).is_err());
    }

    #[test]
    fn rejects_a_version_never_sent_and_a_damaged_value() {
        let l = ledger();
        assert!(l.check_get(4, l.acked(4), Some(&value(4, 3))).is_err());
        let mut bad = value(4, 1);
        bad[20] ^= 0xff;
        assert!(l.check_get(4, l.acked(4), Some(&bad)).is_err());
        let rows = vec![row(4, 1), row(9, 2)];
        assert!(scan(&l, 4, 20, 2, &rows).is_err(), "9 never sent");
    }

    #[test]
    fn rejects_a_scan_out_of_order() {
        let l = ledger();
        let rows = vec![row(4, 1), row(6, 1), row(5, 2)];
        assert!(scan(&l, 4, 20, 3, &rows).is_err());
        let rows = vec![row(4, 1), row(4, 1)];
        assert!(scan(&l, 4, 20, 2, &rows).is_err(), "duplicate row");
        let rows = vec![row(2, 1), row(4, 1)];
        assert!(scan(&l, 3, 20, 2, &rows).is_err(), "before start");
    }

    #[test]
    fn rejects_a_scan_missing_a_row() {
        let l = ledger();
        let rows = vec![row(4, 1), row(6, 1), row(8, 1)];
        assert!(scan(&l, 4, 20, 3, &rows).is_err(), "acked 5 missing");
        let rows = vec![row(4, 1), row(5, 2), row(8, 1)];
        assert!(scan(&l, 4, 20, 3, &rows).is_err(), "preloaded 6 missing");
        // A short scan claims the rest of its range is empty.
        let rows = vec![row(16, 1)];
        assert!(scan(&l, 15, 20, 5, &rows).is_err(), "18 missing");
    }

    #[test]
    fn a_scan_answers_only_for_its_range() {
        let l = ledger();
        // Short because the range ends at 7: nothing beyond it is owed.
        let rows = vec![row(4, 1), row(5, 2), row(6, 1)];
        assert_eq!(scan(&l, 4, 7, 10, &rows), Ok(()));
        assert!(scan(&l, 4, 7, 10, &rows[..2]).is_err(), "6 missing");
        let rows = vec![row(4, 1), row(5, 2), row(6, 1), row(8, 1)];
        assert!(scan(&l, 4, 7, 10, &rows).is_err(), "8 beyond the end");
    }

    #[test]
    fn a_write_acknowledged_after_the_scan_was_sent_may_be_missing() {
        let l = ledger();
        let floor = l.acked_range(8, 20);
        l.note_sent(9, 2);
        l.note_acked(9, 2);
        let rows = vec![row(8, 1), row(10, 1)];
        assert_eq!(l.check_scan(8, 2, &floor, &rows), Ok(()));
        assert!(scan(&l, 8, 20, 2, &rows).is_err());
    }
}
