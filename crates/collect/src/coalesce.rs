//! Step 2: tupling coalescence (Buckley & Siewiorek, FTCS'96).
//!
//! "If two or more events are clustered in time, they are grouped into a
//! tuple, according to a coalescence window." An event joins the current
//! tuple when it falls within the window of the tuple's *last* event
//! (gap-based clustering); otherwise it starts a new tuple.
//!
//! The window trades **truncation** (too small: events of one error
//! split over several tuples) against **collapse** (too large: events of
//! independent errors merge) — the trade-off the sensitivity analysis of
//! Fig. 2 navigates.
//!
//! The sliding rule has one implementation, [`OnlineCoalescer`], which
//! takes one record at a time. The batch [`coalesce`] is `push` over
//! the records followed by `finish`, so batch and streaming coalescence
//! agree by construction. [`OnlineCoalescer::advance`] additionally
//! closes the open tuple once a watermark `w` guarantees
//! `w - last > window`: every record that arrives after `advance(w)` has
//! `at > w`, so its gap from `last` also exceeds the window and the
//! batch rule would have closed the tuple at that record anyway. Early
//! closing therefore never changes the tuple partition, only *when* a
//! tuple becomes observable.

use crate::entry::LogRecord;
use btpan_sim::time::{SimDuration, SimTime};

/// One tuple: a maximal run of records whose consecutive gaps are all
/// within the coalescence window.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// The records, in time order.
    pub records: Vec<LogRecord>,
}

impl Tuple {
    /// Number of records in the tuple.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Tuples are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The user failures contained in the tuple.
    pub fn failures(&self) -> impl Iterator<Item = &crate::entry::TestLogEntry> {
        self.records.iter().filter_map(LogRecord::as_failure)
    }

    /// The system entries contained in the tuple.
    pub fn system_entries(&self) -> impl Iterator<Item = &crate::entry::SystemLogEntry> {
        self.records.iter().filter_map(LogRecord::as_system)
    }

    /// Time span covered by the tuple.
    pub fn span(&self) -> SimDuration {
        let first = self.records.first().expect("non-empty").at;
        let last = self.records.last().expect("non-empty").at;
        last.since(first)
    }
}

/// Online sliding-window coalescer over a time-sorted record stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineCoalescer {
    window: SimDuration,
    current: Vec<LogRecord>,
    last_at: Option<SimTime>,
}

impl OnlineCoalescer {
    /// An empty coalescer with the given window.
    pub fn new(window: SimDuration) -> Self {
        OnlineCoalescer {
            window,
            current: Vec::new(),
            last_at: None,
        }
    }

    /// A coalescer whose open tuple is pre-seeded with `records` (used
    /// to hand a late-joining node the NAP's still-active error chain).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `records` is not time-sorted.
    pub fn seeded(window: SimDuration, records: Vec<LogRecord>) -> Self {
        debug_assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
        let last_at = records.last().map(|r| r.at);
        OnlineCoalescer {
            window,
            current: records,
            last_at,
        }
    }

    /// Rebuilds a coalescer from checkpointed state.
    pub fn from_parts(
        window: SimDuration,
        current: Vec<LogRecord>,
        last_at: Option<SimTime>,
    ) -> Self {
        OnlineCoalescer {
            window,
            current,
            last_at,
        }
    }

    /// Feeds the next record; returns the previous tuple if `rec`'s gap
    /// from it exceeds the window.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `rec` precedes the last pushed record.
    pub fn push(&mut self, rec: LogRecord) -> Option<Tuple> {
        let mut closed = None;
        if let Some(last) = self.last_at {
            debug_assert!(rec.at >= last, "coalesce input not time-sorted");
            if !self.current.is_empty() && rec.at.saturating_since(last) > self.window {
                closed = Some(Tuple {
                    records: std::mem::take(&mut self.current),
                });
            }
        }
        self.last_at = Some(rec.at);
        self.current.push(rec);
        closed
    }

    /// Closes the open tuple early once the watermark proves no future
    /// record can join it (`watermark - last > window`).
    pub fn advance(&mut self, watermark: SimTime) -> Option<Tuple> {
        match self.last_at {
            Some(last)
                if !self.current.is_empty() && watermark.saturating_since(last) > self.window =>
            {
                Some(Tuple {
                    records: std::mem::take(&mut self.current),
                })
            }
            _ => None,
        }
    }

    /// End of stream: closes and returns the open tuple, if any.
    pub fn finish(&mut self) -> Option<Tuple> {
        if self.current.is_empty() {
            None
        } else {
            Some(Tuple {
                records: std::mem::take(&mut self.current),
            })
        }
    }

    /// True when no tuple is open.
    pub fn is_idle(&self) -> bool {
        self.current.is_empty()
    }

    /// Records buffered in the open tuple.
    pub fn buffered(&self) -> usize {
        self.current.len()
    }

    /// The open tuple's records (checkpoint capture).
    pub fn buffered_records(&self) -> &[LogRecord] {
        &self.current
    }

    /// Timestamp of the most recently pushed record (checkpoint capture).
    pub fn last_at(&self) -> Option<SimTime> {
        self.last_at
    }
}

/// Coalesces a **time-sorted** record stream with the given window,
/// using the *sliding* (gap-based) rule: an event joins the tuple if it
/// is within `window` of the tuple's **last** event. This is the scheme
/// the paper adopts; it runs [`OnlineCoalescer::push`] over `records`
/// and then [`OnlineCoalescer::finish`].
///
/// # Panics
///
/// Panics (debug) if the input is not sorted by time.
pub fn coalesce(records: &[LogRecord], window: SimDuration) -> Vec<Tuple> {
    let mut online = OnlineCoalescer::new(window);
    let mut tuples: Vec<Tuple> = records
        .iter()
        .filter_map(|rec| online.push(rec.clone()))
        .collect();
    tuples.extend(online.finish());
    tuples
}

/// The *fixed-window* variant (Tsao's original tupling, one of the
/// schemes Buckley & Siewiorek compare): an event joins the tuple only
/// if it is within `window` of the tuple's **first** event. Long error
/// cascades therefore get truncated into several tuples — the behaviour
/// the sliding rule was invented to fix.
///
/// # Panics
///
/// Panics (debug) if the input is not sorted by time.
pub fn coalesce_fixed_window(records: &[LogRecord], window: SimDuration) -> Vec<Tuple> {
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut current: Vec<LogRecord> = Vec::new();
    let mut tuple_start = None;
    let mut last_at: Option<SimTime> = None;
    for rec in records {
        if let Some(last) = last_at {
            debug_assert!(rec.at >= last, "coalesce input not time-sorted");
        }
        last_at = Some(rec.at);
        match tuple_start {
            Some(start) if rec.at.saturating_since(start) <= window => {
                current.push(rec.clone());
            }
            _ => {
                if !current.is_empty() {
                    tuples.push(Tuple {
                        records: std::mem::take(&mut current),
                    });
                }
                tuple_start = Some(rec.at);
                current.push(rec.clone());
            }
        }
    }
    if !current.is_empty() {
        tuples.push(Tuple { records: current });
    }
    tuples
}

/// Truncation comparison of the two schemes against a ground-truth
/// clustering: the fraction of true clusters split across more than one
/// tuple. `truth` gives, for each record index, its true cluster id.
///
/// # Panics
///
/// Panics if `truth` and the tuples do not cover the same records.
pub fn truncation_rate(tuples: &[Tuple], truth: &[usize]) -> f64 {
    let total: usize = tuples.iter().map(Tuple::len).sum();
    assert_eq!(total, truth.len(), "truth must label every record");
    let n_clusters = truth.iter().copied().max().map_or(0, |m| m + 1);
    if n_clusters == 0 {
        return 0.0;
    }
    // For each true cluster, count how many tuples its records land in.
    let mut first_tuple: Vec<Option<usize>> = vec![None; n_clusters];
    let mut split = vec![false; n_clusters];
    let mut idx = 0;
    for (tuple_i, tuple) in tuples.iter().enumerate() {
        for _ in 0..tuple.len() {
            let cluster = truth[idx];
            match first_tuple[cluster] {
                None => first_tuple[cluster] = Some(tuple_i),
                Some(t) if t != tuple_i => split[cluster] = true,
                _ => {}
            }
            idx += 1;
        }
    }
    split.iter().filter(|&&s| s).count() as f64 / n_clusters as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{SystemLogEntry, TestLogEntry, WorkloadTag};
    use btpan_faults::{SystemFault, UserFailure};
    use btpan_sim::time::SimTime;

    fn rec(seq: u64, at_s: u64) -> LogRecord {
        LogRecord::from_system(
            seq,
            SystemLogEntry::new(SimTime::from_secs(at_s), 1, SystemFault::HciCommandTimeout),
        )
    }

    fn fail_rec(seq: u64, at_s: u64) -> LogRecord {
        LogRecord::from_test(
            seq,
            TestLogEntry {
                at: SimTime::from_secs(at_s),
                node: 1,
                failure: UserFailure::ConnectFailed,
                workload: WorkloadTag::Random,
                packet_type: None,
                packets_sent_before: None,
                app: None,
                distance_m: 5.0,
                idle_before_s: None,
            },
        )
    }

    #[test]
    fn gap_splits_tuples() {
        let records = vec![rec(0, 0), rec(1, 10), rec(2, 1000), rec(3, 1005)];
        let tuples = coalesce(&records, SimDuration::from_secs(30));
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].len(), 2);
        assert_eq!(tuples[1].len(), 2);
    }

    #[test]
    fn window_is_gap_based_not_span_based() {
        // Chains longer than the window stay together if each gap fits.
        let records = vec![rec(0, 0), rec(1, 25), rec(2, 50), rec(3, 75)];
        let tuples = coalesce(&records, SimDuration::from_secs(30));
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].span(), SimDuration::from_secs(75));
    }

    #[test]
    fn zero_window_isolates_distinct_times() {
        let records = vec![rec(0, 1), rec(1, 1), rec(2, 2)];
        let tuples = coalesce(&records, SimDuration::ZERO);
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].len(), 2, "simultaneous events share a tuple");
    }

    #[test]
    fn huge_window_collapses_everything() {
        let records: Vec<LogRecord> = (0..20).map(|i| rec(i, i * 100)).collect();
        let tuples = coalesce(&records, SimDuration::from_secs(100_000));
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].len(), 20);
    }

    #[test]
    fn monotone_in_window() {
        // Property: more window never means more tuples.
        let records: Vec<LogRecord> = [0u64, 3, 9, 11, 40, 41, 90, 300, 301, 302]
            .iter()
            .enumerate()
            .map(|(i, &s)| rec(i as u64, s))
            .collect();
        let mut prev = usize::MAX;
        for w in [0u64, 1, 2, 5, 10, 30, 50, 100, 500] {
            let n = coalesce(&records, SimDuration::from_secs(w)).len();
            assert!(n <= prev, "window {w}: {n} > {prev}");
            prev = n;
        }
    }

    #[test]
    fn tuple_accessors() {
        let records = vec![rec(0, 0), fail_rec(1, 5), rec(2, 9)];
        let tuples = coalesce(&records, SimDuration::from_secs(30));
        assert_eq!(tuples.len(), 1);
        let t = &tuples[0];
        assert_eq!(t.failures().count(), 1);
        assert_eq!(t.system_entries().count(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(coalesce(&[], SimDuration::from_secs(10)).is_empty());
    }

    #[test]
    fn advance_before_push_matches_batch() {
        // A watermark at the incoming record's time closes exactly the
        // tuples the push rule would close.
        let records: Vec<LogRecord> = [0u64, 3, 9, 11, 40, 41, 90, 300, 301, 302]
            .iter()
            .enumerate()
            .map(|(i, &s)| rec(i as u64, s))
            .collect();
        for w in [0u64, 1, 5, 10, 30, 100, 500] {
            let window = SimDuration::from_secs(w);
            let mut c = OnlineCoalescer::new(window);
            let mut tuples = Vec::new();
            for r in &records {
                tuples.extend(c.advance(r.at));
                tuples.extend(c.push(r.clone()));
            }
            tuples.extend(c.finish());
            assert_eq!(tuples, coalesce(&records, window), "window {w}");
        }
    }

    #[test]
    fn advance_closes_only_dead_tuples() {
        let window = SimDuration::from_secs(30);
        let mut c = OnlineCoalescer::new(window);
        assert!(c.push(rec(0, 100)).is_none());
        // Watermark within the window of the last record: still open.
        assert!(c.advance(SimTime::from_secs(120)).is_none());
        assert_eq!(c.buffered(), 1);
        // Watermark past last + window: the tuple can never grow again.
        let t = c.advance(SimTime::from_secs(131)).expect("closed");
        assert_eq!(t.len(), 1);
        assert!(c.is_idle());
        // Idempotent on an empty coalescer.
        assert!(c.advance(SimTime::from_secs(10_000)).is_none());
    }

    #[test]
    fn push_after_advance_starts_fresh_tuple() {
        let window = SimDuration::from_secs(30);
        let mut c = OnlineCoalescer::new(window);
        c.push(rec(0, 100));
        c.advance(SimTime::from_secs(200)).expect("closed");
        assert!(c.push(rec(1, 250)).is_none(), "no double close");
        assert_eq!(c.buffered(), 1);
    }

    #[test]
    fn seeded_chain_joins_or_splits_by_gap() {
        let window = SimDuration::from_secs(30);
        // Record within the window of the seed chain: joins it.
        let mut c = OnlineCoalescer::seeded(window, vec![rec(0, 90), rec(1, 100)]);
        assert!(c.push(rec(2, 120)).is_none());
        assert_eq!(c.buffered(), 3);
        // Record past the window: the pure-seed tuple closes first.
        let mut c = OnlineCoalescer::seeded(window, vec![rec(0, 100)]);
        let closed = c.push(rec(1, 200)).expect("seed tuple closed");
        assert_eq!(closed.len(), 1);
        assert_eq!(c.buffered(), 1);
    }

    #[test]
    fn coverage_preserved() {
        // Every record lands in exactly one tuple.
        let records: Vec<LogRecord> = (0..50).map(|i| rec(i, i * i)).collect();
        let tuples = coalesce(&records, SimDuration::from_secs(17));
        let total: usize = tuples.iter().map(Tuple::len).sum();
        assert_eq!(total, records.len());
    }
}

#[cfg(test)]
mod scheme_tests {
    use super::*;
    use crate::entry::SystemLogEntry;
    use btpan_faults::SystemFault;
    use btpan_sim::time::SimTime;

    fn rec(seq: u64, at_s: u64) -> LogRecord {
        LogRecord::from_system(
            seq,
            SystemLogEntry::new(SimTime::from_secs(at_s), 1, SystemFault::HciCommandTimeout),
        )
    }

    #[test]
    fn fixed_window_truncates_long_cascades() {
        // A cascade of events 20 s apart, spanning 80 s, window 30 s:
        // the sliding rule keeps one tuple; the fixed rule splits.
        let records: Vec<LogRecord> = (0..5).map(|i| rec(i, i * 20)).collect();
        let w = SimDuration::from_secs(30);
        assert_eq!(coalesce(&records, w).len(), 1);
        assert_eq!(coalesce_fixed_window(&records, w).len(), 3);
    }

    #[test]
    fn schemes_agree_on_tight_clusters() {
        let records = vec![rec(0, 0), rec(1, 2), rec(2, 500), rec(3, 501)];
        let w = SimDuration::from_secs(30);
        assert_eq!(
            coalesce(&records, w).len(),
            coalesce_fixed_window(&records, w).len()
        );
    }

    #[test]
    fn truncation_rate_quantifies_the_difference() {
        // Two true clusters: a long cascade (records 0..5, 20 s apart)
        // and a tight pair far away.
        let mut records: Vec<LogRecord> = (0..5).map(|i| rec(i, i * 20)).collect();
        records.push(rec(5, 10_000));
        records.push(rec(6, 10_001));
        let truth = vec![0, 0, 0, 0, 0, 1, 1];
        let w = SimDuration::from_secs(30);
        let sliding = truncation_rate(&coalesce(&records, w), &truth);
        let fixed = truncation_rate(&coalesce_fixed_window(&records, w), &truth);
        assert_eq!(sliding, 0.0, "sliding rule must not truncate");
        assert_eq!(fixed, 0.5, "fixed rule truncates the cascade");
    }

    #[test]
    fn fixed_window_preserves_every_record() {
        let records: Vec<LogRecord> = (0..40).map(|i| rec(i, i * 13)).collect();
        let tuples = coalesce_fixed_window(&records, SimDuration::from_secs(17));
        let total: usize = tuples.iter().map(Tuple::len).sum();
        assert_eq!(total, records.len());
    }

    #[test]
    #[should_panic(expected = "truth must label")]
    fn truncation_rate_guards_coverage() {
        let records = vec![rec(0, 0)];
        let tuples = coalesce(&records, SimDuration::from_secs(1));
        let _ = truncation_rate(&tuples, &[0, 0]);
    }
}
