//! Event-time windows with watermark-driven emission.
//!
//! The count-based executors in this crate answer "the last `n` tuples"
//! on every slide; [`TimeWindowExec`] instead answers aligned **time**
//! windows `[k·slide, k·slide + range)` over event timestamps, emitting a
//! window's answer exactly once — when the watermark passes its end, i.e.
//! when no in-flight tuple can still land inside it. Tuples may arrive in
//! any order; the [`FingerBTree`] underneath absorbs the disorder, and a
//! tuple older than the current watermark is refused (the caller counts
//! it as late).
//!
//! **Emission rule.** A window `[end − range, end)` of a query is emitted
//! if and only if at least one accepted tuple falls in it. Windows before
//! the first tuple, gaps between tuples and windows after the last one
//! produce nothing: when a query's next window is due, the executor finds
//! the oldest live tuple at or after that window's start (an O(log n)
//! successor lookup on the tree) and jumps straight to the first aligned
//! window holding it. A query with no live tuple left goes back to having
//! no cursor at all — the state it had before its first tuple — and an
//! executor whose tree is empty is **idle**: it holds nothing a future
//! window needs, so a keyed caller may drop it or [`reset`] it for reuse.
//!
//! Emission is **watermark-deterministic**: which answers come out of
//! which `advance_watermark` call depends on the watermark values fed in,
//! but the full answer *sequence* — `(query, window end, value)` triples
//! in window order — depends only on the accepted tuple set. Feeding the
//! same tuples through different batchings or shardings yields the same
//! answers.
//!
//! [`reset`]: TimeWindowExec::reset

use swag_core::ops::AggregateOp;
use swag_ooo::{FingerBTree, Timestamp};

/// One aligned time window: `range` wide, advancing by `slide`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindowSpec {
    /// Window width in event-time units.
    pub range: u64,
    /// Distance between consecutive window starts.
    pub slide: u64,
}

impl TimeWindowSpec {
    /// A `range`-wide window sliding by `slide`; both must be ≥ 1.
    pub fn new(range: u64, slide: u64) -> Self {
        assert!(range >= 1, "window range must be at least 1");
        assert!(slide >= 1, "window slide must be at least 1");
        TimeWindowSpec { range, slide }
    }

    /// A tumbling window: slide = range.
    pub fn tumbling(range: u64) -> Self {
        Self::new(range, range)
    }

    /// End of the earliest aligned window holding `ts`: the smallest
    /// `k·slide + range > ts`.
    fn first_end_after(&self, ts: Timestamp) -> Timestamp {
        let k = if ts < self.range {
            0
        } else {
            (ts - self.range) / self.slide + 1
        };
        k * self.slide + self.range
    }
}

/// One emitted answer: `(query index, window end, lowered value)`.
pub type TimeAnswer<T> = (usize, Timestamp, T);

/// Shared-tree executor for one or more time windows over a single
/// out-of-order stream (the event-time sibling of the shared-plan
/// multi-query executors).
#[derive(Debug)]
pub struct TimeWindowExec<O: AggregateOp> {
    tree: FingerBTree<O>,
    specs: Vec<TimeWindowSpec>,
    /// Per-spec end of the next window that may hold data; `None` while
    /// no live tuple lies in a window not yet emitted (before the first
    /// tuple, and again once a query's last window holding data is out).
    /// Every window before the cursor is emitted or empty.
    next_end: Vec<Option<Timestamp>>,
    watermark: Timestamp,
    accepted: u64,
}

impl<O: AggregateOp> TimeWindowExec<O> {
    /// An executor answering `specs` with `op` over a shared tree.
    pub fn new(op: O, specs: Vec<TimeWindowSpec>) -> Self {
        assert!(!specs.is_empty(), "need at least one time window");
        let next_end = vec![None; specs.len()];
        TimeWindowExec {
            tree: FingerBTree::new(op),
            specs,
            next_end,
            watermark: 0,
            accepted: 0,
        }
    }

    /// The window specs being answered, in query order.
    pub fn specs(&self) -> &[TimeWindowSpec] {
        &self.specs
    }

    /// The watermark last passed to
    /// [`advance_watermark`](Self::advance_watermark).
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Tuples accepted so far (late refusals excluded).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Live tuples currently held in the tree.
    pub fn live(&self) -> usize {
        self.tree.len()
    }

    /// Largest live event timestamp, or `None` when the tree is empty.
    /// (Accepted-then-evicted tuples no longer count — this is the live
    /// window's frontier, which is what watermark-lag reporting needs.)
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.tree.max_ts()
    }

    /// Offer one tuple at event time `ts`. Returns `false` — and leaves
    /// all state untouched — when `ts` is below the watermark: the
    /// windows it belongs to may already be emitted. Callers count those
    /// as late drops.
    pub fn insert(&mut self, ts: Timestamp, value: &O::Input) -> bool {
        if ts < self.watermark {
            return false;
        }
        self.prime_next_end(ts);
        self.tree.insert_value(ts, value);
        self.accepted += 1;
        true
    }

    /// Offer a batch; returns how many were accepted (the rest were
    /// late). Rides the tree's bulk path when the whole batch is on time,
    /// which is every batch the keyed engine sends (its router drops late
    /// tuples first).
    pub fn bulk_insert(&mut self, batch: &[(Timestamp, O::Partial)]) -> usize {
        let wm = self.watermark;
        let mut accepted = 0usize;
        for &(ts, _) in batch {
            if ts >= wm {
                self.prime_next_end(ts);
                accepted += 1;
            }
        }
        if accepted == batch.len() {
            self.tree.bulk_insert(batch);
        } else {
            for (ts, p) in batch.iter().filter(|e| e.0 >= wm) {
                self.tree.insert(*ts, p.clone()); // alloc:amortized node arena grows to the tree high-water mark; freed nodes recycle through the free list
            }
        }
        self.accepted += accepted as u64;
        accepted
    }

    /// Start (or pull back) every query at the earliest aligned window
    /// that holds this tuple. Taking the minimum over accepted tuples —
    /// not just the first arrival — keeps the emitted window set
    /// order-insensitive: the candidate end is always above the
    /// watermark, so an already-emitted window can never be re-opened,
    /// and every window the cursor skipped before it held no tuple.
    fn prime_next_end(&mut self, ts: Timestamp) {
        for (spec, next) in self.specs.iter().zip(self.next_end.iter_mut()) {
            let candidate = spec.first_end_after(ts);
            *next = Some(next.map_or(candidate, |e| e.min(candidate)));
        }
    }

    /// Raise the watermark to `wm` and append every window whose end it
    /// passed to `out`, oldest first (queries interleaved in window-end
    /// order, ties by query index). Only windows holding data are
    /// emitted. Entries no longer reachable by any future window are
    /// evicted. A watermark below the current one emits nothing —
    /// watermarks only move forward.
    pub fn advance_watermark(&mut self, wm: Timestamp, out: &mut Vec<TimeAnswer<O::Output>>) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        self.emit_due(wm, out);
        self.evict_unreachable();
    }

    /// Close the stream: append every remaining window holding a live
    /// tuple to `out`, and raise the watermark past the last of them.
    /// Appends nothing if no tuple arrived since the last emission.
    pub fn finish(&mut self, out: &mut Vec<TimeAnswer<O::Output>>) {
        let Some(max) = self.tree.max_ts() else {
            return;
        };
        self.emit_due(Timestamp::MAX, out);
        // The end of each query's last aligned window containing `max`.
        for s in &self.specs {
            self.watermark = self.watermark.max((max / s.slide) * s.slide + s.range);
        }
        self.evict_unreachable();
    }

    /// Emit every window holding data whose end is ≤ `bound`, oldest end
    /// first (ties by query index). A due cursor whose window is empty
    /// jumps straight to the first window holding the next live tuple,
    /// or to `None` when no live tuple is left for its query.
    fn emit_due(&mut self, bound: Timestamp, out: &mut Vec<TimeAnswer<O::Output>>) {
        loop {
            let due = self
                .next_end
                .iter()
                .enumerate()
                .filter_map(|(q, e)| e.map(|end| (end, q)))
                .filter(|&(end, _)| end <= bound)
                .min();
            let Some((end, q)) = due else { break };
            let (Some(spec), Some(cursor)) = (self.specs.get(q), self.next_end.get_mut(q)) else {
                break;
            };
            let start = end - spec.range;
            *cursor = match self.tree.first_at_or_after(start) {
                Some(ts) if ts < end => {
                    let part = self.tree.query_range(start, end);
                    out.push((q, end, self.tree.op().lower(&part))); // alloc:amortized the caller's answer buffer keeps its capacity across advances
                    Some(end + spec.slide)
                }
                // Every window from `end` up to the one holding `ts` is
                // empty: `ts` is the oldest live tuple at or after `start`.
                Some(ts) => Some(spec.first_end_after(ts)),
                None => None,
            };
        }
    }

    /// True when the executor holds no live tuple: no future window needs
    /// anything it has, so a keyed caller may retire it.
    pub fn is_idle(&self) -> bool {
        self.tree.is_empty()
    }

    /// Return an idle executor to its just-constructed state (watermark
    /// 0, nothing accepted, no cursors) for reuse under another key,
    /// keeping its allocations. Live tuples, if any, are dropped.
    pub fn reset(&mut self) {
        self.tree.bulk_evict(self.tree.len());
        self.next_end.fill(None);
        self.watermark = 0;
        self.accepted = 0;
    }

    /// Validate the underlying tree's structural invariants (see
    /// [`FingerBTree::check_invariants`]).
    pub fn check_invariants(&mut self) -> Result<(), swag_core::InvariantViolation> {
        self.tree.check_invariants()
    }

    /// Drop entries below every query's next window start — no future
    /// window `[next_end - range + j·slide, …)` can reach them. A query
    /// without a cursor needs no live entry, so when none has one the
    /// tree empties. An empty tree leaves no window to emit, so every
    /// cursor is cleared and the executor is idle.
    fn evict_unreachable(&mut self) {
        let cutoff = self
            .next_end
            .iter()
            .zip(self.specs.iter())
            .filter_map(|(e, s)| e.map(|end| end - s.range))
            .min();
        match cutoff {
            Some(cutoff) => self.tree.evict_older_than(cutoff),
            None => self.tree.bulk_evict(self.tree.len()),
        };
        if self.tree.is_empty() {
            self.next_end.fill(None);
        }
    }
}

impl<O: AggregateOp> TimeWindowExec<O> {
    /// Capture the executor's full state: watermark, accepted count, the
    /// window specs with their per-spec emission cursors, and the tree's
    /// live entries in timestamp order.
    pub fn save_state(&self, w: &mut swag_core::state::StateWriter<O::Partial>) {
        w.word(self.watermark);
        w.word(self.accepted);
        w.usize_word(self.specs.len());
        for s in &self.specs {
            w.word(s.range);
            w.word(s.slide);
        }
        for ne in &self.next_end {
            match ne {
                Some(end) => {
                    w.word(1);
                    w.word(*end);
                }
                None => {
                    w.word(0);
                    w.word(0);
                }
            }
        }
        let entries = self.tree.entries();
        w.usize_word(entries.len());
        for (ts, p) in entries {
            w.word(ts);
            w.partial(p);
        }
    }

    /// Rebuild an executor from a capture. The specs come from the
    /// capture itself (the creation-time list is part of the state), and
    /// the tree is rebuilt from its entries via the bulk in-order path —
    /// see [`FingerBTree::from_entries`] for the bitwise caveat on
    /// non-exact floating-point streams.
    pub fn load_state(
        op: O,
        r: &mut swag_core::state::StateReader<'_, O::Partial>,
    ) -> Result<Self, swag_core::state::StateError> {
        use swag_core::state::corrupt;
        let watermark = r.word("time-window watermark")?;
        let accepted = r.word("time-window accepted")?;
        let nspecs = r.usize_word("time-window spec count")?;
        if nspecs == 0 {
            return Err(corrupt("time-window: no specs"));
        }
        let mut specs = Vec::with_capacity(nspecs);
        for _ in 0..nspecs {
            let range = r.word("time-window spec range")?;
            let slide = r.word("time-window spec slide")?;
            if range == 0 || slide == 0 {
                return Err(corrupt(format!(
                    "time-window: spec {range}x{slide} has a zero dimension"
                )));
            }
            specs.push(TimeWindowSpec { range, slide });
        }
        let mut next_end = Vec::with_capacity(nspecs);
        for _ in 0..nspecs {
            let flag = r.word("time-window next_end flag")?;
            let end = r.word("time-window next_end value")?;
            next_end.push(match flag {
                0 => None,
                1 => Some(end),
                other => {
                    return Err(corrupt(format!(
                        "time-window: next_end flag {other} is not 0/1"
                    )))
                }
            });
        }
        let nentries = r.usize_word("time-window entry count")?;
        let mut entries = Vec::with_capacity(nentries);
        let mut prev: Option<Timestamp> = None;
        for _ in 0..nentries {
            let ts = r.word("time-window entry ts")?;
            let p = r.partial("time-window entry value")?;
            if prev.is_some_and(|t| ts < t) {
                return Err(corrupt(format!(
                    "time-window: entry timestamp {ts} out of order"
                )));
            }
            prev = Some(ts);
            entries.push((ts, p));
        }
        Ok(TimeWindowExec {
            tree: FingerBTree::from_entries(op, &entries),
            specs,
            next_end,
            watermark,
            accepted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::ops::{Max, Sum};

    fn advance<O: AggregateOp>(
        exec: &mut TimeWindowExec<O>,
        wm: Timestamp,
    ) -> Vec<TimeAnswer<O::Output>> {
        let mut out = Vec::new();
        exec.advance_watermark(wm, &mut out);
        out
    }

    fn finish<O: AggregateOp>(exec: &mut TimeWindowExec<O>) -> Vec<TimeAnswer<O::Output>> {
        let mut out = Vec::new();
        exec.finish(&mut out);
        out
    }

    #[test]
    fn tumbling_sum_emits_on_watermark() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(10)]);
        for ts in 0..25u64 {
            assert!(exec.insert(ts, &1.0));
        }
        // Nothing due yet.
        assert!(advance(&mut exec, 9).is_empty());
        // Watermark 10 closes [0, 10).
        assert_eq!(advance(&mut exec, 10), vec![(0, 10, 10.0)]);
        // 25 closes [10, 20) only; [20, 30) stays open.
        assert_eq!(advance(&mut exec, 25), vec![(0, 20, 10.0)]);
        assert_eq!(finish(&mut exec), vec![(0, 30, 5.0)]);
    }

    #[test]
    fn sliding_window_overlaps() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::new(10, 5)]);
        for ts in 0..20u64 {
            exec.insert(ts, &1.0);
        }
        let got = finish(&mut exec);
        // Windows: [0,10), [5,15), [10,20), [15,25) — the last holds 5.
        assert_eq!(
            got,
            vec![(0, 10, 10.0), (0, 15, 10.0), (0, 20, 10.0), (0, 25, 5.0)]
        );
    }

    #[test]
    fn multiple_queries_share_the_tree() {
        let mut exec = TimeWindowExec::new(
            Sum::<f64>::new(),
            vec![TimeWindowSpec::tumbling(4), TimeWindowSpec::tumbling(8)],
        );
        for ts in 0..8u64 {
            exec.insert(ts, &(ts as f64));
        }
        let got = finish(&mut exec);
        // Oldest window end first; ties in query order.
        assert_eq!(got, vec![(0, 4, 6.0), (0, 8, 22.0), (1, 8, 28.0)]);
    }

    #[test]
    fn late_tuple_is_refused_and_state_untouched() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(10)]);
        exec.insert(5, &1.0);
        advance(&mut exec, 10);
        assert!(!exec.insert(9, &100.0), "ts 9 < watermark 10 is late");
        assert_eq!(exec.accepted(), 1);
        exec.insert(10, &2.0);
        assert_eq!(finish(&mut exec), vec![(0, 20, 2.0)]);
    }

    #[test]
    fn disorder_below_watermark_lag_changes_nothing() {
        // In-order run.
        let tuples: Vec<(u64, f64)> = (0..200u64).map(|t| (t, ((t * 7) % 23) as f64)).collect();
        let spec = vec![TimeWindowSpec::new(16, 8)];
        let mut in_order = TimeWindowExec::new(Max::<f64>::new(), spec.clone());
        for &(ts, v) in &tuples {
            in_order.insert(ts, &v);
        }
        let expect = finish(&mut in_order);

        // Same tuples, displaced by up to 31 positions, watermark trailing
        // by 32: every emission happens after all its tuples arrived.
        let mut shuffled = tuples.clone();
        for block in shuffled.chunks_mut(32) {
            block.reverse();
        }
        let mut ooo = TimeWindowExec::new(Max::<f64>::new(), spec);
        let mut got = Vec::new();
        for (i, &(ts, v)) in shuffled.iter().enumerate() {
            assert!(ooo.insert(ts, &v), "tuple {i} wrongly late");
            let arrived = shuffled[..=i].iter().map(|&(t, _)| t).max().unwrap_or(0);
            ooo.advance_watermark(arrived.saturating_sub(32), &mut got);
        }
        ooo.finish(&mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn windows_before_first_event_are_skipped() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(10)]);
        exec.insert(1000, &1.0);
        // No flood of empty [0,10), [10,20)… answers.
        assert_eq!(advance(&mut exec, 1005), vec![]);
        assert_eq!(finish(&mut exec), vec![(0, 1010, 1.0)]);
    }

    /// Feed ts 3, 7, 12 and then ts 500, stepping the watermark across
    /// the gap between them either after or before 500 arrives.
    fn gap_run(specs: &[TimeWindowSpec], late_first: bool) -> Vec<TimeAnswer<f64>> {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), specs.to_vec());
        let mut out = Vec::new();
        for ts in [3u64, 7, 12] {
            assert!(exec.insert(ts, &(ts as f64)));
        }
        exec.advance_watermark(40, &mut out);
        if late_first {
            assert!(exec.insert(500, &1.0));
        }
        // Step the watermark across the gap one slide at a time.
        for wm in (50..=490).step_by(10) {
            exec.advance_watermark(wm, &mut out);
        }
        if !late_first {
            assert!(exec.insert(500, &1.0));
        }
        exec.advance_watermark(600, &mut out);
        exec.finish(&mut out);
        out
    }

    #[test]
    fn a_gap_longer_than_the_range_emits_nothing() {
        let specs = [TimeWindowSpec::new(20, 10)];
        let before = gap_run(&specs, true);
        let after = gap_run(&specs, false);
        assert_eq!(
            before, after,
            "arrival time of the later tuple is invisible"
        );
        // [0,20) 3+7+12, [10,30) 12, then nothing until 500's windows.
        assert_eq!(
            before,
            vec![(0, 20, 22.0), (0, 30, 12.0), (0, 510, 1.0), (0, 520, 1.0)]
        );
    }

    #[test]
    fn a_gap_emits_nothing_for_every_query() {
        // A tumbling and a sliding query: the sliding one holds entries
        // the tumbling one has already passed, so the skip cannot read the
        // oldest live tuple — it must look past the query's own start.
        let specs = [TimeWindowSpec::tumbling(10), TimeWindowSpec::new(40, 10)];
        let before = gap_run(&specs, true);
        let after = gap_run(&specs, false);
        assert_eq!(
            before, after,
            "arrival time of the later tuple is invisible"
        );
        assert_eq!(
            before,
            vec![
                (0, 10, 10.0),
                (0, 20, 12.0),
                (1, 40, 22.0),
                (1, 50, 12.0),
                (0, 510, 1.0),
                (1, 510, 1.0),
                (1, 520, 1.0),
                (1, 530, 1.0),
                (1, 540, 1.0),
            ]
        );
    }

    #[test]
    fn an_executor_is_idle_once_its_last_window_is_out() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::new(20, 10)]);
        assert!(exec.is_idle());
        exec.insert(15, &1.0);
        assert_eq!(advance(&mut exec, 20), vec![(0, 20, 1.0)]);
        assert!(!exec.is_idle(), "[10, 30) still holds ts 15");
        assert_eq!(advance(&mut exec, 30), vec![(0, 30, 1.0)]);
        assert!(exec.is_idle());
        assert!(advance(&mut exec, 1000).is_empty());

        exec.reset();
        assert_eq!((exec.watermark(), exec.accepted(), exec.live()), (0, 0, 0));
        exec.insert(5, &2.0);
        assert_eq!(finish(&mut exec), vec![(0, 20, 2.0)]);
    }

    #[test]
    fn eviction_keeps_live_set_bounded() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::new(10, 5)]);
        let mut out = Vec::new();
        for ts in 0..10_000u64 {
            exec.insert(ts, &1.0);
            if ts % 100 == 0 {
                exec.advance_watermark(ts.saturating_sub(20), &mut out);
            }
        }
        assert!(
            exec.live() <= 200,
            "live set {} should track range + lag, not the stream",
            exec.live()
        );
    }
}
