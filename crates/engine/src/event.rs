//! The event-time execution path: out-of-order keyed streams, watermarks,
//! and a router-side late-tuple policy.
//!
//! [`ShardedEngine::run_events`] runs the same router and shard-worker
//! loop as [`ShardedEngine::run`], for sources whose tuples carry an
//! **event timestamp** and may arrive out of order. A count run is the
//! special case whose tuples carry no timestamp and whose watermark never
//! rises; an event run differs only at these points:
//!
//! * Every routed batch carries the router's current **watermark** — a
//!   promise that no tuple below it will follow. With an explicit
//!   `lateness` bound the watermark is `max routed timestamp − lateness`;
//!   without one the router trusts the source's own
//!   [`low_watermark`](swag_data::event::KeyedEventSource::low_watermark).
//! * Tuples below the watermark are **dropped at the router** — counted
//!   into [`EngineStats::late_tuples`], recorded as
//!   [`EventKind::LateDrop`], and never sent. Dropping before the
//!   hash-partition is what makes the answer stream deterministic: the
//!   drop decision depends only on the (single, ordered) source stream,
//!   never on shard count or batch boundaries.
//! * Workers apply each batch through an [`EventProcessor`] and then
//!   advance every live key to the batch's watermark, emitting the time
//!   windows it closed that hold data. Per-key answer sequences are
//!   therefore identical for any shard count: a key's accepted tuples and
//!   its window boundaries fully determine its `(query, window end,
//!   value)` stream.
//! * A key whose windows are all out and whose tree is empty is
//!   **retired** after the advance: [`KeyedEventWindows`] drops it from
//!   its map and keeps the reset executor on a bounded spare list for the
//!   next new key. State and walk length therefore follow the keys active
//!   within the last `range + lateness` of event time, not every key ever
//!   seen.
//!
//! The engine-level watermark is the **minimum across shards** of the
//! per-shard watermarks ([`EngineStats::watermark`]) — the frontier every
//! shard has durably passed.
//!
//! [`EngineStats::late_tuples`]: crate::EngineStats::late_tuples
//! [`EngineStats::watermark`]: crate::EngineStats::watermark
//! [`EventKind::LateDrop`]: swag_trace::EventKind::LateDrop

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use swag_core::ops::AggregateOp;
use swag_data::event::KeyedEventSource;
use swag_data::keyed::Key;
use swag_stream::{TimeAnswer, TimeWindowExec, TimeWindowSpec};

use crate::shard::{Batch, EngineRun, Pull, Routed, ShardedEngine};

/// One routed message on the event path: `(key, event timestamp, value)`
/// tuples plus the router's watermark at flush time.
pub type EventBatch = Batch<(Key, u64, f64)>;

/// Per-key event-time processing logic run inside one shard — the
/// event-time sibling of [`ShardProcessor`](crate::ShardProcessor).
pub trait EventProcessor: Send {
    /// The answer type delivered per key.
    type Answer: Send;

    /// Apply a run of timestamped tuples that all belong to `key`, in
    /// routing order. Tuples are guaranteed to be at or above every
    /// watermark previously passed to
    /// [`advance_watermark`](Self::advance_watermark).
    fn apply(&mut self, key: Key, tuples: &[(u64, f64)]);

    /// Raise the watermark for **every** key, appending each window
    /// answer the advance closes as a `(key, answer)` pair. Watermarks
    /// arrive monotone non-decreasing.
    fn advance_watermark(&mut self, watermark: u64, out: &mut Vec<(Key, Self::Answer)>);

    /// End of stream: emit every remaining window holding data.
    fn finish(&mut self, out: &mut Vec<(Key, Self::Answer)>);

    /// Number of keys holding state: keys with a live tuple or a window
    /// still to emit. Retired keys do not count.
    fn keys(&self) -> usize;

    /// Largest event timestamp accepted so far (for watermark-lag
    /// reporting), or `None` before the first tuple.
    fn max_ts(&self) -> Option<u64>;

    /// Validate the structural invariants of every key's window state,
    /// naming the offending key. Takes `&mut self` because the FiBA
    /// checker repairs lazy aggregate caches as it folds. The default has
    /// no state to check.
    fn check_invariants(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Retired executors kept for reuse, per processor. Enough to absorb the
/// keys that go quiet and come back between two advances without holding
/// memory for every key ever seen.
const MAX_SPARES: usize = 256;

/// One [`TimeWindowExec`] (a FiBA finger B-tree plus window bookkeeping)
/// per live key. Answers are `(query index, window end, lowered value)`.
///
/// Keys live in a `BTreeMap` so watermark advances visit them in key
/// order — a shard's retained answer stream is deterministic, not
/// hash-order dependent. A key is retired after the advance that leaves
/// its executor idle (see [`TimeWindowExec::is_idle`]); its next tuple
/// starts it afresh, from a recycled executor when one is spare.
#[derive(Debug)]
pub struct KeyedEventWindows<O>
where
    O: AggregateOp<Input = f64>,
{
    op: O,
    specs: Vec<TimeWindowSpec>,
    states: BTreeMap<Key, TimeWindowExec<O>>,
    /// Reset executors of retired keys, at most [`MAX_SPARES`].
    spares: Vec<TimeWindowExec<O>>,
    max_ts: Option<u64>,
    /// Reusable lifted-batch buffer for [`EventProcessor::apply`].
    lift_scratch: Vec<(u64, O::Partial)>,
    /// Reusable per-key answer buffer for advances and `finish`.
    answer_scratch: Vec<TimeAnswer<O::Output>>,
    /// Keys an advance left idle, retired once the walk is done.
    idle_scratch: Vec<Key>,
}

impl<O> KeyedEventWindows<O>
where
    O: AggregateOp<Input = f64> + Clone,
{
    /// The given time windows for every key, aggregated by `op`.
    pub fn new(op: O, specs: Vec<TimeWindowSpec>) -> Self {
        Self::from_states(op, specs, [])
    }

    /// The per-key executor, for inspection.
    pub fn state(&self, key: Key) -> Option<&TimeWindowExec<O>> {
        self.states.get(&key)
    }

    /// Every live key's executor, for snapshotting (key order). Retired
    /// keys are absent: their next tuple starts them afresh, exactly as
    /// it would on a restored processor.
    pub fn states(&self) -> impl Iterator<Item = (Key, &TimeWindowExec<O>)> {
        self.states.iter().map(|(&k, e)| (k, e))
    }

    /// Rebuild a processor from restored per-key executors — the restore
    /// counterpart of [`states`](Self::states). `max_ts` is recovered
    /// from the executors' trees; keys absent from `states` start fresh
    /// on their first tuple.
    pub fn from_states(
        op: O,
        specs: Vec<TimeWindowSpec>,
        states: impl IntoIterator<Item = (Key, TimeWindowExec<O>)>,
    ) -> Self {
        assert!(!specs.is_empty(), "need at least one time window");
        let states: BTreeMap<Key, TimeWindowExec<O>> = states.into_iter().collect();
        let max_ts = states.values().filter_map(TimeWindowExec::max_ts).max();
        KeyedEventWindows {
            op,
            specs,
            states,
            spares: Vec::new(),
            max_ts,
            lift_scratch: Vec::new(),
            answer_scratch: Vec::new(),
            idle_scratch: Vec::new(),
        }
    }

    /// Remove the keys the last walk found idle, keeping their reset
    /// executors for reuse while the spare list has room.
    fn retire_idle(&mut self) {
        for key in self.idle_scratch.drain(..) {
            let Some(mut exec) = self.states.remove(&key) else {
                continue;
            };
            if self.spares.len() < MAX_SPARES {
                exec.reset();
                self.spares.push(exec); // alloc:amortized the spare list is capped at MAX_SPARES
            }
        }
    }
}

impl<O> EventProcessor for KeyedEventWindows<O>
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send,
    O::Partial: Send,
{
    type Answer = (usize, u64, f64);

    fn apply(&mut self, key: Key, tuples: &[(u64, f64)]) {
        let KeyedEventWindows {
            op,
            specs,
            states,
            spares,
            max_ts,
            lift_scratch,
            ..
        } = self;
        let exec = match states.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let exec = spares
                    .pop()
                    .unwrap_or_else(|| TimeWindowExec::new(op.clone(), specs.clone()));
                e.insert(exec) // alloc:amortized one map node per active key; a retired key frees its node
            }
        };
        lift_scratch.clear();
        lift_scratch.extend(tuples.iter().map(|&(ts, v)| (ts, op.lift(&v)))); // alloc:amortized the lift buffer keeps its capacity across runs
        exec.bulk_insert(lift_scratch);
        for &(ts, _) in tuples {
            *max_ts = Some(max_ts.map_or(ts, |m| m.max(ts)));
        }
    }

    fn advance_watermark(&mut self, watermark: u64, out: &mut Vec<(Key, Self::Answer)>) {
        let KeyedEventWindows {
            states,
            answer_scratch,
            idle_scratch,
            ..
        } = self;
        for (&key, exec) in states.iter_mut() {
            exec.advance_watermark(watermark, answer_scratch);
            out.extend(answer_scratch.drain(..).map(|a| (key, a))); // alloc:amortized the caller's answer buffer keeps its capacity across advances
            if exec.is_idle() {
                idle_scratch.push(key); // alloc:amortized the idle-key buffer keeps its capacity across advances
            }
        }
        self.retire_idle();
    }

    fn finish(&mut self, out: &mut Vec<(Key, Self::Answer)>) {
        let KeyedEventWindows {
            states,
            answer_scratch,
            ..
        } = self;
        for (&key, exec) in states.iter_mut() {
            // Qualified, so swag-check resolves the call to this executor alone.
            TimeWindowExec::finish(exec, answer_scratch);
            out.extend(answer_scratch.drain(..).map(|a| (key, a))); // alloc:amortized the caller's answer buffer keeps its capacity across advances
        }
    }

    fn keys(&self) -> usize {
        self.states.len()
    }

    fn max_ts(&self) -> Option<u64> {
        self.max_ts
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        for (key, exec) in self.states.iter_mut() {
            exec.check_invariants()
                .map_err(|violation| format!("key {key}: {violation}"))?;
        }
        Ok(())
    }
}

impl ShardedEngine {
    /// Route up to `limit` timestamped tuples from `source` across the
    /// shards, running `make_processor(shard)` on each worker.
    ///
    /// `lateness`: with `Some(l)`, the router's watermark trails the
    /// largest routed timestamp by `l` and anything below it is dropped
    /// (and counted); with `None` the router trusts the source's own
    /// watermark, which for well-behaved sources drops nothing.
    pub fn run_events<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        lateness: Option<u64>,
        make_processor: F,
    ) -> EngineRun<P::Answer>
    where
        S: KeyedEventSource + ?Sized,
        P: EventProcessor,
        F: Fn(usize) -> P + Send + Sync,
    {
        self.route(&mut Events(source), limit, lateness, true, make_processor)
            .0
    }

    /// [`run_events`](Self::run_events), but for resident pipelines: open
    /// windows are **not** flushed at drain (no [`EventProcessor::finish`]
    /// — the stream pauses, it does not end), and each shard's drained
    /// processor is handed back in shard order for snapshotting or the
    /// next cycle. Answers still flow from watermark advances as usual.
    pub fn run_events_collecting<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        lateness: Option<u64>,
        make_processor: F,
    ) -> (EngineRun<P::Answer>, Vec<P>)
    where
        S: KeyedEventSource + ?Sized,
        P: EventProcessor,
        F: Fn(usize) -> P + Send + Sync,
    {
        self.route(&mut Events(source), limit, lateness, false, make_processor)
    }
}

/// An event source as the router pulls it.
struct Events<'a, S: ?Sized>(&'a mut S);

impl<S: KeyedEventSource + ?Sized> Pull for Events<'_, S> {
    type Tuple = (Key, u64, f64);

    fn pull(&mut self) -> Option<(Key, u64, f64)> {
        self.0.next_event()
    }

    fn low_watermark(&self) -> u64 {
        self.0.low_watermark()
    }
}

impl<P: EventProcessor> Routed<P> for (Key, u64, f64) {
    const EVENT_TIME: bool = true;
    type Item = (u64, f64);
    type Answer = P::Answer;

    fn key(&self) -> Key {
        self.0
    }

    fn item(&self) -> (u64, f64) {
        (self.1, self.2)
    }

    fn ts(&self) -> u64 {
        self.1
    }

    fn apply(p: &mut P, key: Key, tuples: &[(u64, f64)], _out: &mut Vec<(Key, P::Answer)>) {
        p.apply(key, tuples);
    }

    fn advance(p: &mut P, watermark: u64, out: &mut Vec<(Key, P::Answer)>) {
        p.advance_watermark(watermark, out);
    }

    fn finish(p: &mut P, out: &mut Vec<(Key, P::Answer)>) {
        p.finish(out);
    }

    fn max_ts(p: &P) -> Option<u64> {
        p.max_ts()
    }

    fn keys(p: &P) -> usize {
        p.keys()
    }

    fn check_invariants(p: &mut P) -> Result<(), String> {
        p.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::EngineConfig;
    use crate::stats::EngineStats;
    use std::collections::HashMap;
    use swag_core::ops::Sum;
    use swag_data::event::{DisorderedKeyedSource, KeyedVecEventSource};
    use swag_data::keyed::KeyedVecSource;

    type Answer = (usize, u64, f64);

    fn run_with(
        shards: usize,
        source: &mut dyn KeyedEventSource,
        lateness: Option<u64>,
    ) -> (EngineStats, Vec<(Key, Answer)>) {
        let engine = ShardedEngine::new(EngineConfig {
            shards,
            queue_capacity: 4,
            batch: 16,
            retain_answers: true,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let run = engine.run_events(source, u64::MAX, lateness, |_| {
            KeyedEventWindows::new(
                Sum::<f64>::new(),
                vec![TimeWindowSpec::tumbling(32), TimeWindowSpec::new(64, 16)],
            )
        });
        (run.stats, run.answers.into_iter().flatten().collect())
    }

    fn per_key(answers: &[(Key, Answer)]) -> HashMap<Key, Vec<Answer>> {
        let mut by_key: HashMap<Key, Vec<Answer>> = HashMap::new();
        for &(k, a) in answers {
            by_key.entry(k).or_default().push(a);
        }
        by_key
    }

    fn keyed_tuples(n: usize, keys: u64) -> Vec<(Key, f64)> {
        (0..n)
            .map(|i| ((i as u64 % keys), ((i * 37) % 101) as f64))
            .collect()
    }

    #[test]
    fn disordered_answers_match_across_shard_counts() {
        for disorder in [0u64, 16, 256] {
            let make = || {
                DisorderedKeyedSource::new(
                    KeyedVecSource::new(keyed_tuples(4000, 13)),
                    disorder,
                    99,
                )
            };
            let reference = per_key(&run_with(1, &mut make(), None).1);
            assert!(!reference.is_empty());
            for shards in [2, 8] {
                let (stats, answers) = run_with(shards, &mut make(), None);
                assert_eq!(
                    per_key(&answers),
                    reference,
                    "disorder {disorder}, {shards} shards"
                );
                assert_eq!(stats.late_tuples, 0, "source watermark is trusted");
                assert_eq!(stats.tuples, 4000);
            }
        }
    }

    /// Keys that burst and then stay silent far longer than the widest
    /// range: key group `g` (three keys) owns positions
    /// `[100·g, 100·g + 100)` of every 3000.
    fn sparse_tuples(n: usize) -> Vec<(Key, f64)> {
        (0..n)
            .map(|i| {
                let group = (i / 100 % 30) as u64;
                (group * 3 + i as u64 % 3, ((i * 37) % 101) as f64)
            })
            .collect()
    }

    #[test]
    fn sparse_keys_emit_only_windows_with_data_at_any_shard_count() {
        let tuples = sparse_tuples(9000);
        let make = || DisorderedKeyedSource::new(KeyedVecSource::new(tuples.clone()), 16, 5);
        let (stats, answers) = run_with(1, &mut make(), None);
        // The windows holding data, from the stamps (position = event
        // time): run_with's queries are tumbling(32) and (64, 16).
        let mut want = std::collections::BTreeSet::new();
        for (ts, &(key, _)) in tuples.iter().enumerate() {
            let ts = ts as u64;
            for (q, (range, slide)) in [(32u64, 32u64), (64, 16)].into_iter().enumerate() {
                // Windows [k·slide, k·slide + range) holding `ts`.
                let first = (ts + 1).saturating_sub(range).div_ceil(slide);
                for k in first..=ts / slide {
                    want.insert((key, q, k * slide + range));
                }
            }
        }
        let got: std::collections::BTreeSet<_> = answers
            .iter()
            .map(|&(k, (q, end, _))| (k, q, end))
            .collect();
        assert_eq!(got.len(), answers.len(), "each window is emitted once");
        assert_eq!(got, want, "emitted windows are exactly those holding data");
        assert!(
            stats.keys() <= 6,
            "{} keys still live: the last 80 positions touch at most two groups",
            stats.keys()
        );

        let reference = per_key(&answers);
        for shards in [2, 8] {
            let (_, answers) = run_with(shards, &mut make(), None);
            assert_eq!(per_key(&answers), reference, "{shards} shards");
        }
    }

    #[test]
    fn per_key_answers_are_window_ordered_and_complete() {
        let mut source =
            DisorderedKeyedSource::new(KeyedVecSource::new(keyed_tuples(2000, 5)), 64, 7);
        let (_, answers) = run_with(2, &mut source, None);
        for (key, seq) in per_key(&answers) {
            for q in 0..2usize {
                let ends: Vec<u64> = seq.iter().filter(|a| a.0 == q).map(|a| a.1).collect();
                assert!(!ends.is_empty(), "key {key} query {q} emitted nothing");
                assert!(
                    ends.windows(2).all(|w| w[0] < w[1]),
                    "key {key} query {q}: window ends not strictly increasing"
                );
            }
        }
        // Tumbling sums over a complete 0..2000 stamp range reconstruct
        // the whole stream's sum.
        let total: f64 = keyed_tuples(2000, 5).iter().map(|&(_, v)| v).sum();
        let tumbling_sum: f64 = answers
            .iter()
            .filter(|&&(_, (q, _, _))| q == 0)
            .map(|&(_, (_, _, v))| v)
            .sum();
        assert_eq!(tumbling_sum, total);
    }

    #[test]
    fn explicit_lateness_drops_and_counts() {
        // Two tuples arrive 100 behind the frontier; lateness 10 must
        // drop them at the router.
        let events = vec![
            (1, 0, 1.0),
            (1, 50, 2.0),
            (1, 200, 4.0),
            (2, 100, 8.0), // 100 < 200 - 10: late
            (1, 90, 16.0), // late
            (2, 205, 32.0),
        ];
        let mut source = KeyedVecEventSource::new(events, u64::MAX);
        let (stats, answers) = run_with(1, &mut source, Some(10));
        assert_eq!(stats.late_tuples, 2);
        assert_eq!(stats.tuples, 4);
        let accepted_sum: f64 = answers
            .iter()
            .filter(|&&(_, (q, _, _))| q == 0)
            .map(|&(_, (_, _, v))| v)
            .sum();
        assert_eq!(accepted_sum, 1.0 + 2.0 + 4.0 + 32.0);
    }

    #[test]
    fn engine_watermark_is_min_across_shards() {
        let mut source =
            DisorderedKeyedSource::new(KeyedVecSource::new(keyed_tuples(1000, 9)), 16, 3);
        let (stats, _) = run_with(4, &mut source, None);
        let min = stats.shards.iter().map(|s| s.watermark).min().unwrap_or(0);
        assert_eq!(stats.watermark(), min);
        assert!(min >= 1000 - 16, "final watermark {min} never caught up");
    }

    #[test]
    fn limit_caps_routed_tuples_on_the_event_path() {
        let mut source =
            DisorderedKeyedSource::new(KeyedVecSource::new(keyed_tuples(1000, 3)), 8, 1);
        let engine = ShardedEngine::new(EngineConfig::with_shards(2));
        let run = engine.run_events(&mut source, 300, None, |_| {
            KeyedEventWindows::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(16)])
        });
        assert_eq!(run.stats.tuples, 300);
    }
}
