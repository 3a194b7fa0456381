//! Layer replays for the traced run. Each replays one layer on the
//! workload's own tuples, from outside, through public functions:
//!
//! * proto — `proto::read_frame` over the run's encoded frames;
//! * engine — `ShardedEngine::run` at `nproc` shards and at 1 shard;
//! * keyed — `KeyedWindows::process_run` over the batches a shard would
//!   see, grouped by key beforehand, one thread;
//! * agg — `lift_slice_into` + `FinalAggregator::bulk_slide` on each
//!   key's runs, without the map;
//! * event — `ShardedEngine::run_events` (1 shard), then
//!   `EventProcessor::{apply, advance_watermark}` timed separately.

use std::io::Cursor;
use std::time::{Duration, Instant};

use swag_core::aggregator::FinalAggregator;
use swag_core::ops::{AggregateOp, CountingOp, MaxF64, OpCounter};
use swag_data::event::KeyedEventSource;
use swag_data::keyed::{Key, KeyedSource};
use swag_engine::{
    shard_of, EngineConfig, EngineStats, EventProcessor, KeyedEventWindows, KeyedWindows,
    ShardProcessor, ShardedEngine,
};
use swag_server::proto;
use swag_stream::TimeWindowSpec;

use crate::sys::{count_allocs, median, process_cpu_ns};
use crate::Report;

/// Engine batch size (tuples per channel message) the replays use: the
/// engine default, which is also the service's default pipeline batch.
pub const BATCH: usize = 256;

/// One routed event batch: the router's watermark and its tuples.
type RoutedBatch = (u64, Vec<(Key, u64, f64)>);

/// Allocation-counted engine runs; the most frequent count is reported.
const ALLOC_RUNS: usize = 5;

/// A keyed source over a borrowed slice: no copy per run.
pub struct SliceSource<'a>(pub std::slice::Iter<'a, (Key, f64)>);

impl KeyedSource for SliceSource<'_> {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        self.0.next().copied()
    }
}

/// A watermarked event source over a borrowed slice; the watermark
/// trails the largest timestamp seen by `lateness`, like the service's.
pub struct EventSliceSource<'a> {
    it: std::slice::Iter<'a, (Key, u64, f64)>,
    frontier: u64,
    lateness: u64,
}

impl<'a> EventSliceSource<'a> {
    pub fn new(tuples: &'a [(Key, u64, f64)], lateness: u64) -> Self {
        EventSliceSource {
            it: tuples.iter(),
            frontier: 0,
            lateness,
        }
    }
}

impl KeyedEventSource for EventSliceSource<'_> {
    fn next_event(&mut self) -> Option<(Key, u64, f64)> {
        let t = self.it.next()?;
        self.frontier = self.frontier.max(t.1);
        Some(*t)
    }

    fn low_watermark(&self) -> u64 {
        self.frontier.saturating_sub(self.lateness)
    }
}

/// Repeat `pass` (which returns the nanoseconds it measured) until
/// `budget` is spent, at least `min_reps` times; returns every sample.
fn repeat(budget: Duration, min_reps: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed() < budget {
        samples.push(pass(samples.len()));
    }
    samples
}

/// `proto::read_frame` over `bytes` (frames without the stream header).
pub fn proto_layer(rep: &mut Report, bytes: &[u8], tuples: usize, budget: Duration) {
    let mut buf = Vec::new();
    let mut ns = repeat(budget, 3, |i| {
        let start = Instant::now();
        let mut r = Cursor::new(bytes);
        let mut n = 0usize;
        while proto::read_frame(&mut r, &mut buf).expect("in-memory frames decode") {
            n += buf.len();
        }
        let end = Instant::now();
        rep.spans
            .record("proto.read_frame", "", i as u64, start, end);
        assert_eq!(n, tuples, "decoded tuple count");
        (end - start).as_nanos() as f64
    });
    rep.put("proto.decode_ns_per_tuple", median(&mut ns) / tuples as f64);
    rep.put(
        "proto.wire_bytes_per_tuple",
        bytes.len() as f64 / tuples as f64,
    );
}

/// Tuples grouped the way a shard worker groups them: routed by
/// [`shard_of`], cut into [`BATCH`]-tuple batches per shard, each batch
/// stable-sorted by key and split into same-key runs.
pub struct Runs {
    /// Run `i` is key `keys[i]` over `values[starts[i]..starts[i + 1]]`.
    keys: Vec<Key>,
    starts: Vec<usize>,
    values: Vec<f64>,
    /// Run index at which each batch ends.
    batch_ends: Vec<usize>,
}

impl Runs {
    pub fn group(tuples: &[(Key, f64)], shards: usize) -> Runs {
        let mut runs = Runs {
            keys: Vec::new(),
            starts: vec![0],
            values: Vec::with_capacity(tuples.len()),
            batch_ends: Vec::new(),
        };
        let mut batches: Vec<Vec<(Key, f64)>> = vec![Vec::with_capacity(BATCH); shards];
        let flush = |runs: &mut Runs, batch: &mut Vec<(Key, f64)>| {
            batch.sort_by_key(|&(k, _)| k);
            for (i, &(k, v)) in batch.iter().enumerate() {
                if i > 0 && batch[i - 1].0 != k {
                    runs.starts.push(runs.values.len());
                }
                if i == 0 || batch[i - 1].0 != k {
                    runs.keys.push(k);
                }
                runs.values.push(v);
            }
            runs.starts.push(runs.values.len());
            runs.batch_ends.push(runs.keys.len());
            batch.clear();
        };
        for &(k, v) in tuples {
            let s = shard_of(k, shards);
            batches[s].push((k, v));
            if batches[s].len() == BATCH {
                flush(&mut runs, &mut batches[s]);
            }
        }
        for b in &mut batches {
            if !b.is_empty() {
                flush(&mut runs, b);
            }
        }
        runs
    }

    fn run(&self, i: usize) -> (Key, &[f64]) {
        (
            self.keys[i],
            &self.values[self.starts[i]..self.starts[i + 1]],
        )
    }

    fn tuples(&self) -> usize {
        self.values.len()
    }
}

/// The count path's layers — engine, keyed, agg — on `tuples`, with the
/// window of `window` tuples aggregated by `op` under algorithm `A`
/// (`C` is the same algorithm over a [`CountingOp`]). Pushes the count
/// path's ledger rows.
pub fn count_layers<O, A, C>(
    rep: &mut Report,
    op: O,
    window: usize,
    tuples: &[(Key, f64)],
    shards: usize,
    budget: Duration,
) where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send + Sync,
    O::Partial: Send,
    A: FinalAggregator<O> + Send,
    C: FinalAggregator<CountingOp<O>>,
{
    let n = tuples.len() as f64;
    let share = budget / 4;

    // Engine at `shards` shards: wall per run, process CPU over all runs.
    let engine = |shards: usize| {
        ShardedEngine::new(EngineConfig {
            shards,
            ..EngineConfig::default()
        })
    };
    let run = |e: &ShardedEngine| -> EngineStats {
        let mut src = SliceSource(tuples.iter());
        e.run(&mut src, u64::MAX, |_| {
            KeyedWindows::<O, A>::new(op.clone(), window)
        })
        .stats
    };
    let wide = engine(shards);
    let cpu0 = process_cpu_ns();
    let mut stats = None;
    let mut walls = repeat(share, 3, |i| {
        let start = Instant::now();
        let s = run(&wide);
        let end = Instant::now();
        rep.spans.record("engine.run", "", i as u64, start, end);
        stats = Some(s);
        (end - start).as_nanos() as f64
    });
    let engine_cpu = (process_cpu_ns() - cpu0) as f64 / (n * walls.len() as f64);
    let wall = median(&mut walls) / n;
    let stats = stats.expect("at least one engine run");
    let narrow = engine(1);
    let mut walls1 = repeat(share / 2, 3, |i| {
        let start = Instant::now();
        run(&narrow);
        let end = Instant::now();
        rep.spans
            .record("engine.run.1shard", "", i as u64, start, end);
        (end - start).as_nanos() as f64
    });
    // std's channel allocates a thread's blocking context the first time
    // it waits, so one run can differ from the next by a few calls: the
    // most frequent count of several runs is the exact figure.
    let mut counts: Vec<u64> = (0..ALLOC_RUNS)
        .map(|_| count_allocs(|| run(&wide)).1)
        .collect();
    counts.sort_unstable();
    let engine_allocs = *counts
        .iter()
        .max_by_key(|&&c| {
            (
                counts.iter().filter(|&&d| d == c).count(),
                std::cmp::Reverse(c),
            )
        })
        .expect("at least one counted run");
    rep.put("engine.ns_per_tuple", wall);
    rep.put("engine.scaling", median(&mut walls1) / n / wall);
    rep.put("engine.tuples_per_batch", stats.tuples_per_batch());
    rep.put("engine.max_queue_depth", stats.max_queue_depth() as f64);
    rep.put("engine.skew", stats.skew());
    rep.put("engine.allocs_per_tuple", engine_allocs as f64 / n);

    // Keyed: the same batches a shard sees, one thread.
    let runs = Runs::group(tuples, shards);
    rep.put(
        "keyed.tuples_per_run",
        runs.tuples() as f64 / runs.keys.len() as f64,
    );
    let mut keyed_ns = repeat(share, 3, |pass| {
        let mut kw = KeyedWindows::<O, A>::new(op.clone(), window);
        let mut out = Vec::with_capacity(BATCH);
        let start = Instant::now();
        let mut r = 0;
        for &end in &runs.batch_ends {
            while r < end {
                let (key, values) = runs.run(r);
                kw.process_run(key, values, &mut out);
                r += 1;
            }
            out.clear();
        }
        let end = Instant::now();
        rep.spans
            .record("keyed.process_run", "", pass as u64, start, end);
        (end - start).as_nanos() as f64
    });
    let keyed = median(&mut keyed_ns) / n;
    rep.put("keyed.ns_per_tuple", keyed);

    // Agg: one aggregator per key, indexed densely, no map.
    let mut dense: Vec<Key> = runs.keys.clone();
    dense.sort_unstable();
    dense.dedup();
    let slot: Vec<usize> = runs
        .keys
        .iter()
        .map(|k| dense.binary_search(k).expect("key is in the dense table"))
        .collect();
    let agg_pass = |aggs: &mut Vec<A>| {
        let mut lift = Vec::with_capacity(BATCH);
        let mut out = Vec::with_capacity(BATCH);
        for (r, &s) in slot.iter().enumerate() {
            let (_, values) = runs.run(r);
            op.lift_slice_into(values, &mut lift);
            aggs[s].bulk_slide(&lift, &mut out);
        }
    };
    let fresh = || -> Vec<A> {
        dense
            .iter()
            .map(|_| A::with_capacity(op.clone(), window))
            .collect()
    };
    let mut agg_ns = repeat(share, 3, |pass| {
        let mut aggs = fresh();
        let start = Instant::now();
        agg_pass(&mut aggs);
        let end = Instant::now();
        rep.spans
            .record("agg.bulk_slide", "", pass as u64, start, end);
        (end - start).as_nanos() as f64
    });
    let agg = median(&mut agg_ns) / n;
    rep.put("agg.ns_per_tuple", agg);
    let mut aggs = fresh();
    let ((), agg_allocs) = count_allocs(|| agg_pass(&mut aggs));
    rep.put("agg.allocs_per_tuple", agg_allocs as f64 / n);
    let counter = OpCounter::new();
    let counting = CountingOp::new(op.clone(), counter.clone());
    let mut caggs: Vec<C> = dense
        .iter()
        .map(|_| C::with_capacity(counting.clone(), window))
        .collect();
    let mut lift = Vec::new();
    let mut out = Vec::new();
    for (r, &s) in slot.iter().enumerate() {
        let (_, values) = runs.run(r);
        counting.lift_slice_into(values, &mut lift);
        caggs[s].bulk_slide(&lift, &mut out);
    }
    rep.put("agg.combines_per_tuple", counter.get() as f64 / n);

    rep.put("engine.residual_ns_per_tuple", engine_cpu - keyed);
    rep.ledger.push(("agg (lift + bulk_slide)", agg));
    rep.ledger.push(("keyed state lookup", keyed - agg));
    rep.ledger
        .push(("router + channel + regroup", engine_cpu - keyed));
}

/// The event path's layers on `tuples` (`max` over aligned windows of
/// `range`/`slide`, watermark trailing by `lateness`). Pushes the
/// `run_events` CPU ns per tuple as the event path's ledger row.
pub fn event_layers(
    rep: &mut Report,
    tuples: &[(Key, u64, f64)],
    range: u64,
    slide: u64,
    lateness: u64,
    budget: Duration,
) {
    let n = tuples.len() as f64;
    let specs = vec![TimeWindowSpec::new(range, slide)];
    let engine = ShardedEngine::new(EngineConfig {
        shards: 1,
        ..EngineConfig::default()
    });
    let cpu0 = process_cpu_ns();
    let mut walls = repeat(budget / 2, 2, |i| {
        let mut src = EventSliceSource::new(tuples, lateness);
        let start = Instant::now();
        let run = engine.run_events(&mut src, u64::MAX, Some(lateness), |_| {
            KeyedEventWindows::new(MaxF64::new(), specs.clone())
        });
        let end = Instant::now();
        rep.spans
            .record("engine.run_events", "", i as u64, start, end);
        assert_eq!(
            run.stats.late_tuples, 0,
            "replay input is within the lateness bound"
        );
        (end - start).as_nanos() as f64
    });
    let event_cpu = (process_cpu_ns() - cpu0) as f64 / (n * walls.len() as f64);
    rep.put("event.ns_per_tuple", median(&mut walls) / n);

    // apply / advance_watermark, timed apart, on the batches the router
    // would send one shard (same watermark rule as the engine router).
    let mut batches: Vec<RoutedBatch> = Vec::new();
    let mut batch = Vec::with_capacity(BATCH);
    let (mut wm, mut max_ts) = (0u64, None::<u64>);
    for &t in tuples {
        wm = wm.max(max_ts.map_or(0, |m: u64| m.saturating_sub(lateness)));
        max_ts = Some(max_ts.map_or(t.1, |m| m.max(t.1)));
        batch.push(t);
        if batch.len() == BATCH {
            batches.push((wm, std::mem::replace(&mut batch, Vec::with_capacity(BATCH))));
        }
    }
    wm = wm.max(max_ts.map_or(0, |m| m.saturating_sub(lateness)));
    batches.push((wm, batch));
    let mut apply_ns = Vec::new();
    let mut advance_ns = Vec::new();
    let (mut answers, mut empty, mut advances, mut keys_seen) = (0u64, 0u64, 0u64, 0u64);
    let mut first = true;
    repeat(budget / 2, 2, |pass| {
        let mut p = KeyedEventWindows::new(MaxF64::new(), specs.clone());
        let mut out = Vec::new();
        let mut run: Vec<(u64, f64)> = Vec::new();
        let mut last_wm = 0;
        let (mut t_apply, mut t_adv) = (Duration::ZERO, Duration::ZERO);
        let pass_start = Instant::now();
        for (wm, b) in &batches {
            let mut sorted = b.clone();
            sorted.sort_by_key(|&(k, _, _)| k);
            let start = Instant::now();
            let mut i = 0;
            while i < sorted.len() {
                let key = sorted[i].0;
                run.clear();
                while i < sorted.len() && sorted[i].0 == key {
                    run.push((sorted[i].1, sorted[i].2));
                    i += 1;
                }
                p.apply(key, &run);
            }
            let mid = Instant::now();
            t_apply += mid - start;
            if *wm > last_wm {
                last_wm = *wm;
                if first {
                    keys_seen += p.keys() as u64;
                    advances += 1;
                }
                p.advance_watermark(*wm, &mut out);
                t_adv += mid.elapsed();
                if first {
                    answers += out.len() as u64;
                    empty += out
                        .iter()
                        .filter(|(_, (_, _, v))| *v == f64::NEG_INFINITY)
                        .count() as u64;
                }
                out.clear();
            }
        }
        rep.spans.record(
            "event.apply+advance",
            "",
            pass as u64,
            pass_start,
            Instant::now(),
        );
        first = false;
        apply_ns.push(t_apply.as_nanos() as f64);
        advance_ns.push(t_adv.as_nanos() as f64);
        0.0
    });
    rep.put("event.apply_ns_per_tuple", median(&mut apply_ns) / n);
    rep.put("event.advance_ns_per_tuple", median(&mut advance_ns) / n);
    rep.put(
        "event.keys_per_advance",
        keys_seen as f64 / advances.max(1) as f64,
    );
    rep.put("event.answers_per_tuple", answers as f64 / n);
    rep.put(
        "event.empty_answer_share",
        empty as f64 / answers.max(1) as f64,
    );
    rep.ledger.push(("event (run_events CPU)", event_cpu));
}
