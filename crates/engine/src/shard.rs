//! The sharded engine: hash-partitioned, multi-threaded keyed execution.
//!
//! One router (the calling thread) pulls `(key, value)` tuples from a
//! [`KeyedSource`] and hash-partitions them across `shards` worker threads
//! over bounded channels. Tuples are batched to amortise channel overhead;
//! a full channel blocks the router (backpressure), so a slow shard slows
//! admission instead of growing memory without bound. Each worker owns one
//! [`ShardProcessor`] holding the per-key window state for every key routed
//! to it.
//!
//! Shutdown is graceful by construction: when the source runs dry (or the
//! tuple limit is reached) the router flushes its partial batches and drops
//! the senders; each worker drains its queue to completion and returns its
//! [`ShardStats`].
//!
//! Because a single router preserves source order and a key maps to exactly
//! one shard, every key's tuples are processed in stream order — per-key
//! answers are identical for any shard count.

use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use swag_data::keyed::{Key, KeyedSource};
use swag_data::prng::mix64;
use swag_metrics::clock::Stopwatch;
use swag_metrics::QueueDepthGauge;
use swag_trace::{EventKind, FlightRecorder};

use crate::keyed::ShardProcessor;
use crate::obs::{sampler_loop, EngineSample, ObservabilityConfig, ShardObs, StopGuard};
use crate::stats::{EngineStats, ShardStats};

/// Tuning knobs for a sharded run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker thread count (≥ 1). Keys are assigned by `mix64(key) % shards`.
    pub shards: usize,
    /// Bounded channel capacity per shard, in batches. The router blocks
    /// when a shard's queue is full — this is the backpressure bound.
    pub queue_capacity: usize,
    /// Tuples per channel message. Larger batches amortise channel
    /// synchronisation; smaller ones tighten the backpressure loop.
    pub batch: usize,
    /// Keep every `(key, answer)` pair a shard produces (for tests and
    /// result inspection). Leave off for throughput runs: answers are
    /// counted but not stored.
    pub retain_answers: bool,
    /// Run [`ShardProcessor::check_invariants`] on every shard after its
    /// graceful drain, panicking the worker on a violation. O(total window
    /// state) at shutdown; leave off for throughput runs.
    pub check_invariants: bool,
    /// Live observability: metric registry, per-shard flight recorders,
    /// and the queue-depth sampler. Default: all off, zero hot-path cost.
    pub obs: ObservabilityConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 2,
            queue_capacity: 64,
            batch: 256,
            retain_answers: false,
            check_invariants: false,
            obs: ObservabilityConfig::default(),
        }
    }
}

impl EngineConfig {
    /// A config with the given shard count and default queue/batch sizes.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig {
            shards,
            ..EngineConfig::default()
        }
    }

    /// Check every knob is usable, with a message naming the bad field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards < 1 {
            return Err(format!(
                "engine config: `shards` must be at least 1 (got {})",
                self.shards
            ));
        }
        if self.queue_capacity < 1 {
            return Err(format!(
                "engine config: `queue_capacity` must be at least 1 batch (got {})",
                self.queue_capacity
            ));
        }
        if self.batch < 1 {
            return Err(format!(
                "engine config: `batch` must be at least 1 tuple (got {})",
                self.batch
            ));
        }
        Ok(())
    }
}

/// The outcome of [`ShardedEngine::run`].
#[derive(Debug)]
pub struct EngineRun<A> {
    /// Merged run statistics.
    pub stats: EngineStats,
    /// Retained answers, one `Vec` per shard in that shard's processing
    /// order (per-key order equals stream order). Empty unless
    /// [`EngineConfig::retain_answers`] was set.
    pub answers: Vec<Vec<(Key, A)>>,
    /// Periodic queue-depth/throughput observations, in time order. Empty
    /// unless [`ObservabilityConfig::sample_interval`] and a registry were
    /// both set.
    pub samples: Vec<EngineSample>,
}

/// The sharded keyed execution engine.
///
/// Construct with a config, then [`run`](Self::run) it over a keyed source
/// with a factory producing one [`ShardProcessor`] per shard.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    config: EngineConfig,
}

/// The shard a key is routed to under `shards` workers: stable for a given
/// key and shard count, scrambled by [`mix64`] so sequential keys spread.
pub fn shard_of(key: Key, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    (mix64(key) % shards as u64) as usize
}

impl ShardedEngine {
    /// An engine with the given configuration. Panics on zero shards,
    /// queue capacity, or batch size; use [`try_new`](Self::try_new) to
    /// handle bad configs without panicking.
    pub fn new(config: EngineConfig) -> Self {
        match Self::try_new(config) {
            Ok(engine) => engine,
            // check:allow documented panicking constructor; try_new is the fallible form
            Err(msg) => panic!("{msg}"),
        }
    }

    /// An engine with the given configuration, or the
    /// [`EngineConfig::validate`] error naming the bad knob.
    pub fn try_new(config: EngineConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(ShardedEngine { config })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Route up to `limit` tuples from `source` across the shards, running
    /// `make_processor(shard)` on each worker. Returns when the source is
    /// exhausted (or the limit reached) and every worker has drained.
    pub fn run<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        make_processor: F,
    ) -> EngineRun<P::Answer>
    where
        S: KeyedSource + ?Sized,
        P: ShardProcessor,
        F: Fn(usize) -> P + Send + Sync,
    {
        self.run_collecting(source, limit, make_processor).0
    }

    /// [`run`](Self::run), but additionally hands back each shard's
    /// drained processor (in shard order) instead of dropping it.
    ///
    /// This is the resident-service hook: after a graceful drain every
    /// queue is empty and each processor sits at a batch boundary, so the
    /// returned states are a **drain-consistent** cut of the whole engine
    /// — the snapshot layer serializes them, and the next cycle feeds
    /// them back through `make_processor`.
    pub fn run_collecting<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        make_processor: F,
    ) -> (EngineRun<P::Answer>, Vec<P>)
    where
        S: KeyedSource + ?Sized,
        P: ShardProcessor,
        F: Fn(usize) -> P + Send + Sync,
    {
        self.route(source, limit, None, false, make_processor)
    }

    /// The one router and worker loop behind every run kind. The calling
    /// thread routes `source`'s tuples into per-shard batches and blocks
    /// on full queues; each spawned worker runs [`shard_worker`]. An
    /// event run also keeps a watermark here, drops tuples below it
    /// (`lateness` as in [`run_events`](Self::run_events)), and with
    /// `finish` has its workers close every open window at drain. A count
    /// run's watermark stays 0, and it registers no router instruments.
    pub(crate) fn route<T, P, S, F>(
        &self,
        source: &mut S,
        limit: u64,
        lateness: Option<u64>,
        finish: bool,
        make_processor: F,
    ) -> (EngineRun<T::Answer>, Vec<P>)
    where
        T: Routed<P>,
        P: Send,
        S: Pull<Tuple = T> + ?Sized,
        F: Fn(usize) -> P + Send + Sync,
    {
        let config = &self.config;
        let shards = config.shards;
        let clock = Stopwatch::start();

        let mut senders: Vec<SyncSender<Batch<T>>> = Vec::with_capacity(shards);
        let mut inboxes: Vec<Receiver<Batch<T>>> = Vec::with_capacity(shards);
        let mut gauges: Vec<QueueDepthGauge> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = sync_channel(config.queue_capacity);
            senders.push(tx);
            inboxes.push(rx);
            gauges.push(QueueDepthGauge::new());
        }
        // Instrument bundles are built here (registry registration is
        // locked) and moved onto the workers; `None` when obs is off.
        let mut shard_obs: Vec<Option<ShardObs>> = (0..shards)
            .map(|shard| config.obs.shard_obs(shard, &gauges[shard], T::EVENT_TIME))
            .collect();
        // An event router's own instruments: the late-drop counter
        // (labelled shard="router" — drops happen before partitioning)
        // and a flight recorder narrating drops and watermark advances.
        let late_counter = config
            .obs
            .registry
            .as_ref()
            .filter(|_| T::EVENT_TIME)
            .map(|reg| {
                reg.counter(
                    "swag_engine_late_tuples_total",
                    "Tuples dropped at the router for arriving below the watermark",
                    &config.obs.series_labels("router"),
                )
            });
        let router_rec = (T::EVENT_TIME && config.obs.trace_capacity > 0)
            .then(|| FlightRecorder::new(config.obs.trace_capacity));

        let samples: Mutex<Vec<EngineSample>> = Mutex::new(Vec::new());
        let make_processor = &make_processor;
        let (shard_stats, answers, processors, late) = std::thread::scope(|scope| {
            let handles: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(shard, inbox)| {
                    let gauge = gauges[shard].clone();
                    let obs = shard_obs[shard].take();
                    scope.spawn(move || {
                        let processor = make_processor(shard);
                        shard_worker::<T, P>(shard, inbox, gauge, processor, config, finish, obs)
                    })
                })
                .collect();

            // The sampler rides in the same scope; its StopGuard stops it
            // even when a worker panic unwinds past the joins below, so
            // the scope's implicit join can never deadlock on it.
            let sampler_stop = Arc::new(AtomicBool::new(false));
            let _sampler_guard = StopGuard(sampler_stop.clone());
            if let (Some(interval), Some(registry)) =
                (config.obs.sample_interval, config.obs.registry.as_ref())
            {
                let stop = sampler_stop.clone();
                let registry = registry.clone();
                let samples = &samples;
                scope.spawn(move || sampler_loop(&stop, interval, clock, &registry, samples));
            }

            // The router: batch tuples per shard, block on full queues.
            // An event watermark is derived from the stream routed *so
            // far* and only ever rises; a tuple is judged against it
            // before contributing to it, so a tuple can never be late
            // relative to itself.
            let send = |shard: usize, batch: Batch<T>| {
                gauges[shard].enqueued_n(batch.tuples.len() as u64);
                senders[shard]
                    .send(batch)
                    // check:allow a dead worker already poisoned the run; surface it here
                    .expect("shard worker exited before drain");
            };
            let frontier = |source: &S, max_ts: Option<u64>| match lateness {
                Some(l) => max_ts.map_or(0, |m| m.saturating_sub(l)),
                None => source.low_watermark(),
            };
            let mut batches: Vec<Vec<T>> = (0..shards)
                .map(|_| Vec::with_capacity(config.batch))
                .collect();
            let (mut routed, mut late, mut watermark) = (0u64, 0u64, 0u64);
            let mut max_ts: Option<u64> = None;
            while routed < limit {
                let Some(tuple) = source.pull() else {
                    break;
                };
                if T::EVENT_TIME {
                    watermark = watermark.max(frontier(source, max_ts));
                    let ts = tuple.ts();
                    if ts < watermark {
                        late += 1;
                        if let Some(c) = &late_counter {
                            c.inc();
                        }
                        if let Some(rec) = &router_rec {
                            rec.record(EventKind::LateDrop, ts, watermark);
                        }
                        continue;
                    }
                    max_ts = Some(max_ts.map_or(ts, |m| m.max(ts)));
                }
                let shard = shard_of(tuple.key(), shards);
                batches[shard].push(tuple);
                routed += 1;
                if batches[shard].len() == config.batch {
                    let tuples =
                        std::mem::replace(&mut batches[shard], Vec::with_capacity(config.batch));
                    if let Some(rec) = &router_rec {
                        rec.record(EventKind::WatermarkAdvance, watermark, tuples.len() as u64);
                    }
                    send(shard, Batch { watermark, tuples });
                }
            }
            if T::EVENT_TIME {
                // The stream is drained: take the frontier's final reading
                // so the closing broadcast carries everything the source
                // promised.
                watermark = watermark.max(frontier(source, max_ts));
            }
            for (shard, tuples) in batches.into_iter().enumerate() {
                if !tuples.is_empty() {
                    send(shard, Batch { watermark, tuples });
                }
            }
            if T::EVENT_TIME {
                // Broadcast the final watermark to every shard — including
                // shards no key hashed to — so each one's reported
                // watermark reflects the frontier it durably covers, not
                // merely the tuples it happened to receive.
                for shard in 0..shards {
                    let tuples = Vec::new();
                    send(shard, Batch { watermark, tuples });
                }
            }
            // Dropping the senders signals end-of-stream; workers drain
            // their queues and return.
            drop(senders);
            if let (Some(rec), Some(dir)) = (&router_rec, &config.obs.trace_out) {
                // The router is not a shard; its ring gets its own file.
                if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| {
                    std::fs::write(
                        dir.join("flightrec-router.json"),
                        rec.dump_json(usize::MAX).pretty(),
                    )
                }) {
                    eprintln!("swag-engine: router flight-recorder dump failed: {e}");
                }
            }

            let mut shard_stats = Vec::with_capacity(shards);
            let mut answers = Vec::with_capacity(shards);
            let mut processors = Vec::with_capacity(shards);
            for handle in handles {
                // check:allow worker panics must propagate, not be swallowed
                let (stats, shard_answers, processor) =
                    handle.join().expect("shard worker panicked");
                shard_stats.push(stats);
                answers.push(shard_answers);
                processors.push(processor);
            }
            (shard_stats, answers, processors, late)
        });

        let mut stats = EngineStats::merge(shard_stats, clock.elapsed());
        stats.late_tuples = late;
        (
            EngineRun {
                stats,
                answers,
                samples: samples.into_inner().unwrap_or_else(|e| e.into_inner()),
            },
            processors,
        )
    }
}

/// One routed message: a shard's tuples plus the router's watermark at
/// flush time (always 0 on a count run).
#[derive(Debug)]
pub struct Batch<T> {
    /// No tuple in this batch — or any later batch to this shard — has a
    /// timestamp below this.
    pub watermark: u64,
    /// The tuples, in routing order.
    pub tuples: Vec<T>,
}

/// Where a router pulls its tuples from.
pub(crate) trait Pull {
    /// The routed tuple.
    type Tuple;
    /// The next tuple, or `None` once the source is drained.
    fn pull(&mut self) -> Option<Self::Tuple>;
    /// The source's promise about future timestamps (event sources only).
    fn low_watermark(&self) -> u64 {
        0
    }
}

impl<S: KeyedSource + ?Sized> Pull for S {
    type Tuple = (Key, f64);

    fn pull(&mut self) -> Option<(Key, f64)> {
        self.next_tuple()
    }
}

/// A routed tuple, and how a shard applies a run of them to processor
/// `P`: `(key, value)` through a [`ShardProcessor`], or `(key, event
/// timestamp, value)` through an [`EventProcessor`], whose watermark
/// closes windows. Count tuples carry no timestamp, so a count run is an
/// event run whose watermark never rises.
///
/// [`EventProcessor`]: crate::EventProcessor
pub(crate) trait Routed<P>: Send {
    /// Whether the tuple carries an event timestamp.
    const EVENT_TIME: bool;
    /// The tuple without its key, as the processor takes it.
    type Item: Copy;
    /// The answer the processor delivers per key.
    type Answer: Send;

    /// The key the tuple is routed by.
    fn key(&self) -> Key;
    /// The tuple without its key.
    fn item(&self) -> Self::Item;
    /// The event timestamp; never read on a count run.
    fn ts(&self) -> u64 {
        0
    }
    /// Apply one key's run of items, in routing order.
    fn apply(p: &mut P, key: Key, items: &[Self::Item], out: &mut Vec<(Key, Self::Answer)>);
    /// Raise the watermark for every key.
    fn advance(_p: &mut P, _watermark: u64, _out: &mut Vec<(Key, Self::Answer)>) {}
    /// End of stream: emit every window still holding data.
    fn finish(_p: &mut P, _out: &mut Vec<(Key, Self::Answer)>) {}
    /// Largest accepted event timestamp, for watermark-lag reporting.
    fn max_ts(_p: &P) -> Option<u64> {
        None
    }
    /// Distinct keys held.
    fn keys(p: &P) -> usize;
    /// Validate every key's window state.
    fn check_invariants(p: &mut P) -> Result<(), String>;
}

impl<P: ShardProcessor> Routed<P> for (Key, f64) {
    const EVENT_TIME: bool = false;
    type Item = f64;
    type Answer = P::Answer;

    fn key(&self) -> Key {
        self.0
    }

    fn item(&self) -> f64 {
        self.1
    }

    fn apply(p: &mut P, key: Key, values: &[f64], out: &mut Vec<(Key, P::Answer)>) {
        p.process_run(key, values, out);
    }

    fn keys(p: &P) -> usize {
        p.keys()
    }

    fn check_invariants(p: &mut P) -> Result<(), String> {
        p.check_invariants()
    }
}

/// One worker's loop: drain batches until the channel closes.
///
/// Each received batch is grouped into per-key runs with a stable sort
/// (tuples of one key keep their routing order while becoming
/// contiguous), so a key pays one [`Routed::apply`] call — one state
/// look-up plus the aggregator's bulk path — per batch instead of one
/// call per tuple. Per-key answer sequences are unchanged; only the
/// interleaving of different keys inside a batch may differ. A batch
/// whose watermark is above the shard's then closes windows across every
/// key, including keys untouched by the batch; count runs never raise
/// it. With `finish`, the remaining windows are closed after the channel
/// does.
///
/// With an instrument bundle, the worker additionally maintains its
/// registry series, times each slide into the latency histogram, and
/// narrates its life into the flight recorder — batch received, per-key
/// slide (plus a bulk-path marker for multi-tuple count runs, or the
/// watermark advances of an event run), the post-drain invariant check,
/// and the final drain event. A panic anywhere in the loop dumps the
/// ring via `swag-trace`'s hook (the registration guard lives for the
/// whole function).
fn shard_worker<T: Routed<P>, P>(
    shard: usize,
    inbox: Receiver<Batch<T>>,
    gauge: QueueDepthGauge,
    mut processor: P,
    config: &EngineConfig,
    finish: bool,
    obs: Option<ShardObs>,
) -> (ShardStats, Vec<(Key, T::Answer)>, P) {
    let started = Stopwatch::start();
    let _trace_guard = obs.as_ref().and_then(ShardObs::install_trace);
    let mut tuples = 0u64;
    let mut answers = 0u64;
    let mut batches = 0u64;
    let mut watermark = 0u64;
    let mut retained = Vec::new();
    // Reused across recv iterations: per-run items and per-batch answers.
    let mut items: Vec<T::Item> = Vec::new();
    let mut scratch = Vec::new();
    // Phase occupancy: one clock read before and after each recv() splits
    // the worker's wall time into blocked-on-channel vs. processing.
    let mut phase = obs.as_ref().map(|_| Stopwatch::start());
    loop {
        let received = inbox.recv();
        if let (Some(o), Some(p)) = (&obs, &mut phase) {
            o.blocked_ns.add(p.elapsed_ns());
            *p = Stopwatch::start();
        }
        let Ok(Batch {
            watermark: wm,
            tuples: mut batch,
        }) = received
        else {
            break;
        };
        gauge.dequeued_n(batch.len() as u64);
        batches += 1;
        if let Some(o) = &obs {
            o.batches.inc();
            o.tuples.add(batch.len() as u64);
            if let Some(rec) = &o.recorder {
                rec.record(EventKind::BatchReceived, batch.len() as u64, gauge.depth());
            }
        }
        batch.sort_by_key(T::key);
        let mut i = 0;
        while i < batch.len() {
            let key = batch[i].key();
            let mut j = i + 1;
            while j < batch.len() && batch[j].key() == key {
                j += 1;
            }
            items.clear();
            items.extend(batch[i..j].iter().map(T::item));
            let run_len = (j - i) as u64;
            // Two clock reads per slide, only when someone is scraping
            // the histogram.
            let timer = obs
                .as_ref()
                .and_then(|o| o.slide_latency.as_ref())
                .map(|_| Stopwatch::start());
            T::apply(&mut processor, key, &items, &mut scratch);
            if let Some(o) = &obs {
                if let (Some(hist), Some(timer)) = (&o.slide_latency, timer) {
                    hist.record(timer.elapsed_ns());
                }
                if let Some(rec) = &o.recorder {
                    rec.record(EventKind::Slide, key, run_len);
                    if !T::EVENT_TIME && run_len > 1 {
                        // The run took the aggregator's bulk
                        // insert/evict fast path.
                        rec.record(EventKind::BulkEvict, key, run_len);
                    }
                }
            }
            tuples += run_len;
            i = j;
        }
        if wm > watermark {
            watermark = wm;
            T::advance(&mut processor, wm, &mut scratch);
            if let Some(rec) = obs.as_ref().and_then(|o| o.recorder.as_ref()) {
                rec.record(EventKind::WatermarkAdvance, wm, scratch.len() as u64);
            }
        }
        if let Some(lag) = obs.as_ref().and_then(|o| o.watermark_lag.as_ref()) {
            // Refreshed every batch — not only on watermark advance — so
            // the gauge (and the sampler series built from it) tracks lag
            // even while the watermark is stalled behind late data.
            lag.set(T::max_ts(&processor).map_or(0, |m| m.saturating_sub(watermark)));
        }
        // Count answers as produced, before the retain decision — the
        // tally is the same whether or not answers are kept.
        answers += scratch.len() as u64;
        if let Some(o) = &obs {
            o.answers.add(scratch.len() as u64);
        }
        if config.retain_answers {
            retained.append(&mut scratch);
        } else {
            scratch.clear();
        }
        if let (Some(o), Some(p)) = (&obs, &mut phase) {
            o.busy_ns.add(p.elapsed_ns());
            *p = Stopwatch::start();
        }
    }
    // End of stream: close out every window still holding data. The
    // shard's final watermark durably covers everything it accepted. A
    // resident run skips this — the stream is pausing, not ending — and
    // reports the watermark it actually reached, so open windows survive
    // into the next cycle.
    if finish {
        T::finish(&mut processor, &mut scratch);
        if let Some(max) = T::max_ts(&processor) {
            watermark = watermark.max(max.saturating_add(1));
        }
        answers += scratch.len() as u64;
        if let Some(o) = &obs {
            o.answers.add(scratch.len() as u64);
        }
        if config.retain_answers {
            retained.append(&mut scratch);
        }
    }
    if config.check_invariants {
        let result = T::check_invariants(&mut processor);
        if let Some(rec) = obs.as_ref().and_then(|o| o.recorder.as_ref()) {
            rec.record(EventKind::InvariantCheck, result.is_ok() as u64, 0);
        }
        if let Err(violation) = result {
            // check:allow a corrupted shard must fail the run loudly, not return bad stats
            panic!("shard {shard}: post-drain invariant check failed: {violation}");
        }
    }
    if let Some(o) = &obs {
        o.keys.set(T::keys(&processor) as u64);
        if let Some(lag) = &o.watermark_lag {
            lag.set(0);
        }
        if let Some(rec) = &o.recorder {
            rec.record(EventKind::Drain, tuples, answers);
        }
        o.dump_on_drain();
    }
    let stats = ShardStats {
        shard,
        tuples,
        answers,
        batches,
        keys: T::keys(&processor),
        max_queue_depth: gauge.max_depth(),
        watermark,
        elapsed: started.elapsed(),
    };
    (stats, retained, processor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::KeyedWindows;
    use std::collections::HashMap;
    use swag_core::algorithms::SlickDequeInv;
    use swag_core::ops::Sum;
    use swag_data::keyed::KeyedVecSource;

    fn tuples(n: u64, keys: u64) -> Vec<(Key, f64)> {
        (0..n).map(|i| (i % keys, (i % 13) as f64)).collect()
    }

    fn run_with(shards: usize, input: &[(Key, f64)]) -> Vec<(Key, f64)> {
        let engine = ShardedEngine::new(EngineConfig {
            shards,
            queue_capacity: 4,
            batch: 8,
            retain_answers: true,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(input.to_vec());
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 16)
        });
        assert_eq!(run.stats.tuples, input.len() as u64);
        assert_eq!(run.stats.answers, input.len() as u64);
        run.answers.into_iter().flatten().collect()
    }

    fn per_key(answers: &[(Key, f64)]) -> HashMap<Key, Vec<f64>> {
        let mut by_key: HashMap<Key, Vec<f64>> = HashMap::new();
        for &(k, a) in answers {
            by_key.entry(k).or_default().push(a);
        }
        by_key
    }

    #[test]
    fn sharded_answers_match_single_shard_per_key() {
        let input = tuples(5000, 37);
        let reference = per_key(&run_with(1, &input));
        for shards in [2, 3, 8] {
            assert_eq!(
                per_key(&run_with(shards, &input)),
                reference,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn keys_never_span_shards() {
        let input = tuples(2000, 10);
        let engine = ShardedEngine::new(EngineConfig {
            shards: 4,
            queue_capacity: 2,
            batch: 16,
            retain_answers: true,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(input);
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 4)
        });
        for (shard, answers) in run.answers.iter().enumerate() {
            for &(key, _) in answers {
                assert_eq!(shard_of(key, 4), shard);
            }
        }
        assert_eq!(run.stats.keys(), 10);
    }

    #[test]
    fn invalid_configs_are_rejected_with_field_names() {
        let bad_shards = EngineConfig {
            shards: 0,
            ..EngineConfig::default()
        };
        let err = ShardedEngine::try_new(bad_shards).unwrap_err();
        assert!(err.contains("`shards`"), "{err}");

        let bad_queue = EngineConfig {
            queue_capacity: 0,
            ..EngineConfig::default()
        };
        let err = ShardedEngine::try_new(bad_queue).unwrap_err();
        assert!(err.contains("`queue_capacity`"), "{err}");

        let bad_batch = EngineConfig {
            batch: 0,
            ..EngineConfig::default()
        };
        let err = ShardedEngine::try_new(bad_batch).unwrap_err();
        assert!(err.contains("`batch`"), "{err}");

        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn answers_counted_without_retention_and_batches_tracked() {
        let input = tuples(1000, 7);
        let engine = ShardedEngine::new(EngineConfig {
            shards: 2,
            queue_capacity: 4,
            batch: 50,
            retain_answers: false,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(input);
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 16)
        });
        // Slide-1 windows answer once per tuple even when nothing is kept.
        assert_eq!(run.stats.answers, 1000);
        // 1000 tuples over 50-tuple batches: 20 full messages plus at most
        // one partial flush per shard.
        assert!(
            (20..=22).contains(&run.stats.batches),
            "batches = {}",
            run.stats.batches
        );
        let per_batch = run.stats.tuples_per_batch();
        assert!(per_batch > 40.0 && per_batch <= 50.0, "{per_batch}");
    }

    #[test]
    fn limit_caps_routed_tuples() {
        let input = tuples(1000, 5);
        let engine = ShardedEngine::new(EngineConfig::with_shards(2));
        let mut source = KeyedVecSource::new(input);
        let run = engine.run(&mut source, 300, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 8)
        });
        assert_eq!(run.stats.tuples, 300);
        assert!(
            run.answers.iter().all(|a| a.is_empty()),
            "answers not retained"
        );
    }

    #[test]
    fn queue_depth_watermark_is_observed() {
        let input = tuples(4096, 3);
        let engine = ShardedEngine::new(EngineConfig {
            shards: 1,
            queue_capacity: 2,
            batch: 32,
            retain_answers: false,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(input);
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 64)
        });
        let depth = run.stats.max_queue_depth();
        assert!(
            depth >= 32,
            "at least one full batch was queued, saw {depth}"
        );
    }
}
