//! Resident pipeline workers: the cycle loop that turns a socket's tuple
//! stream into engine runs, answers, metrics, and snapshots.
//!
//! A pipeline owns one worker thread. The worker blocks on its message
//! queue, gathers a **cycle** (everything queued, bounded), runs the
//! sharded engine over it to completion via the collecting entry points,
//! and takes the per-shard processors back for the next cycle. Between
//! cycles no engine thread is alive and every processor is at a batch
//! boundary, so that instant is a drain-consistent cut: snapshot
//! requests are answered there, which is what makes restored answers
//! bitwise-identical — the snapshot never splits a batch.
//!
//! Backpressure: the message queue is a bounded [`sync_channel`]. When
//! cycles fall behind, the queue fills, ingest readers block on `send`,
//! the kernel socket buffers fill, and remote writers stall — the
//! engine's bounded-channel discipline propagated to the wire.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use swag_core::aggregator::FinalAggregator;
use swag_core::algorithms::{
    BInt, Daba, FlatFat, FlatFit, Naive, SlickDequeInv, SlickDequeNonInv, TwoStacks,
};
use swag_core::ops::AggregateOp;
use swag_core::ops::{MaxF64, Mean, MinF64, StdDev, Sum, Variance};
use swag_core::state::{PartialCodec, StateError, StateReader, StateWriter, StatefulAggregator};
use swag_data::{Key, KeyedEventSource, KeyedSource};
use swag_engine::{
    shard_of, EngineConfig, EngineRun, KeyedEventWindows, KeyedWindows, ObservabilityConfig,
    ShardedEngine,
};
use swag_metrics::clock::Stopwatch;
use swag_metrics::json::Json;
use swag_metrics::registry::{Counter, Gauge, Histogram, MetricRegistry};
use swag_metrics::QueueDepthGauge;
use swag_stream::{TimeWindowExec, TimeWindowSpec};
use swag_trace::{SpanSampler, Stage};

use crate::snapshot::{write_snapshot, KeyState, Snapshot};
use crate::spec::{AlgoKind, OpKind, PipelineSpec, PlanKind};

/// Bounded depth of a pipeline's message queue, in messages.
pub(crate) const MSG_QUEUE_CAP: usize = 16;

/// Most messages gathered into one engine cycle.
const MAX_CYCLE_MSGS: usize = 32;

/// One ingested tuple, stamped with the service-epoch nanosecond it was
/// decoded off the wire (for ingest-to-answer latency).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IngestTuple {
    pub key: Key,
    pub ts: u64,
    pub value: f64,
    pub ingest_ns: u64,
    /// Lifecycle trace id from the ingest [`SpanSampler`]; 0 means the
    /// tuple is unsampled and crosses every stage silently.
    pub trace: u64,
}

/// A message on a pipeline's queue.
pub(crate) enum Msg {
    /// Tuples from an ingest connection.
    Tuples(Vec<IngestTuple>),
    /// Snapshot now (between cycles) and reply with the path.
    Snapshot(SyncSender<Result<PathBuf, String>>),
    /// Stop the worker, optionally snapshotting first.
    Stop { snapshot: bool },
}

/// Live pipeline counters, readable from the control plane.
#[derive(Debug, Default, Clone)]
pub struct PipelineStatus {
    /// Tuples processed (after late drops).
    pub tuples: u64,
    /// Answers produced.
    pub answers: u64,
    /// Engine cycles run.
    pub cycles: u64,
    /// Tuples dropped as late (event pipelines).
    pub late: u64,
    /// Distinct keys currently held.
    pub keys: usize,
    /// Event-time watermark (0 on count pipelines).
    pub watermark: u64,
    /// Whether the worker has exited.
    pub stopped: bool,
    /// Fatal worker error, if any.
    pub error: Option<String>,
}

impl PipelineStatus {
    /// The status as control-plane JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tuples", Json::UInt(self.tuples)),
            ("answers", Json::UInt(self.answers)),
            ("cycles", Json::UInt(self.cycles)),
            ("late_tuples", Json::UInt(self.late)),
            ("keys", Json::UInt(self.keys as u64)),
            ("watermark", Json::UInt(self.watermark)),
            ("stopped", Json::Bool(self.stopped)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The latest answer per key (count pipelines) or per `(key, query)`
/// (event pipelines), maintained from each cycle's retained answers and
/// served at `GET /pipelines/{name}/answers`.
#[derive(Debug)]
pub enum AnswerTable {
    /// `key → latest answer`.
    Count(HashMap<Key, f64>),
    /// `(key, query index) → (window end, answer)`.
    Event(HashMap<(Key, usize), (u64, f64)>),
}

impl AnswerTable {
    /// The table as control-plane JSON (sorted, so output is stable).
    pub fn to_json(&self) -> Json {
        match self {
            AnswerTable::Count(map) => {
                let mut rows: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
                rows.sort_by_key(|&(k, _)| k);
                Json::arr(rows, |(k, v)| {
                    Json::obj(vec![("key", Json::UInt(k)), ("value", Json::Num(v))])
                })
            }
            AnswerTable::Event(map) => {
                let mut rows: Vec<_> = map
                    .iter()
                    .map(|(&(k, q), &(end, v))| (k, q, end, v))
                    .collect();
                rows.sort_by_key(|&(k, q, _, _)| (k, q));
                Json::arr(rows, |(k, q, end, v)| {
                    Json::obj(vec![
                        ("key", Json::UInt(k)),
                        ("query", Json::UInt(q as u64)),
                        ("window_end", Json::UInt(end)),
                        ("value", Json::Num(v)),
                    ])
                })
            }
        }
    }
}

/// Per-pipeline metric handles, all labelled `pipeline=<name>`.
pub(crate) struct PipelineObs {
    tuples: Counter,
    answers: Counter,
    cycles: Counter,
    late: Counter,
    latency: Histogram,
    keys: Gauge,
    watermark: Gauge,
    /// Event-time frontier minus watermark; refreshed every cycle, so an
    /// idle pipeline keeps reporting its last true lag rather than 0.
    lag: Gauge,
    /// Live occupancy of the pipeline's ingest message queue, in tuples
    /// (`swag_pipeline_queue_depth` / `_peak`). Ingest readers increment,
    /// the worker decrements as it absorbs messages into a cycle.
    pub(crate) queue: QueueDepthGauge,
    /// Worker phase occupancy: nanoseconds running cycles.
    busy_ns: Counter,
    /// Worker phase occupancy: nanoseconds blocked on the message queue.
    blocked_ns: Counter,
}

impl PipelineObs {
    pub(crate) fn new(registry: &MetricRegistry, pipeline: &str) -> Self {
        let l = &[("pipeline", pipeline)][..];
        let queue = QueueDepthGauge::new();
        registry.queue_depth(
            "swag_pipeline_queue_depth",
            "swag_pipeline_queue_depth_peak",
            "Ingest message-queue occupancy in tuples",
            l,
            &queue,
        );
        PipelineObs {
            tuples: registry.counter("swag_pipeline_tuples_total", "Tuples processed", l),
            answers: registry.counter("swag_pipeline_answers_total", "Answers produced", l),
            cycles: registry.counter("swag_pipeline_cycles_total", "Engine cycles run", l),
            late: registry.counter("swag_pipeline_late_tuples_total", "Tuples dropped late", l),
            latency: registry.histogram(
                "swag_pipeline_ingest_latency_ns",
                "Ingest-to-answer latency (wire decode to cycle completion)",
                l,
            ),
            keys: registry.gauge("swag_pipeline_keys", "Distinct keys held", l),
            watermark: registry.gauge("swag_pipeline_watermark", "Event-time watermark", l),
            lag: registry.gauge(
                "swag_pipeline_watermark_lag",
                "Event-time frontier minus watermark",
                l,
            ),
            queue,
            busy_ns: registry.counter(
                "swag_pipeline_busy_ns_total",
                "Nanoseconds the pipeline worker spent running cycles",
                l,
            ),
            blocked_ns: registry.counter(
                "swag_pipeline_blocked_ns_total",
                "Nanoseconds the pipeline worker spent blocked on its queue",
                l,
            ),
        }
    }
}

/// Everything a worker thread owns besides its aggregation state.
pub(crate) struct PipelineCtx {
    pub spec: PipelineSpec,
    pub rx: Receiver<Msg>,
    pub status: Arc<Mutex<PipelineStatus>>,
    pub answers: Arc<Mutex<AnswerTable>>,
    pub obs: PipelineObs,
    pub epoch: Stopwatch,
    pub snapshot_dir: PathBuf,
    /// Shared server registry; the engine attaches to it with a
    /// `pipeline=<name>` label so per-shard slide latency and phase
    /// occupancy stay separable per pipeline.
    pub registry: Arc<MetricRegistry>,
    /// Lifecycle trace sampler shared with the pipeline's ingest
    /// readers; `None` when tracing is disabled.
    pub trace: Option<SpanSampler>,
}

impl PipelineCtx {
    /// Record stage `stage` for every sampled tuple of a cycle.
    fn record_stage(&self, tuples: &[IngestTuple], stage: Stage, extra: u64) {
        if let Some(trace) = &self.trace {
            for t in tuples {
                if t.trace != 0 {
                    trace.stage(t.trace, stage, extra);
                }
            }
        }
    }
}

/// A running pipeline as the server sees it.
pub(crate) struct PipelineHandle {
    pub spec: PipelineSpec,
    pub tx: SyncSender<Msg>,
    pub join: Option<JoinHandle<()>>,
    pub status: Arc<Mutex<PipelineStatus>>,
    pub answers: Arc<Mutex<AnswerTable>>,
    /// Clone of the worker's sampler, handed to ingest readers and read
    /// by the control plane's trace export.
    pub trace: Option<SpanSampler>,
    /// Clone of the worker's ingest-queue gauge, incremented by ingest
    /// readers as they enqueue tuple messages.
    pub queue: QueueDepthGauge,
}

/// One gathered cycle: tuples to run, snapshot requests to answer at the
/// cycle boundary, and whether the worker should stop afterwards.
struct Cycle {
    tuples: Vec<IngestTuple>,
    snap_reqs: Vec<SyncSender<Result<PathBuf, String>>>,
    /// `Some(snapshot_first)` when the worker should exit.
    stop: Option<bool>,
}

/// Block for the next message, then drain whatever else is queued (up to
/// [`MAX_CYCLE_MSGS`]) into one cycle. The dequeue boundary is where
/// sampled tuples get their `Dequeue` stage event and where the
/// pipeline's queue-depth gauge is decremented.
fn collect_cycle(ctx: &PipelineCtx) -> Cycle {
    let mut cycle = Cycle {
        tuples: Vec::new(),
        snap_reqs: Vec::new(),
        stop: None,
    };
    let first = match ctx.rx.recv() {
        Ok(m) => m,
        // Every sender gone (server dropped the handle): exit without a
        // snapshot — graceful paths always send an explicit `Stop`.
        Err(_) => {
            cycle.stop = Some(false);
            return cycle;
        }
    };
    let absorb = |cycle: &mut Cycle, msg: Msg| match msg {
        Msg::Tuples(ts) => {
            ctx.obs.queue.dequeued_n(ts.len() as u64);
            ctx.record_stage(&ts, Stage::Dequeue, 0);
            cycle.tuples.extend(ts);
        }
        Msg::Snapshot(reply) => cycle.snap_reqs.push(reply),
        Msg::Stop { snapshot } => cycle.stop = Some(snapshot),
    };
    absorb(&mut cycle, first);
    let mut msgs = 1;
    while cycle.stop.is_none() && msgs < MAX_CYCLE_MSGS {
        match ctx.rx.try_recv() {
            Ok(m) => {
                absorb(&mut cycle, m);
                msgs += 1;
            }
            Err(TryRecvError::Empty) => break,
            Err(TryRecvError::Disconnected) => {
                cycle.stop = Some(false);
                break;
            }
        }
    }
    cycle
}

/// The engine observability config for a pipeline's cycles: the shared
/// server registry with a `pipeline=<name>` label (so engine series —
/// slide latency, shard phase occupancy, queue depth — stay separable
/// per pipeline), no per-cycle rings or samplers.
fn engine_obs(ctx: &PipelineCtx) -> ObservabilityConfig {
    ObservabilityConfig {
        registry: Some(Arc::clone(&ctx.registry)),
        labels: vec![("pipeline".to_string(), ctx.spec.name.clone())],
        ..ObservabilityConfig::default()
    }
}

/// Update shared status + metrics after a cycle's engine run.
fn record_run(ctx: &PipelineCtx, stats: &swag_engine::EngineStats, cycle_tuples: &[IngestTuple]) {
    let end_ns = ctx.epoch.elapsed_ns();
    for t in cycle_tuples {
        ctx.obs.latency.record(end_ns.saturating_sub(t.ingest_ns));
    }
    ctx.obs.tuples.add(stats.tuples);
    ctx.obs.answers.add(stats.answers);
    ctx.obs.cycles.inc();
    ctx.obs.late.add(stats.late_tuples);
    ctx.obs.keys.set(stats.keys() as u64);
    ctx.obs.watermark.set(stats.watermark());
    let mut st = ctx.status.lock().unwrap();
    st.tuples += stats.tuples;
    st.answers += stats.answers;
    st.cycles += 1;
    st.late += stats.late_tuples;
    st.keys = stats.keys();
    st.watermark = st.watermark.max(stats.watermark());
}

fn mark_stopped(ctx: &PipelineCtx, error: Option<String>) {
    let mut st = ctx.status.lock().unwrap();
    st.stopped = true;
    if st.error.is_none() {
        st.error = error;
    }
}

/// The per-shard processor a pipeline parks between cycles — a
/// count-window [`KeyedWindows`] or an event-time [`KeyedEventWindows`] —
/// and what a cycle, an answer and a snapshot key block are for it.
trait Resident<O: AggregateOp>: Sized + Send {
    /// The answer the engine delivers per key.
    type Answer;

    /// A processor for `plan` holding the decoded snapshot `keys` (empty
    /// for a fresh pipeline).
    fn resume(op: &O, plan: PlanKind, keys: &[&KeyState]) -> Result<Self, String>;

    /// Run one cycle's tuples through `engine`, taking each shard's
    /// processor from `take` and leaving open windows open.
    fn run_cycle(
        engine: &ShardedEngine,
        source: &mut CycleSource<'_>,
        take: &(dyn Fn(usize) -> Self + Sync),
    ) -> (EngineRun<Self::Answer>, Vec<Self>);

    /// Fold a cycle's answers into the pipeline's answer table.
    fn publish(table: &mut AnswerTable, answers: &[Vec<(Key, Self::Answer)>]);

    /// Append every key's captured state, in any order.
    fn capture(&self, op: &O, out: &mut Vec<KeyState>);
}

/// Capture one key's state with `save` and encode it with `op`'s codec.
fn key_state<O: PartialCodec>(
    op: &O,
    key: Key,
    save: impl FnOnce(&mut StateWriter<O::Partial>),
) -> KeyState {
    let mut w = StateWriter::new();
    save(&mut w);
    let (words, partials) = w.into_parts();
    KeyState::encode(key, words, &partials, op)
}

/// Decode snapshot key blocks into live per-key states with `load`,
/// rejecting a block that `load` does not consume exactly.
fn decode_keys<O: PartialCodec, S>(
    op: &O,
    keys: &[&KeyState],
    load: impl Fn(&mut StateReader<'_, O::Partial>) -> Result<S, StateError>,
) -> Result<Vec<(Key, S)>, String> {
    keys.iter()
        .map(|ks| {
            let state = ks.decode_partials(op).and_then(|partials| {
                let mut r = StateReader::new(&ks.words, &partials);
                load(&mut r).and_then(|s| r.finish().map(|()| s))
            });
            state
                .map(|s| (ks.key, s))
                .map_err(|e| format!("key {}: {e}", ks.key))
        })
        .collect()
}

impl<O, A> Resident<O> for KeyedWindows<O, A>
where
    O: AggregateOp<Input = f64, Output = f64> + PartialCodec + Clone + Send,
    O::Partial: Send,
    A: FinalAggregator<O> + StatefulAggregator<O> + Send,
{
    type Answer = f64;

    fn resume(op: &O, plan: PlanKind, keys: &[&KeyState]) -> Result<Self, String> {
        let PlanKind::Count { window } = plan else {
            unreachable!("validated: count algorithm on an event plan")
        };
        let states = decode_keys(op, keys, |r| A::load_state(op.clone(), window, r))?;
        Ok(KeyedWindows::from_states(op.clone(), window, states))
    }

    fn run_cycle(
        engine: &ShardedEngine,
        source: &mut CycleSource<'_>,
        take: &(dyn Fn(usize) -> Self + Sync),
    ) -> (EngineRun<f64>, Vec<Self>) {
        engine.run_collecting(source, u64::MAX, take)
    }

    fn publish(table: &mut AnswerTable, answers: &[Vec<(Key, f64)>]) {
        if let AnswerTable::Count(map) = table {
            for &(k, v) in answers.iter().flatten() {
                map.insert(k, v);
            }
        }
    }

    fn capture(&self, op: &O, out: &mut Vec<KeyState>) {
        out.extend(
            self.states()
                .map(|(k, agg)| key_state(op, k, |w| agg.save_state(w))),
        );
    }
}

impl<O> Resident<O> for KeyedEventWindows<O>
where
    O: AggregateOp<Input = f64, Output = f64> + PartialCodec + Clone + Send,
    O::Partial: Send + Clone,
{
    type Answer = (usize, u64, f64);

    fn resume(op: &O, plan: PlanKind, keys: &[&KeyState]) -> Result<Self, String> {
        let PlanKind::Event { range, slide, .. } = plan else {
            unreachable!("validated: fiba on a count plan")
        };
        let states = decode_keys(op, keys, |r| TimeWindowExec::load_state(op.clone(), r))?;
        let specs = vec![TimeWindowSpec::new(range, slide)];
        Ok(KeyedEventWindows::from_states(op.clone(), specs, states))
    }

    fn run_cycle(
        engine: &ShardedEngine,
        source: &mut CycleSource<'_>,
        take: &(dyn Fn(usize) -> Self + Sync),
    ) -> (EngineRun<Self::Answer>, Vec<Self>) {
        engine.run_events_collecting(source, u64::MAX, None, take)
    }

    fn publish(table: &mut AnswerTable, answers: &[Vec<(Key, Self::Answer)>]) {
        if let AnswerTable::Event(map) = table {
            for &(k, (q, end, v)) in answers.iter().flatten() {
                map.insert((k, q), (end, v));
            }
        }
    }

    fn capture(&self, op: &O, out: &mut Vec<KeyState>) {
        out.extend(
            self.states()
                .map(|(k, exec)| key_state(op, k, |w| exec.save_state(w))),
        );
    }
}

/// One processor per shard for `spec`, each holding its shard's keys
/// from `restore` (restore re-partitions by [`shard_of`], so the shard
/// count may differ from the one captured).
fn resume_shards<O, P>(
    op: &O,
    spec: &PipelineSpec,
    restore: Option<&Snapshot>,
) -> Result<Vec<P>, String>
where
    O: AggregateOp,
    P: Resident<O>,
{
    let shards = spec.shards;
    let mut groups: Vec<Vec<&KeyState>> = (0..shards).map(|_| Vec::new()).collect();
    for ks in restore.iter().flat_map(|snap| &snap.keys) {
        groups[shard_of(ks.key, shards)].push(ks);
    }
    groups.iter().map(|g| P::resume(op, spec.plan, g)).collect()
}

/// Capture every shard's per-key state into a snapshot file. Keys are
/// in shard order, then key order within a shard — the canonical bytes,
/// whatever order a processor's per-key map iterates in.
fn snapshot<O, P>(
    ctx: &PipelineCtx,
    op: &O,
    slots: &[Option<P>],
    watermark: u64,
) -> Result<PathBuf, String>
where
    O: AggregateOp,
    P: Resident<O>,
{
    let mut keys = Vec::new();
    for slot in slots {
        let start = keys.len();
        slot.as_ref()
            .expect("processor parked between cycles")
            .capture(op, &mut keys);
        keys[start..].sort_by_key(|k: &KeyState| k.key);
    }
    let snap = Snapshot {
        spec: ctx.spec.clone(),
        watermark,
        keys,
    };
    write_snapshot(&ctx.snapshot_dir, &snap)
}

/// The worker loop of every pipeline, count or event-time alike.
///
/// The cycle source's frontier (largest timestamp seen) persists across
/// cycles, so an event pipeline's watermark never regresses when the
/// stream pauses; a count pipeline never reads a timestamp, so its
/// frontier and watermark stay 0.
fn worker<O, P>(ctx: PipelineCtx, op: O, processors: Vec<P>, restored_watermark: u64)
where
    O: AggregateOp,
    P: Resident<O>,
{
    let plan = ctx.spec.plan;
    let shards = ctx.spec.shards;
    let mut slots: Vec<Option<P>> = processors.into_iter().map(Some).collect();
    let engine = ShardedEngine::new(EngineConfig {
        shards,
        batch: ctx.spec.batch,
        retain_answers: true,
        obs: engine_obs(&ctx),
        ..EngineConfig::default()
    });
    let lateness = match plan {
        PlanKind::Event { lateness, .. } => lateness,
        PlanKind::Count { .. } => 0,
    };
    // Resume the watermark where the snapshot cut it: the frontier is
    // placed so the first cycle's low watermark starts at exactly the
    // restored value, and every executor already sits at or above it.
    let mut frontier = restored_watermark.saturating_add(lateness);
    let mut watermark = restored_watermark;
    ctx.status.lock().unwrap().watermark = watermark;

    let mut phase = Stopwatch::start();
    loop {
        let cycle = collect_cycle(&ctx);
        ctx.obs.blocked_ns.add(phase.elapsed_ns());
        phase = Stopwatch::start();
        if !cycle.tuples.is_empty() {
            ctx.record_stage(&cycle.tuples, Stage::AggStart, cycle.tuples.len() as u64);
            let mut source = CycleSource {
                tuples: cycle.tuples.iter(),
                frontier,
                lateness,
            };
            let cell = Mutex::new(slots);
            let (run, procs) = P::run_cycle(&engine, &mut source, &|shard| {
                cell.lock().unwrap()[shard]
                    .take()
                    .expect("one parked processor per shard")
            });
            frontier = source.frontier;
            slots = procs.into_iter().map(Some).collect();
            watermark = watermark.max(run.stats.watermark());
            ctx.record_stage(&cycle.tuples, Stage::AggEnd, run.stats.answers);
            record_run(&ctx, &run.stats, &cycle.tuples);
            ctx.obs.lag.set(frontier.saturating_sub(watermark));
            P::publish(&mut ctx.answers.lock().unwrap(), &run.answers);
            // The answer table is published: sampled answers exist now.
            ctx.record_stage(&cycle.tuples, Stage::Emit, 0);
        }
        for reply in cycle.snap_reqs {
            let _ = reply.send(snapshot(&ctx, &op, &slots, watermark));
        }
        ctx.obs.busy_ns.add(phase.elapsed_ns());
        phase = Stopwatch::start();
        if let Some(snapshot_first) = cycle.stop {
            let err = if snapshot_first {
                snapshot(&ctx, &op, &slots, watermark).err()
            } else {
                None
            };
            mark_stopped(&ctx, err);
            return;
        }
    }
}

/// A cycle's queued tuples as the engine reads them, borrowed in place:
/// `(key, value)` pairs for a count run, or a watermarked event source.
///
/// The low watermark trails the frontier by the spec's allowed lateness,
/// and the engine router drops (and counts) anything below it.
struct CycleSource<'a> {
    tuples: std::slice::Iter<'a, IngestTuple>,
    frontier: u64,
    lateness: u64,
}

impl KeyedSource for CycleSource<'_> {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        let t = self.tuples.next()?;
        Some((t.key, t.value))
    }
}

impl KeyedEventSource for CycleSource<'_> {
    fn next_event(&mut self) -> Option<(Key, u64, f64)> {
        let t = self.tuples.next()?;
        self.frontier = self.frontier.max(t.ts);
        Some((t.key, t.ts, t.value))
    }

    fn low_watermark(&self) -> u64 {
        self.frontier.saturating_sub(self.lateness)
    }
}

/// Spawn a pipeline worker for `spec`, optionally seeding it from a
/// decoded snapshot. Dispatches the op × algorithm matrix to a concrete
/// monomorphised worker, exactly as the CLI dispatches its run matrix.
pub(crate) fn spawn_pipeline(
    spec: PipelineSpec,
    restore: Option<&Snapshot>,
    registry: &Arc<MetricRegistry>,
    epoch: Stopwatch,
    snapshot_dir: PathBuf,
    trace: Option<SpanSampler>,
) -> Result<PipelineHandle, String> {
    spec.validate()?;
    if let Some(snap) = restore {
        if snap.spec.op != spec.op || snap.spec.algo != spec.algo || snap.spec.plan != spec.plan {
            return Err(format!(
                "snapshot for {:?} was captured under a different spec",
                spec.name
            ));
        }
    }
    let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(MSG_QUEUE_CAP);
    let status = Arc::new(Mutex::new(PipelineStatus::default()));
    let answers = Arc::new(Mutex::new(match spec.plan {
        PlanKind::Count { .. } => AnswerTable::Count(HashMap::new()),
        PlanKind::Event { .. } => AnswerTable::Event(HashMap::new()),
    }));
    let obs = PipelineObs::new(registry, &spec.name);
    let queue = obs.queue.clone();
    let ctx = PipelineCtx {
        spec: spec.clone(),
        rx,
        status: Arc::clone(&status),
        answers: Arc::clone(&answers),
        obs,
        epoch,
        snapshot_dir,
        registry: Arc::clone(registry),
        trace: trace.clone(),
    };
    let restored_watermark = restore.map_or(0, |s| s.watermark);
    let thread_name = format!("swag-pipe-{}", spec.name);

    macro_rules! pipe {
        ($op:expr, $P:ty) => {{
            let op = $op;
            let processors = resume_shards::<_, $P>(&op, &spec, restore)?;
            std::thread::Builder::new()
                .name(thread_name.clone())
                .spawn(move || worker(ctx, op, processors, restored_watermark))
                .map_err(|e| format!("spawn pipeline thread: {e}"))?
        }};
    }
    // `slick` is the SlickDeque flavor for the op's class; validation
    // pairs fiba with event plans and every other algorithm with count
    // plans.
    macro_rules! algos {
        ($op:expr, $slick:ident) => {
            match spec.algo {
                AlgoKind::SlickDeque => pipe!($op, KeyedWindows<_, $slick<_>>),
                AlgoKind::Naive => pipe!($op, KeyedWindows<_, Naive<_>>),
                AlgoKind::FlatFat => pipe!($op, KeyedWindows<_, FlatFat<_>>),
                AlgoKind::BInt => pipe!($op, KeyedWindows<_, BInt<_>>),
                AlgoKind::FlatFit => pipe!($op, KeyedWindows<_, FlatFit<_>>),
                AlgoKind::TwoStacks => pipe!($op, KeyedWindows<_, TwoStacks<_>>),
                AlgoKind::Daba => pipe!($op, KeyedWindows<_, Daba<_>>),
                AlgoKind::Fiba => pipe!($op, KeyedEventWindows<_>),
            }
        };
    }

    let join = match spec.op {
        OpKind::Sum => algos!(Sum::<f64>::new(), SlickDequeInv),
        OpKind::Mean => algos!(Mean::new(), SlickDequeInv),
        OpKind::Variance => algos!(Variance::new(), SlickDequeInv),
        OpKind::StdDev => algos!(StdDev::new(), SlickDequeInv),
        OpKind::Max => algos!(MaxF64::new(), SlickDequeNonInv),
        OpKind::Min => algos!(MinF64::new(), SlickDequeNonInv),
    };
    Ok(PipelineHandle {
        spec,
        tx,
        join: Some(join),
        status,
        answers,
        trace,
        queue,
    })
}
