//! End-to-end observability: registry series vs. engine stats, the
//! queue-depth sampler, flight-recorder dumps on graceful drain, and —
//! the reason the recorder exists — a parseable post-mortem when a shard
//! worker panics mid-run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use swag_core::algorithms::SlickDequeInv;
use swag_core::ops::Sum;
use swag_data::event::KeyedVecEventSource;
use swag_data::keyed::{Key, KeyedSource, KeyedVecSource};
use swag_engine::{
    EngineConfig, KeyedEventWindows, KeyedWindows, ObservabilityConfig, ShardProcessor,
    ShardedEngine,
};
use swag_metrics::registry::MetricRegistry;
use swag_metrics::Json;
use swag_stream::TimeWindowSpec;

fn tuples(n: u64, keys: u64) -> Vec<(Key, f64)> {
    (0..n).map(|i| (i % keys, (i % 13) as f64)).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swag-engine-obs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn read_flightrec(dir: &std::path::Path, shard: usize) -> Json {
    let path = dir.join(format!("flightrec-{shard}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

fn event_kinds(doc: &Json) -> Vec<String> {
    doc.get("events")
        .and_then(Json::as_array)
        .expect("dump has an events array")
        .iter()
        .map(|e| {
            e.get("kind")
                .and_then(Json::as_str)
                .expect("event has a kind")
                .to_string()
        })
        .collect()
}

/// A source that trickles tuples out slowly enough for the sampler to
/// observe the run in flight.
struct ThrottledSource {
    inner: KeyedVecSource,
    yielded: u64,
}

impl KeyedSource for ThrottledSource {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        self.yielded += 1;
        if self.yielded.is_multiple_of(64) {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.inner.next_tuple()
    }
}

#[test]
fn registry_series_match_stats_and_drain_dumps_parse() {
    let dir = temp_dir("drain");
    let registry = Arc::new(MetricRegistry::new());
    let engine = ShardedEngine::new(EngineConfig {
        shards: 2,
        queue_capacity: 4,
        batch: 32,
        retain_answers: false,
        check_invariants: true,
        obs: ObservabilityConfig {
            registry: Some(registry.clone()),
            trace_capacity: 64,
            trace_out: Some(dir.clone()),
            sample_interval: Some(Duration::from_millis(2)),
            labels: Vec::new(),
        },
    });
    let mut source = ThrottledSource {
        inner: KeyedVecSource::new(tuples(20_000, 11)),
        yielded: 0,
    };
    let run = engine.run(&mut source, u64::MAX, |_| {
        KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 16)
    });
    assert_eq!(run.stats.tuples, 20_000);

    // Registry counters agree with the per-run stats (fresh registry, so
    // cumulative == this run).
    let snap = registry.snapshot();
    assert_eq!(snap.sum("swag_engine_tuples_total"), run.stats.tuples);
    assert_eq!(snap.sum("swag_engine_answers_total"), run.stats.answers);
    assert_eq!(snap.sum("swag_engine_batches_total"), run.stats.batches);
    assert_eq!(snap.sum("swag_engine_keys"), run.stats.keys() as u64);

    // Slide latencies were recorded and quantiles are coherent.
    let latency = snap
        .merged_histogram("swag_slide_latency_ns")
        .expect("slide latency histogram registered");
    assert!(latency.count > 0, "slides were timed");
    let (p50, p99, p999) = (
        latency.quantile(0.50),
        latency.quantile(0.99),
        latency.quantile(0.999),
    );
    assert!(p50 <= p99 && p99 <= p999 && p999 <= latency.max);

    // The Prometheus rendering carries every engine series.
    let text = snap.to_prometheus_text();
    for name in [
        "swag_engine_tuples_total",
        "swag_engine_answers_total",
        "swag_engine_batches_total",
        "swag_engine_keys",
        "swag_engine_queue_depth",
        "swag_engine_queue_depth_peak",
        "swag_engine_busy_ns_total",
        "swag_engine_blocked_ns_total",
        "swag_slide_latency_ns_bucket",
    ] {
        assert!(text.contains(name), "missing `{name}` in exposition");
    }

    // Phase occupancy: a 20k-tuple run must have spent measurable time in
    // both phases (the throttled source forces recv() waits).
    assert!(
        snap.sum("swag_engine_busy_ns_total") > 0,
        "workers recorded busy time"
    );
    assert!(
        snap.sum("swag_engine_blocked_ns_total") > 0,
        "workers recorded blocked-on-channel time"
    );

    // The sampler produced a monotone time series while the run was live.
    assert!(
        !run.samples.is_empty(),
        "a throttled 20k-tuple run spans several 2ms sample intervals"
    );
    for pair in run.samples.windows(2) {
        assert!(pair[0].t_ns <= pair[1].t_ns, "sample times are ordered");
        assert!(pair[0].tuples <= pair[1].tuples, "tuple counts only grow");
    }

    // Both shards dumped their rings on graceful drain, ending in a
    // drain event (invariant check precedes it; checking was on).
    for shard in 0..2 {
        let doc = read_flightrec(&dir, shard);
        let kinds = event_kinds(&doc);
        assert_eq!(kinds.last().map(String::as_str), Some("drain"));
        assert!(kinds.contains(&"invariant_check".to_string()));
        assert!(kinds.contains(&"batch_received".to_string()));
        assert!(kinds.contains(&"slide".to_string()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A processor that works normally, then panics after a set number of
/// tuples — the injected fault for the post-mortem test.
struct FaultyProcessor {
    inner: KeyedWindows<Sum<f64>, SlickDequeInv<Sum<f64>>>,
    processed: u64,
    fault_after: u64,
}

impl ShardProcessor for FaultyProcessor {
    type Answer = f64;

    fn process(&mut self, key: Key, value: f64, out: &mut Vec<(Key, f64)>) {
        self.processed += 1;
        assert!(
            self.processed <= self.fault_after,
            "injected fault: shard crashed after {} tuples",
            self.fault_after
        );
        self.inner.process(key, value, out);
    }

    fn keys(&self) -> usize {
        self.inner.keys()
    }
}

#[test]
fn worker_panic_leaves_a_parseable_post_mortem() {
    let dir = temp_dir("panic");
    let engine = ShardedEngine::new(EngineConfig {
        shards: 1,
        queue_capacity: 4,
        batch: 64,
        retain_answers: false,
        check_invariants: false,
        obs: ObservabilityConfig {
            registry: None,
            trace_capacity: 32,
            trace_out: Some(dir.clone()),
            sample_interval: None,
            labels: Vec::new(),
        },
    });
    let mut source = KeyedVecSource::new(tuples(5_000, 7));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run(&mut source, u64::MAX, |_| FaultyProcessor {
            inner: KeyedWindows::new(Sum::<f64>::new(), 16),
            processed: 0,
            fault_after: 1_000,
        })
    }));
    assert!(outcome.is_err(), "the injected fault must fail the run");

    // The dump exists, parses, and its tail explains what the shard was
    // doing: working through batches/slides right up to the panic.
    let doc = read_flightrec(&dir, 0);
    let kinds = event_kinds(&doc);
    assert_eq!(
        kinds.last().map(String::as_str),
        Some("panic"),
        "panic is the final recorded event, got {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k == "batch_received") && kinds.iter().any(|k| k == "slide"),
        "events before the panic show normal processing, got {kinds:?}"
    );
    assert!(
        !kinds.iter().any(|k| k == "drain"),
        "a crashed shard never drained"
    );
    // The ring holds the *last* events: more happened than the ring kept.
    let recorded = doc.get("recorded").and_then(Json::as_u64).unwrap();
    let capacity = doc.get("capacity").and_then(Json::as_u64).unwrap();
    assert!(recorded >= capacity, "the ring wrapped before the crash");
    std::fs::remove_dir_all(&dir).ok();
}

/// Count and event runs share one router and worker loop, but only an
/// event run has a watermark: it alone registers the watermark-lag gauge
/// and the late-drop counter and records watermark advances, while only
/// a count run marks the aggregator's bulk path.
#[test]
fn each_run_kind_exposes_only_its_own_series_and_events() {
    let input = tuples(4_000, 5);
    let run = |event_time: bool| {
        let dir = temp_dir(if event_time {
            "kind-event"
        } else {
            "kind-count"
        });
        let registry = Arc::new(MetricRegistry::new());
        let engine = ShardedEngine::new(EngineConfig {
            shards: 1,
            queue_capacity: 4,
            batch: 64,
            retain_answers: false,
            check_invariants: false,
            obs: ObservabilityConfig {
                registry: Some(registry.clone()),
                trace_capacity: 4096,
                trace_out: Some(dir.clone()),
                sample_interval: None,
                labels: Vec::new(),
            },
        });
        if event_time {
            let events = input
                .iter()
                .enumerate()
                .map(|(ts, &(key, value))| (key, ts as u64, value))
                .collect();
            let mut source = KeyedVecEventSource::new(events, 0);
            engine.run_events(&mut source, u64::MAX, None, |_| {
                KeyedEventWindows::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(64)])
            });
        } else {
            let mut source = KeyedVecSource::new(input.clone());
            engine.run(&mut source, u64::MAX, |_| {
                KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 16)
            });
        }
        let text = registry.snapshot().to_prometheus_text();
        let kinds = event_kinds(&read_flightrec(&dir, 0));
        std::fs::remove_dir_all(&dir).ok();
        (text, kinds)
    };
    let has = |kinds: &[String], kind: &str| kinds.iter().any(|k| k == kind);

    let (text, kinds) = run(false);
    for series in ["swag_engine_watermark_lag", "swag_engine_late_tuples_total"] {
        assert!(!text.contains(series), "count run registered `{series}`");
    }
    assert!(has(&kinds, "bulk_evict"), "count run marks bulk slides");
    assert!(
        !has(&kinds, "watermark_advance"),
        "count run advanced a watermark"
    );

    let (text, kinds) = run(true);
    for series in ["swag_engine_watermark_lag", "swag_engine_late_tuples_total"] {
        assert!(text.contains(series), "event run lacks `{series}`");
    }
    assert!(
        has(&kinds, "watermark_advance"),
        "event run advanced its watermark"
    );
}
