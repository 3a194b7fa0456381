//! The `engine-keyed` workload: the sharded engine in process, on
//! pre-built keyed DEBS tuples — no socket, no cycle, no answer table.
//!
//! * **Throughput** — repeated `ShardedEngine::run` over the whole input
//!   (`KeyedWindows<SlickDequeNonInv<MaxF64>>`, window 1024, `nproc`
//!   shards, default batch and queue, no answer retention).
//! * **Latency** — back-to-back `run_collecting` calls (a closed loop),
//!   one 1024-tuple frame each, with the shard processors carried from
//!   call to call: the engine's own per-call cost, without the service
//!   around it.
//! * **Reads** — every few latency calls, a consistent read of every
//!   key's current window answer: a drain barrier through every shard
//!   (`run_collecting` on an empty source), then each key's query.
//! * **Set-up** — engine and processor construction.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swag_core::algorithms::SlickDequeNonInv;
use swag_core::ops::{AggregateOp, CountingOp, MaxF64};
use swag_data::keyed::{Key, KeyedDebsSource, KeyedSource};
use swag_engine::{shard_of, EngineConfig, KeyedWindows, ShardedEngine};
use swag_metrics::json::Json;
use swag_server::proto;

use crate::layers::{self, SliceSource};
use crate::sys::{self, iq_mean, median, quantile, us};
use crate::{nproc, Args, Report};

const MACHINES: usize = 64;
const CHANNEL: usize = 0;
const TUPLES: usize = 2_000_000;
const WINDOW: usize = 1024;
/// Latency probe: tuples per call.
const FRAME: usize = 1024;
/// A consistent read follows every this many latency calls.
const READ_EVERY: usize = 4;
/// Seconds of measuring per round (throughput runs plus latency calls).
const ROUND_SECONDS: f64 = 1.0;
/// Set-up samples, each the mean of a few constructions.
const SETUP_SAMPLES: usize = 400;
const SETUP_BATCH: u32 = 16;
const MIB: f64 = 1024.0 * 1024.0;

type Windows = KeyedWindows<MaxF64, SlickDequeNonInv<MaxF64>>;

fn engine(shards: usize) -> ShardedEngine {
    ShardedEngine::new(EngineConfig {
        shards,
        ..EngineConfig::default()
    })
}

fn windows() -> Windows {
    KeyedWindows::new(MaxF64::new(), WINDOW)
}

/// What one pass measured.
#[derive(Default)]
struct PassOut {
    /// Per-round figures, reported as their interquartile mean:
    /// throughput at the round's median run, and the round's median
    /// latency, read and set-up, and its heap peak.
    tput_rounds: Vec<f64>,
    lat_rounds: Vec<f64>,
    read_rounds: Vec<f64>,
    setup_rounds: Vec<f64>,
    heap_peaks_mb: Vec<f64>,
    cpu_ns_per_tuple: f64,
    lat_us: Vec<f64>,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

fn pass(tuples: &[(Key, f64)], seconds: f64, rep: &mut Report) -> PassOut {
    let shards = nproc();
    let n = tuples.len() as u64;
    let rss_before = sys::status_bytes("VmRSS");
    let heap_before = sys::heap_peak_reset();
    let mut out = PassOut::default();

    // Rounds of throughput runs and latency calls, interleaved so a
    // slow spell on the host touches both alike.
    let e = engine(shards);
    let rounds = (seconds / ROUND_SECONDS).round().max(2.0) as usize;
    let tput_budget = Duration::from_secs_f64(0.5 * seconds / rounds as f64);
    let lat_budget = Duration::from_secs_f64(0.3 * seconds / rounds as f64);
    let slots: Mutex<Vec<Option<Windows>>> =
        Mutex::new((0..shards).map(|_| Some(windows())).collect());
    let take = |shard: usize| {
        slots.lock().expect("slot lock")[shard]
            .take()
            .expect("one parked processor per shard")
    };
    let park = |procs: Vec<Windows>| {
        *slots.lock().expect("slot lock") = procs.into_iter().map(Some).collect();
    };
    let mut frames = tuples.chunks(FRAME).cycle();
    let op = MaxF64::new();
    let mut reps = 0u64;
    let mut cpu = 0u64;
    for _ in 0..rounds {
        // Set-up: engine plus one processor per shard.
        let mut setups: Vec<f64> = (0..SETUP_SAMPLES / rounds)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..SETUP_BATCH {
                    let e = engine(shards);
                    let procs: Vec<Windows> = (0..shards).map(|_| windows()).collect();
                    black_box((e, procs));
                }
                start.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
            })
            .collect();
        out.setup_rounds.push(median(&mut setups));

        sys::heap_peak_reset();
        // Throughput: whole-input runs.
        let cpu0 = sys::process_cpu_ns();
        let started = Instant::now();
        let mut walls = Vec::new();
        while walls.is_empty() || started.elapsed() < tput_budget {
            let mut src = SliceSource(tuples.iter());
            let start = Instant::now();
            let run = e.run(&mut src, u64::MAX, |_| windows());
            let end = Instant::now();
            rep.spans.record("engine.run", "", reps, start, end);
            walls.push((end - start).as_secs_f64());
            reps += 1;
            out.attempted += n;
            out.failed += n.saturating_sub(run.stats.answers);
            rep.check(run.stats.tuples == n && run.stats.answers == n, || {
                format!(
                    "engine run: {} tuples, {} answers for {n} input tuples",
                    run.stats.tuples, run.stats.answers
                )
            });
        }
        cpu += sys::process_cpu_ns() - cpu0;
        out.tput_rounds.push(n as f64 / median(&mut walls));

        // Latency: back-to-back run_collecting calls (a closed loop), one
        // frame each, processors carried from call to call.
        let (mut lat, mut reads) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while started.elapsed() < lat_budget {
            let frame = frames.next().expect("cycled frames are endless");
            let mut src = SliceSource(frame.iter());
            let start = Instant::now();
            let (run, procs) = e.run_collecting(&mut src, u64::MAX, take);
            let end = Instant::now();
            park(procs);

            // Every few calls, a consistent read of every key's answer:
            // the engine keeps no answer table, so a read is a drain
            // barrier through every shard (`run_collecting` on an empty
            // source) followed by each key's window query.
            if lat.len() % READ_EVERY == 0 {
                let read_start = Instant::now();
                let (_, procs) = e.run_collecting(&mut SliceSource([].iter()), u64::MAX, take);
                let mut acc = 0.0;
                for p in &procs {
                    for (_, a) in p.states() {
                        acc += op.lower(&a.query());
                    }
                }
                black_box(acc);
                let read_end = Instant::now();
                park(procs);
                let id = reads.len() as u64;
                rep.spans
                    .record("engine.read", "", id, read_start, read_end);
                reads.push(us(read_end - read_start));
            }
            rep.spans
                .record("engine.cycle", "", lat.len() as u64, start, end);
            lat.push(us(end - start));
            out.attempted += frame.len() as u64;
            out.failed += (frame.len() as u64).saturating_sub(run.stats.answers);
        }

        out.lat_rounds.push(median(&mut lat.clone()));
        out.lat_us.extend(lat);
        out.read_rounds.push(median(&mut reads));
        out.heap_peaks_mb
            .push((sys::heap_peak() - heap_before) as f64 / MIB);
    }
    out.cpu_ns_per_tuple = cpu as f64 / (reps as f64 * n as f64);

    // Check, untimed: a full run, then every key's final window max
    // against a single-threaded reference.
    let mut src = SliceSource(tuples.iter());
    let (run, procs) = e.run_collecting(&mut src, u64::MAX, |_| windows());
    rep.check(run.stats.answers == n, || {
        format!("check run: {} answers for {n} tuples", run.stats.answers)
    });
    let mut last: Vec<Vec<f64>> = vec![Vec::new(); MACHINES];
    for &(k, v) in tuples {
        last[k as usize].push(v);
    }
    let mut bad = 0;
    for (k, values) in last.iter().enumerate() {
        let tail = &values[values.len().saturating_sub(WINDOW)..];
        let want = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let got = procs[shard_of(k as Key, shards)]
            .state(k as Key)
            .map(|a| op.lower(&a.query()));
        if tail.is_empty() {
            bad += u32::from(got.is_some());
        } else {
            bad += u32::from(got.map(f64::to_bits) != Some(want.to_bits()));
        }
    }
    rep.check(bad == 0, || {
        format!("{bad} keys disagree with the reference window max")
    });

    out.peak_rss_mb = (sys::status_bytes("VmHWM").saturating_sub(rss_before)) as f64 / MIB;
    out
}

/// Run the `engine-keyed` workload.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::new(args.trace);
    let start = Instant::now();
    let mut source = KeyedDebsSource::new(args.seed, MACHINES, CHANNEL);
    let tuples: Vec<(Key, f64)> = (0..TUPLES)
        .map(|_| source.next_tuple().expect("the DEBS fleet is endless"))
        .collect();
    let gen_ns = start.elapsed().as_nanos() as f64 / TUPLES as f64;
    rep.stamp("tuples", Json::UInt(TUPLES as u64));
    rep.stamp("keys", Json::UInt(MACHINES as u64));
    rep.stamp("shards", Json::UInt(nproc() as u64));
    rep.stamp("latency_frame_tuples", Json::UInt(FRAME as u64));

    let e2e = if args.trace {
        let mut quiet = Report::new(false);
        let plain = pass(&tuples, args.seconds / 2.0, &mut quiet);
        rep.attempted += plain.attempted;
        rep.failed += plain.failed;
        for e in quiet.errors {
            rep.check(false, || e);
        }
        let traced = pass(&tuples, args.seconds / 2.0, &mut rep);
        rep.put(
            "obs.trace_overhead_pct",
            100.0 * (iq_mean(&plain.tput_rounds) / iq_mean(&traced.tput_rounds) - 1.0),
        );
        traced
    } else {
        pass(&tuples, args.seconds, &mut rep)
    };
    rep.attempted += e2e.attempted;
    rep.failed += e2e.failed;
    rep.put("tput_tps", iq_mean(&e2e.tput_rounds));
    rep.put("cpu_ns_per_tuple", e2e.cpu_ns_per_tuple);
    rep.put("lat_p50_us", iq_mean(&e2e.lat_rounds));
    rep.put("tail.lat_p99_us", quantile(&mut e2e.lat_us.clone(), 0.99));
    rep.put("read_p50_us", iq_mean(&e2e.read_rounds));
    rep.put("setup_s", iq_mean(&e2e.setup_rounds));
    rep.put("mem.peak_heap_mb", iq_mean(&e2e.heap_peaks_mb));
    rep.put("mem.peak_rss_mb", e2e.peak_rss_mb);
    rep.put("loadgen.gen_ns_per_tuple", gen_ns);
    rep.stamp("lat_samples", Json::UInt(e2e.lat_us.len() as u64));

    if args.trace {
        let budget = Duration::from_secs_f64(args.seconds / 4.0);
        let mut bytes = Vec::new();
        let wire: Vec<(u64, u64, f64)> = tuples.iter().map(|&(k, v)| (k, 0, v)).collect();
        for chunk in wire.chunks(FRAME) {
            proto::encode_frame(chunk, &mut bytes);
        }
        layers::proto_layer(&mut rep, &bytes, wire.len(), budget / 4);
        layers::count_layers::<
            MaxF64,
            SlickDequeNonInv<MaxF64>,
            SlickDequeNonInv<CountingOp<MaxF64>>,
        >(&mut rep, MaxF64::new(), WINDOW, &tuples, nproc(), budget);
    }
    rep
}
