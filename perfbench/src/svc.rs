//! The service workloads, `svc-count` and `svc-event`: one resident
//! `SwagServer`, one pipeline, one TCP ingest connection.
//!
//! Each run pre-builds a block of NEXMark bids as encoded SWG1 frames,
//! sets up a fresh server, and then measures rounds of three phases:
//!
//! 1. **Set-up** — throwaway `SwagServer::start` + `create_pipeline` +
//!    ingest connection cycles (`setup_s`).
//! 2. **Open loop** — frames sent on a fixed schedule by the sender (the
//!    main thread) while an observer thread polls the pipeline's
//!    `swag_pipeline_tuples_total` counter. A frame's latency runs from
//!    its *scheduled* send time to the first poll that sees the counter
//!    cover its last tuple. On `svc-event` the observer also issues
//!    answer reads over HTTP, interleaving their non-blocking I/O with
//!    its polls.
//! 3. **Flood** — frames written back to back; throughput and CPU per
//!    tuple run from the first flood frame until the counter reaches the
//!    total.
//!
//! Wall-clock figures are taken per round and reported as the
//! interquartile mean over the rounds.
//!
//! The block is replayed cyclically; on `svc-event` each replay shifts
//! every timestamp by the block's event-time span, so the stream keeps
//! moving forward. The program only ever sees the encoded frames.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use swag_data::nexmark::{NexmarkConfig, NexmarkGenerator};
use swag_metrics::json::Json;
use swag_metrics::registry::Counter;
use swag_server::{proto, AlgoKind, OpKind, PipelineSpec, PlanKind, ServerConfig, SwagServer};

use crate::http::{self, HttpRead};
use crate::layers;
use crate::spans::SpanLog;
use crate::sys::{self, iq_mean, median, quantile, us};
use crate::{nproc, out_dir, Args, Report};

/// The two service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Count,
    Event,
}

const PIPELINE: &str = "bench";
/// Tuples in the pre-built block (a whole number of frames).
const BLOCK: usize = 1 << 20;
/// Count window (tuples).
const WINDOW: usize = 1024;
/// Event windows: range, slide, allowed lateness, and the generator's
/// disorder bound, all in event-time nanoseconds.
const RANGE: u64 = 64_000;
const SLIDE: u64 = 16_000;
const LATENESS: u64 = 50_000;
const MAX_DELAY: u64 = 50_000;
/// Event-time gap between consecutive bids.
const INTER_EVENT: u64 = 1_000;
/// Throwaway set-ups at the start of every round.
const SETUPS_PER_ROUND: usize = 4;
/// Observer poll interval (the sleep between counter polls).
const POLL: Duration = Duration::from_micros(20);
/// Answer reads after each round's flood on `svc-count`, which reads
/// nothing while it writes.
const QUIET_READS: usize = 10;
/// Seconds of one round's open-loop segment and flood burst together;
/// the wait for the pipeline to drain the burst comes on top.
const ROUND_SECONDS: f64 = 1.0;
const MIB: f64 = 1024.0 * 1024.0;
/// Longest wait for the pipeline to catch up before the run fails.
const STALL: Duration = Duration::from_secs(60);

/// Offered load and frame size of one workload.
struct Load {
    frame: usize,
    rate: f64,
    reads_per_s: f64,
}

impl Kind {
    fn load(self) -> Load {
        match self {
            Kind::Count => Load {
                frame: 1024,
                rate: 1_000_000.0,
                reads_per_s: 0.0,
            },
            Kind::Event => Load {
                frame: 256,
                rate: 100_000.0,
                reads_per_s: 50.0,
            },
        }
    }

    fn spec(self) -> PipelineSpec {
        let (op, algo, plan) = match self {
            Kind::Count => (
                OpKind::Sum,
                AlgoKind::SlickDeque,
                PlanKind::Count { window: WINDOW },
            ),
            Kind::Event => (
                OpKind::Max,
                AlgoKind::Fiba,
                PlanKind::Event {
                    range: RANGE,
                    slide: SLIDE,
                    lateness: LATENESS,
                },
            ),
        };
        PipelineSpec {
            name: PIPELINE.to_string(),
            op,
            algo,
            plan,
            shards: 1,
            batch: layers::BATCH,
            slo: None,
        }
    }
}

/// The pre-built input: one block of bids and its encoded frames.
struct Feed {
    kind: Kind,
    raw: Vec<(u64, u64, f64)>,
    bytes: Vec<u8>,
    frame: usize,
    frame_bytes: usize,
    /// Which replay of the block the encoded timestamps belong to.
    shifts: u64,
}

impl Feed {
    fn build(kind: Kind, seed: u64, frame: usize) -> (Feed, f64) {
        let start = Instant::now();
        let mut gen = NexmarkGenerator::new(NexmarkConfig {
            max_delay_ns: if kind == Kind::Event { MAX_DELAY } else { 0 },
            inter_event_ns: INTER_EVENT,
            seed: seed ^ 0x4E45_584D_4152_4B00,
            ..NexmarkConfig::default()
        });
        let raw: Vec<(u64, u64, f64)> = (0..BLOCK)
            .map(|_| {
                let b = gen.next_bid();
                match kind {
                    Kind::Count => (b.auction, 0, 1.0),
                    Kind::Event => (b.auction, b.ts, b.price),
                }
            })
            .collect();
        let frame_bytes = 4 + proto::TUPLE_BYTES * frame;
        let mut bytes = Vec::with_capacity(BLOCK / frame * frame_bytes);
        for chunk in raw.chunks(frame) {
            proto::encode_frame(chunk, &mut bytes);
        }
        let gen_ns = start.elapsed().as_nanos() as f64 / BLOCK as f64;
        let feed = Feed {
            kind,
            raw,
            bytes,
            frame,
            frame_bytes,
            shifts: 0,
        };
        (feed, gen_ns)
    }

    fn frames(&self) -> u64 {
        (BLOCK / self.frame) as u64
    }

    /// Event-time span of one block.
    fn span(&self) -> u64 {
        match self.kind {
            Kind::Count => 0,
            Kind::Event => BLOCK as u64 * INTER_EVENT,
        }
    }

    /// Encoded frame `g` of the stream (the block replayed cyclically).
    fn frame(&mut self, g: u64) -> &[u8] {
        let f = (g % self.frames()) as usize;
        self.shift_to(g / self.frames());
        &self.bytes[f * self.frame_bytes..(f + 1) * self.frame_bytes]
    }

    /// Rewind to the stream's start.
    fn rewind(&mut self) {
        self.shift_to(0);
    }

    /// Move the encoded timestamps to replay `replay` of the block.
    fn shift_to(&mut self, replay: u64) {
        if self.span() == 0 || self.shifts == replay {
            return;
        }
        let by = (replay.wrapping_sub(self.shifts)).wrapping_mul(self.span());
        for f in 0..self.frames() as usize {
            for j in 0..self.frame {
                let at = f * self.frame_bytes + 4 + j * proto::TUPLE_BYTES + 8;
                let ts = u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8 bytes"));
                self.bytes[at..at + 8].copy_from_slice(&ts.wrapping_add(by).to_le_bytes());
            }
        }
        self.shifts = replay;
    }

    /// Global tuple `g` as the program received it.
    fn tuple(&self, g: u64) -> (u64, u64, f64) {
        let (k, ts, v) = self.raw[(g % BLOCK as u64) as usize];
        (k, ts + (g / BLOCK as u64) * self.span(), v)
    }
}

/// A running service with its ingest connection open.
struct Service {
    server: SwagServer,
    conn: TcpStream,
}

fn start_service(kind: Kind) -> Result<Service, String> {
    let config = ServerConfig {
        snapshot_dir: out_dir().join("snapshots"),
        trace_dir: None,
        ..ServerConfig::default()
    };
    let server = SwagServer::start(config).map_err(|e| format!("server start: {e}"))?;
    server.create_pipeline(kind.spec())?;
    let mut conn = TcpStream::connect(server.ingest_addr()).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut header = Vec::new();
    proto::encode_header(PIPELINE, &mut header);
    conn.write_all(&header)
        .map_err(|e| format!("ingest header: {e}"))?;
    Ok(Service { server, conn })
}

/// End the ingest stream and return the server's ack count.
fn end_stream(conn: &mut TcpStream) -> Result<u64, String> {
    conn.write_all(&0u32.to_le_bytes())
        .map_err(|e| format!("end of stream: {e}"))?;
    let mut line = String::new();
    BufReader::new(&*conn)
        .read_line(&mut line)
        .map_err(|e| format!("read ack: {e}"))?;
    line.trim()
        .strip_prefix("OK ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("ingest ack {:?}", line.trim()))
}

/// Set a service up and tear it down again; returns the set-up time.
fn throwaway_setup(kind: Kind) -> Result<f64, String> {
    let start = Instant::now();
    let mut svc = start_service(kind)?;
    let took = start.elapsed().as_secs_f64();
    let ack = end_stream(&mut svc.conn)?;
    if ack != 0 {
        return Err(format!("empty stream acked {ack} tuples"));
    }
    stop_service(svc)?;
    Ok(took)
}

fn stop_service(svc: Service) -> Result<(), String> {
    svc.server.delete_pipeline(PIPELINE, true)?;
    svc.server.shutdown()
}

/// The pipeline's processed-tuple counter, read through the registry.
fn counter(server: &SwagServer, name: &str) -> Counter {
    server
        .registry()
        .counter(name, "", &[("pipeline", PIPELINE)])
}

/// Wait until `c` reaches `target`; returns when it was seen.
fn wait_for(c: &Counter, target: u64) -> Result<Instant, String> {
    let deadline = Instant::now() + STALL;
    loop {
        if c.get() >= target {
            return Ok(Instant::now());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "pipeline stalled at {} of {target} tuples",
                c.get()
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// What the observer saw during the open loop.
#[derive(Default)]
struct Observed {
    lat_us: Vec<f64>,
    poll_gap_us: Vec<f64>,
    read_us: Vec<f64>,
    read_failed: u64,
    error: Option<String>,
}

/// The observer: poll the processed counter, resolve each frame's
/// completion, and step any in-flight answer read between polls.
fn observe(
    processed: &Counter,
    base: u64,
    sched: &[Instant],
    frame: u64,
    reads: Option<(SocketAddr, Duration)>,
    log: &mut SpanLog,
) -> Observed {
    let mut out = Observed {
        lat_us: Vec::with_capacity(sched.len()),
        ..Observed::default()
    };
    let path = format!("/pipelines/{PIPELINE}/answers");
    let mut read: Option<HttpRead> = None;
    let mut reads_done = 0u64;
    let mut next_read = sched[0];
    let last = *sched.last().expect("at least one frame");
    let mut next = 0usize;
    let mut last_poll = Instant::now();
    let mut progress = Instant::now();
    while next < sched.len() {
        let done = processed.get().saturating_sub(base);
        let now = Instant::now();
        out.poll_gap_us.push(us(now - last_poll));
        last_poll = now;
        while next < sched.len() && done >= (next as u64 + 1) * frame {
            out.lat_us
                .push(us(now.saturating_duration_since(sched[next])));
            log.record("frame", "", base / frame + next as u64, sched[next], now);
            next += 1;
            progress = now;
        }
        if let Some((addr, every)) = reads {
            if read.is_none() && now >= next_read && now < last {
                match HttpRead::start(addr, &path) {
                    Ok(r) => read = Some(r),
                    Err(_) => out.read_failed += 1,
                }
                next_read += every;
            }
            if let Some(r) = read.as_mut() {
                if let Some(d) = r.step() {
                    finish_read(&mut out, d, log, reads_done);
                    reads_done += 1;
                    read = None;
                }
            }
        }
        if now - progress > STALL {
            out.error = Some(format!(
                "open loop stalled at frame {next} of {}",
                sched.len()
            ));
            break;
        }
        std::thread::sleep(POLL);
    }
    if let Some(r) = read {
        finish_read(&mut out, r.finish(), log, reads_done);
    }
    out
}

fn finish_read(out: &mut Observed, d: http::ReadDone, log: &mut SpanLog, id: u64) {
    let end = Instant::now();
    log.record("control.answers", "", id, end - d.rtt, end);
    if d.status == 200 && d.bytes > 0 {
        out.read_us.push(us(d.rtt));
    } else {
        out.read_failed += 1;
    }
}

/// One measured pass: set-ups, then rounds of an open-loop segment and
/// a flood burst, then checks. Interleaving spreads every metric over
/// the whole pass, so a slow spell on the host touches all of them alike
/// instead of whichever phase it happened to fall in. `seconds` is the
/// pass's measuring time.
fn pass(kind: Kind, feed: &mut Feed, seconds: f64, rep: &mut Report, traced: bool) -> PassOut {
    let load = kind.load();
    let frame = load.frame as u64;
    feed.rewind();
    let rss_before = sys::status_bytes("VmRSS");
    let heap_before = sys::heap_peak_reset();

    // Set-up: the measured service first, then a few throwaway set-ups
    // at the start of every round, so set-up time samples the whole pass.
    let start = Instant::now();
    let Service { server, mut conn } = match start_service(kind) {
        Ok(s) => s,
        Err(e) => {
            rep.check(false, || format!("set-up: {e}"));
            return PassOut::default();
        }
    };
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let processed = counter(&server, "swag_pipeline_tuples_total");
    let mut out = PassOut::default();

    let open = 0.55 * ROUND_SECONDS;
    let burst = Duration::from_secs_f64(0.3 * ROUND_SECONDS);
    let n_open = ((open * load.rate) as usize / load.frame).max(8);
    let reads = (load.reads_per_s > 0.0).then(|| {
        (
            server.http_addr(),
            Duration::from_secs_f64(1.0 / load.reads_per_s),
        )
    });
    let mut g = 0u64;
    let (mut flood_cpu, mut flood_tuples) = (0u64, 0u64);
    // Rounds go on until the measuring time is spent (two at least): a
    // flood takes as long as the pipeline needs to drain it, so a fixed
    // number of rounds would overrun `seconds` on a slow pipeline.
    let mut round = 0usize;
    while round < 2 || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUPS_PER_ROUND {
            match throwaway_setup(kind) {
                Ok(t) => setups.push(t),
                Err(e) => rep.check(false, || e),
            }
        }
        out.setup_rounds.push(median(&mut setups));
        setups.clear();
        sys::heap_peak_reset();
        // Open loop: the sender (this thread) keeps the schedule, the
        // observer resolves completions.
        let interval = Duration::from_secs_f64(load.frame as f64 / load.rate);
        let t0 = Instant::now() + Duration::from_millis(5);
        let sched: Vec<Instant> = (0..n_open).map(|i| t0 + interval * i as u32).collect();
        let base = g * frame;
        let mut obs_log = rep.spans.sibling(1);
        let mut write_err = None;
        let observed = std::thread::scope(|s| {
            let observer =
                s.spawn(|| observe(&processed, base, &sched, frame, reads, &mut obs_log));
            for &at in &sched {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let start = Instant::now();
                out.late_us.push(us(start - at));
                let res = conn.write_all(feed.frame(g));
                rep.spans
                    .record("ingest.write", "frame", g, start, Instant::now());
                g += 1;
                if let Err(e) = res {
                    write_err = Some(format!("open-loop write: {e}"));
                    break;
                }
            }
            let backlog = (g * frame).saturating_sub(processed.get());
            out.backlog_end = out.backlog_end.max(backlog);
            observer.join().expect("observer thread")
        });
        rep.spans.absorb(obs_log);
        if let Some(e) = write_err.or(observed.error) {
            rep.check(false, || e);
            return out;
        }
        out.lat_rounds.push(median(&mut observed.lat_us.clone()));
        out.lat_us.extend(observed.lat_us);
        out.poll_gap_us.extend(observed.poll_gap_us);
        let mut reads = observed.read_us;
        out.read_failed += observed.read_failed;
        if round == 0 && traced {
            out.lifecycle = lifecycle_p50(&server);
        }

        // Flood burst: back to back for its share of the time, then wait
        // for the pipeline to drain it.
        let first = g;
        let cpu0 = sys::process_cpu_ns();
        let th0 = sys::thread_cpu_ns();
        let start = Instant::now();
        let mut res = Ok(());
        while res.is_ok() && start.elapsed() < burst {
            let w = Instant::now();
            res = conn.write_all(feed.frame(g));
            rep.spans.record(
                "ingest.write.flood",
                "flood",
                round as u64,
                w,
                Instant::now(),
            );
            g += 1;
        }
        let done = res
            .map_err(|e| format!("flood write: {e}"))
            .and_then(|()| wait_for(&processed, g * frame));
        let th1 = sys::thread_cpu_ns();
        let cpu1 = sys::process_cpu_ns();
        match done {
            Ok(t_done) => {
                rep.spans.record("flood", "", round as u64, start, t_done);
                let n = (g - first) * frame;
                out.tput_rounds
                    .push(n as f64 / (t_done - start).as_secs_f64());
                flood_cpu += (cpu1 - cpu0).saturating_sub(th1 - th0);
                flood_tuples += n;
            }
            Err(e) => {
                rep.check(false, || e);
                return out;
            }
        }

        out.heap_peaks_mb
            .push((sys::heap_peak() - heap_before) as f64 / MIB);

        // svc-count reads only once the writes have drained.
        if kind == Kind::Count {
            let path = format!("/pipelines/{PIPELINE}/answers");
            for i in 0..QUIET_READS {
                let d = http::get(server.http_addr(), &path);
                let end = Instant::now();
                rep.spans
                    .record("control.answers", "", i as u64, end - d.rtt, end);
                if d.status == 200 && d.bytes > 0 {
                    reads.push(us(d.rtt));
                } else {
                    out.read_failed += 1;
                }
            }
        }
        if !reads.is_empty() {
            out.read_rounds.push(median(&mut reads.clone()));
        }
        out.read_us.extend(reads);
        round += 1;
    }
    let sent = g * frame;
    out.sent = sent;
    out.peak_rss_mb = (sys::status_bytes("VmHWM").saturating_sub(rss_before)) as f64 / MIB;
    out.cpu_ns_per_tuple = flood_cpu as f64 / flood_tuples.max(1) as f64;
    let ack = end_stream(&mut conn);
    rep.check(ack == Ok(sent), || {
        format!("ingest ack {ack:?}, sent {sent}")
    });
    out.acked = ack.unwrap_or(0);

    // Checks and the server's own counters.
    let reg = |name| counter(&server, name).get();
    out.processed = processed.get();
    out.late = reg("swag_pipeline_late_tuples_total");
    out.answers = reg("swag_pipeline_answers_total");
    rep.check(out.processed == sent, || {
        format!("processed {} of {sent} tuples", out.processed)
    });
    rep.check(out.late == 0, || {
        format!("{} tuples dropped late", out.late)
    });
    match kind {
        Kind::Count => {
            rep.check(out.answers == sent, || {
                format!("{} answers for {sent} tuples", out.answers)
            });
            check_count(feed, sent, &server, rep);
        }
        Kind::Event => check_event(feed, sent, &server, rep),
    }
    if traced {
        out.pipeline = pipeline_counters(&server, sent, out.answers);
        out.snapshot = snapshot_round_trip(&server, rep);
    }
    if let Err(e) = stop_service(Service { server, conn }) {
        rep.check(false, || format!("shutdown: {e}"));
    }
    out
}

/// Everything one pass measured.
#[derive(Default)]
struct PassOut {
    /// Per-round figures: each round's median (set-up, latency, read)
    /// or its single value (throughput, heap peak), reported as their
    /// interquartile mean.
    setup_rounds: Vec<f64>,
    lat_rounds: Vec<f64>,
    read_rounds: Vec<f64>,
    tput_rounds: Vec<f64>,
    heap_peaks_mb: Vec<f64>,
    peak_rss_mb: f64,
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    poll_gap_us: Vec<f64>,
    read_us: Vec<f64>,
    read_failed: u64,
    backlog_end: u64,
    /// Over all floods together: the process CPU clock ticks in 10 ms,
    /// too coarse for one burst.
    cpu_ns_per_tuple: f64,
    sent: u64,
    acked: u64,
    processed: u64,
    answers: u64,
    late: u64,
    lifecycle: Vec<(&'static str, f64)>,
    pipeline: Vec<(&'static str, f64)>,
    snapshot: Vec<(&'static str, f64)>,
}

/// svc-count: every key's final answer is `min(bids of the key, window)`.
fn check_count(feed: &Feed, sent: u64, server: &SwagServer, rep: &mut Report) {
    let keys = feed
        .raw
        .iter()
        .map(|t| t.0)
        .max()
        .map_or(0, |k| k as usize + 1);
    let mut counts = vec![0u64; keys];
    let full = sent / BLOCK as u64;
    for (i, &(k, _, _)) in feed.raw.iter().enumerate() {
        counts[k as usize] += full + u64::from((i as u64) < sent % BLOCK as u64);
    }
    let table = server.answers_json(PIPELINE).unwrap_or(Json::Null);
    let rows = table.as_array().unwrap_or(&[]);
    let live = counts.iter().filter(|&&c| c > 0).count();
    rep.check(rows.len() == live, || {
        format!("answer table has {} keys, stream has {live}", rows.len())
    });
    let mut bad = 0;
    for row in rows {
        let key = row.get("key").and_then(Json::as_u64).unwrap_or(u64::MAX);
        let value = row.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let want = counts
            .get(key as usize)
            .map_or(f64::NAN, |&c| c.min(WINDOW as u64) as f64);
        bad += u64::from(value != want);
    }
    rep.check(bad == 0, || format!("{bad} keys with a wrong final count"));
}

/// svc-event: for every key with tuples in the last closed window, the
/// answer equals a brute-force max over that window. Keys without tuples
/// there are skipped, so the check holds whether or not empty windows
/// are emitted.
fn check_event(feed: &Feed, sent: u64, server: &SwagServer, rep: &mut Report) {
    let status = server.status_json(PIPELINE);
    let wm = status
        .as_ref()
        .and_then(|s| s.get("status"))
        .and_then(|s| s.get("watermark"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let end = wm / SLIDE * SLIDE;
    if end < RANGE {
        rep.check(false, || format!("watermark {wm} closed no window"));
        return;
    }
    let start = end - RANGE;
    // Bids are INTER_EVENT apart before disorder, which only moves a
    // timestamp back: no bid before `start / INTER_EVENT` can be in the
    // window.
    let mut want: std::collections::BTreeMap<u64, f64> = Default::default();
    for g in (start / INTER_EVENT).min(sent)..sent {
        let (k, ts, v) = feed.tuple(g);
        if ts >= start && ts < end {
            let m = want.entry(k).or_insert(f64::NEG_INFINITY);
            *m = m.max(v);
        }
    }
    let table = server.answers_json(PIPELINE).unwrap_or(Json::Null);
    let mut got: std::collections::BTreeMap<u64, (u64, f64)> = Default::default();
    for row in table.as_array().unwrap_or(&[]) {
        let key = row.get("key").and_then(Json::as_u64).unwrap_or(u64::MAX);
        let we = row.get("window_end").and_then(Json::as_u64).unwrap_or(0);
        let v = row.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        got.insert(key, (we, v));
    }
    let bad = want
        .iter()
        .filter(|&(k, &v)| got.get(k) != Some(&(end, v)))
        .count();
    rep.check(!want.is_empty(), || {
        format!("no tuples in the last closed window [{start}, {end})")
    });
    rep.check(bad == 0, || {
        format!(
            "{bad} of {} keys disagree with the brute-force max over [{start}, {end})",
            want.len()
        )
    });
}

/// Median lifecycle span durations from the server's own trace ring.
fn lifecycle_p50(server: &SwagServer) -> Vec<(&'static str, f64)> {
    let trace = server.trace_json(PIPELINE).unwrap_or(Json::Null);
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    [
        ("pipeline.queue_wait_us_p50", "queue-wait"),
        ("pipeline.batching_us_p50", "batching"),
        ("pipeline.aggregation_us_p50", "aggregation"),
        ("pipeline.emission_us_p50", "emission"),
    ]
    .into_iter()
    .map(|(metric, span)| {
        let mut durs: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(span))
            .filter_map(|e| e.get("dur").and_then(Json::as_f64))
            .collect();
        (metric, median(&mut durs))
    })
    .collect()
}

/// The pipeline layer's existing counters over the whole pass.
fn pipeline_counters(server: &SwagServer, tuples: u64, answers: u64) -> Vec<(&'static str, f64)> {
    let snap = server.registry().snapshot().labelled("pipeline", PIPELINE);
    let cycles = snap.sum("swag_pipeline_cycles_total") as f64;
    let busy = snap.sum("swag_pipeline_busy_ns_total") as f64;
    let blocked = snap.sum("swag_pipeline_blocked_ns_total") as f64;
    let n = tuples as f64;
    vec![
        ("pipeline.cycles", cycles),
        ("pipeline.tuples_per_cycle", n / cycles.max(1.0)),
        ("pipeline.busy_ns_per_tuple", busy / n),
        (
            "pipeline.blocked_share",
            blocked / (busy + blocked).max(1.0),
        ),
        (
            "pipeline.queue_peak_tuples",
            snap.max("swag_pipeline_queue_depth_peak") as f64,
        ),
        ("pipeline.answers_per_tuple", answers as f64 / n),
    ]
}

/// Snapshot the pipeline, drop it, and restore it from the file.
fn snapshot_round_trip(server: &SwagServer, rep: &mut Report) -> Vec<(&'static str, f64)> {
    let start = Instant::now();
    let path = server.snapshot_pipeline(PIPELINE);
    let mid = Instant::now();
    rep.spans.record("snapshot.write", "", 0, start, mid);
    let path = match path {
        Ok(p) => p,
        Err(e) => {
            rep.check(false, || format!("snapshot: {e}"));
            return Vec::new();
        }
    };
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let deleted = server.delete_pipeline(PIPELINE, true);
    rep.check(deleted.is_ok(), || {
        format!("delete before restore: {deleted:?}")
    });
    let restore_start = Instant::now();
    let restored = server.restore_pipeline(PIPELINE);
    let end = Instant::now();
    rep.spans
        .record("snapshot.restore", "", 0, restore_start, end);
    rep.check(restored.is_ok(), || format!("restore: {restored:?}"));
    let _ = std::fs::remove_file(&path);
    vec![
        ("snapshot.write_ms", (mid - start).as_secs_f64() * 1e3),
        ("snapshot.bytes", bytes as f64),
        (
            "snapshot.restore_ms",
            (end - restore_start).as_secs_f64() * 1e3,
        ),
    ]
}

/// Run a service workload.
pub fn run(args: &Args, kind: Kind) -> Report {
    let load = kind.load();
    let mut rep = Report::new(args.trace);
    let (mut feed, gen_ns) = Feed::build(kind, args.seed, load.frame);
    rep.stamp("block_tuples", Json::UInt(BLOCK as u64));
    rep.stamp("offered_tuples_per_s", Json::Num(load.rate));
    rep.stamp("frame_tuples", Json::UInt(load.frame as u64));
    rep.stamp("answer_reads_per_s", Json::Num(load.reads_per_s));
    rep.stamp("pipeline", kind.spec().to_json());

    let e2e = if args.trace {
        // Untraced first, then traced: the difference is the tracing
        // overhead. Layer metrics come from the traced pass.
        let mut quiet = Report::new(false);
        let plain = pass(kind, &mut feed, args.seconds / 2.0, &mut quiet, false);
        for e in quiet.errors {
            rep.check(false, || e);
        }
        account(&mut rep, &plain);
        let traced = pass(kind, &mut feed, args.seconds / 2.0, &mut rep, true);
        rep.put(
            "obs.trace_overhead_pct",
            100.0 * (iq_mean(&plain.tput_rounds) / iq_mean(&traced.tput_rounds) - 1.0),
        );
        traced
    } else {
        pass(kind, &mut feed, args.seconds, &mut rep, false)
    };
    account(&mut rep, &e2e);
    rep.stamp("tuples_sent", Json::UInt(e2e.sent));

    rep.put("tput_tps", iq_mean(&e2e.tput_rounds));
    rep.put("cpu_ns_per_tuple", e2e.cpu_ns_per_tuple);
    rep.put("lat_p50_us", iq_mean(&e2e.lat_rounds));
    rep.put("tail.lat_p99_us", quantile(&mut e2e.lat_us.clone(), 0.99));
    rep.put("read_p50_us", iq_mean(&e2e.read_rounds));
    rep.put("setup_s", iq_mean(&e2e.setup_rounds));
    rep.put("mem.peak_heap_mb", iq_mean(&e2e.heap_peaks_mb));
    rep.put("mem.peak_rss_mb", e2e.peak_rss_mb);
    rep.put(
        "loadgen.late_p99_us",
        quantile(&mut e2e.late_us.clone(), 0.99),
    );
    rep.put("loadgen.backlog_end_tuples", e2e.backlog_end as f64);
    rep.put(
        "loadgen.poll_gap_p99_us",
        quantile(&mut e2e.poll_gap_us.clone(), 0.99),
    );
    rep.put("loadgen.gen_ns_per_tuple", gen_ns);
    rep.stamp("lat_samples", Json::UInt(e2e.lat_us.len() as u64));
    rep.stamp("read_samples", Json::UInt(e2e.read_us.len() as u64));

    if args.trace {
        rep.put(
            "control.read_us_p99",
            quantile(&mut e2e.read_us.clone(), 0.99),
        );
        for &(n, v) in e2e
            .lifecycle
            .iter()
            .chain(&e2e.pipeline)
            .chain(&e2e.snapshot)
        {
            rep.put(n, v);
        }
        feed.rewind();
        layer_replays(kind, &feed, args.seconds, &mut rep);
    }
    rep
}

/// Count a pass's tuples and reads as attempted, and the ones not acked,
/// not processed, dropped late or not answered 200 as failed.
fn account(rep: &mut Report, p: &PassOut) {
    rep.attempted += p.sent + p.read_us.len() as u64 + p.read_failed;
    rep.failed += p.sent.saturating_sub(p.acked)
        + p.sent.saturating_sub(p.processed)
        + p.late
        + p.read_failed;
}

/// The traced run's layer replays on this workload's own tuples.
fn layer_replays(kind: Kind, feed: &Feed, seconds: f64, rep: &mut Report) {
    let budget = Duration::from_secs_f64(seconds / 4.0);
    layers::proto_layer(rep, &feed.bytes, BLOCK, budget / 4);
    let proto = rep.get("proto.decode_ns_per_tuple").unwrap_or(0.0);
    rep.ledger.push(("proto.decode", proto));
    match kind {
        Kind::Count => {
            let tuples: Vec<(u64, f64)> = feed.raw.iter().map(|&(k, _, v)| (k, v)).collect();
            layers::count_layers::<
                swag_core::ops::Sum<f64>,
                swag_core::algorithms::SlickDequeInv<swag_core::ops::Sum<f64>>,
                swag_core::algorithms::SlickDequeInv<
                    swag_core::ops::CountingOp<swag_core::ops::Sum<f64>>,
                >,
            >(
                rep,
                swag_core::ops::Sum::new(),
                WINDOW,
                &tuples,
                nproc(),
                budget,
            );
        }
        Kind::Event => {
            // About 2.5 µs per tuple on the event path: a prefix keeps
            // each replay pass short.
            let prefix = &feed.raw[..BLOCK / 4];
            layers::event_layers(rep, prefix, RANGE, SLIDE, LATENESS, budget);
        }
    }
}
