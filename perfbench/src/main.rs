//! The repository benchmark: three workloads on pre-built, seeded input,
//! every answer checked, end-to-end metrics by name and unit, and (with
//! `--trace 1`) the per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc-count --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Any correctness mismatch exits with code 1. See `perfbench/README.md`.

mod engine;
mod http;
mod layers;
mod spans;
mod svc;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use swag_metrics::json::Json;

use spans::SpanLog;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("tput_tps", "tuples/s"),
    ("cpu_ns_per_tuple", "ns"),
    ("lat_p50_us", "us"),
    ("read_p50_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit, layer)`, printed by every traced run.
/// A layer that is not on a workload's path reports 0 ("n/a").
const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "proto.decode_ns_per_tuple",
        "ns",
        "proto::read_frame over the run's frames",
    ),
    (
        "proto.wire_bytes_per_tuple",
        "B",
        "encoded frame bytes per tuple",
    ),
    ("pipeline.cycles", "count", "swag_pipeline_cycles_total"),
    ("pipeline.tuples_per_cycle", "count", "tuples / cycles"),
    (
        "pipeline.busy_ns_per_tuple",
        "ns",
        "swag_pipeline_busy_ns_total / tuples",
    ),
    (
        "pipeline.blocked_share",
        "ratio",
        "blocked / (busy + blocked)",
    ),
    (
        "pipeline.queue_peak_tuples",
        "count",
        "swag_pipeline_queue_depth_peak",
    ),
    (
        "pipeline.answers_per_tuple",
        "count",
        "swag_pipeline_answers_total / tuples",
    ),
    (
        "pipeline.queue_wait_us_p50",
        "us",
        "lifecycle span queue-wait",
    ),
    ("pipeline.batching_us_p50", "us", "lifecycle span batching"),
    (
        "pipeline.aggregation_us_p50",
        "us",
        "lifecycle span aggregation",
    ),
    ("pipeline.emission_us_p50", "us", "lifecycle span emission"),
    ("control.read_us_p99", "us", "GET /pipelines/{name}/answers"),
    ("snapshot.write_ms", "ms", "snapshot_pipeline"),
    ("snapshot.bytes", "B", "snapshot file size"),
    ("snapshot.restore_ms", "ms", "restore_pipeline"),
    (
        "engine.ns_per_tuple",
        "ns",
        "ShardedEngine::run wall, nproc shards",
    ),
    (
        "engine.scaling",
        "ratio",
        "1-shard / nproc-shard wall ns per tuple",
    ),
    ("engine.tuples_per_batch", "count", "EngineStats"),
    ("engine.max_queue_depth", "count", "EngineStats"),
    ("engine.skew", "ratio", "EngineStats"),
    (
        "engine.allocs_per_tuple",
        "count",
        "allocation calls per tuple in one run",
    ),
    (
        "engine.residual_ns_per_tuple",
        "ns",
        "engine CPU - keyed: router, channel, regroup",
    ),
    (
        "keyed.ns_per_tuple",
        "ns",
        "KeyedWindows::process_run, one thread",
    ),
    ("keyed.tuples_per_run", "count", "tuples per same-key run"),
    (
        "agg.ns_per_tuple",
        "ns",
        "lift_slice_into + bulk_slide, no map",
    ),
    ("agg.combines_per_tuple", "count", "CountingOp combines"),
    (
        "agg.allocs_per_tuple",
        "count",
        "allocation calls per tuple",
    ),
    ("event.ns_per_tuple", "ns", "run_events wall, 1 shard"),
    ("event.apply_ns_per_tuple", "ns", "EventProcessor::apply"),
    (
        "event.advance_ns_per_tuple",
        "ns",
        "EventProcessor::advance_watermark",
    ),
    (
        "event.keys_per_advance",
        "count",
        "keys held at each advance",
    ),
    ("event.answers_per_tuple", "count", "answers / tuples"),
    (
        "event.empty_answer_share",
        "ratio",
        "answers for windows with no tuple of the key",
    ),
    (
        "loadgen.late_p99_us",
        "us",
        "sender lateness behind schedule",
    ),
    (
        "loadgen.backlog_end_tuples",
        "count",
        "sent - processed when the schedule ends",
    ),
    ("loadgen.poll_gap_p99_us", "us", "observer poll gap"),
    (
        "loadgen.gen_ns_per_tuple",
        "ns",
        "input generation (before the run)",
    ),
    ("host.steal_share", "ratio", "/proc/stat steal over the run"),
    (
        "tail.lat_p99_us",
        "us",
        "open-loop / per-call latency p99 (not gated)",
    ),
    (
        "mem.peak_heap_mb",
        "MiB",
        "heap high-water mark per round (counting allocator), interquartile mean",
    ),
    (
        "mem.peak_rss_mb",
        "MiB",
        "VmHWM after the workload - VmRSS before",
    ),
    (
        "ledger.residual_ns_per_tuple",
        "ns",
        "cpu_ns_per_tuple - layer sum",
    ),
    (
        "obs.trace_overhead_pct",
        "%",
        "traced vs untraced throughput",
    ),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run reports.
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    stamp: Vec<(&'static str, Json)>,
    pub spans: SpanLog,
    /// Traced runs: each layer's own cost per tuple on this workload's
    /// path, in ns; the residual is what they leave of `cpu_ns_per_tuple`.
    pub ledger: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            stamp: Vec::new(),
            spans: SpanLog::new(Instant::now(), trace, 0),
            ledger: Vec::new(),
        }
    }

    /// Set a metric (the last value set wins).
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Add a provenance field.
    pub fn stamp(&mut self, key: &'static str, value: Json) {
        self.stamp.push((key, value));
    }
}

fn usage() -> String {
    "usage: perfbench --workload <svc-count|svc-event|engine-keyed> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in [1, 600]\n{}", usage()));
    }
    Ok(args)
}

/// Where result files and Chrome traces go: `perfbench/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checkout's commit, read from `.git` inside the checkout (no `git`
/// process, nothing read outside it); "unknown" outside a git checkout.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let unknown = || "unknown (not a git checkout)".to_string();
    let Some(head) = read(git.join("HEAD")) else {
        return unknown();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(git.join(name)) {
        return sha.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, r) = l.split_once(' ')?;
                (r == name).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(unknown)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = sys::host_steal_total();
    let mut report = match args.workload.as_str() {
        "svc-count" => svc::run(&args, svc::Kind::Count),
        "svc-event" => svc::run(&args, svc::Kind::Event),
        "engine-keyed" => engine::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    report.put(
        "host.steal_share",
        sys::steal_share(steal0, sys::host_steal_total()),
    );
    if args.trace {
        let layers: f64 = report.ledger.iter().map(|&(_, ns)| ns).sum();
        let cpu = report.get("cpu_ns_per_tuple").unwrap_or(0.0);
        report.put("ledger.residual_ns_per_tuple", cpu - layers);
    }
    report.stamp("nproc", Json::UInt(nproc() as u64));
    report.stamp("commit", Json::str(commit()));
    report.stamp("seed", Json::UInt(args.seed));
    report.stamp("run_seconds", Json::Num(args.seconds));
    report.stamp(
        "host.steal_share",
        Json::Num(report.get("host.steal_share").unwrap_or(0.0)),
    );
    report.stamp(
        "command",
        Json::str(std::env::args().collect::<Vec<_>>().join(" ")),
    );
    finish(&args, report)
}

/// Print the metrics (and the ledger when traced), write the result and
/// trace files, print the final JSON line, and pick the exit code.
fn finish(args: &Args, report: Report) -> ExitCode {
    let mut provenance = vec![("workload", Json::str(args.workload.clone()))];
    provenance.extend(report.stamp.iter().cloned());
    let provenance = Json::obj(provenance);
    println!("provenance {}", provenance.pretty().trim_end());

    let chosen: Vec<(&str, &str, f64)> = if args.trace {
        print_ledger(&report);
        PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n, u, report.get(n).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, report.get(n).unwrap_or(f64::NAN)))
            .collect()
    };
    if !args.trace {
        for &(n, u, v) in &chosen {
            println!("{n:<28} {v:>16.4} {u}");
        }
    }
    let mut errors = report.errors.clone();
    if report.attempted == 0 {
        errors.push("nothing was attempted".to_string());
    }
    for &(n, _, v) in &chosen {
        if !v.is_finite() {
            errors.push(format!("metric {n} was not measured"));
        }
    }
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }

    let dir = out_dir();
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let result = Json::obj(vec![
        ("provenance", provenance),
        ("correct", Json::Bool(errors.is_empty())),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
        ("errors", Json::arr(errors.iter(), |e| Json::str(e.clone()))),
        (
            "metrics",
            Json::Obj(
                report
                    .metrics
                    .iter()
                    .map(|&(n, v)| (n.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{tag}.json")), result.pretty()))
        .and_then(|()| {
            if args.trace {
                let trace = report.spans.chrome_json(&args.workload);
                std::fs::write(dir.join(format!("trace-{tag}.json")), trace.pretty())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing results under {}: {e}", dir.display());
    }

    let metrics: Vec<String> = chosen
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The traced run's table: every per-layer metric, then the ledger of
/// `cpu_ns_per_tuple` against the layer costs beneath it, then the
/// harness spans' totals and self times.
fn print_ledger(report: &Report) {
    println!("{:<32} {:>14} {:<6} layer", "metric", "value", "unit");
    for &(n, u, layer) in PER_LAYER {
        match report.get(n) {
            Some(v) => println!("{n:<32} {v:>14.4} {u:<6} {layer}"),
            None => println!("{n:<32} {:>14} {u:<6} {layer}", "n/a"),
        }
    }
    let cpu = report.get("cpu_ns_per_tuple").unwrap_or(0.0);
    println!();
    println!("ledger: cpu_ns_per_tuple {cpu:.1} ns (traced pass)");
    println!("{:<32} {:>10} {:>8}", "layer", "ns/tuple", "share");
    let residual = (
        "residual (unaccounted)",
        report.get("ledger.residual_ns_per_tuple").unwrap_or(0.0),
    );
    for &(layer, ns) in report.ledger.iter().chain([&residual]) {
        let share = if cpu > 0.0 { 100.0 * ns / cpu } else { 0.0 };
        println!("{layer:<32} {ns:>10.1} {share:>7.1}%");
    }
    println!();
    println!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in report.spans.summary() {
        println!("{name:<24} {count:>8} {total:>12.3} {own:>12.3}");
    }
    println!();
}
