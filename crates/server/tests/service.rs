//! End-to-end service tests: HTTP control plane, TCP ingest (binary and
//! text), snapshot → restart → restore with bitwise-identical answers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swag_metrics::json::Json;
use swag_server::proto::IngestClient;
use swag_server::{PipelineSpec, ServerConfig, SwagServer};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swag-service-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path) -> SwagServer {
    SwagServer::start(ServerConfig {
        snapshot_dir: dir.to_path_buf(),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Stream tuples over the binary protocol; returns the server's ack.
fn stream_binary(server: &SwagServer, pipeline: &str, tuples: &[(u64, u64, f64)]) -> String {
    let conn = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    let mut client = IngestClient::new(pipeline, conn).expect("handshake");
    for chunk in tuples.chunks(97) {
        client.send(chunk).expect("send frame");
    }
    let conn = client.finish().expect("finish");
    let mut ack = String::new();
    BufReader::new(conn).read_line(&mut ack).expect("read ack");
    ack
}

/// Block until the pipeline has processed `expect` tuples (cycles are
/// asynchronous behind the queue).
fn wait_tuples(server: &SwagServer, pipeline: &str, expect: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let tuples = server
            .status_json(pipeline)
            .and_then(|j| {
                j.get("status")
                    .and_then(|s| s.get("tuples").and_then(Json::as_u64))
            })
            .unwrap_or(0);
        if tuples >= expect {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "pipeline {pipeline:?} stuck at {tuples}/{expect} tuples"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn count_spec(name: &str) -> PipelineSpec {
    PipelineSpec::from_json(&format!(
        r#"{{"name":"{name}","op":"sum","algorithm":"slickdeque","kind":"count","window":50,"shards":2}}"#
    ))
    .unwrap()
}

fn workload(n: usize) -> Vec<(u64, u64, f64)> {
    // Inexact decimals over 17 keys: order- and state-sensitive sums.
    (0..n)
        .map(|i| (i as u64 % 17, 0u64, (i as f64) * 0.1 - 3.7))
        .collect()
}

#[test]
fn binary_ingest_snapshot_restart_restore_is_bitwise() {
    let tuples = workload(5000);
    let (first, second) = tuples.split_at(2500);

    // Reference: the full stream through one uninterrupted server.
    let ref_dir = temp_dir("ref");
    let reference = start(&ref_dir);
    reference.create_pipeline(count_spec("bids")).unwrap();
    let ack = stream_binary(&reference, "bids", &tuples);
    assert_eq!(ack.trim(), "OK 5000");
    wait_tuples(&reference, "bids", 5000);
    let want = reference.answers_json("bids").unwrap();
    reference.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Interrupted: half the stream, graceful shutdown (snapshots), a
    // fresh server restores from disk, then the second half.
    let dir = temp_dir("restore");
    let server = start(&dir);
    server.create_pipeline(count_spec("bids")).unwrap();
    stream_binary(&server, "bids", first);
    wait_tuples(&server, "bids", 2500);
    server.shutdown().unwrap();
    assert!(dir.join("bids.swag").exists(), "shutdown snapshotted");

    let server = start(&dir);
    let spec = server.restore_pipeline("bids").expect("restore");
    assert_eq!(spec, count_spec("bids"));
    stream_binary(&server, "bids", second);
    wait_tuples(&server, "bids", 2500);
    let got = server.answers_json("bids").unwrap();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Json holds f64s; equality here is exact — bitwise answers.
    assert_eq!(
        want, got,
        "restored pipeline diverged from uninterrupted run"
    );
}

#[test]
fn restore_across_shard_counts_is_bitwise() {
    let tuples = workload(3000);
    let (first, second) = tuples.split_at(1500);

    let ref_dir = temp_dir("shards-ref");
    let reference = start(&ref_dir);
    reference.create_pipeline(count_spec("w")).unwrap();
    stream_binary(&reference, "w", &tuples);
    wait_tuples(&reference, "w", 3000);
    let want = reference.answers_json("w").unwrap();
    reference.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&ref_dir);

    let dir = temp_dir("shards");
    let server = start(&dir);
    server.create_pipeline(count_spec("w")).unwrap();
    stream_binary(&server, "w", first);
    wait_tuples(&server, "w", 1500);
    server.shutdown().unwrap();

    // Rewrite the snapshot's spec to 3 shards: keys must re-partition
    // without touching answers (a key's state is shard-independent).
    let mut snap = swag_server::snapshot::read_snapshot(&dir, "w").unwrap();
    snap.spec.shards = 3;
    swag_server::snapshot::write_snapshot(&dir, &snap).unwrap();

    let server = start(&dir);
    let spec = server.restore_pipeline("w").unwrap();
    assert_eq!(spec.shards, 3);
    stream_binary(&server, "w", second);
    wait_tuples(&server, "w", 1500);
    let got = server.answers_json("w").unwrap();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(want, got, "re-sharded restore diverged");
}

#[test]
fn event_pipeline_over_text_protocol_restores() {
    let spec_json = r#"{"name":"high","op":"max","algorithm":"fiba","kind":"event",
                        "range":100,"slide":50,"lateness":10,"shards":2}"#;
    // Exact values (integers): the FiBA tree is rebuilt from entries at
    // restore, so bitwise equality is the exact-stream guarantee.
    let events: Vec<(u64, u64, f64)> = (0..2000u64)
        .map(|i| (i % 5, i * 3, ((i * 37) % 1000) as f64))
        .collect();
    let (first, second) = events.split_at(1000);

    let ref_dir = temp_dir("event-ref");
    let reference = start(&ref_dir);
    reference
        .create_pipeline(PipelineSpec::from_json(spec_json).unwrap())
        .unwrap();
    stream_text(&reference, "high", &events);
    wait_tuples(&reference, "high", 2000);
    let want = reference.answers_json("high").unwrap();
    reference.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&ref_dir);

    let dir = temp_dir("event");
    let server = start(&dir);
    server
        .create_pipeline(PipelineSpec::from_json(spec_json).unwrap())
        .unwrap();
    stream_text(&server, "high", first);
    wait_tuples(&server, "high", 1000);
    server.shutdown().unwrap();

    let server = start(&dir);
    server.restore_pipeline("high").unwrap();
    stream_text(&server, "high", second);
    wait_tuples(&server, "high", 1000);
    let got = server.answers_json("high").unwrap();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(want, got, "event restore diverged");
}

/// Stream tuples over the line-delimited text fallback.
fn stream_text(server: &SwagServer, pipeline: &str, tuples: &[(u64, u64, f64)]) -> String {
    let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    let mut payload = format!("{pipeline}\n");
    for &(k, ts, v) in tuples {
        payload.push_str(&format!("{k},{ts},{v}\n"));
    }
    conn.write_all(payload.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut ack = String::new();
    BufReader::new(conn).read_line(&mut ack).expect("read ack");
    ack
}

/// A text-mode line that never ends — the pipeline-name line or a tuple
/// line — is cut off at a small cap: the server answers `ERR` and closes
/// instead of buffering the stream without bound.
#[test]
fn unterminated_text_lines_are_cut_off() {
    const TOTAL: usize = 16 << 20;
    let dir = temp_dir("longline");
    let server = start(&dir);
    server.create_pipeline(count_spec("p")).unwrap();
    let digits = vec![b'7'; 64 << 10];
    for prefix in ["", "p\n"] {
        let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
        conn.set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(prefix.as_bytes()).unwrap();
        let mut written = 0;
        while written < TOTAL {
            match conn.write(&digits) {
                Ok(n) => written += n,
                Err(_) => break,
            }
        }
        assert!(
            written < TOTAL,
            "after {prefix:?}, the server took {written} bytes of one unterminated line"
        );
    }
    let tuples = server
        .status_json("p")
        .and_then(|j| j.get("status")?.get("tuples")?.as_u64());
    assert_eq!(tuples, Some(0), "no tuple reached the pipeline");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_snapshots_are_rejected() {
    let dir = temp_dir("corrupt");
    let server = start(&dir);
    server.create_pipeline(count_spec("p")).unwrap();
    stream_binary(&server, "p", &workload(500));
    wait_tuples(&server, "p", 500);
    server.snapshot_pipeline("p").expect("explicit snapshot");
    server.shutdown().unwrap();

    let path = dir.join("p.swag");
    let good = std::fs::read(&path).unwrap();

    // Truncated file.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let server = start(&dir);
    assert!(server.restore_pipeline("p").is_err(), "truncated accepted");
    server.shutdown().unwrap();

    // Single flipped byte fails the checksum.
    let mut bad = good.clone();
    bad[good.len() / 3] ^= 0x40;
    std::fs::write(&path, &bad).unwrap();
    let server = start(&dir);
    assert!(server.restore_pipeline("p").is_err(), "corruption accepted");

    // The pristine bytes still restore.
    std::fs::write(&path, &good).unwrap();
    server.restore_pipeline("p").expect("pristine restores");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Minimal HTTP client against the control plane.
fn http(server: &SwagServer, method: &str, path: &str, body: &str) -> (String, String) {
    let mut conn = TcpStream::connect(server.http_addr()).expect("connect control");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn control_plane_crud_and_metrics() {
    let dir = temp_dir("http");
    let server = start(&dir);

    let (head, _) = http(&server, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "healthz: {head}");

    // Create over HTTP.
    let body = r#"{"name":"bids","op":"sum","algorithm":"slickdeque","kind":"count","window":10}"#;
    let (head, _) = http(&server, "POST", "/pipelines", body);
    assert!(head.starts_with("HTTP/1.1 201"), "create: {head}");

    // Duplicate name conflicts.
    let (head, _) = http(&server, "POST", "/pipelines", body);
    assert!(head.starts_with("HTTP/1.1 409"), "duplicate: {head}");

    // Bad spec is a 400.
    let (head, _) = http(&server, "POST", "/pipelines", r#"{"name":"x"}"#);
    assert!(head.starts_with("HTTP/1.1 400"), "bad spec: {head}");

    // Listed with live status.
    let (_, body) = http(&server, "GET", "/pipelines", "");
    let json = Json::parse(&body).expect("list parses");
    let list = json.get("pipelines").and_then(Json::as_array).unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(
        list[0]
            .get("spec")
            .and_then(|s| s.get("name"))
            .and_then(Json::as_str),
        Some("bids")
    );

    // Ingest, then check status + answers + metrics over HTTP.
    stream_binary(&server, "bids", &workload(100));
    wait_tuples(&server, "bids", 100);
    let (head, body) = http(&server, "GET", "/pipelines/bids", "");
    assert!(head.starts_with("HTTP/1.1 200"), "status: {head}");
    let status = Json::parse(&body).unwrap();
    assert_eq!(
        status
            .get("status")
            .and_then(|s| s.get("tuples"))
            .and_then(Json::as_u64),
        Some(100)
    );
    let (_, body) = http(&server, "GET", "/pipelines/bids/answers", "");
    let answers = Json::parse(&body).unwrap();
    assert_eq!(answers.as_array().unwrap().len(), 17, "one row per key");
    let (_, metrics) = http(&server, "GET", "/metrics", "");
    assert!(
        metrics.contains("swag_pipeline_tuples_total{pipeline=\"bids\"} 100"),
        "pipeline metrics exported: {metrics}"
    );

    // Snapshot over HTTP, then delete; the name is free again.
    let (head, _) = http(&server, "POST", "/pipelines/bids/snapshot", "");
    assert!(head.starts_with("HTTP/1.1 200"), "snapshot: {head}");
    assert!(dir.join("bids.swag").exists());
    let (head, _) = http(&server, "DELETE", "/pipelines/bids", "");
    assert!(head.starts_with("HTTP/1.1 200"), "delete: {head}");
    let (head, _) = http(&server, "GET", "/pipelines/bids", "");
    assert!(head.starts_with("HTTP/1.1 404"), "after delete: {head}");

    // Restore over HTTP (spec comes from the snapshot itself), then one
    // tuple per key: the next cycle folds them into the restored window
    // state and repopulates the answer table.
    let (head, _) = http(
        &server,
        "POST",
        "/pipelines",
        r#"{"name":"bids","restore":true}"#,
    );
    assert!(head.starts_with("HTTP/1.1 201"), "restore: {head}");
    stream_binary(&server, "bids", &workload(17));
    wait_tuples(&server, "bids", 17);
    let (_, body) = http(&server, "GET", "/pipelines/bids/answers", "");
    assert_eq!(
        Json::parse(&body).unwrap().as_array().unwrap().len(),
        17,
        "answers repopulate from restored state on the next cycle"
    );

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_pipeline_ingest_gets_err_ack() {
    let dir = temp_dir("nopipe");
    let server = start(&dir);
    let conn = TcpStream::connect(server.ingest_addr()).unwrap();
    let client = IngestClient::new("ghost", conn).unwrap();
    let conn = client.finish().unwrap();
    let mut ack = String::new();
    BufReader::new(conn).read_line(&mut ack).unwrap();
    assert!(ack.starts_with("ERR "), "got ack {ack:?}");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
