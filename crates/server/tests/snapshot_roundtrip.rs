//! Snapshot round-trip property: for every servable algorithm × op ×
//! window size, capturing mid-stream through the server's codec layer
//! ([`KeyState`] bytes) and restoring yields an aggregator whose every
//! subsequent answer is bitwise identical to the uninterrupted one.

use swag_core::aggregator::FinalAggregator;
use swag_core::algorithms::{
    BInt, Daba, FlatFat, FlatFit, Naive, SlickDequeInv, SlickDequeNonInv, TwoStacks,
};
use swag_core::ops::{AggregateOp, MaxF64, Mean, MinF64, StdDev, Sum};
use swag_core::state::{PartialCodec, StateReader, StateWriter, StatefulAggregator};
use swag_data::keyed::Key;
use swag_data::prng::SplitMix64;
use swag_engine::{EventProcessor, KeyedEventWindows};
use swag_server::snapshot::{KeyState, Snapshot, SNAP_VERSION};
use swag_server::PipelineSpec;
use swag_stream::{TimeWindowExec, TimeWindowSpec};

const WINDOWS: [usize; 4] = [1, 7, 64, 1000];

fn values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            // Uniform in [-4, 4): inexact decimals, sign changes, and
            // magnitudes that make float summation order-sensitive.
            (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
        })
        .collect()
}

/// Feed half the stream, snapshot through the byte codec, restore, and
/// check the second half answers bitwise against the uninterrupted run.
fn roundtrip<O, A>(op: O, window: usize, seed: u64)
where
    O: AggregateOp<Input = f64, Output = f64> + PartialCodec + Clone,
    A: FinalAggregator<O> + StatefulAggregator<O>,
{
    let n = (window * 5 / 2).max(50);
    let vals = values(n, seed);
    let (first, second) = vals.split_at(n / 2);
    let mut live = A::with_capacity(op.clone(), window);
    for v in first {
        live.slide(op.lift(v));
    }

    let mut w = StateWriter::new();
    live.save_state(&mut w);
    let (words, partials) = w.into_parts();
    let ks = KeyState::encode(0, words, &partials, &op);

    let decoded = ks.decode_partials(&op).expect("partials decode");
    let mut r = StateReader::new(&ks.words, &decoded);
    let mut restored = A::load_state(op.clone(), window, &mut r)
        .unwrap_or_else(|e| panic!("{} w={window}: load failed: {e:?}", A::NAME));
    r.finish().expect("no trailing state");

    for (i, v) in second.iter().enumerate() {
        let a = op.lower(&live.slide(op.lift(v)));
        let b = op.lower(&restored.slide(op.lift(v)));
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} w={window}: answer {i} diverged after restore ({a} vs {b})",
            A::NAME
        );
    }
}

macro_rules! matrix {
    ($name:ident, $op:expr, [$($A:ident),+]) => {
        #[test]
        fn $name() {
            for (i, &window) in WINDOWS.iter().enumerate() {
                $(roundtrip::<_, $A<_>>($op, window, 0x5EED + i as u64);)+
            }
        }
    };
}

matrix!(
    sum_all_invertible_algorithms,
    Sum::<f64>::new(),
    [
        SlickDequeInv,
        Naive,
        FlatFat,
        BInt,
        FlatFit,
        TwoStacks,
        Daba
    ]
);
matrix!(
    mean_all_invertible_algorithms,
    Mean::new(),
    [
        SlickDequeInv,
        Naive,
        FlatFat,
        BInt,
        FlatFit,
        TwoStacks,
        Daba
    ]
);
matrix!(
    stddev_all_invertible_algorithms,
    StdDev::new(),
    [
        SlickDequeInv,
        Naive,
        FlatFat,
        BInt,
        FlatFit,
        TwoStacks,
        Daba
    ]
);
matrix!(
    max_all_selective_algorithms,
    MaxF64::new(),
    [
        SlickDequeNonInv,
        Naive,
        FlatFat,
        BInt,
        FlatFit,
        TwoStacks,
        Daba
    ]
);
matrix!(
    min_all_selective_algorithms,
    MinF64::new(),
    [
        SlickDequeNonInv,
        Naive,
        FlatFat,
        BInt,
        FlatFit,
        TwoStacks,
        Daba
    ]
);

/// The event-time executor round-trips through the same codec layer.
///
/// Values are integer-valued `f64` (exact under any combine order):
/// restore rebuilds the FiBA tree from its entries, so the combine
/// *association* may differ from the live tree — bitwise answer
/// equality is guaranteed on exact streams (see
/// `FingerBTree::from_entries`), which is what the service's event
/// pipelines (counts, max/min) stream. Arrival-order algorithms above
/// restore their state verbatim and are bitwise on any floats.
#[test]
fn time_window_exec_roundtrips_mid_stream() {
    let op = Sum::<f64>::new();
    let specs = vec![TimeWindowSpec::new(100, 10)];
    let vals: Vec<f64> = {
        let mut rng = SplitMix64::new(0xE7E27);
        (0..500)
            .map(|_| (rng.next_u64() % 2048) as f64 - 1024.0)
            .collect()
    };
    let mut live = TimeWindowExec::new(op, specs.clone());
    for (i, v) in vals[..250].iter().enumerate() {
        live.insert(i as u64 * 3, v);
    }
    live.advance_watermark(400, &mut Vec::new());

    let mut w = StateWriter::new();
    live.save_state(&mut w);
    let (words, partials) = w.into_parts();
    let ks = KeyState::encode(9, words, &partials, &op);
    let decoded = ks.decode_partials(&op).unwrap();
    let mut r = StateReader::new(&ks.words, &decoded);
    let mut restored = TimeWindowExec::load_state(op, &mut r).expect("load");
    r.finish().unwrap();

    for (i, v) in vals[250..].iter().enumerate() {
        let ts = 750 + i as u64 * 3;
        live.insert(ts, v);
        restored.insert(ts, v);
    }
    let (mut out_live, mut out_restored) = (Vec::new(), Vec::new());
    live.advance_watermark(2000, &mut out_live);
    restored.advance_watermark(2000, &mut out_restored);
    assert_eq!(out_live.len(), out_restored.len());
    for ((qa, ea, va), (qb, eb, vb)) in out_live.iter().zip(&out_restored) {
        assert_eq!((qa, ea), (qb, eb));
        assert_eq!(va.to_bits(), vb.to_bits(), "event answers bitwise equal");
    }
}

/// The event pipeline the keyed snapshots below are captured under.
const EVENT_SPEC: &str = r#"{"name":"ev","op":"max","algorithm":"fiba","kind":"event",
                            "range":100,"slide":20,"lateness":10,"shards":1}"#;

fn event_specs() -> Vec<TimeWindowSpec> {
    vec![TimeWindowSpec::new(100, 20)]
}

fn key_state(key: Key, exec: &TimeWindowExec<MaxF64>) -> KeyState {
    let mut w = StateWriter::new();
    exec.save_state(&mut w);
    let (words, partials) = w.into_parts();
    KeyState::encode(key, words, &partials, &MaxF64::new())
}

/// Encode a snapshot file holding `keys`, then decode it back.
fn through_file(keys: Vec<KeyState>, watermark: u64) -> Snapshot {
    let snap = Snapshot {
        spec: PipelineSpec::from_json(EVENT_SPEC).unwrap(),
        watermark,
        keys,
    };
    Snapshot::decode(&snap.encode()).expect("snapshot decodes")
}

/// Rebuild a keyed event processor from a decoded snapshot.
fn restore_event(snap: &Snapshot) -> KeyedEventWindows<MaxF64> {
    let op = MaxF64::new();
    let states: Vec<(Key, TimeWindowExec<MaxF64>)> = snap
        .keys
        .iter()
        .map(|ks| {
            let partials = ks.decode_partials(&op).unwrap();
            let mut r = StateReader::new(&ks.words, &partials);
            let exec = TimeWindowExec::load_state(op, &mut r).expect("load");
            r.finish().expect("no trailing state");
            (ks.key, exec)
        })
        .collect();
    KeyedEventWindows::from_states(op, event_specs(), states)
}

/// Key 1 streams in `[0, 60)` and again from 700; key 2 on even stamps
/// and key 3 on the other odd ones. Integer values: exact under any
/// combine association.
fn event_tuples(lo: u64, hi: u64) -> Vec<(Key, u64, f64)> {
    (lo..hi)
        .map(|ts| {
            let key = match ts {
                _ if ts % 2 == 0 => 2,
                _ if !(60..700).contains(&ts) => 1,
                _ => 3,
            };
            (key, ts, ((ts * 37) % 101) as f64)
        })
        .collect()
}

/// Apply `tuples` in runs of 16, advancing to 10 behind the frontier
/// after each run, as a shard worker would.
fn drive(
    p: &mut KeyedEventWindows<MaxF64>,
    tuples: &[(Key, u64, f64)],
) -> Vec<(Key, (usize, u64, f64))> {
    let mut out = Vec::new();
    for run in tuples.chunks(16) {
        for &(key, ts, v) in run {
            p.apply(key, &[(ts, v)]);
        }
        let frontier = run.iter().map(|t| t.1).max().unwrap_or(0);
        p.advance_watermark(frontier.saturating_sub(10), &mut out);
    }
    out
}

fn bits(answers: &[(Key, (usize, u64, f64))]) -> Vec<(Key, usize, u64, u64)> {
    answers
        .iter()
        .map(|&(k, (q, end, v))| (k, q, end, v.to_bits()))
        .collect()
}

/// A key retired for idleness is absent from the snapshot; the restored
/// processor answers every later window bitwise like the uninterrupted
/// one, including the retired key's return.
#[test]
fn retired_event_keys_are_absent_and_restore_answers_bitwise() {
    let mut live = KeyedEventWindows::new(MaxF64::new(), event_specs());
    drive(&mut live, &event_tuples(0, 400));
    assert!(
        live.state(1).is_none(),
        "key 1 went quiet at 59 and retired"
    );
    assert_eq!(live.keys(), 2);

    let keys: Vec<KeyState> = live.states().map(|(k, e)| key_state(k, e)).collect();
    let snap = through_file(keys, 389);
    let captured: Vec<Key> = snap.keys.iter().map(|ks| ks.key).collect();
    assert_eq!(captured, vec![2, 3]);
    let mut restored = restore_event(&snap);

    let later = event_tuples(400, 1000);
    let mut want = drive(&mut live, &later);
    let mut got = drive(&mut restored, &later);
    live.finish(&mut want);
    restored.finish(&mut got);
    assert!(want.iter().any(|a| a.0 == 1), "key 1 came back");
    assert_eq!(bits(&got), bits(&want));
}

/// A capture in which an idle key still holds an empty tree and a
/// pending cursor — what an older build wrote for every key it had ever
/// seen — restores under the unchanged format, and the key retires on
/// the next advance without emitting anything.
#[test]
fn an_idle_key_in_an_older_snapshot_restores_and_retires() {
    assert_eq!(SNAP_VERSION, 1, "the snapshot format is unchanged");
    // Key 7: watermark 400, 5 accepted, one (100, 20) spec whose cursor
    // still points at window end 420, no live entries.
    let mut w = StateWriter::<f64>::new();
    w.word(400);
    w.word(5);
    w.usize_word(1);
    w.word(100);
    w.word(20);
    w.word(1);
    w.word(420);
    w.usize_word(0);
    let (words, partials) = w.into_parts();
    let idle = KeyState::encode(7, words, &partials, &MaxF64::new());
    let mut busy = TimeWindowExec::new(MaxF64::new(), event_specs());
    busy.insert(395, &3.0);
    busy.advance_watermark(400, &mut Vec::new());
    let snap = through_file(vec![idle, key_state(8, &busy)], 400);

    let mut restored = restore_event(&snap);
    assert_eq!(restored.keys(), 2);
    assert_eq!(restored.state(7).map(TimeWindowExec::live), Some(0));
    let mut out = Vec::new();
    restored.advance_watermark(430, &mut out);
    assert!(restored.state(7).is_none(), "the idle key retired");
    assert_eq!(restored.keys(), 1);
    assert!(out.iter().all(|a| a.0 == 8), "nothing emitted for key 7");

    // Its next tuple starts it afresh, as on a processor that never
    // held it.
    let mut fresh = KeyedEventWindows::new(MaxF64::new(), event_specs());
    restored.apply(7, &[(450, 9.0)]);
    fresh.apply(7, &[(450, 9.0)]);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    restored.finish(&mut got);
    fresh.finish(&mut want);
    got.retain(|a| a.0 == 7);
    assert_eq!(bits(&got), bits(&want));
}

/// A corrupted capture (bad structural word) must be rejected at load,
/// not produce a silently wrong aggregator.
#[test]
fn corrupted_words_are_rejected() {
    let op = Sum::<f64>::new();
    let window = 16;
    let mut live = Naive::with_capacity(op, window);
    for v in values(40, 7) {
        live.slide(op.lift(&v));
    }
    let mut w = StateWriter::new();
    live.save_state(&mut w);
    let (words, partials) = w.into_parts();

    // Corrupt each word in turn with an out-of-range value; every
    // mutation must fail structural validation, never panic.
    for i in 0..words.len() {
        let mut bad = words.clone();
        bad[i] = u64::MAX - 7;
        let mut r = StateReader::new(&bad, &partials);
        let res = Naive::load_state(op, window, &mut r);
        assert!(res.is_err(), "word {i} corrupted must be rejected");
    }

    // Truncated words must be rejected.
    let mut r = StateReader::new(&words[..words.len() - 1], &partials);
    assert!(Naive::load_state(op, window, &mut r).is_err());

    // Truncated partials must be rejected.
    let mut r = StateReader::new(&words, &partials[..partials.len() - 1]);
    assert!(Naive::load_state(op, window, &mut r).is_err());
}
