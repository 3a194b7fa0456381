//! Event-time equivalence: the FiBA finger B-tree against the paper's
//! count-based SlickDeque aggregators, and order-insensitivity of the
//! event-time pipeline under bounded disorder.
//!
//! Three contracts are checked:
//!
//! * Fed the same stream **in order**, a [`FingerBTree`] maintaining a
//!   count-window FIFO must agree with [`SlickDequeInv`] on every slide
//!   under exact (integer) operations, and with [`SlickDequeNonInv`]
//!   **bitwise** under float Max/Min (selection never rounds, so the
//!   tree's reassociated folds cannot diverge).
//! * A [`TimeWindowExec`] fed any permutation of a stream with
//!   displacement at most `d`, with the watermark trailing the frontier
//!   by `d`, must emit exactly the in-order run's answers.
//! * The sharded engine's event path must be invariant to the disorder
//!   bound itself: per-key answers at disorder 0 and 256 coincide.

use slickdeque::prelude::*;
use std::collections::BTreeMap;
use swag_data::prng::Xoshiro256StarStar;

/// Drive a count-window FIFO of `window` partials through both a
/// SlickDeque aggregator (`slide`) and a [`FingerBTree`] keyed by stream
/// position (`insert` + `evict_older_than`), comparing the window
/// aggregate after every tuple with `same`.
fn check_in_order<O, A>(
    op: O,
    window: usize,
    inputs: &[O::Input],
    same: impl Fn(&O::Partial, &O::Partial) -> bool,
) where
    O: AggregateOp + Clone,
    A: FinalAggregator<O>,
{
    let mut deque = A::with_capacity(op.clone(), window);
    let mut tree = FingerBTree::new(op.clone());
    for (i, v) in inputs.iter().enumerate() {
        let expected = deque.slide(op.lift(v));
        tree.insert(i as u64, op.lift(v));
        if i >= window {
            tree.evict_older_than(i as u64 + 1 - window as u64);
        }
        let got = tree.query();
        assert!(
            same(&got, &expected),
            "{} w={window} i={i}: tree {got:?} != deque {expected:?}",
            A::NAME
        );
        assert_eq!(tree.len(), deque.len(), "w={window} i={i}");
    }
}

#[test]
fn in_order_finger_btree_matches_slickdeque_inv_exactly() {
    let values: Vec<i64> = (0..1500).map(|i| ((i * 37) % 101) - 50).collect();
    for &w in &[1usize, 7, 64, 257] {
        check_in_order::<_, SlickDequeInv<_>>(Sum::<i64>::new(), w, &values, |a, b| a == b);
        check_in_order::<_, SlickDequeInv<_>>(Count::<i64>::new(), w, &values, |a, b| a == b);
    }
}

#[test]
fn in_order_finger_btree_matches_slickdeque_noninv_bitwise() {
    let values = Workload::Uniform.generate(1500, 11);
    for &w in &[1usize, 7, 64, 257] {
        check_in_order::<_, SlickDequeNonInv<_>>(MaxF64::new(), w, &values, |a, b| {
            a.to_bits() == b.to_bits()
        });
        check_in_order::<_, SlickDequeNonInv<_>>(MinF64::new(), w, &values, |a, b| {
            a.to_bits() == b.to_bits()
        });
    }
}

/// Permute `(ts, value)` tuples with displacement at most `disorder`:
/// each tuple gets a perturbed position `p = ts + jitter(0..=disorder)`
/// and the stream is released in `p` order (ties prefer the larger
/// timestamp, so small bounds still invert neighbours).
type Perturbed = Vec<(u64, std::cmp::Reverse<u64>, i64)>;

fn displace(events: &[(u64, i64)], disorder: u64, seed: u64) -> Vec<(u64, i64)> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut perturbed: Perturbed = events
        .iter()
        .map(|&(ts, v)| (ts + rng.gen_below(disorder + 1), std::cmp::Reverse(ts), v))
        .collect();
    perturbed.sort();
    perturbed
        .into_iter()
        .map(|(_, std::cmp::Reverse(ts), v)| (ts, v))
        .collect()
}

#[test]
fn time_windows_are_order_insensitive_within_lateness() {
    const DISORDER: u64 = 16;
    let specs = vec![TimeWindowSpec::new(32, 8), TimeWindowSpec::tumbling(50)];
    let events: Vec<(u64, i64)> = (0..600).map(|ts| (ts, ((ts * 37) % 101) as i64)).collect();

    let run = |stream: &[(u64, i64)]| {
        let mut exec = TimeWindowExec::new(Sum::<i64>::new(), specs.clone());
        let mut answers = Vec::new();
        let mut frontier = 0u64;
        for &(ts, v) in stream {
            frontier = frontier.max(ts);
            assert!(
                exec.insert(ts, &v),
                "a watermark trailing by the disorder bound never refuses"
            );
            exec.advance_watermark(frontier.saturating_sub(DISORDER), &mut answers);
        }
        exec.finish(&mut answers);
        answers
    };

    let reference = run(&events);
    assert!(!reference.is_empty());
    for seed in [1u64, 7, 23] {
        let shuffled = displace(&events, DISORDER, seed);
        assert_ne!(shuffled, events, "seed {seed} must actually shuffle");
        assert_eq!(run(&shuffled), reference, "seed {seed}");
    }
}

#[test]
fn engine_event_answers_are_disorder_invariant() {
    // Integer-valued f64 sums are exact, so reassociation under disorder
    // cannot round differently and the comparison is bitwise.
    let tuples: Vec<(Key, f64)> = (0..3000)
        .map(|i| ((i * 7 % 5) as Key, ((i * 37) % 101) as f64))
        .collect();
    // Per key: (query index, window end, answer bits).
    type PerKey = BTreeMap<Key, Vec<(usize, u64, u64)>>;
    let mut reference: Option<PerKey> = None;
    for disorder in [0u64, 256] {
        let mut source =
            DisorderedKeyedSource::new(KeyedVecSource::new(tuples.clone()), disorder, 5);
        let engine = ShardedEngine::new(EngineConfig {
            shards: 2,
            retain_answers: true,
            ..EngineConfig::default()
        });
        let run = engine.run_events(&mut source, u64::MAX, None, |_shard| {
            KeyedEventWindows::new(Sum::<f64>::new(), vec![TimeWindowSpec::new(64, 16)])
        });
        assert_eq!(run.stats.tuples, 3000);
        assert_eq!(
            run.stats.late_tuples, 0,
            "the source's watermark promise drops nothing"
        );
        let mut per_key: BTreeMap<Key, Vec<(usize, u64, u64)>> = BTreeMap::new();
        for shard in &run.answers {
            for &(key, (q, end, v)) in shard {
                per_key.entry(key).or_default().push((q, end, v.to_bits()));
            }
        }
        match &reference {
            None => reference = Some(per_key),
            Some(r) => assert_eq!(&per_key, r, "disorder {disorder}"),
        }
    }
}
