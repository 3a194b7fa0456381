//! Key churn: event-time state follows the keys active within the last
//! `range + lateness` of event time, not every key ever seen.
//!
//! A stream of 120k distinct keys, each getting a few tuples and then
//! going silent for good, runs through one [`KeyedEventWindows`] the way
//! a shard worker drives it (apply a batch, advance to the watermark).
//! The binary installs the counting global allocator and holds this one
//! test, so the live heap bytes it reads are the processor's own.

use std::collections::BTreeSet;

use swag_core::ops::MaxF64;
use swag_data::keyed::Key;
use swag_engine::{EventProcessor, KeyedEventWindows};
use swag_metrics::alloc::{current_bytes, CountingAllocator};
use swag_stream::TimeWindowSpec;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const RANGE: u64 = 64;
const SLIDE: u64 = 16;
const LATENESS: u64 = 32;
/// Keys active at once: a block of `GROUP` keys shares the timeline.
const GROUP: u64 = 64;
/// Tuples per key, `GROUP` ticks apart, then the key goes silent.
const PER_KEY: u64 = 3;
const KEYS: u64 = 120_000;
const BATCH: u64 = 256;
/// Live heap bytes may rise at most this far above the post-warm-up
/// reading: room for the spare list (≤ 256 idle executors of a few
/// hundred bytes each) and the buffers' last doubling, far below the
/// ~100 bytes per key that state kept for every key seen would add.
const FLAT_BOUND: usize = 256 * 1024;

/// Tuple `i` of the stream: event time `i`, key from its block.
fn tuple(i: u64) -> (Key, u64, f64) {
    let block = i / (GROUP * PER_KEY);
    (block * GROUP + i % GROUP, i, (i % 97) as f64)
}

#[test]
fn idle_keys_retire_and_live_heap_stays_flat() {
    let total = KEYS * PER_KEY;
    let mut p = KeyedEventWindows::new(MaxF64::new(), vec![TimeWindowSpec::new(RANGE, SLIDE)]);
    let mut out = Vec::new();
    let mut answers = 0u64;
    let mut baseline: Option<usize> = None;
    let mut peak_keys = 0usize;
    let mut start = 0u64;
    while start < total {
        let end = (start + BATCH).min(total);
        for i in start..end {
            let (key, ts, v) = tuple(i);
            p.apply(key, &[(ts, v)]);
        }
        let max_ts = end - 1;
        let wm = max_ts.saturating_sub(LATENESS);
        p.advance_watermark(wm, &mut out);
        answers += out.len() as u64;
        out.clear();
        start = end;

        // A key still holding state has a tuple after `wm − RANGE`: its
        // last window ends at most RANGE past its last tuple.
        let recent: BTreeSet<Key> = (max_ts.saturating_sub(RANGE + LATENESS)..=max_ts)
            .map(|i| tuple(i).0)
            .collect();
        assert!(
            p.keys() <= recent.len(),
            "{} keys live at ts {max_ts}, only {} had a tuple in the last range + lateness",
            p.keys(),
            recent.len()
        );
        peak_keys = peak_keys.max(p.keys());

        // Warm-up: the first tenth of the keys.
        if start >= total / 10 {
            let now = current_bytes();
            match baseline {
                None => baseline = Some(now),
                Some(base) => assert!(
                    now <= base + FLAT_BOUND,
                    "live heap grew from {base} to {now} bytes by tuple {start} \
                     ({} keys seen)",
                    start / PER_KEY
                ),
            }
        }
    }
    assert!(answers > 0, "the stream emitted windows");
    assert!(peak_keys > 0 && peak_keys <= (GROUP * 2) as usize);
}
