//! The sharded runner's hand-off ([`measure::shard::hand_off`]): generator
//! threads claim pending shards and pass each finished one over a
//! rendezvous channel to the calling thread, which lands it. Driven here
//! with fakes, over 1 to 4 generators and every point at which the
//! committer can fail: every pending shard is generated and landed exactly
//! once; a failed landing stops every generator at its hand-off, having
//! generated nothing further; and the call returns — it joins its threads
//! — every time.
//!
//! The abort case forces the interleaving it checks instead of hoping for
//! it: the failing landing first waits, on a channel the generators report
//! to, until every generator has a finished shard to hand over.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use measure::shard::hand_off;

const SHARDS: usize = 6;

/// Real-thread repetitions of each case (`loom::STRESS_ITERATIONS`, the
/// same count the models beside this file run for).
const REPEATS: usize = loom::STRESS_ITERATIONS;

struct Handed {
    result: Result<(), u32>,
    /// How often each shard was generated and landed.
    generated: Vec<usize>,
    landed: Vec<usize>,
}

/// How many shards exist once landing number `abort_at` is in the
/// committer's hands and every generator waits at the hand-off with the
/// one it went on to finish.
fn in_flight(generators: usize, abort_at: usize) -> usize {
    SHARDS.min(abort_at + 1 + generators)
}

/// One hand-off over `SHARDS` shards whose landing number `abort_at`
/// (counting from 0) fails; `abort_at == SHARDS` never fails.
fn hand_over(generators: usize, abort_at: usize) -> Handed {
    let pending: Vec<u32> = (0..SHARDS as u32).collect();
    let generated: Vec<AtomicUsize> = (0..SHARDS).map(|_| AtomicUsize::new(0)).collect();
    let (report, reports) = mpsc::channel::<u32>();
    let mut landed = vec![0usize; SHARDS];
    let mut landings = 0;
    let (result, _) = hand_off(
        &pending,
        generators,
        {
            let generated = &generated;
            move |shard| {
                generated[shard as usize].fetch_add(1, Ordering::SeqCst);
                report
                    .send(shard)
                    .expect("the test outlives its generators");
                shard
            }
        },
        |shard| {
            if landings == abort_at {
                for _ in 0..in_flight(generators, abort_at) {
                    reports.recv().expect("a generator is still to report");
                }
                return Err(shard);
            }
            landings += 1;
            landed[shard as usize] += 1;
            Ok(())
        },
    );
    Handed {
        result,
        generated: generated.into_iter().map(AtomicUsize::into_inner).collect(),
        landed,
    }
}

#[test]
fn every_pending_shard_is_generated_and_landed_exactly_once() {
    for generators in 1..=4 {
        for _ in 0..REPEATS {
            let handed = hand_over(generators, SHARDS);
            assert_eq!(handed.result, Ok(()));
            assert_eq!(handed.generated, [1; SHARDS], "{generators} generators");
            assert_eq!(handed.landed, [1; SHARDS], "{generators} generators");
        }
    }
}

#[test]
fn a_failed_landing_stops_every_generator_at_its_hand_off() {
    for generators in 1..=4 {
        for abort_at in 0..SHARDS {
            for _ in 0..REPEATS {
                let handed = hand_over(generators, abort_at);
                let context = format!("{generators} generators, landing {abort_at} fails");
                let failed = handed.result.expect_err(&context) as usize;
                assert_eq!(handed.landed.iter().sum::<usize>(), abort_at, "{context}");
                assert_eq!(handed.landed[failed], 0, "{context}");
                for shard in 0..SHARDS {
                    assert!(handed.generated[shard] <= 1, "{context}: shard {shard}");
                    assert!(
                        handed.landed[shard] <= handed.generated[shard],
                        "{context}: shard {shard} landed without being generated"
                    );
                }
                // The failed shard, those landed before it, and the one
                // each generator was left holding — no generator went on
                // to another after the committer hung up.
                assert_eq!(
                    handed.generated.iter().sum::<usize>(),
                    in_flight(generators, abort_at),
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn one_generator_lands_shards_in_pending_order() {
    let pending = [4u32, 1, 3, 0];
    let mut order = Vec::new();
    let (result, lanes) = hand_off(
        &pending,
        1,
        |shard| shard,
        |shard| {
            order.push(shard);
            Ok::<(), ()>(())
        },
    );
    assert_eq!(result, Ok(()));
    assert_eq!(order, pending);
    assert!(lanes.execute_wall_s >= lanes.committer_wait_s);
}

#[test]
fn nothing_pending_spawns_nothing_and_lands_nothing() {
    let (result, _) = hand_off(&[], 4, |shard| shard, |_| Err::<(), &str>("landed"));
    assert_eq!(result, Ok(()));
}
