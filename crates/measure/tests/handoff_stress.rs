//! The one claim loop ([`measure::shard::hand_off`]), which runs the
//! sharded runner's execute phase and `Campaign::generate`'s pairs: every
//! lane — the calling thread and the workers spawned beside it — claims
//! the next pending shard, generates it and persists it, and the calling
//! thread commits the persisted shards in pending order. Driven here with
//! fakes, over 0 to 3 workers and every point at which a persist or a
//! commit can fail: every pending shard is generated, persisted and
//! committed exactly once; commits follow pending order though later
//! shards finish first; after a failure the result and the committed
//! shards are the lone calling thread's and nothing is done twice; a lane
//! never holds more than one generated shard; and the call returns — it
//! joins its workers — every time.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::time::Duration;

use measure::shard::{hand_off, HandOff};

const SHARDS: usize = 6;

/// Real-thread repetitions of each case.
const REPEATS: usize = 64;

/// Where a hand-off is made to fail.
#[derive(Debug, Clone, Copy)]
enum Fail {
    Never,
    /// Persisting each shard whose bit is set fails, on whichever lane.
    Persist(u32),
    /// The commit after this many good ones fails.
    Commit(usize),
}

thread_local! {
    /// Shards this thread has generated and not yet persisted.
    static HELD: Cell<usize> = const { Cell::new(0) };
}

struct Handed {
    result: Result<(), u32>,
    lanes: HandOff,
    /// How often each shard went through each step.
    generated: Vec<usize>,
    persisted: Vec<usize>,
    /// The shards committed, in commit order.
    committed: Vec<u32>,
    /// The most generated shards one lane held unpersisted at once.
    most_held: usize,
}

fn counters() -> Vec<AtomicUsize> {
    (0..SHARDS).map(|_| AtomicUsize::new(0)).collect()
}

fn counts(counters: Vec<AtomicUsize>) -> Vec<usize> {
    counters.into_iter().map(AtomicUsize::into_inner).collect()
}

/// One hand-off of `pending`; an error carries the shard it hit.
fn hand_over(pending: &[u32], workers: usize, fail: Fail) -> Handed {
    let (generated, persisted) = (counters(), counters());
    let most_held = AtomicUsize::new(0);
    let mut committed = Vec::new();
    let (result, lanes) = hand_off(
        pending,
        workers,
        |shard| {
            // Lower shards take longer, so that later ones land first and
            // wait in the reorder buffer.
            let micros = 20 * (SHARDS - shard as usize) as u64;
            std::thread::sleep(Duration::from_micros(micros));
            generated[shard as usize].fetch_add(1, SeqCst);
            let held = HELD.with(|h| h.replace(h.get() + 1) + 1);
            most_held.fetch_max(held, SeqCst);
            shard
        },
        |shard| {
            let held = HELD.with(|h| h.get().checked_sub(1));
            HELD.with(|h| h.set(held.expect("persisted on a lane that did not generate it")));
            persisted[shard as usize].fetch_add(1, SeqCst);
            match fail {
                Fail::Persist(failing) if failing & (1 << shard) != 0 => Err(shard),
                _ => Ok(shard),
            }
        },
        |shard| {
            if matches!(fail, Fail::Commit(after) if after == committed.len()) {
                return Err(shard);
            }
            committed.push(shard);
            Ok(())
        },
    );
    assert_eq!(
        lanes.lanes,
        1 + workers.min(pending.len().saturating_sub(1))
    );
    assert!(lanes.wait_s <= lanes.lanes as f64 * lanes.execute_wall_s);
    Handed {
        result,
        lanes,
        generated: counts(generated),
        persisted: counts(persisted),
        committed,
        most_held: most_held.into_inner(),
    }
}

/// Every shard, in index order.
fn all() -> Vec<u32> {
    (0..SHARDS as u32).collect()
}

/// What holds however a hand-off ends: no step ran twice or out of order,
/// and no lane held a second generated shard.
fn assert_sound(handed: &Handed, context: &str) {
    for shard in 0..SHARDS {
        assert!(handed.generated[shard] <= 1, "{context}: shard {shard}");
        assert!(
            handed.persisted[shard] <= handed.generated[shard],
            "{context}: shard {shard} persisted without being generated"
        );
    }
    for &shard in &handed.committed {
        assert_eq!(handed.persisted[shard as usize], 1, "{context}: {shard}");
    }
    assert_eq!(handed.most_held, 1, "{context}: a lane held two shards");
}

/// Holds every worker count's run of `fail` to the lone calling thread's,
/// and returns that.
fn as_alone(fail: Fail, repeats: usize) -> Handed {
    let alone = hand_over(&all(), 0, fail);
    for workers in 1..=3 {
        for _ in 0..repeats {
            let handed = hand_over(&all(), workers, fail);
            let context = format!("{workers} workers, {fail:?}");
            assert_sound(&handed, &context);
            assert_eq!(handed.result, alone.result, "{context}");
            assert_eq!(handed.committed, alone.committed, "{context}");
        }
    }
    alone
}

#[test]
fn every_pending_shard_is_generated_persisted_and_committed_exactly_once() {
    for workers in 0..=3 {
        for _ in 0..REPEATS {
            let handed = hand_over(&all(), workers, Fail::Never);
            let context = format!("{workers} workers");
            assert_eq!(handed.result, Ok(()), "{context}");
            assert_sound(&handed, &context);
            assert_eq!(handed.generated, [1; SHARDS], "{context}");
            assert_eq!(handed.persisted, [1; SHARDS], "{context}");
            assert_eq!(handed.committed, all(), "{context}");
        }
    }
}

#[test]
fn a_failed_commit_ends_the_run_with_nothing_further_committed() {
    for after in 0..SHARDS {
        let alone = as_alone(Fail::Commit(after), REPEATS);
        assert_eq!(alone.result, Err(after as u32));
        assert_eq!(alone.committed, all()[..after]);
    }
}

#[test]
fn a_failed_persist_on_either_lane_ends_the_run_with_that_error() {
    for failing in 0..SHARDS as u32 {
        let alone = as_alone(Fail::Persist(1 << failing), REPEATS);
        assert_eq!(alone.result, Err(failing));
        assert_eq!(alone.committed, all()[..failing as usize]);
    }
}

#[test]
fn several_failed_persists_end_the_run_with_the_lowest_error() {
    for failing in (1u32..1 << SHARDS).filter(|f| f.count_ones() > 1) {
        let alone = as_alone(Fail::Persist(failing), REPEATS / 8);
        let lowest = failing.trailing_zeros();
        assert_eq!(alone.result, Err(lowest));
        assert_eq!(alone.committed, all()[..lowest as usize]);
    }
}

#[test]
fn commits_follow_pending_order_at_every_worker_count() {
    let pending = [4u32, 1, 3, 0, 5, 2];
    for workers in 0..=3 {
        for _ in 0..REPEATS {
            let handed = hand_over(&pending, workers, Fail::Never);
            assert_eq!(handed.result, Ok(()));
            assert_eq!(handed.committed, pending, "{workers} workers");
            assert!(handed.lanes.execute_wall_s > 0.0);
        }
    }
    // Forced: the first pending shard is generated only once every other
    // one has been persisted, so that all five wait in the reorder buffer.
    for workers in 1..=3 {
        let landed = AtomicUsize::new(0);
        let mut committed = Vec::new();
        let (result, _) = hand_off(
            &pending,
            workers,
            |shard| {
                while shard == pending[0] && landed.load(SeqCst) < SHARDS - 1 {
                    std::thread::yield_now();
                }
                shard
            },
            |shard| {
                landed.fetch_add(1, SeqCst);
                Ok::<u32, ()>(shard)
            },
            |shard| {
                committed.push(shard);
                Ok(())
            },
        );
        assert_eq!(result, Ok(()));
        assert_eq!(committed, pending, "{workers} workers, forced");
    }
}

#[test]
fn nothing_pending_spawns_nothing_and_commits_nothing() {
    let (result, lanes) = hand_off(&[], 3, |shard| shard, Ok, |_| Err::<(), &str>("committed"));
    assert_eq!(result, Ok(()));
    assert_eq!(lanes.lanes, 1);
    // Nor does one pending shard: the calling thread runs it.
    let caller = std::thread::current().id();
    let on_caller = |_| assert_eq!(std::thread::current().id(), caller);
    let (result, lanes) = hand_off(&[7], 3, on_caller, Ok::<(), ()>, |()| Ok(()));
    assert_eq!(result, Ok(()));
    assert_eq!(lanes.lanes, 1);
}
