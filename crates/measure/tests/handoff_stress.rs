//! The sharded runner's hand-off ([`measure::shard::hand_off`]): generator
//! threads claim pending shards; a finished one is handed over a
//! rendezvous channel to the calling thread to be persisted there, or —
//! when another generator is already in line — is persisted by its own;
//! the calling thread commits them all. Driven here with fakes, over 1 to
//! 4 generators and every point at which a persist or a commit can fail:
//! every pending shard is generated, persisted and committed exactly once;
//! after a failure nothing more is committed and nothing is done twice;
//! no finished shard is ever queued; and the call returns — it joins its
//! threads, the one in line included — every time.

use std::sync::atomic::{AtomicUsize, Ordering};

use measure::shard::hand_off;

const SHARDS: usize = 6;

/// Real-thread repetitions of each case (`loom::STRESS_ITERATIONS`, the
/// same count the models beside this file run for).
const REPEATS: usize = loom::STRESS_ITERATIONS;

/// Where a hand-off is made to fail.
#[derive(Debug, Clone, Copy)]
enum Fail {
    Never,
    /// Persisting this shard fails, on whichever thread does it.
    Persist(u32),
    /// The commit after this many good ones fails.
    Commit(usize),
}

struct Handed {
    result: Result<(), u32>,
    /// How often each shard went through each step.
    generated: Vec<usize>,
    persisted: Vec<usize>,
    committed: Vec<usize>,
    /// The most finished shards that were waiting to be persisted at once.
    most_unpersisted: usize,
}

fn counters() -> Vec<AtomicUsize> {
    (0..SHARDS).map(|_| AtomicUsize::new(0)).collect()
}

fn counts(counters: Vec<AtomicUsize>) -> Vec<usize> {
    counters.into_iter().map(AtomicUsize::into_inner).collect()
}

/// One hand-off over `SHARDS` shards; an error carries the shard it hit.
fn hand_over(generators: usize, fail: Fail) -> Handed {
    let pending: Vec<u32> = (0..SHARDS as u32).collect();
    let (generated, persisted) = (counters(), counters());
    let (unpersisted, most_unpersisted) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut committed = vec![0usize; SHARDS];
    let mut commits = 0;
    let (result, lanes) = hand_off(
        &pending,
        generators,
        |shard| {
            generated[shard as usize].fetch_add(1, Ordering::SeqCst);
            let now = unpersisted.fetch_add(1, Ordering::SeqCst) + 1;
            most_unpersisted.fetch_max(now, Ordering::SeqCst);
            shard
        },
        |shard| {
            unpersisted.fetch_sub(1, Ordering::SeqCst);
            persisted[shard as usize].fetch_add(1, Ordering::SeqCst);
            match fail {
                Fail::Persist(failing) if failing == shard => Err(shard),
                _ => Ok(shard),
            }
        },
        |shard| {
            // Let the generators get ahead of this thread.
            std::thread::yield_now();
            if matches!(fail, Fail::Commit(after) if after == commits) {
                return Err(shard);
            }
            commits += 1;
            committed[shard as usize] += 1;
            Ok(())
        },
    );
    assert_eq!(lanes.generators, generators.min(SHARDS));
    Handed {
        result,
        generated: counts(generated),
        persisted: counts(persisted),
        committed,
        most_unpersisted: most_unpersisted.into_inner(),
    }
}

/// What holds however a hand-off ends: no step ran twice or out of order,
/// and finished shards did not pile up.
fn assert_sound(handed: &Handed, generators: usize, context: &str) {
    for shard in 0..SHARDS {
        assert!(handed.generated[shard] <= 1, "{context}: shard {shard}");
        assert!(
            handed.persisted[shard] <= handed.generated[shard],
            "{context}: shard {shard} persisted without being generated"
        );
        assert!(
            handed.committed[shard] <= handed.persisted[shard],
            "{context}: shard {shard} committed without being persisted"
        );
    }
    // One in each generator's hands and one the calling thread has just
    // taken: nothing queued.
    assert!(
        handed.most_unpersisted <= generators + 1,
        "{context}: {} finished shards waited at once",
        handed.most_unpersisted
    );
}

#[test]
fn every_pending_shard_is_generated_persisted_and_committed_exactly_once() {
    for generators in 1..=4 {
        for _ in 0..REPEATS {
            let handed = hand_over(generators, Fail::Never);
            let context = format!("{generators} generators");
            assert_eq!(handed.result, Ok(()));
            assert_sound(&handed, generators, &context);
            assert_eq!(handed.committed, [1; SHARDS], "{context}");
        }
    }
}

#[test]
fn a_failed_commit_ends_the_run_with_nothing_further_committed() {
    for generators in 1..=4 {
        for after in 0..SHARDS {
            for _ in 0..REPEATS {
                let handed = hand_over(generators, Fail::Commit(after));
                let context = format!("{generators} generators, commit {after} fails");
                let failed = handed.result.expect_err(&context) as usize;
                assert_sound(&handed, generators, &context);
                assert_eq!(handed.committed.iter().sum::<usize>(), after, "{context}");
                assert_eq!(handed.committed[failed], 0, "{context}");
            }
        }
    }
}

#[test]
fn a_failed_persist_on_either_lane_ends_the_run_with_that_error() {
    for generators in 1..=4 {
        for failing in 0..SHARDS as u32 {
            for _ in 0..REPEATS {
                let handed = hand_over(generators, Fail::Persist(failing));
                let context = format!("{generators} generators, persisting {failing} fails");
                assert_eq!(handed.result, Err(failing), "{context}");
                assert_sound(&handed, generators, &context);
                assert_eq!(handed.committed[failing as usize], 0, "{context}");
            }
        }
    }
}

#[test]
fn one_generator_commits_shards_in_pending_order() {
    let pending = [4u32, 1, 3, 0];
    let mut order = Vec::new();
    let (result, lanes) = hand_off(
        &pending,
        1,
        |shard| shard,
        Ok::<u32, ()>,
        |shard| {
            order.push(shard);
            Ok(())
        },
    );
    assert_eq!(result, Ok(()));
    assert_eq!(order, pending);
    assert!(lanes.execute_wall_s >= lanes.committer_wait_s);
}

#[test]
fn nothing_pending_spawns_nothing_and_commits_nothing() {
    let (result, lanes) = hand_off(&[], 4, |shard| shard, Ok, |_| Err::<(), &str>("committed"));
    assert_eq!(result, Ok(()));
    assert_eq!(lanes.generators, 0);
}
