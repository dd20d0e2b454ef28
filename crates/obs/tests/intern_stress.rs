//! Stress test of the label interner: concurrent interning of the same
//! string from several threads is idempotent — every thread gets the same
//! handle, which resolves back to the string — in each of 64 real-thread
//! repetitions, whose interleavings scheduler jitter varies.

use std::sync::Arc;
use std::thread;

use obs::Label;

const ITERATIONS: usize = 64;

#[test]
fn concurrent_interning_is_idempotent() {
    for _ in 0..ITERATIONS {
        // Distinct per-iteration strings would leak a new table entry per
        // stress run; a fixed vocabulary matches real usage (labels are a
        // small closed set) and exercises the insert-then-hit path.
        let words: Arc<[&str; 3]> = Arc::new(["stress.alpha", "stress.beta", "stress.gamma"]);
        let handles: Vec<thread::JoinHandle<[Label; 3]>> = (0..3)
            .map(|shift| {
                let words = Arc::clone(&words);
                thread::spawn(move || {
                    // Each thread interns the vocabulary in a different
                    // order, racing insert against lookup.
                    let mut out = [Label::intern("stress.alpha"); 3];
                    for k in 0..3 {
                        let idx = (k + shift) % 3;
                        out[idx] = Label::intern(words[idx]);
                    }
                    out
                })
            })
            .collect();
        let results: Vec<[Label; 3]> = handles
            .into_iter()
            .map(|h| h.join().expect("interner thread panicked"))
            .collect();
        for got in &results[1..] {
            assert_eq!(*got, results[0], "same string must yield same label");
        }
        for (i, word) in words.iter().enumerate() {
            assert_eq!(results[0][i].as_str(), *word, "label resolves back");
        }
    }
}

#[test]
fn find_never_invents_labels() {
    for _ in 0..ITERATIONS {
        let seen = thread::spawn(|| Label::find("stress.never-interned").is_some())
            .join()
            .expect("find thread panicked");
        assert!(!seen, "find must not insert");
        let l = Label::intern("stress.delta");
        assert_eq!(Label::find("stress.delta"), Some(l));
    }
}
