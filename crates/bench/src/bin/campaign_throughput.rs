//! Campaign hot-path throughput check: runs a full-population campaign and
//! reports a staged breakdown — probe generation (the `PairContext`
//! fast path, measured separately per worker-thread count), merge/assembly,
//! JSONL serialization, metrics aggregation, flight-recorder overhead, and
//! the end-to-end pipeline rate — as one JSON object on stdout.
//!
//! Used three ways:
//!
//! * `cargo run --release -p bench --bin campaign_throughput -- --threads 1,2`
//!   — the numbers recorded in `BENCH_campaign.json` at the repo root,
//!   with the probe-generation sweep kept to the reference container's
//!   two cores (the default sweep is 1/2/4/8);
//! * `-- --quick` — the CI smoke profile: a smaller campaign plus hard
//!   floors on the single-thread probe-generation and pipeline rates so
//!   hot-path regressions fail the workflow loudly;
//! * `-- --quick --threads 1,2,4` — the CI scaling profile: the same
//!   floors plus a parallel-efficiency floor at the highest requested
//!   thread count (enforced only when the machine actually has that many
//!   cores — a 1-core runner still checks byte-identity, not speedup).
//!
//! Every sweep entry's assembled output is asserted byte-identical to the
//! serial run before any timing is reported: a thread count that changed
//! a single record is a correctness bug, not a data point.

// Bench harness: real elapsed time is the measurement itself.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use measure::{metrics_of, Campaign, CampaignConfig, SessionConfig};

/// CI floor for the quick profile, in end-to-end pipeline probes/sec
/// (probe + merge + JSONL + metrics): half the 255.2k median of ten runs
/// on the reference container (2 vCPUs; `BENCH_campaign.json` lists the
/// ten). The pre-interning implementation measured ~2.1e4 there, the
/// streaming hot path ~6.1e4, the `PairContext` fast path ~1.15e5,
/// the allocation-free resolver side with the float record codec ~1.8e5
/// in the session the ten were taken in. Tripping this floor means a
/// stage fell back a generation: hoisted wire templates regressing to
/// per-probe rebuilds, the resolver side cloning names again, or
/// `write_json_line` formatting its times through `f64` again, shows up
/// here first.
const QUICK_FLOOR_PIPELINE_PROBES_PER_SEC: f64 = 127_000.0;

/// CI floor on single-thread probe generation alone (the `generate`
/// stage, before merge/serialization): half the 248.9k median of the same
/// ten runs. The fast path with the resolver side as it was at the seed
/// measured ~1.6e5, so losing either half's hoisting cannot pass CI.
const QUICK_FLOOR_PROBE_GEN_PROBES_PER_SEC: f64 = 124_000.0;

/// Minimum parallel efficiency — `pps(n) / (n · pps(1))` — at the highest
/// swept thread count, enforced only when the host really has that many
/// cores. Probe generation is embarrassingly parallel over pairs, so
/// anything below 0.7 means a new serial bottleneck (a shared lock, a
/// global allocator fight) crept into the per-pair path.
const QUICK_FLOOR_SCALING_EFFICIENCY: f64 = 0.7;

/// CI ceiling for the session layer's cost relative to cold-only probe
/// generation: the same campaign under the full-reuse session model must
/// not run more than 5% slower. Per probe the layer adds one schedule
/// draw, a couple of timestamp comparisons and the mode bookkeeping —
/// and warm probes *skip* handshake flights, so it reads −5 to −25 % on
/// the reference container. Per-probe re-derivation of the session state
/// reads 0 to +10 %, mostly under the ceiling; `campaign_alloc` fails it.
const QUICK_CEILING_SESSION_OVERHEAD: f64 = 0.05;

/// Rounds of the session stage's campaign, at least: 102,144 probes, a
/// generation of ≥ 0.15 s on the reference container (warm sessions are
/// the faster side) and ≥ 0.8 s at the probe-generation floor. The quick
/// profile's own ~10k-probe, ~30 ms generations read anywhere from −20 %
/// to +23 % on a shared host.
const SESSION_ROUNDS: u32 = 64;

/// Cold and warm generations the session stage times, as alternated
/// pairs, each side's minimum compared. At 5 pairs one run in 20 on a
/// shared 2-vCPU host read +14 %: every warm generation of it was slowed.
const SESSION_PAIRS: usize = 12;

/// CI ceiling for the flight recorder's share of the pipeline: what an
/// enabled recorder adds to a campaign — its records' (pair, day) cells
/// folded and merged into the (resolver, day) rows (`HealthSeries::of`,
/// which folds nothing else) plus the drift detector over the rows — must
/// cost under 5% of the in-memory pipeline (generate, assemble, JSONL,
/// metrics) of the same campaign. Both are timed over the session stage's
/// campaign in `RECORDER_PAIRS` alternated pairs and each side's minimum
/// is compared; the recorder measures ~2.5% on the reference container. A
/// sort of the rows per record fails the ceiling; a small allocation per
/// record (tens of nanoseconds against a ~5 µs pipeline probe) is below
/// what it can see.
const QUICK_CEILING_RECORDER_OVERHEAD: f64 = 0.05;

/// Pipelines and recorder folds the recorder stage times, as alternated
/// pairs.
const RECORDER_PAIRS: usize = 5;

/// Each side's minimum over `n` alternated pairs of timed runs, `a` first
/// in even pairs and `b` first in odd ones, so that a busy stretch of the
/// host lands on both sides.
fn min_of_pairs(n: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut min_a, mut min_b) = (f64::INFINITY, f64::INFINITY);
    for pair in 0..n {
        if pair % 2 == 1 {
            min_b = min_b.min(b());
        }
        min_a = min_a.min(a());
        if pair % 2 == 0 {
            min_b = min_b.min(b());
        }
    }
    (min_a, min_b)
}

fn campaign(rounds: u32) -> Campaign {
    Campaign::new(CampaignConfig::quick(42, rounds))
}

/// Parses `--threads a,b,c` from the argument list (default `1,2,4,8`).
fn thread_sweep(args: &[String]) -> Vec<usize> {
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|list| {
            list.split(',')
                .map(|n| n.trim().parse().expect("--threads takes e.g. 1,2,4"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let rounds = if quick { 6 } else { 40 };
    let sweep = thread_sweep(&args);
    assert!(
        sweep.contains(&1),
        "the sweep needs a 1-thread baseline row"
    );

    // Warm up lazy statics (catalog tables, label interner) outside the
    // timed region.
    campaign(1).run();

    let c = campaign(rounds);
    let probes = c.probe_count() as f64;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Probe-generation sweep: time `generate(t)` for each thread count,
    // then assemble and pin byte-identity against the serial result.
    let mut rows = Vec::new();
    let mut serial: Option<measure::CampaignResult> = None;
    let mut serial_gen_s = 0.0;
    for &threads in &sweep {
        let t = Instant::now();
        let generated = c.generate(threads);
        let gen_s = t.elapsed().as_secs_f64();
        assert_eq!(generated.record_count() as f64, probes);
        let result = c.assemble(generated);
        match &serial {
            None => {
                serial_gen_s = gen_s;
                serial = Some(result);
            }
            Some(base) => assert_eq!(
                base.records, result.records,
                "{threads}-thread generate diverged from serial"
            ),
        }
        rows.push((threads, gen_s, probes / gen_s));
    }
    let serial = serial.expect("sweep starts at 1 thread");

    // Merge/assembly stage, timed on a fresh single-thread generation so
    // the pipeline total below is an honest serial end-to-end figure.
    let generated = c.generate(1);
    let t = Instant::now();
    let assembled = c.assemble(generated);
    let assemble_s = t.elapsed().as_secs_f64();
    assert_eq!(assembled.records, serial.records, "assembly determinism");

    let t = Instant::now();
    let jsonl = serial.to_json_lines();
    let jsonl_s = t.elapsed().as_secs_f64();
    let jsonl_bytes = jsonl.len() as f64;

    let t = Instant::now();
    let snapshot = metrics_of(&serial.records);
    let metrics_s = t.elapsed().as_secs_f64();
    assert!(snapshot.total_probes() as f64 == probes);

    // Session-layer stage: the same campaign under the full-reuse session
    // model (ticket cache, pools, 0-RTT). Its records differ from the
    // cold-only run by design, so the comparison is generation *time*,
    // not bytes — the byte claims live in the session differential tests.
    // Each side is the min over `SESSION_PAIRS` generations of a campaign
    // of at least `SESSION_ROUNDS` rounds, timed in alternated pairs with
    // the same code: single runs on a shared CI container jitter by ±50%,
    // far more than the ceiling this stage enforces.
    let session_rounds = rounds.max(SESSION_ROUNDS);
    let cold_campaign = campaign(session_rounds);
    let session_campaign = Campaign::new(
        CampaignConfig::quick(42, session_rounds).with_session(SessionConfig::warm()),
    );
    let time_generate = |c: &Campaign| {
        let t = Instant::now();
        let generated = c.generate(1);
        let gen_s = t.elapsed().as_secs_f64();
        assert_eq!(generated.record_count(), c.probe_count());
        gen_s
    };
    let (cold_gen_s, session_gen_s) = min_of_pairs(
        SESSION_PAIRS,
        || time_generate(&cold_campaign),
        || time_generate(&session_campaign),
    );

    // Flight-recorder stage: the recorder's fold and drift over the cold
    // campaign's records against that campaign's whole pipeline, each the
    // min over `RECORDER_PAIRS` alternated runs.
    let pipeline = |c: &Campaign| {
        let t = Instant::now();
        let result = c.assemble(c.generate(1));
        let jsonl = result.to_json_lines();
        let snapshot = metrics_of(&result.records);
        let pipeline_s = t.elapsed().as_secs_f64();
        assert_eq!(snapshot.total_probes() as usize, jsonl.lines().count());
        (pipeline_s, result)
    };
    let (_, recorded) = pipeline(&cold_campaign);
    let mut findings = 0;
    let (recorded_pipeline_s, recorder_s) = min_of_pairs(
        RECORDER_PAIRS,
        || pipeline(&cold_campaign).0,
        || {
            let t = Instant::now();
            let health = measure::HealthSeries::of(&cold_campaign, &recorded.records);
            findings = health.detect_drift(&measure::DriftConfig::default()).len();
            let recorder_s = t.elapsed().as_secs_f64();
            assert_eq!(health.probes() as usize, recorded.records.len());
            recorder_s
        },
    );

    let probe_gen_pps = probes / serial_gen_s;
    let pipeline_s = serial_gen_s + assemble_s + jsonl_s + metrics_s;
    let pipeline_pps = probes / pipeline_s;
    let recorder_overhead = recorder_s / recorded_pipeline_s;
    let session_overhead = session_gen_s / cold_gen_s - 1.0;

    let sweep_json: Vec<String> = rows
        .iter()
        .map(|(threads, gen_s, pps)| {
            let efficiency = pps / (*threads as f64 * probe_gen_pps);
            format!(
                concat!(
                    "{{\"threads\":{},\"probe_gen_s\":{:.3},",
                    "\"probe_gen_probes_per_sec\":{:.0},\"scaling_efficiency\":{:.2}}}"
                ),
                threads, gen_s, pps, efficiency
            )
        })
        .collect();

    println!(
        concat!(
            "{{\"profile\":\"{}\",\"probes\":{},\"cores\":{},",
            "\"probe_gen_s\":{:.3},\"probe_gen_probes_per_sec\":{:.0},",
            "\"assemble_s\":{:.3},",
            "\"jsonl_bytes\":{},\"jsonl_s\":{:.3},\"jsonl_mb_per_sec\":{:.1},",
            "\"metrics_s\":{:.3},\"metrics_probes_per_sec\":{:.0},",
            "\"recorder_s\":{:.4},\"recorder_overhead\":{:.4},\"drift_findings\":{},",
            "\"session_gen_s\":{:.3},\"session_overhead\":{:.4},",
            "\"pipeline_s\":{:.3},\"pipeline_probes_per_sec\":{:.0},",
            "\"thread_sweep\":[{}]}}"
        ),
        if quick { "quick" } else { "full" },
        probes as u64,
        cores,
        serial_gen_s,
        probe_gen_pps,
        assemble_s,
        jsonl_bytes as u64,
        jsonl_s,
        jsonl_bytes / jsonl_s / 1e6,
        metrics_s,
        probes / metrics_s,
        recorder_s,
        recorder_overhead,
        findings,
        session_gen_s,
        session_overhead,
        pipeline_s,
        pipeline_pps,
        sweep_json.join(","),
    );

    if !quick {
        return;
    }
    let mut failed = false;
    if pipeline_pps < QUICK_FLOOR_PIPELINE_PROBES_PER_SEC {
        eprintln!(
            "FAIL: pipeline throughput {pipeline_pps:.0} probes/sec below floor {QUICK_FLOOR_PIPELINE_PROBES_PER_SEC:.0}"
        );
        failed = true;
    }
    if probe_gen_pps < QUICK_FLOOR_PROBE_GEN_PROBES_PER_SEC {
        eprintln!(
            "FAIL: single-thread probe generation {probe_gen_pps:.0} probes/sec below floor {QUICK_FLOOR_PROBE_GEN_PROBES_PER_SEC:.0}"
        );
        failed = true;
    }
    if session_overhead > QUICK_CEILING_SESSION_OVERHEAD {
        eprintln!(
            "FAIL: session-layer probe generation {:.2}% slower than cold-only exceeds ceiling {:.0}%",
            session_overhead * 100.0,
            QUICK_CEILING_SESSION_OVERHEAD * 100.0
        );
        failed = true;
    }
    if recorder_overhead > QUICK_CEILING_RECORDER_OVERHEAD {
        eprintln!(
            "FAIL: flight recorder overhead {:.2}% of pipeline exceeds ceiling {:.0}%",
            recorder_overhead * 100.0,
            QUICK_CEILING_RECORDER_OVERHEAD * 100.0
        );
        failed = true;
    }
    // Scaling floor: only meaningful where the OS actually grants the
    // parallelism — a 1-core container still validated byte-identity above.
    let &(top_threads, _, top_pps) = rows.iter().max_by_key(|(t, _, _)| *t).unwrap();
    if top_threads > 1 && cores >= top_threads {
        let efficiency = top_pps / (top_threads as f64 * probe_gen_pps);
        if efficiency < QUICK_FLOOR_SCALING_EFFICIENCY {
            eprintln!(
                "FAIL: {top_threads}-thread probe generation efficiency {efficiency:.2} below floor {QUICK_FLOOR_SCALING_EFFICIENCY}"
            );
            failed = true;
        }
    } else if top_threads > 1 {
        eprintln!(
            "note: scaling floor skipped — host has {cores} core(s), sweep tops out at {top_threads} threads"
        );
    }
    if failed {
        std::process::exit(1);
    }
}
