//! The campaign engine's benchmark: five workloads, three end-to-end
//! metrics, and an outside-in per-layer ledger. See `README.md` beside
//! this package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds N] [--trace 0|1] [--dir PATH]
//!     --selfcheck | --record <commit>
//! ```
//!
//! Each workload run prints two JSON lines: a report (every number with
//! its unit, the repetitions' min/max/count, the output's identity) and,
//! last, the result line the benchmark contract asks for.

// Bench harness: real elapsed time is the measurement itself.
#![allow(clippy::disallowed_methods)]

mod ledger;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use measure::json::{self, Json as Parsed};
use metrics::{Better, Json, Values, END_TO_END, PER_LAYER, SETUP_SLACK_S};
use stats::Summary;
use trace::Tracer;
use workload::{Identity, Kind, Repetition, Scratch, ScratchDir, Workload, WORKLOADS};

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 42;
/// A median needs at least this many repetitions, however short the window.
const MIN_REPETITIONS: usize = 3;
/// Set-up is sampled until it has cost this long (at least
/// [`MIN_REPETITIONS`] samples, at most [`MAX_SETUP_SAMPLES`]): a 0.1 s
/// set-up gets nine samples, `resume_assemble`'s two-second one three.
const SETUP_SAMPLING_S: f64 = 1.0;
const MAX_SETUP_SAMPLES: usize = 9;

/// This package's directory in the checkout the binary was built in; the
/// benchmark reads and writes nowhere else unless `--dir` says so.
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: PathBuf,
    mode: Mode,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run,
    /// Internal: do one workload's set-up into this directory and exit.
    PrepareOnly(PathBuf),
    SelfCheck,
    /// Write `baseline.json`, labelled with this commit.
    Record(String),
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        dir: Path::new(PACKAGE_DIR).join("out").join("scratch"),
        mode: Mode::Run,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?.max(1),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--dir" => o.dir = PathBuf::from(value()?),
            "--selfcheck" => o.mode = Mode::SelfCheck,
            "--record" => o.mode = Mode::Record(value()?.clone()),
            "--prepare-only" => o.mode = Mode::PrepareOnly(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|o| match o.mode.clone() {
        Mode::SelfCheck => selfcheck(&o),
        Mode::Record(commit) => record(&o, &commit),
        Mode::PrepareOnly(dir) => prepare_only(&o, &dir).map(|()| true),
        Mode::Run => match o.workload.as_deref() {
            Some("all") => run_all(&o),
            Some(name) => named(name).and_then(|w| run_workload(w, &o)),
            None => Err("--workload <name|all> is required".to_string()),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("campaign-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn named(name: &str) -> Result<&'static Workload, String> {
    workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; one of {} or all",
            known.join(", ")
        )
    })
}

/// This binary again, on the same workload, seed and scratch directory.
fn child(w: &Workload, o: &Options) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", w.name, "--seed", &o.seed.to_string()])
        .arg("--dir")
        .arg(&o.dir);
    Ok(command)
}

// ---------------------------------------------------------------- set-up

fn prepare_only(o: &Options, dir: &Path) -> Result<(), String> {
    let w = named(
        o.workload
            .as_deref()
            .ok_or("--prepare-only needs --workload")?,
    )?;
    let campaign = workload::prepare(w, o.seed, &o.dir)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if w.kind == Kind::ShardedResume {
        workload::complete_shards(&campaign, dir)?;
    }
    Ok(())
}

/// `setup_s` samples: each is a child process of this binary doing the
/// workload's whole set-up from process start — lazy statics included,
/// which a second in-process set-up would find already paid — timed from
/// spawn to exit. The last directory is kept when the workload reads it.
fn sample_setup(
    w: &Workload,
    o: &Options,
    run_dir: &Path,
) -> Result<(Vec<f64>, Option<ScratchDir>), String> {
    let mut samples = Vec::new();
    loop {
        let dir = run_dir.join(format!("setup{}", samples.len()));
        let started = Instant::now();
        let status = child(w, o)?
            .arg("--prepare-only")
            .arg(&dir)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawn set-up of {}: {e}", w.name))?;
        samples.push(started.elapsed().as_secs_f64());
        let dir = ScratchDir::adopt(dir);
        if !status.success() {
            return Err(format!("set-up of {} failed ({status})", w.name));
        }
        let enough = samples.len() >= MAX_SETUP_SAMPLES
            || (samples.len() >= MIN_REPETITIONS
                && samples.iter().sum::<f64>() >= SETUP_SAMPLING_S);
        // A traced run reports no set-up time; one set-up is all it needs.
        if enough || o.trace {
            let keep = (w.kind == Kind::ShardedResume).then_some(dir);
            return Ok((samples, keep));
        }
    }
}

// ----------------------------------------------------------- repetitions

/// The repetitions of one run: counts what was attempted and what failed,
/// and holds every repetition to the first one's output.
struct Session<'a> {
    w: &'a Workload,
    campaign: &'a measure::Campaign,
    scratch: Scratch<'a>,
    reference: Option<Identity>,
    attempted: u64,
    failed: u64,
}

impl Session<'_> {
    fn repetition(&mut self, tracer: &mut Tracer) -> Option<Repetition> {
        let rep = self.attempted as usize;
        self.attempted += 1;
        let done = workload::repetition(self.w, self.campaign, &self.scratch, rep, tracer)
            .and_then(
                |done| match self.reference.get_or_insert_with(|| done.identity.clone()) {
                    first if *first == done.identity => Ok(done),
                    first => Err(format!(
                        "output {:?} differs from the first repetition's {first:?}",
                        done.identity
                    )),
                },
            );
        match done {
            Ok(done) => {
                eprintln!("{} repetition {rep}: {:.3} s", self.w.name, done.seconds);
                Some(done)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("{} repetition {rep} FAILED: {e}", self.w.name);
                None
            }
        }
    }

    /// Untraced repetitions for `seconds` of wall time (checks included),
    /// at least [`MIN_REPETITIONS`]; returns each one's timed seconds and
    /// the probes one repetition completes.
    fn measure(&mut self, seconds: f64) -> Result<(Vec<f64>, u64), String> {
        let mut quiet = Tracer::new(false);
        if self.w.kind == Kind::InMemory {
            // The first in-process campaign grows the allocator's arenas
            // and runs ~25 % slower than the rest; checked, not timed.
            self.repetition(&mut quiet);
        }
        let started = Instant::now();
        let (mut times, mut probes) = (Vec::new(), 0);
        while times.len() < MIN_REPETITIONS || started.elapsed().as_secs_f64() < seconds {
            if let Some(done) = self.repetition(&mut quiet) {
                times.push(done.seconds);
                probes = done.probes;
            } else if self.failed as usize >= MIN_REPETITIONS {
                return Err(format!("{} repetitions failed; giving up", self.failed));
            }
        }
        Ok((times, probes))
    }
}

fn run_workload(w: &Workload, o: &Options) -> Result<bool, String> {
    let run_dir = ScratchDir::create(o.dir.join(format!("{}-{}", std::process::id(), w.name)))?;
    sys::require_free_space(run_dir.path())?;
    let (setup, complete) = sample_setup(w, o, run_dir.path())?;
    let campaign = workload::prepare(w, o.seed, &o.dir)?;
    let mut session = Session {
        w,
        campaign: &campaign,
        scratch: Scratch {
            run: run_dir.path(),
            complete: complete.as_ref().map(ScratchDir::path),
        },
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let window = o.seconds as f64;
    let (times, probes) = session.measure(if o.trace { window / 3.0 } else { window })?;
    let rates: Vec<f64> = times.iter().map(|s| probes as f64 / s).collect();
    let (time, rate) = (
        Summary::of(&times).expect("measured"),
        Summary::of(&rates).expect("measured"),
    );

    let mut report = vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Int(o.seed)),
        ("trace", Json::Int(o.trace.into())),
        ("seconds", Json::Int(o.seconds)),
        ("nproc", Json::Int(nproc())),
        ("worker_threads", Json::Int(1)),
        ("fs.kind", Json::Str(sys::fs_kind(&o.dir))),
        ("probes_per_repetition", Json::Int(probes)),
        ("repetition_s", summary_json(&time)),
        ("probes_per_s", summary_json(&rate)),
    ];

    let (defs, values) = if o.trace {
        // One repetition against a median says more about the machine
        // than about tracing, so the overhead is median against median;
        // the last traced repetition is the one the ledger takes apart.
        let mut traced_times = Vec::new();
        let mut last = None;
        while traced_times.len() < MIN_REPETITIONS {
            let mut tracer = Tracer::new(true);
            tracer.track(&format!("repetition {} (traced)", session.attempted));
            let traced = session
                .repetition(&mut tracer)
                .ok_or("a traced repetition failed its checks")?;
            traced_times.push(traced.seconds);
            last = Some((tracer, traced));
        }
        let (mut tracer, traced) = last.expect("MIN_REPETITIONS is not zero");
        tracer.track("ledger");
        let facts =
            ledger::probe_layers(w, &campaign, o.seed, &session.scratch, &traced, &mut tracer)?;
        if tracer.dropped() > 0 {
            return Err(format!(
                "{} trace events were overwritten",
                tracer.dropped()
            ));
        }
        let traced_time = Summary::of(&traced_times).expect("measured");
        report.push(("traced_repetition_s", summary_json(&traced_time)));
        let values = ledger::layer_values(w.kind, &tracer, &traced, facts, &time, &traced_time)?;
        let file = write_trace(w, o, &tracer)?;
        report.push(("trace_file", Json::Str(file)));
        print_layer_table(w, &values);
        (PER_LAYER, values)
    } else {
        let setup = Summary::of(&setup).expect("sampled");
        report.push(("setup_s", summary_json(&setup)));
        let mut values = Values::default();
        values.set("probes_per_s", rate.median);
        values.set("peak_rss_mb", sys::peak_rss_mb()?);
        values.set("setup_s", setup.median);
        (END_TO_END, values)
    };

    let identity = session
        .reference
        .as_ref()
        .ok_or("no repetition passed its checks")?;
    let (attempted, failed) = (session.attempted, session.failed);
    report.extend([
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("failed_share", Json::Num(failed as f64 / attempted as f64)),
        ("output", identity_json(identity)),
        ("metrics", values.to_json(defs)),
    ]);
    println!("{}", Json::Object(report).render());
    println!(
        "{}",
        Json::Object(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            ("metrics", values.to_json(defs)),
        ])
        .render()
    );
    Ok(failed == 0)
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

fn summary_json(s: &Summary) -> Json {
    Json::Object(vec![
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("count", Json::Int(s.count as u64)),
    ])
}

/// Directionless: these say what was computed, not how fast.
fn identity_json(id: &Identity) -> Json {
    Json::Object(vec![
        (
            "output_fnv64",
            Json::Str(format!("{:016x}", id.output_fnv64)),
        ),
        ("output_bytes", Json::Int(id.output_bytes)),
        ("sim.availability_pct", Json::Num(id.availability_pct)),
        ("sim.response_p50_ms", Json::Num(id.response_p50_ms)),
        ("sim.response_p95_ms", Json::Num(id.response_p95_ms)),
    ])
}

/// Writes the Chrome trace under this package's `out/`; returns its path
/// relative to the package.
fn write_trace(w: &Workload, o: &Options, tracer: &Tracer) -> Result<String, String> {
    let file = format!("out/trace-{}-seed{}.json", w.name, o.seed);
    let path = Path::new(PACKAGE_DIR).join(&file);
    std::fs::create_dir_all(Path::new(PACKAGE_DIR).join("out"))
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(file)
}

fn print_layer_table(w: &Workload, values: &Values) {
    eprintln!(
        "{} per-layer ledger (0 = the workload never calls the layer)",
        w.name
    );
    let mut moves = "";
    for def in PER_LAYER {
        if def.moves != moves {
            moves = def.moves;
            eprintln!("  -> {moves}");
        }
        eprintln!(
            "     {:<32} {:>16.6} {}",
            def.name,
            values.get(def.name),
            def.unit
        );
    }
    if w.kind != Kind::InMemory {
        let part = |name| values.get(name);
        eprintln!(
            "  shard.execute_s + shard.validate_s + shard.assemble_s = {:.6} s; shard.run_s = {:.6} s",
            part("shard.execute_s") + part("shard.validate_s") + part("shard.assemble_s"),
            part("shard.run_s"),
        );
        eprintln!(
            "  shard.checkpoint_bytes = {} B; checkpoint.commit_bytes = {} B",
            part("shard.checkpoint_bytes"),
            part("checkpoint.commit_bytes"),
        );
    }
}

// ------------------------------------------- all, --selfcheck, --record

/// One workload in a process of its own (so `VmHWM` is that workload's);
/// returns its report line and its result line.
fn run_child(w: &Workload, o: &Options, trace: bool) -> Result<(String, String), String> {
    let output = child(w, o)?
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    match (output.status.success(), lines.next(), lines.next()) {
        (true, Some(result), Some(report)) => Ok((report.to_string(), result.to_string())),
        _ => Err(format!(
            "{} (trace {}) failed ({})",
            w.name,
            u8::from(trace),
            output.status
        )),
    }
}

fn run_all(o: &Options) -> Result<bool, String> {
    for w in WORKLOADS {
        let (report, result) = run_child(w, o, o.trace)?;
        println!("{report}\n{result}");
    }
    Ok(true)
}

/// Whether `second` is no worse than `first` by more than the metric's
/// bound (`setup_s` also gets [`SETUP_SLACK_S`] of absolute slack).
fn within_bound(def: &metrics::MetricDef, first: f64, second: f64) -> bool {
    let bound = def.bound.unwrap_or(0.0);
    let worse_by = match def.better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    worse_by <= first * bound || (def.name == "setup_s" && worse_by <= SETUP_SLACK_S)
}

/// Runs of each workload per set in `--selfcheck`. One run against one
/// run mostly measures the machine: on the reference container a whole
/// run reads a third slower every so often.
const SELFCHECK_RUNS: usize = 3;

/// The agreement criterion as a command: two sets of untraced runs of
/// every workload, interleaved so both see the same weather; the second
/// set's median of each end-to-end metric within its bound of the
/// first's, nothing failed, and every output identical.
fn selfcheck(o: &Options) -> Result<bool, String> {
    let parse = |line: &str| json::parse(line).map_err(|e| format!("unreadable result line: {e}"));
    let mut agree = true;
    for w in WORKLOADS {
        // values[set][metric] = one value per run.
        let mut values = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        let mut output: Option<Parsed> = None;
        for run in 0..SELFCHECK_RUNS {
            for (set, values) in values.iter_mut().enumerate() {
                eprintln!("selfcheck: {} set {set} run {run}", w.name);
                let (report, result) = run_child(w, o, false)?;
                let (report, result) = (parse(&report)?, parse(&result)?);
                let this = report.get("output").cloned();
                if output.is_some() && output != this {
                    println!("{}: outputs differ between runs", w.name);
                    agree = false;
                }
                output = this;
                if result.get("failed").and_then(Parsed::as_i64) != Some(0) {
                    println!("{}: a repetition failed its checks", w.name);
                    agree = false;
                }
                for (def, seen) in END_TO_END.iter().zip(values.iter_mut()) {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(def.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Parsed::as_f64)
                        .ok_or_else(|| format!("{} has no {}", w.name, def.name))?;
                    seen.push(value);
                }
            }
        }
        for (i, def) in END_TO_END.iter().enumerate() {
            let median = |set: usize| Summary::of(&values[set][i]).expect("ran").median;
            let (first, second) = (median(0), median(1));
            let ok = within_bound(def, first, second);
            agree &= ok;
            println!(
                "{:<22} {:<13} {first:>14.4} -> {second:>14.4} {:<4} bound {:>4.0}%  {}",
                w.name,
                def.name,
                def.unit,
                def.bound.unwrap_or(0.0) * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    Ok(agree)
}

/// Writes `baseline.json`: every workload's untraced and traced report.
fn record(o: &Options, commit: &str) -> Result<bool, String> {
    let mut sections = Vec::new();
    for trace in [false, true] {
        let mut reports = Vec::new();
        for w in WORKLOADS {
            eprintln!("record: {} (trace {})", w.name, u8::from(trace));
            reports.push(run_child(w, o, trace)?.0);
        }
        sections.push(reports.join(",\n"));
    }
    let head = Json::Object(vec![
        ("commit", Json::Str(commit.into())),
        ("seed", Json::Int(o.seed)),
        ("seconds", Json::Int(o.seconds)),
        ("nproc", Json::Int(nproc())),
        ("fs.kind", Json::Str(sys::fs_kind(&o.dir))),
    ])
    .render();
    let doc = format!(
        "{{\n\"run\": {head},\n\"untraced\": [\n{}\n],\n\"traced\": [\n{}\n]\n}}\n",
        sections[0], sections[1]
    );
    json::parse(&doc).map_err(|e| format!("baseline is not JSON: {e}"))?;
    let path = Path::new(PACKAGE_DIR).join("baseline.json");
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Options, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_flags_parse() {
        let o = args(&[
            "--workload",
            "faulted_warm",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("faulted_warm"), 7, 3, true)
        );
        let d = args(&["--workload", "all"]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.mode),
            (DEFAULT_SEED, DEFAULT_SECONDS, false, Mode::Run)
        );
        assert!(d.dir.starts_with(PACKAGE_DIR));
    }

    #[test]
    fn bad_arguments_are_named() {
        assert!(args(&["--trace", "2"])
            .unwrap_err()
            .contains("expected 0 or 1"));
        assert!(args(&["--seed"]).unwrap_err().contains("takes a value"));
        assert!(args(&["--seed", "x"])
            .unwrap_err()
            .contains("not a whole number"));
        assert!(args(&["--threads", "4"])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(named("nope").unwrap_err().contains("longitudinal_sharded"));
    }

    #[test]
    fn bounds_are_one_sided_and_setup_has_absolute_slack() {
        let by_name = |n: &str| END_TO_END.iter().find(|d| d.name == n).unwrap();
        let rate = by_name("probes_per_s");
        let edge = 100.0 * (1.0 - rate.bound.unwrap());
        assert!(within_bound(rate, 100.0, edge + 0.01) && within_bound(rate, 100.0, 150.0));
        assert!(!within_bound(rate, 100.0, edge - 0.01));
        let rss = by_name("peak_rss_mb");
        let edge = 100.0 * (1.0 + rss.bound.unwrap());
        assert!(within_bound(rss, 100.0, edge - 0.01) && within_bound(rss, 100.0, 50.0));
        assert!(!within_bound(rss, 100.0, edge + 0.01));
        let setup = by_name("setup_s");
        assert!(
            within_bound(setup, 0.05, 0.09),
            "0.04 s worse is inside the absolute slack"
        );
        assert!(within_bound(setup, 2.0, 2.4) && !within_bound(setup, 2.0, 2.6));
    }
}
