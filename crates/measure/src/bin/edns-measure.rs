//! `edns-measure` — the command-line face of the measurement tool.
//!
//! ```text
//! edns-measure list
//! edns-measure probe dns.google --vantage ec2-ohio --count 10 --protocol doh
//! edns-measure campaign --scale standard --seed 7 --out results.jsonl
//! edns-measure report results.jsonl
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

use dns_wire::Name;
use edns_stats::P2Quantile;
use measure::{
    Campaign, CampaignConfig, Label, ProbeConfig, ProbeOutcome, ProbeRecord, ProbeReport,
    ProbeRequest, ProbeTarget, Prober, Protocol, RetryPolicy, Scale,
};
use netsim::faults::FaultPlan;
use netsim::{SimDuration, SimTime};

/// Prints to stdout, ignoring broken pipes (`edns-measure ... | head` must
/// exit cleanly, not panic).
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try --help")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
edns-measure — encrypted DNS measurement tool (simulated substrate)

USAGE:
  edns-measure list
      Print the measured resolver population.

  edns-measure probe <resolver> [--vantage LABEL] [--protocol doh|dot|do53|doq|odoh]
                     [--count N] [--domain NAME] [--seed S] [--trace]
                     [--trace-out FILE] [--retries N] [--timeout SECS]
                     [--backoff-ms MS] [--jitter F] [--faults none|default]
      Issue dig-style probes against one resolver and print per-probe
      timings plus a summary. Default: 5 DoH probes of google.com from
      ec2-ohio with seed 0. --trace prints each probe's span timeline
      (dns_encode, connect, tls_handshake, http_exchange, ...);
      --trace-out exports the same timelines as Chrome trace-event JSON
      (load in chrome://tracing or ui.perfetto.dev), one track per probe.

  edns-measure campaign [--scale quick|standard|paper] [--seed S] [--out FILE]
                        [--metrics] [--retries N] [--timeout SECS]
                        [--backoff-ms MS] [--jitter F] [--faults none|default]
                        [--load MULT] [--session cold|warm|FRACTION]
                        [--days N] [--shards K]
                        [--checkpoint-dir DIR] [--observe DIR]
      Run a full campaign over the whole population and write JSON-Lines
      results (default scale standard, output results.jsonl). --metrics
      prints the per-resolver × vantage metrics snapshot (counters, error
      tallies, phase histograms). For JSON/CSV metrics exports see
      examples/global_campaign.rs, which uses the report crate.

      LONGITUDINAL MODE: --days N (instead of --scale; both is an error)
      switches to the simulated multi-month schedule (home 6 rounds/day +
      EC2 3 rounds/day over N days; 133 days tops a million probes) and
      runs through the sharded, resumable engine: the pair space splits
      into K shards (--shards, default 8), each checkpointed under
      --checkpoint-dir (default 'checkpoints') as it completes. A killed
      campaign re-run with the same flags resumes from the last completed
      shard and produces byte-identical output. Shards run on every core
      and commit in shard order. --shards/--checkpoint-dir without --days
      shard the selected --scale instead.

      FLIGHT RECORDER: --observe DIR selects the sharded engine, prints a
      line per completed shard on stderr and writes DIR/events.jsonl (every
      event in simulated time), DIR/health.jsonl (per resolver and day) and
      DIR/trace.json (Chrome trace-event JSON, one bar per shard).
      Drift findings, if any, are always printed after the run summary.
      Same seed + config => byte-identical files under DIR, whether the
      campaign ran in one shot or was killed+resumed.

  edns-measure report <results.jsonl>
      Regenerate the availability analysis and headline findings from a
      results file this tool wrote; a line it would not have written (one
      whose response time is not the sum of its phases, say) is an error.

RETRY & FAULT FLAGS:
  --retries N       attempts per probe (default 1 = no retries)
  --timeout SECS    per-attempt timeout, seconds (dig default: 5)
  --backoff-ms MS   base exponential backoff between attempts (default 0)
  --jitter F        multiplicative backoff jitter fraction in [0, 1)
  --faults MODE     'none' (default) or 'default': the seeded fault plan
                    of outages, brownouts, cert-expiry and rate-limit
                    windows. '--faults default' also switches retries to
                    dig defaults (3 tries, 5 s timeout) unless overridden.

LOAD FLAGS (campaign only):
  --load MULT       attach the standard client-population load model at
                    the given multiplier: resolvers see queueing delay and
                    overload shedding proportional to the simulated client
                    demand their sites attract. MULT is positive and
                    finite, or 0 for no model: the same campaign as
                    omitting the flag. See the load_sweep bench for
                    whole-ladder throughput/latency curves.

SESSION FLAGS (campaign only):
  --session MODE    connection-reuse model: 'cold' (the default: no
                    model, every probe opens a fresh connection — the
                    paper's methodology), 'warm' (full ticket-cache +
                    connection-pool + QUIC 0-RTT reuse under each
                    resolver's policy), or a fraction in
                    [0, 1] (warm with that share of probes forced cold on
                    a seeded schedule, so the output carries its own cold
                    baseline). Warm records gain a \"conn_mode\" JSON key
                    (cold|resumed|reused); see report::ReuseAblation for
                    the per-protocol ablation table. Composes with
                    --load: a pooled connection is dropped when the load
                    model moves the pair to another site.
";

/// Checks one subcommand's arguments against the flags it documents
/// (each list space-separated): `valued` flags take the next argument,
/// `bare` flags none, and `positionals` arguments may stand outside any
/// flag. Anything else, or a valued flag at the end of the line, is an
/// error naming it.
fn check_args(args: &[String], positionals: usize, valued: &str, bare: &str) -> Result<(), String> {
    let mut seen = 0;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if valued.split(' ').any(|flag| flag == arg) {
            args.next()
                .ok_or_else(|| format!("{arg} requires a value"))?;
        } else if arg.starts_with("--") {
            if !bare.split(' ').any(|flag| flag == arg) {
                return Err(format!("unknown flag {arg}; try --help"));
            }
        } else {
            seen += 1;
            if seen > positionals {
                return Err(format!("unexpected argument {arg:?}; try --help"));
            }
        }
    }
    Ok(())
}

/// Fetches the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `value`, given for `flag`, as a count of at least one.
fn positive<T: std::str::FromStr + PartialEq + From<u8>>(
    value: &str,
    flag: &str,
) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n == T::from(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {flag}")),
    }
}

/// Whether a bare `--flag` is present.
fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Overrides fields of `policy` from the shared retry flags. Returns
/// whether any flag was given.
fn apply_retry_flags(args: &[String], policy: &mut RetryPolicy) -> Result<bool, String> {
    let mut touched = false;
    if let Some(v) = flag_value(args, "--retries") {
        policy.tries = v.parse().map_err(|_| "bad --retries")?;
        touched = true;
    }
    if let Some(v) = flag_value(args, "--timeout") {
        let secs: f64 = v.parse().map_err(|_| "bad --timeout")?;
        policy.attempt_timeout = Some(SimDuration::from_millis_f64(secs * 1000.0));
        touched = true;
    }
    if let Some(v) = flag_value(args, "--backoff-ms") {
        let ms: f64 = v.parse().map_err(|_| "bad --backoff-ms")?;
        policy.backoff_base = SimDuration::from_millis_f64(ms);
        touched = true;
    }
    if let Some(v) = flag_value(args, "--jitter") {
        policy.jitter = v.parse().map_err(|_| "bad --jitter")?;
        touched = true;
    }
    policy
        .validate()
        .map_err(|e| format!("bad retry policy: {e}"))?;
    Ok(touched)
}

/// Parses `--faults none|default` (default `none`).
fn faults_enabled(args: &[String]) -> Result<bool, String> {
    match flag_value(args, "--faults").unwrap_or("none") {
        "none" => Ok(false),
        "default" => Ok(true),
        other => Err(format!("unknown fault mode {other:?}; try none|default")),
    }
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    check_args(args, 0, "", "")?;
    let mut entries = catalog::resolvers::all();
    entries.sort_by_key(|e| (e.region(), e.hostname));
    out!(
        "{} resolvers ({} mainstream):\n",
        entries.len(),
        entries.iter().filter(|e| e.mainstream).count()
    );
    for e in entries {
        out!(
            "{:<42} {:<14} {:<22} {}{}",
            e.hostname,
            e.region().to_string(),
            e.operator,
            if e.anycast { "anycast" } else { "unicast" },
            if e.mainstream { ", mainstream" } else { "" },
        );
    }
    Ok(())
}

fn cmd_probe(args: &[String]) -> Result<(), String> {
    let valued = "--vantage --protocol --count --domain --seed --trace-out \
                  --retries --timeout --backoff-ms --jitter --faults";
    check_args(args, 1, valued, "--trace")?;
    let hostname = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("probe requires a resolver hostname")?;
    let entry = catalog::resolvers::find(hostname)
        .ok_or_else(|| format!("unknown resolver {hostname:?}; see `edns-measure list`"))?;

    let vantage_label = flag_value(args, "--vantage").unwrap_or("ec2-ohio");
    let vantage = measure::vantage::find(vantage_label)
        .ok_or_else(|| format!("unknown vantage {vantage_label:?}"))?;
    let proto_label = flag_value(args, "--protocol").unwrap_or("doh");
    let protocol = Protocol::from_label(proto_label)
        .ok_or_else(|| format!("unknown protocol {proto_label:?}"))?;
    let count: u64 = positive(flag_value(args, "--count").unwrap_or("5"), "--count")?;
    let domain_text = flag_value(args, "--domain").unwrap_or("google.com");
    let domain = Name::parse(domain_text).map_err(|e| format!("bad domain: {e}"))?;
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --seed")?;
    let trace = flag_present(args, "--trace");
    let trace_out = flag_value(args, "--trace-out");
    let faults_on = faults_enabled(args)?;
    let mut retry = if faults_on {
        RetryPolicy::dig_defaults()
    } else {
        RetryPolicy::none()
    };
    apply_retry_flags(args, &mut retry)?;
    let faults = if faults_on {
        // Cover the hourly probe cadence with an hour of slack.
        measure::config::default_fault_plan(seed, SimDuration::from_secs((count + 1) * 3600))
    } else {
        FaultPlan::EMPTY
    };

    let prober = Prober::new();
    let mut target = ProbeTarget::from_entry(entry);
    let client = vantage.host(0);
    let mut rng = netsim::SimRng::derived(seed, &format!("cli:{vantage_label}:{hostname}"));
    let cfg = ProbeConfig { protocol, retry };

    out!(
        "; <<>> edns-measure <<>> {domain_text} @{hostname} over {protocol} from {vantage_label}\n"
    );
    let mut times = Vec::new();
    let mut errors = 0;
    let mut chrome = trace_out.map(|_| obs::traceview::ChromeTrace::new());
    for i in 0..count {
        let now = SimTime::from_nanos(i * 3_600_000_000_000);
        let mut log = if trace || chrome.is_some() {
            obs::SpanLog::with_capacity(64)
        } else {
            obs::SpanLog::disabled()
        };
        let req = ProbeRequest {
            client: &client,
            domain: &domain,
            now,
            is_home: vantage.is_home(),
            cfg,
            faults: &faults,
        };
        let ProbeReport {
            outcome,
            ping,
            retry: retry_info,
            ..
        } = prober.probe(&req, &mut target, &mut rng, &mut log);
        let attempts_note = retry_info
            .as_ref()
            .filter(|info| info.attempts > 1)
            .map(|info| format!("  [{} attempts]", info.attempts))
            .unwrap_or_default();
        match outcome {
            ProbeOutcome::Success {
                timings,
                cache_hit,
                site,
            } => {
                out!(
                    "probe {:>2}: response {:8.2} ms  (connect {:6.2} + secure {:6.2} + query {:6.2})  ping {}  site {}{}{}",
                    i + 1,
                    timings.total().as_millis_f64(),
                    timings.connect.as_millis_f64(),
                    timings.tls_handshake.as_millis_f64(),
                    timings.exchange().as_millis_f64(),
                    ping.map(|p| format!("{:6.2} ms", p.as_millis_f64()))
                        .unwrap_or_else(|| "  (filtered)".into()),
                    site,
                    if cache_hit { "" } else { "  [cache miss]" },
                    attempts_note,
                );
                times.push(timings.total().as_millis_f64());
            }
            ProbeOutcome::Failure { kind, elapsed } => {
                out!(
                    "probe {:>2}: FAILED ({kind}) after {:.1} ms{}",
                    i + 1,
                    elapsed.as_millis_f64(),
                    attempts_note,
                );
                errors += 1;
            }
        }
        if trace {
            for line in log.render().lines() {
                out!("          {line}");
            }
        }
        if let Some(chrome) = chrome.as_mut() {
            let tid = i as u32;
            chrome.thread_name(tid, &format!("probe {}", i + 1));
            chrome.add_log(&log, tid);
        }
    }
    if let (Some(path), Some(chrome)) = (trace_out, chrome) {
        std::fs::write(path, chrome.finish()).map_err(|e| e.to_string())?;
        eprintln!("trace written to {path}");
    }
    if let Some(summary) = edns_stats::Summary::of(&times) {
        out!(
            "\n;; {count} probes, {errors} errors | min/median/p90/max = {:.1}/{:.1}/{:.1}/{:.1} ms",
            summary.min, summary.median, summary.p90, summary.max
        );
    } else {
        out!("\n;; {count} probes, all failed");
    }
    Ok(())
}

/// The recorder flags `--observe DIR` replaced.
const RETIRED_RECORDER_FLAGS: [&str; 4] = ["--events", "--health", "--trace-out", "--progress"];

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    if let Some(old) = args
        .iter()
        .find(|a| RETIRED_RECORDER_FLAGS.contains(&a.as_str()))
    {
        return Err(format!("{old} was replaced by --observe DIR"));
    }
    let valued = "--scale --seed --out --retries --timeout --backoff-ms --jitter --faults \
                  --load --session --days --shards --checkpoint-dir --observe";
    check_args(args, 0, valued, "--metrics")?;
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --seed")?;
    let days: Option<u32> = flag_value(args, "--days")
        .map(|v| positive(v, "--days"))
        .transpose()?;
    let shards: u32 = positive(flag_value(args, "--shards").unwrap_or("8"), "--shards")?;
    let mut config = match (days, flag_value(args, "--scale")) {
        (Some(_), Some(_)) => {
            return Err("--days and --scale each select the campaign; give one".into())
        }
        (Some(days), None) => CampaignConfig::longitudinal(seed, days),
        (None, scale) => Scale::from_name(scale.unwrap_or("standard"))?.config(seed),
    };
    if faults_enabled(args)? {
        // Dig-default retries plus the seeded fault plan.
        config = config.with_default_faults();
    }
    if let Some(v) = flag_value(args, "--load") {
        let multiplier: f64 = v.parse().map_err(|_| "bad --load")?;
        // 0 is no model, as `--session cold` is no session model.
        if multiplier != 0.0 {
            let load = measure::LoadModel::standard(seed).with_multiplier(multiplier);
            load.validate().map_err(|e| format!("--load {v}: {e}"))?;
            config = config.with_load(load);
        }
    }
    if let Some(v) = flag_value(args, "--session") {
        config.session = measure::SessionConfig::from_arg(v)?;
    }
    apply_retry_flags(args, &mut config.probe.retry)?;
    let out = flag_value(args, "--out").unwrap_or("results.jsonl");

    // The flight recorder lives in the sharded engine, so --observe
    // selects it too (with the default shard count).
    let sharded = days.is_some()
        || flag_value(args, "--shards").is_some()
        || flag_value(args, "--checkpoint-dir").is_some()
        || flag_value(args, "--observe").is_some();
    if sharded {
        return cmd_campaign_sharded(args, config, shards, out);
    }

    let campaign = Campaign::new(config);
    eprintln!(
        "running {} probes over {} resolvers...",
        campaign.probe_count(),
        catalog::resolvers::all().len()
    );
    // Operator feedback only — never part of the measured output (which
    // runs purely in simulated time). obs::clock is the audited wall-clock
    // shim; detlint rejects a bare Instant::now here.
    let start = obs::clock::Stopwatch::start();
    let result = campaign.run_parallel(cores());
    eprintln!(
        "done in {:.1}s: {} ok / {} errors",
        start.elapsed_secs(),
        result.successes(),
        result.errors()
    );
    let mut file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    measure::campaign::write_json_blocks(&result.records, |block| file.write_all(block))
        .map_err(|e| e.to_string())?;
    eprintln!("results written to {out}");
    if flag_present(args, "--metrics") {
        out!("{}", result.metrics().render());
    }
    Ok(())
}

/// Threads a campaign keeps busy, this one included: one per core, else 2.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The longitudinal path: shard the campaign, execute with checkpoints,
/// resume whatever an earlier (killed) invocation already finished, and
/// stream the assembled JSONL to `out`.
fn cmd_campaign_sharded(
    args: &[String],
    config: CampaignConfig,
    shards: u32,
    out: &str,
) -> Result<(), String> {
    let dir = flag_value(args, "--checkpoint-dir").unwrap_or("checkpoints");
    let observe = flag_value(args, "--observe");

    let campaign = Campaign::new(config);
    let runner = measure::ShardedRunner::new(&campaign, shards, dir)
        .map_err(|e| e.to_string())?
        .with_progress(observe.is_some());
    eprintln!(
        "running {} probes over {} resolvers in {} shards (checkpoints in {dir})...",
        campaign.probe_count(),
        campaign.entries().len(),
        runner.shards(),
    );
    // Operator feedback only — results run purely in simulated time.
    let start = obs::clock::Stopwatch::start();
    // A worker per core beside this thread, which works too.
    let outcome = runner.run(cores() - 1).map_err(|e| e.to_string())?;
    let overall = outcome.aggregates.overall();
    eprintln!(
        "done in {:.1}s: {} records, availability {:.2}% ({} resumed of {} shards)",
        start.elapsed_secs(),
        outcome.records,
        overall.availability.availability() * 100.0,
        outcome.run.shards_resumed.get(),
        outcome.run.shards_planned.get(),
    );
    if outcome.jsonl_path != std::path::Path::new(out) {
        std::fs::copy(&outcome.jsonl_path, out).map_err(|e| e.to_string())?;
    }
    eprintln!("results written to {out}");
    out!("{}", outcome.run.render());
    if let (Some(p50), Some(p95)) = (
        overall.response.quantile(0.5),
        overall.response.quantile(0.95),
    ) {
        out!(
            "response times: mean {:.1} ms, p50 ~{p50:.1} ms, p95 ~{p95:.1} ms over {} successes",
            overall.response.mean().unwrap_or(0.0),
            overall.response.count(),
        );
    }
    if let Some(dir) = observe {
        outcome.export(dir).map_err(|e| e.to_string())?;
        eprintln!(
            "flight recorder written to {dir}: events.jsonl ({} events, {} warnings), \
             health.jsonl ({} resolver-day rows), trace.json",
            outcome.journal.recorded(),
            outcome.journal.count_at(obs::EventLevel::Warn),
            outcome.health.resolver_rows().len(),
        );
    }
    if !outcome.drift.is_empty() {
        out!("\ndrift findings ({}):", outcome.drift.len());
        for f in &outcome.drift {
            out!("  {}", render_drift(f));
        }
    }
    if flag_present(args, "--metrics") {
        out!("{}", outcome.metrics.render());
    }
    Ok(())
}

/// One human-readable line per drift finding (the machine form lives in
/// the `--observe` journal under the same code).
fn render_drift(f: &measure::DriftFinding) -> String {
    use measure::DriftKind;
    match f.kind {
        DriftKind::AvailabilityBurn => format!(
            "{:<18} {:<42} day {:>3}: availability {:.1}% (baseline {:.1}%)",
            f.kind.code(),
            f.resolver.as_str(),
            f.day,
            f.value * 100.0,
            f.baseline * 100.0,
        ),
        DriftKind::LatencyDrift => format!(
            "{:<18} {:<42} day {:>3}: p95 {:.1} ms (baseline {:.1} ms)",
            f.kind.code(),
            f.resolver.as_str(),
            f.day,
            f.value,
            f.baseline,
        ),
        DriftKind::ErrorMixShift => format!(
            "{:<18} {:<42} day {:>3}: dominant error {} -> {}",
            f.kind.code(),
            f.resolver.as_str(),
            f.day,
            f.from_error.map(|l| l.as_str()).unwrap_or("none"),
            f.to_error.map(|l| l.as_str()).unwrap_or("none"),
        ),
    }
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    check_args(args, 1, "", "")?;
    let path = args.first().ok_or("report requires a results file")?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;

    // One streaming pass, a line in memory at a time: per-resolver
    // availability + per-(vantage, resolver) streaming medians of the
    // successes + retry-layer outcomes. Every record makes its cell, so a
    // vantage with only failures still gets its header below.
    let mut medians: BTreeMap<(Label, Label), P2Quantile> = BTreeMap::new();
    let mut ledger = edns_stats::AvailabilityLedger::new();
    let (mut n, mut successes) = (0u64, 0u64);
    let mut recovered = 0u64;
    let mut exhausted = 0u64;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let at = |e: &dyn std::fmt::Display| format!("{path}:{}: {e}", i + 1);
        let line = line.map_err(|e| at(&e))?;
        if line.trim().is_empty() {
            continue;
        }
        let r = &line.parse::<ProbeRecord>().map_err(|e| at(&e))?;
        n += 1;
        let median = (medians.entry((r.vantage_id(), r.resolver_id())))
            .or_insert_with(|| P2Quantile::new(0.5));
        match &r.outcome {
            ProbeOutcome::Success { timings, .. } => {
                median.observe(timings.total().as_millis_f64());
                successes += 1;
                ledger.success(r.resolver());
            }
            ProbeOutcome::Failure { kind, .. } => ledger.error(r.resolver(), kind.label()),
        }
        if let Some(retry) = &r.retry {
            recovered += u64::from(retry.recovered(&r.outcome));
            exhausted += u64::from(retry.exhausted(&r.outcome));
        }
    }
    out!("{n} records: {successes} ok / {} errors\n", n - successes);
    if recovered > 0 || exhausted > 0 {
        out!("retry layer: {recovered} transient failures recovered, {exhausted} probes exhausted their budget\n");
    }

    let worst = ledger.worst(0.995);
    if worst.is_empty() {
        out!("every resolver above 99.5% availability");
    } else {
        out!("resolvers below 99.5% availability:");
        for (resolver, availability) in worst.iter().take(15) {
            let dominant = ledger
                .get(resolver)
                .and_then(|a| a.dominant_error().map(str::to_string))
                .unwrap_or_default();
            out!(
                "  {resolver:<42} {:6.2}%  ({dominant})",
                availability * 100.0
            );
        }
    }

    // Fastest resolvers per vantage, from the streaming medians.
    let vantages: BTreeSet<Label> = medians.keys().map(|&(v, _)| v).collect();
    for vantage in vantages {
        let mut rows: Vec<(&str, f64)> = (medians.iter())
            .filter(|((v, _), _)| *v == vantage)
            .filter_map(|((_, r), median)| Some((r.as_str(), median.estimate()?)))
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
        out!("\nfastest from {vantage} (streaming medians):");
        for (resolver, median) in rows.iter().take(5) {
            out!("  {resolver:<42} {median:8.1} ms");
        }
    }
    Ok(())
}
